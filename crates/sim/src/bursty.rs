//! Correlated (MMPP) arrivals — the strongest departure from the paper's
//! Poisson assumption.
//!
//! [`run_replication_mmpp`] re-runs the standard scenario with each
//! user's job stream replaced by a two-state Markov-modulated Poisson
//! process of the same long-run rate. Renewal interarrivals (covered by
//! [`crate::scenario`]) change the marginal distribution only; MMPP adds
//! *temporal correlation* — sustained bursts — which queueing folklore
//! says hurts far more. The tests confirm it.

use lb_des::engine::Engine;
use lb_des::monitor::ResponseTimeMonitor;
use lb_des::rng::RngStream;
use lb_des::source::MmppSource;
use lb_des::station::{Arrival, FcfsStation, Job};
use lb_des::time::SimTime;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;

use crate::scenario::{SimulationConfig, SimulationResult};

/// Burst parameters for every user's MMPP stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    /// Burst-state rate as a multiple of the user's mean rate
    /// (`1 <= burst_factor < 2`; 1 degenerates to Poisson-like).
    pub burst_factor: f64,
    /// Mean sojourn in each modulating state, in units of the user's mean
    /// interarrival time (larger = longer, more damaging bursts).
    pub relative_sojourn: f64,
}

/// Runs one replication with MMPP arrivals (same service model and
/// measurement pipeline as [`crate::scenario::run_replication`]).
///
/// # Errors
///
/// As for [`crate::scenario::run_replication`].
pub fn run_replication_mmpp(
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
    burst: BurstModel,
    seed: u64,
) -> Result<SimulationResult, GameError> {
    profile.check_stability(model)?;
    let m = model.num_users();
    let n = model.num_computers();

    let horizon_secs = config.target_jobs as f64 / model.total_arrival_rate();
    let warmup = SimTime::new(horizon_secs * config.warmup_fraction);

    let mut sources: Vec<MmppSource> = (0..m)
        .map(|j| {
            let phi = model.user_rate(j);
            MmppSource::balanced(
                phi,
                burst.burst_factor,
                burst.relative_sojourn / phi,
                RngStream::new(seed, j as u64),
            )
        })
        .collect();
    let mut dispatch_streams: Vec<RngStream> = (0..m)
        .map(|j| RngStream::new(seed, (m + j) as u64))
        .collect();
    let mut service_streams: Vec<RngStream> = (0..n)
        .map(|i| RngStream::new(seed, (2 * m + i) as u64))
        .collect();
    let service_dists: Vec<_> = (0..n)
        .map(|i| config.service.distribution(model.computer_rate(i)))
        .collect();

    #[derive(Debug, Clone, Copy)]
    enum Event {
        Arrival { user: usize },
        Completion { computer: usize },
    }

    let mut stations: Vec<FcfsStation> = (0..n).map(|_| FcfsStation::new()).collect();
    let mut monitor = ResponseTimeMonitor::new(m, warmup);
    let mut engine: Engine<Event> = Engine::new();
    engine.set_horizon(SimTime::new(horizon_secs));

    for (j, src) in sources.iter_mut().enumerate() {
        let dt = src.next_interarrival();
        engine.schedule_in(dt, Event::Arrival { user: j });
    }

    let mut jobs_generated = 0_u64;
    while let Some(ev) = engine.next_event() {
        match ev {
            Event::Arrival { user } => {
                let dt = sources[user].next_interarrival();
                engine.schedule_in(dt, Event::Arrival { user });

                let fractions = profile.strategy(user).fractions();
                let computer = dispatch_streams[user].categorical(fractions);
                let service = service_streams[computer].sample(&service_dists[computer]);
                jobs_generated += 1;
                let job = Job {
                    id: jobs_generated,
                    user,
                    arrival: engine.now(),
                    service_time: service,
                };
                if let Arrival::StartService(done_at) = stations[computer].arrive(job, engine.now())
                {
                    engine.schedule_at(done_at, Event::Completion { computer });
                }
            }
            Event::Completion { computer } => {
                let (finished, next) = stations[computer].complete(engine.now());
                monitor.record(finished.user, finished.arrival, engine.now());
                if let Some((_, done_at)) = next {
                    engine.schedule_at(done_at, Event::Completion { computer });
                }
            }
        }
    }

    let now = SimTime::new(horizon_secs);
    Ok(SimulationResult {
        user_means: monitor.user_means(),
        system_mean: monitor.system_mean(),
        user_counts: (0..m).map(|j| monitor.count(j)).collect(),
        jobs_generated,
        utilizations: stations.iter().map(|s| s.utilization(now)).collect(),
        horizon: horizon_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::nash::nash_equilibrium;
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};

    #[test]
    fn correlated_bursts_inflate_response_times() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let cfg = SimulationConfig::quick();
        let poisson =
            crate::scenario::run_replication(&model, &profile, cfg, 41, None, None, |_, _| {})
                .unwrap();
        let mild = run_replication_mmpp(
            &model,
            &profile,
            cfg,
            BurstModel {
                burst_factor: 1.5,
                relative_sojourn: 20.0,
            },
            41,
        )
        .unwrap();
        let heavy = run_replication_mmpp(
            &model,
            &profile,
            cfg,
            BurstModel {
                burst_factor: 1.9,
                relative_sojourn: 200.0,
            },
            41,
        )
        .unwrap();
        assert!(
            poisson.system_mean < heavy.system_mean,
            "poisson {} vs heavy bursts {}",
            poisson.system_mean,
            heavy.system_mean
        );
        assert!(
            mild.system_mean < heavy.system_mean,
            "mild {} vs heavy {}",
            mild.system_mean,
            heavy.system_mean
        );
    }

    #[test]
    fn long_run_rate_is_preserved() {
        let model = SystemModel::new(vec![30.0], vec![4.0, 8.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let r = run_replication_mmpp(
            &model,
            &profile,
            SimulationConfig::quick(),
            BurstModel {
                burst_factor: 1.8,
                relative_sojourn: 50.0,
            },
            13,
        )
        .unwrap();
        let ratio = r.user_counts[1] as f64 / r.user_counts[0] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "rate ratio {ratio}");
        let target = 60_000.0;
        assert!(
            (r.jobs_generated as f64 - target).abs() < 0.1 * target,
            "generated {}",
            r.jobs_generated
        );
    }

    #[test]
    fn burst_crossover_between_nash_and_ps() {
        // A real finding (EXPERIMENTS.md Ext. 7): under *mild* correlated
        // bursts NASH keeps its advantage over PS, but under heavy,
        // sustained bursts the ordering REVERSES — the equilibrium loads
        // the fast machines close to their limits while PS's uniform
        // slack absorbs bursts. The paper's scheme is optimal for the
        // traffic model it assumes, not unconditionally.
        let model = SystemModel::table1_system(0.6).unwrap();
        let nash = nash_equilibrium(&model).unwrap();
        let ps = ProportionalScheme.compute(&model).unwrap();
        let cfg = SimulationConfig::quick();
        let run = |profile: &lb_game::strategy::StrategyProfile, b: BurstModel| {
            run_replication_mmpp(&model, profile, cfg, b, 3)
                .unwrap()
                .system_mean
        };
        let mild = BurstModel {
            burst_factor: 1.3,
            relative_sojourn: 20.0,
        };
        let heavy = BurstModel {
            burst_factor: 1.9,
            relative_sojourn: 200.0,
        };
        let (nash_mild, ps_mild) = (run(nash.profile(), mild), run(&ps, mild));
        assert!(
            nash_mild < ps_mild,
            "mild bursts: NASH {nash_mild} should still beat PS {ps_mild}"
        );
        let (nash_heavy, ps_heavy) = (run(nash.profile(), heavy), run(&ps, heavy));
        assert!(
            ps_heavy < nash_heavy,
            "heavy bursts: PS {ps_heavy} should overtake NASH {nash_heavy}"
        );
    }
}
