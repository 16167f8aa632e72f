//! The single-calendar simulator and its dispatch rules: static
//! profiles and the paper's "dynamic load balancing" future work, made
//! concrete.
//!
//! The paper's schemes are *static*: each job is routed by fixed
//! probabilities, blind to the current queues. A dynamic dispatcher
//! inspects the run queues at each arrival (the same observable the
//! paper's users estimate) and routes jobs online:
//!
//! * [`DispatchPolicy::Static`] — the paper's model (any strategy
//!   profile, e.g. the Nash equilibrium).
//! * [`DispatchPolicy::WeightedRoundRobin`] — deterministic proportional
//!   interleaving (static information, but no sampling variance).
//! * [`DispatchPolicy::JoinShortestQueue`] — route to the shortest run
//!   queue. Textbook-optimal for *homogeneous* servers; on heterogeneous
//!   ones it famously misroutes to slow machines (the tests show it).
//! * [`DispatchPolicy::PowerOfD`] — sample `d` random computers, pick
//!   the best by expected delay (the "power of two choices").
//! * [`DispatchPolicy::ShortestExpectedDelay`] — route to
//!   `argmin (n_i + 1)/μ_i`, the heterogeneity-correct greedy rule.
//!
//! Every one of them runs on one event loop, shared with the multicore
//! pools ([`crate::pools`]) and with [`crate::scenario::run_replication`]'s
//! non-Poisson arrivals (as [`DispatchPolicy::Static`]): each user's
//! renewal arrival process, every dispatch decision and every FCFS
//! station share one global calendar, so completions happen in global
//! time order. The `ext-policies` experiment quantifies how much the
//! online information is worth relative to the static Nash equilibrium.

use crate::scenario::{SimulationConfig, SimulationResult};
use lb_des::engine::Engine;
use lb_des::monitor::ResponseTimeMonitor;
use lb_des::rng::{Distribution, RngStream};
use lb_des::station::{Arrival, FcfsStation, Job};
use lb_des::time::SimTime;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;

/// A job-dispatch rule, applied at every arrival.
#[derive(Debug, Clone)]
pub enum DispatchPolicy {
    /// Probabilistic routing by a fixed strategy profile (the paper).
    Static(StrategyProfile),
    /// Deterministic proportional interleaving of the profile's
    /// *aggregate* fractions (smallest-deficit-first).
    WeightedRoundRobin(StrategyProfile),
    /// Route to the computer with the fewest jobs present (ties broken
    /// by processing rate, fastest first).
    JoinShortestQueue,
    /// Sample `d >= 1` computers with probability proportional to their
    /// processing rates, route to the one with the smallest expected
    /// delay `(n_i + 1)/μ_i`. (Rate-proportional sampling is the
    /// heterogeneity-safe variant: uniform sampling routes almost all
    /// traffic to the numerous slow machines and diverges.)
    PowerOfD(usize),
    /// Route to `argmin (n_i + 1)/μ_i` over all computers.
    ShortestExpectedDelay,
}

impl DispatchPolicy {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::Static(_) => "STATIC",
            DispatchPolicy::WeightedRoundRobin(_) => "WRR",
            DispatchPolicy::JoinShortestQueue => "JSQ",
            DispatchPolicy::PowerOfD(_) => "POW-D",
            DispatchPolicy::ShortestExpectedDelay => "SED",
        }
    }
}

/// A dispatch rule as the event loop runs it, with its weight rows and
/// round-robin state resolved.
pub(crate) enum Rule<'a> {
    /// A categorical draw over the arriving user's weight row.
    Weighted(Vec<&'a [f64]>),
    /// Smallest-deficit-first interleaving: accumulated credit and
    /// aggregate weight per station.
    RoundRobin {
        credit: Vec<f64>,
        weights: Vec<f64>,
    },
    JoinShortestQueue,
    PowerOfD(usize),
    ShortestExpectedDelay,
}

/// Events of the single-calendar simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// User `user` generates a job now.
    Arrival { user: usize },
    /// A job in service at `station` finishes now.
    Completion { station: usize },
}

/// Runs one replication of `model` on the single-calendar engine,
/// routing every arrival by `policy` and streaming every *measured*
/// (post-warmup) job's `(user, response_time)` to `sink` in global
/// completion order; pass `|_, _| {}` to ignore it.
///
/// Interarrival and service times follow `config.arrivals` and
/// `config.service`.
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] when a profile's shape disagrees
///   with the model.
/// * [`GameError::InfeasibleStrategy`] when a static profile saturates a
///   computer.
/// * [`GameError::InvalidRate`] for `PowerOfD(0)`.
pub fn run_policy_replication<F: FnMut(usize, f64)>(
    model: &SystemModel,
    policy: &DispatchPolicy,
    config: SimulationConfig,
    seed: u64,
    sink: F,
) -> Result<SimulationResult, GameError> {
    let rule = match policy {
        DispatchPolicy::Static(profile) => {
            profile.check_stability(model)?;
            Rule::Weighted(
                (0..model.num_users())
                    .map(|j| profile.strategy(j).fractions())
                    .collect(),
            )
        }
        DispatchPolicy::WeightedRoundRobin(profile) => {
            profile.check_stability(model)?;
            let phi = model.total_arrival_rate();
            Rule::RoundRobin {
                credit: vec![0.0; model.num_computers()],
                weights: profile
                    .computer_flows(model)?
                    .iter()
                    .map(|f| f / phi)
                    .collect(),
            }
        }
        DispatchPolicy::JoinShortestQueue => Rule::JoinShortestQueue,
        DispatchPolicy::PowerOfD(0) => {
            return Err(GameError::InvalidRate {
                name: "d",
                value: 0.0,
            })
        }
        DispatchPolicy::PowerOfD(d) => Rule::PowerOfD(*d),
        DispatchPolicy::ShortestExpectedDelay => Rule::ShortestExpectedDelay,
    };
    let stations: Vec<(f64, u32)> = model.computer_rates().iter().map(|&mu| (mu, 1)).collect();
    Ok(run_single_calendar(
        model.user_rates(),
        &stations,
        rule,
        config,
        seed,
        sink,
    ))
}

/// The single-calendar event loop: users of rates `user_rates` send jobs
/// to FCFS `stations`, each given as (service rate, servers), routed by
/// `rule`. The caller has validated every input.
///
/// Stream layout: user `j`'s interarrivals on stream `j`, its dispatch
/// draws on `m + j`, station `i`'s service demands on `2m + i`.
pub(crate) fn run_single_calendar<F: FnMut(usize, f64)>(
    user_rates: &[f64],
    stations: &[(f64, u32)],
    mut rule: Rule<'_>,
    config: SimulationConfig,
    seed: u64,
    mut sink: F,
) -> SimulationResult {
    let m = user_rates.len();
    let n = stations.len();
    let horizon_secs = config.target_jobs as f64 / user_rates.iter().sum::<f64>();
    let warmup = SimTime::new(horizon_secs * config.warmup_fraction);

    let mut arrival_streams: Vec<RngStream> =
        (0..m).map(|j| RngStream::new(seed, j as u64)).collect();
    let mut dispatch_streams: Vec<RngStream> = (0..m)
        .map(|j| RngStream::new(seed, (m + j) as u64))
        .collect();
    let mut service_streams: Vec<RngStream> = (0..n)
        .map(|i| RngStream::new(seed, (2 * m + i) as u64))
        .collect();
    let arrival_dists: Vec<Distribution> = user_rates
        .iter()
        .map(|&rate| config.arrivals.distribution(rate))
        .collect();
    let service_dists: Vec<Distribution> = stations
        .iter()
        .map(|&(mu, _)| config.service.distribution(mu))
        .collect();
    let mu: Vec<f64> = stations.iter().map(|&(mu, _)| mu).collect();

    let mut fcfs: Vec<FcfsStation> = stations
        .iter()
        .map(|&(_, servers)| FcfsStation::with_servers(servers))
        .collect();
    let mut monitor = ResponseTimeMonitor::new(m, warmup);
    let mut engine: Engine<Event> = Engine::new();
    engine.set_horizon(SimTime::new(horizon_secs));

    // Prime the arrival processes.
    for j in 0..m {
        let dt = arrival_streams[j].sample(&arrival_dists[j]);
        engine.schedule_in(dt, Event::Arrival { user: j });
    }

    let mut jobs_generated = 0_u64;
    while let Some(ev) = engine.next_event() {
        match ev {
            Event::Arrival { user } => {
                // Next arrival of this user (renewal process).
                let dt = arrival_streams[user].sample(&arrival_dists[user]);
                engine.schedule_in(dt, Event::Arrival { user });

                let station = match &mut rule {
                    Rule::Weighted(rows) => dispatch_streams[user].categorical(rows[user]),
                    Rule::RoundRobin { credit, weights } => {
                        // Accumulate credit, send to the largest.
                        for (c, w) in credit.iter_mut().zip(weights.iter()) {
                            *c += w;
                        }
                        let best = argmax(credit);
                        credit[best] -= 1.0;
                        best
                    }
                    Rule::JoinShortestQueue => {
                        // Fewest jobs present; ties to the fastest machine.
                        (0..n)
                            .min_by(|&a, &b| {
                                fcfs[a]
                                    .run_queue_length()
                                    .cmp(&fcfs[b].run_queue_length())
                                    .then(mu[b].partial_cmp(&mu[a]).expect("finite rates"))
                            })
                            .expect("non-empty system")
                    }
                    Rule::PowerOfD(d) => {
                        let mut best = None;
                        for _ in 0..(*d).min(n) {
                            let i = dispatch_streams[user].categorical(&mu);
                            let delay = (fcfs[i].run_queue_length() as f64 + 1.0) / mu[i];
                            best = match best {
                                None => Some((i, delay)),
                                Some((_, bd)) if delay < bd => Some((i, delay)),
                                keep => keep,
                            };
                        }
                        best.expect("d >= 1").0
                    }
                    Rule::ShortestExpectedDelay => (0..n)
                        .min_by(|&a, &b| {
                            let da = (fcfs[a].run_queue_length() as f64 + 1.0) / mu[a];
                            let db = (fcfs[b].run_queue_length() as f64 + 1.0) / mu[b];
                            da.partial_cmp(&db).expect("finite delays")
                        })
                        .expect("non-empty system"),
                };

                let service = service_streams[station].sample(&service_dists[station]);
                jobs_generated += 1;
                let job = Job {
                    id: jobs_generated,
                    user,
                    arrival: engine.now(),
                    service_time: service,
                };
                if let Arrival::StartService(done_at) = fcfs[station].arrive(job, engine.now()) {
                    // Completions may land past the horizon; the engine
                    // simply never delivers those.
                    engine.schedule_at(done_at, Event::Completion { station });
                }
            }
            Event::Completion { station } => {
                let (finished, next) = fcfs[station].complete(engine.now());
                monitor.record(finished.user, finished.arrival, engine.now());
                if finished.arrival >= warmup {
                    sink(finished.user, engine.now() - finished.arrival);
                }
                if let Some((_, done_at)) = next {
                    engine.schedule_at(done_at, Event::Completion { station });
                }
            }
        }
    }

    let now = SimTime::new(horizon_secs);
    SimulationResult {
        user_means: monitor.user_means(),
        system_mean: monitor.system_mean(),
        user_counts: (0..m).map(|j| monitor.count(j)).collect(),
        jobs_generated,
        utilizations: fcfs.iter().map(|s| s.utilization(now)).collect(),
    }
}

fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::nash::nash_equilibrium;
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};

    fn mean(model: &SystemModel, policy: &DispatchPolicy) -> f64 {
        run_policy_replication(model, policy, SimulationConfig::quick(), 23, |_, _| {})
            .unwrap()
            .system_mean
    }

    #[test]
    fn sed_beats_the_static_nash_equilibrium() {
        // Online queue information dominates any static rule.
        let model = SystemModel::table1_system(0.6).unwrap();
        let nash = nash_equilibrium(&model).unwrap();
        let d_static = mean(&model, &DispatchPolicy::Static(nash.profile().clone()));
        let d_sed = mean(&model, &DispatchPolicy::ShortestExpectedDelay);
        assert!(
            d_sed < d_static,
            "SED {d_sed} should beat static NASH {d_static}"
        );
    }

    #[test]
    fn naive_jsq_suffers_under_high_heterogeneity() {
        // Raw queue-length JSQ ignores speed: at skewness 20 it routes
        // heavily to the fourteen slow machines and loses even to the
        // *static* Nash profile, while speed-aware SED dominates both.
        let model = SystemModel::skewed_system(20.0, 0.6).unwrap();
        let nash = nash_equilibrium(&model).unwrap();
        let d_static = mean(&model, &DispatchPolicy::Static(nash.profile().clone()));
        let d_jsq = mean(&model, &DispatchPolicy::JoinShortestQueue);
        let d_sed = mean(&model, &DispatchPolicy::ShortestExpectedDelay);
        assert!(
            d_jsq > d_static,
            "JSQ {d_jsq} should lose to static NASH {d_static} at skew 20"
        );
        assert!(d_sed < d_static, "SED {d_sed} vs static {d_static}");
    }

    #[test]
    fn power_of_two_sits_between_one_choice_and_sed() {
        let model = SystemModel::table1_system(0.6).unwrap();
        // d = 1 is rate-proportional random routing (PS-like).
        let d_pow1 = mean(&model, &DispatchPolicy::PowerOfD(1));
        let d_pow2 = mean(&model, &DispatchPolicy::PowerOfD(2));
        let d_sed = mean(&model, &DispatchPolicy::ShortestExpectedDelay);
        assert!(d_pow2 < d_pow1, "two choices {d_pow2} vs one {d_pow1}");
        assert!(d_sed <= d_pow2 * 1.05, "SED {d_sed} vs pow2 {d_pow2}");
        // And the single sample behaves like the PS utilization pattern.
        let ps = ProportionalScheme.compute(&model).unwrap();
        let d_ps = mean(&model, &DispatchPolicy::Static(ps));
        assert!(
            (d_pow1 - d_ps).abs() < 0.15 * d_ps,
            "pow1 {d_pow1} vs PS {d_ps}"
        );
    }

    #[test]
    fn wrr_tracks_its_profile_flows() {
        let model = SystemModel::table1_system(0.5).unwrap();
        let nash = nash_equilibrium(&model).unwrap();
        let r = run_policy_replication(
            &model,
            &DispatchPolicy::WeightedRoundRobin(nash.profile().clone()),
            SimulationConfig::quick(),
            9,
            |_, _| {},
        )
        .unwrap();
        // Empirical computer utilizations track the profile's flows.
        let flows = nash.profile().computer_flows(&model).unwrap();
        for ((u, &f), &mu) in r
            .utilizations
            .iter()
            .zip(&flows)
            .zip(model.computer_rates())
        {
            assert!(
                (u - f / mu).abs() < 0.06,
                "utilization {u} vs expected {}",
                f / mu
            );
        }
        // Deterministic interleaving removes sampling variance: WRR is at
        // least as good as the probabilistic static dispatch.
        let d_static = mean(&model, &DispatchPolicy::Static(nash.profile().clone()));
        assert!(r.system_mean <= d_static * 1.02);
    }

    #[test]
    fn invalid_power_of_d_is_rejected() {
        let model = SystemModel::new(vec![10.0], vec![5.0]).unwrap();
        assert!(matches!(
            run_policy_replication(
                &model,
                &DispatchPolicy::PowerOfD(0),
                SimulationConfig::quick(),
                0,
                |_, _| {}
            ),
            Err(GameError::InvalidRate { .. })
        ));
    }

    #[test]
    fn policy_names_are_stable() {
        let model = SystemModel::new(vec![10.0], vec![5.0]).unwrap();
        let p = ProportionalScheme.compute(&model).unwrap();
        assert_eq!(DispatchPolicy::Static(p.clone()).name(), "STATIC");
        assert_eq!(DispatchPolicy::WeightedRoundRobin(p).name(), "WRR");
        assert_eq!(DispatchPolicy::JoinShortestQueue.name(), "JSQ");
        assert_eq!(DispatchPolicy::PowerOfD(2).name(), "POW-D");
        assert_eq!(DispatchPolicy::ShortestExpectedDelay.name(), "SED");
    }
}
