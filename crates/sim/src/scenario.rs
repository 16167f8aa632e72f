//! One simulation replication of the load-balanced system.
//!
//! Wiring (paper Figure 1): user `j` emits a Poisson stream of rate `φ_j`;
//! each job is dispatched to computer `i` with probability `s_ji`
//! (independent splitting of a Poisson process yields Poisson arrivals of
//! rate `s_ji φ_j` at each computer — the M/M/1 model's assumption); the
//! job's service demand is drawn exponential with the computer's rate
//! `μ_i`; stations serve FCFS, run-to-completion. [`run_replication`]
//! picks the engine that simulates it.

use crate::policies::{run_policy_replication, DispatchPolicy};
use lb_des::rng::Distribution;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;
use lb_telemetry::{Collector, SpanHandle};
use std::sync::Arc;

/// Service-time distribution family, parameterized so computer `i` keeps
/// its mean service time `1/μ_i` while the *shape* (variability) changes.
///
/// The paper assumes [`DistributionFamily::Exponential`] (M/M/1). The other
/// families drive the robustness extension: does the Nash profile,
/// computed under M/M/1 assumptions, still perform when service times are
/// more regular (Erlang, deterministic) or burstier (hyperexponential)?
/// The matching theory is `lb_queueing::mg1` (Pollaczek–Khinchine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistributionFamily {
    /// Exponential service — the paper's model (SCV 1).
    Exponential,
    /// Erlang-k service (SCV `1/k`, more regular than exponential).
    Erlang {
        /// Number of phases (k >= 1).
        k: u32,
    },
    /// Two-phase balanced-means hyperexponential with the given squared
    /// coefficient of variation (must be > 1; burstier than exponential).
    HyperExponential {
        /// Target squared coefficient of variation.
        scv: f64,
    },
    /// Constant service times (SCV 0; M/D/1).
    Deterministic,
}

impl DistributionFamily {
    /// The sampling distribution for a computer of processing rate `mu`
    /// (mean service time `1/mu` in every family).
    ///
    /// # Panics
    ///
    /// Panics for `Erlang { k: 0 }` or a hyperexponential `scv <= 1`
    /// (configuration errors).
    pub fn distribution(&self, mu: f64) -> Distribution {
        match *self {
            DistributionFamily::Exponential => Distribution::Exponential { rate: mu },
            DistributionFamily::Erlang { k } => {
                assert!(k >= 1, "Erlang needs k >= 1");
                Distribution::Erlang {
                    k,
                    rate: f64::from(k) * mu,
                }
            }
            DistributionFamily::HyperExponential { scv } => {
                assert!(scv > 1.0, "hyperexponential needs scv > 1, got {scv}");
                // Balanced-means two-moment fit.
                let d = ((scv - 1.0) / (scv + 1.0)).sqrt();
                let p = 0.5 * (1.0 + d);
                Distribution::HyperExponential {
                    p,
                    rate_a: 2.0 * p * mu,
                    rate_b: 2.0 * (1.0 - p) * mu,
                }
            }
            DistributionFamily::Deterministic => Distribution::Deterministic { value: 1.0 / mu },
        }
    }

    /// Squared coefficient of variation of the family.
    pub fn scv(&self) -> f64 {
        match *self {
            DistributionFamily::Exponential => 1.0,
            DistributionFamily::Erlang { k } => 1.0 / f64::from(k.max(1)),
            DistributionFamily::HyperExponential { scv } => scv,
            DistributionFamily::Deterministic => 0.0,
        }
    }
}

/// Length/precision parameters of one replication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Target number of generated jobs (sets the horizon as
    /// `jobs / Φ` seconds).
    pub target_jobs: u64,
    /// Fraction of the horizon discarded as warmup.
    pub warmup_fraction: f64,
    /// Service-time family (the paper uses exponential).
    pub service: DistributionFamily,
    /// Interarrival-time family per user, as a renewal process (the
    /// paper uses exponential, i.e. Poisson arrivals).
    pub arrivals: DistributionFamily,
}

impl SimulationConfig {
    /// The paper's scale: "several thousands of seconds, sufficient to
    /// generate 1 to 2 millions jobs typically".
    pub fn paper() -> Self {
        Self {
            target_jobs: 1_000_000,
            warmup_fraction: 0.1,
            service: DistributionFamily::Exponential,
            arrivals: DistributionFamily::Exponential,
        }
    }

    /// A fast configuration for unit/integration tests.
    pub fn quick() -> Self {
        Self {
            target_jobs: 60_000,
            warmup_fraction: 0.1,
            service: DistributionFamily::Exponential,
            arrivals: DistributionFamily::Exponential,
        }
    }
}

/// Measurements from one replication.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Mean response time of each user's measured jobs.
    pub user_means: Vec<f64>,
    /// Job-averaged system response time.
    pub system_mean: f64,
    /// Measured (post-warmup) jobs per user.
    pub user_counts: Vec<u64>,
    /// Total jobs generated (including warmup).
    pub jobs_generated: u64,
    /// Empirical busy fraction of each computer.
    pub utilizations: Vec<f64>,
    /// Simulated horizon, in seconds.
    pub horizon: f64,
}

/// Runs one replication of `profile` on `model` with the given seed,
/// streaming every *measured* (post-warmup) job's `(user,
/// response_time)` to `sink` — the hook for custom estimators
/// (histograms, percentile trackers); pass `|_, _| {}` to ignore it.
///
/// Telemetry: the collector receives the engine's `des.compact` events
/// and the shards' `account.des` snapshots, and — when `span_parent` is
/// given — the sharded engine opens one `des.shard` span per station
/// under that parent (typically the caller's `sim.replication` span);
/// the single calendar opens none. Purely observational; results are
/// bit-identical with or without either hook.
///
/// This is the routing point for the simulation engines; the arrival
/// family picks one:
///
/// * Poisson (exponential) arrivals → the sharded per-station engine
///   ([`crate::shard`]), which exploits Poisson splitting to run each
///   station on its own, by the Lindley recursion instead of an event
///   calendar.
/// * Non-Poisson arrivals → the single-calendar engine
///   ([`run_policy_replication`] with [`DispatchPolicy::Static`]), the
///   only one whose renewal arrival streams couple stations through
///   dispatch order.
///
/// Ordering caveat: on the sharded engine the sink stream is grouped by
/// station, not globally time-ordered. Order-insensitive estimators are
/// unaffected; order-sensitive ones (e.g. batch means over the global
/// completion sequence) should run on [`run_policy_replication`]
/// instead.
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] on shape mismatch;
/// [`GameError::InfeasibleStrategy`] if the profile saturates a computer
/// (the simulation would never reach steady state).
pub fn run_replication<F: FnMut(usize, f64)>(
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
    seed: u64,
    collector: Option<&Arc<dyn Collector>>,
    span_parent: Option<&SpanHandle>,
    sink: F,
) -> Result<SimulationResult, GameError> {
    if config.arrivals == DistributionFamily::Exponential {
        return crate::shard::run_shards_in_order(
            model,
            profile,
            config,
            seed,
            collector,
            span_parent,
            sink,
        );
    }
    run_policy_replication(
        model,
        &DispatchPolicy::Static(profile.clone()),
        config,
        seed,
        collector,
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};

    fn small() -> (SystemModel, StrategyProfile) {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        (model, profile)
    }

    #[test]
    fn batch_means_agree_with_replication_methodology() {
        // One long run analyzed with batch means must agree with the
        // replication estimator (and with theory) — the methodology
        // ablation behind the paper's §4.1 choice.
        use lb_stats::BatchMeans;
        let (model, profile) = small();
        let mut bm = BatchMeans::new(2_000);
        let cfg = SimulationConfig {
            target_jobs: 120_000,
            ..SimulationConfig::quick()
        };
        // Batch means needs the *global* completion order, so it runs on
        // the single-calendar engine (the sharded sink groups by station).
        let r = run_policy_replication(
            &model,
            &DispatchPolicy::Static(profile.clone()),
            cfg,
            17,
            None,
            |_, resp| bm.push(resp),
        )
        .unwrap();
        assert!(bm.batches() >= 20, "batches {}", bm.batches());
        assert!(
            (bm.mean() - r.system_mean).abs() < 1e-3 * r.system_mean.max(1e-9) + 1e-4,
            "batch-means {} vs monitor {}",
            bm.mean(),
            r.system_mean
        );
        // Batches of 2000 jobs are big enough to decorrelate.
        let rho1 = bm.lag1_autocorrelation().unwrap();
        assert!(rho1.abs() < 0.4, "lag-1 autocorrelation {rho1}");
        // And the CI covers the analytic value.
        let analytic = lb_game::metrics::evaluate_profile(&model, &profile).unwrap();
        let s = bm.summary(0.95).unwrap();
        assert!(
            (s.mean - analytic.overall_time).abs()
                < 3.0 * s.half_width.max(0.02 * analytic.overall_time),
            "CI [{:.5}, {:.5}] vs theory {:.5}",
            s.ci_low(),
            s.ci_high(),
            analytic.overall_time
        );
    }

    #[test]
    fn sink_sees_only_post_warmup_jobs() {
        let (model, profile) = small();
        let mut count = 0u64;
        let r = run_replication(
            &model,
            &profile,
            SimulationConfig::quick(),
            3,
            None,
            None,
            |_, _| count += 1,
        )
        .unwrap();
        assert_eq!(count, r.user_counts.iter().sum::<u64>());
        assert!(count < r.jobs_generated, "warmup jobs must be excluded");
    }

    #[test]
    fn replication_is_deterministic_per_seed() {
        let (model, profile) = small();
        let cfg = SimulationConfig::quick();
        let a = run_replication(&model, &profile, cfg, 7, None, None, |_, _| {}).unwrap();
        let b = run_replication(&model, &profile, cfg, 7, None, None, |_, _| {}).unwrap();
        assert_eq!(a.user_means, b.user_means);
        assert_eq!(a.jobs_generated, b.jobs_generated);
        let c = run_replication(&model, &profile, cfg, 8, None, None, |_, _| {}).unwrap();
        assert_ne!(a.user_means, c.user_means);
    }

    #[test]
    fn generates_roughly_target_jobs() {
        let (model, profile) = small();
        let cfg = SimulationConfig::quick();
        let r = run_replication(&model, &profile, cfg, 1, None, None, |_, _| {}).unwrap();
        let target = cfg.target_jobs as f64;
        assert!(
            (r.jobs_generated as f64 - target).abs() < 0.05 * target,
            "generated {} vs target {target}",
            r.jobs_generated
        );
        assert!(r.horizon > 0.0);
    }

    #[test]
    fn empirical_means_match_mm1_theory() {
        // PS on this model: each queue at rho = 0.4 -> F = 1/(mu - lambda).
        let (model, profile) = small();
        let analytic = lb_game::metrics::evaluate_profile(&model, &profile).unwrap();
        let r = run_replication(
            &model,
            &profile,
            SimulationConfig::quick(),
            3,
            None,
            None,
            |_, _| {},
        )
        .unwrap();
        for (sim, theory) in r.user_means.iter().zip(&analytic.user_times) {
            let rel = (sim - theory).abs() / theory;
            assert!(rel < 0.08, "simulated {sim} vs theory {theory} (rel {rel})");
        }
        for (sim, theory) in r.utilizations.iter().zip(&analytic.computer_utilizations) {
            assert!((sim - theory).abs() < 0.05, "util {sim} vs {theory}");
        }
    }

    #[test]
    fn unstable_profile_is_rejected() {
        let model = SystemModel::new(vec![5.0, 100.0], vec![50.0]).unwrap();
        // All flow on the slow computer saturates it.
        let profile =
            StrategyProfile::new(vec![lb_game::strategy::Strategy::singleton(2, 0)]).unwrap();
        assert!(matches!(
            run_replication(
                &model,
                &profile,
                SimulationConfig::quick(),
                0,
                None,
                None,
                |_, _| {}
            ),
            Err(GameError::InfeasibleStrategy { .. })
        ));
    }

    #[test]
    fn service_model_distributions_keep_the_mean() {
        let mu = 4.0;
        for model in [
            DistributionFamily::Exponential,
            DistributionFamily::Erlang { k: 3 },
            DistributionFamily::HyperExponential { scv: 4.0 },
            DistributionFamily::Deterministic,
        ] {
            let d = model.distribution(mu);
            assert!(
                (d.mean() - 1.0 / mu).abs() < 1e-12,
                "{model:?} mean {} != {}",
                d.mean(),
                1.0 / mu
            );
            assert!(
                (d.scv() - model.scv()).abs() < 1e-9,
                "{model:?} scv {} != {}",
                d.scv(),
                model.scv()
            );
        }
    }

    #[test]
    #[should_panic(expected = "scv > 1")]
    fn hyperexponential_requires_scv_above_one() {
        DistributionFamily::HyperExponential { scv: 0.5 }.distribution(1.0);
    }

    #[test]
    fn single_queue_matches_pollaczek_khinchine() {
        // One computer, one user, everything routed there: an M/G/1 queue.
        // Validate the simulator against P-K for each service family.
        let model = SystemModel::new(vec![10.0], vec![7.0]).unwrap();
        let profile =
            StrategyProfile::new(vec![lb_game::strategy::Strategy::singleton(1, 0)]).unwrap();
        for service in [
            DistributionFamily::Deterministic,
            DistributionFamily::Erlang { k: 4 },
            DistributionFamily::Exponential,
            DistributionFamily::HyperExponential { scv: 4.0 },
        ] {
            let cfg = SimulationConfig {
                service,
                ..SimulationConfig::quick()
            };
            let r = run_replication(&model, &profile, cfg, 11, None, None, |_, _| {}).unwrap();
            let theory = lb_queueing::mg1::response_time(7.0, 10.0, service.scv());
            let rel = (r.system_mean - theory).abs() / theory;
            assert!(
                rel < 0.10,
                "{service:?}: simulated {} vs P-K {theory} (rel {rel:.3})",
                r.system_mean
            );
        }
    }

    #[test]
    fn single_queue_matches_gim1_theory() {
        // One computer, one user, renewal arrivals with exponential
        // service: a GI/M/1 queue with exact theory to compare against.
        use lb_queueing::gim1::{self, Interarrival};
        let model = SystemModel::new(vec![10.0], vec![7.0]).unwrap();
        let profile =
            StrategyProfile::new(vec![lb_game::strategy::Strategy::singleton(1, 0)]).unwrap();
        let cases = [
            (
                DistributionFamily::Deterministic,
                Interarrival::Deterministic,
            ),
            (
                DistributionFamily::Erlang { k: 4 },
                Interarrival::Erlang { k: 4 },
            ),
            (
                DistributionFamily::HyperExponential { scv: 4.0 },
                Interarrival::HyperExponential { scv: 4.0 },
            ),
        ];
        for (family, theory_family) in cases {
            let cfg = SimulationConfig {
                arrivals: family,
                ..SimulationConfig::quick()
            };
            let r = run_replication(&model, &profile, cfg, 31, None, None, |_, _| {}).unwrap();
            let theory = gim1::response_time(theory_family, 7.0, 10.0).unwrap();
            let rel = (r.system_mean - theory).abs() / theory;
            assert!(
                rel < 0.12,
                "{family:?}: simulated {} vs GI/M/1 {theory} (rel {rel:.3})",
                r.system_mean
            );
        }
    }

    #[test]
    fn smoother_arrivals_mean_shorter_waits() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let mean = |fam: DistributionFamily| {
            run_replication(
                &model,
                &profile,
                SimulationConfig {
                    arrivals: fam,
                    ..SimulationConfig::quick()
                },
                37,
                None,
                None,
                |_, _| {},
            )
            .unwrap()
            .system_mean
        };
        let det = mean(DistributionFamily::Deterministic);
        let exp = mean(DistributionFamily::Exponential);
        let hyp = mean(DistributionFamily::HyperExponential { scv: 6.0 });
        assert!(det < exp && exp < hyp, "det {det}, exp {exp}, hyp {hyp}");
    }

    #[test]
    fn burstier_service_means_longer_waits() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let mean = |svc: DistributionFamily| {
            run_replication(
                &model,
                &profile,
                SimulationConfig {
                    service: svc,
                    ..SimulationConfig::quick()
                },
                21,
                None,
                None,
                |_, _| {},
            )
            .unwrap()
            .system_mean
        };
        let det = mean(DistributionFamily::Deterministic);
        let exp = mean(DistributionFamily::Exponential);
        let hyp = mean(DistributionFamily::HyperExponential { scv: 6.0 });
        assert!(det < exp && exp < hyp, "det {det}, exp {exp}, hyp {hyp}");
    }

    #[test]
    fn user_counts_track_rates() {
        let model = SystemModel::new(vec![30.0], vec![4.0, 8.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let r = run_replication(
            &model,
            &profile,
            SimulationConfig::quick(),
            5,
            None,
            None,
            |_, _| {},
        )
        .unwrap();
        // User 1 generates twice user 0's jobs (within sampling noise).
        let ratio = r.user_counts[1] as f64 / r.user_counts[0] as f64;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
    }
}
