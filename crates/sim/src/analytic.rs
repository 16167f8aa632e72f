//! The analytic fast path: closed-form stationary sampling of M/M/1
//! sojourns instead of event-by-event simulation.
//!
//! Under the paper's model, once the flow split is fixed each station `i`
//! is an M/M/1 queue with arrival rate `λ_i = Σ_j s_ji φ_j` and service
//! rate `μ_i`, and its stationary sojourn time is exponential with rate
//! `μ_i − λ_i`. A replication's measurements are then fully determined by
//! sufficient statistics we can draw directly:
//!
//! * the number of measured jobs user `j` completes at station `i` over a
//!   window of length `W` is Poisson with mean `s_ji φ_j W` (Poisson
//!   splitting);
//! * the *sum* of `N` i.i.d. `Exp(μ_i − λ_i)` sojourns is
//!   `Gamma(N, μ_i − λ_i)`, one draw instead of `N`.
//!
//! So instead of ~`Φ·horizon` calendar events, a replication costs
//! `O(m·n)` random draws — the same per-user means, counts and
//! utilizations in microseconds, with genuine replication-to-replication
//! sampling noise. Two idealizations to be aware of: the station starts
//! in steady state (no warmup transient — the warmup window is simply
//! excluded from the count means), and consecutive sojourns are sampled
//! independently, whereas a real M/M/1 sojourn sequence is positively
//! autocorrelated — cross-replication variance is therefore slightly
//! optimistic. Point estimates are unaffected, which is what the
//! Table-1/figure pipelines consume.

use crate::scenario::{SimulationConfig, SimulationResult};
use lb_des::rng::RngStream;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;

/// Runs one replication analytically (no event calendar at all).
///
/// Stream layout: station `i` draws its per-user counts and sojourn sums
/// from stream `i`; the total generated-jobs count draws from stream `n`.
/// Deterministic per `(seed)`, independent of thread count by
/// construction (there is nothing to parallelize).
///
/// Only valid for the exponential arrival/service model —
/// [`crate::scenario::run_replication`] checks
/// [`SimulationConfig::is_analytic`] before routing here.
pub(crate) fn run_replication_analytic(
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
    seed: u64,
) -> Result<SimulationResult, GameError> {
    profile.check_stability(model)?;
    let m = model.num_users();
    let n = model.num_computers();
    let horizon_secs = config.target_jobs as f64 / model.total_arrival_rate();
    let window = horizon_secs * (1.0 - config.warmup_fraction);

    let mut user_sums = vec![0.0f64; m];
    let mut user_counts = vec![0u64; m];
    let mut system_sum = 0.0f64;
    let mut system_count = 0u64;
    let mut utilizations = Vec::with_capacity(n);

    for i in 0..n {
        let mut rng = RngStream::new(seed, i as u64);
        let mu = model.computer_rate(i);
        let lambda: f64 = (0..m)
            .map(|j| profile.strategy(j).fractions()[i] * model.user_rate(j))
            .sum();
        // Stationary mean busy fraction (the empirical value in the full
        // engine fluctuates around this).
        utilizations.push(lambda / mu);
        if lambda <= 0.0 {
            continue;
        }
        let sojourn_rate = mu - lambda;
        for (j, (sum, count)) in user_sums.iter_mut().zip(&mut user_counts).enumerate() {
            let flow = profile.strategy(j).fractions()[i] * model.user_rate(j);
            if flow <= 0.0 {
                continue;
            }
            let jobs = rng.poisson(flow * window);
            if jobs == 0 {
                continue;
            }
            let total = rng.gamma(jobs as f64, sojourn_rate);
            *sum += total;
            *count += jobs;
            system_sum += total;
            system_count += jobs;
        }
    }

    let jobs_generated =
        RngStream::new(seed, n as u64).poisson(model.total_arrival_rate() * horizon_secs);

    Ok(SimulationResult {
        user_means: user_sums
            .iter()
            .zip(&user_counts)
            .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
            .collect(),
        system_mean: if system_count > 0 {
            system_sum / system_count as f64
        } else {
            0.0
        },
        user_counts,
        jobs_generated,
        utilizations,
        horizon: horizon_secs,
    })
}

/// The stationary 95th percentile of the system (job-averaged) response
/// time under `profile`: the sojourn of a random job is the mixture
/// `Σ_i (λ_i/Λ)·Exp(μ_i − λ_i)`, whose tail is solved by bisection. Used
/// by the harness in place of the exact per-job quantile when the
/// analytic path runs (there are no per-job responses to collect).
///
/// # Errors
///
/// As for [`crate::scenario::run_replication`] (stability/shape checks).
pub fn analytic_system_p95(
    model: &SystemModel,
    profile: &StrategyProfile,
) -> Result<f64, GameError> {
    profile.check_stability(model)?;
    let m = model.num_users();
    let n = model.num_computers();
    let total = model.total_arrival_rate();

    // (mixture weight, sojourn rate) per station carrying flow.
    let components: Vec<(f64, f64)> = (0..n)
        .filter_map(|i| {
            let lambda: f64 = (0..m)
                .map(|j| profile.strategy(j).fractions()[i] * model.user_rate(j))
                .sum();
            (lambda > 0.0).then(|| (lambda / total, model.computer_rate(i) - lambda))
        })
        .collect();
    let tail = |t: f64| -> f64 {
        components
            .iter()
            .map(|&(w, rate)| w * (-rate * t).exp())
            .sum()
    };

    let mut lo = 0.0f64;
    // The slowest component bounds the tail: expand until P(T > hi) < 5%.
    let mut hi = 1.0;
    while tail(hi) > 0.05 {
        hi *= 2.0;
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if tail(mid) > 0.05 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{run_replication, SimFidelity};
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};

    fn table1_like() -> (SystemModel, StrategyProfile) {
        let model = SystemModel::new(vec![10.0, 20.0, 30.0], vec![12.0, 12.0, 12.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        (model, profile)
    }

    #[test]
    fn analytic_replication_is_deterministic_per_seed() {
        let (model, profile) = table1_like();
        let config = SimulationConfig::quick().with_fidelity(SimFidelity::Analytic);
        let a = run_replication(&model, &profile, config, 42, None, None, |_, _| {}).unwrap();
        let b = run_replication(&model, &profile, config, 42, None, None, |_, _| {}).unwrap();
        assert_eq!(a.jobs_generated, b.jobs_generated);
        assert_eq!(a.user_counts, b.user_counts);
        assert_eq!(a.system_mean.to_bits(), b.system_mean.to_bits());
        let c = run_replication(&model, &profile, config, 43, None, None, |_, _| {}).unwrap();
        assert_ne!(
            a.system_mean.to_bits(),
            c.system_mean.to_bits(),
            "different seeds must resample"
        );
    }

    #[test]
    fn analytic_matches_theory_and_full_engine() {
        let (model, profile) = table1_like();
        let full_cfg = SimulationConfig {
            target_jobs: 400_000,
            ..SimulationConfig::quick()
        };
        let analytic_cfg = full_cfg.with_fidelity(SimFidelity::Analytic);
        let analytic =
            run_replication(&model, &profile, analytic_cfg, 7, None, None, |_, _| {}).unwrap();
        let full = run_replication(&model, &profile, full_cfg, 7, None, None, |_, _| {}).unwrap();
        let theory = lb_game::metrics::evaluate_profile(&model, &profile).unwrap();

        assert!(
            (analytic.system_mean - theory.overall_time).abs() < 0.03 * theory.overall_time,
            "analytic {} vs theory {}",
            analytic.system_mean,
            theory.overall_time
        );
        assert!(
            (analytic.system_mean - full.system_mean).abs() < 0.05 * full.system_mean,
            "analytic {} vs full {}",
            analytic.system_mean,
            full.system_mean
        );
        for ((a, f), t) in analytic
            .user_means
            .iter()
            .zip(&full.user_means)
            .zip(&theory.user_times)
        {
            assert!((a - t).abs() < 0.05 * t, "user mean {a} vs theory {t}");
            assert!((a - f).abs() < 0.08 * f, "user mean {a} vs full {f}");
        }
        for ((a, f), i) in analytic
            .utilizations
            .iter()
            .zip(&full.utilizations)
            .zip(0..)
        {
            assert!((a - f).abs() < 0.02, "util[{i}] analytic {a} vs full {f}");
        }
        // Counts and jobs track the full engine within sampling noise.
        let total_a: u64 = analytic.user_counts.iter().sum();
        let total_f: u64 = full.user_counts.iter().sum();
        assert!(
            (total_a as f64 - total_f as f64).abs() < 0.02 * total_f as f64,
            "measured jobs {total_a} vs {total_f}"
        );
        assert!(
            (analytic.jobs_generated as f64 - full.jobs_generated as f64).abs()
                < 0.02 * full.jobs_generated as f64
        );
    }

    #[test]
    fn analytic_reproduces_table1_means_within_tolerance() {
        // The paper's Table-1 system at medium load: the analytic fast
        // path must land on the same per-user means the full engine
        // measures, within cross-engine statistical tolerance.
        use crate::harness::simulate_profile_with;
        use crate::parallel::ParallelRunner;
        use lb_stats::ReplicationPlan;

        let model = SystemModel::table1_system(0.6).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let plan = ReplicationPlan {
            replications: 3,
            ..ReplicationPlan::paper()
        };
        let full_cfg = SimulationConfig {
            target_jobs: 200_000,
            ..SimulationConfig::quick()
        };
        let runner = ParallelRunner::sequential();
        let full = simulate_profile_with(&runner, &model, &profile, &plan, full_cfg).unwrap();
        let analytic = simulate_profile_with(
            &runner,
            &model,
            &profile,
            &plan,
            full_cfg.with_fidelity(SimFidelity::Analytic),
        )
        .unwrap();

        let fm = full.system_summary.mean;
        let am = analytic.system_summary.mean;
        assert!(
            (am - fm).abs() < 0.05 * fm,
            "analytic system mean {am} vs full {fm}"
        );
        for (a, f) in analytic.user_summaries.iter().zip(&full.user_summaries) {
            assert!(
                (a.mean - f.mean).abs() < 0.10 * f.mean.max(1e-9),
                "user mean {} vs {}",
                a.mean,
                f.mean
            );
        }
        // The analytic p95 substitutes the mixture tail for the per-job
        // quantile; the two must agree to within its sampling error.
        assert!(
            (analytic.system_p95 - full.system_p95).abs() < 0.15 * full.system_p95,
            "analytic p95 {} vs full {}",
            analytic.system_p95,
            full.system_p95
        );
    }

    #[test]
    fn analytic_fidelity_falls_back_to_full_for_other_families() {
        use crate::scenario::DistributionFamily;
        let (model, profile) = table1_like();
        let config = SimulationConfig {
            target_jobs: 5_000,
            ..SimulationConfig::quick()
        }
        .with_service(DistributionFamily::Deterministic)
        .with_fidelity(SimFidelity::Analytic);
        assert!(!config.is_analytic());
        // The router must land on a real engine: per-job sink fires.
        let mut jobs = 0u64;
        crate::scenario::run_replication(&model, &profile, config, 3, None, None, |_, _| jobs += 1)
            .unwrap();
        assert!(jobs > 0, "fallback engine must simulate per-job events");
    }

    #[test]
    fn p95_bisection_matches_single_station_closed_form() {
        // One station: T ~ Exp(μ−λ), p95 = ln(20)/(μ−λ).
        let model = SystemModel::new(vec![10.0], vec![6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let p95 = analytic_system_p95(&model, &profile).unwrap();
        let expected = (20.0f64).ln() / 4.0;
        assert!((p95 - expected).abs() < 1e-9, "{p95} vs {expected}");

        // Mixture case: between the fastest and slowest components.
        let (model3, profile3) = {
            let model = SystemModel::new(vec![10.0, 20.0, 30.0], vec![12.0, 12.0, 12.0]).unwrap();
            let profile = ProportionalScheme.compute(&model).unwrap();
            (model, profile)
        };
        let p95_mix = analytic_system_p95(&model3, &profile3).unwrap();
        assert!(p95_mix > 0.0 && p95_mix.is_finite());
    }
}
