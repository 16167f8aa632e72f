//! Sharded replication: one independent event stream per station.
//!
//! When users emit Poisson streams, probabilistic dispatch splits and
//! re-superposes them: station `i` receives an independent Poisson stream
//! of rate `λ_i = Σ_j s_ji φ_j`, with each arrival belonging to user `j`
//! with probability `s_ji φ_j / λ_i` independently of everything else.
//! The whole replication therefore factors into `n` non-interacting
//! per-station simulations ([`lb_des::run_station_shard`]) whose
//! measurements merge deterministically in station-index order —
//! embarrassingly parallel, and bit-identical at any thread count because
//! each shard is a pure function of its own `(seed, station)` streams.
//!
//! The factorization is exact only for exponential interarrival times;
//! [`crate::scenario::run_replication`] routes any other arrival family
//! to the classic single-calendar engine.
//!
//! Stream layout (per replication seed): station `i` draws arrivals from
//! stream `i`, service demands from stream `n + i`, and user attribution
//! from stream `2n + i`. This differs from the single-calendar layout, so
//! the two engines agree statistically (and in distribution), not
//! bitwise; the thread-count invariance the CSV acceptance tests rely on
//! holds *within* each engine.

use crate::parallel::ParallelRunner;
use crate::scenario::{SimulationConfig, SimulationResult};
use lb_des::monitor::ResponseTimeMonitor;
use lb_des::rng::{AliasTable, RngStream};
use lb_des::shard::{run_station_shard, ShardOutcome, ShardSpec, DEFAULT_SHARD_BATCH};
use lb_des::time::SimTime;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;
use lb_telemetry::{Collector, SpanHandle};
use std::sync::Arc;

/// Everything needed to run station `i`'s shard, precomputed once per
/// replication so the sequential and parallel drivers share one source
/// of truth.
struct StationPlan {
    /// `None` when no flow reaches the station (it idles for the whole
    /// horizon and contributes empty statistics).
    spec: Option<ShardSpec>,
    attribution: AliasTable,
}

/// Builds the per-station shard plans for one replication.
///
/// Returns an error when the profile saturates a computer (mirrors the
/// single-calendar engine's stability check).
fn station_plans(
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
) -> Result<Vec<StationPlan>, GameError> {
    profile.check_stability(model)?;
    let m = model.num_users();
    let n = model.num_computers();
    let horizon_secs = config.target_jobs as f64 / model.total_arrival_rate();
    let warmup = SimTime::new(horizon_secs * config.warmup_fraction);

    let plans = (0..n)
        .map(|i| {
            // Poisson splitting: user j contributes rate s_ji φ_j here.
            let weights: Vec<f64> = (0..m)
                .map(|j| profile.strategy(j).fractions()[i] * model.user_rate(j))
                .collect();
            let rate: f64 = weights.iter().sum();
            if rate <= 0.0 {
                return StationPlan {
                    spec: None,
                    attribution: AliasTable::new(&[1.0]),
                };
            }
            StationPlan {
                spec: Some(ShardSpec {
                    arrival_rate: rate,
                    service: config.service.distribution(model.computer_rate(i)),
                    horizon: SimTime::new(horizon_secs),
                    warmup,
                    users: m,
                    batch: DEFAULT_SHARD_BATCH,
                }),
                attribution: AliasTable::new(&weights),
            }
        })
        .collect();
    Ok(plans)
}

/// Runs station `i`'s shard with its `(seed, station)`-keyed streams.
/// Idle stations (no flow) return an empty outcome without touching any
/// stream, so adding a station never perturbs the others.
#[allow(clippy::too_many_arguments)]
fn run_plan<F: FnMut(usize, f64)>(
    plan: &StationPlan,
    station: usize,
    stations: usize,
    users: usize,
    seed: u64,
    collector: Option<&Arc<dyn Collector>>,
    span_parent: Option<&SpanHandle>,
    sink: F,
) -> ShardOutcome {
    let Some(spec) = &plan.spec else {
        return ShardOutcome {
            monitor: ResponseTimeMonitor::new(users, SimTime::ZERO),
            jobs_generated: 0,
            utilization: 0.0,
        };
    };
    let mut arrival = RngStream::new(seed, station as u64);
    let mut service = RngStream::new(seed, (stations + station) as u64);
    let mut attribution = RngStream::new(seed, (2 * stations + station) as u64);
    run_station_shard(
        spec,
        &plan.attribution,
        &mut arrival,
        &mut service,
        &mut attribution,
        collector,
        span_parent,
        sink,
    )
}

/// Folds per-station outcomes (in station-index order) into one
/// [`SimulationResult`].
fn merge_outcomes(outcomes: &[ShardOutcome], users: usize) -> SimulationResult {
    let mut monitor = ResponseTimeMonitor::new(users, SimTime::ZERO);
    let mut jobs_generated = 0u64;
    let mut utilizations = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        monitor.merge(&outcome.monitor);
        jobs_generated += outcome.jobs_generated;
        utilizations.push(outcome.utilization);
    }
    SimulationResult {
        user_means: monitor.user_means(),
        system_mean: monitor.system_mean(),
        user_counts: (0..users).map(|j| monitor.count(j)).collect(),
        jobs_generated,
        utilizations,
    }
}

/// Runs one replication as `n` station shards on the calling thread,
/// streaming every measured `(user, response)` to `sink` grouped by
/// station (station 0's completions first, then station 1's, …; within
/// a station, completion order). This is the engine
/// [`crate::scenario::run_replication`] routes Poisson arrivals to.
pub(crate) fn run_shards_in_order<F: FnMut(usize, f64)>(
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
    seed: u64,
    collector: Option<&Arc<dyn Collector>>,
    span_parent: Option<&SpanHandle>,
    mut sink: F,
) -> Result<SimulationResult, GameError> {
    let plans = station_plans(model, profile, config)?;
    let m = model.num_users();
    let n = plans.len();
    let outcomes: Vec<ShardOutcome> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| run_plan(plan, i, n, m, seed, collector, span_parent, &mut sink))
        .collect();
    Ok(merge_outcomes(&outcomes, m))
}

/// Runs one replication with the station shards fanned out across
/// `runner`'s worker pool — the intra-replication parallelism for any
/// caller with one huge replication rather than many small ones (lb-bench
/// `des_engine` measures it). Outcomes merge in station-index order, so the result
/// is byte-identical to [`crate::scenario::run_replication`]'s sharded
/// engine at any thread count.
///
/// # Errors
///
/// As for [`crate::scenario::run_replication`].
pub fn run_replication_sharded(
    runner: &ParallelRunner,
    model: &SystemModel,
    profile: &StrategyProfile,
    config: SimulationConfig,
    seed: u64,
) -> Result<SimulationResult, GameError> {
    let plans = station_plans(model, profile, config)?;
    let m = model.num_users();
    let n = plans.len();
    let outcomes = runner.run(
        n,
        |i, _| run_plan(&plans[i], i, n, m, seed, None, None, |_, _| {}),
        None,
        None,
    );
    Ok(merge_outcomes(&outcomes, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_replication;
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};

    fn table1_like() -> (SystemModel, StrategyProfile) {
        let model = SystemModel::new(vec![10.0, 20.0, 30.0], vec![12.0, 12.0, 12.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        (model, profile)
    }

    /// Bitwise comparison of two replication results.
    fn assert_results_bit_identical(a: &SimulationResult, b: &SimulationResult, label: &str) {
        assert_eq!(a.jobs_generated, b.jobs_generated, "{label}: jobs");
        assert_eq!(a.user_counts, b.user_counts, "{label}: counts");
        assert_eq!(
            a.system_mean.to_bits(),
            b.system_mean.to_bits(),
            "{label}: system mean"
        );
        for (x, y) in a.user_means.iter().zip(&b.user_means) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: user mean");
        }
        for (x, y) in a.utilizations.iter().zip(&b.utilizations) {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: utilization");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn parallel_shards_are_bit_identical_to_sequential(seed in 0u64..u64::MAX) {
            let (model, profile) = table1_like();
            let config = SimulationConfig {
                target_jobs: 10_000,
                ..SimulationConfig::quick()
            };
            let reference =
                run_shards_in_order(&model, &profile, config, seed, None, None, |_, _| {}).unwrap();
            for threads in [1usize, 2, 8] {
                let par = run_replication_sharded(
                    &ParallelRunner::new(threads),
                    &model,
                    &profile,
                    config,
                    seed,
                )
                .unwrap();
                assert_results_bit_identical(&par, &reference, &format!("{threads} threads"));
            }
        }
    }

    #[test]
    fn sharded_is_the_default_engine_for_poisson_arrivals() {
        let (model, profile) = table1_like();
        let config = SimulationConfig {
            target_jobs: 20_000,
            ..SimulationConfig::quick()
        };
        let routed = run_replication(&model, &profile, config, 5, None, None, |_, _| {}).unwrap();
        let direct =
            run_replication_sharded(&ParallelRunner::sequential(), &model, &profile, config, 5)
                .unwrap();
        assert_results_bit_identical(&routed, &direct, "router vs direct");
    }

    #[test]
    fn sharded_matches_single_calendar_statistically() {
        // Same model, same flows — the two engines consume different
        // stream layouts, so they agree in distribution, not bitwise.
        let (model, profile) = table1_like();
        let config = SimulationConfig {
            target_jobs: 400_000,
            ..SimulationConfig::quick()
        };
        let sharded =
            run_replication_sharded(&ParallelRunner::sequential(), &model, &profile, config, 11)
                .unwrap();
        let legacy = crate::policies::run_policy_replication(
            &model,
            &crate::policies::DispatchPolicy::Static(profile.clone()),
            config,
            11,
            |_, _| {},
        )
        .unwrap();
        assert!(
            (sharded.system_mean - legacy.system_mean).abs() < 0.05 * legacy.system_mean,
            "sharded {} vs single-calendar {}",
            sharded.system_mean,
            legacy.system_mean
        );
        for (a, b) in sharded.utilizations.iter().zip(&legacy.utilizations) {
            assert!((a - b).abs() < 0.02, "util {a} vs {b}");
        }
        let total_sharded: u64 = sharded.user_counts.iter().sum();
        let total_legacy: u64 = legacy.user_counts.iter().sum();
        assert!(
            (total_sharded as f64 - total_legacy as f64).abs() < 0.02 * total_legacy as f64,
            "measured jobs {total_sharded} vs {total_legacy}"
        );
    }

    #[test]
    fn idle_stations_contribute_nothing_and_break_nothing() {
        // Route all flow to computer 0; computer 1 must idle.
        let model = SystemModel::new(vec![30.0, 20.0], vec![6.0]).unwrap();
        let profile = StrategyProfile::new(vec![
            lb_game::strategy::Strategy::new(vec![1.0, 0.0]).unwrap()
        ])
        .unwrap();
        let result = run_replication_sharded(
            &ParallelRunner::sequential(),
            &model,
            &profile,
            SimulationConfig::quick(),
            3,
        )
        .unwrap();
        assert_eq!(result.utilizations[1], 0.0);
        assert!(result.utilizations[0] > 0.1);
        assert!(result.jobs_generated > 0);
    }

    #[test]
    fn sink_sees_exactly_the_measured_jobs() {
        let (model, profile) = table1_like();
        let config = SimulationConfig {
            target_jobs: 10_000,
            ..SimulationConfig::quick()
        };
        let mut seen = 0u64;
        let result = run_shards_in_order(&model, &profile, config, 17, None, None, |user, resp| {
            assert!(user < 3);
            assert!(resp >= 0.0);
            seen += 1;
        })
        .unwrap();
        let measured: u64 = result.user_counts.iter().sum();
        assert_eq!(seen, measured);
    }
}
