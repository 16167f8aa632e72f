//! The replication driver: the paper's "each run was replicated five
//! times with different random number streams and the results averaged
//! over replications".

use crate::parallel::ParallelRunner;
use crate::scenario::{run_replication, SimulationConfig};
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;
use lb_stats::{jain_index, ReplicationPlan, ReplicationSet, SampleSummary};
use lb_telemetry::{Collector, Span};
use std::sync::Arc;

/// Cross-replication estimates for a simulated scheme.
#[derive(Debug, Clone)]
pub struct SimulatedMetrics {
    /// Per-user mean response times with confidence intervals.
    pub user_summaries: Vec<SampleSummary>,
    /// System-wide (job-averaged) mean response time summary.
    pub system_summary: SampleSummary,
    /// Jain fairness index of the cross-replication per-user means.
    pub fairness: f64,
    /// Whether every metric met the plan's relative-standard-error bound
    /// (the paper keeps this under 5%).
    pub precise: bool,
    /// Worst relative standard error observed.
    pub worst_relative_error: f64,
    /// Replications performed.
    pub replications: u32,
}

impl SimulatedMetrics {
    /// Cross-replication per-user mean response times.
    pub fn user_means(&self) -> Vec<f64> {
        self.user_summaries.iter().map(|s| s.mean).collect()
    }
}

/// Simulates `profile` on `model` under a replication plan, fanning the
/// replications out over [`ParallelRunner::from_env`] (set
/// `LB_SIM_THREADS=1` to force the sequential path). Each replication
/// draws from its own seeded streams and results are folded in
/// replication order, so the output is byte-identical at any thread
/// count.
///
/// # Errors
///
/// Propagates scenario errors (shape mismatches, saturated profiles).
pub fn simulate_profile(
    model: &SystemModel,
    profile: &StrategyProfile,
    plan: &ReplicationPlan,
    config: SimulationConfig,
) -> Result<SimulatedMetrics, GameError> {
    simulate_profile_with(&ParallelRunner::from_env(), model, profile, plan, config)
}

/// [`simulate_profile`] with an explicit runner (tests pin thread counts
/// through this entry point).
///
/// # Errors
///
/// Propagates scenario errors (shape mismatches, saturated profiles).
pub fn simulate_profile_with(
    runner: &ParallelRunner,
    model: &SystemModel,
    profile: &StrategyProfile,
    plan: &ReplicationPlan,
    config: SimulationConfig,
) -> Result<SimulatedMetrics, GameError> {
    simulate_profile_traced(runner, model, profile, plan, config, None)
}

/// [`simulate_profile_with`] with an optional telemetry collector. When
/// collecting, the fold emits one `sim.replication {rep, seed,
/// system_mean, jobs}` event per replication (in replication order,
/// after the fan-out joins — so per-worker `runner.worker` events from
/// the pool precede them) and a closing `sim.summary {replications,
/// system_mean, fairness, precise, worst_rel_err}`, and the run is
/// wrapped in a causal span tree: `sim.run` → `runner.pool` →
/// `runner.worker` → `sim.replication` → `des.shard` (a single-calendar
/// replication ends at its `sim.replication` span).
/// Collection is purely observational: the returned metrics are
/// bit-identical with or without a collector attached.
///
/// Replications run with a no-op response sink, so no job's response
/// is stored, only the per-user counts and sums behind the means. A
/// caller that wants a tail quantile runs [`run_replication`] with its
/// own sink, as the tail-latency experiment does.
///
/// # Errors
///
/// * [`GameError::ZeroIterationBudget`] for a plan of zero
///   replications, which could estimate nothing.
/// * Scenario errors (shape mismatches, saturated profiles).
pub fn simulate_profile_traced(
    runner: &ParallelRunner,
    model: &SystemModel,
    profile: &StrategyProfile,
    plan: &ReplicationPlan,
    config: SimulationConfig,
    collector: Option<&Arc<dyn Collector>>,
) -> Result<SimulatedMetrics, GameError> {
    if plan.replications == 0 {
        return Err(GameError::ZeroIterationBudget);
    }
    let m = model.num_users();
    let mut names: Vec<String> = (0..m).map(|j| format!("user{j}")).collect();
    names.push("system".into());
    let mut set = ReplicationSet::new(names, plan.confidence);

    // Root span for the whole simulation study; worker spans from the
    // pool and one `sim.replication` span per task nest under it, and
    // each replication hangs its station shards' `des.shard` spans off
    // its replication span.
    let sim_span = Span::root(
        collector,
        "sim.run",
        &[
            ("users", m.into()),
            ("replications", plan.replications.into()),
            ("target_jobs", config.target_jobs.into()),
        ],
    );
    let sim_handle = sim_span.as_ref().map(Span::handle);

    // Fan out: one task per replication, each fully determined by its
    // seed. The fold below happens in replication order.
    let replications = runner.try_run(
        plan.replications as usize,
        |r, worker| {
            let seed = plan.seed_for(r as u32);
            let rep_span = worker.map(|w| {
                w.child(
                    "sim.replication",
                    &[("rep", (r as u64).into()), ("seed", seed.into())],
                )
            });
            let rep_handle = rep_span.as_ref().map(Span::handle);
            let result = run_replication(
                model,
                profile,
                config,
                seed,
                collector,
                rep_handle.as_ref(),
                |_, _| {},
            )?;
            if let Some(span) = rep_span {
                span.close_with(&[("jobs", result.jobs_generated.into())]);
            }
            let mut values = result.user_means;
            values.push(result.system_mean);
            Ok::<_, GameError>((values, result.jobs_generated))
        },
        collector,
        sim_handle.as_ref(),
    )?;

    let collect = lb_telemetry::enabled(collector);
    for (r, (values, jobs)) in replications.iter().enumerate() {
        set.record(values);
        if let Some(c) = collect {
            c.emit(
                "sim.replication",
                &[
                    ("rep", (r as u64).into()),
                    ("seed", plan.seed_for(r as u32).into()),
                    ("system_mean", (*values.last().expect("system mean")).into()),
                    ("jobs", (*jobs).into()),
                ],
            );
        }
    }

    let summaries = set
        .summaries()
        .expect("at least one replication was recorded");
    let (user_summaries, system_summary) = {
        let mut s = summaries;
        let system = s.pop().expect("system metric present");
        (s, system)
    };
    let user_means: Vec<f64> = user_summaries.iter().map(|s| s.mean).collect();
    let metrics = SimulatedMetrics {
        fairness: jain_index(&user_means).unwrap_or(f64::NAN),
        precise: set.meets_precision(plan.max_relative_error),
        worst_relative_error: set.worst_relative_error(),
        user_summaries,
        system_summary,
        replications: plan.replications,
    };
    if let Some(c) = collect {
        c.emit(
            "sim.summary",
            &[
                ("replications", metrics.replications.into()),
                ("system_mean", metrics.system_summary.mean.into()),
                ("fairness", metrics.fairness.into()),
                ("precise", metrics.precise.into()),
                ("worst_rel_err", metrics.worst_relative_error.into()),
            ],
        );
    }
    if let Some(span) = sim_span {
        span.close_with(&[
            ("replications", metrics.replications.into()),
            ("system_mean", metrics.system_summary.mean.into()),
        ]);
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};
    use proptest::prelude::*;

    /// Field-by-field bitwise comparison of two metric sets.
    fn assert_metrics_bit_identical(a: &SimulatedMetrics, b: &SimulatedMetrics, label: &str) {
        assert_eq!(a.replications, b.replications, "{label}: replications");
        assert_eq!(
            a.fairness.to_bits(),
            b.fairness.to_bits(),
            "{label}: fairness"
        );
        assert_eq!(
            a.worst_relative_error.to_bits(),
            b.worst_relative_error.to_bits(),
            "{label}: worst_relative_error"
        );
        assert_eq!(a.precise, b.precise, "{label}: precise");
        let pairs = a
            .user_summaries
            .iter()
            .zip(&b.user_summaries)
            .chain(std::iter::once((&a.system_summary, &b.system_summary)));
        for (sa, sb) in pairs {
            assert_eq!(sa.mean.to_bits(), sb.mean.to_bits(), "{label}: mean");
            assert_eq!(
                sa.half_width.to_bits(),
                sb.half_width.to_bits(),
                "{label}: half_width"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn parallel_and_sequential_runners_are_bit_identical(
            base_seed in 0u64..u64::MAX,
            replications in 2u32..6,
        ) {
            let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
            let profile = ProportionalScheme.compute(&model).unwrap();
            let plan = ReplicationPlan {
                replications,
                base_seed,
                ..ReplicationPlan::paper()
            };
            let config = SimulationConfig {
                target_jobs: 2_000,
                ..SimulationConfig::quick()
            };
            let reference = simulate_profile_with(
                &ParallelRunner::sequential(), &model, &profile, &plan, config,
            ).unwrap();
            for threads in [2usize, 8] {
                let par = simulate_profile_with(
                    &ParallelRunner::new(threads), &model, &profile, &plan, config,
                ).unwrap();
                assert_metrics_bit_identical(&par, &reference, &format!("{threads} threads"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        #[test]
        fn metrics_are_bit_identical_with_collection_enabled(
            base_seed in 0u64..u64::MAX,
            threads in 1usize..5,
        ) {
            use lb_telemetry::{parse_log, JsonlCollector};

            /// Shared in-memory sink so the test can read the log back.
            #[derive(Clone, Default)]
            struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
            impl std::io::Write for SharedBuf {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }

            let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
            let profile = ProportionalScheme.compute(&model).unwrap();
            let plan = ReplicationPlan {
                replications: 3,
                base_seed,
                ..ReplicationPlan::paper()
            };
            let config = SimulationConfig {
                target_jobs: 1_000,
                ..SimulationConfig::quick()
            };
            let runner = ParallelRunner::new(threads);
            let plain =
                simulate_profile_traced(&runner, &model, &profile, &plan, config, None).unwrap();

            let buf = SharedBuf::default();
            let collector: Arc<dyn Collector> =
                Arc::new(JsonlCollector::new(Box::new(buf.clone())));
            let traced = simulate_profile_traced(
                &runner, &model, &profile, &plan, config, Some(&collector),
            )
            .unwrap();
            collector.flush();

            assert_metrics_bit_identical(&traced, &plain, "collector on vs off");

            // The emitted log is schema-valid and covers the whole fold.
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            let log = parse_log(&text).unwrap();
            prop_assert_eq!(log.count("sim.replication"), 3);
            prop_assert_eq!(log.count("sim.summary"), 1);
            prop_assert!(log.count("runner.worker") >= 1);
            // The span tree is present and balanced: parse_log already
            // validated causality (unique ids, parents opened first);
            // every opened span also closed, and each layer shows up.
            prop_assert!(log.count("span_open") > 0);
            prop_assert_eq!(log.count("span_open"), log.count("span_close"));
            let span_names: Vec<String> = log
                .events
                .iter()
                .filter(|e| e.name == "span_open")
                .filter_map(|e| e.field("name").and_then(|v| v.as_str().map(String::from)))
                .collect();
            for expected in ["sim.run", "runner.pool", "runner.worker", "sim.replication"] {
                prop_assert!(
                    span_names.iter().any(|n| n == expected),
                    "missing span {}", expected
                );
            }
        }
    }

    #[test]
    fn zero_replications_is_a_typed_error() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let plan = ReplicationPlan {
            replications: 0,
            ..ReplicationPlan::paper()
        };
        let err = simulate_profile(&model, &profile, &plan, SimulationConfig::quick()).unwrap_err();
        assert_eq!(err, GameError::ZeroIterationBudget);
    }

    #[test]
    fn replications_aggregate_and_gate_precision() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let plan = ReplicationPlan {
            replications: 3,
            ..ReplicationPlan::paper()
        };
        let metrics = simulate_profile(&model, &profile, &plan, SimulationConfig::quick()).unwrap();
        assert_eq!(metrics.replications, 3);
        assert_eq!(metrics.user_summaries.len(), 2);
        // PS is perfectly fair analytically; empirically close to 1.
        assert!(metrics.fairness > 0.99, "fairness {}", metrics.fairness);
        // 60k jobs x 3 replications is plenty for 5% precision here.
        assert!(
            metrics.precise,
            "worst rel err {}",
            metrics.worst_relative_error
        );
        // CI covers the analytic value.
        let analytic = lb_game::metrics::evaluate_profile(&model, &profile).unwrap();
        for (s, t) in metrics.user_summaries.iter().zip(&analytic.user_times) {
            let widened = 3.0 * s.half_width.max(0.02 * t);
            assert!(
                (s.mean - t).abs() <= widened,
                "user mean {} vs theory {t}",
                s.mean
            );
        }
    }
}
