//! The `bench` subcommand: an in-process performance harness over the
//! criterion shim.
//!
//! Runs a curated set of solver and simulator benchmarks — the Table-1
//! Nash solves, the water-filling hot path with and without scratch
//! reuse, a ≥30-replication DES fan-out sequential vs parallel, and one
//! Jacobi sweep sequential vs parallel — and writes a machine-readable
//! summary (`BENCH_nash.json`) with nanoseconds per iteration for every
//! benchmark plus the measured parallel-vs-sequential speedups.
//!
//! Speedups are *recorded*, never asserted: on a single-core runner the
//! parallel paths legitimately measure ≈1× (or slightly below, from
//! thread setup), and the numbers are still useful as a regression
//! record for the sequential hot paths.

use crate::report::Table;
use criterion::Criterion;
use lb_distributed::async_runtime::AsyncNash;
use lb_distributed::net::NetFaultPlan;
use lb_game::best_reply::{water_fill_flows, water_fill_flows_into, WaterFillScratch};
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::nash::{jacobi_round, Initialization, NashSolver};
use lb_game::sampled::SampledNashSolver;
use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};
use lb_sim::harness::simulate_profile_with;
use lb_sim::parallel::ParallelRunner;
use lb_sim::scenario::{
    run_replication, run_replication_single_calendar, SimFidelity, SimulationConfig,
};
use lb_sim::shard::run_replication_sharded;
use lb_stats::ReplicationPlan;
use lb_telemetry::{Collector, Json, JsonlCollector, NullCollector};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the machine-readable summary written under `--out`.
pub const BENCH_FILE: &str = "BENCH_nash.json";

/// File name of the `bench --sim` simulation-throughput summary.
pub const SIM_BENCH_FILE: &str = "BENCH_sim.json";

/// File name of the append-only bench history under `--out`: one JSON
/// object per run, timestamped, holding every measurement — the perf
/// trajectory of the repo when `--out` is the committed `results/`.
pub const HISTORY_FILE: &str = "BENCH_history.jsonl";

/// Relative slowdown beyond which a benchmark counts as a regression
/// (25% — generous enough to absorb shared-runner noise, tight enough
/// to catch a real hot-path pessimization long before it doubles).
pub const REGRESSION_THRESHOLD: f64 = 0.25;

/// Replications for the DES fan-out benchmark (the ISSUE floor is 30).
const SIM_REPLICATIONS: u32 = 30;

/// Table-1 Nash solves at the paper's medium load, both initializations.
fn bench_nash(c: &mut Criterion) -> Result<(), GameError> {
    let model = SystemModel::table1_system(0.6)?;
    let mut g = c.benchmark_group("nash_table1_rho60");
    g.bench_function("NASH_0", |b| {
        let solver = NashSolver::new(Initialization::Zero);
        b.iter(|| solver.solve(&model).expect("NASH_0 solve"));
    });
    g.bench_function("NASH_P", |b| {
        let solver = NashSolver::new(Initialization::Proportional);
        b.iter(|| solver.solve(&model).expect("NASH_P solve"));
    });
    g.finish();
    Ok(())
}

/// The asynchronous bounded-staleness runtime end to end, healthy vs a
/// chaotic network (30% loss + duplication + reordering), both to a
/// certified gap. The chaos cell prices what the retries, heartbeats
/// and anti-entropy cost on top of the clean event loop.
fn bench_async(c: &mut Criterion) -> Result<(), GameError> {
    let model = SystemModel::table1_system(0.6)?;
    let mut g = c.benchmark_group("nash_async");
    g.bench_function("healthy", |b| {
        b.iter(|| {
            let out = AsyncNash::new().run(&model).expect("async solve");
            assert!(out.converged(), "healthy async run must certify");
        });
    });
    g.bench_function("chaos_loss30", |b| {
        let plan = NetFaultPlan::new()
            .loss(0.3)
            .duplication(0.1)
            .reordering(0.3)
            .delay_us(50, 2_000);
        b.iter(|| {
            let out = AsyncNash::new()
                .seed(7)
                .fault_plan(plan.clone())
                .run(&model)
                .expect("async chaos solve");
            assert!(out.converged(), "chaos async run must certify");
        });
    });
    g.finish();
    Ok(())
}

/// A collector that reports itself disabled: attaching it exercises the
/// pure "instrumentation compiled in but off" path (one `enabled()`
/// virtual call per instrumented section, zero event assembly).
struct DisabledCollector;

impl Collector for DisabledCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&self, _name: &'static str, _fields: &[lb_telemetry::Field]) {
        unreachable!("disabled collector never receives events");
    }
}

/// The telemetry cost ladder on the NASH_P solve: no collector field at
/// all; an attached but *disabled* collector (one `enabled()` check per
/// sweep — the budget for this rung is <1% over "none", gated in CI); an
/// enabled [`NullCollector`] (event assembly + virtual dispatch, no
/// serialization); and a [`JsonlCollector`] writing to `io::sink` (the
/// full encode cost).
fn bench_collector_overhead(c: &mut Criterion) -> Result<(), GameError> {
    let model = SystemModel::table1_system(0.6)?;
    let mut g = c.benchmark_group("nash_collector_overhead");
    g.bench_function("none", |b| {
        let solver = NashSolver::new(Initialization::Proportional);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("disabled", |b| {
        let solver =
            NashSolver::new(Initialization::Proportional).collector(Arc::new(DisabledCollector));
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("null_collector", |b| {
        let solver =
            NashSolver::new(Initialization::Proportional).collector(Arc::new(NullCollector));
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("jsonl_sink", |b| {
        let collector: Arc<dyn Collector> =
            Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let solver = NashSolver::new(Initialization::Proportional).collector(collector);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("sampling_sink", |b| {
        // The full sampled pipeline: head sampler (hash + digest
        // bookkeeping per event) in front of the encode cost. The CI
        // gate for this rung is <1.10x vs "disabled".
        let sink: Arc<dyn Collector> = Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let collector: Arc<dyn Collector> = Arc::new(lb_telemetry::SamplingCollector::new(
            sink,
            lb_telemetry::SamplingConfig::default(),
        ));
        let solver = NashSolver::new(Initialization::Proportional).collector(collector);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.finish();
    Ok(())
}

/// The water-filling best reply with a fresh allocation per call vs the
/// reused-scratch entry point the solver hot loop uses.
fn bench_water_fill(c: &mut Criterion) {
    let n = 256;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 17) as f64).collect();
    let demand = 0.6 * rates.iter().sum::<f64>();
    let mut g = c.benchmark_group("water_fill_n256");
    g.bench_function("alloc_per_call", |b| {
        b.iter(|| water_fill_flows(&rates, demand).expect("feasible"));
    });
    g.bench_function("reused_scratch", |b| {
        let mut scratch = WaterFillScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            water_fill_flows_into(&rates, demand, &mut scratch, &mut out).expect("feasible");
            out[0]
        });
    });
    g.finish();
}

/// DES replication fan-out: the same 30-replication run through the
/// sequential runner and through [`ParallelRunner::from_env`].
fn bench_simulation(c: &mut Criterion) -> Result<(), GameError> {
    let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0])?;
    let profile = ProportionalScheme.compute(&model)?;
    let plan = ReplicationPlan {
        replications: SIM_REPLICATIONS,
        ..ReplicationPlan::paper()
    };
    let config = SimulationConfig {
        target_jobs: 4_000,
        ..SimulationConfig::quick()
    };
    let mut g = c.benchmark_group("simulate_profile_reps30");
    g.bench_function("sequential", |b| {
        let runner = ParallelRunner::sequential();
        b.iter(|| {
            simulate_profile_with(&runner, &model, &profile, &plan, config)
                .expect("simulation")
                .system_summary
                .mean
        });
    });
    g.bench_function("parallel", |b| {
        let runner = ParallelRunner::from_env();
        b.iter(|| {
            simulate_profile_with(&runner, &model, &profile, &plan, config)
                .expect("simulation")
                .system_summary
                .mean
        });
    });
    g.finish();
    Ok(())
}

/// One synchronous best-reply round (Jacobi) over the Table-1 system,
/// sequential vs the thread count [`ParallelRunner::from_env`] picks.
fn bench_jacobi(c: &mut Criterion) -> Result<(), GameError> {
    let model = SystemModel::table1_system(0.6)?;
    let profile = ProportionalScheme.compute(&model)?;
    let auto_threads = ParallelRunner::from_env().threads();
    let mut g = c.benchmark_group("jacobi_round_table1");
    g.bench_function("threads_1", |b| {
        b.iter(|| jacobi_round(&model, &profile, 1).expect("round"));
    });
    g.bench_function("threads_auto", |b| {
        b.iter(|| jacobi_round(&model, &profile, auto_threads).expect("round"));
    });
    g.finish();
    Ok(())
}

/// The web-scale groups behind `--large`.
///
/// `nash_large_sampled` is the headline: the power-of-k sampled solver
/// certifying a relative ε-Nash gap of 1e-3 on n = 10,000 computers ×
/// m = 100,000 users — a scale where the dense solvers cannot even hold
/// a strategy profile (10⁹ fractions ≈ 8 GB). `nash_large_jacobi` runs
/// one dense synchronous sweep at the largest size the dense
/// representation sensibly holds (n = 1,000 × m = 10,000, ≈ 80 MB), as
/// the bridge between the Table-1 groups and the sampled scale.
fn bench_nash_large(c: &mut Criterion) -> Result<(), GameError> {
    let n = 10_000;
    let m = 100_000;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 97) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / m as f64;
    let model = SystemModel::new(rates, vec![phi; m])?;
    let auto_threads = ParallelRunner::from_env().threads();
    let mut g = c.benchmark_group("nash_large_sampled");
    for (id, threads) in [("threads_1", 1), ("threads_auto", auto_threads)] {
        g.bench_function(id, |b| {
            let solver = SampledNashSolver::new().epsilon(1e-3).threads(threads);
            b.iter(|| {
                let out = solver.solve(&model).expect("large sampled solve");
                assert!(out.converged(), "did not certify within budget");
                out.iterations()
            });
        });
    }
    // The web-scale run with the full sampled trace pipeline attached
    // (head sampler in front of the JSONL encoder). Events here are
    // sparse relative to compute, so this is where the ≤5% tracing
    // overhead budget is enforced: the summary records
    // `large_sampled_trace_vs_untraced` against `threads_auto` and CI
    // gates it <1.10 (runner-noise margin over the 1.05 budget).
    g.bench_function("threads_auto_traced", |b| {
        let sink: Arc<dyn Collector> = Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let collector: Arc<dyn Collector> = Arc::new(lb_telemetry::SamplingCollector::new(
            sink,
            lb_telemetry::SamplingConfig::default(),
        ));
        let solver = SampledNashSolver::new()
            .epsilon(1e-3)
            .threads(auto_threads)
            .collector(collector);
        b.iter(|| {
            let out = solver.solve(&model).expect("large sampled solve");
            assert!(out.converged(), "did not certify within budget");
            out.iterations()
        });
    });
    g.finish();

    let n = 1_000;
    let m = 10_000;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 97) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / m as f64;
    let model = SystemModel::new(rates, vec![phi; m])?;
    let profile = ProportionalScheme.compute(&model)?;
    let mut g = c.benchmark_group("nash_large_jacobi");
    g.bench_function("threads_1", |b| {
        b.iter(|| jacobi_round(&model, &profile, 1).expect("round"));
    });
    g.bench_function("threads_auto", |b| {
        b.iter(|| jacobi_round(&model, &profile, auto_threads).expect("round"));
    });
    g.finish();
    Ok(())
}

/// Seed shared by every engine in the simulation-throughput group so all
/// four cells simulate the same workload.
const SIM_THROUGHPUT_SEED: u64 = 42;

/// Benchmark group name of the `bench --sim` throughput cells.
const SIM_GROUP: &str = "sim_throughput_large";

/// The simulation-throughput group behind `bench --sim`: one large
/// replication (n = 32 heterogeneous computers, m = 200 users, ρ = 0.6)
/// through each engine — the classic single-calendar reference (the seed
/// path and the baseline of the speedup claims), the sharded per-station
/// engine at one thread and at the [`ParallelRunner::from_env`] thread
/// count, and the analytic closed-form sampler. Returns each cell's
/// jobs-generated count so the summary can report jobs/sec.
fn bench_sim_throughput(c: &mut Criterion) -> Result<Vec<(&'static str, u64)>, GameError> {
    let n = 32;
    let m = 200;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 17) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / m as f64;
    let model = SystemModel::new(rates, vec![phi; m])?;
    let profile = ProportionalScheme.compute(&model)?;
    // 2M jobs per replication is the ROADMAP's web-scale target; the CI
    // smoke pass (CRITERION_QUICK) trims the horizon so the
    // single-calendar baseline stays affordable while the throughput
    // ratios remain meaningful.
    let quick = std::env::var_os("CRITERION_QUICK").is_some_and(|v| !v.is_empty() && v != "0");
    let config = SimulationConfig {
        target_jobs: if quick { 100_000 } else { 2_000_000 },
        ..SimulationConfig::paper()
    };
    let mut jobs: Vec<(&'static str, u64)> = Vec::new();
    let mut g = c.benchmark_group(SIM_GROUP);

    let mut generated = 0_u64;
    g.bench_function("single_calendar_seed", |b| {
        b.iter(|| {
            let r = run_replication_single_calendar(
                &model,
                &profile,
                config,
                SIM_THROUGHPUT_SEED,
                None,
                None,
                |_, _| {},
            )
            .expect("single-calendar replication");
            generated = r.jobs_generated;
            r.system_mean
        });
    });
    jobs.push(("single_calendar_seed", generated));

    for (id, runner) in [
        ("sharded_threads_1", ParallelRunner::sequential()),
        ("sharded_threads_auto", ParallelRunner::from_env()),
    ] {
        let mut generated = 0_u64;
        g.bench_function(id, |b| {
            b.iter(|| {
                let r =
                    run_replication_sharded(&runner, &model, &profile, config, SIM_THROUGHPUT_SEED)
                        .expect("sharded replication");
                generated = r.jobs_generated;
                r.system_mean
            });
        });
        jobs.push((id, generated));
    }

    let analytic_config = config.with_fidelity(SimFidelity::Analytic);
    let mut generated = 0_u64;
    g.bench_function("analytic", |b| {
        b.iter(|| {
            let r = run_replication(
                &model,
                &profile,
                analytic_config,
                SIM_THROUGHPUT_SEED,
                None,
                None,
                |_, _| {},
            )
            .expect("analytic replication");
            generated = r.jobs_generated;
            r.system_mean
        });
    });
    jobs.push(("analytic", generated));
    g.finish();
    Ok(jobs)
}

/// Per-engine `(id, ns_per_iter, jobs_per_sec)` rows of the
/// simulation-throughput group.
fn sim_rows(c: &Criterion, jobs: &[(&'static str, u64)]) -> Vec<(String, f64, f64)> {
    jobs.iter()
        .filter_map(|(id, j)| {
            ns_of(c, SIM_GROUP, id)
                .filter(|ns| *ns > 0.0)
                .map(|ns| ((*id).to_string(), ns, *j as f64 / (ns * 1e-9)))
        })
        .collect()
}

/// Renders the `bench --sim` summary: every cell's ns/iter and jobs/sec
/// plus the jobs/sec speedup of every engine over the single-calendar
/// seed path.
fn sim_summary_json(c: &Criterion, jobs: &[(&'static str, u64)]) -> String {
    let rows = sim_rows(c, jobs);
    let base = rows
        .iter()
        .find(|(id, _, _)| id == "single_calendar_seed")
        .map(|(_, _, rate)| *rate);
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"threads\": {},",
        ParallelRunner::from_env().threads()
    );
    out.push_str("  \"benchmarks\": [");
    for (i, r) in c.results().iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}",
            r.group, r.id, r.ns_per_iter, r.iters
        );
    }
    out.push_str("\n  ],\n  \"throughput\": [");
    for (i, ((id, ns, rate), (_, generated))) in rows.iter().zip(jobs).enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"id\": \"{id}\", \"jobs_generated\": {generated}, \
             \"ns_per_iter\": {ns:.1}, \"jobs_per_sec\": {rate:.1}}}"
        );
    }
    out.push_str("\n  ],\n  \"speedups_vs_single_calendar\": {");
    let mut first = true;
    for (id, _, rate) in &rows {
        if id == "single_calendar_seed" {
            continue;
        }
        if let Some(b) = base.filter(|b| *b > 0.0) {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let _ = write!(out, "    \"{}\": {:.3}", id, rate / b);
        }
    }
    out.push_str("\n  }\n}\n");
    out
}

/// What [`run_sim`] produced.
#[derive(Debug)]
pub struct SimBenchReport {
    /// Path of the freshly written [`SIM_BENCH_FILE`].
    pub path: PathBuf,
    /// Per-engine throughput table (ns/iter, jobs/sec, speedup vs the
    /// single-calendar seed path).
    pub table: Table,
    /// Analytic-vs-single-calendar jobs/sec ratio — the headline number
    /// (the ROADMAP target is ≥100×).
    pub headline_speedup: Option<f64>,
}

/// Runs the simulation-throughput group (`bench --sim`) and writes
/// [`SIM_BENCH_FILE`] under `out_dir`. Speedups are recorded, never
/// asserted — on a loaded runner the sharded cells legitimately vary;
/// the analytic cell's ratio is the headline the CI log surfaces.
///
/// # Errors
///
/// A human-readable message on model/simulation failures or I/O errors.
pub fn run_sim(out_dir: &Path) -> Result<SimBenchReport, String> {
    let mut c = Criterion::default();
    let jobs = bench_sim_throughput(&mut c).map_err(|e| format!("sim bench: {e}"))?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(SIM_BENCH_FILE);
    let summary = sim_summary_json(&c, &jobs);
    std::fs::write(&path, &summary).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let rows = sim_rows(&c, &jobs);
    let base = rows
        .iter()
        .find(|(id, _, _)| id == "single_calendar_seed")
        .map(|(_, _, rate)| *rate)
        .filter(|b| *b > 0.0);
    let mut table = Table::new(
        "Simulation throughput — one large replication (n=32, m=200, rho=0.6)".to_string(),
        vec![
            "engine".to_string(),
            "ns/iter".to_string(),
            "jobs/sec".to_string(),
            "vs single calendar".to_string(),
        ],
    );
    for (id, ns, rate) in &rows {
        let speedup = match base {
            Some(b) if id != "single_calendar_seed" => format!("{:.1}x", rate / b),
            _ => "-".to_string(),
        };
        table.row(vec![
            id.clone(),
            format!("{ns:.0}"),
            format!("{rate:.3e}"),
            speedup,
        ]);
    }
    let headline_speedup = base.and_then(|b| {
        rows.iter()
            .find(|(id, _, _)| id == "analytic")
            .map(|(_, _, rate)| rate / b)
    });
    Ok(SimBenchReport {
        path,
        table,
        headline_speedup,
    })
}

/// Looks up a recorded measurement.
fn ns_of(c: &Criterion, group: &str, id: &str) -> Option<f64> {
    c.results()
        .iter()
        .find(|r| r.group == group && r.id == id)
        .map(|r| r.ns_per_iter)
}

/// Renders the full summary: every benchmark's ns/iter plus the measured
/// parallel-vs-sequential speedups and the thread count they used.
fn summary_json(c: &Criterion) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"threads\": {},",
        ParallelRunner::from_env().threads()
    );
    out.push_str("  \"benchmarks\": [");
    for (i, r) in c.results().iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}",
            r.group, r.id, r.ns_per_iter, r.iters
        );
    }
    out.push_str("\n  ],\n  \"speedups\": {");
    let pairs = [
        (
            "simulate_profile_parallel_vs_sequential",
            "simulate_profile_reps30",
            "sequential",
            "parallel",
        ),
        (
            "jacobi_round_parallel_vs_sequential",
            "jacobi_round_table1",
            "threads_1",
            "threads_auto",
        ),
    ];
    let mut first = true;
    for (name, group, seq, par) in pairs {
        if let (Some(s), Some(p)) = (ns_of(c, group, seq), ns_of(c, group, par)) {
            if p > 0.0 {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                let _ = write!(out, "    \"{}\": {:.3}", name, s / p);
            }
        }
    }
    out.push_str("\n  },\n  \"overheads\": {");
    let rungs = [
        ("disabled_collector_vs_none", "disabled"),
        ("null_collector_vs_none", "null_collector"),
        ("jsonl_sink_vs_none", "jsonl_sink"),
        ("sampling_sink_vs_none", "sampling_sink"),
    ];
    let base = ns_of(c, "nash_collector_overhead", "none");
    let mut first = true;
    for (name, id) in rungs {
        if let (Some(b), Some(v)) = (base, ns_of(c, "nash_collector_overhead", id)) {
            if b > 0.0 {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                let _ = write!(out, "    \"{}\": {:.4}", name, v / b);
            }
        }
    }
    // Only present on `--large` runs: the traced web-scale sampled
    // solve vs the untraced one — the ≤5% tracing budget lives here,
    // where events are sparse relative to compute.
    if let (Some(b), Some(v)) = (
        ns_of(c, "nash_large_sampled", "threads_auto"),
        ns_of(c, "nash_large_sampled", "threads_auto_traced"),
    ) {
        if b > 0.0 {
            out.push_str(if first { "\n" } else { ",\n" });
            let _ = write!(out, "    \"large_sampled_trace_vs_untraced\": {:.4}", v / b);
        }
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Extracts `(group, id, ns_per_iter)` rows from a `BENCH_nash.json`
/// document (parsed with the telemetry layer's JSON parser).
fn parse_benchmarks(text: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = lb_telemetry::json::parse(text).map_err(|e| format!("bench summary: {e}"))?;
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("bench summary: missing `benchmarks` array")?;
    benches
        .iter()
        .map(|b| {
            let field = |key: &str| {
                b.get(key)
                    .ok_or_else(|| format!("bench summary: entry missing `{key}`"))
            };
            Ok((
                field("group")?
                    .as_str()
                    .ok_or("bench summary: `group` not a string")?
                    .to_string(),
                field("id")?
                    .as_str()
                    .ok_or("bench summary: `id` not a string")?
                    .to_string(),
                field("ns_per_iter")?
                    .as_f64()
                    .ok_or("bench summary: `ns_per_iter` not a number")?,
            ))
        })
        .collect()
}

/// Builds the delta-vs-reference table: every benchmark of the current
/// run next to the reference measurement (matched by group + id) with
/// the relative change. Benchmarks absent from the reference show "-".
///
/// # Errors
///
/// A message when either document fails to parse.
pub fn delta_table(current: &str, reference: &str) -> Result<Table, String> {
    let cur = parse_benchmarks(current)?;
    let refs = parse_benchmarks(reference)?;
    let mut t = Table::new(
        "Benchmarks vs reference BENCH_nash.json".to_string(),
        vec![
            "group".to_string(),
            "id".to_string(),
            "ref ns/iter".to_string(),
            "now ns/iter".to_string(),
            "delta".to_string(),
        ],
    );
    for (group, id, now) in &cur {
        let reference = refs
            .iter()
            .find(|(g, i, _)| g == group && i == id)
            .map(|(_, _, ns)| *ns);
        let (ref_cell, delta_cell) = match reference {
            Some(r) if r > 0.0 => (format!("{r:.1}"), format!("{:+.1}%", (now - r) / r * 100.0)),
            _ => ("-".to_string(), "-".to_string()),
        };
        t.row(vec![
            group.clone(),
            id.clone(),
            ref_cell,
            format!("{now:.1}"),
            delta_cell,
        ]);
    }
    Ok(t)
}

/// One benchmark whose slowdown vs the reference exceeded the noise
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Benchmark group.
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Reference ns/iter.
    pub reference_ns: f64,
    /// Current ns/iter.
    pub current_ns: f64,
}

impl Regression {
    /// Slowdown factor (current / reference).
    pub fn ratio(&self) -> f64 {
        self.current_ns / self.reference_ns
    }
}

/// Compares two bench summaries (current vs reference, both in the
/// [`BENCH_FILE`] format) and returns every benchmark whose slowdown
/// exceeds `threshold` (e.g. `0.25` flags anything >1.25× slower).
/// Benchmarks missing from either side are ignored; speedups never
/// flag.
///
/// # Errors
///
/// A message when either document fails to parse.
pub fn regressions(
    current: &str,
    reference: &str,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    let cur = parse_benchmarks(current)?;
    let refs = parse_benchmarks(reference)?;
    let mut out = Vec::new();
    for (group, id, now) in cur {
        let Some(r) = refs
            .iter()
            .find(|(g, i, _)| *g == group && *i == id)
            .map(|(_, _, ns)| *ns)
        else {
            continue;
        };
        if r > 0.0 && now / r > 1.0 + threshold {
            out.push(Regression {
                group,
                id,
                reference_ns: r,
                current_ns: now,
            });
        }
    }
    Ok(out)
}

/// Renders flagged regressions as a table.
pub fn render_regressions(regs: &[Regression]) -> Table {
    let mut t = Table::new(
        format!(
            "Bench regressions (>{:.0}% slower than reference)",
            REGRESSION_THRESHOLD * 100.0
        ),
        vec![
            "group".to_string(),
            "id".to_string(),
            "ref ns/iter".to_string(),
            "now ns/iter".to_string(),
            "slowdown".to_string(),
        ],
    );
    for r in regs {
        t.row(vec![
            r.group.clone(),
            r.id.clone(),
            format!("{:.1}", r.reference_ns),
            format!("{:.1}", r.current_ns),
            format!("{:.2}x", r.ratio()),
        ]);
    }
    t
}

/// Renders one history line: the run's timestamp, thread count, and
/// every measurement as a single JSON object (no trailing newline).
fn history_line(c: &Criterion, unix_s: u64) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"unix_s\":{unix_s},\"threads\":{},\"benchmarks\":[",
        ParallelRunner::from_env().threads()
    );
    for (i, r) in c.results().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"group\":\"{}\",\"id\":\"{}\",\"ns_per_iter\":{:.1}}}",
            r.group, r.id, r.ns_per_iter
        );
    }
    out.push_str("]}");
    out
}

/// What [`run`] produced: the summary path, the appended history line,
/// and — when a reference file was present before the run — the delta
/// table and flagged regressions against it.
#[derive(Debug)]
pub struct BenchReport {
    /// Path of the freshly written [`BENCH_FILE`].
    pub path: PathBuf,
    /// Path of the append-only [`HISTORY_FILE`].
    pub history_path: PathBuf,
    /// Delta vs the previous [`BENCH_FILE`] at the same path (the
    /// committed reference when `--out` is the default `results/`).
    pub delta: Option<Table>,
    /// Benchmarks slower than the reference beyond
    /// [`REGRESSION_THRESHOLD`] (empty when no reference existed).
    pub regressions: Vec<Regression>,
}

/// Runs every benchmark group (plus the web-scale groups when `large`
/// is set), writes [`BENCH_FILE`] under `out_dir`, and appends a
/// timestamped line to [`HISTORY_FILE`]. A pre-existing summary at the
/// [`BENCH_FILE`] path — normally the committed reference under
/// `results/` — is read *before* being overwritten, reported as a delta
/// table, and checked for regressions beyond [`REGRESSION_THRESHOLD`]
/// (report-only: flagged regressions are returned, never turned into an
/// error, so CI can decide).
///
/// # Errors
///
/// A human-readable message on model/solver failures or I/O errors.
pub fn run(out_dir: &Path, large: bool) -> Result<BenchReport, String> {
    let mut c = Criterion::default();
    bench_nash(&mut c).map_err(|e| format!("nash bench: {e}"))?;
    bench_async(&mut c).map_err(|e| format!("async bench: {e}"))?;
    bench_collector_overhead(&mut c).map_err(|e| format!("overhead bench: {e}"))?;
    bench_water_fill(&mut c);
    bench_simulation(&mut c).map_err(|e| format!("simulation bench: {e}"))?;
    bench_jacobi(&mut c).map_err(|e| format!("jacobi bench: {e}"))?;
    if large {
        bench_nash_large(&mut c).map_err(|e| format!("large bench: {e}"))?;
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(BENCH_FILE);
    let reference = std::fs::read_to_string(&path).ok();
    let summary = summary_json(&c);
    std::fs::write(&path, &summary).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (delta, regs) = match reference {
        Some(ref_text) => (
            Some(delta_table(&summary, &ref_text)?),
            regressions(&summary, &ref_text, REGRESSION_THRESHOLD)?,
        ),
        None => (None, Vec::new()),
    };

    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let history_path = out_dir.join(HISTORY_FILE);
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .map_err(|e| format!("opening {}: {e}", history_path.display()))?;
    use std::io::Write as _;
    writeln!(history, "{}", history_line(&c, unix_s))
        .map_err(|e| format!("appending {}: {e}", history_path.display()))?;

    Ok(BenchReport {
        path,
        history_path,
        delta,
        regressions: regs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_run_emits_machine_readable_summary() {
        // Shrink the measurement windows so this stays a smoke test; the
        // other lb-experiments tests never read this variable.
        std::env::set_var("CRITERION_QUICK", "1");
        let dir = std::env::temp_dir().join("lb_bench_smoke_test");
        std::fs::remove_dir_all(&dir).ok();
        let report = run(&dir, false).unwrap();
        assert_eq!(report.path.file_name().unwrap(), BENCH_FILE);
        // First run: nothing to compare against.
        assert!(report.delta.is_none());
        assert!(report.regressions.is_empty());
        // The history gained exactly one parseable, timestamped line.
        let history = std::fs::read_to_string(&report.history_path).unwrap();
        assert_eq!(history.lines().count(), 1);
        let entry = lb_telemetry::json::parse(history.lines().next().unwrap()).unwrap();
        assert!(entry.get("unix_s").and_then(Json::as_u64).is_some());
        assert!(!entry
            .get("benchmarks")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
        let json = std::fs::read_to_string(&report.path).unwrap();
        for needle in [
            "\"threads\":",
            "\"group\": \"nash_table1_rho60\"",
            "\"id\": \"NASH_P\"",
            "\"group\": \"nash_async\"",
            "\"id\": \"chaos_loss30\"",
            "\"group\": \"nash_collector_overhead\"",
            "\"id\": \"disabled\"",
            "\"id\": \"jsonl_sink\"",
            "\"group\": \"water_fill_n256\"",
            "\"id\": \"reused_scratch\"",
            "\"group\": \"simulate_profile_reps30\"",
            "\"group\": \"jacobi_round_table1\"",
            "\"simulate_profile_parallel_vs_sequential\":",
            "\"jacobi_round_parallel_vs_sequential\":",
            "\"overheads\":",
            "\"disabled_collector_vs_none\":",
            "\"null_collector_vs_none\":",
            "\"jsonl_sink_vs_none\":",
            "\"id\": \"sampling_sink\"",
            "\"sampling_sink_vs_none\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // The summary parses with the telemetry JSON parser, and the
        // recorded overheads are sane positive ratios.
        let doc = lb_telemetry::json::parse(&json).unwrap();
        let overheads = doc.get("overheads").unwrap().as_object().unwrap();
        assert_eq!(overheads.len(), 4);
        for (name, ratio) in overheads {
            let r = ratio.as_f64().unwrap();
            assert!(r > 0.0, "{name} ratio {r}");
        }
        // Second run: the first summary becomes the reference and the
        // delta table covers every benchmark; the history grows.
        let report2 = run(&dir, false).unwrap();
        let delta = report2.delta.expect("reference present on second run");
        assert_eq!(delta.len(), parse_benchmarks(&json).unwrap().len());
        let history2 = std::fs::read_to_string(&report2.history_path).unwrap();
        assert_eq!(history2.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
        // ns_per_iter figures must be positive numbers.
        for line in json.lines().filter(|l| l.contains("ns_per_iter")) {
            let v: f64 = line
                .split("\"ns_per_iter\": ")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap()
                .parse()
                .unwrap();
            assert!(v > 0.0, "non-positive measurement in {line}");
        }
    }

    /// `bench --sim` end to end under CRITERION_QUICK: all four engine
    /// cells land in `BENCH_sim.json` with positive jobs/sec, and the
    /// analytic headline speedup is present.
    #[test]
    fn sim_bench_emits_throughput_summary() {
        std::env::set_var("CRITERION_QUICK", "1");
        let dir = std::env::temp_dir().join("lb_bench_sim_smoke_test");
        std::fs::remove_dir_all(&dir).ok();
        let report = run_sim(&dir).unwrap();
        assert_eq!(report.path.file_name().unwrap(), SIM_BENCH_FILE);
        assert_eq!(report.table.len(), 4);
        assert!(report.headline_speedup.unwrap() > 1.0);
        let json = std::fs::read_to_string(&report.path).unwrap();
        for needle in [
            "\"group\": \"sim_throughput_large\"",
            "\"id\": \"single_calendar_seed\"",
            "\"id\": \"sharded_threads_1\"",
            "\"id\": \"sharded_threads_auto\"",
            "\"id\": \"analytic\"",
            "\"throughput\":",
            "\"speedups_vs_single_calendar\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        let doc = lb_telemetry::json::parse(&json).unwrap();
        let throughput = doc.get("throughput").unwrap().as_array().unwrap();
        assert_eq!(throughput.len(), 4);
        for cell in throughput {
            assert!(cell.get("jobs_per_sec").unwrap().as_f64().unwrap() > 0.0);
            assert!(cell.get("jobs_generated").unwrap().as_u64().unwrap() > 0);
        }
        let speedups = doc
            .get("speedups_vs_single_calendar")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(speedups.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The web-scale groups end to end: n = 10,000 × m = 100,000 must
    /// certify ε = 1e-3 and land in the machine-readable summary.
    #[test]
    #[ignore = "release-build soak: several minutes even under CRITERION_QUICK"]
    fn large_bench_records_web_scale_groups() {
        std::env::set_var("CRITERION_QUICK", "1");
        let dir = std::env::temp_dir().join("lb_bench_large_smoke_test");
        std::fs::remove_dir_all(&dir).ok();
        let report = run(&dir, true).unwrap();
        let json = std::fs::read_to_string(&report.path).unwrap();
        for needle in [
            "\"group\": \"nash_large_sampled\"",
            "\"group\": \"nash_large_jacobi\"",
            "\"id\": \"threads_1\"",
            "\"id\": \"threads_auto\"",
            "\"id\": \"threads_auto_traced\"",
            "\"large_sampled_trace_vs_untraced\":",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two hand-built summaries: one benchmark 2× slower (flagged), one
    /// 10% slower (inside the noise threshold), one 2× faster (never
    /// flagged), one present only on one side (ignored).
    #[test]
    fn synthetic_2x_regression_is_flagged_and_noise_is_not() {
        let summary = |rows: &[(&str, &str, f64)]| {
            let mut s = String::from("{\n  \"benchmarks\": [");
            for (i, (g, id, ns)) in rows.iter().enumerate() {
                s.push_str(if i == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    s,
                    "    {{\"group\": \"{g}\", \"id\": \"{id}\", \"ns_per_iter\": {ns:.1}, \"iters\": 10}}"
                );
            }
            s.push_str("\n  ]\n}\n");
            s
        };
        let reference = summary(&[
            ("solver", "nash_p", 1000.0),
            ("solver", "nash_0", 2000.0),
            ("sim", "parallel", 5000.0),
            ("only_in_ref", "x", 1.0),
        ]);
        let current = summary(&[
            ("solver", "nash_p", 2000.0), // 2.00x — regression
            ("solver", "nash_0", 2200.0), // 1.10x — noise
            ("sim", "parallel", 2500.0),  // 0.50x — speedup
            ("only_in_cur", "y", 1.0),    // no reference — ignored
        ]);
        let regs = regressions(&current, &reference, REGRESSION_THRESHOLD).unwrap();
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert_eq!(regs[0].group, "solver");
        assert_eq!(regs[0].id, "nash_p");
        assert!((regs[0].ratio() - 2.0).abs() < 1e-12);
        let table = render_regressions(&regs);
        assert_eq!(table.len(), 1);
        assert!(table.render().contains("2.00x"));
        // Identical summaries flag nothing.
        assert!(regressions(&reference, &reference, REGRESSION_THRESHOLD)
            .unwrap()
            .is_empty());
    }
}
