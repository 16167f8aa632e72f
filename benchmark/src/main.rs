//! The nash-lb benchmark.
//!
//! ```text
//! lb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lb-benchmark report <set> [<set>]
//! ```
//!
//! A run drives one workload through the public APIs of `lb-game`,
//! `lb-sim`/`lb-des` and `lb-distributed` in a closed loop (one caller;
//! the next op starts when the previous one returns) for `--seconds`,
//! checks every op, and prints one JSON object as its last line. With
//! `--trace 0` it reports the end-to-end metrics, measured with tracing
//! off; with `--trace 1` it attaches its own collector, prints a layer
//! table reconciled against untraced ops, writes the trace as
//! lb-telemetry v4 JSONL under `benchmark/out/`, and reports the
//! per-layer metrics. `report` summarises saved run outputs (see
//! `report.rs`). See README.md for the workloads and metrics.

mod chaos;
mod probes;
mod recorder;
mod report;
mod util;
mod web;
mod workloads;

use lb_telemetry::{Collector, Span};
use probes::Costs;
use recorder::{Recorder, STORED_EVENT_CAP};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use util::{mean_of, median, quantile, CpuRotation};
use workloads::{fig4, table1, Counts, Ctx, Row, Workload};

/// Workload names, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 2] = ["table1-control", "fig4-simulate"];

/// End-to-end metrics (`--trace 0`), with units, in the order
/// `untraced` computes them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with units. Counts are per op,
/// except the probed paths' (`game.sampled.*` per web-scale solve,
/// `distributed.*` per certification under chaos); a layer the workload
/// bypasses reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("game.best_reply.water_fills", "count"),
    ("game.best_reply.reply_yield", "ratio"),
    ("game.best_reply.ns_per_water_fill_dense", "ns"),
    ("game.best_reply.ns_per_water_fill_sparse", "ns"),
    ("game.nash.sweeps", "count"),
    ("game.nash.best_replies", "count"),
    ("game.nash.refreshes", "count"),
    ("game.nash.ns_per_sweep", "ns"),
    ("game.nash.jacobi_speedup_table1", "ratio"),
    ("game.nash.jacobi_speedup_web", "ratio"),
    ("game.stopping.certificates", "count"),
    ("game.stopping.ns_per_user_regret", "ns"),
    ("game.stopping.ns_per_certificate", "ns"),
    ("game.dynamics.warm_vs_cold_sweeps", "ratio"),
    ("game.sampled.sweeps", "count"),
    ("game.sampled.best_replies", "count"),
    ("game.sampled.water_fills", "count"),
    ("game.sampled.support_mean", "count"),
    ("game.sampled.thread_speedup", "ratio"),
    ("des.rng.draws_per_job", "ratio"),
    ("des.rng.ns_per_draw", "ns"),
    ("des.calendar.scheduled_per_job", "ratio"),
    ("des.calendar.ns_per_calendar_op", "ns"),
    ("des.shard.events_per_job", "ratio"),
    ("des.shard.ns_per_event", "ns"),
    ("sim.parallel.thread_speedup", "ratio"),
    ("sim.parallel.efficiency", "ratio"),
    ("sim.parallel.idle_share", "ratio"),
    ("distributed.net.sent", "count"),
    ("distributed.net.delivered", "count"),
    ("distributed.net.dropped", "count"),
    ("distributed.net.duplicated", "count"),
    ("distributed.net.bytes", "bytes"),
    ("distributed.net.delivery_ratio", "ratio"),
    ("distributed.net.ns_per_message", "ns"),
    ("distributed.async_runtime.updates", "count"),
    ("distributed.async_runtime.retries", "count"),
    ("distributed.async_runtime.syncs", "count"),
    ("distributed.async_runtime.retries_per_update", "ratio"),
    ("distributed.async_runtime.virtual_cert_ms", "virtual_ms"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.events_per_op", "count"),
    ("telemetry.ns_per_event", "ns"),
    ("telemetry.count_overhead", "ratio"),
    ("telemetry.jsonl_overhead", "ratio"),
    ("telemetry.sampling_overhead", "ratio"),
    ("reconcile.untraced_op_ms", "ms"),
    ("reconcile.explained_share", "ratio"),
    ("reconcile.residual", "ratio"),
    ("reconcile.ops", "count"),
    ("process.peak_rss_mb", "MB"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Seconds the caller stays on one CPU before it moves to the next, at
/// the next cycle boundary ([`CpuRotation`]).
const CPU_TURN_S: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports: the result object its last line prints.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Ops of one timed phase.
struct Phase<O> {
    /// Wall seconds of every successful op, in op order.
    times: Vec<f64>,
    /// [`Workload::kind`] of every successful op, in op order.
    kinds: Vec<&'static str>,
    work: f64,
    attempted: u64,
    failed: u64,
    last: Option<O>,
}

/// Runs ops closed-loop from index 0: until the cycle boundary nearest
/// to `seconds`, or until `max_ops` ops. When ops run on the caller
/// ([`Workload::ON_CALLER`]), every [`CPU_TURN_S`] the caller moves to
/// the next CPU in turn ([`CpuRotation`]). Every result is checked right
/// after its op, outside the op's timed interval.
fn run_phase<W: Workload>(
    w: &mut W,
    threads: usize,
    seconds: f64,
    max_ops: Option<u64>,
    trace: Option<(&Arc<dyn Collector>, &Span)>,
    mut tally: Option<&mut Counts>,
) -> Result<Phase<W::Out>, String> {
    let mut phase = Phase {
        times: Vec::new(),
        kinds: Vec::new(),
        work: 0.0,
        attempted: 0,
        failed: 0,
        last: None,
    };
    let start = Instant::now();
    let cycle = w.cycle().max(1);
    let mut rotation = CpuRotation::new();
    let mut turn_start: Option<Instant> = None;
    let mut i = 0u64;
    loop {
        if max_ops.is_some_and(|m| i >= m) {
            break;
        }
        if i.is_multiple_of(cycle) {
            let elapsed = start.elapsed().as_secs_f64();
            let mean_cycle = elapsed / (i / cycle).max(1) as f64;
            if i > 0 && elapsed + mean_cycle / 2.0 >= seconds {
                break;
            }
            if W::ON_CALLER && turn_start.is_none_or(|t| t.elapsed().as_secs_f64() >= CPU_TURN_S) {
                rotation.next();
                turn_start = Some(Instant::now());
            }
        }
        let span = trace.map(|(_, root)| root.child("bench.op", &[("op", i.into())]));
        let collector = trace.map(|(c, _)| c);
        let t = Instant::now();
        let result = w.op(i, threads, collector);
        let dt = t.elapsed().as_secs_f64();
        drop(span);
        phase.attempted += 1;
        match result {
            Ok(out) => {
                w.check(&out)?;
                phase.times.push(dt);
                phase.kinds.push(w.kind(&out));
                phase.work += w.work(&out);
                if let Some(t) = tally.as_deref_mut() {
                    w.tally(&out, t);
                }
                phase.last = Some(out);
            }
            Err(e) => {
                eprintln!("op {i} failed: {e}");
                phase.failed += 1;
            }
        }
        i += 1;
    }
    if let Some(last) = &phase.last {
        w.final_check(last)?;
    }
    Ok(phase)
}

fn untraced<W: Workload>(ctx: Ctx, seconds: f64) -> Result<RunResult, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    let mut rotation = CpuRotation::new();
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        if W::ON_CALLER {
            rotation.next();
        }
        let t = Instant::now();
        let mut w = W::setup(ctx)?;
        w.warm_up(ctx.nproc)?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(w);
    }
    let mut w = ready.expect("at least one set-up ran");
    let phase = run_phase(&mut w, ctx.nproc, seconds, None, None, None)?;
    if phase.times.is_empty() {
        return Err("no op succeeded".into());
    }
    let ms: Vec<f64> = phase.times.iter().map(|s| s * 1e3).collect();
    let busy: f64 = phase.times.iter().sum();
    println!(
        "# ops attempted={} failed={} error_rate={} timed_s={busy:.3}",
        phase.attempted,
        phase.failed,
        phase.failed as f64 / phase.attempted as f64
    );
    let mut kinds: Vec<&str> = phase
        .kinds
        .iter()
        .copied()
        .filter(|k| !k.is_empty())
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let of_kind: Vec<f64> = ms
            .iter()
            .zip(&phase.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(t, _)| *t)
            .collect();
        println!(
            "# {kind}: ops={} p50_ms={:.4} tail_ms={:.4}",
            of_kind.len(),
            median(&of_kind),
            quantile(&of_kind, w.tail_quantile())
        );
    }
    Ok(RunResult {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: END_TO_END
            .iter()
            .zip([
                median(&setup_s),
                median(&ms),
                quantile(&ms, w.tail_quantile()),
                phase.work / busy,
            ])
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
    })
}

/// A traced run: a quarter of `seconds` of untraced reference ops, then
/// the same ops again (for at most half of `seconds`) with the recorder
/// attached, then the probes and baselines.
fn traced<W: Workload>(ctx: Ctx, name: &str, seconds: f64) -> Result<RunResult, String> {
    let reference = {
        let mut w = W::setup(ctx)?;
        w.warm_up(ctx.nproc)?;
        run_phase(&mut w, ctx.nproc, seconds / 4.0, None, None, None)?
    };
    let ops = reference.attempted;
    // The workload's own peak, before the recorder and probes allocate.
    let peak_rss_mb = util::peak_rss_mb()?;

    let rec = Arc::new(Recorder::new(STORED_EVENT_CAP));
    let collector: Arc<dyn Collector> = rec.clone();
    let root = Span::root(
        Some(&collector),
        "bench.run",
        &[
            ("workload", name.to_string().into()),
            ("seed", ctx.seed.into()),
        ],
    )
    .expect("the recorder is enabled");
    let mut w = W::setup(ctx)?;
    w.warm_up(ctx.nproc)?;
    let mut tally = Counts::new();
    let traced = run_phase(
        &mut w,
        ctx.nproc,
        seconds / 2.0,
        Some(ops),
        Some((&collector, &root)),
        Some(&mut tally),
    )?;
    let traced_ops = traced.times.len();
    let events = rec.total();
    if traced_ops == 0 || reference.times.len() < traced_ops {
        return Err("traced and untraced phases did not both succeed on every op".into());
    }
    let untraced_mean = mean_of(&reference.times[..traced_ops]);
    let traced_mean = mean_of(&traced.times);

    let costs = probes::measure(ctx, Some(&root))?;
    drop(root);
    let counts = w.layer_counts(&tally, &rec, traced_ops as f64);
    let rows = w.rows(&counts, &costs);

    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("{name}-seed{}.jsonl", ctx.seed));
    let written = rec
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# trace: {written} of {} events written to {}",
        rec.total(),
        path.display()
    );

    let explained = print_layer_table(
        name,
        &rows,
        untraced_mean,
        traced_mean,
        traced_ops,
        w.residual_note(),
    );
    let metrics = per_layer_metrics(
        &counts,
        &costs,
        &[
            ("telemetry.trace_overhead", traced_mean / untraced_mean),
            ("telemetry.events_per_op", events as f64 / traced_ops as f64),
            ("reconcile.untraced_op_ms", untraced_mean * 1e3),
            ("reconcile.explained_share", explained),
            ("reconcile.residual", 1.0 - explained),
            ("reconcile.ops", traced_ops as f64),
            ("process.peak_rss_mb", peak_rss_mb),
        ],
    );
    Ok(RunResult {
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        metrics,
    })
}

/// Prints the reconciliation table; returns the explained share.
fn print_layer_table(
    name: &str,
    rows: &[Row],
    untraced_s: f64,
    traced_s: f64,
    ops: usize,
    note: &str,
) -> f64 {
    let op_us = untraced_s * 1e6;
    println!(
        "# layer table {name}: {ops} ops, untraced op {:.3} ms, traced op {:.3} ms, trace overhead {:.2}x",
        untraced_s * 1e3,
        traced_s * 1e3,
        traced_s / untraced_s
    );
    println!(
        "#   {:<44} {:>12} {:>10} {:>12} {:>7}",
        "layer", "count/op", "unit ns", "us/op", "share"
    );
    let mut explained_us = 0.0;
    for r in rows {
        let us = r.count * r.unit_ns / 1e3;
        if r.adds {
            explained_us += us;
        }
        println!(
            "#   {:<44} {:>12.1} {:>10.1} {:>12.2} {:>6.1}%{}",
            r.layer,
            r.count,
            r.unit_ns,
            us,
            100.0 * us / op_us,
            if r.adds {
                ""
            } else {
                "  (part of the row above)"
            }
        );
    }
    let share = explained_us / op_us;
    println!(
        "#   {:<44} {:>12} {:>10} {:>12.2} {:>6.1}%",
        "explained",
        "",
        "",
        explained_us,
        100.0 * share
    );
    println!(
        "#   {:<44} {:>12} {:>10} {:>12.2} {:>6.1}%  {note}",
        "residual",
        "",
        "",
        op_us - explained_us,
        100.0 * (1.0 - share)
    );
    share
}

/// Every per-layer metric: the workload's counts, the probed costs, and
/// the run's own measurements in `run`.
fn per_layer_metrics(
    counts: &Counts,
    c: &Costs,
    run: &[(&'static str, f64)],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut v: BTreeMap<&str, f64> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    v.extend(c.paths.iter().map(|(k, x)| (*k, *x)));
    v.extend(run.iter().copied());
    for (k, x) in [
        ("game.best_reply.ns_per_water_fill_dense", c.wf_dense_ns),
        ("game.best_reply.ns_per_water_fill_sparse", c.wf_sparse_ns),
        ("game.nash.ns_per_sweep", c.sweep_ns),
        ("game.nash.jacobi_speedup_table1", c.jacobi_table1_speedup),
        ("game.nash.jacobi_speedup_web", c.jacobi_web_speedup),
        ("game.stopping.ns_per_user_regret", c.user_regret_ns),
        ("game.stopping.ns_per_certificate", c.certificate_ns),
        ("game.dynamics.warm_vs_cold_sweeps", c.warm_vs_cold_sweeps),
        ("game.sampled.thread_speedup", c.sampled_speedup),
        ("des.rng.ns_per_draw", c.draw_ns),
        ("des.calendar.ns_per_calendar_op", c.calendar_ns),
        ("des.shard.ns_per_event", c.shard_event_ns),
        ("sim.parallel.thread_speedup", c.sim_speedup),
        ("sim.parallel.efficiency", c.sim_efficiency),
        ("sim.parallel.idle_share", c.sim_idle_share),
        ("distributed.net.ns_per_message", c.net_message_ns),
        (
            "distributed.async_runtime.virtual_cert_ms",
            c.virtual_cert_ms,
        ),
        ("telemetry.ns_per_event", c.recorder_event_ns),
        ("telemetry.count_overhead", c.count_overhead),
        ("telemetry.jsonl_overhead", c.jsonl_overhead),
        ("telemetry.sampling_overhead", c.sampling_overhead),
    ] {
        v.insert(k, x);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn dispatch(args: &Args, ctx: Ctx) -> Result<RunResult, String> {
    fn go<W: Workload>(args: &Args, ctx: Ctx) -> Result<RunResult, String> {
        if args.trace {
            traced::<W>(ctx, &args.workload, args.seconds)
        } else {
            untraced::<W>(ctx, args.seconds)
        }
    }
    match args.workload.as_str() {
        "table1-control" => go::<table1::Table1Control>(args, ctx),
        "fig4-simulate" => go::<fig4::Fig4>(args, ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn render(result: &RunResult) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit, value) in &result.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        return match report::run(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("report: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: lb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        nproc: util::nproc(),
    };
    println!(
        "# lb-benchmark workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc,
        util::cpu_model(),
        util::commit()
    );
    match dispatch(&args, ctx).and_then(|r| render(&r)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
