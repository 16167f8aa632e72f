//! The `trace` subcommand: replay a Table-1 scenario with telemetry
//! collection on and render a human-readable convergence/timeline
//! report.
//!
//! Three phases share one [`JsonlCollector`] (optionally teed to stderr
//! with `--verbose`):
//!
//! 1. **Solver** — NASH_0 and NASH_P on the Table-1 system at 60%
//!    utilization, streaming per-sweep `solver.*` convergence events;
//! 2. **Ring** — a fault-injected [`DistributedNash`] run (token drop,
//!    capacity degrade + recover under a proportional-shedding policy),
//!    streaming the `ring.*` event family;
//! 3. **Simulation** — a small replicated DES run of the NASH profile
//!    plus a capacity-churn replication, streaming `sim.*`/`des.*`
//!    events and `runner.*` pool accounting;
//! 4. **Async chaos** — an [`AsyncNash`] run over the seeded virtual
//!    network with loss, duplication, reordering and one partition +
//!    heal, streaming the `net.*` fault family, the `async.*`
//!    protocol family (update deltas, anti-entropy syncs, staleness
//!    ages, the certified quiescence event), and the cross-node
//!    `xspan.send`/`xspan.recv` causal hops;
//! 5. **SLO burn** — a deterministic certified-gap burn replayed
//!    through the multi-window [`SloEngine`], streaming the
//!    `alert.fire`/`alert.clear` pair.
//!
//! The event log is written to `trace_table1.jsonl`, re-parsed and
//! schema-validated, distilled into a [`MetricsRegistry`] (exported as
//! JSON and Prometheus text), and summarized as report tables. The
//! instrumented code paths are observational only, so the replayed
//! numbers match the untraced experiments bit for bit.

use crate::analyze::load_log;
use crate::config::EPSILON;
use crate::report::{fmt, Table};
use lb_distributed::{AsyncNash, DistributedNash, FaultPlan, NetFaultPlan};
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_game::overload::OverloadPolicy;
use lb_game::StoppingRule;
use lb_sim::churn::{run_churn_replication, ChurnPhase, RetryBackoff};
use lb_sim::harness::simulate_profile_traced;
use lb_sim::parallel::ParallelRunner;
use lb_sim::scenario::SimulationConfig;
use lb_stats::ReplicationPlan;
use lb_telemetry::{
    Collector, EventLog, FieldValue, JsonlCollector, LogEvent, MetricsRegistry, SamplingCollector,
    SamplingConfig, SloEngine, SloSpec, StderrCollector, TeeCollector,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Event names the trace must cover to count as a faithful replay; the
/// run fails loudly if instrumentation regresses and one goes missing.
pub const REQUIRED_EVENTS: &[&str] = &[
    "solver.start",
    "solver.sweep",
    "solver.done",
    "ring.hop",
    "ring.round",
    "ring.token_lost",
    "ring.fault",
    "ring.capacity",
    "ring.shed",
    "ring.done",
    "runner.worker",
    "sim.replication",
    "sim.summary",
    "sim.phase",
    "sim.goodput",
    "des.calendar",
    "net.drop",
    "net.dup",
    "net.reorder",
    "net.partition",
    "net.heal",
    "async.update",
    "async.sync",
    "async.staleness",
    "async.quiesce",
    "xspan.send",
    "xspan.recv",
    "alert.fire",
    "alert.clear",
    "account.solver",
    "account.des",
    "account.net",
    "span_open",
    "span_close",
];

/// Env var: when set to a keep rate in (0, 1], the trace is head-sampled
/// through a [`SamplingCollector`] (seed-keyed, so two runs with the
/// same rate keep the same events) and the coverage check reweights
/// through `sample.digest` aggregates.
pub const SAMPLE_ENV: &str = "LB_TRACE_SAMPLE";

/// Env var: when set to a duration in microseconds, the replay sleeps
/// that long inside a synthetic `trace.inject` span — a knob for CI to
/// manufacture a known regression and assert `experiments diff` flags
/// the offending span by name.
pub const SLOWDOWN_ENV: &str = "LB_TRACE_SLOWDOWN_US";

/// Everything the `trace` subcommand produced.
#[derive(Debug)]
pub struct TraceReport {
    /// Path of the schema-validated JSONL event log.
    pub log_path: PathBuf,
    /// Path of the metrics-registry JSON export.
    pub metrics_json_path: PathBuf,
    /// Path of the Prometheus text-format export.
    pub metrics_prom_path: PathBuf,
    /// The parsed event log.
    pub log: EventLog,
    /// Rendered summary tables (convergence, ring timeline, counts).
    pub tables: Vec<Table>,
}

/// Runs the traced Table-1 replay into `out`, returning the parsed log
/// and report tables. `verbose` tees every event to stderr as it is
/// emitted.
///
/// # Errors
///
/// I/O failures, scenario failures, a schema-invalid log, or a missing
/// [`REQUIRED_EVENTS`] entry (instrumentation regression).
pub fn run(out: &Path, verbose: bool) -> Result<TraceReport, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let log_path = out.join("trace_table1.jsonl");
    let jsonl = Arc::new(
        JsonlCollector::create(&log_path)
            .map_err(|e| format!("creating {}: {e}", log_path.display()))?,
    );
    let sink: Arc<dyn Collector> = if verbose {
        Arc::new(TeeCollector::new(vec![
            jsonl.clone(),
            Arc::new(StderrCollector::new()),
        ]))
    } else {
        jsonl.clone()
    };
    // Optional deterministic head sampling (see [`SAMPLE_ENV`]): the
    // computation underneath is untouched — sampling only bounds what
    // reaches the sink, and digests keep the totals reweightable.
    let sample_rate = match std::env::var(SAMPLE_ENV) {
        Ok(v) => Some(
            v.parse::<f64>()
                .ok()
                .filter(|r| *r > 0.0 && *r <= 1.0)
                .ok_or_else(|| format!("{SAMPLE_ENV} must be a rate in (0, 1], got {v:?}"))?,
        ),
        Err(_) => None,
    };
    let collector: Arc<dyn Collector> = match sample_rate {
        Some(rate) => Arc::new(SamplingCollector::new(
            sink,
            SamplingConfig::new(0x7472_6163, rate),
        )),
        None => sink,
    };

    // Phase 1 — solver convergence, both paper initializations.
    let model = SystemModel::table1_system(0.6).map_err(|e| e.to_string())?;
    // The committed trace log is a byte-for-byte reference: pin the
    // paper's absolute-norm criterion it was recorded under.
    NashSolver::new(Initialization::Zero)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(EPSILON)
        .collector(collector.clone())
        .solve(&model)
        .map_err(|e| format!("NASH_0 solve: {e}"))?;
    let nash_profile = NashSolver::new(Initialization::Proportional)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(EPSILON)
        .collector(collector.clone())
        .solve(&model)
        .map_err(|e| format!("NASH_P solve: {e}"))?
        .profile()
        .clone();

    // Phase 2 — fault-injected token ring: drop the token held by user 1,
    // degrade computer 1 mid-run, recover it two rounds later.
    let ring_model =
        SystemModel::with_equal_users(vec![10.0, 20.0, 50.0], 4, 0.5).map_err(|e| e.to_string())?;
    let plan = FaultPlan::new()
        .drop_token_at(1, 2)
        .degrade_computer_at(4, 1, 8.0)
        .recover_computer_at(6, 1);
    let ring = DistributedNash::new()
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .fault_plan(plan)
        .round_timeout(Duration::from_millis(300))
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .collector(collector.clone())
        .run(&ring_model)
        .map_err(|e| format!("ring run: {e}"))?;
    if !ring.converged() {
        return Err(format!("ring run exhausted {} rounds", ring.rounds()));
    }

    // Phase 3a — replicated DES of the Table-1 NASH profile.
    let sim_plan = ReplicationPlan {
        replications: 3,
        ..ReplicationPlan::paper()
    };
    let sim_config = SimulationConfig {
        target_jobs: 5_000,
        ..SimulationConfig::quick()
    };
    simulate_profile_traced(
        &ParallelRunner::from_env(),
        &model,
        &nash_profile,
        &sim_plan,
        sim_config,
        Some(&collector),
    )
    .map_err(|e| format!("simulate: {e}"))?;

    // Phase 3b — capacity churn: the fast computer crashes for the
    // middle phase, forcing shedding and retries.
    let churn_model =
        SystemModel::new(vec![10.0, 20.0, 30.0], vec![16.0, 12.0]).map_err(|e| e.to_string())?;
    let phases = vec![
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 0.0],
        },
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
    ];
    run_churn_replication(
        &churn_model,
        &phases,
        OverloadPolicy::ShedProportional { headroom: 0.8 },
        RetryBackoff::new(0.05, 2.0, 1.0, 5),
        100.0,
        7,
        Some(&collector),
    )
    .map_err(|e| format!("churn: {e}"))?;

    // Phase 4 — asynchronous dynamics over the chaotic virtual network:
    // loss + duplication + reordering on every link, plus user 0 cut off
    // for the first 200 ms of virtual time (freeze → shed → heal →
    // anti-entropy sync → certify). This exercises every `net.*` and
    // `async.*` event name, so the coverage check below doubles as a
    // schema gate for the chaos event family.
    let async_model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![12.0, 15.0, 20.0])
        .map_err(|e| e.to_string())?;
    let net_plan = NetFaultPlan::new()
        .loss(0.1)
        .duplication(0.1)
        .reordering(0.3)
        .delay_us(50, 400)
        .partition_at(0, 200_000, vec![0]);
    AsyncNash::new()
        .seed(9)
        .fault_plan(net_plan)
        .collector(collector.clone())
        .run(&async_model)
        .map_err(|e| format!("async run: {e}"))?;

    // Phase 5 — a deterministic SLO burn: a certified-gap signal that
    // degrades and recovers, replayed through the multi-window burn-rate
    // engine so the committed log covers the alert event pair. The
    // samples land in the log too (the alert stream should be
    // explicable from the log alone).
    let engine = SloEngine::new(
        vec![SloSpec::certified_gap(0.05, 2_000)],
        Some(collector.clone()),
    );
    for (k, gap) in [
        0.001, 0.001, 0.001, 0.001, // healthy warm-up
        1.0, 1.0, 1.0, 1.0, 1.0, 1.0, // overload: short + long windows burn
        0.001, 0.001, 0.001, 0.001, 0.001, // recovery: hold, then clear
    ]
    .iter()
    .enumerate()
    {
        let fields = [
            ("t_us", FieldValue::from((k as u64 + 1) * 1_000)),
            ("gap", FieldValue::from(*gap)),
        ];
        collector.emit("watch.gap", &fields);
        engine.emit("watch.gap", &fields);
    }

    // Synthetic regression knob for CI's diff-smoke job: sleep inside
    // a dedicated span so the slowdown is attributable by name.
    if let Ok(v) = std::env::var(SLOWDOWN_ENV) {
        let us: u64 = v
            .parse()
            .map_err(|e| format!("{SLOWDOWN_ENV} must be microseconds, got {v:?}: {e}"))?;
        let span = lb_telemetry::Span::root(
            Some(&collector),
            "trace.inject",
            &[("slowdown_us", us.into())],
        );
        std::thread::sleep(Duration::from_micros(us));
        if let Some(span) = span {
            span.close();
        }
    }

    collector.flush();
    if jsonl.had_error() {
        return Err(format!("I/O error writing {}", log_path.display()));
    }

    // Validate the log end to end, then keep it for the (bounded-size)
    // report tables.
    let log = load_log(&log_path)?;
    // Coverage: a name counts as covered if it survived sampling or is
    // accounted for in a `sample.digest` aggregate (the digest proves
    // the instrumentation emitted it, even if the sampler dropped it).
    let digests = digest_counts(&log);
    for name in REQUIRED_EVENTS {
        if log.count(name) == 0 && digests.get(*name).copied().unwrap_or(0) == 0 {
            return Err(format!("trace log is missing any `{name}` event"));
        }
    }

    // Distill the log into the metrics registry and export it.
    let registry = build_registry(&log);
    let metrics_json_path = out.join("trace_metrics.json");
    std::fs::write(&metrics_json_path, registry.to_json())
        .map_err(|e| format!("writing {}: {e}", metrics_json_path.display()))?;
    let metrics_prom_path = out.join("trace_metrics.prom");
    std::fs::write(&metrics_prom_path, registry.to_prometheus())
        .map_err(|e| format!("writing {}: {e}", metrics_prom_path.display()))?;

    let tables = vec![
        render_convergence(&log),
        render_ring_timeline(&log),
        render_counts(&log),
    ];
    Ok(TraceReport {
        log_path,
        metrics_json_path,
        metrics_prom_path,
        log,
        tables,
    })
}

/// Dropped-event counts per event type, summed over every
/// `sample.digest` in the log (empty for unsampled traces).
pub fn digest_counts(log: &EventLog) -> BTreeMap<String, u64> {
    let mut counts = BTreeMap::new();
    for ev in &log.events {
        if ev.name != "sample.digest" {
            continue;
        }
        if let (Some(name), Some(count)) = (
            ev.field("event").and_then(|v| v.as_str()),
            ev.field("count").and_then(lb_telemetry::Json::as_u64),
        ) {
            *counts.entry(name.to_string()).or_insert(0) += count;
        }
    }
    counts
}

/// Folds the event log into counters, gauges and histograms.
fn build_registry(log: &EventLog) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let f = |ev: &LogEvent, key: &str| ev.field(key).and_then(lb_telemetry::Json::as_f64);
    for ev in &log.events {
        registry.inc(&format!("events.{}", ev.name), 1);
        match ev.name.as_str() {
            "solver.sweep" => {
                if let Some(norm) = f(ev, "norm") {
                    registry.observe("solver.sweep_norm", norm);
                }
            }
            "ring.round" => {
                if let Some(norm) = f(ev, "norm") {
                    registry.observe("ring.round_norm", norm);
                }
            }
            "ring.report" => {
                if let Some(t) = f(ev, "response_time") {
                    registry.observe("ring.response_time", t);
                }
            }
            "sim.replication" => {
                if let Some(mean) = f(ev, "system_mean") {
                    registry.observe("sim.replication_mean", mean);
                }
            }
            "runner.worker" => {
                if let Some(busy) = f(ev, "busy_us") {
                    registry.observe("runner.busy_us", busy);
                }
            }
            "sim.goodput" => {
                for key in ["served", "shed", "lost", "retries"] {
                    if let Some(v) = f(ev, key) {
                        registry.set_gauge(&format!("churn.{key}"), v);
                    }
                }
            }
            "des.calendar" => {
                if let Some(depth) = f(ev, "depth") {
                    registry.observe("des.calendar_depth", depth);
                }
            }
            "sample.digest" => {
                if let (Some(event), Some(count)) = (
                    ev.field("event").and_then(|v| v.as_str()),
                    ev.field("count").and_then(lb_telemetry::Json::as_u64),
                ) {
                    registry.inc(&format!("sample.dropped.{event}"), count);
                }
            }
            name if name.starts_with("account.") => {
                // Every `account.*` field is an integer counter by
                // schema rule; fold them all for Prometheus export.
                for (key, value) in &ev.fields {
                    if let Some(n) = value.as_u64() {
                        registry.inc(&format!("{}.{key}", ev.name), n);
                    }
                }
            }
            _ => {}
        }
    }
    registry
}

/// Per-sweep convergence of every solver run in the log, labelled by the
/// initialization announced in the preceding `solver.start`.
fn render_convergence(log: &EventLog) -> Table {
    let mut t = Table::new(
        "Trace: NASH solver convergence (Table 1, 60% utilization)".to_string(),
        vec![
            "init".to_string(),
            "iter".to_string(),
            "norm".to_string(),
            "max |D_j| delta".to_string(),
            "wf prefix mean".to_string(),
            "converged".to_string(),
        ],
    );
    let mut init = "?".to_string();
    for ev in &log.events {
        match ev.name.as_str() {
            "solver.start" => {
                init = ev
                    .field("init")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
            }
            "solver.sweep" => {
                let g = |key: &str| {
                    ev.field(key)
                        .and_then(lb_telemetry::Json::as_f64)
                        .map_or_else(|| "-".to_string(), fmt)
                };
                t.row(vec![
                    init.clone(),
                    ev.field("iter")
                        .and_then(lb_telemetry::Json::as_u64)
                        .map_or_else(|| "-".to_string(), |v| v.to_string()),
                    g("norm"),
                    g("max_d_delta"),
                    g("wf_prefix_mean"),
                    ev.field("converged")
                        .and_then(lb_telemetry::Json::as_bool)
                        .map_or_else(|| "-".to_string(), |b| b.to_string()),
                ]);
            }
            _ => {}
        }
    }
    t
}

/// Wall-clock timeline of the ring phase: every non-hop `ring.*` event
/// with its fields flattened (hops are summarized by the counts table —
/// one row per hop would drown the interesting transitions).
fn render_ring_timeline(log: &EventLog) -> Table {
    let mut t = Table::new(
        "Trace: token-ring fault timeline".to_string(),
        vec![
            "t (ms)".to_string(),
            "event".to_string(),
            "details".to_string(),
        ],
    );
    for ev in &log.events {
        if !ev.name.starts_with("ring.") || ev.name == "ring.hop" || ev.name == "ring.report" {
            continue;
        }
        let details = ev
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        #[allow(clippy::cast_precision_loss)]
        t.row(vec![
            format!("{:.3}", ev.t_us as f64 / 1000.0),
            ev.name.clone(),
            details,
        ]);
    }
    t
}

/// Event-count summary over the whole log.
fn render_counts(log: &EventLog) -> Table {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for ev in &log.events {
        match counts.iter_mut().find(|(n, _)| *n == ev.name) {
            Some((_, c)) => *c += 1,
            None => counts.push((ev.name.clone(), 1)),
        }
    }
    let mut t = Table::new(
        "Trace: event counts".to_string(),
        vec!["event".to_string(), "count".to_string()],
    );
    for (name, count) in counts {
        t.row(vec![name, count.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_replay_produces_a_schema_valid_covering_log() {
        let dir = std::env::temp_dir().join(format!("lb_trace_test_{}", std::process::id()));
        let report = run(&dir, false).unwrap();
        // `run` already schema-validates and checks REQUIRED_EVENTS;
        // spot-check the artifacts and report shape on top.
        assert!(report.log_path.exists());
        assert!(report.metrics_json_path.exists());
        assert!(report.metrics_prom_path.exists());
        assert_eq!(report.tables.len(), 3);
        // Two solver runs: NASH_0 takes more sweeps than NASH_P; the
        // convergence table holds one row per sweep.
        assert!(report.tables[0].len() >= 4, "convergence rows");
        assert!(!report.tables[1].is_empty(), "ring timeline rows");
        let prom = std::fs::read_to_string(&report.metrics_prom_path).unwrap();
        assert!(prom.contains("lb_solver_sweep_norm"), "{prom}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_required_event_names_are_a_hard_error() {
        // Guard against silently weakening the coverage list.
        assert!(REQUIRED_EVENTS.contains(&"solver.sweep"));
        assert!(REQUIRED_EVENTS.contains(&"ring.token_lost"));
        assert!(REQUIRED_EVENTS.contains(&"sim.goodput"));
        assert!(REQUIRED_EVENTS.contains(&"span_open"));
        assert!(REQUIRED_EVENTS.contains(&"span_close"));
        assert!(REQUIRED_EVENTS.contains(&"xspan.send"));
        assert!(REQUIRED_EVENTS.contains(&"xspan.recv"));
        assert!(REQUIRED_EVENTS.contains(&"async.staleness"));
        assert!(REQUIRED_EVENTS.contains(&"alert.fire"));
        assert!(REQUIRED_EVENTS.contains(&"alert.clear"));
        assert!(REQUIRED_EVENTS.len() >= 16);
    }
}
