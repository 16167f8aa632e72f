//! The `watch` subcommand: a long-running observed replay that serves
//! live observability state over HTTP while it runs.
//!
//! The replay drives a sequence of [`AsyncNash`] episodes over the
//! chaotic virtual network — a healthy warm-up, an induced overload
//! phase (heavy loss starves the protocol of acknowledgements and the
//! certificate never closes), and a recovery phase — and after each
//! episode folds the outcome into four live signals sampled on a
//! cumulative virtual clock ([`STEP_US`] apart):
//!
//! - `watch.gap` — the certified ε-Nash gap (clamped to 1.0 when the
//!   episode exhausted its budget uncertified);
//! - `watch.goodput` — fraction of protocol messages delivered;
//! - `watch.shed` — fraction lost to the drop roll and partitions;
//! - `async.staleness` — age of the freshest certified equilibrium
//!   view (how long ago the last episode certified).
//!
//! The samples feed a multi-window [`SloEngine`] (burn-rate alerts on
//! all four [`SloSpec`] families) and a [`MetricsRegistry`], and a
//! [`LiveServer`] exposes `/metrics`, `/healthz`, and `/trace/recent`
//! throughout the run. Everything is deterministic given the seed
//! sequence: the alert fire/clear timeline replays bit-identically.

use crate::report::{fmt, Table};
use lb_distributed::{AsyncNash, NetFaultPlan};
use lb_game::model::SystemModel;
use lb_telemetry::{
    Collector, JsonlCollector, LiveServer, MemoryCollector, MetricsRegistry, SloEngine, SloSpec,
    SloVerdict, TeeCollector,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Virtual-time distance between consecutive watch samples (µs).
pub const STEP_US: u64 = 50_000;
/// SLO short-window width (µs): four samples per short window; the
/// specs derive the long window as 4× this (sixteen samples).
pub const WINDOW_US: u64 = 200_000;
/// Certified-gap SLO threshold (fast-burn: fires on the first
/// uncertified episode).
pub const GAP_EPSILON: f64 = 0.05;
/// Goodput SLO floor (fraction of protocol messages delivered).
pub const GOODPUT_FLOOR: f64 = 0.5;
/// Shed SLO budget (fraction of messages lost).
pub const SHED_BUDGET: f64 = 0.5;
/// View-staleness SLO tolerance (µs; slow-burn: the age of the last
/// certified view must accumulate across episodes before it fires).
pub const STALENESS_TAU_US: f64 = 120_000.0;
/// Ring capacity backing `/trace/recent`.
pub const RECENT_CAPACITY: usize = 512;

/// Everything the `watch` subcommand produced.
#[derive(Debug)]
pub struct WatchReport {
    /// Path of the schema-validated JSONL event log.
    pub log_path: PathBuf,
    /// Address the live endpoint served on during the run.
    pub addr: SocketAddr,
    /// Episodes replayed.
    pub iterations: u32,
    /// Total `alert.fire` events across all SLOs.
    pub fires: usize,
    /// Total `alert.clear` events across all SLOs.
    pub clears: usize,
    /// Final per-SLO verdicts at the end of the run.
    pub verdicts: Vec<SloVerdict>,
    /// Rendered SLO summary table.
    pub table: Table,
}

/// Runs the observed replay into `out`, serving live state on
/// `127.0.0.1:port` (0 = ephemeral) until `linger_ms` after the last
/// episode. See the module docs for the scenario shape.
///
/// # Errors
///
/// I/O failures, bind failures, episode failures, or a schema-invalid
/// event log.
pub fn run(out: &Path, port: u16, iterations: u32, linger_ms: u64) -> Result<WatchReport, String> {
    run_with_probe(out, port, iterations, linger_ms, None)
}

/// [`run`] with an optional mid-run probe: invoked once with the bound
/// address halfway through the episode sequence, while the server is
/// live and the overload phase is underway. This is how the unit tests
/// (and anything embedding the watch loop) scrape the endpoint without
/// racing the run's shutdown.
#[allow(clippy::too_many_lines)]
pub fn run_with_probe(
    out: &Path,
    port: u16,
    iterations: u32,
    linger_ms: u64,
    mut probe: Option<Box<dyn FnMut(SocketAddr) + '_>>,
) -> Result<WatchReport, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let log_path = out.join("watch_trace.jsonl");
    let jsonl = Arc::new(
        JsonlCollector::create(&log_path)
            .map_err(|e| format!("creating {}: {e}", log_path.display()))?,
    );
    let ring = Arc::new(MemoryCollector::with_capacity(RECENT_CAPACITY));
    // `base` is the durable sink: the JSONL log plus the ring behind
    // `/trace/recent`. The network/protocol events of every episode and
    // the engine's alert stream all land here.
    let base: Arc<dyn Collector> = Arc::new(TeeCollector::new(vec![jsonl.clone(), ring.clone()]));
    let engine = Arc::new(SloEngine::new(
        vec![
            SloSpec::certified_gap(GAP_EPSILON, WINDOW_US),
            SloSpec::goodput_min(GOODPUT_FLOOR, WINDOW_US),
            SloSpec::staleness_max(STALENESS_TAU_US, WINDOW_US),
            SloSpec::shed_rate_max(SHED_BUDGET, WINDOW_US),
        ],
        Some(base.clone()),
    ));
    let registry = Arc::new(MetricsRegistry::new());
    let mut server = LiveServer::start(port, registry.clone(), engine.clone(), ring.clone())
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr = server.addr();
    println!("[watch] serving http://{addr} (/metrics /healthz /trace/recent)");

    // The three-computer, three-user Table-1-style system the trace
    // subcommand also replays.
    let model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![12.0, 15.0, 20.0])
        .map_err(|e| e.to_string())?;
    // Overload occupies the middle third of the episode sequence.
    let (overload_from, overload_to) = (iterations / 3, 2 * iterations / 3);
    let mut last_certified_us = 0u64;
    let mut now_us = 0u64;
    for i in 0..iterations {
        now_us += STEP_US;
        let overloaded = (overload_from..overload_to).contains(&i);
        let (plan, runner) = if overloaded {
            // Heavy loss starves the protocol: updates and acks rarely
            // land, the certificate cannot close, and the episode
            // exhausts its (short) virtual budget uncertified.
            (
                NetFaultPlan::new()
                    .loss(0.92)
                    .duplication(0.05)
                    .reordering(0.2)
                    .delay_us(200, 2_000),
                AsyncNash::new()
                    .seed(900 + u64::from(i))
                    .max_virtual_us(250_000),
            )
        } else {
            (
                NetFaultPlan::new()
                    .loss(0.05)
                    .duplication(0.05)
                    .reordering(0.2)
                    .delay_us(50, 400),
                AsyncNash::new().seed(100 + u64::from(i)),
            )
        };
        let outcome = runner
            .fault_plan(plan)
            .collector(base.clone())
            .run(&model)
            .map_err(|e| format!("episode {i}: {e}"))?;

        // Fold the episode into the four live signals at the watch
        // clock. An uncertified episode charges the full unit gap.
        let gap = if outcome.converged() {
            outcome.final_gap().clamp(0.0, 1.0)
        } else {
            1.0
        };
        let stats = outcome.net_stats();
        #[allow(clippy::cast_precision_loss)]
        let (goodput, shed) = if stats.sent == 0 {
            (1.0, 0.0)
        } else {
            (
                stats.delivered as f64 / stats.sent as f64,
                (stats.dropped + stats.partition_drops) as f64 / stats.sent as f64,
            )
        };
        if outcome.converged() {
            last_certified_us = now_us;
        }
        let age_us = now_us - last_certified_us;

        // Samples go to the durable sink AND the SLO engine; the
        // engine's alert output loops back into the sink.
        for sink in [&base, &(engine.clone() as Arc<dyn Collector>)] {
            sink.emit("watch.gap", &[("t_us", now_us.into()), ("gap", gap.into())]);
            sink.emit(
                "watch.goodput",
                &[("t_us", now_us.into()), ("fraction", goodput.into())],
            );
            sink.emit(
                "watch.shed",
                &[("t_us", now_us.into()), ("fraction", shed.into())],
            );
            sink.emit(
                "async.staleness",
                &[
                    ("t_us", now_us.into()),
                    ("user", 0u64.into()),
                    ("age_us", age_us.into()),
                ],
            );
        }
        registry.inc("watch.iterations", 1);
        registry.set_gauge("async.certified_gap", gap);
        registry.set_gauge("watch.goodput", goodput);
        registry.set_gauge("watch.shed", shed);
        #[allow(clippy::cast_precision_loss)]
        registry.set_gauge("watch.staleness_age_us", age_us as f64);
        registry.observe("watch.gap", gap);

        let firing = engine
            .verdicts()
            .iter()
            .filter(|v| v.state == lb_telemetry::AlertState::Firing)
            .count();
        println!(
            "[watch] t={:.2}s {} gap={} goodput={} shed={} stale={}us firing={firing}",
            now_us as f64 / 1e6,
            if overloaded { "OVERLOAD" } else { "healthy " },
            fmt(gap),
            fmt(goodput),
            fmt(shed),
            age_us,
            firing = firing
        );
        if i == (overload_from + overload_to) / 2 {
            if let Some(p) = probe.as_mut() {
                p(addr);
            }
        }
    }

    if linger_ms > 0 {
        println!("[watch] lingering {linger_ms} ms for scrapers");
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    server.shutdown();
    base.flush();
    if jsonl.had_error() {
        return Err(format!("I/O error writing {}", log_path.display()));
    }

    // Validate the log end to end and tally the alert stream — one
    // line at a time, so the validation pass is O(1) in memory no
    // matter how long the watch ran.
    let reader = lb_telemetry::LogReader::open(&log_path)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let (mut fires, mut clears) = (0usize, 0usize);
    for event in reader {
        let event = event.map_err(|e| format!("{}: {e}", log_path.display()))?;
        match event.name.as_str() {
            "alert.fire" => fires += 1,
            "alert.clear" => clears += 1,
            _ => {}
        }
    }
    let verdicts = engine.verdicts();
    let table = render_slos(&verdicts);
    Ok(WatchReport {
        log_path,
        addr,
        iterations,
        fires,
        clears,
        verdicts,
        table,
    })
}

/// Final per-SLO summary: verdict, burn counts, last value vs threshold.
fn render_slos(verdicts: &[SloVerdict]) -> Table {
    let mut t = Table::new(
        "Watch: SLO verdicts after replay".to_string(),
        vec![
            "slo".to_string(),
            "state".to_string(),
            "fires".to_string(),
            "clears".to_string(),
            "value".to_string(),
            "threshold".to_string(),
        ],
    );
    for v in verdicts {
        t.row(vec![
            v.name.clone(),
            format!("{:?}", v.state).to_lowercase(),
            v.fires.to_string(),
            v.clears.to_string(),
            fmt(v.value),
            fmt(v.threshold),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// The log's alert timeline as `(event, slo, t_us)` triples.
    fn alert_timeline(log_path: &Path) -> Vec<(String, String, u64)> {
        let text = std::fs::read_to_string(log_path).unwrap();
        let log = lb_telemetry::parse_log(&text).unwrap();
        log.events
            .iter()
            .filter(|e| e.name.starts_with("alert."))
            .map(|e| {
                let slo = e.field("slo").and_then(|v| v.as_str()).unwrap_or("?");
                let t_us = e.field("t_us").and_then(lb_telemetry::Json::as_u64);
                (e.name.clone(), slo.to_string(), t_us.expect("alert t_us"))
            })
            .collect()
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn overload_fires_and_recovery_clears_while_the_endpoint_serves() {
        let dir = std::env::temp_dir().join(format!("lb_watch_test_{}", std::process::id()));
        let mut scraped = Vec::new();
        let report = run_with_probe(
            &dir,
            0,
            28,
            0,
            Some(Box::new(|addr| {
                scraped.push(http_get(addr, "/metrics"));
                scraped.push(http_get(addr, "/healthz"));
            })),
        )
        .unwrap();

        // Mid-overload the endpoint serves valid metrics including the
        // certified-gap gauge, and /healthz is alerting.
        assert_eq!(scraped.len(), 2);
        let metrics = scraped[0].split("\r\n\r\n").nth(1).unwrap();
        lb_telemetry::validate_exposition(metrics).expect("served metrics must validate");
        assert!(metrics.contains("lb_async_certified_gap"), "{metrics}");
        assert!(
            scraped[1].contains("\"status\": \"alerting\""),
            "{}",
            scraped[1]
        );

        // The induced overload fires every SLO family and the recovery
        // clears them all, on a pinned virtual-time timeline; the final
        // state is healthy.
        let expected = [
            ("alert.fire", "certified_gap", 500_000),
            ("alert.fire", "shed_rate", 900_000),
            ("alert.fire", "view_staleness", 900_000),
            ("alert.fire", "goodput", 950_000),
            ("alert.clear", "goodput", 1_250_000),
            ("alert.clear", "shed_rate", 1_250_000),
            ("alert.clear", "view_staleness", 1_300_000),
            ("alert.clear", "certified_gap", 1_350_000),
        ]
        .map(|(event, slo, t_us)| (event.to_string(), slo.to_string(), t_us));
        assert_eq!(alert_timeline(&report.log_path), expected);
        assert_eq!((report.fires, report.clears), (4, 4));
        for v in &report.verdicts {
            assert!(v.fires >= 1, "{} never fired", v.name);
            assert!(v.clears >= 1, "{} never cleared", v.name);
            assert_eq!(v.state, lb_telemetry::AlertState::Healthy, "{}", v.name);
        }
        assert!(report.log_path.exists());
        assert_eq!(report.table.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_watch_replay_is_deterministic() {
        let base = std::env::temp_dir().join(format!("lb_watch_det_{}", std::process::id()));
        let mut timelines = Vec::new();
        for sub in ["a", "b"] {
            let report = run(&base.join(sub), 0, 12, 0).unwrap();
            timelines.push(alert_timeline(&report.log_path));
        }
        assert_eq!(timelines[0], timelines[1]);
        std::fs::remove_dir_all(&base).ok();
    }
}
