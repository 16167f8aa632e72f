//! Cross-run trace diff: `experiments diff A B`.
//!
//! Compares two trace logs (or result directories) along three axes,
//! ordered from exact to advisory:
//!
//! 1. **Reweighted event counts** — per-type totals where every
//!    `sample.digest` drop count is folded back onto the type it stood
//!    in for, so a head-sampled run compares equal to itself and any
//!    count delta is a genuine workload difference, never a sampling
//!    artifact. Exact under determinism: identical seeds must produce
//!    zero rows here.
//! 2. **Resource accounting** — per-key integer sums over the
//!    `account.*` families (RNG draws, DES events, network bytes,
//!    solver inner loops). Accounting events are always-keep in the
//!    sampler, so this axis is exact even on sampled traces.
//! 3. **Span forest structure and wall time** — per-name span counts
//!    (structural: a name present in only one run, or with different
//!    multiplicity, is a hard delta) and per-name wall-time totals
//!    (advisory: clocks jitter, so a time row only counts toward the
//!    verdict beyond both a ratio and an absolute floor).
//!
//! Speed claims belong to the repository benchmark (`benchmark/`), whose
//! `report <set> <set>` checks each metric against its bound.
//!
//! The verdict line is machine-readable JSON so CI can gate on
//! `"verdict":"identical"` without parsing tables.

use crate::analyze::{analyze, load_log, SpanDepthError};
use crate::report::Table;
use crate::trace::digest_counts;
use lb_telemetry::{EventLog, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Wall-time ratio beyond which a span name counts as a regression…
pub const TIME_RATIO: f64 = 1.5;
/// …but only when the absolute delta also clears this floor (µs).
/// Both gates together keep CI runs on noisy shared hardware from
/// flagging jitter on sub-millisecond spans.
pub const TIME_FLOOR_US: u64 = 150_000;

/// Default trace filename looked up when an input path is a directory.
pub const DEFAULT_TRACE: &str = "trace_table1.jsonl";

/// Delta counts per axis; the verdict is clean iff all are zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Reweighted per-event-type count mismatches.
    pub count_deltas: usize,
    /// `account.*` counter mismatches (per event type × key).
    pub account_deltas: usize,
    /// Span names present in only one run or with different counts.
    pub structure_deltas: usize,
    /// Span names slower in B beyond both the ratio and the floor.
    pub time_regressions: usize,
}

impl Verdict {
    /// Total deltas across all axes.
    pub fn total(&self) -> usize {
        self.count_deltas + self.account_deltas + self.structure_deltas + self.time_regressions
    }

    /// Whether the two runs are equivalent under every axis.
    pub fn is_identical(&self) -> bool {
        self.total() == 0
    }

    /// One machine-readable JSON line for CI.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count_deltas\":{},\"account_deltas\":{},\"structure_deltas\":{},\
             \"time_regressions\":{},\"total\":{},\"verdict\":\"{}\"}}",
            self.count_deltas,
            self.account_deltas,
            self.structure_deltas,
            self.time_regressions,
            self.total(),
            if self.is_identical() {
                "identical"
            } else {
                "different"
            }
        )
    }
}

/// The rendered diff: delta-only tables plus the verdict.
#[derive(Debug)]
pub struct DiffReport {
    /// Resolved path of run A's trace log.
    pub log_a: PathBuf,
    /// Resolved path of run B's trace log.
    pub log_b: PathBuf,
    /// Tables holding only delta rows (all empty on identical runs).
    pub tables: Vec<Table>,
    /// Per-axis delta counts.
    pub verdict: Verdict,
}

/// A directory input means "the trace inside it".
fn resolve(input: &Path) -> PathBuf {
    if input.is_dir() {
        input.join(DEFAULT_TRACE)
    } else {
        input.to_path_buf()
    }
}

/// Per-type event counts with sampling reweighted away: kept events
/// plus digest drop counts, with the digests themselves excluded
/// (they are sampler bookkeeping, not workload).
fn reweighted_counts(log: &EventLog) -> BTreeMap<String, u64> {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for ev in &log.events {
        if ev.name != "sample.digest" {
            *counts.entry(ev.name.clone()).or_insert(0) += 1;
        }
    }
    for (name, dropped) in digest_counts(log) {
        *counts.entry(name).or_insert(0) += dropped;
    }
    counts
}

/// Integer field sums per `account.*` event type.
fn account_totals(log: &EventLog) -> BTreeMap<String, BTreeMap<String, u64>> {
    let mut totals: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for ev in &log.events {
        if !ev.name.starts_with("account.") {
            continue;
        }
        let keys = totals.entry(ev.name.clone()).or_default();
        for (k, v) in &ev.fields {
            if let Some(n) = Json::as_u64(v) {
                *keys.entry(k.clone()).or_insert(0) += n;
            }
        }
    }
    totals
}

/// Per-span-name (count, total wall µs) from the reconstructed forest.
fn span_profile(log: &EventLog) -> Result<BTreeMap<String, (usize, u64)>, SpanDepthError> {
    Ok(analyze(log)?
        .stats
        .into_iter()
        .map(|s| (s.name, (s.count, s.total_us)))
        .collect())
}

fn union_keys<'a, V>(
    a: &'a BTreeMap<String, V>,
    b: &'a BTreeMap<String, V>,
) -> BTreeSet<&'a String> {
    a.keys().chain(b.keys()).collect()
}

/// Diffs two runs. Each input is a trace log path or a results
/// directory (whose `trace_table1.jsonl` is used).
///
/// # Errors
///
/// Unreadable or schema-invalid inputs, or spans nested deeper than
/// [`crate::analyze::MAX_SPAN_LEVELS`].
pub fn run(input_a: &Path, input_b: &Path) -> Result<DiffReport, String> {
    let log_a_path = resolve(input_a);
    let log_b_path = resolve(input_b);
    let log_a = load_log(&log_a_path)?;
    let log_b = load_log(&log_b_path)?;

    let mut verdict = Verdict::default();
    let mut tables = Vec::new();

    // Axis 1: reweighted event counts (exact under determinism).
    let counts_a = reweighted_counts(&log_a);
    let counts_b = reweighted_counts(&log_b);
    let mut count_table = Table::new(
        "Diff: reweighted event counts (kept + sampled-away)",
        vec!["event", "A", "B", "delta"],
    );
    for name in union_keys(&counts_a, &counts_b) {
        let a = counts_a.get(name).copied().unwrap_or(0);
        let b = counts_b.get(name).copied().unwrap_or(0);
        if a != b {
            count_table.row(vec![
                name.clone(),
                a.to_string(),
                b.to_string(),
                format!("{:+}", b as i64 - a as i64),
            ]);
            verdict.count_deltas += 1;
        }
    }
    tables.push(count_table);

    // Axis 2: per-subsystem resource accounting (exact).
    let acct_a = account_totals(&log_a);
    let acct_b = account_totals(&log_b);
    let mut acct_table = Table::new(
        "Diff: resource accounting (account.* counter sums)",
        vec!["event", "counter", "A", "B", "delta"],
    );
    for event in union_keys(&acct_a, &acct_b) {
        let empty = BTreeMap::new();
        let keys_a = acct_a.get(event).unwrap_or(&empty);
        let keys_b = acct_b.get(event).unwrap_or(&empty);
        for key in union_keys(keys_a, keys_b) {
            let a = keys_a.get(key).copied().unwrap_or(0);
            let b = keys_b.get(key).copied().unwrap_or(0);
            if a != b {
                acct_table.row(vec![
                    event.clone(),
                    key.clone(),
                    a.to_string(),
                    b.to_string(),
                    format!("{:+}", b as i64 - a as i64),
                ]);
                verdict.account_deltas += 1;
            }
        }
    }
    tables.push(acct_table);

    // Axis 3: span forest structure (exact) and wall time (advisory).
    let spans_a = span_profile(&log_a).map_err(|e| format!("{}: {e}", log_a_path.display()))?;
    let spans_b = span_profile(&log_b).map_err(|e| format!("{}: {e}", log_b_path.display()))?;
    let mut span_table = Table::new(
        "Diff: span structure and wall time",
        vec!["span", "A count", "B count", "A ms", "B ms", "flag"],
    );
    for name in union_keys(&spans_a, &spans_b) {
        let (count_a, us_a) = spans_a.get(name).copied().unwrap_or((0, 0));
        let (count_b, us_b) = spans_b.get(name).copied().unwrap_or((0, 0));
        let flag = if count_a == 0 {
            verdict.structure_deltas += 1;
            "only in B"
        } else if count_b == 0 {
            verdict.structure_deltas += 1;
            "only in A"
        } else if count_a != count_b {
            verdict.structure_deltas += 1;
            "count changed"
        } else if us_b > TIME_FLOOR_US + us_a && (us_b as f64) > (us_a as f64) * TIME_RATIO {
            verdict.time_regressions += 1;
            "slower in B"
        } else {
            continue;
        };
        span_table.row(vec![
            name.clone(),
            count_a.to_string(),
            count_b.to_string(),
            format!("{:.1}", us_a as f64 / 1000.0),
            format!("{:.1}", us_b as f64 / 1000.0),
            flag.to_string(),
        ]);
    }
    tables.push(span_table);

    Ok(DiffReport {
        log_a: log_a_path,
        log_b: log_b_path,
        tables,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_telemetry::{Collector, JsonlCollector, SamplingCollector, SamplingConfig};
    use std::io::Write;
    use std::sync::Arc;

    fn temp_file(tag: &str, contents: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "lb_diff_{tag}_{}_{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    /// Emits a tiny deterministic workload through an optional sampler.
    fn workload(seed: u64, extra_span: bool, events: u64) -> Vec<u8> {
        let buf: Arc<std::sync::Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().write(b)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink: Arc<dyn Collector> =
            Arc::new(JsonlCollector::new(Box::new(Shared(Arc::clone(&buf)))));
        // Span verdicts hash the process-global span id, which differs
        // between in-process workload calls (separate CLI runs restart
        // the counter, so real same-seed runs agree). Pin span_rate to
        // 1.0 here so the test only exercises point-event sampling.
        let mut config = SamplingConfig::new(seed, 0.5);
        config.span_rate = 1.0;
        let sampler: Arc<dyn Collector> = Arc::new(SamplingCollector::new(sink, config));
        let collector = Some(&sampler);
        {
            let _root = lb_telemetry::Span::root(collector, "diff.root", &[]);
            for i in 0..events {
                sampler.emit("diff.tick", &[("i", i.into())]);
            }
            sampler.emit("account.test", &[("work", events.into())]);
            if extra_span {
                let _s = lb_telemetry::Span::root(collector, "diff.extra", &[]);
            }
        }
        sampler.flush();
        let out = buf.lock().unwrap().clone();
        out
    }

    #[test]
    fn identical_runs_diff_clean_even_under_sampling() {
        let a = temp_file("same_a", &workload(7, false, 400));
        let b = temp_file("same_b", &workload(7, false, 400));
        let report = run(&a, &b).unwrap();
        assert!(report.verdict.is_identical(), "{:?}", report.verdict);
        assert!(report.tables.iter().all(Table::is_empty));
        assert!(report
            .verdict
            .to_json()
            .contains("\"verdict\":\"identical\""));
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn count_account_and_structure_deltas_are_flagged() {
        let a = temp_file("delta_a", &workload(7, false, 400));
        let b = temp_file("delta_b", &workload(7, true, 500));
        let report = run(&a, &b).unwrap();
        let v = &report.verdict;
        // 100 extra ticks survive reweighting even though both runs
        // sample at 50%; the extra span adds structure.
        assert!(v.count_deltas >= 1, "{v:?}");
        assert!(v.account_deltas >= 1, "{v:?}");
        assert!(v.structure_deltas >= 1, "{v:?}");
        assert!(!v.is_identical());
        assert!(v.to_json().contains("\"verdict\":\"different\""));
        let span_rows = report
            .tables
            .iter()
            .find(|t| t.render().contains("span structure"))
            .unwrap()
            .render();
        assert!(span_rows.contains("diff.extra"), "{span_rows}");
        assert!(span_rows.contains("only in B"), "{span_rows}");
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn different_sampling_seeds_still_reweight_to_equal_counts() {
        // Different seeds keep different subsets, but kept + digest
        // must reweight to the same per-type totals.
        let a = temp_file("seed_a", &workload(1, false, 600));
        let b = temp_file("seed_b", &workload(2, false, 600));
        let report = run(&a, &b).unwrap();
        assert_eq!(report.verdict.count_deltas, 0, "{:?}", report.verdict);
        assert_eq!(report.verdict.account_deltas, 0, "{:?}", report.verdict);
        let _ = std::fs::remove_file(a);
        let _ = std::fs::remove_file(b);
    }

    #[test]
    fn directory_inputs_resolve_to_the_default_trace() {
        let dir = std::env::temp_dir().join(format!("lb_diff_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(DEFAULT_TRACE), workload(7, false, 50)).unwrap();
        let report = run(&dir, &dir).unwrap();
        assert!(report.verdict.is_identical());
        assert_eq!(report.log_a, dir.join(DEFAULT_TRACE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_input_is_a_readable_error() {
        let err = run(
            Path::new("/nonexistent/a.jsonl"),
            Path::new("/nonexistent/b.jsonl"),
        )
        .unwrap_err();
        assert!(err.contains("/nonexistent/a.jsonl"), "{err}");
    }
}
