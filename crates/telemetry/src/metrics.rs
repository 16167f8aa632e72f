//! A process-local metrics registry: counters, gauges, and log-linear
//! histograms with streaming p50/p95/p99 — exportable as JSON and as
//! Prometheus text exposition format.

use crate::json::{escape_str, fmt_f64};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Linear sub-buckets per power-of-two octave. Eight sub-buckets bound
/// the relative quantile error by 1/8 = 12.5% within an octave.
const SUBS_PER_OCTAVE: i64 = 8;

/// A log-linear histogram: values are bucketed by octave
/// (`floor(log2 v)`) and then linearly within the octave. Memory is
/// proportional to the number of *occupied* buckets, and quantiles are
/// answered with bounded relative error without storing samples.
#[derive(Debug, Default, Clone)]
pub(crate) struct LogLinearHistogram {
    buckets: BTreeMap<i64, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogLinearHistogram {
    /// Bucket key for a value. Non-positive and non-finite values share
    /// the lowest bucket (they are still tracked in min/max/sum).
    fn key(v: f64) -> i64 {
        if !v.is_finite() || v <= 0.0 {
            return i64::MIN;
        }
        let octave = v.log2().floor();
        let octave = octave.clamp(-1024.0, 1024.0) as i64;
        let base = (octave as f64).exp2();
        let sub = (((v / base) - 1.0) * SUBS_PER_OCTAVE as f64).floor() as i64;
        octave * SUBS_PER_OCTAVE + sub.clamp(0, SUBS_PER_OCTAVE - 1)
    }

    /// Upper bound of a bucket — the representative value quantile
    /// queries report.
    fn upper_bound(key: i64) -> f64 {
        if key == i64::MIN {
            return 0.0;
        }
        let octave = key.div_euclid(SUBS_PER_OCTAVE);
        let sub = key.rem_euclid(SUBS_PER_OCTAVE);
        (octave as f64).exp2() * (1.0 + (sub + 1) as f64 / SUBS_PER_OCTAVE as f64)
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, v: f64) {
        *self.buckets.entry(Self::key(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
    }

    /// Estimated quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the q-th observation, clamped to the observed
    /// min/max. `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&key, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let ub = Self::upper_bound(key);
                // A NaN observation poisons min/max; `f64::clamp`
                // panics on NaN bounds, so skip the clamp then.
                return Some(if self.min.is_nan() || self.max.is_nan() {
                    ub
                } else {
                    ub.clamp(self.min, self.max)
                });
            }
        }
        Some(self.max)
    }

    /// A summary snapshot (count, sum, min, max, p50/p95/p99).
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { f64::NAN } else { self.min },
            max: if self.count == 0 { f64::NAN } else { self.max },
            p50: self.quantile(0.50).unwrap_or(f64::NAN),
            p95: self.quantile(0.95).unwrap_or(f64::NAN),
            p99: self.quantile(0.99).unwrap_or(f64::NAN),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HistogramSnapshot {
    /// Observations recorded.
    pub(crate) count: u64,
    /// Sum of all observations.
    pub(crate) sum: f64,
    /// Smallest observation (`NaN` when empty).
    pub(crate) min: f64,
    /// Largest observation (`NaN` when empty).
    pub(crate) max: f64,
    /// Median estimate.
    pub(crate) p50: f64,
    /// 95th-percentile estimate.
    pub(crate) p95: f64,
    /// 99th-percentile estimate.
    pub(crate) p99: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogLinearHistogram>,
}

/// A thread-safe registry of named metrics. Names are free-form dotted
/// paths (`ring.hops`); the Prometheus exporter sanitizes them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter, creating it at zero.
    pub fn inc(&self, name: &str, by: u64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        *inner.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets a gauge to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.gauges.insert(name.to_string(), v);
    }

    /// Records an observation into a histogram, creating it on first
    /// use.
    pub fn observe(&self, name: &str, v: f64) {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Renders every metric as a single JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("metrics lock");
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in inner.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_str(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in inner.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_str(&mut out, name);
            out.push_str(": ");
            fmt_f64(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in inner.histograms.iter().enumerate() {
            let s = h.snapshot();
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_str(&mut out, name);
            let _ = write!(out, ": {{\"count\": {}, \"sum\": ", s.count);
            fmt_f64(&mut out, s.sum);
            for (label, v) in [
                ("min", s.min),
                ("max", s.max),
                ("p50", s.p50),
                ("p95", s.p95),
                ("p99", s.p99),
            ] {
                let _ = write!(out, ", \"{label}\": ");
                fmt_f64(&mut out, v);
            }
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders every metric in Prometheus text exposition format.
    /// Histograms are exported as summaries with `quantile` labels plus
    /// derived `_min`/`_max` gauge series (each with its own
    /// `# TYPE`/`# HELP` metadata). Label values go through
    /// `escape_label_value`, so a `\`, `"`, or newline cannot corrupt
    /// the exposition. Non-finite sample values render as Prometheus'
    /// `+Inf`/`-Inf`/`NaN` (Rust's `Display` would write `inf`, which
    /// scrapers reject). The output always satisfies
    /// [`validate_exposition`], which the test suite round-trips.
    pub fn to_prometheus(&self) -> String {
        let inner = self.inner.lock().expect("metrics lock");
        let mut out = String::new();
        for (name, v) in &inner.counters {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} counter");
            let _ = writeln!(out, "{prom} {v}");
        }
        for (name, v) in &inner.gauges {
            let prom = prom_name(name);
            let _ = writeln!(out, "# TYPE {prom} gauge");
            let _ = writeln!(out, "{prom} {}", fmt_prom_value(*v));
        }
        for (name, h) in &inner.histograms {
            let prom = prom_name(name);
            let s = h.snapshot();
            let _ = writeln!(out, "# TYPE {prom} summary");
            for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                let _ = write!(out, "{prom}{{quantile=\"");
                escape_label_value(&mut out, q);
                let _ = writeln!(out, "\"}} {}", fmt_prom_value(v));
            }
            let _ = writeln!(out, "{prom}_sum {}", fmt_prom_value(s.sum));
            let _ = writeln!(out, "{prom}_count {}", s.count);
            // The extreme-value gauges are separate metric families
            // (`_min`/`_max` are not summary series), so each carries
            // its own TYPE/HELP metadata.
            for (suffix, what, v) in [("min", "Smallest", s.min), ("max", "Largest", s.max)] {
                let _ = writeln!(
                    out,
                    "# HELP {prom}_{suffix} {what} value observed by the {prom} summary."
                );
                let _ = writeln!(out, "# TYPE {prom}_{suffix} gauge");
                let _ = writeln!(out, "{prom}_{suffix} {}", fmt_prom_value(v));
            }
        }
        out
    }
}

/// Formats a sample value per the Prometheus text exposition format:
/// non-finite values are spelled `+Inf` / `-Inf` / `NaN` (Rust's
/// `Display` writes `inf`, which the format does not accept); finite
/// values use the shortest round-trip form.
pub(crate) fn fmt_prom_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Strictly validates Prometheus text exposition format, line by line:
/// `# HELP`/`# TYPE` grammar (known types, no duplicates, declared
/// before any sample of the family), metric and label name charsets,
/// well-formed label escaping, and values that are either `+Inf` /
/// `-Inf` / `NaN` or plain finite numbers (`inf`, `Infinity`, hex and
/// friends are rejected even though Rust's `f64::from_str` accepts
/// them). Samples whose family has no `# TYPE` are rejected — with the
/// usual `_sum`/`_count`/`_bucket` suffixes resolving to their summary
/// or histogram parent.
///
/// # Errors
///
/// A `line N: <problem>` description of the first violation.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut helped: BTreeSet<&str> = BTreeSet::new();
    let mut sampled: BTreeSet<&str> = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let ln = i + 1;
        let fail = |msg: String| Err(format!("line {ln}: {msg}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let Some((name, help)) = rest.split_once(' ') else {
                return fail("HELP without docstring".into());
            };
            check_metric_name(name).map_err(|e| format!("line {ln}: {e}"))?;
            if !helped.insert(name) {
                return fail(format!("duplicate HELP for `{name}`"));
            }
            check_escapes(help, false).map_err(|e| format!("line {ln}: {e}"))?;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, kind)) = rest.split_once(' ') else {
                return fail("TYPE without a type".into());
            };
            check_metric_name(name).map_err(|e| format!("line {ln}: {e}"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return fail(format!("unknown type `{kind}`"));
            }
            if types.insert(name, kind).is_some() {
                return fail(format!("duplicate TYPE for `{name}`"));
            }
            if sampled.contains(name) {
                return fail(format!("TYPE for `{name}` after its samples"));
            }
        } else if line.starts_with('#') {
            return fail(format!("unrecognized comment `{line}`"));
        } else {
            let (name, value) = parse_sample(line).map_err(|e| format!("line {ln}: {e}"))?;
            let family = resolve_family(name, &types);
            match family {
                Some(f) => {
                    sampled.insert(f);
                    // The series name itself also counts as sampled, so
                    // a later TYPE for e.g. `x_sum` is caught.
                    sampled.insert(name);
                }
                None => return fail(format!("sample `{name}` has no TYPE metadata")),
            }
            check_prom_value(value).map_err(|e| format!("line {ln}: {e}"))?;
        }
    }
    Ok(())
}

/// The declared family a sample series belongs to, honoring the
/// summary/histogram child-series suffixes.
fn resolve_family<'a>(name: &'a str, types: &BTreeMap<&'a str, &str>) -> Option<&'a str> {
    if let Some((n, _)) = types.get_key_value(name) {
        return Some(n);
    }
    for (suffix, kinds) in [
        ("_sum", &["summary", "histogram"][..]),
        ("_count", &["summary", "histogram"][..]),
        ("_bucket", &["histogram"][..]),
    ] {
        if let Some(base) = name.strip_suffix(suffix) {
            if let Some((n, k)) = types.get_key_value(base) {
                if kinds.contains(k) {
                    return Some(n);
                }
            }
        }
    }
    None
}

/// Splits a sample line into `(series_name, value_text)` after
/// validating the metric name, label names, and label-value escaping.
fn parse_sample(line: &str) -> Result<(&str, &str), String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| format!("malformed sample `{line}`"))?;
    let name = &line[..name_end];
    check_metric_name(name)?;
    let rest = &line[name_end..];
    let value = if let Some(labels) = rest.strip_prefix('{') {
        let close = find_label_close(labels)
            .ok_or_else(|| format!("unterminated label set in `{line}`"))?;
        check_labels(&labels[..close])?;
        labels[close + 1..]
            .strip_prefix(' ')
            .ok_or_else(|| format!("missing value after labels in `{line}`"))?
    } else {
        rest.strip_prefix(' ')
            .ok_or_else(|| format!("missing value in `{line}`"))?
    };
    // An optional timestamp may follow the value; we emit none, and a
    // strict validator flags anything after it.
    let mut parts = value.split(' ');
    let v = parts.next().unwrap_or_default();
    if let Some(ts) = parts.next() {
        ts.parse::<i64>()
            .map_err(|_| format!("bad timestamp `{ts}`"))?;
    }
    if parts.next().is_some() {
        return Err(format!("trailing data after value in `{line}`"));
    }
    Ok((name, v))
}

/// Byte offset of the unescaped closing `}` of a label set.
fn find_label_close(labels: &str) -> Option<usize> {
    let bytes = labels.as_bytes();
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_quotes => i += 1, // skip escaped char
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Validates `name="value",...` label pairs.
fn check_labels(labels: &str) -> Result<(), String> {
    let mut rest = labels;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{labels}`"))?;
        let lname = &rest[..eq];
        check_label_name(lname)?;
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted value for label `{lname}`"))?;
        let mut end = None;
        let bytes = after.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 1,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        let end = end.ok_or_else(|| format!("unterminated value for label `{lname}`"))?;
        check_escapes(&after[..end], true)?;
        rest = &after[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("expected `,` between labels in `{labels}`"));
        }
    }
    Ok(())
}

/// Validates the escape discipline of a HELP docstring or (with
/// `quotes_must_escape`) a label value.
fn check_escapes(text: &str, quotes_must_escape: bool) -> Result<(), String> {
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\' | 'n') => {}
                Some('"') if quotes_must_escape => {}
                other => return Err(format!("bad escape `\\{:?}`", other)),
            },
            '"' if quotes_must_escape => return Err("unescaped quote in label value".into()),
            _ => {}
        }
    }
    Ok(())
}

fn check_metric_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(format!("invalid metric name `{name}`"));
    }
    Ok(())
}

fn check_label_name(name: &str) -> Result<(), String> {
    let mut chars = name.chars();
    let ok_first = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    if !ok_first || !chars.all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(format!("invalid label name `{name}`"));
    }
    Ok(())
}

/// Validates a sample value: `+Inf` / `-Inf` / `NaN` or a plain finite
/// number. Rust's permissive spellings (`inf`, `Infinity`, `nan`) are
/// rejected — Prometheus scrapers do not accept them.
fn check_prom_value(v: &str) -> Result<(), String> {
    if matches!(v, "+Inf" | "-Inf" | "NaN") {
        return Ok(());
    }
    if !v
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
    {
        return Err(format!("bad sample value `{v}`"));
    }
    match v.parse::<f64>() {
        Ok(f) if f.is_finite() => Ok(()),
        _ => Err(format!("bad sample value `{v}`")),
    }
}

/// Escapes a Prometheus label value: backslash, double quote, and line
/// feed become `\\`, `\"`, and `\n` per the text exposition format.
pub(crate) fn escape_label_value(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

/// Sanitizes a dotted metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixing `lb_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("lb_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn histogram_quantiles_have_bounded_relative_error() {
        let mut h = LogLinearHistogram::default();
        for i in 1..=1000 {
            h.observe(f64::from(i));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        for (q, exact) in [(s.p50, 500.0), (s.p95, 950.0), (s.p99, 990.0)] {
            let rel = (q - exact).abs() / exact;
            assert!(rel <= 0.125 + 1e-9, "estimate {q} vs exact {exact}");
            assert!(
                q >= exact * 0.999,
                "quantile must not underestimate: {q} < {exact}"
            );
        }
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let mut h = LogLinearHistogram::default();
        assert!(h.quantile(0.5).is_none());
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(5.0);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, -3.0);
        assert_eq!(s.max, 5.0);
        assert!(s.p50 >= -3.0 && s.p50 <= 5.0);
    }

    #[test]
    fn registry_tracks_all_three_kinds() {
        let reg = MetricsRegistry::new();
        reg.inc("ring.hops", 3);
        reg.inc("ring.hops", 2);
        reg.set_gauge("calendar.depth", 17.0);
        for v in [1.0, 2.0, 4.0] {
            reg.observe("sweep.norm", v);
        }
        let inner = reg.inner.lock().unwrap();
        assert_eq!(inner.counters["ring.hops"], 5);
        assert_eq!(inner.gauges["calendar.depth"], 17.0);
        let h = inner.histograms["sweep.norm"].snapshot();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 7.0);
    }

    #[test]
    fn json_export_is_parseable_and_complete() {
        let reg = MetricsRegistry::new();
        reg.inc("a.count", 1);
        reg.set_gauge("b.level", 2.5);
        reg.observe("c.time", 10.0);
        let text = reg.to_json();
        let v = json::parse(&text).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a.count").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("b.level").unwrap().as_f64(),
            Some(2.5)
        );
        let hist = v.get("histograms").unwrap().get("c.time").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert!(hist.get("p95").unwrap().as_f64().is_some());
    }

    #[test]
    fn histogram_empty_quantiles_are_nan() {
        let h = LogLinearHistogram::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(s.min.is_nan() && s.max.is_nan());
        assert!(s.p50.is_nan(), "p50 of empty histogram: {}", s.p50);
        assert!(s.p95.is_nan(), "p95 of empty histogram: {}", s.p95);
        assert!(s.p99.is_nan(), "p99 of empty histogram: {}", s.p99);
    }

    #[test]
    fn histogram_single_sample_quantiles_are_the_sample() {
        for v in [1e-6, 0.5, 1.0, 7.3, 1e9] {
            let mut h = LogLinearHistogram::default();
            h.observe(v);
            let s = h.snapshot();
            assert_eq!(s.count, 1);
            assert_eq!(s.sum, v);
            for (label, q) in [("p50", s.p50), ("p95", s.p95), ("p99", s.p99)] {
                assert_eq!(q, v, "{label} of single sample {v}");
            }
        }
    }

    #[test]
    fn histogram_identical_samples_collapse_to_the_value() {
        // All-identical values occupy one bucket; min/max clamping must
        // make every quantile exact, not the bucket's upper bound.
        let mut h = LogLinearHistogram::default();
        for _ in 0..1000 {
            h.observe(42.5);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 42.5);
        assert_eq!(s.max, 42.5);
        for (label, q) in [("p50", s.p50), ("p95", s.p95), ("p99", s.p99)] {
            assert_eq!(q, 42.5, "{label} of identical samples");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        escape_label_value(&mut out, "a\\b\"c\nd");
        assert_eq!(out, "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn prometheus_export_uses_sanitized_names_and_summaries() {
        let reg = MetricsRegistry::new();
        reg.inc("ring.hops", 7);
        reg.set_gauge("calendar.depth", 3.0);
        reg.observe("sweep.norm", 2.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lb_ring_hops counter"));
        assert!(text.contains("lb_ring_hops 7"));
        assert!(text.contains("# TYPE lb_calendar_depth gauge"));
        assert!(text.contains("# TYPE lb_sweep_norm summary"));
        assert!(text.contains("lb_sweep_norm{quantile=\"0.95\"}"));
        assert!(text.contains("lb_sweep_norm_count 1"));
    }

    #[test]
    fn histogram_extreme_gauges_carry_type_and_help_metadata() {
        let reg = MetricsRegistry::new();
        reg.observe("sweep.norm", 2.0);
        reg.observe("sweep.norm", 8.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lb_sweep_norm_min gauge"), "{text}");
        assert!(text.contains("# HELP lb_sweep_norm_min "), "{text}");
        assert!(text.contains("# TYPE lb_sweep_norm_max gauge"));
        assert!(text.contains("# HELP lb_sweep_norm_max "));
        assert!(text.contains("lb_sweep_norm_min 2"));
        assert!(text.contains("lb_sweep_norm_max 8"));
    }

    #[test]
    fn non_finite_values_render_in_prometheus_spelling() {
        assert_eq!(fmt_prom_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_prom_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_prom_value(f64::NAN), "NaN");
        assert_eq!(fmt_prom_value(2.5), "2.5");

        let reg = MetricsRegistry::new();
        reg.set_gauge("weird.gauge", f64::INFINITY);
        reg.observe("weird.hist", f64::NAN);
        let text = reg.to_prometheus();
        assert!(text.contains("lb_weird_gauge +Inf"), "{text}");
        assert!(!text.contains(" inf"), "Rust float spelling leaked: {text}");
        validate_exposition(&text).expect("non-finite exposition must validate");
    }

    #[test]
    fn full_exposition_round_trips_through_the_validator() {
        let reg = MetricsRegistry::new();
        reg.inc("ring.hops", 7);
        reg.set_gauge("calendar.depth", 3.25);
        reg.observe("sweep.norm", 2.0);
        reg.observe("sweep.norm", 1e-3);
        validate_exposition(&reg.to_prometheus()).expect("exporter output must validate");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        let cases = [
            ("x 1\n", "no TYPE metadata"),
            ("# TYPE x widget\nx 1\n", "unknown type"),
            ("# TYPE x gauge\n# TYPE x gauge\nx 1\n", "duplicate TYPE"),
            ("# TYPE x gauge\nx 1\n# TYPE y gauge\n# HELP x late\n", ""),
            (
                "# TYPE x summary\nx_sum 1\n# TYPE x_sum gauge\n",
                "after its samples",
            ),
            ("# TYPE x gauge\nx inf\n", "bad sample value"),
            ("# TYPE x gauge\nx nan\n", "bad sample value"),
            ("# TYPE 9bad gauge\n", "invalid metric name"),
            ("# TYPE x gauge\nx{9l=\"v\"} 1\n", "invalid label name"),
            ("# TYPE x gauge\nx{l=\"a\\qb\"} 1\n", "bad escape"),
            ("# TYPE x gauge\nx{l=\"open} 1\n", "unterminated"),
            ("# TYPE x gauge\nx{l=\"v\"}1\n", "missing value"),
            ("# TYPE x gauge\nx 1 2 3\n", "trailing data"),
            ("# random comment\n", "unrecognized comment"),
            ("# TYPE x summary\nx_bucket 1\n", "no TYPE metadata"),
        ];
        for (text, want) in cases {
            if want.is_empty() {
                continue; // structurally fine, listed for contrast
            }
            let err = validate_exposition(text).expect_err(text);
            assert!(err.contains(want), "{text:?}: got {err:?}, want {want:?}");
        }
        // Suffix series resolve to their declared parent.
        validate_exposition("# TYPE x summary\nx_sum 3.5\nx_count 2\n").unwrap();
        validate_exposition("# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\n").unwrap();
        validate_exposition("# TYPE x gauge\nx +Inf\nx NaN\n").unwrap();
    }
}
