//! The versioned JSONL event-log schema.
//!
//! A log is UTF-8 text, one JSON object per line:
//!
//! ```text
//! {"schema":"lb-telemetry","version":1}
//! {"seq":0,"t_us":0,"event":"solver.start","fields":{"users":40,"computers":32}}
//! {"seq":1,"t_us":13,"event":"solver.sweep","fields":{"iter":1,"norm":1.25}}
//! ```
//!
//! The first line is the header; every following line is an event with
//! a strictly increasing `seq`, a non-decreasing microsecond timestamp
//! `t_us`, a non-empty `event` name, and a flat `fields` object whose
//! values are numbers, booleans, or strings (non-finite floats are
//! encoded as the strings `"NaN"`/`"inf"`/`"-inf"`).
//!
//! Version 2 adds causal spans (see [`crate::Span`]): `span_open`
//! events carry an integer `span` id, a string `name`, and an optional
//! integer `parent`; `span_close` events carry the `span` id of an
//! open span. The parser validates span causality — ids are unique,
//! parents were opened earlier in the log, and closes reference spans
//! that are actually open. Spans left open at end-of-log are legal
//! (a truncated run); analysis tools decide how to treat them.
//!
//! Version 3 adds the live-observability event families:
//!
//! - **Cross-node trace hops** — `xspan.send`/`xspan.recv` events carry
//!   non-zero integer `trace` and `span` ids (the `TraceContext`
//!   propagated inside `VirtualNet` messages; see
//!   `lb_distributed::messages::TraceContext` for the id derivation).
//!   Unlike in-process `span_open` ids, an xspan id may legally recur —
//!   a duplicated network message delivers the *same* span twice by
//!   design — so the validator checks field shape, not uniqueness.
//! - **SLO alerts** — `alert.fire`/`alert.clear` events carry a
//!   non-empty string `slo` naming the objective.
//!
//! Version 4 adds the sampling and accounting families:
//!
//! - **Sampling digests** — `sample.digest` events aggregate the
//!   events a [`crate::sample::SamplingCollector`] dropped since the
//!   last digest: a non-empty string `event` naming the dropped type,
//!   an integer `count ≥ 1`, and the dropped events' numeric fields
//!   summed under their original keys, so downstream analysis can
//!   reweight sampled traces back to exact totals.
//! - **Resource accounting** — `account.*` events snapshot
//!   per-subsystem counters (RNG draws, network messages/bytes,
//!   solver best-replies, DES events) at span close; every field is an
//!   integer counter.
//!
//! Any change to this shape bumps [`SCHEMA_VERSION`]; the golden test
//! in `tests/golden.rs` pins the byte-level format of the current
//! version and keeps the previous versions' golden files as
//! backward-compat fixtures. Version-1 (no span events), version-2
//! (no alert/xspan events), and version-3 (no sample/account events)
//! logs still parse.
//!
//! Logs can be multi-GB at web scale, so validation is streaming:
//! [`LogReader`] wraps any [`std::io::BufRead`] and yields validated
//! [`LogEvent`]s one line at a time without ever holding the file in
//! memory; [`parse_log`] is the convenience wrapper that collects a
//! full in-memory [`EventLog`] from the same reader.

use crate::event::{Field, FieldValue};
use crate::json::{self, Json};
use std::fmt::Write as _;
use std::io::BufRead;

/// Schema identifier carried in the header line.
pub const SCHEMA_NAME: &str = "lb-telemetry";

/// Current schema version; bumped on any incompatible format change.
pub const SCHEMA_VERSION: u32 = 4;

/// Oldest schema version the parser still accepts.
pub(crate) const MIN_SCHEMA_VERSION: u32 = 1;

/// Renders the header line (without trailing newline).
pub fn header_line() -> String {
    format!("{{\"schema\":\"{SCHEMA_NAME}\",\"version\":{SCHEMA_VERSION}}}")
}

/// Renders one event line (without trailing newline).
pub fn encode_event_line(seq: u64, t_us: u64, name: &str, fields: &[Field]) -> String {
    let mut out = String::with_capacity(64 + 24 * fields.len());
    let _ = write!(out, "{{\"seq\":{seq},\"t_us\":{t_us},\"event\":");
    json::escape_str(&mut out, name);
    out.push_str(",\"fields\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_str(&mut out, key);
        out.push(':');
        encode_field_value(&mut out, value);
    }
    out.push_str("}}");
    out
}

fn encode_field_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::I64(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::F64(v) => json::fmt_f64(out, *v),
        FieldValue::Bool(v) => {
            let _ = write!(out, "{v}");
        }
        FieldValue::Str(s) => json::escape_str(out, s),
    }
}

/// One parsed event from a log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Sequence number (strictly increasing within a log).
    pub seq: u64,
    /// Microseconds since the collector was created (non-decreasing).
    pub t_us: u64,
    /// Event name, e.g. `solver.sweep`.
    pub name: String,
    /// Fields in emission order.
    pub fields: Vec<(String, Json)>,
}

impl LogEvent {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A fully parsed and validated event log.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// Schema version from the header.
    pub version: u32,
    /// Events in log order.
    pub events: Vec<LogEvent>,
}

impl EventLog {
    /// Number of events with the given name.
    pub fn count(&self, name: &str) -> usize {
        self.events.iter().filter(|e| e.name == name).count()
    }
}

/// Parses and validates a complete JSONL event log: header first, then
/// events with strictly increasing `seq`, non-decreasing `t_us`, and
/// flat scalar field values. Convenience wrapper over [`LogReader`]
/// for logs that fit in memory; streaming consumers should iterate a
/// [`LogReader`] directly.
///
/// # Errors
///
/// A human-readable message naming the offending line (1-based).
pub fn parse_log(text: &str) -> Result<EventLog, String> {
    let reader = LogReader::new(text.as_bytes())?;
    let version = reader.version();
    let events = reader.collect::<Result<Vec<_>, _>>()?;
    Ok(EventLog { version, events })
}

/// Parses and validates the header line, returning the version.
fn parse_header(line: &str, lineno: usize) -> Result<u32, String> {
    let header = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_NAME) => {}
        other => {
            return Err(format!(
                "line {lineno}: header schema is {other:?}, expected {SCHEMA_NAME:?}"
            ))
        }
    }
    let version = header
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("line {lineno}: header missing integer version"))?;
    if version < u64::from(MIN_SCHEMA_VERSION) || version > u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "line {lineno}: schema version {version} unsupported \
             (expected {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
        ));
    }
    #[allow(clippy::cast_possible_truncation)]
    Ok(version as u32)
}

/// The per-line validation state shared by [`parse_log`] and
/// [`LogReader`]: seq monotonicity, the t_us clock, span causality,
/// and the versioned family checks.
#[derive(Default)]
struct LineValidator {
    next_seq: u64,
    last_t_us: u64,
    spans: SpanValidator,
}

impl LineValidator {
    /// Validates one event line and decodes it.
    fn check_line(&mut self, line: &str, lineno: usize) -> Result<LogEvent, String> {
        let value = json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let seq = value
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integer seq"))?;
        if seq != self.next_seq {
            return Err(format!(
                "line {lineno}: seq {seq} out of order (expected {})",
                self.next_seq
            ));
        }
        self.next_seq = seq + 1;
        let t_us = value
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {lineno}: missing integer t_us"))?;
        if t_us < self.last_t_us {
            return Err(format!(
                "line {lineno}: t_us {t_us} went backwards (previous {})",
                self.last_t_us
            ));
        }
        self.last_t_us = t_us;
        let name = value
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string event"))?;
        if name.is_empty() {
            return Err(format!("line {lineno}: empty event name"));
        }
        let fields = value
            .get("fields")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {lineno}: missing fields object"))?;
        for (key, v) in fields {
            match v {
                Json::Int(_) | Json::UInt(_) | Json::Float(_) | Json::Bool(_) | Json::Str(_) => {}
                other => {
                    return Err(format!(
                        "line {lineno}: field {key:?} has non-scalar value {other:?}"
                    ))
                }
            }
        }
        let event = LogEvent {
            seq,
            t_us,
            name: name.to_string(),
            fields: fields.to_vec(),
        };
        self.spans
            .check(&event)
            .map_err(|e| format!("line {lineno}: {e}"))?;
        check_v3_families(&event).map_err(|e| format!("line {lineno}: {e}"))?;
        check_v4_families(&event).map_err(|e| format!("line {lineno}: {e}"))?;
        Ok(event)
    }
}

/// A streaming, validating reader over a JSONL event log.
///
/// Reads one line at a time from any [`BufRead`] source, applying the
/// exact validation [`parse_log`] applies — header shape, seq/t_us
/// monotonicity, span causality, versioned family checks — without
/// ever holding more than the current line in memory, so multi-GB
/// traces can be scanned in constant space. Construction reads and
/// validates the header; iteration yields each validated event (or
/// the first error, after which the iterator fuses).
pub struct LogReader<R> {
    input: R,
    buf: String,
    lineno: usize,
    version: u32,
    state: LineValidator,
    done: bool,
}

impl LogReader<std::io::BufReader<std::fs::File>> {
    /// Opens a log file for streaming validation.
    ///
    /// # Errors
    ///
    /// The open/read error, or an invalid header.
    pub fn open(path: &std::path::Path) -> Result<Self, String> {
        let file =
            std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        Self::new(std::io::BufReader::new(file))
    }
}

impl<R: BufRead> LogReader<R> {
    /// Wraps a buffered reader, consuming and validating the header
    /// line.
    ///
    /// # Errors
    ///
    /// A read error, a missing header, or an invalid header.
    pub fn new(mut input: R) -> Result<Self, String> {
        let mut buf = String::new();
        let mut lineno = 0usize;
        loop {
            buf.clear();
            let n = input
                .read_line(&mut buf)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if n == 0 {
                return Err("empty log: missing header line".into());
            }
            lineno += 1;
            if !buf.trim().is_empty() {
                break;
            }
        }
        let version = parse_header(buf.trim_end_matches(['\n', '\r']), lineno)?;
        Ok(Self {
            input,
            buf: String::new(),
            lineno,
            version,
            state: LineValidator::default(),
            done: false,
        })
    }

    /// Schema version from the header.
    pub fn version(&self) -> u32 {
        self.version
    }
}

impl<R: BufRead> Iterator for LogReader<R> {
    type Item = Result<LogEvent, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            match self.input.read_line(&mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(format!("line {}: {e}", self.lineno + 1)));
                }
            }
            self.lineno += 1;
            if self.buf.trim().is_empty() {
                continue;
            }
            let result = self
                .state
                .check_line(self.buf.trim_end_matches(['\n', '\r']), self.lineno);
            if result.is_err() {
                self.done = true;
            }
            return Some(result);
        }
    }
}

/// Streaming validator for the span causality rules of schema v2.
#[derive(Default)]
struct SpanValidator {
    /// Every span id ever opened (ids are never reused within a log).
    opened: std::collections::BTreeSet<u64>,
    /// Span ids opened but not yet closed.
    open: std::collections::BTreeSet<u64>,
}

impl SpanValidator {
    fn check(&mut self, event: &LogEvent) -> Result<(), String> {
        match event.name.as_str() {
            crate::span::SPAN_OPEN => {
                let id = event
                    .field("span")
                    .and_then(Json::as_u64)
                    .ok_or("span_open missing integer span id")?;
                if id == 0 {
                    return Err("span id 0 is reserved".into());
                }
                match event.field("name").and_then(Json::as_str) {
                    Some(n) if !n.is_empty() => {}
                    _ => return Err(format!("span_open {id} missing non-empty name")),
                }
                if !self.opened.insert(id) {
                    return Err(format!("span id {id} opened twice"));
                }
                if let Some(parent) = event.field("parent") {
                    let parent = parent
                        .as_u64()
                        .ok_or(format!("span_open {id} has non-integer parent"))?;
                    if !self.opened.contains(&parent) {
                        return Err(format!(
                            "span_open {id} references parent {parent} never opened"
                        ));
                    }
                }
                self.open.insert(id);
                Ok(())
            }
            crate::span::SPAN_CLOSE => {
                let id = event
                    .field("span")
                    .and_then(Json::as_u64)
                    .ok_or("span_close missing integer span id")?;
                if !self.open.remove(&id) {
                    return Err(format!("span_close for span {id} that is not open"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Field-shape validation for the v3 event families (`alert.*` and
/// `xspan.*`). Applied unconditionally: v1/v2 logs never contained
/// these names, so old logs are unaffected.
fn check_v3_families(event: &LogEvent) -> Result<(), String> {
    match event.name.as_str() {
        "alert.fire" | "alert.clear" => match event.field("slo").and_then(Json::as_str) {
            Some(s) if !s.is_empty() => Ok(()),
            Some(_) => Err(format!("{} has empty slo name", event.name)),
            None => Err(format!("{} missing string slo field", event.name)),
        },
        "xspan.send" | "xspan.recv" => {
            for key in ["trace", "span"] {
                match event.field(key).and_then(Json::as_u64) {
                    Some(0) => return Err(format!("{} has zero {key} id", event.name)),
                    Some(_) => {}
                    None => return Err(format!("{} missing integer {key} id", event.name)),
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Field-shape validation for the v4 event families (`sample.*` and
/// `account.*`). Applied unconditionally: older logs never contained
/// these names, so old logs are unaffected.
fn check_v4_families(event: &LogEvent) -> Result<(), String> {
    if event.name == "sample.digest" {
        match event.field("event").and_then(Json::as_str) {
            Some(s) if !s.is_empty() => {}
            Some(_) => return Err("sample.digest has empty event name".into()),
            None => return Err("sample.digest missing string event field".into()),
        }
        match event.field("count").and_then(Json::as_u64) {
            Some(n) if n >= 1 => {}
            Some(_) => return Err("sample.digest has zero count".into()),
            None => return Err("sample.digest missing integer count".into()),
        }
    } else if event.name.starts_with("account.") {
        // Accounting snapshots are pure counter dumps: every field is
        // an integer, so cross-run diffs can compare them exactly.
        for (key, v) in &event.fields {
            match v {
                Json::Int(_) | Json::UInt(_) => {}
                other => {
                    return Err(format!(
                        "{} field {key:?} must be an integer counter, got {other:?}",
                        event.name
                    ))
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_parse_yields_same_events() {
        let text = format!(
            "{}\n{}\n{}\n",
            header_line(),
            encode_event_line(
                0,
                0,
                "solver.start",
                &[("users", 40u64.into()), ("scheme", "NASH_P".into())]
            ),
            encode_event_line(
                1,
                7,
                "solver.sweep",
                &[
                    ("iter", 1u64.into()),
                    ("norm", 0.25.into()),
                    ("converged", false.into()),
                ]
            ),
        );
        let log = parse_log(&text).unwrap();
        assert_eq!(log.version, SCHEMA_VERSION);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].name, "solver.start");
        assert_eq!(
            log.events[0].field("scheme").unwrap().as_str(),
            Some("NASH_P")
        );
        assert_eq!(log.events[1].field("norm").unwrap().as_f64(), Some(0.25));
        assert_eq!(log.count("solver.sweep"), 1);
    }

    #[test]
    fn parse_log_rejects_bad_logs() {
        let header = header_line();
        let ok = encode_event_line(0, 0, "e", &[]);
        let cases = [
            ("".to_string(), "missing header"),
            ("{\"schema\":\"other\",\"version\":1}".to_string(), "schema"),
            (
                format!("{{\"schema\":\"{SCHEMA_NAME}\",\"version\":99}}"),
                "version",
            ),
            (
                format!("{header}\n{}", encode_event_line(5, 0, "e", &[])),
                "seq",
            ),
            (
                format!(
                    "{header}\n{}\n{}",
                    encode_event_line(0, 10, "e", &[]),
                    encode_event_line(1, 3, "e", &[])
                ),
                "t_us",
            ),
            (format!("{header}\n{{\"seq\":0,\"t_us\":0}}"), "event"),
            (
                format!(
                    "{header}\n{{\"seq\":0,\"t_us\":0,\"event\":\"e\",\"fields\":{{\"x\":[1]}}}}"
                ),
                "non-scalar",
            ),
            (format!("{header}\n{}", "[".repeat(1_000_000)), "nesting"),
            (ok, "header"),
        ];
        for (text, why) in cases {
            assert!(parse_log(&text).is_err(), "accepted bad log ({why})");
        }
    }

    #[test]
    fn version_1_logs_still_parse() {
        let text = format!(
            "{{\"schema\":\"{SCHEMA_NAME}\",\"version\":1}}\n{}",
            encode_event_line(0, 0, "e", &[])
        );
        let log = parse_log(&text).unwrap();
        assert_eq!(log.version, 1);
        assert_eq!(log.events.len(), 1);
    }

    #[test]
    fn version_2_logs_still_parse() {
        // A v2 log with spans but none of the v3 families.
        let text = format!(
            "{{\"schema\":\"{SCHEMA_NAME}\",\"version\":2}}\n{}\n{}\n",
            encode_event_line(
                0,
                0,
                "span_open",
                &[("span", 1u64.into()), ("name", "solve".into())]
            ),
            encode_event_line(1, 5, "span_close", &[("span", 1u64.into())]),
        );
        let log = parse_log(&text).unwrap();
        assert_eq!(log.version, 2);
        assert_eq!(log.events.len(), 2);
    }

    #[test]
    fn v3_alert_and_xspan_fields_are_validated() {
        let wrap = |line: String| format!("{}\n{line}\n", header_line());

        // Well-formed v3 events parse.
        let good = format!(
            "{}\n{}\n{}\n{}\n",
            header_line(),
            encode_event_line(
                0,
                0,
                "xspan.send",
                &[("trace", 7u64.into()), ("span", 9u64.into())]
            ),
            encode_event_line(
                1,
                3,
                "xspan.recv",
                &[("trace", 7u64.into()), ("span", 9u64.into())]
            ),
            encode_event_line(2, 4, "alert.fire", &[("slo", "goodput".into())]),
        );
        assert!(parse_log(&good).is_ok());

        // Duplicate delivery of the same xspan id is legal (net.dup).
        let dup = format!(
            "{}\n{}\n{}\n",
            header_line(),
            encode_event_line(
                0,
                0,
                "xspan.recv",
                &[("trace", 7u64.into()), ("span", 9u64.into())]
            ),
            encode_event_line(
                1,
                1,
                "xspan.recv",
                &[("trace", 7u64.into()), ("span", 9u64.into())]
            ),
        );
        assert!(parse_log(&dup).is_ok());

        let bad: Vec<(String, &str)> = vec![
            (
                encode_event_line(0, 0, "alert.fire", &[("value", 1.0.into())]),
                "fire without slo",
            ),
            (
                encode_event_line(0, 0, "alert.clear", &[("slo", "".into())]),
                "clear with empty slo",
            ),
            (
                encode_event_line(0, 0, "xspan.send", &[("trace", 7u64.into())]),
                "send without span",
            ),
            (
                encode_event_line(
                    0,
                    0,
                    "xspan.recv",
                    &[("trace", 0u64.into()), ("span", 1u64.into())],
                ),
                "zero trace id",
            ),
        ];
        for (line, why) in bad {
            assert!(parse_log(&wrap(line)).is_err(), "accepted bad log ({why})");
        }
    }

    #[test]
    fn span_causality_is_validated() {
        let open = |seq, t, fields: &[Field]| encode_event_line(seq, t, "span_open", fields);
        let close = |seq, t, fields: &[Field]| encode_event_line(seq, t, "span_close", fields);
        let span = |id: u64| ("span", FieldValue::U64(id));
        let name = |n: &'static str| ("name", FieldValue::from(n));
        let parent = |id: u64| ("parent", FieldValue::U64(id));

        // A well-formed nested pair parses.
        let good = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            header_line(),
            open(0, 0, &[span(1), name("outer")]),
            open(1, 1, &[span(2), parent(1), name("inner")]),
            close(2, 2, &[span(2)]),
            close(3, 3, &[span(1)]),
        );
        assert!(parse_log(&good).is_ok());

        // A span left open at end-of-log is legal (truncated run).
        let truncated = format!("{}\n{}\n", header_line(), open(0, 0, &[span(1), name("x")]));
        assert!(parse_log(&truncated).is_ok());

        let bad_cases: Vec<(String, &str)> = vec![
            (open(0, 0, &[name("x")]), "open without id"),
            (open(0, 0, &[span(0), name("x")]), "id zero"),
            (open(0, 0, &[span(1)]), "open without name"),
            (
                format!(
                    "{}\n{}",
                    open(0, 0, &[span(1), name("a")]),
                    open(1, 1, &[span(1), name("b")])
                ),
                "duplicate id",
            ),
            (
                open(0, 0, &[span(2), parent(1), name("x")]),
                "unknown parent",
            ),
            (close(0, 0, &[span(9)]), "close of never-opened span"),
            (
                format!(
                    "{}\n{}\n{}",
                    open(0, 0, &[span(1), name("a")]),
                    close(1, 1, &[span(1)]),
                    close(2, 2, &[span(1)])
                ),
                "double close",
            ),
        ];
        for (body, why) in bad_cases {
            let text = format!("{}\n{body}\n", header_line());
            assert!(parse_log(&text).is_err(), "accepted bad span log ({why})");
        }
    }

    #[test]
    fn v4_sample_and_account_fields_are_validated() {
        let wrap = |line: String| format!("{}\n{line}\n", header_line());

        // Well-formed v4 events parse: a digest with summed numeric
        // fields and an integer-only accounting snapshot.
        let good = format!(
            "{}\n{}\n{}\n",
            header_line(),
            encode_event_line(
                0,
                0,
                "sample.digest",
                &[
                    ("event", "net.drop".into()),
                    ("count", 17u64.into()),
                    ("t_us", 123_456u64.into()),
                ]
            ),
            encode_event_line(
                1,
                5,
                "account.solver",
                &[
                    ("best_replies", 120u64.into()),
                    ("water_fills", 360u64.into()),
                ]
            ),
        );
        assert!(parse_log(&good).is_ok());

        let bad: Vec<(String, &str)> = vec![
            (
                encode_event_line(0, 0, "sample.digest", &[("count", 1u64.into())]),
                "digest without event name",
            ),
            (
                encode_event_line(
                    0,
                    0,
                    "sample.digest",
                    &[("event", "".into()), ("count", 1u64.into())],
                ),
                "digest with empty event name",
            ),
            (
                encode_event_line(0, 0, "sample.digest", &[("event", "x".into())]),
                "digest without count",
            ),
            (
                encode_event_line(
                    0,
                    0,
                    "sample.digest",
                    &[("event", "x".into()), ("count", 0u64.into())],
                ),
                "digest with zero count",
            ),
            (
                encode_event_line(0, 0, "account.net", &[("subsystem", "net".into())]),
                "account with a string field",
            ),
            (
                encode_event_line(0, 0, "account.des", &[("utilization", 0.5.into())]),
                "account with a float field",
            ),
        ];
        for (line, why) in bad {
            assert!(parse_log(&wrap(line)).is_err(), "accepted bad log ({why})");
        }
    }

    #[test]
    fn log_reader_streams_events_one_at_a_time() {
        let text = format!(
            "{}\n\n{}\n{}\n",
            header_line(),
            encode_event_line(0, 0, "solver.start", &[("users", 40u64.into())]),
            encode_event_line(1, 7, "solver.done", &[("converged", true.into())]),
        );
        let mut reader = LogReader::new(text.as_bytes()).unwrap();
        assert_eq!(reader.version(), SCHEMA_VERSION);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first.name, "solver.start");
        let second = reader.next().unwrap().unwrap();
        assert_eq!(second.name, "solver.done");
        assert_eq!(second.t_us, 7);
        assert!(reader.next().is_none());
        assert!(reader.next().is_none(), "reader fuses at EOF");
    }

    #[test]
    fn log_reader_reports_the_offending_line_and_fuses() {
        // Line 3 has an out-of-order seq; the reader must surface it
        // with its 1-based line number and then stop.
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            header_line(),
            encode_event_line(0, 0, "e", &[]),
            encode_event_line(9, 1, "e", &[]),
            encode_event_line(1, 2, "e", &[]),
        );
        let mut reader = LogReader::new(text.as_bytes()).unwrap();
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("seq 9"), "{err}");
        assert!(reader.next().is_none(), "reader fuses after an error");

        // parse_log (the collecting wrapper) surfaces the same error.
        assert_eq!(parse_log(&text).unwrap_err(), err);
    }

    #[test]
    fn log_reader_and_parse_log_agree_on_a_valid_log() {
        let text = format!(
            "{}\n{}\n{}\n",
            header_line(),
            encode_event_line(
                0,
                0,
                "span_open",
                &[("span", 1u64.into()), ("name", "solve".into())]
            ),
            encode_event_line(1, 5, "span_close", &[("span", 1u64.into())]),
        );
        let streamed: Vec<LogEvent> = LogReader::new(text.as_bytes())
            .unwrap()
            .map(Result::unwrap)
            .collect();
        assert_eq!(parse_log(&text).unwrap().events, streamed);
    }
}
