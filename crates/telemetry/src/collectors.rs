//! Concrete [`Collector`] implementations.

use crate::event::{Collector, Field, FieldValue};
use crate::schema;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a [`JsonlCollector`] stamps `t_us` on events.
enum Clock {
    /// Wall time since collector construction (production).
    Wall(Instant),
    /// `seq * step` microseconds — fully deterministic output, used by
    /// the golden-file test so the log bytes are reproducible.
    Fixed { step_us: u64 },
}

struct JsonlInner {
    out: Box<dyn Write + Send>,
    seq: u64,
    error: bool,
}

/// Appends the versioned JSONL event log described in [`schema`] to any
/// writer. The header line is written at construction; each emit
/// appends one event line with a collector-stamped sequence number and
/// microsecond timestamp.
///
/// I/O errors are latched (checkable via [`JsonlCollector::had_error`])
/// rather than panicking, so a full disk cannot take down a run that
/// would have succeeded without telemetry.
pub struct JsonlCollector {
    inner: Mutex<JsonlInner>,
    clock: Clock,
}

impl JsonlCollector {
    /// Wraps a writer, immediately appending the schema header line.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        Self::with_clock(out, Clock::Wall(Instant::now()))
    }

    /// Creates a collector writing to a file at `path` (truncating).
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::new(Box::new(std::io::BufWriter::new(
            std::fs::File::create(path)?,
        ))))
    }

    /// A collector whose timestamps are `seq * step_us`, making the
    /// output bytes fully deterministic (golden tests).
    pub fn with_fixed_clock(out: Box<dyn Write + Send>, step_us: u64) -> Self {
        Self::with_clock(out, Clock::Fixed { step_us })
    }

    fn with_clock(mut out: Box<dyn Write + Send>, clock: Clock) -> Self {
        let mut error = false;
        if writeln!(out, "{}", schema::header_line()).is_err() {
            error = true;
        }
        JsonlCollector {
            inner: Mutex::new(JsonlInner { out, seq: 0, error }),
            clock,
        }
    }

    /// Whether any write failed since construction.
    pub fn had_error(&self) -> bool {
        self.inner.lock().expect("jsonl lock").error
    }
}

impl Collector for JsonlCollector {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut inner = self.inner.lock().expect("jsonl lock");
        let t_us = match self.clock {
            Clock::Wall(start) => start.elapsed().as_micros() as u64,
            Clock::Fixed { step_us } => inner.seq * step_us,
        };
        let line = schema::encode_event_line(inner.seq, t_us, name, fields);
        inner.seq += 1;
        if writeln!(inner.out, "{line}").is_err() {
            inner.error = true;
        }
    }

    fn flush(&self) {
        let mut inner = self.inner.lock().expect("jsonl lock");
        if inner.out.flush().is_err() {
            inner.error = true;
        }
    }
}

/// Renders events as single human-readable stderr lines — the CLI's
/// `--verbose` progress stream (`[  12.3ms] solver.sweep iter=4 ...`).
pub struct StderrCollector {
    start: Instant,
}

impl StderrCollector {
    /// Creates a collector stamping times relative to now.
    pub fn new() -> Self {
        StderrCollector {
            start: Instant::now(),
        }
    }
}

impl Default for StderrCollector {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders a field value for human-readable output.
fn render_value(value: &FieldValue) -> String {
    match value {
        FieldValue::U64(v) => v.to_string(),
        FieldValue::I64(v) => v.to_string(),
        FieldValue::F64(v) => format!("{v:.6}"),
        FieldValue::Bool(v) => v.to_string(),
        FieldValue::Str(s) => s.to_string(),
    }
}

impl Collector for StderrCollector {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let ms = self.start.elapsed().as_secs_f64() * 1e3;
        let mut line = format!("[{ms:>10.3}ms] {name}");
        for (key, value) in fields {
            line.push(' ');
            line.push_str(key);
            line.push('=');
            line.push_str(&render_value(value));
        }
        eprintln!("{line}");
    }
}

/// Fans every event out to a list of collectors (e.g. JSONL file plus
/// stderr for a `--verbose` CLI run). Enabled when any child is.
///
/// The fan-out is atomic: an internal lock serializes `emit` calls so
/// that every enabled child receives events in the *same* order. Each
/// sink stamps its own `seq`/`t_us` from arrival order, so without the
/// lock two threads emitting concurrently could be interleaved
/// differently by different children — sink A records `E1` before `E2`
/// while sink B records `E2` before `E1`, making the sinks' sequence
/// numbers disagree about which event happened "first". That broke the
/// cross-sink meaning of `seq`/`t_us` monotonicity whenever children
/// differed (e.g. only one side `enabled()`), because the skipped child
/// re-joined the stream at an arbitrary interleaving point. Enablement
/// is also sampled once per event, under the same lock, so a child
/// whose `enabled()` answer changes mid-emit cannot observe a torn
/// fan-out.
pub struct TeeCollector {
    children: Vec<Arc<dyn Collector>>,
    /// Serializes the fan-out loop (see the type-level docs).
    order: Mutex<()>,
}

impl TeeCollector {
    /// Wraps the given collectors.
    pub fn new(children: Vec<Arc<dyn Collector>>) -> Self {
        TeeCollector {
            children,
            order: Mutex::new(()),
        }
    }
}

impl Collector for TeeCollector {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }

    fn emit(&self, name: &'static str, fields: &[Field]) {
        let _order = self.order.lock().expect("tee lock");
        for child in &self.children {
            if child.enabled() {
                child.emit(name, fields);
            }
        }
    }

    fn flush(&self) {
        let _order = self.order.lock().expect("tee lock");
        for child in &self.children {
            child.flush();
        }
    }
}

struct MemoryInner {
    events: std::collections::VecDeque<(u64, &'static str, Vec<Field>)>,
    /// Lifetime sequence number of the next event (survives eviction,
    /// so `/trace/recent` consumers can detect gaps).
    next_seq: u64,
    /// `None` = unbounded (the test default); `Some(k)` = ring of the
    /// most recent `k` events (the long-running live-endpoint use).
    capacity: Option<usize>,
    /// Events evicted by the ring bound.
    dropped: u64,
}

/// Buffers events in memory — unbounded by default (test assertions),
/// or as a fixed-capacity ring via [`MemoryCollector::with_capacity`]
/// (the `/trace/recent` last-K buffer of the live endpoint, where an
/// unbounded buffer would grow without limit for the life of the
/// process). Counts are lifetime totals either way.
pub struct MemoryCollector {
    inner: Mutex<MemoryInner>,
}

impl Default for MemoryCollector {
    fn default() -> Self {
        Self {
            inner: Mutex::new(MemoryInner {
                events: std::collections::VecDeque::new(),
                next_seq: 0,
                capacity: None,
                dropped: 0,
            }),
        }
    }
}

impl MemoryCollector {
    /// A ring buffer keeping only the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity (a ring that can hold nothing).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity event ring");
        let c = Self::default();
        c.inner.lock().expect("memory lock").capacity = Some(capacity);
        c
    }

    /// A snapshot of the buffered events (everything emitted so far
    /// when unbounded; the last `capacity` when ring-bounded).
    pub fn events(&self) -> Vec<(&'static str, Vec<Field>)> {
        self.inner
            .lock()
            .expect("memory lock")
            .events
            .iter()
            .map(|(_, n, f)| (*n, f.clone()))
            .collect()
    }

    /// The buffered events with their lifetime sequence numbers, oldest
    /// first — the `/trace/recent` payload.
    pub(crate) fn recent(&self) -> Vec<(u64, &'static str, Vec<Field>)> {
        self.inner
            .lock()
            .expect("memory lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted by the ring bound (0 when unbounded).
    pub(crate) fn dropped(&self) -> u64 {
        self.inner.lock().expect("memory lock").dropped
    }

    /// Number of *buffered* events with the given name.
    pub fn count(&self, name: &str) -> usize {
        self.inner
            .lock()
            .expect("memory lock")
            .events
            .iter()
            .filter(|(_, n, _)| *n == name)
            .count()
    }
}

impl Collector for MemoryCollector {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut inner = self.inner.lock().expect("memory lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back((seq, name, fields.to_vec()));
        if let Some(cap) = inner.capacity {
            while inner.events.len() > cap {
                inner.events.pop_front();
                inner.dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::parse_log;

    /// A shared growable byte sink for inspecting collector output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_collector_writes_header_and_valid_events() {
        let buf = SharedBuf::default();
        let collector = JsonlCollector::new(Box::new(buf.clone()));
        collector.emit("a.b", &[("x", 1u64.into()), ("y", 2.5.into())]);
        collector.emit("c", &[("label", "hi".into())]);
        collector.flush();
        assert!(!collector.had_error());
        let log = parse_log(&buf.contents()).unwrap();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        assert_eq!(log.events[0].field("y").unwrap().as_f64(), Some(2.5));
    }

    #[test]
    fn fixed_clock_makes_output_deterministic() {
        let render = || {
            let buf = SharedBuf::default();
            let c = JsonlCollector::with_fixed_clock(Box::new(buf.clone()), 10);
            c.emit("e", &[("i", 0u64.into())]);
            c.emit("e", &[("i", 1u64.into())]);
            c.flush();
            buf.contents()
        };
        let first = render();
        assert_eq!(first, render());
        let log = parse_log(&first).unwrap();
        assert_eq!(log.events[1].t_us, 10);
    }

    #[test]
    fn jsonl_collector_latches_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let collector = JsonlCollector::new(Box::new(Failing));
        collector.emit("e", &[]);
        assert!(collector.had_error());
    }

    #[test]
    fn bounded_memory_collector_keeps_only_the_last_k() {
        let c = MemoryCollector::with_capacity(3);
        for i in 0..5u64 {
            c.emit("e", &[("i", i.into())]);
        }
        assert_eq!(c.dropped(), 2);
        let recent = c.recent();
        assert_eq!(recent.len(), 3);
        // Lifetime seqs survive eviction: 2, 3, 4 remain.
        assert_eq!(
            recent.iter().map(|(s, _, _)| *s).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(c.count("e"), 3, "count reflects the buffer");

        let unbounded = MemoryCollector::default();
        for i in 0..5u64 {
            unbounded.emit("e", &[("i", i.into())]);
        }
        assert_eq!(unbounded.dropped(), 0);
        assert_eq!(unbounded.events().len(), 5);
    }

    #[test]
    fn tee_fans_out_and_respects_child_enablement() {
        let a = Arc::new(MemoryCollector::default());
        let b = Arc::new(MemoryCollector::default());
        let tee = TeeCollector::new(vec![a.clone(), b.clone()]);
        assert!(tee.enabled());
        tee.emit("x", &[]);
        assert_eq!(a.count("x"), 1);
        assert_eq!(b.count("x"), 1);
        let empty = TeeCollector::new(vec![]);
        assert!(!empty.enabled());
    }
}
