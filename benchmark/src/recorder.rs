//! The benchmark's own collector for traced runs.
//!
//! It keeps the program's events and the benchmark's spans in memory,
//! stamped with microseconds since the collector was made, and writes
//! them at the end as an lb-telemetry v4 JSONL log, so
//! `experiments analyze` and `experiments diff` read the trace as they
//! read any other. Counts are kept for every event; the stored log is
//! capped so a long traced run cannot exhaust memory (the log then ends
//! early, which the schema allows: spans may be left open).
//!
//! Besides storing events it sums the integer and float fields of the
//! accounting families the layer table reads: `account.*`,
//! `runner.worker` and `sim.replication`.

use lb_telemetry::schema::{encode_event_line, header_line};
use lb_telemetry::{Collector, Field, FieldValue};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Events stored for the JSONL log before the log is cut short.
pub const STORED_EVENT_CAP: usize = 200_000;

struct Inner {
    events: Vec<(u64, &'static str, Vec<Field>)>,
    total: u64,
    sums: BTreeMap<(&'static str, &'static str), f64>,
}

/// In-memory recording collector (see the module docs).
pub struct Recorder {
    start: Instant,
    cap: usize,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder storing at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self {
            start: Instant::now(),
            cap,
            inner: Mutex::new(Inner {
                events: Vec::new(),
                total: 0,
                sums: BTreeMap::new(),
            }),
        }
    }

    /// Events received so far (stored or not).
    pub fn total(&self) -> u64 {
        self.inner.lock().expect("recorder lock").total
    }

    /// Sum of field `key` over all `event` events received.
    pub fn sum(&self, event: &str, key: &str) -> f64 {
        let inner = self.inner.lock().expect("recorder lock");
        inner
            .sums
            .iter()
            .filter(|((e, k), _)| *e == event && *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Writes the stored events as a v4 JSONL log. Returns the number of
    /// event lines written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.lock().expect("recorder lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", header_line())?;
        for (seq, (t_us, name, fields)) in inner.events.iter().enumerate() {
            writeln!(
                out,
                "{}",
                encode_event_line(seq as u64, *t_us, name, fields)
            )?;
        }
        out.flush()?;
        Ok(inner.events.len())
    }
}

fn summed(name: &str) -> bool {
    name.starts_with("account.") || name == "runner.worker" || name == "sim.replication"
}

impl Collector for Recorder {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut inner = self.inner.lock().expect("recorder lock");
        // Stamped under the lock, so timestamps never run backwards in
        // the stored order.
        let t_us = self.start.elapsed().as_micros() as u64;
        inner.total += 1;
        if summed(name) {
            for (key, value) in fields {
                let v = match value {
                    FieldValue::U64(v) => *v as f64,
                    FieldValue::I64(v) => *v as f64,
                    FieldValue::F64(v) => *v,
                    _ => continue,
                };
                *inner.sums.entry((name, *key)).or_insert(0.0) += v;
            }
        }
        if inner.events.len() < self.cap {
            inner.events.push((t_us, name, fields.to_vec()));
        }
    }
}

/// A collector that only counts events: the cheapest enabled collector,
/// the first rung of the telemetry cost ladder.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Collector for Counter {
    fn emit(&self, _name: &'static str, _fields: &[Field]) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}
