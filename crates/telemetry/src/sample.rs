//! Deterministic head sampling for web-scale traces.
//!
//! Tracing the n=10,000 × m=100,000 sampled solver or a multi-million
//! job sharded sim at full fidelity would emit hundreds of millions of
//! events. [`SamplingCollector`] wraps any inner [`Collector`] and
//! keeps a deterministic subset, Dapper-style:
//!
//! - **Span trees are sampled head-first and kept whole.** The keep
//!   decision for a root `span_open` is a seed-keyed splitmix64 hash
//!   of its span id; children and the matching `span_close` inherit
//!   the root's verdict, so a sampled trace never contains half a
//!   tree and still passes schema validation.
//! - **Cross-node hops are sampled by trace id**, so every node
//!   observing a distributed trace makes the same keep decision
//!   without coordination.
//! - **Point events are sampled by content**, hashing the event name
//!   and field values with the seed. Decisions depend only on the
//!   event itself — never on arrival order — so the kept set is
//!   identical at any thread count for the same emitted multiset.
//! - **Always-keep classes** (`alert.*`, `account.*`, error events,
//!   `solver.done`/`sampled.done` certificates, partition boundaries)
//!   bypass sampling entirely: the rare, load-bearing events survive
//!   any rate.
//! - **Dropped events aggregate into `sample.digest` events** — per
//!   event type, a drop count plus the dropped events' numeric fields
//!   summed under their original keys — emitted every
//!   [`SamplingConfig::digest_every`] observed events and on flush.
//!   Downstream analysis reweights exactly: kept events plus digest
//!   totals equal the unsampled totals, field for field.

use crate::event::{Collector, Field, FieldValue};
use crate::span::{SPAN_CLOSE, SPAN_OPEN};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Event-name prefixes that bypass sampling entirely.
const ALWAYS_KEEP_PREFIXES: &[&str] = &[
    "alert.",
    "account.",
    "sample.",
    "solver.done",
    "sampled.done",
    "net.partition",
    "net.heal",
];

/// splitmix64: the repo-wide seed-mixing finalizer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to the unit interval [0, 1).
#[allow(clippy::cast_precision_loss)]
fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// Order-independent content hash of an event: the name and every
/// field (key and value) folded through splitmix64.
fn content_hash(name: &str, fields: &[Field]) -> u64 {
    let mut h = hash_bytes(name.as_bytes());
    for (key, value) in fields {
        h = splitmix64(h ^ hash_bytes(key.as_bytes()));
        h = splitmix64(h ^ hash_value(value));
    }
    h
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in bytes.chunks(8) {
        let mut word = 0u64;
        for (i, b) in chunk.iter().enumerate() {
            word |= u64::from(*b) << (8 * i);
        }
        h = splitmix64(h ^ word);
    }
    h
}

fn hash_value(value: &FieldValue) -> u64 {
    match value {
        FieldValue::U64(v) => *v,
        #[allow(clippy::cast_sign_loss)]
        FieldValue::I64(v) => *v as u64,
        FieldValue::F64(v) => v.to_bits(),
        FieldValue::Bool(v) => u64::from(*v),
        FieldValue::Str(s) => hash_bytes(s.as_bytes()),
    }
}

/// Configuration for a [`SamplingCollector`].
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Seed keying every hash decision; two collectors with the same
    /// seed keep the same events.
    pub(crate) seed: u64,
    /// Keep probability for span trees (decided at the root) and
    /// cross-node traces (decided by trace id).
    pub span_rate: f64,
    /// Keep probability for every sampled point event.
    pub(crate) event_rate: f64,
    /// Emit accumulated `sample.digest` events after this many
    /// observed events (0 = only on flush).
    pub(crate) digest_every: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        Self {
            seed: 0x5A4D_71D2,
            span_rate: 1.0 / 16.0,
            event_rate: 1.0 / 16.0,
            digest_every: 65_536,
        }
    }
}

impl SamplingConfig {
    /// A config keeping roughly `rate` of spans and point events.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            span_rate: rate,
            event_rate: rate,
            ..Self::default()
        }
    }
}

/// One event type's accumulated drops since the last digest.
#[derive(Default)]
struct DigestEntry {
    count: u64,
    /// Numeric field sums in first-seen field order.
    sums: Vec<(&'static str, Accum)>,
}

/// A numeric accumulator preserving the emitted field kind.
#[derive(Clone, Copy)]
enum Accum {
    U(u64),
    I(i64),
    F(f64),
}

impl Accum {
    fn absorb(&mut self, value: &FieldValue) {
        match (self, value) {
            (Accum::U(acc), FieldValue::U64(v)) => *acc = acc.wrapping_add(*v),
            (Accum::U(acc), FieldValue::Bool(v)) => *acc = acc.wrapping_add(u64::from(*v)),
            (Accum::I(acc), FieldValue::I64(v)) => *acc = acc.wrapping_add(*v),
            (Accum::F(acc), FieldValue::F64(v)) => *acc += *v,
            // Kind drift within a type (rare): drop the sample rather
            // than corrupt the sum; the count still reweights.
            _ => {}
        }
    }

    fn seed(value: &FieldValue) -> Option<Self> {
        match value {
            FieldValue::U64(v) => Some(Accum::U(*v)),
            FieldValue::Bool(v) => Some(Accum::U(u64::from(*v))),
            FieldValue::I64(v) => Some(Accum::I(*v)),
            FieldValue::F64(v) => Some(Accum::F(*v)),
            FieldValue::Str(_) => None,
        }
    }

    fn to_field_value(self) -> FieldValue {
        match self {
            Accum::U(v) => FieldValue::U64(v),
            Accum::I(v) => FieldValue::I64(v),
            Accum::F(v) => FieldValue::F64(v),
        }
    }
}

/// Mutable sampling state behind one lock.
#[derive(Default)]
struct SampleState {
    /// Keep verdicts for currently open spans (erased at close).
    verdicts: BTreeMap<u64, bool>,
    /// Dropped-event aggregation per event type (sorted by name, so
    /// digest emission order is deterministic).
    digest: BTreeMap<&'static str, DigestEntry>,
    /// Events observed since the last digest flush.
    since_digest: u64,
}

/// A deterministic head-sampling collector: forwards a seed-keyed
/// subset of events to the inner collector and aggregates the rest
/// into `sample.digest` events. See the module docs for the policy.
pub struct SamplingCollector {
    inner: Arc<dyn Collector>,
    config: SamplingConfig,
    state: Mutex<SampleState>,
}

impl SamplingCollector {
    /// Wraps `inner` with the given sampling policy.
    pub fn new(inner: Arc<dyn Collector>, config: SamplingConfig) -> Self {
        Self {
            inner,
            config,
            state: Mutex::new(SampleState::default()),
        }
    }

    /// Whether this event bypasses sampling.
    fn always_keep(name: &str) -> bool {
        ALWAYS_KEEP_PREFIXES.iter().any(|p| name.starts_with(p))
            || name.contains("error")
            || name.contains("panic")
    }

    /// The keep decision for one event. Mutates span verdict state for
    /// `span_open`/`span_close`.
    fn decide(&self, state: &mut SampleState, name: &'static str, fields: &[Field]) -> bool {
        if Self::always_keep(name) {
            return true;
        }
        let field_u64 = |key: &str| {
            fields.iter().find_map(|(k, v)| match v {
                FieldValue::U64(n) if *k == key => Some(*n),
                _ => None,
            })
        };
        if name == SPAN_OPEN {
            let Some(id) = field_u64("span") else {
                return true; // Malformed open: pass through, let the validator complain.
            };
            let keep = match field_u64("parent").and_then(|p| state.verdicts.get(&p).copied()) {
                // Children inherit the root's verdict so kept trees stay whole.
                Some(parent_kept) => parent_kept,
                None => unit(splitmix64(self.config.seed ^ id)) < self.config.span_rate,
            };
            state.verdicts.insert(id, keep);
            return keep;
        }
        if name == SPAN_CLOSE {
            let Some(id) = field_u64("span") else {
                return true;
            };
            // A close whose open we never saw (collector attached
            // mid-stream) is dropped: keeping it would break span
            // causality in the sampled log.
            return state.verdicts.remove(&id).unwrap_or(false);
        }
        if let Some(trace) = name
            .starts_with("xspan.")
            .then(|| field_u64("trace"))
            .flatten()
        {
            // Every node hashes the same trace id to the same verdict.
            return unit(splitmix64(self.config.seed ^ trace)) < self.config.span_rate;
        }
        let rate = self.config.event_rate;
        if rate >= 1.0 {
            return true;
        }
        unit(splitmix64(self.config.seed ^ content_hash(name, fields))) < rate
    }

    /// Absorbs a dropped event into the digest accumulator.
    fn digest_add(state: &mut SampleState, name: &'static str, fields: &[Field]) {
        let entry = state.digest.entry(name).or_default();
        entry.count += 1;
        for (key, value) in fields {
            // `event` and `count` are the digest's own structural keys.
            if matches!(*key, "event" | "count") {
                continue;
            }
            if let Some((_, acc)) = entry.sums.iter_mut().find(|(k, _)| k == key) {
                acc.absorb(value);
            } else if let Some(acc) = Accum::seed(value) {
                entry.sums.push((key, acc));
            }
        }
    }

    /// Emits and clears the accumulated digests (one `sample.digest`
    /// per event type, in name order).
    fn flush_digest(&self, state: &mut SampleState) {
        let digest = std::mem::take(&mut state.digest);
        state.since_digest = 0;
        for (name, entry) in digest {
            let mut fields: Vec<Field> = Vec::with_capacity(2 + entry.sums.len());
            fields.push(("event", FieldValue::Str(std::borrow::Cow::Borrowed(name))));
            fields.push(("count", FieldValue::U64(entry.count)));
            for (key, acc) in entry.sums {
                fields.push((key, acc.to_field_value()));
            }
            self.inner.emit("sample.digest", &fields);
        }
    }
}

impl Collector for SamplingCollector {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if self.decide(&mut state, name, fields) {
            self.inner.emit(name, fields);
        } else {
            Self::digest_add(&mut state, name, fields);
        }
        state.since_digest += 1;
        if self.config.digest_every > 0 && state.since_digest >= self.config.digest_every {
            self.flush_digest(&mut state);
        }
    }

    fn flush(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.flush_digest(&mut state);
        drop(state);
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectors::MemoryCollector;

    fn sampled(rate: f64, seed: u64) -> (Arc<MemoryCollector>, SamplingCollector) {
        let mem = Arc::new(MemoryCollector::default());
        let collector = SamplingCollector::new(mem.clone(), SamplingConfig::new(seed, rate));
        (mem, collector)
    }

    #[test]
    fn always_keep_classes_survive_a_zero_rate() {
        let (mem, s) = sampled(0.0, 1);
        s.emit("alert.fire", &[("slo", "goodput".into())]);
        s.emit("solver.done", &[("converged", true.into())]);
        s.emit("sampled.done", &[("converged", true.into())]);
        s.emit("account.net", &[("sent", 5u64.into())]);
        s.emit("net.partition", &[("t_us", 1u64.into())]);
        s.emit("io.error", &[("code", 5u64.into())]);
        s.emit("solver.sweep", &[("iter", 1u64.into())]);
        s.flush();
        assert_eq!(mem.count("alert.fire"), 1);
        assert_eq!(mem.count("solver.done"), 1);
        assert_eq!(mem.count("sampled.done"), 1);
        assert_eq!(mem.count("account.net"), 1);
        assert_eq!(mem.count("net.partition"), 1);
        assert_eq!(mem.count("io.error"), 1);
        assert_eq!(mem.count("solver.sweep"), 0, "sampled out at rate 0");
        assert_eq!(mem.count("sample.digest"), 1, "the drop was digested");
        let (_, fields) = mem
            .events()
            .into_iter()
            .find(|(n, _)| *n == "sample.digest")
            .expect("digest emitted");
        assert!(
            matches!(fields[1], ("count", FieldValue::U64(1))),
            "one event dropped"
        );
    }

    #[test]
    fn span_trees_are_kept_or_dropped_whole() {
        let (mem, s) = sampled(0.5, 42);
        // Emit many two-level trees; every kept open must have its
        // close and its children kept, every dropped root must drop
        // its whole subtree.
        for root in 1..200u64 {
            let id = root * 10;
            s.emit(SPAN_OPEN, &[("span", id.into()), ("name", "outer".into())]);
            s.emit(
                SPAN_OPEN,
                &[
                    ("span", (id + 1).into()),
                    ("parent", id.into()),
                    ("name", "inner".into()),
                ],
            );
            s.emit(SPAN_CLOSE, &[("span", (id + 1).into())]);
            s.emit(SPAN_CLOSE, &[("span", id.into())]);
        }
        let opens = mem.count(SPAN_OPEN);
        let closes = mem.count(SPAN_CLOSE);
        assert_eq!(opens, closes, "every kept open has its close");
        assert_eq!(opens % 2, 0, "trees are kept whole (pairs of spans)");
        assert!(
            opens > 0 && opens < 2 * 199,
            "rate 0.5 kept a strict subset"
        );
    }

    #[test]
    fn xspan_verdicts_agree_across_send_and_recv() {
        let (mem, s) = sampled(0.5, 7);
        for trace in 1..200u64 {
            s.emit(
                "xspan.send",
                &[("trace", trace.into()), ("span", (trace * 3).into())],
            );
            s.emit(
                "xspan.recv",
                &[("trace", trace.into()), ("span", (trace * 3).into())],
            );
        }
        assert_eq!(
            mem.count("xspan.send"),
            mem.count("xspan.recv"),
            "send and recv of the same trace share one verdict"
        );
    }

    // Concurrent emitters are what this test exercises, not a fan-out of
    // work, so it spawns its threads directly.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn kept_set_is_identical_across_thread_counts() {
        // The same multiset of events, emitted from 1, 2, and 8
        // threads in arbitrary interleavings, must keep the same set:
        // decisions are content-keyed, never order-keyed.
        let events: Vec<(u64, u64)> = (0..500u64).map(|i| (i, i * 31)).collect();
        let kept_set = |threads: usize| {
            let (mem, s) = sampled(0.25, 99);
            let s = Arc::new(s);
            std::thread::scope(|scope| {
                for chunk in events.chunks(events.len().div_ceil(threads)) {
                    let s = s.clone();
                    scope.spawn(move || {
                        for (a, b) in chunk {
                            s.emit("sim.arrival", &[("job", (*a).into()), ("t", (*b).into())]);
                        }
                    });
                }
            });
            let mut kept: Vec<String> = mem
                .events()
                .into_iter()
                .filter(|(name, _)| *name == "sim.arrival")
                .map(|(_, fields)| format!("{fields:?}"))
                .collect();
            kept.sort();
            kept
        };
        let reference = kept_set(1);
        assert!(!reference.is_empty() && reference.len() < 500);
        assert_eq!(kept_set(2), reference);
        assert_eq!(kept_set(8), reference);
    }

    #[test]
    fn digests_reweight_to_exact_totals() {
        let (mem, s) = sampled(0.125, 3);
        let total: u64 = (0..1000u64).map(|i| i * 7).sum();
        for i in 0..1000u64 {
            s.emit("des.tick", &[("work", (i * 7).into())]);
        }
        s.flush();
        let kept_events = mem.count("des.tick");
        let kept_sum: u64 = mem
            .events()
            .iter()
            .filter(|(name, _)| *name == "des.tick")
            .map(|(_, fields)| match fields[0].1 {
                FieldValue::U64(v) => v,
                _ => 0,
            })
            .sum();
        let (mut digest_count, mut digest_sum) = (0u64, 0u64);
        for (_, fields) in mem
            .events()
            .iter()
            .filter(|(name, _)| *name == "sample.digest")
        {
            assert!(matches!(&fields[0].1, FieldValue::Str(s) if s == "des.tick"));
            if let FieldValue::U64(c) = fields[1].1 {
                digest_count += c;
            }
            if let FieldValue::U64(w) = fields[2].1 {
                digest_sum += w;
            }
        }
        assert_eq!(kept_events as u64 + digest_count, 1000);
        assert_eq!(kept_sum + digest_sum, total, "reweighting is exact");
    }

    /// Property-style sweep (the repo carries no proptest dependency,
    /// so the generator is an explicit splitmix64 walk): for every
    /// (seed, rate) pair and a randomized mix of event types, counts
    /// and integer/float sums reconstructed as kept + digest must
    /// exactly equal the emitted totals — reweighting loses nothing.
    #[test]
    fn reweighting_is_exact_over_randomized_workloads() {
        const NAMES: [&str; 4] = ["des.tick", "sim.arrival", "ring.shed", "net.deliver"];
        for case in 0..48u64 {
            let mut prng = splitmix64(case.wrapping_mul(0x9E37_79B9));
            let mut next = || {
                prng = splitmix64(prng);
                prng
            };
            let rate = [0.0, 0.07, 0.25, 0.5, 0.93][case as usize % 5];
            let (mem, s) = sampled(rate, next());
            let events = 200 + (next() % 300);
            let mut emitted_count = std::collections::BTreeMap::new();
            let mut emitted_sum = std::collections::BTreeMap::new();
            for _ in 0..events {
                let name = NAMES[(next() % NAMES.len() as u64) as usize];
                let work = next() % 10_000;
                s.emit(name, &[("work", work.into())]);
                *emitted_count.entry(name).or_insert(0u64) += 1;
                *emitted_sum.entry(name).or_insert(0u64) += work;
            }
            s.flush();
            let mut seen_count = std::collections::BTreeMap::new();
            let mut seen_sum = std::collections::BTreeMap::new();
            for (name, fields) in mem.events() {
                if name == "sample.digest" {
                    let FieldValue::Str(event) = &fields[0].1 else {
                        panic!("digest event field");
                    };
                    let key = NAMES.iter().find(|n| *n == event).unwrap();
                    if let FieldValue::U64(c) = fields[1].1 {
                        *seen_count.entry(*key).or_insert(0u64) += c;
                    }
                    if let FieldValue::U64(w) = fields[2].1 {
                        *seen_sum.entry(*key).or_insert(0u64) += w;
                    }
                } else {
                    *seen_count.entry(name).or_insert(0u64) += 1;
                    if let FieldValue::U64(w) = fields[0].1 {
                        *seen_sum.entry(name).or_insert(0u64) += w;
                    }
                }
            }
            assert_eq!(seen_count, emitted_count, "case {case} rate {rate}");
            assert_eq!(seen_sum, emitted_sum, "case {case} rate {rate}");
        }
    }

    #[test]
    fn periodic_digests_flush_every_n_events() {
        let mem = Arc::new(MemoryCollector::default());
        let mut config = SamplingConfig::new(5, 0.0);
        config.digest_every = 10;
        let s = SamplingCollector::new(mem.clone(), config);
        for i in 0..25u64 {
            s.emit("sim.arrival", &[("job", i.into())]);
        }
        assert_eq!(mem.count("sample.digest"), 2, "two full windows of 10");
        s.flush();
        assert_eq!(mem.count("sample.digest"), 3, "flush drains the tail");
    }
}
