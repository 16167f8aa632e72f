//! Online (streaming) aggregation of the event stream into sliding
//! windows — the live half of the observability stack.
//!
//! The batch pipeline (`experiments trace` → [`crate::parse_log`] →
//! `experiments analyze`) buffers the whole log and analyzes it after
//! the run exits. A long-running serving process cannot do that: it
//! needs "what is the certified gap / goodput / staleness *right now*"
//! answered from bounded state. [`StreamAggregator`] is a [`Collector`]
//! that consumes each event exactly once, updating:
//!
//! * per-event-name **counts** (total events seen, ever);
//! * **sliding windows** ([`WindowSpec`]) — sum/count/mean of a
//!   numeric field over the trailing `width_us` of *virtual* time,
//!   implemented as a ring of fixed-width buckets (memory is
//!   `O(bins)`, independent of event rate).
//!
//! ## The virtual-time watermark
//!
//! The DES/async runtimes advance a *virtual* clock; collectors stamp
//! *wall* time. Mixing the two silently corrupts every window, so the
//! aggregator is driven **exclusively** by the `t_us` payload field
//! that every `net.*` / `async.*` / `sim.*` event carries (virtual µs).
//! The largest such value seen so far is the **watermark**; windows are
//! evaluated at the watermark, never at wall time. Events without a
//! `t_us` field are counted but advance nothing and join no window.
//! Late events (a `t_us` behind the watermark) still land in their own
//! bucket when it has not slid out yet; anything older is dropped and
//! counted in [`StreamAggregator::late_dropped`].
//!
//! Because state depends only on the event payloads and their order —
//! never on wall clocks or allocation addresses — a deterministic event
//! stream yields a bit-identical aggregator state (property-tested in
//! `tests/stream_prop.rs`), and attaching the aggregator can never
//! perturb the computation it observes.

use crate::event::{Collector, Field, FieldValue};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Number of ring buckets per window: the evaluated span is
/// `width_us`, resolved to `width_us / BINS` granularity.
const BINS: u64 = 16;

/// Declares a sliding-window aggregate over one numeric field of one
/// event name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSpec {
    /// Event name to match (e.g. `async.staleness`).
    pub event: String,
    /// Field key whose numeric value is aggregated (e.g. `age_us`).
    pub field: String,
    /// Window width in virtual µs.
    pub width_us: u64,
}

impl WindowSpec {
    /// A window over `event.field` spanning the trailing `width_us`.
    pub fn new(event: &str, field: &str, width_us: u64) -> Self {
        assert!(width_us >= BINS, "window narrower than its bucket count");
        Self {
            event: event.to_string(),
            field: field.to_string(),
            width_us,
        }
    }
}

/// Point-in-time summary of one sliding window, evaluated at the
/// watermark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of the observed field values.
    pub sum: f64,
}

impl WindowStats {
    /// Mean of the window (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum / self.count as f64
            }
        }
    }
}

/// One ring bucket: aggregates of everything that landed in its span.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start_us: u64,
    count: u64,
    sum: f64,
}

impl Bucket {
    fn new(start_us: u64) -> Self {
        Self {
            start_us,
            count: 0,
            sum: 0.0,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
    }
}

#[derive(Debug)]
struct WindowState {
    spec: WindowSpec,
    bucket_us: u64,
    /// Buckets in ascending `start_us` order; at most `BINS + 1` live
    /// at a time (the evaluated span plus the partially filled head).
    buckets: VecDeque<Bucket>,
}

impl WindowState {
    fn new(spec: WindowSpec) -> Self {
        let bucket_us = (spec.width_us / BINS).max(1);
        Self {
            spec,
            bucket_us,
            buckets: VecDeque::new(),
        }
    }

    fn evict(&mut self, watermark: u64) {
        let horizon = watermark.saturating_sub(self.spec.width_us);
        while self
            .buckets
            .front()
            .is_some_and(|b| b.start_us + self.bucket_us <= horizon)
        {
            self.buckets.pop_front();
        }
    }

    /// Whether the observation landed (false = older than the window).
    fn observe(&mut self, t_us: u64, v: f64, watermark: u64) -> bool {
        self.evict(watermark);
        let start = (t_us / self.bucket_us) * self.bucket_us;
        if start + self.bucket_us <= watermark.saturating_sub(self.spec.width_us) {
            return false;
        }
        // Find or create the bucket, keeping the deque sorted. Late
        // events land near the back, so a reverse scan is short.
        let pos = self.buckets.iter().rposition(|b| b.start_us <= start);
        match pos {
            Some(i) if self.buckets[i].start_us == start => self.buckets[i].observe(v),
            Some(i) => {
                let mut b = Bucket::new(start);
                b.observe(v);
                self.buckets.insert(i + 1, b);
            }
            None => {
                let mut b = Bucket::new(start);
                b.observe(v);
                self.buckets.push_front(b);
            }
        }
        true
    }

    fn stats(&self, watermark: u64) -> WindowStats {
        let horizon = watermark.saturating_sub(self.spec.width_us);
        let mut s = WindowStats { count: 0, sum: 0.0 };
        for b in &self.buckets {
            if b.start_us + self.bucket_us <= horizon || b.count == 0 {
                continue;
            }
            s.count += b.count;
            s.sum += b.sum;
        }
        s
    }
}

#[derive(Debug, Default)]
struct Inner {
    watermark_us: u64,
    counts: Vec<(String, u64)>,
    windows: Vec<WindowState>,
    late_dropped: u64,
}

/// The streaming aggregator. See the module docs for semantics.
///
/// Attach it directly ([`AsyncNash::collector`]-style call sites take an
/// `Arc<dyn Collector>`) or behind a
/// [`TeeCollector`](crate::TeeCollector) next to a durable JSONL sink.
///
/// [`AsyncNash::collector`]: ../../lb_distributed/struct.AsyncNash.html
#[derive(Debug, Default)]
pub struct StreamAggregator {
    inner: Mutex<Inner>,
}

fn numeric(v: &FieldValue) -> Option<f64> {
    #[allow(clippy::cast_precision_loss)]
    match v {
        FieldValue::U64(n) => Some(*n as f64),
        FieldValue::I64(n) => Some(*n as f64),
        FieldValue::F64(x) => Some(*x),
        FieldValue::Bool(_) | FieldValue::Str(_) => None,
    }
}

fn virtual_time(fields: &[Field]) -> Option<u64> {
    fields
        .iter()
        .find(|(k, _)| *k == "t_us")
        .and_then(|(_, v)| {
            if let FieldValue::U64(t) = v {
                Some(*t)
            } else {
                None
            }
        })
}

impl StreamAggregator {
    /// An aggregator with no windows (counts only).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sliding window.
    pub fn window(self, spec: WindowSpec) -> Self {
        self.inner
            .lock()
            .expect("stream lock")
            .windows
            .push(WindowState::new(spec));
        self
    }

    /// The virtual-time watermark: the largest `t_us` payload field seen.
    pub fn watermark_us(&self) -> u64 {
        self.inner.lock().expect("stream lock").watermark_us
    }

    /// Total events seen with this name (windowed or not).
    pub fn count(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("stream lock")
            .counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| *c)
    }

    /// Observations too old for their window when they arrived.
    pub fn late_dropped(&self) -> u64 {
        self.inner.lock().expect("stream lock").late_dropped
    }

    /// Current stats of the window declared `index`-th (0-based, in
    /// [`StreamAggregator::window`] call order), evaluated at the
    /// watermark. `None` when fewer windows were declared. Windows are
    /// addressed by declaration, not by signal, because several may
    /// observe the same `event.field` (e.g. two SLOs' short and long
    /// windows).
    pub fn window_stats(&self, index: usize) -> Option<WindowStats> {
        let mut inner = self.inner.lock().expect("stream lock");
        let watermark = inner.watermark_us;
        inner.windows.get_mut(index).map(|w| {
            w.evict(watermark);
            w.stats(watermark)
        })
    }
}

impl Collector for StreamAggregator {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut inner = self.inner.lock().expect("stream lock");
        match inner.counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c += 1,
            None => inner.counts.push((name.to_string(), 1)),
        }
        let Some(t_us) = virtual_time(fields) else {
            return; // wall-clock-only event: counted, never windowed
        };
        if t_us > inner.watermark_us {
            inner.watermark_us = t_us;
        }
        let watermark = inner.watermark_us;
        let Inner {
            windows,
            late_dropped,
            ..
        } = &mut *inner;
        for w in windows.iter_mut() {
            if w.spec.event != name {
                continue;
            }
            let Some(v) = fields
                .iter()
                .find(|(k, _)| *k == w.spec.field)
                .and_then(|(_, v)| numeric(v))
            else {
                continue;
            };
            if !w.observe(t_us, v, watermark) {
                *late_dropped += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg() -> StreamAggregator {
        StreamAggregator::new().window(WindowSpec::new("m", "v", 1_000))
    }

    fn emit(a: &StreamAggregator, t: u64, v: f64) {
        a.emit("m", &[("t_us", t.into()), ("v", v.into())]);
    }

    #[test]
    fn window_slides_with_the_watermark() {
        let a = agg();
        emit(&a, 100, 1.0);
        emit(&a, 500, 3.0);
        let s = a.window_stats(0).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 4.0);
        assert_eq!(s.mean(), 2.0);

        // Advance past the first observation's bucket: it slides out.
        emit(&a, 1_400, 5.0);
        let s = a.window_stats(0).unwrap();
        assert_eq!(s.count, 2, "t=100 must be evicted at watermark 1400");
        assert_eq!(s.sum, 8.0);
    }

    #[test]
    fn events_without_virtual_time_count_but_do_not_advance() {
        let a = agg();
        a.emit("m", &[("v", 9.0.into())]);
        assert_eq!(a.count("m"), 1);
        assert_eq!(a.watermark_us(), 0);
        assert_eq!(a.window_stats(0).unwrap().count, 0);
    }

    #[test]
    fn late_events_join_live_buckets_or_are_dropped() {
        let a = agg();
        emit(&a, 900, 1.0);
        emit(&a, 1_000, 2.0); // watermark 1000; horizon 0
        emit(&a, 950, 3.0); // late but in-window
        assert_eq!(a.window_stats(0).unwrap().count, 3);
        assert_eq!(a.late_dropped(), 0);

        emit(&a, 5_000, 4.0); // watermark 5000; horizon 4000
        emit(&a, 100, 9.0); // hopelessly late
        assert_eq!(a.late_dropped(), 1);
        assert_eq!(a.window_stats(0).unwrap().count, 1);
    }

    #[test]
    fn empty_window_mean_is_nan_and_unknown_specs_are_none() {
        let a = agg();
        assert!(a.window_stats(0).unwrap().mean().is_nan());
        assert!(a.window_stats(1).is_none());
    }

    #[test]
    fn replay_is_deterministic() {
        let run = || {
            let a = agg();
            for k in 0..200u64 {
                #[allow(clippy::cast_precision_loss)]
                emit(&a, k * 37, (k % 13) as f64 * 0.5);
            }
            let s = a.window_stats(0).unwrap();
            (s.count, s.sum.to_bits())
        };
        assert_eq!(run(), run());
    }
}
