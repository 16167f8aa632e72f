//! Declarative SLOs evaluated online over sliding windows of virtual
//! time, with a multi-window burn-rate alert state machine.
//!
//! An [`SloSpec`] names a telemetry signal (`event` + numeric `field`),
//! an objective direction, a threshold and one window width W. The
//! [`SloEngine`] is itself a [`Collector`]: every event advances the
//! virtual-time watermark and lands in the windows of each SLO that
//! watches its signal, then every SLO is re-evaluated at the new
//! watermark. Following the SRE multi-window burn-rate pattern, a
//! violation must show in **both** the short window W (is it happening
//! *now*?) and the long window 4W (has it been happening long enough to
//! matter?) before an alert fires — transient single-event spikes
//! cannot page.
//!
//! ## Sliding windows and the virtual-time watermark
//!
//! The DES/async runtimes advance a *virtual* clock; collectors stamp
//! *wall* time. Mixing the two silently corrupts every window, so the
//! engine is driven **exclusively** by the `t_us` payload field that
//! every `net.*` / `async.*` / `watch.*` event carries (virtual µs). The
//! largest such value seen so far, on an event of any name, is the
//! **watermark**; windows are evaluated at the watermark, never at wall
//! time. Events without a `t_us` field advance nothing and join no
//! window. Each window is a ring of fixed-width buckets (memory is
//! `O(BINS)`, independent of event rate) holding the count and sum of
//! its signal over the trailing W (or 4W) of virtual time. Late events
//! (a `t_us` behind the watermark) still land in their own bucket when
//! it has not slid out yet; anything older is dropped.
//!
//! ## Alert state machine
//!
//! ```text
//!          both windows violate            short window healthy
//!          (and not refractory)            for >= W
//! Healthy ────────────────────▶ Firing ─────────────────────▶ Healthy
//!    ▲                            │  ▲                           │
//!    └── W after the clear ───────┘  └── short window violates ──┘
//!        (flap guard: no re-fire         (hold timer resets)
//!         before it expires)
//! ```
//!
//! * **fire** — emitted once on Healthy→Firing as an `alert.fire` event
//!   carrying `{t_us, slo, value, threshold}`;
//! * **persist** — while Firing, further violations emit nothing (the
//!   alert is level-triggered, not edge-spammed);
//! * **clear** — the short window must be continuously healthy for W of
//!   virtual time before `alert.clear` is emitted; a single bad sample
//!   resets the hold timer;
//! * **flap guard** — after a clear, re-firing is suppressed for W, so
//!   an oscillating signal produces one fire/clear pair per W, not one
//!   per oscillation.
//!
//! State depends only on the event payloads and their order — never on
//! wall clocks or allocation addresses — so a deterministic event
//! stream yields a bit-identical alert timeline, and attaching the
//! engine can never perturb the computation it observes. The windows
//! are property-tested and each transition unit-tested in this module;
//! `experiments watch` exercises the whole machine end to end.

use crate::event::{enabled, Collector, Field, FieldValue};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Number of ring buckets per window: a window of width `width_us` is
/// resolved to `width_us / BINS` granularity.
const BINS: u64 = 16;

/// Objective direction: which side of the threshold is healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Objective {
    /// The windowed mean must stay `<= threshold` (gap, staleness,
    /// shed rate).
    Below,
    /// The windowed mean must stay `>= threshold` (goodput).
    Above,
}

/// A declarative service-level objective over one telemetry signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable SLO name, carried in `alert.*` events and `/healthz`.
    pub(crate) name: String,
    /// Event name of the observed signal.
    pub(crate) event: String,
    /// Numeric field of the observed signal.
    pub(crate) field: String,
    /// Healthy side of the threshold.
    pub(crate) objective: Objective,
    /// The threshold itself.
    pub(crate) threshold: f64,
    /// The short window W in virtual µs (at least 16). The long window
    /// is 4W; the clear hold and the refractory period are each W.
    pub(crate) window_us: u64,
}

impl SloSpec {
    fn new(
        name: &str,
        event: &str,
        field: &str,
        objective: Objective,
        threshold: f64,
        window_us: u64,
    ) -> Self {
        Self {
            name: name.into(),
            event: event.into(),
            field: field.into(),
            objective,
            threshold,
            window_us,
        }
    }

    /// Certified ε-Nash gap must stay within `epsilon`
    /// (signal: `watch.gap` / `gap`).
    pub fn certified_gap(epsilon: f64, window_us: u64) -> Self {
        Self::new(
            "certified_gap",
            "watch.gap",
            "gap",
            Objective::Below,
            epsilon,
            window_us,
        )
    }

    /// Goodput fraction must stay at or above `floor`
    /// (signal: `watch.goodput` / `fraction`).
    pub fn goodput_min(floor: f64, window_us: u64) -> Self {
        Self::new(
            "goodput",
            "watch.goodput",
            "fraction",
            Objective::Above,
            floor,
            window_us,
        )
    }

    /// Coordinator view staleness must stay within `tau_us`
    /// (signal: `async.staleness` / `age_us`).
    pub fn staleness_max(tau_us: f64, window_us: u64) -> Self {
        Self::new(
            "view_staleness",
            "async.staleness",
            "age_us",
            Objective::Below,
            tau_us,
            window_us,
        )
    }

    /// Shed-rate fraction must stay within `budget`
    /// (signal: `watch.shed` / `fraction`).
    pub fn shed_rate_max(budget: f64, window_us: u64) -> Self {
        Self::new(
            "shed_rate",
            "watch.shed",
            "fraction",
            Objective::Below,
            budget,
            window_us,
        )
    }
}

/// Alert lifecycle state of one SLO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// No alert active; eligible to fire (subject to the flap guard).
    Healthy,
    /// Alert active; `alert.fire` was emitted and `alert.clear` has not.
    Firing,
}

/// Point-in-time verdict for one SLO, as served by `/healthz`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The SLO's stable name.
    pub name: String,
    /// Current alert state.
    pub state: AlertState,
    /// Short-window mean of the signal (`NaN` with no data).
    pub value: f64,
    /// The objective threshold.
    pub threshold: f64,
    /// Whether the short window currently satisfies the objective
    /// (`true` when the window is empty: no evidence of violation).
    pub(crate) ok: bool,
    /// Lifetime count of `alert.fire` transitions.
    pub fires: u64,
    /// Lifetime count of `alert.clear` transitions.
    pub clears: u64,
}

/// One ring bucket: aggregates of everything that landed in its span.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    start_us: u64,
    count: u64,
    sum: f64,
}

/// A sliding window: count and sum of one signal over the trailing
/// `width_us` of virtual time.
#[derive(Debug)]
struct Window {
    width_us: u64,
    bucket_us: u64,
    /// Buckets in ascending `start_us` order; at most `BINS + 1` live
    /// at a time (the evaluated span plus the partially filled head).
    buckets: VecDeque<Bucket>,
}

impl Window {
    fn new(width_us: u64) -> Self {
        assert!(width_us >= BINS, "window narrower than its bucket count");
        Self {
            width_us,
            bucket_us: (width_us / BINS).max(1),
            buckets: VecDeque::new(),
        }
    }

    fn evict(&mut self, watermark: u64) {
        let horizon = watermark.saturating_sub(self.width_us);
        while self
            .buckets
            .front()
            .is_some_and(|b| b.start_us + self.bucket_us <= horizon)
        {
            self.buckets.pop_front();
        }
    }

    /// Adds an observation, unless it is older than the window.
    fn observe(&mut self, t_us: u64, v: f64, watermark: u64) {
        self.evict(watermark);
        let start = (t_us / self.bucket_us) * self.bucket_us;
        if start + self.bucket_us <= watermark.saturating_sub(self.width_us) {
            return;
        }
        // Find or create the bucket, keeping the deque sorted. Late
        // events land near the back, so a reverse scan is short.
        let i = match self.buckets.iter().rposition(|b| b.start_us <= start) {
            Some(i) if self.buckets[i].start_us == start => i,
            pos => {
                let i = pos.map_or(0, |i| i + 1);
                let empty = Bucket {
                    start_us: start,
                    count: 0,
                    sum: 0.0,
                };
                self.buckets.insert(i, empty);
                i
            }
        };
        let b = &mut self.buckets[i];
        b.count += 1;
        b.sum += v;
    }

    /// Count and sum of the observations inside the window at
    /// `watermark`, summed bucket by bucket in time order.
    fn stats(&mut self, watermark: u64) -> (u64, f64) {
        self.evict(watermark);
        self.buckets
            .iter()
            .fold((0, 0.0), |(count, sum), b| (count + b.count, sum + b.sum))
    }

    /// Mean of the window at `watermark` (`NaN` when empty).
    #[allow(clippy::cast_precision_loss)]
    fn mean(&mut self, watermark: u64) -> f64 {
        match self.stats(watermark) {
            (0, _) => f64::NAN,
            (count, sum) => sum / count as f64,
        }
    }
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
    /// The short window W and the long window 4W.
    short: Window,
    long: Window,
    state: AlertState,
    /// Watermark since which the short window has been continuously
    /// healthy (valid while Firing).
    healthy_since: Option<u64>,
    /// Watermark of the last clear (flap guard anchor).
    cleared_at: Option<u64>,
    fires: u64,
    clears: u64,
    last_value: f64,
}

impl SloState {
    fn new(spec: SloSpec) -> Self {
        Self {
            short: Window::new(spec.window_us),
            long: Window::new(spec.window_us.saturating_mul(4)),
            spec,
            state: AlertState::Healthy,
            healthy_since: None,
            cleared_at: None,
            fires: 0,
            clears: 0,
            last_value: f64::NAN,
        }
    }

    fn violates(&self, mean: f64) -> bool {
        if mean.is_nan() {
            return false; // no data is not a violation
        }
        match self.spec.objective {
            Objective::Below => mean > self.spec.threshold,
            Objective::Above => mean < self.spec.threshold,
        }
    }

    /// Steps the alert state machine at `watermark`, emitting
    /// `alert.fire` / `alert.clear` to `output` on a transition.
    fn evaluate(&mut self, watermark: u64, output: Option<&Arc<dyn Collector>>) {
        let short = self.short.mean(watermark);
        let long = self.long.mean(watermark);
        self.last_value = short;
        let short_bad = self.violates(short);
        let window = self.spec.window_us;
        let transition = match self.state {
            AlertState::Healthy => {
                let refractory = self
                    .cleared_at
                    .is_some_and(|at| watermark < at.saturating_add(window));
                if !(short_bad && self.violates(long)) || refractory {
                    return;
                }
                self.state = AlertState::Firing;
                self.healthy_since = None;
                self.fires += 1;
                "alert.fire"
            }
            AlertState::Firing => {
                if short_bad {
                    self.healthy_since = None; // violation resets the hold
                    return;
                }
                let since = *self.healthy_since.get_or_insert(watermark);
                if watermark < since.saturating_add(window) {
                    return;
                }
                self.state = AlertState::Healthy;
                self.healthy_since = None;
                self.cleared_at = Some(watermark);
                self.clears += 1;
                "alert.clear"
            }
        };
        if let Some(c) = enabled(output) {
            c.emit(
                transition,
                &[
                    ("t_us", watermark.into()),
                    ("slo", self.spec.name.clone().into()),
                    ("value", short.into()),
                    ("threshold", self.spec.threshold.into()),
                ],
            );
        }
    }
}

#[derive(Debug)]
struct Inner {
    /// The largest `t_us` payload field seen so far.
    watermark_us: u64,
    slos: Vec<SloState>,
}

/// The SLO engine: a [`Collector`] that watches the stream and emits
/// `alert.fire` / `alert.clear` events to `output`. See module docs.
///
/// Attach it directly (`AsyncNash::collector`-style call sites take an
/// `Arc<dyn Collector>`) or behind a [`TeeCollector`](crate::TeeCollector)
/// next to a durable JSONL sink.
pub struct SloEngine {
    inner: Mutex<Inner>,
    output: Option<Arc<dyn Collector>>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("inner", &self.inner)
            .field("output", &self.output.as_ref().map(|_| ".."))
            .finish()
    }
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

fn field<'a>(fields: &'a [Field], key: &str) -> Option<&'a FieldValue> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

impl SloEngine {
    /// Builds an engine for `specs`; alert events go to `output`
    /// (`None` = evaluate silently, verdicts still query-able).
    ///
    /// # Panics
    ///
    /// If a spec's `window_us` is below 16 µs, one per window bucket.
    pub fn new(specs: Vec<SloSpec>, output: Option<Arc<dyn Collector>>) -> Self {
        Self {
            inner: Mutex::new(Inner {
                watermark_us: 0,
                slos: specs.into_iter().map(SloState::new).collect(),
            }),
            output,
        }
    }

    /// Recovers from a poisoned lock: the watermark and the per-SLO
    /// state are plain data that stay internally consistent under
    /// panic, and `/healthz` must keep answering even after a scrape
    /// thread died mid-evaluate.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The virtual-time watermark: the largest `t_us` payload field
    /// seen so far.
    pub(crate) fn watermark_us(&self) -> u64 {
        self.lock().watermark_us
    }

    /// Current verdict for every SLO, in declaration order.
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        self.lock()
            .slos
            .iter()
            .map(|s| SloVerdict {
                name: s.spec.name.clone(),
                state: s.state,
                value: s.last_value,
                threshold: s.spec.threshold,
                ok: !s.violates(s.last_value),
                fires: s.fires,
                clears: s.clears,
            })
            .collect()
    }
}

impl Collector for SloEngine {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        let mut inner = self.lock();
        let Inner { watermark_us, slos } = &mut *inner;
        if let Some(&FieldValue::U64(t_us)) = field(fields, "t_us") {
            *watermark_us = (*watermark_us).max(t_us);
            for s in slos.iter_mut().filter(|s| s.spec.event == name) {
                if let Some(v) = field(fields, &s.spec.field).and_then(numeric) {
                    s.short.observe(t_us, v, *watermark_us);
                    s.long.observe(t_us, v, *watermark_us);
                }
            }
        }
        for s in slos.iter_mut() {
            s.evaluate(*watermark_us, self.output.as_ref());
        }
    }

    fn flush(&self) {
        if let Some(c) = &self.output {
            c.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectors::MemoryCollector;
    use proptest::prelude::*;

    /// Gap SLO: threshold 0.5, short window 1 ms, long window 4 ms,
    /// clear hold 1 ms, refractory 1 ms.
    fn engine() -> (Arc<MemoryCollector>, SloEngine) {
        let sink = Arc::new(MemoryCollector::default());
        let spec = SloSpec {
            name: "gap".into(),
            event: "watch.gap".into(),
            field: "gap".into(),
            objective: Objective::Below,
            threshold: 0.5,
            window_us: 1_000,
        };
        let eng = SloEngine::new(vec![spec], Some(sink.clone() as Arc<dyn Collector>));
        (sink, eng)
    }

    fn gap(e: &SloEngine, t: u64, v: f64) {
        e.emit("watch.gap", &[("t_us", t.into()), ("gap", v.into())]);
    }

    #[test]
    fn fires_only_when_both_windows_violate() {
        let (sink, e) = engine();
        // One spike: short window violates, long window (mean over
        // 4 ms including healthy samples) does not.
        for t in 0..8 {
            gap(&e, t * 500, 0.1);
        }
        gap(&e, 4_100, 10.0);
        // Long mean = (7*0.1.. + 10)/n — with 8 healthy samples in the
        // long window the mean is (0.7 + 10)/8 > 0.5 actually. Use a
        // milder spike to keep the long window healthy.
        let (sink2, e2) = engine();
        for t in 0..8 {
            gap(&e2, t * 500, 0.1);
        }
        gap(&e2, 4_100, 0.9); // short mean 0.9 > 0.5; long mean ≈ 0.2
        assert_eq!(sink2.count("alert.fire"), 0, "single spike must not page");
        drop(sink);
        drop(e);

        // Sustained violation: both windows cross.
        let (sink3, e3) = engine();
        for t in 0..12 {
            gap(&e3, t * 500, 2.0);
        }
        assert_eq!(sink3.count("alert.fire"), 1);
    }

    #[test]
    fn firing_persists_without_duplicate_fire_events() {
        let (sink, e) = engine();
        for t in 0..40 {
            gap(&e, t * 500, 2.0);
        }
        assert_eq!(sink.count("alert.fire"), 1, "level-triggered, not spam");
        assert_eq!(sink.count("alert.clear"), 0);
        assert_eq!(e.verdicts()[0].state, AlertState::Firing);
    }

    #[test]
    fn clears_after_continuous_healthy_hold() {
        let (sink, e) = engine();
        for t in 0..12 {
            gap(&e, t * 500, 2.0); // fire
        }
        // Healthy samples; hold = 1 ms of continuous health. The first
        // healthy evaluation starts the timer once the short window's
        // mean recovers (old bad samples must slide out first).
        for t in 12..30 {
            gap(&e, t * 500, 0.05);
        }
        assert_eq!(sink.count("alert.fire"), 1);
        assert_eq!(sink.count("alert.clear"), 1);
        assert_eq!(e.verdicts()[0].state, AlertState::Healthy);
    }

    #[test]
    fn a_bad_sample_resets_the_clear_hold() {
        let (sink, e) = engine();
        for t in 0..12 {
            gap(&e, t * 500, 2.0); // fire at some t
        }
        // Recover just short of the hold, then violate again.
        gap(&e, 8_000, 0.05); // short window now healthy (bad slid out)
        gap(&e, 8_500, 0.05); // hold running
        gap(&e, 8_900, 2.0); // short mean spikes back over: hold resets
        assert_eq!(sink.count("alert.clear"), 0, "hold must reset");
        assert_eq!(e.verdicts()[0].state, AlertState::Firing);
    }

    #[test]
    fn refractory_guards_against_flapping() {
        let (sink, e) = engine();
        // Fire, then feed healthy samples exactly until the clear —
        // so the watermark at the clear is known to the test.
        for t in 0..12 {
            gap(&e, t * 500, 2.0);
        }
        let mut t = 12 * 500;
        while e.verdicts()[0].clears == 0 {
            gap(&e, t, 0.05);
            t += 500;
            assert!(t < 100_000, "alert never cleared");
        }
        assert_eq!(
            (sink.count("alert.fire"), sink.count("alert.clear")),
            (1, 1)
        );
        let cleared_at = e.watermark_us();

        // Immediately violate again, still inside the refractory period.
        gap(&e, cleared_at + 100, 5.0);
        gap(&e, cleared_at + 200, 5.0);
        gap(&e, cleared_at + 300, 5.0);
        assert_eq!(sink.count("alert.fire"), 1, "refractory must suppress");

        // After the refractory period the alert may fire again.
        for k in 1..=10 {
            gap(&e, cleared_at + 1_000 + k * 500, 5.0);
        }
        assert_eq!(sink.count("alert.fire"), 2);
    }

    #[test]
    fn slos_on_one_signal_read_their_own_windows() {
        let spec = |name: &str, window_us: u64| SloSpec {
            name: name.into(),
            event: "watch.gap".into(),
            field: "gap".into(),
            objective: Objective::Below,
            threshold: 0.5,
            window_us,
        };
        let e = SloEngine::new(vec![spec("narrow", 1_000), spec("wide", 100_000)], None);
        for t in 0..50 {
            gap(&e, t * 1_000, 1.0);
        }
        for t in 50..61 {
            gap(&e, t * 1_000, 0.0);
        }
        let v = e.verdicts();
        // The 1 ms window holds only zeros.
        assert_eq!(v[0].value, 0.0);
        // The 100 ms window holds all 61 samples: 50 ones, 11 zeros.
        assert!((v[1].value - 50.0 / 61.0).abs() < 1e-12, "{}", v[1].value);
    }

    #[test]
    fn no_data_is_healthy_and_verdicts_reflect_state() {
        let (_sink, e) = engine();
        let v = &e.verdicts()[0];
        assert_eq!(v.state, AlertState::Healthy);
        assert!(v.ok, "empty window is not a violation");
        assert!(v.value.is_nan());
        assert_eq!((v.fires, v.clears), (0, 0));
        assert_eq!(v.name, "gap");
        assert_eq!(v.threshold, 0.5);
    }

    #[test]
    fn above_objective_fires_on_low_values() {
        let sink = Arc::new(MemoryCollector::default());
        let spec = SloSpec {
            name: "goodput".into(),
            objective: Objective::Above,
            threshold: 0.9,
            event: "watch.goodput".into(),
            field: "fraction".into(),
            window_us: 1_000,
        };
        let e = SloEngine::new(vec![spec], Some(sink.clone() as Arc<dyn Collector>));
        for t in 0..12u64 {
            e.emit(
                "watch.goodput",
                &[("t_us", (t * 500).into()), ("fraction", 0.3.into())],
            );
        }
        assert_eq!(sink.count("alert.fire"), 1);
    }

    #[test]
    fn verdicts_survive_a_poisoned_lock() {
        // A scrape thread that panics while holding the engine lock must
        // not wedge /healthz: verdicts() and watermark_us() recover the
        // poisoned lock and keep serving the (still consistent) state.
        let engine = Arc::new(SloEngine::new(
            vec![SloSpec::certified_gap(1e-3, 10_000)],
            None,
        ));
        engine.emit(
            "watch.gap",
            &[("t_us", 1_000u64.into()), ("gap", 0.5.into())],
        );
        let poisoner = engine.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().expect("first lock is clean");
            panic!("die holding the engine lock");
        })
        .join();
        let verdicts = engine.verdicts();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].name, "certified_gap");
        assert_eq!(engine.watermark_us(), 1_000);
        // Evaluation keeps working after recovery too.
        engine.emit(
            "watch.gap",
            &[("t_us", 2_000u64.into()), ("gap", 0.5.into())],
        );
        assert_eq!(engine.verdicts().len(), 1);
        assert_eq!(engine.watermark_us(), 2_000);
    }

    #[test]
    fn any_u64_t_us_advances_the_watermark() {
        let (_sink, e) = engine();
        // Events of any name carry the virtual clock forward…
        e.emit("net.drop", &[("t_us", 700u64.into())]);
        assert_eq!(e.watermark_us(), 700);
        // …but a missing or non-integer `t_us` advances nothing, and a
        // watched event without one joins no window.
        e.emit("watch.gap", &[("gap", 9.0.into())]);
        e.emit("net.drop", &[("t_us", 5_000.0.into())]);
        assert_eq!(e.watermark_us(), 700);
        assert!(e.verdicts()[0].value.is_nan());
        // An older `t_us` never moves it back.
        gap(&e, 300, 0.25);
        assert_eq!(e.watermark_us(), 700);
        assert_eq!(e.verdicts()[0].value, 0.25);
    }

    #[test]
    fn window_slides_with_the_watermark() {
        let mut w = Window::new(1_000);
        w.observe(100, 1.0, 100);
        w.observe(500, 3.0, 500);
        assert_eq!(w.stats(500), (2, 4.0));
        assert_eq!(w.mean(500), 2.0);

        // Advance past the first observation's bucket: it slides out.
        w.observe(1_400, 5.0, 1_400);
        assert_eq!(w.stats(1_400), (2, 8.0), "t=100 must be evicted at 1400");
    }

    #[test]
    fn late_events_join_live_buckets_or_are_dropped() {
        let mut w = Window::new(1_000);
        w.observe(900, 1.0, 900);
        w.observe(1_000, 2.0, 1_000); // watermark 1000; horizon 0
        w.observe(950, 3.0, 1_000); // late but in-window
        assert_eq!(w.stats(1_000).0, 3);

        w.observe(5_000, 4.0, 5_000); // watermark 5000; horizon 4000
        w.observe(100, 9.0, 5_000); // hopelessly late: dropped
        assert_eq!(w.stats(5_000), (1, 4.0));
    }

    #[test]
    fn empty_window_mean_is_nan() {
        assert!(Window::new(1_000).mean(0).is_nan());
        let mut w = Window::new(1_000);
        w.observe(0, 1.0, 0);
        assert!(w.mean(10_000).is_nan(), "everything slid out");
    }

    #[test]
    fn window_replay_is_deterministic() {
        let run = || {
            let mut w = Window::new(1_000);
            for k in 0..200u64 {
                #[allow(clippy::cast_precision_loss)]
                w.observe(k * 37, (k % 13) as f64 * 0.5, k * 37);
            }
            let (count, sum) = w.stats(199 * 37);
            (count, sum.to_bits())
        };
        assert_eq!(run(), run());
    }

    /// Signals of the window properties: SLO k watches `SIGNALS[k]`
    /// through an 8 ms short and a 32 ms long window.
    const SIGNALS: [&str; 2] = ["watch.gap", "watch.goodput"];

    /// One generated observation. Values are quarter-integers so sums
    /// are exact in f64 regardless of addition order — letting the
    /// reorder property assert bitwise equality instead of tolerances.
    #[derive(Debug, Clone, Copy)]
    struct Obs {
        name: &'static str,
        t_us: u64,
        value: f64,
    }

    fn any_obs() -> impl Strategy<Value = Obs> {
        (0usize..SIGNALS.len(), 0u64..50_000, 0u32..4_000).prop_map(|(n, t, q)| Obs {
            name: SIGNALS[n],
            t_us: t,
            value: f64::from(q) * 0.25,
        })
    }

    fn fed(stream: &[Obs]) -> SloEngine {
        let spec = |event: &str| SloSpec {
            name: event.into(),
            event: event.into(),
            field: "v".into(),
            objective: Objective::Below,
            threshold: 500.0,
            window_us: 8_000,
        };
        let e = SloEngine::new(SIGNALS.into_iter().map(spec).collect(), None);
        for o in stream {
            e.emit(o.name, &[("t_us", o.t_us.into()), ("v", o.value.into())]);
        }
        e
    }

    /// The watermark and every window's `(count, sum bits)` at it, short
    /// then long window for each SLO in declaration order.
    fn fingerprint(e: &SloEngine) -> (u64, Vec<(u64, u64)>) {
        let mut inner = e.lock();
        let watermark = inner.watermark_us;
        let windows = inner
            .slos
            .iter_mut()
            .flat_map(|s| [s.short.stats(watermark), s.long.stats(watermark)])
            .map(|(count, sum)| (count, sum.to_bits()))
            .collect();
        (watermark, windows)
    }

    /// Deterministic Fisher–Yates driven by splitmix64 — proptest picks
    /// the seed, the shuffle itself is reproducible.
    fn shuffle(stream: &mut [Obs], mut seed: u64) {
        let mut next = || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for i in (1..stream.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            stream.swap(i, j);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn replaying_the_same_stream_is_bit_deterministic(
            stream in prop::collection::vec(any_obs(), 0..64),
        ) {
            let (a, b) = (fed(&stream), fed(&stream));
            prop_assert_eq!(fingerprint(&a), fingerprint(&b));
            prop_assert_eq!(format!("{:?}", a.verdicts()), format!("{:?}", b.verdicts()));
        }

        #[test]
        fn window_contents_are_stable_under_reordering(
            stream in prop::collection::vec(any_obs(), 0..64),
            seed in 0u64..u64::MAX,
        ) {
            let mut reordered = stream.clone();
            shuffle(&mut reordered, seed);
            // Windows evaluate at the final watermark, which depends
            // only on the set of observations — whether a stale
            // observation was dropped on arrival or evicted later, the
            // surviving window content is identical.
            prop_assert_eq!(fingerprint(&fed(&stream)), fingerprint(&fed(&reordered)));
        }
    }
}
