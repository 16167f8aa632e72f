//! Declarative SLOs evaluated online over streaming windows, with a
//! multi-window burn-rate alert state machine.
//!
//! An [`SloSpec`] names a telemetry signal (`event` + numeric `field`),
//! an objective direction, and a threshold. The [`SloEngine`] is itself
//! a [`Collector`]: every event first feeds an internal
//! [`StreamAggregator`], then each SLO is re-evaluated at the new
//! virtual-time watermark. Following the SRE multi-window burn-rate
//! pattern, a violation must show in **both** a short window (is it
//! happening *now*?) and a long window (has it been happening long
//! enough to matter?) before an alert fires — transient single-event
//! spikes cannot page.
//!
//! ## Alert state machine
//!
//! ```text
//!          both windows violate            short window healthy
//!          (and not refractory)            for >= clear_hold_us
//! Healthy ────────────────────▶ Firing ─────────────────────▶ Healthy
//!    ▲                            │  ▲                           │
//!    └── refractory_us elapses ───┘  └── short window violates ──┘
//!        (flap guard: no re-fire         (hold timer resets)
//!         before it expires)
//! ```
//!
//! * **fire** — emitted once on Healthy→Firing as an `alert.fire` event
//!   carrying `{t_us, slo, value, threshold}`;
//! * **persist** — while Firing, further violations emit nothing (the
//!   alert is level-triggered, not edge-spammed);
//! * **clear** — the short window must be continuously healthy for
//!   `clear_hold_us` of virtual time before `alert.clear` is emitted;
//!   a single bad sample resets the hold timer;
//! * **flap guard** — after a clear, re-firing is suppressed for
//!   `refractory_us` so an oscillating signal produces one
//!   fire/clear pair per `refractory_us`, not one per oscillation.
//!
//! All timing uses the aggregator's virtual-time watermark, so the
//! whole machine is deterministic given a deterministic event stream —
//! unit-tested per transition in this module and exercised end-to-end
//! by `experiments watch`.

use crate::event::{enabled, Collector, Field};
use crate::stream::{StreamAggregator, WindowSpec};
use std::sync::{Arc, Mutex};

/// Objective direction: which side of the threshold is healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
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
    pub name: String,
    /// Event name of the observed signal.
    pub event: String,
    /// Numeric field of the observed signal.
    pub field: String,
    /// Healthy side of the threshold.
    pub objective: Objective,
    /// The threshold itself.
    pub threshold: f64,
    /// Short window ("is it happening now?") in virtual µs.
    pub short_window_us: u64,
    /// Long window ("has it persisted?") in virtual µs.
    pub long_window_us: u64,
    /// Continuous short-window health required before clearing.
    pub clear_hold_us: u64,
    /// Re-fire suppression after a clear (flap guard).
    pub refractory_us: u64,
}

impl SloSpec {
    /// Certified ε-Nash gap must stay within `epsilon`
    /// (signal: `watch.gap` / `gap`).
    pub fn certified_gap(epsilon: f64, window_us: u64) -> Self {
        Self {
            name: "certified_gap".into(),
            event: "watch.gap".into(),
            field: "gap".into(),
            objective: Objective::Below,
            threshold: epsilon,
            short_window_us: window_us,
            long_window_us: window_us * 4,
            clear_hold_us: window_us,
            refractory_us: window_us,
        }
    }

    /// Goodput fraction must stay at or above `floor`
    /// (signal: `watch.goodput` / `fraction`).
    pub fn goodput_min(floor: f64, window_us: u64) -> Self {
        Self {
            name: "goodput".into(),
            event: "watch.goodput".into(),
            field: "fraction".into(),
            objective: Objective::Above,
            threshold: floor,
            short_window_us: window_us,
            long_window_us: window_us * 4,
            clear_hold_us: window_us,
            refractory_us: window_us,
        }
    }

    /// Coordinator view staleness must stay within `tau_us`
    /// (signal: `async.staleness` / `age_us`).
    pub fn staleness_max(tau_us: f64, window_us: u64) -> Self {
        Self {
            name: "view_staleness".into(),
            event: "async.staleness".into(),
            field: "age_us".into(),
            objective: Objective::Below,
            threshold: tau_us,
            short_window_us: window_us,
            long_window_us: window_us * 4,
            clear_hold_us: window_us,
            refractory_us: window_us,
        }
    }

    /// Shed-rate fraction must stay within `budget`
    /// (signal: `watch.shed` / `fraction`).
    pub fn shed_rate_max(budget: f64, window_us: u64) -> Self {
        Self {
            name: "shed_rate".into(),
            event: "watch.shed".into(),
            field: "fraction".into(),
            objective: Objective::Below,
            threshold: budget,
            short_window_us: window_us,
            long_window_us: window_us * 4,
            clear_hold_us: window_us,
            refractory_us: window_us,
        }
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
    pub ok: bool,
    /// Lifetime count of `alert.fire` transitions.
    pub fires: u64,
    /// Lifetime count of `alert.clear` transitions.
    pub clears: u64,
}

#[derive(Debug)]
struct SloState {
    spec: SloSpec,
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
    fn violates(&self, mean: f64) -> bool {
        if mean.is_nan() {
            return false; // no data is not a violation
        }
        match self.spec.objective {
            Objective::Below => mean > self.spec.threshold,
            Objective::Above => mean < self.spec.threshold,
        }
    }
}

/// The SLO engine: a [`Collector`] that watches the stream and emits
/// `alert.fire` / `alert.clear` events to `output`. See module docs.
pub struct SloEngine {
    agg: StreamAggregator,
    slos: Mutex<Vec<SloState>>,
    output: Option<Arc<dyn Collector>>,
}

impl std::fmt::Debug for SloEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloEngine")
            .field("agg", &self.agg)
            .field("slos", &self.slos)
            .field("output", &self.output.as_ref().map(|_| ".."))
            .finish()
    }
}

impl SloEngine {
    /// Builds an engine for `specs`; alert events go to `output`
    /// (`None` = evaluate silently, verdicts still query-able).
    pub fn new(specs: Vec<SloSpec>, output: Option<Arc<dyn Collector>>) -> Self {
        // Spec k owns windows 2k (short) and 2k + 1 (long); see `means`.
        let mut agg = StreamAggregator::new();
        for s in &specs {
            agg = agg
                .window(WindowSpec::new(&s.event, &s.field, s.short_window_us))
                .window(WindowSpec::new(&s.event, &s.field, s.long_window_us));
        }
        let slos = specs
            .into_iter()
            .map(|spec| SloState {
                spec,
                state: AlertState::Healthy,
                healthy_since: None,
                cleared_at: None,
                fires: 0,
                clears: 0,
                last_value: f64::NAN,
            })
            .collect();
        Self {
            agg,
            slos: Mutex::new(slos),
            output,
        }
    }

    /// The underlying aggregator (watermark, window stats, counts).
    pub fn aggregator(&self) -> &StreamAggregator {
        &self.agg
    }

    /// Current verdict for every SLO, in declaration order.
    ///
    /// Recovers from a poisoned lock: per-SLO state is plain data that
    /// stays internally consistent under panic, and `/healthz` must
    /// keep answering even after a scrape thread died mid-evaluate.
    pub fn verdicts(&self) -> Vec<SloVerdict> {
        let slos = self.slos.lock().unwrap_or_else(|e| e.into_inner());
        slos.iter()
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

    /// Short- and long-window means of the `k`-th SLO, read from the
    /// windows it declared (2k and 2k + 1), never from another SLO's
    /// windows on the same signal.
    fn means(&self, k: usize) -> (f64, f64) {
        let mean = |index| self.agg.window_stats(index).map_or(f64::NAN, |s| s.mean());
        (mean(2 * k), mean(2 * k + 1))
    }

    fn evaluate(&self) {
        let watermark = self.agg.watermark_us();
        let mut slos = self.slos.lock().unwrap_or_else(|e| e.into_inner());
        for (k, s) in slos.iter_mut().enumerate() {
            let (short, long) = self.means(k);
            s.last_value = short;
            let short_bad = s.violates(short);
            let long_bad = s.violates(long);
            match s.state {
                AlertState::Healthy => {
                    let refractory = s
                        .cleared_at
                        .is_some_and(|at| watermark < at.saturating_add(s.spec.refractory_us));
                    if short_bad && long_bad && !refractory {
                        s.state = AlertState::Firing;
                        s.healthy_since = None;
                        s.fires += 1;
                        if let Some(c) = enabled(self.output.as_ref()) {
                            c.emit(
                                "alert.fire",
                                &[
                                    ("t_us", watermark.into()),
                                    ("slo", s.spec.name.clone().into()),
                                    ("value", short.into()),
                                    ("threshold", s.spec.threshold.into()),
                                ],
                            );
                        }
                    }
                }
                AlertState::Firing => {
                    if short_bad {
                        s.healthy_since = None; // violation resets the hold
                    } else {
                        let since = *s.healthy_since.get_or_insert(watermark);
                        if watermark >= since.saturating_add(s.spec.clear_hold_us) {
                            s.state = AlertState::Healthy;
                            s.healthy_since = None;
                            s.cleared_at = Some(watermark);
                            s.clears += 1;
                            if let Some(c) = enabled(self.output.as_ref()) {
                                c.emit(
                                    "alert.clear",
                                    &[
                                        ("t_us", watermark.into()),
                                        ("slo", s.spec.name.clone().into()),
                                        ("value", short.into()),
                                        ("threshold", s.spec.threshold.into()),
                                    ],
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Collector for SloEngine {
    fn emit(&self, name: &'static str, fields: &[Field]) {
        self.agg.emit(name, fields);
        self.evaluate();
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
            short_window_us: 1_000,
            long_window_us: 4_000,
            clear_hold_us: 1_000,
            refractory_us: 1_000,
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
        let cleared_at = e.aggregator().watermark_us();

        // Immediately violate again, still inside refractory_us.
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
            short_window_us: window_us,
            long_window_us: window_us * 4,
            clear_hold_us: window_us,
            refractory_us: window_us,
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
            short_window_us: 1_000,
            long_window_us: 4_000,
            clear_hold_us: 1_000,
            refractory_us: 1_000,
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
        // A scrape thread that panics while holding the SLO lock must
        // not wedge /healthz: verdicts() recovers the poisoned lock
        // and keeps serving the (still consistent) per-SLO state.
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
            let _guard = poisoner.slos.lock().expect("first lock is clean");
            panic!("die holding the slo lock");
        })
        .join();
        let verdicts = engine.verdicts();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].name, "certified_gap");
        // Evaluation keeps working after recovery too.
        engine.emit(
            "watch.gap",
            &[("t_us", 2_000u64.into()), ("gap", 0.5.into())],
        );
        assert_eq!(engine.verdicts().len(), 1);
    }
}
