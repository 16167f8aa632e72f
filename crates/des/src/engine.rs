//! The simulation engine: clock + calendar + event loop bounds.
//!
//! The engine is deliberately *pull-based*: model code owns the loop,
//! calling [`Engine::next_event`] and scheduling follow-up events in
//! response. This sidesteps handler-callback borrow gymnastics and keeps
//! the kernel reusable for any event type.
//!
//! ```
//! use lb_des::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut eng = Engine::new();
//! eng.schedule_in(1.0, Ev::Ping(0));
//! let mut pings = 0;
//! while let Some(ev) = eng.next_event() {
//!     let Ev::Ping(k) = ev;
//!     pings += 1;
//!     if k < 9 {
//!         eng.schedule_in(1.0, Ev::Ping(k + 1));
//!     }
//! }
//! assert_eq!(pings, 10);
//! assert_eq!(eng.now(), SimTime::new(10.0));
//! ```

use crate::calendar::{Calendar, EventId};
use crate::time::SimTime;
use lb_telemetry::{Collector, Span, SpanHandle};
use std::sync::Arc;

/// Number of delivered events covered by one `des.batch` span.
pub const DEFAULT_BATCH_EVENTS: u64 = 4096;

/// Why a schedule request was rejected.
///
/// Scheduling bugs used to surface as panics deep inside [`SimTime`]
/// arithmetic (a negative or NaN delay reaching `now + delay`); the typed
/// error names the actual contract violation and lets model code that
/// computes delays from untrusted inputs handle it without corrupting the
/// calendar ordering. The panicking [`Engine::schedule_in`] /
/// [`Engine::schedule_at`] wrappers delegate to the `try_` variants, so
/// both paths enforce identical validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// The relative delay was NaN or infinite.
    NonFiniteDelay {
        /// The offending delay, in seconds.
        delay: f64,
    },
    /// The relative delay was negative.
    NegativeDelay {
        /// The offending delay, in seconds.
        delay: f64,
    },
    /// The absolute delivery time precedes the current clock.
    IntoThePast {
        /// The requested delivery time, in seconds.
        time: f64,
        /// The engine clock at the time of the request, in seconds.
        now: f64,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteDelay { delay } => {
                write!(f, "cannot schedule at a non-finite delay ({delay})")
            }
            Self::NegativeDelay { delay } => {
                write!(f, "cannot schedule at a negative delay ({delay})")
            }
            Self::IntoThePast { time, now } => {
                write!(f, "cannot schedule into the past: t={time} < now={now}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A discrete-event simulation engine over event payloads of type `E`.
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: SimTime,
    processed: u64,
    scheduled: u64,
    horizon: Option<SimTime>,
    collector: Option<Arc<dyn Collector>>,
    /// Parent for `des.batch` spans (see [`Engine::set_span_parent`]).
    span_parent: Option<SpanHandle>,
    /// The open `des.batch` span, when batch spans are armed.
    batch_span: Option<Span>,
    /// Events remaining in the current batch; 0 disarms the per-event
    /// countdown entirely, so the unarmed hot path pays one integer
    /// compare per event.
    batch_left: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no horizon.
    pub fn new() -> Self {
        Self {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            processed: 0,
            scheduled: 0,
            horizon: None,
            collector: None,
            span_parent: None,
            batch_span: None,
            batch_left: 0,
        }
    }

    /// Attaches a telemetry collector. The engine emits `des.compact`
    /// whenever a cancellation triggers a calendar compaction (heap
    /// rebuild); all events are purely observational — simulation results
    /// are bit-identical with or without a collector.
    pub fn set_collector(&mut self, collector: Arc<dyn Collector>) {
        self.collector = Some(collector);
    }

    /// Arms per-batch causal spans: every [`DEFAULT_BATCH_EVENTS`]
    /// delivered events close one `des.batch` span (carrying the event
    /// count, sim time, and calendar depth) and open the next, all
    /// parented under `parent` — typically the `sim.replication` or
    /// `sim.churn` span driving this engine. The final partial batch
    /// closes when [`Engine::next_event`] first returns `None`.
    ///
    /// Spans are observational only; delivery order and results are
    /// bit-identical whether or not batch spans are armed.
    pub fn set_span_parent(&mut self, parent: SpanHandle) {
        self.span_parent = Some(parent);
        self.finish_batch_span();
        self.open_batch_span();
    }

    /// Opens a batch span under the configured parent and arms the
    /// countdown to its close.
    fn open_batch_span(&mut self) {
        if let Some(parent) = &self.span_parent {
            self.batch_span = Some(parent.child(
                "des.batch",
                &[
                    ("batch", DEFAULT_BATCH_EVENTS.into()),
                    ("start", self.processed.into()),
                ],
            ));
            self.batch_left = DEFAULT_BATCH_EVENTS;
        }
    }

    /// Closes the current batch span (full batch) and rolls to the next.
    fn roll_batch_span(&mut self) {
        if let Some(span) = self.batch_span.take() {
            span.close_with(&[
                ("events", DEFAULT_BATCH_EVENTS.into()),
                ("t", self.now.as_secs().into()),
                ("depth", (self.calendar.len_upper_bound() as u64).into()),
            ]);
        }
        self.open_batch_span();
    }

    /// Closes the partial batch at end of delivery and disarms the
    /// countdown (re-arm with [`Engine::set_span_parent`]).
    fn finish_batch_span(&mut self) {
        if let Some(span) = self.batch_span.take() {
            let done = DEFAULT_BATCH_EVENTS - self.batch_left;
            span.close_with(&[("events", done.into()), ("t", self.now.as_secs().into())]);
        }
        self.batch_left = 0;
    }

    /// Sets the run horizon: events scheduled *after* this time are never
    /// delivered ([`Engine::next_event`] returns `None` once the next
    /// pending event lies beyond it, leaving the clock at the horizon).
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events accepted into the calendar so far (including
    /// later-cancelled ones — cancellation does not unschedule for
    /// accounting purposes).
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Schedules an event at an absolute time, rejecting times that
    /// precede the current clock (delivering an event in the past would
    /// corrupt causality).
    pub fn try_schedule_at(&mut self, time: SimTime, event: E) -> Result<EventId, ScheduleError> {
        if time < self.now {
            return Err(ScheduleError::IntoThePast {
                time: time.as_secs(),
                now: self.now.as_secs(),
            });
        }
        self.scheduled += 1;
        Ok(self.calendar.schedule(time, event))
    }

    /// Schedules an event `delay` seconds from now, rejecting negative or
    /// non-finite delays before they reach [`SimTime`] arithmetic.
    pub fn try_schedule_in(&mut self, delay: f64, event: E) -> Result<EventId, ScheduleError> {
        if !delay.is_finite() {
            return Err(ScheduleError::NonFiniteDelay { delay });
        }
        if delay < 0.0 {
            return Err(ScheduleError::NegativeDelay { delay });
        }
        self.scheduled += 1;
        Ok(self.calendar.schedule(self.now + delay, event))
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock — delivering an event in
    /// the past would corrupt causality, and doing so is always a model bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        match self.try_schedule_at(time, event) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Schedules an event `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite delay.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> EventId {
        match self.try_schedule_in(delay, event) {
            Ok(id) => id,
            Err(e) => panic!("{e}"),
        }
    }

    /// Cancels a pending event; `true` if it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let before = self.calendar.compactions();
        let pending = self.calendar.cancel(id);
        if self.calendar.compactions() > before {
            if let Some(c) = lb_telemetry::enabled(self.collector.as_ref()) {
                c.emit(
                    "des.compact",
                    &[
                        ("t", self.now.as_secs().into()),
                        ("depth", self.calendar.len_upper_bound().into()),
                        ("tombstones", self.calendar.tombstone_count().into()),
                        ("compactions", self.calendar.compactions().into()),
                    ],
                );
            }
        }
        pending
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.calendar.peek_time()
    }

    /// Entries currently stored in the calendar (pending events plus
    /// not-yet-skipped tombstones) — see [`Calendar::len_upper_bound`].
    pub fn calendar_depth(&self) -> usize {
        self.calendar.len_upper_bound()
    }

    /// Tombstones currently buffered in the calendar.
    pub fn calendar_tombstones(&self) -> usize {
        self.calendar.tombstone_count()
    }

    /// Calendar compactions (heap rebuilds) performed so far.
    pub fn calendar_compactions(&self) -> u64 {
        self.calendar.compactions()
    }

    /// Advances the clock to the next pending event and returns its
    /// payload; `None` when the calendar is exhausted or the next event
    /// lies beyond the horizon (in which case the clock is left at the
    /// horizon so time-integrated statistics stay exact).
    pub fn next_event(&mut self) -> Option<E> {
        let Some(next) = self.calendar.peek_time() else {
            self.finish_batch_span();
            return None;
        };
        if let Some(h) = self.horizon {
            if next > h {
                self.now = self.now.max(h);
                self.finish_batch_span();
                return None;
            }
        }
        let (time, payload) = self.calendar.pop()?;
        self.now = time;
        self.processed += 1;
        if self.batch_left > 0 {
            self.batch_left -= 1;
            if self.batch_left == 0 {
                self.roll_batch_span();
            }
        }
        Some(payload)
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut eng = Engine::new();
        eng.schedule_in(2.0, "b");
        eng.schedule_in(1.0, "a");
        assert_eq!(eng.now(), SimTime::ZERO);
        assert_eq!(eng.next_event(), Some("a"));
        assert_eq!(eng.now(), SimTime::new(1.0));
        assert_eq!(eng.next_event(), Some("b"));
        assert_eq!(eng.now(), SimTime::new(2.0));
        assert_eq!(eng.next_event(), None);
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_in(1.0, ());
        eng.next_event();
        eng.schedule_at(SimTime::new(0.5), ());
    }

    #[test]
    fn invalid_delays_are_typed_errors_not_calendar_corruption() {
        let mut eng = Engine::new();
        eng.schedule_in(1.0, "ok");
        eng.next_event();
        assert!(matches!(
            eng.try_schedule_in(f64::NAN, "bad").unwrap_err(),
            ScheduleError::NonFiniteDelay { delay } if delay.is_nan()
        ));
        assert_eq!(
            eng.try_schedule_in(f64::INFINITY, "bad").unwrap_err(),
            ScheduleError::NonFiniteDelay {
                delay: f64::INFINITY
            }
        );
        assert_eq!(
            eng.try_schedule_in(-0.5, "bad").unwrap_err(),
            ScheduleError::NegativeDelay { delay: -0.5 }
        );
        assert_eq!(
            eng.try_schedule_at(SimTime::new(0.25), "bad").unwrap_err(),
            ScheduleError::IntoThePast {
                time: 0.25,
                now: 1.0
            }
        );
        // The rejected requests left the calendar untouched: only the
        // valid follow-up is delivered, in order.
        eng.try_schedule_in(0.5, "later").unwrap();
        assert_eq!(eng.next_event(), Some("later"));
        assert_eq!(eng.next_event(), None);
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_panics_with_the_typed_message() {
        let mut eng = Engine::new();
        eng.schedule_in(-1.0, ());
    }

    #[test]
    fn horizon_stops_delivery_and_pins_clock() {
        let mut eng = Engine::new();
        eng.set_horizon(SimTime::new(5.0));
        eng.schedule_in(1.0, 1);
        eng.schedule_in(10.0, 10);
        assert_eq!(eng.next_event(), Some(1));
        assert_eq!(eng.next_event(), None);
        assert_eq!(eng.now(), SimTime::new(5.0));
        // The late event is still pending but never delivered.
        assert_eq!(eng.peek_time(), Some(SimTime::new(10.0)));
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut eng = Engine::new();
        eng.set_horizon(SimTime::new(5.0));
        eng.schedule_in(5.0, "edge");
        assert_eq!(eng.next_event(), Some("edge"));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut eng = Engine::new();
        let id = eng.schedule_in(1.0, "gone");
        eng.schedule_in(2.0, "kept");
        assert!(eng.cancel(id));
        assert_eq!(eng.next_event(), Some("kept"));
    }

    #[test]
    fn collector_sees_compactions_without_perturbing_delivery() {
        use lb_telemetry::MemoryCollector;
        // Mass cancellation forces at least one calendar compaction; the
        // delivered event stream must be identical with and without a
        // collector attached.
        let run = |collector: Option<Arc<MemoryCollector>>| {
            let mut eng = Engine::new();
            if let Some(c) = &collector {
                eng.set_collector(c.clone());
            }
            let ids: Vec<_> = (0..1000)
                .map(|i| eng.schedule_in(1.0 + i as f64, i))
                .collect();
            for id in ids.iter().take(501) {
                eng.cancel(*id);
            }
            let mut seen = Vec::new();
            while let Some(i) = eng.next_event() {
                seen.push(i);
            }
            seen
        };
        let plain = run(None);
        let mem = Arc::new(MemoryCollector::default());
        let traced = run(Some(mem.clone()));
        assert_eq!(plain, traced);
        assert!(mem.count("des.compact") >= 1, "no compaction observed");
        assert_eq!(traced.len(), 499);
    }

    #[test]
    fn batch_spans_partition_the_run_and_close_on_exhaustion() {
        use lb_telemetry::{FieldValue, MemoryCollector, SPAN_CLOSE, SPAN_OPEN};

        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let root = Span::root(Some(&collector), "test.root", &[]).unwrap();

        let mut eng = Engine::new();
        eng.set_collector(Arc::clone(&collector));
        eng.set_span_parent(root.handle());
        let total = 2 * DEFAULT_BATCH_EVENTS + 50;
        for i in 0..total {
            eng.schedule_in(1.0 + i as f64, i);
        }
        while eng.next_event().is_some() {}
        assert_eq!(eng.events_processed(), total);
        root.close();

        // Three batch spans (two full ones + 50) plus the test root, all
        // closed, each parented under the root.
        assert_eq!(mem.count(SPAN_OPEN), 4);
        assert_eq!(mem.count(SPAN_CLOSE), 4);
        let events = mem.events();
        let field_u64 = |fields: &[lb_telemetry::Field], key: &str| -> Option<u64> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    FieldValue::U64(n) => *n,
                    other => panic!("field {key} was {other:?}"),
                })
        };
        let root_id = field_u64(&events[0].1, "span").unwrap();
        let mut batch_events = Vec::new();
        for (name, fields) in &events {
            if *name == SPAN_OPEN && field_u64(fields, "span") != Some(root_id) {
                assert_eq!(field_u64(fields, "parent"), Some(root_id));
            }
            if *name == SPAN_CLOSE && field_u64(fields, "span") != Some(root_id) {
                batch_events.push(field_u64(fields, "events").unwrap());
            }
        }
        assert_eq!(
            batch_events,
            vec![DEFAULT_BATCH_EVENTS, DEFAULT_BATCH_EVENTS, 50]
        );
    }

    #[test]
    fn batch_spans_do_not_perturb_delivery() {
        use lb_telemetry::MemoryCollector;

        let run = |spans: bool| {
            let mem = Arc::new(MemoryCollector::default());
            let collector: Arc<dyn Collector> = mem.clone();
            let root = Span::root(Some(&collector), "test.root", &[]).unwrap();
            let mut eng = Engine::new();
            if spans {
                eng.set_collector(Arc::clone(&collector));
                eng.set_span_parent(root.handle());
            }
            for i in 0..2 * DEFAULT_BATCH_EVENTS + 7 {
                eng.schedule_in(1.0 + (i % 13) as f64, i);
            }
            let mut seen = Vec::new();
            while let Some(i) = eng.next_event() {
                seen.push(i);
            }
            root.close();
            seen
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_tie_breaking_through_engine() {
        let mut eng = Engine::new();
        for i in 0..5 {
            eng.schedule_at(SimTime::new(1.0), i);
        }
        let mut order = Vec::new();
        while let Some(i) = eng.next_event() {
            order.push(i);
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
