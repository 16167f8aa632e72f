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
use lb_telemetry::Collector;
use std::sync::Arc;

/// A discrete-event simulation engine over event payloads of type `E`.
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: SimTime,
    processed: u64,
    scheduled: u64,
    horizon: Option<SimTime>,
    collector: Option<Arc<dyn Collector>>,
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
        }
    }

    /// Attaches a telemetry collector. The engine emits `des.compact`
    /// whenever a cancellation triggers a calendar compaction (heap
    /// rebuild); all events are purely observational — simulation results
    /// are bit-identical with or without a collector.
    pub fn set_collector(&mut self, collector: Arc<dyn Collector>) {
        self.collector = Some(collector);
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

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock — delivering an event in
    /// the past would corrupt causality, and doing so is always a model bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        if time < self.now {
            panic!(
                "cannot schedule into the past: t={} < now={}",
                time.as_secs(),
                self.now.as_secs()
            );
        }
        self.scheduled += 1;
        self.calendar.schedule(time, event)
    }

    /// Schedules an event `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite delay, before it reaches
    /// [`SimTime`] arithmetic.
    pub fn schedule_in(&mut self, delay: f64, event: E) -> EventId {
        if !delay.is_finite() {
            panic!("cannot schedule at a non-finite delay ({delay})");
        }
        if delay < 0.0 {
            panic!("cannot schedule at a negative delay ({delay})");
        }
        self.scheduled += 1;
        self.calendar.schedule(self.now + delay, event)
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
        let next = self.calendar.peek_time()?;
        if let Some(h) = self.horizon {
            if next > h {
                self.now = self.now.max(h);
                return None;
            }
        }
        let (time, payload) = self.calendar.pop()?;
        self.now = time;
        self.processed += 1;
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
    fn invalid_schedules_panic_with_their_message_and_leave_the_calendar() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let mut eng = Engine::new();
        eng.schedule_in(1.0, "ok");
        eng.next_event();
        let mut message = |request: fn(&mut Engine<&'static str>) -> EventId| {
            let payload = catch_unwind(AssertUnwindSafe(|| request(&mut eng)))
                .expect_err("an invalid request panics");
            *payload.downcast::<String>().expect("a formatted message")
        };
        let nan = message(|e| e.schedule_in(f64::NAN, "bad"));
        assert_eq!(nan, "cannot schedule at a non-finite delay (NaN)");
        let inf = message(|e| e.schedule_in(f64::INFINITY, "bad"));
        assert_eq!(inf, "cannot schedule at a non-finite delay (inf)");
        let negative = message(|e| e.schedule_in(-0.5, "bad"));
        assert_eq!(negative, "cannot schedule at a negative delay (-0.5)");
        let past = message(|e| e.schedule_at(SimTime::new(0.25), "bad"));
        assert_eq!(past, "cannot schedule into the past: t=0.25 < now=1");
        // The rejected requests left the calendar untouched: only the
        // valid follow-up is delivered, in order.
        assert_eq!(eng.events_scheduled(), 1);
        eng.schedule_in(0.5, "later");
        assert_eq!(eng.next_event(), Some("later"));
        assert_eq!(eng.next_event(), None);
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
