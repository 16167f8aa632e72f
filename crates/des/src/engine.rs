//! The simulation engine: clock + calendar + event loop bounds.
//!
//! The engine is deliberately *pull-based*: model code owns the loop,
//! calling [`Engine::next_event`] and scheduling follow-up events in
//! response. This sidesteps handler-callback borrow gymnastics and keeps
//! the kernel reusable for any event type.
//!
//! ```
//! use lb_des::engine::Engine;
//! use lb_des::SimTime;
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

use crate::calendar::Calendar;
use crate::time::SimTime;

/// A discrete-event simulation engine over event payloads of type `E`.
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: SimTime,
    processed: u64,
    horizon: Option<SimTime>,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at zero and no horizon.
    pub fn new() -> Self {
        Self {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            processed: 0,
            horizon: None,
        }
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

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the current clock — delivering an event in
    /// the past would corrupt causality, and doing so is always a model bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        if time < self.now {
            panic!(
                "cannot schedule into the past: t={} < now={}",
                time.as_secs(),
                self.now.as_secs()
            );
        }
        self.calendar.schedule(time, event)
    }

    /// Schedules an event `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite delay, before it reaches
    /// [`SimTime`] arithmetic.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        if !delay.is_finite() {
            panic!("cannot schedule at a non-finite delay ({delay})");
        }
        if delay < 0.0 {
            panic!("cannot schedule at a negative delay ({delay})");
        }
        self.calendar.schedule(self.now + delay, event)
    }

    /// Number of events pending in the calendar.
    pub fn calendar_depth(&self) -> usize {
        self.calendar.len()
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
        let mut message = |request: fn(&mut Engine<&'static str>)| {
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
        assert_eq!(eng.calendar_depth(), 0);
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
        assert_eq!(eng.calendar_depth(), 1);
        assert_eq!(eng.next_event(), None);
    }

    #[test]
    fn event_exactly_at_horizon_is_delivered() {
        let mut eng = Engine::new();
        eng.set_horizon(SimTime::new(5.0));
        eng.schedule_in(5.0, "edge");
        assert_eq!(eng.next_event(), Some("edge"));
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
