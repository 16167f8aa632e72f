//! The future-event list (pending-event set).
//!
//! A binary min-heap keyed on `(time, sequence)`: events at equal times pop
//! in scheduling (FIFO) order, which makes whole simulations deterministic
//! for a fixed seed — a property the replication methodology depends on.
//! Scheduled events are never withdrawn: a model that must drop one (churn's
//! completion at a crashed computer) stamps it and skips it when it pops.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Internal heap entry. Ordered so the `BinaryHeap` (a max-heap) pops the
/// *earliest* `(time, seq)` first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest time (then lowest sequence) is "greatest".
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The future-event list: schedule events for simulated times, pop them in
/// chronological order.
///
/// # Examples
///
/// ```
/// use lb_des::{Calendar, SimTime};
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::new(2.0), "late");
/// cal.schedule(SimTime::new(1.0), "early");
/// assert_eq!(cal.peek_time(), Some(SimTime::new(1.0)));
/// assert_eq!(cal.pop(), Some((SimTime::new(1.0), "early")));
/// assert_eq!(cal.pop(), Some((SimTime::new(2.0), "late")));
/// assert!(cal.is_empty());
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn pops_in_chronological_order() {
        let mut cal = Calendar::new();
        cal.schedule(t(3.0), 'c');
        cal.schedule(t(1.0), 'a');
        cal.schedule(t(2.0), 'b');
        assert_eq!(cal.pop(), Some((t(1.0), 'a')));
        assert_eq!(cal.pop(), Some((t(2.0), 'b')));
        assert_eq!(cal.pop(), Some((t(3.0), 'c')));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut cal = Calendar::new();
        for i in 0..10 {
            cal.schedule(t(5.0), i);
        }
        for i in 0..10 {
            assert_eq!(cal.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = Calendar::new();
        cal.schedule(t(10.0), 10);
        cal.schedule(t(1.0), 1);
        assert_eq!(cal.pop(), Some((t(1.0), 1)));
        cal.schedule(t(5.0), 5);
        cal.schedule(t(2.0), 2);
        assert_eq!(cal.pop(), Some((t(2.0), 2)));
        assert_eq!(cal.pop(), Some((t(5.0), 5)));
        assert_eq!(cal.pop(), Some((t(10.0), 10)));
    }

    #[test]
    fn large_volume_stays_sorted() {
        // Pseudo-random insertion order, verify global chronological pops.
        let mut cal = Calendar::new();
        let mut x: u64 = 0x12345;
        let mut times = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let time = (x >> 11) as f64 / (1u64 << 53) as f64 * 1e6;
            times.push(time);
            cal.schedule(t(time), time);
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for expected in times {
            let (tt, payload) = cal.pop().unwrap();
            assert_eq!(tt.as_secs(), expected);
            assert_eq!(payload, expected);
        }
    }
}
