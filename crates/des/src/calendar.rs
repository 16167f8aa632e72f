//! The future-event list (pending-event set).
//!
//! A binary min-heap keyed on `(time, sequence)`: events at equal times pop
//! in scheduling (FIFO) order, which makes whole simulations deterministic
//! for a fixed seed — a property the replication methodology depends on.
//! Cancellation is handled with a tombstone set, the standard lazy-deletion
//! technique: O(1) cancel, skipped at pop time.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

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
/// chronological order, cancel by [`EventId`].
///
/// # Examples
///
/// ```
/// use lb_des::{Calendar, SimTime};
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::new(2.0), "late");
/// let id = cal.schedule(SimTime::new(1.0), "early");
/// assert_eq!(cal.peek_time(), Some(SimTime::new(1.0)));
/// cal.cancel(id);
/// assert_eq!(cal.pop(), Some((SimTime::new(2.0), "late")));
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
    compactions: u64,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
            compactions: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`; returns a handle for
    /// cancellation.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending (not yet popped or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        // An id is pending iff it was issued and is still somewhere in the
        // heap; we cannot cheaply test heap membership, so we record the
        // tombstone and report whether it was fresh and plausible.
        if id.0 >= self.next_seq {
            return false;
        }
        let fresh = self.cancelled.insert(id.0);
        // Without compaction, tombstones (and the cancelled payloads deep
        // in the heap) accumulate for the whole run: a tombstone for an
        // already-popped id can never be matched and would live forever.
        // Rebuilding once tombstones exceed half the heap keeps both
        // structures O(live events) at amortized O(1) per cancel.
        if fresh && self.cancelled.len() > self.heap.len() / 2 {
            self.compact();
        }
        fresh
    }

    /// Rebuilds the heap without cancelled entries and drops every
    /// tombstone (any that found no heap entry referred to an
    /// already-popped id and is stale by construction). Afterwards
    /// [`Calendar::len_upper_bound`] is exact.
    fn compact(&mut self) {
        let entries = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|e| !self.cancelled.remove(&e.seq))
            .collect();
        self.cancelled.clear();
        self.compactions += 1;
    }

    /// Removes cancelled entries from the top of the heap. Returns at
    /// once when nothing is cancelled, so calendars that never cancel pay
    /// no tombstone hash lookup per peek or pop.
    fn skip_tombstones(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Time of the next (non-cancelled) event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_tombstones();
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_tombstones();
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of entries currently stored, *including* not-yet-skipped
    /// tombstoned ones (an upper bound on pending events). Exact —
    /// i.e. equal to the number of pending events — immediately after a
    /// compaction, which runs whenever tombstones outnumber half the
    /// heap, so the bound is never off by more than `len_upper_bound / 2`.
    pub fn len_upper_bound(&self) -> usize {
        self.heap.len()
    }

    /// Number of tombstones currently buffered (diagnostic; bounded by
    /// `len_upper_bound / 2` thanks to compaction).
    pub fn tombstone_count(&self) -> usize {
        self.cancelled.len()
    }

    /// Number of tombstone-triggered heap rebuilds so far (diagnostic;
    /// surfaced through the telemetry layer as `des.compact` events).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether no pending (non-cancelled) events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
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
    fn cancellation_removes_event() {
        let mut cal = Calendar::new();
        let a = cal.schedule(t(1.0), "a");
        cal.schedule(t(2.0), "b");
        assert!(cal.cancel(a));
        assert!(!cal.cancel(a), "double cancel reports false");
        assert_eq!(cal.pop(), Some((t(2.0), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventId(42)));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut cal = Calendar::new();
        let a = cal.schedule(t(1.0), "a");
        cal.schedule(t(2.0), "b");
        cal.cancel(a);
        assert_eq!(cal.peek_time(), Some(t(2.0)));
        assert!(!cal.is_empty());
        cal.pop();
        assert!(cal.is_empty());
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
    fn mass_cancellation_compacts_the_heap() {
        let mut cal = Calendar::new();
        let ids: Vec<_> = (0..1000).map(|i| cal.schedule(t(i as f64), i)).collect();
        // Cancel the first 501 events. The 501st tombstone exceeds half
        // the heap (501 > 1000/2) and triggers a rebuild; throughout, the
        // tombstone set stays bounded by half the heap.
        for id in &ids[..501] {
            assert!(cal.cancel(*id));
            assert!(
                cal.tombstone_count() <= cal.len_upper_bound() / 2,
                "{} tombstones vs {} entries",
                cal.tombstone_count(),
                cal.len_upper_bound()
            );
        }
        assert_eq!(cal.len_upper_bound(), 499, "bound exact after compaction");
        assert_eq!(cal.tombstone_count(), 0, "tombstones flushed");
        // The survivors still pop in chronological order.
        for i in 501..1000 {
            assert_eq!(cal.pop(), Some((t(i as f64), i)));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn stale_tombstones_for_popped_events_do_not_leak() {
        // Cancelling an already-popped id leaves a tombstone that can
        // never match a heap entry; compaction must reclaim it instead of
        // letting the set grow for the lifetime of the calendar.
        let mut cal = Calendar::new();
        for round in 0..100 {
            let id = cal.schedule(t(round as f64), round);
            assert_eq!(cal.pop(), Some((t(round as f64), round)));
            cal.cancel(id); // stale: event already popped
        }
        assert_eq!(cal.len_upper_bound(), 0);
        assert_eq!(cal.tombstone_count(), 0, "stale tombstones reclaimed");
    }

    #[test]
    fn compaction_preserves_fifo_order_and_event_removal() {
        let mut cal = Calendar::new();
        let ids: Vec<_> = (0..8).map(|i| cal.schedule(t(1.0), i)).collect();
        // Cancelling 5 of 8 crosses the half-heap threshold mid-loop, so
        // compaction physically removes the cancelled entries; re-cancel
        // of a compacted-away id is then indistinguishable from cancel of
        // a popped id (best effort, like the pre-compaction behaviour for
        // popped events), but the event itself stays gone and the
        // survivors keep FIFO order.
        for id in &ids[..5] {
            assert!(cal.cancel(*id));
        }
        assert_eq!(cal.len_upper_bound(), 3);
        for i in 5..8 {
            assert_eq!(cal.pop(), Some((t(1.0), i)));
        }
        assert_eq!(cal.pop(), None);
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
