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
/// assert_eq!(cal.pop(), Some((SimTime::new(1.0), "early")));
/// assert_eq!(cal.pop(), Some((SimTime::new(2.0), "late")));
/// assert_eq!(cal.pop(), None);
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
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
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
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    // Model-based property test: the calendar against a reference
    // implementation (a `BTreeMap` keyed on `(time, seq)`), under random
    // interleavings of schedule / peek / pop operations.

    /// Operations the fuzzer can apply.
    #[derive(Debug, Clone)]
    enum Op {
        /// Schedule at the given (quantized) time.
        Schedule(u32),
        /// Read the earliest pending time without popping.
        Peek,
        /// Pop the earliest event.
        Pop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u32..1000).prop_map(Op::Schedule),
            1 => Just(Op::Peek),
            2 => Just(Op::Pop),
        ]
    }

    /// Reference model: ordered map from (time, insertion order) to payload.
    #[derive(Default)]
    struct Reference {
        entries: BTreeMap<(u64, u64), u64>,
        next_seq: u64,
    }

    impl Reference {
        fn schedule(&mut self, time: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.insert((time, seq), seq);
            seq
        }

        fn peek_time(&self) -> Option<u64> {
            self.entries.keys().next().map(|&(time, _)| time)
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let key = *self.entries.keys().next()?;
            self.entries.remove(&key);
            Some(key)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn calendar_matches_btreemap_reference(ops in prop::collection::vec(arb_op(), 1..200)) {
            let mut cal: Calendar<u64> = Calendar::new();
            let mut reference = Reference::default();

            for op in ops {
                match op {
                    Op::Schedule(t) => {
                        let t = u64::from(t);
                        let seq = reference.schedule(t);
                        cal.schedule(SimTime::new(t as f64), seq);
                    }
                    Op::Peek => {
                        let got = cal.peek_time().map(|time| time.as_secs());
                        let expected = reference.peek_time().map(|t| t as f64);
                        prop_assert_eq!(got, expected, "peek diverged");
                        prop_assert_eq!(cal.len(), reference.entries.len());
                    }
                    Op::Pop => {
                        let got = cal.pop();
                        let expected = reference.pop();
                        match (got, expected) {
                            (None, None) => {}
                            (Some((time, payload)), Some((t, seq))) => {
                                prop_assert_eq!(time.as_secs(), t as f64);
                                prop_assert_eq!(payload, seq);
                            }
                            other => prop_assert!(false, "pop diverged: {:?}", other),
                        }
                    }
                }
            }

            // Drain both to the end: remaining sequences must match exactly.
            loop {
                let got = cal.pop();
                let expected = reference.pop();
                match (got, expected) {
                    (None, None) => break,
                    (Some((time, payload)), Some((t, seq))) => {
                        prop_assert_eq!(time.as_secs(), t as f64);
                        prop_assert_eq!(payload, seq);
                    }
                    other => prop_assert!(false, "drain diverged: {:?}", other),
                }
            }
        }

        #[test]
        fn pops_are_globally_sorted(times in prop::collection::vec(0u32..10_000, 1..500)) {
            let mut cal = Calendar::new();
            for &t in &times {
                cal.schedule(SimTime::new(f64::from(t)), t);
            }
            let mut prev = -1.0f64;
            let mut count = 0;
            while let Some((time, _)) = cal.pop() {
                prop_assert!(time.as_secs() >= prev);
                prev = time.as_secs();
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }
    }
}
