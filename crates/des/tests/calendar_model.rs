//! Model-based property test: the event calendar against a reference
//! implementation (a `BTreeMap` keyed on `(time, seq)`), under random
//! interleavings of schedule / peek / pop operations.

use lb_des::calendar::Calendar;
use lb_des::time::SimTime;
use proptest::prelude::*;
use std::collections::BTreeMap;

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
                    prop_assert_eq!(cal.is_empty(), expected.is_none());
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
