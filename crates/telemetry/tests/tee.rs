//! Regression tests for [`TeeCollector`] ordering guarantees.
//!
//! Each underlying sink stamps its own `seq`/`t_us` from arrival order,
//! so the tee must hand every enabled child the *same* event order even
//! under concurrent emitters, and must keep delivering a monotone
//! stream to the enabled side when the other side is `enabled() ==
//! false`. Before the fan-out was made atomic, two threads could be
//! interleaved differently by different children, making the sinks'
//! sequence numbers disagree about event order.

// Concurrent emitters are what these tests exercise, not a fan-out of
// work, so they spawn their threads directly.
#![allow(clippy::disallowed_methods)]

use lb_telemetry::{parse_log, Collector, Field, JsonlCollector, TeeCollector};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A shared growable byte sink for reading a collector's output back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A collector that reports itself disabled; receiving any event is a
/// test failure.
struct DisabledSink;

impl Collector for DisabledSink {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&self, name: &'static str, _fields: &[Field]) {
        panic!("disabled child received event `{name}`");
    }
}

/// Event names per sink, in the order the sink recorded them.
fn recorded_order(text: &str) -> Vec<String> {
    let log = parse_log(text).expect("sink output is schema-valid");
    log.events.iter().map(|e| e.name.clone()).collect()
}

const EMITTERS: usize = 4;
const EVENTS_PER_EMITTER: usize = 250;

/// The event names thread `t` emits (a distinct static name per thread
/// so the recorded interleaving is observable).
fn name_for(t: usize) -> &'static str {
    ["tee.a", "tee.b", "tee.c", "tee.d"][t]
}

#[test]
fn concurrent_emits_reach_all_sinks_in_one_order() {
    let buf_a = SharedBuf::default();
    let buf_b = SharedBuf::default();
    let tee = Arc::new(TeeCollector::new(vec![
        Arc::new(JsonlCollector::new(Box::new(buf_a.clone()))),
        Arc::new(JsonlCollector::new(Box::new(buf_b.clone()))),
    ]));

    std::thread::scope(|s| {
        for t in 0..EMITTERS {
            let tee = Arc::clone(&tee);
            s.spawn(move || {
                for i in 0..EVENTS_PER_EMITTER {
                    tee.emit(name_for(t), &[("i", (i as u64).into())]);
                }
            });
        }
    });
    tee.flush();

    // Both sinks parse (strictly increasing `seq`, non-decreasing
    // `t_us`) and recorded the *identical* event order, so their
    // sequence numbers agree about which event happened first.
    let order_a = recorded_order(&buf_a.contents());
    let order_b = recorded_order(&buf_b.contents());
    assert_eq!(order_a.len(), EMITTERS * EVENTS_PER_EMITTER);
    assert_eq!(order_a, order_b, "sinks disagree about event order");
}

#[test]
fn one_disabled_side_keeps_the_enabled_sink_monotone() {
    let buf = SharedBuf::default();
    let tee = Arc::new(TeeCollector::new(vec![
        Arc::new(DisabledSink) as Arc<dyn Collector>,
        Arc::new(JsonlCollector::new(Box::new(buf.clone()))),
    ]));
    assert!(tee.enabled(), "one enabled child keeps the tee enabled");

    std::thread::scope(|s| {
        for t in 0..EMITTERS {
            let tee = Arc::clone(&tee);
            s.spawn(move || {
                for i in 0..EVENTS_PER_EMITTER {
                    tee.emit(name_for(t), &[("i", (i as u64).into())]);
                }
            });
        }
    });
    tee.flush();

    // The enabled sink saw every event, in a single monotone stream —
    // parse_log enforces strictly increasing `seq` and non-decreasing
    // `t_us`. The disabled sink (checked inside `DisabledSink::emit`)
    // saw nothing.
    let log = parse_log(&buf.contents()).expect("enabled sink output is schema-valid");
    assert_eq!(log.events.len(), EMITTERS * EVENTS_PER_EMITTER);
    for (i, ev) in log.events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "gap in the enabled sink's seq");
    }
}

#[test]
fn spans_through_a_tee_stay_causally_valid_per_sink() {
    use lb_telemetry::Span;

    let buf = SharedBuf::default();
    let jsonl: Arc<dyn Collector> = Arc::new(JsonlCollector::new(Box::new(buf.clone())));
    let tee: Arc<dyn Collector> = Arc::new(TeeCollector::new(vec![
        Arc::new(DisabledSink) as Arc<dyn Collector>,
        jsonl,
    ]));

    let root = Span::root(Some(&tee), "tee.root", &[]).expect("tee is enabled");
    let child = root.child("tee.child", &[]);
    child.close();
    root.close();
    tee.flush();

    // parse_log validates the span causality rules of schema v2, so a
    // torn fan-out (open delivered, close dropped or reordered) fails.
    let log = parse_log(&buf.contents()).unwrap();
    assert_eq!(log.count("span_open"), 2);
    assert_eq!(log.count("span_close"), 2);
}
