//! The telemetry cost ladder on the Table-1 NASH_P solve (ρ = 0.6): no
//! collector at all; an attached but *disabled* collector (one
//! `enabled()` check per instrumented section); an enabled
//! [`NullCollector`] (event assembly + virtual dispatch, no
//! serialization); a [`JsonlCollector`] writing to `io::sink` (the full
//! encode cost); and the head sampler in front of that encoder.
//!
//! CI runs this target five times, each with its own `CRITERION_JSON`
//! summary, and gates the median of each ratio against `none` over the
//! five: `disabled` must stay under 1.10×, and the cost `sampling_sink`
//! adds above `none` must be under 0.75× of the cost `jsonl_sink` adds,
//! `sampling/none − 1 < 0.75 × (jsonl/none − 1)`.

use criterion::{criterion_group, criterion_main, Criterion};
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_telemetry::{Collector, JsonlCollector, NullCollector, SamplingCollector, SamplingConfig};
use std::sync::Arc;

/// A collector that reports itself disabled: attaching it exercises the
/// pure "instrumentation compiled in but off" path (one `enabled()`
/// virtual call per instrumented section, zero event assembly).
struct DisabledCollector;

impl Collector for DisabledCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn emit(&self, _name: &'static str, _fields: &[lb_telemetry::Field]) {
        unreachable!("disabled collector never receives events");
    }
}

fn bench_collector_overhead(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let mut g = c.benchmark_group("nash_collector_overhead");
    g.bench_function("none", |b| {
        let solver = NashSolver::new(Initialization::Proportional);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("disabled", |b| {
        let solver =
            NashSolver::new(Initialization::Proportional).collector(Arc::new(DisabledCollector));
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("null_collector", |b| {
        let solver =
            NashSolver::new(Initialization::Proportional).collector(Arc::new(NullCollector));
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("jsonl_sink", |b| {
        let collector: Arc<dyn Collector> =
            Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let solver = NashSolver::new(Initialization::Proportional).collector(collector);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.bench_function("sampling_sink", |b| {
        // The full sampled pipeline: head sampler (hash + digest
        // bookkeeping per event) in front of the encode cost.
        let sink: Arc<dyn Collector> = Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let collector: Arc<dyn Collector> =
            Arc::new(SamplingCollector::new(sink, SamplingConfig::default()));
        let solver = NashSolver::new(Initialization::Proportional).collector(collector);
        b.iter(|| solver.solve(&model).expect("solve"));
    });
    g.finish();
}

criterion_group!(benches, bench_collector_overhead);
criterion_main!(benches);
