//! The power-of-k sampled solver certifying a relative ε-Nash gap of
//! 1e-3 on n = 10,000 computers × m = 100,000 users — a scale where the
//! dense solvers cannot even hold a strategy profile (10⁹ fractions ≈
//! 8 GB). Every measured solve must certify, or the run panics.
//!
//! One id runs with the sampled trace pipeline attached (head sampler in
//! front of the JSONL encoder). Events are sparse relative to compute
//! here, so CI gates `threads_auto_traced` ÷ `threads_auto` < 1.10 from
//! this target's `CRITERION_JSON` summary.
//!
//! Each solve takes about a minute on a 2-vCPU host, so this target runs
//! for minutes even under `CRITERION_QUICK`.

use criterion::{criterion_group, criterion_main, Criterion};
use lb_game::model::SystemModel;
use lb_game::sampled::SampledNashSolver;
use lb_sim::parallel::ParallelRunner;
use lb_telemetry::{Collector, JsonlCollector, SamplingCollector, SamplingConfig};
use std::sync::Arc;

fn bench_nash_large_sampled(c: &mut Criterion) {
    let n = 10_000;
    let m = 100_000;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 97) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / m as f64;
    let model = SystemModel::new(rates, vec![phi; m]).unwrap();
    let auto_threads = ParallelRunner::from_env().threads();
    let certified = |solver: &SampledNashSolver| {
        let out = solver.solve(&model).expect("large sampled solve");
        out.iterations()
    };
    let mut g = c.benchmark_group("nash_large_sampled");
    for (id, threads) in [("threads_1", 1), ("threads_auto", auto_threads)] {
        g.bench_function(id, |b| {
            let solver = SampledNashSolver::new().epsilon(1e-3).threads(threads);
            b.iter(|| certified(&solver));
        });
    }
    g.bench_function("threads_auto_traced", |b| {
        let sink: Arc<dyn Collector> = Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let collector: Arc<dyn Collector> =
            Arc::new(SamplingCollector::new(sink, SamplingConfig::default()));
        let solver = SampledNashSolver::new()
            .epsilon(1e-3)
            .threads(auto_threads)
            .collector(collector);
        b.iter(|| certified(&solver));
    });
    g.finish();
}

criterion_group!(benches, bench_nash_large_sampled);
criterion_main!(benches);
