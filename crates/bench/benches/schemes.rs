//! Figures 4–6 as benchmarks: the cost of computing each scheme's
//! profile on the paper's workloads (the Table-1 utilization sweep and
//! the heterogeneity sweep), plus full figure regeneration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lb_experiments::{fig4, fig5, fig6};
use lb_game::model::SystemModel;
use lb_game::schemes::{
    GlobalOptimalScheme, IndividualOptimalScheme, LoadBalancingScheme, NashScheme,
    ProportionalScheme,
};
use std::hint::black_box;

fn bench_fig4_workload_per_scheme(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let schemes: Vec<Box<dyn LoadBalancingScheme>> = vec![
        Box::new(NashScheme::default()),
        Box::new(GlobalOptimalScheme::default()),
        Box::new(IndividualOptimalScheme),
        Box::new(ProportionalScheme),
    ];
    let mut group = c.benchmark_group("fig4_scheme_compute_rho60");
    for scheme in &schemes {
        group.bench_function(scheme.name(), |b| {
            b.iter(|| scheme.compute(black_box(&model)).unwrap());
        });
    }
    group.finish();
}

fn bench_fig6_skew_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_nash_vs_skew");
    for skew in [1u32, 4, 20] {
        let model = SystemModel::skewed_system(f64::from(skew), 0.6).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(skew), &skew, |b, _| {
            b.iter(|| NashScheme::default().compute(black_box(&model)).unwrap());
        });
    }
    group.finish();
}

fn bench_full_figures_analytic(c: &mut Criterion) {
    // Regenerating the complete analytic figures (what the CLI does).
    let mut group = c.benchmark_group("figure_regeneration");
    group.sample_size(10);
    group.bench_function("fig4_full_sweep", |b| {
        b.iter(|| fig4::run(None, None).unwrap());
    });
    group.bench_function("fig5_per_user", |b| {
        b.iter(|| fig5::run(None).unwrap());
    });
    group.bench_function("fig6_full_sweep", |b| {
        b.iter(|| fig6::run(None).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig4_workload_per_scheme,
    bench_fig6_skew_workload,
    bench_full_figures_analytic
);
criterion_main!(benches);
