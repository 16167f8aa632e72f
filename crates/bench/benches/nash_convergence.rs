//! Figures 2–3 as benchmarks: wall-clock cost of computing the Nash
//! equilibrium with the NASH_0 and NASH_P initializations on the paper's
//! configurations (16 Table-1 computers; 10 heterogeneous or 4–32 equal
//! users; ε = 1e-4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use std::hint::black_box;

fn bench_fig2_initializations(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let mut group = c.benchmark_group("fig2_nash_table1_rho60");
    group.bench_function("NASH_0", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Zero)
                .tolerance(1e-4)
                .solve(black_box(&model))
                .unwrap()
        });
    });
    group.bench_function("NASH_P", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .tolerance(1e-4)
                .solve(black_box(&model))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_fig3_user_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_nash_vs_users");
    for m in [4usize, 8, 16, 32] {
        let model = SystemModel::with_equal_users(SystemModel::table1_rates(), m, 0.6).unwrap();
        group.bench_with_input(BenchmarkId::new("NASH_P", m), &m, |b, _| {
            b.iter(|| {
                NashSolver::new(Initialization::Proportional)
                    .tolerance(1e-4)
                    .max_iterations(5000)
                    .solve(black_box(&model))
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_utilization_effect(c: &mut Criterion) {
    // Convergence slows near saturation; quantify the cost growth.
    let mut group = c.benchmark_group("nash_vs_utilization");
    for rho_pct in [30u32, 60, 90] {
        let model = SystemModel::table1_system(f64::from(rho_pct) / 100.0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(rho_pct), &rho_pct, |b, _| {
            b.iter(|| {
                NashSolver::new(Initialization::Proportional)
                    .tolerance(1e-4)
                    .max_iterations(5000)
                    .solve(black_box(&model))
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2_initializations,
    bench_fig3_user_sweep,
    bench_utilization_effect
);
criterion_main!(benches);
