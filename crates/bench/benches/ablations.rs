//! Ablations of the design choices DESIGN.md calls out:
//!
//! * update order — Gauss–Seidel (paper) vs Jacobi (simultaneous);
//! * GOS decomposition — Sequential (paper-like, unfair) vs Uniform;
//! * deployment — sequential in-process solver vs the token-ring
//!   runtime and the asynchronous bounded-staleness runtime (message-
//!   passing overhead on the virtual network).

use criterion::{criterion_group, criterion_main, Criterion};
use lb_distributed::async_runtime::AsyncNash;
use lb_distributed::runtime::{DistributedNash, RingInit};
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver, UpdateOrder};
use lb_game::schemes::{Decomposition, GlobalOptimalScheme, LoadBalancingScheme};
use std::hint::black_box;

fn bench_update_order(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let mut group = c.benchmark_group("ablation_update_order");
    group.bench_function("gauss_seidel", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::GaussSeidel)
                .tolerance(1e-4)
                .max_iterations(5000)
                .solve(black_box(&model))
                .unwrap()
        });
    });
    // Jacobi (simultaneous) updates DIVERGE on the 10-user paper system
    // (see `nash::tests::jacobi_diverges_beyond_two_users_here`): all
    // users pile onto the same machines each round until saturation.
    // Bench it on the largest configuration where it still converges
    // (two users), as a best-case comparison.
    let model_2u =
        SystemModel::with_equal_users(SystemModel::table1_rates(), 2, 0.6).expect("valid");
    group.bench_function("jacobi_2_users_best_case", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::Jacobi)
                .tolerance(1e-4)
                .max_iterations(5000)
                .solve(black_box(&model_2u))
                .unwrap()
        });
    });
    group.bench_function("gauss_seidel_2_users", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .tolerance(1e-4)
                .max_iterations(5000)
                .solve(black_box(&model_2u))
                .unwrap()
        });
    });
    group.bench_function("random_permutation", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::RandomPermutation(7))
                .tolerance(1e-4)
                .max_iterations(5000)
                .solve(black_box(&model))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_gos_decomposition(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let mut group = c.benchmark_group("ablation_gos_decomposition");
    group.bench_function("sequential", |b| {
        b.iter(|| {
            GlobalOptimalScheme::new(Decomposition::Sequential)
                .compute(black_box(&model))
                .unwrap()
        });
    });
    group.bench_function("uniform", |b| {
        b.iter(|| {
            GlobalOptimalScheme::new(Decomposition::Uniform)
                .compute(black_box(&model))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_deployment(c: &mut Criterion) {
    let model = SystemModel::table1_system(0.6).unwrap();
    let mut group = c.benchmark_group("ablation_deployment");
    group.sample_size(10);
    group.bench_function("sequential_solver", |b| {
        b.iter(|| {
            NashSolver::new(Initialization::Proportional)
                .tolerance(1e-4)
                .solve(black_box(&model))
                .unwrap()
        });
    });
    group.bench_function("token_ring", |b| {
        b.iter(|| {
            DistributedNash::new()
                .init(RingInit::Proportional)
                .tolerance(1e-4)
                .run(black_box(&model))
                .unwrap()
        });
    });
    group.bench_function("async_healthy", |b| {
        b.iter(|| {
            let out = AsyncNash::new().run(&model).expect("async solve");
            assert!(out.converged(), "healthy async run must certify");
        });
    });
    group.finish();
}

fn bench_ring_scaling(c: &mut Criterion) {
    // Wall-clock of the ring as the user population grows (per-hop
    // message and coordinator overhead vs the sequential solver's loop).
    let mut group = c.benchmark_group("ablation_ring_scaling");
    group.sample_size(10);
    for m in [2usize, 8, 32] {
        let model =
            SystemModel::with_equal_users(SystemModel::table1_rates(), m, 0.6).expect("valid");
        group.bench_function(format!("{m}_users"), |b| {
            b.iter(|| {
                DistributedNash::new()
                    .init(RingInit::Proportional)
                    .tolerance(1e-4)
                    .max_rounds(5000)
                    .run(black_box(&model))
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_update_order,
    bench_gos_decomposition,
    bench_deployment,
    bench_ring_scaling
);
criterion_main!(benches);
