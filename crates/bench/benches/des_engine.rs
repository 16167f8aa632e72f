//! Simulator performance: event-calendar operations (with a sorted-Vec
//! baseline ablation), end-to-end M/M/1-bank throughput — the
//! substrate cost behind the paper's 1–2M-job runs — and one large
//! replication through each simulation engine (`sim_throughput_large`,
//! the jobs/s table in README and DESIGN.md §14).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lb_des::calendar::Calendar;
use lb_des::time::SimTime;
use lb_game::model::SystemModel;
use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};
use lb_sim::parallel::ParallelRunner;
use lb_sim::policies::{run_policy_replication, DispatchPolicy};
use lb_sim::scenario::{run_replication, SimulationConfig};
use lb_sim::shard::run_replication_sharded;
use std::hint::black_box;
use std::time::Duration;

/// Deterministic pseudo-random times for calendar stress.
fn times(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9E3779B97F4A7C15;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 1e6
        })
        .collect()
}

/// The naive baseline: keep a Vec sorted by insertion (binary search +
/// shift). O(n) insert, O(1) pop — loses badly once the pending set grows.
struct SortedVecCalendar {
    entries: Vec<(f64, u64)>,
    seq: u64,
}

impl SortedVecCalendar {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            seq: 0,
        }
    }

    fn schedule(&mut self, t: f64) {
        let key = (t, self.seq);
        self.seq += 1;
        // Descending so pop() takes the earliest from the back.
        let pos = self
            .entries
            .partition_point(|&(et, es)| (et, es) > (key.0, key.1));
        self.entries.insert(pos, key);
    }

    fn pop(&mut self) -> Option<(f64, u64)> {
        self.entries.pop()
    }
}

fn bench_calendar_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_calendar_10k_schedule_pop");
    let ts = times(10_000);
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut cal = Calendar::new();
            for &t in &ts {
                cal.schedule(SimTime::new(t), ());
            }
            while let Some(e) = cal.pop() {
                black_box(e);
            }
        });
    });
    group.bench_function("sorted_vec_baseline", |b| {
        b.iter(|| {
            let mut cal = SortedVecCalendar::new();
            for &t in &ts {
                cal.schedule(t);
            }
            while let Some(e) = cal.pop() {
                black_box(e);
            }
        });
    });
    group.finish();
}

fn bench_simulation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_mm1_bank_jobs");
    for jobs in [20_000u64, 100_000] {
        let model = SystemModel::table1_system(0.6).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let config = SimulationConfig {
            target_jobs: jobs,
            ..SimulationConfig::paper()
        };
        group.throughput(Throughput::Elements(jobs));
        group.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, _| {
            b.iter(|| {
                run_replication(
                    black_box(&model),
                    black_box(&profile),
                    config,
                    42,
                    None,
                    None,
                    |_, _| {},
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Seed shared by every engine in `sim_throughput_large`, so all three
/// cells simulate the same workload.
const SIM_THROUGHPUT_SEED: u64 = 42;

/// One large replication (n = 32 heterogeneous computers, m = 200 users,
/// ρ = 0.6) through each engine: the classic single-calendar reference,
/// and the sharded per-station engine at one thread and at the
/// [`ParallelRunner::from_env`] thread count.
fn bench_sim_throughput_large(c: &mut Criterion) {
    let n = 32;
    let m = 200;
    let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 17) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / m as f64;
    let model = SystemModel::new(rates, vec![phi; m]).unwrap();
    let profile = ProportionalScheme.compute(&model).unwrap();
    // 2M jobs per replication; a CRITERION_QUICK smoke pass trims the
    // horizon so the single-calendar baseline stays affordable.
    let quick = std::env::var_os("CRITERION_QUICK").is_some_and(|v| !v.is_empty() && v != "0");
    let config = SimulationConfig {
        target_jobs: if quick { 100_000 } else { 2_000_000 },
        ..SimulationConfig::paper()
    };
    let mut group = c.benchmark_group("sim_throughput_large");
    group.throughput(Throughput::Elements(config.target_jobs));
    // Six seconds time five or more 2M-job replications of the single
    // calendar (0.8–1.2 s each on a 2-vCPU host) and dozens of each
    // sharded cell's (under 150 ms each), so no cell is one sample.
    group.measurement_time(Duration::from_secs(6));
    let static_policy = DispatchPolicy::Static(profile.clone());
    group.bench_function("single_calendar_seed", |b| {
        b.iter(|| {
            run_policy_replication(
                &model,
                &static_policy,
                config,
                SIM_THROUGHPUT_SEED,
                None,
                |_, _| {},
            )
            .expect("single-calendar replication")
            .system_mean
        });
    });
    for (id, runner) in [
        ("sharded_threads_1", ParallelRunner::sequential()),
        ("sharded_threads_auto", ParallelRunner::from_env()),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                run_replication_sharded(&runner, &model, &profile, config, SIM_THROUGHPUT_SEED)
                    .expect("sharded replication")
                    .system_mean
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_calendar_ablation,
    bench_simulation_throughput,
    bench_sim_throughput_large
);
criterion_main!(benches);
