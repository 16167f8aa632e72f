//! Unit-cost probes and single-thread baselines.
//!
//! Each probe times one public function of one layer on input shaped
//! like the workload that loads the layer, so `count × unit cost` can be
//! held against an untraced op. The inputs depend on the layer and the
//! seed, never on the workload being run, so every traced run measures
//! the same probes; the baselines (thread speed-ups, virtual time to a
//! certificate) are tied to no workload either. Two paths whose ops are
//! too slow or too host-bound for a steady end-to-end figure, the
//! web-scale sampled solve and the async certification under chaos, are
//! run here too: their counts are per probed solve or certification, and
//! each result is checked like a workload op.

use crate::recorder::{Counter, Recorder};
use crate::util::{derive, median, ns_per_unit, splitmix64};
use crate::workloads::{fig4::Fig4, ratio, Counts, Ctx, Workload, PAPER_LOADS};
use crate::{chaos, web};
use lb_des::{
    run_station_shard, AliasTable, Calendar, Distribution, RngStream, ShardSpec, SimTime,
    DEFAULT_SHARD_BATCH,
};
use lb_distributed::net::VirtualNet;
use lb_game::best_reply::{water_fill_flows_into, WaterFillScratch};
use lb_game::dynamics::{DynamicBalancer, Restart};
use lb_game::model::SystemModel;
use lb_game::nash::{jacobi_round, Initialization, NashSolver};
use lb_game::schemes::{LoadBalancingScheme, ProportionalScheme};
use lb_game::stopping::{profile_certificate, user_regret};
use lb_game::strategy::StrategyProfile;
use lb_telemetry::{Collector, JsonlCollector, SamplingCollector, SamplingConfig, Span};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds each unit-cost probe measures for.
const PROBE_S: f64 = 0.1;

/// Async certifications under chaos per traced run.
const CHAOS_RUNS: u64 = 9;

/// Probed unit costs (ns) and baseline ratios.
#[derive(Debug, Clone, Default)]
pub struct Costs {
    /// `water_fill_flows_into` on Table-1 availability vectors (n = 16).
    pub wf_dense_ns: f64,
    /// `water_fill_flows_into` on 288 sparse web-scale candidates.
    pub wf_sparse_ns: f64,
    /// `user_regret` on Table-1 equilibrium rows.
    pub user_regret_ns: f64,
    /// `profile_certificate` on Table-1 equilibria.
    pub certificate_ns: f64,
    /// A NASH_P Table-1 solve at ρ = 0.6, per sweep.
    pub sweep_ns: f64,
    /// `RngStream::fill_exponential` in `DEFAULT_SHARD_BATCH` blocks, per draw.
    pub draw_ns: f64,
    /// `Calendar` schedule + pop at shard depth.
    pub calendar_ns: f64,
    /// `run_station_shard` on a Table-1 station, per executed event.
    pub shard_event_ns: f64,
    /// `VirtualNet::send` + `step` under the chaos plan, per message.
    pub net_message_ns: f64,
    /// The benchmark recorder's cost per event.
    pub recorder_event_ns: f64,
    /// Counting collector ÷ none, NASH_P Table-1 solve at ρ = 0.6.
    pub count_overhead: f64,
    /// `JsonlCollector` into `io::sink` ÷ none, same solve.
    pub jsonl_overhead: f64,
    /// `SamplingCollector` over that JSONL sink ÷ none, same solve.
    pub sampling_overhead: f64,
    /// Warm-restart sweeps ÷ cold sweeps over the capacity changes of
    /// table1-control's warm re-solves at ρ = 0.6.
    pub warm_vs_cold_sweeps: f64,
    /// One web-scale sampled solve at 1 thread ÷ at nproc threads.
    pub sampled_speedup: f64,
    /// One fig4 cell at 1 thread ÷ at nproc threads.
    pub sim_speedup: f64,
    /// `sim_speedup` ÷ the workers the cell can use.
    pub sim_efficiency: f64,
    /// Idle share of the fig4 pool's workers.
    pub sim_idle_share: f64,
    /// `jacobi_round` on Table-1, 1 thread ÷ nproc threads.
    pub jacobi_table1_speedup: f64,
    /// `jacobi_round` on n = 1,000 × m = 10,000, 1 thread ÷ nproc.
    pub jacobi_web_speedup: f64,
    /// Median virtual time to the certificate over the probed
    /// certifications under chaos.
    pub virtual_cert_ms: f64,
    /// Per-layer counts of the probed paths: `game.sampled.*` per
    /// web-scale solve, `distributed.*` per certification under chaos.
    pub paths: Counts,
}

fn probe<T>(parent: Option<&Span>, layer: &'static str, f: impl FnOnce() -> T) -> T {
    let span = parent.map(|p| p.child("bench.probe", &[("layer", layer.into())]));
    let out = f();
    drop(span);
    out
}

/// Table-1 equilibria at the paper's loads.
fn table1_equilibria() -> Result<Vec<(SystemModel, StrategyProfile)>, String> {
    PAPER_LOADS
        .iter()
        .map(|&rho| {
            let model = SystemModel::table1_system(rho).map_err(|e| e.to_string())?;
            let profile = NashSolver::new(Initialization::Proportional)
                .solve(&model)
                .map_err(|e| e.to_string())?
                .into_profile();
            Ok((model, profile))
        })
        .collect()
}

/// `(rates, loads, row, φ)` for every user of every equilibrium.
type DenseInput = (Vec<f64>, Vec<f64>, Vec<f64>, f64);

fn dense_inputs(eq: &[(SystemModel, StrategyProfile)]) -> Result<Vec<DenseInput>, String> {
    let mut out = Vec::new();
    for (model, profile) in eq {
        let loads = profile.computer_flows(model).map_err(|e| e.to_string())?;
        for j in 0..model.num_users() {
            let phi = model.user_rate(j);
            let row: Vec<f64> = profile
                .strategy(j)
                .fractions()
                .iter()
                .map(|s| s * phi)
                .collect();
            out.push((model.computer_rates().to_vec(), loads.clone(), row, phi));
        }
    }
    Ok(out)
}

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn speedup(one: &[f64], many: &[f64]) -> f64 {
    let (a, b) = (median(one), median(many));
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs every probe and baseline. Probe spans go under `parent`.
pub fn measure(ctx: Ctx, parent: Option<&Span>) -> Result<Costs, String> {
    let mut c = Costs::default();
    let eq = table1_equilibria()?;
    let dense = dense_inputs(&eq)?;

    c.wf_dense_ns = probe(parent, "game.best_reply.dense", || {
        let avail: Vec<(Vec<f64>, f64)> = dense
            .iter()
            .map(|(rates, loads, row, phi)| {
                let a = (0..rates.len())
                    .map(|i| rates[i] - (loads[i] - row[i]))
                    .collect();
                (a, *phi)
            })
            .collect();
        let mut scratch = WaterFillScratch::default();
        let mut out = Vec::new();
        ns_per_unit(PROBE_S, || {
            for (a, phi) in &avail {
                water_fill_flows_into(a, *phi, &mut scratch, &mut out).expect("feasible reply");
                black_box(&out);
            }
            avail.len() as u64
        })
    });

    let model = web::web_model()?;
    c.wf_sparse_ns = probe(parent, "game.best_reply.sparse", || {
        let phi = model.user_rate(0);
        let vectors: Vec<Vec<f64>> = (0..32)
            .map(|v| {
                let mut picked = vec![false; model.num_computers()];
                let mut avail = Vec::with_capacity(288);
                let mut k = 0u64;
                while avail.len() < 288 {
                    let i = (splitmix64(derive(ctx.seed, 0x5BA2, v) ^ k) % web::COMPUTERS as u64)
                        as usize;
                    k += 1;
                    if !picked[i] {
                        picked[i] = true;
                        avail.push(0.4 * model.computer_rate(i));
                    }
                }
                avail
            })
            .collect();
        let mut scratch = WaterFillScratch::default();
        let mut out = Vec::new();
        ns_per_unit(PROBE_S, || {
            for a in &vectors {
                water_fill_flows_into(a, phi, &mut scratch, &mut out).expect("feasible reply");
                black_box(&out);
            }
            vectors.len() as u64
        })
    });

    c.user_regret_ns = probe(parent, "game.stopping.user_regret", || {
        ns_per_unit(PROBE_S, || {
            for (rates, loads, row, phi) in &dense {
                black_box(user_regret(rates, loads, row, *phi));
            }
            dense.len() as u64
        })
    });
    c.certificate_ns = probe(parent, "game.stopping.certificate", || {
        ns_per_unit(PROBE_S, || {
            for (model, profile) in &eq {
                black_box(profile_certificate(model, profile).expect("shapes agree"));
            }
            eq.len() as u64
        })
    });

    let (rho60, _) = &eq[5];
    let nash_p = NashSolver::new(Initialization::Proportional);
    c.sweep_ns = probe(parent, "game.nash.sweep", || {
        ns_per_unit(PROBE_S, || {
            u64::from(nash_p.solve(rho60).expect("solve").iterations())
        })
    });

    // The telemetry cost ladder on that solve.
    probe(parent, "telemetry.ladder", || {
        let solve_ns = |solver: &NashSolver| {
            ns_per_unit(PROBE_S, || {
                black_box(solver.solve(rho60).expect("solve").iterations());
                1
            })
        };
        let none = solve_ns(&nash_p);
        let counter: Arc<dyn Collector> = Arc::new(Counter::default());
        let jsonl =
            || -> Arc<dyn Collector> { Arc::new(JsonlCollector::new(Box::new(std::io::sink()))) };
        let sampling: Arc<dyn Collector> =
            Arc::new(SamplingCollector::new(jsonl(), SamplingConfig::default()));
        c.count_overhead = solve_ns(&nash_p.clone().collector(counter)) / none;
        c.jsonl_overhead = solve_ns(&nash_p.clone().collector(jsonl())) / none;
        c.sampling_overhead = solve_ns(&nash_p.clone().collector(sampling)) / none;
    });
    c.recorder_event_ns = probe(parent, "telemetry.recorder", || {
        let fields: Vec<lb_telemetry::Field> = vec![
            ("iter", 3u64.into()),
            ("norm", 0.25.into()),
            ("max_d_delta", 0.125.into()),
            ("wf_prefix_min", 4u64.into()),
            ("wf_prefix_max", 16u64.into()),
            ("wf_prefix_mean", 9.5.into()),
            ("refreshes", 4u64.into()),
            ("stopping", "certified_gap".into()),
            ("converged", false.into()),
        ];
        ns_per_unit(PROBE_S, || {
            let rec = Recorder::new(1_000);
            for _ in 0..1_000 {
                rec.emit("solver.sweep", &fields);
            }
            black_box(rec.total())
        })
    });

    c.draw_ns = probe(parent, "des.rng", || {
        let mut rng = RngStream::new(derive(ctx.seed, 0xD4A3, 0), 0);
        let mut buf = vec![0.0; DEFAULT_SHARD_BATCH];
        ns_per_unit(PROBE_S, || {
            rng.fill_exponential(50.0, &mut buf);
            black_box(&buf);
            buf.len() as u64
        })
    });
    c.calendar_ns = probe(parent, "des.calendar", || {
        let mut rng = RngStream::new(derive(ctx.seed, 0xCA1E, 0), 0);
        let mut cal: Calendar<u32> = Calendar::new();
        let mut t = SimTime::ZERO;
        for k in 0..=DEFAULT_SHARD_BATCH as u32 {
            t = t + rng.exponential(50.0);
            cal.schedule(t, k);
        }
        ns_per_unit(PROBE_S, || {
            let (at, e) = cal.pop().expect("calendar stays at shard depth");
            cal.schedule(at + rng.exponential(50.0) * DEFAULT_SHARD_BATCH as f64, e);
            1
        })
    });
    c.shard_event_ns = probe(parent, "des.shard", || shard_event_ns(ctx, &eq[5]))?;
    c.net_message_ns = probe(parent, "distributed.net", || {
        let mut net: VirtualNet<Vec<f64>> =
            VirtualNet::new(11, derive(ctx.seed, 0x4E7, 0), chaos::fault_plan());
        let row = vec![1.0; 16];
        let mut k = 0usize;
        for _ in 0..32 {
            net.send(k % 11, (k + 1) % 11, row.clone());
            k += 1;
        }
        ns_per_unit(PROBE_S, || {
            net.send(k % 11, (k * 7 + 3) % 11, row.clone());
            k += 1;
            black_box(net.step());
            1
        })
    });

    c.warm_vs_cold_sweeps = probe(parent, "game.dynamics", || warm_vs_cold(&eq[5].0))?;

    // Baselines: the thread-count questions, tied to no workload.
    c.jacobi_table1_speedup = probe(parent, "baseline.jacobi", || {
        let (model, profile) = &eq[5];
        let round_ns = |threads| {
            ns_per_unit(PROBE_S, || {
                black_box(jacobi_round(model, profile, threads).expect("round"));
                1
            })
        };
        round_ns(1) / round_ns(ctx.nproc)
    });
    c.jacobi_web_speedup = probe(parent, "baseline.jacobi_web", || jacobi_web(ctx.nproc))?;
    c.sampled_speedup = probe(parent, "baseline.sampled", || -> Result<f64, String> {
        let (one, r) = secs(|| web::solver(ctx.seed, 1).solve(&model));
        r.map_err(|e| format!("sampled solve: {e}"))?;
        // The solver emits a handful of events per sweep, so the recorder
        // that counts the nproc solve costs it nothing measurable.
        let rec = Arc::new(Recorder::new(0));
        let counted: Arc<dyn Collector> = rec.clone();
        let (many, out) = secs(|| {
            web::solver(ctx.seed, ctx.nproc)
                .collector(counted)
                .solve(&model)
        });
        let out = out.map_err(|e| format!("sampled solve: {e}"))?;
        web::check(&model, &out)?;
        c.paths.extend(web::counts(&out, &rec));
        Ok(one / many)
    })?;
    probe(parent, "baseline.sim_parallel", || -> Result<(), String> {
        let mut f = Fig4::setup(ctx)?;
        let one = secs(|| f.op(0, 1, None)).0;
        let many = secs(|| f.op(0, ctx.nproc, None)).0;
        c.sim_speedup = one / many;
        let workers = ctx.nproc.min(crate::workloads::fig4::REPLICATIONS as usize);
        c.sim_efficiency = c.sim_speedup / workers as f64;
        let rec = Arc::new(Recorder::new(0));
        let traced: Arc<dyn Collector> = rec.clone();
        f.op(0, ctx.nproc, Some(&traced))?;
        let busy = rec.sum("runner.worker", "busy_us");
        let idle = rec.sum("runner.worker", "idle_us");
        c.sim_idle_share = ratio(idle, busy + idle);
        Ok(())
    })?;
    c.virtual_cert_ms = probe(
        parent,
        "baseline.virtual_time",
        || -> Result<f64, String> {
            let model = chaos::chaos_model()?;
            let reference = chaos::Reference::solve(&model)?;
            let mut outs = Vec::new();
            for i in 0..CHAOS_RUNS {
                let out = chaos::run(&model, ctx.seed, i, ctx.nproc)?;
                reference.check(&model, &out)?;
                outs.push(out);
            }
            c.paths.extend(chaos::counts(&outs));
            let virtual_ms: Vec<f64> = outs
                .iter()
                .map(|o| o.virtual_time_us() as f64 / 1e3)
                .collect();
            Ok(median(&virtual_ms))
        },
    )?;
    Ok(c)
}

/// `run_station_shard` on the fastest Table-1 station at ρ = 0.6, per
/// executed event. The event count comes from one counted run (its
/// `account.des` event); the timed runs attach no collector.
fn shard_event_ns(ctx: Ctx, eq: &(SystemModel, StrategyProfile)) -> Result<f64, String> {
    let (model, profile) = eq;
    let station = model.num_computers() - 1;
    let weights: Vec<f64> = (0..model.num_users())
        .map(|j| profile.strategy(j).fraction(station) * model.user_rate(j))
        .collect();
    let rate: f64 = weights.iter().sum();
    let horizon = 20_000.0 / rate;
    let spec = ShardSpec {
        arrival_rate: rate,
        service: Distribution::exp_with_rate(model.computer_rate(station)),
        horizon: SimTime::new(horizon),
        warmup: SimTime::new(0.1 * horizon),
        users: model.num_users(),
        batch: DEFAULT_SHARD_BATCH,
    };
    let table = AliasTable::new(&weights);
    let base = derive(ctx.seed, 0x5A4D, 0);
    let run = |collector: Option<&Arc<dyn Collector>>| {
        let mut a = RngStream::new(base, 0);
        let mut s = RngStream::new(base, 1);
        let mut u = RngStream::new(base, 2);
        run_station_shard(
            &spec,
            &table,
            &mut a,
            &mut s,
            &mut u,
            collector,
            None,
            |_, _| {},
        )
    };
    let rec = Arc::new(Recorder::new(0));
    let counted: Arc<dyn Collector> = rec.clone();
    run(Some(&counted));
    let events = rec.sum("account.des", "executed") as u64;
    if events == 0 {
        return Err("station shard probe executed no events".into());
    }
    Ok(ns_per_unit(PROBE_S, || {
        black_box(run(None).jobs_generated);
        events
    }))
}

/// Warm ÷ cold sweeps over halving and restoring each computer at ρ = 0.6.
fn warm_vs_cold(model: &SystemModel) -> Result<f64, String> {
    let nominal = model.computer_rates().to_vec();
    let mut sweeps = [0.0; 2];
    for (slot, restart) in [Restart::Warm, Restart::Cold].into_iter().enumerate() {
        let mut b = DynamicBalancer::new(model.clone(), crate::workloads::table1::EPSILON)
            .map_err(|e| e.to_string())?;
        for k in 0..nominal.len() {
            let mut halved = nominal.clone();
            halved[k] *= 0.5;
            for rates in [&halved, &nominal] {
                let step = b
                    .update_capacity(rates, crate::workloads::table1::POLICY, restart)
                    .map_err(|e| e.to_string())?;
                sweeps[slot] += f64::from(step.rebalance.iterations);
            }
        }
    }
    Ok(sweeps[0] / sweeps[1])
}

/// `jacobi_round` on the dense n = 1,000 × m = 10,000 system from its
/// proportional profile (about 80 MB per dense copy), 1 thread ÷ nproc.
fn jacobi_web(nproc: usize) -> Result<f64, String> {
    let model = web::web_model()?;
    let profile = ProportionalScheme
        .compute(&model)
        .map_err(|e| e.to_string())?;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (s, r) = secs(|| jacobi_round(&model, &profile, 1).map(drop));
        r.map_err(|e| e.to_string())?;
        one.push(s);
        let (s, r) = secs(|| jacobi_round(&model, &profile, nproc).map(drop));
        r.map_err(|e| e.to_string())?;
        many.push(s);
    }
    Ok(speedup(&one, &many))
}
