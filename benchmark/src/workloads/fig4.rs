//! `fig4-simulate`: one (scheme, ρ) cell of Figure 4 simulated at full
//! fidelity with the paper's methodology (five replications of about a
//! million jobs), fanned out over `ParallelRunner::new(threads)`.
//!
//! The paper's run length is what makes the correctness gate sound:
//! at 100,000 jobs per replication the empty-start transient of the
//! ρ = 0.9 stations (relaxation time ≈ 40 s against a 22 s warm-up)
//! biases IOS at ρ = 0.9 about 2% low, and one cell in forty seeds
//! missed the 95% half-width plus 5% allowance; at a million jobs the
//! worst of 24 such cells used 0.29 of it.

use super::{ratio, Counts, Ctx, Row, Workload, PAPER_LOADS, WARM_UP_BASE};
use crate::probes::Costs;
use crate::recorder::Recorder;
use crate::util::{derive, shuffled};
use lb_game::metrics::evaluate_profile;
use lb_game::model::SystemModel;
use lb_game::schemes::paper_schemes;
use lb_game::strategy::StrategyProfile;
use lb_sim::harness::{simulate_profile_traced, simulate_profile_with};
use lb_sim::parallel::ParallelRunner;
use lb_sim::scenario::SimulationConfig;
use lb_stats::ReplicationPlan;
use lb_telemetry::Collector;
use std::sync::Arc;

/// Jobs the warm-up simulates per replication: enough to run every code
/// path and worker of an op at a tenth of its length.
const WARM_UP_JOBS: u64 = 100_000;
/// Replications per cell (the paper's five).
pub const REPLICATIONS: u32 = 5;
/// Slack on top of the 95% half-width when the simulated mean is held
/// against the analytic response time: 5% of the analytic value.
const ANALYTIC_SLACK: f64 = 0.05;

struct Cell {
    load: usize,
    scheme: &'static str,
    profile: StrategyProfile,
    analytic: f64,
}

/// The Figure-4 grid: NASH, GOS, IOS and PS on Table-1 at nine loads.
pub struct Fig4 {
    ctx: Ctx,
    models: Vec<SystemModel>,
    cells: Vec<Cell>,
    order: Vec<usize>,
    order_cycle: u64,
}

/// A simulated cell's estimate.
pub struct Fig4Out {
    cell: usize,
    mean: f64,
    half_width: f64,
}

impl Fig4 {
    /// Simulates op `i`'s cell at `config`; `trace` attaches a collector.
    fn simulate(
        &self,
        cell: usize,
        i: u64,
        config: SimulationConfig,
        threads: usize,
        trace: Option<&Arc<dyn Collector>>,
    ) -> Result<Fig4Out, String> {
        let c = &self.cells[cell];
        let plan = ReplicationPlan {
            replications: REPLICATIONS,
            base_seed: derive(self.ctx.seed, 0xF164, i),
            ..ReplicationPlan::paper()
        };
        let runner = ParallelRunner::new(threads);
        let model = &self.models[c.load];
        let metrics = match trace {
            None => simulate_profile_with(&runner, model, &c.profile, &plan, config),
            Some(t) => simulate_profile_traced(&runner, model, &c.profile, &plan, config, Some(t)),
        }
        .map_err(|e| format!("simulate {} at load {}: {e}", c.scheme, PAPER_LOADS[c.load]))?;
        Ok(Fig4Out {
            cell,
            mean: metrics.system_summary.mean,
            half_width: metrics.system_summary.half_width,
        })
    }
}

impl Workload for Fig4 {
    type Out = Fig4Out;

    fn setup(ctx: Ctx) -> Result<Self, String> {
        let mut models = Vec::new();
        let mut cells = Vec::new();
        for (load, &rho) in PAPER_LOADS.iter().enumerate() {
            let model = SystemModel::table1_system(rho).map_err(|e| e.to_string())?;
            for scheme in paper_schemes() {
                let profile = scheme.compute(&model).map_err(|e| e.to_string())?;
                let analytic = evaluate_profile(&model, &profile)
                    .map_err(|e| e.to_string())?
                    .overall_time;
                cells.push(Cell {
                    load,
                    scheme: scheme.name(),
                    profile,
                    analytic,
                });
            }
            models.push(model);
        }
        Ok(Self {
            ctx,
            models,
            cells,
            order: Vec::new(),
            order_cycle: u64::MAX,
        })
    }

    /// A run covers about a third of the 36 cells, in a seeded order; at
    /// a million jobs per replication every cell costs about the same
    /// per job, so runs need not end on a full cycle.
    fn cycle(&self) -> u64 {
        1
    }

    fn warm_up(&mut self, threads: usize) -> Result<(), String> {
        let config = SimulationConfig {
            target_jobs: WARM_UP_JOBS,
            ..SimulationConfig::paper()
        };
        self.simulate(0, WARM_UP_BASE, config, threads, None)
            .map(drop)
    }

    fn op(
        &mut self,
        i: u64,
        threads: usize,
        trace: Option<&Arc<dyn Collector>>,
    ) -> Result<Fig4Out, String> {
        let cells = self.cells.len() as u64;
        if i / cells != self.order_cycle {
            self.order_cycle = i / cells;
            self.order = shuffled(self.cells.len(), self.ctx.seed, 0xF16C, self.order_cycle);
        }
        let cell = self.order[(i % cells) as usize];
        self.simulate(cell, i, SimulationConfig::paper(), threads, trace)
    }

    fn check(&self, out: &Fig4Out) -> Result<(), String> {
        let c = &self.cells[out.cell];
        let allowance = out.half_width + ANALYTIC_SLACK * c.analytic;
        let error = (out.mean - c.analytic).abs();
        if error <= allowance {
            Ok(())
        } else {
            Err(format!(
                "{} at load {}: simulated {:.6} vs analytic {:.6} (allowance {:.6})",
                c.scheme, PAPER_LOADS[c.load], out.mean, c.analytic, allowance
            ))
        }
    }

    fn work(&self, _out: &Fig4Out) -> f64 {
        f64::from(REPLICATIONS) * SimulationConfig::paper().target_jobs as f64
    }

    /// A 55-second run holds 40 to 55 cells, so p75 keeps ten beyond it.
    fn tail_quantile(&self) -> f64 {
        0.75
    }

    fn tally(&self, _out: &Fig4Out, _counts: &mut Counts) {}

    fn layer_counts(&self, _tally: &Counts, rec: &Recorder, ops: f64) -> Counts {
        let jobs = rec.sum("sim.replication", "jobs");
        let draws = rec.sum("account.des", "rng_draws");
        let scheduled = rec.sum("account.des", "scheduled");
        let executed = rec.sum("account.des", "executed");
        let mut c = Counts::new();
        c.insert("des.rng.draws_per_job", ratio(draws, jobs));
        c.insert("des.calendar.scheduled_per_job", ratio(scheduled, jobs));
        c.insert("des.shard.events_per_job", ratio(executed, jobs));
        c.insert("_des.draws", draws / ops);
        c.insert("_des.scheduled", scheduled / ops);
        c.insert("_des.executed", executed / ops);
        c
    }

    /// Unit costs are single-thread costs, so each count is divided by
    /// the measured fan-out speed-up to compare with the op's wall time.
    fn rows(&self, counts: &Counts, costs: &Costs) -> Vec<Row> {
        let get = |k: &str| counts.get(k).copied().unwrap_or(0.0);
        let s = costs.sim_speedup.max(f64::MIN_POSITIVE);
        vec![
            Row::new(
                "des.shard station event (/speedup)",
                get("_des.executed") / s,
                costs.shard_event_ns,
            ),
            Row::part(
                "des.rng draw (/speedup)",
                get("_des.draws") / s,
                costs.draw_ns,
            ),
            Row::part(
                "des.calendar schedule+pop (/speedup)",
                get("_des.scheduled") / s,
                costs.calendar_ns,
            ),
        ]
    }

    fn residual_note(&self) -> &'static str {
        "per replication the run set-up, the per-job response vector and its \
         exact p95 sort, the shard merge and the cross-replication fold; the \
         station-event probe covers the shard loop only."
    }
}
