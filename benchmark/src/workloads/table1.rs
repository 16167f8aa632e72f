//! `table1-control`: the paper's algorithm at paper scale (the Table-1
//! system, 16 computers × 10 users, at the paper's nine loads),
//! certified to a relative ε-Nash gap of 1e-4. Cold NASH_0/NASH_P
//! solves are interleaved with warm re-solves after one computer's rate
//! is halved or restored.

use super::{per_op, ratio, Counts, Ctx, Row, Workload, PAPER_LOADS};
use crate::probes::Costs;
use crate::recorder::Recorder;
use crate::util::shuffled;
use lb_game::dynamics::{DynamicBalancer, Restart};
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashOutcome, NashSolver};
use lb_game::overload::OverloadPolicy;
use lb_game::stopping::profile_certificate;
use lb_game::strategy::StrategyProfile;
use lb_telemetry::Collector;
use std::sync::Arc;

/// Certified relative ε of every Table-1 solve.
pub const EPSILON: f64 = 1e-4;

/// Relative slack when a profile is re-certified from scratch: the
/// solver certifies from its incrementally patched loads, the check
/// from loads summed afresh, and the two round differently in the last
/// bits.
pub const RECERTIFY_SLACK: f64 = 1e-6;

/// Admission policy of the warm re-solves. Halving the fastest computer
/// at ρ = 0.9 leaves 460 jobs/s for 459 offered; shedding to 95% of the
/// remaining capacity keeps every re-solve well posed.
pub const POLICY: OverloadPolicy = OverloadPolicy::ShedProportional { headroom: 0.95 };

/// Re-certifies `profile` on `model` and checks it against ε.
pub fn recertify(
    model: &SystemModel,
    profile: &StrategyProfile,
    what: &str,
) -> Result<f64, String> {
    let cert = profile_certificate(model, profile).map_err(|e| format!("{what}: {e}"))?;
    if cert.relative <= EPSILON * (1.0 + RECERTIFY_SLACK) {
        Ok(cert.relative)
    } else {
        Err(format!(
            "{what}: re-certified relative gap {:e} exceeds ε = {EPSILON:e}",
            cert.relative
        ))
    }
}

fn dense_rows(costs: &Costs, counts: &Counts, users: f64) -> Vec<Row> {
    let get = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    vec![
        Row::new(
            "game.best_reply water-fill (dense n=16)",
            get("game.best_reply.water_fills"),
            costs.wf_dense_ns,
        ),
        Row::new(
            "game.stopping user regret (m per cert)",
            get("game.stopping.certificates") * users,
            costs.user_regret_ns,
        ),
    ]
}

/// One op of a control cycle.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A fresh [`NashSolver::solve`] of one load: NASH_0 when `nash_p`
    /// is false, NASH_P otherwise.
    Cold { load: usize, nash_p: bool },
    /// [`DynamicBalancer::update_capacity`] with [`Restart::Warm`] at one
    /// load, halving `computer`'s rate or restoring every rate.
    Warm {
        load: usize,
        computer: usize,
        halve: bool,
    },
}

/// Computers of the Table-1 system.
const COMPUTERS: usize = 16;
/// Warm cells: 9 loads × 16 computers, each a halve-then-restore pair.
const WARM_CELLS: usize = 9 * COMPUTERS;
/// Cold ops per cycle: 16 passes over the 9 loads × {NASH_0, NASH_P},
/// as many as the cycle's warm ops.
const COLD_OPS: usize = 2 * WARM_CELLS;
/// Ops of one cycle: every warm pair and every cold op once.
const CYCLE_OPS: u64 = (2 * WARM_CELLS + COLD_OPS) as u64;

/// The seeded op order of one cycle: the warm pairs and the cold ops
/// shuffled together, each warm pair kept back to back so every restore
/// follows its halving.
fn cycle_plan(seed: u64, cycle: u64) -> Vec<Op> {
    let units = WARM_CELLS + COLD_OPS;
    let mut plan = Vec::with_capacity(CYCLE_OPS as usize);
    for u in shuffled(units, seed, 0xC0_7201, cycle) {
        if u < WARM_CELLS {
            let (load, computer) = (u / COMPUTERS, u % COMPUTERS);
            for halve in [true, false] {
                plan.push(Op::Warm {
                    load,
                    computer,
                    halve,
                });
            }
        } else {
            let cell = (u - WARM_CELLS) % 18;
            plan.push(Op::Cold {
                load: cell / 2,
                nash_p: cell % 2 == 1,
            });
        }
    }
    plan
}

/// Cold NASH_0/NASH_P solves interleaved with warm re-solves.
pub struct Table1Control {
    ctx: Ctx,
    models: Vec<SystemModel>,
    balancers: Vec<DynamicBalancer>,
    nominal: Vec<f64>,
    plan: Vec<Op>,
    plan_cycle: u64,
}

/// One op's outcome, checked after its timed interval.
pub enum ControlOut {
    /// A cold solve: its load and outcome.
    Cold { load: usize, outcome: NashOutcome },
    /// A warm re-solve: its load and sweep count.
    Warm { load: usize, sweeps: u32 },
}

impl Workload for Table1Control {
    type Out = ControlOut;

    fn setup(ctx: Ctx) -> Result<Self, String> {
        let models = PAPER_LOADS
            .iter()
            .map(|&rho| SystemModel::table1_system(rho).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let balancers = models
            .iter()
            .map(|m| DynamicBalancer::new(m.clone(), EPSILON).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            ctx,
            models,
            balancers,
            nominal: SystemModel::table1_rates(),
            plan: Vec::new(),
            plan_cycle: u64::MAX,
        })
    }

    fn cycle(&self) -> u64 {
        CYCLE_OPS
    }

    /// Gauss-Seidel solves and re-solves run on the caller alone.
    const ON_CALLER: bool = true;

    fn warm_up_ops(&self) -> u64 {
        2 * CYCLE_OPS
    }

    fn op(
        &mut self,
        i: u64,
        threads: usize,
        trace: Option<&Arc<dyn Collector>>,
    ) -> Result<ControlOut, String> {
        let cycle = i / CYCLE_OPS;
        if cycle != self.plan_cycle {
            self.plan = cycle_plan(self.ctx.seed, cycle);
            self.plan_cycle = cycle;
        }
        match self.plan[(i % CYCLE_OPS) as usize] {
            Op::Cold { load, nash_p } => {
                let init = if nash_p {
                    Initialization::Proportional
                } else {
                    Initialization::Zero
                };
                let mut solver = NashSolver::new(init).tolerance(EPSILON).threads(threads);
                if let Some(c) = trace {
                    solver = solver.collector(Arc::clone(c));
                }
                let outcome = solver
                    .solve(&self.models[load])
                    .map_err(|e| format!("cold solve: {e}"))?;
                if !outcome.converged() {
                    return Err("cold solve returned uncertified".into());
                }
                Ok(ControlOut::Cold { load, outcome })
            }
            // DynamicBalancer is sequential and takes no collector, so a
            // traced warm op carries only the benchmark's own op span.
            Op::Warm {
                load,
                computer,
                halve,
            } => {
                let mut rates = self.nominal.clone();
                if halve {
                    rates[computer] *= 0.5;
                }
                let step = self.balancers[load]
                    .update_capacity(&rates, POLICY, Restart::Warm)
                    .map_err(|e| format!("warm re-solve: {e}"))?;
                Ok(ControlOut::Warm {
                    load,
                    sweeps: step.rebalance.iterations,
                })
            }
        }
    }

    fn check(&self, out: &ControlOut) -> Result<(), String> {
        match out {
            ControlOut::Cold { load, outcome } => {
                let solver_gap = outcome
                    .certified_gap()
                    .ok_or("cold solve carries no certificate")?
                    .relative;
                if solver_gap > EPSILON {
                    return Err(format!("cold solve certified {solver_gap:e} > ε"));
                }
                recertify(&self.models[*load], outcome.profile(), "cold solve").map(|_| ())
            }
            ControlOut::Warm { load, .. } => {
                let b = &self.balancers[*load];
                recertify(b.model(), b.equilibrium(), "warm re-solve").map(|_| ())
            }
        }
    }

    fn kind(&self, out: &ControlOut) -> &'static str {
        match out {
            ControlOut::Cold { .. } => "cold solve",
            ControlOut::Warm { .. } => "warm re-solve",
        }
    }

    fn tail_quantile(&self) -> f64 {
        0.99
    }

    fn tally(&self, out: &ControlOut, counts: &mut Counts) {
        match out {
            // Best replies, water-fills and refreshes of cold solves come
            // from the solver's account.solver events.
            ControlOut::Cold { outcome, .. } => {
                *counts.entry("game.nash.sweeps").or_default() += f64::from(outcome.iterations());
                *counts.entry("game.stopping.certificates").or_default() +=
                    outcome.certificates().len() as f64;
            }
            // Gauss-Seidel: one best reply (one water-fill) per user per
            // sweep, one certificate per sweep, one load refresh per sweep
            // plus the initial one.
            ControlOut::Warm { load, sweeps } => {
                let sweeps = f64::from(*sweeps);
                let users = self.models[*load].num_users() as f64;
                *counts.entry("game.nash.sweeps").or_default() += sweeps;
                *counts.entry("game.nash.best_replies").or_default() += sweeps * users;
                *counts.entry("game.best_reply.water_fills").or_default() += sweeps * users;
                *counts.entry("game.stopping.certificates").or_default() += sweeps;
                *counts.entry("game.nash.refreshes").or_default() += sweeps + 1.0;
            }
        }
    }

    fn layer_counts(&self, tally: &Counts, rec: &Recorder, ops: f64) -> Counts {
        let mut c = per_op(tally, ops);
        for (key, field) in [
            ("game.nash.best_replies", "best_replies"),
            ("game.best_reply.water_fills", "water_fills"),
            ("game.nash.refreshes", "refreshes"),
        ] {
            *c.entry(key).or_default() += rec.sum("account.solver", field) / ops;
        }
        let yield_ = ratio(
            c["game.nash.best_replies"],
            c["game.best_reply.water_fills"],
        );
        c.insert("game.best_reply.reply_yield", yield_);
        c
    }

    fn rows(&self, counts: &Counts, costs: &Costs) -> Vec<Row> {
        dense_rows(costs, counts, self.models[0].num_users() as f64)
    }

    fn residual_note(&self) -> &'static str {
        "sweep bookkeeping inside NashSolver (per best reply the availability \
         vector, load patch and D_j; per sweep one O(mn) load refresh; at the \
         end profile assembly and user times) and the per-update fixed costs \
         of update_capacity (shedding plan, model rebuild, column remap, \
         custom start rows). None has a public entry point to probe."
    }
}
