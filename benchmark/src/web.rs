//! The web-scale path: one [`SampledNashSolver`] solve from scratch to a
//! certified relative gap of 1e-3 on n = 1,000 computers × m = 10,000
//! equal users at ρ = 0.6. A solve runs for seconds, so a run holds too
//! few of them for a steady end-to-end figure; every traced run solves
//! it as a probe instead (`game.sampled.*`), and checks the solve.

use crate::recorder::Recorder;
use crate::util::derive;
use crate::workloads::Counts;
use lb_game::model::SystemModel;
use lb_game::sampled::{SampledNashSolver, SampledOutcome};
use lb_game::stopping::{marginal_cost, relative_regret};

/// Computers.
pub const COMPUTERS: usize = 1_000;
/// Users.
pub const USERS: usize = 10_000;
/// Certified relative ε of every solve.
pub const EPSILON: f64 = 1e-3;
/// Relative slack when the certificate is recomputed from the flows.
const RECOMPUTE_SLACK: f64 = 1e-6;

/// The web-scale system: μ_i = 10 + (i mod 97), equal users at ρ = 0.6.
pub fn web_model() -> Result<SystemModel, String> {
    let rates: Vec<f64> = (0..COMPUTERS).map(|i| 10.0 + (i % 97) as f64).collect();
    let phi = 0.6 * rates.iter().sum::<f64>() / USERS as f64;
    SystemModel::new(rates, vec![phi; USERS]).map_err(|e| e.to_string())
}

/// The path's solver: the seed comes from the run seed.
pub fn solver(seed: u64, threads: usize) -> SampledNashSolver {
    SampledNashSolver::new()
        .epsilon(EPSILON)
        .threads(threads)
        .seed(derive(seed, 0x5A3F, 0))
}

/// Recomputes the certificate from the sparse flows over all n
/// computers per user: O(n·m) time and O(n) extra memory, so the
/// check builds no dense profile and leaves peak memory alone.
fn recompute_certificate(model: &SystemModel, out: &SampledOutcome) -> Result<(), String> {
    let n = model.num_computers();
    let mut headroom = model.computer_rates().to_vec();
    for row in out.flows() {
        for &(i, x) in row {
            headroom[i as usize] -= x;
        }
    }
    let mut worst: f64 = 0.0;
    for (j, row) in out.flows().iter().enumerate() {
        let phi = model.user_rate(j);
        let (mut weighted, mut d, mut min_c) = (0.0, 0.0, f64::INFINITY);
        let mut p = 0;
        for (i, &h) in headroom.iter().enumerate().take(n) {
            let x = match row.get(p) {
                Some(&(k, x)) if k as usize == i => {
                    p += 1;
                    x
                }
                _ => 0.0,
            };
            if h <= 0.0 {
                if x > 0.0 {
                    return Err(format!("user {j} routes flow to saturated computer {i}"));
                }
                continue;
            }
            let c = marginal_cost(h, x);
            if x > 0.0 {
                weighted += x / phi * c;
                d += x / phi / h;
            }
            min_c = min_c.min(c);
        }
        worst = worst.max(relative_regret((weighted - min_c).max(0.0), d));
    }
    if worst <= EPSILON * (1.0 + RECOMPUTE_SLACK) {
        Ok(())
    } else {
        Err(format!(
            "recomputed sampled certificate {worst:e} exceeds ε = {EPSILON:e} (solver said {:e})",
            out.certified_gap().relative
        ))
    }
}

/// Checks one solve: its own certificate is within ε, and so is the
/// certificate recomputed from its flows.
pub fn check(model: &SystemModel, out: &SampledOutcome) -> Result<(), String> {
    if !out.converged() {
        return Err("sampled solve returned uncertified".into());
    }
    let gap = out.certified_gap().relative;
    if gap > EPSILON {
        return Err(format!("sampled solve certified {gap:e} > ε = {EPSILON:e}"));
    }
    recompute_certificate(model, out)
}

/// The sampled layer's counts for one solve: sweeps and support from the
/// outcome, best replies and water-fills from the `account.sampled`
/// events in `rec`.
pub fn counts(out: &SampledOutcome, rec: &Recorder) -> Counts {
    let best_replies = rec.sum("account.sampled", "best_replies");
    let water_fills = rec.sum("account.sampled", "water_fills");
    Counts::from([
        ("game.sampled.sweeps", f64::from(out.iterations())),
        (
            "game.sampled.support_mean",
            out.support_size() as f64 / USERS as f64,
        ),
        ("game.sampled.best_replies", best_replies),
        ("game.sampled.water_fills", water_fills),
    ])
}
