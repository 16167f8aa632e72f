//! Figure 2 — convergence norm vs number of iterations for the NASH_0
//! and NASH_P variants (16 Table-1 computers, 10 users, 60% utilization).
//!
//! The paper's observation: starting from the proportional allocation
//! (NASH_P) the initial point is close to the equilibrium and the
//! iteration count drops to less than half of NASH_0's.

use crate::config::{EPSILON, MEDIUM_LOAD};
use crate::report::{fmt, Table};
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_game::StoppingRule;

/// The two norm traces of Figure 2.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Per-iteration norm of NASH_0.
    pub nash0: Vec<f64>,
    /// Per-iteration norm of NASH_P.
    pub nashp: Vec<f64>,
}

impl Fig2Result {
    /// Iterations NASH_0 needed.
    pub fn iterations_nash0(&self) -> usize {
        self.nash0.len()
    }

    /// Iterations NASH_P needed.
    pub fn iterations_nashp(&self) -> usize {
        self.nashp.len()
    }

    /// Geometric contraction rates fitted to the tail (second half) of
    /// both traces: `(nash0, nashp)`; `None` where a tail is too short or
    /// non-positive.
    ///
    /// EXPERIMENTS.md's analysis of the paper's Figure-2 claim rests on
    /// them: the asymptotic rate `r` of the best-reply map is a property
    /// of the equilibrium, not the starting point, so a closer
    /// initialization (NASH_P) buys `log(norm0_P / norm0_0) / log r`
    /// iterations — a constant — rather than a constant *factor*.
    pub fn tail_rates(&self) -> (Option<f64>, Option<f64>) {
        (tail_rate(&self.nash0), tail_rate(&self.nashp))
    }
}

/// [`geometric_rate`] of the second half of a norm trace, kept only when
/// finite and positive.
fn tail_rate(trace: &[f64]) -> Option<f64> {
    geometric_rate(&trace[trace.len() / 2..]).filter(|r| r.is_finite() && *r > 0.0)
}

/// Least-squares estimate of the geometric decay rate `r` fitting
/// `v_k ≈ v_0 · r^k` over the strictly positive entries (log-linear
/// regression). `None` with fewer than two positive entries.
fn geometric_rate(values: &[f64]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = values
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, &v)| (i as f64, v.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return None;
    }
    let slope = (n * sxy - sx * sy) / denom;
    Some(slope.exp())
}

/// Runs the Figure 2 experiment at tolerance ε on the medium-load
/// Table-1 system.
///
/// # Errors
///
/// Propagates solver failures (cannot occur for the paper configuration).
pub fn run() -> Result<Fig2Result, GameError> {
    run_at(MEDIUM_LOAD, EPSILON)
}

/// Parameterized variant used by benches/tests.
///
/// # Errors
///
/// Propagates model-construction and solver failures.
pub fn run_at(rho: f64, eps: f64) -> Result<Fig2Result, GameError> {
    // Figure 2 *is* the paper's norm trace, so it pins the paper's
    // absolute-norm criterion; the solver default is the certified rule.
    let model = SystemModel::table1_system(rho)?;
    let nash0 = NashSolver::new(Initialization::Zero)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(eps)
        .solve(&model)?;
    let nashp = NashSolver::new(Initialization::Proportional)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(eps)
        .solve(&model)?;
    Ok(Fig2Result {
        nash0: nash0.trace().to_vec(),
        nashp: nashp.trace().to_vec(),
    })
}

/// Renders the two series side by side (blank cells once a variant has
/// converged).
pub fn render(r: &Fig2Result) -> Table {
    let mut t = Table::new(
        "Figure 2: norm vs number of iterations (16 computers, 10 users, rho=60%)",
        vec!["iteration", "NASH_0 norm", "NASH_P norm"],
    );
    let len = r.nash0.len().max(r.nashp.len());
    for i in 0..len {
        t.row(vec![
            (i + 1).to_string(),
            r.nash0.get(i).map(|&x| fmt(x)).unwrap_or_default(),
            r.nashp.get(i).map(|&x| fmt(x)).unwrap_or_default(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nashp_outperforms_nash0() {
        let r = run().unwrap();
        // Paper: NASH_P "significantly outperforms" NASH_0. In our
        // reproduction the win is consistent but smaller than the paper's
        // ">2x" headline (see EXPERIMENTS.md): the asymptotic contraction
        // rate of best-reply dynamics is initialization-independent, so a
        // closer start buys a constant number of iterations.
        assert!(
            r.iterations_nashp() < r.iterations_nash0(),
            "NASH_P {} vs NASH_0 {}",
            r.iterations_nashp(),
            r.iterations_nash0()
        );
        // The "closer to the equilibrium point" claim itself: the initial
        // proportional profile starts with a much smaller norm.
        assert!(
            r.nashp[0] < 0.5 * r.nash0[0],
            "initial norms: NASH_P {} vs NASH_0 {}",
            r.nashp[0],
            r.nash0[0]
        );
    }

    #[test]
    fn norms_decay_below_epsilon() {
        let r = run().unwrap();
        assert!(*r.nash0.last().unwrap() <= EPSILON);
        assert!(*r.nashp.last().unwrap() <= EPSILON);
        // Early NASH_0 norms are large (far-from-equilibrium start).
        assert!(r.nash0[0] > r.nash0[r.nash0.len() - 1] * 10.0);
    }

    #[test]
    fn diagnostics_expose_the_contraction_rate() {
        let r = run().unwrap();
        let (r0, rp) = r.tail_rates();
        let (r0, rp) = (r0.unwrap(), rp.unwrap());
        // Both initializations share (approximately) the same asymptotic
        // contraction rate — the EXPERIMENTS.md argument for why NASH_P's
        // win is a constant offset, not a constant factor.
        assert!((r0 - rp).abs() < 0.1, "tail rates {r0} vs {rp}");
        assert!(r0 > 0.5 && r0 < 1.0);
        assert!(r.nash0[0] > r.nashp[0]);
        // The exact values `experiments fig2` prints.
        assert_eq!((r.iterations_nash0(), r.iterations_nashp()), (35, 32));
        assert_eq!(r0.to_bits(), 0x3feb_a961_42c6_7aa5);
        assert_eq!(rp.to_bits(), 0x3feb_bf03_dd65_56b3);
        assert_eq!(r.nash0[0].to_bits(), 0x3fdc_08b6_f5d4_76e1);
        assert_eq!(r.nashp[0].to_bits(), 0x3fc7_95e3_b5a7_efb5);
    }

    #[test]
    fn explains_the_fig2_gap_on_the_real_system() {
        // The real NASH_0 / NASH_P iteration gap must be within a few
        // sweeps of the constant-offset prediction
        // log(norm0_P / norm0_0) / log r.
        let model = SystemModel::table1_system(0.6).unwrap();
        let zero = NashSolver::new(Initialization::Zero)
            .tolerance(1e-4)
            .solve(&model)
            .unwrap();
        let prop = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-4)
            .solve(&model)
            .unwrap();
        let rate = tail_rate(zero.trace()).unwrap();
        let predicted = (prop.trace()[0] / zero.trace()[0]).ln() / rate.ln();
        let actual = zero.iterations() as f64 - prop.iterations() as f64;
        assert!(
            (predicted - actual).abs() <= 6.0,
            "predicted saving {predicted:.1} vs actual {actual}"
        );
    }

    #[test]
    fn rate_is_between_zero_and_one_for_contracting_dynamics() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let out = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-8)
            .solve(&model)
            .unwrap();
        let rate = tail_rate(out.trace()).unwrap();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
        assert!(*out.trace().last().unwrap() <= 1e-8);
    }

    #[test]
    fn geometric_rate_recovers_exact_decay() {
        let t: Vec<f64> = (0..20).map(|k| 10.0 * 0.5_f64.powi(k)).collect();
        let r = geometric_rate(&t).unwrap();
        assert!((r - 0.5).abs() < 1e-9, "rate = {r}");
        // The tail fit sees the same rate.
        assert!((tail_rate(&t).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn geometric_rate_skips_zeros_and_needs_two_points() {
        assert!(geometric_rate(&[4.0, 0.0, 1.0]).is_some());
        assert!(geometric_rate(&[4.0]).is_none());
        assert!(geometric_rate(&[0.0, 0.0]).is_none());
        assert!(geometric_rate(&[]).is_none());
        assert!(tail_rate(&[]).is_none());
    }

    #[test]
    fn render_has_one_row_per_iteration() {
        let r = run().unwrap();
        let t = render(&r);
        assert_eq!(t.len(), r.iterations_nash0().max(r.iterations_nashp()));
    }
}
