//! Convergence diagnostics for best-reply dynamics.
//!
//! Used by EXPERIMENTS.md's analysis of the paper's Figure-2 claim: the
//! asymptotic contraction rate `r` of the best-reply map is a property of
//! the equilibrium, not the starting point, so a closer initialization
//! (NASH_P) buys `log(norm0_P / norm0_0) / log r` iterations — a constant
//! — rather than a constant *factor*. [`ConvergenceReport`] extracts the
//! quantities behind that argument from a norm trace.

use lb_stats::IterationTrace;

/// Summary of a convergence-norm trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceReport {
    /// Norm after the first sweep.
    pub initial_norm: f64,
    /// Norm at termination.
    pub(crate) final_norm: f64,
    /// Sweeps performed.
    pub(crate) iterations: usize,
    /// Geometric contraction rate fitted to the tail (second half) of the
    /// trace; `None` if the tail is too short or non-positive.
    pub tail_rate: Option<f64>,
}

impl ConvergenceReport {
    /// Builds a report from a norm trace; `None` for an empty trace.
    pub fn from_trace(trace: &IterationTrace) -> Option<Self> {
        let values = trace.values();
        if values.is_empty() {
            return None;
        }
        let tail_start = values.len() / 2;
        let tail: IterationTrace = values[tail_start..].iter().copied().collect();
        Some(Self {
            initial_norm: values[0],
            final_norm: *values.last().expect("non-empty"),
            iterations: values.len(),
            tail_rate: tail.geometric_rate().filter(|r| r.is_finite() && *r > 0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SystemModel;
    use crate::nash::{Initialization, NashSolver};

    #[test]
    fn empty_trace_yields_none() {
        assert!(ConvergenceReport::from_trace(&IterationTrace::new()).is_none());
    }

    #[test]
    fn recovers_exact_geometric_decay() {
        let trace: IterationTrace = (0..24).map(|k| 8.0 * 0.5f64.powi(k)).collect();
        let r = ConvergenceReport::from_trace(&trace).unwrap();
        assert_eq!(r.iterations, 24);
        assert!((r.initial_norm - 8.0).abs() < 1e-12);
        assert!((r.tail_rate.unwrap() - 0.5).abs() < 1e-9);
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
        let report = ConvergenceReport::from_trace(zero.trace()).unwrap();
        let rate = report.tail_rate.unwrap();
        let predicted = (prop.trace().values()[0] / zero.trace().values()[0]).ln() / rate.ln();
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
        let r = ConvergenceReport::from_trace(out.trace()).unwrap();
        let rate = r.tail_rate.unwrap();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
        assert!(r.final_norm <= 1e-8);
    }
}
