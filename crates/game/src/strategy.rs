//! User strategies and strategy profiles.
//!
//! A user strategy `s_j = (s_j1 … s_jn)` gives the fraction of the user's
//! jobs sent to each computer; a profile stacks all `m` strategies. The
//! paper's feasibility constraints (§2) are:
//!
//! * positivity — `s_ji >= 0`;
//! * conservation — `Σ_i s_ji = 1`;
//! * stability — `Σ_j s_ji φ_j < μ_i` at every computer (a *profile*-level
//!   constraint, checked against a [`SystemModel`]).

use crate::error::GameError;
use crate::model::SystemModel;

/// Tolerance for positivity/conservation checks on strategies.
pub(crate) const STRATEGY_EPS: f64 = 1e-7;

/// One user's load-balancing strategy: job fractions over the computers.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    fractions: Vec<f64>,
}

impl Strategy {
    /// Builds a strategy, validating positivity and conservation. Tiny
    /// constraint violations within `STRATEGY_EPS` are repaired by
    /// clamping and renormalizing (solver output hygiene).
    ///
    /// # Errors
    ///
    /// [`GameError::InfeasibleStrategy`] when a fraction is materially
    /// negative/non-finite or the sum is materially different from 1.
    pub fn new(fractions: Vec<f64>) -> Result<Self, GameError> {
        if fractions.is_empty() {
            return Err(GameError::InfeasibleStrategy {
                reason: "strategy has no components".into(),
            });
        }
        let mut f = fractions;
        for (i, x) in f.iter_mut().enumerate() {
            if !x.is_finite() {
                return Err(GameError::InfeasibleStrategy {
                    reason: format!("component {i} is not finite"),
                });
            }
            if *x < 0.0 {
                if *x < -STRATEGY_EPS {
                    return Err(GameError::InfeasibleStrategy {
                        reason: format!("component {i} is negative ({x})"),
                    });
                }
                *x = 0.0;
            }
        }
        let sum: f64 = f.iter().sum();
        if (sum - 1.0).abs() > STRATEGY_EPS {
            return Err(GameError::InfeasibleStrategy {
                reason: format!("fractions sum to {sum}, expected 1"),
            });
        }
        // Exact renormalization so downstream sums are clean.
        for x in &mut f {
            *x /= sum;
        }
        Ok(Self { fractions: f })
    }

    /// The degenerate "send everything to computer `i`" strategy over `n`
    /// computers.
    ///
    /// # Panics
    ///
    /// Panics when `i >= n` or `n == 0` (programming errors).
    pub fn singleton(n: usize, i: usize) -> Self {
        assert!(n > 0 && i < n, "singleton({n}, {i}) out of range");
        let mut f = vec![0.0; n];
        f[i] = 1.0;
        Self { fractions: f }
    }

    /// The uniform strategy `s_ji = 1/n`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[cfg(test)]
    pub(crate) fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform strategy needs n > 0");
        Self {
            fractions: vec![1.0 / n as f64; n],
        }
    }

    /// Number of computers the strategy spans.
    pub(crate) fn len(&self) -> usize {
        self.fractions.len()
    }

    /// Fraction sent to computer `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        self.fractions[i]
    }

    /// All fractions.
    pub fn fractions(&self) -> &[f64] {
        &self.fractions
    }

    /// L1 distance to another strategy.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch (programming error).
    pub(crate) fn l1_distance(&self, other: &Strategy) -> f64 {
        assert_eq!(self.len(), other.len(), "strategy dimension mismatch");
        self.fractions
            .iter()
            .zip(&other.fractions)
            .map(|(a, b)| (a - b).abs())
            .sum()
    }
}

/// A strategy profile: one strategy per user (an `m × n` row-stochastic
/// matrix).
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyProfile {
    rows: Vec<Strategy>,
}

impl StrategyProfile {
    /// Builds a profile from per-user strategies.
    ///
    /// # Errors
    ///
    /// [`GameError::InfeasibleStrategy`] for an empty profile,
    /// [`GameError::DimensionMismatch`] for ragged rows.
    pub fn new(rows: Vec<Strategy>) -> Result<Self, GameError> {
        if rows.is_empty() {
            return Err(GameError::InfeasibleStrategy {
                reason: "profile has no users".into(),
            });
        }
        let n = rows[0].len();
        for r in &rows {
            if r.len() != n {
                return Err(GameError::DimensionMismatch {
                    expected: n,
                    actual: r.len(),
                });
            }
        }
        Ok(Self { rows })
    }

    /// Profile in which every user plays the same strategy (e.g. the PS
    /// baseline or the NASH_P initialization).
    ///
    /// # Errors
    ///
    /// [`GameError::InfeasibleStrategy`] when `m == 0`.
    pub(crate) fn replicated(strategy: Strategy, m: usize) -> Result<Self, GameError> {
        Self::new(vec![strategy; m])
    }

    /// Number of users `m`.
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Number of computers `n`.
    pub(crate) fn num_computers(&self) -> usize {
        self.rows[0].len()
    }

    /// User `j`'s strategy.
    pub fn strategy(&self, j: usize) -> &Strategy {
        &self.rows[j]
    }

    /// All strategies.
    pub fn strategies(&self) -> &[Strategy] {
        &self.rows
    }

    /// Replaces user `j`'s strategy (the Gauss–Seidel update step).
    ///
    /// # Errors
    ///
    /// [`GameError::DimensionMismatch`] if the new strategy has the wrong
    /// dimension.
    pub(crate) fn set_strategy(&mut self, j: usize, strategy: Strategy) -> Result<(), GameError> {
        if strategy.len() != self.num_computers() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_computers(),
                actual: strategy.len(),
            });
        }
        self.rows[j] = strategy;
        Ok(())
    }

    /// Total job flow arriving at each computer under this profile for the
    /// given model: `λ_i = Σ_j s_ji φ_j`.
    ///
    /// # Errors
    ///
    /// [`GameError::DimensionMismatch`] when the model dimensions disagree
    /// with the profile.
    pub fn computer_flows(&self, model: &SystemModel) -> Result<Vec<f64>, GameError> {
        self.check_dims(model)?;
        let n = self.num_computers();
        let mut flows = vec![0.0; n];
        for (j, row) in self.rows.iter().enumerate() {
            let phi = model.user_rate(j);
            for (i, &s) in row.fractions().iter().enumerate() {
                flows[i] += s * phi;
            }
        }
        Ok(flows)
    }

    /// Validates the profile-level stability constraint
    /// `Σ_j s_ji φ_j < μ_i` for every computer.
    ///
    /// # Errors
    ///
    /// * [`GameError::DimensionMismatch`] on shape mismatch.
    /// * [`GameError::InfeasibleStrategy`] naming the first saturated
    ///   computer.
    pub fn check_stability(&self, model: &SystemModel) -> Result<(), GameError> {
        let flows = self.computer_flows(model)?;
        for (i, (&f, &mu)) in flows.iter().zip(model.computer_rates()).enumerate() {
            if f >= mu {
                return Err(GameError::InfeasibleStrategy {
                    reason: format!("computer {i} saturated: flow {f} >= rate {mu}"),
                });
            }
        }
        Ok(())
    }

    /// Largest per-user L1 distance to another profile (used as a
    /// strategy-space convergence diagnostic alongside the paper's
    /// response-time norm).
    ///
    /// # Errors
    ///
    /// [`GameError::DimensionMismatch`] on shape mismatch.
    pub fn max_l1_distance(&self, other: &StrategyProfile) -> Result<f64, GameError> {
        if other.num_users() != self.num_users() || other.num_computers() != self.num_computers() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_users(),
                actual: other.num_users(),
            });
        }
        Ok(self
            .rows
            .iter()
            .zip(&other.rows)
            .map(|(a, b)| a.l1_distance(b))
            .fold(0.0, f64::max))
    }

    fn check_dims(&self, model: &SystemModel) -> Result<(), GameError> {
        if model.num_users() != self.num_users() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_users(),
                actual: model.num_users(),
            });
        }
        if model.num_computers() != self.num_computers() {
            return Err(GameError::DimensionMismatch {
                expected: self.num_computers(),
                actual: model.num_computers(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_2x2() -> SystemModel {
        SystemModel::new(vec![4.0, 8.0], vec![2.0, 4.0]).unwrap()
    }

    #[test]
    fn strategy_validation() {
        assert!(Strategy::new(vec![]).is_err());
        assert!(Strategy::new(vec![0.5, 0.6]).is_err());
        assert!(Strategy::new(vec![1.2, -0.2]).is_err());
        assert!(Strategy::new(vec![f64::NAN, 1.0]).is_err());
        let s = Strategy::new(vec![0.25, 0.75]).unwrap();
        assert_eq!(s.fraction(1), 0.75);
    }

    #[test]
    fn strategy_repairs_tiny_violations() {
        let s = Strategy::new(vec![0.5 + 1e-9, 0.5, -1e-9]).unwrap();
        assert_eq!(s.fraction(2), 0.0);
        let sum: f64 = s.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
    }

    #[test]
    fn singleton_and_uniform() {
        let s = Strategy::singleton(3, 1);
        assert_eq!(s.fractions(), &[0.0, 1.0, 0.0]);
        let u = Strategy::uniform(4);
        assert!((u.fraction(2) - 0.25).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn singleton_bounds() {
        let _ = Strategy::singleton(2, 2);
    }

    #[test]
    fn l1_distance() {
        let a = Strategy::new(vec![1.0, 0.0]).unwrap();
        let b = Strategy::new(vec![0.0, 1.0]).unwrap();
        assert!((a.l1_distance(&b) - 2.0).abs() < 1e-15);
        assert_eq!(a.l1_distance(&a), 0.0);
    }

    #[test]
    fn profile_shape_checks() {
        let a = Strategy::uniform(2);
        let b = Strategy::uniform(3);
        assert!(StrategyProfile::new(vec![]).is_err());
        assert!(matches!(
            StrategyProfile::new(vec![a.clone(), b]),
            Err(GameError::DimensionMismatch { .. })
        ));
        let p = StrategyProfile::replicated(a, 3).unwrap();
        assert_eq!(p.num_users(), 3);
        assert_eq!(p.num_computers(), 2);
    }

    #[test]
    fn computer_flows_aggregate_users() {
        let model = model_2x2();
        // User 0 (rate 2): all on computer 0. User 1 (rate 4): 50/50.
        let p = StrategyProfile::new(vec![
            Strategy::new(vec![1.0, 0.0]).unwrap(),
            Strategy::new(vec![0.5, 0.5]).unwrap(),
        ])
        .unwrap();
        let flows = p.computer_flows(&model).unwrap();
        assert!((flows[0] - 4.0).abs() < 1e-12);
        assert!((flows[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stability_check() {
        let model = model_2x2(); // mu = [4, 8]
        let saturating = StrategyProfile::new(vec![
            Strategy::new(vec![1.0, 0.0]).unwrap(),
            Strategy::new(vec![0.5, 0.5]).unwrap(),
        ])
        .unwrap();
        // flow at computer 0 = 4.0 = mu_0: infeasible.
        assert!(saturating.check_stability(&model).is_err());

        let fine =
            StrategyProfile::replicated(Strategy::new(vec![0.25, 0.75]).unwrap(), 2).unwrap();
        assert!(fine.check_stability(&model).is_ok());
    }

    #[test]
    fn set_strategy_updates_row() {
        let mut p = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        p.set_strategy(1, Strategy::singleton(2, 0)).unwrap();
        assert_eq!(p.strategy(1).fractions(), &[1.0, 0.0]);
        assert_eq!(p.strategy(0).fractions(), &[0.5, 0.5]);
        assert!(p.set_strategy(0, Strategy::uniform(3)).is_err());
    }

    #[test]
    fn profile_distance() {
        let a = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        let mut b = a.clone();
        b.set_strategy(0, Strategy::singleton(2, 0)).unwrap();
        assert!((a.max_l1_distance(&b).unwrap() - 1.0).abs() < 1e-15);
        let c = StrategyProfile::replicated(Strategy::uniform(2), 3).unwrap();
        assert!(a.max_l1_distance(&c).is_err());
    }

    #[test]
    fn dimension_mismatch_against_model() {
        let model = model_2x2();
        let p = StrategyProfile::replicated(Strategy::uniform(2), 3).unwrap();
        assert!(p.computer_flows(&model).is_err());
        let p = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        assert!(p.check_stability(&model).is_err());
    }
}
