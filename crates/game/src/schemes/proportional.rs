//! The Proportional Scheme (PS) baseline — Chow & Kohler 1979.
//!
//! Every user allocates `s_ji = μ_i / Σ_k μ_k`. "This allocation seems to
//! be a natural choice but it may not minimize the user's expected
//! response time" (§4.2): it equalizes computer *utilizations*, which at
//! non-trivial load overloads slow computers in the response-time sense.
//! Its fairness index is always exactly 1 (all users see identical mixes).

use super::LoadBalancingScheme;
use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::{Strategy, StrategyProfile};

/// The PS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProportionalScheme;

impl ProportionalScheme {
    /// The single proportional strategy `s_i = μ_i / Σ μ_k` every user
    /// plays.
    ///
    /// # Errors
    ///
    /// Propagates strategy-construction failures (cannot occur for a valid
    /// model).
    pub(crate) fn strategy(model: &SystemModel) -> Result<Strategy, GameError> {
        let total: f64 = model.computer_rates().iter().sum();
        Strategy::new(model.computer_rates().iter().map(|mu| mu / total).collect())
    }
}

impl LoadBalancingScheme for ProportionalScheme {
    fn name(&self) -> &'static str {
        "PS"
    }

    fn compute(&self, model: &SystemModel) -> Result<StrategyProfile, GameError> {
        StrategyProfile::replicated(Self::strategy(model)?, model.num_users())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::user_response_times;
    use lb_stats::jain_index;

    #[test]
    fn fractions_are_proportional() {
        let model = SystemModel::new(vec![10.0, 30.0], vec![5.0]).unwrap();
        let p = ProportionalScheme.compute(&model).unwrap();
        assert!((p.strategy(0).fraction(0) - 0.25).abs() < 1e-12);
        assert!((p.strategy(0).fraction(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn all_users_play_the_same_strategy() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let p = ProportionalScheme.compute(&model).unwrap();
        for j in 1..p.num_users() {
            assert_eq!(p.strategy(j), p.strategy(0));
        }
    }

    #[test]
    fn utilizations_are_equalized() {
        let model = SystemModel::table1_system(0.7).unwrap();
        let p = ProportionalScheme.compute(&model).unwrap();
        let flows = p.computer_flows(&model).unwrap();
        for (f, mu) in flows.iter().zip(model.computer_rates()) {
            assert!((f / mu - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn fairness_index_is_exactly_one() {
        // The paper: "for this scheme the fairness index is always 1".
        let model = SystemModel::table1_system(0.6).unwrap();
        let p = ProportionalScheme.compute(&model).unwrap();
        let d = user_response_times(&model, &p).unwrap();
        let idx = jain_index(&d).unwrap();
        assert!((idx - 1.0).abs() < 1e-12);
    }
}
