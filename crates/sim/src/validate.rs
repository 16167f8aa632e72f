//! Analytic-vs-empirical validation.
//!
//! The analytic layer (`lb-game::metrics`) predicts per-user expected
//! response times from M/M/1 formulas; the simulation measures them from
//! sample paths. [`compare`] quantifies the discrepancy, certifying both
//! the formulas and the simulator against each other — this is the
//! backbone of the workspace's end-to-end tests and of the
//! `simulation_validation` example.

use crate::harness::SimulatedMetrics;
use lb_game::error::GameError;
use lb_game::metrics::{evaluate_profile, ProfileMetrics};
use lb_game::model::SystemModel;
use lb_game::strategy::StrategyProfile;

/// Per-user and system-level relative discrepancies between the analytic
/// predictions and the simulated estimates.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Analytic predictions.
    pub analytic: ProfileMetrics,
    /// Relative error of each user's simulated mean vs its prediction.
    pub user_relative_errors: Vec<f64>,
    /// Relative error of the simulated system mean.
    pub system_relative_error: f64,
    /// Largest per-user relative error.
    pub max_user_relative_error: f64,
}

impl ValidationReport {
    /// Whether every discrepancy is within `tol` (e.g. `0.05` for the
    /// paper's 5% precision).
    pub fn within(&self, tol: f64) -> bool {
        self.max_user_relative_error <= tol && self.system_relative_error <= tol
    }
}

/// Compares simulated metrics with analytic predictions for the same
/// model and profile.
///
/// # Errors
///
/// Propagates analytic-evaluation failures (shape mismatches).
pub fn compare(
    model: &SystemModel,
    profile: &StrategyProfile,
    simulated: &SimulatedMetrics,
) -> Result<ValidationReport, GameError> {
    let analytic = evaluate_profile(model, profile)?;
    let user_relative_errors: Vec<f64> = simulated
        .user_summaries
        .iter()
        .zip(&analytic.user_times)
        .map(|(s, &t)| if t > 0.0 { (s.mean - t).abs() / t } else { 0.0 })
        .collect();
    let max_user_relative_error = user_relative_errors.iter().cloned().fold(0.0, f64::max);
    // Analytic system mean weights users by rate (job-average), matching
    // the simulator's job-averaged system mean.
    let system_relative_error = if analytic.overall_time > 0.0 {
        (simulated.system_summary.mean - analytic.overall_time).abs() / analytic.overall_time
    } else {
        0.0
    };
    Ok(ValidationReport {
        analytic,
        user_relative_errors,
        system_relative_error,
        max_user_relative_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::simulate_profile;
    use crate::scenario::SimulationConfig;
    use lb_game::schemes::{IndividualOptimalScheme, LoadBalancingScheme};
    use lb_stats::ReplicationPlan;

    #[test]
    fn response_time_variance_matches_the_mixture_formula() {
        // The analytic claim: a user's sojourn time is a mixture of
        // exponentials, with closed-form variance. Validate empirically.
        use lb_game::nash::nash_equilibrium;
        use lb_game::response::user_response_variance;
        use lb_stats::Welford;
        let model = SystemModel::new(vec![10.0, 40.0], vec![12.0, 13.0]).unwrap();
        let nash = nash_equilibrium(&model).unwrap();
        let mut acc = [Welford::new(), Welford::new()];
        crate::scenario::run_replication(
            &model,
            nash.profile(),
            SimulationConfig {
                target_jobs: 150_000,
                ..SimulationConfig::quick()
            },
            8,
            None,
            None,
            |user, resp| acc[user].push(resp),
        )
        .unwrap();
        for (j, welford) in acc.iter().enumerate() {
            let predicted = user_response_variance(&model, nash.profile(), j).unwrap();
            let measured = welford.sample_variance();
            let rel = (measured - predicted).abs() / predicted;
            assert!(
                rel < 0.15,
                "user {j}: measured var {measured} vs predicted {predicted} (rel {rel:.3})"
            );
        }
    }

    #[test]
    fn simulation_validates_analytic_model_for_ios() {
        let model = SystemModel::new(vec![10.0, 20.0, 40.0], vec![10.0, 25.0]).unwrap();
        let profile = IndividualOptimalScheme.compute(&model).unwrap();
        let plan = ReplicationPlan {
            replications: 3,
            ..ReplicationPlan::paper()
        };
        let sim = simulate_profile(&model, &profile, &plan, SimulationConfig::quick()).unwrap();
        let report = compare(&model, &profile, &sim).unwrap();
        assert!(
            report.within(0.08),
            "max user err {}, system err {}",
            report.max_user_relative_error,
            report.system_relative_error
        );
    }
}
