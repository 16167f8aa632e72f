//! Equilibrium verification and efficiency metrics.
//!
//! * [`epsilon_nash_gap`] — the largest unilateral improvement any user
//!   could gain by deviating to its best reply; a profile is an ε-Nash
//!   equilibrium iff the gap is at most ε (Definition 2.1 in the paper).
//! * [`price_of_anarchy`] — the Koutsoupias–Papadimitriou efficiency
//!   ratio `D(nash) / D(optimum)`, cited by the paper's related work
//!   (Roughgarden & Tardos bound it by 4/3 for *linear* latencies; M/M/1
//!   latencies are not linear, so we measure it instead).

use crate::best_reply::best_reply;
use crate::error::GameError;
use crate::model::SystemModel;
use crate::response::{overall_response_time, user_response_time};
use crate::strategy::StrategyProfile;

/// The largest gain any user can obtain by unilaterally deviating to its
/// best reply: `max_j [D_j(s) − D_j(BR_j(s), s_{−j})]`, clamped at 0.
///
/// A profile is a Nash equilibrium exactly when this gap is (numerically)
/// zero; tests and the distributed runtime accept `gap <= ε`.
///
/// # Examples
///
/// ```
/// use lb_game::equilibrium::epsilon_nash_gap;
/// use lb_game::model::SystemModel;
/// use lb_game::nash::nash_equilibrium;
///
/// let model = SystemModel::new(vec![10.0, 20.0], vec![9.0]).unwrap();
/// let outcome = nash_equilibrium(&model).unwrap();
/// let gap = epsilon_nash_gap(&model, outcome.profile()).unwrap();
/// assert!(gap < 1e-4);
/// ```
///
/// # Errors
///
/// Shape mismatches and infeasible best replies propagate.
pub fn epsilon_nash_gap(model: &SystemModel, profile: &StrategyProfile) -> Result<f64, GameError> {
    let mut gap: f64 = 0.0;
    let mut work = profile.clone();
    for j in 0..model.num_users() {
        let current = user_response_time(model, profile, j)?;
        let br = best_reply(model, profile, j)?;
        let original = work.strategy(j).clone();
        work.set_strategy(j, br)?;
        let best = user_response_time(model, &work, j)?;
        work.set_strategy(j, original)?;
        gap = gap.max(current - best);
    }
    Ok(gap.max(0.0))
}

/// Efficiency ratio of a profile against a reference (socially optimal)
/// profile: `D(profile) / D(reference)`. For a Nash profile against the
/// GOS optimum this is the **price of anarchy** of the instance.
///
/// # Errors
///
/// Shape mismatches propagate; a zero/non-finite reference objective
/// yields [`GameError::InvalidRate`].
pub fn price_of_anarchy(
    model: &SystemModel,
    nash_profile: &StrategyProfile,
    optimal_profile: &StrategyProfile,
) -> Result<f64, GameError> {
    let d_nash = overall_response_time(model, nash_profile)?;
    let d_opt = overall_response_time(model, optimal_profile)?;
    if !d_opt.is_finite() || d_opt <= 0.0 {
        return Err(GameError::InvalidRate {
            name: "optimal_objective",
            value: d_opt,
        });
    }
    Ok(d_nash / d_opt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nash::nash_equilibrium;
    use crate::schemes::{GlobalOptimalScheme, LoadBalancingScheme, ProportionalScheme};
    use crate::strategy::Strategy;

    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    #[test]
    fn nash_profile_has_tiny_gap() {
        let m = model();
        let out = nash_equilibrium(&m).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(gap < 1e-3, "gap {gap}");
    }

    #[test]
    fn uniform_profile_has_positive_gap() {
        let m = model();
        let p = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        let gap = epsilon_nash_gap(&m, &p).unwrap();
        assert!(gap > 1e-3, "uniform split should be improvable, gap {gap}");
    }

    #[test]
    fn gap_does_not_mutate_profile() {
        let m = model();
        let p = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        let before = p.clone();
        let _ = epsilon_nash_gap(&m, &p).unwrap();
        assert_eq!(p, before);
    }

    #[test]
    fn poa_is_at_least_one_and_modest() {
        let m = SystemModel::table1_system(0.6).unwrap();
        let nash = nash_equilibrium(&m).unwrap();
        let gos = GlobalOptimalScheme::default().compute(&m).unwrap();
        let ratio = price_of_anarchy(&m, nash.profile(), &gos).unwrap();
        assert!(ratio >= 1.0 - 1e-9, "PoA {ratio} below 1");
        // The paper reports NASH within ~10% of GOS at medium load.
        assert!(ratio < 1.3, "PoA {ratio} unexpectedly large");
    }

    #[test]
    fn ps_is_less_efficient_than_nash() {
        let m = SystemModel::table1_system(0.6).unwrap();
        let nash = nash_equilibrium(&m).unwrap();
        let ps = ProportionalScheme.compute(&m).unwrap();
        let gos = GlobalOptimalScheme::default().compute(&m).unwrap();
        let poa_nash = price_of_anarchy(&m, nash.profile(), &gos).unwrap();
        let poa_ps = price_of_anarchy(&m, &ps, &gos).unwrap();
        assert!(
            poa_ps > poa_nash,
            "PS {poa_ps} should trail NASH {poa_nash}"
        );
    }
}
