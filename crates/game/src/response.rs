//! Expected-response-time functionals of the game (paper Eqs. (1)–(2)).
//!
//! * `F_i(s) = 1 / (μ_i − Σ_k s_ki φ_k)` — expected M/M/1 response time at
//!   computer `i` under profile `s`;
//! * `D_j(s) = Σ_i s_ji F_i(s)` — user `j`'s expected response time (its
//!   cost in the game);
//! * `D(s) = (1/Φ) Σ_j φ_j D_j(s)` — the system-wide expected response
//!   time, which the GOS baseline minimizes.
//!
//! Saturated computers yield `+∞`, so these functions are total on any
//! profile and can be used as penalties inside iterative solvers.

use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::StrategyProfile;
use lb_queueing::mm1;

/// Per-computer expected response times `F_i(s)` (`+∞` at saturated
/// computers).
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] when profile and model shapes disagree.
pub(crate) fn computer_response_times(
    model: &SystemModel,
    profile: &StrategyProfile,
) -> Result<Vec<f64>, GameError> {
    let flows = profile.computer_flows(model)?;
    Ok(flows
        .iter()
        .zip(model.computer_rates())
        .map(|(&lambda, &mu)| mm1::response_time(lambda, mu))
        .collect())
}

/// User `j`'s expected response time `D_j(s)`.
///
/// Computers the user does not use (`s_ji = 0`) contribute nothing even if
/// saturated by others; a computer the user *does* use while saturated
/// makes `D_j = +∞`.
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] on shape mismatch.
pub fn user_response_time(
    model: &SystemModel,
    profile: &StrategyProfile,
    j: usize,
) -> Result<f64, GameError> {
    let f = computer_response_times(model, profile)?;
    Ok(dot_ignoring_unused(profile.strategy(j).fractions(), &f))
}

/// All users' expected response times `D_1(s) … D_m(s)`.
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] on shape mismatch.
pub(crate) fn user_response_times(
    model: &SystemModel,
    profile: &StrategyProfile,
) -> Result<Vec<f64>, GameError> {
    let f = computer_response_times(model, profile)?;
    Ok((0..profile.num_users())
        .map(|j| dot_ignoring_unused(profile.strategy(j).fractions(), &f))
        .collect())
}

/// System-wide expected response time `D(s) = (1/Φ) Σ_j φ_j D_j(s)` —
/// the social objective (what GOS minimizes).
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] on shape mismatch.
pub fn overall_response_time(
    model: &SystemModel,
    profile: &StrategyProfile,
) -> Result<f64, GameError> {
    let d = user_response_times(model, profile)?;
    let phi_total = model.total_arrival_rate();
    Ok(d.iter()
        .zip(model.user_rates())
        .map(|(&dj, &phi)| phi * dj)
        .sum::<f64>()
        / phi_total)
}

/// Variance of user `j`'s response time under profile `s`.
///
/// The M/M/1 sojourn time at computer `i` is exponential with rate
/// `μ_i − λ_i`, so user `j`'s response time is a *mixture* of
/// exponentials with weights `s_ji`:
///
/// ```text
/// E[T_j²] = Σ_i s_ji · 2/(μ_i − λ_i)² ,   Var = E[T²] − E[T]².
/// ```
///
/// The game optimizes the mean only; the variance exposes a hidden cost
/// of mixing across computers of different speeds (validated against the
/// simulator in `lb-sim`).
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] on shape mismatch.
pub fn user_response_variance(
    model: &SystemModel,
    profile: &StrategyProfile,
    j: usize,
) -> Result<f64, GameError> {
    let f = computer_response_times(model, profile)?;
    let s = profile.strategy(j).fractions();
    let mean = dot_ignoring_unused(s, &f);
    if !mean.is_finite() {
        return Ok(f64::INFINITY);
    }
    let second_moment: f64 = s
        .iter()
        .zip(&f)
        .filter(|(&si, _)| si > 0.0)
        .map(|(&si, &fi)| si * 2.0 * fi * fi)
        .sum();
    Ok(second_moment - mean * mean)
}

/// `Σ_i s_i f_i` treating `0 · ∞` as `0` (an unused saturated computer
/// costs the user nothing).
fn dot_ignoring_unused(s: &[f64], f: &[f64]) -> f64 {
    s.iter()
        .zip(f)
        .filter(|(&si, _)| si > 0.0)
        .map(|(&si, &fi)| si * fi)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn model() -> SystemModel {
        SystemModel::new(vec![4.0, 8.0], vec![2.0, 4.0]).unwrap()
    }

    #[test]
    fn computer_times_match_mm1() {
        let m = model();
        // Everyone splits 50/50: flows = [3, 3]; F = [1/(4-3), 1/(8-3)].
        let p = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        let f = computer_response_times(&m, &p).unwrap();
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn user_time_is_weighted_average() {
        let m = model();
        let p = StrategyProfile::new(vec![
            Strategy::new(vec![0.25, 0.75]).unwrap(),
            Strategy::new(vec![0.5, 0.5]).unwrap(),
        ])
        .unwrap();
        // flows: [0.25*2 + 0.5*4, 0.75*2 + 0.5*4] = [2.5, 3.5]
        // F = [1/1.5, 1/4.5]
        let d0 = user_response_time(&m, &p, 0).unwrap();
        let expected0 = 0.25 / 1.5 + 0.75 / 4.5;
        assert!((d0 - expected0).abs() < 1e-12);
        let all = user_response_times(&m, &p).unwrap();
        assert!((all[0] - d0).abs() < 1e-15);
        let d1 = 0.5 / 1.5 + 0.5 / 4.5;
        assert!((all[1] - d1).abs() < 1e-12);
    }

    #[test]
    fn overall_is_rate_weighted() {
        let m = model();
        let p = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        let d = user_response_times(&m, &p).unwrap();
        let overall = overall_response_time(&m, &p).unwrap();
        let expected = (2.0 * d[0] + 4.0 * d[1]) / 6.0;
        assert!((overall - expected).abs() < 1e-12);
        // All users identical here, so overall equals each user's D.
        assert!((overall - d[0]).abs() < 1e-12);
    }

    #[test]
    fn saturated_used_computer_is_infinite() {
        // mu = [2, 8], total user flow on computer 0 = 3 > 2.
        let m = SystemModel::new(vec![2.0, 8.0], vec![3.0]).unwrap();
        let p = StrategyProfile::new(vec![Strategy::singleton(2, 0)]).unwrap();
        let d = user_response_time(&m, &p, 0).unwrap();
        assert!(d.is_infinite());
    }

    #[test]
    fn unused_saturated_computer_costs_nothing() {
        // User 0 saturates computer 0; user 1 avoids it entirely.
        let m = SystemModel::new(vec![2.0, 8.0], vec![3.0, 1.0]).unwrap();
        let p = StrategyProfile::new(vec![Strategy::singleton(2, 0), Strategy::singleton(2, 1)])
            .unwrap();
        let d = user_response_times(&m, &p).unwrap();
        assert!(d[0].is_infinite());
        assert!((d[1] - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_a_pure_strategy_is_exponential() {
        // All jobs on one computer: sojourn is Exp(mu - lambda), whose
        // variance equals the squared mean.
        let m = SystemModel::new(vec![4.0, 8.0], vec![2.0]).unwrap();
        let p = StrategyProfile::new(vec![Strategy::singleton(2, 1)]).unwrap();
        let mean = user_response_time(&m, &p, 0).unwrap();
        let var = user_response_variance(&m, &p, 0).unwrap();
        assert!((var - mean * mean).abs() < 1e-12);
    }

    #[test]
    fn mixing_across_unequal_speeds_adds_variance() {
        // A 50/50 mix over a fast and a slow computer has SCV > 1: the
        // mixture is more variable than any single exponential.
        let m = SystemModel::new(vec![4.0, 40.0], vec![2.0]).unwrap();
        let p = StrategyProfile::new(vec![Strategy::uniform(2)]).unwrap();
        let mean = user_response_time(&m, &p, 0).unwrap();
        let var = user_response_variance(&m, &p, 0).unwrap();
        assert!(
            var > mean * mean,
            "mixture SCV {} should exceed 1",
            var / (mean * mean)
        );
    }

    #[test]
    fn saturated_usage_gives_infinite_variance() {
        let m = SystemModel::new(vec![2.0, 8.0], vec![3.0]).unwrap();
        let p = StrategyProfile::new(vec![Strategy::singleton(2, 0)]).unwrap();
        assert!(user_response_variance(&m, &p, 0).unwrap().is_infinite());
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let m = model();
        let p = StrategyProfile::replicated(Strategy::uniform(2), 3).unwrap();
        assert!(user_response_times(&m, &p).is_err());
        assert!(overall_response_time(&m, &p).is_err());
    }
}
