//! Overload policies and load shedding — keeping the game feasible when
//! capacity churns.
//!
//! The paper's standing assumption is `Φ < Σ μ_i`: total demand strictly
//! below total capacity. A server crash or degradation can violate it
//! mid-run, and until this module the only response was
//! [`GameError::Overloaded`] — a hard abort. Real systems *degrade*
//! instead: an admission controller sheds just enough load that the
//! residual game is feasible again, the equilibrium machinery
//! re-converges on what remains, and the shed traffic is reported rather
//! than silently lost.
//!
//! [`OverloadPolicy`] selects how the pain is distributed:
//!
//! * [`OverloadPolicy::Reject`] — the pre-existing behavior: error out
//!   when `Φ ≥ Σ μ_i`, shed nothing.
//! * [`OverloadPolicy::ShedProportional`] — every user keeps the same
//!   fraction of its nominal rate (`admitted_j = φ_j · target/Φ`); the
//!   heaviest user sheds the most in absolute terms, but relative pain
//!   is equal.
//! * [`OverloadPolicy::ShedMaxMin`] — max-min fair: admitted rates are
//!   `min(φ_j, c)` with a common cap `c` chosen so the admitted total
//!   hits the target. Small users are untouched; only the heavy hitters
//!   are clipped.
//!
//! Both shedding policies aim at `Σ admitted = headroom · Σ μ_i` with
//! `headroom ∈ (0, 1)`, so the residual game satisfies the strict
//! inequality with margin to spare — a system shaved to within an ulp of
//! capacity would be "feasible" but useless (response times `~1/(μ−λ)`
//! diverge as the margin vanishes).
//!
//! [`shed_to_feasible`] computes a [`ShedPlan`] from raw rate vectors so
//! it can be applied *before* a [`SystemModel`](crate::model::SystemModel)
//! exists (an infeasible model cannot be constructed at all — that is the
//! point).

use crate::error::GameError;

/// What to do when total demand reaches (or exceeds the headroom share
/// of) total capacity.
///
/// See the [module docs](self) for the semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverloadPolicy {
    /// Fail with [`GameError::Overloaded`] when `Φ ≥ Σ μ_i`; admit
    /// everything otherwise. This is the legacy behavior.
    Reject,
    /// Scale every user's rate by the same factor so the admitted total
    /// equals `headroom · Σ μ_i`.
    ShedProportional {
        /// Target utilization of the residual system, in `(0, 1)`.
        headroom: f64,
    },
    /// Cap every user at a common admitted rate `c` (water-filling on
    /// user rates) so the admitted total equals `headroom · Σ μ_i`;
    /// users below the cap are untouched.
    ShedMaxMin {
        /// Target utilization of the residual system, in `(0, 1)`.
        headroom: f64,
    },
}

impl OverloadPolicy {
    /// The policy's target admitted total for a given capacity: `Σ μ_i`
    /// itself for [`Reject`](Self::Reject) (only strict infeasibility
    /// errors), `headroom · Σ μ_i` for the shedding policies.
    #[must_use]
    pub fn admitted_target(&self, total_capacity: f64) -> f64 {
        match *self {
            Self::Reject => total_capacity,
            Self::ShedProportional { headroom } | Self::ShedMaxMin { headroom } => {
                headroom * total_capacity
            }
        }
    }

    fn validate(&self) -> Result<(), GameError> {
        match *self {
            Self::Reject => Ok(()),
            Self::ShedProportional { headroom } | Self::ShedMaxMin { headroom } => {
                if headroom.is_finite() && headroom > 0.0 && headroom < 1.0 {
                    Ok(())
                } else {
                    Err(GameError::InvalidRate {
                        name: "headroom",
                        value: headroom,
                    })
                }
            }
        }
    }
}

/// The outcome of an admission-control decision: per-user admitted and
/// shed rates, summing back to the nominal rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedPlan {
    /// Per-user admitted arrival rate (`admitted_j ≤ φ_j`).
    pub admitted: Vec<f64>,
    /// Per-user shed arrival rate (`φ_j − admitted_j`).
    pub shed: Vec<f64>,
    /// Total capacity `Σ μ_i` the plan was computed against.
    pub total_capacity: f64,
}

impl ShedPlan {
    /// Total admitted arrival rate.
    #[must_use]
    pub fn admitted_total(&self) -> f64 {
        self.admitted.iter().sum()
    }

    /// Total shed arrival rate.
    #[must_use]
    pub fn shed_total(&self) -> f64 {
        self.shed.iter().sum()
    }

    /// Whether any load was shed at all.
    #[must_use]
    pub fn sheds(&self) -> bool {
        self.shed.iter().any(|&s| s > 0.0)
    }
}

/// Computes per-user admitted rates so the residual game is strictly
/// feasible under `policy`.
///
/// `computer_rates` may contain zeros (crashed servers); negative or
/// non-finite entries are rejected. `user_rates` likewise may contain
/// zeros (failed/idle users keep a zero admitted rate).
///
/// # Errors
///
/// * [`GameError::InvalidRate`] for a negative/non-finite rate or an
///   out-of-range `headroom`.
/// * [`GameError::Overloaded`] under [`OverloadPolicy::Reject`] when
///   `Φ ≥ Σ μ_i`, and under any policy when `Σ μ_i = 0` with `Φ > 0`
///   (no capacity at all — nothing to shed *to*). The payload carries
///   the utilization and minimum shed volume.
pub fn shed_to_feasible(
    computer_rates: &[f64],
    user_rates: &[f64],
    policy: OverloadPolicy,
) -> Result<ShedPlan, GameError> {
    policy.validate()?;
    for &mu in computer_rates {
        if !mu.is_finite() || mu < 0.0 {
            return Err(GameError::InvalidRate {
                name: "computer_rate",
                value: mu,
            });
        }
    }
    for &phi in user_rates {
        if !phi.is_finite() || phi < 0.0 {
            return Err(GameError::InvalidRate {
                name: "user_rate",
                value: phi,
            });
        }
    }
    let total_capacity: f64 = computer_rates.iter().sum();
    let total_demand: f64 = user_rates.iter().sum();

    if total_capacity <= 0.0 && total_demand > 0.0 {
        return Err(GameError::overloaded(total_demand, total_capacity));
    }

    let target = policy.admitted_target(total_capacity);
    if total_demand < target || (total_demand == 0.0) {
        // Feasible with margin already (for Reject: strictly feasible).
        return Ok(ShedPlan {
            admitted: user_rates.to_vec(),
            shed: vec![0.0; user_rates.len()],
            total_capacity,
        });
    }

    let admitted: Vec<f64> = match policy {
        OverloadPolicy::Reject => {
            // total_demand >= target == total_capacity here.
            return Err(GameError::overloaded(total_demand, total_capacity));
        }
        OverloadPolicy::ShedProportional { .. } => {
            let scale = target / total_demand;
            user_rates.iter().map(|&phi| phi * scale).collect()
        }
        OverloadPolicy::ShedMaxMin { .. } => max_min_admitted(user_rates, target),
    };
    let shed: Vec<f64> = user_rates
        .iter()
        .zip(&admitted)
        .map(|(&phi, &a)| (phi - a).max(0.0))
        .collect();
    Ok(ShedPlan {
        admitted,
        shed,
        total_capacity,
    })
}

/// Max-min fair admission: find the common cap `c` with
/// `Σ_j min(φ_j, c) = target` and admit `min(φ_j, c)`. Classic
/// water-filling over the sorted rates, `O(m log m)`.
fn max_min_admitted(user_rates: &[f64], target: f64) -> Vec<f64> {
    let mut sorted: Vec<f64> = user_rates.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let m = sorted.len();
    // Walk users ascending; once the remaining budget split evenly over
    // the remaining (heavier) users no longer covers the next user's full
    // rate, that even split is the cap.
    let mut remaining = target;
    let mut cap = f64::INFINITY;
    for (k, &phi) in sorted.iter().enumerate() {
        let share = remaining / (m - k) as f64;
        if phi >= share {
            cap = share;
            break;
        }
        remaining -= phi;
    }
    user_rates.iter().map(|&phi| phi.min(cap)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feasible_demand_is_admitted_untouched() {
        for policy in [
            OverloadPolicy::Reject,
            OverloadPolicy::ShedProportional { headroom: 0.9 },
            OverloadPolicy::ShedMaxMin { headroom: 0.9 },
        ] {
            let plan = shed_to_feasible(&[10.0, 20.0], &[5.0, 8.0], policy).unwrap();
            assert_eq!(plan.admitted, vec![5.0, 8.0]);
            assert!(!plan.sheds());
            assert_eq!(plan.shed_total(), 0.0);
        }
    }

    #[test]
    fn reject_errors_exactly_when_infeasible() {
        // Φ = 29 < Σμ = 30: fine even though it exceeds 90% headroom.
        assert!(shed_to_feasible(&[10.0, 20.0], &[14.0, 15.0], OverloadPolicy::Reject).is_ok());
        // Φ = Σμ: the strict inequality fails.
        let err =
            shed_to_feasible(&[10.0, 20.0], &[15.0, 15.0], OverloadPolicy::Reject).unwrap_err();
        match err {
            GameError::Overloaded {
                utilization,
                min_shed,
                ..
            } => {
                assert!((utilization - 1.0).abs() < 1e-12);
                assert!(min_shed.abs() < 1e-12);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn proportional_shedding_scales_everyone_equally() {
        // Capacity 30, demand 40, headroom 0.75 -> target 22.5.
        let plan = shed_to_feasible(
            &[10.0, 20.0],
            &[10.0, 30.0],
            OverloadPolicy::ShedProportional { headroom: 0.75 },
        )
        .unwrap();
        let scale = 22.5 / 40.0;
        assert!((plan.admitted[0] - 10.0 * scale).abs() < 1e-12);
        assert!((plan.admitted[1] - 30.0 * scale).abs() < 1e-12);
        assert!((plan.admitted_total() - 22.5).abs() < 1e-9);
        // Shed + admitted reconstructs nominal.
        for ((&a, &s), &phi) in plan.admitted.iter().zip(&plan.shed).zip(&[10.0, 30.0]) {
            assert!((a + s - phi).abs() < 1e-12);
        }
    }

    #[test]
    fn max_min_shedding_spares_small_users() {
        // Capacity 30, headroom 0.8 -> target 24. Users [2, 10, 30]:
        // the cap lands between 10 and 30, so users 0 and 1 are whole
        // and user 2 absorbs all the shedding: c = 24 - 2 - 10 = 12.
        let plan = shed_to_feasible(
            &[10.0, 20.0],
            &[2.0, 10.0, 30.0],
            OverloadPolicy::ShedMaxMin { headroom: 0.8 },
        )
        .unwrap();
        assert_eq!(plan.admitted[0], 2.0);
        assert_eq!(plan.admitted[1], 10.0);
        assert!((plan.admitted[2] - 12.0).abs() < 1e-9);
        assert!((plan.admitted_total() - 24.0).abs() < 1e-9);
        assert!((plan.shed_total() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_cap_binds_everyone_when_rates_are_equal() {
        // Equal users: max-min degenerates to proportional.
        let plan = shed_to_feasible(
            &[10.0],
            &[8.0, 8.0],
            OverloadPolicy::ShedMaxMin { headroom: 0.5 },
        )
        .unwrap();
        assert!((plan.admitted[0] - 2.5).abs() < 1e-9);
        assert!((plan.admitted[1] - 2.5).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_is_overloaded_under_every_policy() {
        for policy in [
            OverloadPolicy::Reject,
            OverloadPolicy::ShedProportional { headroom: 0.9 },
            OverloadPolicy::ShedMaxMin { headroom: 0.9 },
        ] {
            let err = shed_to_feasible(&[0.0, 0.0], &[1.0], policy).unwrap_err();
            assert!(matches!(err, GameError::Overloaded { .. }));
        }
    }

    #[test]
    fn zero_rate_users_stay_zero() {
        let plan = shed_to_feasible(
            &[10.0],
            &[0.0, 20.0],
            OverloadPolicy::ShedProportional { headroom: 0.5 },
        )
        .unwrap();
        assert_eq!(plan.admitted[0], 0.0);
        assert!((plan.admitted[1] - 5.0).abs() < 1e-9);
        let plan = shed_to_feasible(
            &[10.0],
            &[0.0, 20.0],
            OverloadPolicy::ShedMaxMin { headroom: 0.5 },
        )
        .unwrap();
        assert_eq!(plan.admitted[0], 0.0);
        assert!((plan.admitted[1] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_headroom_and_rates_are_rejected() {
        for h in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(shed_to_feasible(
                &[10.0],
                &[20.0],
                OverloadPolicy::ShedProportional { headroom: h }
            )
            .is_err());
        }
        assert!(shed_to_feasible(&[-1.0], &[1.0], OverloadPolicy::Reject).is_err());
        assert!(shed_to_feasible(&[1.0], &[-1.0], OverloadPolicy::Reject).is_err());
        assert!(shed_to_feasible(&[f64::NAN], &[1.0], OverloadPolicy::Reject).is_err());
    }

    #[test]
    fn feasible_load_is_trimmed_to_headroom() {
        let (mu, phi) = ([10.0, 20.0], [14.0, 14.0]);
        // Utilization 28/30 ≈ 0.93 exceeds the 0.8 target -> shed.
        let plan = shed_to_feasible(
            &mu,
            &phi,
            OverloadPolicy::ShedProportional { headroom: 0.8 },
        )
        .unwrap();
        assert!(plan.sheds());
        assert!((plan.admitted_total() - 24.0).abs() < 1e-9);
        // Reject leaves a feasible load alone.
        let plan = shed_to_feasible(&mu, &phi, OverloadPolicy::Reject).unwrap();
        assert!(!plan.sheds());
    }

    #[test]
    fn shedding_always_lands_exactly_on_target() {
        // Property-flavored sweep: the admitted total equals the target
        // whenever shedding occurs, for both policies.
        let capacities = [5.0_f64, 17.0, 100.0];
        let users: Vec<Vec<f64>> = vec![
            vec![50.0],
            vec![1.0, 2.0, 3.0, 400.0],
            vec![30.0, 30.0, 30.0],
        ];
        for &cap in &capacities {
            for u in &users {
                for policy in [
                    OverloadPolicy::ShedProportional { headroom: 0.7 },
                    OverloadPolicy::ShedMaxMin { headroom: 0.7 },
                ] {
                    let plan = shed_to_feasible(&[cap], u, policy).unwrap();
                    let target = 0.7 * cap;
                    if plan.sheds() {
                        assert!(
                            (plan.admitted_total() - target).abs() < 1e-9 * (1.0 + target),
                            "cap {cap}, users {u:?}, policy {policy:?}"
                        );
                    }
                    for (&a, &phi) in plan.admitted.iter().zip(u) {
                        assert!(a >= 0.0 && a <= phi + 1e-12);
                    }
                }
            }
        }
    }
}
