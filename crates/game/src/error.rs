//! Error type for the load-balancing game.

use std::fmt;

/// Errors raised by model construction, best-reply computation and the
/// equilibrium algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum GameError {
    /// A rate was non-positive or non-finite.
    InvalidRate {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The model has no computers or no users.
    EmptyModel {
        /// Which collection was empty: `"computers"` or `"users"`.
        what: &'static str,
    },
    /// The standing stability assumption `Φ < Σ μ_i` fails.
    ///
    /// The payload is actionable: `utilization` says how far past
    /// capacity the demand sits, and `min_shed` is the smallest total
    /// arrival rate that must be shed (admission-controlled away) to
    /// restore strict feasibility. Pair with
    /// [`crate::overload::shed_to_feasible`] to compute *which* users
    /// give up *how much*.
    Overloaded {
        /// Total user arrival rate Φ.
        total_arrival_rate: f64,
        /// Aggregate capacity Σ μ_i.
        total_capacity: f64,
        /// System utilization Φ / Σ μ_i (≥ 1 when this error fires;
        /// `+∞` when the capacity is zero).
        utilization: f64,
        /// Minimum arrival rate to shed for `Φ < Σ μ_i` to hold again:
        /// `Φ − Σ μ_i` (plus any strict-inequality margin the caller
        /// wants on top).
        min_shed: f64,
    },
    /// Vector lengths disagree with the model dimensions.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Actual length.
        actual: usize,
    },
    /// A strategy violated positivity or conservation.
    InfeasibleStrategy {
        /// Description of the violated constraint.
        reason: String,
    },
    /// A user's best-reply subproblem has no feasible solution — the other
    /// users leave less available capacity than the user's arrival rate.
    InfeasibleBestReply {
        /// Index of the user.
        user: usize,
        /// Capacity left to the user.
        available: f64,
        /// The user's arrival rate.
        demand: f64,
    },
    /// The iterative algorithm exhausted its iteration budget without
    /// meeting the convergence tolerance.
    DidNotConverge {
        /// Iterations performed.
        iterations: u32,
        /// Final value of the convergence norm.
        final_norm: f64,
    },
    /// An iterative solver was asked to run with `max_iterations == 0`,
    /// or a replication plan with zero replications: nothing can
    /// execute, so nothing can be reported honestly.
    ZeroIterationBudget,
    /// A timeout or deadline was configured as zero: the run would
    /// either hang (never fire) or abort before any work, depending on
    /// an implementation detail — reject it up front instead.
    ZeroDuration {
        /// Which knob was zero, e.g. `"round_timeout"`.
        what: &'static str,
    },
    /// A distributed ring stalled: the token was lost (or a deadline
    /// expired) and the run could not be repaired into a result.
    RingTimeout {
        /// Rounds the ring had completed when it stalled.
        round: u32,
        /// How long the coordinator waited before giving up, in ms of
        /// the ring's virtual clock.
        waited_ms: u64,
        /// What the coordinator was waiting for when it gave up.
        reason: String,
    },
}

impl GameError {
    /// Builds an [`GameError::Overloaded`] from the raw demand/capacity
    /// pair, deriving the actionable `utilization` and `min_shed` fields.
    #[must_use]
    pub(crate) fn overloaded(total_arrival_rate: f64, total_capacity: f64) -> Self {
        let utilization = if total_capacity > 0.0 {
            total_arrival_rate / total_capacity
        } else {
            f64::INFINITY
        };
        Self::Overloaded {
            total_arrival_rate,
            total_capacity,
            utilization,
            min_shed: (total_arrival_rate - total_capacity).max(0.0),
        }
    }

    /// Names user `j` in an [`GameError::InfeasibleBestReply`] raised by
    /// a kernel that knows only the rates and the demand; every other
    /// error passes through unchanged.
    #[must_use]
    pub(crate) fn with_user(self, j: usize) -> Self {
        match self {
            Self::InfeasibleBestReply {
                available, demand, ..
            } => Self::InfeasibleBestReply {
                user: j,
                available,
                demand,
            },
            other => other,
        }
    }
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRate { name, value } => {
                write!(f, "rate `{name}` must be positive and finite, got {value}")
            }
            Self::EmptyModel { what } => write!(f, "model must have at least one of: {what}"),
            Self::Overloaded {
                total_arrival_rate,
                total_capacity,
                utilization,
                min_shed,
            } => write!(
                f,
                "system overloaded: total arrival rate {total_arrival_rate} >= capacity \
                 {total_capacity} (utilization {utilization:.4}); shed at least {min_shed} \
                 jobs/s to restore feasibility"
            ),
            Self::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Self::InfeasibleStrategy { reason } => write!(f, "infeasible strategy: {reason}"),
            Self::InfeasibleBestReply {
                user,
                available,
                demand,
            } => write!(
                f,
                "best reply infeasible for user {user}: available capacity {available} < demand {demand}"
            ),
            Self::DidNotConverge {
                iterations,
                final_norm,
            } => write!(
                f,
                "did not converge after {iterations} iterations (norm {final_norm})"
            ),
            Self::ZeroIterationBudget => {
                write!(f, "iteration budget is zero: nothing can run, so no result is defined")
            }
            Self::ZeroDuration { what } => {
                write!(f, "duration `{what}` must be positive, got zero")
            }
            Self::RingTimeout {
                round,
                waited_ms,
                reason,
            } => write!(
                f,
                "distributed ring timed out at round {round} after {waited_ms} ms: {reason}"
            ),
        }
    }
}

impl std::error::Error for GameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<GameError> = vec![
            GameError::InvalidRate {
                name: "phi",
                value: -1.0,
            },
            GameError::EmptyModel { what: "users" },
            GameError::overloaded(10.0, 5.0),
            GameError::DimensionMismatch {
                expected: 3,
                actual: 1,
            },
            GameError::InfeasibleStrategy {
                reason: "sums to 0.9".into(),
            },
            GameError::InfeasibleBestReply {
                user: 2,
                available: 1.0,
                demand: 2.0,
            },
            GameError::DidNotConverge {
                iterations: 100,
                final_norm: 0.5,
            },
            GameError::ZeroIterationBudget,
            GameError::ZeroDuration {
                what: "round_timeout",
            },
            GameError::RingTimeout {
                round: 3,
                waited_ms: 250,
                reason: "token lost at user 1".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn overloaded_payload_is_actionable() {
        let e = GameError::overloaded(12.0, 10.0);
        match &e {
            GameError::Overloaded {
                utilization,
                min_shed,
                ..
            } => {
                assert!((utilization - 1.2).abs() < 1e-12);
                assert!((min_shed - 2.0).abs() < 1e-12);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let msg = e.to_string();
        assert!(msg.contains("utilization 1.2000"), "message: {msg}");
        assert!(msg.contains("shed at least 2"), "message: {msg}");

        // Zero capacity: utilization degenerates to infinity, everything
        // must be shed.
        match GameError::overloaded(3.0, 0.0) {
            GameError::Overloaded {
                utilization,
                min_shed,
                ..
            } => {
                assert!(utilization.is_infinite());
                assert!((min_shed - 3.0).abs() < 1e-12);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
}
