//! GI/M/1 queue: renewal arrivals, exponential service.
//!
//! The arrival-burstiness extension replaces the Poisson job streams with
//! general renewal processes. For a *single* queue the exact theory is
//! classical: the stationary waiting time depends on the root `σ ∈ (0,1)`
//! of
//!
//! ```text
//! σ = A*(μ(1 − σ))
//! ```
//!
//! where `A*` is the Laplace–Stieltjes transform of the interarrival
//! distribution; then `E[T] = 1/(μ(1 − σ))`. At exponential interarrivals
//! `σ = ρ`, recovering M/M/1 exactly.

use crate::error::QueueingError;

/// Interarrival-time distributions with known LSTs (all with mean
/// `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interarrival {
    /// Exponential (Poisson arrivals) — SCV 1.
    Exponential,
    /// Erlang-k — SCV `1/k`.
    Erlang {
        /// Phases.
        k: u32,
    },
    /// Balanced-means two-phase hyperexponential — SCV `scv > 1`.
    HyperExponential {
        /// Target squared coefficient of variation.
        scv: f64,
    },
    /// Deterministic — SCV 0.
    Deterministic,
}

impl Interarrival {
    /// The LST `A*(s) = E[exp(−sA)]` for arrival rate `lambda`.
    fn lst(&self, lambda: f64, s: f64) -> f64 {
        match *self {
            Interarrival::Exponential => lambda / (lambda + s),
            Interarrival::Erlang { k } => {
                let rate = f64::from(k) * lambda;
                (rate / (rate + s)).powi(k as i32)
            }
            Interarrival::HyperExponential { scv } => {
                let d = ((scv - 1.0) / (scv + 1.0)).sqrt();
                let p = 0.5 * (1.0 + d);
                let ra = 2.0 * p * lambda;
                let rb = 2.0 * (1.0 - p) * lambda;
                p * ra / (ra + s) + (1.0 - p) * rb / (rb + s)
            }
            Interarrival::Deterministic => (-s / lambda).exp(),
        }
    }
}

/// Solves `σ = A*(μ(1−σ))` on `(0, 1)` by damped fixed-point iteration
/// with a bisection fallback.
fn solve_sigma(arrival: Interarrival, lambda: f64, mu: f64) -> f64 {
    let g = |sigma: f64| arrival.lst(lambda, mu * (1.0 - sigma));
    // g is increasing in sigma; g(0) > 0 and g(1) = 1, and stability
    // guarantees a unique root below 1. Bisect on h(σ) = g(σ) − σ, which
    // is positive at 0 and negative just below 1 for stable queues.
    let (mut lo, mut hi) = (0.0_f64, 1.0 - 1e-12);
    // Guard: at σ→1⁻, h→0⁻ only for ρ<1; step hi inward until h(hi) < 0.
    while g(hi) - hi >= 0.0 && hi > 0.5 {
        hi = 0.5 + 0.5 * (hi - 0.5);
        if hi - 0.5 < 1e-9 {
            break;
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if g(mid) - mid > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Exact GI/M/1 expected response time `E[T] = 1/(μ(1−σ))`.
///
/// # Errors
///
/// [`QueueingError::InvalidRate`] for non-positive rates;
/// [`QueueingError::Unstable`] when `lambda >= mu`.
pub fn response_time(arrival: Interarrival, lambda: f64, mu: f64) -> Result<f64, QueueingError> {
    if !mu.is_finite() || mu <= 0.0 {
        return Err(QueueingError::InvalidRate {
            name: "mu",
            value: mu,
        });
    }
    if !lambda.is_finite() || lambda <= 0.0 {
        return Err(QueueingError::InvalidRate {
            name: "lambda",
            value: lambda,
        });
    }
    if lambda >= mu {
        return Err(QueueingError::Unstable {
            arrival_rate: lambda,
            capacity: mu,
        });
    }
    let sigma = solve_sigma(arrival, lambda, mu);
    Ok(1.0 / (mu * (1.0 - sigma)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1;

    #[test]
    fn exponential_interarrivals_recover_mm1() {
        for &(l, m) in &[(0.5, 1.0), (3.0, 10.0), (8.0, 9.0)] {
            let t = response_time(Interarrival::Exponential, l, m).unwrap();
            let exact = mm1::response_time(l, m);
            assert!(
                (t - exact).abs() < 1e-9 * exact,
                "({l},{m}): {t} vs {exact}"
            );
        }
    }

    #[test]
    fn dm1_known_value() {
        // D/M/1 at rho = 0.5: sigma solves sigma = exp(-2(1-sigma));
        // sigma ~ 0.20319, E[T] = 1/(mu(1-sigma)) ~ 1.2550/mu.
        let t = response_time(Interarrival::Deterministic, 0.5, 1.0).unwrap();
        assert!((t - 1.0 / (1.0 - 0.203_188)).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn response_time_is_monotone_in_arrival_scv() {
        let (l, m) = (0.7, 1.0);
        let det = response_time(Interarrival::Deterministic, l, m).unwrap();
        let er4 = response_time(Interarrival::Erlang { k: 4 }, l, m).unwrap();
        let exp = response_time(Interarrival::Exponential, l, m).unwrap();
        let hyp = response_time(Interarrival::HyperExponential { scv: 4.0 }, l, m).unwrap();
        assert!(
            det < er4 && er4 < exp && exp < hyp,
            "{det} {er4} {exp} {hyp}"
        );
    }

    #[test]
    fn smoother_arrivals_always_at_least_service_time() {
        for fam in [
            Interarrival::Deterministic,
            Interarrival::Erlang { k: 2 },
            Interarrival::HyperExponential { scv: 9.0 },
        ] {
            let t = response_time(fam, 1.0, 4.0).unwrap();
            assert!(t >= 0.25, "{fam:?}: {t}");
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(response_time(Interarrival::Exponential, 0.0, 1.0).is_err());
        assert!(response_time(Interarrival::Exponential, 1.0, 1.0).is_err());
        assert!(response_time(Interarrival::Exponential, 1.0, -1.0).is_err());
    }
}
