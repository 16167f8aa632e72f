//! Single-station M/M/1 queue: the model of one computer in the paper.
//!
//! A computer with processing rate `μ` receiving a Poisson job stream of
//! rate `λ < μ` behaves as an M/M/1 queue. The quantity the load-balancing
//! game optimizes is the **expected response (sojourn) time**
//!
//! ```text
//! F(λ) = 1 / (μ − λ)
//! ```
//!
//! (paper Eq. (1), with `λ = Σ_k s_ki φ_k` the total flow directed at the
//! computer by all users).

use crate::error::QueueingError;

/// A single M/M/1 station with service rate `mu` and offered Poisson
/// arrival rate `lambda`.
///
/// Invariants enforced at construction: `mu > 0`, `lambda >= 0`, both
/// finite, and `lambda < mu` (stability).
///
/// # Examples
///
/// ```
/// use lb_queueing::Mm1;
/// let q = Mm1::new(0.5, 1.0).unwrap();
/// assert!((q.response_time() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mm1 {
    lambda: f64,
    mu: f64,
}

impl Mm1 {
    /// Builds a stable M/M/1 queue with arrival rate `lambda` and service
    /// rate `mu`.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidRate`] if `mu <= 0`, `lambda < 0`, or either
    ///   is not finite.
    /// * [`QueueingError::Unstable`] if `lambda >= mu`.
    pub fn new(lambda: f64, mu: f64) -> Result<Self, QueueingError> {
        if !mu.is_finite() || mu <= 0.0 {
            return Err(QueueingError::InvalidRate {
                name: "mu",
                value: mu,
            });
        }
        if !lambda.is_finite() || lambda < 0.0 {
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
        Ok(Self { lambda, mu })
    }

    /// Expected response (sojourn) time `F = 1/(μ − λ)` — paper Eq. (1).
    #[inline]
    pub fn response_time(&self) -> f64 {
        1.0 / (self.mu - self.lambda)
    }
}

/// Expected M/M/1 response time `1/(μ − λ)` without constructing a queue.
///
/// Returns `f64::INFINITY` when `λ >= μ` (saturated) so that optimizers can
/// use it as a penalty; both arguments are assumed finite.
///
/// # Examples
///
/// ```
/// use lb_queueing::mm1::response_time;
/// assert_eq!(response_time(0.0, 2.0), 0.5);
/// assert!(response_time(2.0, 2.0).is_infinite());
/// ```
#[inline]
pub fn response_time(lambda: f64, mu: f64) -> f64 {
    if lambda >= mu {
        f64::INFINITY
    } else {
        1.0 / (mu - lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn constructor_validates_rates() {
        assert!(matches!(
            Mm1::new(1.0, 0.0),
            Err(QueueingError::InvalidRate { name: "mu", .. })
        ));
        assert!(matches!(
            Mm1::new(1.0, -2.0),
            Err(QueueingError::InvalidRate { name: "mu", .. })
        ));
        assert!(matches!(
            Mm1::new(-1.0, 2.0),
            Err(QueueingError::InvalidRate { name: "lambda", .. })
        ));
        assert!(matches!(
            Mm1::new(f64::NAN, 2.0),
            Err(QueueingError::InvalidRate { .. })
        ));
        assert!(matches!(
            Mm1::new(1.0, f64::INFINITY),
            Err(QueueingError::InvalidRate { .. })
        ));
    }

    #[test]
    fn constructor_rejects_saturation() {
        assert!(matches!(
            Mm1::new(2.0, 2.0),
            Err(QueueingError::Unstable { .. })
        ));
        assert!(matches!(
            Mm1::new(3.0, 2.0),
            Err(QueueingError::Unstable { .. })
        ));
    }

    #[test]
    fn zero_load_queue_is_pure_service() {
        let q = Mm1::new(0.0, 4.0).unwrap();
        assert!((q.response_time() - 0.25).abs() < EPS);
    }

    #[test]
    fn free_function_matches_struct_and_saturates() {
        let q = Mm1::new(1.0, 3.0).unwrap();
        assert!((response_time(1.0, 3.0) - q.response_time()).abs() < EPS);
        assert!(response_time(3.0, 3.0).is_infinite());
        assert!(response_time(4.0, 3.0).is_infinite());
    }

    #[test]
    fn response_time_blows_up_near_saturation() {
        let t1 = response_time(0.9, 1.0);
        let t2 = response_time(0.99, 1.0);
        let t3 = response_time(0.999, 1.0);
        assert!(t1 < t2 && t2 < t3);
        assert!((t2 - 100.0).abs() < 1e-9);
    }
}
