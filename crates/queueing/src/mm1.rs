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
//! computer by all users). The remaining formulas (queue lengths, waiting
//! time, percentiles) are standard Kleinrock Vol. 1 results and are used by
//! the simulator's validation layer.

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
/// assert!((q.utilization() - 0.5).abs() < 1e-12);
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

    /// Arrival rate `λ` (jobs per unit time).
    #[inline]
    pub fn arrival_rate(&self) -> f64 {
        self.lambda
    }

    /// Service rate `μ` (jobs per unit time).
    #[inline]
    pub fn service_rate(&self) -> f64 {
        self.mu
    }

    /// Server utilization `ρ = λ/μ ∈ [0, 1)`.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Expected response (sojourn) time `F = 1/(μ − λ)` — paper Eq. (1).
    #[inline]
    pub fn response_time(&self) -> f64 {
        1.0 / (self.mu - self.lambda)
    }

    /// Expected waiting time in queue (excluding service):
    /// `W_q = ρ/(μ − λ)`.
    #[inline]
    pub fn waiting_time(&self) -> f64 {
        self.utilization() / (self.mu - self.lambda)
    }

    /// Expected number of jobs in the system `L = ρ/(1 − ρ)` (Little's law
    /// applied to the response time).
    #[inline]
    pub fn jobs_in_system(&self) -> f64 {
        let rho = self.utilization();
        rho / (1.0 - rho)
    }

    /// Expected number of jobs waiting in queue `L_q = ρ²/(1 − ρ)`.
    #[inline]
    pub fn jobs_in_queue(&self) -> f64 {
        let rho = self.utilization();
        rho * rho / (1.0 - rho)
    }

    /// `p`-percentile of the sojourn-time distribution:
    /// `T_p = −ln(1 − p)/(μ − λ)`.
    ///
    /// # Errors
    ///
    /// [`QueueingError::InvalidProbability`] unless `0 < p < 1`.
    pub fn response_time_percentile(&self, p: f64) -> Result<f64, QueueingError> {
        if !(0.0..1.0).contains(&p) || p <= 0.0 {
            return Err(QueueingError::InvalidProbability { value: p });
        }
        Ok(-(1.0 - p).ln() / (self.mu - self.lambda))
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
        assert_eq!(q.utilization(), 0.0);
        assert_eq!(q.waiting_time(), 0.0);
        assert_eq!(q.jobs_in_system(), 0.0);
        assert_eq!(q.jobs_in_queue(), 0.0);
    }

    #[test]
    fn textbook_values_at_half_utilization() {
        // Kleinrock Vol. 1: rho = 0.5 gives L = 1, Lq = 0.5, T = 2/mu.
        let q = Mm1::new(1.0, 2.0).unwrap();
        assert!((q.utilization() - 0.5).abs() < EPS);
        assert!((q.jobs_in_system() - 1.0).abs() < EPS);
        assert!((q.jobs_in_queue() - 0.5).abs() < EPS);
        assert!((q.response_time() - 1.0).abs() < EPS);
        assert!((q.waiting_time() - 0.5).abs() < EPS);
    }

    #[test]
    fn littles_law_holds() {
        let q = Mm1::new(7.3, 11.9).unwrap();
        // L = lambda * T and Lq = lambda * Wq.
        assert!((q.jobs_in_system() - q.arrival_rate() * q.response_time()).abs() < 1e-9);
        assert!((q.jobs_in_queue() - q.arrival_rate() * q.waiting_time()).abs() < 1e-9);
    }

    #[test]
    fn sojourn_tail_and_percentile_are_inverses() {
        let q = Mm1::new(2.0, 5.0).unwrap();
        for &p in &[0.1, 0.5, 0.9, 0.99] {
            let t = q.response_time_percentile(p).unwrap();
            // The sojourn time is exponential: P(T > t) = exp(−(μ − λ) t).
            let tail = (-(5.0 - 2.0) * t).exp();
            assert!((tail - (1.0 - p)).abs() < 1e-9);
        }
    }

    #[test]
    fn median_sojourn_below_mean() {
        // Exponential distribution: median = ln(2) * mean < mean.
        let q = Mm1::new(2.0, 5.0).unwrap();
        let median = q.response_time_percentile(0.5).unwrap();
        assert!(median < q.response_time());
        assert!((median - q.response_time() * std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn percentile_rejects_bad_probabilities() {
        let q = Mm1::new(1.0, 2.0).unwrap();
        assert!(q.response_time_percentile(0.0).is_err());
        assert!(q.response_time_percentile(1.0).is_err());
        assert!(q.response_time_percentile(-0.5).is_err());
        assert!(q.response_time_percentile(f64::NAN).is_err());
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
