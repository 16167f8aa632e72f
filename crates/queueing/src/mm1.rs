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

/// Expected M/M/1 response time `F = 1/(μ − λ)` — paper Eq. (1).
///
/// Returns `f64::INFINITY` when `λ >= μ` (saturated) so that optimizers can
/// use it as a penalty; both arguments are assumed finite.
///
/// # Examples
///
/// ```
/// use lb_queueing::mm1::response_time;
/// assert_eq!(response_time(0.0, 2.0), 0.5);
/// assert_eq!(response_time(0.5, 1.0), 2.0);
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
    fn zero_load_queue_is_pure_service() {
        assert!((response_time(0.0, 4.0) - 0.25).abs() < EPS);
    }

    #[test]
    fn saturates() {
        assert!((response_time(1.0, 3.0) - 0.5).abs() < EPS);
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
