//! M/G/1 queue: Pollaczek–Khinchine mean-value formulas.
//!
//! The paper's model assumes exponential service (M/M/1). The workspace's
//! robustness extension re-simulates the equilibria under general service
//! distributions; this module provides the matching theory: for Poisson
//! arrivals of rate `λ` and i.i.d. service times with mean `1/μ` and
//! squared coefficient of variation `c²`,
//!
//! ```text
//! E[W_q] = λ (1 + c²) / (2 μ² (1 − ρ)),    E[T] = 1/μ + E[W_q].
//! ```
//!
//! At `c² = 1` this is exactly M/M/1; at `c² = 0` (deterministic service,
//! M/D/1) queueing delay halves; heavy-tailed service (`c² > 1`) inflates
//! it linearly.

/// Pollaczek–Khinchine expected response time `E[T]` of a stable M/G/1
/// queue with service squared coefficient of variation `scv`, `+∞` at or
/// past saturation — mirrors [`crate::mm1::response_time`] for optimizer
/// use.
pub fn response_time(lambda: f64, mu: f64, scv: f64) -> f64 {
    if lambda >= mu {
        f64::INFINITY
    } else {
        1.0 / mu + lambda * (1.0 + scv) / (2.0 * mu * mu * (1.0 - lambda / mu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// P-K waiting time in queue, `E[T] − 1/μ`.
    fn wait(lambda: f64, mu: f64, scv: f64) -> f64 {
        response_time(lambda, mu, scv) - 1.0 / mu
    }

    #[test]
    fn scv_one_recovers_mm1() {
        for &(l, m) in &[(0.3, 1.0), (1.5, 2.0), (8.0, 10.0)] {
            let mm1 = crate::mm1::response_time(l, m);
            assert!((response_time(l, m, 1.0) - mm1).abs() < 1e-12);
        }
    }

    #[test]
    fn md1_waits_half_of_mm1() {
        assert!((wait(1.5, 2.0, 0.0) - 0.5 * wait(1.5, 2.0, 1.0)).abs() < 1e-12);
        assert!(response_time(1.5, 2.0, 0.0) < crate::mm1::response_time(1.5, 2.0));
    }

    #[test]
    fn waiting_grows_linearly_in_scv() {
        let w0 = wait(1.0, 2.0, 0.0);
        let w1 = wait(1.0, 2.0, 1.0);
        let w4 = wait(1.0, 2.0, 4.0);
        assert!((w1 - 2.0 * w0).abs() < 1e-12);
        assert!((w4 - 5.0 * w0).abs() < 1e-12);
    }

    #[test]
    fn saturates() {
        assert!(response_time(4.0, 4.0, 1.0).is_infinite());
    }
}
