//! M/M/c (Erlang-C) queue: a multicore extension of the paper's model.
//!
//! The paper models each computer as a single-server M/M/1 queue. A natural
//! modern extension — exercised by the workspace's ablation benches — swaps
//! each computer for a small pool of `c` identical cores fed by one queue.
//! The Erlang-C formula gives the probability of queueing and the expected
//! response time; at `c = 1` everything degenerates to M/M/1 exactly, which
//! the tests verify.

use crate::error::QueueingError;

/// A stable M/M/c queue: Poisson arrivals at rate `lambda`, `c` identical
/// servers each of rate `mu`, one shared FCFS queue.
///
/// # Examples
///
/// ```
/// use lb_queueing::{mm1, Mmc};
/// let pool = Mmc::new(0.8, 1.0, 2).unwrap();
/// assert!(pool.response_time() > 1.0 / 1.0); // queueing adds delay
/// // c = 1 degenerates to M/M/1:
/// let a = Mmc::new(0.5, 1.0, 1).unwrap().response_time();
/// let b = mm1::response_time(0.5, 1.0);
/// assert!((a - b).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mmc {
    lambda: f64,
    mu: f64,
    servers: u32,
}

impl Mmc {
    /// Builds a stable M/M/c queue.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::InvalidRate`] for non-positive/non-finite rates or
    ///   `c = 0`.
    /// * [`QueueingError::Unstable`] when `lambda >= c·mu`.
    pub fn new(lambda: f64, mu: f64, servers: u32) -> Result<Self, QueueingError> {
        if servers == 0 {
            return Err(QueueingError::InvalidRate {
                name: "servers",
                value: 0.0,
            });
        }
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
        let capacity = mu * f64::from(servers);
        if lambda >= capacity {
            return Err(QueueingError::Unstable {
                arrival_rate: lambda,
                capacity,
            });
        }
        Ok(Self {
            lambda,
            mu,
            servers,
        })
    }

    /// Offered load in Erlangs, `a = λ/μ`.
    #[inline]
    pub(crate) fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Per-server utilization `ρ = λ/(c·μ) ∈ [0, 1)`.
    #[inline]
    pub(crate) fn utilization(&self) -> f64 {
        self.lambda / (self.mu * f64::from(self.servers))
    }

    /// Erlang-C probability that an arriving job must wait (all servers
    /// busy). Computed with the numerically stable iterative form of the
    /// Erlang-B recursion followed by the B→C conversion.
    pub(crate) fn prob_wait(&self) -> f64 {
        if self.lambda == 0.0 {
            return 0.0;
        }
        let a = self.offered_load();
        let c = self.servers;
        // Erlang-B via the stable recursion B(0) = 1, B(k) = aB/(k + aB).
        let mut b = 1.0_f64;
        for k in 1..=c {
            b = a * b / (f64::from(k) + a * b);
        }
        let rho = self.utilization();
        // Erlang-C from Erlang-B.
        b / (1.0 - rho * (1.0 - b))
    }

    /// Expected waiting time in queue `W_q = C(c, a) / (c·μ − λ)`.
    pub(crate) fn waiting_time(&self) -> f64 {
        self.prob_wait() / (self.mu * f64::from(self.servers) - self.lambda)
    }

    /// Expected response time `T = W_q + 1/μ`.
    pub fn response_time(&self) -> f64 {
        self.waiting_time() + 1.0 / self.mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1;

    #[test]
    fn rejects_zero_servers_and_bad_rates() {
        assert!(Mmc::new(1.0, 1.0, 0).is_err());
        assert!(Mmc::new(-1.0, 1.0, 2).is_err());
        assert!(Mmc::new(1.0, 0.0, 2).is_err());
        assert!(Mmc::new(1.0, f64::NAN, 2).is_err());
    }

    #[test]
    fn rejects_saturation_against_total_capacity() {
        assert!(Mmc::new(2.0, 1.0, 2).is_err());
        assert!(Mmc::new(1.99, 1.0, 2).is_ok());
    }

    #[test]
    fn single_server_matches_mm1_exactly() {
        for &(l, m) in &[(0.1, 1.0), (0.5, 1.0), (0.9, 1.0), (3.0, 7.0)] {
            let mmc = Mmc::new(l, m, 1).unwrap();
            assert!(
                (mmc.response_time() - mm1::response_time(l, m)).abs() < 1e-12,
                "response mismatch at ({l}, {m})"
            );
            // For M/M/1, P(wait) = rho.
            assert!((mmc.prob_wait() - l / m).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_c_known_value() {
        // Classic call-center example: a = 8 Erlangs, c = 10 servers.
        // Erlang-C ~ 0.4092 (standard tables).
        let q = Mmc::new(8.0, 1.0, 10).unwrap();
        assert!(
            (q.prob_wait() - 0.4092).abs() < 5e-4,
            "C = {}",
            q.prob_wait()
        );
    }

    #[test]
    fn zero_load_has_no_wait() {
        let q = Mmc::new(0.0, 1.0, 4).unwrap();
        assert_eq!(q.prob_wait(), 0.0);
        assert_eq!(q.waiting_time(), 0.0);
        assert!((q.response_time() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pooling_beats_separate_queues() {
        // A pooled M/M/2 always has lower response time than two separate
        // M/M/1 queues each receiving half the traffic.
        let pooled = Mmc::new(1.6, 1.0, 2).unwrap().response_time();
        let split = mm1::response_time(0.8, 1.0);
        assert!(pooled < split, "pooled {pooled} vs split {split}");
    }

    #[test]
    fn more_servers_reduce_delay() {
        let t2 = Mmc::new(1.5, 1.0, 2).unwrap().response_time();
        let t3 = Mmc::new(1.5, 1.0, 3).unwrap().response_time();
        let t8 = Mmc::new(1.5, 1.0, 8).unwrap().response_time();
        assert!(t2 > t3 && t3 > t8);
        // With many servers the response time approaches pure service.
        assert!((t8 - 1.0) < 0.05);
    }
}
