//! A bank of heterogeneous M/M/1 queues in parallel — the "distributed
//! system" of the paper (Figure 1).
//!
//! [`ParallelQueues`] owns the vector of processing rates `μ_1 … μ_n` and
//! provides the aggregate functionals used by every load-balancing scheme:
//! total capacity, utilization under a total offered rate, and the
//! classic *speed-skewness* heterogeneity measure used in the paper's
//! §4.2.3.

use crate::error::QueueingError;

/// A parallel bank of `n` heterogeneous M/M/1 computers.
///
/// Rates are stored in the caller's order; helpers expose a
/// descending-by-rate index permutation, which is what the paper's
/// water-filling algorithms need.
///
/// # Examples
///
/// ```
/// use lb_queueing::ParallelQueues;
/// let sys = ParallelQueues::new(vec![10.0, 20.0, 50.0]).unwrap();
/// assert_eq!(sys.total_capacity(), 80.0);
/// assert_eq!(sys.speed_skewness(), 5.0);
/// assert_eq!(sys.descending_order(), vec![2, 1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelQueues {
    mu: Vec<f64>,
    total: f64,
}

impl ParallelQueues {
    /// Builds the bank from per-computer processing rates.
    ///
    /// # Errors
    ///
    /// * [`QueueingError::EmptySystem`] for an empty rate vector.
    /// * [`QueueingError::InvalidRate`] for a non-positive or non-finite
    ///   rate.
    pub fn new(mu: Vec<f64>) -> Result<Self, QueueingError> {
        if mu.is_empty() {
            return Err(QueueingError::EmptySystem);
        }
        for &m in &mu {
            if !m.is_finite() || m <= 0.0 {
                return Err(QueueingError::InvalidRate {
                    name: "mu",
                    value: m,
                });
            }
        }
        let total = mu.iter().sum();
        Ok(Self { mu, total })
    }

    /// Number of computers.
    #[inline]
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// Always false for a constructed bank; for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// Processing rate of computer `i`.
    #[inline]
    pub fn rate(&self, i: usize) -> f64 {
        self.mu[i]
    }

    /// All processing rates, in caller order.
    #[inline]
    pub fn rates(&self) -> &[f64] {
        &self.mu
    }

    /// Aggregate capacity `Σ_i μ_i`.
    #[inline]
    pub fn total_capacity(&self) -> f64 {
        self.total
    }

    /// System utilization `ρ = Φ / Σ μ_i` for a total offered rate `Φ`
    /// (paper §4.2.2).
    #[inline]
    pub fn system_utilization(&self, total_arrival_rate: f64) -> f64 {
        total_arrival_rate / self.total
    }

    /// Speed skewness: `max_i μ_i / min_i μ_i` (paper §4.2.3's
    /// heterogeneity measure).
    pub fn speed_skewness(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = 0.0_f64;
        for &m in &self.mu {
            min = min.min(m);
            max = max.max(m);
        }
        max / min
    }

    /// Indices sorted by processing rate, fastest first; ties broken by
    /// original index so the order is deterministic.
    pub fn descending_order(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.mu.len()).collect();
        idx.sort_by(|&a, &b| {
            self.mu[b]
                .partial_cmp(&self.mu[a])
                .expect("rates are finite")
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_rates() -> Vec<f64> {
        // The paper's Table 1: 6 computers at 10 jobs/s, 5 at 20, 3 at 50,
        // 2 at 100.
        let mut v = vec![10.0; 6];
        v.extend(vec![20.0; 5]);
        v.extend(vec![50.0; 3]);
        v.extend(vec![100.0; 2]);
        v
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(ParallelQueues::new(vec![]).is_err());
        assert!(ParallelQueues::new(vec![1.0, 0.0]).is_err());
        assert!(ParallelQueues::new(vec![1.0, -3.0]).is_err());
        assert!(ParallelQueues::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn table1_capacity_and_skewness() {
        let sys = ParallelQueues::new(table1_rates()).unwrap();
        assert_eq!(sys.len(), 16);
        assert!((sys.total_capacity() - 510.0).abs() < 1e-12);
        assert!((sys.speed_skewness() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_offered_rate_over_capacity() {
        let sys = ParallelQueues::new(table1_rates()).unwrap();
        assert!((sys.system_utilization(306.0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn descending_order_is_stable() {
        let sys = ParallelQueues::new(vec![20.0, 50.0, 20.0, 100.0]).unwrap();
        assert_eq!(sys.descending_order(), vec![3, 1, 0, 2]);
    }
}
