//! Batch means: single-long-run steady-state estimation.
//!
//! The paper uses independent replications (see [`crate::replication`]);
//! the standard alternative is one long run whose observations are
//! grouped into batches large enough that batch averages are nearly
//! independent — then the usual t-interval applies to the batch means.
//! The workspace's ablation tests compare both estimators on the same
//! simulation output.

use crate::summary::SampleSummary;
use crate::welford::Welford;

/// Accumulates observations into fixed-size batches and summarizes the
/// batch means.
///
/// # Examples
///
/// ```
/// use lb_stats::BatchMeans;
/// let mut bm = BatchMeans::new(2);
/// for x in [1.0, 3.0, 5.0, 7.0] {
///     bm.push(x);
/// }
/// assert_eq!(bm.batches(), 2);
/// assert_eq!(bm.mean(), 4.0); // mean of batch means (2, 6)
/// ```
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Welford,
    batch_means: Vec<f64>,
}

impl BatchMeans {
    /// Creates an accumulator with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics for `batch_size == 0` (configuration error).
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            batch_size,
            current: Welford::new(),
            batches: Welford::new(),
            batch_means: Vec::new(),
        }
    }

    /// Adds one observation; closes the current batch when full.
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        if self.current.count() == self.batch_size {
            let mean = self.current.mean();
            self.batches.push(mean);
            self.batch_means.push(mean);
            self.current = Welford::new();
        }
    }

    /// Completed batches so far.
    pub fn batches(&self) -> u64 {
        self.batches.count()
    }

    /// Grand mean over completed batches (`0` before the first batch).
    pub fn mean(&self) -> f64 {
        self.batches.mean()
    }

    /// Confidence interval over the batch means; `None` before the first
    /// completed batch or for an invalid level.
    pub fn summary(&self, confidence: f64) -> Option<SampleSummary> {
        SampleSummary::from_welford(&self.batches, confidence)
    }

    /// Lag-1 autocorrelation of the batch means — the standard check that
    /// batches are large enough (values near zero are good). `None` with
    /// fewer than three batches or zero variance.
    pub fn lag1_autocorrelation(&self) -> Option<f64> {
        let n = self.batch_means.len();
        if n < 3 {
            return None;
        }
        let mean = self.mean();
        let var: f64 = self
            .batch_means
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum();
        if var == 0.0 {
            return None;
        }
        let cov: f64 = self
            .batch_means
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        Some(cov / var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_size_panics() {
        let _ = BatchMeans::new(0);
    }

    #[test]
    fn batches_close_at_size() {
        let mut bm = BatchMeans::new(3);
        bm.push(1.0);
        bm.push(2.0);
        assert_eq!(bm.batches(), 0);
        assert_eq!(bm.current.count(), 2);
        bm.push(3.0);
        assert_eq!(bm.batches(), 1);
        assert_eq!(bm.current.count(), 0);
        assert_eq!(bm.batch_means, [2.0]);
        assert_eq!(bm.mean(), 2.0);
    }

    #[test]
    fn grand_mean_ignores_incomplete_batch() {
        let mut bm = BatchMeans::new(2);
        for x in [1.0, 3.0, 5.0, 7.0, 100.0] {
            bm.push(x);
        }
        // Batches: (1,3) -> 2, (5,7) -> 6; the 100.0 is pending.
        assert_eq!(bm.batches(), 2);
        assert_eq!(bm.mean(), 4.0);
        assert_eq!(bm.current.count(), 1);
    }

    #[test]
    fn summary_uses_batch_count_degrees_of_freedom() {
        let mut bm = BatchMeans::new(10);
        for i in 0..50 {
            bm.push(f64::from(i % 10));
        }
        let s = bm.summary(0.95).unwrap();
        assert_eq!(s.count, 5);
        assert!((s.mean - 4.5).abs() < 1e-12);
        // Every batch mean is identical: zero half-width.
        assert_eq!(s.half_width, 0.0);
    }

    #[test]
    fn autocorrelation_detects_trend_and_noise() {
        // Strong positive trend -> lag-1 autocorrelation near 1.
        let mut trended = BatchMeans::new(1);
        for i in 0..100 {
            trended.push(f64::from(i));
        }
        assert!(trended.lag1_autocorrelation().unwrap() > 0.9);

        // Alternating series -> strongly negative.
        let mut alt = BatchMeans::new(1);
        for i in 0..100 {
            alt.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        assert!(alt.lag1_autocorrelation().unwrap() < -0.9);

        // Too few batches -> None.
        let mut few = BatchMeans::new(5);
        for i in 0..10 {
            few.push(f64::from(i));
        }
        assert_eq!(few.batches(), 2);
        assert!(few.lag1_autocorrelation().is_none());
    }

    #[test]
    fn agrees_with_plain_mean_for_exact_multiples() {
        let data: Vec<f64> = (0..120).map(|i| (f64::from(i) * 0.7).sin()).collect();
        let mut bm = BatchMeans::new(12);
        for &x in &data {
            bm.push(x);
        }
        let plain: f64 = data.iter().sum::<f64>() / data.len() as f64;
        assert!((bm.mean() - plain).abs() < 1e-12);
    }
}
