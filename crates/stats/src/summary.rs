//! Sample summaries with Student-t confidence intervals.
//!
//! A [`SampleSummary`] condenses a set of replication results (or any
//! sample) into mean, a two-sided confidence interval, and the *relative*
//! standard error the paper's methodology bounds at 5%.

use crate::tdist::t_critical;
use crate::welford::Welford;

/// Summary statistics of a sample with a confidence interval on the mean.
///
/// # Examples
///
/// ```
/// use lb_stats::ReplicationSet;
/// // Five replications of one metric, like the paper's methodology.
/// let mut set = ReplicationSet::new(1, 0.95);
/// for x in [9.0, 9.5, 10.0, 10.5, 11.0] {
///     set.record(&[x]);
/// }
/// let s = set.summaries().unwrap()[0];
/// assert_eq!(s.mean, 10.0);
/// assert!(s.ci_low() < 10.0 && 10.0 < s.ci_high());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSummary {
    /// Number of observations.
    pub(crate) count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub(crate) std_error: f64,
    /// Confidence half-width at the requested level (`0` for n < 2).
    pub half_width: f64,
}

impl SampleSummary {
    /// Summarizes an existing accumulator at the given confidence level.
    ///
    /// Returns `None` for an empty accumulator or an invalid level.
    pub(crate) fn from_welford(w: &Welford, confidence: f64) -> Option<Self> {
        if w.count() == 0 || !(0.0..1.0).contains(&confidence) || confidence <= 0.0 {
            return None;
        }
        let half_width = if w.count() >= 2 {
            let df = (w.count() - 1) as f64;
            t_critical(confidence, df) * w.std_error()
        } else {
            0.0
        };
        Some(Self {
            count: w.count(),
            mean: w.mean(),
            std_error: w.std_error(),
            half_width,
        })
    }

    /// Lower bound of the confidence interval on the mean.
    #[inline]
    pub fn ci_low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the confidence interval on the mean.
    #[inline]
    pub fn ci_high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Relative standard error `SE/|mean|`; `+∞` when the mean is zero but
    /// the error is not, `0` when both are zero.
    pub(crate) fn relative_std_error(&self) -> f64 {
        if self.mean == 0.0 {
            if self.std_error == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.std_error / self.mean.abs()
        }
    }

    /// Whether the sample meets the paper's precision criterion: relative
    /// standard error below `threshold` (the paper uses 5% at the 95%
    /// confidence level).
    pub(crate) fn meets_precision(&self, threshold: f64) -> bool {
        self.count >= 2 && self.relative_std_error() < threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_slice(data: &[f64], confidence: f64) -> Option<SampleSummary> {
        SampleSummary::from_welford(&data.iter().copied().collect(), confidence)
    }

    #[test]
    fn empty_and_invalid_inputs() {
        assert!(from_slice(&[], 0.95).is_none());
        assert!(from_slice(&[1.0], 0.0).is_none());
        assert!(from_slice(&[1.0], 1.0).is_none());
    }

    #[test]
    fn single_observation_has_zero_half_width() {
        let s = from_slice(&[4.2], 0.95).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 4.2);
        assert_eq!(s.half_width, 0.0);
        assert!(s.ci_low() == 4.2 && s.ci_high() == 4.2);
        assert!(!s.meets_precision(0.05));
    }

    #[test]
    fn five_replications_use_t4() {
        // Five replications, like the paper. Known sample: mean 10, sd 1.
        let data = [9.0, 9.5, 10.0, 10.5, 11.0];
        let s = from_slice(&data, 0.95).unwrap();
        assert!((s.mean - 10.0).abs() < 1e-12);
        // Half width = t_{0.975,4} * s/sqrt(5) = 2.7764 * 0.790569/2.23607
        let expected = 2.7764 * 0.790569 / 5.0_f64.sqrt();
        assert!((s.half_width - expected).abs() < 1e-3);
        assert!(s.ci_low() <= 10.0 && 10.0 <= s.ci_high());
        assert!(s.ci_high() < 12.0);
    }

    #[test]
    fn relative_std_error_matches_definition() {
        let data = [9.0, 11.0];
        let s = from_slice(&data, 0.95).unwrap();
        // sd = sqrt(2), se = 1, mean = 10 -> rse = 0.1.
        assert!((s.relative_std_error() - 0.1).abs() < 1e-12);
        assert!(!s.meets_precision(0.05));
        assert!(s.meets_precision(0.2));
    }

    #[test]
    fn zero_mean_relative_error_edge_cases() {
        let s = from_slice(&[0.0, 0.0, 0.0], 0.95).unwrap();
        assert_eq!(s.relative_std_error(), 0.0);
        let s = from_slice(&[-1.0, 1.0], 0.95).unwrap();
        assert!(s.relative_std_error().is_infinite());
    }

    #[test]
    fn wider_confidence_gives_wider_interval() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s95 = from_slice(&data, 0.95).unwrap();
        let s99 = from_slice(&data, 0.99).unwrap();
        assert!(s99.half_width > s95.half_width);
        assert_eq!(s95.mean, s99.mean);
    }

    #[test]
    fn bounds_are_symmetric_about_mean() {
        let data = [2.0, 4.0, 6.0, 8.0];
        let s = from_slice(&data, 0.9).unwrap();
        assert!(((s.ci_low() + s.ci_high()) / 2.0 - s.mean).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn confidence_interval_contains_the_sample_mean(
            data in prop::collection::vec(-1e3f64..1e3, 2..50),
            conf in 0.5f64..0.999,
        ) {
            let s = from_slice(&data, conf).unwrap();
            prop_assert!(s.ci_low() <= s.mean && s.mean <= s.ci_high());
            prop_assert!(s.half_width >= 0.0);
        }
    }
}
