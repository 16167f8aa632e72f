//! Welford's online algorithm for streaming mean and variance.
//!
//! It serves the callers that need a variance: `ReplicationSet`'s
//! confidence half-widths, `BatchMeans`, `SampleSummary`, the benchmark's
//! report, and tests that check a simulated variance through a response
//! sink. The update is single-pass, O(1) memory and numerically stable,
//! where naive sum-of-squares accumulation loses precision. The
//! simulators' per-job monitor needs only means, so it keeps a count and
//! a sum per user instead of paying a division per job here.

/// Streaming accumulator for count, mean and variance.
///
/// # Examples
///
/// ```
/// use lb_stats::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.sample_variance(), 32.0 / 7.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0` when empty.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n − 1`); `0` for fewer than
    /// two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s/√n`; `0` for fewer than two
    /// observations.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_accumulator_defaults() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.sample_variance(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let w: Welford = data.iter().copied().collect();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn numerically_stable_with_large_offsets() {
        // Classic catastrophic-cancellation case: variance of values near 1e9.
        let data = [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0];
        let w: Welford = data.iter().copied().collect();
        assert!((w.mean() - (1e9 + 10.0)).abs() < 1e-3);
        assert!(
            (w.sample_variance() - 30.0).abs() < 1e-6,
            "var = {}",
            w.sample_variance()
        );
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let mut w = Welford::new();
        for i in 0..100 {
            w.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let se100 = w.std_error();
        for i in 0..9900 {
            w.push(if i % 2 == 0 { 1.0 } else { -1.0 });
        }
        let se10000 = w.std_error();
        assert!(se10000 < se100 / 5.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn welford_matches_two_pass(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let w: Welford = data.iter().copied().collect();
            let n = data.len() as f64;
            let mean = data.iter().sum::<f64>() / n;
            prop_assert!((w.mean() - mean).abs() <= 1e-9 * (1.0 + mean.abs()));
            if data.len() > 1 {
                let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
                prop_assert!((w.sample_variance() - var).abs() <= 1e-6 * (1.0 + var));
            }
            prop_assert_eq!(w.count(), data.len() as u64);
        }
    }
}
