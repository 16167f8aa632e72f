//! Welford's online algorithm for streaming mean and variance.
//!
//! It serves the callers that need a variance: `ReplicationSet`'s
//! confidence half-widths, `BatchMeans`, `SampleSummary`, the benchmark's
//! report, and tests that check a simulated variance through a response
//! sink. The update is single-pass, O(1) memory and numerically stable,
//! where naive sum-of-squares accumulation loses precision. The
//! simulators' per-job monitor needs only means, so it keeps a count and
//! a sum per user instead of paying a division per job here.

/// Streaming accumulator for count, mean, variance, min and max.
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
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan et al.'s parallel
    /// combination rule), enabling per-thread accumulation.
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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
    pub fn sample_std_dev(&self) -> f64 {
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

    /// Smallest observation; `+∞` when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; `−∞` when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations (`mean · n`).
    #[inline]
    pub fn sum(&self) -> f64 {
        self.mean * self.count as f64
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

    #[test]
    fn empty_accumulator_defaults() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.std_error(), 0.0);
        assert!(w.min().is_infinite());
        assert!(w.max().is_infinite());
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(3.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.min(), 3.5);
        assert_eq!(w.max(), 3.5);
        assert_eq!(w.sum(), 3.5);
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
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..200).map(|i| (i as f64).sqrt()).collect();
        let all: Welford = data.iter().copied().collect();
        let mut a: Welford = data[..70].iter().copied().collect();
        let b: Welford = data[70..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = [1.0, 2.0, 3.0];
        let mut w: Welford = data.iter().copied().collect();
        let before = w;
        w.merge(&Welford::new());
        assert_eq!(w, before);
        let mut e = Welford::new();
        e.merge(&before);
        assert_eq!(e, before);
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
}
