//! Reproducible random-number streams and sampling distributions.
//!
//! The paper replicates each simulation "five times with different random
//! number streams". We give every stochastic entity (each user source,
//! each station) its own [`RngStream`], derived deterministically from a
//! master seed and a stream index, so replications differ only in the
//! master seed and runs are bit-reproducible.
//!
//! Sampling is implemented from scratch on top of `rand`'s uniform
//! generator: exponential by inversion (the M/M/1 workhorse), Erlang as a
//! sum of exponentials, two-phase hyperexponential by mixture, and
//! deterministic — the latter three power sensitivity extensions where the
//! exponential service assumption is relaxed.

use lb_stats::splitmix64_finalize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, reproducible random stream.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: StdRng,
    /// Base draws taken from this stream. Every sampler funnels
    /// through [`RngStream::uniform01`], so this single plain counter
    /// (no atomics on the 3.5M-jobs/s hot path) accounts for all RNG
    /// work; snapshot points fold it into `account.*` events.
    draws: u64,
}

impl RngStream {
    /// Derives stream number `stream` from a master seed. Different
    /// `(master_seed, stream)` pairs yield decorrelated streams (SplitMix64
    /// spreading, the same construction `lb-stats` uses for replication
    /// seeds).
    pub fn new(master_seed: u64, stream: u64) -> Self {
        let z = splitmix64_finalize(master_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Self {
            rng: StdRng::seed_from_u64(z),
            draws: 0,
        }
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        self.draws += 1;
        self.rng.gen::<f64>()
    }

    /// Number of base uniform draws taken from this stream so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Uniform sample in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics when `low >= high` or the bounds are non-finite.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low.is_finite() && high.is_finite() && low < high,
            "invalid uniform bounds [{low}, {high})"
        );
        low + (high - low) * self.uniform01()
    }

    /// Exponential sample with the given `rate` (mean `1/rate`), by
    /// inversion: `−ln(1 − U)/rate`.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive or non-finite rate.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        // 1 - U is in (0, 1], so ln is finite and the sample non-negative.
        -(1.0 - self.uniform01()).ln() / rate
    }

    /// Samples a categorical index with the given (unnormalized, non-
    /// negative) weights. Used by the probabilistic dispatcher: user `j`
    /// picks computer `i` with probability `s_ji`.
    ///
    /// # Panics
    ///
    /// Panics when weights are empty, contain negatives/non-finites, or
    /// all are zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "categorical needs at least one weight");
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            total += w;
        }
        assert!(total > 0.0, "categorical weights sum to zero");
        let mut x = self.uniform01() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point slack: return the last positive-weight index.
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("total > 0 implies a positive weight")
    }

    /// Draws a sample from a [`Distribution`].
    pub fn sample(&mut self, dist: &Distribution) -> f64 {
        match *dist {
            Distribution::Exponential { rate } => self.exponential(rate),
            Distribution::Erlang { k, rate } => (0..k).map(|_| self.exponential(rate)).sum(),
            Distribution::HyperExponential { p, rate_a, rate_b } => {
                if self.uniform01() < p {
                    self.exponential(rate_a)
                } else {
                    self.exponential(rate_b)
                }
            }
            Distribution::Deterministic { value } => value,
        }
    }

    /// Fills `out` with exponential samples, consuming exactly the same
    /// underlying uniforms as `out.len()` calls to
    /// [`RngStream::exponential`] — the block form exists to amortize
    /// per-call overhead in batched event generation, not to change the
    /// stream, so sequential and batched generators stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive or non-finite rate.
    pub fn fill_exponential(&mut self, rate: f64, out: &mut [f64]) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        // Divide (not multiply-by-reciprocal): the block must round
        // exactly like the per-call form to stay bit-identical.
        for slot in out.iter_mut() {
            *slot = -(1.0 - self.uniform01()).ln() / rate;
        }
    }

    /// Fills `out` with samples from `dist`, consuming exactly the same
    /// uniforms as `out.len()` calls to [`RngStream::sample`] (see
    /// [`RngStream::fill_exponential`] for the bit-identity contract).
    pub fn fill_samples(&mut self, dist: &Distribution, out: &mut [f64]) {
        match *dist {
            Distribution::Exponential { rate } => self.fill_exponential(rate, out),
            _ => {
                for slot in out.iter_mut() {
                    *slot = self.sample(dist);
                }
            }
        }
    }

    /// Standard normal sample via Box–Muller (one variate per call; the
    /// paired variate is discarded to keep the uniform consumption per
    /// call fixed, which the reproducibility discipline depends on).
    pub fn normal01(&mut self) -> f64 {
        // 1 − U ∈ (0, 1] keeps the log finite.
        let r = (-2.0 * (1.0 - self.uniform01()).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * self.uniform01();
        r * theta.cos()
    }

    /// Poisson sample with the given mean: Knuth's product-of-uniforms
    /// method for small means, a rounded normal approximation above 30
    /// (where the relative error of the approximation is far below the
    /// Monte-Carlo noise of any consumer in this workspace).
    ///
    /// # Panics
    ///
    /// Panics for a negative or non-finite mean.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "poisson mean must be non-negative, got {mean}"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut product = self.uniform01();
            let mut count = 0u64;
            while product > limit {
                product *= self.uniform01();
                count += 1;
            }
            count
        } else {
            let x = mean + mean.sqrt() * self.normal01();
            if x < 0.5 {
                0
            } else {
                (x + 0.5) as u64
            }
        }
    }

    /// Gamma(shape, rate) sample by Marsaglia–Tsang squeeze for shape ≥ 1
    /// (the only regime the simulator needs: shapes are job counts). The
    /// sum of `k` iid Exponential(rate) variables is Gamma(k, rate), which
    /// is what lets the analytic fast path collapse a whole measurement
    /// window of per-job sojourn draws into one variate.
    ///
    /// # Panics
    ///
    /// Panics unless `shape >= 1` and `rate > 0` (both finite).
    pub fn gamma(&mut self, shape: f64, rate: f64) -> f64 {
        assert!(
            shape.is_finite() && shape >= 1.0,
            "gamma shape must be >= 1, got {shape}"
        );
        assert!(
            rate.is_finite() && rate > 0.0,
            "gamma rate must be positive, got {rate}"
        );
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = self.normal01();
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = 1.0 - self.uniform01(); // (0, 1], ln finite
            if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
                return d * v / rate;
            }
        }
    }
}

/// Walker/Vose alias table: O(n) construction, O(1) categorical sampling.
///
/// [`RngStream::categorical`] scans its weight list on every draw, which
/// is fine for one dispatch decision per job against a short row but
/// dominates when a sharded station attributes millions of jobs against
/// the same fixed weight vector. The alias table front-loads the scan into
/// construction and answers each draw with two uniforms and two array
/// reads.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance threshold per bucket (scaled weight share).
    prob: Vec<f64>,
    /// Fallback category per bucket.
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from unnormalized, non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics when weights are empty, contain negatives/non-finites, or
    /// all are zero (the same contract as [`RngStream::categorical`]).
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            total += w;
        }
        assert!(total > 0.0, "alias-table weights sum to zero");
        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<usize> = (0..n).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers are 1.0 up to rounding; saturate so they always accept.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
        }
        Self { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no categories (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index, consuming exactly two uniforms.
    #[inline]
    pub fn sample(&self, rng: &mut RngStream) -> usize {
        let n = self.prob.len();
        let bucket = ((rng.uniform01() * n as f64) as usize).min(n - 1);
        if rng.uniform01() < self.prob[bucket] {
            bucket
        } else {
            self.alias[bucket]
        }
    }
}

/// A buffered sampler: draws from one [`Distribution`] on one stream in
/// refill blocks, popping one value at a time.
///
/// Because [`RngStream::fill_samples`] consumes exactly the uniforms of
/// the equivalent per-call draws, a `SampleBlock` yields bit-identical
/// sequences to calling [`RngStream::sample`] directly — it exists purely
/// to amortize per-draw call and dispatch overhead in event-generation
/// hot loops, and is only sound when the stream is not interleaved with
/// other consumers (each stochastic entity owns its stream, per the module
/// contract).
#[derive(Debug, Clone)]
pub struct SampleBlock {
    dist: Distribution,
    buf: Vec<f64>,
    pos: usize,
}

impl SampleBlock {
    /// Creates a buffered sampler refilling `block` samples at a time.
    ///
    /// # Panics
    ///
    /// Panics when `block` is zero.
    pub fn new(dist: Distribution, block: usize) -> Self {
        assert!(block > 0, "sample block must be non-empty");
        Self {
            dist,
            buf: vec![0.0; block],
            pos: block, // empty: first next() refills
        }
    }

    /// Pops the next sample, refilling the buffer from `rng` when empty.
    #[inline]
    pub fn next(&mut self, rng: &mut RngStream) -> f64 {
        if self.pos == self.buf.len() {
            rng.fill_samples(&self.dist, &mut self.buf);
            self.pos = 0;
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        x
    }
}

/// Interarrival / service-time distributions available to the simulator.
///
/// The paper's model is [`Distribution::Exponential`] throughout; the
/// others are used by robustness extensions (EXPERIMENTS.md, "beyond the
/// paper").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Exponential with the given rate (mean `1/rate`, CV 1).
    Exponential {
        /// Rate parameter `λ`.
        rate: f64,
    },
    /// Erlang-k: sum of `k` exponentials (CV `1/√k < 1`).
    Erlang {
        /// Number of exponential phases.
        k: u32,
        /// Per-phase rate (mean is `k/rate`).
        rate: f64,
    },
    /// Two-phase hyperexponential mixture (CV > 1).
    HyperExponential {
        /// Probability of drawing phase A.
        p: f64,
        /// Rate of phase A.
        rate_a: f64,
        /// Rate of phase B.
        rate_b: f64,
    },
    /// A constant (CV 0).
    Deterministic {
        /// The constant value returned by every sample.
        value: f64,
    },
}

impl Distribution {
    /// Exponential distribution with the mean of one job at a computer of
    /// processing rate `mu` — the paper's service model.
    pub fn exp_with_rate(rate: f64) -> Self {
        Distribution::Exponential { rate }
    }

    /// Theoretical mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Exponential { rate } => 1.0 / rate,
            Distribution::Erlang { k, rate } => f64::from(k) / rate,
            Distribution::HyperExponential { p, rate_a, rate_b } => p / rate_a + (1.0 - p) / rate_b,
            Distribution::Deterministic { value } => value,
        }
    }

    /// Squared coefficient of variation (variance / mean²).
    pub fn scv(&self) -> f64 {
        match *self {
            Distribution::Exponential { .. } => 1.0,
            Distribution::Erlang { k, .. } => 1.0 / f64::from(k),
            Distribution::HyperExponential { p, rate_a, rate_b } => {
                let m = self.mean();
                let m2 = 2.0 * (p / (rate_a * rate_a) + (1.0 - p) / (rate_b * rate_b));
                m2 / (m * m) - 1.0
            }
            Distribution::Deterministic { .. } => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let mut a1 = RngStream::new(7, 0);
        let mut a2 = RngStream::new(7, 0);
        let mut b = RngStream::new(7, 1);
        let mut c = RngStream::new(8, 0);
        let xa1: Vec<f64> = (0..16).map(|_| a1.uniform01()).collect();
        let xa2: Vec<f64> = (0..16).map(|_| a2.uniform01()).collect();
        let xb: Vec<f64> = (0..16).map(|_| b.uniform01()).collect();
        let xc: Vec<f64> = (0..16).map(|_| c.uniform01()).collect();
        assert_eq!(xa1, xa2);
        assert_ne!(xa1, xb);
        assert_ne!(xa1, xc);
    }

    #[test]
    fn uniform01_stays_in_range() {
        let mut s = RngStream::new(1, 1);
        for _ in 0..10_000 {
            let x = s.uniform01();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn every_sampler_is_accounted_through_the_draw_counter() {
        let mut s = RngStream::new(1, 2);
        assert_eq!(s.draws(), 0);
        s.uniform01();
        assert_eq!(s.draws(), 1);
        s.exponential(2.0);
        assert_eq!(s.draws(), 2);
        let mut buf = [0.0; 16];
        s.fill_exponential(1.0, &mut buf);
        assert_eq!(s.draws(), 18, "bulk fills count per variate");
        s.normal01();
        assert_eq!(s.draws(), 20, "Box-Muller takes two base draws");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut s = RngStream::new(1, 2);
        for _ in 0..1000 {
            let x = s.uniform(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn uniform_rejects_inverted_bounds() {
        RngStream::new(0, 0).uniform(2.0, 1.0);
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut s = RngStream::new(42, 0);
        let n = 200_000;
        let rate = 3.0;
        let mean: f64 = (0..n).map(|_| s.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01 / rate,
            "empirical mean {mean}, expected {}",
            1.0 / rate
        );
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut s = RngStream::new(5, 5);
        for _ in 0..10_000 {
            assert!(s.exponential(0.5) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        RngStream::new(0, 0).exponential(0.0);
    }

    #[test]
    fn categorical_matches_weights() {
        let mut s = RngStream::new(9, 9);
        let weights = [0.2, 0.0, 0.5, 0.3];
        let mut counts = [0u32; 4];
        let n = 100_000;
        for _ in 0..n {
            counts[s.categorical(&weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        for (i, &w) in weights.iter().enumerate() {
            let freq = f64::from(counts[i]) / f64::from(n);
            assert!(
                (freq - w).abs() < 0.01,
                "category {i}: freq {freq} vs weight {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn categorical_rejects_all_zero() {
        RngStream::new(0, 0).categorical(&[0.0, 0.0]);
    }

    #[test]
    fn distribution_means_are_exact() {
        assert!((Distribution::Exponential { rate: 4.0 }.mean() - 0.25).abs() < 1e-12);
        assert!((Distribution::Erlang { k: 3, rate: 6.0 }.mean() - 0.5).abs() < 1e-12);
        assert!((Distribution::Deterministic { value: 1.5 }.mean() - 1.5).abs() < 1e-12);
        let h = Distribution::HyperExponential {
            p: 0.5,
            rate_a: 1.0,
            rate_b: 2.0,
        };
        assert!((h.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn distribution_scv_ordering() {
        let det = Distribution::Deterministic { value: 1.0 };
        let erl = Distribution::Erlang { k: 4, rate: 4.0 };
        let exp = Distribution::Exponential { rate: 1.0 };
        let hyp = Distribution::HyperExponential {
            p: 0.9,
            rate_a: 2.0,
            rate_b: 0.2,
        };
        assert_eq!(det.scv(), 0.0);
        assert!((erl.scv() - 0.25).abs() < 1e-12);
        assert_eq!(exp.scv(), 1.0);
        assert!(
            hyp.scv() > 1.0,
            "hyperexponential must have SCV > 1, got {}",
            hyp.scv()
        );
    }

    #[test]
    fn batched_fills_are_bit_identical_to_per_call_draws() {
        let dists = [
            Distribution::Exponential { rate: 3.0 },
            Distribution::Erlang { k: 3, rate: 6.0 },
            Distribution::HyperExponential {
                p: 0.3,
                rate_a: 0.5,
                rate_b: 4.0,
            },
            Distribution::Deterministic { value: 0.7 },
        ];
        for d in dists {
            let mut seq = RngStream::new(11, 4);
            let one: Vec<f64> = (0..257).map(|_| seq.sample(&d)).collect();
            let mut blk = RngStream::new(11, 4);
            let mut block = SampleBlock::new(d, 64);
            let bulk: Vec<f64> = (0..257).map(|_| block.next(&mut blk)).collect();
            assert_eq!(
                one.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                bulk.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{d:?}"
            );
        }
    }

    #[test]
    fn normal01_moments() {
        let mut s = RngStream::new(3, 14);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal01()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "normal variance {var}");
    }

    #[test]
    fn poisson_mean_tracks_parameter_in_both_regimes() {
        let mut s = RngStream::new(21, 0);
        for mean in [0.0, 0.4, 7.5, 29.9, 80.0, 4000.0] {
            let n = 20_000;
            let avg = (0..n).map(|_| s.poisson(mean)).sum::<u64>() as f64 / n as f64;
            let tol = 3.0 * (mean / n as f64).sqrt().max(1e-12) + 0.51 / n as f64;
            assert!(
                (avg - mean).abs() <= tol.max(0.05 * mean.max(0.01)),
                "poisson({mean}): empirical {avg}"
            );
        }
    }

    #[test]
    fn gamma_matches_sum_of_exponentials_in_distribution() {
        // Gamma(k, r) must have mean k/r and variance k/r² — the moments
        // of a sum of k iid Exponential(r), which the analytic fast path
        // relies on.
        let (shape, rate) = (5.0, 2.0);
        let mut s = RngStream::new(8, 3);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| s.gamma(shape, rate)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - shape / rate).abs() < 0.02 * shape / rate, "{mean}");
        assert!(
            (var - shape / (rate * rate)).abs() < 0.05 * shape / (rate * rate),
            "{var}"
        );
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn alias_table_matches_weights() {
        let weights = [0.2, 0.0, 0.5, 0.3];
        let table = AliasTable::new(&weights);
        assert_eq!(table.len(), 4);
        let mut s = RngStream::new(9, 9);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[table.sample(&mut s)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight category must never be drawn");
        for (i, &w) in weights.iter().enumerate() {
            let freq = f64::from(counts[i]) / f64::from(n);
            assert!(
                (freq - w).abs() < 0.01,
                "category {i}: freq {freq} vs weight {w}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero")]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn sampled_means_match_theory() {
        let mut s = RngStream::new(77, 3);
        let dists = [
            Distribution::Exponential { rate: 2.0 },
            Distribution::Erlang { k: 3, rate: 6.0 },
            Distribution::HyperExponential {
                p: 0.3,
                rate_a: 0.5,
                rate_b: 4.0,
            },
            Distribution::Deterministic { value: 0.7 },
        ];
        for d in dists {
            let n = 100_000;
            let mean: f64 = (0..n).map(|_| s.sample(&d)).sum::<f64>() / n as f64;
            assert!(
                (mean - d.mean()).abs() < 0.02 * d.mean().max(0.1),
                "{d:?}: empirical {mean} vs {}",
                d.mean()
            );
        }
    }
}
