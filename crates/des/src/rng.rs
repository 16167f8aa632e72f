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
//!
//! The logarithm in the exponential inversion is not the platform's
//! `f64::ln` but a private copy of the main path of fdlibm's `log`
//! (`e_log.c`): its input `1 − U` is always a normal number in
//! `[2⁻⁵³, 1]`, so the kernel needs none of the special cases, has no
//! branch and no call, and a block of draws pipelines. Against glibc
//! 2.36's `log` it differs on about 7% of inputs, by 1 ulp each time,
//! and it never changes how many uniforms a draw takes.

use lb_stats::splitmix64_finalize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, reproducible random stream.
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: StdRng,
    /// Base draws taken from this stream. Every sampler funnels
    /// through [`RngStream::uniform01`], so this single plain counter
    /// (no atomics on the hot path) accounts for all RNG work;
    /// snapshot points fold it into `account.*` events.
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
    pub(crate) fn draws(&self) -> u64 {
        self.draws
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
        exponential_from(self.uniform01(), rate)
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
    /// It works in two passes: the first fills `out` with the block's
    /// uniforms (the generator's serial state chain), the second
    /// transforms each slot in place to `−ln(1 − U)/rate`. The second
    /// pass has no call and no branch and its iterations are
    /// independent, so they overlap in the pipeline; a single fused
    /// pass measured no faster than one calling libm's `log`.
    ///
    /// # Panics
    ///
    /// Panics for a non-positive or non-finite rate.
    pub fn fill_exponential(&mut self, rate: f64, out: &mut [f64]) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        for slot in out.iter_mut() {
            *slot = self.uniform01();
        }
        for slot in out.iter_mut() {
            *slot = exponential_from(*slot, rate);
        }
    }

    /// Fills `out` with samples from `dist`, consuming exactly the same
    /// uniforms as `out.len()` calls to [`RngStream::sample`] (see
    /// [`RngStream::fill_exponential`] for the bit-identity contract).
    pub(crate) fn fill_samples(&mut self, dist: &Distribution, out: &mut [f64]) {
        match *dist {
            Distribution::Exponential { rate } => self.fill_exponential(rate, out),
            _ => {
                for slot in out.iter_mut() {
                    *slot = self.sample(dist);
                }
            }
        }
    }
}

/// The exponential inversion `−ln(1 − u)/rate` of one uniform
/// `u ∈ [0, 1)`, shared by the per-call and block draws so both round
/// alike. It divides rather than multiplying by a reciprocal, which
/// rounds differently.
#[inline(always)]
fn exponential_from(u: f64, rate: f64) -> f64 {
    // 1 − u ∈ [2⁻⁵³, 1] is exact and normal, so the sample is finite
    // and non-negative.
    -ln_normal(1.0 - u) / rate
}

// The natural logarithm below is the main path of fdlibm's e_log.c, in
// the revision FreeBSD's msun and musl carry:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// ln x = k·ln2 + ln(1 + f) with x = 2ᵏ(1 + f) and √½ ≤ 1 + f < √2, and
// ln(1 + f) = f − hfsq + s·(hfsq + R(z)) with s = f/(2 + f), z = s²,
// hfsq = f²/2 and R a degree-14 even polynomial in s (the Lg1..Lg7
// coefficients, error below 2⁻⁵⁸·⁴⁵). The special cases (zero,
// negative, subnormal, infinite and NaN input, and the shortcut for
// x = 1) are left out: the exponential inversion's input is
// `1 − U ∈ [2⁻⁵³, 1]`, always normal, and the general path returns +0
// at 1. Keep the operation order as written: it fixes the bits of every
// simulated interarrival and service time.

/// Natural logarithm of a positive normal `x` (the caller guarantees
/// it; zero, subnormal, negative and non-finite input give garbage).
#[allow(clippy::excessive_precision)]
#[inline(always)]
fn ln_normal(x: f64) -> f64 {
    // fdlibm's constants, digit for digit as its source prints them.
    const LN2_HI: f64 = 6.93147180369123816490e-01;
    const LN2_LO: f64 = 1.90821492927058770002e-10;
    const LG1: f64 = 6.666666666666735130e-01;
    const LG2: f64 = 3.999999999940941908e-01;
    const LG3: f64 = 2.857142874366239149e-01;
    const LG4: f64 = 2.222219843214978396e-01;
    const LG5: f64 = 1.818357216161805012e-01;
    const LG6: f64 = 1.531383769920937332e-01;
    const LG7: f64 = 1.479819860511658591e-01;
    let bits = x.to_bits();
    // Shift the high word so that k and f come out with
    // √½ ≤ 1 + f < √2.
    let hx = ((bits >> 32) as u32).wrapping_add(0x3ff0_0000 - 0x3fe6_a09e);
    let k = (hx >> 20) as i32 - 0x3ff;
    let f =
        f64::from_bits((u64::from((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff))
            - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let dk = f64::from(k);
    let w = z * z;
    let r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    s * (hfsq + r) + dk * LN2_LO - hfsq + f + dk * LN2_HI
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
    /// `[alias(b), b]` for each bucket `b`, so a draw indexes its
    /// outcome with the acceptance bit instead of branching on it.
    pick: Vec<usize>,
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
        let pick = alias
            .into_iter()
            .enumerate()
            .flat_map(|(b, a)| [a, b])
            .collect();
        Self { prob, pick }
    }

    /// Number of categories.
    pub(crate) fn len(&self) -> usize {
        self.prob.len()
    }

    /// Draws a category index, consuming exactly two uniforms.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut RngStream) -> usize {
        let n = self.prob.len();
        let bucket = ((rng.uniform01() * n as f64) as usize).min(n - 1);
        // An uneven table accepts at random, so a branch on the
        // acceptance mispredicts often; the bit indexes instead.
        let accept = rng.uniform01() < self.prob[bucket];
        self.pick[2 * bucket + usize::from(accept)]
    }

    /// The branching draw [`AliasTable::sample`] replaced: the
    /// reference its index sequence is checked against.
    #[cfg(test)]
    fn sample_branchy(&self, rng: &mut RngStream) -> usize {
        let n = self.prob.len();
        let bucket = ((rng.uniform01() * n as f64) as usize).min(n - 1);
        if rng.uniform01() < self.prob[bucket] {
            bucket
        } else {
            self.pick[2 * bucket]
        }
    }
}

/// A buffered sampler: draws from one [`Distribution`] on one stream in
/// refill blocks, popping one value at a time.
///
/// Because `RngStream::fill_samples` consumes exactly the uniforms of
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
    use proptest::prelude::*;

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
        s.sample(&Distribution::Erlang { k: 3, rate: 1.0 });
        assert_eq!(s.draws(), 21, "an Erlang-3 variate takes three base draws");
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

    proptest! {
        #[test]
        fn alias_draws_match_the_branching_reference(
            weights in prop::collection::vec(
                prop_oneof![
                    1 => Just(0.0),
                    3 => (0.0f64..=6.0).prop_map(|e| 10f64.powf(e)),
                ],
                1..41,
            )
            .prop_map(|mut w| {
                if w.iter().all(|&x| x == 0.0) {
                    w[0] = 1.0;
                }
                w
            }),
            seed in 0u64..u64::MAX,
        ) {
            let table = AliasTable::new(&weights);
            let mut got = RngStream::new(seed, 0);
            let mut want = RngStream::new(seed, 0);
            for draw in 0..1_000 {
                prop_assert_eq!(
                    table.sample(&mut got),
                    table.sample_branchy(&mut want),
                    "draw {}",
                    draw
                );
            }
            prop_assert_eq!(got.draws(), want.draws());
        }
    }

    /// Distance in units in the last place between two finite values of
    /// one sign.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn log_kernel_stays_within_two_ulps_of_ln() {
        // Inputs 1 − U, as the exponential inversion takes them. The
        // largest gap against glibc's log is 1 ulp; 2 leaves room for
        // other platforms' libm.
        let mut s = RngStream::new(17, 0);
        for _ in 0..1_000_000 {
            let x = 1.0 - s.uniform01();
            assert!(ulps(ln_normal(x), x.ln()) <= 2, "ln {x:e}");
        }
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        let mut edges = vec![
            0.5,
            1.0 - f64::EPSILON / 2.0,
            f64::from_bits(sqrt_half.to_bits() - 1),
            sqrt_half,
            f64::from_bits(sqrt_half.to_bits() + 1),
        ];
        edges.extend((1..=53).map(|k| 2f64.powi(-k)));
        for x in edges {
            assert!(ulps(ln_normal(x), x.ln()) <= 2, "ln {x:e}");
        }
        assert_eq!(ln_normal(1.0).to_bits(), 0.0f64.to_bits(), "ln 1 is +0");
    }

    #[test]
    fn exponential_is_finite_and_nonnegative_at_both_uniform_extremes() {
        for u in [0.0, 1.0 - f64::EPSILON / 2.0] {
            for rate in [1e-3, 1.0, 1e3] {
                let x = exponential_from(u, rate);
                assert!(x.is_finite() && x >= 0.0, "u {u:e}, rate {rate}: {x}");
            }
        }
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
