//! # lb-retry — shared retry policies
//!
//! Two policy objects used anywhere the workspace retries failed work:
//!
//! * [`RetryBackoff`] — capped *deterministic* exponential backoff
//!   (attempt `k` waits `min(base · factor^k, cap)`), used by the DES
//!   churn model to re-submit jobs preempted by a server crash.
//! * [`DecorrelatedJitter`] — capped exponential backoff with seeded
//!   *decorrelated jitter* (attempt `k` waits
//!   `min(cap, uniform(base, 3 · prev))`), used by the asynchronous
//!   equilibration runtime to retry unacknowledged messages without
//!   synchronizing retry storms across senders. The jitter stream is a
//!   splitmix64 sequence keyed by an explicit seed, so the full retry
//!   schedule is a pure function of `(policy, seed)` — chaos tests can
//!   replay it bit-for-bit.
//!
//! Both are policy objects only: they compute delays; scheduling the
//! retries stays with the caller.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

/// Capped exponential backoff for retrying failed work: attempt `k`
/// (0-based) waits `min(base · factor^k, cap)` seconds; after
/// `max_attempts` retries the work is given up as lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBackoff {
    base: f64,
    factor: f64,
    cap: f64,
    max_attempts: u32,
}

impl RetryBackoff {
    /// Creates a policy with first delay `base`, multiplier `factor`,
    /// ceiling `cap`, and at most `max_attempts` retries per job.
    ///
    /// # Panics
    ///
    /// Panics when `base` or `cap` is non-positive/non-finite, when
    /// `factor < 1`, or when `cap < base`.
    pub fn new(base: f64, factor: f64, cap: f64, max_attempts: u32) -> Self {
        assert!(
            base.is_finite() && base > 0.0,
            "backoff base must be positive and finite, got {base}"
        );
        assert!(
            factor.is_finite() && factor >= 1.0,
            "backoff factor must be >= 1, got {factor}"
        );
        assert!(
            cap.is_finite() && cap >= base,
            "backoff cap must be finite and >= base, got {cap}"
        );
        Self {
            base,
            factor,
            cap,
            max_attempts,
        }
    }

    /// Maximum number of retries per job.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Delay before retry number `attempt` (0-based), or `None` when the
    /// retry budget is exhausted and the job must be counted lost.
    pub fn delay(&self, attempt: u32) -> Option<f64> {
        if attempt >= self.max_attempts {
            return None;
        }
        // factor^attempt can overflow to inf for large budgets; the cap
        // keeps the result finite either way.
        let d = self.base * self.factor.powi(attempt.min(1_000) as i32);
        Some(d.min(self.cap))
    }
}

/// Sequential splitmix64 — the workspace's standard cheap deterministic
/// mixer (same construction as the observer and DES RNG streams).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of a splitmix output.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Capped backoff with *decorrelated jitter* (the AWS Architecture Blog
/// scheme): the first delay is `base`, and each subsequent delay is drawn
/// uniformly from `[base, 3 · previous]`, clamped to `cap`. Jitter keeps
/// concurrent senders from retrying in lockstep; decorrelation keeps the
/// expected delay growing geometrically without the full-window variance
/// of plain "full jitter".
///
/// The draw stream is a splitmix64 sequence keyed by the seed passed to
/// [`DecorrelatedJitter::new`], so the schedule is fully deterministic:
/// the same `(base, cap, max_attempts, seed)` always yields the same
/// delays, and two policies with different seeds decorrelate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecorrelatedJitter {
    base: f64,
    cap: f64,
    max_attempts: u32,
    attempt: u32,
    prev: f64,
    state: u64,
}

impl DecorrelatedJitter {
    /// Creates a policy with minimum delay `base`, ceiling `cap`, at most
    /// `max_attempts` retries, and the given jitter seed.
    ///
    /// # Panics
    ///
    /// Panics when `base` is non-positive/non-finite or `cap < base`.
    pub fn new(base: f64, cap: f64, max_attempts: u32, seed: u64) -> Self {
        assert!(
            base.is_finite() && base > 0.0,
            "backoff base must be positive and finite, got {base}"
        );
        assert!(
            cap.is_finite() && cap >= base,
            "backoff cap must be finite and >= base, got {cap}"
        );
        Self {
            base,
            cap,
            max_attempts,
            attempt: 0,
            prev: base,
            state: seed ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    /// Maximum number of retries.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Retries already issued (calls to [`Self::next_delay`] that
    /// returned `Some`).
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Draws the delay before the next retry, advancing the jitter
    /// stream, or returns `None` when the retry budget is exhausted.
    ///
    /// The first delay is exactly `base` (no jitter: there is nothing to
    /// decorrelate from yet); delay `k+1` is uniform in
    /// `[base, 3 · delay_k]` clamped to `cap`.
    pub fn next_delay(&mut self) -> Option<f64> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let d = if self.attempt == 0 {
            self.base
        } else {
            let hi = (self.prev * 3.0).min(self.cap).max(self.base);
            self.base + unit(&mut self.state) * (hi - self.base)
        };
        self.attempt += 1;
        self.prev = d;
        Some(d)
    }

    /// The full remaining schedule as a vector (consumes the budget).
    /// Convenience for tests and planning.
    pub fn schedule(mut self) -> Vec<f64> {
        let mut out = Vec::new();
        while let Some(d) = self.next_delay() {
            out.push(d);
        }
        out
    }

    /// Resets the policy to attempt 0 with a fresh seed, keeping the
    /// delay parameters. Used when a peer acks and a later loss starts a
    /// new retry episode.
    pub fn reset(&mut self, seed: u64) {
        self.attempt = 0;
        self.prev = self.base;
        self.state = seed ^ 0xD1B5_4A32_D192_ED03;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_up_to_the_cap_then_gives_up() {
        let p = RetryBackoff::new(0.1, 2.0, 0.5, 4);
        assert_eq!(p.delay(0), Some(0.1));
        assert_eq!(p.delay(1), Some(0.2));
        assert_eq!(p.delay(2), Some(0.4));
        assert_eq!(p.delay(3), Some(0.5)); // capped
        assert_eq!(p.delay(4), None); // budget exhausted: job lost
        assert_eq!(p.max_attempts(), 4);
    }

    #[test]
    fn zero_budget_loses_immediately() {
        let p = RetryBackoff::new(1.0, 2.0, 8.0, 0);
        assert_eq!(p.delay(0), None);
    }

    #[test]
    fn huge_attempt_numbers_stay_finite() {
        let p = RetryBackoff::new(1.0, 2.0, 30.0, u32::MAX);
        assert_eq!(p.delay(100_000), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn rejects_shrinking_factor() {
        RetryBackoff::new(1.0, 0.5, 2.0, 3);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn rejects_cap_below_base() {
        RetryBackoff::new(1.0, 2.0, 0.5, 3);
    }

    #[test]
    fn jitter_same_seed_same_schedule() {
        let a = DecorrelatedJitter::new(0.05, 2.0, 8, 42).schedule();
        let b = DecorrelatedJitter::new(0.05, 2.0, 8, 42).schedule();
        assert_eq!(a.len(), 8);
        // Bit-for-bit equality, not approximate: the schedule is a pure
        // function of the seed.
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn jitter_different_seeds_decorrelate() {
        let a = DecorrelatedJitter::new(0.05, 2.0, 8, 1).schedule();
        let b = DecorrelatedJitter::new(0.05, 2.0, 8, 2).schedule();
        // First delay is deterministic `base` for both; some later delay
        // must differ.
        assert_eq!(a[0], b[0]);
        assert!(a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits()));
    }

    #[test]
    fn jitter_stays_within_bounds_and_grows_toward_cap() {
        let mut p = DecorrelatedJitter::new(0.1, 1.0, 64, 7);
        let mut prev = 0.1_f64;
        while let Some(d) = p.next_delay() {
            assert!((0.1..=1.0).contains(&d), "delay {d} outside [base, cap]");
            assert!(d <= (prev * 3.0).clamp(0.1, 1.0) + 1e-12);
            prev = d;
        }
        assert_eq!(p.attempts(), 64);
        assert_eq!(p.next_delay(), None);
    }

    #[test]
    fn jitter_reset_replays_from_scratch() {
        let p = DecorrelatedJitter::new(0.05, 2.0, 4, 9);
        let first: Vec<f64> = p.schedule();
        let mut q = DecorrelatedJitter::new(0.05, 2.0, 4, 1234);
        q.next_delay();
        q.reset(9);
        let replay: Vec<f64> = q.schedule();
        assert!(first
            .iter()
            .zip(&replay)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    #[should_panic(expected = "base")]
    fn jitter_rejects_bad_base() {
        DecorrelatedJitter::new(0.0, 1.0, 3, 1);
    }

    #[test]
    #[should_panic(expected = "cap")]
    fn jitter_rejects_cap_below_base() {
        DecorrelatedJitter::new(1.0, 0.5, 3, 1);
    }
}
