//! Replication control: the paper's "run five replications with different
//! random streams, average, and keep the standard error under 5%".
//!
//! [`ReplicationPlan`] describes the policy (how many replications, which
//! precision to demand); [`ReplicationSet`] collects per-replication
//! observations of possibly many named metrics and produces
//! [`SampleSummary`] values plus a precision verdict.

use crate::summary::SampleSummary;
use crate::welford::Welford;

/// Policy for a replicated experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPlan {
    /// Number of independent replications to run (the paper uses 5).
    pub replications: u32,
    /// Confidence level for intervals (the paper uses 0.95).
    pub confidence: f64,
    /// Maximum acceptable relative standard error (the paper demands 0.05).
    pub max_relative_error: f64,
    /// Base seed; replication `r` derives its stream from `base_seed + r`.
    pub base_seed: u64,
}

impl ReplicationPlan {
    /// The paper's §4.1 policy: 5 replications, 95% confidence, 5% relative
    /// standard error.
    pub fn paper() -> Self {
        Self {
            replications: 5,
            confidence: 0.95,
            max_relative_error: 0.05,
            base_seed: 0x005e_ed1b,
        }
    }

    /// A faster policy for CI tests: 3 replications, looser precision.
    pub fn quick() -> Self {
        Self {
            replications: 3,
            confidence: 0.95,
            max_relative_error: 0.15,
            base_seed: 0x005e_ed1b,
        }
    }

    /// Seed for replication index `r` (`0 <= r < replications`), spread by
    /// SplitMix64 so adjacent replications get decorrelated streams.
    pub fn seed_for(&self, replication: u32) -> u64 {
        splitmix64_finalize(
            self.base_seed
                .wrapping_add(u64::from(replication).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }
}

/// The SplitMix64 output finalizer: two xor-shift-multiply rounds and a
/// final xor-shift, a bijection on `u64` that spreads every input bit
/// over the whole output. Callers supply their own input step (usually
/// adding or xoring in multiples of the golden-ratio increment
/// `0x9E37_79B9_7F4A_7C15`) and pass the result through this.
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for ReplicationPlan {
    fn default() -> Self {
        Self::paper()
    }
}

/// Accumulates one observation per replication for each of `k` metrics
/// (e.g. the per-user expected response times of a simulated scheme).
#[derive(Debug, Clone)]
pub struct ReplicationSet {
    names: Vec<String>,
    accumulators: Vec<Welford>,
    replications_recorded: u32,
    confidence: f64,
}

impl ReplicationSet {
    /// Creates a set tracking the given metric names at a confidence level.
    pub fn new<S: Into<String>>(names: Vec<S>, confidence: f64) -> Self {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let accumulators = vec![Welford::new(); names.len()];
        Self {
            names,
            accumulators,
            replications_recorded: 0,
            confidence,
        }
    }

    /// Records the metric vector produced by one replication.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of metrics — that is
    /// a programming error in the harness, not a data condition.
    pub fn record(&mut self, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.accumulators.len(),
            "replication recorded {} values for {} metrics",
            values.len(),
            self.accumulators.len()
        );
        for (acc, &v) in self.accumulators.iter_mut().zip(values) {
            acc.push(v);
        }
        self.replications_recorded += 1;
    }

    /// Number of replications recorded so far.
    pub fn replications(&self) -> u32 {
        self.replications_recorded
    }

    /// Metric names, in recording order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Summary for metric `i`; `None` before any replication is recorded.
    pub fn summary(&self, i: usize) -> Option<SampleSummary> {
        SampleSummary::from_welford(&self.accumulators[i], self.confidence)
    }

    /// Summaries for all metrics; `None` before any replication.
    pub fn summaries(&self) -> Option<Vec<SampleSummary>> {
        (0..self.accumulators.len())
            .map(|i| self.summary(i))
            .collect()
    }

    /// Cross-replication means for all metrics (zeros before recording).
    pub fn means(&self) -> Vec<f64> {
        self.accumulators.iter().map(Welford::mean).collect()
    }

    /// Whether *every* metric meets the relative-standard-error threshold.
    pub fn meets_precision(&self, max_relative_error: f64) -> bool {
        self.replications_recorded >= 2
            && self
                .summaries()
                .map(|s| s.iter().all(|x| x.meets_precision(max_relative_error)))
                .unwrap_or(false)
    }

    /// Worst (largest) relative standard error across metrics; `+∞` before
    /// two replications exist.
    pub fn worst_relative_error(&self) -> f64 {
        if self.replications_recorded < 2 {
            return f64::INFINITY;
        }
        self.summaries()
            .map(|s| {
                s.iter()
                    .map(SampleSummary::relative_std_error)
                    .fold(0.0, f64::max)
            })
            .unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_matches_methodology() {
        let p = ReplicationPlan::paper();
        assert_eq!(p.replications, 5);
        assert_eq!(p.confidence, 0.95);
        assert_eq!(p.max_relative_error, 0.05);
    }

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let p = ReplicationPlan::paper();
        let seeds: Vec<u64> = (0..5).map(|r| p.seed_for(r)).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
        assert_eq!(p.seed_for(3), p.seed_for(3));
        let q = ReplicationPlan {
            base_seed: 99,
            ..ReplicationPlan::paper()
        };
        assert_ne!(p.seed_for(0), q.seed_for(0));
    }

    #[test]
    fn records_and_summarizes_per_metric() {
        let mut set = ReplicationSet::new(vec!["user0", "user1"], 0.95);
        set.record(&[1.0, 10.0]);
        set.record(&[2.0, 10.0]);
        set.record(&[3.0, 10.0]);
        assert_eq!(set.replications(), 3);
        assert_eq!(set.means(), vec![2.0, 10.0]);
        let s0 = set.summary(0).unwrap();
        assert_eq!(s0.count, 3);
        assert!((s0.mean - 2.0).abs() < 1e-12);
        let s1 = set.summary(1).unwrap();
        assert_eq!(s1.std_dev, 0.0);
    }

    #[test]
    #[should_panic(expected = "metrics")]
    fn wrong_arity_panics() {
        let mut set = ReplicationSet::new(vec!["a"], 0.95);
        set.record(&[1.0, 2.0]);
    }

    #[test]
    fn precision_gate_behaves() {
        let mut set = ReplicationSet::new(vec!["m"], 0.95);
        assert!(!set.meets_precision(0.5));
        assert!(set.worst_relative_error().is_infinite());
        set.record(&[100.0]);
        assert!(!set.meets_precision(0.5));
        set.record(&[101.0]);
        set.record(&[99.0]);
        // sd = 1, se = 1/sqrt(3) ~ 0.577, mean 100 -> rse ~ 0.58%.
        assert!(set.meets_precision(0.05));
        assert!(set.worst_relative_error() < 0.01);
    }

    #[test]
    fn tight_and_loose_metrics_gate_together() {
        let mut set = ReplicationSet::new(vec!["tight", "loose"], 0.95);
        set.record(&[100.0, 1.0]);
        set.record(&[100.5, 3.0]);
        set.record(&[99.5, 5.0]);
        assert!(
            !set.meets_precision(0.05),
            "loose metric should fail the gate"
        );
        assert!(set.meets_precision(2.0));
    }
}
