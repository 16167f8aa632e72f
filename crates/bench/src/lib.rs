//! # lb-bench — benchmark support
//!
//! The actual benchmarks live in `benches/` (Criterion harnesses, one per
//! paper table/figure plus design-choice ablations):
//!
//! * `best_reply` — the OPTIMAL algorithm's O(n log n) scaling vs the
//!   generic gradient solver (the paper's "complex algorithms" contrast).
//! * `nash_convergence` — Figures 2–3 workloads: NASH_0 vs NASH_P, user
//!   sweeps.
//! * `schemes` — Figures 4–6 workloads: per-scheme computation cost.
//! * `des_engine` — simulator throughput, event-calendar ablation, and
//!   one 2M-job replication through each engine (jobs/s).
//! * `ablations` — Gauss–Seidel vs Jacobi, GOS decompositions,
//!   sequential solver vs the token ring and the async runtime.
//! * `telemetry_overhead` — the collector cost ladder on the Table-1
//!   solve (none, disabled, null, JSONL, sampled JSONL).
//! * `web_scale` — the sampled solver certifying n = 10,000 × m =
//!   100,000, untraced and traced; minutes per run.
//!
//! Each target writes its measurements as JSON to the path named by
//! `CRITERION_JSON`, and `CRITERION_QUICK=1` shrinks every measurement
//! window for smoke runs. CI gates the telemetry and web-scale ratios
//! from those summaries. End-to-end and per-layer claims come from the
//! repository benchmark under `benchmark/` instead.
//!
//! This library crate only hosts small shared helpers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

/// A synthetic heterogeneous rate vector of length `n` cycling through
/// the Table-1 speed classes — used to scale benchmarks beyond 16
/// computers while keeping the paper's heterogeneity profile.
pub fn scaled_rates(n: usize) -> Vec<f64> {
    const CLASSES: [f64; 4] = [10.0, 20.0, 50.0, 100.0];
    (0..n).map(|i| CLASSES[i % CLASSES.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_rates_cycle_classes() {
        let r = scaled_rates(6);
        assert_eq!(r, vec![10.0, 20.0, 50.0, 100.0, 10.0, 20.0]);
    }
}
