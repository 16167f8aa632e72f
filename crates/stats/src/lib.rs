//! # lb-stats — statistics substrate
//!
//! The paper's evaluation methodology (§4.1): each simulation is replicated
//! five times with different random-number streams, results are averaged
//! over replications, and the standard error is kept below 5% at the 95%
//! confidence level. Its headline fairness metric is **Jain's fairness
//! index** (Jain, Chiu & Hawe, DEC-TR-301, 1984).
//!
//! This crate implements that methodology from scratch:
//!
//! * [`Welford`] — numerically stable online mean/variance accumulation.
//! * [`tdist`] — Student-t quantiles (needed for small-sample confidence
//!   intervals with 5 replications).
//! * [`SampleSummary`] — sample summaries with confidence intervals and relative
//!   standard error.
//! * [`jain_index`] — Jain's fairness index.
//! * [`ReplicationPlan`] and [`ReplicationSet`] — the replicate-until-precise
//!   driver.
//! * [`BatchMeans`] — the single-long-run alternative (batch means with a
//!   lag-1 autocorrelation diagnostic), used in methodology ablations.
//! * [`histogram`] — fixed-bin histograms for sojourn-time distributions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub(crate) mod batchmeans;
pub(crate) mod fairness;
pub mod histogram;
pub(crate) mod replication;
pub(crate) mod summary;
pub mod tdist;
pub(crate) mod welford;

pub use batchmeans::BatchMeans;
pub use fairness::jain_index;
pub use replication::{splitmix64_finalize, ReplicationPlan, ReplicationSet};
pub use summary::SampleSummary;
pub use welford::Welford;
