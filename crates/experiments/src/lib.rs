//! # lb-experiments — regenerating every table and figure of the paper
//!
//! One module per experiment, each exposing a `run*` function returning a
//! structured result (consumed by tests and benches) and a rendering into
//! the paper's rows (consumed by the `experiments` CLI binary):
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — system configuration |
//! | [`fig2`] | Figure 2 — norm vs iterations, NASH_0 vs NASH_P |
//! | [`fig3`] | Figure 3 — iterations to converge vs number of users |
//! | [`fig4`] | Figure 4 — response time & fairness vs utilization |
//! | [`fig5`] | Figure 5 — per-user response times at 60% load |
//! | [`fig6`] | Figure 6 — response time & fairness vs speed skewness |
//!
//! [`beyond`] adds the twelve extension experiments that `experiments
//! ext` runs, grounded in the paper's future-work section:
//! service-distribution robustness, Stackelberg leaders, dynamic
//! re-equilibration, observation noise, multicore pools, price of
//! anarchy, arrival burstiness, dynamic dispatch policies, tail latency,
//! server churn, the anytime frontier and asynchronous dynamics under
//! network chaos. [`trace`]
//! replays a Table-1 scenario with telemetry on; [`analyze`]
//! reconstructs the resulting span forest into a causal profile
//! (critical path, self time, Chrome trace JSON, folded stacks);
//! [`diff`] compares two runs' traces (event counts, `account.*` sums,
//! span structure and wall time); [`watch`] is the live observability
//! runtime — an observed replay with streaming SLO windows served over a
//! scrapeable HTTP endpoint.
//!
//! Every experiment has an **analytic** path (closed-form response times
//! under the computed profiles; deterministic) and, where the paper used
//! simulation, an optional **simulation** path (the DES with the paper's
//! five-replication methodology). EXPERIMENTS.md records the outputs
//! against the paper's reported shapes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analyze;
pub mod beyond;
pub mod cli;
pub mod config;
pub mod diff;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod table1;
pub mod trace;
pub mod watch;
