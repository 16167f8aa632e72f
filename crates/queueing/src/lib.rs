//! # lb-queueing — M/M/1 queueing-theory substrate
//!
//! The load-balancing game of Grosu & Chronopoulos (IPDPS/APDCM 2002) models
//! every computer in the distributed system as an **M/M/1 queue**: Poisson
//! job arrivals, exponentially distributed service times, a single server,
//! FCFS discipline, run-to-completion. This crate provides the closed-form
//! queueing theory that the game sits on:
//!
//! * [`mm1`] — single M/M/1 station formulas (utilization, expected response
//!   time, queue lengths, waiting time, sojourn-time percentiles).
//! * [`mmc`] — M/M/c (Erlang-C) formulas, used by extension experiments that
//!   replace each computer with a small multicore pool.
//! * [`mg1`] — M/G/1 Pollaczek–Khinchine formulas, the theory behind the
//!   service-distribution robustness extension.
//! * [`gim1`] — exact GI/M/1 response times (root of `σ = A*(μ(1−σ))`),
//!   the theory behind the arrival-burstiness extension.
//! * [`network`] — [`network::ParallelQueues`], a bank of heterogeneous
//!   M/M/1 queues in parallel: the "distributed system" of the paper, with
//!   aggregate capacity and utilization functionals.
//!
//! Everything here is deterministic, allocation-light and `f64`-based; the
//! stochastic counterpart lives in `lb-des` (the discrete-event simulator).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod gim1;
pub mod mg1;
pub mod mm1;
pub mod mmc;
pub mod network;

pub use error::QueueingError;
pub use mg1::Mg1;
pub use mm1::Mm1;
pub use mmc::Mmc;
pub use network::ParallelQueues;
