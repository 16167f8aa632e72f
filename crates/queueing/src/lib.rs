//! # lb-queueing — M/M/1 queueing-theory substrate
//!
//! The load-balancing game of Grosu & Chronopoulos (IPDPS/APDCM 2002) models
//! every computer in the distributed system as an **M/M/1 queue**: Poisson
//! job arrivals, exponentially distributed service times, a single server,
//! FCFS discipline, run-to-completion. This crate provides the closed-form
//! queueing theory that the game sits on:
//!
//! * [`mm1`] — the single M/M/1 station's expected response time, paper
//!   Eq. (1).
//! * [`Mmc`] — M/M/c (Erlang-C) formulas, used by extension experiments that
//!   replace each computer with a small multicore pool.
//! * [`mg1`] — the M/G/1 Pollaczek–Khinchine response time, the theory
//!   behind the service-distribution robustness extension.
//! * [`gim1`] — exact GI/M/1 response times (root of `σ = A*(μ(1−σ))`),
//!   the theory behind the arrival-burstiness extension.
//!
//! The paper's distributed system, `n` such stations in parallel, is
//! lb-game's `SystemModel`, which holds the rates `μ_i` itself.
//!
//! Everything here is deterministic, allocation-light and `f64`-based; the
//! stochastic counterpart lives in `lb-des` (the discrete-event simulator).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub(crate) mod error;
pub mod gim1;
pub mod mg1;
pub mod mm1;
pub(crate) mod mmc;

pub use error::QueueingError;
pub use mmc::Mmc;
