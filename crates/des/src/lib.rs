//! # lb-des — discrete-event simulation engine
//!
//! The paper's evaluation (§4.1) was "carried out using Sim++, a simulation
//! software package written in C++ \[which\] provides an application
//! programming interface … related to event scheduling, queueing, preemption
//! and random number generation". Sim++ is long gone; this crate is a from-
//! scratch replacement providing the same facilities:
//!
//! * [`time`] — the simulation clock type [`time::SimTime`].
//! * [`calendar`] — the future-event list: a pending-event binary heap with
//!   deterministic FIFO tie-breaking and cancellation tombstones.
//! * [`engine`] — the event loop: schedule / cancel / advance, with a
//!   run bound on time.
//! * [`rng`] — reproducible per-entity random streams (seeded from a master
//!   seed) and the service/interarrival distributions the experiments use
//!   (exponential for M/M/1, plus Erlang, hyperexponential and
//!   deterministic for sensitivity extensions).
//! * [`station`] — an FCFS run-to-completion station of one server (the
//!   paper's computer model) or `c` servers sharing a queue (the
//!   multicore extension's M/M/c pool), with run-queue-length
//!   observation.
//! * [`shard`] — a per-station shard: one FCFS station simulated by the
//!   Lindley recursion over batched arrival blocks, with alias-table user
//!   attribution, the building block of the parallel sharded simulator.
//! * [`monitor`] — warmup-aware response-time and goodput collectors.
//! * [`RetryBackoff`] — the capped-exponential retry backoff for jobs a
//!   crash preempts, re-exported from `lb-retry`.
//!
//! The model-specific wiring (Poisson users dispatching probabilistically
//! over a bank of stations) lives in `lb-sim`; this crate stays generic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calendar;
pub mod engine;
pub mod monitor;
pub mod rng;
pub mod shard;
pub mod station;
pub mod time;

pub use calendar::{Calendar, EventId};
pub use engine::Engine;
pub use lb_retry::RetryBackoff;
pub use monitor::{GoodputMonitor, ResponseTimeMonitor};
pub use rng::{AliasTable, Distribution, RngStream, SampleBlock};
pub use shard::{run_station_shard, ShardOutcome, ShardSpec, DEFAULT_SHARD_BATCH};
pub use station::{FcfsStation, Job};
pub use time::SimTime;
