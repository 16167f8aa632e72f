//! # lb-distributed — the NASH algorithm as a real distributed runtime
//!
//! The paper presents NASH as a *distributed* algorithm (§3): each user is
//! an independent decision maker that receives `(norm, iteration)` from
//! its predecessor, observes the computers' available processing rates
//! ("by inspecting the run queue of each computer"), plays its best reply,
//! and forwards the token to its successor; the last user in the ring
//! decides termination.
//!
//! `lb-game::nash` implements that dynamics sequentially. This crate runs
//! it as a message-passing protocol: every user is a node of a seeded
//! virtual network, the token and the coordinator's control traffic are
//! messages on it, and a shared load board stands in for the computers'
//! observable run-queue state:
//!
//! * [`messages`] — the token protocol (with repair epochs and ring
//!   reconfiguration).
//! * [`board`] — the shared per-user flow board users observe and update.
//! * [`observer`] — how users estimate available rates from the board
//!   (exact, or with multiplicative noise modeling run-queue sampling
//!   error).
//! * [`fault`] — deterministic fault injection: crash, token-drop, delay
//!   and stale-observation faults keyed by `(user, round)`, plus
//!   capacity events keyed by round.
//! * [`capacity`] — computer-side churn: crash / degrade / recover
//!   events and the shed trajectory the coordinator records when its
//!   overload policy sheds load.
//! * [`runtime`] — the ring as an event loop over [`net`]: failure
//!   detection and repair, termination, and result collection.
//! * [`net`] — a seeded virtual network: per-link drop / duplicate /
//!   reorder / bounded-delay faults and scheduled partitions over a
//!   deterministic virtual clock.
//! * [`async_runtime`] — asynchronous bounded-staleness best-reply
//!   dynamics over that network, terminating via a certified ε-Nash
//!   gap accepted only from a provably fresh view.
//!
//! The runtime is fault-tolerant: a lost token is detected by the
//! coordinator's timeout and regenerated under a new epoch, dead users
//! are spliced out of the ring and their load cleared from the board,
//! and the survivors re-converge on the residual capacity. Timeouts and
//! injected delays are virtual time, so every run is deterministic. See
//! the [`runtime`] module docs for the failure model.
//!
//! The integration tests verify the ring reaches the same equilibrium as
//! the sequential solver, and that it survives injected crashes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod async_runtime;
pub mod board;
pub mod capacity;
pub mod fault;
pub mod messages;
pub mod net;
pub mod observer;
pub mod runtime;

pub use async_runtime::{AsyncNash, AsyncOutcome, AsyncTermination};
pub use capacity::{CapacityEvent, ShedRecord};
pub use fault::{FaultAction, FaultPlan};
pub use net::{NetFaultPlan, NetStats, VirtualNet};
pub use observer::ObservationModel;
pub use runtime::{DistributedNash, DistributedOutcome};
