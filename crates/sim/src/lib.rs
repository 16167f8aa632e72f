//! # lb-sim — simulating the load-balanced distributed system
//!
//! Binds the game model (`lb-game`) to the discrete-event engine
//! (`lb-des`) exactly as the paper's §4.1 describes: "jobs arriving at the
//! system are distributed to the computers according to the specified load
//! balancing scheme; jobs which have been dispatched to a particular
//! computer are run-to-completion in FCFS order; each computer is modeled
//! as an M/M/1 queueing system".
//!
//! * [`scenario`] — one replication of a strategy profile: the
//!   configuration, the result, and [`scenario::run_replication`], which
//!   routes each run by its arrival family: Poisson arrivals to the
//!   sharded engine, renewal arrivals to the single-calendar loop.
//! * [`policies`] — the single-calendar loop: every user's renewal
//!   arrival process, every dispatch decision and every FCFS station on
//!   one event calendar, under a static profile or a dynamic (state-aware)
//!   dispatch rule — JSQ, power-of-d, shortest-expected-delay, weighted
//!   round robin.
//! * [`harness`] — the replication driver (the paper's five runs with
//!   different random streams), producing per-user means with confidence
//!   intervals and the empirical fairness index. It keeps no per-job
//!   response; traced, it emits one `sim.replication {rep, seed,
//!   system_mean, jobs}` event per replication and a closing
//!   `sim.summary {replications, system_mean, fairness, precise,
//!   worst_rel_err}`.
//! * [`validate`] — compares empirical means against the analytic M/M/1
//!   predictions of `lb-game::metrics` (used by tests to certify the
//!   whole stack end to end).
//! * [`pools`] — the multicore variant: M/M/c pools on the same
//!   single-calendar loop, validating the numeric pool-game equilibria.
//! * [`churn`] — capacity churn: servers crash/degrade/recover on a
//!   phase schedule, the dispatcher re-equilibrates and sheds load per
//!   an overload policy, and the measured response times are validated
//!   against the quasi-static analytic mixture. Churn keeps an event
//!   loop of its own for its phases, admission thinning, retries and
//!   the completions a crash leaves stale.
//! * [`parallel`] — `lb_game::parallel` re-exported: the deterministic
//!   fan-out pool. Replications are pure functions of their seeded index,
//!   so they spread across threads and merge back in index order,
//!   byte-identical to the sequential loop.
//! * [`shard`] — the sharded engine: Poisson splitting factors a
//!   replication into independent per-station event streams that run in
//!   parallel and merge in station-index order, bit-identical at any
//!   thread count.
//!
//! Each simulation operation has one entrypoint, and a traced one takes
//! its telemetry hooks as arguments: `collector: Option<&Arc<dyn
//! Collector>>` and, where it opens a span under a caller's (the sharded
//! engine's one `des.shard` span per station), `span_parent:
//! Option<&SpanHandle>`. Spans mark layer boundaries only; no event loop
//! cuts its own work into batch spans. Passing `None` turns collection
//! off; results are bit-identical either way. [`scenario::run_replication`]
//! is the one replication (it picks the engine from the arrival family),
//! [`policies::run_policy_replication`] the one single-calendar run (it
//! emits nothing, so it takes no hooks), [`ParallelRunner::run`] the one
//! fan-out. The replicated study keeps
//! three forms ([`harness::simulate_profile`],
//! [`harness::simulate_profile_with`],
//! [`harness::simulate_profile_traced`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod churn;
pub mod harness;
pub mod policies;
pub mod pools;
pub mod scenario;
pub mod shard;
pub mod validate;

pub use lb_game::parallel;
pub use parallel::ParallelRunner;
