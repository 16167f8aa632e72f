//! # lb-game — the noncooperative load-balancing game
//!
//! This crate is the primary contribution of Grosu & Chronopoulos,
//! *A Game-Theoretic Model and Algorithm for Load Balancing in Distributed
//! Systems* (IPDPS/APDCM 2002), implemented as a library:
//!
//! * [`model`] — the heterogeneous distributed system: `n` M/M/1 computers
//!   with rates `μ_i` shared by `m` selfish users with Poisson rates `φ_j`,
//!   including the paper's Table 1 configuration.
//! * [`strategy`] — user strategies `s_j` (job fractions) and strategy
//!   profiles with the paper's feasibility constraints.
//! * [`response`] — the expected-response-time functionals `F_i(s)`,
//!   `D_j(s)` and the system-wide `D(s)`.
//! * [`best_reply`] — the **OPTIMAL** algorithm (Theorem 2.1): a user's
//!   exact best reply by square-root water-filling, O(n log n).
//! * [`nash`] — the **NASH** distributed algorithm: round-robin greedy
//!   best replies until the norm `Σ_j |D_j^{(l)} − D_j^{(l−1)}|` drops
//!   below a tolerance, with the paper's NASH_0 and NASH_P initializations
//!   (plus a Jacobi variant for ablations).
//! * [`equilibrium`] — ε-Nash verification and price-of-anarchy helpers.
//! * [`stopping`] — certified, scale-invariant stopping rules
//!   ([`stopping::StoppingRule`]): a per-user regret certificate from the
//!   water-filling KKT residual upper-bounds the exact ε-Nash gap each
//!   sweep, so the solvers can stop on a *proved* bound instead of the
//!   paper's scale-dependent absolute norm (kept as a repro opt-in).
//! * [`sampled`] — a power-of-k-choices sparse solver for web-scale
//!   instances (n=10⁴ computers, m=10⁵ users): each best reply samples
//!   `k` candidate servers instead of scanning all `n`, and the sampling
//!   error folds into the same certificate.
//! * [`schemes`] — the comparison baselines of §4.2: proportional (PS),
//!   global optimal (GOS) and individual optimal / Wardrop (IOS), behind a
//!   common [`schemes::LoadBalancingScheme`] trait alongside NASH itself.
//! * [`gradient`] — an independent projected-gradient best-reply solver
//!   used to cross-check the water-filling optimum.
//! * [`overload`] — overload policies ([`overload::OverloadPolicy`]) and
//!   admission control: when capacity churn drives `Φ ≥ Σ μ_i`, shed
//!   just enough load (proportionally or max-min fair) that the residual
//!   game is feasible, instead of aborting.
//! * [`dynamics`] — re-equilibration across system changes, including
//!   policy-driven capacity updates ([`dynamics::DynamicBalancer::update_capacity`])
//!   that survive server crashes by shedding and warm-restarting.
//! * [`metrics`] — per-user/system response times and Jain fairness for a
//!   computed profile (the paper's two evaluation metrics).
//! * [`parallel`] — [`parallel::ParallelRunner`], the workspace's one
//!   deterministic fan-out: index-addressed pure tasks on scoped worker
//!   threads (sized by `LB_SIM_THREADS`), results merged in index order
//!   so every fold is byte-identical at any thread count. lb-sim fans
//!   replications and station shards out over it; in chunks of users it
//!   runs the Jacobi replies and the sampled certificate pass here, and
//!   `AsyncNash`'s final certificate in lb-distributed.
//!
//! ## Quickstart
//!
//! ```
//! use lb_game::model::SystemModel;
//! use lb_game::nash::{Initialization, NashSolver};
//! use lb_game::metrics::evaluate_profile;
//!
//! let model = SystemModel::builder()
//!     .computer_rates(vec![10.0, 20.0, 50.0, 100.0])
//!     .user_rates(vec![30.0, 60.0])
//!     .build()
//!     .unwrap();
//! let outcome = NashSolver::new(Initialization::Proportional)
//!     .solve(&model)
//!     .unwrap();
//! assert!(outcome.converged());
//! let m = evaluate_profile(&model, outcome.profile()).unwrap();
//! assert!(m.fairness > 0.99); // Nash is near-perfectly fair here
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod best_reply;
pub mod diagnostics;
pub mod dynamics;
pub mod equilibrium;
pub mod error;
pub mod gradient;
pub mod latency;
pub mod metrics;
pub mod model;
pub mod multicore;
pub mod nash;
pub mod overload;
pub mod parallel;
pub mod response;
pub mod sampled;
pub mod schemes;
pub mod stopping;
pub mod strategy;

pub use error::GameError;
pub use model::SystemModel;
pub use stopping::{Certificate, StoppingRule, ViewFreshness};
pub use strategy::{Strategy, StrategyProfile};
