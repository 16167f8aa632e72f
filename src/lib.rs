//! # nash-lb — umbrella crate
//!
//! Re-exports the whole workspace reproducing Grosu & Chronopoulos,
//! *A Game-Theoretic Model and Algorithm for Load Balancing in Distributed
//! Systems* (IPDPS/APDCM 2002). See the README for a tour and DESIGN.md for
//! the system inventory.
//!
//! ```
//! use nash_lb::game::model::SystemModel;
//! use nash_lb::game::nash::{NashSolver, Initialization};
//!
//! // A tiny heterogeneous system: 3 computers, 2 users at 50% utilization.
//! let model = SystemModel::builder()
//!     .computer_rates(vec![10.0, 20.0, 40.0])
//!     .user_rates(vec![14.0, 21.0])
//!     .build()
//!     .unwrap();
//! let outcome = NashSolver::new(Initialization::Proportional)
//!     .solve(&model)
//!     .unwrap();
//! assert!(outcome.converged());
//! ```

#![forbid(unsafe_code)]

pub use lb_des as des;
pub use lb_distributed as distributed;
pub use lb_experiments as experiments;
pub use lb_game as game;
pub use lb_queueing as queueing;
pub use lb_sim as sim;
pub use lb_stats as stats;
