//! The load-balancing game over **multicore pools** (M/M/c computers) —
//! an extension of the paper's single-core model.
//!
//! Modern "computers" are pools of cores behind one run queue; the
//! M/M/1 latency becomes Erlang-C, for which no closed-form best reply
//! exists. This module runs the same greedy round-robin best-reply
//! dynamics as the paper's NASH algorithm, with the numeric
//! `crate::gradient::minimize_general_split` solver in place of the
//! OPTIMAL water-filling step. With every pool at `c = 1` the results
//! match the closed-form solver (verified by tests), certifying both
//! paths against each other.

use crate::error::GameError;
use crate::gradient::minimize_general_split;
use crate::latency::{Latency, MmcLatency};

/// A distributed system of M/M/c pools shared by selfish users.
///
/// # Examples
///
/// ```
/// use lb_game::multicore::PoolSystem;
/// // A quad-core pool and a fast single-core machine, two users.
/// let sys = PoolSystem::new(vec![(5.0, 4), (25.0, 1)], vec![12.0, 18.0]).unwrap();
/// let nash = sys.nash(1e-5, 300, 800).unwrap();
/// let d = sys.overall_time(&nash.flows);
/// assert!(d.is_finite() && d > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PoolSystem {
    pools: Vec<MmcLatency>,
    user_rates: Vec<f64>,
}

impl PoolSystem {
    /// Builds the system from `(per-core rate, core count)` pools and
    /// user arrival rates.
    ///
    /// # Errors
    ///
    /// * [`GameError::EmptyModel`] for empty pools/users.
    /// * [`GameError::InvalidRate`] for invalid rates or zero cores.
    /// * [`GameError::Overloaded`] when `Σφ >= Σ c·μ`.
    pub fn new(pools: Vec<(f64, u32)>, user_rates: Vec<f64>) -> Result<Self, GameError> {
        if pools.is_empty() {
            return Err(GameError::EmptyModel { what: "computers" });
        }
        if user_rates.is_empty() {
            return Err(GameError::EmptyModel { what: "users" });
        }
        let mut lat = Vec::with_capacity(pools.len());
        for (mu, servers) in pools {
            if !mu.is_finite() || mu <= 0.0 {
                return Err(GameError::InvalidRate {
                    name: "mu",
                    value: mu,
                });
            }
            if servers == 0 {
                return Err(GameError::InvalidRate {
                    name: "servers",
                    value: 0.0,
                });
            }
            lat.push(MmcLatency { mu, servers });
        }
        for &phi in &user_rates {
            if !phi.is_finite() || phi <= 0.0 {
                return Err(GameError::InvalidRate {
                    name: "phi",
                    value: phi,
                });
            }
        }
        let capacity: f64 = lat.iter().map(Latency::capacity).sum();
        let total: f64 = user_rates.iter().sum();
        if total >= capacity {
            return Err(GameError::overloaded(total, capacity));
        }
        Ok(Self {
            pools: lat,
            user_rates,
        })
    }

    /// Number of pools.
    pub fn num_pools(&self) -> usize {
        self.pools.len()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.user_rates.len()
    }

    /// The pools' latency models.
    pub fn pools(&self) -> &[MmcLatency] {
        &self.pools
    }

    /// User arrival rates.
    pub fn user_rates(&self) -> &[f64] {
        &self.user_rates
    }

    /// Total arrival rate Φ.
    pub fn total_arrival_rate(&self) -> f64 {
        self.user_rates.iter().sum()
    }

    /// Aggregate capacity `Σ c_i μ_i`.
    pub(crate) fn total_capacity(&self) -> f64 {
        self.pools.iter().map(Latency::capacity).sum()
    }

    /// User `j`'s expected response time under per-user flow matrix
    /// `flows` (rows users, columns pools).
    pub(crate) fn user_time(&self, flows: &[Vec<f64>], j: usize) -> f64 {
        let totals = self.pool_totals(flows);
        let phi = self.user_rates[j];
        flows[j]
            .iter()
            .zip(&totals)
            .zip(&self.pools)
            .filter(|((&x, _), _)| x > 0.0)
            .map(|((&x, &t), p)| x / phi * p.response_time(t))
            .sum()
    }

    /// System expected response time (job-averaged).
    pub fn overall_time(&self, flows: &[Vec<f64>]) -> f64 {
        let totals = self.pool_totals(flows);
        let phi = self.total_arrival_rate();
        totals
            .iter()
            .zip(&self.pools)
            .filter(|(&t, _)| t > 0.0)
            .map(|(&t, p)| t * p.response_time(t))
            .sum::<f64>()
            / phi
    }

    /// Total flow at each pool.
    pub fn pool_totals(&self, flows: &[Vec<f64>]) -> Vec<f64> {
        let n = self.pools.len();
        let mut totals = vec![0.0; n];
        for row in flows {
            for (t, &x) in totals.iter_mut().zip(row) {
                *t += x;
            }
        }
        totals
    }

    /// Runs greedy round-robin best replies to an (approximate) Nash
    /// equilibrium. `inner_iterations` bounds the numeric best-reply
    /// solver per update.
    ///
    /// # Errors
    ///
    /// [`GameError::DidNotConverge`] if the response-time norm stays above
    /// `tolerance`; infeasible best replies propagate.
    pub fn nash(
        &self,
        tolerance: f64,
        max_sweeps: u32,
        inner_iterations: u32,
    ) -> Result<PoolNashOutcome, GameError> {
        let m = self.num_users();
        let capacity = self.total_capacity();
        // Proportional (to capacity) start — the NASH_P analogue.
        let mut flows: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                self.pools
                    .iter()
                    .map(|p| self.user_rates[j] * p.capacity() / capacity)
                    .collect()
            })
            .collect();
        let mut prev_d: Vec<f64> = (0..m).map(|j| self.user_time(&flows, j)).collect();
        let refs: Vec<&dyn Latency> = self.pools.iter().map(|p| p as &dyn Latency).collect();

        for sweep in 0..max_sweeps {
            let mut norm = 0.0;
            for j in 0..m {
                let totals = self.pool_totals(&flows);
                let base: Vec<f64> = totals
                    .iter()
                    .zip(&flows[j])
                    .map(|(&t, &own)| t - own)
                    .collect();
                let reply =
                    minimize_general_split(&refs, &base, self.user_rates[j], inner_iterations)
                        .map_err(|e| e.with_user(j))?;
                flows[j] = reply;
                let d = self.user_time(&flows, j);
                norm += (d - prev_d[j]).abs();
                prev_d[j] = d;
            }
            if norm <= tolerance {
                return Ok(PoolNashOutcome {
                    flows,
                    sweeps: sweep + 1,
                    user_times: prev_d,
                });
            }
        }
        Err(GameError::DidNotConverge {
            iterations: max_sweeps,
            final_norm: f64::NAN,
        })
    }

    /// The social optimum for the pool system (one grand user routing Φ),
    /// returning aggregate flows per pool.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn social_optimum(&self, inner_iterations: u32) -> Result<Vec<f64>, GameError> {
        let refs: Vec<&dyn Latency> = self.pools.iter().map(|p| p as &dyn Latency).collect();
        let base = vec![0.0; self.pools.len()];
        minimize_general_split(&refs, &base, self.total_arrival_rate(), inner_iterations)
    }
}

/// Result of a converged pool-game best-reply iteration.
#[derive(Debug, Clone)]
pub struct PoolNashOutcome {
    /// Per-user per-pool flows at the equilibrium.
    pub flows: Vec<Vec<f64>>,
    /// Sweeps performed.
    pub sweeps: u32,
    /// Per-user expected response times.
    pub user_times: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SystemModel;
    use crate::nash::{Initialization, NashSolver};

    #[test]
    fn construction_is_validated() {
        assert!(PoolSystem::new(vec![], vec![1.0]).is_err());
        assert!(PoolSystem::new(vec![(1.0, 1)], vec![]).is_err());
        assert!(PoolSystem::new(vec![(0.0, 1)], vec![1.0]).is_err());
        assert!(PoolSystem::new(vec![(1.0, 0)], vec![1.0]).is_err());
        assert!(PoolSystem::new(vec![(1.0, 2)], vec![-1.0]).is_err());
        assert!(PoolSystem::new(vec![(1.0, 2)], vec![2.0]).is_err());
        let ok = PoolSystem::new(vec![(1.0, 2), (3.0, 1)], vec![1.0, 2.0]).unwrap();
        assert_eq!(ok.num_pools(), 2);
        assert_eq!(ok.num_users(), 2);
        assert_eq!(ok.total_capacity(), 5.0);
        assert_eq!(ok.total_arrival_rate(), 3.0);
    }

    #[test]
    fn single_core_pools_match_closed_form_nash() {
        // c = 1 pools are M/M/1: the numeric pool game must land on the
        // same equilibrium as the closed-form solver.
        let rates = [10.0, 20.0, 50.0];
        let users = [15.0, 25.0];
        let pools =
            PoolSystem::new(rates.iter().map(|&mu| (mu, 1)).collect(), users.to_vec()).unwrap();
        let pool_nash = pools.nash(1e-6, 400, 1500).unwrap();

        let model = SystemModel::new(rates.to_vec(), users.to_vec()).unwrap();
        let exact = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-10)
            .solve(&model)
            .unwrap();

        for (j, d_exact) in exact.user_times().iter().enumerate() {
            let d_pool = pool_nash.user_times[j];
            let rel = (d_pool - d_exact).abs() / d_exact;
            assert!(
                rel < 5e-3,
                "user {j}: pool {d_pool} vs exact {d_exact} (rel {rel:.4})"
            );
        }
    }

    #[test]
    fn flows_are_feasible_at_equilibrium() {
        let sys = PoolSystem::new(
            vec![(10.0, 6), (20.0, 5), (50.0, 3), (100.0, 2)],
            vec![100.0, 120.0, 86.0],
        )
        .unwrap();
        let out = sys.nash(1e-5, 400, 1200).unwrap();
        let totals = sys.pool_totals(&out.flows);
        for (t, p) in totals.iter().zip(sys.pools()) {
            assert!(*t < p.capacity(), "pool saturated: {t} vs {}", p.capacity());
        }
        for (j, row) in out.flows.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - sys.user_rates()[j]).abs() < 1e-6 * sys.user_rates()[j],
                "user {j} conservation"
            );
        }
    }

    #[test]
    fn equilibrium_is_approximately_stable() {
        // No user can improve materially by unilaterally re-solving.
        let sys = PoolSystem::new(vec![(5.0, 4), (20.0, 1), (10.0, 2)], vec![12.0, 18.0]).unwrap();
        let out = sys.nash(1e-6, 500, 1500).unwrap();
        let refs: Vec<&dyn Latency> = sys.pools().iter().map(|p| p as &dyn Latency).collect();
        let totals = sys.pool_totals(&out.flows);
        for j in 0..sys.num_users() {
            let base: Vec<f64> = totals
                .iter()
                .zip(&out.flows[j])
                .map(|(&t, &own)| t - own)
                .collect();
            let reply = minimize_general_split(&refs, &base, sys.user_rates()[j], 4000).unwrap();
            let mut improved = out.flows.clone();
            improved[j] = reply;
            let d_now = sys.user_time(&out.flows, j);
            let d_best = sys.user_time(&improved, j);
            assert!(
                d_now - d_best < 5e-3 * d_now,
                "user {j} can still improve: {d_now} -> {d_best}"
            );
        }
    }

    #[test]
    fn pooling_cores_improves_the_equilibrium() {
        // Same aggregate capacity: 8 singles vs 2 quad pools. The pooled
        // system's Nash equilibrium has a lower overall response time.
        let users = vec![6.0, 6.0];
        let split = PoolSystem::new(vec![(2.5, 1); 8], users.clone()).unwrap();
        let pooled = PoolSystem::new(vec![(2.5, 4); 2], users).unwrap();
        let d_split = split.overall_time(&split.nash(1e-6, 400, 1200).unwrap().flows);
        let d_pooled = pooled.overall_time(&pooled.nash(1e-6, 400, 1200).unwrap().flows);
        assert!(
            d_pooled < d_split,
            "pooled {d_pooled} should beat split {d_split}"
        );
    }

    #[test]
    fn social_optimum_lower_bounds_nash() {
        let sys = PoolSystem::new(vec![(10.0, 2), (30.0, 1), (5.0, 8)], vec![20.0, 25.0]).unwrap();
        let nash = sys.nash(1e-6, 400, 1200).unwrap();
        let opt_flows = sys.social_optimum(6000).unwrap();
        let d_opt: f64 = opt_flows
            .iter()
            .zip(sys.pools())
            .filter(|(&t, _)| t > 0.0)
            .map(|(&t, p)| t * p.response_time(t))
            .sum::<f64>()
            / sys.total_arrival_rate();
        let d_nash = sys.overall_time(&nash.flows);
        assert!(
            d_opt <= d_nash * (1.0 + 1e-3),
            "optimum {d_opt} vs nash {d_nash}"
        );
    }
}
