//! Simulation of the **multicore** variant: computers are M/M/c pools
//! (an [`lb_des::station::FcfsStation`] of `c` servers) instead of
//! single-server M/M/1 stations. Used by the multicore extension
//! experiment to verify the numeric pool-game equilibrium against
//! measured response times. The replication runs on the same
//! single-calendar loop as [`crate::policies`], dispatching each user's
//! jobs by its row of the pool game's flows.

use crate::policies::{run_single_calendar, Rule};
use crate::scenario::{SimulationConfig, SimulationResult};
use lb_game::error::GameError;
use lb_game::latency::Latency;
use lb_game::multicore::PoolSystem;

/// Simulates the pool system under the per-user flow matrix `flows`
/// (rows users, columns pools — e.g. a
/// [`lb_game::multicore::PoolNashOutcome`]'s flows), with exponential
/// interarrival and service times. Each pool's utilization is its busy
/// server-time over `c` times the horizon.
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] when `flows` has the wrong shape.
/// * [`GameError::InfeasibleStrategy`] when a pool would be saturated.
pub fn run_pool_replication(
    system: &PoolSystem,
    flows: &[Vec<f64>],
    target_jobs: u64,
    warmup_fraction: f64,
    seed: u64,
) -> Result<SimulationResult, GameError> {
    let m = system.num_users();
    let n = system.num_pools();
    if flows.len() != m || flows.iter().any(|r| r.len() != n) {
        return Err(GameError::DimensionMismatch {
            expected: m,
            actual: flows.len(),
        });
    }
    let totals = system.pool_totals(flows);
    for (t, p) in totals.iter().zip(system.pools()) {
        if *t >= p.capacity() {
            return Err(GameError::InfeasibleStrategy {
                reason: format!("pool saturated: flow {t} vs capacity {}", p.capacity()),
            });
        }
    }

    let config = SimulationConfig {
        target_jobs,
        warmup_fraction,
        ..SimulationConfig::paper()
    };
    let stations: Vec<(f64, u32)> = system.pools().iter().map(|p| (p.mu, p.servers)).collect();
    Ok(run_single_calendar(
        system.user_rates(),
        &stations,
        Rule::Weighted(flows.iter().map(Vec::as_slice).collect()),
        config,
        seed,
        |_, _| {},
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_pool_nash_matches_erlang_c_predictions() {
        let system = PoolSystem::new(vec![(4.0, 3), (10.0, 1)], vec![6.0, 8.0]).unwrap();
        let nash = system.nash(1e-6, 300, 1200).unwrap();
        let result = run_pool_replication(&system, &nash.flows, 120_000, 0.1, 99).unwrap();
        for (j, predicted) in nash.user_times.iter().enumerate() {
            let rel = (result.user_means[j] - predicted).abs() / predicted;
            assert!(
                rel < 0.08,
                "user {j}: simulated {} vs predicted {predicted} (rel {rel:.3})",
                result.user_means[j]
            );
        }
        let overall = system.overall_time(&nash.flows);
        let rel = (result.system_mean - overall).abs() / overall;
        assert!(rel < 0.06, "system: {} vs {overall}", result.system_mean);
    }

    #[test]
    fn shape_and_saturation_are_validated() {
        let system = PoolSystem::new(vec![(4.0, 2)], vec![5.0]).unwrap();
        assert!(matches!(
            run_pool_replication(&system, &[vec![5.0, 0.0]], 1000, 0.1, 0),
            Err(GameError::DimensionMismatch { .. })
        ));
        let saturating = vec![vec![8.0]];
        assert!(matches!(
            run_pool_replication(&system, &saturating, 1000, 0.1, 0),
            Err(GameError::InfeasibleStrategy { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let system = PoolSystem::new(vec![(4.0, 2), (6.0, 2)], vec![9.0]).unwrap();
        let flows = vec![vec![4.0, 5.0]];
        let a = run_pool_replication(&system, &flows, 30_000, 0.1, 5).unwrap();
        let b = run_pool_replication(&system, &flows, 30_000, 0.1, 5).unwrap();
        assert_eq!(a.user_means, b.user_means);
        assert_eq!(a.jobs_generated, b.jobs_generated);
    }
}
