//! Stackelberg scheduling (Roughgarden, STOC 2001) — the related-work
//! baseline the paper cites: "one player acts as a leader and the rest as
//! followers".
//!
//! A leader centrally routes a fraction `α` of the total demand to
//! minimize the overall response time, anticipating that the remaining
//! `(1−α)Φ` of traffic consists of selfish infinitesimal jobs that settle
//! into a Wardrop equilibrium *given* the leader's (fixed) flows.
//! Computing the optimal leader strategy is NP-hard; Roughgarden's
//! **Largest-Latency-First (LLF)** heuristic assigns the leader's flow to
//! the machines that carry the largest latency under the global optimum,
//! saturating each machine's globally-optimal flow before moving on.
//!
//! At `α = 0` this degenerates to IOS (pure Wardrop); at `α = 1` to GOS
//! (full central control) — both verified by tests. Intermediate `α`
//! interpolates, quantifying *how much central authority buys* — a
//! question the Nash scheme answers with "none needed".

use super::{wardrop_flows, LoadBalancingScheme};
use crate::best_reply::water_fill_flows;
use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::{Strategy, StrategyProfile};

/// The Stackelberg/LLF baseline with a centrally controlled fraction `α`.
#[derive(Debug, Clone, Copy)]
pub struct StackelbergScheme {
    alpha: f64,
}

impl StackelbergScheme {
    /// Creates the scheme with leader fraction `alpha ∈ [0, 1]`.
    ///
    /// # Errors
    ///
    /// [`GameError::InvalidRate`] for `alpha` outside `[0, 1]`.
    pub fn new(alpha: f64) -> Result<Self, GameError> {
        if !alpha.is_finite() || !(0.0..=1.0).contains(&alpha) {
            return Err(GameError::InvalidRate {
                name: "alpha",
                value: alpha,
            });
        }
        Ok(Self { alpha })
    }

    /// Computes the aggregate flows: leader (LLF) plus induced Wardrop
    /// followers. Returns `(leader_flows, follower_flows)`.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures (cannot occur for a valid model).
    pub(crate) fn aggregate_flows(
        &self,
        model: &SystemModel,
    ) -> Result<(Vec<f64>, Vec<f64>), GameError> {
        let mu = model.computer_rates();
        let n = mu.len();
        let phi = model.total_arrival_rate();
        let leader_demand = self.alpha * phi;
        let follower_demand = phi - leader_demand;

        // The global optimum the leader aims to induce.
        let optimal = water_fill_flows(mu, phi)?;

        // LLF: fill machines in decreasing order of their latency at the
        // global optimum, up to each machine's optimal flow.
        let mut order: Vec<usize> = (0..n).collect();
        let latency = |i: usize| {
            if optimal[i] > 0.0 {
                1.0 / (mu[i] - optimal[i])
            } else {
                // Unused machines have the least claim on leader flow.
                0.0
            }
        };
        order.sort_by(|&a, &b| {
            latency(b)
                .partial_cmp(&latency(a))
                .expect("finite latencies")
                .then(a.cmp(&b))
        });
        let mut leader = vec![0.0; n];
        let mut remaining = leader_demand;
        for &i in &order {
            if remaining <= 0.0 {
                break;
            }
            let take = optimal[i].min(remaining);
            leader[i] = take;
            remaining -= take;
        }

        // Followers play Wardrop on the residual capacities.
        let follower = if follower_demand > 0.0 {
            let residual: Vec<f64> = mu.iter().zip(&leader).map(|(&m, &l)| m - l).collect();
            wardrop_flows(&residual, follower_demand)?
        } else {
            vec![0.0; n]
        };
        Ok((leader, follower))
    }
}

impl LoadBalancingScheme for StackelbergScheme {
    fn name(&self) -> &'static str {
        "STACKELBERG"
    }

    fn compute(&self, model: &SystemModel) -> Result<StrategyProfile, GameError> {
        let (leader, follower) = self.aggregate_flows(model)?;
        let phi = model.total_arrival_rate();
        let fractions: Vec<f64> = leader
            .iter()
            .zip(&follower)
            .map(|(&l, &f)| (l + f) / phi)
            .collect();
        StrategyProfile::replicated(Strategy::new(fractions)?, model.num_users())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::overall_response_time;
    use crate::schemes::{GlobalOptimalScheme, IndividualOptimalScheme};

    fn model() -> SystemModel {
        SystemModel::table1_system(0.6).unwrap()
    }

    #[test]
    fn alpha_bounds_are_validated() {
        assert!(StackelbergScheme::new(-0.1).is_err());
        assert!(StackelbergScheme::new(1.1).is_err());
        assert!(StackelbergScheme::new(f64::NAN).is_err());
        assert_eq!(StackelbergScheme::new(0.3).unwrap().alpha, 0.3);
    }

    #[test]
    fn alpha_zero_is_wardrop() {
        let m = model();
        let st = StackelbergScheme::new(0.0).unwrap().compute(&m).unwrap();
        let ios = IndividualOptimalScheme.compute(&m).unwrap();
        let d_st = overall_response_time(&m, &st).unwrap();
        let d_ios = overall_response_time(&m, &ios).unwrap();
        assert!((d_st - d_ios).abs() < 1e-9, "{d_st} vs {d_ios}");
    }

    #[test]
    fn alpha_one_is_global_optimum() {
        let m = model();
        let st = StackelbergScheme::new(1.0).unwrap().compute(&m).unwrap();
        let gos = GlobalOptimalScheme::default().compute(&m).unwrap();
        let d_st = overall_response_time(&m, &st).unwrap();
        let d_gos = overall_response_time(&m, &gos).unwrap();
        assert!((d_st - d_gos).abs() < 1e-9, "{d_st} vs {d_gos}");
    }

    #[test]
    fn cost_interpolates_between_wardrop_and_optimum() {
        let m = model();
        let d_ios =
            overall_response_time(&m, &IndividualOptimalScheme.compute(&m).unwrap()).unwrap();
        let d_gos = overall_response_time(&m, &GlobalOptimalScheme::default().compute(&m).unwrap())
            .unwrap();
        let mut prev = d_ios;
        for alpha in [0.2, 0.4, 0.6, 0.8] {
            let p = StackelbergScheme::new(alpha).unwrap().compute(&m).unwrap();
            let d = overall_response_time(&m, &p).unwrap();
            assert!(d <= d_ios + 1e-9, "alpha {alpha}: worse than Wardrop");
            assert!(d >= d_gos - 1e-9, "alpha {alpha}: beats the optimum?!");
            assert!(d <= prev + 1e-9, "cost not monotone at alpha {alpha}");
            prev = d;
        }
    }

    #[test]
    fn flows_conserve_and_respect_capacity() {
        let m = model();
        for alpha in [0.0, 0.3, 0.7, 1.0] {
            let (leader, follower) = StackelbergScheme::new(alpha)
                .unwrap()
                .aggregate_flows(&m)
                .unwrap();
            let total: f64 = leader.iter().sum::<f64>() + follower.iter().sum::<f64>();
            assert!((total - m.total_arrival_rate()).abs() < 1e-6);
            for ((l, f), mu) in leader.iter().zip(&follower).zip(m.computer_rates()) {
                assert!(l + f < *mu, "saturated at alpha {alpha}");
            }
        }
    }

    #[test]
    fn leader_takes_the_highest_latency_machines_first() {
        // With a small alpha, leader flow must sit on the machines whose
        // optimal latency is largest (the slow ones used at optimum).
        let m = model();
        let (leader, _) = StackelbergScheme::new(0.1)
            .unwrap()
            .aggregate_flows(&m)
            .unwrap();
        let optimal = water_fill_flows(m.computer_rates(), m.total_arrival_rate()).unwrap();
        let lat: Vec<f64> = optimal
            .iter()
            .zip(m.computer_rates())
            .map(|(&x, &mu)| if x > 0.0 { 1.0 / (mu - x) } else { 0.0 })
            .collect();
        // LLF order correctness: every machine the leader fills has a
        // latency at least as large as every machine it leaves untouched.
        let min_filled = leader
            .iter()
            .enumerate()
            .filter(|(_, &l)| l > 0.0)
            .map(|(i, _)| lat[i])
            .fold(f64::INFINITY, f64::min);
        let max_untouched = leader
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == 0.0)
            .map(|(i, _)| lat[i])
            .fold(0.0, f64::max);
        assert!(
            min_filled >= max_untouched - 1e-9,
            "filled latency {min_filled} vs untouched {max_untouched}"
        );
        // And the slowest (highest-latency) used class is filled to its
        // optimal flow before anything else.
        let max_lat = lat.iter().cloned().fold(0.0, f64::max);
        for (i, &l) in lat.iter().enumerate() {
            if (l - max_lat).abs() < 1e-12 && optimal[i] > 0.0 {
                assert!(
                    (leader[i] - optimal[i]).abs() < 1e-9,
                    "highest-latency machine {i} not saturated first"
                );
            }
        }
    }
}
