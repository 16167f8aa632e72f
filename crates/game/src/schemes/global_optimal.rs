//! The Global Optimal Scheme (GOS) baseline — Kim & Kameda 1992.
//!
//! GOS minimizes the *overall* expected response time
//! `D(s) = (1/Φ) Σ_j φ_j D_j(s)`. Because `D` depends only on the
//! aggregate flows `λ_i = Σ_j s_ji φ_j`, the optimum factorizes:
//!
//! 1. **Aggregate step** — minimize `Σ_i λ_i/(μ_i − λ_i)` over
//!    `Σ λ_i = Φ`, `λ >= 0`. This is exactly the water-filling program of
//!    [`crate::best_reply`] with a single "grand user" of rate `Φ`.
//! 2. **Decomposition step** — split the aggregate flows among users. Any
//!    split with the right column sums is equally optimal *socially*, but
//!    per-user response times differ wildly between splits. The paper's
//!    NLP solver lands on an unfair vertex (its Figure 5); our
//!    [`Decomposition::Sequential`] reproduces that behaviour, while
//!    [`Decomposition::Uniform`] is the fair counterpoint used in
//!    ablations (see DESIGN.md substitution #3).

use super::LoadBalancingScheme;
use crate::best_reply::water_fill_flows;
use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::{Strategy, StrategyProfile};

/// How the socially optimal aggregate flows are split among users.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Decomposition {
    /// Users are processed in index order; each fills the fastest
    /// remaining optimal capacity. Produces the unfair per-user spread the
    /// paper reports for GOS.
    #[default]
    Sequential,
    /// Every user plays `s_ji = λ_i / Φ`: all users get identical expected
    /// response times (fairness index exactly 1).
    Uniform,
}

/// The GOS baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalOptimalScheme {
    /// Decomposition of aggregate flows into user strategies.
    pub(crate) decomposition: Decomposition,
}

impl GlobalOptimalScheme {
    /// GOS with a specific decomposition.
    pub fn new(decomposition: Decomposition) -> Self {
        Self { decomposition }
    }

    /// The socially optimal *aggregate* flows `λ_i` (step 1).
    ///
    /// # Errors
    ///
    /// Propagates water-filling failures (cannot occur for a valid model,
    /// whose construction guarantees `Φ < Σ μ_i`).
    pub(crate) fn aggregate_flows(model: &SystemModel) -> Result<Vec<f64>, GameError> {
        water_fill_flows(model.computer_rates(), model.total_arrival_rate())
    }
}

impl LoadBalancingScheme for GlobalOptimalScheme {
    fn name(&self) -> &'static str {
        "GOS"
    }

    fn compute(&self, model: &SystemModel) -> Result<StrategyProfile, GameError> {
        let flows = Self::aggregate_flows(model)?;
        match self.decomposition {
            Decomposition::Uniform => {
                let phi = model.total_arrival_rate();
                let strategy = Strategy::new(flows.iter().map(|l| l / phi).collect())?;
                StrategyProfile::replicated(strategy, model.num_users())
            }
            Decomposition::Sequential => sequential_decomposition(model, &flows),
        }
    }
}

/// Fills users (in index order) into the aggregate flows, fastest
/// computers first. Early users end up exclusively on fast computers.
fn sequential_decomposition(
    model: &SystemModel,
    flows: &[f64],
) -> Result<StrategyProfile, GameError> {
    let mut remaining = flows.to_vec();
    let order = descending_order(model.computer_rates());
    let mut rows = Vec::with_capacity(model.num_users());
    for j in 0..model.num_users() {
        let phi_j = model.user_rate(j);
        let mut need = phi_j;
        let mut fractions = vec![0.0; flows.len()];
        for &i in &order {
            if need <= 0.0 {
                break;
            }
            let take = remaining[i].min(need);
            if take > 0.0 {
                fractions[i] = take / phi_j;
                remaining[i] -= take;
                need -= take;
            }
        }
        if need > 1e-6 * phi_j {
            return Err(GameError::InfeasibleStrategy {
                reason: format!(
                    "sequential GOS decomposition left user {j} short by {need} jobs/s"
                ),
            });
        }
        // Absorb the numerical residue into the user's largest component.
        rows.push(Strategy::new(normalize(fractions))?);
    }
    StrategyProfile::new(rows)
}

/// Indices sorted by processing rate, fastest first; ties broken by
/// original index so the order is deterministic.
fn descending_order(rates: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rates.len()).collect();
    idx.sort_by(|&a, &b| {
        rates[b]
            .partial_cmp(&rates[a])
            .expect("rates are finite")
            .then(a.cmp(&b))
    });
    idx
}

fn normalize(mut fractions: Vec<f64>) -> Vec<f64> {
    let sum: f64 = fractions.iter().sum();
    if sum > 0.0 {
        for f in &mut fractions {
            *f /= sum;
        }
    }
    fractions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_reply::{satisfies_kkt, split_cost};
    use crate::response::{overall_response_time, user_response_times};
    use lb_stats::jain_index;

    #[test]
    fn descending_order_is_stable() {
        assert_eq!(
            descending_order(&[20.0, 50.0, 20.0, 100.0]),
            vec![3, 1, 0, 2]
        );
    }

    #[test]
    fn aggregate_flows_are_kkt_optimal() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let flows = GlobalOptimalScheme::aggregate_flows(&model).unwrap();
        assert!(satisfies_kkt(model.computer_rates(), &flows, 1e-6));
        let total: f64 = flows.iter().sum();
        assert!((total - model.total_arrival_rate()).abs() < 1e-6);
    }

    #[test]
    fn both_decompositions_realize_the_same_social_objective() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let seq = GlobalOptimalScheme::new(Decomposition::Sequential)
            .compute(&model)
            .unwrap();
        let uni = GlobalOptimalScheme::new(Decomposition::Uniform)
            .compute(&model)
            .unwrap();
        let d_seq = overall_response_time(&model, &seq).unwrap();
        let d_uni = overall_response_time(&model, &uni).unwrap();
        assert!(
            (d_seq - d_uni).abs() < 1e-6,
            "decompositions change the social optimum: {d_seq} vs {d_uni}"
        );
        // And both reproduce the aggregate-flow objective.
        let flows = GlobalOptimalScheme::aggregate_flows(&model).unwrap();
        let d_agg = split_cost(model.computer_rates(), &flows);
        assert!((d_seq - d_agg).abs() < 1e-6);
    }

    #[test]
    fn uniform_decomposition_is_perfectly_fair() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let p = GlobalOptimalScheme::new(Decomposition::Uniform)
            .compute(&model)
            .unwrap();
        let d = user_response_times(&model, &p).unwrap();
        assert!((jain_index(&d).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_decomposition_is_unfair_like_the_paper() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let p = GlobalOptimalScheme::default().compute(&model).unwrap();
        let d = user_response_times(&model, &p).unwrap();
        let idx = jain_index(&d).unwrap();
        assert!(
            idx < 0.999,
            "sequential GOS should show unfairness, got {idx}"
        );
        // Early (heavy) users grabbed the fast computers and do better.
        assert!(
            d[0] < *d.last().unwrap(),
            "user 0 ({:.4}) should beat user 9 ({:.4})",
            d[0],
            d.last().unwrap()
        );
    }

    #[test]
    fn decomposition_conserves_aggregate_flows() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let target = GlobalOptimalScheme::aggregate_flows(&model).unwrap();
        let p = GlobalOptimalScheme::default().compute(&model).unwrap();
        let got = p.computer_flows(&model).unwrap();
        for (a, b) in target.iter().zip(&got) {
            assert!((a - b).abs() < 1e-6, "aggregate flow mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn light_load_uses_only_fast_computers() {
        let model = SystemModel::table1_system(0.1).unwrap();
        let flows = GlobalOptimalScheme::aggregate_flows(&model).unwrap();
        // At 10% utilization the slow (rate-10) computers should be idle.
        for (i, &mu) in model.computer_rates().iter().enumerate() {
            if mu == 10.0 {
                assert_eq!(flows[i], 0.0, "slow computer {i} should be unused");
            }
        }
    }

    #[test]
    fn tiny_system_sequential_matches_manual() {
        // 2 computers (mu 4, 8), 2 users (phi 1, 2); optimal flows then
        // user 0 fills the fastest remaining capacity first.
        let model = SystemModel::new(vec![4.0, 8.0], vec![1.0, 2.0]).unwrap();
        let flows = GlobalOptimalScheme::aggregate_flows(&model).unwrap();
        let p = GlobalOptimalScheme::default().compute(&model).unwrap();
        // User 0 (rate 1) fits entirely in computer 1's optimal flow
        // (computer 1 is fastest and its lambda_1 >= 1 here).
        assert!(flows[1] >= 1.0);
        assert_eq!(p.strategy(0).fraction(1), 1.0);
    }
}
