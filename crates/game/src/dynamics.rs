//! Dynamic re-equilibration — the paper's named future work ("game
//! theoretic models for dynamic load balancing").
//!
//! The paper's NASH algorithm is static: "the execution of this algorithm
//! is initiated periodically or when the system parameters are changed".
//! This module implements exactly that loop: a [`DynamicBalancer`] holds
//! the current equilibrium and, whenever the system changes (computer
//! rates drift, users join or leave, demand shifts), recomputes it —
//! **warm-starting** from the previous equilibrium re-mapped onto the new
//! system, which is typically far closer to the new equilibrium than
//! either NASH_0 or NASH_P. The `ablations` bench quantifies the saving.

use crate::error::GameError;
use crate::model::SystemModel;
use crate::nash::{Initialization, NashOutcome, NashSolver};
use crate::overload::{shed_to_feasible, OverloadPolicy, ShedPlan};
use crate::stopping::StoppingRule;
use crate::strategy::{Strategy, StrategyProfile};

/// How the balancer seeds the solver after a system change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// Re-solve from scratch with NASH_P (the static algorithm's default).
    Cold,
    /// Seed with the previous equilibrium, re-mapped to the new system
    /// shape (rows added/dropped for joined/left users, renormalized).
    Warm,
}

/// Statistics of one re-equilibration step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rebalance {
    /// Sweeps the solver needed.
    pub iterations: u32,
}

/// The outcome of a capacity update: the re-equilibration statistics,
/// the admission-control decision, and which computers are still live.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityStep {
    /// Solver statistics of the re-convergence.
    pub rebalance: Rebalance,
    /// Per-user admitted/shed rates the balancer now runs on.
    pub plan: ShedPlan,
    /// Indices (into the full-width rate vector) of the computers the
    /// new equilibrium spans, in column order.
    pub live_computers: Vec<usize>,
}

/// Maintains a Nash equilibrium across system changes.
///
/// # Examples
///
/// ```
/// use lb_game::dynamics::{DynamicBalancer, Restart};
/// use lb_game::model::SystemModel;
///
/// let mut b = DynamicBalancer::new(
///     SystemModel::new(vec![10.0, 20.0], vec![9.0]).unwrap(),
///     1e-6,
/// ).unwrap();
/// // Demand grows; warm-restart from the previous equilibrium.
/// let drifted = SystemModel::new(vec![10.0, 20.0], vec![12.0]).unwrap();
/// let step = b.update(drifted, Restart::Warm).unwrap();
/// assert!(step.iterations >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicBalancer {
    model: SystemModel,
    equilibrium: StrategyProfile,
    tolerance: f64,
    stopping: StoppingRule,
    max_iterations: u32,
    history: Vec<Rebalance>,
    /// Users' *nominal* arrival rates — what they want to send, as
    /// opposed to what admission control currently admits. Reset by
    /// [`Self::update`], preserved across [`Self::update_capacity`].
    nominal_user_rates: Vec<f64>,
    /// Full-width computer rates as last reported (0 = offline).
    full_rates: Vec<f64>,
    /// Full-width indices of the computers the current model spans.
    live: Vec<usize>,
}

impl DynamicBalancer {
    /// Computes the initial equilibrium for `model`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn new(model: SystemModel, tolerance: f64) -> Result<Self, GameError> {
        Self::with_stopping(model, tolerance, StoppingRule::default())
    }

    /// Like [`DynamicBalancer::new`], but every solve — the initial one
    /// and all re-equilibrations — uses `stopping` instead of the
    /// default certified rule. `tolerance` is ε under either rule: the
    /// certified relative gap under [`StoppingRule::CertifiedGap`], the
    /// norm threshold under [`StoppingRule::AbsoluteNorm`].
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn with_stopping(
        model: SystemModel,
        tolerance: f64,
        stopping: StoppingRule,
    ) -> Result<Self, GameError> {
        let outcome = NashSolver::new(Initialization::Proportional)
            .stopping_rule(stopping)
            .tolerance(tolerance)
            .max_iterations(5000)
            .solve(&model)?;
        let history = vec![Rebalance {
            iterations: outcome.iterations(),
        }];
        let nominal_user_rates = model.user_rates().to_vec();
        let full_rates = model.computer_rates().to_vec();
        let live = (0..model.num_computers()).collect();
        Ok(Self {
            model,
            equilibrium: outcome.into_profile(),
            tolerance,
            stopping,
            max_iterations: 5000,
            history,
            nominal_user_rates,
            full_rates,
            live,
        })
    }

    /// The current system model.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// The current equilibrium profile.
    pub fn equilibrium(&self) -> &StrategyProfile {
        &self.equilibrium
    }

    /// Re-equilibration log (most recent last).
    pub fn history(&self) -> &[Rebalance] {
        &self.history
    }

    /// Applies a system change and recomputes the equilibrium with the
    /// chosen restart policy. Returns the step statistics.
    ///
    /// # Errors
    ///
    /// Propagates model/solver failures; on error the balancer keeps its
    /// previous state.
    pub fn update(
        &mut self,
        new_model: SystemModel,
        restart: Restart,
    ) -> Result<Rebalance, GameError> {
        let init = match restart {
            Restart::Cold => Initialization::Proportional,
            Restart::Warm => Initialization::Custom(remap_profile(&self.equilibrium, &new_model)?),
        };
        let outcome: NashOutcome = NashSolver::new(init)
            .stopping_rule(self.stopping)
            .tolerance(self.tolerance)
            .max_iterations(self.max_iterations)
            .solve(&new_model)?;
        let step = Rebalance {
            iterations: outcome.iterations(),
        };
        self.nominal_user_rates = new_model.user_rates().to_vec();
        self.full_rates = new_model.computer_rates().to_vec();
        self.live = (0..new_model.num_computers()).collect();
        self.model = new_model;
        self.equilibrium = outcome.into_profile();
        self.history.push(step);
        Ok(step)
    }

    /// Applies a capacity change — server crash (`rate = 0`),
    /// degradation, or recovery — and re-converges on the residual
    /// system, shedding load per `policy` if the survivors cannot carry
    /// the nominal demand.
    ///
    /// `new_rates` is the full-width rate vector (same length as the
    /// original model's computer list); a zero entry marks an offline
    /// computer. Unlike [`Self::update`], which would fail with
    /// [`GameError::Overloaded`] on an infeasible model, this path
    /// degrades: a shedding policy admits
    /// `min(nominal, headroom · Σ μ)` per its fairness rule and the
    /// equilibrium is recomputed over the admitted rates — reusing
    /// `remap_profile_columns` so a warm restart survives column
    /// removals/additions.
    ///
    /// # Errors
    ///
    /// * [`GameError::DimensionMismatch`] when `new_rates` has the
    ///   wrong width.
    /// * [`GameError::Overloaded`] under [`OverloadPolicy::Reject`]
    ///   when the residual capacity cannot carry the nominal demand, or
    ///   under any policy when no computer is left. The balancer keeps
    ///   its previous state on error.
    /// * Solver failures, propagated.
    pub fn update_capacity(
        &mut self,
        new_rates: &[f64],
        policy: OverloadPolicy,
        restart: Restart,
    ) -> Result<CapacityStep, GameError> {
        if new_rates.len() != self.full_rates.len() {
            return Err(GameError::DimensionMismatch {
                expected: self.full_rates.len(),
                actual: new_rates.len(),
            });
        }
        let plan = shed_to_feasible(new_rates, &self.nominal_user_rates, policy)?;
        let new_live: Vec<usize> = new_rates
            .iter()
            .enumerate()
            .filter(|(_, &r)| r > 0.0)
            .map(|(i, _)| i)
            .collect();
        if new_live.is_empty() {
            let phi: f64 = self.nominal_user_rates.iter().sum();
            return Err(GameError::overloaded(phi, 0.0));
        }
        let live_rates: Vec<f64> = new_live.iter().map(|&i| new_rates[i]).collect();
        let new_model = SystemModel::new(live_rates, plan.admitted.clone())?;
        let init = match restart {
            Restart::Cold => Initialization::Proportional,
            Restart::Warm => {
                // Map surviving columns by identity, not position: if
                // computer 2 of 5 died, old column 3 must land on new
                // column 2, and a recovered computer gets a fresh
                // (zero, then renormalized) column.
                let columns: Vec<Option<usize>> = new_live
                    .iter()
                    .map(|&i| self.live.iter().position(|&l| l == i))
                    .collect();
                Initialization::Custom(remap_profile_columns(
                    &self.equilibrium,
                    &new_model,
                    &columns,
                )?)
            }
        };
        let outcome: NashOutcome = NashSolver::new(init)
            .stopping_rule(self.stopping)
            .tolerance(self.tolerance)
            .max_iterations(self.max_iterations)
            .solve(&new_model)?;
        let rebalance = Rebalance {
            iterations: outcome.iterations(),
        };
        self.model = new_model;
        self.equilibrium = outcome.into_profile();
        self.history.push(rebalance);
        self.full_rates = new_rates.to_vec();
        self.live = new_live.clone();
        Ok(CapacityStep {
            rebalance,
            plan,
            live_computers: new_live,
        })
    }
}

/// Re-maps an old equilibrium onto a (possibly reshaped) new system:
/// existing users keep their strategies truncated/extended to the new
/// computer count and renormalized; new users start proportional.
///
/// # Errors
///
/// Propagates strategy-construction failures.
pub(crate) fn remap_profile(
    old: &StrategyProfile,
    new_model: &SystemModel,
) -> Result<StrategyProfile, GameError> {
    let columns: Vec<Option<usize>> = (0..new_model.num_computers()).map(Some).collect();
    remap_profile_columns(old, new_model, &columns)
}

/// Column-aware re-mapping: `columns[k]` names the *old* column feeding
/// new column `k` (`None` for a brand-new computer, which starts at
/// zero before renormalization). Rows that lose all their mass — every
/// used computer died — fall back to the proportional split, as do
/// brand-new users. This is the warm-restart kernel behind
/// [`DynamicBalancer::update_capacity`].
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] when `columns` does not match the
/// new computer count; otherwise propagates strategy-construction
/// failures.
pub(crate) fn remap_profile_columns(
    old: &StrategyProfile,
    new_model: &SystemModel,
    columns: &[Option<usize>],
) -> Result<StrategyProfile, GameError> {
    let n_new = new_model.num_computers();
    if columns.len() != n_new {
        return Err(GameError::DimensionMismatch {
            expected: n_new,
            actual: columns.len(),
        });
    }
    let m_new = new_model.num_users();
    let total: f64 = new_model.computer_rates().iter().sum();
    let proportional: Vec<f64> = new_model
        .computer_rates()
        .iter()
        .map(|mu| mu / total)
        .collect();

    let mut rows = Vec::with_capacity(m_new);
    for j in 0..m_new {
        if j < old.num_users() {
            let old_row = old.strategy(j).fractions();
            let mut fr: Vec<f64> = columns
                .iter()
                .map(|c| c.and_then(|i| old_row.get(i)).copied().unwrap_or(0.0))
                .collect();
            let sum: f64 = fr.iter().sum();
            if sum > 1e-12 {
                for x in &mut fr {
                    *x /= sum;
                }
            } else {
                fr.clone_from(&proportional);
            }
            rows.push(Strategy::new(fr)?);
        } else {
            rows.push(Strategy::new(proportional.clone())?);
        }
    }
    StrategyProfile::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::epsilon_nash_gap;
    use crate::strategy::Strategy;
    use proptest::prelude::*;

    fn base_model() -> SystemModel {
        SystemModel::table1_system(0.6).unwrap()
    }

    #[test]
    fn initial_equilibrium_is_epsilon_nash() {
        let b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4);
        assert_eq!(b.history().len(), 1);
    }

    #[test]
    fn stopping_rule_threads_through_reequilibration() {
        // The certified rule is scale-invariant: a balancer driven on a
        // 100×-rescaled system re-equilibrates in exactly the sweeps of
        // the unscaled one, for the initial solve and for updates.
        let scale = 100.0;
        let scaled = |m: &SystemModel| {
            SystemModel::new(
                m.computer_rates().iter().map(|r| r * scale).collect(),
                m.user_rates().iter().map(|r| r * scale).collect(),
            )
            .unwrap()
        };
        let base = base_model();
        let drift = SystemModel::table1_system(0.7).unwrap();
        let mut b = DynamicBalancer::with_stopping(base, 1e-6, StoppingRule::default()).unwrap();
        let mut s =
            DynamicBalancer::with_stopping(scaled(&base_model()), 1e-6, StoppingRule::default())
                .unwrap();
        let step_b = b.update(drift.clone(), Restart::Warm).unwrap();
        let step_s = s.update(scaled(&drift), Restart::Warm).unwrap();
        assert_eq!(b.history()[0].iterations, s.history()[0].iterations);
        assert_eq!(step_b.iterations, step_s.iterations);
        // The repro opt-in threads through too: response times shrink
        // by 100× on the scaled system, so the absolute-norm rule stops
        // (vacuously) earlier — the scale dependence the certified
        // default removes.
        let a =
            DynamicBalancer::with_stopping(scaled(&base_model()), 1e-6, StoppingRule::AbsoluteNorm)
                .unwrap();
        let u =
            DynamicBalancer::with_stopping(base_model(), 1e-6, StoppingRule::AbsoluteNorm).unwrap();
        assert!(
            a.history()[0].iterations < u.history()[0].iterations,
            "absolute norm should be scale-dependent: {} vs {}",
            a.history()[0].iterations,
            u.history()[0].iterations
        );
    }

    #[test]
    fn warm_start_beats_cold_start_on_small_drift() {
        // Demand drifts by 5%: warm restart should need far fewer sweeps.
        let mut warm = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let mut cold = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let drifted = SystemModel::table1_system(0.63).unwrap();
        let w = warm.update(drifted.clone(), Restart::Warm).unwrap();
        let c = cold.update(drifted, Restart::Cold).unwrap();
        assert!(
            w.iterations < c.iterations,
            "warm {} vs cold {}",
            w.iterations,
            c.iterations
        );
        // Both end at an equilibrium of the new system.
        for b in [&warm, &cold] {
            let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
            assert!(gap < 1e-4, "gap {gap}");
        }
    }

    #[test]
    fn user_join_and_leave_are_handled() {
        let mut b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        // A user joins: 11 users now.
        let mut fractions = lb_fractions();
        fractions.push(0.08);
        let joined =
            SystemModel::with_utilization(SystemModel::table1_rates(), &fractions, 0.65).unwrap();
        b.update(joined, Restart::Warm).unwrap();
        assert_eq!(b.equilibrium().num_users(), 11);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4);

        // Two users leave: 9 users.
        let left =
            SystemModel::with_utilization(SystemModel::table1_rates(), &lb_fractions()[..9], 0.55)
                .unwrap();
        b.update(left, Restart::Warm).unwrap();
        assert_eq!(b.equilibrium().num_users(), 9);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4);
        assert_eq!(b.history().len(), 3);
    }

    #[test]
    fn computer_pool_reshapes() {
        let mut b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        // Two fast computers are added.
        let mut rates = SystemModel::table1_rates();
        rates.push(100.0);
        rates.push(100.0);
        let expanded = SystemModel::with_utilization(rates, &lb_fractions(), 0.6).unwrap();
        b.update(expanded, Restart::Warm).unwrap();
        assert_eq!(b.equilibrium().num_computers(), 18);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4);

        // The pool shrinks back to 12 computers.
        let shrunk = SystemModel::with_utilization(
            SystemModel::table1_rates()[..12].to_vec(),
            &lb_fractions(),
            0.6,
        )
        .unwrap();
        b.update(shrunk, Restart::Warm).unwrap();
        assert_eq!(b.equilibrium().num_computers(), 12);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4);
    }

    #[test]
    fn failed_update_preserves_state() {
        let b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let before = b.equilibrium().clone();
        // An impossible re-solve: absurdly tight tolerance within 0 sweeps
        // cannot be triggered through update(), so use an overloaded-model
        // construction failure upstream instead.
        let bad = SystemModel::new(vec![10.0], vec![5.0, 6.0]);
        assert!(bad.is_err());
        assert_eq!(b.equilibrium(), &before);
        assert_eq!(b.history().len(), 1);
    }

    fn lb_fractions() -> Vec<f64> {
        crate::model::paper_user_fractions()
    }

    #[test]
    fn crash_with_feasible_residual_sheds_nothing() {
        // Table 1 at ρ = 0.6: losing the fastest computer leaves plenty
        // of capacity; no shedding, equilibrium over the survivors.
        let mut b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let mut rates = SystemModel::table1_rates();
        let dead = rates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        rates[dead] = 0.0;
        let step = b
            .update_capacity(
                &rates,
                OverloadPolicy::ShedProportional { headroom: 0.95 },
                Restart::Warm,
            )
            .unwrap();
        assert!(!step.plan.sheds());
        assert_eq!(step.live_computers.len(), 15);
        assert!(!step.live_computers.contains(&dead));
        assert_eq!(b.equilibrium().num_computers(), 15);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4, "gap {gap}");
    }

    #[test]
    fn infeasible_crash_sheds_and_recovery_readmits() {
        // ρ = 0.9 and the two fastest computers die: demand exceeds the
        // survivors' capacity, so the policy sheds; recovery re-admits.
        let mut b = DynamicBalancer::new(SystemModel::table1_system(0.9).unwrap(), 1e-6).unwrap();
        let nominal_phi: f64 = b.nominal_user_rates.iter().sum();
        let full = SystemModel::table1_rates();
        let mut rates = full.clone();
        let mut order: Vec<usize> = (0..rates.len()).collect();
        order.sort_by(|&p, &q| rates[q].partial_cmp(&rates[p]).unwrap());
        rates[order[0]] = 0.0;
        rates[order[1]] = 0.0;
        let residual_capacity: f64 = rates.iter().sum();
        assert!(
            nominal_phi > residual_capacity,
            "test setup: crash must make the demand infeasible"
        );

        let step = b
            .update_capacity(
                &rates,
                OverloadPolicy::ShedProportional { headroom: 0.9 },
                Restart::Warm,
            )
            .unwrap();
        assert!(step.plan.sheds());
        assert!((step.plan.admitted_total() - 0.9 * residual_capacity).abs() < 1e-6);
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4, "gap {gap}");

        // Reject would have aborted instead.
        let mut rejecting =
            DynamicBalancer::new(SystemModel::table1_system(0.9).unwrap(), 1e-6).unwrap();
        let before = rejecting.equilibrium().clone();
        let err = rejecting
            .update_capacity(&rates, OverloadPolicy::Reject, Restart::Warm)
            .unwrap_err();
        assert!(matches!(err, GameError::Overloaded { .. }));
        assert_eq!(rejecting.equilibrium(), &before, "state preserved on error");

        // Recovery: full rates again -> everything re-admitted.
        let step = b
            .update_capacity(
                &full,
                OverloadPolicy::ShedProportional { headroom: 0.9 },
                Restart::Warm,
            )
            .unwrap();
        assert!(!step.plan.sheds());
        assert!((step.plan.admitted_total() - nominal_phi).abs() < 1e-9);
        assert_eq!(b.equilibrium().num_computers(), full.len());
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4, "gap {gap}");
    }

    #[test]
    fn capacity_update_rejects_wrong_width_and_total_loss() {
        let mut b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        assert!(matches!(
            b.update_capacity(&[10.0], OverloadPolicy::Reject, Restart::Warm),
            Err(GameError::DimensionMismatch { .. })
        ));
        let zeros = vec![0.0; SystemModel::table1_rates().len()];
        assert!(matches!(
            b.update_capacity(
                &zeros,
                OverloadPolicy::ShedProportional { headroom: 0.9 },
                Restart::Warm
            ),
            Err(GameError::Overloaded { .. })
        ));
    }

    #[test]
    fn degradation_without_crash_keeps_all_columns() {
        let mut b = DynamicBalancer::new(base_model(), 1e-6).unwrap();
        let mut rates = SystemModel::table1_rates();
        for r in &mut rates {
            *r *= 0.8;
        }
        let step = b
            .update_capacity(
                &rates,
                OverloadPolicy::ShedMaxMin { headroom: 0.9 },
                Restart::Warm,
            )
            .unwrap();
        // ρ = 0.6 nominal / 0.8 slowdown = 0.75 utilization < 0.9: no shed.
        assert!(!step.plan.sheds());
        assert_eq!(step.live_computers.len(), rates.len());
        let gap = epsilon_nash_gap(b.model(), b.equilibrium()).unwrap();
        assert!(gap < 1e-4, "gap {gap}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn remap_profile_stays_row_stochastic_under_reshaping(
            m_old in 1usize..6,
            n_old in 1usize..8,
            weights in prop::collection::vec(0.0f64..1.0, 48),
            m_new in 1usize..6,
            n_new in 1usize..10,
            rate_pool in prop::collection::vec(0.5f64..100.0, 10),
            user_pool in prop::collection::vec(0.01f64..1.0, 6),
            util in 0.1f64..0.9,
            col_picks in prop::collection::vec(0usize..16, 10),
        ) {
            // Arbitrary old profile: m_old rows over n_old computers.
            let old = profile_from_pool(m_old, n_old, &weights);
            // Arbitrary new model: n_new computers, m_new users at `util`.
            let rates: Vec<f64> = rate_pool[..n_new].to_vec();
            let capacity: f64 = rates.iter().sum();
            let wsum: f64 = user_pool[..m_new].iter().sum();
            let users: Vec<f64> = user_pool[..m_new]
                .iter()
                .map(|w| w / wsum * util * capacity)
                .collect();
            let model = SystemModel::new(rates, users).unwrap();

            // Positional remap (computers appended/truncated at the end).
            let remapped = remap_profile(&old, &model).unwrap();
            assert_row_stochastic(&remapped, m_new, n_new)?;

            // Index-aware remap under arbitrary removals/additions: each new
            // column pulls from a random old column or starts fresh.
            let columns: Vec<Option<usize>> = col_picks[..n_new]
                .iter()
                .map(|&p| if p < n_old { Some(p) } else { None })
                .collect();
            let remapped = remap_profile_columns(&old, &model, &columns).unwrap();
            assert_row_stochastic(&remapped, m_new, n_new)?;
        }
    }

    /// Builds an `m × n` strategy profile from a flat weight pool,
    /// normalizing each row (uniform fallback for all-zero rows).
    fn profile_from_pool(m: usize, n: usize, weights: &[f64]) -> StrategyProfile {
        let rows: Vec<Strategy> = (0..m)
            .map(|j| {
                let row = &weights[j * n..(j + 1) * n];
                let sum: f64 = row.iter().sum();
                let fr: Vec<f64> = if sum > 1e-9 {
                    row.iter().map(|x| x / sum).collect()
                } else {
                    vec![1.0 / n as f64; n]
                };
                Strategy::new(fr).unwrap()
            })
            .collect();
        StrategyProfile::new(rows).unwrap()
    }

    fn assert_row_stochastic(profile: &StrategyProfile, m: usize, n: usize) -> Result<(), String> {
        prop_assert_eq!(profile.num_users(), m);
        for j in 0..m {
            let fr = profile.strategy(j).fractions();
            prop_assert_eq!(fr.len(), n);
            let mut sum = 0.0;
            for &x in fr {
                prop_assert!(x >= 0.0, "negative fraction {} in row {}", x, j);
                prop_assert!(x.is_finite(), "non-finite fraction in row {}", j);
                sum += x;
            }
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {} sums to {}", j, sum);
        }
        Ok(())
    }
}
