//! Property tests on the game-theoretic kernels (crate-level; the
//! workspace-level `tests/properties.rs` covers the cross-scheme
//! invariants).

use lb_game::best_reply::{satisfies_kkt, split_cost, water_fill_flows};
use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::model::SystemModel;
use lb_game::sampled::SampledNashSolver;
use lb_game::schemes::{wardrop_flows, StackelbergScheme};
use lb_game::stopping::profile_certificate;
use lb_game::strategy::{Strategy as UserStrategy, StrategyProfile};
use proptest::prelude::*;

fn arb_rates() -> impl proptest::strategy::Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..200.0, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn water_filling_uses_a_rate_threshold(rates in arb_rates(), frac in 0.01f64..0.95) {
        // The optimal support is "all computers at least as fast as the
        // slowest used one" — a threshold structure in available rate.
        let demand = rates.iter().sum::<f64>() * frac;
        let flows = water_fill_flows(&rates, demand).unwrap();
        let slowest_used = flows
            .iter()
            .zip(&rates)
            .filter(|(&x, _)| x > 0.0)
            .map(|(_, &a)| a)
            .fold(f64::INFINITY, f64::min);
        for (&x, &a) in flows.iter().zip(&rates) {
            if a > slowest_used {
                prop_assert!(x > 0.0, "faster computer unused: rate {a} vs threshold {slowest_used}");
            }
        }
    }

    #[test]
    fn water_filling_conserves_demand_and_satisfies_kkt(rates in arb_rates(), frac in 0.01f64..0.95) {
        // Conservation must hold to tight absolute tolerance: the clamp
        // at the prefix boundary used to leak a few ulps of demand per
        // call, which compounds over thousands of best replies.
        let demand = rates.iter().sum::<f64>() * frac;
        let flows = water_fill_flows(&rates, demand).unwrap();
        let sum: f64 = flows.iter().sum();
        prop_assert!(
            (sum - demand).abs() <= 1e-9,
            "conservation drift {:e} (demand {demand})",
            (sum - demand).abs()
        );
        for (&x, &a) in flows.iter().zip(&rates) {
            prop_assert!(x >= 0.0, "negative flow {x}");
            if x > 0.0 {
                prop_assert!(x < a, "saturating flow {x} on rate {a}");
            }
        }
        prop_assert!(
            satisfies_kkt(&rates, &flows, 1e-6),
            "KKT violated for rates {rates:?}, demand {demand}"
        );
    }

    #[test]
    fn water_filling_cost_is_monotone_in_demand(rates in arb_rates(), f1 in 0.01f64..0.9, f2 in 0.01f64..0.9) {
        let total: f64 = rates.iter().sum();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let c_lo = split_cost(&rates, &water_fill_flows(&rates, total * lo).unwrap());
        let c_hi = split_cost(&rates, &water_fill_flows(&rates, total * hi).unwrap());
        prop_assert!(c_lo <= c_hi + 1e-9, "cost not monotone: {c_lo} vs {c_hi}");
    }

    #[test]
    fn water_filling_is_scale_equivariant(rates in arb_rates(), frac in 0.05f64..0.9, scale in 0.1f64..10.0) {
        // Scaling all rates and the demand scales the flows.
        let demand = rates.iter().sum::<f64>() * frac;
        let base = water_fill_flows(&rates, demand).unwrap();
        let scaled_rates: Vec<f64> = rates.iter().map(|a| a * scale).collect();
        let scaled = water_fill_flows(&scaled_rates, demand * scale).unwrap();
        for (b, s) in base.iter().zip(&scaled) {
            prop_assert!((s - b * scale).abs() < 1e-6 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn wardrop_satisfies_the_equilibrium_inequalities(rates in arb_rates(), frac in 0.01f64..0.95) {
        let phi = rates.iter().sum::<f64>() * frac;
        let flows = wardrop_flows(&rates, phi).unwrap();
        let used_time = flows
            .iter()
            .zip(&rates)
            .filter(|(&l, _)| l > 0.0)
            .map(|(&l, &m)| 1.0 / (m - l))
            .fold(0.0f64, f64::max);
        for (&l, &m) in flows.iter().zip(&rates) {
            if l > 0.0 {
                prop_assert!((1.0 / (m - l) - used_time).abs() < 1e-6 * used_time);
            } else {
                prop_assert!(1.0 / m >= used_time - 1e-9, "unused computer is strictly better");
            }
        }
    }

    #[test]
    fn wardrop_never_beats_the_social_optimum(rates in arb_rates(), frac in 0.01f64..0.95) {
        let phi = rates.iter().sum::<f64>() * frac;
        let wardrop = wardrop_flows(&rates, phi).unwrap();
        let optimal = water_fill_flows(&rates, phi).unwrap();
        prop_assert!(
            split_cost(&rates, &optimal) <= split_cost(&rates, &wardrop) + 1e-9
        );
        prop_assert!(satisfies_kkt(&rates, &optimal, 1e-5));
    }

    #[test]
    fn stackelberg_cost_is_sandwiched(rates in prop::collection::vec(1.0f64..100.0, 2..8), frac in 0.1f64..0.9, alpha in 0.0f64..1.0) {
        // For any alpha, LLF + Wardrop followers is between the optimum
        // and the pure Wardrop cost.
        let users: Vec<f64> = vec![rates.iter().sum::<f64>() * frac];
        let model = SystemModel::new(rates.clone(), users).unwrap();
        let st = StackelbergScheme::new(alpha).unwrap();
        let p = lb_game::schemes::LoadBalancingScheme::compute(&st, &model).unwrap();
        let d = lb_game::response::overall_response_time(&model, &p).unwrap();
        let phi = model.total_arrival_rate();
        let d_opt = split_cost(&rates, &water_fill_flows(&rates, phi).unwrap());
        let d_wardrop = split_cost(&rates, &wardrop_flows(&rates, phi).unwrap());
        prop_assert!(d >= d_opt - 1e-9, "beats the optimum: {d} < {d_opt}");
        prop_assert!(d <= d_wardrop + 1e-9, "worse than Wardrop: {d} > {d_wardrop}");
    }

    #[test]
    fn strategy_profile_flows_match_manual_sum(
        fractions in prop::collection::vec(0.01f64..1.0, 2..6),
        phis in prop::collection::vec(0.1f64..5.0, 1..4),
    ) {
        // Build a model large enough to be stable and a replicated
        // normalized strategy; flows must equal phi-weighted fractions.
        let n = fractions.len();
        let sum: f64 = fractions.iter().sum();
        let normalized: Vec<f64> = fractions.iter().map(|f| f / sum).collect();
        let capacity_needed: f64 = phis.iter().sum::<f64>() * 2.0 + 1.0;
        let rates = vec![capacity_needed; n];
        let model = SystemModel::new(rates, phis.clone()).unwrap();
        let profile =
            StrategyProfile::new(vec![UserStrategy::new(normalized.clone()).unwrap(); phis.len()])
                .unwrap();
        let flows = profile.computer_flows(&model).unwrap();
        let phi_total: f64 = phis.iter().sum();
        for (i, &f) in flows.iter().enumerate() {
            prop_assert!((f - normalized[i] * phi_total).abs() < 1e-9 * (1.0 + f));
        }
    }

    #[test]
    fn certificate_bounds_the_exact_nash_gap(
        rates in prop::collection::vec(1.0f64..100.0, 2..10),
        fractions in prop::collection::vec(0.1f64..1.0, 1..5),
        rho in 0.1f64..0.45,
        tilt in prop::collection::vec(0.0f64..1.0, 10),
    ) {
        // Soundness of the stopping certificate: on any feasible profile
        // the water-filling KKT regret bound dominates the exact best-
        // reply improvement, so a certified ε is never an understatement.
        let model = SystemModel::with_utilization(rates.clone(), &fractions, rho).expect("valid");
        let n = model.num_computers();
        // A rate-proportional split tilted per computer; with ρ < 0.45
        // and tilt weights in [1, 2) every load stays under capacity.
        let weights: Vec<f64> = (0..n).map(|i| rates[i] * (1.0 + tilt[i])).collect();
        let wsum: f64 = weights.iter().sum();
        let row = UserStrategy::new(weights.iter().map(|w| w / wsum).collect()).unwrap();
        let profile = StrategyProfile::new(vec![row; model.num_users()]).unwrap();

        let cert = profile_certificate(&model, &profile).unwrap();
        let gap = epsilon_nash_gap(&model, &profile).unwrap();
        prop_assert!(
            cert.absolute + 1e-9 * (1.0 + gap) >= gap,
            "certificate {} understates the exact gap {}",
            cert.absolute,
            gap
        );
    }

    #[test]
    fn water_filling_never_panics_on_non_finite_rates(
        rates in arb_rates(),
        pos in 0usize..12,
        bad_pick in 0usize..3,
        frac in 0.01f64..0.95,
    ) {
        // Regression: the descending-rate sort used `partial_cmp().unwrap()`,
        // which panicked the solver thread when a churn event produced a
        // NaN rate. With `total_cmp` the call must always return.
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][bad_pick];
        let demand = rates.iter().sum::<f64>() * frac;
        let mut poisoned = rates.clone();
        let idx = pos % poisoned.len();
        poisoned[idx] = bad;
        if let Ok(flows) = water_fill_flows(&poisoned, demand) {
            prop_assert_eq!(flows.len(), poisoned.len());
        }
    }

    #[test]
    fn sampled_solver_is_byte_identical_across_thread_counts(
        rates in prop::collection::vec(5.0f64..100.0, 4..16),
        fractions in prop::collection::vec(0.1f64..1.0, 2..6),
        rho in 0.2f64..0.7,
        seed in 0u64..u64::MAX,
    ) {
        // The sampled solver's parallel certificate pass is a pure
        // max-reduction and its update sweep is sequential, so the
        // outcome must not depend on the worker pool size.
        let model = SystemModel::with_utilization(rates, &fractions, rho).expect("valid");
        let solve = |threads: usize| {
            SampledNashSolver::new()
                .seed(seed)
                .threads(threads)
                .max_sweeps(64)
                .solve(&model)
                .unwrap()
        };
        let base = solve(1);
        for threads in [2, 8] {
            let other = solve(threads);
            prop_assert_eq!(base.iterations(), other.iterations());
            prop_assert_eq!(base.flows().len(), other.flows().len());
            for (a, b) in base.flows().iter().zip(other.flows()) {
                prop_assert_eq!(a.len(), b.len());
                for (&(ia, xa), &(ib, xb)) in a.iter().zip(b) {
                    prop_assert_eq!(ia, ib);
                    prop_assert_eq!(xa.to_bits(), xb.to_bits(), "flows differ bitwise");
                }
            }
        }
    }
}
