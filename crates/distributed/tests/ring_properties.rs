//! Randomized end-to-end tests of the distributed token ring: for random
//! stable systems, the ring must terminate, produce a feasible ε-Nash
//! profile, and agree with the sequential solver.

use lb_distributed::runtime::{DistributedNash, RingInit};
use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use proptest::prelude::*;

fn arb_system() -> impl Strategy<Value = SystemModel> {
    (
        prop::collection::vec(1.0f64..100.0, 1..6),
        prop::collection::vec(0.1f64..1.0, 1..5),
        0.1f64..0.85,
    )
        .prop_map(|(rates, fractions, rho)| {
            SystemModel::with_utilization(rates, &fractions, rho).expect("valid")
        })
}

proptest! {
    // Keep the case count moderate: each case runs the whole ring.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_terminates_feasible_and_epsilon_nash(model in arb_system()) {
        let out = DistributedNash::new()
            .tolerance(1e-7)
            .max_rounds(3000)
            .run(&model)
            .unwrap();
        prop_assert!(out.converged());
        out.profile().check_stability(&model).unwrap();
        let gap = epsilon_nash_gap(&model, out.profile()).unwrap();
        let scale: f64 = out
            .user_times()
            .iter()
            .cloned()
            .fold(0.0, f64::max)
            .max(1e-6);
        prop_assert!(gap <= 1e-3 * scale, "gap {gap} at scale {scale}");
        // Under the certified rule the accepting round is quiescent (no
        // updates) and already-ε-optimal users skip, so the update count
        // is bounded by the non-final rounds but at least one per round
        // (a fully-skipped round would have terminated instead).
        let m = model.num_users() as u32;
        prop_assert!(out.total_updates() <= (out.rounds() - 1) * m);
        prop_assert!(out.total_updates() >= out.rounds() - 1);
    }

    #[test]
    fn ring_and_sequential_agree_on_random_systems(model in arb_system()) {
        // Pin the paper's absolute-norm rule on both sides: it is the
        // only rule under which the ring and the sequential sweep run in
        // exact lockstep (the certified rule's quiescence protocol costs
        // the ring one extra confirming round).
        let ring = DistributedNash::new()
            .init(RingInit::Proportional)
            .stopping_rule(lb_game::StoppingRule::AbsoluteNorm)
            .tolerance(1e-8)
            .max_rounds(5000)
            .run(&model)
            .unwrap();
        prop_assert!(ring.converged());
        let seq = NashSolver::new(Initialization::Proportional)
            .stopping_rule(lb_game::StoppingRule::AbsoluteNorm)
            .tolerance(1e-8)
            .max_iterations(5000)
            .solve(&model)
            .unwrap();
        prop_assert_eq!(ring.rounds(), seq.iterations());
        let dist = ring.profile().max_l1_distance(seq.profile()).unwrap();
        prop_assert!(dist < 1e-6, "profiles differ by {dist}");
    }
}
