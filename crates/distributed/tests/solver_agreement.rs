//! Cross-solver oracle: on random small instances, every solver in the
//! workspace must land on the same equilibrium. The game's equilibrium
//! is unique (Orda–Rom–Shimkin), so a solver that disagrees with the
//! reference beyond what the two certificates allow has a bug.
//!
//! Each profile must itself certify ε. Against the reference, the
//! tolerance is `√(c + c_ref)` in relative `D_j`, where `c` is a
//! profile's certified relative regret. A user's regret grows
//! quadratically with its distance from its best reply, while `D_j`
//! moves linearly with the profile, so certified profiles may differ
//! by the square root of their certificates — not by their sum.
//!
//! A certificate can round to exactly zero (one user, or one computer)
//! while two solvers' fractions still differ in the last bit, so the
//! tolerance never drops below the rounding of evaluating `D_j`.
//!
//! Jacobi is left out: it diverges for m ≥ 3 by design.

use lb_distributed::async_runtime::AsyncNash;
use lb_distributed::runtime::{DistributedNash, RingInit};
use lb_game::dynamics::{DynamicBalancer, Restart};
use lb_game::metrics::evaluate_profile;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver, UpdateOrder};
use lb_game::overload::OverloadPolicy;
use lb_game::sampled::SampledNashSolver;
use lb_game::stopping::profile_certificate;
use lb_game::strategy::StrategyProfile;
use proptest::prelude::*;

/// Certified relative ε every solver runs at.
const EPS: f64 = 1e-6;

/// Relative rounding of `D_j` evaluated from a profile's fractions.
const ROUNDING: f64 = 64.0 * f64::EPSILON;

fn arb_instance() -> impl Strategy<Value = SystemModel> {
    (
        prop::collection::vec(1.0f64..100.0, 1..9),
        prop::collection::vec(0.1f64..1.0, 1..7),
        0.1f64..0.9,
    )
        .prop_map(|(rates, fractions, rho)| {
            SystemModel::with_utilization(rates, &fractions, rho).expect("valid instance")
        })
}

/// Every solver's certified profile of `model`, labelled.
fn solver_profiles(model: &SystemModel) -> Vec<(&'static str, StrategyProfile)> {
    let ring = |init| {
        let out = DistributedNash::new()
            .init(init)
            .tolerance(EPS)
            .max_rounds(100_000)
            .run(model)
            .expect("ring run");
        assert!(out.converged(), "ring did not certify");
        out.profile().clone()
    };
    let asynchronous = AsyncNash::new().epsilon(EPS).run(model).expect("async run");
    assert!(asynchronous.converged(), "async run did not certify");
    let mut balancer = DynamicBalancer::new(model.clone(), EPS).expect("initial solve");
    balancer
        .update_capacity(
            model.computer_rates(),
            OverloadPolicy::Reject,
            Restart::Warm,
        )
        .expect("warm restart");
    vec![
        (
            "random-order NASH_0",
            NashSolver::new(Initialization::Zero)
                .update_order(UpdateOrder::RandomPermutation(7))
                .tolerance(EPS)
                .max_iterations(100_000)
                .solve(model)
                .expect("random order converges")
                .into_profile(),
        ),
        (
            "sampled k = n",
            SampledNashSolver::new()
                .samples(model.num_computers())
                .epsilon(EPS)
                .max_sweeps(100_000)
                .solve(model)
                .expect("sampled converges")
                .to_profile(model)
                .expect("sampled profile"),
        ),
        ("ring NASH_0", ring(RingInit::Zero)),
        ("ring NASH_P", ring(RingInit::Proportional)),
        ("async", asynchronous.profile().expect("async profile")),
        ("warm restart", balancer.equilibrium().clone()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_solver_agrees_with_gauss_seidel_within_the_certificates(model in arb_instance()) {
        let reference = NashSolver::new(Initialization::Proportional)
            .tolerance(EPS)
            .max_iterations(100_000)
            .solve(&model)
            .expect("reference converges")
            .into_profile();
        let d_ref = evaluate_profile(&model, &reference).unwrap().user_times;
        let c_ref = profile_certificate(&model, &reference).unwrap().relative;
        prop_assert!(c_ref <= EPS + ROUNDING, "reference certificate {c_ref:e}");
        for (name, profile) in solver_profiles(&model) {
            let d = evaluate_profile(&model, &profile).unwrap().user_times;
            let c = profile_certificate(&model, &profile).unwrap().relative;
            prop_assert!(c <= EPS + ROUNDING, "{name}: certificate {c:e}");
            let bound = (c + c_ref).sqrt().max(ROUNDING);
            for (j, (&dj, &rj)) in d.iter().zip(&d_ref).enumerate() {
                let err = (dj - rj).abs() / rj;
                prop_assert!(
                    err <= bound,
                    "{name}: user {j} D_j {dj} vs reference {rj} (rel err {err:e} > bound {bound:e}, c {c:e}, c_ref {c_ref:e})"
                );
            }
        }
    }
}
