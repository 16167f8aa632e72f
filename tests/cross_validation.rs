//! Cross-validation between independent implementations of the same
//! mathematics: closed forms vs iterative solvers, sequential vs threaded
//! runtimes, formulas vs discrete-event sample paths.

use nash_lb::distributed::runtime::{DistributedNash, RingInit};
use nash_lb::game::best_reply::{split_cost, water_fill_flows};
use nash_lb::game::gradient::exponentiated_gradient_flows;
use nash_lb::game::metrics::evaluate_profile;
use nash_lb::game::model::SystemModel;
use nash_lb::game::nash::{nash_equilibrium, Initialization, NashSolver};
use nash_lb::game::schemes::{wardrop_flows, wardrop_iterative};
use nash_lb::game::StoppingRule;
use nash_lb::sim::harness::simulate_profile;
use nash_lb::sim::scenario::SimulationConfig;
use nash_lb::sim::validate::compare;
use nash_lb::stats::ReplicationPlan;

/// Deterministic pseudo-random instance generator (no external RNG in
/// this test; reproducible by construction).
fn lcg_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.max(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn water_filling_agrees_with_gradient_descent_on_random_instances() {
    let mut rnd = lcg_stream(0xC0FFEE);
    for case in 0..25 {
        let n = 1 + (rnd() * 7.0) as usize;
        let rates: Vec<f64> = (0..n).map(|_| 1.0 + rnd() * 99.0).collect();
        let capacity: f64 = rates.iter().sum();
        let demand = capacity * (0.05 + 0.9 * rnd());
        let exact = water_fill_flows(&rates, demand).unwrap();
        let approx = exponentiated_gradient_flows(&rates, demand, 4000).unwrap();
        let c_exact = split_cost(&rates, &exact);
        let c_approx = split_cost(&rates, &approx);
        assert!(
            (c_approx - c_exact).abs() <= 1e-4 * c_exact.max(1e-9),
            "case {case}: exact {c_exact} vs gradient {c_approx} (rates {rates:?}, demand {demand})"
        );
    }
}

#[test]
fn wardrop_closed_form_agrees_with_bisection_on_random_instances() {
    let mut rnd = lcg_stream(0xBEEF);
    for case in 0..25 {
        let n = 1 + (rnd() * 9.0) as usize;
        let mu: Vec<f64> = (0..n).map(|_| 1.0 + rnd() * 49.0).collect();
        let capacity: f64 = mu.iter().sum();
        let phi = capacity * (0.05 + 0.9 * rnd());
        let exact = wardrop_flows(&mu, phi).unwrap();
        let iter = wardrop_iterative(&mu, phi, 1e-12, 500).unwrap();
        for (i, (a, b)) in exact.iter().zip(&iter).enumerate() {
            assert!(
                (a - b).abs() < 1e-6 * phi.max(1.0),
                "case {case} computer {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn threaded_ring_replays_the_sequential_dynamics_exactly() {
    for rho in [0.3, 0.6, 0.8] {
        let model = SystemModel::table1_system(rho).unwrap();
        for (init_ring, init_seq) in [
            (RingInit::Zero, Initialization::Zero),
            (RingInit::Proportional, Initialization::Proportional),
        ] {
            // Lockstep replay holds under the paper's norm rule; the
            // certified default costs the ring one extra confirming
            // round (covered by the distributed crate's own tests).
            let ring = DistributedNash::new()
                .init(init_ring)
                .stopping_rule(StoppingRule::AbsoluteNorm)
                .tolerance(1e-6)
                .run(&model)
                .unwrap();
            let seq = NashSolver::new(init_seq)
                .stopping_rule(StoppingRule::AbsoluteNorm)
                .tolerance(1e-6)
                .solve(&model)
                .unwrap();
            assert_eq!(ring.rounds(), seq.iterations(), "rho {rho}");
            let dist = ring.profile().max_l1_distance(seq.profile()).unwrap();
            assert!(dist < 1e-6, "rho {rho}: profiles differ by {dist}");
            // Norm traces agree round by round.
            for (a, b) in ring.trace().values().iter().zip(seq.trace().values()) {
                assert!((a - b).abs() < 1e-9, "trace mismatch at rho {rho}");
            }
        }
    }
}

#[test]
fn simulated_nash_matches_analytic_predictions() {
    let model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 20.0, 13.0]).unwrap();
    let nash = nash_equilibrium(&model).unwrap();
    let plan = ReplicationPlan {
        replications: 3,
        ..ReplicationPlan::paper()
    };
    let sim = simulate_profile(&model, nash.profile(), &plan, SimulationConfig::quick()).unwrap();
    let report = compare(&model, nash.profile(), &sim).unwrap();
    assert!(
        report.within(0.10),
        "max user rel err {:.3}, system rel err {:.3}",
        report.max_user_relative_error,
        report.system_relative_error
    );
}

#[test]
fn analytic_system_mean_is_the_flow_weighted_computer_mean() {
    // Two independent derivations of D(s): rate-weighted user times vs
    // flow-weighted computer times.
    let model = SystemModel::table1_system(0.7).unwrap();
    let nash = nash_equilibrium(&model).unwrap();
    let metrics = evaluate_profile(&model, nash.profile()).unwrap();
    let phi = model.total_arrival_rate();
    let by_computers: f64 = metrics
        .computer_flows
        .iter()
        .zip(model.computer_rates())
        .filter(|(&l, _)| l > 0.0)
        .map(|(&l, &mu)| l / (mu - l))
        .sum::<f64>()
        / phi;
    assert!(
        (by_computers - metrics.overall_time).abs() < 1e-9,
        "{by_computers} vs {}",
        metrics.overall_time
    );
}

#[test]
fn churn_simulation_matches_the_quasi_static_prediction() {
    // The acceptance scenario of the fault-tolerance extension: a server
    // crashes mid-run, the dispatcher re-equilibrates and sheds load per
    // the overload policy, the server recovers and the shed demand is
    // re-admitted. The measured mean response time of served jobs must
    // agree with the analytic quasi-static mixture (throughput-weighted
    // per-phase equilibrium response times) within the replications'
    // confidence interval.
    use nash_lb::des::breakdown::RetryBackoff;
    use nash_lb::game::overload::OverloadPolicy;
    use nash_lb::sim::churn::{run_churn_replication, ChurnPhase};

    let model = SystemModel::new(vec![10.0, 20.0, 30.0], vec![16.0, 12.0]).unwrap();
    let phases = vec![
        ChurnPhase {
            duration: 500.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
        ChurnPhase {
            duration: 500.0,
            capacity: vec![10.0, 20.0, 0.0],
        },
        ChurnPhase {
            duration: 500.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
    ];
    let policy = OverloadPolicy::ShedProportional { headroom: 0.8 };
    let backoff = RetryBackoff::new(0.05, 2.0, 1.0, 5);

    let mut acc = nash_lb::stats::Welford::new();
    let mut predicted = 0.0;
    for seed in 0..5 {
        let r = run_churn_replication(&model, &phases, policy, backoff, 100.0, 1000 + seed, None)
            .unwrap();
        acc.push(r.measured_mean);
        predicted = r.predicted_mean;
        // The degraded phase dominates the mixture from above: its
        // prediction must exceed the nominal phases'.
        assert!(
            r.phase_predictions[1] > r.phase_predictions[0],
            "degraded phase should be slower: {:?}",
            r.phase_predictions
        );
        // Recovery re-converges (warm start) to the nominal equilibrium
        // up to the balancer's tolerance, not bit-exactly.
        assert!((r.phase_predictions[0] - r.phase_predictions[2]).abs() < 1e-5);
    }
    let mean = acc.mean();
    let half_width = 2.78 * (acc.sample_variance() / 5.0).sqrt(); // t_{0.975,4}
    let tol = (3.0 * half_width).max(0.08 * predicted);
    assert!(
        (mean - predicted).abs() < tol,
        "measured {mean:.5} vs predicted {predicted:.5} (CI half-width {half_width:.5})"
    );
}
