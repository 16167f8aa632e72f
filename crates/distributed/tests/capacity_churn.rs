//! Capacity-churn tests for the token-ring runtime: computers crash,
//! degrade and recover mid-run, all reproduced deterministically via
//! `FaultPlan` capacity events.
//!
//! The acceptance scenario: a computer crash makes the nominal demand
//! infeasible mid-run. The run must terminate within the configured
//! `run_deadline` (no hang, no panic), shed load according to the
//! configured `OverloadPolicy`, and the survivors must converge to an
//! ε-Nash equilibrium of the residual-capacity game played with the
//! *admitted* rates.

use lb_distributed::fault::FaultPlan;
use lb_distributed::runtime::{DistributedNash, DistributedOutcome};
use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::overload::OverloadPolicy;
use lb_game::strategy::{Strategy, StrategyProfile};
use std::time::{Duration, Instant};

/// Three computers, two users. Σφ = 38 against Σμ = 65: comfortably
/// feasible nominally, infeasible once the big computer (30 jobs/s) is
/// gone (38 > 35 − 15 = 35... crash of computer 0 leaves 35; crashing
/// computers 0 *and* 2 leaves 20).
fn model() -> SystemModel {
    SystemModel::new(vec![30.0, 20.0, 15.0], vec![20.0, 18.0]).unwrap()
}

/// The residual-capacity game the survivors should equilibrate: the
/// still-alive computers at their current rates, the users at their
/// *admitted* rates. The crashed computers' (all-zero) profile columns
/// are stripped to match.
fn residual_game(out: &DistributedOutcome, dead: &[usize]) -> (SystemModel, StrategyProfile) {
    let rates: Vec<f64> = out
        .final_capacity()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .map(|(_, &mu)| mu)
        .collect();
    let admitted: Vec<f64> = out
        .survivors()
        .iter()
        .map(|&j| out.admitted_rates()[j])
        .collect();
    let reduced = SystemModel::new(rates, admitted).unwrap();
    let rows: Vec<Strategy> = out
        .profile()
        .strategies()
        .iter()
        .map(|s| {
            let kept: Vec<f64> = s
                .fractions()
                .iter()
                .enumerate()
                .filter(|(i, _)| !dead.contains(i))
                .map(|(_, &x)| x)
                .collect();
            Strategy::new(kept).unwrap()
        })
        .collect();
    (reduced, StrategyProfile::new(rows).unwrap())
}

#[test]
fn infeasible_crash_sheds_proportionally_and_reconverges() {
    let full = model();
    let deadline = Duration::from_secs(20);
    let started = Instant::now();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(1, 0))
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .run_deadline(deadline)
        .run(&full)
        .unwrap();
    assert!(started.elapsed() < deadline, "took {:?}", started.elapsed());
    assert!(out.converged());
    assert!(out.failed_users().is_empty());
    assert_eq!(out.degraded_computers(), &[0]);
    assert_eq!(out.final_capacity(), &[0.0, 20.0, 15.0]);

    // Nominal demand 38 against residual capacity 35: the policy admits
    // 0.9 · 35 = 31.5, scaling both users by 31.5/38.
    let scale = 31.5 / 38.0;
    let admitted = out.admitted_rates();
    assert!((admitted[0] - 20.0 * scale).abs() < 1e-9, "{admitted:?}");
    assert!((admitted[1] - 18.0 * scale).abs() < 1e-9, "{admitted:?}");
    let shed = out.shed_rates();
    assert!((shed[0] - 20.0 * (1.0 - scale)).abs() < 1e-9, "{shed:?}");
    assert!((shed[1] - 18.0 * (1.0 - scale)).abs() < 1e-9, "{shed:?}");

    // One admission decision, logged with the post-crash capacity.
    assert_eq!(out.shed_trajectory().len(), 1);
    let rec = &out.shed_trajectory()[0];
    assert_eq!(rec.round, 1);
    assert_eq!(rec.capacity, vec![0.0, 20.0, 15.0]);
    assert!((rec.admitted.iter().sum::<f64>() - 31.5).abs() < 1e-9);
    assert!((rec.shed.iter().sum::<f64>() - (38.0 - 31.5)).abs() < 1e-9);

    // No flow is routed to the corpse, and the survivors sit at an
    // ε-Nash equilibrium of the residual-capacity game on the admitted
    // rates.
    for s in out.profile().strategies() {
        assert_eq!(s.fraction(0), 0.0, "flow routed to a crashed computer");
    }
    let (reduced, stripped) = residual_game(&out, &[0]);
    let gap = epsilon_nash_gap(&reduced, &stripped).unwrap();
    assert!(gap < 1e-2, "residual-game Nash gap {gap}");
}

#[test]
fn max_min_shedding_protects_the_small_user() {
    // Crash the big computer so only 5 jobs/s survive against nominal
    // demand 20. Max-min with headroom 0.8 admits 4 jobs/s under a
    // common cap c solving min(2,c) + min(18,c) = 4, i.e. c = 2: the
    // small user keeps everything it asked for, the big one is capped.
    let full = SystemModel::new(vec![30.0, 5.0], vec![2.0, 18.0]).unwrap();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(1, 0))
        .overload_policy(OverloadPolicy::ShedMaxMin { headroom: 0.8 })
        .run_deadline(Duration::from_secs(20))
        .run(&full)
        .unwrap();
    assert!(out.converged());
    let admitted = out.admitted_rates();
    assert!((admitted[0] - 2.0).abs() < 1e-9, "{admitted:?}");
    assert!((admitted[1] - 2.0).abs() < 1e-9, "{admitted:?}");
    assert!(out.shed_rates()[0].abs() < 1e-9);
    assert!((out.shed_rates()[1] - 16.0).abs() < 1e-9);
}

#[test]
fn reject_policy_aborts_with_an_actionable_overload_error() {
    let full = model();
    let deadline = Duration::from_secs(20);
    let started = Instant::now();
    let err = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(1, 0))
        .overload_policy(OverloadPolicy::Reject)
        .run_deadline(deadline)
        .run(&full)
        .unwrap_err();
    assert!(started.elapsed() < deadline, "took {:?}", started.elapsed());
    match err {
        GameError::Overloaded {
            total_arrival_rate,
            total_capacity,
            min_shed,
            ..
        } => {
            assert!((total_arrival_rate - 38.0).abs() < 1e-9);
            assert!((total_capacity - 35.0).abs() < 1e-9);
            assert!((min_shed - 3.0).abs() < 1e-9);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
}

#[test]
fn feasible_crash_needs_no_shedding() {
    // Σφ = 18 still fits after computer 2 (15 jobs/s) dies: 18 < 0.9·50.
    let full = SystemModel::new(vec![30.0, 20.0, 15.0], vec![10.0, 8.0]).unwrap();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(1, 2))
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .run(&full)
        .unwrap();
    assert!(out.converged());
    assert_eq!(out.degraded_computers(), &[2]);
    assert_eq!(out.admitted_rates(), full.user_rates());
    assert!(out.shed_rates().iter().all(|&x| x == 0.0));
    assert_eq!(out.shed_trajectory().len(), 1);
    assert!(out.shed_trajectory()[0].shed.iter().sum::<f64>() == 0.0);
    let (reduced, stripped) = residual_game(&out, &[2]);
    let gap = epsilon_nash_gap(&reduced, &stripped).unwrap();
    assert!(gap < 1e-2, "residual-game Nash gap {gap}");
}

#[test]
fn degraded_computer_keeps_serving_at_the_reduced_rate() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().degrade_computer_at(1, 0, 12.0))
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .run(&full)
        .unwrap();
    assert!(out.converged());
    assert_eq!(out.degraded_computers(), &[0]);
    assert_eq!(out.final_capacity(), &[12.0, 20.0, 15.0]);
    // 38 < 0.9 · 47: feasible, nothing shed.
    assert!(out.shed_rates().iter().all(|&x| x == 0.0));
    // Equilibrium of the degraded game, all three computers live.
    let degraded_game = SystemModel::new(vec![12.0, 20.0, 15.0], vec![20.0, 18.0]).unwrap();
    let gap = epsilon_nash_gap(&degraded_game, out.profile()).unwrap();
    assert!(gap < 1e-2, "degraded-game Nash gap {gap}");
}

#[test]
fn recovery_readmits_previously_shed_load() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(
            FaultPlan::new()
                .crash_computer_at(1, 0)
                .recover_computer_at(3, 0),
        )
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .tolerance(1e-6)
        .run(&full)
        .unwrap();
    assert!(out.converged());
    // Two admission decisions: the crash sheds, the recovery re-admits.
    assert_eq!(out.shed_trajectory().len(), 2);
    assert!(out.shed_trajectory()[0].shed.iter().sum::<f64>() > 0.0);
    assert_eq!(out.shed_trajectory()[1].shed.iter().sum::<f64>(), 0.0);
    // Final state: full capacity back, everything admitted again.
    assert!(out.degraded_computers().is_empty());
    assert_eq!(out.final_capacity(), full.computer_rates());
    assert_eq!(out.admitted_rates(), full.user_rates());
    assert!(out.shed_rates().iter().all(|&x| x == 0.0));
    // And the equilibrium is the *nominal* game's again.
    let gap = epsilon_nash_gap(&full, out.profile()).unwrap();
    assert!(gap < 1e-2, "nominal-game Nash gap {gap}");
}

#[test]
fn shed_trajectory_replays_byte_identically() {
    let full = model();
    let run = || {
        DistributedNash::new()
            .fault_plan(
                FaultPlan::new()
                    .crash_computer_at(1, 0)
                    .degrade_computer_at(3, 2, 10.0)
                    .recover_computer_at(5, 0),
            )
            .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
            .tolerance(1e-6)
            .run(&full)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.converged());
    // The trajectory is a pure function of (plan, nominal rates,
    // policy): every record — capacities, admitted and shed vectors —
    // must match bit for bit across runs, host timing notwithstanding.
    assert_eq!(a.shed_trajectory(), b.shed_trajectory());
    assert_eq!(a.admitted_rates(), b.admitted_rates());
    assert_eq!(a.shed_rates(), b.shed_rates());
    assert_eq!(a.final_capacity(), b.final_capacity());
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(a.trace(), b.trace());
    let d = a.profile().max_l1_distance(b.profile()).unwrap();
    assert_eq!(d, 0.0, "profiles differ by {d}");
}

#[test]
fn churn_composes_with_user_failure() {
    // A computer crash (shedding load) followed by a user crash: the
    // survivor re-converges alone on the residual capacity and the dead
    // user's admitted/shed rates are zeroed in the outcome.
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(1, 0).panic_at(0, 4))
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .round_timeout(Duration::from_millis(200))
        .tolerance(1e-6)
        .run(&full)
        .unwrap();
    assert!(out.converged());
    assert_eq!(out.failed_users(), &[0]);
    assert_eq!(out.survivors(), &[1]);
    assert_eq!(out.admitted_rates()[0], 0.0);
    assert_eq!(out.shed_rates()[0], 0.0);
    let (reduced, stripped) = residual_game(&out, &[0]);
    let gap = epsilon_nash_gap(&reduced, &stripped).unwrap();
    assert!(gap < 1e-2, "residual-game Nash gap {gap}");
}

#[test]
fn churn_free_runs_log_no_shed_records() {
    let full = model();
    let out = DistributedNash::new()
        .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
        .run(&full)
        .unwrap();
    assert!(out.converged());
    assert!(out.shed_trajectory().is_empty());
    assert!(out.degraded_computers().is_empty());
    assert_eq!(out.admitted_rates(), full.user_rates());
    assert!(out.shed_rates().iter().all(|&x| x == 0.0));
    assert_eq!(out.final_capacity(), full.computer_rates());
}

/// Long-haul churn: many crash/degrade/recover cycles in one run,
/// replayed twice and required to be byte-identical.
#[test]
fn repeated_churn_cycles_stay_deterministic() {
    let full = model();
    let mut plan = FaultPlan::new();
    // Ten full cycles: crash -> degrade survivor -> recover both.
    for cycle in 0..10u32 {
        let base = 1 + cycle * 6;
        plan = plan
            .crash_computer_at(base, 0)
            .degrade_computer_at(base + 2, 1, 12.0)
            .recover_computer_at(base + 4, 0)
            .recover_computer_at(base + 5, 1);
    }
    let run = || {
        DistributedNash::new()
            .tolerance(1e-6)
            .max_rounds(400)
            .fault_plan(plan.clone())
            .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
            .run_deadline(Duration::from_secs(120))
            .run(&model())
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.shed_trajectory(), b.shed_trajectory());
    assert_eq!(a.rounds(), b.rounds());
    // Bitwise comparison: the transient rounds right after a crash can
    // carry inf/NaN norms (stale flows at a dead computer), and
    // NaN != NaN would fail a value comparison even on identical runs.
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(a.trace()), bits(b.trace()));
    // 4 capacity-event rounds per cycle -> 40 shed records, and the
    // final state is fully recovered and converged on the nominal
    // equilibrium.
    assert_eq!(a.shed_trajectory().len(), 40);
    assert!(a.converged());
    assert_eq!(a.final_capacity(), full.computer_rates());
    assert_eq!(a.shed_rates(), &[0.0, 0.0]);
    let gap = epsilon_nash_gap(&full, a.profile()).unwrap();
    assert!(gap < 1e-2, "nominal-game gap {gap}");
}
