//! Fault-injection tests for the token-ring runtime: crashes, token
//! loss, slow users and stale observations, all reproduced
//! deterministically via `FaultPlan`.
//!
//! The acceptance scenario: a user panics mid-round while holding the
//! token. The run must return within the configured deadline (no hang),
//! name the failed user, and the survivors' repaired ring must
//! re-converge to an ε-Nash profile of the *reduced* system.

use lb_distributed::fault::FaultPlan;
use lb_distributed::messages::Termination;
use lb_distributed::runtime::DistributedNash;
use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::strategy::{Strategy, StrategyProfile};
use lb_telemetry::MemoryCollector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Four users on four heterogeneous computers, comfortably underloaded
/// so the system stays feasible after any single user is removed.
fn model() -> SystemModel {
    SystemModel::new(vec![10.0, 20.0, 35.0, 50.0], vec![9.0, 14.0, 19.0, 24.0]).unwrap()
}

/// The same system with the given users removed — what the survivors
/// should be converging to after the repair.
fn reduced_model(full: &SystemModel, failed: &[usize]) -> SystemModel {
    let rates = full
        .user_rates()
        .iter()
        .enumerate()
        .filter(|(j, _)| !failed.contains(j))
        .map(|(_, &phi)| phi)
        .collect();
    SystemModel::new(full.computer_rates().to_vec(), rates).unwrap()
}

#[test]
fn panic_holding_token_is_repaired_within_deadline() {
    let full = model();
    let deadline = Duration::from_secs(10);
    let started = Instant::now();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_at(1, 3))
        .round_timeout(Duration::from_millis(200))
        .run_deadline(deadline)
        .run(&full)
        .unwrap();
    let elapsed = started.elapsed();

    // No hang: well inside the deadline (the only stall is the 200 ms
    // failure-detector patience).
    assert!(elapsed < deadline, "took {elapsed:?}");
    // The outcome names the failed user and the survivors.
    assert_eq!(out.failed_users(), &[1]);
    assert_eq!(out.survivors(), &[0, 2, 3]);
    assert!(out.converged());
    assert_eq!(out.user_times().len(), 3);

    // The survivors re-converged to an ε-Nash profile of the reduced
    // three-user system.
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn repair_is_deterministic_under_a_fixed_plan() {
    let full = model();
    let run = || {
        DistributedNash::new()
            .fault_plan(FaultPlan::new().panic_at(1, 3))
            .round_timeout(Duration::from_millis(150))
            .run(&full)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.converged());
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(a.failed_users(), b.failed_users());
    assert_eq!(a.survivors(), b.survivors());
    assert_eq!(a.trace(), b.trace());
    let d = a.profile().max_l1_distance(b.profile()).unwrap();
    assert_eq!(d, 0.0, "profiles differ by {d}");
    assert_eq!(a.user_times(), b.user_times());
}

#[test]
fn dropped_token_is_detected_and_regenerated() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().drop_token_at(2, 1))
        .round_timeout(Duration::from_millis(150))
        .run(&full)
        .unwrap();
    assert_eq!(out.failed_users(), &[2]);
    assert_eq!(out.survivors(), &[0, 1, 3]);
    assert!(out.converged());
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn death_after_forwarding_is_spliced_without_waiting_for_the_timeout() {
    let full = model();
    // The patience is deliberately huge (30 s of virtual time): the
    // predecessor's refused send must splice around the corpse instead
    // of waiting for the failure detector, so the collector sees a
    // splice and no token loss. The benign delay at the tail stays well
    // inside the patience and must not trip the detector either.
    let mem = Arc::new(MemoryCollector::default());
    let started = Instant::now();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_after_forward_at(1, 2).delay_at(
            3,
            2,
            Duration::from_millis(300),
        ))
        .round_timeout(Duration::from_secs(30))
        .collector(mem.clone())
        .run(&full)
        .unwrap();
    assert_eq!(mem.count("ring.token_lost"), 0, "the detector fired");
    assert!(mem.count("ring.splice") >= 1, "no splice was announced");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "splice fast-path did not trigger"
    );
    assert_eq!(out.failed_users(), &[1]);
    assert_eq!(out.survivors(), &[0, 2, 3]);
    assert!(out.converged());
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn user_slower_than_the_detector_is_excluded_like_a_crash() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().delay_at(1, 2, Duration::from_millis(900)))
        .round_timeout(Duration::from_millis(150))
        .run(&full)
        .unwrap();
    // The classic false positive of timeout-based detection: the slow
    // user is cut off and the rest proceed without it.
    assert_eq!(out.failed_users(), &[1]);
    assert_eq!(out.survivors(), &[0, 2, 3]);
    assert!(out.converged());
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn benign_delay_within_the_patience_is_tolerated() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().delay_at(1, 1, Duration::from_millis(40)))
        .round_timeout(Duration::from_secs(2))
        .run(&full)
        .unwrap();
    assert!(out.failed_users().is_empty());
    assert_eq!(out.survivors(), &[0, 1, 2, 3]);
    assert!(out.converged());
    let gap = epsilon_nash_gap(&full, out.profile()).unwrap();
    assert!(gap < 1e-3, "full-system Nash gap {gap}");
}

#[test]
fn stale_observations_do_not_break_convergence() {
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().stale_at(1, 1).stale_at(2, 3))
        .run(&full)
        .unwrap();
    assert!(out.failed_users().is_empty());
    assert!(out.converged());
    let gap = epsilon_nash_gap(&full, out.profile()).unwrap();
    assert!(gap < 1e-3, "full-system Nash gap {gap}");
}

#[test]
fn two_failures_in_different_rounds_are_both_repaired() {
    let full = SystemModel::new(
        vec![10.0, 20.0, 35.0, 50.0, 25.0],
        vec![8.0, 11.0, 14.0, 17.0, 20.0],
    )
    .unwrap();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_at(1, 2).panic_at(3, 5))
        .round_timeout(Duration::from_millis(150))
        .run(&full)
        .unwrap();
    assert_eq!(out.failed_users(), &[1, 3]);
    assert_eq!(out.survivors(), &[0, 2, 4]);
    assert!(out.converged());
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn run_deadline_surfaces_as_ring_timeout() {
    let full = model();
    // The detector's patience exceeds the whole-run deadline, so after
    // the injected crash the run must give up with RingTimeout rather
    // than repair.
    let started = Instant::now();
    let err = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_at(1, 1))
        .round_timeout(Duration::from_secs(30))
        .run_deadline(Duration::from_millis(300))
        .run(&full)
        .unwrap_err();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline did not fire"
    );
    match err {
        GameError::RingTimeout { reason, .. } => {
            assert!(reason.contains("deadline"), "unexpected reason: {reason}")
        }
        other => panic!("expected RingTimeout, got {other:?}"),
    }
}

#[test]
fn losing_every_user_is_an_error_not_a_hang() {
    let m = SystemModel::new(vec![10.0, 20.0], vec![12.0]).unwrap();
    let err = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_at(0, 1))
        .round_timeout(Duration::from_millis(100))
        .run(&m)
        .unwrap_err();
    match err {
        // The token timeout fires with nobody left to regenerate for;
        // the reason must name user 0.
        GameError::RingTimeout { reason, .. } => {
            assert!(
                reason.contains("no users survive") || reason.contains("failed users: [0]"),
                "unexpected reason: {reason}"
            )
        }
        other => panic!("expected RingTimeout, got {other:?}"),
    }
}

#[test]
fn two_panics_in_the_same_round_are_both_spliced() {
    // Adjacent users die in the *same* round: user 1 takes the token
    // down with it and user 2 is already doomed for the round the
    // repaired ring replays. The splice must survive back-to-back
    // repairs without double-counting either corpse.
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().panic_at(1, 3).panic_at(2, 3))
        .round_timeout(Duration::from_millis(200))
        .run(&full)
        .unwrap();
    assert_eq!(out.failed_users(), &[1, 2]);
    assert_eq!(out.survivors(), &[0, 3]);
    assert!(out.converged());
    assert_eq!(out.user_times().len(), 2);
    let reduced = reduced_model(&full, out.failed_users());
    let gap = epsilon_nash_gap(&reduced, out.profile()).unwrap();
    assert!(gap < 1e-2, "reduced-system Nash gap {gap}");
}

#[test]
fn panic_during_an_in_flight_capacity_event_is_repaired() {
    // A computer crash is queued for the end of the same round in which
    // a user panics while holding the token: the coordinator must both
    // apply the capacity event and repair the ring, in either order,
    // without losing one to the other.
    let full = model();
    let out = DistributedNash::new()
        .fault_plan(FaultPlan::new().crash_computer_at(3, 0).panic_at(1, 3))
        .round_timeout(Duration::from_millis(200))
        .run(&full)
        .unwrap();
    assert_eq!(out.failed_users(), &[1]);
    assert_eq!(out.survivors(), &[0, 2, 3]);
    assert!(out.converged());
    assert_eq!(out.final_capacity(), &[0.0, 20.0, 35.0, 50.0]);

    // The survivors equilibrate the residual game: dead computer's
    // column stripped (its flow is zero after re-convergence), dead
    // user's row gone.
    let degraded = SystemModel::new(
        vec![20.0, 35.0, 50.0],
        out.survivors()
            .iter()
            .map(|&j| full.user_rates()[j])
            .collect(),
    )
    .unwrap();
    let rows: Vec<Strategy> = out
        .profile()
        .strategies()
        .iter()
        .map(|s| Strategy::new(s.fractions()[1..].to_vec()).unwrap())
        .collect();
    let stripped = StrategyProfile::new(rows).unwrap();
    let gap = epsilon_nash_gap(&degraded, &stripped).unwrap();
    assert!(gap < 1e-2, "residual-game Nash gap {gap}");
}

#[test]
fn survivors_reach_a_consistent_outcome_across_reruns() {
    // The compound scenario (double same-round crash plus an in-flight
    // computer crash) must still be a deterministic function of the
    // plan: every rerun's survivors see byte-identical results.
    let full = model();
    let run = || {
        DistributedNash::new()
            .fault_plan(
                FaultPlan::new()
                    .crash_computer_at(3, 1)
                    .panic_at(1, 3)
                    .panic_at(2, 3),
            )
            .round_timeout(Duration::from_millis(200))
            .run(&full)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.failed_users(), b.failed_users());
    assert_eq!(a.survivors(), b.survivors());
    assert_eq!(a.final_capacity(), b.final_capacity());
    assert_eq!(a.user_times(), b.user_times());
    let d = a.profile().max_l1_distance(b.profile()).unwrap();
    assert_eq!(d, 0.0, "profiles differ by {d}");
    assert!(a.converged() && b.converged());
}

#[test]
fn faultless_runs_are_unaffected_by_the_machinery() {
    let full = model();
    let plain = DistributedNash::new().run(&full).unwrap();
    let with_empty_plan = DistributedNash::new()
        .fault_plan(FaultPlan::new())
        .round_timeout(Duration::from_secs(5))
        .run_deadline(Duration::from_secs(60))
        .run(&full)
        .unwrap();
    assert_eq!(plain.rounds(), with_empty_plan.rounds());
    assert_eq!(plain.trace(), with_empty_plan.trace());
    let d = plain
        .profile()
        .max_l1_distance(with_empty_plan.profile())
        .unwrap();
    assert_eq!(d, 0.0);
    assert_eq!(plain.termination(), Termination::Converged);
    assert_eq!(with_empty_plan.termination(), Termination::Converged);
}
