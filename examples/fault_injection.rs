//! Crash a user mid-run and watch the ring repair itself.
//!
//! The distributed NASH runtime detects a dead token holder via the
//! coordinator's round timeout, zeroes the failed user's load from the
//! board, splices the ring around it, regenerates the token under a new
//! epoch, and lets the survivors re-converge on the residual capacity.
//! A deterministic `FaultPlan` makes the whole scenario reproducible,
//! and the timeouts are virtual time, so the repair costs no waiting.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use nash_lb::distributed::fault::FaultPlan;
use nash_lb::distributed::runtime::DistributedNash;
use nash_lb::game::equilibrium::epsilon_nash_gap;
use nash_lb::game::model::SystemModel;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Table-1 system at 60% utilization: 16 heterogeneous
    // computers, 10 users.
    let model = SystemModel::table1_system(0.6)?;
    println!(
        "running {} users over {} computers (token ring)…",
        model.num_users(),
        model.num_computers()
    );

    // User 3 will crash while holding the token in round 5; user 7 will
    // silently drop the token in round 9. Both failures are repaired.
    let plan = FaultPlan::new().panic_at(3, 5).drop_token_at(7, 9);
    println!("fault plan: user 3 crashes at round 5, user 7 drops the token at round 9\n");

    let outcome = DistributedNash::new()
        .tolerance(1e-4)
        .fault_plan(plan)
        .round_timeout(Duration::from_millis(250))
        .run_deadline(Duration::from_secs(30))
        .run(&model)?;

    println!(
        "rounds: {}, best replies: {}, converged: {}",
        outcome.rounds(),
        outcome.total_updates(),
        outcome.converged()
    );
    println!("failed users:  {:?}", outcome.failed_users());
    println!("survivors:     {:?}", outcome.survivors());

    // The survivors' profile is an eps-Nash equilibrium of the *reduced*
    // system (the same computers, minus the failed users' demand).
    let surviving_rates: Vec<f64> = outcome
        .survivors()
        .iter()
        .map(|&j| model.user_rate(j))
        .collect();
    let reduced = SystemModel::new(model.computer_rates().to_vec(), surviving_rates)?;
    let gap = epsilon_nash_gap(&reduced, outcome.profile())?;
    println!("reduced-system Nash gap: {gap:.2e}");

    println!("\nper-survivor expected response times at the repaired equilibrium:");
    for (&j, d) in outcome.survivors().iter().zip(outcome.user_times()) {
        println!("  user {j}: {d:.4} s");
    }
    Ok(())
}
