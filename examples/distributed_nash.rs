//! The NASH algorithm as a distributed protocol: every user is a node of
//! a deterministic virtual network, the token travels between them as a
//! message, and users observe each other only through the computers'
//! load — exactly the deployment story of the paper's §3.
//!
//! ```text
//! cargo run --release --example distributed_nash
//! ```

use nash_lb::distributed::runtime::{DistributedNash, RingInit};
use nash_lb::distributed::ObservationModel;
use nash_lb::game::equilibrium::epsilon_nash_gap;
use nash_lb::game::model::SystemModel;
use nash_lb::game::StoppingRule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Table-1 system at 60% utilization: 16 heterogeneous
    // computers, 10 users.
    let model = SystemModel::table1_system(0.6)?;
    println!(
        "running {} users over {} computers (token ring)…\n",
        model.num_users(),
        model.num_computers()
    );

    for (label, init) in [
        ("NASH_0", RingInit::Zero),
        ("NASH_P", RingInit::Proportional),
    ] {
        let outcome = DistributedNash::new()
            .init(init)
            .tolerance(1e-4)
            .run(&model)?;
        let gap = epsilon_nash_gap(&model, outcome.profile())?;
        println!(
            "{label}: {} rounds, {} best replies computed, Nash gap {:.2e}",
            outcome.rounds(),
            outcome.total_updates(),
            gap
        );
    }

    // With noisy run-queue observation (the paper's "statistical
    // estimation" remark), the ring still settles near the equilibrium.
    // A regret certificate computed from noisy observations proves
    // nothing (and noise keeps some user forever convinced it can
    // improve, so the quiescent accepting round never happens) — the
    // norm rule is the right stopping criterion here.
    let noisy = DistributedNash::new()
        .observation(ObservationModel::Noisy {
            rel_std: 0.03,
            seed: 2002,
        })
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(5e-3)
        .max_rounds(2000)
        .run(&model)?;
    let gap = epsilon_nash_gap(&model, noisy.profile())?;
    println!(
        "noisy observation (3% error): {} rounds, Nash gap {:.2e}",
        noisy.rounds(),
        gap
    );
    println!("\nper-user expected response times at equilibrium:");
    for (j, d) in noisy.user_times().iter().enumerate() {
        println!("  user {j}: {d:.4} s");
    }
    Ok(())
}
