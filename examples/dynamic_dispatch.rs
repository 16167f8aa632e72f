//! Static game-theoretic profiles vs dynamic state-aware dispatch — what
//! is per-arrival queue information worth?
//!
//! ```text
//! cargo run --release --example dynamic_dispatch
//! ```

use nash_lb::game::model::SystemModel;
use nash_lb::game::nash::nash_equilibrium;
use nash_lb::sim::policies::{run_policy_replication, DispatchPolicy};
use nash_lb::sim::scenario::SimulationConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimulationConfig {
        target_jobs: 300_000,
        ..SimulationConfig::paper()
    };

    for (label, model) in [
        (
            "Table-1 system, rho = 60%",
            SystemModel::table1_system(0.6)?,
        ),
        (
            "skewness 20 (2 fast + 14 slow), rho = 60%",
            SystemModel::skewed_system(20.0, 0.6)?,
        ),
    ] {
        let nash = nash_equilibrium(&model)?;
        println!("{label}");
        println!("{:<44} {:>12}", "policy", "mean D (s)");
        let policies = vec![
            (
                "static Nash profile (the paper)",
                DispatchPolicy::Static(nash.profile().clone()),
            ),
            (
                "weighted round robin over Nash flows",
                DispatchPolicy::WeightedRoundRobin(nash.profile().clone()),
            ),
            (
                "power of 2 choices (rate-weighted)",
                DispatchPolicy::PowerOfD(2),
            ),
            (
                "join shortest queue (speed-blind)",
                DispatchPolicy::JoinShortestQueue,
            ),
            (
                "shortest expected delay",
                DispatchPolicy::ShortestExpectedDelay,
            ),
        ];
        for (name, policy) in policies {
            let r = run_policy_replication(&model, &policy, cfg, 2002, |_, _| {})?;
            println!("{name:<44} {:>12.4}", r.system_mean);
        }
        println!();
    }
    println!(
        "queue state at dispatch time is worth 2-5x over the best static rule —\n\
         but note JSQ on the skewed system: queue length without speed\n\
         information misroutes to slow machines and loses even to the static\n\
         Nash profile. The game-theoretic structure still matters when the\n\
         online signal is imperfect."
    );
    Ok(())
}
