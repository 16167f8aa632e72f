//! Validate the game-theoretic predictions against the discrete-event
//! simulator: compute the Nash profile analytically, then actually run
//! the distributed system (Poisson users, FCFS M/M/1 computers) and
//! compare measured response times with the formulas.
//!
//! ```text
//! cargo run --release --example simulation_validation
//! ```

use nash_lb::game::metrics::evaluate_profile;
use nash_lb::game::model::SystemModel;
use nash_lb::game::nash::nash_equilibrium;
use nash_lb::sim::harness::simulate_profile;
use nash_lb::sim::scenario::SimulationConfig;
use nash_lb::sim::validate::compare;
use nash_lb::stats::ReplicationPlan;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = SystemModel::table1_system(0.6)?;
    let nash = nash_equilibrium(&model)?;
    let analytic = evaluate_profile(&model, nash.profile())?;

    // The paper's methodology: five replications, different streams,
    // std error under 5% at 95% confidence.
    let plan = ReplicationPlan::paper();
    let config = SimulationConfig {
        target_jobs: 400_000,
        ..SimulationConfig::paper()
    };
    println!(
        "simulating {} jobs x {} replications (this exercises the DES engine)…\n",
        config.target_jobs, plan.replications
    );
    let simulated = simulate_profile(&model, nash.profile(), &plan, config)?;
    let report = compare(&model, nash.profile(), &simulated)?;

    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>8}",
        "user", "analytic D", "simulated D", "95% CI ±", "rel err"
    );
    for j in 0..model.num_users() {
        let s = &simulated.user_summaries[j];
        println!(
            "{:<6} {:>12.5} {:>12.5} {:>12.5} {:>7.2}%",
            j,
            analytic.user_times[j],
            s.mean,
            s.half_width,
            report.user_relative_errors[j] * 100.0
        );
    }
    println!(
        "\nsystem mean: analytic {:.5} s, simulated {:.5} s (rel err {:.2}%)",
        analytic.overall_time,
        simulated.system_summary.mean,
        report.system_relative_error * 100.0
    );
    println!(
        "fairness: analytic {:.4}, simulated {:.4}",
        analytic.fairness, simulated.fairness
    );
    println!(
        "precision gate (rel. std error < 5%): {} (worst {:.2}%)",
        if simulated.precise { "PASS" } else { "FAIL" },
        simulated.worst_relative_error * 100.0
    );
    if !report.within(0.10) {
        return Err(format!(
            "simulation deviates from theory by more than 10% (max {:.2}%)",
            report.max_user_relative_error * 100.0
        )
        .into());
    }

    // One extra replication streamed into a histogram: the sojourn-time
    // distribution at a glance.
    use nash_lb::sim::scenario::run_replication;
    use nash_lb::stats::histogram::Histogram;
    let mut hist =
        Histogram::new(0.0, 4.0 * analytic.overall_time, 16).expect("valid histogram bounds");
    run_replication(&model, nash.profile(), config, 99, None, None, |_, resp| {
        hist.record(resp);
    })?;
    println!("\nsojourn-time distribution (one replication):");
    print!("{}", hist.ascii(48));
    println!(
        "(above range: {} of {} jobs)",
        hist.overflow(),
        hist.count()
    );
    println!("\nsimulation confirms the M/M/1 game model ✔");
    Ok(())
}
