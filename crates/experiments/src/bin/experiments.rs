//! CLI reproducing the paper's tables and figures (and the extension
//! experiments). See `lb_experiments::cli` for the accepted arguments.
//!
//! Analytic results print immediately; `--simulate` adds the paper's
//! discrete-event methodology (5 replications × 1M jobs by default).
//! Tables are printed and also written as CSV under `--out`
//! (default `results/`).

use lb_experiments::cli::{self, Options};
use lb_experiments::fig4::SimOptions;
use lb_experiments::report::Table;
use lb_experiments::{
    analyze, beyond, config, diff, fig2, fig3, fig4, fig5, fig6, table1, trace, watch,
};
use lb_sim::scenario::SimFidelity;
use std::path::Path;
use std::process::ExitCode;

fn emit(table: &Table, out: &Path, name: &str) -> Result<(), String> {
    println!("{}", table.render());
    let path = out.join(format!("{name}.csv"));
    table
        .write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("[csv] {}\n", path.display());
    Ok(())
}

fn run(opts: &Options) -> Result<(), String> {
    let sim = if opts.simulate {
        Some(SimOptions {
            target_jobs: opts.jobs,
            replications: opts.replications,
            fidelity: if opts.analytic {
                SimFidelity::Analytic
            } else {
                SimFidelity::Full
            },
        })
    } else {
        None
    };
    for cmd in cli::expand_command(&opts.command) {
        match cmd {
            "table1" => emit(&table1::render(), &opts.out, "table1")?,
            "fig2" => {
                let r = fig2::run().map_err(|e| e.to_string())?;
                println!(
                    "NASH_0 converged in {} iterations, NASH_P in {} (epsilon = {:.0e})",
                    r.iterations_nash0(),
                    r.iterations_nashp(),
                    config::EPSILON
                );
                let (d0, dp) = r.diagnostics();
                println!(
                    "tail contraction rates: NASH_0 {:.3}, NASH_P {:.3}; initial norms {:.3} vs {:.3}",
                    d0.tail_rate.unwrap_or(f64::NAN),
                    dp.tail_rate.unwrap_or(f64::NAN),
                    d0.initial_norm,
                    dp.initial_norm
                );
                emit(&fig2::render(&r), &opts.out, "fig2")?;
            }
            "fig3" => {
                let points = fig3::run().map_err(|e| e.to_string())?;
                emit(&fig3::render(&points), &opts.out, "fig3")?;
            }
            "fig4" => {
                let points = fig4::run(sim, None).map_err(|e| e.to_string())?;
                emit(&fig4::render_times(&points), &opts.out, "fig4_times")?;
                emit(&fig4::render_fairness(&points), &opts.out, "fig4_fairness")?;
            }
            "fig5" => {
                let r = fig5::run(sim).map_err(|e| e.to_string())?;
                emit(&fig5::render(&r), &opts.out, "fig5")?;
            }
            "fig6" => {
                let points = fig6::run(sim).map_err(|e| e.to_string())?;
                emit(&fig6::render_times(&points), &opts.out, "fig6_times")?;
                emit(&fig6::render_fairness(&points), &opts.out, "fig6_fairness")?;
            }
            "ext-service" => {
                let rows =
                    beyond::service_robustness(opts.jobs.min(300_000), opts.replications.min(3))
                        .map_err(|e| e.to_string())?;
                emit(&beyond::render_robustness(&rows), &opts.out, "ext_service")?;
            }
            "ext-stackelberg" => {
                let (points, nash, gos) = beyond::stackelberg_sweep().map_err(|e| e.to_string())?;
                emit(
                    &beyond::render_stackelberg(&points, nash, gos),
                    &opts.out,
                    "ext_stackelberg",
                )?;
            }
            "ext-dynamics" => {
                let steps = beyond::warm_start_dynamics().map_err(|e| e.to_string())?;
                emit(&beyond::render_dynamics(&steps), &opts.out, "ext_dynamics")?;
            }
            "ext-noise" => {
                let points = beyond::observation_noise().map_err(|e| e.to_string())?;
                emit(&beyond::render_noise(&points), &opts.out, "ext_noise")?;
            }
            "ext-multicore" => {
                let rows =
                    beyond::multicore_pooling(opts.jobs.min(400_000)).map_err(|e| e.to_string())?;
                emit(&beyond::render_pooling(&rows), &opts.out, "ext_multicore")?;
            }
            "ext-poa" => {
                let points = beyond::poa_vs_utilization().map_err(|e| e.to_string())?;
                emit(&beyond::render_poa(&points), &opts.out, "ext_poa")?;
            }
            "ext-burstiness" => {
                let rows =
                    beyond::arrival_burstiness(opts.jobs.min(300_000), opts.replications.min(3))
                        .map_err(|e| e.to_string())?;
                emit(
                    &beyond::render_burstiness(&rows),
                    &opts.out,
                    "ext_burstiness",
                )?;
            }
            "ext-policies" => {
                let rows =
                    beyond::dynamic_policies(opts.jobs.min(300_000)).map_err(|e| e.to_string())?;
                emit(&beyond::render_policies(&rows), &opts.out, "ext_policies")?;
            }
            "ext-tails" => {
                let rows = beyond::tail_latency(opts.jobs.min(300_000), opts.replications.min(3))
                    .map_err(|e| e.to_string())?;
                emit(&beyond::render_tails(&rows), &opts.out, "ext_tails")?;
            }
            "ext-churn" => {
                let rows =
                    beyond::server_churn(opts.replications.min(5)).map_err(|e| e.to_string())?;
                emit(&beyond::render_churn(&rows), &opts.out, "ext_churn")?;
            }
            "ext-anytime" => {
                let points = beyond::anytime_frontier().map_err(|e| e.to_string())?;
                emit(&beyond::render_anytime(&points), &opts.out, "ext_anytime")?;
            }
            "ext-async" => {
                let rows = beyond::async_chaos().map_err(|e| e.to_string())?;
                emit(&beyond::render_async(&rows), &opts.out, "ext_async")?;
            }
            "analyze" => {
                let report = analyze::run(opts.input.as_deref(), &opts.out)?;
                for table in &report.tables {
                    println!("{}", table.render());
                }
                println!("{}", report.timeline);
                println!("[analyze] {}", report.log_path.display());
                println!("[chrome]  {}", report.chrome_path.display());
                println!("[folded]  {}", report.folded_path.display());
                println!("[csv]     {}", report.csv_path.display());
            }
            "trace" => {
                let report = trace::run(&opts.out, opts.verbose)?;
                for table in &report.tables {
                    println!("{}", table.render());
                }
                println!(
                    "[trace] {} ({} events, schema v{})",
                    report.log_path.display(),
                    report.log.events.len(),
                    report.log.version
                );
                println!("[metrics] {}", report.metrics_json_path.display());
                println!("[metrics] {}", report.metrics_prom_path.display());
            }
            "diff" => {
                let (Some(a), Some(b)) = (opts.input.as_deref(), opts.input2.as_deref()) else {
                    return Err(format!("diff needs two inputs\n{}", cli::usage()));
                };
                let report = diff::run(a, b)?;
                for table in &report.tables {
                    // Delta rows only: identical runs print no tables.
                    if !table.is_empty() {
                        println!("{}", table.render());
                    }
                }
                println!("[diff] A {}", report.log_a.display());
                println!("[diff] B {}", report.log_b.display());
                println!("[diff] {}", report.verdict.to_json());
            }
            "watch" => {
                let report = watch::run(&opts.out, opts.port, opts.iterations, opts.linger_ms)?;
                println!("{}", report.table.render());
                println!(
                    "[watch] {} episodes, {} alert fire(s), {} clear(s)",
                    report.iterations, report.fires, report.clears
                );
                println!("[watch] served http://{}", report.addr);
                println!("[watch] {}", report.log_path.display());
            }
            other => return Err(format!("unknown command `{other}`\n{}", cli::usage())),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let result = cli::parse(std::env::args().skip(1)).and_then(|opts| run(&opts));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
