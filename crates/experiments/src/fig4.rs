//! Figure 4 — expected response time and fairness index vs system
//! utilization (10%…90%) for NASH, GOS, IOS and PS on the Table-1 system.
//!
//! Shape to reproduce (paper §4.2.2): at low load all schemes except PS
//! coincide; at medium load NASH approaches GOS (≈7% above at 50%) and
//! clearly beats PS (≈30% at 50%); at high load IOS degrades to PS while
//! NASH stays near GOS. PS and IOS hold fairness 1 throughout; GOS
//! fairness decays toward ≈0.9; NASH stays close to 1.

use crate::config::{EPSILON, UTILIZATION_SWEEP};
use crate::report::{fmt, Table};
use lb_game::error::GameError;
use lb_game::metrics::evaluate_profile;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_game::schemes::{
    GlobalOptimalScheme, IndividualOptimalScheme, LoadBalancingScheme, NashScheme,
    ProportionalScheme,
};
use lb_game::StoppingRule;
use lb_sim::harness::simulate_profile_traced;
use lb_sim::parallel::ParallelRunner;
use lb_sim::scenario::{SimFidelity, SimulationConfig};
use lb_stats::ReplicationPlan;
use lb_telemetry::Collector;
use std::sync::Arc;

/// Simulation options for the figures that the paper measured by DES.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Jobs to generate per replication.
    pub target_jobs: u64,
    /// Number of replications (the paper uses 5).
    pub replications: u32,
    /// Per-job detail level: the full DES or the analytic M/M/1 fast
    /// path (closed-form sojourn sampling).
    pub fidelity: SimFidelity,
}

impl SimOptions {
    /// The paper's methodology: 5 replications of ~1M jobs.
    pub fn paper() -> Self {
        Self {
            target_jobs: 1_000_000,
            replications: 5,
            fidelity: SimFidelity::Full,
        }
    }

    /// A CI-friendly budget.
    pub fn quick() -> Self {
        Self {
            target_jobs: 60_000,
            replications: 3,
            fidelity: SimFidelity::Full,
        }
    }

    fn plan(&self) -> ReplicationPlan {
        ReplicationPlan {
            replications: self.replications,
            ..ReplicationPlan::paper()
        }
    }

    fn config(&self) -> SimulationConfig {
        SimulationConfig {
            target_jobs: self.target_jobs,
            fidelity: self.fidelity,
            ..SimulationConfig::paper()
        }
    }
}

/// One scheme's analytic (and optionally simulated) metrics on a model.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Scheme name as plotted in the paper.
    pub scheme: &'static str,
    /// Per-user expected response times (analytic).
    pub user_times: Vec<f64>,
    /// System expected response time (analytic).
    pub overall_time: f64,
    /// Jain fairness index (analytic).
    pub fairness: f64,
    /// Simulated system response time, when simulation was requested.
    pub simulated_time: Option<f64>,
    /// Simulated fairness index.
    pub simulated_fairness: Option<f64>,
}

/// Evaluates the four paper schemes on a model, optionally also by
/// simulation. Shared by Figures 4, 5 and 6.
///
/// With a `collector`, the NASH solver streams its `solver.*`
/// convergence events and any simulation runs stream `sim.*` events
/// through it. Collection never perturbs the numbers — results are
/// bit-identical with or without a collector.
///
/// # Errors
///
/// Propagates scheme and simulation failures.
pub fn evaluate_schemes(
    model: &SystemModel,
    sim: Option<SimOptions>,
    collector: Option<&Arc<dyn Collector>>,
) -> Result<Vec<SchemeRow>, GameError> {
    // Pin the paper's absolute-norm criterion so the figure CSVs stay
    // byte-identical to the published reference (the certified default
    // stops at slightly different profiles).
    let mut nash_solver = NashSolver::new(Initialization::Proportional)
        .stopping_rule(StoppingRule::AbsoluteNorm)
        .tolerance(EPSILON);
    if let Some(c) = collector.filter(|c| c.enabled()) {
        nash_solver = nash_solver.collector(Arc::clone(c));
    }
    let schemes: Vec<Box<dyn LoadBalancingScheme>> = vec![
        Box::new(NashScheme::with_solver(nash_solver)),
        Box::new(GlobalOptimalScheme::default()),
        Box::new(IndividualOptimalScheme),
        Box::new(ProportionalScheme),
    ];
    schemes
        .iter()
        .map(|scheme| {
            let profile = scheme.compute(model)?;
            let metrics = evaluate_profile(model, &profile)?;
            let (simulated_time, simulated_fairness) = match sim {
                Some(opts) => {
                    let s = simulate_profile_traced(
                        &ParallelRunner::from_env(),
                        model,
                        &profile,
                        &opts.plan(),
                        opts.config(),
                        collector,
                    )?;
                    (Some(s.system_summary.mean), Some(s.fairness))
                }
                None => (None, None),
            };
            Ok(SchemeRow {
                scheme: scheme.name(),
                user_times: metrics.user_times,
                overall_time: metrics.overall_time,
                fairness: metrics.fairness,
                simulated_time,
                simulated_fairness,
            })
        })
        .collect()
}

/// One utilization level of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// System utilization ρ.
    pub rho: f64,
    /// Metrics of the four schemes at this load.
    pub rows: Vec<SchemeRow>,
}

impl Fig4Point {
    /// Metrics row for the named scheme.
    ///
    /// # Panics
    ///
    /// Panics when the scheme is unknown (test helper).
    pub fn scheme(&self, name: &str) -> &SchemeRow {
        self.rows
            .iter()
            .find(|r| r.scheme == name)
            .unwrap_or_else(|| panic!("unknown scheme {name}"))
    }
}

/// Runs the Figure 4 sweep, optionally with simulation. The nine
/// utilization points are independent, so they fan out over
/// [`ParallelRunner::from_env`]; results come back in sweep order, so
/// the output is identical to the sequential loop.
///
/// With a `collector`, every point's solver and simulation events flow
/// through it, and after the sweep joins a `fig4.point {rho, nash, gos,
/// ios, ps}` summary event per point is emitted in sweep order. The
/// numbers are bit-identical with or without a collector.
///
/// # Errors
///
/// Propagates model/scheme/simulation failures.
pub fn run(
    sim: Option<SimOptions>,
    collector: Option<&Arc<dyn Collector>>,
) -> Result<Vec<Fig4Point>, GameError> {
    // The sweep's own fan-out stays untraced: its `runner.worker` events
    // would mix with those of the simulations nested inside it.
    let points = ParallelRunner::from_env().try_run(
        UTILIZATION_SWEEP.len(),
        |idx, _| {
            let rho = UTILIZATION_SWEEP[idx];
            let model = SystemModel::table1_system(rho)?;
            Ok::<_, GameError>(Fig4Point {
                rho,
                rows: evaluate_schemes(&model, sim, collector)?,
            })
        },
        None,
        None,
    )?;
    if let Some(c) = lb_telemetry::enabled(collector) {
        for point in &points {
            c.emit(
                "fig4.point",
                &[
                    ("rho", point.rho.into()),
                    ("nash", point.scheme("NASH").overall_time.into()),
                    ("gos", point.scheme("GOS").overall_time.into()),
                    ("ios", point.scheme("IOS").overall_time.into()),
                    ("ps", point.scheme("PS").overall_time.into()),
                ],
            );
        }
    }
    Ok(points)
}

/// Renders the response-time panel of Figure 4.
pub fn render_times(points: &[Fig4Point]) -> Table {
    let simulated = points
        .first()
        .map(|p| p.rows[0].simulated_time.is_some())
        .unwrap_or(false);
    let mut header = vec![
        "util %".to_string(),
        "NASH".to_string(),
        "GOS".to_string(),
        "IOS".to_string(),
        "PS".to_string(),
    ];
    if simulated {
        for s in ["NASH", "GOS", "IOS", "PS"] {
            header.push(format!("{s} (sim)"));
        }
    }
    let mut t = Table::new(
        "Figure 4a: expected response time (sec) vs system utilization".to_string(),
        header,
    );
    for p in points {
        let mut cells = vec![format!("{:.0}", p.rho * 100.0)];
        for name in ["NASH", "GOS", "IOS", "PS"] {
            cells.push(fmt(p.scheme(name).overall_time));
        }
        if simulated {
            for name in ["NASH", "GOS", "IOS", "PS"] {
                cells.push(fmt(p.scheme(name).simulated_time.unwrap_or(f64::NAN)));
            }
        }
        t.row(cells);
    }
    t
}

/// Renders the fairness panel of Figure 4.
pub fn render_fairness(points: &[Fig4Point]) -> Table {
    let mut t = Table::new(
        "Figure 4b: fairness index vs system utilization",
        vec!["util %", "NASH", "GOS", "IOS", "PS"],
    );
    for p in points {
        let mut cells = vec![format!("{:.0}", p.rho * 100.0)];
        for name in ["NASH", "GOS", "IOS", "PS"] {
            cells.push(fmt(p.scheme(name).fairness));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<Fig4Point> {
        run(None, None).unwrap()
    }

    #[test]
    fn gos_lower_bounds_everyone_everywhere() {
        for p in sweep() {
            let gos = p.scheme("GOS").overall_time;
            for name in ["NASH", "IOS", "PS"] {
                assert!(
                    p.scheme(name).overall_time >= gos - 1e-9,
                    "{name} beats GOS at rho {}",
                    p.rho
                );
            }
        }
    }

    #[test]
    fn low_load_all_but_ps_coincide() {
        // Paper: "at low loads all the schemes except PS yield almost the
        // same performance".
        let points = sweep();
        let p = &points[0]; // 10%
        let nash = p.scheme("NASH").overall_time;
        let gos = p.scheme("GOS").overall_time;
        let ios = p.scheme("IOS").overall_time;
        let ps = p.scheme("PS").overall_time;
        assert!((nash - gos).abs() / gos < 0.02);
        assert!((ios - gos).abs() / gos < 0.02);
        assert!(
            ps > 1.5 * gos,
            "PS ({ps}) should be far worse than GOS ({gos})"
        );
    }

    #[test]
    fn medium_load_nash_between_gos_and_ps() {
        // Paper at 50%: NASH ~30% better than PS, within ~7% of GOS.
        let points = sweep();
        let p = &points[4]; // 50%
        let nash = p.scheme("NASH").overall_time;
        let gos = p.scheme("GOS").overall_time;
        let ps = p.scheme("PS").overall_time;
        assert!(nash < 0.85 * ps, "NASH {nash} should clearly beat PS {ps}");
        assert!(nash < 1.15 * gos, "NASH {nash} should be near GOS {gos}");
    }

    #[test]
    fn high_load_ios_meets_ps() {
        // Paper: "at high loads IOS and PS yield the same expected
        // response time which is greater than that of GOS and NASH".
        let points = sweep();
        let p = points.last().unwrap(); // 90%
        let ios = p.scheme("IOS").overall_time;
        let ps = p.scheme("PS").overall_time;
        let nash = p.scheme("NASH").overall_time;
        let gos = p.scheme("GOS").overall_time;
        assert!((ios - ps).abs() / ps < 0.05, "IOS {ios} vs PS {ps}");
        assert!(nash < ios && gos < ios);
    }

    #[test]
    fn fairness_panel_matches_paper() {
        for p in sweep() {
            assert!((p.scheme("PS").fairness - 1.0).abs() < 1e-9);
            assert!((p.scheme("IOS").fairness - 1.0).abs() < 1e-9);
            assert!(
                p.scheme("NASH").fairness > 0.95,
                "NASH fairness at {}",
                p.rho
            );
            assert!(p.scheme("GOS").fairness <= 1.0 + 1e-12);
        }
        // GOS fairness degrades as load grows (paper: ~1 at low, ~0.92 high).
        let points = sweep();
        let lo = points[0].scheme("GOS").fairness;
        let hi = points.last().unwrap().scheme("GOS").fairness;
        assert!(hi < lo, "GOS fairness should decay: {lo} -> {hi}");
        assert!(hi < 0.99);
    }

    #[test]
    fn response_times_increase_with_load() {
        let points = sweep();
        for name in ["NASH", "GOS", "IOS", "PS"] {
            for w in points.windows(2) {
                assert!(
                    w[1].scheme(name).overall_time >= w[0].scheme(name).overall_time - 1e-9,
                    "{name} not monotone between rho {} and {}",
                    w[0].rho,
                    w[1].rho
                );
            }
        }
    }

    #[test]
    fn csv_artifacts_are_byte_identical_with_collection_enabled() {
        use lb_telemetry::JsonlCollector;
        let plain = run(None, None).unwrap();
        let collector: Arc<dyn Collector> =
            Arc::new(JsonlCollector::new(Box::new(std::io::sink())));
        let traced = run(None, Some(&collector)).unwrap();

        let dir = std::env::temp_dir().join(format!("lb_fig4_csv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, render) in [
            (
                "times",
                render_times as fn(&[Fig4Point]) -> crate::report::Table,
            ),
            ("fairness", render_fairness),
        ] {
            let a = dir.join(format!("plain_{name}.csv"));
            let b = dir.join(format!("traced_{name}.csv"));
            render(&plain).write_csv(&a).unwrap();
            render(&traced).write_csv(&b).unwrap();
            assert_eq!(
                std::fs::read(&a).unwrap(),
                std::fs::read(&b).unwrap(),
                "{name} CSV differs with collector on"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_produces_nine_rows() {
        let points = sweep();
        assert_eq!(render_times(&points).len(), 9);
        assert_eq!(render_fairness(&points).len(), 9);
    }
}
