//! Figure 6 — effect of heterogeneity: expected response time and
//! fairness vs speed skewness (2 fast + 14 slow computers, ρ = 60%).
//!
//! Shape to reproduce: with growing skewness GOS and NASH converge to the
//! same response time ("in highly heterogeneous systems the NASH scheme
//! is very effective"); PS stays poor (it overloads the slowest
//! computers); IOS approaches NASH/GOS at high skewness but lags at low
//! skewness.

use crate::config::{MEDIUM_LOAD, SKEW_SWEEP};
use crate::fig4::{evaluate_schemes, SchemeRow, SimOptions};
use crate::report::{fmt, Table};
use lb_game::error::GameError;
use lb_game::model::SystemModel;

/// One skewness level of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Speed skewness (fast rate / slow rate).
    pub skew: f64,
    /// Metrics of the four schemes.
    pub rows: Vec<SchemeRow>,
}

impl Fig6Point {
    /// Metrics row for a named scheme.
    ///
    /// # Panics
    ///
    /// Panics for an unknown name (test helper).
    pub fn scheme(&self, name: &str) -> &SchemeRow {
        self.rows
            .iter()
            .find(|r| r.scheme == name)
            .unwrap_or_else(|| panic!("unknown scheme {name}"))
    }
}

/// Runs the Figure 6 sweep at the paper's 60% utilization.
///
/// # Errors
///
/// Propagates model/scheme/simulation failures.
pub fn run(sim: Option<SimOptions>) -> Result<Vec<Fig6Point>, GameError> {
    // Independent skew points fan out like the Figure 4 sweep; index-order
    // merge keeps the output identical to the sequential loop.
    lb_sim::parallel::ParallelRunner::from_env().try_run(
        SKEW_SWEEP.len(),
        |idx, _| {
            let skew = SKEW_SWEEP[idx];
            let model = SystemModel::skewed_system(skew, MEDIUM_LOAD)?;
            Ok(Fig6Point {
                skew,
                rows: evaluate_schemes(&model, sim, None)?,
            })
        },
        None,
        None,
    )
}

/// Renders the response-time panel (simulated columns appended when the
/// sweep was run with simulation).
pub fn render_times(points: &[Fig6Point]) -> Table {
    let simulated = points
        .first()
        .map(|p| p.rows.iter().all(|r| r.simulated_time.is_some()))
        .unwrap_or(false);
    let mut header: Vec<String> = ["skew", "NASH", "GOS", "IOS", "PS"]
        .iter()
        .map(ToString::to_string)
        .collect();
    if simulated {
        for s in ["NASH", "GOS", "IOS", "PS"] {
            header.push(format!("{s} (sim)"));
        }
    }
    let mut t = Table::new(
        "Figure 6a: expected response time (sec) vs speed skewness (rho=60%)".to_string(),
        header,
    );
    for p in points {
        let mut cells = vec![format!("{:.0}", p.skew)];
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

/// Renders the fairness panel.
pub fn render_fairness(points: &[Fig6Point]) -> Table {
    let mut t = Table::new(
        "Figure 6b: fairness index vs speed skewness (rho=60%)",
        vec!["skew", "NASH", "GOS", "IOS", "PS"],
    );
    for p in points {
        t.row(vec![
            format!("{:.0}", p.skew),
            fmt(p.scheme("NASH").fairness),
            fmt(p.scheme("GOS").fairness),
            fmt(p.scheme("IOS").fairness),
            fmt(p.scheme("PS").fairness),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<Fig6Point> {
        run(None).unwrap()
    }

    #[test]
    fn homogeneous_system_equalizes_all_schemes() {
        // At skew 1 every scheme splits evenly across 16 identical
        // computers, so all four coincide.
        let points = sweep();
        let p = &points[0];
        let gos = p.scheme("GOS").overall_time;
        for name in ["NASH", "IOS", "PS"] {
            let d = p.scheme(name).overall_time;
            assert!(
                (d - gos).abs() / gos < 1e-6,
                "{name} differs at skew 1: {d} vs {gos}"
            );
        }
    }

    #[test]
    fn nash_tracks_gos_at_high_skewness() {
        let points = sweep();
        let p = points.last().unwrap(); // skew 20
        let nash = p.scheme("NASH").overall_time;
        let gos = p.scheme("GOS").overall_time;
        assert!(
            (nash - gos) / gos < 0.05,
            "NASH {nash} should track GOS {gos} at skew 20"
        );
    }

    #[test]
    fn ps_is_the_worst_under_heterogeneity() {
        let points = sweep();
        for p in &points[1..] {
            let ps = p.scheme("PS").overall_time;
            for name in ["NASH", "GOS", "IOS"] {
                assert!(
                    ps >= p.scheme(name).overall_time - 1e-9,
                    "{name} worse than PS at skew {}",
                    p.skew
                );
            }
        }
    }

    #[test]
    fn ios_closes_the_gap_as_skewness_grows() {
        // IOS/GOS ratio at skew 2..4 exceeds the ratio at skew 20.
        let points = sweep();
        let ratio = |p: &Fig6Point| p.scheme("IOS").overall_time / p.scheme("GOS").overall_time;
        let low = ratio(&points[1]).max(ratio(&points[2]));
        let high = ratio(points.last().unwrap());
        assert!(
            low > high,
            "IOS should lag more at low skew: low {low} vs high {high}"
        );
    }

    #[test]
    fn fairness_stays_high_for_nash_and_perfect_for_ps_ios() {
        for p in sweep() {
            assert!((p.scheme("PS").fairness - 1.0).abs() < 1e-9);
            assert!((p.scheme("IOS").fairness - 1.0).abs() < 1e-9);
            assert!(p.scheme("NASH").fairness > 0.95, "NASH at skew {}", p.skew);
        }
    }

    #[test]
    fn render_covers_the_sweep() {
        let points = sweep();
        assert_eq!(render_times(&points).len(), SKEW_SWEEP.len());
        assert_eq!(render_fairness(&points).len(), SKEW_SWEEP.len());
    }
}
