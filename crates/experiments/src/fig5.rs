//! Figure 5 — expected response time of *each user* under every scheme at
//! medium load (Table-1 system, ρ = 60%).
//!
//! Shape to reproduce: PS and IOS give all users the same time (PS's much
//! higher); GOS shows large per-user differences; NASH gives every user a
//! low time with only a small spread — "from the users' perspective NASH
//! is the most desirable scheme".

use crate::config::MEDIUM_LOAD;
use crate::fig4::{evaluate_schemes, SchemeRow, SimOptions};
use crate::report::{fmt, Table};
use lb_game::error::GameError;
use lb_game::model::SystemModel;

/// The Figure 5 data: per-user response times per scheme.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Scheme rows (NASH, GOS, IOS, PS) with per-user times.
    pub rows: Vec<SchemeRow>,
    /// Number of users.
    pub users: usize,
}

impl Fig5Result {
    /// The row of a named scheme.
    ///
    /// # Panics
    ///
    /// Panics for an unknown scheme name (test helper).
    pub fn scheme(&self, name: &str) -> &SchemeRow {
        self.rows
            .iter()
            .find(|r| r.scheme == name)
            .unwrap_or_else(|| panic!("unknown scheme {name}"))
    }
}

/// Runs Figure 5 at the paper's medium load.
///
/// # Errors
///
/// Propagates model/scheme/simulation failures.
pub fn run(sim: Option<SimOptions>) -> Result<Fig5Result, GameError> {
    run_at(MEDIUM_LOAD, sim)
}

/// Parameterized variant.
///
/// # Errors
///
/// Propagates model/scheme/simulation failures.
pub fn run_at(rho: f64, sim: Option<SimOptions>) -> Result<Fig5Result, GameError> {
    let model = SystemModel::table1_system(rho)?;
    Ok(Fig5Result {
        rows: evaluate_schemes(&model, sim, None)?,
        users: model.num_users(),
    })
}

/// Renders the per-user table (users as rows, schemes as columns). When
/// the result carries simulated system means, a footer row compares them
/// with the analytic system means.
pub fn render(r: &Fig5Result) -> Table {
    let mut t = Table::new(
        "Figure 5: expected response time (sec) per user (rho=60%)",
        vec!["user", "NASH", "GOS", "IOS", "PS"],
    );
    for j in 0..r.users {
        t.row(vec![
            (j + 1).to_string(),
            fmt(r.scheme("NASH").user_times[j]),
            fmt(r.scheme("GOS").user_times[j]),
            fmt(r.scheme("IOS").user_times[j]),
            fmt(r.scheme("PS").user_times[j]),
        ]);
    }
    if r.rows.iter().all(|row| row.simulated_time.is_some()) {
        let mut cells = vec!["sys(sim)".to_string()];
        for name in ["NASH", "GOS", "IOS", "PS"] {
            cells.push(fmt(r.scheme(name).simulated_time.unwrap_or(f64::NAN)));
        }
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_and_ios_give_identical_times_to_all_users() {
        let r = run(None).unwrap();
        for name in ["PS", "IOS"] {
            let times = &r.scheme(name).user_times;
            let t0 = times[0];
            for &t in times {
                assert!((t - t0).abs() < 1e-9, "{name} user spread");
            }
        }
        // PS's common time exceeds IOS's.
        assert!(r.scheme("PS").user_times[0] > r.scheme("IOS").user_times[0]);
    }

    #[test]
    fn gos_has_large_user_spread_nash_small() {
        let r = run(None).unwrap();
        let spread = |times: &[f64]| {
            let max = times.iter().cloned().fold(f64::MIN, f64::max);
            let min = times.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        let gos = spread(&r.scheme("GOS").user_times);
        let nash = spread(&r.scheme("NASH").user_times);
        assert!(gos > 1.5, "GOS spread {gos} should be large");
        assert!(nash < 1.3, "NASH spread {nash} should be modest");
        assert!(nash < gos / 2.0, "NASH spread {nash} vs GOS spread {gos}");
    }

    #[test]
    fn every_user_prefers_nash_to_ps_and_ios() {
        // The user-optimality story: each user's Nash time beats what the
        // fair-but-suboptimal schemes give it at this load.
        let r = run(None).unwrap();
        let nash = &r.scheme("NASH").user_times;
        let ios = &r.scheme("IOS").user_times;
        let ps = &r.scheme("PS").user_times;
        for j in 0..r.users {
            assert!(nash[j] <= ios[j] + 1e-9, "user {j}: NASH vs IOS");
            assert!(nash[j] < ps[j], "user {j}: NASH vs PS");
        }
    }

    #[test]
    fn render_has_one_row_per_user() {
        let r = run(None).unwrap();
        assert_eq!(render(&r).len(), 10);
    }
}
