//! End-to-end pipeline tests: every table/figure driver runs and exhibits
//! the paper's qualitative results (fast configurations; the full-scale
//! reproduction is `cargo run -p lb-experiments -- all`).

use nash_lb::experiments::{fig2, fig3, fig4, fig5, fig6, table1};

#[test]
fn table1_is_the_papers_configuration() {
    let classes = table1::classes();
    let total_computers: usize = classes.iter().map(|c| c.count).sum();
    let capacity: f64 = classes.iter().map(|c| c.rate * c.count as f64).sum();
    assert_eq!(total_computers, 16);
    assert_eq!(capacity, 510.0);
}

#[test]
fn fig2_traces_reach_epsilon() {
    let r = fig2::run_at(0.6, 1e-4).unwrap();
    assert!(*r.nash0.last().unwrap() <= 1e-4);
    assert!(*r.nashp.last().unwrap() <= 1e-4);
    assert!(r.iterations_nashp() < r.iterations_nash0());
}

#[test]
fn fig3_iterations_grow_with_users() {
    let points = fig3::run_sweep(&[4, 16, 32], 0.6, 1e-4).unwrap();
    assert!(points[0].nash0_iterations < points[2].nash0_iterations);
    for p in &points {
        assert!(p.nashp_iterations < p.nash0_iterations, "{} users", p.users);
    }
}

#[test]
fn fig4_reproduces_the_papers_ordering() {
    let points = fig4::run(None, None).unwrap();
    // Medium load (50%): paper reports NASH ~30% below PS, ~7% above GOS.
    let p50 = &points[4];
    let nash = p50.scheme("NASH").overall_time;
    let gos = p50.scheme("GOS").overall_time;
    let ps = p50.scheme("PS").overall_time;
    let vs_ps = (ps - nash) / ps;
    let vs_gos = (nash - gos) / gos;
    assert!(
        (0.15..0.45).contains(&vs_ps),
        "NASH should be ~30% below PS, got {:.1}%",
        vs_ps * 100.0
    );
    assert!(
        (0.0..0.15).contains(&vs_gos),
        "NASH should be within ~7% of GOS, got {:.1}%",
        vs_gos * 100.0
    );
}

#[test]
fn fig4_high_load_identity_ios_equals_ps() {
    // When the Wardrop equilibrium uses every computer, its job-averaged
    // response time equals PS's exactly: n / ((1-rho) * total_capacity).
    let points = fig4::run(None, None).unwrap();
    let p90 = points.last().unwrap();
    let expected = 16.0 / (0.1 * 510.0);
    assert!((p90.scheme("PS").overall_time - expected).abs() < 1e-9);
    assert!((p90.scheme("IOS").overall_time - expected).abs() < 1e-9);
}

#[test]
fn fig5_nash_is_user_preferred() {
    let r = fig5::run(None).unwrap();
    let nash = &r.scheme("NASH").user_times;
    for (j, (&n, &p)) in nash.iter().zip(&r.scheme("PS").user_times).enumerate() {
        assert!(n < p, "user {j} prefers PS?!");
    }
}

#[test]
fn fig6_high_skew_brings_nash_to_gos() {
    let points = fig6::run(None).unwrap();
    let last = points.last().unwrap();
    let ratio = last.scheme("NASH").overall_time / last.scheme("GOS").overall_time;
    assert!(ratio < 1.05, "NASH/GOS at skew 20 = {ratio}");
    let mid = &points[3]; // skew 6
    let ps_ratio = mid.scheme("PS").overall_time / mid.scheme("GOS").overall_time;
    assert!(
        ps_ratio > 1.2,
        "PS should lag badly at skew 6, ratio {ps_ratio}"
    );
}

#[test]
fn fig4_simulated_point_matches_analytic() {
    // One simulated sweep point at a CI-friendly budget: the simulated
    // system times must land near the analytic ones for every scheme.
    use nash_lb::experiments::fig4::SimOptions;
    use nash_lb::game::model::SystemModel;
    let model = SystemModel::table1_system(0.6).unwrap();
    let rows = fig4::evaluate_schemes(&model, Some(SimOptions::quick()), None).unwrap();
    for row in rows {
        let sim = row.simulated_time.unwrap();
        let rel = (sim - row.overall_time).abs() / row.overall_time;
        assert!(
            rel < 0.10,
            "{}: simulated {sim} vs analytic {} (rel {rel:.3})",
            row.scheme,
            row.overall_time
        );
        let sim_fair = row.simulated_fairness.unwrap();
        assert!(
            (sim_fair - row.fairness).abs() < 0.05,
            "{}: fairness {sim_fair} vs {}",
            row.scheme,
            row.fairness
        );
    }
}
