//! Property tests on the queueing formulas: parameter-free identities
//! that must hold for every stable configuration.

use lb_queueing::{mg1, mm1, Mg1, Mm1, Mmc};
use proptest::prelude::*;

/// A stable (lambda, mu) pair with utilization bounded away from 1.
fn arb_stable() -> impl Strategy<Value = (f64, f64)> {
    (0.01f64..100.0, 0.0f64..0.99).prop_map(|(mu, rho)| (mu * rho, mu))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mm1_littles_law_and_decompositions((lambda, mu) in arb_stable()) {
        let q = Mm1::new(lambda, mu).unwrap();
        // L = lambda T, Lq = lambda Wq, T = Wq + 1/mu, L - Lq = rho.
        prop_assert!((q.jobs_in_system() - lambda * q.response_time()).abs() < 1e-9 * (1.0 + q.jobs_in_system()));
        prop_assert!((q.jobs_in_queue() - lambda * q.waiting_time()).abs() < 1e-9 * (1.0 + q.jobs_in_queue()));
        prop_assert!((q.response_time() - q.waiting_time() - 1.0 / mu).abs() < 1e-9 * q.response_time());
        prop_assert!((q.jobs_in_system() - q.jobs_in_queue() - q.utilization()).abs() < 1e-7 * (1.0 + q.jobs_in_system()));
    }

    #[test]
    fn mm1_response_time_is_increasing_in_load(mu in 0.1f64..50.0, r1 in 0.0f64..0.95, r2 in 0.0f64..0.95) {
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let t_lo = mm1::response_time(lo * mu, mu);
        let t_hi = mm1::response_time(hi * mu, mu);
        prop_assert!(t_lo <= t_hi);
    }

    #[test]
    fn mmc_is_bounded_by_mm1_and_fast_mm1((lambda, mu) in arb_stable(), c in 1u32..16) {
        // An M/M/c of c servers of rate mu is better than c separate
        // M/M/1 queues each taking lambda/c, and worse than one M/M/1
        // server of rate c*mu (the classic sandwich).
        let lambda_total = lambda * f64::from(c);
        let pool = Mmc::new(lambda_total, mu, c).unwrap();
        let split = Mm1::new(lambda, mu).unwrap();
        let super_server = Mm1::new(lambda_total, mu * f64::from(c)).unwrap();
        prop_assert!(pool.response_time() <= split.response_time() + 1e-9);
        prop_assert!(pool.response_time() >= super_server.response_time() - 1e-9);
    }

    #[test]
    fn mg1_interpolates_in_scv((lambda, mu) in arb_stable(), scv in 0.0f64..8.0) {
        let q = Mg1::new(lambda, mu, scv).unwrap();
        let md1 = Mg1::new(lambda, mu, 0.0).unwrap();
        // Waiting time is exactly linear in (1 + scv).
        prop_assert!((q.waiting_time() - md1.waiting_time() * (1.0 + scv)).abs() < 1e-9 * (1.0 + q.waiting_time()));
        // And M/M/1 sits at scv = 1.
        let mm = Mm1::new(lambda, mu).unwrap();
        let at_one = mg1::response_time(lambda, mu, 1.0);
        prop_assert!((at_one - mm.response_time()).abs() < 1e-9 * mm.response_time());
    }

    #[test]
    fn sojourn_percentiles_are_monotone((lambda, mu) in arb_stable(), p1 in 0.01f64..0.99, p2 in 0.01f64..0.99) {
        let q = Mm1::new(lambda, mu).unwrap();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let t_lo = q.response_time_percentile(lo).unwrap();
        let t_hi = q.response_time_percentile(hi).unwrap();
        prop_assert!(t_lo <= t_hi);
    }
}
