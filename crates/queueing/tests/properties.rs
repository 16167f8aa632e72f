//! Property tests on the queueing formulas: parameter-free identities
//! that must hold for every stable configuration.

use lb_queueing::{mg1, mm1, Mmc};
use proptest::prelude::*;

/// A stable (lambda, mu) pair with utilization bounded away from 1.
fn arb_stable() -> impl Strategy<Value = (f64, f64)> {
    (0.01f64..100.0, 0.0f64..0.99).prop_map(|(mu, rho)| (mu * rho, mu))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
        let split = mm1::response_time(lambda, mu);
        let super_server = mm1::response_time(lambda_total, mu * f64::from(c));
        prop_assert!(pool.response_time() <= split + 1e-9);
        prop_assert!(pool.response_time() >= super_server - 1e-9);
    }

    #[test]
    fn mg1_interpolates_in_scv((lambda, mu) in arb_stable(), scv in 0.0f64..8.0) {
        // Waiting time E[T] - 1/mu is exactly linear in (1 + scv).
        let wait = |c: f64| mg1::response_time(lambda, mu, c) - 1.0 / mu;
        prop_assert!((wait(scv) - wait(0.0) * (1.0 + scv)).abs() < 1e-9 * (1.0 + wait(scv)));
        // And M/M/1 sits at scv = 1.
        let mm = mm1::response_time(lambda, mu);
        let at_one = mg1::response_time(lambda, mu, 1.0);
        prop_assert!((at_one - mm).abs() < 1e-9 * mm);
    }
}
