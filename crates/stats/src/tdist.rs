//! Student-t distribution: CDF and quantiles, implemented from scratch.
//!
//! Confidence intervals on 5 replications (the paper's methodology) need
//! small-sample t quantiles (e.g. `t_{0.975, 4} ≈ 2.776`), not the normal
//! approximation. We compute the CDF through the regularized incomplete
//! beta function (Lanczos log-gamma + Lentz continued fraction, the
//! standard Numerical-Recipes construction) and invert it by bisection,
//! which is plenty fast for statistics-sized workloads.

/// Natural log of the gamma function via the Lanczos approximation
/// (g = 7, n = 9 coefficients; |error| < 1e-13 over the positive reals).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Coefficients for g = 7.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` using the continued
/// fraction expansion with Lentz's algorithm.
///
/// Returns `NaN` for arguments outside the domain (`x ∉ [0,1]` or
/// non-positive `a`, `b`).
pub(crate) fn betai(a: f64, b: f64, x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) || a <= 0.0 || b <= 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation to keep the continued fraction convergent.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function (modified Lentz).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const FPMIN: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student-t distribution with `df` degrees of freedom.
///
/// Returns `NaN` for `df <= 0` or non-finite `t`.
pub(crate) fn t_cdf(t: f64, df: f64) -> f64 {
    if df <= 0.0 || !t.is_finite() {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * betai(0.5 * df, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Quantile (inverse CDF) of the Student-t distribution: the value `t` with
/// `P(T <= t) = p`, found by bisection.
///
/// Returns `NaN` unless `0 < p < 1` and `df > 0`.
pub(crate) fn t_quantile(p: f64, df: f64) -> f64 {
    if !(0.0..1.0).contains(&p) || p <= 0.0 || df <= 0.0 {
        return f64::NAN;
    }
    if (p - 0.5).abs() < 1e-16 {
        return 0.0;
    }
    // Exploit symmetry: solve for the upper tail only.
    if p < 0.5 {
        return -t_quantile(1.0 - p, df);
    }
    // Bracket: t quantiles for p < 1 - 1e-12 and df >= 0.5 are far below 1e8.
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    while t_cdf(hi, df) < p && hi < 1e12 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if t_cdf(mid, df) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Two-sided critical value for confidence level `confidence` (e.g. `0.95`)
/// with `df` degrees of freedom: `t_{1 − α/2, df}`.
///
/// Returns `NaN` unless `0 < confidence < 1` and `df > 0`.
pub fn t_critical(confidence: f64, df: f64) -> f64 {
    if !(0.0..1.0).contains(&confidence) || confidence <= 0.0 {
        return f64::NAN;
    }
    t_quantile(1.0 - (1.0 - confidence) / 2.0, df)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(1) = Gamma(2) = 1; Gamma(5) = 24; Gamma(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
        // Recurrence Gamma(x+1) = x Gamma(x) at a non-integer point.
        let x = 3.7;
        assert!((ln_gamma(x + 1.0) - (x.ln() + ln_gamma(x))).abs() < 1e-10);
    }

    #[test]
    fn betai_boundaries_and_symmetry() {
        assert_eq!(betai(2.0, 3.0, 0.0), 0.0);
        assert_eq!(betai(2.0, 3.0, 1.0), 1.0);
        assert!(betai(2.0, 3.0, -0.1).is_nan());
        assert!(betai(-1.0, 3.0, 0.5).is_nan());
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        let v = betai(2.5, 1.5, 0.3);
        let w = 1.0 - betai(1.5, 2.5, 0.7);
        assert!((v - w).abs() < 1e-12);
        // I_x(1,1) = x (uniform distribution).
        assert!((betai(1.0, 1.0, 0.42) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_symmetry_and_center() {
        assert!((t_cdf(0.0, 7.0) - 0.5).abs() < 1e-12);
        let p = t_cdf(1.3, 5.0);
        let q = t_cdf(-1.3, 5.0);
        assert!((p + q - 1.0).abs() < 1e-12);
    }

    #[test]
    fn t_cdf_df1_is_cauchy() {
        // For df = 1, CDF(t) = 1/2 + atan(t)/pi.
        for &t in &[-3.0_f64, -1.0, 0.5, 2.0, 10.0] {
            let expected = 0.5 + t.atan() / std::f64::consts::PI;
            assert!((t_cdf(t, 1.0) - expected).abs() < 1e-10, "t = {t}");
        }
    }

    #[test]
    fn quantile_matches_tables() {
        // Standard t-table critical values.
        let cases = [
            (0.975, 4.0, 2.7764), // the paper's 5-replication case
            (0.975, 9.0, 2.2622),
            (0.95, 10.0, 1.8125),
            (0.995, 4.0, 4.6041),
            (0.975, 1.0, 12.7062),
            (0.975, 30.0, 2.0423),
        ];
        for (p, df, expected) in cases {
            let got = t_quantile(p, df);
            assert!(
                (got - expected).abs() < 2e-4,
                "t_{{{p},{df}}} = {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn quantile_approaches_normal_for_large_df() {
        let z = t_quantile(0.975, 1e6);
        assert!((z - 1.959964).abs() < 1e-3, "z = {z}");
    }

    #[test]
    fn quantile_cdf_round_trip() {
        for &df in &[2.0, 5.0, 17.0] {
            for &p in &[0.01, 0.25, 0.5, 0.8, 0.99] {
                let t = t_quantile(p, df);
                assert!((t_cdf(t, df) - p).abs() < 1e-9, "df={df} p={p}");
            }
        }
    }

    #[test]
    fn invalid_arguments_yield_nan() {
        assert!(t_quantile(0.0, 5.0).is_nan());
        assert!(t_quantile(1.0, 5.0).is_nan());
        assert!(t_quantile(0.5, -1.0).is_nan());
        assert!(t_cdf(f64::NAN, 5.0).is_nan());
        assert!(t_cdf(1.0, 0.0).is_nan());
        assert!(t_critical(0.0, 5.0).is_nan());
        assert!(t_critical(1.5, 5.0).is_nan());
    }

    #[test]
    fn critical_value_is_two_sided() {
        assert!((t_critical(0.95, 4.0) - t_quantile(0.975, 4.0)).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn t_quantile_is_monotone_and_symmetric(df in 1.0f64..100.0, p in 0.001f64..0.499) {
            let lo = t_quantile(p, df);
            let hi = t_quantile(1.0 - p, df);
            prop_assert!((lo + hi).abs() < 1e-6 * (1.0 + hi.abs()), "symmetry: {lo} vs {hi}");
            prop_assert!(lo < 0.0 && hi > 0.0);
            // CDF round trip.
            prop_assert!((t_cdf(hi, df) - (1.0 - p)).abs() < 1e-8);
        }
    }
}
