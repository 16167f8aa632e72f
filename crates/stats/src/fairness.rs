//! Jain's fairness index (Jain, Chiu & Hawe 1984) — the paper's fairness
//! metric for load-balancing schemes.
//!
//! For per-user expected execution times `D = (D_1 … D_m)`:
//!
//! ```text
//! I(D) = (Σ_j D_j)² / (m · Σ_j D_j²)
//! ```
//!
//! `I = 1` iff all users receive identical expected times (perfectly fair);
//! the minimum `1/m` is reached when one user absorbs everything. The paper
//! reports PS and IOS at exactly 1, NASH close to 1, and GOS degrading to
//! ≈ 0.92 at high load.

/// Computes Jain's fairness index of a slice of non-negative values.
///
/// Returns `None` for an empty slice, any negative or non-finite component,
/// or an all-zero vector (the index is undefined there).
///
/// # Examples
///
/// ```
/// use lb_stats::jain_index;
/// assert_eq!(jain_index(&[2.0, 2.0, 2.0]), Some(1.0));
/// let skewed = jain_index(&[1.0, 0.0, 0.0]).unwrap();
/// assert!((skewed - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain_index(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for &v in values {
        if !v.is_finite() || v < 0.0 {
            return None;
        }
        sum += v;
        sum_sq += v * v;
    }
    if sum_sq == 0.0 {
        return None;
    }
    Some(sum * sum / (values.len() as f64 * sum_sq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_are_perfectly_fair() {
        assert_eq!(jain_index(&[5.0]), Some(1.0));
        assert_eq!(jain_index(&[3.0, 3.0, 3.0, 3.0]), Some(1.0));
    }

    #[test]
    fn single_dominator_gives_one_over_m() {
        let idx = jain_index(&[7.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((idx - 0.2).abs() < 1e-12);
    }

    #[test]
    fn index_is_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]).unwrap();
        let b = jain_index(&[10.0, 20.0, 30.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn index_bounded_between_one_over_m_and_one() {
        let vals = [0.3, 1.7, 2.2, 0.9, 4.4];
        let idx = jain_index(&vals).unwrap();
        assert!(idx > 1.0 / vals.len() as f64);
        assert!(idx <= 1.0);
    }

    #[test]
    fn known_textbook_value() {
        // Jain's original example: throughputs (1, 2, 3) -> 36/(3*14) = 6/7.
        let idx = jain_index(&[1.0, 2.0, 3.0]).unwrap();
        assert!((idx - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn undefined_cases_return_none() {
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), None);
        assert_eq!(jain_index(&[1.0, -1.0]), None);
        assert_eq!(jain_index(&[1.0, f64::NAN]), None);
        assert_eq!(jain_index(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn more_spread_lowers_jain() {
        let tight = jain_index(&[1.0, 1.1, 0.9]).unwrap();
        let loose = jain_index(&[1.0, 2.0, 0.1]).unwrap();
        assert!(tight > loose);
    }
}
