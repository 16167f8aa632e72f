//! Iteration traces — the data behind the paper's Figure 2 (norm vs
//! number of iterations).
//!
//! The NASH algorithm emits one scalar per iteration (the convergence norm
//! `Σ_j |D_j^{(l)} − D_j^{(l−1)}|`). [`IterationTrace`] stores such a
//! series with the geometric decay-rate estimate the experiments use.

/// A per-iteration scalar series (e.g. a convergence norm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationTrace {
    values: Vec<f64>,
}

impl IterationTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the value observed at the next iteration.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Least-squares estimate of the geometric decay rate `r` fitting
    /// `v_k ≈ v_0 · r^k` over the strictly positive entries (log-linear
    /// regression). `None` with fewer than two positive entries.
    pub fn geometric_rate(&self) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.0)
            .map(|(i, &v)| (i as f64, v.ln()))
            .collect();
        if pts.len() < 2 {
            return None;
        }
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-300 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(slope.exp())
    }
}

impl FromIterator<f64> for IterationTrace {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut t = IterationTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.last(), None);
        t.push(3.0);
        t.push(1.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t.last(), Some(1.0));
        assert_eq!(t.values(), &[3.0, 1.0]);
    }

    #[test]
    fn geometric_rate_recovers_exact_decay() {
        let t: IterationTrace = (0..20).map(|k| 10.0 * 0.5_f64.powi(k)).collect();
        let r = t.geometric_rate().unwrap();
        assert!((r - 0.5).abs() < 1e-9, "rate = {r}");
    }

    #[test]
    fn geometric_rate_skips_zeros_and_needs_two_points() {
        let t: IterationTrace = [4.0, 0.0, 1.0].into_iter().collect();
        assert!(t.geometric_rate().is_some());
        let t: IterationTrace = [4.0].into_iter().collect();
        assert!(t.geometric_rate().is_none());
        let t: IterationTrace = [0.0, 0.0].into_iter().collect();
        assert!(t.geometric_rate().is_none());
    }
}
