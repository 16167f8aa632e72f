//! Estimating available processing rates from the observable load.
//!
//! The paper's remark after the OPTIMAL algorithm: "the available
//! processing rate can be determined by statistical estimation of the run
//! queue length of each processor". [`ObservationModel::Exact`] reads the
//! board directly (a perfect estimator); [`ObservationModel::Noisy`]
//! perturbs each observation multiplicatively, modeling the sampling
//! error of a finite run-queue estimate — the "uncertainty" direction the
//! paper names as future work.

use lb_stats::splitmix64_finalize;

/// How a user turns board state into available-rate estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObservationModel {
    /// Perfect observation: `a_i = μ_i − λ_i^{(−j)}`.
    Exact,
    /// Each rate is multiplied by an independent factor
    /// `1 + rel_std · Z` with `Z` approximately standard normal, clamped
    /// to `[0.5, 1.5]` so estimates stay physical.
    Noisy {
        /// Relative standard deviation of the estimate (e.g. `0.05`).
        rel_std: f64,
        /// Seed for the user's private observation stream.
        seed: u64,
    },
}

/// A stateful observer owned by one user.
#[derive(Debug, Clone)]
pub struct Observer {
    model: ObservationModel,
    state: u64,
    last: Option<Vec<f64>>,
}

impl Observer {
    /// Creates an observer for the given model (the per-user seed for a
    /// noisy model is mixed with `user` so users see independent noise).
    pub fn new(model: ObservationModel, user: usize) -> Self {
        let state = match model {
            ObservationModel::Exact => 0,
            ObservationModel::Noisy { seed, .. } => {
                splitmix(seed ^ (user as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).max(1)
            }
        };
        Self {
            model,
            state,
            last: None,
        }
    }

    /// The observation model this observer applies.
    pub fn model(&self) -> ObservationModel {
        self.model
    }

    /// Estimates the available rates `a_i = μ_i − other_flows_i`, applying
    /// the model's observation error. The estimate is cached and stays
    /// available through [`Observer::last_observation`] — a fault-injected
    /// "stale" round replays it instead of sampling the board again.
    pub fn observe(&mut self, mu: &[f64], other_flows: &[f64]) -> Vec<f64> {
        debug_assert_eq!(mu.len(), other_flows.len());
        let estimate: Vec<f64> = mu
            .iter()
            .zip(other_flows)
            .map(|(&m, &f)| {
                let truth = m - f;
                match self.model {
                    ObservationModel::Exact => truth,
                    ObservationModel::Noisy { rel_std, .. } => {
                        let z = self.standard_normal();
                        truth * (1.0 + rel_std * z).clamp(0.5, 1.5)
                    }
                }
            })
            .collect();
        self.last = Some(estimate.clone());
        estimate
    }

    /// The most recent estimate returned by [`Observer::observe`], if any.
    pub fn last_observation(&self) -> Option<&[f64]> {
        self.last.as_deref()
    }

    /// Approximate standard normal from twelve uniforms (Irwin–Hall).
    fn standard_normal(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            self.state = splitmix(self.state);
            acc += (self.state >> 11) as f64 / (1u64 << 53) as f64;
        }
        acc - 6.0
    }
}

fn splitmix(z: u64) -> u64 {
    splitmix64_finalize(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_observation_is_truth() {
        let mut o = Observer::new(ObservationModel::Exact, 3);
        let a = o.observe(&[10.0, 20.0], &[4.0, 0.0]);
        assert_eq!(a, vec![6.0, 20.0]);
    }

    #[test]
    fn last_observation_caches_the_latest_estimate() {
        let mut o = Observer::new(ObservationModel::Exact, 0);
        assert!(o.last_observation().is_none());
        o.observe(&[10.0], &[4.0]);
        assert_eq!(o.last_observation(), Some(&[6.0][..]));
        o.observe(&[10.0], &[1.0]);
        assert_eq!(o.last_observation(), Some(&[9.0][..]));
        assert_eq!(o.model(), ObservationModel::Exact);
    }

    #[test]
    fn noisy_observation_is_unbiased_and_bounded() {
        let mut o = Observer::new(
            ObservationModel::Noisy {
                rel_std: 0.05,
                seed: 42,
            },
            0,
        );
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let a = o.observe(&[10.0], &[0.0])[0];
            assert!((5.0..=15.0).contains(&a), "clamped range violated: {a}");
            sum += a;
        }
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "biased estimate: {mean}");
    }

    #[test]
    fn users_see_independent_noise() {
        let model = ObservationModel::Noisy {
            rel_std: 0.1,
            seed: 7,
        };
        let mut a = Observer::new(model, 0);
        let mut b = Observer::new(model, 1);
        let xa: Vec<f64> = (0..8).map(|_| a.observe(&[10.0], &[0.0])[0]).collect();
        let xb: Vec<f64> = (0..8).map(|_| b.observe(&[10.0], &[0.0])[0]).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn noise_stream_is_reproducible() {
        let model = ObservationModel::Noisy {
            rel_std: 0.1,
            seed: 7,
        };
        let mut a = Observer::new(model, 5);
        let mut b = Observer::new(model, 5);
        for _ in 0..16 {
            assert_eq!(a.observe(&[9.0], &[1.0]), b.observe(&[9.0], &[1.0]));
        }
    }
}
