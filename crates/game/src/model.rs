//! The heterogeneous distributed system shared by selfish users.
//!
//! A [`SystemModel`] couples the computer bank (rates `μ_1 … μ_n`, each an
//! M/M/1 queue) with the user population (Poisson rates `φ_1 … φ_m`) under
//! the standing assumption `Φ = Σ φ_j < Σ μ_i`. It also provides the
//! paper's concrete configurations:
//!
//! * [`SystemModel::table1_system`] — Table 1: 16 computers with relative
//!   rates {1, 2, 5, 10} in counts {6, 5, 3, 2} (10/20/50/100 jobs/s).
//! * [`paper_user_fractions`] — the heterogeneous 10-user split used by
//!   the utilization/fairness experiments (few heavy + many light users;
//!   see DESIGN.md substitution #2).
//! * [`SystemModel::skewed_system`] — §4.2.3's heterogeneity study: 2 fast
//!   and 14 slow computers at a given speed skewness.

use crate::error::GameError;

/// Job fractions of the 10 users in the paper-style experiments, as
/// fractions of the total arrival rate Φ (they sum to 1).
///
/// The IPDPS text does not list the user split; this heavy-tailed split
/// (few heavy users, many light ones) mirrors the journal version's setup
/// and is what makes the fairness comparisons informative.
pub(crate) const PAPER_USER_FRACTIONS: [f64; 10] =
    [0.3, 0.2, 0.1, 0.07, 0.07, 0.06, 0.06, 0.05, 0.05, 0.04];

/// Returns the paper-style user fractions as a vector.
pub fn paper_user_fractions() -> Vec<f64> {
    PAPER_USER_FRACTIONS.to_vec()
}

/// The distributed system: `n` heterogeneous M/M/1 computers shared by
/// `m` users with Poisson job streams.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    computer_rates: Vec<f64>,
    total_capacity: f64,
    user_rates: Vec<f64>,
    total_arrival_rate: f64,
}

impl SystemModel {
    /// Starts a builder.
    pub fn builder() -> SystemModelBuilder {
        SystemModelBuilder::default()
    }

    /// Builds a model directly from computer and user rates.
    ///
    /// # Errors
    ///
    /// See [`SystemModelBuilder::build`].
    pub fn new(computer_rates: Vec<f64>, user_rates: Vec<f64>) -> Result<Self, GameError> {
        Self::builder()
            .computer_rates(computer_rates)
            .user_rates(user_rates)
            .build()
    }

    /// Number of computers `n`.
    pub fn num_computers(&self) -> usize {
        self.computer_rates.len()
    }

    /// Number of users `m`.
    pub fn num_users(&self) -> usize {
        self.user_rates.len()
    }

    /// Processing rates `μ_i`, in declaration order.
    pub fn computer_rates(&self) -> &[f64] {
        &self.computer_rates
    }

    /// Processing rate of computer `i`.
    pub fn computer_rate(&self, i: usize) -> f64 {
        self.computer_rates[i]
    }

    /// Arrival rates `φ_j`.
    pub fn user_rates(&self) -> &[f64] {
        &self.user_rates
    }

    /// Arrival rate of user `j`.
    pub fn user_rate(&self, j: usize) -> f64 {
        self.user_rates[j]
    }

    /// Total arrival rate `Φ = Σ_j φ_j`.
    pub fn total_arrival_rate(&self) -> f64 {
        self.total_arrival_rate
    }

    /// Aggregate capacity `Σ_i μ_i`.
    pub fn total_capacity(&self) -> f64 {
        self.total_capacity
    }

    /// System utilization `ρ = Φ / Σ μ_i` (paper §4.2.2).
    pub fn system_utilization(&self) -> f64 {
        self.total_arrival_rate / self.total_capacity
    }

    /// The paper's Table 1 computer bank: 6 computers at 10 jobs/s, 5 at
    /// 20, 3 at 50 and 2 at 100 (relative rates 1/2/5/10), 510 jobs/s
    /// aggregate capacity.
    pub fn table1_rates() -> Vec<f64> {
        let mut rates = vec![10.0; 6];
        rates.extend(std::iter::repeat_n(20.0, 5));
        rates.extend(std::iter::repeat_n(50.0, 3));
        rates.extend(std::iter::repeat_n(100.0, 2));
        rates
    }

    /// The full Table-1 experiment system: the Table-1 computers shared by
    /// the 10 paper-style users at system utilization `rho ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// [`GameError::InvalidRate`] for a utilization outside `(0, 1)`.
    pub fn table1_system(rho: f64) -> Result<Self, GameError> {
        Self::with_utilization(Self::table1_rates(), &paper_user_fractions(), rho)
    }

    /// §4.2.3's heterogeneity system: 2 fast computers at `skew × base` and
    /// 14 slow computers at `base = 10` jobs/s, shared by the 10
    /// paper-style users at utilization `rho`.
    ///
    /// # Errors
    ///
    /// [`GameError::InvalidRate`] for `skew < 1` or a bad utilization.
    pub fn skewed_system(skew: f64, rho: f64) -> Result<Self, GameError> {
        if !skew.is_finite() || skew < 1.0 {
            return Err(GameError::InvalidRate {
                name: "skew",
                value: skew,
            });
        }
        const BASE: f64 = 10.0;
        let mut rates = vec![BASE * skew; 2];
        rates.extend(std::iter::repeat_n(BASE, 14));
        Self::with_utilization(rates, &paper_user_fractions(), rho)
    }

    /// Builds a model from computer rates, per-user *fractions* of the
    /// total arrival rate, and a target system utilization.
    ///
    /// # Errors
    ///
    /// * [`GameError::InvalidRate`] for `rho ∉ (0, 1)` or non-positive
    ///   fractions.
    /// * Anything [`SystemModelBuilder::build`] raises.
    pub fn with_utilization(
        computer_rates: Vec<f64>,
        user_fractions: &[f64],
        rho: f64,
    ) -> Result<Self, GameError> {
        if !rho.is_finite() || rho <= 0.0 || rho >= 1.0 {
            return Err(GameError::InvalidRate {
                name: "rho",
                value: rho,
            });
        }
        let capacity: f64 = computer_rates.iter().sum();
        let phi = rho * capacity;
        let frac_sum: f64 = user_fractions.iter().sum();
        if frac_sum <= 0.0 {
            return Err(GameError::InvalidRate {
                name: "user_fractions",
                value: frac_sum,
            });
        }
        let user_rates = user_fractions.iter().map(|q| phi * q / frac_sum).collect();
        Self::builder()
            .computer_rates(computer_rates)
            .user_rates(user_rates)
            .build()
    }

    /// Builds a model with `m` *equal-rate* users at system utilization
    /// `rho` — the configuration of the paper's Figure 3 (convergence vs
    /// number of users).
    ///
    /// # Errors
    ///
    /// As for [`SystemModel::with_utilization`]; additionally
    /// [`GameError::EmptyModel`] for `m == 0`.
    pub fn with_equal_users(
        computer_rates: Vec<f64>,
        m: usize,
        rho: f64,
    ) -> Result<Self, GameError> {
        if m == 0 {
            return Err(GameError::EmptyModel { what: "users" });
        }
        Self::with_utilization(computer_rates, &vec![1.0; m], rho)
    }
}

/// Builder for [`SystemModel`].
#[derive(Debug, Default, Clone)]
pub struct SystemModelBuilder {
    computer_rates: Vec<f64>,
    user_rates: Vec<f64>,
}

impl SystemModelBuilder {
    /// Sets the computer processing rates `μ_i`.
    pub fn computer_rates(mut self, rates: Vec<f64>) -> Self {
        self.computer_rates = rates;
        self
    }

    /// Sets the user arrival rates `φ_j`.
    pub fn user_rates(mut self, rates: Vec<f64>) -> Self {
        self.user_rates = rates;
        self
    }

    /// Validates and builds the model.
    ///
    /// # Errors
    ///
    /// * [`GameError::EmptyModel`] when either collection is empty.
    /// * [`GameError::InvalidRate`] for a non-positive or non-finite rate.
    /// * [`GameError::Overloaded`] when `Σ φ_j >= Σ μ_i` (the paper's
    ///   standing stability assumption).
    pub fn build(self) -> Result<SystemModel, GameError> {
        if self.computer_rates.is_empty() {
            return Err(GameError::EmptyModel { what: "computers" });
        }
        if self.user_rates.is_empty() {
            return Err(GameError::EmptyModel { what: "users" });
        }
        for &phi in &self.user_rates {
            if !phi.is_finite() || phi <= 0.0 {
                return Err(GameError::InvalidRate {
                    name: "phi",
                    value: phi,
                });
            }
        }
        for &mu in &self.computer_rates {
            if !mu.is_finite() || mu <= 0.0 {
                return Err(GameError::InvalidRate {
                    name: "mu",
                    value: mu,
                });
            }
        }
        let total_capacity: f64 = self.computer_rates.iter().sum();
        let total_arrival_rate: f64 = self.user_rates.iter().sum();
        if total_arrival_rate >= total_capacity {
            return Err(GameError::overloaded(total_arrival_rate, total_capacity));
        }
        Ok(SystemModel {
            computer_rates: self.computer_rates,
            total_capacity,
            user_rates: self.user_rates,
            total_arrival_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(matches!(
            SystemModel::new(vec![], vec![1.0]),
            Err(GameError::EmptyModel { what: "computers" })
        ));
        assert!(matches!(
            SystemModel::new(vec![1.0], vec![]),
            Err(GameError::EmptyModel { what: "users" })
        ));
        assert!(matches!(
            SystemModel::new(vec![1.0], vec![0.0]),
            Err(GameError::InvalidRate { name: "phi", .. })
        ));
        assert!(matches!(
            SystemModel::new(vec![-1.0], vec![0.5]),
            Err(GameError::InvalidRate { name: "mu", .. })
        ));
        assert!(matches!(
            SystemModel::new(vec![1.0, 1.0], vec![1.0, 1.0]),
            Err(GameError::Overloaded { .. })
        ));
    }

    #[test]
    fn non_finite_rates_are_rejected_at_the_boundary() {
        // A NaN or infinite rate that slips past construction poisons
        // every downstream quantity (water-filling sorts, norms,
        // certificates), so the model boundary is where it must die.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0] {
            assert!(
                matches!(
                    SystemModel::new(vec![10.0, bad], vec![1.0]),
                    Err(GameError::InvalidRate { name: "mu", .. })
                ),
                "mu = {bad} must be rejected"
            );
            assert!(
                matches!(
                    SystemModel::new(vec![10.0, 20.0], vec![1.0, bad]),
                    Err(GameError::InvalidRate { name: "phi", .. })
                ),
                "phi = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn accessors_report_model() {
        let m = SystemModel::new(vec![10.0, 20.0], vec![3.0, 6.0]).unwrap();
        assert_eq!(m.num_computers(), 2);
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.computer_rate(1), 20.0);
        assert_eq!(m.user_rate(0), 3.0);
        assert_eq!(m.total_arrival_rate(), 9.0);
        assert_eq!(m.total_capacity(), 30.0);
        assert!((m.system_utilization() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn table1_matches_paper() {
        let rates = SystemModel::table1_rates();
        assert_eq!(rates.len(), 16);
        assert_eq!(rates.iter().filter(|&&r| r == 10.0).count(), 6);
        assert_eq!(rates.iter().filter(|&&r| r == 20.0).count(), 5);
        assert_eq!(rates.iter().filter(|&&r| r == 50.0).count(), 3);
        assert_eq!(rates.iter().filter(|&&r| r == 100.0).count(), 2);
        assert_eq!(rates.iter().sum::<f64>(), 510.0);

        let sys = SystemModel::table1_system(0.6).unwrap();
        assert_eq!(sys.num_users(), 10);
        assert!((sys.total_arrival_rate() - 306.0).abs() < 1e-9);
        assert!((sys.system_utilization() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn paper_user_fractions_sum_to_one() {
        let sum: f64 = PAPER_USER_FRACTIONS.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Heavy-tailed: first user triples the last.
        let fractions = paper_user_fractions();
        assert!(fractions[0] > 3.0 * fractions[9]);
    }

    #[test]
    fn skewed_system_shape() {
        let sys = SystemModel::skewed_system(20.0, 0.6).unwrap();
        assert_eq!(sys.num_computers(), 16);
        assert_eq!(
            sys.computer_rates().iter().filter(|&&r| r == 200.0).count(),
            2
        );
        assert_eq!(
            sys.computer_rates().iter().filter(|&&r| r == 10.0).count(),
            14
        );
        // Skew 1 is a homogeneous system.
        let homo = SystemModel::skewed_system(1.0, 0.6).unwrap();
        assert!(homo.computer_rates().iter().all(|&r| r == 10.0));
        assert!(SystemModel::skewed_system(0.5, 0.6).is_err());
    }

    #[test]
    fn utilization_constructor_hits_target() {
        for &rho in &[0.1, 0.5, 0.9] {
            let sys = SystemModel::table1_system(rho).unwrap();
            assert!((sys.system_utilization() - rho).abs() < 1e-12);
        }
        assert!(SystemModel::table1_system(0.0).is_err());
        assert!(SystemModel::table1_system(1.0).is_err());
    }

    #[test]
    fn equal_users_split_evenly() {
        let sys = SystemModel::with_equal_users(SystemModel::table1_rates(), 8, 0.6).unwrap();
        assert_eq!(sys.num_users(), 8);
        let expected = 306.0 / 8.0;
        for j in 0..8 {
            assert!((sys.user_rate(j) - expected).abs() < 1e-9);
        }
        assert!(SystemModel::with_equal_users(vec![1.0], 0, 0.5).is_err());
    }

    #[test]
    fn unnormalized_fractions_are_scaled() {
        let sys = SystemModel::with_utilization(vec![10.0, 10.0], &[2.0, 2.0], 0.5).unwrap();
        assert!((sys.user_rate(0) - 5.0).abs() < 1e-12);
        assert!((sys.user_rate(1) - 5.0).abs() < 1e-12);
    }
}
