//! Certified, scale-invariant stopping rules for the best-reply solvers.
//!
//! The paper stops NASH when the absolute norm
//! `Σ_j |D_j^{(l)} − D_j^{(l−1)}|` drops below a fixed ε. That criterion
//! silently changes meaning with problem size and units: rescaling every
//! rate `μ_i, φ_j → c·μ_i, c·φ_j` divides all response times by `c`, so
//! the same ε becomes vacuous for `c ≫ 1` and unreachable for `c ≪ 1`;
//! growing `m` makes the *sum* over users demand ever-smaller per-user
//! changes. [`StoppingRule`] fixes this: the paper's rule survives as an
//! explicit repro opt-in ([`StoppingRule::AbsoluteNorm`]) while the
//! default is a certificate the user can trust at any scale.
//!
//! ## The per-user regret certificate
//!
//! Fix user `j` and freeze everyone else. With `b_i` the rate available
//! to `j` on computer `i` (own flow added back) the user minimizes the
//! convex `φ_j·D_j(x) = Σ_i x_i/(b_i − x_i)` over the scaled simplex
//! `{x ≥ 0, Σ x_i = φ_j}`. Its gradient is the **marginal cost**
//!
//! ```text
//! c_i = b_i / (b_i − x_i)² = (h_i + x_i) / h_i²,   h_i = μ_i − load_i
//! ```
//!
//! (`h_i` is the computer's headroom *including* `j`'s own flow, which is
//! exactly what the solvers' `loads` arrays hold). Convexity gives the
//! Frank–Wolfe / duality-gap bound
//!
//! ```text
//! D_j(x) − D_j(best reply) ≤ r_j := (1/φ_j) Σ_i x_i c_i − min_i c_i
//! ```
//!
//! so `max_j r_j` is a certified upper bound on the exact
//! [`crate::equilibrium::epsilon_nash_gap`] — computed in one O(n) pass
//! per user from state the solvers already maintain, with no best-reply
//! re-solve. `r_j` is also the water-filling KKT residual: it vanishes
//! exactly when `j`'s marginal costs are equal on its support and no
//! smaller off it, which is Theorem 2.1's optimality condition.
//!
//! The *relative* regret `r_j / D_j` is invariant under `μ, φ → c·μ, c·φ`
//! (both sides scale as `1/c`) and does not degrade as `m` grows, which
//! makes [`StoppingRule::CertifiedGap`] the default. Sampled best replies
//! ([`crate::sampled`]) fold their sampling error into the same bound for
//! free: `min_i c_i` ranges over **all** computers, so flow parked on a
//! poorly sampled support shows up as residual regret until the sampler
//! finds the better servers.

use crate::error::GameError;
use crate::model::SystemModel;
use crate::strategy::StrategyProfile;

/// When an iterative best-reply solver should declare convergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// The paper's criterion: stop when the absolute response-time norm
    /// `Σ_j |ΔD_j| ≤ ε`. Scale-dependent — kept only so the paper's
    /// figures reproduce byte-identically; see the module docs for why
    /// it is a correctness bug at any other scale.
    AbsoluteNorm,
    /// Stop when the norm is small *relative to the response times
    /// themselves*: `Σ_j |ΔD_j| ≤ ε · Σ_j D_j`. Scale-invariant and as
    /// cheap as the absolute rule, but still a heuristic: a slowly
    /// creeping iteration can stall under the threshold while far from
    /// equilibrium.
    RelativeNorm,
    /// Stop when the certified relative regret bound
    /// `max_j r_j / D_j ≤ ε` holds (see the module docs). The only rule
    /// of the three whose acceptance *proves* an ε-Nash property of the
    /// returned profile.
    CertifiedGap {
        /// Bound on the relative per-user regret at acceptance.
        epsilon: f64,
    },
}

impl Default for StoppingRule {
    /// The scale-invariant certified rule at the paper's ε.
    fn default() -> Self {
        Self::CertifiedGap { epsilon: 1e-4 }
    }
}

impl StoppingRule {
    /// Static label for telemetry payloads.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::AbsoluteNorm => "absolute_norm",
            Self::RelativeNorm => "relative_norm",
            Self::CertifiedGap { .. } => "certified_gap",
        }
    }

    /// Whether this rule needs the per-sweep regret certificate.
    #[must_use]
    pub fn needs_certificate(&self) -> bool {
        matches!(self, Self::CertifiedGap { .. })
    }

    /// The convergence decision for one completed sweep: `norm` is the
    /// paper's `Σ_j |ΔD_j|`, `total_d` is `Σ_j D_j` after the sweep, and
    /// `certificate` is the sweep's regret certificate (required by
    /// [`StoppingRule::CertifiedGap`], ignored by the others).
    #[must_use]
    pub fn accepts(
        &self,
        tolerance: f64,
        norm: f64,
        total_d: f64,
        certificate: Option<&Certificate>,
    ) -> bool {
        match self {
            Self::AbsoluteNorm => norm <= tolerance,
            Self::RelativeNorm => norm <= tolerance * total_d,
            Self::CertifiedGap { epsilon } => certificate.is_some_and(|c| c.relative <= *epsilon),
        }
    }
}

/// One sweep's regret certificate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// `max_j r_j` — a certified upper bound on the exact
    /// [`crate::equilibrium::epsilon_nash_gap`] of the profile.
    pub absolute: f64,
    /// `max_j r_j / D_j` — the scale-invariant form the
    /// [`StoppingRule::CertifiedGap`] rule thresholds.
    pub relative: f64,
}

impl Certificate {
    /// The zero certificate (an exact equilibrium).
    #[must_use]
    pub fn zero() -> Self {
        Self {
            absolute: 0.0,
            relative: 0.0,
        }
    }

    /// Folds another user's `(regret, D_j)` pair into the max-reduction.
    /// Order-independent (max is commutative and associative), so
    /// parallel reductions are bit-identical to sequential ones.
    pub fn absorb(&mut self, regret: f64, d: f64) {
        self.absolute = self.absolute.max(regret);
        self.relative = self.relative.max(relative_regret(regret, d));
    }
}

/// Freshness gate for certificates assembled from a distributed,
/// possibly-stale view (the asynchronous runtime's acceptance rule).
///
/// A per-user regret report proves something about the *state it was
/// measured against*, not about the state the acceptor will return. The
/// gate closes that hole with two conditions:
///
/// 1. the report was generated within the staleness bound τ of the
///    acceptor's clock, and
/// 2. the version vector the report was measured against is exactly the
///    acceptor's current one — so there are provably no updates in
///    flight between measurement and acceptance.
///
/// Under (2), every reporter and the acceptor hold the *same* board;
/// under (1), "current" is recent enough that the bound is about the
/// returned state, not an ancient coincidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewFreshness {
    /// The staleness bound τ, in the acceptor's clock units (the async
    /// runtime uses virtual µs).
    pub staleness_bound: u64,
}

impl ViewFreshness {
    /// Whether a report generated at `generated_at` is still fresh at
    /// `now`. Saturating: a report timestamped ahead of the acceptor's
    /// clock (possible with per-node clocks) counts as fresh.
    #[must_use]
    pub fn is_fresh(&self, generated_at: u64, now: u64) -> bool {
        now.saturating_sub(generated_at) <= self.staleness_bound
    }

    /// The full acceptance predicate: fresh **and** measured against the
    /// acceptor's exact version vector (length mismatch rejects).
    #[must_use]
    pub fn accepts(
        &self,
        generated_at: u64,
        now: u64,
        reported_view: &[u64],
        current_view: &[u64],
    ) -> bool {
        self.is_fresh(generated_at, now) && reported_view == current_view
    }
}

/// The relative form of a regret bound: `r / D`, with the conventions
/// that a zero-response-time user has zero relative regret iff its
/// absolute regret is zero (and infinite otherwise — nothing can be
/// certified about it).
#[must_use]
pub fn relative_regret(regret: f64, d: f64) -> f64 {
    if regret == 0.0 {
        return 0.0;
    }
    // An infinite (or otherwise non-finite) regret certifies nothing at
    // any scale — ∞/∞ would be NaN, which `f64::max` silently drops, so
    // it must never reach the max-reduction.
    if !regret.is_finite() || !d.is_finite() {
        return f64::INFINITY;
    }
    if d > 0.0 {
        regret / d
    } else {
        f64::INFINITY
    }
}

/// The marginal cost `∂(φ_j D_j)/∂x_i = (h + x) / h²` of routing flow
/// `x` to a computer with headroom `h = μ − load` (own flow included in
/// `load`).
#[must_use]
pub fn marginal_cost(headroom: f64, flow: f64) -> f64 {
    (headroom + flow) / (headroom * headroom)
}

/// The per-user regret bound `r_j` and response time `D_j` for a dense
/// flow row against the aggregate `loads` (own flow included). One O(n)
/// pass; see the module docs for the math.
///
/// A row that routes flow onto a computer without headroom gets
/// `(∞, ∞)` — the state certifies nothing. Computers with no headroom
/// and no flow are unusable (infinite marginal cost) and are skipped.
#[must_use]
pub fn user_regret(rates: &[f64], loads: &[f64], row: &[f64], phi: f64) -> (f64, f64) {
    let mut weighted = 0.0; // Σ (x_i/φ) c_i — equals D_j's gradient pairing
    let mut min_c = f64::INFINITY;
    let mut d = 0.0;
    for i in 0..rates.len() {
        let h = rates[i] - loads[i];
        let x = row[i];
        if h <= 0.0 {
            if x > 0.0 {
                return (f64::INFINITY, f64::INFINITY);
            }
            continue;
        }
        let c = marginal_cost(h, x);
        if x > 0.0 {
            weighted += x / phi * c;
            d += x / phi / h;
        }
        min_c = min_c.min(c);
    }
    if !min_c.is_finite() {
        // Every computer saturated (possible only mid-divergence): an
        // idle user has nothing to regret, an active one was caught by
        // the early return above.
        return (if weighted > 0.0 { f64::INFINITY } else { 0.0 }, d);
    }
    ((weighted - min_c).max(0.0), d)
}

/// [`user_regret`] of a row that must carry the user's whole demand φ: a
/// row whose entries do not sum to φ within 1e-9·φ (an unseeded start, a
/// shed or stale allocation) certifies nothing and gets `(∞, ∞)`. The
/// distributed runtimes measure their users through this guard.
#[must_use]
pub fn placed_user_regret(rates: &[f64], loads: &[f64], row: &[f64], phi: f64) -> (f64, f64) {
    let placed: f64 = row.iter().sum();
    if (placed - phi).abs() <= 1e-9 * phi {
        user_regret(rates, loads, row, phi)
    } else {
        (f64::INFINITY, f64::INFINITY)
    }
}

/// The regret certificate of an explicit strategy profile — the
/// standalone entry point (the solvers compute the same quantity from
/// their internal workspaces without materializing a profile).
///
/// # Errors
///
/// [`GameError::DimensionMismatch`] when profile and model disagree.
pub fn profile_certificate(
    model: &SystemModel,
    profile: &StrategyProfile,
) -> Result<Certificate, GameError> {
    let m = model.num_users();
    let n = model.num_computers();
    if profile.num_users() != m {
        return Err(GameError::DimensionMismatch {
            expected: m,
            actual: profile.num_users(),
        });
    }
    if profile.num_computers() != n {
        return Err(GameError::DimensionMismatch {
            expected: n,
            actual: profile.num_computers(),
        });
    }
    let mut loads = vec![0.0; n];
    let mut rows = Vec::with_capacity(m);
    for j in 0..m {
        let phi = model.user_rate(j);
        let s = profile.strategy(j);
        let row: Vec<f64> = (0..n).map(|i| s.fraction(i) * phi).collect();
        for (l, &x) in loads.iter_mut().zip(&row) {
            *l += x;
        }
        rows.push(row);
    }
    let mut cert = Certificate::zero();
    for (j, row) in rows.iter().enumerate() {
        let (r, d) = user_regret(model.computer_rates(), &loads, row, model.user_rate(j));
        cert.absorb(r, d);
    }
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::epsilon_nash_gap;
    use crate::nash::nash_equilibrium;
    use crate::strategy::Strategy;

    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    /// Proportional split — feasible on every computer (loads sit at
    /// half capacity) but measurably short of the equilibrium.
    fn suboptimal_profile() -> StrategyProfile {
        StrategyProfile::replicated(Strategy::new(vec![0.125, 0.25, 0.625]).unwrap(), 2).unwrap()
    }

    #[test]
    fn certificate_bounds_the_exact_gap_for_a_bad_profile() {
        let m = model();
        let p = suboptimal_profile();
        let cert = profile_certificate(&m, &p).unwrap();
        let gap = epsilon_nash_gap(&m, &p).unwrap();
        assert!(gap > 1e-4, "proportional split should be improvable");
        assert!(
            cert.absolute >= gap,
            "certificate {} below exact gap {gap}",
            cert.absolute
        );
        assert!(cert.relative > 0.0 && cert.relative.is_finite());
    }

    #[test]
    fn certificate_vanishes_at_equilibrium() {
        let m = model();
        let out = nash_equilibrium(&m).unwrap();
        let cert = profile_certificate(&m, out.profile()).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(cert.absolute >= gap, "{} < {gap}", cert.absolute);
        assert!(cert.relative < 1e-3, "relative {}", cert.relative);
    }

    #[test]
    fn infinite_regret_on_a_saturated_profile_never_passes_for_converged() {
        // Uniform split overloads the μ = 10 computer (load 40/3 each
        // way beyond capacity): the certificate must be (∞, ∞), never a
        // NaN-laundered zero that a stopping rule would accept.
        let m = model();
        let p = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        let cert = profile_certificate(&m, &p).unwrap();
        assert!(cert.absolute.is_infinite());
        assert!(cert.relative.is_infinite());
        assert!(!StoppingRule::CertifiedGap { epsilon: 1e-4 }.accepts(1e-4, 0.0, 1.0, Some(&cert)));
    }

    #[test]
    fn certificate_relative_form_is_scale_invariant() {
        let base = model();
        let p = suboptimal_profile();
        let cert = profile_certificate(&base, &p).unwrap();
        for scale in [0.01, 100.0] {
            let scaled = SystemModel::new(
                base.computer_rates().iter().map(|r| r * scale).collect(),
                (0..base.num_users())
                    .map(|j| base.user_rate(j) * scale)
                    .collect(),
            )
            .unwrap();
            let sc = profile_certificate(&scaled, &p).unwrap();
            // Absolute regret carries the 1/scale unit; the relative
            // form does not move (up to fp rounding in the rescale).
            assert!(
                (sc.relative - cert.relative).abs() <= 1e-9 * cert.relative.max(1.0),
                "scale {scale}: {} vs {}",
                sc.relative,
                cert.relative
            );
            assert!(
                (sc.absolute * scale - cert.absolute).abs() <= 1e-9 * cert.absolute.max(1.0),
                "scale {scale}: absolute {} vs {}",
                sc.absolute,
                cert.absolute
            );
        }
    }

    #[test]
    fn saturated_support_certifies_nothing() {
        // Route flow onto a computer with no headroom: (∞, ∞).
        let (r, d) = user_regret(&[10.0, 20.0], &[10.0, 5.0], &[1.0, 0.0], 1.0);
        assert!(r.is_infinite() && d.is_infinite());
        // A saturated computer with no flow is merely unusable.
        let (r, d) = user_regret(&[10.0, 20.0], &[10.0, 5.0], &[0.0, 1.0], 1.0);
        assert!(r.is_finite() && d.is_finite());
    }

    #[test]
    fn rules_accept_what_they_should() {
        let cert_ok = Certificate {
            absolute: 1.0,
            relative: 5e-5,
        };
        let cert_bad = Certificate {
            absolute: 1.0,
            relative: 5e-3,
        };
        // Absolute: only the norm matters.
        assert!(StoppingRule::AbsoluteNorm.accepts(1e-4, 5e-5, 100.0, None));
        assert!(!StoppingRule::AbsoluteNorm.accepts(1e-4, 5e-3, 100.0, None));
        // Relative: the same norm passes or fails with the D scale.
        assert!(StoppingRule::RelativeNorm.accepts(1e-4, 5e-3, 100.0, None));
        assert!(!StoppingRule::RelativeNorm.accepts(1e-4, 5e-3, 1.0, None));
        // Certified: needs a certificate, thresholds its relative form.
        let rule = StoppingRule::CertifiedGap { epsilon: 1e-4 };
        assert!(rule.needs_certificate());
        assert!(!rule.accepts(1e-4, 0.0, 1.0, None));
        assert!(rule.accepts(1e-4, 1.0, 1.0, Some(&cert_ok)));
        assert!(!rule.accepts(1e-4, 0.0, 1.0, Some(&cert_bad)));
    }

    #[test]
    fn default_rule_is_certified_at_paper_epsilon() {
        assert_eq!(
            StoppingRule::default(),
            StoppingRule::CertifiedGap { epsilon: 1e-4 }
        );
        assert_eq!(StoppingRule::default().label(), "certified_gap");
    }

    #[test]
    fn relative_regret_conventions() {
        assert_eq!(relative_regret(0.5, 2.0), 0.25);
        assert_eq!(relative_regret(0.0, 0.0), 0.0);
        assert!(relative_regret(0.5, 0.0).is_infinite());
        // ∞/∞ must surface as ∞, not NaN (max-reductions drop NaN).
        assert!(relative_regret(f64::INFINITY, f64::INFINITY).is_infinite());
    }

    #[test]
    fn view_freshness_gates_on_age_and_version_agreement() {
        let gate = ViewFreshness {
            staleness_bound: 100,
        };
        // Age: inclusive bound, saturating below zero.
        assert!(gate.is_fresh(50, 150));
        assert!(!gate.is_fresh(49, 150));
        assert!(gate.is_fresh(200, 150), "future reports count as fresh");
        // Version agreement must be exact — newer, older, and
        // length-mismatched views all reject.
        let current = [3u64, 7, 1];
        assert!(gate.accepts(100, 150, &[3, 7, 1], &current));
        assert!(!gate.accepts(100, 150, &[3, 7, 2], &current));
        assert!(!gate.accepts(100, 150, &[3, 7], &current));
        // Both conditions must hold at once.
        assert!(!gate.accepts(0, 150, &[3, 7, 1], &current));
    }
}
