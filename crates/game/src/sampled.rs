//! Power-of-k-choices best replies for web-scale instances.
//!
//! The dense solver ([`crate::nash::NashSolver`]) scans all `n`
//! computers in every best reply, which is the right call at the paper's
//! n=16 — but at the ROADMAP's n=10⁴ / m=10⁵ target an O(mn) sweep
//! touches 10⁹ floats. This module trades the exact scan for the
//! *power of k choices*: each user water-fills over its **current
//! support plus `k` freshly sampled candidate servers**, so a sweep
//! costs O(m·(k + |support|) + n log n) and the flow matrix stays
//! sparse. Sparsity is *enforced*, not assumed: the exact equilibrium of
//! the splittable game is dense (a tiny user water-fills a sliver onto
//! every server above its threshold), so each reply is additionally
//! capped to the best [`SampledNashSolver::max_support`] candidates by
//! availability, bounding memory at `m · max_support` entries while the
//! concentration error lands in the certificate like any other gap.
//!
//! Sampling makes the *update* inexact, so the solver never trusts it:
//! convergence is decided exclusively by the certified regret bound of
//! [`crate::stopping`], whose `min_i c_i` term ranges over **all** `n`
//! computers (an O(n log n) argsort per sweep plus an O(|support|) walk
//! per user). Flow parked on a poorly sampled support therefore shows up
//! as residual regret until the sampler finds the better servers — the
//! sampling error folds into the same certificate, and an accepted run
//! carries exactly the same ε-Nash guarantee as the dense solver.
//!
//! Two mechanisms keep the sweep dynamics stable at scale, where
//! thousands of near-identical small users make pure Gauss–Seidel
//! best replies oscillate: updates are **damped** (a fixed β = 0.5) so
//! each user only moves β of the way to its exact reply, and the
//! per-sweep update **order is shuffled** (deterministically, keyed by
//! `(seed, sweep)`) so that headroom released by one user's update is
//! re-absorbed by random users instead of piling onto whoever happens
//! to update next.
//! Neither changes what is accepted — acceptance is always the
//! certificate.
//!
//! Determinism: candidate draws and the order shuffle are keyed by
//! `(seed, sweep, user)` through a splitmix64 mix — never by thread —
//! and the only parallel phase (the certificate pass) is a
//! max-reduction, which is order-independent. Results are
//! byte-identical for any worker count, including the
//! `LB_SIM_THREADS` environment default.

use crate::best_reply::{damped_step, water_fill_flows_into, WaterFillScratch};
use crate::error::GameError;
use crate::model::SystemModel;
use crate::parallel::ParallelRunner;
use crate::stopping::{marginal_cost, Certificate};
use crate::strategy::{Strategy, StrategyProfile};
use lb_stats::splitmix64_finalize;
use lb_telemetry::{Collector, SpanHandle};
use std::fmt;
use std::sync::Arc;

/// A sparse flow row: `(computer index, flow)` pairs sorted by index.
pub(crate) type SparseRow = Vec<(u32, f64)>;

/// Best-reply step size β: each update moves the row to
/// `(1−β)·old + β·best reply`. Pure best replies oscillate at web
/// scale: with thousands of near-identical users, a momentary headroom
/// dip attracts an outsized grab from the next user in the sweep, which
/// re-creates the dip elsewhere, and the concentration cascades around
/// the system decaying far too slowly to certify. The blend attenuates
/// every hand-off by β, which collapses the oscillation mode while
/// leaving the fixed points untouched — `x = (1−β)x + β·BR(x)` holds
/// exactly when `x = BR(x)`, so a damped stationary point is still an
/// exact mutual best reply.
const DAMPING: f64 = 0.5;

/// Configuration and entry point for the sampled (power-of-k-choices)
/// best-reply solver.
#[derive(Clone)]
pub struct SampledNashSolver {
    k: usize,
    max_support: usize,
    seed: u64,
    epsilon: f64,
    max_sweeps: u32,
    threads: usize,
    collector: Option<Arc<dyn Collector>>,
}

impl fmt::Debug for SampledNashSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SampledNashSolver")
            .field("k", &self.k)
            .field("max_support", &self.max_support)
            .field("seed", &self.seed)
            .field("epsilon", &self.epsilon)
            .field("max_sweeps", &self.max_sweeps)
            .field("threads", &self.threads)
            .field(
                "collector",
                &self.collector.as_ref().map(|_| "<dyn Collector>"),
            )
            .finish()
    }
}

impl Default for SampledNashSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SampledNashSolver {
    /// A solver with the web-scale defaults: `k = 32` candidates per
    /// reply, certified relative gap ε = `1e-3`, at most 256 sweeps
    /// (many small users certify in a handful of sweeps; a few large
    /// *equal* users interfere maximally and need the long tail), worker
    /// count from `LB_SIM_THREADS` (auto when unset).
    pub fn new() -> Self {
        Self {
            k: 32,
            max_support: 256,
            seed: 0x5EED_CAFE,
            epsilon: 1e-3,
            max_sweeps: 256,
            threads: 0,
            collector: None,
        }
    }

    /// Candidate servers sampled per best reply (clamped to ≥ 1). The
    /// user's current support is always included on top.
    pub fn samples(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Support cap per user (clamped to ≥ 1). Water-filling for a user
    /// much smaller than the servers spreads flow over *every* candidate
    /// (the exact equilibrium of this game is dense), so without a cap
    /// supports grow by up to `k` servers per sweep toward `m·n` memory.
    /// The cap keeps only the top `max_support` candidates by available
    /// rate — the maximum-capacity subset, so it never breaks a
    /// feasibility the full candidate set had — and bounds the flow
    /// matrix at `m · max_support` entries. The concentration error this
    /// introduces (≈ `φ_j / (max_support · headroom)` relative regret)
    /// is *not* hidden: it shows up in the certificate like any other
    /// gap, so ε stays a proved bound. Raise the cap if a run stalls
    /// just above your ε.
    pub fn max_support(mut self, cap: usize) -> Self {
        self.max_support = cap.max(1);
        self
    }

    /// Seed for the deterministic candidate draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Certified relative ε-Nash gap at which the solver accepts
    /// (the sampled solver's only stopping criterion — a norm-based
    /// rule would be unsound here, since a sweep that samples badly can
    /// move nothing while far from equilibrium).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sweep budget.
    pub fn max_sweeps(mut self, sweeps: u32) -> Self {
        self.max_sweeps = sweeps;
        self
    }

    /// Worker count for the certificate pass. `0` (the default) sizes
    /// the pool with [`ParallelRunner::from_env`]: `LB_SIM_THREADS`
    /// unset, `0`, or `auto` use all cores; `1` forces sequential; any
    /// other `N` uses `N` workers. The result is byte-identical either
    /// way.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The certificate pass's pool: `threads` workers when set, else
    /// sized from the environment.
    fn runner(&self) -> ParallelRunner {
        match self.threads {
            0 => ParallelRunner::from_env(),
            n => ParallelRunner::new(n),
        }
    }

    /// Attaches a telemetry collector (`sampled.start`, one
    /// `sampled.sweep` per sweep with the certificate and support-size
    /// stats, `sampled.done`). Events are emitted after the computation
    /// they describe; results are bit-identical with or without one.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Runs sampled best-reply sweeps until the certified relative gap
    /// drops to ε.
    ///
    /// # Errors
    ///
    /// * [`GameError::ZeroIterationBudget`] when `max_sweeps == 0`.
    /// * [`GameError::DidNotConverge`] when the sweep budget runs out
    ///   (`final_norm` carries the last certified *relative* gap).
    /// * [`GameError::InfeasibleBestReply`] when even the full server
    ///   set cannot carry a user's demand (an infeasible model).
    pub fn solve(&self, model: &SystemModel) -> Result<SampledOutcome, GameError> {
        if self.max_sweeps == 0 {
            return Err(GameError::ZeroIterationBudget);
        }
        let m = model.num_users();
        let n = model.num_computers();
        let runner = self.runner();

        let mut rows: Vec<SparseRow> = vec![SparseRow::new(); m];
        let mut loads = vec![0.0; n];
        let mut prev_d = vec![0.0; m];
        let mut headroom = vec![0.0; n];
        let mut by_headroom: Vec<u32> = (0..n as u32).collect();
        let mut cand: Vec<u32> = Vec::new();
        let mut avail: Vec<f64> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        let mut eff: Vec<f64> = Vec::new();
        let mut picked: Vec<(u32, f64)> = Vec::new();
        let mut reply: Vec<f64> = Vec::new();
        let mut blend: Vec<f64> = Vec::new();
        let mut wf = WaterFillScratch::default();
        let mut certificates: Vec<Certificate> = Vec::new();

        let collect = lb_telemetry::enabled(self.collector.as_ref());
        if let Some(c) = collect {
            c.emit(
                "sampled.start",
                &[
                    ("users", m.into()),
                    ("computers", n.into()),
                    ("k", self.k.into()),
                    ("max_support", self.max_support.into()),
                    ("seed", self.seed.into()),
                    ("epsilon", self.epsilon.into()),
                    ("max_sweeps", self.max_sweeps.into()),
                    ("damping", DAMPING.into()),
                    ("threads", runner.threads().into()),
                ],
            );
        }

        let mut order_js: Vec<u32> = (0..m as u32).collect();
        // Resource accounting: one best reply per user per sweep, but
        // water-fill invocations also count feasibility-widening
        // retries, so the two diverge on under-sampled models.
        let mut best_replies: u64 = 0;
        let mut water_fills: u64 = 0;
        let mut iterations = 0;
        let mut converged = false;

        for sweep in 0..self.max_sweeps {
            iterations = sweep + 1;
            // Deterministic per-sweep shuffle of the update order
            // (Fisher–Yates keyed by `(seed, sweep)` — never by thread).
            // A *fixed* order lets concentration persist: when a user's
            // update releases excess flow from a server, the headroom
            // dip it leaves is re-absorbed by the users updating
            // immediately after it, so the excess hands off to the same
            // index-adjacent clique sweep after sweep instead of
            // dispersing. Rotating the order spreads each hand-off over
            // random users, pulling the worst per-user regret down to
            // the population mean.
            let shuf = draw_key(self.seed ^ 0x5355_4646_4C45_u64, sweep, 0);
            for t in (1..m).rev() {
                let r = (splitmix64(shuf.wrapping_add(t as u64)) % (t as u64 + 1)) as usize;
                order_js.swap(t, r);
            }
            let mut norm = 0.0;
            for &ju in &order_js {
                let j = ju as usize;
                best_replies += 1;
                let phi = model.user_rate(j);
                // Lift the user's own flow out of the aggregate so the
                // candidate availabilities are what *this* user sees.
                for &(i, x) in &rows[j] {
                    loads[i as usize] -= x;
                }
                // Candidate set: current support ∪ k fresh draws, with a
                // feasibility-widening loop — if the sampled capacity
                // cannot carry φ_j, double the draw until it can (the
                // full server set always can on a feasible model, since
                // the other users occupy Φ − φ_j < Σμ − φ_j).
                let mut draw = self.k;
                loop {
                    cand.clear();
                    cand.extend(rows[j].iter().map(|&(i, _)| i));
                    if draw >= n {
                        cand.clear();
                        cand.extend(0..n as u32);
                    } else {
                        let base = draw_key(self.seed, sweep, j as u64);
                        for t in 0..draw {
                            cand.push((splitmix64(base.wrapping_add(t as u64)) % n as u64) as u32);
                        }
                    }
                    cand.sort_unstable();
                    cand.dedup();
                    avail.clear();
                    avail.extend(
                        cand.iter()
                            .map(|&i| model.computer_rate(i as usize) - loads[i as usize]),
                    );
                    if cand.len() > self.max_support {
                        // Keep the top `max_support` candidates by
                        // availability — essentially the maximum-capacity
                        // subset, so any feasibility the full set had
                        // survives the cut. Newcomers are admitted with
                        // hysteresis: a fresh sample must beat an
                        // incumbent by a relative margin (ε/8, well
                        // inside the certification slack) to displace
                        // it. Without the margin, near-equalized
                        // headrooms make every sweep swap near-tied
                        // servers, and that churn sustains a staleness
                        // regret floor that never certifies.
                        let admit = 1.0 / (1.0 + self.epsilon / 8.0);
                        eff.clear();
                        for (p, &a) in avail.iter().enumerate() {
                            let incumbent =
                                rows[j].binary_search_by_key(&cand[p], |&(i, _)| i).is_ok();
                            eff.push(if incumbent { a } else { a * admit });
                        }
                        sel.clear();
                        sel.extend(0..cand.len() as u32);
                        sel.sort_unstable_by(|&p, &q| {
                            eff[q as usize]
                                .total_cmp(&eff[p as usize])
                                .then(cand[p as usize].cmp(&cand[q as usize]))
                        });
                        sel.truncate(self.max_support);
                        picked.clear();
                        picked.extend(sel.iter().map(|&p| (cand[p as usize], avail[p as usize])));
                        picked.sort_unstable_by_key(|&(i, _)| i);
                        cand.clear();
                        avail.clear();
                        for &(i, a) in &picked {
                            cand.push(i);
                            avail.push(a);
                        }
                    }
                    water_fills += 1;
                    match water_fill_flows_into(&avail, phi, &mut wf, &mut reply) {
                        Ok(()) => break,
                        Err(GameError::InfeasibleBestReply { .. }) if draw < n => {
                            draw = draw.saturating_mul(2).min(n);
                        }
                        Err(e) => return Err(e.with_user(j)),
                    }
                }
                // Damped step: `(1−β)·old + β·reply` over the selected
                // candidates (β = `DAMPING`). Dust below `1e-6·φ` is
                // dropped and the row rescaled to carry exactly φ_j
                // again — the rescale also reabsorbs the mass of any
                // entry the support cap evicted.
                let old = &rows[j];
                let mut p = 0usize;
                blend.clear();
                for (slot, &i) in cand.iter().enumerate() {
                    while p < old.len() && old[p].0 < i {
                        p += 1;
                    }
                    let x_old = if p < old.len() && old[p].0 == i {
                        old[p].1
                    } else {
                        0.0
                    };
                    blend.push(damped_step(x_old, reply[slot], DAMPING, phi));
                }
                let sum: f64 = blend.iter().sum();
                let scale = phi / sum;
                rows[j].clear();
                for (slot, &i) in cand.iter().enumerate() {
                    let x = scale * blend[slot];
                    if x > 0.0 {
                        rows[j].push((i, x));
                        loads[i as usize] += x;
                    }
                }
                let mut d = 0.0;
                for &(i, x) in &rows[j] {
                    d += x / phi / (model.computer_rate(i as usize) - loads[i as usize]);
                }
                norm += (d - prev_d[j]).abs();
                prev_d[j] = d;
            }

            // Certificate pass: exact min marginal cost over ALL n
            // computers per user — one argsort of headrooms, then each
            // user walks past its (tiny) support to the best outsider.
            for (h, (&mu, &l)) in headroom
                .iter_mut()
                .zip(model.computer_rates().iter().zip(&loads))
            {
                *h = mu - l;
            }
            by_headroom.sort_unstable_by(|&a, &b| {
                headroom[b as usize]
                    .total_cmp(&headroom[a as usize])
                    .then(a.cmp(&b))
            });
            let cert = sparse_certificate(model, &rows, &headroom, &by_headroom, &runner);
            certificates.push(cert);
            converged = cert.relative <= self.epsilon;
            if let Some(c) = collect {
                let (s_min, s_max, s_mean) = support_stats(&rows);
                c.emit(
                    "sampled.sweep",
                    &[
                        ("iter", iterations.into()),
                        ("norm", norm.into()),
                        ("cert_gap", cert.absolute.into()),
                        ("cert_rel", cert.relative.into()),
                        ("support_min", s_min.into()),
                        ("support_max", s_max.into()),
                        ("support_mean", s_mean.into()),
                        ("converged", converged.into()),
                    ],
                );
            }
            if converged {
                break;
            }
        }
        let final_rel = certificates.last().map_or(f64::INFINITY, |c| c.relative);
        if let Some(c) = collect {
            c.emit(
                "sampled.done",
                &[
                    ("iterations", iterations.into()),
                    ("converged", converged.into()),
                    ("cert_rel", final_rel.into()),
                ],
            );
            c.emit(
                "account.sampled",
                &[
                    ("sweeps", iterations.into()),
                    ("best_replies", best_replies.into()),
                    ("water_fills", water_fills.into()),
                ],
            );
        }
        if !converged {
            return Err(GameError::DidNotConverge {
                iterations,
                final_norm: final_rel,
            });
        }
        Ok(SampledOutcome {
            flows: rows,
            iterations,
            certificates,
        })
    }
}

/// Result of a sampled run. Flows stay sparse — at the web-scale target
/// a dense `m × n` profile would be 10⁹ floats, while equilibrium
/// supports are a handful of servers per user.
#[derive(Debug, Clone)]
pub struct SampledOutcome {
    flows: Vec<SparseRow>,
    iterations: u32,
    certificates: Vec<Certificate>,
}

impl SampledOutcome {
    /// Per-user sparse flow rows (`(computer, jobs/s)`, sorted by
    /// computer index).
    pub fn flows(&self) -> &[SparseRow] {
        &self.flows
    }

    /// Sweeps performed.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Whether the certified gap reached ε. Always `true`:
    /// [`SampledNashSolver::solve`] returns
    /// [`GameError::DidNotConverge`] on an exhausted budget, so every
    /// outcome it hands back has converged.
    pub fn converged(&self) -> bool {
        true
    }

    /// The final sweep's certificate — the proved ε-Nash bound the run
    /// was accepted at.
    pub fn certified_gap(&self) -> Certificate {
        *self
            .certificates
            .last()
            .expect("a returned outcome ran at least one sweep")
    }

    /// Total support size (number of nonzero flows across all users).
    pub fn support_size(&self) -> usize {
        self.flows.iter().map(Vec::len).sum()
    }

    /// Densifies into a [`StrategyProfile`] — for cross-checking against
    /// the dense solver on small instances. Don't call this at n=10⁴ /
    /// m=10⁵ (that's the dense representation this solver exists to
    /// avoid).
    ///
    /// # Errors
    ///
    /// Propagates strategy validation (cannot fire on a returned
    /// outcome's conserved flows).
    pub fn to_profile(&self, model: &SystemModel) -> Result<StrategyProfile, GameError> {
        let n = model.num_computers();
        let mut strategies = Vec::with_capacity(self.flows.len());
        for (j, row) in self.flows.iter().enumerate() {
            let phi = model.user_rate(j);
            let mut fractions = vec![0.0; n];
            for &(i, x) in row {
                fractions[i as usize] = x / phi;
            }
            strategies.push(Strategy::new(fractions)?);
        }
        StrategyProfile::new(strategies)
    }
}

/// One splitmix64 step — the draw stream is a pure function of
/// `(seed, sweep, user, t)`, never of thread or timing.
fn splitmix64(z: u64) -> u64 {
    splitmix64_finalize(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn draw_key(seed: u64, sweep: u32, user: u64) -> u64 {
    splitmix64(seed ^ splitmix64(u64::from(sweep)) ^ user.wrapping_mul(0xA24B_AED4_963E_E407))
}

fn support_stats(rows: &[SparseRow]) -> (u64, u64, f64) {
    let mut min = u64::MAX;
    let mut max = 0u64;
    let mut total = 0u64;
    for row in rows {
        let len = row.len() as u64;
        min = min.min(len);
        max = max.max(len);
        total += len;
    }
    if rows.is_empty() {
        (0, 0, 0.0)
    } else {
        (min, max, total as f64 / rows.len() as f64)
    }
}

/// One user's regret against the sparse state: the support loop plus a
/// walk down the headroom order to the best computer *outside* the
/// support (`min_i c_i` must range over all `n` for the bound to hold —
/// a cheaper support-only min would silently hide sampling error).
fn sparse_user_regret(
    phi: f64,
    row: &[(u32, f64)],
    headroom: &[f64],
    by_headroom: &[u32],
) -> (f64, f64) {
    let mut weighted = 0.0;
    let mut min_c = f64::INFINITY;
    let mut d = 0.0;
    for &(i, x) in row {
        let h = headroom[i as usize];
        if h <= 0.0 {
            return (f64::INFINITY, f64::INFINITY);
        }
        let c = marginal_cost(h, x);
        weighted += x / phi * c;
        d += x / phi / h;
        min_c = min_c.min(c);
    }
    for &i in by_headroom {
        let h = headroom[i as usize];
        if h <= 0.0 {
            break;
        }
        if row.binary_search_by_key(&i, |&(idx, _)| idx).is_err() {
            // Off-support cost is 1/h, minimized by the largest
            // headroom — the first outsider in descending order wins.
            min_c = min_c.min(1.0 / h);
            break;
        }
    }
    if !min_c.is_finite() {
        return (if weighted > 0.0 { f64::INFINITY } else { 0.0 }, d);
    }
    ((weighted - min_c).max(0.0), d)
}

/// The sweep certificate, max-reduced over users in one contiguous chunk
/// per `runner` worker. Max is order-independent, so the fan-out is
/// byte-identical to the sequential reduction at any worker count.
fn sparse_certificate(
    model: &SystemModel,
    rows: &[SparseRow],
    headroom: &[f64],
    by_headroom: &[u32],
    runner: &ParallelRunner,
) -> Certificate {
    let m = rows.len();
    let chunk = m.div_ceil(runner.threads()).max(1);
    let chunk_certificate = |t: usize, _: Option<&SpanHandle>| {
        let mut local = Certificate::zero();
        for (j, row) in rows.iter().enumerate().skip(t * chunk).take(chunk) {
            let (r, d) = sparse_user_regret(model.user_rate(j), row, headroom, by_headroom);
            local.absorb(r, d);
        }
        local
    };
    runner
        .run(m.div_ceil(chunk), chunk_certificate, None, None)
        .into_iter()
        .reduce(|a, b| Certificate {
            absolute: a.absolute.max(b.absolute),
            relative: a.relative.max(b.relative),
        })
        .unwrap_or_else(Certificate::zero)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::epsilon_nash_gap;
    use crate::nash::{Initialization, NashSolver};

    fn small_model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    fn assert_outcomes_bit_identical(a: &SampledOutcome, b: &SampledOutcome, label: &str) {
        assert_eq!(a.iterations(), b.iterations(), "{label}: iterations");
        for (ca, cb) in a.certificates.iter().zip(&b.certificates) {
            assert_eq!(
                ca.absolute.to_bits(),
                cb.absolute.to_bits(),
                "{label}: certificate"
            );
            assert_eq!(
                ca.relative.to_bits(),
                cb.relative.to_bits(),
                "{label}: certificate"
            );
        }
        assert_eq!(a.flows().len(), b.flows().len(), "{label}: users");
        for (ra, rb) in a.flows().iter().zip(b.flows()) {
            assert_eq!(ra.len(), rb.len(), "{label}: support size");
            for (&(ia, xa), &(ib, xb)) in ra.iter().zip(rb) {
                assert_eq!(ia, ib, "{label}: support index");
                assert_eq!(xa.to_bits(), xb.to_bits(), "{label}: flow bits");
            }
        }
    }

    #[test]
    fn converges_and_certificate_bounds_the_exact_gap() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let out = SampledNashSolver::new()
            .epsilon(1e-4)
            .solve(&model)
            .unwrap();
        let cert = out.certified_gap();
        assert!(cert.relative <= 1e-4);
        let profile = out.to_profile(&model).unwrap();
        let gap = epsilon_nash_gap(&model, &profile).unwrap();
        assert!(
            cert.absolute + 1e-9 * (1.0 + gap) >= gap,
            "certificate {} below exact gap {gap}",
            cert.absolute
        );
    }

    #[test]
    fn agrees_with_the_dense_solver() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let dense = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-8)
            .max_iterations(2000)
            .solve(&model)
            .unwrap();
        let sampled = SampledNashSolver::new()
            .epsilon(1e-8)
            .max_sweeps(2000)
            .solve(&model)
            .unwrap();
        let profile = sampled.to_profile(&model).unwrap();
        let dist = dense.profile().max_l1_distance(&profile).unwrap();
        assert!(dist < 1e-3, "solvers disagree by {dist}");
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        let model = SystemModel::with_equal_users(SystemModel::table1_rates(), 12, 0.7).unwrap();
        let reference = SampledNashSolver::new().threads(1).solve(&model).unwrap();
        for threads in [2, 8] {
            let run = SampledNashSolver::new()
                .threads(threads)
                .solve(&model)
                .unwrap();
            assert_outcomes_bit_identical(&reference, &run, &format!("{threads} threads"));
        }
    }

    #[test]
    fn lb_sim_threads_env_controls_the_default_and_preserves_bits() {
        // One test mutates the env var (serially, restoring it) so the
        // knob named in the docs is actually exercised end to end.
        let model = small_model();
        let saved = std::env::var("LB_SIM_THREADS").ok();
        let mut runs = Vec::new();
        for v in ["1", "2", "8"] {
            std::env::set_var("LB_SIM_THREADS", v);
            let runner = SampledNashSolver::new().runner();
            assert_eq!(runner.threads(), v.parse::<usize>().unwrap());
            runs.push(SampledNashSolver::new().solve(&model).unwrap());
        }
        match saved {
            Some(v) => std::env::set_var("LB_SIM_THREADS", v),
            None => std::env::remove_var("LB_SIM_THREADS"),
        }
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_outcomes_bit_identical(&runs[0], run, &format!("env run {i}"));
        }
        let runner = SampledNashSolver::new().threads(3).runner();
        assert!(runner.threads() == 3, "explicit threads beat the env");
    }

    #[test]
    fn seed_is_deterministic_and_different_seeds_still_converge() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let a = SampledNashSolver::new().seed(7).solve(&model).unwrap();
        let b = SampledNashSolver::new().seed(7).solve(&model).unwrap();
        assert_outcomes_bit_identical(&a, &b, "same seed");
        let c = SampledNashSolver::new().seed(8).solve(&model).unwrap();
        assert!(c.certified_gap().relative <= 1e-3);
    }

    #[test]
    fn widening_recovers_from_an_undersampled_candidate_set() {
        // One server cannot carry φ = 25, so k = 1 must widen (support
        // starts empty on the first reply: the single draw is the whole
        // candidate set until the doubling kicks in).
        let model = SystemModel::new(vec![10.0; 4], vec![25.0]).unwrap();
        let out = SampledNashSolver::new().samples(1).solve(&model).unwrap();
        assert!(out.flows()[0].len() >= 3, "needs ≥ 3 servers for φ = 25");
        let total: f64 = out.flows()[0].iter().map(|&(_, x)| x).sum();
        assert!((total - 25.0).abs() < 1e-9);
    }

    #[test]
    fn scale_invariant_stopping() {
        let base = SystemModel::table1_system(0.6).unwrap();
        let reference = SampledNashSolver::new().solve(&base).unwrap();
        for c in [0.01, 100.0] {
            let scaled = SystemModel::new(
                base.computer_rates().iter().map(|r| r * c).collect(),
                base.user_rates().iter().map(|r| r * c).collect(),
            )
            .unwrap();
            let run = SampledNashSolver::new().solve(&scaled).unwrap();
            assert_eq!(run.iterations(), reference.iterations(), "scale {c}");
            assert!(run.certified_gap().relative <= 1e-3, "scale {c}");
        }
    }

    #[test]
    fn zero_sweep_budget_is_a_typed_error() {
        let model = small_model();
        assert_eq!(
            SampledNashSolver::new()
                .max_sweeps(0)
                .solve(&model)
                .unwrap_err(),
            GameError::ZeroIterationBudget
        );
        // ε = 0 is never certified, so a positive budget runs out.
        let err = SampledNashSolver::new()
            .epsilon(0.0)
            .max_sweeps(3)
            .solve(&SystemModel::table1_system(0.6).unwrap())
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::DidNotConverge { iterations: 3, .. }
        ));
    }

    #[test]
    fn sweep_telemetry_reports_certificates_and_supports() {
        use lb_telemetry::{FieldValue, MemoryCollector};
        let model = SystemModel::table1_system(0.6).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let out = SampledNashSolver::new()
            .collector(mem.clone())
            .solve(&model)
            .unwrap();
        assert_eq!(mem.count("sampled.start"), 1);
        assert_eq!(mem.count("sampled.sweep"), out.iterations() as usize);
        assert_eq!(mem.count("sampled.done"), 1);
        assert_eq!(mem.count("account.sampled"), 1);
        let events = mem.events();
        let (_, acct) = events
            .iter()
            .find(|(name, _)| *name == "account.sampled")
            .unwrap();
        let acct_u64 = |k: &str| match acct.iter().find(|(key, _)| *key == k).unwrap().1 {
            FieldValue::U64(v) => v,
            ref other => panic!("{k} field was {other:?}"),
        };
        let expected_replies = u64::from(out.iterations()) * model.num_users() as u64;
        assert_eq!(acct_u64("best_replies"), expected_replies);
        assert!(
            acct_u64("water_fills") >= expected_replies,
            "widening retries only ever add water-fills"
        );
        let (_, last_sweep) = events
            .iter()
            .rev()
            .find(|(name, _)| *name == "sampled.sweep")
            .unwrap();
        let field = |k: &str| {
            last_sweep
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        match field("cert_rel") {
            FieldValue::F64(rel) => {
                assert_eq!(rel.to_bits(), out.certified_gap().relative.to_bits());
            }
            other => panic!("cert_rel was {other:?}"),
        }
        assert_eq!(field("converged"), FieldValue::Bool(true));
        match field("support_max") {
            FieldValue::U64(s) => assert!(s >= 1 && s <= model.num_computers() as u64),
            other => panic!("support_max was {other:?}"),
        }
        // Attaching the collector must not perturb the solve.
        let plain = SampledNashSolver::new().solve(&model).unwrap();
        assert_outcomes_bit_identical(&plain, &out, "collector attached");
    }

    fn many_small_users(n: usize, m: usize, rho: f64) -> SystemModel {
        let rates: Vec<f64> = (0..n).map(|i| 10.0 + (i % 97) as f64).collect();
        let total: f64 = rates.iter().sum();
        let phi = rho * total / m as f64;
        SystemModel::new(rates, vec![phi; m]).unwrap()
    }

    #[test]
    fn capped_instance_stays_sparse_and_certifies() {
        // m ≫ n small users force the support cap to bind (the exact
        // equilibrium is dense), sized to stay fast in debug builds; the
        // full-shape rehearsal below and the n=10⁴/m=10⁵ bench run the
        // same assertions at scale. Utilization 0.3 keeps the cap's
        // structural regret floor (≈ ρ/(1−ρ) · n/(m·cap)) well under ε.
        let model = many_small_users(100, 1000, 0.3);
        let out = SampledNashSolver::new()
            .max_support(64)
            .solve(&model)
            .unwrap();
        assert!(out.certified_gap().relative <= 1e-3);
        assert!(
            out.flows().iter().map(Vec::len).max().unwrap() <= 64,
            "a row exceeded the cap"
        );
    }

    #[test]
    #[ignore = "release-build soak: ~3 s optimized, minutes unoptimized"]
    fn large_instance_stays_sparse_and_certifies() {
        // A scaled-down rehearsal of the web-scale shape (the full
        // n=10⁴/m=10⁵ instance is lb-bench's `web_scale` target): m ≫ n
        // small users, supports bounded by the default cap, acceptance
        // on a certified bound.
        let m = 4000;
        let model = many_small_users(400, m, 0.6);
        let out = SampledNashSolver::new().solve(&model).unwrap();
        assert!(out.certified_gap().relative <= 1e-3);
        let mean_support = out.support_size() as f64 / m as f64;
        assert!(
            mean_support <= 256.0,
            "support cap violated: mean {mean_support}"
        );
        assert!(
            out.flows().iter().map(Vec::len).max().unwrap() <= 256,
            "a row exceeded the cap"
        );
    }
}
