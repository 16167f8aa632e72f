//! The NASH distributed load-balancing algorithm (paper §3).
//!
//! Users update their strategies **round-robin**, each playing the exact
//! best reply ([`crate::best_reply`]) against the other users' current
//! strategies (a Gauss–Seidel greedy best-reply scheme). The iteration
//! norm is the paper's
//!
//! ```text
//! norm_l = Σ_j |D_j^{(l)} − D_j^{(l−1)}|
//! ```
//!
//! and the paper stops when `norm <= ε`. That absolute criterion is
//! scale-dependent (see [`crate::stopping`]), so it is no longer the
//! default: the solver stops on a certified relative ε-Nash gap
//! ([`crate::stopping::StoppingRule::CertifiedGap`]) computed each sweep
//! from the water-filling KKT residual, and the paper's rule remains
//! available as an explicit opt-in
//! ([`NashSolver::stopping_rule`] + [`crate::stopping::StoppingRule::AbsoluteNorm`])
//! for byte-identical figure reproduction.
//!
//! Two initializations from the paper:
//!
//! * **NASH_0** ([`Initialization::Zero`]) — start from the empty profile
//!   (`s = 0`); the first sweep builds strategies one user at a time, each
//!   seeing only the flows of users that already updated.
//! * **NASH_P** ([`Initialization::Proportional`]) — start from the
//!   proportional allocation `s_ji = μ_i / Σ_k μ_k`, which is close to the
//!   equilibrium and roughly halves the iteration count (Figures 2–3).
//!
//! A **Jacobi** update order (all users best-reply simultaneously against
//! the previous round) is provided for the ablation benches — and the
//! ablation is decisive: on the paper's Table-1 system Jacobi updates
//! *diverge* for three or more users (everyone piles onto the same
//! machines each round), while the paper's round-robin scheme converges
//! in every configuration tested. A randomized-order variant is also
//! available; it behaves like round-robin.

use crate::best_reply::{water_fill_flows_into, WaterFillScratch};
use crate::error::GameError;
use crate::model::SystemModel;
use crate::parallel::ParallelRunner;
use crate::response::user_response_times;
use crate::stopping::{user_regret, Certificate, StoppingRule};
use crate::strategy::{Strategy, StrategyProfile};
use lb_stats::IterationTrace;
use lb_telemetry::{Collector, SpanHandle};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Starting point of the best-reply iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum Initialization {
    /// NASH_0: the empty profile (`s_ji = 0` for all `j, i`).
    Zero,
    /// NASH_P: every user starts proportional to processing rates.
    Proportional,
    /// Start from a caller-supplied profile.
    Custom(StrategyProfile),
}

/// How users take turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOrder {
    /// The paper's scheme: users update one at a time, round-robin, each
    /// seeing the already-updated strategies of earlier users.
    GaussSeidel,
    /// Ablation: all users best-reply simultaneously to the previous
    /// round's profile. Can overshoot; not guaranteed stable.
    Jacobi,
    /// Ablation: sequential updates like Gauss–Seidel, but each sweep
    /// visits users in a fresh pseudo-random permutation derived from the
    /// seed (deterministic given the seed).
    RandomPermutation(u64),
}

/// Configuration and entry point for the NASH algorithm.
#[derive(Clone)]
pub struct NashSolver {
    init: Initialization,
    order: UpdateOrder,
    tolerance: f64,
    stopping: StoppingRule,
    max_iterations: u32,
    threads: usize,
    collector: Option<Arc<dyn Collector>>,
}

impl fmt::Debug for NashSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NashSolver")
            .field("init", &self.init)
            .field("order", &self.order)
            .field("tolerance", &self.tolerance)
            .field("stopping", &self.stopping)
            .field("max_iterations", &self.max_iterations)
            .field("threads", &self.threads)
            .field(
                "collector",
                &self.collector.as_ref().map(|_| "<dyn Collector>"),
            )
            .finish()
    }
}

impl NashSolver {
    /// Creates a solver with the paper's structure (Gauss–Seidel updates,
    /// at most 500 sweeps, ε = `1e-4`) but the scale-invariant
    /// [`StoppingRule::CertifiedGap`] criterion. Use
    /// [`NashSolver::stopping_rule`] with [`StoppingRule::AbsoluteNorm`]
    /// to reproduce the paper's stopping behavior exactly.
    pub fn new(init: Initialization) -> Self {
        Self {
            init,
            order: UpdateOrder::GaussSeidel,
            tolerance: 1e-4,
            stopping: StoppingRule::default(),
            max_iterations: 500,
            threads: 1,
            collector: None,
        }
    }

    /// Sets the convergence tolerance ε — the single accuracy knob for
    /// every stopping rule: the norm threshold under
    /// [`StoppingRule::AbsoluteNorm`], the relative-norm threshold under
    /// [`StoppingRule::RelativeNorm`], and (kept in sync automatically)
    /// the certified relative gap under [`StoppingRule::CertifiedGap`].
    pub fn tolerance(mut self, eps: f64) -> Self {
        self.tolerance = eps;
        if let StoppingRule::CertifiedGap { epsilon } = &mut self.stopping {
            *epsilon = eps;
        }
        self
    }

    /// Selects the stopping rule. Selecting
    /// [`StoppingRule::CertifiedGap`] also adopts its `epsilon` as the
    /// solver tolerance, so an explicit certified ε wins over an earlier
    /// [`NashSolver::tolerance`] call while a later `tolerance` call
    /// still retunes it — the two knobs can never disagree.
    pub fn stopping_rule(mut self, rule: StoppingRule) -> Self {
        if let StoppingRule::CertifiedGap { epsilon } = rule {
            self.tolerance = epsilon;
        }
        self.stopping = rule;
        self
    }

    /// Sets the iteration budget.
    pub fn max_iterations(mut self, iters: u32) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Selects Gauss–Seidel (paper) or Jacobi (ablation) updates.
    pub fn update_order(mut self, order: UpdateOrder) -> Self {
        self.order = order;
        self
    }

    /// Number of worker threads for the Jacobi sweep (clamped to ≥ 1).
    ///
    /// Only the Jacobi order parallelizes: its replies are all computed
    /// against the frozen previous round, so each is a pure function of
    /// that snapshot and the fan-out is bit-identical to the sequential
    /// sweep at any thread count. Gauss–Seidel is inherently sequential
    /// (each user sees earlier users' updates) and ignores this knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a telemetry collector. The solver then emits
    /// `solver.start`, one `solver.sweep` per iteration (iterate norm,
    /// max per-user `D_j` delta, water-fill prefix-size statistics,
    /// cumulative workspace-refresh count), and `solver.done`. Events
    /// are emitted strictly *after* the computation they describe, so
    /// results are bit-identical with or without a collector.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Runs the best-reply iteration to a Nash equilibrium.
    ///
    /// # Errors
    ///
    /// * [`GameError::ZeroIterationBudget`] when `max_iterations == 0` —
    ///   no sweep can run, so there is no norm to report and nothing that
    ///   could honestly converge.
    /// * [`GameError::DidNotConverge`] when the iteration budget runs out
    ///   (the partial result is lost; raise `max_iterations` or use
    ///   [`NashSolver::solve_partial`]).
    /// * [`GameError::InfeasibleBestReply`] if an update round leaves some
    ///   user without capacity (possible only under Jacobi overshoot).
    pub fn solve(&self, model: &SystemModel) -> Result<NashOutcome, GameError> {
        self.solve_inner(model, false)
    }

    /// Like [`NashSolver::solve`], but exhausting the iteration budget
    /// returns the best-so-far outcome (with
    /// [`NashOutcome::converged`]` == false`) instead of discarding it —
    /// the anytime entry point: pair with [`NashOutcome::certificates`]
    /// to read off how good the truncated profile provably is.
    ///
    /// # Errors
    ///
    /// Same as [`NashSolver::solve`] minus [`GameError::DidNotConverge`].
    pub fn solve_partial(&self, model: &SystemModel) -> Result<NashOutcome, GameError> {
        self.solve_inner(model, true)
    }

    fn solve_inner(
        &self,
        model: &SystemModel,
        allow_partial: bool,
    ) -> Result<NashOutcome, GameError> {
        if self.max_iterations == 0 {
            return Err(GameError::ZeroIterationBudget);
        }
        let m = model.num_users();
        let n = model.num_computers();
        let jacobi = matches!(self.order, UpdateOrder::Jacobi);
        let mut ws = Workspace::new(m, n, jacobi);

        // Seed the flow matrix. A row of zeros with `active = false` is
        // the NASH_0 "not yet initialized" state in which a user
        // contributes no flow.
        match &self.init {
            Initialization::Zero => {}
            Initialization::Proportional => {
                let total: f64 = model.computer_rates().iter().sum();
                for j in 0..m {
                    let phi = model.user_rate(j);
                    for (x, mu) in ws.flows.row_mut(j).iter_mut().zip(model.computer_rates()) {
                        *x = mu / total * phi;
                    }
                    ws.active[j] = true;
                }
            }
            Initialization::Custom(p) => {
                // Report whichever dimension actually mismatched — a
                // combined check used to blame the user count even when
                // only the computer count was wrong.
                if p.num_users() != m {
                    return Err(GameError::DimensionMismatch {
                        expected: m,
                        actual: p.num_users(),
                    });
                }
                if p.num_computers() != n {
                    return Err(GameError::DimensionMismatch {
                        expected: n,
                        actual: p.num_computers(),
                    });
                }
                for j in 0..m {
                    let phi = model.user_rate(j);
                    let s = p.strategy(j);
                    for (i, x) in ws.flows.row_mut(j).iter_mut().enumerate() {
                        *x = s.fraction(i) * phi;
                    }
                    ws.active[j] = true;
                }
            }
        };

        // D_j of the current profile (0 for uninitialized users, matching
        // the paper's zero start).
        ws.refresh_loads();
        for j in 0..m {
            ws.prev_d[j] = row_time(model, &ws.loads, ws.flows.row(j), model.user_rate(j));
        }
        let mut trace = IterationTrace::new();
        // One certificate per sweep when the rule needs them (empty for
        // the norm-based rules, which keeps the repro path cost-free).
        let mut certificates: Vec<Certificate> = Vec::new();

        // Resolved once: `None` (the default) keeps the hot loop on a
        // single pointer check per sweep.
        let collect = lb_telemetry::enabled(self.collector.as_ref());
        if let Some(c) = collect {
            c.emit(
                "solver.start",
                &[
                    ("init", init_label(&self.init).into()),
                    ("order", order_label(&self.order).into()),
                    ("users", m.into()),
                    ("computers", n.into()),
                    ("tolerance", self.tolerance.into()),
                    ("stopping", self.stopping.label().into()),
                    ("max_iterations", self.max_iterations.into()),
                    ("threads", self.threads.into()),
                ],
            );
        }
        // Causal span for the whole solve; `None` when collection is
        // off, so the span layer costs nothing on the default path.
        let solve_span = lb_telemetry::Span::root(
            self.collector.as_ref(),
            "solver.solve",
            &[
                ("init", init_label(&self.init).into()),
                ("order", order_label(&self.order).into()),
                ("users", m.into()),
                ("computers", n.into()),
            ],
        );

        for iter in 0..self.max_iterations {
            let sweep_span = solve_span
                .as_ref()
                .map(|s| s.child("solver.sweep", &[("iter", (iter + 1).into())]));
            let (norm, max_delta) = match self.order {
                UpdateOrder::GaussSeidel | UpdateOrder::RandomPermutation(_) => {
                    match self.order {
                        UpdateOrder::RandomPermutation(seed) => {
                            shuffled_users_into(&mut ws.sweep_order, m, seed ^ u64::from(iter));
                        }
                        _ => {
                            ws.sweep_order.clear();
                            ws.sweep_order.extend(0..m);
                        }
                    }
                    // One exact O(mn) refresh per sweep bounds the drift
                    // of the O(n) incremental load updates below.
                    ws.refresh_loads();
                    let mut norm = 0.0;
                    let mut max_delta = 0.0f64;
                    for idx in 0..m {
                        let j = ws.sweep_order[idx];
                        // One span per best-reply, so the critical path
                        // attributes sweep time to individual users. (If
                        // the reply errors, the span closes on drop.)
                        let reply_span = sweep_span
                            .as_ref()
                            .map(|s| s.child("solver.best_reply", &[("user", j.into())]));
                        let d_new = ws.update_user(model, j)?;
                        if let Some(span) = reply_span {
                            span.close_with(&[("d", d_new.into())]);
                        }
                        let delta = (d_new - ws.prev_d[j]).abs();
                        norm += delta;
                        max_delta = max_delta.max(delta);
                        ws.prev_d[j] = d_new;
                    }
                    (norm, max_delta)
                }
                UpdateOrder::Jacobi => {
                    // All replies answer the frozen previous round, so
                    // they are independent and (optionally) fan out
                    // across threads bit-identically.
                    ws.refresh_loads();
                    // Jacobi replies are one batch against the frozen
                    // round, so a single span covers all m of them.
                    let batch_span = sweep_span.as_ref().map(|s| {
                        s.child(
                            "solver.jacobi",
                            &[("users", m.into()), ("threads", self.threads.into())],
                        )
                    });
                    jacobi_replies(
                        model,
                        &ws.flows,
                        &ws.loads,
                        &mut ws.next_flows,
                        self.threads,
                    )?;
                    // One water-fill per user per Jacobi batch, whether
                    // the batch ran sequentially or fanned out.
                    ws.best_replies += m as u64;
                    ws.water_fills += m as u64;
                    if let Some(span) = batch_span {
                        span.close();
                    }
                    std::mem::swap(&mut ws.flows, &mut ws.next_flows);
                    ws.active.fill(true);
                    ws.refresh_loads();
                    let mut norm = 0.0;
                    let mut max_delta = 0.0f64;
                    for j in 0..m {
                        let d_new = row_time(model, &ws.loads, ws.flows.row(j), model.user_rate(j));
                        let delta = (d_new - ws.prev_d[j]).abs();
                        norm += delta;
                        max_delta = max_delta.max(delta);
                        ws.prev_d[j] = d_new;
                    }
                    (norm, max_delta)
                }
            };
            trace.push(norm);
            // The regret certificate reuses the loads/flows the sweep
            // just produced — O(mn), the same order as the sweep itself,
            // and no extra `refresh_loads` (collector-observable state
            // stays untouched).
            let certificate = if self.stopping.needs_certificate() {
                let cert = ws.certificate(model);
                certificates.push(cert);
                Some(cert)
            } else {
                None
            };
            let total_d: f64 = ws.prev_d.iter().sum();
            let converged =
                self.stopping
                    .accepts(self.tolerance, norm, total_d, certificate.as_ref());
            if let Some(c) = collect {
                // Payload assembly (an O(mn) prefix scan) happens only
                // with an enabled collector attached.
                let (p_min, p_max, p_mean) = ws.prefix_stats();
                let mut fields: Vec<lb_telemetry::Field> = vec![
                    ("iter", (iter + 1).into()),
                    ("norm", norm.into()),
                    ("max_d_delta", max_delta.into()),
                    ("wf_prefix_min", p_min.into()),
                    ("wf_prefix_max", p_max.into()),
                    ("wf_prefix_mean", p_mean.into()),
                    ("refreshes", ws.refreshes.into()),
                    ("stopping", self.stopping.label().into()),
                    ("converged", converged.into()),
                ];
                if let Some(cert) = &certificate {
                    fields.push(("cert_gap", cert.absolute.into()));
                    fields.push(("cert_rel", cert.relative.into()));
                }
                c.emit("solver.sweep", &fields);
            }
            if let Some(span) = sweep_span {
                span.close_with(&[("norm", norm.into()), ("converged", converged.into())]);
            }
            if converged {
                let profile = ws.assemble(model)?;
                let user_times = user_response_times(model, &profile)?;
                if let Some(c) = collect {
                    let mut fields: Vec<lb_telemetry::Field> = vec![
                        ("iterations", (iter + 1).into()),
                        ("converged", true.into()),
                        ("final_norm", norm.into()),
                        ("stopping", self.stopping.label().into()),
                    ];
                    if let Some(cert) = certificates.last() {
                        fields.push(("cert_gap", cert.absolute.into()));
                        fields.push(("cert_rel", cert.relative.into()));
                    }
                    c.emit("solver.done", &fields);
                    c.emit(
                        "account.solver",
                        &[
                            ("sweeps", (iter + 1).into()),
                            ("best_replies", ws.best_replies.into()),
                            ("water_fills", ws.water_fills.into()),
                            ("refreshes", ws.refreshes.into()),
                        ],
                    );
                }
                if let Some(span) = solve_span {
                    span.close_with(&[
                        ("iterations", (iter + 1).into()),
                        ("converged", true.into()),
                    ]);
                }
                return Ok(NashOutcome {
                    profile,
                    trace,
                    iterations: iter + 1,
                    converged: true,
                    user_times,
                    certificates,
                });
            }
        }
        let final_norm = trace.last().unwrap_or(f64::INFINITY);
        if let Some(c) = collect {
            let mut fields: Vec<lb_telemetry::Field> = vec![
                ("iterations", self.max_iterations.into()),
                ("converged", false.into()),
                ("final_norm", final_norm.into()),
                ("stopping", self.stopping.label().into()),
            ];
            if let Some(cert) = certificates.last() {
                fields.push(("cert_gap", cert.absolute.into()));
                fields.push(("cert_rel", cert.relative.into()));
            }
            c.emit("solver.done", &fields);
            c.emit(
                "account.solver",
                &[
                    ("sweeps", self.max_iterations.into()),
                    ("best_replies", ws.best_replies.into()),
                    ("water_fills", ws.water_fills.into()),
                    ("refreshes", ws.refreshes.into()),
                ],
            );
        }
        if let Some(span) = solve_span {
            span.close_with(&[
                ("iterations", self.max_iterations.into()),
                ("converged", false.into()),
            ]);
        }
        if allow_partial {
            let profile = ws.assemble(model)?;
            let user_times = user_response_times(model, &profile)?;
            return Ok(NashOutcome {
                profile,
                trace,
                iterations: self.max_iterations,
                converged: false,
                user_times,
                certificates,
            });
        }
        Err(GameError::DidNotConverge {
            iterations: self.max_iterations,
            final_norm,
        })
    }
}

/// Result of a NASH run (converged, or partial via
/// [`NashSolver::solve_partial`]).
#[derive(Debug, Clone)]
pub struct NashOutcome {
    profile: StrategyProfile,
    trace: IterationTrace,
    iterations: u32,
    converged: bool,
    user_times: Vec<f64>,
    certificates: Vec<Certificate>,
}

impl NashOutcome {
    /// The equilibrium strategy profile.
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// Per-iteration values of the convergence norm (Figure 2's series).
    pub fn trace(&self) -> &IterationTrace {
        &self.trace
    }

    /// Sweeps performed until convergence (Figure 3's metric).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Whether the stopping rule accepted (always true from
    /// [`NashSolver::solve`]; may be false from
    /// [`NashSolver::solve_partial`]).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Per-sweep regret certificates, in sweep order. Populated only
    /// under [`StoppingRule::CertifiedGap`] (empty for the norm rules,
    /// whose sweeps never compute one).
    pub fn certificates(&self) -> &[Certificate] {
        &self.certificates
    }

    /// The final sweep's regret certificate: a proved upper bound on the
    /// profile's ε-Nash gap (absolute and relative forms). `None` when
    /// the stopping rule did not compute certificates.
    pub fn certified_gap(&self) -> Option<Certificate> {
        self.certificates.last().copied()
    }

    /// Per-user expected response times `D_j` at the equilibrium.
    pub fn user_times(&self) -> &[f64] {
        &self.user_times
    }

    /// Consumes the outcome, returning the profile.
    pub fn into_profile(self) -> StrategyProfile {
        self.profile
    }
}

/// Contiguous row-major `m × n` flow storage. One allocation for the
/// whole matrix; row `j` is the `n`-wide slice at offset `j·n`. Replaces
/// the old `Vec<Vec<f64>>` rows: sweeps walk the matrix linearly (no
/// pointer chasing, hardware prefetch friendly) and the parallel Jacobi
/// fan-out splits `data` into disjoint row-aligned chunks directly.
struct FlowMatrix {
    data: Vec<f64>,
    /// Row stride (`n`).
    computers: usize,
}

impl FlowMatrix {
    fn new(users: usize, computers: usize) -> Self {
        Self {
            data: vec![0.0; users * computers],
            computers,
        }
    }

    fn num_users(&self) -> usize {
        self.data.len().checked_div(self.computers).unwrap_or(0)
    }

    fn row(&self, j: usize) -> &[f64] {
        &self.data[j * self.computers..(j + 1) * self.computers]
    }

    fn row_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.computers..(j + 1) * self.computers]
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.computers.max(1))
    }

    fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

/// Persistent solver scratch: one allocation set at `solve` entry, zero
/// heap traffic per sweep. Rows hold *absolute* flows `x_ji = s_ji φ_j`;
/// `loads` caches the per-computer aggregates `Σ_k x_ki` so each user
/// update costs O(n) (subtract the old row, solve, add the new row)
/// instead of the old O(mn) recompute.
struct Workspace {
    /// Per-user absolute flows, contiguous row-major (`m × n`).
    flows: FlowMatrix,
    /// Whether a user has played at least once (NASH_0 starts all-false).
    active: Vec<bool>,
    /// Aggregate flow per computer over all rows.
    loads: Vec<f64>,
    /// Scratch: available rates seen by the updating user.
    avail: Vec<f64>,
    /// Scratch: water-filling output row.
    reply: Vec<f64>,
    /// Reusable sort-index buffer for the water-filling kernel.
    wf: WaterFillScratch,
    /// Reusable sweep-order buffer (identity or shuffled).
    sweep_order: Vec<usize>,
    /// `D_j` after each user's latest update (the norm's reference).
    prev_d: Vec<f64>,
    /// Jacobi double buffer (zero rows unless the order is Jacobi).
    next_flows: FlowMatrix,
    /// Exact `loads` recomputes performed so far (telemetry's
    /// workspace-refresh marker; one per GS sweep, two per Jacobi).
    refreshes: u64,
    /// Best-reply computations performed (one per user per sweep).
    best_replies: u64,
    /// Water-fill invocations performed (one per best reply here; the
    /// sampled solver retries widened candidate sets, so there the two
    /// counters diverge).
    water_fills: u64,
}

impl Workspace {
    fn new(m: usize, n: usize, jacobi: bool) -> Self {
        Self {
            flows: FlowMatrix::new(m, n),
            active: vec![false; m],
            loads: vec![0.0; n],
            avail: vec![0.0; n],
            reply: Vec::with_capacity(n),
            wf: WaterFillScratch::default(),
            sweep_order: Vec::with_capacity(m),
            prev_d: vec![0.0; m],
            next_flows: if jacobi {
                FlowMatrix::new(m, n)
            } else {
                FlowMatrix::new(0, n)
            },
            refreshes: 0,
            best_replies: 0,
            water_fills: 0,
        }
    }

    /// Recomputes `loads` exactly from the rows (fixed row order, so the
    /// result is deterministic and incremental drift cannot accumulate
    /// across sweeps).
    fn refresh_loads(&mut self) {
        self.loads.fill(0.0);
        for row in self.flows.rows() {
            for (l, &x) in self.loads.iter_mut().zip(row) {
                *l += x;
            }
        }
        self.refreshes += 1;
    }

    /// Water-fill prefix sizes — how many computers each active user's
    /// reply actually touches — as (min, max, mean) over active users.
    /// Telemetry-only; never called on the disabled path.
    fn prefix_stats(&self) -> (u64, u64, f64) {
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut total = 0u64;
        let mut users = 0u64;
        for (row, &active) in self.flows.rows().zip(&self.active) {
            if !active {
                continue;
            }
            let prefix = row.iter().filter(|&&x| x > 0.0).count() as u64;
            min = min.min(prefix);
            max = max.max(prefix);
            total += prefix;
            users += 1;
        }
        if users == 0 {
            (0, 0, 0.0)
        } else {
            (min, max, total as f64 / users as f64)
        }
    }

    /// Gauss–Seidel step for user `j`: O(n) incremental availability,
    /// water-fill into the reuse buffer, O(n) load patch, row swap.
    /// Returns the user's new `D_j`.
    fn update_user(&mut self, model: &SystemModel, j: usize) -> Result<f64, GameError> {
        let n = self.loads.len();
        let phi = model.user_rate(j);
        {
            let row = self.flows.row(j);
            for (i, &flow) in row.iter().enumerate().take(n) {
                self.avail[i] = model.computer_rate(i) - (self.loads[i] - flow);
            }
        }
        self.best_replies += 1;
        self.water_fills += 1;
        water_fill_flows_into(&self.avail, phi, &mut self.wf, &mut self.reply)
            .map_err(|e| e.with_user(j))?;
        let row = self.flows.row_mut(j);
        for (i, &flow) in row.iter().enumerate().take(n) {
            self.loads[i] += self.reply[i] - flow;
        }
        row.copy_from_slice(&self.reply);
        self.active[j] = true;
        Ok(row_time(model, &self.loads, self.flows.row(j), phi))
    }

    /// The sweep's regret certificate from the current `(flows, loads)`
    /// state: each active user's Frank–Wolfe regret bound max-reduced
    /// into a [`Certificate`] (see [`crate::stopping`]). O(mn), reads
    /// the loads the sweep already maintains — no `refresh_loads`, so
    /// telemetry counters and solver state are unperturbed.
    fn certificate(&self, model: &SystemModel) -> Certificate {
        let mut cert = Certificate::zero();
        for (j, row) in self.flows.rows().enumerate() {
            if !self.active[j] {
                continue;
            }
            let (r, d) = user_regret(model.computer_rates(), &self.loads, row, model.user_rate(j));
            cert.absorb(r, d);
        }
        cert
    }

    /// Converts the flow rows back into a strategy profile.
    fn assemble(&self, model: &SystemModel) -> Result<StrategyProfile, GameError> {
        let mut rows = Vec::with_capacity(self.flows.num_users());
        for (j, row) in self.flows.rows().enumerate() {
            if !self.active[j] {
                return Err(GameError::InfeasibleStrategy {
                    reason: "user never initialized".into(),
                });
            }
            let phi = model.user_rate(j);
            rows.push(Strategy::new(row.iter().map(|x| x / phi).collect())?);
        }
        StrategyProfile::new(rows)
    }
}

/// `D_j` of the flow row `row` given the current aggregate `loads`
/// (zero rows — uninitialized users — naturally cost 0).
fn row_time(model: &SystemModel, loads: &[f64], row: &[f64], phi: f64) -> f64 {
    let mut d = 0.0;
    for (i, &x) in row.iter().enumerate() {
        if x > 0.0 {
            d += x / phi * lb_queueing::mm1::response_time(loads[i], model.computer_rate(i));
        }
    }
    d
}

/// Static label for the `solver.start` init field.
fn init_label(init: &Initialization) -> &'static str {
    match init {
        Initialization::Zero => "NASH_0",
        Initialization::Proportional => "NASH_P",
        Initialization::Custom(_) => "custom",
    }
}

/// Static label for the `solver.start` order field.
fn order_label(order: &UpdateOrder) -> &'static str {
    match order {
        UpdateOrder::GaussSeidel => "gauss_seidel",
        UpdateOrder::Jacobi => "jacobi",
        UpdateOrder::RandomPermutation(_) => "random_permutation",
    }
}

/// One standalone Jacobi round: every user's exact best reply to the
/// frozen `profile`, fanned out over up to `threads` workers. Replies
/// are pure functions of the snapshot, so the result is bit-identical
/// for any thread count. At a Nash equilibrium the round reproduces the
/// profile (up to solver tolerance), which makes it a cheap stability
/// probe; away from equilibrium it is the ablation step that diverges
/// for m ≥ 3 when iterated (see [`UpdateOrder::Jacobi`]).
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] when profile and model disagree.
/// * [`GameError::InfeasibleBestReply`] when some user lacks capacity
///   against the frozen profile (lowest-indexed user wins).
pub fn jacobi_round(
    model: &SystemModel,
    profile: &StrategyProfile,
    threads: usize,
) -> Result<StrategyProfile, GameError> {
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
    let mut ws = Workspace::new(m, n, true);
    for j in 0..m {
        let phi = model.user_rate(j);
        let s = profile.strategy(j);
        for (i, x) in ws.flows.row_mut(j).iter_mut().enumerate() {
            *x = s.fraction(i) * phi;
        }
        ws.active[j] = true;
    }
    ws.refresh_loads();
    jacobi_replies(model, &ws.flows, &ws.loads, &mut ws.next_flows, threads)?;
    std::mem::swap(&mut ws.flows, &mut ws.next_flows);
    ws.assemble(model)
}

/// Computes every user's Jacobi reply to the frozen `(flows, loads)`
/// snapshot into `next`. The contiguous flow matrix splits into up to
/// `threads` row-aligned chunks, one [`ParallelRunner`] task each (a
/// single chunk runs on the calling thread). Each reply is a pure
/// function of the snapshot, so the result is bit-identical for any
/// thread count, and the lowest-indexed failing user wins error
/// reporting.
fn jacobi_replies(
    model: &SystemModel,
    flows: &FlowMatrix,
    loads: &[f64],
    next: &mut FlowMatrix,
    threads: usize,
) -> Result<(), GameError> {
    let m = flows.num_users();
    let n = loads.len();
    let chunk = m.div_ceil(threads.max(1)).max(1);
    // Each task locks only its own chunk, once, so no lock is contended.
    let chunks: Vec<Mutex<&mut [f64]>> = next
        .data_mut()
        .chunks_mut(chunk * n)
        .map(Mutex::new)
        .collect();
    let replies = |t: usize, _: Option<&SpanHandle>| -> Result<(), GameError> {
        let mut rows = chunks[t]
            .lock()
            .expect("each chunk is locked once, by its own task");
        let mut avail = vec![0.0; n];
        let mut wf = WaterFillScratch::default();
        let mut reply: Vec<f64> = Vec::with_capacity(n);
        for (off, out_row) in rows.chunks_exact_mut(n).enumerate() {
            let j = t * chunk + off;
            let row = flows.row(j);
            for i in 0..n {
                avail[i] = model.computer_rate(i) - (loads[i] - row[i]);
            }
            water_fill_flows_into(&avail, model.user_rate(j), &mut wf, &mut reply)
                .map_err(|e| e.with_user(j))?;
            out_row.copy_from_slice(&reply);
        }
        Ok(())
    };
    ParallelRunner::new(threads).try_run(chunks.len(), replies, None, None)?;
    Ok(())
}

/// Deterministic Fisher–Yates permutation of `0..m` from a seed, written
/// into the reusable `order` buffer.
fn shuffled_users_into(order: &mut Vec<usize>, m: usize, seed: u64) {
    order.clear();
    order.extend(0..m);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..m).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
}

/// Convenience: computes the Nash equilibrium with NASH_P defaults.
///
/// # Errors
///
/// See [`NashSolver::solve`].
pub fn nash_equilibrium(model: &SystemModel) -> Result<NashOutcome, GameError> {
    NashSolver::new(Initialization::Proportional).solve(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::epsilon_nash_gap;

    fn small_model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    #[test]
    fn converges_from_both_initializations_to_same_point() {
        let model = small_model();
        let a = NashSolver::new(Initialization::Zero)
            .tolerance(1e-10)
            .solve(&model)
            .unwrap();
        let b = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-10)
            .solve(&model)
            .unwrap();
        assert!(a.converged() && b.converged());
        let dist = a.profile().max_l1_distance(b.profile()).unwrap();
        assert!(dist < 1e-4, "equilibria differ by {dist}");
    }

    #[test]
    fn outcome_is_epsilon_nash() {
        let model = small_model();
        let out = nash_equilibrium(&model).unwrap();
        let gap = epsilon_nash_gap(&model, out.profile()).unwrap();
        assert!(gap < 1e-3, "Nash gap {gap}");
    }

    #[test]
    fn profile_is_feasible_and_stable() {
        let model = small_model();
        let out = nash_equilibrium(&model).unwrap();
        out.profile().check_stability(&model).unwrap();
        for j in 0..2 {
            let sum: f64 = out.profile().strategy(j).fractions().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        assert_eq!(out.user_times().len(), 2);
        assert!(out.user_times().iter().all(|&d| d.is_finite() && d > 0.0));
    }

    #[test]
    fn proportional_init_converges_faster_on_table1() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let zero = NashSolver::new(Initialization::Zero)
            .tolerance(1e-4)
            .solve(&model)
            .unwrap();
        let prop = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-4)
            .solve(&model)
            .unwrap();
        assert!(
            prop.iterations() < zero.iterations(),
            "NASH_P ({}) should beat NASH_0 ({})",
            prop.iterations(),
            zero.iterations()
        );
    }

    #[test]
    fn trace_decays_to_tolerance() {
        // Norm semantics of the paper's rule: pinned to AbsoluteNorm
        // (the default certified rule stops on the gap, not the norm).
        let model = small_model();
        let out = NashSolver::new(Initialization::Zero)
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .tolerance(1e-6)
            .solve(&model)
            .unwrap();
        let trace = out.trace();
        assert_eq!(trace.len() as u32, out.iterations());
        assert!(trace.last().unwrap() <= 1e-6);
        // The norm decays overall (allow small non-monotonicity).
        assert!(trace.values()[0] > trace.last().unwrap());
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let model = SystemModel::table1_system(0.9).unwrap();
        let err = NashSolver::new(Initialization::Zero)
            .tolerance(1e-12)
            .max_iterations(2)
            .solve(&model)
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::DidNotConverge { iterations: 2, .. }
        ));
    }

    #[test]
    fn custom_initialization_works_and_checks_shape() {
        let model = small_model();
        let p = StrategyProfile::replicated(Strategy::uniform(3), 2).unwrap();
        let out = NashSolver::new(Initialization::Custom(p))
            .solve(&model)
            .unwrap();
        assert!(out.converged());
        // Wrong computer count: the error must report the computer
        // dimension (3 vs 2), not the (matching) user counts.
        let bad = StrategyProfile::replicated(Strategy::uniform(2), 2).unwrap();
        let err = NashSolver::new(Initialization::Custom(bad))
            .solve(&model)
            .unwrap_err();
        assert_eq!(
            err,
            GameError::DimensionMismatch {
                expected: 3,
                actual: 2
            }
        );
        // Wrong user count is still caught and reported as such.
        let bad = StrategyProfile::replicated(Strategy::uniform(3), 4).unwrap();
        let err = NashSolver::new(Initialization::Custom(bad))
            .solve(&model)
            .unwrap_err();
        assert_eq!(
            err,
            GameError::DimensionMismatch {
                expected: 2,
                actual: 4
            }
        );
    }

    #[test]
    fn jacobi_diverges_beyond_two_users_here() {
        // A key ablation supporting the paper's round-robin design: with
        // simultaneous (Jacobi) updates all users best-respond to the
        // same snapshot and pile onto the same machines; on the Table-1
        // system this oscillates into saturation for m >= 3 while the
        // paper's Gauss-Seidel scheme converges for every m tested.
        let model = SystemModel::with_equal_users(SystemModel::table1_rates(), 4, 0.6).unwrap();
        let err = NashSolver::new(Initialization::Proportional)
            .update_order(UpdateOrder::Jacobi)
            .tolerance(1e-4)
            .max_iterations(2000)
            .solve(&model)
            .unwrap_err();
        assert!(matches!(err, GameError::DidNotConverge { .. }));
        // Gauss-Seidel on the identical instance converges quickly.
        let ok = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-4)
            .solve(&model)
            .unwrap();
        assert!(ok.converged());
    }

    #[test]
    fn jacobi_reaches_the_same_equilibrium_here() {
        let model = small_model();
        let gs = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-10)
            .solve(&model)
            .unwrap();
        let jac = NashSolver::new(Initialization::Proportional)
            .update_order(UpdateOrder::Jacobi)
            .tolerance(1e-10)
            .max_iterations(2000)
            .solve(&model)
            .unwrap();
        let dist = gs.profile().max_l1_distance(jac.profile()).unwrap();
        assert!(dist < 1e-4, "Jacobi and Gauss-Seidel disagree by {dist}");
    }

    #[test]
    fn single_user_equilibrium_is_its_optimum() {
        // With one user the Nash equilibrium is just the user's optimum.
        let model = SystemModel::new(vec![10.0, 20.0], vec![12.0]).unwrap();
        let out = nash_equilibrium(&model).unwrap();
        let rates = model.computer_rates();
        let flows: Vec<f64> = out
            .profile()
            .strategy(0)
            .fractions()
            .iter()
            .map(|s| s * 12.0)
            .collect();
        assert!(crate::best_reply::satisfies_kkt(rates, &flows, 1e-6));
    }

    #[test]
    fn random_permutation_order_reaches_the_same_equilibrium() {
        let model = small_model();
        let gs = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-10)
            .solve(&model)
            .unwrap();
        for seed in [1u64, 42, 777] {
            let rp = NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::RandomPermutation(seed))
                .tolerance(1e-10)
                .solve(&model)
                .unwrap();
            let dist = gs.profile().max_l1_distance(rp.profile()).unwrap();
            assert!(dist < 1e-4, "seed {seed}: differs by {dist}");
        }
    }

    #[test]
    fn random_permutation_is_deterministic_per_seed() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let a = NashSolver::new(Initialization::Proportional)
            .update_order(UpdateOrder::RandomPermutation(9))
            .solve(&model)
            .unwrap();
        let b = NashSolver::new(Initialization::Proportional)
            .update_order(UpdateOrder::RandomPermutation(9))
            .solve(&model)
            .unwrap();
        assert_eq!(a.iterations(), b.iterations());
        assert_eq!(a.trace().values(), b.trace().values());
    }

    #[test]
    fn parallel_jacobi_sweep_is_bit_identical_to_sequential() {
        // Every Jacobi reply answers the frozen previous round, so the
        // fan-out must not change a single bit of the outcome no matter
        // how many workers compute it.
        let model = small_model();
        let reference = NashSolver::new(Initialization::Proportional)
            .update_order(UpdateOrder::Jacobi)
            .tolerance(1e-10)
            .max_iterations(2000)
            .solve(&model)
            .unwrap();
        for threads in [2, 3, 8] {
            let par = NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::Jacobi)
                .tolerance(1e-10)
                .max_iterations(2000)
                .threads(threads)
                .solve(&model)
                .unwrap();
            assert_eq!(
                par.iterations(),
                reference.iterations(),
                "{threads} threads"
            );
            for (a, b) in par.trace().values().iter().zip(reference.trace().values()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads: norm differs");
            }
            for j in 0..model.num_users() {
                let pa = par.profile().strategy(j);
                let pb = reference.profile().strategy(j);
                for i in 0..model.num_computers() {
                    assert_eq!(
                        pa.fraction(i).to_bits(),
                        pb.fraction(i).to_bits(),
                        "{threads} threads: s[{j}][{i}] differs"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_jacobi_divergence_matches_sequential() {
        // The divergence ablation must be thread-count independent too.
        let model = SystemModel::with_equal_users(SystemModel::table1_rates(), 4, 0.6).unwrap();
        for threads in [1, 8] {
            let err = NashSolver::new(Initialization::Proportional)
                .update_order(UpdateOrder::Jacobi)
                .tolerance(1e-4)
                .max_iterations(500)
                .threads(threads)
                .solve(&model)
                .unwrap_err();
            assert!(matches!(err, GameError::DidNotConverge { .. }));
        }
    }

    #[test]
    fn sampling_collector_does_not_perturb_the_solve() {
        use lb_telemetry::{MemoryCollector, SamplingCollector, SamplingConfig};

        let model = SystemModel::table1_system(0.6).unwrap();
        let plain = NashSolver::new(Initialization::Proportional)
            .solve(&model)
            .unwrap();
        // Aggressive 1/64 head sampling in front of the memory sink:
        // the solve must stay bit-identical (sampling only filters the
        // outbound event stream, never feeds back into the solver).
        let mem = Arc::new(MemoryCollector::default());
        let sampler: Arc<dyn Collector> = Arc::new(SamplingCollector::new(
            mem.clone(),
            SamplingConfig::new(0xBEEF, 1.0 / 64.0),
        ));
        let traced = NashSolver::new(Initialization::Proportional)
            .collector(sampler)
            .solve(&model)
            .unwrap();
        assert_eq!(traced.iterations(), plain.iterations());
        for (a, b) in traced.trace().values().iter().zip(plain.trace().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Always-keep classes survive any rate, so the terminal event
        // and the accounting snapshot are still present in the log.
        assert_eq!(mem.count("solver.done"), 1);
        assert_eq!(mem.count("account.solver"), 1);
    }

    #[test]
    fn collector_sees_every_sweep_and_does_not_perturb_the_solve() {
        use lb_telemetry::{FieldValue, MemoryCollector};

        let model = SystemModel::table1_system(0.6).unwrap();
        let plain = NashSolver::new(Initialization::Proportional)
            .solve(&model)
            .unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let traced = NashSolver::new(Initialization::Proportional)
            .collector(mem.clone())
            .solve(&model)
            .unwrap();

        // Bit-identical outcome with the collector attached.
        assert_eq!(traced.iterations(), plain.iterations());
        for (a, b) in traced.trace().values().iter().zip(plain.trace().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // One start, one sweep per iteration, one done, one accounting
        // snapshot whose counters match the solve's shape exactly: GS
        // does one best reply (= one water-fill) per user per sweep.
        assert_eq!(mem.count("solver.start"), 1);
        assert_eq!(mem.count("solver.sweep"), plain.iterations() as usize);
        assert_eq!(mem.count("solver.done"), 1);
        assert_eq!(mem.count("account.solver"), 1);
        let (_, acct) = mem
            .events()
            .into_iter()
            .find(|(name, _)| *name == "account.solver")
            .unwrap();
        let acct_u64 = |k: &str| match acct.iter().find(|(key, _)| *key == k).unwrap().1 {
            FieldValue::U64(v) => v,
            ref other => panic!("{k} field was {other:?}"),
        };
        let sweeps = u64::from(plain.iterations());
        let users = model.num_users() as u64;
        assert_eq!(acct_u64("sweeps"), sweeps);
        assert_eq!(acct_u64("best_replies"), sweeps * users);
        assert_eq!(acct_u64("water_fills"), sweeps * users);
        assert_eq!(acct_u64("refreshes"), sweeps + 1);

        // The sweep norms mirror the outcome's trace exactly.
        let events = mem.events();
        let norms: Vec<f64> = events
            .iter()
            .filter(|(name, _)| *name == "solver.sweep")
            .map(
                |(_, fields)| match fields.iter().find(|(k, _)| *k == "norm").unwrap().1 {
                    FieldValue::F64(v) => v,
                    ref other => panic!("norm field was {other:?}"),
                },
            )
            .collect();
        for (a, b) in norms.iter().zip(plain.trace().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Sweep payloads carry sensible convergence internals.
        let (_, last_sweep) = events
            .iter()
            .rev()
            .find(|(name, _)| *name == "solver.sweep")
            .unwrap();
        let field = |k: &str| {
            last_sweep
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(field("converged"), FieldValue::Bool(true));
        match (field("wf_prefix_min"), field("wf_prefix_max")) {
            (FieldValue::U64(min), FieldValue::U64(max)) => {
                assert!(min >= 1 && max <= model.num_computers() as u64 && min <= max);
            }
            other => panic!("prefix fields were {other:?}"),
        }
        match field("refreshes") {
            FieldValue::U64(r) => assert_eq!(r, u64::from(plain.iterations()) + 1),
            other => panic!("refreshes field was {other:?}"),
        }
        match (field("max_d_delta"), field("norm")) {
            (FieldValue::F64(max_d), FieldValue::F64(norm)) => {
                assert!(max_d <= norm, "max delta {max_d} exceeds norm {norm}");
            }
            other => panic!("delta fields were {other:?}"),
        }
    }

    #[test]
    fn solver_spans_form_a_complete_three_level_tree() {
        use lb_telemetry::{FieldValue, MemoryCollector, SPAN_CLOSE, SPAN_OPEN};

        let model = SystemModel::table1_system(0.6).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let outcome = NashSolver::new(Initialization::Proportional)
            .collector(mem.clone())
            .solve(&model)
            .unwrap();

        let events = mem.events();
        let field_u64 = |fields: &[lb_telemetry::Field], key: &str| -> Option<u64> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    FieldValue::U64(n) => *n,
                    other => panic!("field {key} was {other:?}"),
                })
        };
        let field_str = |fields: &[lb_telemetry::Field], key: &str| -> String {
            match &fields.iter().find(|(k, _)| *k == key).unwrap().1 {
                FieldValue::Str(s) => s.to_string(),
                other => panic!("field {key} was {other:?}"),
            }
        };

        // Every opened span closes.
        let opens: Vec<_> = events.iter().filter(|(n, _)| *n == SPAN_OPEN).collect();
        let closes = events.iter().filter(|(n, _)| *n == SPAN_CLOSE).count();
        assert_eq!(opens.len(), closes, "unbalanced span open/close");

        // Exactly one solve root, one sweep per iteration, and one
        // best_reply per (iteration, user) — all correctly parented.
        let iters = outcome.iterations() as usize;
        let m = model.num_users();
        let mut solve_id = None;
        let mut sweep_ids = std::collections::BTreeSet::new();
        let (mut sweeps, mut replies) = (0usize, 0usize);
        for (_, fields) in &opens {
            let id = field_u64(fields, "span").unwrap();
            let parent = field_u64(fields, "parent");
            match field_str(fields, "name").as_str() {
                "solver.solve" => {
                    assert!(solve_id.replace(id).is_none(), "two solve roots");
                    assert_eq!(parent, None);
                }
                "solver.sweep" => {
                    sweeps += 1;
                    sweep_ids.insert(id);
                    assert_eq!(parent, solve_id, "sweep not parented under solve");
                }
                "solver.best_reply" => {
                    replies += 1;
                    assert!(
                        sweep_ids.contains(&parent.unwrap()),
                        "best_reply not parented under a sweep"
                    );
                }
                other => panic!("unexpected span {other}"),
            }
        }
        assert_eq!(sweeps, iters);
        assert_eq!(replies, iters * m);
    }

    #[test]
    fn zero_iteration_budget_is_a_typed_error() {
        let model = small_model();
        let solver = NashSolver::new(Initialization::Proportional).max_iterations(0);
        assert_eq!(
            solver.solve(&model).unwrap_err(),
            GameError::ZeroIterationBudget
        );
        assert_eq!(
            solver.solve_partial(&model).unwrap_err(),
            GameError::ZeroIterationBudget
        );
    }

    #[test]
    fn solve_partial_keeps_the_truncated_outcome_and_its_certificates() {
        let model = SystemModel::table1_system(0.6).unwrap();
        // ε = 0 can never be met, so the budget is always exhausted.
        let out = NashSolver::new(Initialization::Proportional)
            .stopping_rule(StoppingRule::CertifiedGap { epsilon: 0.0 })
            .max_iterations(3)
            .solve_partial(&model)
            .unwrap();
        assert!(!out.converged());
        assert_eq!(out.iterations(), 3);
        assert_eq!(out.certificates().len(), 3);
        out.profile().check_stability(&model).unwrap();
        // The anytime guarantee improves with budget.
        let first = out.certificates()[0];
        let last = out.certified_gap().unwrap();
        assert!(last.relative <= first.relative, "{last:?} vs {first:?}");
        // `solve` on the same configuration refuses to hand back the
        // partial result.
        let err = NashSolver::new(Initialization::Proportional)
            .stopping_rule(StoppingRule::CertifiedGap { epsilon: 0.0 })
            .max_iterations(3)
            .solve(&model)
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::DidNotConverge { iterations: 3, .. }
        ));
    }

    #[test]
    fn certified_default_bounds_the_exact_gap() {
        let model = SystemModel::table1_system(0.6).unwrap();
        let out = nash_equilibrium(&model).unwrap();
        let cert = out.certified_gap().expect("default rule certifies");
        assert!(cert.relative <= 1e-4, "accepted at {}", cert.relative);
        let gap = epsilon_nash_gap(&model, out.profile()).unwrap();
        // Soundness of the reported bound (tiny slack for the solver's
        // incremental-load drift relative to the exact recompute).
        assert!(
            cert.absolute + 1e-9 * (1.0 + gap) >= gap,
            "certificate {} below exact gap {gap}",
            cert.absolute
        );
    }

    #[test]
    fn absolute_norm_is_scale_dependent_and_certified_rule_is_not() {
        // The headline bugfix regression test. Rescaling μ, φ → c·μ, c·φ
        // divides every response time by c, so the paper's absolute rule
        // changes meaning with the units while the game itself (the
        // equilibrium strategies, the sweep dynamics) is scale-free.
        let base = SystemModel::table1_system(0.6).unwrap();
        let scale = |c: f64| {
            SystemModel::new(
                base.computer_rates().iter().map(|r| r * c).collect(),
                base.user_rates().iter().map(|r| r * c).collect(),
            )
            .unwrap()
        };
        let absolute = |m: &SystemModel, budget: u32| {
            NashSolver::new(Initialization::Zero)
                .stopping_rule(StoppingRule::AbsoluteNorm)
                .tolerance(1e-4)
                .max_iterations(budget)
                .solve(m)
        };
        let base_run = absolute(&base, 500).unwrap();

        // 100× *down*: response times grow 100×, the same ε demands a
        // 100× tighter relative accuracy, and the budget that was ample
        // on the base instance is exhausted on the rescaled one.
        let err = absolute(&scale(0.01), base_run.iterations()).unwrap_err();
        assert!(matches!(err, GameError::DidNotConverge { .. }));

        // 10⁴× *up*: response times shrink 10⁴×, the first sweeps
        // already move less than ε, and the rule "converges" almost
        // immediately onto a provably much worse profile.
        let vac = absolute(&scale(1e4), 500).unwrap();
        assert!(
            vac.iterations() < base_run.iterations(),
            "vacuous run took {} sweeps vs {}",
            vac.iterations(),
            base_run.iterations()
        );
        let vac_cert = crate::stopping::profile_certificate(&scale(1e4), vac.profile()).unwrap();
        let base_cert = crate::stopping::profile_certificate(&base, base_run.profile()).unwrap();
        assert!(
            vac_cert.relative > 10.0 * base_cert.relative,
            "vacuous relative gap {} vs honest {}",
            vac_cert.relative,
            base_cert.relative
        );

        // The certified rule is scale-invariant: the same sweep count at
        // every scale, and the accepted profiles carry the same relative
        // guarantee.
        let certified = |m: &SystemModel| {
            NashSolver::new(Initialization::Zero)
                .stopping_rule(StoppingRule::CertifiedGap { epsilon: 1e-4 })
                .solve(m)
                .unwrap()
        };
        let reference = certified(&base);
        for c in [0.01, 1e4] {
            let run = certified(&scale(c));
            assert_eq!(run.iterations(), reference.iterations(), "scale {c}");
            assert!(run.certified_gap().unwrap().relative <= 1e-4, "scale {c}");
        }
    }

    #[test]
    fn sweep_telemetry_carries_the_certificate() {
        use lb_telemetry::{FieldValue, MemoryCollector};

        let model = small_model();
        let mem = Arc::new(MemoryCollector::default());
        let out = NashSolver::new(Initialization::Proportional)
            .collector(mem.clone())
            .solve(&model)
            .unwrap();
        let events = mem.events();
        let field = |fields: &[lb_telemetry::Field], k: &str| {
            fields
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
        };
        let (_, start) = events
            .iter()
            .find(|(name, _)| *name == "solver.start")
            .unwrap();
        assert_eq!(
            field(start, "stopping"),
            Some(FieldValue::Str("certified_gap".into()))
        );
        let (_, last_sweep) = events
            .iter()
            .rev()
            .find(|(name, _)| *name == "solver.sweep")
            .unwrap();
        match field(last_sweep, "cert_rel") {
            Some(FieldValue::F64(rel)) => {
                let cert = out.certified_gap().unwrap();
                assert_eq!(rel.to_bits(), cert.relative.to_bits());
                assert!(rel <= 1e-4);
            }
            other => panic!("cert_rel field was {other:?}"),
        }
        let (_, done) = events
            .iter()
            .find(|(name, _)| *name == "solver.done")
            .unwrap();
        assert!(field(done, "cert_gap").is_some());
        // The repro rule emits no certificate fields at all.
        let mem = Arc::new(MemoryCollector::default());
        NashSolver::new(Initialization::Proportional)
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .collector(mem.clone())
            .solve(&model)
            .unwrap();
        for (name, fields) in mem.events().iter() {
            if *name == "solver.sweep" {
                assert!(field(fields, "cert_rel").is_none());
            }
        }
    }

    #[test]
    fn many_users_converge_at_high_load() {
        // The paper observes convergence for up to 32 users; exercise 16
        // equal users at 80% utilization.
        let model = SystemModel::with_equal_users(SystemModel::table1_rates(), 16, 0.8).unwrap();
        let out = nash_equilibrium(&model).unwrap();
        assert!(out.converged());
        let gap = epsilon_nash_gap(&model, out.profile()).unwrap();
        assert!(gap < 1e-2, "gap {gap}");
    }
}
