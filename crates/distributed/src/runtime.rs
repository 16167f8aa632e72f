//! The fault-tolerant token-ring runtime for the distributed NASH
//! algorithm.
//!
//! The ring is a sequential discrete-event simulation over
//! [`crate::net::VirtualNet`]: users `0..m` and a coordinator (node `m`)
//! exchange the token, progress notes and reconfigurations as messages
//! with one constant virtual delay. The control token
//! ([`crate::messages::Token`]) circulates round-robin exactly as in the
//! paper's pseudocode; strategies are *never* exchanged — users observe
//! each other only through the shared [`crate::board::LoadBoard`],
//! matching the paper's run-queue-inspection model. The ring tail (the
//! highest-indexed live user) owns the convergence test and initiates a
//! final terminate lap; every user then reports its strategy to the
//! coordinator and stops. Timeouts and injected delays run on the
//! virtual clock, so a run is a pure function of (model, configuration,
//! fault plan) and never waits on the host's clock.
//!
//! # Failure model
//!
//! Unlike the paper's idealized protocol, this runtime survives crash,
//! omission and timing faults (injectable deterministically via
//! [`crate::fault::FaultPlan`]):
//!
//! * every token forward is announced to the coordinator, which tracks
//!   the expected holder; when no note reaches it for
//!   [`DistributedNash::round_timeout`] of virtual time, the holder is
//!   declared failed, its board row is zeroed, the ring is spliced
//!   around it, and the token is regenerated under a new *epoch* (stale
//!   tokens from the old epoch are dropped on receipt);
//! * a stopped node refuses sends, and each user also knows its
//!   successor's successor: when a forward is refused, the user splices
//!   around the stopped successor immediately and tells the
//!   coordinator, without waiting for the timeout;
//! * survivors then re-converge on the residual capacity, and the
//!   [`DistributedOutcome`] names the failed users instead of discarding
//!   the partial result;
//! * *computer* failures (crash / degrade / recover, injected as
//!   [`crate::capacity::CapacityEvent`]s through the plan) are applied by
//!   the coordinator between rounds: it updates the capacity vector,
//!   zeroes crashed computers' board columns, runs the configured
//!   [`OverloadPolicy`] to shed load if the survivors cannot carry the
//!   nominal demand, bumps the epoch and reconfigures every user with
//!   the new rates before regenerating the token. The admission
//!   decisions are logged as the outcome's
//!   [`shed trajectory`](DistributedOutcome::shed_trajectory). Capacity
//!   events scheduled at or after the round that decides termination are
//!   ignored (the ring is already draining).
//!
//! The failure detector is timeout-based and therefore *not* perfect: a
//! user that is merely slower than `round_timeout` (e.g. a
//! [`crate::fault::FaultAction::DelayForward`] longer than the patience)
//! is declared failed, stopped, and excluded like a real crash. That is
//! the standard trade-off of synchronous-detector designs.

use crate::board::LoadBoard;
use crate::capacity::{CapacityEvent, ShedRecord};
use crate::fault::{FaultAction, FaultPlan};
use crate::messages::{Termination, Token};
use crate::net::{NetFaultPlan, VirtualNet};
use crate::observer::{ObservationModel, Observer};
use lb_game::best_reply::water_fill_flows;
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::overload::{shed_to_feasible, OverloadPolicy};
use lb_game::stopping::{placed_user_regret, relative_regret};
use lb_game::strategy::{Strategy, StrategyProfile};
use lb_game::{Certificate, StoppingRule};
use lb_stats::IterationTrace;
use lb_telemetry::{Collector, Field, Span};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Virtual delay of every ring message, µs. One constant delay on every
/// link keeps each link FIFO (the network orders deliveries by time,
/// then by send order), so a user always sees its `Reconfigure` before
/// any token of the new epoch.
const HOP_US: u64 = 100;

/// A duration as virtual microseconds, rounded up so that a non-zero
/// duration stays non-zero, and saturated at `u64::MAX`.
fn virtual_us(d: Duration) -> u64 {
    u64::try_from(d.as_nanos().div_ceil(1_000)).unwrap_or(u64::MAX)
}

/// Initial board state, mirroring the paper's two NASH variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingInit {
    /// NASH_0: the board starts empty.
    Zero,
    /// NASH_P: every user starts with the proportional flow split.
    Proportional,
}

/// Configuration for a distributed NASH run.
#[derive(Clone)]
pub struct DistributedNash {
    init: RingInit,
    observation: ObservationModel,
    tolerance: f64,
    stopping: StoppingRule,
    max_rounds: u32,
    round_timeout: Duration,
    run_deadline: Option<Duration>,
    faults: FaultPlan,
    overload_policy: OverloadPolicy,
    collector: Option<Arc<dyn Collector>>,
}

impl fmt::Debug for DistributedNash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedNash")
            .field("init", &self.init)
            .field("observation", &self.observation)
            .field("tolerance", &self.tolerance)
            .field("stopping", &self.stopping)
            .field("max_rounds", &self.max_rounds)
            .field("round_timeout", &self.round_timeout)
            .field("run_deadline", &self.run_deadline)
            .field("faults", &self.faults)
            .field("overload_policy", &self.overload_policy)
            .field(
                "collector",
                &self.collector.as_ref().map(|_| "<dyn Collector>"),
            )
            .finish()
    }
}

impl DistributedNash {
    /// Paper defaults: NASH_P start, exact observation, ε = 1e-4, at most
    /// 500 rounds, a 5 s token timeout, no overall deadline, no faults,
    /// and the [`OverloadPolicy::Reject`] overload policy.
    pub fn new() -> Self {
        Self {
            init: RingInit::Proportional,
            observation: ObservationModel::Exact,
            tolerance: 1e-4,
            stopping: StoppingRule::default(),
            max_rounds: 500,
            round_timeout: Duration::from_secs(5),
            run_deadline: None,
            faults: FaultPlan::new(),
            overload_policy: OverloadPolicy::Reject,
            collector: None,
        }
    }

    /// Selects the initial board state.
    pub fn init(mut self, init: RingInit) -> Self {
        self.init = init;
        self
    }

    /// Selects how users observe available rates.
    pub fn observation(mut self, model: ObservationModel) -> Self {
        self.observation = model;
        self
    }

    /// Sets the convergence tolerance ε. Under the default
    /// [`StoppingRule::CertifiedGap`] this is the certified relative
    /// gap; under the norm rules it is the norm threshold.
    pub fn tolerance(mut self, eps: f64) -> Self {
        self.tolerance = eps;
        if let StoppingRule::CertifiedGap { epsilon } = &mut self.stopping {
            *epsilon = eps;
        }
        self
    }

    /// Selects the ring tail's convergence criterion. Passing
    /// [`StoppingRule::CertifiedGap`] also adopts its ε as the
    /// tolerance, mirroring [`lb_game::nash::NashSolver`].
    pub fn stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.stopping = rule;
        if let StoppingRule::CertifiedGap { epsilon } = rule {
            self.tolerance = epsilon;
        }
        self
    }

    /// Sets the round budget.
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Sets the failure detector's patience, in virtual time: if no
    /// progress note reaches the coordinator for this long, it declares
    /// the expected token holder failed and regenerates the token. Must
    /// exceed every delay the plan injects into a healthy user.
    pub fn round_timeout(mut self, timeout: Duration) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets a hard deadline for the whole run, in virtual time. When it
    /// expires, `run` returns [`GameError::RingTimeout`] instead of
    /// continuing to repair.
    pub fn run_deadline(mut self, deadline: Duration) -> Self {
        self.run_deadline = Some(deadline);
        self
    }

    /// Installs a deterministic fault-injection plan (see
    /// [`crate::fault`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Selects what the coordinator does when capacity churn makes the
    /// nominal demand infeasible: abort with [`GameError::Overloaded`]
    /// ([`OverloadPolicy::Reject`], the default) or shed load and keep
    /// running ([`OverloadPolicy::ShedProportional`] /
    /// [`OverloadPolicy::ShedMaxMin`]).
    pub fn overload_policy(mut self, policy: OverloadPolicy) -> Self {
        self.overload_policy = policy;
        self
    }

    /// Attaches a telemetry collector. The coordinator then emits the
    /// `ring.*` event family — `ring.start`, one `ring.hop` per token
    /// forward, `ring.round` per completed round, plus `ring.splice`,
    /// `ring.fault`, `ring.token_lost`, `ring.capacity`, `ring.shed`,
    /// `ring.epoch`, `ring.report` and `ring.done` as the run unfolds.
    /// All events are emitted by the coordinator node *after* the
    /// state change they describe, so the run's results (trace, profile,
    /// shed trajectory) are identical with or without a collector.
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Runs the ring to termination and collects the outcome, treating an
    /// exhausted round budget as an error (the historical behavior).
    ///
    /// # Errors
    ///
    /// * [`GameError::DidNotConverge`] when the round budget ran out.
    /// * [`GameError::RingTimeout`] when the deadline expired or no users
    ///   survived to produce a result.
    /// * [`GameError::InfeasibleStrategy`] on protocol violations
    ///   (duplicate or missing reports).
    pub fn run(&self, model: &SystemModel) -> Result<DistributedOutcome, GameError> {
        let outcome = self.run_to_outcome(model)?;
        if outcome.termination() == Termination::Exhausted {
            return Err(GameError::DidNotConverge {
                iterations: outcome.rounds(),
                final_norm: outcome.trace().last().unwrap_or(f64::INFINITY),
            });
        }
        Ok(outcome)
    }

    /// Runs the ring to termination and returns the outcome even when
    /// the round budget was exhausted ([`Termination::Exhausted`]), so
    /// callers can inspect the partial state instead of discarding it.
    ///
    /// # Errors
    ///
    /// * [`GameError::ZeroIterationBudget`] when `max_rounds == 0`, and
    ///   [`GameError::ZeroDuration`] when `round_timeout` or
    ///   `run_deadline` is zero — such a run could not be reported
    ///   honestly, so it is rejected before any message is sent.
    /// * [`GameError::RingTimeout`] when the deadline expired or no users
    ///   survived to produce a result.
    /// * [`GameError::InfeasibleStrategy`] on protocol violations
    ///   (duplicate or missing reports).
    pub fn run_to_outcome(&self, model: &SystemModel) -> Result<DistributedOutcome, GameError> {
        // A zero budget or a zero timeout cannot produce an honest
        // outcome: no round can both run and be timed. Reject up front
        // (mirrors the solver-side `max_iterations == 0` check).
        if self.max_rounds == 0 {
            return Err(GameError::ZeroIterationBudget);
        }
        if self.round_timeout.is_zero() {
            return Err(GameError::ZeroDuration {
                what: "round_timeout",
            });
        }
        if self.run_deadline.is_some_and(|d| d.is_zero()) {
            return Err(GameError::ZeroDuration {
                what: "run_deadline",
            });
        }
        let m = model.num_users();
        let n = model.num_computers();
        let board = LoadBoard::new(m, n);
        match self.init {
            RingInit::Zero => {}
            RingInit::Proportional => {
                let total: f64 = model.computer_rates().iter().sum();
                let rows: Vec<Vec<f64>> = (0..m)
                    .map(|j| {
                        let phi = model.user_rate(j);
                        model
                            .computer_rates()
                            .iter()
                            .map(|mu| phi * mu / total)
                            .collect()
                    })
                    .collect();
                board.seed(&rows);
            }
        }

        if let Some(c) = lb_telemetry::enabled(self.collector.as_ref()) {
            c.emit(
                "ring.start",
                &[
                    (
                        "init",
                        match self.init {
                            RingInit::Zero => "NASH_0",
                            RingInit::Proportional => "NASH_P",
                        }
                        .into(),
                    ),
                    ("users", m.into()),
                    ("computers", n.into()),
                    ("tolerance", self.tolerance.into()),
                    ("stopping", self.stopping.label().into()),
                    ("max_rounds", self.max_rounds.into()),
                ],
            );
        }

        let mut users: Vec<UserNode> = (0..m)
            .map(|j| {
                let mut user = UserNode {
                    user: j,
                    is_tail: j == m - 1,
                    epoch: 0,
                    mu: model.computer_rates().to_vec(),
                    phi: model.user_rate(j),
                    next: (j + 1) % m,
                    next2: (j + 2) % m,
                    observer: Observer::new(self.observation, j),
                    prev_d: 0.0,
                    updates: 0,
                    pending: None,
                    scratch_others: Vec::with_capacity(n),
                    scratch_totals: Vec::with_capacity(n),
                    scratch_row: Vec::with_capacity(n),
                };
                // D_j of the seeded board, read before anyone updates.
                user.prev_d = user.response_time_from_board(&board);
                user
            })
            .collect();

        // Root span for the whole distributed run; the coordinator rolls
        // `ring.round` / `ring.hold` children under it as the token moves.
        let run_span = Span::root(
            self.collector.as_ref(),
            "ring.run",
            &[("users", m.into()), ("computers", n.into())],
        );
        let mut coord = Coordinator {
            m,
            board: &board,
            links: Links {
                // The seed is irrelevant: the ring's links never drop,
                // duplicate or reorder, so no fault roll decides anything.
                net: VirtualNet::new(m + 1, 0, NetFaultPlan::new().delay_us(HOP_US, HOP_US)),
                stopped: vec![false; m],
            },
            alive: vec![true; m],
            failed: Vec::new(),
            reports: (0..m).map(|_| None).collect(),
            epoch: 0,
            holder: 0,
            mirror: Vec::new(),
            termination: None,
            round_timeout_us: virtual_us(self.round_timeout),
            quiet_since: 0,
            nominal_mu: model.computer_rates().to_vec(),
            current_mu: model.computer_rates().to_vec(),
            nominal_phi: model.user_rates().to_vec(),
            current_phi: model.user_rates().to_vec(),
            policy: self.overload_policy,
            faults: &self.faults,
            shed_log: Vec::new(),
            collector: self.collector.clone(),
            hold_span: None,
            round_span: None,
            run_span,
        };
        coord.inject(0, Token::initial());
        coord.drive(&mut users, self)?;

        let termination = coord
            .termination
            .expect("coordinator loop ended without termination");
        let rounds = coord.mirror.len() as u32;
        let mut rows = Vec::new();
        let mut user_times = Vec::new();
        let mut survivors = Vec::new();
        let mut total_updates = 0;
        for (j, slot) in coord.reports.iter_mut().enumerate() {
            if !coord.alive[j] {
                continue;
            }
            let r = slot.take().ok_or_else(|| GameError::InfeasibleStrategy {
                reason: format!("missing final report from user {j}"),
            })?;
            rows.push(Strategy::new(r.fractions)?);
            user_times.push(r.response_time);
            total_updates += r.updates;
            survivors.push(j);
        }
        // Final admission picture: failed users carry zero admitted/shed
        // (their loss is reported via `failed_users`, not as shedding).
        let mut admitted_rates = coord.current_phi.clone();
        let mut shed_rates: Vec<f64> = coord
            .nominal_phi
            .iter()
            .zip(&coord.current_phi)
            .map(|(&nom, &adm)| (nom - adm).max(0.0))
            .collect();
        for j in 0..m {
            if !coord.alive[j] {
                admitted_rates[j] = 0.0;
                shed_rates[j] = 0.0;
            }
        }
        let degraded = coord
            .current_mu
            .iter()
            .zip(&coord.nominal_mu)
            .enumerate()
            .filter(|(_, (&cur, &nom))| cur < nom)
            .map(|(i, _)| i)
            .collect();
        coord.finish_run_span(termination_label(termination));
        if let Some(c) = lb_telemetry::enabled(self.collector.as_ref()) {
            c.emit(
                "ring.done",
                &[
                    ("rounds", rounds.into()),
                    ("termination", termination_label(termination).into()),
                    ("failed", coord.failed.len().into()),
                    ("survivors", survivors.len().into()),
                    ("total_updates", total_updates.into()),
                ],
            );
        }
        Ok(DistributedOutcome {
            profile: StrategyProfile::new(rows)?,
            trace: coord.mirror.iter().copied().collect(),
            rounds,
            user_times,
            total_updates,
            failed: coord.failed.clone(),
            survivors,
            termination,
            admitted_rates,
            shed_rates,
            degraded,
            capacity: coord.current_mu.clone(),
            shed_log: coord.shed_log.clone(),
        })
    }
}

impl Default for DistributedNash {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of a distributed run (converged, exhausted, or repaired after
/// failures — see [`DistributedOutcome::termination`] and
/// [`DistributedOutcome::failed_users`]).
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    profile: StrategyProfile,
    trace: IterationTrace,
    rounds: u32,
    user_times: Vec<f64>,
    total_updates: u32,
    failed: Vec<usize>,
    survivors: Vec<usize>,
    termination: Termination,
    admitted_rates: Vec<f64>,
    shed_rates: Vec<f64>,
    degraded: Vec<usize>,
    capacity: Vec<f64>,
    shed_log: Vec<ShedRecord>,
}

impl DistributedOutcome {
    /// The equilibrium profile assembled from the *surviving* users'
    /// reports, one row per entry of [`DistributedOutcome::survivors`]
    /// in ascending user index.
    pub fn profile(&self) -> &StrategyProfile {
        &self.profile
    }

    /// Per-round norms (the distributed Figure-2 series).
    pub fn trace(&self) -> &IterationTrace {
        &self.trace
    }

    /// Rounds completed.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Each surviving user's final self-reported `D_j` (aligned with
    /// [`DistributedOutcome::survivors`]).
    pub fn user_times(&self) -> &[f64] {
        &self.user_times
    }

    /// Total best replies computed across the ring.
    pub fn total_updates(&self) -> u32 {
        self.total_updates
    }

    /// Users declared failed during the run, in detection order.
    pub fn failed_users(&self) -> &[usize] {
        &self.failed
    }

    /// Users that survived to report, in ascending index order.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// How the ring terminated.
    pub fn termination(&self) -> Termination {
        self.termination
    }

    /// Whether the final completed round met the convergence tolerance.
    pub fn converged(&self) -> bool {
        self.termination == Termination::Converged
    }

    /// Per-user arrival rates the final admission decision shed
    /// (full-length, indexed by user; zero when nothing was shed and for
    /// failed users, whose loss is reported via
    /// [`DistributedOutcome::failed_users`] instead).
    pub fn shed_rates(&self) -> &[f64] {
        &self.shed_rates
    }

    /// Per-user arrival rates the final admission decision admitted
    /// (full-length; equal to the nominal rates when nothing was shed,
    /// zero for failed users).
    pub fn admitted_rates(&self) -> &[f64] {
        &self.admitted_rates
    }

    /// Computers running below their nominal rate at the end of the run
    /// (crashed or degraded), in index order.
    pub fn degraded_computers(&self) -> &[usize] {
        &self.degraded
    }

    /// The capacity vector in force at the end of the run (0 = crashed).
    pub fn final_capacity(&self) -> &[f64] {
        &self.capacity
    }

    /// Every admission-control decision the coordinator took, in order.
    /// Byte-identical across runs with the same model, plan and policy —
    /// the trajectory depends only on the event schedule and the nominal
    /// rates.
    pub fn shed_trajectory(&self) -> &[ShedRecord] {
        &self.shed_log
    }
}

/// Static label for telemetry `termination` fields.
fn termination_label(t: Termination) -> &'static str {
    match t {
        Termination::Continue => "continue",
        Termination::Converged => "converged",
        Termination::Exhausted => "exhausted",
    }
}

/// Everything the ring's nodes deliver to each other, plus their local
/// timers.
#[derive(Debug, Clone)]
enum Msg {
    /// The circulating control token (to a user).
    Token(Token),
    /// New ring topology and capacity from the coordinator (to a user):
    /// the successor, the successor's successor (the splice target if
    /// the successor stops before the coordinator notices), whether the
    /// user is now the tail, the service rates in force (0 = crashed
    /// computer), and the user's admitted arrival rate. Carrying
    /// `mu`/`phi` on every reconfiguration keeps the protocol uniform.
    Reconfigure {
        epoch: u32,
        next: usize,
        next2: usize,
        is_tail: bool,
        mu: Vec<f64>,
        phi: f64,
    },
    /// A user's timer for [`FaultAction::DelayForward`]: forward the
    /// held token now.
    Release(Token),
    /// Progress note: a user handed the token to `to`. Every forward is
    /// announced, so the coordinator always knows which user should be
    /// holding the token — that user is the suspect when the ring goes
    /// quiet.
    Forwarded { to: usize, epoch: u32 },
    /// Progress note: the tail completed a round with this norm (and
    /// possibly decided termination). `certificate` carries the round's
    /// certified relative regret bound when the stopping rule computes
    /// one.
    RoundComplete {
        norm: f64,
        certificate: Option<f64>,
        termination: Termination,
        epoch: u32,
    },
    /// Progress note: a forward to `skipped` was refused because it has
    /// stopped; the sender spliced around it.
    Spliced { skipped: usize, epoch: u32 },
    /// A user's final report from the terminate lap.
    Report(FinalReport),
    /// The coordinator's failure-detector timer.
    Detector,
    /// The coordinator's `run_deadline` timer.
    Deadline,
}

/// A user's final report to the coordinator.
#[derive(Debug, Clone)]
struct FinalReport {
    user: usize,
    /// The user's final strategy (job fractions).
    fractions: Vec<f64>,
    /// The user's final expected response time `D_j`.
    response_time: f64,
    /// Best replies the user computed.
    updates: u32,
}

/// The ring's links: the virtual net plus which users have stopped
/// (crashed, declared failed, or reported and done). A send to a stopped
/// user is refused, which is how a predecessor learns to splice.
struct Links {
    net: VirtualNet<Msg>,
    stopped: Vec<bool>,
}

impl Links {
    /// Sends `msg` to user `to`, handing it back if `to` has stopped.
    fn send(&mut self, from: usize, to: usize, msg: Msg) -> Result<(), Msg> {
        if self.stopped[to] {
            return Err(msg);
        }
        self.net.send(from, to, msg);
        Ok(())
    }

    /// Sends a progress note from user `from` to the coordinator.
    fn note(&mut self, from: usize, msg: Msg) {
        let coordinator = self.stopped.len();
        self.net.send(from, coordinator, msg);
    }
}

struct Coordinator<'a> {
    m: usize,
    board: &'a LoadBoard,
    links: Links,
    alive: Vec<bool>,
    failed: Vec<usize>,
    reports: Vec<Option<FinalReport>>,
    epoch: u32,
    holder: usize,
    mirror: Vec<f64>,
    termination: Option<Termination>,
    round_timeout_us: u64,
    /// Virtual time of the last note received (or the last repair):
    /// the failure detector's patience runs from here.
    quiet_since: u64,
    /// Capacity vector the model started with (recovery target).
    nominal_mu: Vec<f64>,
    /// Capacity vector currently in force (0 = crashed).
    current_mu: Vec<f64>,
    /// Demand vector the model started with (re-admission target).
    nominal_phi: Vec<f64>,
    /// Per-user admitted rates currently in force.
    current_phi: Vec<f64>,
    policy: OverloadPolicy,
    faults: &'a FaultPlan,
    shed_log: Vec<ShedRecord>,
    collector: Option<Arc<dyn Collector>>,
    // Span fields are declared leaf-first so that, if the coordinator is
    // dropped on an error path, the implicit drop-closes arrive in
    // child-before-parent order.
    /// Open `ring.hold` span: the interval one user holds the token.
    hold_span: Option<Span>,
    /// Open `ring.round` span covering the round in progress.
    round_span: Option<Span>,
    /// Root `ring.run` span for the whole distributed computation.
    run_span: Option<Span>,
}

impl Coordinator<'_> {
    /// Emits a telemetry event if a collector is attached and enabled.
    /// Only the coordinator emits, so the event stream has a single
    /// deterministic writer.
    fn emit(&self, name: &'static str, fields: &[Field]) {
        if let Some(c) = lb_telemetry::enabled(self.collector.as_ref()) {
            c.emit(name, fields);
        }
    }

    /// Lazily opens the `ring.round` span for the round in progress.
    /// The round index is the count of completed rounds so far; during
    /// the terminate lap that index equals the final round count, so the
    /// lap shows up as one last `ring.round` interval.
    fn ensure_round_span(&mut self) {
        if self.round_span.is_none() {
            if let Some(run) = &self.run_span {
                self.round_span = Some(run.child(
                    "ring.round",
                    &[
                        ("round", (self.mirror.len() as u64).into()),
                        ("epoch", self.epoch.into()),
                    ],
                ));
            }
        }
    }

    /// Rolls the `ring.hold` span to the token's new holder: the open
    /// hold closes and a new one opens under the current round span, so
    /// the spans partition the round into per-user token-holding
    /// intervals (the ring's causal order, serialized by the token).
    fn begin_hold(&mut self, user: usize) {
        if self.run_span.is_none() {
            return;
        }
        if let Some(hold) = self.hold_span.take() {
            hold.close();
        }
        self.ensure_round_span();
        if let Some(round) = &self.round_span {
            self.hold_span = Some(round.child(
                "ring.hold",
                &[("user", user.into()), ("epoch", self.epoch.into())],
            ));
        }
    }

    /// Closes the hold and round spans at a completed round boundary.
    fn finish_round_span(&mut self, norm: f64) {
        if let Some(hold) = self.hold_span.take() {
            hold.close();
        }
        if let Some(round) = self.round_span.take() {
            round.close_with(&[("norm", norm.into())]);
        }
    }

    /// Closes any open hold/round spans when the round was cut short
    /// (token loss) rather than completed.
    fn interrupt_spans(&mut self, cause: &'static str) {
        if let Some(hold) = self.hold_span.take() {
            hold.close_with(&[("interrupted", true.into())]);
        }
        if let Some(round) = self.round_span.take() {
            round.close_with(&[("interrupted", true.into()), ("cause", cause.into())]);
        }
    }

    /// Closes the whole span stack at the end of the run.
    fn finish_run_span(&mut self, termination: &'static str) {
        if let Some(hold) = self.hold_span.take() {
            hold.close();
        }
        if let Some(round) = self.round_span.take() {
            round.close();
        }
        if let Some(run) = self.run_span.take() {
            run.close_with(&[
                ("rounds", (self.mirror.len() as u64).into()),
                ("termination", termination.into()),
            ]);
        }
    }

    /// The event loop: delivers every message in virtual-time order,
    /// applies the coordinator's progress notes, detects token loss by
    /// timeout, and repairs the ring until every surviving user has
    /// reported.
    fn drive(&mut self, users: &mut [UserNode], cfg: &DistributedNash) -> Result<(), GameError> {
        if let Some(deadline) = cfg.run_deadline {
            self.links
                .net
                .schedule(self.m, virtual_us(deadline), Msg::Deadline);
        }
        self.arm_detector();
        while !(self.termination.is_some() && self.all_alive_reported()) {
            let d = self
                .links
                .net
                .step()
                .expect("the failure detector always has a timer armed");
            if d.to < self.m {
                if !self.links.stopped[d.to] {
                    users[d.to].handle(d.msg, cfg, self.board, &mut self.links);
                }
                continue;
            }
            match d.msg {
                Msg::Deadline => return Err(self.deadline_error()),
                Msg::Detector => {
                    if d.at_us - self.quiet_since >= self.round_timeout_us {
                        self.repair_token_loss()?;
                        self.quiet_since = d.at_us;
                    }
                    self.arm_detector();
                }
                note => {
                    self.quiet_since = d.at_us;
                    self.apply(note)?;
                }
            }
        }
        Ok(())
    }

    /// Keeps exactly one detector timer in flight, due `round_timeout`
    /// after the last note. A timer that finds a newer note re-arms
    /// for the remainder instead of firing.
    fn arm_detector(&mut self) {
        let due = self.quiet_since.saturating_add(self.round_timeout_us);
        let now = self.links.net.now();
        self.links.net.schedule(self.m, due - now, Msg::Detector);
    }

    fn apply(&mut self, note: Msg) -> Result<(), GameError> {
        match note {
            Msg::Forwarded { to, epoch } if epoch == self.epoch => {
                self.holder = to;
                self.emit("ring.hop", &[("to", to.into()), ("epoch", epoch.into())]);
                self.begin_hold(to);
            }
            Msg::RoundComplete {
                norm,
                certificate,
                termination,
                epoch,
            } if epoch == self.epoch => {
                self.mirror.push(norm);
                let mut fields: Vec<Field> = vec![
                    ("round", (self.mirror.len() as u64 - 1).into()),
                    ("norm", norm.into()),
                    ("epoch", epoch.into()),
                    ("termination", termination_label(termination).into()),
                ];
                if let Some(rel) = certificate {
                    fields.push(("cert_rel", rel.into()));
                }
                self.emit("ring.round", &fields);
                self.finish_round_span(norm);
                if termination != Termination::Continue {
                    self.termination = Some(termination);
                } else {
                    // The round that just completed. Capacity events are
                    // keyed by it; a terminating ring is already draining,
                    // so events on the deciding round are skipped above.
                    let round = self.mirror.len() as u32 - 1;
                    let events = self.faults.capacity_events_at(round);
                    if !events.is_empty() {
                        self.apply_capacity_events(round, &events)?;
                    }
                }
            }
            Msg::Spliced { skipped, epoch } if epoch == self.epoch => {
                self.emit(
                    "ring.splice",
                    &[("skipped", skipped.into()), ("epoch", epoch.into())],
                );
                if self.alive[skipped] {
                    self.declare_failed(skipped);
                    self.reconfigure();
                }
            }
            Msg::Report(r) => {
                let user = r.user;
                if self.reports[user].is_some() {
                    return Err(GameError::InfeasibleStrategy {
                        reason: format!("duplicate final report from user {user}"),
                    });
                }
                self.emit(
                    "ring.report",
                    &[
                        ("user", user.into()),
                        ("response_time", r.response_time.into()),
                        ("updates", r.updates.into()),
                    ],
                );
                self.reports[user] = Some(r);
            }
            // Notes stamped with an old epoch come from a user that was
            // (rightly or wrongly) declared failed; its token is stale.
            _ => {}
        }
        Ok(())
    }

    /// Applies the capacity events scheduled after `round` completed:
    /// update the rate vector, zero crashed computers' board columns,
    /// run the overload policy over the survivors' nominal demand, then
    /// bump the epoch, reconfigure every live user with the new rates
    /// and admitted demand, and regenerate the token for the next round.
    ///
    /// FIFO link order makes this safe: each user receives its
    /// `Reconfigure` (carrying `mu`/`phi`) before any token of the new
    /// epoch, so nobody best-responds against stale capacity. A stale
    /// old-epoch token still in flight is dropped on receipt.
    fn apply_capacity_events(
        &mut self,
        round: u32,
        events: &[CapacityEvent],
    ) -> Result<(), GameError> {
        for &ev in events {
            let i = ev.computer();
            if i >= self.current_mu.len() {
                return Err(GameError::DimensionMismatch {
                    expected: self.current_mu.len(),
                    actual: i + 1,
                });
            }
            match ev {
                CapacityEvent::Crash { .. } => {
                    self.current_mu[i] = 0.0;
                    self.board.clear_column(i);
                }
                CapacityEvent::Degrade { rate, .. } => {
                    if !(rate.is_finite() && rate > 0.0) {
                        return Err(GameError::InvalidRate {
                            name: "degraded mu",
                            value: rate,
                        });
                    }
                    self.current_mu[i] = rate;
                }
                CapacityEvent::Recover { .. } => {
                    self.current_mu[i] = self.nominal_mu[i];
                }
            }
            self.emit(
                "ring.capacity",
                &[
                    ("round", round.into()),
                    (
                        "kind",
                        match ev {
                            CapacityEvent::Crash { .. } => "crash",
                            CapacityEvent::Degrade { .. } => "degrade",
                            CapacityEvent::Recover { .. } => "recover",
                        }
                        .into(),
                    ),
                    ("computer", i.into()),
                    ("rate", self.current_mu[i].into()),
                ],
            );
        }
        // Admission control over the *nominal* demand of the live users:
        // recovered capacity re-admits previously shed load automatically.
        let nominal: Vec<f64> = (0..self.m)
            .map(|j| {
                if self.alive[j] {
                    self.nominal_phi[j]
                } else {
                    0.0
                }
            })
            .collect();
        let plan = shed_to_feasible(&self.current_mu, &nominal, self.policy)?;
        self.current_phi = plan.admitted;
        self.epoch += 1;
        self.emit(
            "ring.epoch",
            &[
                ("epoch", self.epoch.into()),
                ("round", round.into()),
                ("cause", "capacity".into()),
            ],
        );
        self.shed_log.push(ShedRecord {
            round,
            epoch: self.epoch,
            capacity: self.current_mu.clone(),
            admitted: self.current_phi.clone(),
            shed: plan.shed,
        });
        let record = self.shed_log.last().expect("record just pushed");
        self.emit(
            "ring.shed",
            &[
                ("round", round.into()),
                ("epoch", self.epoch.into()),
                ("capacity_total", self.current_mu.iter().sum::<f64>().into()),
                ("admitted_total", record.admitted_total().into()),
                ("shed_total", record.shed_total().into()),
            ],
        );
        self.reconfigure();
        let ring = self.alive_ring();
        if let Some(&head) = ring.first() {
            self.inject(head, Token::regenerated(round + 1, self.epoch));
        }
        Ok(())
    }

    /// No progress for a full `round_timeout`: the expected holder took
    /// the token down with it. Stop it, splice, and regenerate the token
    /// under a fresh epoch.
    fn repair_token_loss(&mut self) -> Result<(), GameError> {
        let suspect = self.holder;
        self.emit(
            "ring.token_lost",
            &[
                ("suspect", suspect.into()),
                ("round", (self.mirror.len() as u64).into()),
                ("epoch", self.epoch.into()),
            ],
        );
        self.interrupt_spans("token_lost");
        self.declare_failed(suspect);
        let ring = self.alive_ring();
        if ring.is_empty() {
            return Err(GameError::RingTimeout {
                round: self.mirror.len() as u32,
                waited_ms: self.round_timeout_us / 1_000,
                reason: format!("token lost at user {suspect}; no users survive"),
            });
        }
        self.epoch += 1;
        self.emit(
            "ring.epoch",
            &[
                ("epoch", self.epoch.into()),
                ("round", (self.mirror.len() as u64).into()),
                ("cause", "token_lost".into()),
            ],
        );
        self.reconfigure();
        let round = self.mirror.len() as u32;
        match self.termination {
            // The terminate lap was interrupted. Reports are collected in
            // ring order, so the users still owed one form a suffix of
            // the live ring — restart the lap at the first of them.
            Some(term) => {
                if let Some(&target) = ring.iter().find(|&&j| self.reports[j].is_none()) {
                    let mut token = Token::regenerated(round, self.epoch);
                    token.terminate = term;
                    self.inject(target, token);
                }
            }
            // Restart the interrupted round from the top of the live
            // ring, exactly as a fresh Gauss–Seidel sweep of the reduced
            // system.
            None => self.inject(ring[0], Token::regenerated(round, self.epoch)),
        }
        Ok(())
    }

    fn declare_failed(&mut self, j: usize) {
        if !self.alive[j] {
            return;
        }
        self.alive[j] = false;
        self.failed.push(j);
        self.emit(
            "ring.fault",
            &[
                ("user", j.into()),
                ("round", (self.mirror.len() as u64).into()),
                ("epoch", self.epoch.into()),
            ],
        );
        self.board.clear_row(j);
        // A dead user places no demand; its admitted rate must not count
        // toward feasibility nor show up as shed load in the outcome.
        self.current_phi[j] = 0.0;
        // A user that is merely slow rather than dead stops here: its
        // pending wake-up is discarded and later sends to it are refused.
        self.links.stopped[j] = true;
    }

    /// Sends every live user its post-splice topology: successor,
    /// successor's successor, and whether it is now the tail.
    fn reconfigure(&mut self) {
        let ring = self.alive_ring();
        let k = ring.len();
        for (pos, &j) in ring.iter().enumerate() {
            let rc = Msg::Reconfigure {
                epoch: self.epoch,
                next: ring[(pos + 1) % k],
                next2: ring[(pos + 2) % k],
                is_tail: pos == k - 1,
                mu: self.current_mu.clone(),
                phi: self.current_phi[j],
            };
            let _ = self.links.send(self.m, j, rc);
        }
    }

    fn inject(&mut self, target: usize, token: Token) {
        self.holder = target;
        self.begin_hold(target);
        let _ = self.links.send(self.m, target, Msg::Token(token));
    }

    fn alive_ring(&self) -> Vec<usize> {
        (0..self.m).filter(|&j| self.alive[j]).collect()
    }

    fn all_alive_reported(&self) -> bool {
        (0..self.m).all(|j| !self.alive[j] || self.reports[j].is_some())
    }

    fn deadline_error(&self) -> GameError {
        GameError::RingTimeout {
            round: self.mirror.len() as u32,
            waited_ms: self.links.net.now() / 1_000,
            reason: "run deadline exceeded".into(),
        }
    }
}

/// One user's local state.
struct UserNode {
    user: usize,
    is_tail: bool,
    epoch: u32,
    mu: Vec<f64>,
    phi: f64,
    next: usize,
    next2: usize,
    observer: Observer,
    /// `D_j` after the user's last turn; before its first turn, `D_j` of
    /// the initial board (0 for the unseeded NASH_0 start).
    prev_d: f64,
    updates: u32,
    /// A token whose forward was refused in both directions, parked
    /// until the coordinator sends the repaired topology.
    pending: Option<Token>,
    // Board-read buffers reused across token rounds so the steady-state
    // update loop performs no per-token allocations.
    scratch_others: Vec<f64>,
    scratch_totals: Vec<f64>,
    scratch_row: Vec<f64>,
}

impl UserNode {
    fn handle(&mut self, msg: Msg, cfg: &DistributedNash, board: &LoadBoard, links: &mut Links) {
        match msg {
            Msg::Reconfigure {
                epoch,
                next,
                next2,
                is_tail,
                mu,
                phi,
            } if epoch >= self.epoch => {
                self.epoch = epoch;
                self.next = next;
                self.next2 = next2;
                self.is_tail = is_tail;
                self.mu = mu;
                self.phi = phi;
                if let Some(token) = self.pending.take() {
                    // Only forward the parked token if the coordinator
                    // spliced in-place; after an epoch bump it already
                    // regenerated a replacement.
                    if token.epoch == self.epoch {
                        self.forward(token, links);
                    }
                }
            }
            Msg::Token(token) if token.epoch == self.epoch => {
                self.handle_token(token, cfg, board, links);
            }
            Msg::Release(token) => self.forward(token, links),
            // A reconfiguration or token from before a repair is stale.
            _ => {}
        }
    }

    /// Processes one token of the current epoch.
    fn handle_token(
        &mut self,
        mut token: Token,
        cfg: &DistributedNash,
        board: &LoadBoard,
        links: &mut Links,
    ) {
        if token.terminate != Termination::Continue {
            // Terminate lap: report, forward unless tail, and stop.
            board.row_into(self.user, &mut self.scratch_row);
            let fractions: Vec<f64> = self.scratch_row.iter().map(|x| x / self.phi).collect();
            links.note(
                self.user,
                Msg::Report(FinalReport {
                    user: self.user,
                    fractions,
                    response_time: self.prev_d,
                    updates: self.updates,
                }),
            );
            if !self.is_tail {
                self.forward(token, links);
            }
            links.stopped[self.user] = true;
            return;
        }
        let fault = cfg.faults.action(self.user, token.round);
        match fault {
            // The node stops with the token: only the detector recovers.
            Some(FaultAction::PanicHoldingToken) => {
                links.stopped[self.user] = true;
                return;
            }
            Some(FaultAction::DropToken) => return,
            _ => {}
        }

        // Certified stopping measures each user's *current* strategy
        // against the live board BEFORE it updates — measuring after
        // a best reply is vacuous (a fresh reply has ~zero regret by
        // construction). The regret is read from the true board, so
        // observation noise cannot launder it, and an ε-optimal user
        // skips its update entirely: once every user skips, the
        // board is static, the round's norm is exactly zero, and the
        // state all regrets were measured against is the state the
        // ring returns.
        let mut skip = false;
        if cfg.stopping.needs_certificate() {
            board.total_flows_into(&mut self.scratch_totals);
            board.row_into(self.user, &mut self.scratch_row);
            // A row that does not carry the admitted demand — an
            // unseeded NASH_0 start, or a stale allocation from before a
            // capacity event changed φ — certifies nothing and updates.
            let (regret, dj) =
                placed_user_regret(&self.mu, &self.scratch_totals, &self.scratch_row, self.phi);
            token.certificate.absorb(regret, dj);
            skip = relative_regret(regret, dj) <= cfg.tolerance;
        }

        // Observe, best-respond, publish. A stale-round fault replays
        // the previous observation instead of re-reading the board.
        if !skip {
            let avail = match fault {
                Some(FaultAction::StaleRound) => {
                    self.observer.last_observation().map(<[f64]>::to_vec)
                }
                _ => None,
            };
            let avail = avail.unwrap_or_else(|| {
                board.flows_excluding_into(self.user, &mut self.scratch_others);
                self.observer.observe(&self.mu, &self.scratch_others)
            });
            match water_fill_flows(&avail, self.phi) {
                Ok(flows) => {
                    board.publish(self.user, &flows);
                    self.updates += 1;
                }
                Err(_) => {
                    // A (noisy or stale) observation made the
                    // subproblem look infeasible; keep the current
                    // strategy.
                }
            }
        }
        let d = self.response_time_from_board(board);
        token.norm_acc += (d - self.prev_d).abs();
        token.d_acc += d;
        self.prev_d = d;

        if self.is_tail {
            let norm = token.norm_acc;
            let total_d = token.d_acc;
            let certificate = token.certificate;
            token.round += 1;
            token.norm_acc = 0.0;
            token.d_acc = 0.0;
            token.certificate = Certificate::zero();
            let converged = match cfg.stopping {
                // Regrets are measured pre-update at each user's
                // turn; requiring a quiescent round (norm exactly
                // zero — nobody moved, so the board the regrets
                // were measured against IS the returned state)
                // makes the acceptance a sound ε-Nash certificate.
                StoppingRule::CertifiedGap { epsilon } => {
                    certificate.relative <= epsilon && norm == 0.0
                }
                rule => rule.accepts(cfg.tolerance, norm, total_d, Some(&certificate)),
            };
            if converged {
                token.terminate = Termination::Converged;
            } else if token.round >= cfg.max_rounds {
                token.terminate = Termination::Exhausted;
            }
            links.note(
                self.user,
                Msg::RoundComplete {
                    norm,
                    certificate: cfg
                        .stopping
                        .needs_certificate()
                        .then_some(certificate.relative),
                    termination: token.terminate,
                    epoch: self.epoch,
                },
            );
            // When capacity events are scheduled after the round that
            // just completed, the coordinator bumps the epoch and
            // regenerates the token itself — forwarding the old one
            // here would let the head race a stale round against the
            // reconfiguration and perturb the norm trace. Drop it;
            // the next round starts only from the regenerated token.
            if token.terminate == Termination::Continue
                && !cfg.faults.capacity_events_at(token.round - 1).is_empty()
            {
                return;
            }
        }
        match fault {
            Some(FaultAction::DelayForward(delay)) => {
                links
                    .net
                    .schedule(self.user, virtual_us(delay), Msg::Release(token));
            }
            Some(FaultAction::PanicAfterForward) => {
                self.forward(token, links);
                links.stopped[self.user] = true;
            }
            _ => self.forward(token, links),
        }
    }

    /// Forwards the token to the successor, splicing around a stopped
    /// successor via the successor's successor. Announces every hop (and
    /// every splice) to the coordinator; if both forwards are refused the
    /// token is parked until a `Reconfigure` arrives.
    fn forward(&mut self, token: Token, links: &mut Links) {
        let epoch = self.epoch;
        let mut msg = Msg::Token(token);
        for to in [self.next, self.next2] {
            links.note(self.user, Msg::Forwarded { to, epoch });
            match links.send(self.user, to, msg) {
                Ok(()) => return,
                Err(refused) => msg = refused,
            }
            links.note(self.user, Msg::Spliced { skipped: to, epoch });
        }
        if let Msg::Token(token) = msg {
            self.pending = Some(token);
        }
    }

    /// The user's actual expected response time given the *true* board
    /// state, read through the scratch buffers (no allocation).
    fn response_time_from_board(&mut self, board: &LoadBoard) -> f64 {
        board.total_flows_into(&mut self.scratch_totals);
        board.row_into(self.user, &mut self.scratch_row);
        let mut d = 0.0;
        for i in 0..self.mu.len() {
            if self.scratch_row[i] > 0.0 {
                let f = lb_queueing::mm1::response_time(self.scratch_totals[i], self.mu[i]);
                d += self.scratch_row[i] / self.phi * f;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::equilibrium::epsilon_nash_gap;
    use lb_game::nash::{Initialization, NashSolver};

    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    #[test]
    fn zero_round_budget_is_rejected() {
        let err = DistributedNash::new().max_rounds(0).run(&model());
        assert!(matches!(err, Err(GameError::ZeroIterationBudget)));
    }

    #[test]
    fn zero_round_timeout_is_rejected() {
        let err = DistributedNash::new()
            .round_timeout(Duration::ZERO)
            .run(&model());
        assert!(matches!(
            err,
            Err(GameError::ZeroDuration {
                what: "round_timeout"
            })
        ));
    }

    #[test]
    fn zero_run_deadline_is_rejected() {
        let err = DistributedNash::new()
            .run_deadline(Duration::ZERO)
            .run(&model());
        assert!(matches!(
            err,
            Err(GameError::ZeroDuration {
                what: "run_deadline"
            })
        ));
    }

    #[test]
    fn ring_converges_to_epsilon_nash() {
        let m = model();
        let out = DistributedNash::new().run(&m).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(gap < 1e-3, "gap {gap}");
        assert!(out.rounds() > 0);
        assert_eq!(out.user_times().len(), 2);
        assert!(out.converged());
        assert!(out.failed_users().is_empty());
        assert_eq!(out.survivors(), &[0, 1]);
    }

    #[test]
    fn matches_sequential_solver() {
        let m = model();
        let dist = DistributedNash::new().tolerance(1e-8).run(&m).unwrap();
        let seq = NashSolver::new(Initialization::Proportional)
            .tolerance(1e-8)
            .solve(&m)
            .unwrap();
        let d = dist.profile().max_l1_distance(seq.profile()).unwrap();
        assert!(d < 1e-4, "distributed and sequential differ by {d}");
        // Identical round counts too: the ring replays the same dynamics.
        assert_eq!(dist.rounds(), seq.iterations());
    }

    #[test]
    fn zero_init_matches_sequential_nash0() {
        let m = model();
        let dist = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-8)
            .run(&m)
            .unwrap();
        let seq = NashSolver::new(Initialization::Zero)
            .tolerance(1e-8)
            .solve(&m)
            .unwrap();
        assert_eq!(dist.rounds(), seq.iterations());
        let d = dist.profile().max_l1_distance(seq.profile()).unwrap();
        assert!(d < 1e-4);
    }

    #[test]
    fn single_user_ring_works() {
        let m = SystemModel::new(vec![10.0, 20.0], vec![12.0]).unwrap();
        let out = DistributedNash::new().run(&m).unwrap();
        assert!(epsilon_nash_gap(&m, out.profile()).unwrap() < 1e-6);
        // The accepting round is quiescent: the lone user skips it.
        assert_eq!(out.total_updates(), out.rounds() - 1);
    }

    #[test]
    fn ring_spans_nest_run_round_hold_and_all_close() {
        use lb_telemetry::{FieldValue, MemoryCollector, SPAN_CLOSE, SPAN_OPEN};

        let m = model();
        let mem = Arc::new(MemoryCollector::default());
        let out = DistributedNash::new()
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        let events = mem.events();
        let field_u64 = |fields: &[Field], key: &str| -> Option<u64> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    FieldValue::U64(n) => *n,
                    other => panic!("field {key} was {other:?}"),
                })
        };
        let opens: Vec<_> = events.iter().filter(|(n, _)| *n == SPAN_OPEN).collect();
        let closes = events.iter().filter(|(n, _)| *n == SPAN_CLOSE).count();
        assert_eq!(opens.len(), closes, "unbalanced span open/close");

        // One run root; every round span is its child; every hold span is
        // a child of some round span. The completed rounds match the
        // outcome (plus one optional terminate-lap interval).
        let mut run_id = None;
        let mut round_ids = std::collections::BTreeSet::new();
        let (mut rounds, mut holds) = (0usize, 0usize);
        for (_, fields) in &opens {
            let id = field_u64(fields, "span").unwrap();
            let parent = field_u64(fields, "parent");
            let name = match &fields.iter().find(|(k, _)| *k == "name").unwrap().1 {
                FieldValue::Str(s) => s.to_string(),
                other => panic!("name was {other:?}"),
            };
            match name.as_str() {
                "ring.run" => {
                    assert!(run_id.replace(id).is_none(), "two run roots");
                    assert_eq!(parent, None);
                }
                "ring.round" => {
                    rounds += 1;
                    round_ids.insert(id);
                    assert_eq!(parent, run_id, "round not parented under run");
                }
                "ring.hold" => {
                    holds += 1;
                    assert!(
                        round_ids.contains(&parent.unwrap()),
                        "hold not parented under a round"
                    );
                }
                other => panic!("unexpected span {other}"),
            }
        }
        let completed = out.rounds() as usize;
        assert!(
            rounds == completed || rounds == completed + 1,
            "round spans {rounds} vs completed rounds {completed}"
        );
        // Each round holds the token once per user (2 users here), and
        // the terminate lap adds at most one partial lap of holds.
        assert!(holds >= completed * 2, "holds {holds}");
    }

    #[test]
    fn round_budget_is_enforced() {
        let m = SystemModel::table1_system(0.9).unwrap();
        let err = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-12)
            .max_rounds(2)
            .run(&m)
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::DidNotConverge { iterations: 2, .. }
        ));
    }

    #[test]
    fn run_to_outcome_keeps_the_exhausted_partial_state() {
        let m = SystemModel::table1_system(0.9).unwrap();
        let out = DistributedNash::new()
            .init(RingInit::Zero)
            .tolerance(1e-12)
            .max_rounds(2)
            .run_to_outcome(&m)
            .unwrap();
        assert_eq!(out.termination(), Termination::Exhausted);
        assert!(!out.converged());
        assert_eq!(out.rounds(), 2);
        // The partial profile is still a feasible strategy profile.
        assert_eq!(out.profile().num_users(), m.num_users());
    }

    #[test]
    fn noisy_observation_still_roughly_equilibrates() {
        let m = SystemModel::table1_system(0.5).unwrap();
        // Noise keeps the true regret above any tight ε forever, so the
        // certified rule would (rightly) never accept — this test is
        // about rough equilibration and pins the paper's norm rule.
        let out = DistributedNash::new()
            .observation(ObservationModel::Noisy {
                rel_std: 0.02,
                seed: 11,
            })
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .tolerance(5e-3)
            .max_rounds(2000)
            .run(&m)
            .unwrap();
        // With 2% observation noise the profile is still a loose eps-Nash.
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        let d_avg: f64 = out.user_times().iter().sum::<f64>() / out.user_times().len() as f64;
        assert!(gap < 0.25 * d_avg, "gap {gap} vs avg time {d_avg}");
    }

    #[test]
    fn collector_sees_hops_rounds_and_done_without_perturbing_the_run() {
        use lb_telemetry::MemoryCollector;

        let m = model();
        let plain = DistributedNash::new().run(&m).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let traced = DistributedNash::new()
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        // The ring replays the same deterministic dynamics.
        assert_eq!(traced.rounds(), plain.rounds());
        for (a, b) in traced.trace().values().iter().zip(plain.trace().values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        assert_eq!(mem.count("ring.start"), 1);
        assert_eq!(mem.count("ring.round"), traced.rounds() as usize);
        // Every user forwards once per round (tail included), plus the
        // terminate lap's m-1 forwards; the coordinator's own injections
        // are not hops. Just require a healthy lower bound.
        assert!(
            mem.count("ring.hop") >= traced.rounds() as usize * m.num_users() - 1,
            "hops {} for {} rounds",
            mem.count("ring.hop"),
            traced.rounds()
        );
        assert_eq!(mem.count("ring.report"), m.num_users());
        assert_eq!(mem.count("ring.done"), 1);
        assert_eq!(mem.count("ring.fault"), 0);
    }

    #[test]
    fn collector_sees_faults_and_capacity_churn() {
        use crate::fault::FaultPlan;
        use lb_telemetry::MemoryCollector;

        // Four users so the ring survives one crash; degrade then
        // recover computer 1 to trigger capacity/epoch/shed events.
        let m = SystemModel::with_equal_users(vec![10.0, 20.0, 50.0], 4, 0.5).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let plan = FaultPlan::new()
            .drop_token_at(1, 2)
            .degrade_computer_at(4, 1, 8.0)
            .recover_computer_at(6, 1);
        let out = DistributedNash::new()
            .fault_plan(plan)
            .round_timeout(Duration::from_millis(300))
            .overload_policy(OverloadPolicy::ShedProportional { headroom: 0.9 })
            .collector(mem.clone())
            .run(&m)
            .unwrap();

        assert_eq!(out.failed_users(), &[1]);
        assert_eq!(mem.count("ring.token_lost"), 1);
        assert_eq!(mem.count("ring.fault"), 1);
        assert_eq!(mem.count("ring.capacity"), 2);
        assert_eq!(mem.count("ring.shed"), 2);
        // One epoch bump per repair/capacity application.
        assert_eq!(mem.count("ring.epoch"), 3);
        assert_eq!(mem.count("ring.report"), 3);
        assert_eq!(mem.count("ring.done"), 1);
    }

    #[test]
    fn table1_ring_at_medium_load() {
        let m = SystemModel::table1_system(0.6).unwrap();
        let out = DistributedNash::new().run(&m).unwrap();
        let gap = epsilon_nash_gap(&m, out.profile()).unwrap();
        assert!(gap < 1e-2, "gap {gap}");
        assert_eq!(out.profile().num_users(), 10);
        // Users skip once ε-optimal (the accepting round is fully
        // quiescent), so updates land strictly below users × rounds.
        assert!(out.total_updates() < 10 * out.rounds());
        assert!(out.total_updates() >= 10 * (out.rounds() - 1) / 2);
    }
}
