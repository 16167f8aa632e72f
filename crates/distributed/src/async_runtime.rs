//! Asynchronous bounded-staleness equilibration over an unreliable
//! network.
//!
//! The token ring ([`crate::runtime`]) reproduces the paper's lockstep
//! protocol: reliable, ordered, one best reply at a time. This module
//! drops all three assumptions, following Berenbrink et al.
//! (*Distributed Selfish Load Balancing*: concurrent selfish updates
//! from stale views still converge) and Chakraborty et al. (approximate
//! equilibria under imperfect information — which the certified-gap
//! machinery lets us *detect* instead of assume):
//!
//! * Each user keeps a **local copy** of the load board and best-replies
//!   against it on a periodic tick — concurrently with everyone else,
//!   against a view whose staleness is bounded by τ
//!   ([`AsyncNash::staleness_us`]) because every node re-announces its
//!   row at least every τ/2 of virtual time.
//! * Updates ship as **versioned per-row deltas** with per-sender
//!   sequence numbers: versions make application idempotent and
//!   commutative (apply-iff-newer), sequence numbers give duplicate
//!   suppression and gap detection over the lossy link.
//! * Unacknowledged updates are **retried** with capped exponential
//!   backoff and deterministic decorrelated jitter
//!   ([`lb_retry::DecorrelatedJitter`]); repeated ack-less retries mark
//!   a peer unreachable.
//! * **Partitions** are handled by epoch: a node that can reach only a
//!   minority of users freezes its best replies (bumping its epoch) and
//!   sheds load ([`OverloadPolicy::ShedProportional`]) against the
//!   capacity left by the unreachable side's (stale, frozen) flows; the
//!   majority keeps converging. The first message from a formerly
//!   unreachable peer triggers an **anti-entropy** exchange
//!   (`SyncReq`/`SyncResp` reconciled by version vector) and an
//!   unfreeze.
//! * **Termination** reuses the ring's certified ε-Nash rule
//!   ([`StoppingRule::CertifiedGap`] at ε = [`AsyncNash::epsilon`]): the
//!   coordinator accepts only when every live user's status (a) was
//!   generated within the last τ of virtual time, (b) reports a
//!   relative regret ≤ ε, (c) is not frozen, and (d) carries a version
//!   vector identical to the coordinator's own — so there are provably
//!   no in-flight updates and the state the regrets were measured
//!   against *is* the state the run returns. ε-optimal users skip
//!   their updates (the ring's pre-update skip rule), so an accepted
//!   board is quiescent by construction.
//!
//! [`StoppingRule::CertifiedGap`]: lb_game::stopping::StoppingRule::CertifiedGap
//!
//! The whole runtime executes as a **sequential discrete-event
//! simulation** over [`crate::net::VirtualNet`]'s virtual clock: every
//! message interleaving is produced by the seeded network, never by OS
//! scheduling, so a `(model, plan, seed)` triple yields a bit-identical
//! [`AsyncOutcome`] on every run — and at every
//! [`AsyncNash::threads`] setting, because worker threads only
//! parallelize the *pure* final certificate recomputation (independent
//! per-user reductions merged in index order).

use crate::fault::FaultAction;
use crate::messages::TraceContext;
use crate::net::{NetFaultPlan, NetStats, VirtualNet};
use lb_game::best_reply::{damped_step, water_fill_flows_into, WaterFillScratch};
use lb_game::error::GameError;
use lb_game::model::SystemModel;
use lb_game::overload::{shed_to_feasible, OverloadPolicy};
use lb_game::parallel::ParallelRunner;
use lb_game::stopping::{placed_user_regret, relative_regret, ViewFreshness};
use lb_game::strategy::{Strategy, StrategyProfile};
use lb_retry::DecorrelatedJitter;
use lb_telemetry::{enabled, Collector, SpanHandle};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Version-vector sentinel for an evicted (declared-failed) user: any
/// real version compares below it, so eviction propagates through the
/// same apply-iff-newer rule as ordinary updates.
const EVICTED: u64 = u64::MAX;

/// Hard ceiling on delivered events, independent of the virtual-time
/// budget — the "never hangs" backstop for adversarial configurations.
const MAX_EVENTS: u64 = 20_000_000;

/// Virtual µs between a user's best-reply ticks.
const UPDATE_PERIOD_US: u64 = 1_000;

/// Retry backoff base and cap (virtual µs) and attempt budget for
/// unacknowledged updates.
const RETRY_BASE_US: u64 = 500;
const RETRY_CAP_US: u64 = 16_000;
const RETRY_ATTEMPTS: u32 = 8;

/// Consecutive ack-less sends after which a peer counts as unreachable
/// for partition detection.
const UNREACHABLE_AFTER: u32 = 5;

/// Silence, in staleness bounds τ, after which the coordinator declares
/// a user failed and evicts it.
const FAILURE_TIMEOUT_TAUS: u64 = 50;

/// Best-reply step size β. Concurrent undamped replies oscillate for
/// m ≥ 3 (the synchronous Jacobi failure mode), and asynchrony tightens
/// the stable range further: the sampled solver's β = 0.5 still cycles
/// when views are a full update period stale, while β = 0.3 converges
/// across the chaos sweep. A damped stationary point is still an exact
/// mutual best reply, so the certificate is unaffected.
const DAMPING: f64 = 0.3;

/// Admission policy a minority partition uses to shed its own demand
/// against the capacity the unreachable side's frozen flows leave.
const MINORITY_POLICY: OverloadPolicy = OverloadPolicy::ShedProportional { headroom: 0.05 };

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The next span id for `node`: a per-node monotone counter namespaced
/// by the node id in the high bits. Pure run state — no process-wide
/// atomics — so trace trees replay bit-identically for a given seed,
/// and ids are nonzero and globally unique (until 2⁴⁰ spans per node,
/// far past [`MAX_EVENTS`]).
fn span_id(node: usize, counter: &mut u64) -> u64 {
    *counter += 1;
    ((node as u64 + 1) << 40) + *counter
}

/// Derives the trace context for an outgoing message at `node`: a child
/// of the message being answered when there is one, otherwise a fresh
/// root (trace id = root span id).
fn derive_ctx(node: usize, counter: &mut u64, cause: Option<TraceContext>) -> TraceContext {
    let span = span_id(node, counter);
    match cause {
        Some(c) => c.child(span),
        None => TraceContext::root(span, span),
    }
}

/// A user's periodic self-report to the coordinator.
#[derive(Debug, Clone)]
struct StatusMsg {
    vv: Vec<u64>,
    regret: f64,
    d: f64,
    epoch: u32,
    frozen: bool,
    gen_us: u64,
}

/// The wire protocol plus node-local timers (timers are delivered by
/// the same virtual clock but bypass the fault model).
#[derive(Debug, Clone)]
enum Msg {
    /// A versioned row announcement (fresh update or heartbeat).
    Update {
        seq: u64,
        version: u64,
        row: Vec<f64>,
    },
    /// Acknowledges the sender's application-level sequence number.
    Ack {
        seq: u64,
    },
    Status(StatusMsg),
    /// Anti-entropy request: "send me everything newer than this."
    SyncReq {
        vv: Vec<u64>,
    },
    /// Anti-entropy response: rows strictly newer than the requested vv.
    SyncResp {
        rows: Vec<(usize, u64, Vec<f64>)>,
    },
    /// Coordinator verdict: `user` is declared failed.
    Evict {
        user: usize,
    },
    /// Timer: a user's best-reply tick.
    TickUpdate,
    /// Timer: retry the pending update to `dest` if `seq` is still
    /// unacknowledged.
    Retry {
        dest: usize,
        seq: u64,
    },
    /// Timer: a `DelayForward` fault releasing a held-back broadcast.
    DelayedBroadcast,
    /// Timer: the coordinator's periodic liveness / acceptance sweep.
    Check,
}

/// An unacknowledged update to one destination. Retries resend the
/// sender's *current* row under the same sequence number — newer
/// versions supersede, and application is idempotent either way.
struct Pending {
    seq: u64,
    /// Trace the original send rooted; retries send fresh spans under
    /// this same trace (parented at the root), so an update and all its
    /// retries reconstruct as one tree.
    trace: u64,
    jitter: DecorrelatedJitter,
    episode: u32,
}

/// Shared, immutable run parameters.
#[derive(Clone)]
struct Cfg {
    m: usize,
    coord: usize,
    mu: Vec<f64>,
    phis: Vec<f64>,
    epsilon: f64,
    tau: u64,
    seed: u64,
}

fn proportional_rows(cfg: &Cfg) -> Vec<Vec<f64>> {
    let total: f64 = cfg.mu.iter().sum();
    (0..cfg.m)
        .map(|j| cfg.mu.iter().map(|mu| cfg.phis[j] * mu / total).collect())
        .collect()
}

/// Aggregate flow per computer, summed over the rows in index order into
/// `loads`.
fn board_loads_into(rows: &[Vec<f64>], loads: &mut [f64]) {
    loads.fill(0.0);
    for row in rows {
        for (l, x) in loads.iter_mut().zip(row) {
            *l += x;
        }
    }
}

/// The anti-entropy answer to a `SyncReq` carrying version vector `vv`,
/// shared by users and the coordinator: every live row of the board
/// newer than `vv`, or `None` when there is nothing to send.
fn sync_resp(versions: &[u64], rows: &[Vec<f64>], vv: &[u64]) -> Option<Msg> {
    let rows: Vec<(usize, u64, Vec<f64>)> = (0..versions.len())
        .filter(|&k| versions[k] != EVICTED && vv.get(k).is_some_and(|&v| versions[k] > v))
        .map(|k| (k, versions[k], rows[k].clone()))
        .collect();
    (!rows.is_empty()).then_some(Msg::SyncResp { rows })
}

fn jitter_for(cfg: &Cfg, node: usize, dest: usize, episode: u32) -> DecorrelatedJitter {
    DecorrelatedJitter::new(
        RETRY_BASE_US as f64,
        RETRY_CAP_US as f64,
        RETRY_ATTEMPTS,
        mix(
            cfg.seed,
            ((node as u64) << 40) ^ ((dest as u64) << 20) ^ episode as u64,
        ),
    )
}

/// One user endpoint: local board, version vector, retry state,
/// partition bookkeeping.
struct UserNode {
    id: usize,
    cfg: Cfg,
    rows: Vec<Vec<f64>>,
    versions: Vec<u64>,
    dead: bool,
    frozen: bool,
    epoch: u32,
    round: u32,
    last_broadcast: u64,
    next_seq: Vec<u64>,
    expected: Vec<u64>,
    outbox: Vec<Option<Pending>>,
    attempts: Vec<u32>,
    updates: u64,
    dup_msgs: u64,
    gap_msgs: u64,
    retries: u64,
    next_span: u64,
    /// The kernel's scratch, holding this user's last sorted order, and
    /// the board-load, availability and reply buffers, all reused across
    /// ticks (a reply is damped in place and swapped into the row it
    /// replaces, whose buffer the next reply reuses).
    water_fill: WaterFillScratch,
    loads: Vec<f64>,
    avail: Vec<f64>,
    reply: Vec<f64>,
}

impl UserNode {
    fn new(id: usize, cfg: &Cfg, rows: Vec<Vec<f64>>) -> Self {
        let peers = cfg.m + 1;
        Self {
            id,
            cfg: cfg.clone(),
            rows,
            versions: vec![1; cfg.m],
            dead: false,
            frozen: false,
            epoch: 0,
            round: 0,
            last_broadcast: 0,
            next_seq: vec![0; peers],
            expected: vec![0; peers],
            outbox: (0..peers).map(|_| None).collect(),
            attempts: vec![0; peers],
            updates: 0,
            dup_msgs: 0,
            gap_msgs: 0,
            retries: 0,
            next_span: 0,
            water_fill: WaterFillScratch::default(),
            loads: vec![0.0; cfg.mu.len()],
            avail: Vec::with_capacity(cfg.mu.len()),
            reply: Vec::with_capacity(cfg.mu.len()),
        }
    }

    /// Pre/post-update regret of this user's row against the full board.
    fn measure(&mut self) -> (f64, f64) {
        board_loads_into(&self.rows, &mut self.loads);
        placed_user_regret(
            &self.cfg.mu,
            &self.loads,
            &self.rows[self.id],
            self.cfg.phis[self.id],
        )
    }

    fn ctx(&mut self, cause: Option<TraceContext>) -> TraceContext {
        derive_ctx(self.id, &mut self.next_span, cause)
    }

    fn alive_peers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cfg.m).filter(move |&k| k != self.id && self.versions[k] != EVICTED)
    }

    /// Sends (or resends) the current row to one destination and arms
    /// the retry timer. The first send roots a trace; every retry is a
    /// fresh span under it, parented at the root.
    fn send_update(&mut self, dest: usize, net: &mut VirtualNet<Msg>, fresh: bool) {
        let (seq, ctx) = if fresh {
            let s = self.next_seq[dest];
            self.next_seq[dest] += 1;
            (s, self.ctx(None))
        } else {
            let (seq, trace) = match &self.outbox[dest] {
                Some(p) => (p.seq, p.trace),
                None => return,
            };
            self.retries += 1;
            (seq, self.ctx(Some(TraceContext::root(trace, trace))))
        };
        self.attempts[dest] = self.attempts[dest].saturating_add(1);
        net.send_traced(
            self.id,
            dest,
            ctx,
            Msg::Update {
                seq,
                version: self.versions[self.id],
                row: self.rows[self.id].clone(),
            },
        );
        let pending = if fresh {
            self.outbox[dest] = Some(Pending {
                seq,
                trace: ctx.trace,
                jitter: jitter_for(&self.cfg, self.id, dest, 0),
                episode: 0,
            });
            self.outbox[dest].as_mut().expect("just stored")
        } else {
            self.outbox[dest].as_mut().expect("caller checked")
        };
        let delay = match pending.jitter.next_delay() {
            Some(d) => d,
            None => {
                // Episode exhausted: keep probing at the cap cadence with
                // a fresh (still deterministic) jitter stream, so a heal
                // is always eventually noticed.
                pending.episode += 1;
                pending.jitter = jitter_for(&self.cfg, self.id, dest, pending.episode);
                pending.jitter.next_delay().expect("fresh jitter budget")
            }
        };
        net.schedule(
            self.id,
            (delay.round() as u64).max(1),
            Msg::Retry { dest, seq },
        );
    }

    /// Announces the current row to every live peer and the coordinator.
    fn broadcast(&mut self, net: &mut VirtualNet<Msg>, now: u64) {
        let dests: Vec<usize> = self.alive_peers().chain([self.cfg.coord]).collect();
        for dest in dests {
            self.send_update(dest, net, true);
        }
        self.last_broadcast = now;
        self.check_freeze();
    }

    fn send_status(&mut self, net: &mut VirtualNet<Msg>, now: u64) {
        let (regret, d) = self.measure();
        let ctx = self.ctx(None);
        net.send_traced(
            self.id,
            self.cfg.coord,
            ctx,
            Msg::Status(StatusMsg {
                vv: self.versions.clone(),
                regret,
                d,
                epoch: self.epoch,
                frozen: self.frozen,
                gen_us: now,
            }),
        );
    }

    /// Re-evaluates the partition state from the per-peer failure
    /// counters; freezing sheds, unfreezing resumes (the next tick's
    /// best reply restores the full row).
    fn check_freeze(&mut self) {
        let alive: Vec<usize> = self.alive_peers().collect();
        let total = alive.len() + 1;
        let reachable = alive
            .iter()
            .filter(|&&k| self.attempts[k] < UNREACHABLE_AFTER)
            .count()
            + 1;
        let minority = total > 1 && 2 * reachable <= total;
        if minority && !self.frozen {
            self.frozen = true;
            self.epoch += 1;
            self.shed_for_group(&alive);
        } else if !minority && self.frozen {
            self.frozen = false;
            self.epoch += 1;
        }
    }

    /// Minority-side admission control: shed own demand so the group's
    /// residual game (capacity minus the unreachable side's frozen
    /// flows) is feasible under [`MINORITY_POLICY`].
    fn shed_for_group(&mut self, alive: &[usize]) {
        let mut residual = self.cfg.mu.clone();
        for &k in alive {
            if self.attempts[k] >= UNREACHABLE_AFTER {
                for (r, x) in residual.iter_mut().zip(&self.rows[k]) {
                    *r = (*r - x).max(0.0);
                }
            }
        }
        let mut members: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&k| self.attempts[k] < UNREACHABLE_AFTER)
            .chain([self.id])
            .collect();
        members.sort_unstable();
        let group_phis: Vec<f64> = members.iter().map(|&k| self.cfg.phis[k]).collect();
        let demand: f64 = group_phis.iter().sum();
        let capacity: f64 = residual.iter().sum();
        if demand < capacity * 0.999 {
            return; // the residual game is already feasible
        }
        if let Ok(plan) = shed_to_feasible(&residual, &group_phis, MINORITY_POLICY) {
            let me = members.iter().position(|&k| k == self.id).expect("member");
            let phi = self.cfg.phis[self.id];
            if phi > 0.0 && plan.admitted[me] < phi {
                let scale = plan.admitted[me] / phi;
                for x in &mut self.rows[self.id] {
                    *x *= scale;
                }
                self.versions[self.id] += 1;
                self.updates += 1;
            }
        }
    }

    /// Applies a row announcement iff its version is newer. Returns
    /// whether it advanced the local view.
    fn apply(&mut self, user: usize, version: u64, row: &[f64]) -> bool {
        if user >= self.cfg.m || self.versions[user] == EVICTED || version <= self.versions[user] {
            return false;
        }
        self.versions[user] = version;
        self.rows[user].copy_from_slice(row);
        true
    }

    /// Any receipt from `from` proves reachability; a recovery after the
    /// unreachable threshold triggers anti-entropy and an unfreeze check.
    /// The sync request is a child of the message that proved liveness.
    fn mark_heard(&mut self, from: usize, cause: Option<TraceContext>, net: &mut VirtualNet<Msg>) {
        let was_unreachable = self.attempts[from] >= UNREACHABLE_AFTER;
        self.attempts[from] = 0;
        if was_unreachable {
            let ctx = self.ctx(cause);
            net.send_traced(
                self.id,
                from,
                ctx,
                Msg::SyncReq {
                    vv: self.versions.clone(),
                },
            );
            self.check_freeze();
        }
    }

    fn track_seq(&mut self, from: usize, seq: u64) {
        let expected = self.expected[from];
        if seq < expected {
            self.dup_msgs += 1;
        } else {
            if seq > expected {
                self.gap_msgs += seq - expected;
            }
            self.expected[from] = seq + 1;
        }
    }

    fn handle(
        &mut self,
        from: usize,
        msg: Msg,
        ctx: Option<TraceContext>,
        net: &mut VirtualNet<Msg>,
        now: u64,
    ) {
        if self.dead {
            return;
        }
        match msg {
            Msg::Update { seq, version, row } => {
                self.track_seq(from, seq);
                let ack = self.ctx(ctx);
                net.send_traced(self.id, from, ack, Msg::Ack { seq });
                self.apply(from, version, &row);
                self.mark_heard(from, ctx, net);
            }
            Msg::Ack { seq } => {
                if let Some(p) = &self.outbox[from] {
                    if p.seq == seq {
                        self.outbox[from] = None;
                    }
                }
                self.mark_heard(from, ctx, net);
            }
            Msg::SyncReq { vv } => {
                if let Some(resp) = sync_resp(&self.versions, &self.rows, &vv) {
                    let span = self.ctx(ctx);
                    net.send_traced(self.id, from, span, resp);
                }
                self.mark_heard(from, ctx, net);
            }
            Msg::SyncResp { rows } => {
                for (user, version, row) in rows {
                    self.apply(user, version, &row);
                }
                self.mark_heard(from, ctx, net);
            }
            Msg::Evict { user } => {
                if user == self.id {
                    // The coordinator declared us failed; a node that has
                    // been voted out halts rather than split-brains.
                    self.dead = true;
                    return;
                }
                if user < self.cfg.m && self.versions[user] != EVICTED {
                    self.versions[user] = EVICTED;
                    self.rows[user].iter_mut().for_each(|x| *x = 0.0);
                    self.outbox[user] = None;
                    self.attempts[user] = 0;
                    self.check_freeze();
                }
            }
            Msg::TickUpdate => self.tick(net, now),
            Msg::Retry { dest, seq } => {
                let live = matches!(&self.outbox[dest], Some(p) if p.seq == seq);
                if live && self.versions.get(dest).copied() != Some(EVICTED) {
                    self.send_update(dest, net, false);
                    self.check_freeze();
                }
            }
            Msg::DelayedBroadcast => self.broadcast(net, now),
            Msg::Status(_) | Msg::Check => {}
        }
    }

    /// One best-reply tick: measure, reply if not ε-optimal, status,
    /// broadcast / heartbeat, reschedule.
    fn tick(&mut self, net: &mut VirtualNet<Msg>, now: u64) {
        let fault = self.cfg_fault(net);
        if fault == Some(FaultAction::PanicHoldingToken) {
            self.dead = true;
            return;
        }
        self.round += 1;

        let mut changed = false;
        if !self.frozen && fault != Some(FaultAction::StaleRound) {
            let (regret, d) = self.measure();
            if relative_regret(regret, d) > self.cfg.epsilon {
                let n = self.cfg.mu.len();
                let avail = &mut self.avail;
                avail.clone_from(&self.cfg.mu);
                for (k, row) in self.rows.iter().enumerate() {
                    if k == self.id {
                        continue;
                    }
                    for i in 0..n {
                        avail[i] = (avail[i] - row[i]).max(0.0);
                    }
                }
                let phi = self.cfg.phis[self.id];
                let reply = &mut self.reply;
                if water_fill_flows_into(avail, phi, &mut self.water_fill, reply).is_ok() {
                    // Damped step `(1−β)·old + β·reply` (the sampled
                    // solver's idiom): concurrent undamped best replies
                    // against stale boards oscillate for m ≥ 3 — everyone
                    // floods the least-loaded computer, then everyone
                    // flees it. Dust below 1e-6·φ is dropped and the row
                    // rescaled to carry exactly φ again.
                    for (x, &old) in reply.iter_mut().zip(&self.rows[self.id]) {
                        *x = damped_step(old, *x, DAMPING, phi);
                    }
                    let sum: f64 = reply.iter().sum();
                    if sum > 0.0 {
                        let scale = phi / sum;
                        for x in reply.iter_mut() {
                            *x *= scale;
                        }
                        if *reply != self.rows[self.id] {
                            std::mem::swap(&mut self.rows[self.id], reply);
                            self.versions[self.id] += 1;
                            self.updates += 1;
                            changed = true;
                        }
                    }
                }
            }
        }

        self.send_status(net, now);

        let announce = changed || now.saturating_sub(self.last_broadcast) >= self.cfg.tau / 2;
        match fault {
            Some(FaultAction::DropToken) => {
                // Local update applied but never announced: peers must
                // recover via the next heartbeat.
                self.last_broadcast = now;
            }
            Some(FaultAction::DelayForward(delay)) if announce => {
                self.last_broadcast = now;
                let d_us = (delay.as_micros() as u64).max(1);
                net.schedule(self.id, d_us, Msg::DelayedBroadcast);
            }
            _ => {
                if announce {
                    self.broadcast(net, now);
                }
            }
        }

        if fault == Some(FaultAction::PanicAfterForward) {
            self.dead = true;
            return;
        }
        net.schedule(self.id, UPDATE_PERIOD_US, Msg::TickUpdate);
    }

    /// The node-level fault scheduled for this tick, mapped from the
    /// ring plan's `(user, round)` key: the tick counter plays the role
    /// of the round number.
    fn cfg_fault(&self, net: &VirtualNet<Msg>) -> Option<FaultAction> {
        net.plan().node_plan().action(self.id, self.round)
    }
}

/// The coordinator endpoint: mirror board, liveness tracking, eviction,
/// and the certified acceptance check.
struct CoordNode {
    cfg: Cfg,
    rows: Vec<Vec<f64>>,
    versions: Vec<u64>,
    expected: Vec<u64>,
    last_heard: Vec<u64>,
    statuses: Vec<Option<StatusMsg>>,
    certified: Option<f64>,
    updates_applied: u64,
    syncs: u64,
    max_epoch: u32,
    next_span: u64,
    collector: Option<Arc<dyn Collector>>,
}

impl CoordNode {
    fn new(cfg: &Cfg, rows: Vec<Vec<f64>>) -> Self {
        Self {
            cfg: cfg.clone(),
            rows,
            versions: vec![1; cfg.m],
            expected: vec![0; cfg.m],
            last_heard: vec![0; cfg.m],
            statuses: (0..cfg.m).map(|_| None).collect(),
            certified: None,
            updates_applied: 0,
            syncs: 0,
            max_epoch: 0,
            next_span: 0,
            collector: None,
        }
    }

    fn ctx(&mut self, cause: Option<TraceContext>) -> TraceContext {
        derive_ctx(self.cfg.coord, &mut self.next_span, cause)
    }

    fn apply(&mut self, user: usize, version: u64, row: &[f64], now: u64) {
        if user >= self.cfg.m || self.versions[user] == EVICTED || version <= self.versions[user] {
            return;
        }
        self.versions[user] = version;
        self.rows[user].copy_from_slice(row);
        self.updates_applied += 1;
        if let Some(c) = enabled(self.collector.as_ref()) {
            c.emit(
                "async.update",
                &[
                    ("t_us", now.into()),
                    ("user", user.into()),
                    ("version", version.into()),
                ],
            );
        }
    }

    fn mark_heard(
        &mut self,
        from: usize,
        cause: Option<TraceContext>,
        net: &mut VirtualNet<Msg>,
        now: u64,
    ) {
        if from >= self.cfg.m || self.versions[from] == EVICTED {
            return;
        }
        // A long-silent peer resurfacing means we likely missed updates
        // from its side of a cut: reconcile by version vector.
        if now.saturating_sub(self.last_heard[from]) > 2 * self.cfg.tau {
            let ctx = self.ctx(cause);
            net.send_traced(
                self.cfg.coord,
                from,
                ctx,
                Msg::SyncReq {
                    vv: self.versions.clone(),
                },
            );
        }
        self.last_heard[from] = now;
    }

    fn handle(
        &mut self,
        from: usize,
        msg: Msg,
        ctx: Option<TraceContext>,
        net: &mut VirtualNet<Msg>,
        now: u64,
    ) {
        match msg {
            Msg::Update { seq, version, row } if from < self.cfg.m => {
                let expected = self.expected[from];
                if seq >= expected {
                    self.expected[from] = seq + 1;
                }
                let ack = self.ctx(ctx);
                net.send_traced(self.cfg.coord, from, ack, Msg::Ack { seq });
                self.mark_heard(from, ctx, net, now);
                self.apply(from, version, &row, now);
            }
            Msg::Status(s) if from < self.cfg.m && self.versions[from] != EVICTED => {
                self.max_epoch = self.max_epoch.max(s.epoch);
                // View staleness as certification sees it: the age of
                // the freshest self-report from this user.
                if let Some(c) = enabled(self.collector.as_ref()) {
                    c.emit(
                        "async.staleness",
                        &[
                            ("t_us", now.into()),
                            ("user", from.into()),
                            ("age_us", now.saturating_sub(s.gen_us).into()),
                        ],
                    );
                }
                self.mark_heard(from, ctx, net, now);
                self.statuses[from] = Some(s);
                self.try_accept(now, ctx.map_or(0, |c| c.trace));
            }
            Msg::SyncResp { rows } => {
                let mut merged = 0u64;
                for (user, version, row) in rows {
                    let before = self.versions.get(user).copied();
                    self.apply(user, version, &row, now);
                    if self.versions.get(user).copied() != before {
                        merged += 1;
                    }
                }
                self.mark_heard(from, ctx, net, now);
                if merged > 0 {
                    self.syncs += 1;
                    if let Some(c) = enabled(self.collector.as_ref()) {
                        c.emit(
                            "async.sync",
                            &[
                                ("t_us", now.into()),
                                ("peer", from.into()),
                                ("rows", merged.into()),
                            ],
                        );
                    }
                }
            }
            Msg::SyncReq { vv } => {
                if let Some(resp) = sync_resp(&self.versions, &self.rows, &vv) {
                    let span = self.ctx(ctx);
                    net.send_traced(self.cfg.coord, from, span, resp);
                }
                self.mark_heard(from, ctx, net, now);
            }
            Msg::Check => {
                let failure_timeout = self.cfg.tau.saturating_mul(FAILURE_TIMEOUT_TAUS);
                for j in 0..self.cfg.m {
                    if self.versions[j] != EVICTED
                        && now.saturating_sub(self.last_heard[j]) > failure_timeout
                    {
                        self.versions[j] = EVICTED;
                        self.rows[j].iter_mut().for_each(|x| *x = 0.0);
                        self.statuses[j] = None;
                    }
                }
                // Re-announce verdicts until the survivors' version
                // vectors show the tombstones (Evict is unreliable).
                for j in 0..self.cfg.m {
                    if self.versions[j] == EVICTED {
                        for k in 0..self.cfg.m {
                            if self.versions[k] != EVICTED {
                                let verdict = self.ctx(None);
                                net.send_traced(self.cfg.coord, k, verdict, Msg::Evict { user: j });
                            }
                        }
                    }
                }
                self.try_accept(now, 0);
                net.schedule(self.cfg.coord, self.cfg.tau, Msg::Check);
            }
            _ => {}
        }
    }

    /// The certificate-freshness acceptance rule (see module docs): all
    /// live statuses fresh within τ, unfrozen, ε-certified, and in
    /// version-vector agreement with the coordinator's mirror. `trace`
    /// is the causal trace of the status message that completed the
    /// certificate (0 when the sweep timer triggered the check), so the
    /// quiesce event joins the cross-node span tree.
    fn try_accept(&mut self, now: u64, trace: u64) {
        if self.certified.is_some() {
            return;
        }
        let gate = ViewFreshness {
            staleness_bound: self.cfg.tau,
        };
        let mut gap: f64 = 0.0;
        let mut any = false;
        for j in 0..self.cfg.m {
            if self.versions[j] == EVICTED {
                continue;
            }
            any = true;
            let s = match &self.statuses[j] {
                Some(s) => s,
                None => return,
            };
            if s.frozen || !gate.accepts(s.gen_us, now, &s.vv, &self.versions) {
                return;
            }
            // NaN (e.g. from an ∞/∞ mismatch regret) must reject, so
            // compare via `partial_cmp` rather than `rel > epsilon`.
            let rel = relative_regret(s.regret, s.d);
            if !matches!(
                rel.partial_cmp(&self.cfg.epsilon),
                Some(Ordering::Less | Ordering::Equal)
            ) {
                return;
            }
            gap = gap.max(rel);
        }
        if !any {
            return;
        }
        self.certified = Some(gap);
        if let Some(c) = enabled(self.collector.as_ref()) {
            c.emit(
                "async.quiesce",
                &[
                    ("t_us", now.into()),
                    ("gap", gap.into()),
                    ("epoch", self.max_epoch.into()),
                    ("trace", trace.into()),
                ],
            );
        }
    }
}

/// How an asynchronous run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncTermination {
    /// The coordinator accepted a certified relative ε-Nash gap from a
    /// provably fresh, quiescent view.
    Converged,
    /// The run stopped without a certificate; the outcome carries the
    /// best known (partial) state.
    Exhausted {
        /// Which budget ran out.
        reason: &'static str,
    },
}

/// The result of an [`AsyncNash`] run: the coordinator's final board,
/// the certificate, and the chaos bookkeeping. Byte-identical across
/// runs and thread counts for a fixed `(model, plan, seed)`.
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    termination: AsyncTermination,
    certified_gap: Option<f64>,
    final_gap: f64,
    rows: Vec<Vec<f64>>,
    user_times: Vec<f64>,
    phis: Vec<f64>,
    virtual_time_us: u64,
    updates: u64,
    syncs: u64,
    retries: u64,
    net: NetStats,
}

impl AsyncOutcome {
    /// How the run ended.
    pub fn termination(&self) -> AsyncTermination {
        self.termination
    }

    /// Whether the run ended with a certified gap.
    pub fn converged(&self) -> bool {
        self.termination == AsyncTermination::Converged
    }

    /// The certified relative ε-Nash gap accepted by the coordinator
    /// (`None` for partial outcomes).
    pub fn certified_gap(&self) -> Option<f64> {
        self.certified_gap
    }

    /// The relative gap recomputed from the final board over surviving
    /// users — advisory for partial outcomes (`∞` when a survivor's row
    /// does not place its full demand).
    pub fn final_gap(&self) -> f64 {
        self.final_gap
    }

    /// Final per-user expected response times (`NaN` for evicted users).
    pub fn user_times(&self) -> &[f64] {
        &self.user_times
    }

    /// Virtual time consumed, µs.
    pub fn virtual_time_us(&self) -> u64 {
        self.virtual_time_us
    }

    /// Best-reply updates applied at the coordinator's mirror.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Anti-entropy merges performed at the coordinator.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Ack-less resends performed across all users (each consumes a
    /// fresh span under the original trace).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// What the network did to the traffic.
    pub fn net_stats(&self) -> NetStats {
        self.net
    }

    /// The final board as a strategy profile (fractions of each user's
    /// nominal demand).
    ///
    /// # Errors
    ///
    /// [`GameError::InfeasibleStrategy`] when a row is not a valid
    /// strategy (e.g. an evicted user's zeroed row).
    pub fn profile(&self) -> Result<StrategyProfile, GameError> {
        let rows = self
            .rows
            .iter()
            .zip(&self.phis)
            .map(|(row, &phi)| Strategy::new(row.iter().map(|x| x / phi).collect()))
            .collect::<Result<Vec<_>, _>>()?;
        StrategyProfile::new(rows)
    }
}

/// Builder/runner for the asynchronous bounded-staleness dynamics. See
/// the module docs for the protocol.
///
/// ```
/// use lb_distributed::async_runtime::AsyncNash;
/// use lb_distributed::net::NetFaultPlan;
/// use lb_game::model::SystemModel;
///
/// let model = SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap();
/// let out = AsyncNash::new()
///     .seed(7)
///     .fault_plan(NetFaultPlan::new().loss(0.2).reordering(0.3))
///     .run(&model)
///     .unwrap();
/// assert!(out.converged());
/// ```
pub struct AsyncNash {
    seed: u64,
    plan: NetFaultPlan,
    epsilon: f64,
    staleness_us: u64,
    max_virtual_us: u64,
    threads: usize,
    collector: Option<Arc<dyn Collector>>,
}

impl fmt::Debug for AsyncNash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AsyncNash")
            .field("seed", &self.seed)
            .field("epsilon", &self.epsilon)
            .field("staleness_us", &self.staleness_us)
            .field("max_virtual_us", &self.max_virtual_us)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for AsyncNash {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncNash {
    /// A runner with the default chaos-free network, ε = 10⁻⁴, τ = 20 ms
    /// of virtual time, 1 ms update period, and a 30 s virtual budget.
    pub fn new() -> Self {
        Self {
            seed: 1,
            plan: NetFaultPlan::new(),
            epsilon: 1e-4,
            staleness_us: 20_000,
            max_virtual_us: 30_000_000,
            threads: 1,
            collector: None,
        }
    }

    /// Seed for the network fault rolls and retry jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The network fault schedule (defaults to a healthy network).
    pub fn fault_plan(mut self, plan: NetFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The certified relative ε-Nash tolerance. The runtime always
    /// stops on [`StoppingRule::CertifiedGap`]: a norm rule cannot tell
    /// a quiet lossy network from an equilibrium.
    ///
    /// [`StoppingRule::CertifiedGap`]: lb_game::stopping::StoppingRule::CertifiedGap
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The staleness bound τ (virtual µs): rows are re-announced at
    /// least every τ/2, and certificates are accepted only from statuses
    /// generated within the last τ.
    pub fn staleness_us(mut self, tau: u64) -> Self {
        self.staleness_us = tau;
        self
    }

    /// The virtual-time budget after which the run returns a typed
    /// partial outcome.
    pub fn max_virtual_us(mut self, budget: u64) -> Self {
        self.max_virtual_us = budget;
        self
    }

    /// Worker threads for the final certificate recomputation. Purely a
    /// throughput knob: the outcome is byte-identical at any setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a telemetry collector (`net.*` and `async.*` events).
    pub fn collector(mut self, collector: Arc<dyn Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// Runs the asynchronous dynamics to a certified equilibrium or a
    /// typed partial outcome. Never hangs: virtual time and event count
    /// are both budgeted.
    ///
    /// # Errors
    ///
    /// * [`GameError::InvalidRate`] for an `epsilon` that is not finite
    ///   and positive.
    /// * [`GameError::ZeroDuration`] for a zero `staleness_us` or
    ///   `max_virtual_us`.
    pub fn run(&self, model: &SystemModel) -> Result<AsyncOutcome, GameError> {
        let epsilon = self.epsilon;
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(GameError::InvalidRate {
                name: "epsilon",
                value: epsilon,
            });
        }
        for (what, v) in [
            ("staleness_bound", self.staleness_us),
            ("max_virtual_time", self.max_virtual_us),
        ] {
            if v == 0 {
                return Err(GameError::ZeroDuration { what });
            }
        }
        let m = model.num_users();
        let cfg = Cfg {
            m,
            coord: m,
            mu: model.computer_rates().to_vec(),
            phis: model.user_rates().to_vec(),
            epsilon,
            tau: self.staleness_us,
            seed: self.seed,
        };

        let seed_rows = proportional_rows(&cfg);
        let mut users: Vec<UserNode> = (0..m)
            .map(|j| UserNode::new(j, &cfg, seed_rows.clone()))
            .collect();
        let mut coord = CoordNode::new(&cfg, seed_rows);
        coord.collector = self.collector.clone();

        let mut net: VirtualNet<Msg> = VirtualNet::new(m + 1, self.seed, self.plan.clone());
        if let Some(c) = &self.collector {
            net.collector(c.clone());
        }
        // Staggered first ticks decorrelate the users' update phases —
        // the async analogue of the ring's round-robin order.
        for j in 0..m {
            net.schedule(
                j,
                1 + (j as u64 * UPDATE_PERIOD_US) / m as u64,
                Msg::TickUpdate,
            );
        }
        net.schedule(m, cfg.tau, Msg::Check);

        let mut termination = AsyncTermination::Exhausted {
            reason: "virtual-time budget exhausted",
        };
        let mut events = 0u64;
        while let Some(d) = net.step() {
            if d.at_us > self.max_virtual_us {
                break;
            }
            events += 1;
            if events > MAX_EVENTS {
                termination = AsyncTermination::Exhausted {
                    reason: "event budget exhausted",
                };
                break;
            }
            let now = d.at_us;
            if d.to == m {
                coord.handle(d.from, d.msg, d.ctx, &mut net, now);
                if coord.certified.is_some() {
                    termination = AsyncTermination::Converged;
                    break;
                }
            } else {
                users[d.to].handle(d.from, d.msg, d.ctx, &mut net, now);
            }
            if users.iter().all(|u| u.dead) {
                termination = AsyncTermination::Exhausted {
                    reason: "all users failed",
                };
                break;
            }
        }

        let virtual_time_us = net.now().min(self.max_virtual_us);
        let alive: Vec<usize> = (0..m).filter(|&j| coord.versions[j] != EVICTED).collect();
        let per_user = certificate_rows(&cfg, &coord.rows, &alive, self.threads);
        let mut final_gap: f64 = 0.0;
        let mut user_times = vec![f64::NAN; m];
        for (&j, &(regret, dj)) in alive.iter().zip(&per_user) {
            final_gap = final_gap.max(relative_regret(regret, dj));
            user_times[j] = dj;
        }
        let updates: u64 = users.iter().map(|u| u.updates).sum();
        let retries: u64 = users.iter().map(|u| u.retries).sum();
        // Resource-accounting snapshot: what the episode cost the
        // network, every field an integer (schema `account.*` rule).
        let stats = net.stats();
        if let Some(c) = enabled(self.collector.as_ref()) {
            c.emit(
                "account.net",
                &[
                    ("sent", stats.sent.into()),
                    ("delivered", stats.delivered.into()),
                    ("dropped", stats.dropped.into()),
                    ("duplicated", stats.duplicated.into()),
                    ("reordered", stats.reordered.into()),
                    ("partition_drops", stats.partition_drops.into()),
                    ("bytes", stats.bytes.into()),
                    ("retries", retries.into()),
                ],
            );
        }
        Ok(AsyncOutcome {
            certified_gap: (termination == AsyncTermination::Converged).then_some(final_gap),
            termination,
            final_gap,
            rows: coord.rows,
            user_times,
            phis: cfg.phis.clone(),
            virtual_time_us,
            updates,
            syncs: coord.syncs,
            retries,
            net: stats,
        })
    }
}

/// Per-user `(regret, D_j)` over the final board — the pure reduction
/// the `threads` knob fans out over a [`ParallelRunner`], one contiguous
/// chunk of `alive` per worker. The loads are summed once, exactly as
/// [`UserNode::measure`] sums them, and chunk results are concatenated
/// in index order, so the output is bitwise identical at any thread
/// count.
fn certificate_rows(
    cfg: &Cfg,
    rows: &[Vec<f64>],
    alive: &[usize],
    threads: usize,
) -> Vec<(f64, f64)> {
    let mut loads = vec![0.0; cfg.mu.len()];
    board_loads_into(rows, &mut loads);
    let chunk = alive.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<&[usize]> = alive.chunks(chunk).collect();
    let chunk_rows = |t: usize, _: Option<&SpanHandle>| -> Vec<(f64, f64)> {
        parts[t]
            .iter()
            .map(|&j| placed_user_regret(&cfg.mu, &loads, &rows[j], cfg.phis[j]))
            .collect()
    };
    ParallelRunner::new(threads)
        .run(parts.len(), chunk_rows, None, None)
        .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_game::equilibrium::epsilon_nash_gap;

    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 50.0], vec![15.0, 25.0]).unwrap()
    }

    #[test]
    fn converges_on_a_healthy_network() {
        let m = model();
        let out = AsyncNash::new().run(&m).unwrap();
        assert!(out.converged(), "termination {:?}", out.termination());
        assert!(out.certified_gap().unwrap() <= 1e-4);
        let gap = epsilon_nash_gap(&m, &out.profile().unwrap()).unwrap();
        assert!(gap < 1e-3, "true gap {gap}");
        assert!(out.updates() > 0);
        // Only an evicted user's response time is NaN.
        assert!(out.user_times().iter().all(|t| !t.is_nan()));
    }

    #[test]
    fn converges_under_loss_dup_and_reorder() {
        let m = model();
        let plan = NetFaultPlan::new()
            .loss(0.3)
            .duplication(0.15)
            .reordering(0.4)
            .delay_us(50, 2_000);
        let out = AsyncNash::new().seed(11).fault_plan(plan).run(&m).unwrap();
        assert!(out.converged(), "termination {:?}", out.termination());
        let stats = out.net_stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0);
        let gap = epsilon_nash_gap(&m, &out.profile().unwrap()).unwrap();
        assert!(gap < 1e-3, "true gap {gap}");
    }

    #[test]
    fn same_seed_bitwise_identical_outcome() {
        let m = model();
        let plan = || {
            NetFaultPlan::new()
                .loss(0.25)
                .reordering(0.5)
                .delay_us(10, 900)
        };
        let a = AsyncNash::new().seed(5).fault_plan(plan()).run(&m).unwrap();
        let b = AsyncNash::new().seed(5).fault_plan(plan()).run(&m).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let m = model();
        let plan = || {
            NetFaultPlan::new()
                .loss(0.2)
                .duplication(0.1)
                .delay_us(10, 700)
        };
        let run = |threads: usize| {
            AsyncNash::new()
                .seed(3)
                .threads(threads)
                .fault_plan(plan())
                .run(&m)
                .unwrap()
        };
        let t1 = format!("{:?}", run(1));
        assert_eq!(t1, format!("{:?}", run(2)));
        assert_eq!(t1, format!("{:?}", run(8)));
    }

    #[test]
    fn partition_freezes_minority_then_heals_and_certifies() {
        let m = SystemModel::new(vec![10.0, 20.0, 50.0], vec![12.0, 15.0, 20.0]).unwrap();
        // User 0 is cut off from everyone (users 1, 2 + coordinator)
        // for the first 200 ms of virtual time, then heals.
        let plan = NetFaultPlan::new()
            .delay_us(50, 400)
            .partition_at(0, 200_000, vec![0]);
        let collector = Arc::new(lb_telemetry::MemoryCollector::default());
        let out = AsyncNash::new()
            .seed(9)
            .fault_plan(plan)
            .collector(collector.clone())
            .run(&m)
            .unwrap();
        assert!(out.converged(), "termination {:?}", out.termination());
        let (_, quiesce) = collector
            .events()
            .into_iter()
            .find(|(name, _)| *name == "async.quiesce")
            .unwrap();
        let epoch = quiesce.iter().find(|(k, _)| *k == "epoch").unwrap();
        assert!(
            matches!(epoch.1, lb_telemetry::FieldValue::U64(e) if e >= 2),
            "minority must freeze and unfreeze"
        );
        assert!(out.net_stats().partition_drops > 0);
        let gap = epsilon_nash_gap(&m, &out.profile().unwrap()).unwrap();
        assert!(gap < 1e-3, "true gap {gap}");
    }

    #[test]
    fn budget_exhaustion_returns_typed_partial_outcome() {
        let m = model();
        let out = AsyncNash::new().max_virtual_us(2_000).run(&m).unwrap();
        assert_eq!(
            out.termination(),
            AsyncTermination::Exhausted {
                reason: "virtual-time budget exhausted"
            }
        );
        assert!(out.certified_gap().is_none());
        assert!(out.final_gap().is_finite() || out.final_gap().is_infinite());
    }

    #[test]
    fn crashed_user_is_evicted_and_survivors_certify() {
        let m = SystemModel::new(vec![10.0, 20.0, 50.0], vec![12.0, 15.0, 20.0]).unwrap();
        let plan = NetFaultPlan::new().node_faults(crate::fault::FaultPlan::new().panic_at(1, 3));
        let out = AsyncNash::new()
            .seed(2)
            .staleness_us(10_000)
            .fault_plan(plan)
            .run(&m)
            .unwrap();
        assert!(out.converged(), "termination {:?}", out.termination());
        assert!(out.rows[1].iter().all(|&x| x == 0.0));
        let evicted: Vec<usize> = (0..3).filter(|&j| out.user_times()[j].is_nan()).collect();
        assert_eq!(evicted, [1]);
    }

    #[test]
    fn zero_durations_are_rejected() {
        let m = model();
        for (what, build) in [
            ("staleness_bound", AsyncNash::new().staleness_us(0)),
            ("max_virtual_time", AsyncNash::new().max_virtual_us(0)),
        ] {
            match build.run(&m) {
                Err(GameError::ZeroDuration { what: got }) => assert_eq!(got, what),
                other => panic!("expected ZeroDuration for {what}, got {other:?}"),
            }
        }
    }

    #[test]
    fn emits_the_async_event_family() {
        use lb_telemetry::MemoryCollector;
        let collector = Arc::new(MemoryCollector::default());
        let m = model();
        let plan = NetFaultPlan::new().loss(0.2).duplication(0.1);
        let out = AsyncNash::new()
            .seed(4)
            .fault_plan(plan)
            .collector(collector.clone())
            .run(&m)
            .unwrap();
        assert!(out.converged());
        assert!(collector.count("async.update") > 0);
        assert_eq!(collector.count("async.quiesce"), 1);
        assert!(collector.count("net.drop") > 0);
        // v3 families: every protocol message is traced, and the
        // coordinator reports per-user view staleness on every status.
        assert!(collector.count("xspan.send") > 0);
        assert!(collector.count("xspan.recv") > 0);
        assert!(collector.count("async.staleness") > 0);
        assert!(
            collector.count("xspan.send") >= collector.count("xspan.recv"),
            "loss leaves orphan sends, never orphan recvs"
        );
        // v4: the episode closes with one resource-accounting snapshot
        // whose counters agree with the outcome's own bookkeeping.
        assert_eq!(collector.count("account.net"), 1);
        let (_, fields) = collector
            .events()
            .into_iter()
            .find(|(name, _)| *name == "account.net")
            .unwrap();
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    lb_telemetry::FieldValue::U64(n) => Some(*n),
                    _ => None,
                })
                .unwrap()
        };
        let stats = out.net_stats();
        assert_eq!(get("sent"), stats.sent);
        assert_eq!(get("dropped"), stats.dropped);
        assert_eq!(get("bytes"), stats.bytes);
        assert_eq!(get("retries"), out.retries());
        assert!(stats.bytes >= stats.sent, "payloads are non-empty");
    }

    #[test]
    fn attaching_observability_does_not_change_the_outcome() {
        use lb_telemetry::{MemoryCollector, SloEngine, SloSpec};
        let m = model();
        let plan = || {
            NetFaultPlan::new()
                .loss(0.25)
                .duplication(0.1)
                .reordering(0.4)
                .delay_us(10, 900)
        };
        let bare = AsyncNash::new().seed(6).fault_plan(plan()).run(&m).unwrap();
        let engine = Arc::new(SloEngine::new(
            vec![SloSpec::staleness_max(20_000.0, 10_000)],
            Some(Arc::new(MemoryCollector::default()) as _),
        ));
        let watched = AsyncNash::new()
            .seed(6)
            .fault_plan(plan())
            .collector(engine)
            .run(&m)
            .unwrap();
        assert_eq!(format!("{bare:?}"), format!("{watched:?}"));
    }
}
