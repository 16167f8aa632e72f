//! A deterministic virtual network for chaos-testing asynchronous
//! equilibration.
//!
//! The token ring's [`crate::fault::FaultPlan`] injects *node* faults at
//! deterministic points because the token serializes the computation.
//! The asynchronous runtime has no such serializer, so this module
//! supplies one: a discrete-event network simulator with a **virtual
//! clock** (microseconds, advanced only by message delivery) and a
//! seeded fault model rolled per link. Every roll — drop, duplicate,
//! reorder, delay — comes from one splitmix64 stream consumed in event
//! order, so a `(plan, seed)` pair replays the exact same network
//! history on every run, on any machine, at any thread count. Chaos
//! tests become ordinary deterministic unit tests, exactly like the
//! ring's.
//!
//! The fault model is a [`NetFaultPlan`]:
//!
//! * one link fault model that every directed link rolls
//!   independently — drop probability, duplication probability, reorder
//!   probability (an extra-delay roll that lets later sends overtake),
//!   and a bounded uniform delay window;
//! * scheduled `Partition` windows — between `start_us` and `heal_us`
//!   messages crossing the cut are dropped, and `net.partition` /
//!   `net.heal` events mark the boundaries;
//! * an embedded node-level [`crate::fault::FaultPlan`], so one plan
//!   can describe both message chaos and process crashes (the async
//!   runtime maps `(user, round)` entries onto update ticks).
//!
//! Timers (`VirtualNet::schedule`) share the clock but bypass the
//! fault model: a node's local alarm cannot be lost to the network.

use crate::fault::FaultPlan;
use crate::messages::TraceContext;
use lb_stats::splitmix64_finalize;
use lb_telemetry::{enabled, Collector};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sequential splitmix64 — the same mixer the observer and DES RNG
/// streams use; one stream suffices because the event loop is
/// sequential.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64_finalize(*state)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Link fault probabilities and delay bounds (one model for every
/// link).
#[derive(Debug, Clone, Copy)]
struct LinkFaults {
    /// Probability a message is silently lost.
    drop: f64,
    /// Probability a delivered message arrives twice (the copy takes an
    /// independent delay).
    duplicate: f64,
    /// Probability a message draws its delay from a 3×-wider window,
    /// letting later sends overtake it.
    reorder: f64,
    /// Minimum propagation delay, virtual µs.
    delay_min_us: u64,
    /// Maximum propagation delay, virtual µs (inclusive bound of the
    /// uniform window; must be ≥ `delay_min_us`).
    delay_max_us: u64,
}

impl Default for LinkFaults {
    /// A healthy link: no loss, no duplication, no reordering, 50–200 µs
    /// propagation delay.
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay_min_us: 50,
            delay_max_us: 200,
        }
    }
}

impl LinkFaults {
    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "link fault probability `{name}` must be in [0, 1], got {p}"
            );
        }
        assert!(
            self.delay_max_us >= self.delay_min_us,
            "delay_max_us {} < delay_min_us {}",
            self.delay_max_us,
            self.delay_min_us
        );
    }
}

/// A scheduled network partition: from `start_us` (inclusive) to
/// `heal_us` (exclusive), messages between `side` and its complement are
/// dropped at delivery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Partition {
    /// Virtual time the cut appears, µs.
    pub(crate) start_us: u64,
    /// Virtual time the cut heals, µs.
    pub(crate) heal_us: u64,
    /// Node ids on one side of the cut (the complement forms the other).
    pub(crate) side: Vec<usize>,
}

/// A deterministic schedule of network faults, composing link chaos,
/// partition windows, and a node-level [`FaultPlan`].
///
/// ```
/// use lb_distributed::net::NetFaultPlan;
///
/// let plan = NetFaultPlan::new()
///     .loss(0.2)
///     .duplication(0.1)
///     .reordering(0.3)
///     .delay_us(100, 500)
///     .partition_at(10_000, 60_000, vec![0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    link: LinkFaults,
    partitions: Vec<Partition>,
    node_faults: FaultPlan,
}

impl NetFaultPlan {
    /// A healthy network: healthy links, no partitions, no node faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets every link's drop probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.link.drop = p;
        self.link.validate();
        self
    }

    /// Sets every link's duplication probability.
    pub fn duplication(mut self, p: f64) -> Self {
        self.link.duplicate = p;
        self.link.validate();
        self
    }

    /// Sets every link's reorder probability.
    pub fn reordering(mut self, p: f64) -> Self {
        self.link.reorder = p;
        self.link.validate();
        self
    }

    /// Sets every link's propagation-delay window, µs.
    pub fn delay_us(mut self, min: u64, max: u64) -> Self {
        self.link.delay_min_us = min;
        self.link.delay_max_us = max;
        self.link.validate();
        self
    }

    /// Schedules a partition separating `side` from every other node
    /// between `start_us` and `heal_us` (virtual time).
    ///
    /// # Panics
    ///
    /// Panics when `heal_us <= start_us`.
    pub fn partition_at(mut self, start_us: u64, heal_us: u64, side: Vec<usize>) -> Self {
        assert!(
            heal_us > start_us,
            "partition must heal after it starts ({heal_us} <= {start_us})"
        );
        self.partitions.push(Partition {
            start_us,
            heal_us,
            side,
        });
        self
    }

    /// Attaches a node-level fault plan; the async runtime maps its
    /// `(user, round)` entries onto best-reply update ticks.
    pub fn node_faults(mut self, plan: FaultPlan) -> Self {
        self.node_faults = plan;
        self
    }

    /// The embedded node-level fault plan.
    pub(crate) fn node_plan(&self) -> &FaultPlan {
        &self.node_faults
    }

    /// Whether `a` and `b` are on opposite sides of an active cut at
    /// virtual time `t_us`.
    pub(crate) fn partitioned(&self, a: usize, b: usize, t_us: u64) -> bool {
        self.partitions.iter().any(|p| {
            (p.start_us..p.heal_us).contains(&t_us) && (p.side.contains(&a) != p.side.contains(&b))
        })
    }
}

/// Counters describing what the network did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`VirtualNet::send`].
    pub sent: u64,
    /// Envelopes delivered to their destination.
    pub delivered: u64,
    /// Messages lost to the drop roll.
    pub dropped: u64,
    /// Extra copies injected by the duplication roll.
    pub duplicated: u64,
    /// Envelopes delivered out of send order on their link.
    pub(crate) reordered: u64,
    /// Envelopes destroyed by an active partition.
    pub partition_drops: u64,
    /// Payload bytes handed to [`VirtualNet::send`] (`size_of::<M>()`
    /// per message — the in-memory payload size, counted at send time
    /// whether or not the message survives the fault rolls).
    pub bytes: u64,
}

/// One queued delivery. Ordering compares `(at, tie)` only, so the heap
/// never needs `M: Ord` and ties break in enqueue order —
/// deterministic.
struct Env<M> {
    at: u64,
    tie: u64,
    from: usize,
    to: usize,
    /// Per-link send counter (both copies of a duplicate share it).
    send_seq: u64,
    /// Timers bypass the fault model and the reorder accounting.
    timer: bool,
    /// Causal trace context (both copies of a duplicate share it).
    ctx: Option<TraceContext>,
    msg: M,
}

impl<M> PartialEq for Env<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tie == other.tie
    }
}
impl<M> Eq for Env<M> {}
impl<M> PartialOrd for Env<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Env<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest delivery pops
        // first.
        (other.at, other.tie).cmp(&(self.at, self.tie))
    }
}

/// A delivered message: who sent it, who receives it, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery<M> {
    /// Delivery time, virtual µs (the network clock after this step).
    pub(crate) at_us: u64,
    /// Sending node.
    pub(crate) from: usize,
    /// Receiving node.
    pub(crate) to: usize,
    /// Causal trace context the sender attached via
    /// [`VirtualNet::send_traced`] (`None` for plain sends and timers).
    /// A duplicated message delivers the same context twice.
    pub(crate) ctx: Option<TraceContext>,
    /// The payload.
    pub(crate) msg: M,
}

/// The seeded virtual network: a priority queue of in-flight envelopes
/// over a virtual clock, with the [`NetFaultPlan`] applied at send and
/// delivery time.
pub struct VirtualNet<M> {
    now: u64,
    queue: BinaryHeap<Env<M>>,
    tie: u64,
    rng: u64,
    plan: NetFaultPlan,
    nodes: usize,
    /// Per-directed-link next send sequence number.
    next_seq: Vec<u64>,
    /// Per-directed-link highest delivered sequence number (+1), for
    /// reorder detection.
    high_water: Vec<u64>,
    /// Partition windows whose start/heal boundary events have fired.
    started: Vec<bool>,
    healed: Vec<bool>,
    stats: NetStats,
    collector: Option<Arc<dyn Collector>>,
}

impl<M: Clone> VirtualNet<M> {
    /// Creates a network of `nodes` endpoints ruled by `plan`, with all
    /// fault rolls drawn from `seed`.
    pub fn new(nodes: usize, seed: u64, plan: NetFaultPlan) -> Self {
        let n_parts = plan.partitions.len();
        Self {
            now: 0,
            queue: BinaryHeap::new(),
            tie: 0,
            rng: seed ^ 0xA076_1D64_78BD_642F,
            plan,
            nodes,
            next_seq: vec![0; nodes * nodes],
            high_water: vec![0; nodes * nodes],
            started: vec![false; n_parts],
            healed: vec![false; n_parts],
            stats: NetStats::default(),
            collector: None,
        }
    }

    /// Attaches a telemetry collector for the `net.*` event family.
    pub(crate) fn collector(&mut self, collector: Arc<dyn Collector>) {
        self.collector = Some(collector);
    }

    /// The virtual clock, µs.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Network statistics so far.
    pub(crate) fn stats(&self) -> NetStats {
        self.stats
    }

    /// The fault plan ruling this network.
    pub(crate) fn plan(&self) -> &NetFaultPlan {
        &self.plan
    }

    fn link_index(&self, from: usize, to: usize) -> usize {
        from * self.nodes + to
    }

    /// Sends `msg` from `from` to `to` at the current virtual time,
    /// rolling the link's fault model. Dropped messages (loss roll or
    /// active partition) still consume a send sequence number, so the
    /// receiver can detect the gap.
    pub fn send(&mut self, from: usize, to: usize, msg: M) {
        self.send_inner(from, to, None, msg);
    }

    /// Like [`VirtualNet::send`], but attaches a causal
    /// [`TraceContext`] that rides the envelope to the receiver.
    ///
    /// Emits `xspan.send {t_us, trace, span, parent, from, to}` for
    /// every call — *before* the fault rolls, so a lost message leaves
    /// an `xspan.send` with no matching `xspan.recv` (that orphan is
    /// how loss is attributed to a link). A duplicated message delivers
    /// the same `span` id twice; fault events (`net.drop`, `net.dup`,
    /// `net.reorder`) carry the victim's `trace`/`span` ids.
    pub(crate) fn send_traced(&mut self, from: usize, to: usize, ctx: TraceContext, msg: M) {
        self.send_inner(from, to, Some(ctx), msg);
    }

    fn send_inner(&mut self, from: usize, to: usize, ctx: Option<TraceContext>, msg: M) {
        assert!(from < self.nodes && to < self.nodes, "node id out of range");
        self.stats.sent += 1;
        self.stats.bytes += std::mem::size_of::<M>() as u64;
        let li = self.link_index(from, to);
        let seq = self.next_seq[li];
        self.next_seq[li] += 1;

        if let (Some(ctx), Some(c)) = (ctx, enabled(self.collector.as_ref())) {
            c.emit(
                "xspan.send",
                &[
                    ("t_us", self.now.into()),
                    ("trace", ctx.trace.into()),
                    ("span", ctx.span.into()),
                    ("parent", ctx.parent.into()),
                    ("from", from.into()),
                    ("to", to.into()),
                ],
            );
        }

        // Partition at send time: the sender's packets die at the cut.
        if self.plan.partitioned(from, to, self.now) {
            self.stats.partition_drops += 1;
            return;
        }

        let faults = self.plan.link;
        if faults.drop > 0.0 && unit(&mut self.rng) < faults.drop {
            self.stats.dropped += 1;
            if let Some(c) = enabled(self.collector.as_ref()) {
                let mut fields = vec![
                    ("t_us", self.now.into()),
                    ("from", from.into()),
                    ("to", to.into()),
                ];
                if let Some(ctx) = ctx {
                    fields.push(("trace", ctx.trace.into()));
                    fields.push(("span", ctx.span.into()));
                }
                c.emit("net.drop", &fields);
            }
            return;
        }

        let copies = if faults.duplicate > 0.0 && unit(&mut self.rng) < faults.duplicate {
            self.stats.duplicated += 1;
            if let Some(c) = enabled(self.collector.as_ref()) {
                let mut fields = vec![
                    ("t_us", self.now.into()),
                    ("from", from.into()),
                    ("to", to.into()),
                ];
                if let Some(ctx) = ctx {
                    fields.push(("trace", ctx.trace.into()));
                    fields.push(("span", ctx.span.into()));
                }
                c.emit("net.dup", &fields);
            }
            2
        } else {
            1
        };

        for _ in 0..copies {
            let span = faults.delay_max_us - faults.delay_min_us;
            // A reorder roll triples the jitter window so this envelope
            // can be overtaken by later sends.
            let window = if faults.reorder > 0.0 && unit(&mut self.rng) < faults.reorder {
                span * 3 + 1
            } else {
                span + 1
            };
            let delay = faults.delay_min_us + (splitmix(&mut self.rng) % window);
            self.enqueue(from, to, seq, false, ctx, delay, msg.clone());
        }
    }

    /// Schedules a reliable timer: `msg` is delivered back to `node`
    /// exactly `after_us` from now, immune to the fault model.
    pub(crate) fn schedule(&mut self, node: usize, after_us: u64, msg: M) {
        assert!(node < self.nodes, "node id out of range");
        self.enqueue(node, node, 0, true, None, after_us, msg);
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &mut self,
        from: usize,
        to: usize,
        send_seq: u64,
        timer: bool,
        ctx: Option<TraceContext>,
        delay: u64,
        msg: M,
    ) {
        let env = Env {
            at: self.now.saturating_add(delay),
            tie: self.tie,
            from,
            to,
            send_seq,
            timer,
            ctx,
            msg,
        };
        self.tie += 1;
        self.queue.push(env);
    }

    /// Pops the next envelope, advances the clock to its delivery time,
    /// and returns it — or `None` when the network is idle. Envelopes
    /// that meet an active partition at delivery time are destroyed
    /// (their step returns the next survivor instead).
    pub fn step(&mut self) -> Option<Delivery<M>> {
        loop {
            let env = self.queue.pop()?;
            debug_assert!(env.at >= self.now, "virtual clock ran backwards");
            self.now = env.at;
            self.emit_partition_boundaries();

            if env.timer {
                return Some(Delivery {
                    at_us: env.at,
                    from: env.from,
                    to: env.to,
                    ctx: None,
                    msg: env.msg,
                });
            }

            // Partition at delivery time: in-flight packets die at the
            // cut too (the cut is a cut, not a send-side filter).
            if self.plan.partitioned(env.from, env.to, self.now) {
                self.stats.partition_drops += 1;
                continue;
            }

            let li = self.link_index(env.from, env.to);
            if env.send_seq < self.high_water[li] {
                self.stats.reordered += 1;
                if let Some(c) = enabled(self.collector.as_ref()) {
                    let mut fields = vec![
                        ("t_us", self.now.into()),
                        ("from", env.from.into()),
                        ("to", env.to.into()),
                        ("seq", env.send_seq.into()),
                    ];
                    if let Some(ctx) = env.ctx {
                        fields.push(("trace", ctx.trace.into()));
                        fields.push(("span", ctx.span.into()));
                    }
                    c.emit("net.reorder", &fields);
                }
            } else {
                self.high_water[li] = env.send_seq + 1;
            }
            self.stats.delivered += 1;
            if let (Some(ctx), Some(c)) = (env.ctx, enabled(self.collector.as_ref())) {
                c.emit(
                    "xspan.recv",
                    &[
                        ("t_us", self.now.into()),
                        ("trace", ctx.trace.into()),
                        ("span", ctx.span.into()),
                        ("from", env.from.into()),
                        ("to", env.to.into()),
                    ],
                );
            }
            return Some(Delivery {
                at_us: env.at,
                from: env.from,
                to: env.to,
                ctx: env.ctx,
                msg: env.msg,
            });
        }
    }

    /// Emits `net.partition` / `net.heal` for every window boundary the
    /// clock has crossed, exactly once each.
    fn emit_partition_boundaries(&mut self) {
        for (i, p) in self.plan.partitions.iter().enumerate() {
            if !self.started[i] && self.now >= p.start_us {
                self.started[i] = true;
                if let Some(c) = enabled(self.collector.as_ref()) {
                    c.emit(
                        "net.partition",
                        &[
                            ("t_us", p.start_us.into()),
                            ("side", p.side.len().into()),
                            ("heal_us", p.heal_us.into()),
                        ],
                    );
                }
            }
            if !self.healed[i] && self.now >= p.heal_us {
                self.healed[i] = true;
                if let Some(c) = enabled(self.collector.as_ref()) {
                    c.emit("net.heal", &[("t_us", p.heal_us.into())]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut VirtualNet<u32>) -> Vec<Delivery<u32>> {
        let mut out = Vec::new();
        while let Some(d) = net.step() {
            out.push(d);
        }
        out
    }

    #[test]
    fn healthy_network_delivers_in_order() {
        let mut net = VirtualNet::new(3, 1, NetFaultPlan::new().delay_us(10, 10));
        for k in 0..5 {
            net.send(0, 1, k);
        }
        let got = drain(&mut net);
        assert_eq!(
            got.iter().map(|d| d.msg).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(net.stats().delivered, 5);
        assert_eq!(net.stats().reordered, 0);
        assert_eq!(net.now(), 10);
    }

    #[test]
    fn same_seed_same_history() {
        let plan = || {
            NetFaultPlan::new()
                .loss(0.3)
                .duplication(0.2)
                .reordering(0.5)
                .delay_us(10, 300)
        };
        let run = |seed: u64| {
            let mut net = VirtualNet::new(4, seed, plan());
            for k in 0..50u32 {
                net.send((k % 3) as usize, 3, k);
            }
            (drain(&mut net), net.stats())
        };
        let (a, sa) = run(99);
        let (b, sb) = run(99);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, sc) = run(100);
        assert!(a != c || sa != sc, "different seeds should diverge");
    }

    #[test]
    fn loss_one_drops_everything_loss_zero_drops_nothing() {
        let mut lossy = VirtualNet::new(2, 7, NetFaultPlan::new().loss(1.0));
        let mut clean = VirtualNet::new(2, 7, NetFaultPlan::new());
        for k in 0..20u32 {
            lossy.send(0, 1, k);
            clean.send(0, 1, k);
        }
        assert!(drain(&mut lossy).is_empty());
        assert_eq!(lossy.stats().dropped, 20);
        assert_eq!(drain(&mut clean).len(), 20);
        assert_eq!(clean.stats().dropped, 0);
    }

    #[test]
    fn duplication_delivers_copies_and_reorder_is_detected() {
        let mut net = VirtualNet::new(
            2,
            11,
            NetFaultPlan::new()
                .duplication(1.0)
                .delay_us(0, 500)
                .reordering(0.8),
        );
        for k in 0..30u32 {
            net.send(0, 1, k);
        }
        let got = drain(&mut net);
        assert_eq!(got.len(), 60, "every message delivered twice");
        assert_eq!(net.stats().duplicated, 30);
        assert!(net.stats().reordered > 0, "wide jitter must reorder");
    }

    #[test]
    fn partition_cuts_both_directions_then_heals() {
        let plan = NetFaultPlan::new()
            .delay_us(5, 5)
            .partition_at(100, 200, vec![0]);
        let mut net = VirtualNet::new(2, 3, plan);
        // Before the cut: delivered.
        net.send(0, 1, 1);
        assert_eq!(net.step().unwrap().msg, 1);
        // Walk the clock into the window with timers, then send across
        // the cut both ways.
        net.schedule(0, 145, 0);
        net.step();
        assert_eq!(net.now(), 150);
        assert!(net.plan.partitioned(0, 1, net.now));
        net.send(0, 1, 2);
        net.send(1, 0, 3);
        assert!(net.step().is_none());
        assert_eq!(net.stats().partition_drops, 2);
        // After heal: flows again.
        net.schedule(0, 100, 0);
        net.step();
        assert!(!net.plan.partitioned(0, 1, net.now));
        net.send(1, 0, 4);
        assert_eq!(net.step().unwrap().msg, 4);
    }

    #[test]
    fn in_flight_messages_die_at_the_cut() {
        // Sent at t=0 with delay 150, the cut at t=100 kills it mid-air.
        let plan = NetFaultPlan::new()
            .delay_us(150, 150)
            .partition_at(100, 1_000_000, vec![0]);
        let mut net = VirtualNet::new(2, 5, plan);
        net.send(0, 1, 9);
        assert!(net.step().is_none());
        assert_eq!(net.stats().partition_drops, 1);
    }

    #[test]
    fn timers_are_immune_to_faults() {
        let mut net = VirtualNet::new(
            2,
            13,
            NetFaultPlan::new()
                .loss(1.0)
                .partition_at(0, 1_000, vec![0]),
        );
        net.schedule(0, 50, 7);
        let d = net.step().unwrap();
        assert_eq!((d.from, d.to, d.msg, d.at_us), (0, 0, 7, 50));
    }

    #[test]
    fn partition_boundary_events_fire_once() {
        use lb_telemetry::MemoryCollector;
        let collector = Arc::new(MemoryCollector::default());
        let plan = NetFaultPlan::new().partition_at(10, 20, vec![0]);
        let mut net: VirtualNet<u32> = VirtualNet::new(2, 1, plan);
        net.collector(collector.clone());
        for k in 0..5 {
            net.schedule(0, 8 + 4 * k, 0);
        }
        drain(&mut net);
        assert_eq!(collector.count("net.partition"), 1);
        assert_eq!(collector.count("net.heal"), 1);
    }

    #[test]
    fn trace_context_survives_chaos_and_dup_repeats_the_span() {
        use lb_telemetry::{FieldValue, MemoryCollector};
        let collector = Arc::new(MemoryCollector::default());
        let plan = NetFaultPlan::new()
            .loss(0.3)
            .duplication(0.4)
            .reordering(0.6)
            .delay_us(0, 400);
        let mut net: VirtualNet<u32> = VirtualNet::new(2, 21, plan);
        net.collector(collector.clone());
        for k in 0..40u64 {
            let ctx = TraceContext::root(1000 + k, 2000 + k);
            net.send_traced(0, 1, ctx, k as u32);
        }
        let mut deliveries = Vec::new();
        while let Some(d) = net.step() {
            deliveries.push(d);
        }
        let stats = net.stats();
        assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0);

        // Every traced send left an xspan.send; every delivery (copies
        // included) left an xspan.recv with an intact context.
        assert_eq!(collector.count("xspan.send"), 40);
        assert_eq!(collector.count("xspan.recv") as u64, stats.delivered);
        for d in &deliveries {
            let ctx = d.ctx.expect("traced sends deliver their context");
            assert_eq!(ctx.trace, 1000 + u64::from(d.msg));
            assert_eq!(ctx.span, 2000 + u64::from(d.msg));
        }

        // A duplicated message delivers the SAME span id twice: count
        // recv events per span id and check multiplicity matches dup.
        let field_u64 = |fields: &[(&str, FieldValue)], key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    FieldValue::U64(u) => Some(*u),
                    _ => None,
                })
                .unwrap()
        };
        let mut per_span = std::collections::BTreeMap::new();
        let mut drop_spans = 0u64;
        for (name, fields) in collector.events() {
            match name {
                "xspan.recv" => *per_span.entry(field_u64(&fields, "span")).or_insert(0u64) += 1,
                "net.drop" => {
                    assert!(field_u64(&fields, "span") >= 2000, "drop names its victim");
                    drop_spans += 1;
                }
                _ => {}
            }
        }
        assert_eq!(drop_spans, stats.dropped);
        let twice = per_span.values().filter(|&&n| n == 2).count() as u64;
        assert_eq!(twice, stats.duplicated, "each dup repeats one span id");
        assert!(per_span.keys().all(|&s| (2000..2040).contains(&s)));
    }

    #[test]
    fn untraced_sends_and_timers_carry_no_context() {
        let collector = Arc::new(lb_telemetry::MemoryCollector::default());
        let mut net: VirtualNet<u32> = VirtualNet::new(2, 1, NetFaultPlan::new());
        net.collector(collector.clone());
        net.send(0, 1, 1);
        net.schedule(1, 5, 2);
        while let Some(d) = net.step() {
            assert_eq!(d.ctx, None);
        }
        assert_eq!(collector.count("xspan.send"), 0);
        assert_eq!(collector.count("xspan.recv"), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_bad_probability() {
        NetFaultPlan::new().loss(1.5);
    }

    #[test]
    #[should_panic(expected = "heal")]
    fn rejects_inverted_partition_window() {
        NetFaultPlan::new().partition_at(50, 50, vec![0]);
    }
}
