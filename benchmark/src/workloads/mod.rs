//! The benchmark's workloads: one op each, driven in a closed loop by
//! one caller (the next op starts when the previous one returns).

pub mod fig4;
pub mod table1;

use crate::probes::Costs;
use crate::recorder::Recorder;
use lb_telemetry::Collector;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run-wide inputs every workload derives its ops from.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The `--seed` argument: every op seed and op order derives from it.
    pub seed: u64,
    /// Cores available; the largest thread count any op is given.
    pub nproc: usize,
}

/// Per-op layer counts, keyed by per-layer metric name. Layers a
/// workload bypasses are simply absent and read as 0.
pub type Counts = BTreeMap<&'static str, f64>;

/// One line of the reconciliation table: a layer's count per op times
/// its probed unit cost.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer (`crate.module`) and what is counted.
    pub layer: &'static str,
    /// Units per op.
    pub count: f64,
    /// Probed nanoseconds per unit.
    pub unit_ns: f64,
    /// Whether the row is part of the explained total (sub-rows that
    /// another row already contains are shown but not added).
    pub adds: bool,
}

impl Row {
    /// A row that adds to the explained total.
    pub fn new(layer: &'static str, count: f64, unit_ns: f64) -> Self {
        Self {
            layer,
            count,
            unit_ns,
            adds: true,
        }
    }

    /// A row contained in another row, shown for the breakdown only.
    pub fn part(layer: &'static str, count: f64, unit_ns: f64) -> Self {
        Self {
            adds: false,
            ..Self::new(layer, count, unit_ns)
        }
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// What one op returns; checked after the op's timed interval.
    type Out;

    /// Builds the inputs (models, profiles, balancers, fault plans).
    fn setup(ctx: Ctx) -> Result<Self, String>;

    /// Ops per cycle: each cycle visits every cell of the workload once,
    /// in a seeded order, and timed phases end on a cycle boundary so
    /// every run measures the same mix.
    fn cycle(&self) -> u64 {
        1
    }

    /// Runs op `i` on `threads` threads, with `trace` attached to every
    /// program call that accepts a collector. `Err` is a failed op: an
    /// error, a typed partial outcome or an uncertified result.
    fn op(
        &mut self,
        i: u64,
        threads: usize,
        trace: Option<&Arc<dyn Collector>>,
    ) -> Result<Self::Out, String>;

    /// Whether an op's work runs mostly on the calling thread. Runs of
    /// such workloads move the caller from CPU to CPU (see
    /// [`crate::util::CpuRotation`]); ops that fan out over all CPUs
    /// already sample every CPU.
    const ON_CALLER: bool = false;

    /// The op that ends set-up, so caches fill and lazy set-up finishes
    /// before timing. Defaults to `warm_up_ops` ops at indices no timed
    /// op uses, starting on a cycle boundary.
    fn warm_up(&mut self, threads: usize) -> Result<(), String> {
        let cycle = self.cycle().max(1);
        let base = WARM_UP_BASE / cycle * cycle;
        for k in 0..self.warm_up_ops() {
            self.op(base + k, threads, None)?;
        }
        Ok(())
    }

    /// Ops the default [`Workload::warm_up`] runs.
    fn warm_up_ops(&self) -> u64 {
        1
    }

    /// Verifies one op's result. `Err` is a correctness failure, which
    /// stops the benchmark with a non-zero exit; it never counts as a
    /// failed op.
    fn check(&self, out: &Self::Out) -> Result<(), String>;

    /// The kind of op `out` came from, when a workload mixes kinds; the
    /// run prints each kind's median and tail on a comment line.
    fn kind(&self, _out: &Self::Out) -> &'static str {
        ""
    }

    /// A costlier check made once per run, on the last op's result.
    fn final_check(&self, _last: &Self::Out) -> Result<(), String> {
        Ok(())
    }

    /// Work units of one op for `work_per_s` (1 = one certified op).
    fn work(&self, _out: &Self::Out) -> f64 {
        1.0
    }

    /// The latency percentile reported as `op_tail_ms`: the highest one
    /// that keeps at least ten ops beyond it in a run.
    fn tail_quantile(&self) -> f64;

    /// Adds one traced op's layer counts (from its outcome getters).
    fn tally(&self, out: &Self::Out, counts: &mut Counts);

    /// Per-op layer counts of `ops` traced ops: the tallies averaged,
    /// plus what the recorder summed from the program's events.
    fn layer_counts(&self, tally: &Counts, rec: &Recorder, ops: f64) -> Counts;

    /// The reconciliation rows for the given per-op counts.
    fn rows(&self, counts: &Counts, costs: &Costs) -> Vec<Row>;

    /// What the residual is, for the printed table.
    fn residual_note(&self) -> &'static str;
}

/// Index offset of warm-up ops: far past any timed op, so warm-up ops
/// draw seeds no timed op draws.
pub const WARM_UP_BASE: u64 = 1 << 40;

/// The paper's nine utilizations (Figures 2-4).
pub const PAPER_LOADS: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Averages summed counts over `ops` ops.
pub fn per_op(tally: &Counts, ops: f64) -> Counts {
    tally.iter().map(|(k, v)| (*k, v / ops.max(1.0))).collect()
}

/// `a / b`, or 0 when the layer was not exercised (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
