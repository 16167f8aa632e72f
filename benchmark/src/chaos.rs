//! The chaos path: one [`AsyncNash::run`] to a certified ε = 1e-4 on
//! Table-1 at ρ = 0.6 over a `VirtualNet` with 30% loss, 10%
//! duplication, 30% reordering and 50–2,000 µs delay. Its host time
//! moves too far with the shared host's load for an end-to-end bound,
//! so every traced run certifies it as a probe instead
//! (`distributed.*`), and checks each certification.

use crate::util::derive;
use crate::workloads::table1::{recertify, EPSILON};
use crate::workloads::{ratio, Counts};
use lb_distributed::async_runtime::{AsyncNash, AsyncOutcome, AsyncTermination};
use lb_distributed::net::NetFaultPlan;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};

/// The chaos cell's network.
pub fn fault_plan() -> NetFaultPlan {
    NetFaultPlan::new()
        .loss(0.3)
        .duplication(0.1)
        .reordering(0.3)
        .delay_us(50, 2_000)
}

/// The chaos cell's system.
pub fn chaos_model() -> Result<SystemModel, String> {
    SystemModel::table1_system(0.6).map_err(|e| e.to_string())
}

/// Runs certification `i` for `seed`: a fresh network seed each.
pub fn run(model: &SystemModel, seed: u64, i: u64, threads: usize) -> Result<AsyncOutcome, String> {
    let out = AsyncNash::new()
        .seed(derive(seed, 0xA5C, i))
        .fault_plan(fault_plan())
        .epsilon(EPSILON)
        .threads(threads)
        .run(model)
        .map_err(|e| format!("async run: {e}"))?;
    match out.termination() {
        AsyncTermination::Converged => Ok(out),
        AsyncTermination::Exhausted { reason } => Err(format!("async run exhausted: {reason}")),
    }
}

/// The sequential solve every async board is held against.
pub struct Reference {
    user_times: Vec<f64>,
    gap: f64,
}

impl Reference {
    /// Solves `model` sequentially with [`NashSolver`] to ε.
    pub fn solve(model: &SystemModel) -> Result<Self, String> {
        let seq = NashSolver::new(Initialization::Proportional)
            .tolerance(EPSILON)
            .solve(model)
            .map_err(|e| format!("sequential reference: {e}"))?;
        let gap = seq
            .certified_gap()
            .ok_or("sequential reference carries no certificate")?
            .relative;
        Ok(Self {
            user_times: seq.user_times().to_vec(),
            gap,
        })
    }

    /// Checks one certification: the certificate is re-derived from the
    /// final board, and every user's D_j must agree with the sequential
    /// solver's within the two certificates.
    pub fn check(&self, model: &SystemModel, out: &AsyncOutcome) -> Result<(), String> {
        let gap = out
            .certified_gap()
            .ok_or("async outcome carries no certificate")?;
        if gap > EPSILON {
            return Err(format!("async run certified {gap:e} > ε"));
        }
        let profile = out.profile().map_err(|e| format!("async board: {e}"))?;
        recertify(model, &profile, "async board")?;
        let tolerance = gap + self.gap;
        for (j, (&d, &r)) in out.user_times().iter().zip(&self.user_times).enumerate() {
            let diff = (d - r).abs() / r;
            if diff.is_nan() || diff > tolerance {
                return Err(format!(
                    "user {j}: async D_j {d} vs sequential {r} differ by {diff:e} > {tolerance:e}"
                ));
            }
        }
        Ok(())
    }
}

/// The network and runtime counts per certification of `outs`.
pub fn counts(outs: &[AsyncOutcome]) -> Counts {
    let mut c = Counts::new();
    for out in outs {
        let net = out.net_stats();
        for (k, v) in [
            ("distributed.net.sent", net.sent),
            ("distributed.net.delivered", net.delivered),
            ("distributed.net.dropped", net.dropped),
            ("distributed.net.duplicated", net.duplicated),
            ("distributed.net.bytes", net.bytes),
            ("distributed.async_runtime.updates", out.updates()),
            ("distributed.async_runtime.retries", out.retries()),
            ("distributed.async_runtime.syncs", out.syncs()),
        ] {
            *c.entry(k).or_default() += v as f64 / outs.len() as f64;
        }
    }
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let delivery = ratio(
        get("distributed.net.delivered"),
        get("distributed.net.sent"),
    );
    let retry_share = ratio(
        get("distributed.async_runtime.retries"),
        get("distributed.async_runtime.updates"),
    );
    c.insert("distributed.net.delivery_ratio", delivery);
    c.insert("distributed.async_runtime.retries_per_update", retry_share);
    c
}
