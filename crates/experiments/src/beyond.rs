//! Beyond the paper: extension experiments grounded in the paper's own
//! future-work section and related-work citations.
//!
//! * [`service_robustness`] — the paper's M/M/1 assumption relaxed: the
//!   schemes' profiles re-simulated under deterministic, Erlang,
//!   exponential and hyperexponential service (M/G/1), with
//!   Pollaczek–Khinchine predictions alongside.
//! * [`stackelberg_sweep`] — the Roughgarden-style leader the paper cites:
//!   how much centrally controlled traffic it takes to match what NASH
//!   achieves with none.
//! * [`warm_start_dynamics`] — the paper's "dynamic load balancing"
//!   future work: re-equilibration cost under demand drift, warm vs cold
//!   restarts.
//! * [`observation_noise`] — the paper's "uncertainty" future work: how
//!   equilibrium quality degrades when users estimate available rates
//!   from noisy run-queue observations.
//! * [`multicore_pooling`] — computers as M/M/c pools (numeric best
//!   replies, validated by multi-server simulation).
//! * [`poa_vs_utilization`] — the Koutsoupias–Papadimitriou efficiency
//!   ratio over the load range.
//! * [`arrival_burstiness`] — the Poisson arrival assumption relaxed to
//!   general renewal streams.
//! * [`dynamic_policies`] — static equilibria vs state-aware dispatch
//!   (JSQ, power-of-d, shortest expected delay).
//! * [`server_churn`] — the fault-tolerance extension: a mid-run server
//!   crash makes demand infeasible, load is shed per an overload policy,
//!   and the DES-measured response times are checked against the
//!   quasi-static analytic mixture.

use crate::config::{EPSILON, MEDIUM_LOAD};
use crate::report::{fmt, Table};
use lb_distributed::async_runtime::AsyncNash;
use lb_distributed::net::NetFaultPlan;
use lb_distributed::runtime::DistributedNash;
use lb_distributed::ObservationModel;
use lb_game::dynamics::{DynamicBalancer, Restart};
use lb_game::equilibrium::epsilon_nash_gap;
use lb_game::error::GameError;
use lb_game::metrics::evaluate_profile;
use lb_game::model::SystemModel;
use lb_game::nash::{Initialization, NashSolver};
use lb_game::response::overall_response_time;
use lb_game::schemes::{
    GlobalOptimalScheme, IndividualOptimalScheme, LoadBalancingScheme, NashScheme,
    ProportionalScheme, StackelbergScheme,
};
use lb_game::strategy::StrategyProfile;
use lb_game::Certificate;
use lb_game::StoppingRule;
use lb_sim::harness::simulate_profile;
use lb_sim::parallel::ParallelRunner;
use lb_sim::scenario::{run_replication, DistributionFamily, SimulationConfig};
use lb_stats::ReplicationPlan;

/// One (scheme × service-family) cell of the robustness experiment.
#[derive(Debug, Clone)]
pub struct RobustnessRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Service family label.
    pub service: &'static str,
    /// Squared coefficient of variation of the family.
    pub scv: f64,
    /// Simulated system mean response time.
    pub simulated: f64,
    /// M/G/1 (P-K) prediction under the scheme's flows.
    pub predicted: f64,
}

/// Simulates every scheme's (M/M/1-computed) profile under four service
/// families and compares with the M/G/1 prediction.
///
/// # Errors
///
/// Propagates scheme/simulation failures.
pub fn service_robustness(
    target_jobs: u64,
    replications: u32,
) -> Result<Vec<RobustnessRow>, GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let schemes: Vec<Box<dyn LoadBalancingScheme>> = vec![
        Box::new(NashScheme::default()),
        Box::new(GlobalOptimalScheme::default()),
        Box::new(IndividualOptimalScheme),
        Box::new(ProportionalScheme),
    ];
    let families: [(&'static str, DistributionFamily); 4] = [
        ("deterministic", DistributionFamily::Deterministic),
        ("erlang-4", DistributionFamily::Erlang { k: 4 }),
        ("exponential", DistributionFamily::Exponential),
        (
            "hyperexp-4",
            DistributionFamily::HyperExponential { scv: 4.0 },
        ),
    ];
    let plan = ReplicationPlan {
        replications,
        ..ReplicationPlan::paper()
    };
    let mut rows = Vec::new();
    for scheme in &schemes {
        let profile = scheme.compute(&model)?;
        let flows = profile.computer_flows(&model)?;
        for (label, service) in families {
            let cfg = SimulationConfig {
                target_jobs,
                service,
                ..SimulationConfig::paper()
            };
            let sim = simulate_profile(&model, &profile, &plan, cfg)?;
            // Job-averaged M/G/1 prediction over the scheme's flows.
            let phi = model.total_arrival_rate();
            let predicted = flows
                .iter()
                .zip(model.computer_rates())
                .filter(|(&l, _)| l > 0.0)
                .map(|(&l, &mu)| l * lb_queueing::mg1::response_time(l, mu, service.scv()))
                .sum::<f64>()
                / phi;
            rows.push(RobustnessRow {
                scheme: scheme.name(),
                service: label,
                scv: service.scv(),
                simulated: sim.system_summary.mean,
                predicted,
            });
        }
    }
    Ok(rows)
}

/// Renders the robustness table.
pub fn render_robustness(rows: &[RobustnessRow]) -> Table {
    let mut t = Table::new(
        "Extension 1: service-time robustness at rho=60% (M/G/1)",
        vec!["scheme", "service", "SCV", "simulated D", "P-K predicted"],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            r.service.to_string(),
            fmt(r.scv),
            fmt(r.simulated),
            fmt(r.predicted),
        ]);
    }
    t
}

/// One α point of the Stackelberg sweep.
#[derive(Debug, Clone, Copy)]
pub struct StackelbergPoint {
    /// Leader fraction.
    pub alpha: f64,
    /// Overall response time of LLF + Wardrop followers.
    pub overall_time: f64,
}

/// Sweeps the leader fraction and reports the overall response time, with
/// NASH's and GOS's values for context.
///
/// # Errors
///
/// Propagates scheme failures.
pub fn stackelberg_sweep() -> Result<(Vec<StackelbergPoint>, f64, f64), GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let mut points = Vec::new();
    for i in 0..=10 {
        let alpha = f64::from(i) / 10.0;
        let p = StackelbergScheme::new(alpha)?.compute(&model)?;
        points.push(StackelbergPoint {
            alpha,
            overall_time: overall_response_time(&model, &p)?,
        });
    }
    let nash = overall_response_time(&model, &NashScheme::default().compute(&model)?)?;
    let gos = overall_response_time(&model, &GlobalOptimalScheme::default().compute(&model)?)?;
    Ok((points, nash, gos))
}

/// Renders the Stackelberg sweep.
pub fn render_stackelberg(points: &[StackelbergPoint], nash: f64, gos: f64) -> Table {
    let mut t = Table::new(
        "Extension 2: Stackelberg (LLF) leader fraction vs overall response time (rho=60%)",
        vec!["alpha", "Stackelberg D", "vs GOS", "vs NASH"],
    );
    for p in points {
        t.row(vec![
            format!("{:.1}", p.alpha),
            fmt(p.overall_time),
            format!("{:+.1}%", (p.overall_time / gos - 1.0) * 100.0),
            format!("{:+.1}%", (p.overall_time / nash - 1.0) * 100.0),
        ]);
    }
    t
}

/// One drift step of the warm-start experiment.
#[derive(Debug, Clone, Copy)]
pub struct DriftStep {
    /// Utilization after the drift.
    pub rho: f64,
    /// Iterations with a warm (previous-equilibrium) start.
    pub warm_iterations: u32,
    /// Iterations with a cold (proportional) start.
    pub cold_iterations: u32,
}

/// Drifts the Table-1 system's demand through a utilization path and
/// measures re-equilibration cost for warm vs cold restarts.
///
/// # Errors
///
/// Propagates model/solver failures.
pub fn warm_start_dynamics() -> Result<Vec<DriftStep>, GameError> {
    let path = [0.62, 0.65, 0.60, 0.55, 0.65, 0.70, 0.68];
    // Iteration counts are the payload: pin the paper's absolute-norm
    // criterion so the committed CSV stays byte-identical.
    let mut warm = DynamicBalancer::with_stopping(
        SystemModel::table1_system(MEDIUM_LOAD)?,
        EPSILON,
        StoppingRule::AbsoluteNorm,
    )?;
    let mut cold = DynamicBalancer::with_stopping(
        SystemModel::table1_system(MEDIUM_LOAD)?,
        EPSILON,
        StoppingRule::AbsoluteNorm,
    )?;
    let mut steps = Vec::new();
    for &rho in &path {
        let model = SystemModel::table1_system(rho)?;
        let w = warm.update(model.clone(), Restart::Warm)?;
        let c = cold.update(model, Restart::Cold)?;
        steps.push(DriftStep {
            rho,
            warm_iterations: w.iterations,
            cold_iterations: c.iterations,
        });
    }
    Ok(steps)
}

/// Renders the warm-start experiment.
pub fn render_dynamics(steps: &[DriftStep]) -> Table {
    let mut t = Table::new(
        "Extension 3: re-equilibration under demand drift (warm vs cold restart)",
        vec!["new util %", "warm iterations", "cold iterations"],
    );
    for s in steps {
        t.row(vec![
            format!("{:.0}", s.rho * 100.0),
            s.warm_iterations.to_string(),
            s.cold_iterations.to_string(),
        ]);
    }
    t
}

/// One iteration budget of the accuracy-vs-iterations frontier.
#[derive(Debug, Clone, Copy)]
pub struct AnytimePoint {
    /// Iteration budget granted to the solver.
    pub budget: u32,
    /// The paper's absolute norm after the last sweep.
    pub norm: f64,
    /// Certified absolute regret bound `max_j r_j`.
    pub cert_abs: f64,
    /// Certified relative regret bound `max_j r_j / D_j`.
    pub cert_rel: f64,
    /// Exact ε-Nash gap of the returned profile (best-reply re-solve).
    pub exact_gap: f64,
}

/// The anytime frontier of the certified solver on the Table-1 system at
/// medium load: truncate NASH_0 after each budget and record what the
/// certificate *claims* next to what the profile exactly *achieves*. The
/// certificate must dominate the exact gap at every budget — that is the
/// soundness property the stopping layer rests on — while tracking it
/// closely enough to be useful as a live progress meter.
///
/// # Errors
///
/// Propagates model/solver failures.
pub fn anytime_frontier() -> Result<Vec<AnytimePoint>, GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let budgets = [1u32, 2, 4, 8, 12, 16, 24, 32, 48, 64];
    let mut points = Vec::new();
    for &budget in &budgets {
        // ε = 0 can never be certified, so the solver runs its full
        // budget and `solve_partial` hands back the truncated state.
        let out = NashSolver::new(Initialization::Zero)
            .tolerance(0.0)
            .max_iterations(budget)
            .solve_partial(&model)?;
        let cert = out.certified_gap().unwrap_or_else(Certificate::zero);
        points.push(AnytimePoint {
            budget,
            norm: out.trace().values().last().copied().unwrap_or(f64::NAN),
            cert_abs: cert.absolute,
            cert_rel: cert.relative,
            exact_gap: epsilon_nash_gap(&model, out.profile())?,
        });
    }
    Ok(points)
}

/// Renders the anytime frontier.
pub fn render_anytime(points: &[AnytimePoint]) -> Table {
    let mut t = Table::new(
        "Extension 11: certified accuracy vs iteration budget (NASH_0, Table 1 at 60%)",
        vec![
            "iterations",
            "abs norm",
            "certified bound",
            "certified rel",
            "exact gap",
        ],
    );
    for p in points {
        t.row(vec![
            p.budget.to_string(),
            fmt(p.norm),
            fmt(p.cert_abs),
            fmt(p.cert_rel),
            fmt(p.exact_gap),
        ]);
    }
    t
}

/// One noise level of the observation-uncertainty experiment.
#[derive(Debug, Clone, Copy)]
pub struct NoisePoint {
    /// Relative standard deviation of the rate estimates.
    pub rel_std: f64,
    /// Rounds the ring ran: to settling, or its whole budget.
    pub rounds: u32,
    /// ε-Nash gap of the final profile, relative to the mean user time.
    pub relative_gap: f64,
}

/// Runs the distributed ring under increasing observation noise.
///
/// # Errors
///
/// Propagates runtime failures.
pub fn observation_noise() -> Result<Vec<NoisePoint>, GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let mut points = Vec::new();
    for &rel_std in &[0.0, 0.01, 0.02, 0.05, 0.10] {
        // Noise keeps the true regret above any tight ε forever, so the
        // certified rule would never accept; this experiment measures
        // the paper's norm-settling behaviour — pin its criterion. Noise
        // can keep the norm above tolerance forever too: a run that
        // never settles reports its whole budget and the state it
        // reached there.
        let out = DistributedNash::new()
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .observation(if rel_std == 0.0 {
                ObservationModel::Exact
            } else {
                ObservationModel::Noisy {
                    rel_std,
                    seed: 0x0b5e,
                }
            })
            .tolerance(if rel_std == 0.0 { EPSILON } else { 5e-3 })
            .max_rounds(300)
            .run(&model)?;
        let gap = epsilon_nash_gap(&model, out.profile())?;
        let metrics = evaluate_profile(&model, out.profile())?;
        let mean_d: f64 = metrics.user_times.iter().sum::<f64>() / metrics.user_times.len() as f64;
        points.push(NoisePoint {
            rel_std,
            rounds: out.rounds(),
            relative_gap: gap / mean_d,
        });
    }
    Ok(points)
}

/// Renders the observation-noise experiment.
pub fn render_noise(points: &[NoisePoint]) -> Table {
    let mut t = Table::new(
        "Extension 4: equilibrium quality under noisy run-queue observation",
        vec!["rel. std dev", "rounds", "Nash gap / mean D"],
    );
    for p in points {
        t.row(vec![
            format!("{:.0}%", p.rel_std * 100.0),
            p.rounds.to_string(),
            fmt(p.relative_gap),
        ]);
    }
    t
}

/// One point of the price-of-anarchy sweep.
#[derive(Debug, Clone, Copy)]
pub struct PoaPoint {
    /// Swept parameter value (utilization or skewness).
    pub x: f64,
    /// `D(NASH)/D(GOS)` — the price of anarchy of the instance.
    pub poa_nash: f64,
    /// `D(IOS)/D(GOS)` — the Wardrop (infinite-player) anarchy cost.
    pub poa_wardrop: f64,
}

/// Price of anarchy vs utilization (Table-1 system) — quantifying the
/// Koutsoupias–Papadimitriou efficiency question the paper's related
/// work raises. Roughgarden–Tardos's 4/3 bound applies to *linear*
/// latencies only; M/M/1 latencies are unbounded near saturation, yet
/// the measured PoA stays small and, notably, *decreases* at high load.
///
/// # Errors
///
/// Propagates scheme failures.
pub fn poa_vs_utilization() -> Result<Vec<PoaPoint>, GameError> {
    crate::config::UTILIZATION_SWEEP
        .iter()
        .map(|&rho| {
            let model = SystemModel::table1_system(rho)?;
            let nash = NashScheme::default().compute(&model)?;
            let gos = GlobalOptimalScheme::default().compute(&model)?;
            let ios = IndividualOptimalScheme.compute(&model)?;
            let d_gos = overall_response_time(&model, &gos)?;
            Ok(PoaPoint {
                x: rho,
                poa_nash: overall_response_time(&model, &nash)? / d_gos,
                poa_wardrop: overall_response_time(&model, &ios)? / d_gos,
            })
        })
        .collect()
}

/// Renders the PoA sweep.
pub fn render_poa(points: &[PoaPoint]) -> Table {
    let mut t = Table::new(
        "Extension 6: price of anarchy vs utilization (Table-1 system)",
        vec!["util %", "PoA(NASH)", "PoA(Wardrop/IOS)"],
    );
    for p in points {
        t.row(vec![
            format!("{:.0}", p.x * 100.0),
            fmt(p.poa_nash),
            fmt(p.poa_wardrop),
        ]);
    }
    t
}

/// One (scheme × arrival-family) cell of the burstiness experiment.
#[derive(Debug, Clone)]
pub struct BurstinessRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Arrival family label.
    pub arrivals: &'static str,
    /// Squared coefficient of variation of interarrival times.
    pub scv: f64,
    /// Simulated system mean response time.
    pub simulated: f64,
}

/// Simulates every scheme's profile under renewal arrival processes of
/// varying burstiness (the Poisson assumption of §2 relaxed). Unlike the
/// service extension there is no exact multi-queue theory here — the
/// probabilistic split of a non-Poisson renewal stream is not renewal —
/// so the experiment reports measured values only (single-queue GI/M/1
/// validation lives in `lb-sim`'s tests).
///
/// # Errors
///
/// Propagates scheme/simulation failures.
pub fn arrival_burstiness(
    target_jobs: u64,
    replications: u32,
) -> Result<Vec<BurstinessRow>, GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let schemes: Vec<Box<dyn LoadBalancingScheme>> = vec![
        Box::new(NashScheme::default()),
        Box::new(GlobalOptimalScheme::default()),
        Box::new(IndividualOptimalScheme),
        Box::new(ProportionalScheme),
    ];
    let families: [(&'static str, DistributionFamily); 4] = [
        ("deterministic", DistributionFamily::Deterministic),
        ("erlang-4", DistributionFamily::Erlang { k: 4 }),
        ("poisson", DistributionFamily::Exponential),
        (
            "hyperexp-4",
            DistributionFamily::HyperExponential { scv: 4.0 },
        ),
    ];
    let plan = ReplicationPlan {
        replications,
        ..ReplicationPlan::paper()
    };
    let mut rows = Vec::new();
    for scheme in &schemes {
        let profile = scheme.compute(&model)?;
        for (label, arrivals) in families {
            let cfg = SimulationConfig {
                target_jobs,
                arrivals,
                ..SimulationConfig::paper()
            };
            let sim = simulate_profile(&model, &profile, &plan, cfg)?;
            rows.push(BurstinessRow {
                scheme: scheme.name(),
                arrivals: label,
                scv: arrivals.scv(),
                simulated: sim.system_summary.mean,
            });
        }
    }
    Ok(rows)
}

/// Renders the burstiness table.
pub fn render_burstiness(rows: &[BurstinessRow]) -> Table {
    let mut t = Table::new(
        "Extension 7: arrival burstiness at rho=60% (renewal job streams)",
        vec!["scheme", "arrivals", "SCV", "simulated D"],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            r.arrivals.to_string(),
            fmt(r.scv),
            fmt(r.simulated),
        ]);
    }
    t
}

/// One (policy × load) cell of the dynamic-dispatch experiment.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: &'static str,
    /// System utilization.
    pub rho: f64,
    /// Simulated system mean response time.
    pub simulated: f64,
}

/// Compares the paper's static Nash profile against dynamic (state-aware)
/// dispatch policies across loads — how much is online queue information
/// worth?
///
/// # Errors
///
/// Propagates game/simulation failures.
pub fn dynamic_policies(target_jobs: u64) -> Result<Vec<PolicyRow>, GameError> {
    use lb_sim::policies::{run_policy_replication, DispatchPolicy};
    let mut rows = Vec::new();
    for &rho in &[0.3, 0.6, 0.9] {
        let model = SystemModel::table1_system(rho)?;
        let nash = NashScheme::default().compute(&model)?;
        let policies = vec![
            DispatchPolicy::Static(nash.clone()),
            DispatchPolicy::WeightedRoundRobin(nash),
            DispatchPolicy::PowerOfD(2),
            DispatchPolicy::JoinShortestQueue,
            DispatchPolicy::ShortestExpectedDelay,
        ];
        for policy in policies {
            let cfg = SimulationConfig {
                target_jobs,
                ..SimulationConfig::paper()
            };
            let r = run_policy_replication(&model, &policy, cfg, 0x9019, None, |_, _| {})?;
            rows.push(PolicyRow {
                policy: policy.name(),
                rho,
                simulated: r.system_mean,
            });
        }
    }
    Ok(rows)
}

/// Renders the dynamic-policy comparison (loads as columns).
pub fn render_policies(rows: &[PolicyRow]) -> Table {
    let mut t = Table::new(
        "Extension 8: static Nash vs dynamic dispatch (simulated D, sec)",
        vec!["policy", "rho=30%", "rho=60%", "rho=90%"],
    );
    for policy in ["STATIC", "WRR", "POW-D", "JSQ", "SED"] {
        let cell = |rho: f64| {
            rows.iter()
                .find(|r| r.policy == policy && (r.rho - rho).abs() < 1e-9)
                .map(|r| fmt(r.simulated))
                .unwrap_or_default()
        };
        t.row(vec![policy.to_string(), cell(0.3), cell(0.6), cell(0.9)]);
    }
    t
}

/// One scheme row of the tail-latency experiment.
#[derive(Debug, Clone)]
pub struct TailRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Analytic mean response time.
    pub mean: f64,
    /// Analytic squared coefficient of variation of a job's response time
    /// (rate-weighted across users; exact for the exponential-mixture
    /// sojourn distribution).
    pub scv: f64,
    /// Simulated p95 response time: the cross-replication mean of each
    /// replication's exact nearest-rank quantile of its measured
    /// responses.
    pub simulated_p95: f64,
}

/// Exact nearest-rank `q`-quantile of `samples` (reorders them in
/// place). `NaN` when empty — a replication too short to measure jobs.
fn exact_quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable_by(rank - 1, |a, b| {
        a.partial_cmp(b).expect("response times are never NaN")
    });
    *value
}

/// Cross-replication mean of each replication's exact nearest-rank p95
/// response time. Replications fan out over `runner`; each collects its
/// measured responses through the sink of [`run_replication`] (grouped
/// by station on the sharded engine, which would mislead a streaming
/// estimator but not the exact quantile), and the p95s are averaged in
/// replication order, so the value is bit-identical at any thread count.
///
/// # Errors
///
/// * [`GameError::ZeroIterationBudget`] for a plan of zero replications.
/// * Scenario errors (shape mismatches, saturated profiles).
fn simulated_p95(
    runner: &ParallelRunner,
    model: &SystemModel,
    profile: &StrategyProfile,
    plan: &ReplicationPlan,
    config: SimulationConfig,
) -> Result<f64, GameError> {
    if plan.replications == 0 {
        return Err(GameError::ZeroIterationBudget);
    }
    let p95s = runner.try_run(
        plan.replications as usize,
        |r, _| {
            let mut responses = Vec::new();
            let seed = plan.seed_for(r as u32);
            run_replication(model, profile, config, seed, None, None, |_, resp| {
                responses.push(resp);
            })?;
            Ok::<_, GameError>(exact_quantile(&mut responses, 0.95))
        },
        None,
        None,
    )?;
    Ok(p95s.iter().sum::<f64>() / f64::from(plan.replications))
}

/// Tail latency across the schemes at ρ = 60%: the game optimizes *mean*
/// response times, but users feel the tail. Analytic variance comes from
/// the exponential-mixture identity (`lb-game::response`); the p95 is
/// simulated here from every job's response, which the replication
/// harness does not keep.
///
/// # Errors
///
/// Propagates scheme/simulation failures.
pub fn tail_latency(target_jobs: u64, replications: u32) -> Result<Vec<TailRow>, GameError> {
    use lb_game::response::{user_response_time, user_response_variance};
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let schemes: Vec<Box<dyn LoadBalancingScheme>> = vec![
        Box::new(NashScheme::default()),
        Box::new(GlobalOptimalScheme::default()),
        Box::new(IndividualOptimalScheme),
        Box::new(ProportionalScheme),
    ];
    let plan = ReplicationPlan {
        replications,
        ..ReplicationPlan::paper()
    };
    let runner = ParallelRunner::from_env();
    let mut rows = Vec::new();
    for scheme in &schemes {
        let profile = scheme.compute(&model)?;
        // A random job belongs to user j w.p. phi_j / Phi; its response
        // time is user j's mixture. Combine first and second moments.
        let phi = model.total_arrival_rate();
        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for j in 0..model.num_users() {
            let w = model.user_rate(j) / phi;
            let mean_j = user_response_time(&model, &profile, j)?;
            let var_j = user_response_variance(&model, &profile, j)?;
            m1 += w * mean_j;
            m2 += w * (var_j + mean_j * mean_j);
        }
        let scv = m2 / (m1 * m1) - 1.0;
        let cfg = SimulationConfig {
            target_jobs,
            ..SimulationConfig::paper()
        };
        rows.push(TailRow {
            scheme: scheme.name(),
            mean: m1,
            scv,
            simulated_p95: simulated_p95(&runner, &model, &profile, &plan, cfg)?,
        });
    }
    Ok(rows)
}

/// Renders the tail-latency table.
pub fn render_tails(rows: &[TailRow]) -> Table {
    let mut t = Table::new(
        "Extension 9: tail latency at rho=60% (mean vs p95)",
        vec![
            "scheme",
            "mean D",
            "SCV (analytic)",
            "p95 (sim)",
            "p95/mean",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            fmt(r.mean),
            fmt(r.scv),
            fmt(r.simulated_p95),
            format!("{:.2}", r.simulated_p95 / r.mean),
        ]);
    }
    t
}

/// One architecture row of the multicore-pooling experiment.
#[derive(Debug, Clone)]
pub struct PoolingRow {
    /// Architecture label.
    pub architecture: &'static str,
    /// Nash-equilibrium overall response time (analytic/numeric).
    pub nash_time: f64,
    /// Social optimum overall response time.
    pub optimal_time: f64,
    /// Simulated Nash response time (DES with multi-server stations).
    pub simulated_nash: f64,
}

/// Compares the paper's 16 single-core computers against the same
/// capacity consolidated into 4 multicore pools (one per speed class),
/// under Nash routing — the resource-pooling question the paper's model
/// cannot ask but modern hardware does.
///
/// # Errors
///
/// Propagates game/simulation failures.
pub fn multicore_pooling(target_jobs: u64) -> Result<Vec<PoolingRow>, GameError> {
    use lb_game::multicore::PoolSystem;
    use lb_sim::pools::run_pool_replication;

    let user_rates: Vec<f64> = {
        let model = SystemModel::table1_system(MEDIUM_LOAD)?;
        model.user_rates().to_vec()
    };
    // (a) The paper's architecture: 16 independent single-core computers.
    let separate = PoolSystem::new(
        SystemModel::table1_rates()
            .iter()
            .map(|&mu| (mu, 1))
            .collect(),
        user_rates.clone(),
    )?;
    // (b) Same capacity, consolidated: one pool per speed class.
    let pooled = PoolSystem::new(
        vec![(10.0, 6), (20.0, 5), (50.0, 3), (100.0, 2)],
        user_rates,
    )?;

    let mut rows = Vec::new();
    for (label, sys) in [
        ("16x single-core (paper)", &separate),
        ("4 pools (multicore)", &pooled),
    ] {
        let nash = sys.nash(1e-5, 500, 1200)?;
        let nash_time = sys.overall_time(&nash.flows);
        let opt = sys.social_optimum(8000)?;
        let optimal_time = {
            let phi = sys.total_arrival_rate();
            opt.iter()
                .zip(sys.pools())
                .filter(|(&t, _)| t > 0.0)
                .map(|(&t, p)| t * lb_game::latency::Latency::response_time(p, t))
                .sum::<f64>()
                / phi
        };
        let sim = run_pool_replication(sys, &nash.flows, target_jobs, 0.1, 0xcafe)?;
        rows.push(PoolingRow {
            architecture: label,
            nash_time,
            optimal_time,
            simulated_nash: sim.system_mean,
        });
    }
    Ok(rows)
}

/// Renders the pooling comparison.
pub fn render_pooling(rows: &[PoolingRow]) -> Table {
    let mut t = Table::new(
        "Extension 5: multicore pooling at rho=60% (same 510 jobs/s capacity)",
        vec!["architecture", "NASH D", "optimal D", "NASH D (sim)"],
    );
    for r in rows {
        t.row(vec![
            r.architecture.to_string(),
            fmt(r.nash_time),
            fmt(r.optimal_time),
            fmt(r.simulated_nash),
        ]);
    }
    t
}

/// One (policy × seed-averaged) row of the server-churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Overload-policy label.
    pub policy: &'static str,
    /// Quasi-static analytic prediction of the mean response time.
    pub predicted: f64,
    /// Seed-averaged measured mean response time of served jobs.
    pub measured: f64,
    /// Predicted shed fraction from the per-phase admission decisions.
    pub predicted_shed: f64,
    /// Seed-averaged measured shed fraction.
    pub measured_shed: f64,
    /// Total jobs lost to exhausted retries across the seeds.
    pub lost: u64,
    /// Total retry submissions across the seeds.
    pub retries: u64,
}

/// Server-fault tolerance: a mid-run crash makes the demand infeasible,
/// the dispatcher sheds load per each overload policy, the server comes
/// back and the shed demand is re-admitted. Measured (DES) response
/// times and shed fractions are reported against the quasi-static
/// analytic mixture for the proportional and max-min shedding policies.
///
/// # Errors
///
/// Propagates model/simulation failures.
pub fn server_churn(replications: u32) -> Result<Vec<ChurnRow>, GameError> {
    use lb_game::overload::OverloadPolicy;
    use lb_sim::churn::{run_churn_replication, ChurnPhase, RetryBackoff};

    let model = SystemModel::new(vec![10.0, 20.0, 30.0], vec![16.0, 12.0])?;
    let phases = vec![
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 0.0],
        },
        ChurnPhase {
            duration: 400.0,
            capacity: vec![10.0, 20.0, 30.0],
        },
    ];
    let backoff = RetryBackoff::new(0.05, 2.0, 1.0, 5);
    let policies: [(&'static str, OverloadPolicy); 2] = [
        (
            "shed-proportional (h=0.8)",
            OverloadPolicy::ShedProportional { headroom: 0.8 },
        ),
        (
            "shed-max-min (h=0.8)",
            OverloadPolicy::ShedMaxMin { headroom: 0.8 },
        ),
    ];
    let reps = replications.max(1);
    let runner = lb_sim::parallel::ParallelRunner::from_env();
    let mut rows = Vec::new();
    for (label, policy) in policies {
        // Churn replications are pure functions of their seed; fan them
        // out and fold in replication order (byte-identical to the old
        // sequential loop).
        let results = runner.try_run(
            reps as usize,
            |seed, _| {
                let seed = 4000 + seed as u64;
                run_churn_replication(&model, &phases, policy, backoff, 100.0, seed, None)
            },
            None,
            None,
        )?;
        let mut measured = 0.0;
        let mut measured_shed = 0.0;
        let mut predicted = 0.0;
        let mut predicted_shed = 0.0;
        let mut lost = 0;
        let mut retries = 0;
        for r in results {
            measured += r.measured_mean;
            measured_shed += r.shed_fraction;
            predicted = r.predicted_mean;
            predicted_shed = r.predicted_shed_fraction;
            lost += r.lost;
            retries += r.retries;
        }
        rows.push(ChurnRow {
            policy: label,
            predicted,
            measured: measured / f64::from(reps),
            predicted_shed,
            measured_shed: measured_shed / f64::from(reps),
            lost,
            retries,
        });
    }
    Ok(rows)
}

/// Renders the server-churn table.
pub fn render_churn(rows: &[ChurnRow]) -> Table {
    let mut t = Table::new(
        "Extension 10: server churn (crash -> shed -> recover) vs quasi-static prediction",
        vec![
            "policy",
            "D (pred)",
            "D (sim)",
            "shed% (pred)",
            "shed% (sim)",
            "lost",
            "retries",
        ],
    );
    for r in rows {
        t.row(vec![
            r.policy.to_string(),
            fmt(r.predicted),
            fmt(r.measured),
            format!("{:.2}", 100.0 * r.predicted_shed),
            format!("{:.2}", 100.0 * r.measured_shed),
            r.lost.to_string(),
            r.retries.to_string(),
        ]);
    }
    t
}

/// One cell of the asynchronous chaos sweep: the bounded-staleness
/// runtime on the Table-1 system under a given message-loss rate and
/// staleness bound τ.
#[derive(Debug, Clone)]
pub struct AsyncChaosRow {
    /// Per-message drop probability on every link.
    pub loss: f64,
    /// Staleness bound τ, virtual µs.
    pub staleness_us: u64,
    /// Whether the run ended with a certified gap.
    pub converged: bool,
    /// Virtual time to termination, ms.
    pub virtual_ms: f64,
    /// Best-reply updates the users performed.
    pub updates: u64,
    /// Messages the network dropped.
    pub dropped: u64,
    /// The coordinator-certified relative gap (`NaN` for partial runs).
    pub certified_gap: f64,
    /// The exact Nash gap of the returned profile, recomputed offline.
    pub true_gap: f64,
}

/// Sweeps loss × staleness for the asynchronous runtime: every cell
/// must either certify ε or surface as an honest partial outcome, and
/// the offline-recomputed gap cross-checks every certificate.
///
/// # Errors
///
/// Propagates model-construction or profile-extraction failures.
pub fn async_chaos() -> Result<Vec<AsyncChaosRow>, GameError> {
    let model = SystemModel::table1_system(MEDIUM_LOAD)?;
    let mut rows = Vec::new();
    for &loss in &[0.0, 0.1, 0.3] {
        for &staleness_us in &[5_000u64, 20_000, 80_000] {
            let plan = NetFaultPlan::new()
                .loss(loss)
                .duplication(0.05)
                .reordering(0.25)
                .delay_us(50, 2_000);
            let out = AsyncNash::new()
                .seed(0xA5)
                .fault_plan(plan)
                .staleness_us(staleness_us)
                .epsilon(EPSILON)
                .max_virtual_us(20_000_000)
                .run(&model)?;
            let true_gap = epsilon_nash_gap(&model, &out.profile()?)?;
            rows.push(AsyncChaosRow {
                loss,
                staleness_us,
                converged: out.converged(),
                virtual_ms: out.virtual_time_us() as f64 / 1_000.0,
                updates: out.updates(),
                dropped: out.net_stats().dropped,
                certified_gap: out.certified_gap().unwrap_or(f64::NAN),
                true_gap,
            });
        }
    }
    Ok(rows)
}

/// Renders the asynchronous chaos sweep.
pub fn render_async(rows: &[AsyncChaosRow]) -> Table {
    let mut t = Table::new(
        "Extension 12: asynchronous dynamics under network chaos (loss x staleness)",
        vec![
            "loss",
            "tau (ms)",
            "outcome",
            "virtual ms",
            "updates",
            "dropped",
            "certified gap",
            "true gap",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.0}%", 100.0 * r.loss),
            format!("{:.0}", r.staleness_us as f64 / 1_000.0),
            if r.converged { "certified" } else { "partial" }.to_string(),
            format!("{:.1}", r.virtual_ms),
            r.updates.to_string(),
            r.dropped.to_string(),
            fmt(r.certified_gap),
            fmt(r.true_gap),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anytime_frontier_is_sound_and_monotone_in_spirit() {
        let points = anytime_frontier().unwrap();
        assert_eq!(points.len(), 10);
        for p in &points {
            // Soundness: the certificate never understates the exact gap.
            assert!(
                p.cert_abs + 1e-9 * (1.0 + p.exact_gap) >= p.exact_gap,
                "budget {}: certificate {} < exact gap {}",
                p.budget,
                p.cert_abs,
                p.exact_gap
            );
            assert!(p.cert_rel >= 0.0 && p.cert_abs >= 0.0);
        }
        // The frontier must actually descend: the largest budget ends far
        // below the smallest (exact monotonicity is not guaranteed
        // sweep-to-sweep, the overall trend is).
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        assert!(
            last.cert_abs < first.cert_abs * 1e-2,
            "no progress: {} -> {}",
            first.cert_abs,
            last.cert_abs
        );
        assert!(last.exact_gap <= first.exact_gap);
    }

    #[test]
    fn robustness_order_survives_service_families() {
        // The paper's ranking NASH < IOS <= PS should hold under every
        // service family, not just M/M/1.
        let rows = service_robustness(40_000, 2).unwrap();
        for family in ["deterministic", "erlang-4", "exponential", "hyperexp-4"] {
            let get = |scheme: &str| {
                rows.iter()
                    .find(|r| r.scheme == scheme && r.service == family)
                    .unwrap()
                    .simulated
            };
            assert!(
                get("NASH") < get("PS"),
                "{family}: NASH {} !< PS {}",
                get("NASH"),
                get("PS")
            );
            assert!(
                get("GOS") < get("PS") * 1.001,
                "{family}: GOS should stay best-ish"
            );
        }
    }

    #[test]
    fn robustness_simulation_matches_pk_prediction() {
        let rows = service_robustness(40_000, 2).unwrap();
        for r in &rows {
            let rel = (r.simulated - r.predicted).abs() / r.predicted;
            // Heavier-tailed service converges slower (variance grows with
            // the SCV); widen the acceptance band accordingly.
            let tol = 0.10 + 0.05 * r.scv;
            assert!(
                rel < tol,
                "{} / {}: simulated {} vs P-K {} (rel {rel:.3}, tol {tol})",
                r.scheme,
                r.service,
                r.simulated,
                r.predicted
            );
        }
    }

    #[test]
    fn stackelberg_needs_most_of_the_traffic_to_match_nash() {
        let (points, nash, gos) = stackelberg_sweep().unwrap();
        assert_eq!(points.len(), 11);
        // alpha = 0 is Wardrop (worse than NASH at medium load)…
        assert!(points[0].overall_time > nash);
        // …alpha = 1 is the optimum (at or below NASH).
        assert!(points[10].overall_time <= nash + 1e-9);
        assert!((points[10].overall_time - gos).abs() < 1e-9);
        // The sweep is monotone non-increasing.
        for w in points.windows(2) {
            assert!(w[1].overall_time <= w[0].overall_time + 1e-9);
        }
    }

    #[test]
    fn warm_start_saves_iterations_on_every_drift_step() {
        let steps = warm_start_dynamics().unwrap();
        let warm: u32 = steps.iter().map(|s| s.warm_iterations).sum();
        let cold: u32 = steps.iter().map(|s| s.cold_iterations).sum();
        assert!(
            warm < cold,
            "warm restarts ({warm}) should beat cold restarts ({cold}) overall"
        );
        for s in &steps {
            assert!(
                s.warm_iterations <= s.cold_iterations,
                "at rho {}: warm {} > cold {}",
                s.rho,
                s.warm_iterations,
                s.cold_iterations
            );
        }
    }

    #[test]
    fn noise_degrades_gracefully() {
        let points = observation_noise().unwrap();
        assert!(points[0].relative_gap < 1e-2, "exact observation gap");
        // More noise, larger (but bounded) equilibrium gap.
        let last = points.last().unwrap();
        assert!(last.relative_gap < 0.5, "10% noise should still be usable");

        // The 10% ring never settles: its point is the state the ring
        // reached at its 300-round budget, not a rerun's.
        let model = SystemModel::table1_system(MEDIUM_LOAD).unwrap();
        let out = DistributedNash::new()
            .stopping_rule(StoppingRule::AbsoluteNorm)
            .observation(ObservationModel::Noisy {
                rel_std: 0.10,
                seed: 0x0b5e,
            })
            .tolerance(5e-3)
            .max_rounds(300)
            .run(&model)
            .unwrap();
        assert_eq!(
            out.termination(),
            lb_distributed::messages::Termination::Exhausted
        );
        assert_eq!(out.rounds(), 300);
        let gap = epsilon_nash_gap(&model, out.profile()).unwrap();
        let times = evaluate_profile(&model, out.profile()).unwrap().user_times;
        let mean_d = times.iter().sum::<f64>() / times.len() as f64;
        assert_eq!(last.rel_std, 0.10);
        assert_eq!(last.rounds, 300);
        assert_eq!(last.relative_gap.to_bits(), (gap / mean_d).to_bits());
    }

    #[test]
    fn poa_stays_bounded_and_nash_dominates_wardrop() {
        let points = poa_vs_utilization().unwrap();
        for p in &points {
            assert!(p.poa_nash >= 1.0 - 1e-9, "PoA below 1 at {}", p.x);
            assert!(
                p.poa_nash <= p.poa_wardrop + 1e-9,
                "finite-player Nash should beat Wardrop at {}",
                p.x
            );
            assert!(p.poa_nash < 1.2, "PoA {} too large at {}", p.poa_nash, p.x);
        }
        // The interesting shape: Wardrop anarchy cost peaks at medium-high
        // load (~70%) and shrinks toward both extremes (at low load all
        // schemes ride the fast machines; near saturation everything is
        // forced to use everything).
        let peak = points.iter().map(|p| p.poa_wardrop).fold(0.0, f64::max);
        assert!(peak > points[0].poa_wardrop + 0.05);
        assert!(peak > points.last().unwrap().poa_wardrop + 0.05);
    }

    #[test]
    fn burstiness_preserves_scheme_ordering() {
        let rows = arrival_burstiness(40_000, 2).unwrap();
        for family in ["deterministic", "erlang-4", "poisson", "hyperexp-4"] {
            let get = |scheme: &str| {
                rows.iter()
                    .find(|r| r.scheme == scheme && r.arrivals == family)
                    .unwrap()
                    .simulated
            };
            assert!(get("NASH") < get("PS"), "{family}: NASH !< PS");
        }
        // Burstier arrivals inflate every scheme's response time.
        let nash = |fam: &str| {
            rows.iter()
                .find(|r| r.scheme == "NASH" && r.arrivals == fam)
                .unwrap()
                .simulated
        };
        assert!(nash("deterministic") < nash("poisson"));
        assert!(nash("poisson") < nash("hyperexp-4"));
    }

    #[test]
    fn dynamic_information_beats_static_at_every_load() {
        let rows = dynamic_policies(50_000).unwrap();
        for &rho in &[0.3, 0.6, 0.9] {
            let get = |policy: &str| {
                rows.iter()
                    .find(|r| r.policy == policy && (r.rho - rho).abs() < 1e-9)
                    .unwrap()
                    .simulated
            };
            assert!(
                get("SED") < get("STATIC"),
                "rho {rho}: SED {} vs static {}",
                get("SED"),
                get("STATIC")
            );
            assert!(get("WRR") <= get("STATIC") * 1.05, "rho {rho}: WRR");
        }
    }

    #[test]
    fn tail_latency_is_consistent_with_the_mixture_moments() {
        let rows = tail_latency(50_000, 2).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            // Mixtures of exponentials are hyperexponential-like: SCV >= 1.
            assert!(r.scv >= 1.0 - 1e-9, "{}: SCV {}", r.scheme, r.scv);
            // For an exponential, p95 = ln(20) * mean ~ 3.0x; mixtures can
            // stretch further but stay in a sane band.
            let ratio = r.simulated_p95 / r.mean;
            assert!(
                (2.0..6.0).contains(&ratio),
                "{}: p95/mean {ratio}",
                r.scheme
            );
        }
        // NASH keeps a lower p95 than PS, not just a lower mean.
        let p95 = |name: &str| {
            rows.iter()
                .find(|r| r.scheme == name)
                .unwrap()
                .simulated_p95
        };
        assert!(
            p95("NASH") < p95("PS"),
            "NASH {} vs PS {}",
            p95("NASH"),
            p95("PS")
        );
        // Pinned bits: a change to the DES streams, the quantile or the
        // order of the average shows here before it reaches a CSV digit.
        let pinned = [
            ("NASH", 0x3fc7_0f53_c682_f100_u64),
            ("GOS", 0x3fc6_7e4b_c360_4300),
            ("IOS", 0x3fc9_fd15_b43e_f800),
            ("PS", 0x3fd3_5a8b_ccf1_0ec0),
        ];
        for (r, (scheme, bits)) in rows.iter().zip(pinned) {
            assert_eq!(r.scheme, scheme);
            assert_eq!(
                r.simulated_p95.to_bits(),
                bits,
                "{scheme}: p95 {}",
                r.simulated_p95
            );
        }
    }

    #[test]
    fn simulated_p95_is_bit_identical_at_any_thread_count() {
        let model = SystemModel::new(vec![10.0, 20.0], vec![6.0, 6.0]).unwrap();
        let profile = ProportionalScheme.compute(&model).unwrap();
        let config = SimulationConfig::quick();
        let plan = |replications| ReplicationPlan {
            replications,
            ..ReplicationPlan::paper()
        };
        let p95 = |threads, replications| {
            let runner = ParallelRunner::new(threads);
            simulated_p95(&runner, &model, &profile, &plan(replications), config)
        };
        let reference = p95(1, 3).unwrap();
        for threads in [2, 8] {
            let bits = p95(threads, 3).unwrap().to_bits();
            assert_eq!(bits, reference.to_bits(), "{threads} threads");
        }
        assert_eq!(p95(1, 0), Err(GameError::ZeroIterationBudget));
        // The tail sits well above the mean (exponential-ish sojourns put
        // p95 near 3x the mean for a single M/M/1).
        let sim = simulate_profile(&model, &profile, &plan(3), config).unwrap();
        let mean = sim.system_summary.mean;
        assert!(reference > 1.5 * mean, "p95 {reference} vs mean {mean}");
    }

    #[test]
    fn exact_quantile_is_the_nearest_rank() {
        assert!(exact_quantile(&mut [], 0.95).is_nan());
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(exact_quantile(&mut [4.5], q), 4.5);
        }
        // Shuffled 1..=n (7 and 37 are coprime with 20 and 100): the
        // p95 is the ⌈0.95·n⌉-th smallest.
        let mut twenty: Vec<f64> = (0..20).map(|i| ((i * 7) % 20 + 1) as f64).collect();
        assert_eq!(exact_quantile(&mut twenty, 0.95), 19.0);
        let mut hundred: Vec<f64> = (0..100).map(|i| ((i * 37) % 100 + 1) as f64).collect();
        assert_eq!(exact_quantile(&mut hundred, 0.95), 95.0);
        let mut ties = [2.0, 3.0, 1.0, 2.0, 2.0];
        assert_eq!(exact_quantile(&mut ties, 0.5), 2.0);
        assert_eq!(exact_quantile(&mut ties, 0.95), 3.0);
        // The rank is clamped to [1, n].
        let mut xs = [5.0, -1.0, 9.0, 3.0];
        assert_eq!(exact_quantile(&mut xs, 0.0), -1.0);
        assert_eq!(exact_quantile(&mut xs, 1.0), 9.0);
    }

    #[test]
    fn pooling_beats_separate_computers() {
        let rows = multicore_pooling(60_000).unwrap();
        assert_eq!(rows.len(), 2);
        let separate = &rows[0];
        let pooled = &rows[1];
        // Resource pooling: the consolidated architecture wins at
        // equilibrium, and its optimum is no worse either.
        assert!(
            pooled.nash_time < separate.nash_time,
            "pooled {} vs separate {}",
            pooled.nash_time,
            separate.nash_time
        );
        assert!(pooled.optimal_time <= separate.optimal_time + 1e-6);
        // Simulated values confirm the numeric equilibria.
        for r in &rows {
            let rel = (r.simulated_nash - r.nash_time).abs() / r.nash_time;
            assert!(
                rel < 0.08,
                "{}: sim {} vs {}",
                r.architecture,
                r.simulated_nash,
                r.nash_time
            );
        }
    }

    #[test]
    fn renders_have_expected_shapes() {
        let (points, nash, gos) = stackelberg_sweep().unwrap();
        assert_eq!(render_stackelberg(&points, nash, gos).len(), 11);
        let steps = warm_start_dynamics().unwrap();
        assert_eq!(render_dynamics(&steps).len(), steps.len());
    }
}
