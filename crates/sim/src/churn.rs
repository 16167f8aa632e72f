//! Capacity-churn simulation: servers crash, degrade and recover while
//! jobs keep arriving.
//!
//! The run is *quasi-static*: capacity is piecewise-constant over a
//! schedule of [`ChurnPhase`]s, written out by the caller. At each phase
//! boundary the dispatcher re-solves the Nash equilibrium for the
//! surviving capacity with [`DynamicBalancer::update_capacity`]
//! (warm-started from the previous equilibrium), shedding load per the
//! configured [`OverloadPolicy`] when the survivors cannot carry the
//! nominal demand. Inside a phase the wiring matches [`crate::scenario`]:
//! Poisson sources, probabilistic dispatch, FCFS M/M/1 stations
//! ([`FcfsStation`]). The run keeps an event loop of its own rather than
//! the single-calendar loop of [`crate::policies`], because its phase
//! changes, admission thinning, retries and stale completions belong to
//! churn alone.
//!
//! The churn mechanics on top:
//!
//! * **admission** — each arrival is admitted with probability
//!   `admitted_j / φ_j` (Poisson thinning, so the admitted stream is
//!   again Poisson at exactly the shed-to rate); refused jobs are
//!   counted *shed*;
//! * **crashes** — a computer whose phase rate drops to zero fails:
//!   its generation is bumped, so its pending completion, stamped with
//!   the old generation, is skipped when it pops; the preempted and
//!   queued jobs are returned by [`FcfsStation::fail`] and re-submitted
//!   under the capped exponential [`RetryBackoff`] (counted *lost* once
//!   the budget is exhausted); retried jobs re-dispatch under the
//!   *current* equilibrium, so they land on live computers;
//! * **accounting** — a [`GoodputMonitor`] separates served, shed and
//!   lost work; response times are measured from the job's original
//!   admission instant, so retry delays count against the system.
//!
//! Because capacity is piecewise-constant, the analytic prediction is a
//! throughput-weighted mixture of the per-phase equilibrium response
//! times (`lb_game::metrics::evaluate_profile` on each residual game) —
//! [`ChurnResult::predicted_mean`]. Phase-boundary transients and retry
//! delays are not in the prediction, so agreement is expected within
//! simulation confidence intervals when phases are long relative to the
//! queues' relaxation times, which is exactly what the integration tests
//! verify.

use lb_des::engine::Engine;
use lb_des::monitor::{GoodputMonitor, ResponseTimeMonitor};
use lb_des::rng::{Distribution, RngStream, SampleBlock};
use lb_des::station::{Arrival, FcfsStation, Job};
use lb_des::time::SimTime;
pub use lb_des::RetryBackoff;
use lb_game::dynamics::{DynamicBalancer, Restart};
use lb_game::error::GameError;
use lb_game::metrics::evaluate_profile;
use lb_game::model::SystemModel;
use lb_game::overload::OverloadPolicy;
use lb_telemetry::Collector;
use std::collections::HashMap;
use std::sync::Arc;

/// One piece of the piecewise-constant capacity schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPhase {
    /// How long the phase lasts, in seconds.
    pub duration: f64,
    /// Per-computer service rates during the phase (0 = crashed).
    pub capacity: Vec<f64>,
}

/// Measurements and predictions from one churn replication.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Mean response time of served (post-warmup) jobs, measured from
    /// original admission to completion — retry delays included.
    pub measured_mean: f64,
    /// Throughput-weighted mixture of the per-phase analytic equilibrium
    /// response times.
    pub predicted_mean: f64,
    /// The per-phase analytic predictions behind the mixture.
    pub phase_predictions: Vec<f64>,
    /// Jobs served to completion after warmup.
    pub served: u64,
    /// Jobs refused at admission after warmup.
    pub shed: u64,
    /// Jobs lost to an exhausted retry budget after warmup.
    pub lost: u64,
    /// Retry submissions after warmup.
    pub retries: u64,
    /// Measured fraction of offered (post-warmup) jobs that were shed.
    pub shed_fraction: f64,
    /// Predicted shed fraction from the per-phase admission decisions.
    pub predicted_shed_fraction: f64,
}

/// A phase with its equilibrium dispatch state resolved.
struct PhaseState {
    start: f64,
    end: f64,
    /// Full-width (m × n) dispatch probabilities; zero columns for
    /// crashed computers.
    rows: Vec<Vec<f64>>,
    /// Per-user admitted rates.
    admitted: Vec<f64>,
    capacity: Vec<f64>,
    predicted_time: f64,
}

/// Events of the churn simulation. A `Completion` carries its computer's
/// generation when it was scheduled, and is stale once a crash bumps it.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { user: usize },
    Completion { computer: usize, generation: u32 },
    Retry { job: Job, attempts: u32 },
    PhaseChange { next: usize },
}

/// Runs one churn replication: `phases` of piecewise-constant capacity
/// over `model`'s nominal system, shedding per `policy`, retrying
/// crashed-out jobs per `backoff`, discarding the first `warmup`
/// seconds.
///
/// With a `collector`, the run emits one `sim.phase {phase, start, end,
/// admitted_total, capacity_total, predicted_time}` per resolved phase,
/// then `sim.goodput {t, phase, served, shed, lost, retries}` plus a
/// `des.calendar {t, depth, processed}` snapshot at every phase boundary
/// and once at the end of the run (both counts include stale
/// completions). The run is also wrapped in a causal span tree —
/// `sim.churn` → `sim.phase_run` per phase. Collection is purely
/// observational — the returned [`ChurnResult`] is bit-identical with or
/// without a collector.
///
/// # Errors
///
/// * [`GameError::DimensionMismatch`] when a phase's capacity vector has
///   the wrong width.
/// * [`GameError::Overloaded`] when a phase is infeasible under
///   [`OverloadPolicy::Reject`].
/// * [`GameError::InvalidRate`] on non-finite durations/rates or an
///   empty/too-short schedule.
#[allow(clippy::too_many_lines)]
pub fn run_churn_replication(
    model: &SystemModel,
    phases: &[ChurnPhase],
    policy: OverloadPolicy,
    backoff: RetryBackoff,
    warmup: f64,
    seed: u64,
    collector: Option<&Arc<dyn Collector>>,
) -> Result<ChurnResult, GameError> {
    let collect = lb_telemetry::enabled(collector);
    let m = model.num_users();
    let n = model.num_computers();
    let horizon: f64 = phases.iter().map(|p| p.duration).sum();
    if phases.is_empty() || !warmup.is_finite() || warmup < 0.0 || warmup >= horizon {
        return Err(GameError::InvalidRate {
            name: "churn warmup/horizon",
            value: if phases.is_empty() { 0.0 } else { warmup },
        });
    }
    for p in phases {
        if !(p.duration.is_finite() && p.duration > 0.0) {
            return Err(GameError::InvalidRate {
                name: "phase duration",
                value: p.duration,
            });
        }
    }

    // Resolve every phase's equilibrium up front: the schedule (and
    // therefore the whole admission trajectory) is a pure function of
    // (model, phases, policy), independent of the event stream.
    let mut balancer = DynamicBalancer::new(model.clone(), 1e-6)?;
    let mut states: Vec<PhaseState> = Vec::with_capacity(phases.len());
    let mut clock = 0.0;
    for p in phases {
        let step = balancer.update_capacity(&p.capacity, policy, Restart::Warm)?;
        let live = step.live_computers.clone();
        let rows: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut full = vec![0.0; n];
                for (c, &i) in live.iter().enumerate() {
                    full[i] = balancer.equilibrium().strategy(j).fraction(c);
                }
                full
            })
            .collect();
        let analytic = evaluate_profile(balancer.model(), balancer.equilibrium())?;
        states.push(PhaseState {
            start: clock,
            end: clock + p.duration,
            rows,
            admitted: step.plan.admitted.clone(),
            capacity: p.capacity.clone(),
            predicted_time: analytic.overall_time,
        });
        clock += p.duration;
    }
    if let Some(c) = collect {
        for (k, s) in states.iter().enumerate() {
            c.emit(
                "sim.phase",
                &[
                    ("phase", (k as u64).into()),
                    ("start", s.start.into()),
                    ("end", s.end.into()),
                    ("admitted_total", s.admitted.iter().sum::<f64>().into()),
                    ("capacity_total", s.capacity.iter().sum::<f64>().into()),
                    ("predicted_time", s.predicted_time.into()),
                ],
            );
        }
    }

    // Analytic mixture over the post-warmup window, weighted by each
    // phase's admitted throughput (= its share of served jobs).
    let nominal_total: f64 = model.user_rates().iter().sum();
    let mut weighted = 0.0;
    let mut weight = 0.0;
    let mut shed_weight = 0.0;
    let mut offered_weight = 0.0;
    for s in &states {
        let dur = (s.end.min(horizon) - s.start.max(warmup)).max(0.0);
        let admitted_total: f64 = s.admitted.iter().sum();
        weighted += admitted_total * dur * s.predicted_time;
        weight += admitted_total * dur;
        shed_weight += (nominal_total - admitted_total) * dur;
        offered_weight += nominal_total * dur;
    }
    let predicted_mean = if weight > 0.0 { weighted / weight } else { 0.0 };
    let predicted_shed_fraction = if offered_weight > 0.0 {
        shed_weight / offered_weight
    } else {
        0.0
    };

    // Independent streams: interarrivals per user, admission coins per
    // user, dispatch choices per user, service demands per computer.
    let mut arrival_streams: Vec<RngStream> =
        (0..m).map(|j| RngStream::new(seed, j as u64)).collect();
    // Each user's interarrival rate is constant over the whole run
    // (admission is a thinning coin, not a rate change), so the draws can
    // be buffered in blocks — same uniforms, same arithmetic, hence
    // bit-identical to per-call sampling, but vectorized.
    let mut arrival_blocks: Vec<SampleBlock> = (0..m)
        .map(|j| {
            SampleBlock::new(
                Distribution::Exponential {
                    rate: model.user_rate(j),
                },
                lb_des::shard::DEFAULT_SHARD_BATCH,
            )
        })
        .collect();
    let mut admission_streams: Vec<RngStream> = (0..m)
        .map(|j| RngStream::new(seed, (m + j) as u64))
        .collect();
    let mut dispatch_streams: Vec<RngStream> = (0..m)
        .map(|j| RngStream::new(seed, (2 * m + j) as u64))
        .collect();
    let mut service_streams: Vec<RngStream> = (0..n)
        .map(|i| RngStream::new(seed, (3 * m + i) as u64))
        .collect();

    let mut stations: Vec<FcfsStation> = (0..n).map(|_| FcfsStation::new()).collect();
    // Bumped when a computer crashes, so its pending completion goes stale.
    let mut generation: Vec<u32> = vec![0; n];
    let warmup_t = SimTime::new(warmup);
    let mut monitor = ResponseTimeMonitor::new(m, warmup_t);
    let mut goodput = GoodputMonitor::new(warmup_t);
    // Retries already spent per in-flight job (absent = none yet).
    let mut attempts: HashMap<u64, u32> = HashMap::new();
    let mut engine: Engine<Event> = Engine::new();
    engine.set_horizon(SimTime::new(horizon));
    // Causal spans: one `sim.churn` root for the replication and one
    // `sim.phase_run` child per capacity phase (wall time spent
    // simulating that phase).
    let churn_span = lb_telemetry::Span::root(
        collector,
        "sim.churn",
        &[
            ("seed", seed.into()),
            ("phases", (states.len() as u64).into()),
            ("horizon", horizon.into()),
        ],
    );
    let mut phase_span = churn_span
        .as_ref()
        .map(|s| s.child("sim.phase_run", &[("phase", 0u64.into())]));

    for (j, stream) in arrival_streams.iter_mut().enumerate() {
        let dt = arrival_blocks[j].next(stream);
        engine.schedule_in(dt, Event::Arrival { user: j });
    }
    for (k, s) in states.iter().enumerate().skip(1) {
        engine.schedule_at(SimTime::new(s.start), Event::PhaseChange { next: k });
    }

    let mut current = 0usize;
    let mut last_job_id: u64 = 0;

    // Dispatches `job` per the current phase's equilibrium and schedules
    // its completion if service starts immediately.
    let dispatch = |job: Job,
                    phase: &PhaseState,
                    stations: &mut [FcfsStation],
                    generation: &[u32],
                    dispatch_streams: &mut [RngStream],
                    service_streams: &mut [RngStream],
                    engine: &mut Engine<Event>| {
        let computer = dispatch_streams[job.user].categorical(&phase.rows[job.user]);
        let job = Job {
            service_time: service_streams[computer].exponential(phase.capacity[computer]),
            ..job
        };
        if let Arrival::StartService(done_at) = stations[computer].arrive(job, engine.now()) {
            let generation = generation[computer];
            engine.schedule_at(
                done_at,
                Event::Completion {
                    computer,
                    generation,
                },
            );
        }
    };

    while let Some(ev) = engine.next_event() {
        match ev {
            Event::Arrival { user } => {
                let dt = arrival_blocks[user].next(&mut arrival_streams[user]);
                engine.schedule_in(dt, Event::Arrival { user });
                let phase = &states[current];
                // Poisson thinning implements the admission decision.
                let admit_p = phase.admitted[user] / model.user_rate(user);
                if admission_streams[user].uniform01() >= admit_p {
                    goodput.record_shed(engine.now());
                    continue;
                }
                last_job_id += 1;
                let job = Job {
                    id: last_job_id,
                    user,
                    arrival: engine.now(),
                    service_time: 0.0, // sampled at dispatch
                };
                dispatch(
                    job,
                    phase,
                    &mut stations,
                    &generation,
                    &mut dispatch_streams,
                    &mut service_streams,
                    &mut engine,
                );
            }
            Event::Completion {
                computer,
                generation: stamp,
            } => {
                if stamp != generation[computer] {
                    continue; // its job was preempted by a crash
                }
                let (finished, next) = stations[computer].complete(engine.now());
                monitor.record(finished.user, finished.arrival, engine.now());
                goodput.record_served(engine.now());
                attempts.remove(&finished.id);
                if let Some((_, done_at)) = next {
                    engine.schedule_at(
                        done_at,
                        Event::Completion {
                            computer,
                            generation: stamp,
                        },
                    );
                }
            }
            Event::Retry { job, attempts: a } => {
                goodput.record_retry(engine.now());
                attempts.insert(job.id, a);
                dispatch(
                    job,
                    &states[current],
                    &mut stations,
                    &generation,
                    &mut dispatch_streams,
                    &mut service_streams,
                    &mut engine,
                );
            }
            Event::PhaseChange { next } => {
                let old = current;
                current = next;
                for i in 0..n {
                    let was_up = states[old].capacity[i] > 0.0;
                    let is_up = states[next].capacity[i] > 0.0;
                    if was_up && !is_up {
                        generation[i] += 1;
                        for job in stations[i].fail(engine.now()) {
                            let spent = attempts.remove(&job.id).unwrap_or(0);
                            match backoff.delay(spent) {
                                Some(d) => {
                                    engine.schedule_in(
                                        d,
                                        Event::Retry {
                                            job,
                                            attempts: spent + 1,
                                        },
                                    );
                                }
                                None => goodput.record_lost(engine.now()),
                            }
                        }
                    }
                }
                if let Some(c) = collect {
                    emit_churn_snapshot(c, &engine, &goodput, next);
                }
                if let Some(prev) = phase_span.take() {
                    prev.close_with(&[("t", engine.now().as_secs().into())]);
                }
                phase_span = churn_span
                    .as_ref()
                    .map(|s| s.child("sim.phase_run", &[("phase", (next as u64).into())]));
            }
        }
    }
    if let Some(c) = collect {
        emit_churn_snapshot(c, &engine, &goodput, current);
    }
    if let Some(span) = phase_span.take() {
        span.close_with(&[("t", engine.now().as_secs().into())]);
    }
    if let Some(span) = churn_span {
        span.close_with(&[
            ("served", goodput.served().into()),
            ("shed", goodput.shed().into()),
            ("lost", goodput.lost().into()),
        ]);
    }

    let offered = goodput.served() + goodput.shed() + goodput.lost();
    Ok(ChurnResult {
        measured_mean: monitor.system_mean(),
        predicted_mean,
        phase_predictions: states.iter().map(|s| s.predicted_time).collect(),
        served: goodput.served(),
        shed: goodput.shed(),
        lost: goodput.lost(),
        retries: goodput.retries(),
        shed_fraction: if offered > 0 {
            goodput.shed() as f64 / offered as f64
        } else {
            0.0
        },
        predicted_shed_fraction,
    })
}

/// Emits the goodput tally and a calendar-health snapshot for the
/// current instant — called at every phase boundary and once at the end
/// of a traced churn run.
fn emit_churn_snapshot(
    c: &dyn Collector,
    engine: &Engine<Event>,
    goodput: &GoodputMonitor,
    phase: usize,
) {
    let t = engine.now().as_secs();
    c.emit(
        "sim.goodput",
        &[
            ("t", t.into()),
            ("phase", (phase as u64).into()),
            ("served", goodput.served().into()),
            ("shed", goodput.shed().into()),
            ("lost", goodput.lost().into()),
            ("retries", goodput.retries().into()),
        ],
    );
    c.emit(
        "des.calendar",
        &[
            ("t", t.into()),
            ("depth", engine.calendar_depth().into()),
            ("processed", engine.events_processed().into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nominal system: Σφ = 28 against Σμ = 60. Crashing the fast
    /// computer leaves 30, so a 0.8-headroom policy sheds to 24.
    fn model() -> SystemModel {
        SystemModel::new(vec![10.0, 20.0, 30.0], vec![16.0, 12.0]).unwrap()
    }

    fn backoff() -> RetryBackoff {
        RetryBackoff::new(0.05, 2.0, 1.0, 5)
    }

    fn crash_phases() -> Vec<ChurnPhase> {
        vec![
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
        ]
    }

    #[test]
    fn churn_replication_is_deterministic_per_seed() {
        let m = model();
        let run = |seed| {
            run_churn_replication(
                &m,
                &crash_phases(),
                OverloadPolicy::ShedProportional { headroom: 0.8 },
                backoff(),
                100.0,
                seed,
                None,
            )
            .unwrap()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.measured_mean, b.measured_mean);
        assert_eq!(a.served, b.served);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.retries, b.retries);
        let c = run(8);
        assert_ne!(a.measured_mean, c.measured_mean);
        // The prediction is seed-independent.
        assert_eq!(a.predicted_mean, c.predicted_mean);
    }

    #[test]
    fn collector_sees_phases_and_goodput_without_perturbing_the_run() {
        use lb_telemetry::MemoryCollector;
        let m = model();
        let policy = OverloadPolicy::ShedProportional { headroom: 0.8 };
        let plain =
            run_churn_replication(&m, &crash_phases(), policy, backoff(), 100.0, 7, None).unwrap();
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let traced = run_churn_replication(
            &m,
            &crash_phases(),
            policy,
            backoff(),
            100.0,
            7,
            Some(&collector),
        )
        .unwrap();
        assert_eq!(
            plain.measured_mean.to_bits(),
            traced.measured_mean.to_bits()
        );
        assert_eq!(plain.served, traced.served);
        assert_eq!(plain.shed, traced.shed);
        assert_eq!(plain.lost, traced.lost);
        assert_eq!(plain.retries, traced.retries);
        // One sim.phase per schedule entry; a goodput + calendar snapshot
        // at each of the two phase boundaries plus one at the end.
        assert_eq!(mem.count("sim.phase"), 3);
        assert_eq!(mem.count("sim.goodput"), 3);
        assert_eq!(mem.count("des.calendar"), 3);
        // Span tree: balanced, with the churn root and one phase
        // interval per schedule entry; the engine opens no spans.
        use lb_telemetry::{FieldValue, SPAN_CLOSE, SPAN_OPEN};
        assert_eq!(mem.count(SPAN_OPEN), mem.count(SPAN_CLOSE));
        let span_names: Vec<String> = mem
            .events()
            .iter()
            .filter(|(n, _)| *n == SPAN_OPEN)
            .map(
                |(_, fields)| match &fields.iter().find(|(k, _)| *k == "name").unwrap().1 {
                    FieldValue::Str(s) => s.to_string(),
                    other => panic!("name was {other:?}"),
                },
            )
            .collect();
        assert_eq!(span_names.iter().filter(|n| *n == "sim.churn").count(), 1);
        assert_eq!(
            span_names.iter().filter(|n| *n == "sim.phase_run").count(),
            3
        );
        assert_eq!(span_names.len(), 4, "{span_names:?}");
    }

    #[test]
    fn short_outages_skip_completions_that_pop_after_repair() {
        // Twenty 0.01-s crashes of the fast computer between 5-s phases:
        // a crashed job's completion is usually still pending when its
        // computer comes back, so it pops after the repair and must be
        // skipped rather than end the job then in service. A stale pop
        // draws no random number and serves no job, so the expected
        // values are those of a loop that withdraws each crashed job's
        // completion from the calendar instead.
        let m = model();
        let mut phases = Vec::new();
        for k in 0..=20 {
            if k > 0 {
                phases.push(ChurnPhase {
                    duration: 0.01,
                    capacity: vec![10.0, 20.0, 0.0],
                });
            }
            phases.push(ChurnPhase {
                duration: 5.0,
                capacity: vec![10.0, 20.0, 30.0],
            });
        }
        let r = run_churn_replication(
            &m,
            &phases,
            OverloadPolicy::ShedProportional { headroom: 0.8 },
            backoff(),
            1.0,
            3,
            None,
        )
        .unwrap();
        assert_eq!(r.measured_mean.to_bits(), 0x3fb5899c5b2dd257);
        assert_eq!((r.served, r.shed, r.lost, r.retries), (2895, 1, 0, 21));
    }

    #[test]
    fn shedding_matches_the_admission_decision() {
        let m = model();
        let r = run_churn_replication(
            &m,
            &crash_phases(),
            OverloadPolicy::ShedProportional { headroom: 0.8 },
            backoff(),
            100.0,
            3,
            None,
        )
        .unwrap();
        // Phase 2 sheds 28 − 24 = 4 of 28 jobs/s for 400 of 1100
        // post-warmup seconds: expect ≈ 4/28 · 400/1100 ≈ 5.2% shed.
        assert!(
            (r.shed_fraction - r.predicted_shed_fraction).abs() < 0.01,
            "measured shed {} vs predicted {}",
            r.shed_fraction,
            r.predicted_shed_fraction
        );
        // Crashing a busy station forces retries, but the budget saves
        // nearly all of them.
        assert!(r.retries > 0, "no retries recorded");
        assert!(
            (r.lost as f64) < 0.001 * r.served as f64,
            "lost {} vs served {}",
            r.lost,
            r.served
        );
    }

    #[test]
    fn reject_policy_refuses_an_infeasible_schedule() {
        // Losing both fast computers leaves 10 jobs/s against demand 28:
        // infeasible outright, so Reject must refuse the schedule (the
        // shed policies would thin the demand instead).
        let m = model();
        let phases = vec![
            ChurnPhase {
                duration: 100.0,
                capacity: vec![10.0, 20.0, 30.0],
            },
            ChurnPhase {
                duration: 100.0,
                capacity: vec![10.0, 0.0, 0.0],
            },
        ];
        let err = run_churn_replication(
            &m,
            &phases,
            OverloadPolicy::Reject,
            backoff(),
            10.0,
            3,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, GameError::Overloaded { .. }), "{err:?}");
    }

    #[test]
    fn feasible_churn_sheds_nothing() {
        // Light load: 6 jobs/s always fits, even on one computer.
        let m = SystemModel::new(vec![10.0, 20.0, 30.0], vec![4.0, 2.0]).unwrap();
        let r = run_churn_replication(
            &m,
            &crash_phases(),
            OverloadPolicy::ShedProportional { headroom: 0.8 },
            backoff(),
            100.0,
            3,
            None,
        )
        .unwrap();
        assert_eq!(r.shed, 0);
        assert_eq!(r.predicted_shed_fraction, 0.0);
    }

    #[test]
    fn rejects_bad_schedules() {
        let m = model();
        let policy = OverloadPolicy::ShedProportional { headroom: 0.8 };
        assert!(run_churn_replication(&m, &[], policy, backoff(), 0.0, 1, None).is_err());
        let phases = vec![ChurnPhase {
            duration: 10.0,
            capacity: vec![10.0, 20.0, 30.0],
        }];
        // Warmup past the horizon.
        assert!(run_churn_replication(&m, &phases, policy, backoff(), 10.0, 1, None).is_err());
        // Wrong capacity width.
        let bad = vec![ChurnPhase {
            duration: 10.0,
            capacity: vec![10.0],
        }];
        assert!(run_churn_replication(&m, &bad, policy, backoff(), 1.0, 1, None).is_err());
    }
}
