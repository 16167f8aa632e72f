//! Per-station sharding: one FCFS station simulated by the Lindley
//! recursion.
//!
//! In the paper's model, stations stop interacting the moment the flow
//! split is fixed: user `j` routes a Poisson stream of rate `φ_j` across
//! the computers with probabilities `s_ji`, and by Poisson splitting and
//! superposition each station `i` then receives an *independent* Poisson
//! stream of rate `λ_i = Σ_j s_ji φ_j`. Nothing a station does can ever
//! influence another station's event order, so a replication does not need
//! one big serial calendar — each station can run on its own
//! [`RngStream`]s, embarrassingly parallel, and the per-station
//! measurements merge deterministically in station-index order.
//!
//! [`run_station_shard`] is that per-station simulator. A single FCFS
//! server fed by a time-ordered arrival stream needs no event calendar:
//! job `k` starts at `max(a_k, d_{k-1})` and departs at that start plus
//! its service demand (the Lindley recursion). The shard generates the
//! arrival process in vectorized blocks (one
//! [`RngStream::fill_exponential`] call per block), attributes each
//! arrival to a user with an O(1) Walker [`AliasTable`] draw, walks the
//! block in arrival order to the horizon, and returns warmup-aware
//! per-user statistics. Its results, draw counts and `account.des`
//! totals are bit-identical to driving the same streams through an
//! [`Engine`](crate::engine::Engine) with an
//! [`FcfsStation`](crate::station::FcfsStation); the test module keeps
//! that event-driven loop as its reference.
//!
//! The splitting argument is exact only for Poisson (exponential
//! interarrival) user sources; the `lb-sim` crate routes non-Poisson
//! arrival models to the classic single-calendar engine instead.

use crate::monitor::ResponseTimeMonitor;
use crate::rng::{AliasTable, Distribution, RngStream, SampleBlock};
use crate::time::SimTime;
use lb_telemetry::{Collector, SpanHandle};
use std::sync::Arc;

/// Default number of arrivals generated per batch block.
pub const DEFAULT_SHARD_BATCH: usize = 1024;

/// Static description of one station shard.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Total Poisson arrival rate at this station, `λ_i = Σ_j s_ji φ_j`.
    pub arrival_rate: f64,
    /// Service-time distribution at this station.
    pub service: Distribution,
    /// Run horizon: arrivals and completions after this time are never
    /// delivered.
    pub horizon: SimTime,
    /// Warmup cutoff: jobs arriving before it are simulated but not
    /// measured.
    pub warmup: SimTime,
    /// Number of users (width of the per-user statistics).
    pub users: usize,
    /// Arrivals generated per block (see [`DEFAULT_SHARD_BATCH`]).
    pub batch: usize,
}

/// Everything one station shard measures.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Warmup-aware per-user and system response-time statistics for jobs
    /// served at this station.
    pub monitor: ResponseTimeMonitor,
    /// Arrivals delivered within the horizon (including warmup jobs).
    pub jobs_generated: u64,
    /// Fraction of `[0, horizon]` the server was busy.
    pub utilization: f64,
}

/// Draws one arrival block: a vectorized exponential fill of the gaps,
/// accumulated into absolute arrival times after `from`. Returns the
/// block's last arrival.
fn draw_block(
    rng: &mut RngStream,
    rate: f64,
    gaps: &mut [f64],
    arrivals: &mut [SimTime],
    from: SimTime,
) -> SimTime {
    rng.fill_exponential(rate, gaps);
    let mut t = from;
    for (slot, dt) in arrivals.iter_mut().zip(gaps.iter()) {
        t = t + *dt;
        *slot = t;
    }
    t
}

/// Runs one station's independent arrival stream to the horizon.
///
/// `attribution` maps each served job back to the user that generated it
/// (weights `s_ji φ_j` over users), so per-user response statistics
/// survive the sharding. The three streams must be exclusive to this
/// shard; the caller keys them by `(replication, station)` so the shard's
/// results depend only on its own streams — which is what makes the
/// station-index-order merge bit-identical at any thread count.
///
/// `sink` observes every *measured* (post-warmup) response as
/// `(user, response_seconds)` in this station's completion order.
///
/// Event semantics match a calendar-driven run with the horizon as its
/// delivery bound: every arrival at or before the horizon draws its user
/// and service demand, and a job is measured only if it departs at or
/// before the horizon. The `account.des` snapshot counts the logical
/// events such a run would schedule (each arrival block, plus one
/// departure per job whose service starts by the horizon) and execute
/// (arrivals and departures by the horizon).
///
/// # Panics
///
/// Panics on a non-positive arrival rate, an attribution table whose
/// width disagrees with `spec.users`, a zero batch size, or a negative
/// or non-finite service demand.
#[allow(clippy::too_many_arguments)]
pub fn run_station_shard<F: FnMut(usize, f64)>(
    spec: &ShardSpec,
    attribution: &AliasTable,
    arrival_rng: &mut RngStream,
    service_rng: &mut RngStream,
    attribution_rng: &mut RngStream,
    collector: Option<&Arc<dyn Collector>>,
    span_parent: Option<&SpanHandle>,
    mut sink: F,
) -> ShardOutcome {
    assert!(
        spec.arrival_rate.is_finite() && spec.arrival_rate > 0.0,
        "shard arrival rate must be positive, got {}",
        spec.arrival_rate
    );
    assert_eq!(
        attribution.len(),
        spec.users,
        "attribution table width disagrees with the user count"
    );
    assert!(spec.batch > 0, "shard batch must be non-empty");

    let shard_span = span_parent.map(|p| {
        p.child(
            "des.shard",
            &[
                ("rate", spec.arrival_rate.into()),
                ("horizon", spec.horizon.as_secs().into()),
            ],
        )
    });

    let horizon = spec.horizon;
    let mut monitor = ResponseTimeMonitor::new(spec.users, spec.warmup);
    let mut service = SampleBlock::new(spec.service, spec.batch);
    let mut gaps = vec![0.0; spec.batch];
    let mut arrivals = vec![SimTime::ZERO; spec.batch];

    let mut jobs: u64 = 0;
    let mut departed: u64 = 0;
    // Events a calendar would hold: every drawn arrival, plus the
    // departure of each job whose service starts by the horizon.
    let mut scheduled: u64 = 0;
    // Departure of the previous job: the server is free from then on.
    let mut free_at = SimTime::ZERO;
    // Busy time summed per completed job, in completion order, plus the
    // start of the one job still in service at the horizon — the same
    // sums, in the same order, as `FcfsStation::utilization`.
    let mut busy = 0.0;
    let mut in_service: Option<SimTime> = None;
    let mut block_end = SimTime::ZERO;

    // The next block is drawn only once the previous block's last
    // arrival fell within the horizon.
    'blocks: loop {
        block_end = draw_block(
            arrival_rng,
            spec.arrival_rate,
            &mut gaps,
            &mut arrivals,
            block_end,
        );
        scheduled += spec.batch as u64;
        for &arrival in &arrivals {
            if arrival > horizon {
                break 'blocks;
            }
            jobs += 1;
            let user = attribution.sample(attribution_rng);
            let demand = service.next(service_rng);
            assert!(
                demand.is_finite() && demand >= 0.0,
                "invalid service time {demand}"
            );
            // Branch-free: which instant is later is a coin flip at
            // moderate load.
            let start = SimTime::new(arrival.as_secs().max(free_at.as_secs()));
            if start > horizon {
                // The server is busy past the horizon: this job only waits.
                continue;
            }
            scheduled += 1;
            let done = start + demand;
            free_at = done;
            if done > horizon {
                in_service = Some(start);
                continue;
            }
            departed += 1;
            busy += done.since(start);
            // The alias table draws users in range and the job departs
            // at or after its arrival, so only the warmup needs a test.
            if arrival >= spec.warmup {
                let response = done - arrival;
                monitor.push(user, response);
                sink(user, response);
            }
        }
    }

    let utilization = if horizon.as_secs() == 0.0 {
        0.0
    } else {
        (busy + in_service.map_or(0.0, |start| horizon.since(start))) / horizon.as_secs()
    };
    // Resource-accounting snapshot: one `account.des` event per shard,
    // emitted inside the shard span so diff/analyze can attribute it.
    if let Some(c) = collector.and_then(|c| lb_telemetry::enabled(Some(c))) {
        c.emit(
            "account.des",
            &[
                ("scheduled", scheduled.into()),
                ("executed", (jobs + departed).into()),
                (
                    "rng_draws",
                    (arrival_rng.draws() + service_rng.draws() + attribution_rng.draws()).into(),
                ),
            ],
        );
    }
    if let Some(span) = shard_span {
        span.close_with(&[
            ("jobs", jobs.into()),
            ("measured", monitor.total_count().into()),
            ("util", utilization.into()),
        ]);
    }
    ShardOutcome {
        monitor,
        jobs_generated: jobs,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::station::{Arrival, FcfsStation, Job};
    use lb_telemetry::{MemoryCollector, Span};
    use proptest::prelude::*;

    fn spec(rate: f64, horizon: f64) -> ShardSpec {
        ShardSpec {
            arrival_rate: rate,
            service: Distribution::Exponential { rate: 10.0 },
            horizon: SimTime::new(horizon),
            warmup: SimTime::new(horizon * 0.1),
            users: 3,
            batch: DEFAULT_SHARD_BATCH,
        }
    }

    fn run(spec: &ShardSpec, seed: u64, sink: &mut Vec<(usize, f64)>) -> ShardOutcome {
        let attribution = AliasTable::new(&[0.5, 0.3, 0.2]);
        let mut arr = RngStream::new(seed, 0);
        let mut svc = RngStream::new(seed, 1);
        let mut att = RngStream::new(seed, 2);
        run_station_shard(
            spec,
            &attribution,
            &mut arr,
            &mut svc,
            &mut att,
            None,
            None,
            |u, r| sink.push((u, r)),
        )
    }

    /// The `scheduled`, `executed` and `rng_draws` fields of the one
    /// `account.des` snapshot a collector saw.
    fn account_des(mem: &MemoryCollector) -> [u64; 3] {
        let (_, fields) = mem
            .events()
            .into_iter()
            .find(|(name, _)| *name == "account.des")
            .expect("one account.des snapshot");
        ["scheduled", "executed", "rng_draws"].map(|key| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    lb_telemetry::FieldValue::U64(n) => Some(*n),
                    _ => None,
                })
                .expect("integer account field")
        })
    }

    /// Arrival payload of the reference engine: user and service demand
    /// are drawn at delivery, as the shard draws them.
    enum ShardEvent {
        Arrive,
        Complete,
    }

    /// The event-driven reference: the same streams driven through an
    /// [`Engine`] calendar and an [`FcfsStation`], arrivals scheduled in
    /// blocks as each block's last arrival is delivered. Returns the
    /// outcome, the sink's responses and the engine's scheduled and
    /// executed event counts.
    fn reference_shard(
        spec: &ShardSpec,
        attribution: &AliasTable,
        arrival_rng: &mut RngStream,
        service_rng: &mut RngStream,
        attribution_rng: &mut RngStream,
    ) -> (ShardOutcome, Vec<(usize, f64)>, u64, u64) {
        let schedule_block = |engine: &mut Engine<ShardEvent>,
                              rng: &mut RngStream,
                              buf: &mut [f64],
                              from: SimTime| {
            rng.fill_exponential(spec.arrival_rate, buf);
            let mut t = from;
            for dt in buf.iter() {
                t = t + *dt;
                engine.schedule_at(t, ShardEvent::Arrive);
            }
            t
        };
        let mut engine: Engine<ShardEvent> = Engine::new();
        engine.set_horizon(spec.horizon);
        let mut station = FcfsStation::new();
        let mut monitor = ResponseTimeMonitor::new(spec.users, spec.warmup);
        let mut service = SampleBlock::new(spec.service, spec.batch);
        let mut interarrivals = vec![0.0; spec.batch];
        let mut sink = Vec::new();
        let mut block_end =
            schedule_block(&mut engine, arrival_rng, &mut interarrivals, SimTime::ZERO);
        let mut outstanding = interarrivals.len();
        let mut jobs: u64 = 0;
        while let Some(ev) = engine.next_event() {
            match ev {
                ShardEvent::Arrive => {
                    outstanding -= 1;
                    if outstanding == 0 && block_end <= spec.horizon {
                        block_end =
                            schedule_block(&mut engine, arrival_rng, &mut interarrivals, block_end);
                        outstanding = interarrivals.len();
                    }
                    jobs += 1;
                    let now = engine.now();
                    let job = Job {
                        id: jobs,
                        user: attribution.sample(attribution_rng),
                        arrival: now,
                        service_time: service.next(service_rng),
                    };
                    if let Arrival::StartService(done) = station.arrive(job, now) {
                        engine.schedule_at(done, ShardEvent::Complete);
                    }
                }
                ShardEvent::Complete => {
                    let now = engine.now();
                    let (finished, next) = station.complete(now);
                    monitor.record(finished.user, finished.arrival, now);
                    if finished.arrival >= spec.warmup {
                        sink.push((finished.user, now - finished.arrival));
                    }
                    if let Some((_, done)) = next {
                        engine.schedule_at(done, ShardEvent::Complete);
                    }
                }
            }
        }
        let outcome = ShardOutcome {
            monitor,
            jobs_generated: jobs,
            utilization: station.utilization(spec.horizon),
        };
        (
            outcome,
            sink,
            engine.events_scheduled(),
            engine.events_processed(),
        )
    }

    /// Service distributions with mean `1/mu`: exponential, Erlang-k,
    /// a balanced-means hyperexponential with the given phase-A share,
    /// and deterministic.
    fn service_with_mean(kind: u32, mu: f64, k: u32, p: f64) -> Distribution {
        match kind {
            0 => Distribution::Exponential { rate: mu },
            1 => Distribution::Erlang {
                k,
                rate: f64::from(k) * mu,
            },
            2 => Distribution::HyperExponential {
                p,
                rate_a: 2.0 * p * mu,
                rate_b: 2.0 * (1.0 - p) * mu,
            },
            _ => Distribution::Deterministic { value: 1.0 / mu },
        }
    }

    /// Runs the kernel and the event-driven reference on the same
    /// streams and requires bitwise agreement on every output, every
    /// stream's draw count and the `account.des` snapshot. Returns the
    /// kernel's outcome.
    fn check_against_reference(
        spec: &ShardSpec,
        weights: &[f64],
        seed: u64,
    ) -> Result<ShardOutcome, String> {
        let attribution = AliasTable::new(weights);
        let streams = || {
            (
                RngStream::new(seed, 0),
                RngStream::new(seed, 1),
                RngStream::new(seed, 2),
            )
        };

        let (mut a, mut s, mut u) = streams();
        let (want, want_sink, scheduled, executed) =
            reference_shard(spec, &attribution, &mut a, &mut s, &mut u);
        let want_draws = [a.draws(), s.draws(), u.draws()];

        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let (mut a, mut s, mut u) = streams();
        let mut got_sink = Vec::new();
        let got = run_station_shard(
            spec,
            &attribution,
            &mut a,
            &mut s,
            &mut u,
            Some(&collector),
            None,
            |user, r| got_sink.push((user, r)),
        );

        prop_assert_eq!(got.jobs_generated, want.jobs_generated);
        prop_assert_eq!(got.utilization.to_bits(), want.utilization.to_bits());
        let mean_bits = |m: &ResponseTimeMonitor| -> Vec<u64> {
            m.user_means().iter().map(|x| x.to_bits()).collect()
        };
        for user in 0..spec.users {
            prop_assert_eq!(got.monitor.count(user), want.monitor.count(user));
        }
        prop_assert_eq!(mean_bits(&got.monitor), mean_bits(&want.monitor));
        prop_assert_eq!(
            got.monitor.system_mean().to_bits(),
            want.monitor.system_mean().to_bits()
        );
        let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
            v.iter().map(|&(user, r)| (user, r.to_bits())).collect()
        };
        prop_assert_eq!(bits(&got_sink), bits(&want_sink));
        prop_assert_eq!([a.draws(), s.draws(), u.draws()], want_draws);
        prop_assert_eq!(
            account_des(&mem),
            [scheduled, executed, want_draws.iter().sum::<u64>()]
        );
        Ok(got)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn lindley_kernel_matches_the_event_driven_reference(
            seed in 0u64..u64::MAX,
            rho in 0.05f64..0.95,
            mu in 0.5f64..20.0,
            (kind, k, p) in (0u32..4, 1u32..6, 0.05f64..0.95),
            horizon_jobs in prop_oneof![0.0f64..2.0, 2.0f64..200.0, 200.0f64..3_000.0],
            warmup_share in prop_oneof![Just(0.0), 0.0f64..0.5],
            batch in prop_oneof![Just(1usize), Just(7usize), Just(1024usize)],
            weights in prop::collection::vec(0.05f64..1.0, 1..5),
        ) {
            let arrival_rate = rho * mu;
            let horizon = horizon_jobs / arrival_rate;
            let spec = ShardSpec {
                arrival_rate,
                service: service_with_mean(kind, mu, k, p),
                horizon: SimTime::new(horizon),
                warmup: SimTime::new(horizon * warmup_share),
                users: weights.len(),
                batch,
            };
            check_against_reference(&spec, &weights, seed)?;
        }
    }

    #[test]
    fn arrivals_and_departures_exactly_at_the_horizon_are_delivered() {
        // A deterministic demand puts the first departure at a known
        // time: the arrival stream's first gap plus the demand. Random
        // horizons never land on an event, so pin one on each edge.
        let seed = 5;
        let demand = 0.25;
        let first = SimTime::ZERO + RngStream::new(seed, 0).exponential(2.0);
        for (horizon, measured) in [(first, 0), (first + demand, 1)] {
            let spec = ShardSpec {
                arrival_rate: 2.0,
                service: Distribution::Deterministic { value: demand },
                horizon,
                warmup: SimTime::ZERO,
                users: 1,
                batch: 7,
            };
            let out = check_against_reference(&spec, &[1.0], seed).unwrap();
            assert!(out.jobs_generated >= 1, "arrival at the horizon dropped");
            assert_eq!(out.monitor.count(0), measured, "horizon {horizon}");
        }
    }

    #[test]
    fn shard_is_deterministic_per_seed_and_batch_invariant() {
        let base = spec(6.0, 2_000.0);
        let mut sink_a = Vec::new();
        let a = run(&base, 42, &mut sink_a);
        let mut sink_b = Vec::new();
        let b = run(&base, 42, &mut sink_b);
        assert_eq!(a.jobs_generated, b.jobs_generated);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        assert_eq!(
            a.monitor.user_means(),
            b.monitor.user_means(),
            "same seed must reproduce bitwise"
        );
        assert_eq!(sink_a, sink_b);

        let mut c_spec = base.clone();
        c_spec.batch = 7; // pathological block size: same event stream
        let mut sink_c = Vec::new();
        let c = run(&c_spec, 42, &mut sink_c);
        assert_eq!(a.jobs_generated, c.jobs_generated);
        assert_eq!(sink_a, sink_c, "batch size must not change the stream");
        assert_eq!(
            a.monitor.system_mean().to_bits(),
            c.monitor.system_mean().to_bits()
        );
    }

    #[test]
    fn shard_matches_mm1_theory() {
        // λ=6, μ=10 ⇒ E[T] = 1/(μ−λ) = 0.25, ρ = 0.6.
        let s = spec(6.0, 50_000.0);
        let mut sink = Vec::new();
        let out = run(&s, 7, &mut sink);
        let t = out.monitor.system_mean();
        assert!((t - 0.25).abs() < 0.02, "E[T] {t} vs 0.25");
        assert!(
            (out.utilization - 0.6).abs() < 0.02,
            "ρ {}",
            out.utilization
        );
        // ~λ·horizon arrivals.
        let expected = 6.0 * 50_000.0;
        assert!((out.jobs_generated as f64 - expected).abs() < 0.02 * expected);
        // Attribution tracks the weights.
        let counts: Vec<u64> = (0..3).map(|u| out.monitor.count(u)).collect();
        let total: u64 = counts.iter().sum();
        for (c, w) in counts.iter().zip([0.5, 0.3, 0.2]) {
            let freq = *c as f64 / total as f64;
            assert!((freq - w).abs() < 0.01, "freq {freq} vs {w}");
        }
        // Sink saw exactly the measured jobs, in completion order.
        assert_eq!(sink.len() as u64, out.monitor.total_count());
    }

    #[test]
    #[should_panic(expected = "invalid service time")]
    fn negative_service_demand_panics() {
        let mut s = spec(6.0, 100.0);
        s.service = Distribution::Deterministic { value: -1.0 };
        run(&s, 1, &mut Vec::new());
    }

    #[test]
    fn sampling_collector_does_not_perturb_the_shard() {
        use lb_telemetry::{SamplingCollector, SamplingConfig};
        let s = spec(4.0, 1_000.0);
        let mut plain_sink = Vec::new();
        let plain = run(&s, 9, &mut plain_sink);

        // Heavy head sampling on the way out; the simulation itself
        // must stay bit-identical because the sampler only filters the
        // event stream after the fact.
        let mem = Arc::new(MemoryCollector::default());
        let sampler: Arc<dyn Collector> = Arc::new(SamplingCollector::new(
            mem.clone(),
            SamplingConfig::new(0xD15C, 1.0 / 32.0),
        ));
        let root = Span::root(Some(&sampler), "test.root", &[]).unwrap();
        let attribution = AliasTable::new(&[0.5, 0.3, 0.2]);
        let mut arr = RngStream::new(9, 0);
        let mut svc = RngStream::new(9, 1);
        let mut att = RngStream::new(9, 2);
        let mut traced_sink = Vec::new();
        let traced = run_station_shard(
            &s,
            &attribution,
            &mut arr,
            &mut svc,
            &mut att,
            Some(&sampler),
            Some(&root.handle()),
            |u, r| traced_sink.push((u, r)),
        );
        root.close();
        sampler.flush();
        assert_eq!(plain.jobs_generated, traced.jobs_generated);
        assert_eq!(
            plain.monitor.system_mean().to_bits(),
            traced.monitor.system_mean().to_bits()
        );
        assert_eq!(plain_sink, traced_sink);
        // Accounting snapshots are always-keep, so the log still
        // carries the resource totals even at 1/32 sampling.
        assert_eq!(mem.count("account.des"), 1);
    }

    #[test]
    fn tracing_does_not_perturb_the_shard() {
        let s = spec(4.0, 1_000.0);
        let mut plain_sink = Vec::new();
        let plain = run(&s, 9, &mut plain_sink);

        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let root = Span::root(Some(&collector), "test.root", &[]).unwrap();
        let attribution = AliasTable::new(&[0.5, 0.3, 0.2]);
        let mut arr = RngStream::new(9, 0);
        let mut svc = RngStream::new(9, 1);
        let mut att = RngStream::new(9, 2);
        let mut traced_sink = Vec::new();
        let traced = run_station_shard(
            &s,
            &attribution,
            &mut arr,
            &mut svc,
            &mut att,
            Some(&collector),
            Some(&root.handle()),
            |u, r| traced_sink.push((u, r)),
        );
        root.close();
        assert_eq!(plain.jobs_generated, traced.jobs_generated);
        assert_eq!(
            plain.monitor.system_mean().to_bits(),
            traced.monitor.system_mean().to_bits()
        );
        assert_eq!(plain_sink, traced_sink);
        // The span stream holds the test root and the shard span, both
        // closed; the arrival blocks open no spans of their own.
        let opened: Vec<String> = mem
            .events()
            .iter()
            .filter(|(n, _)| *n == lb_telemetry::SPAN_OPEN)
            .map(
                |(_, fields)| match &fields.iter().find(|(k, _)| *k == "name").unwrap().1 {
                    lb_telemetry::FieldValue::Str(s) => s.to_string(),
                    other => panic!("name was {other:?}"),
                },
            )
            .collect();
        assert_eq!(opened, ["test.root", "des.shard"]);
        assert_eq!(mem.count(lb_telemetry::SPAN_CLOSE), 2);
        // Exactly one resource-accounting snapshot, with sane totals:
        // every delivered event was scheduled first, and the three RNG
        // streams drew at least once per generated job.
        assert_eq!(mem.count("account.des"), 1);
        let [scheduled, executed, rng_draws] = account_des(&mem);
        assert!(scheduled >= executed);
        assert!(executed >= traced.jobs_generated);
        assert!(rng_draws >= 2 * traced.jobs_generated);
    }
}
