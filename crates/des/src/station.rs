//! An FCFS run-to-completion station — the paper's computer, and the
//! multicore extension's pool of `c` such servers.
//!
//! "Jobs which have been dispatched to a particular computer are
//! run-to-completion (i.e. no preemption) in FCFS order" (§4.1). The
//! station is a passive state machine driven by the event loop: `arrive`
//! may start service on an idle server, `complete` finishes the job whose
//! completion instant is now and promotes the head of the shared queue.
//! With one server (the paper's M/M/1 computer) that job is the lone one
//! in service; with `c` servers (an M/M/c pool) it is found by its stored
//! completion instant, equal instants resolving in start order, which is
//! the order the calendar delivers their completion events in. The
//! station also exposes its **run-queue length**, the observable the
//! paper's users sample to estimate available processing rates.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A job travelling through the simulated system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Sequence number, unique per run.
    pub id: u64,
    /// Index of the user that generated the job.
    pub user: usize,
    /// Time the job entered the system (dispatch moment).
    pub arrival: SimTime,
    /// Service demand at the station it was routed to, in seconds.
    pub service_time: f64,
}

/// Outcome of a job arrival at a station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// A server was idle; service starts now and will complete at the
    /// contained time (schedule a completion event for it).
    StartService(SimTime),
    /// Every server was busy; the job joined the queue.
    Queued,
}

/// A job on a server: when it started and when it will complete.
#[derive(Debug, Clone, Copy)]
struct Service {
    job: Job,
    start: SimTime,
    done_at: SimTime,
}

/// An FCFS station of `c` identical servers sharing one queue.
#[derive(Debug, Clone)]
pub struct FcfsStation {
    servers: usize,
    /// Jobs in service, in start order.
    in_service: Vec<Service>,
    queue: VecDeque<Job>,
    /// Server-time of finished (or preempted) services.
    busy_time: f64,
}

impl FcfsStation {
    /// Creates an idle, empty single-server station (clock origin at
    /// zero).
    pub fn new() -> Self {
        Self::with_servers(1)
    }

    /// Creates an idle, empty station of `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics for `servers == 0` (configuration error).
    pub fn with_servers(servers: u32) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        let servers = servers as usize;
        Self {
            servers,
            in_service: Vec::with_capacity(servers),
            queue: VecDeque::new(),
            busy_time: 0.0,
        }
    }

    /// Number of jobs present (in service + waiting) — the *run-queue
    /// length* users observe.
    pub fn run_queue_length(&self) -> usize {
        self.in_service.len() + self.queue.len()
    }

    /// Handles a job arrival at time `now`.
    ///
    /// Returns [`Arrival::StartService`] with the completion time when a
    /// server was idle (the caller must schedule the completion event),
    /// or [`Arrival::Queued`] when the job had to wait.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite service demand.
    #[inline]
    pub fn arrive(&mut self, job: Job, now: SimTime) -> Arrival {
        assert!(
            job.service_time.is_finite() && job.service_time >= 0.0,
            "invalid service time {}",
            job.service_time
        );
        if self.in_service.len() < self.servers {
            let done_at = now + job.service_time;
            self.in_service.push(Service {
                job,
                start: now,
                done_at,
            });
            Arrival::StartService(done_at)
        } else {
            self.queue.push_back(job);
            Arrival::Queued
        }
    }

    /// Completes the job whose service ends at `now`: the lone job in
    /// service, or else the earliest-started one completing at `now`.
    ///
    /// Returns the finished job and, if the queue was non-empty, the next
    /// job together with *its* completion time (the caller schedules it).
    ///
    /// # Panics
    ///
    /// Panics if no server was busy, or if several were and none of their
    /// jobs completes at `now` — a completion event without its job means
    /// the event wiring is broken.
    #[inline]
    pub fn complete(&mut self, now: SimTime) -> (Job, Option<(Job, SimTime)>) {
        let Service { job, start, .. } = match self.in_service.len() {
            0 => panic!("completion event fired on an idle station"),
            1 => self.in_service.pop(),
            _ => self
                .in_service
                .iter()
                .position(|s| s.done_at == now)
                .map(|i| self.in_service.remove(i)),
        }
        .expect("completion event fired with no job completing at its instant");
        self.busy_time += now.since(start);
        let next = self.queue.pop_front().map(|next| {
            let done_at = now + next.service_time;
            self.in_service.push(Service {
                job: next,
                start: now,
                done_at,
            });
            (next, done_at)
        });
        (job, next)
    }

    /// Crashes the station at time `now`: every job in service is
    /// preempted and every queued job stranded. All of them are returned
    /// (preempted jobs first, in start order, then the queue in FCFS
    /// order) so the caller can retry them elsewhere or count them lost.
    ///
    /// A completion event the caller scheduled for a preempted job stays
    /// in its calendar, so the caller must skip it when it pops (churn
    /// stamps each completion with its computer's generation).
    /// After `fail` the station is idle and empty, ready to accept
    /// arrivals again once the model declares it repaired.
    pub fn fail(&mut self, now: SimTime) -> Vec<Job> {
        let mut stranded = Vec::with_capacity(self.run_queue_length());
        for s in self.in_service.drain(..) {
            // The aborted partial service still occupied its server.
            self.busy_time += now.since(s.start);
            stranded.push(s.job);
        }
        stranded.extend(self.queue.drain(..));
        stranded
    }

    /// Fraction of server-time busy up to `now` (utilization estimate):
    /// busy server-seconds over `c·now`. Counts in-progress services up
    /// to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let t = now.as_secs();
        if t == 0.0 {
            return 0.0;
        }
        let in_progress: f64 = self.in_service.iter().map(|s| now.since(s.start)).sum();
        (self.busy_time + in_progress) / (self.servers as f64 * t)
    }
}

impl Default for FcfsStation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, arrival: f64, service: f64) -> Job {
        Job {
            id,
            user: 0,
            arrival: SimTime::new(arrival),
            service_time: service,
        }
    }

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn idle_arrival_starts_service() {
        let mut st = FcfsStation::new();
        assert_eq!(st.run_queue_length(), 0);
        let a = st.arrive(job(1, 0.0, 2.0), t(0.0));
        assert_eq!(a, Arrival::StartService(t(2.0)));
        assert_eq!(st.run_queue_length(), 1);
    }

    #[test]
    fn busy_arrival_queues_fifo() {
        let mut st = FcfsStation::new();
        st.arrive(job(1, 0.0, 5.0), t(0.0));
        assert_eq!(st.arrive(job(2, 1.0, 1.0), t(1.0)), Arrival::Queued);
        assert_eq!(st.arrive(job(3, 2.0, 1.0), t(2.0)), Arrival::Queued);
        assert_eq!(st.run_queue_length(), 3);

        let (done, next) = st.complete(t(5.0));
        assert_eq!(done.id, 1);
        let (next_job, next_done) = next.unwrap();
        assert_eq!(next_job.id, 2, "FCFS promotes in arrival order");
        assert_eq!(next_done, t(6.0));

        let (done, next) = st.complete(t(6.0));
        assert_eq!(done.id, 2);
        assert_eq!(next.unwrap().0.id, 3);

        let (done, next) = st.complete(t(7.0));
        assert_eq!(done.id, 3);
        assert!(next.is_none());
        assert_eq!(st.run_queue_length(), 0);
    }

    #[test]
    #[should_panic(expected = "idle station")]
    fn completing_idle_station_panics() {
        FcfsStation::new().complete(t(1.0));
    }

    #[test]
    #[should_panic(expected = "invalid service time")]
    fn rejects_nan_service() {
        FcfsStation::new().arrive(job(1, 0.0, f64::NAN), t(0.0));
    }

    #[test]
    fn zero_service_job_completes_instantly() {
        let mut st = FcfsStation::new();
        let a = st.arrive(job(1, 0.0, 0.0), t(0.0));
        assert_eq!(a, Arrival::StartService(t(0.0)));
        let (done, next) = st.complete(t(0.0));
        assert_eq!(done.id, 1);
        assert!(next.is_none());
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut st = FcfsStation::new();
        st.arrive(job(1, 0.0, 2.0), t(0.0));
        st.complete(t(2.0));
        // Busy [0,2], idle [2,4].
        assert!((st.utilization(t(4.0)) - 0.5).abs() < 1e-12);
        // In-progress service counts.
        st.arrive(job(2, 4.0, 10.0), t(4.0));
        assert!((st.utilization(t(8.0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn fail_returns_preempted_and_stranded_jobs_in_order() {
        let mut st = FcfsStation::new();
        st.arrive(job(1, 0.0, 5.0), t(0.0));
        st.arrive(job(2, 1.0, 1.0), t(1.0));
        st.arrive(job(3, 2.0, 1.0), t(2.0));
        let stranded = st.fail(t(3.0));
        assert_eq!(
            stranded.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(st.run_queue_length(), 0);
        // The aborted partial service [0,3) still counts as busy time.
        assert!((st.utilization(t(6.0)) - 0.5).abs() < 1e-12);
        // The station accepts work again after repair.
        assert_eq!(
            st.arrive(job(4, 6.0, 1.0), t(6.0)),
            Arrival::StartService(t(7.0))
        );
    }

    #[test]
    fn failing_an_idle_station_is_a_no_op() {
        let mut st = FcfsStation::new();
        assert!(st.fail(t(1.0)).is_empty());
        assert_eq!(st.run_queue_length(), 0);
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let st = FcfsStation::new();
        assert_eq!(st.utilization(t(0.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = FcfsStation::with_servers(0);
    }

    #[test]
    fn fills_servers_before_queueing() {
        let mut st = FcfsStation::with_servers(2);
        assert_eq!(
            st.arrive(job(1, 0.0, 5.0), t(0.0)),
            Arrival::StartService(t(5.0))
        );
        assert_eq!(
            st.arrive(job(2, 1.0, 5.0), t(1.0)),
            Arrival::StartService(t(6.0))
        );
        assert_eq!(st.arrive(job(3, 2.0, 1.0), t(2.0)), Arrival::Queued);
        assert_eq!(st.run_queue_length(), 3);
    }

    #[test]
    fn completion_promotes_fifo() {
        let mut st = FcfsStation::with_servers(2);
        st.arrive(job(1, 0.0, 5.0), t(0.0));
        st.arrive(job(2, 0.0, 2.0), t(0.0));
        st.arrive(job(3, 0.0, 1.0), t(0.0));
        st.arrive(job(4, 0.0, 1.0), t(0.0));
        // Job 2 finishes first (at t=2); job 3 promoted, done at 3.
        let (done, next) = st.complete(t(2.0));
        assert_eq!(done.id, 2);
        let (promoted, done_at) = next.unwrap();
        assert_eq!(promoted.id, 3);
        assert_eq!(done_at, t(3.0));
        // Job 3 finishes; job 4 promoted.
        let (done, next) = st.complete(t(3.0));
        assert_eq!(done.id, 3);
        assert_eq!(next.unwrap().0.id, 4);
        // Remaining completions drain the pool, each found by its instant.
        assert_eq!(st.complete(t(4.0)).0.id, 4);
        let (done, next) = st.complete(t(5.0));
        assert_eq!(done.id, 1);
        assert!(next.is_none());
    }

    #[test]
    #[should_panic(expected = "no job completing")]
    fn completing_at_an_instant_no_job_finishes_panics() {
        let mut st = FcfsStation::with_servers(2);
        st.arrive(job(1, 0.0, 1.0), t(0.0));
        st.arrive(job(2, 0.0, 2.0), t(0.0));
        st.complete(t(1.5));
    }

    #[test]
    fn simultaneous_completions_finish_in_start_order() {
        let mut st = FcfsStation::with_servers(2);
        st.arrive(job(1, 0.0, 4.0), t(0.0));
        st.arrive(job(2, 0.0, 1.0), t(0.0));
        st.arrive(job(3, 0.0, 3.0), t(0.0));
        // Job 2 leaves at 1; job 3 starts then and also completes at 4.
        assert_eq!(st.complete(t(1.0)).0.id, 2);
        assert_eq!(st.complete(t(4.0)).0.id, 1, "started first");
        assert_eq!(st.complete(t(4.0)).0.id, 3);
        assert_eq!(st.run_queue_length(), 0);
    }

    #[test]
    fn utilization_is_busy_server_time_over_c_t() {
        let mut st = FcfsStation::with_servers(2);
        st.arrive(job(1, 0.0, 2.0), t(0.0));
        st.arrive(job(2, 0.0, 4.0), t(0.0));
        st.complete(t(2.0));
        // 2 finished server-seconds + 4 in progress over 2 servers x 4 s.
        assert!((st.utilization(t(4.0)) - 0.75).abs() < 1e-12);
        st.complete(t(4.0));
        assert!((st.utilization(t(8.0)) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn fail_returns_every_in_service_job_in_start_order_then_the_queue() {
        let mut st = FcfsStation::with_servers(2);
        st.arrive(job(1, 0.0, 5.0), t(0.0));
        st.arrive(job(2, 1.0, 5.0), t(1.0));
        st.arrive(job(3, 2.0, 1.0), t(2.0));
        st.arrive(job(4, 3.0, 1.0), t(3.0));
        let stranded = st.fail(t(4.0));
        assert_eq!(
            stranded.iter().map(|j| j.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        assert_eq!(st.run_queue_length(), 0);
        // Both aborted services count: (4 + 3) server-seconds over 2 x 4.
        assert!((st.utilization(t(4.0)) - 0.875).abs() < 1e-12);
    }

    /// End-to-end M/M/c validation: simulate a pool with the engine and
    /// compare the measured mean response with Erlang-C.
    #[test]
    fn simulated_pool_matches_erlang_c() {
        use crate::engine::Engine;
        use crate::monitor::ResponseTimeMonitor;
        use crate::rng::RngStream;

        #[derive(Clone, Copy)]
        enum Ev {
            Arrive,
            Done,
        }

        let (lambda, mu, c) = (3.2, 1.0, 4u32);
        let horizon = 40_000.0;
        let mut eng: Engine<Ev> = Engine::new();
        eng.set_horizon(SimTime::new(horizon));
        let mut arrivals = RngStream::new(77, 0);
        let mut services = RngStream::new(77, 1);
        let mut pool = FcfsStation::with_servers(c);
        let mut monitor = ResponseTimeMonitor::new(1, SimTime::new(horizon * 0.1));
        let mut next_id = 0u64;

        eng.schedule_in(arrivals.exponential(lambda), Ev::Arrive);
        while let Some(ev) = eng.next_event() {
            match ev {
                Ev::Arrive => {
                    eng.schedule_in(arrivals.exponential(lambda), Ev::Arrive);
                    next_id += 1;
                    let j = Job {
                        id: next_id,
                        user: 0,
                        arrival: eng.now(),
                        service_time: services.exponential(mu),
                    };
                    if let Arrival::StartService(at) = pool.arrive(j, eng.now()) {
                        eng.schedule_at(at, Ev::Done);
                    }
                }
                Ev::Done => {
                    let (done, next) = pool.complete(eng.now());
                    monitor.record(0, done.arrival, eng.now());
                    if let Some((_, at)) = next {
                        eng.schedule_at(at, Ev::Done);
                    }
                }
            }
        }
        let theory = erlang_c_response_time(lambda, mu, c);
        let measured = monitor.system_mean();
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "measured {measured} vs Erlang-C {theory} (rel {rel:.3})"
        );
    }

    /// Minimal local Erlang-C mean response time (duplicated to avoid a
    /// dev-dependency on lb-queueing from lb-des).
    fn erlang_c_response_time(lambda: f64, mu: f64, c: u32) -> f64 {
        let a = lambda / mu;
        let mut bl = 1.0;
        for k in 1..=c {
            bl = a * bl / (f64::from(k) + a * bl);
        }
        let rho = lambda / (mu * f64::from(c));
        let pc = bl / (1.0 - rho * (1.0 - bl));
        1.0 / mu + pc / (mu * f64::from(c) - lambda)
    }
}
