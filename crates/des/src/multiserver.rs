//! A multi-server FCFS station (M/M/c pool) — the multicore-extension
//! counterpart of [`crate::station::FcfsStation`].
//!
//! `c` identical servers share a single FCFS queue: an arriving job takes
//! any idle server, otherwise waits; on completion the head of the queue
//! is promoted. With `c = 1` the behaviour coincides with the
//! single-server station (verified by tests).

use crate::station::Job;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Outcome of a job arrival at a multi-server station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolArrival {
    /// An idle server starts the job; completion at the contained time.
    StartService(SimTime),
    /// All servers busy; the job queued.
    Queued,
}

/// A `c`-server FCFS station with one shared queue.
#[derive(Debug, Clone)]
pub struct MultiServerStation {
    servers: u32,
    busy: u32,
    queue: VecDeque<Job>,
    in_service: Vec<Job>,
    completed: u64,
}

impl MultiServerStation {
    /// Creates an idle pool of `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics for `servers == 0` (configuration error).
    pub fn new(servers: u32) -> Self {
        assert!(servers > 0, "a pool needs at least one server");
        Self {
            servers,
            busy: 0,
            queue: VecDeque::new(),
            in_service: Vec::with_capacity(servers as usize),
            completed: 0,
        }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Handles an arrival at `now`.
    ///
    /// # Panics
    ///
    /// Panics on a negative/non-finite service demand.
    pub fn arrive(&mut self, job: Job, now: SimTime) -> PoolArrival {
        assert!(
            job.service_time.is_finite() && job.service_time >= 0.0,
            "invalid service time {}",
            job.service_time
        );
        if self.busy < self.servers {
            self.busy += 1;
            self.in_service.push(job);
            PoolArrival::StartService(now + job.service_time)
        } else {
            self.queue.push_back(job);
            PoolArrival::Queued
        }
    }

    /// Completes the in-service job with id `job_id` at `now`.
    ///
    /// Returns the finished job and, if a queued job was promoted, that
    /// job with its completion time.
    ///
    /// # Panics
    ///
    /// Panics if no in-service job has that id (event wiring bug).
    pub fn complete(&mut self, job_id: u64, now: SimTime) -> (Job, Option<(Job, SimTime)>) {
        let idx = self
            .in_service
            .iter()
            .position(|j| j.id == job_id)
            .expect("completion for a job not in service");
        let finished = self.in_service.swap_remove(idx);
        self.completed += 1;
        match self.queue.pop_front() {
            Some(next) => {
                self.in_service.push(next);
                (finished, Some((next, now + next.service_time)))
            }
            None => {
                self.busy -= 1;
                (finished, None)
            }
        }
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
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = MultiServerStation::new(0);
    }

    #[test]
    fn fills_servers_before_queueing() {
        let mut st = MultiServerStation::new(2);
        assert_eq!(
            st.arrive(job(1, 0.0, 5.0), t(0.0)),
            PoolArrival::StartService(t(5.0))
        );
        assert_eq!(
            st.arrive(job(2, 1.0, 5.0), t(1.0)),
            PoolArrival::StartService(t(6.0))
        );
        assert_eq!(st.arrive(job(3, 2.0, 1.0), t(2.0)), PoolArrival::Queued);
    }

    #[test]
    fn completion_promotes_fifo() {
        let mut st = MultiServerStation::new(2);
        st.arrive(job(1, 0.0, 5.0), t(0.0));
        st.arrive(job(2, 0.0, 2.0), t(0.0));
        st.arrive(job(3, 0.0, 1.0), t(0.0));
        st.arrive(job(4, 0.0, 1.0), t(0.0));
        // Job 2 finishes first (at t=2); job 3 promoted, done at 3.
        let (done, next) = st.complete(2, t(2.0));
        assert_eq!(done.id, 2);
        let (promoted, done_at) = next.unwrap();
        assert_eq!(promoted.id, 3);
        assert_eq!(done_at, t(3.0));
        // Job 3 finishes; job 4 promoted.
        let (done, next) = st.complete(3, t(3.0));
        assert_eq!(done.id, 3);
        assert_eq!(next.unwrap().0.id, 4);
        // Remaining completions drain the pool.
        st.complete(4, t(4.0));
        let (done, next) = st.complete(1, t(5.0));
        assert_eq!(done.id, 1);
        assert!(next.is_none());
        assert_eq!(st.completed(), 4);
    }

    #[test]
    #[should_panic(expected = "not in service")]
    fn completing_unknown_job_panics() {
        let mut st = MultiServerStation::new(1);
        st.arrive(job(1, 0.0, 1.0), t(0.0));
        st.complete(99, t(1.0));
    }

    #[test]
    fn single_server_pool_behaves_like_fcfs_station() {
        use crate::station::{Arrival, FcfsStation};
        let mut pool = MultiServerStation::new(1);
        let mut single = FcfsStation::new();
        let jobs = [job(1, 0.0, 2.0), job(2, 0.5, 1.0), job(3, 1.0, 0.5)];
        for j in jobs {
            let a = pool.arrive(j, j.arrival);
            let b = single.arrive(j, j.arrival);
            match (a, b) {
                (PoolArrival::StartService(x), Arrival::StartService(y)) => {
                    assert_eq!(x, y)
                }
                (PoolArrival::Queued, Arrival::Queued) => {}
                other => panic!("divergence: {other:?}"),
            }
        }
        // Drain both: identical completion order and times.
        let (p1, pn) = pool.complete(1, t(2.0));
        let (s1, sn) = single.complete(t(2.0));
        assert_eq!(p1.id, s1.id);
        assert_eq!(pn.unwrap().1, sn.unwrap().1);
    }

    /// End-to-end M/M/c validation: simulate the pool with the engine and
    /// compare the measured mean response with Erlang-C.
    #[test]
    fn simulated_pool_matches_erlang_c() {
        use crate::engine::Engine;
        use crate::monitor::ResponseTimeMonitor;
        use crate::rng::RngStream;

        #[derive(Clone, Copy)]
        enum Ev {
            Arrive,
            Done(u64),
        }

        let (lambda, mu, c) = (3.2, 1.0, 4u32);
        let horizon = 40_000.0;
        let mut eng: Engine<Ev> = Engine::new();
        eng.set_horizon(SimTime::new(horizon));
        let mut arrivals = RngStream::new(77, 0);
        let mut services = RngStream::new(77, 1);
        let mut pool = MultiServerStation::new(c);
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
                    if let PoolArrival::StartService(at) = pool.arrive(j, eng.now()) {
                        eng.schedule_at(at, Ev::Done(j.id));
                    }
                }
                Ev::Done(id) => {
                    let (done, next) = pool.complete(id, eng.now());
                    monitor.record(0, done.arrival, eng.now());
                    if let Some((promoted, at)) = next {
                        eng.schedule_at(at, Ev::Done(promoted.id));
                    }
                }
            }
        }
        let theory = lb_stats_free_erlang_c(lambda, mu, c);
        let measured = monitor.system_mean();
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "measured {measured} vs Erlang-C {theory} (rel {rel:.3})"
        );
    }

    /// Minimal local Erlang-C (duplicated to avoid a dev-dependency on
    /// lb-queueing from lb-des).
    fn lb_stats_free_erlang_c(lambda: f64, mu: f64, c: u32) -> f64 {
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
