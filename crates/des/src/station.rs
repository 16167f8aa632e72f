//! A single-server FCFS run-to-completion station — the paper's computer.
//!
//! "Jobs which have been dispatched to a particular computer are
//! run-to-completion (i.e. no preemption) in FCFS order" (§4.1). The
//! station is a passive state machine driven by the event loop: `arrive`
//! may start service immediately, `complete` finishes the job in service
//! and promotes the head of the queue. The station also exposes its
//! **run-queue length**, the observable the paper's users sample to
//! estimate available processing rates.

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
    /// The server was idle; service starts now and will complete at the
    /// contained time (schedule a completion event for it).
    StartService(SimTime),
    /// The server was busy; the job joined the queue.
    Queued,
}

/// A single-server FCFS station.
#[derive(Debug, Clone)]
pub struct FcfsStation {
    in_service: Option<Job>,
    queue: VecDeque<Job>,
    completed: u64,
    busy_since: Option<SimTime>,
    busy_time: f64,
}

impl FcfsStation {
    /// Creates an idle, empty station (clock origin at zero).
    pub fn new() -> Self {
        Self {
            in_service: None,
            queue: VecDeque::new(),
            completed: 0,
            busy_since: None,
            busy_time: 0.0,
        }
    }

    /// Number of jobs present (in service + waiting) — the *run-queue
    /// length* users observe.
    pub fn run_queue_length(&self) -> usize {
        usize::from(self.in_service.is_some()) + self.queue.len()
    }

    /// Jobs fully served so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether the server is currently serving a job.
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Handles a job arrival at time `now`.
    ///
    /// Returns [`Arrival::StartService`] with the completion time when the
    /// server was idle (the caller must schedule the completion event), or
    /// [`Arrival::Queued`] when the job had to wait.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite service demand.
    pub fn arrive(&mut self, job: Job, now: SimTime) -> Arrival {
        assert!(
            job.service_time.is_finite() && job.service_time >= 0.0,
            "invalid service time {}",
            job.service_time
        );
        if self.in_service.is_none() {
            self.in_service = Some(job);
            self.busy_since = Some(now);
            Arrival::StartService(now + job.service_time)
        } else {
            self.queue.push_back(job);
            Arrival::Queued
        }
    }

    /// Completes the job in service at time `now`.
    ///
    /// Returns the finished job and, if the queue was non-empty, the next
    /// job together with *its* completion time (the caller schedules it).
    ///
    /// # Panics
    ///
    /// Panics if the server was idle — a completion event without a job in
    /// service means the event wiring is broken.
    pub fn complete(&mut self, now: SimTime) -> (Job, Option<(Job, SimTime)>) {
        let finished = self
            .in_service
            .take()
            .expect("completion event fired on an idle station");
        self.completed += 1;
        if let Some(start) = self.busy_since.take() {
            self.busy_time += now.since(start);
        }
        let next = self.queue.pop_front().map(|job| {
            self.in_service = Some(job);
            self.busy_since = Some(now);
            (job, now + job.service_time)
        });
        (finished, next)
    }

    /// Crashes the station at time `now`: the job in service is
    /// preempted and every queued job stranded. All of them are returned
    /// (preempted job first, then the queue in FCFS order) so the caller
    /// can retry them elsewhere or count them lost.
    ///
    /// The caller must also cancel any completion event it scheduled for
    /// the preempted job — the station cannot reach into the calendar.
    /// After `fail` the station is idle and empty, ready to accept
    /// arrivals again once the model declares it repaired.
    pub fn fail(&mut self, now: SimTime) -> Vec<Job> {
        let mut stranded = Vec::with_capacity(self.run_queue_length());
        if let Some(job) = self.in_service.take() {
            // The aborted partial service still occupied the server.
            if let Some(start) = self.busy_since.take() {
                self.busy_time += now.since(start);
            }
            stranded.push(job);
        }
        stranded.extend(self.queue.drain(..));
        stranded
    }

    /// Fraction of time the server has been busy up to `now` (utilization
    /// estimate). Counts an in-progress service up to `now`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let t = now.as_secs();
        if t == 0.0 {
            return 0.0;
        }
        let in_progress = self.busy_since.map(|s| now.since(s)).unwrap_or(0.0);
        (self.busy_time + in_progress) / t
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
        assert!(!st.busy());
        let a = st.arrive(job(1, 0.0, 2.0), t(0.0));
        assert_eq!(a, Arrival::StartService(t(2.0)));
        assert!(st.busy());
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
        assert!(!st.busy());
        assert_eq!(st.completed(), 3);
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
        assert!(!st.busy());
        assert_eq!(st.run_queue_length(), 0);
        assert_eq!(st.completed(), 0, "preempted work is not a completion");
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
        assert!(!st.busy());
    }

    #[test]
    fn utilization_at_time_zero_is_zero() {
        let st = FcfsStation::new();
        assert_eq!(st.utilization(t(0.0)), 0.0);
    }
}
