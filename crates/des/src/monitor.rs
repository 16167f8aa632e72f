//! Warmup-aware measurement collectors.
//!
//! Steady-state estimation from a simulation started empty requires
//! discarding the initial transient. [`ResponseTimeMonitor`] drops every
//! job that *arrived* before the warmup cutoff and keeps a count and a
//! response-time sum per user, from which it derives the per-user and
//! system-wide means. [`GoodputMonitor`] counts served, shed and lost
//! jobs over the same window.

use crate::time::SimTime;

/// Per-user and system-wide mean response times with warmup deletion.
///
/// A measured job costs an increment and an addition. No simulator reads
/// a variance, so none is kept: a caller that needs one feeds its own
/// `lb_stats::Welford` from the simulators' response sink.
#[derive(Debug, Clone)]
pub struct ResponseTimeMonitor {
    warmup: SimTime,
    /// Each user's measured jobs and response sum, in recording order; a
    /// user with none keeps a zero sum, so `sum / n.max(1)` reads 0.
    per_user: Vec<(u64, f64)>,
}

impl ResponseTimeMonitor {
    /// Creates a monitor for `users` users, ignoring jobs that arrived
    /// before `warmup`.
    pub fn new(users: usize, warmup: SimTime) -> Self {
        Self {
            warmup,
            per_user: vec![(0, 0.0); users],
        }
    }

    /// Records a completed job: `user` index, `arrival` time, `departure`
    /// time. Jobs that arrived during warmup are ignored.
    ///
    /// # Panics
    ///
    /// Panics when `user` is out of range or `departure < arrival`.
    pub fn record(&mut self, user: usize, arrival: SimTime, departure: SimTime) {
        assert!(user < self.per_user.len(), "user index {user} out of range");
        assert!(
            departure >= arrival,
            "job departs at {departure} before arriving at {arrival}"
        );
        if arrival < self.warmup {
            return;
        }
        self.push(user, departure - arrival);
    }

    /// Adds one measured response of `user` without [`Self::record`]'s
    /// checks: for a caller that already knows the job is in range,
    /// past the warmup and departs after it arrived.
    #[inline]
    pub(crate) fn push(&mut self, user: usize, response: f64) {
        let (n, sum) = &mut self.per_user[user];
        *n += 1;
        *sum += response;
    }

    /// Number of measured (post-warmup) jobs for `user`.
    pub fn count(&self, user: usize) -> u64 {
        self.per_user[user].0
    }

    /// Total measured jobs across users.
    pub fn total_count(&self) -> u64 {
        self.per_user.iter().map(|&(n, _)| n).sum()
    }

    /// Mean response times of every user (0 for a user with none).
    pub fn user_means(&self) -> Vec<f64> {
        let mean = |&(n, sum): &(u64, f64)| sum / n.max(1) as f64;
        self.per_user.iter().map(mean).collect()
    }

    /// System-wide (job-averaged) mean response time: the users' sums,
    /// added in user order, over the total count.
    pub fn system_mean(&self) -> f64 {
        let sum: f64 = self.per_user.iter().map(|&(_, s)| s).sum();
        sum / self.total_count().max(1) as f64
    }

    /// Merges another monitor's measurements into this one, adding each
    /// user's count and sum. Used by the sharded engine: each station
    /// shard accumulates its own monitor, merged in station-index order
    /// so the result is identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics when the monitors track different user counts.
    pub fn merge(&mut self, other: &ResponseTimeMonitor) {
        assert_eq!(
            self.per_user.len(),
            other.per_user.len(),
            "cannot merge monitors over different user counts"
        );
        for ((n, sum), &(m, s)) in self.per_user.iter_mut().zip(&other.per_user) {
            *n += m;
            *sum += s;
        }
    }
}

/// Separates goodput from degraded work under churn: jobs *served* to
/// completion, jobs *shed* at admission (the overload policy refused
/// them), jobs *lost* after exhausting their retry budget, and retry
/// attempts. Events before the warmup cutoff are discarded, like
/// [`ResponseTimeMonitor`]'s.
#[derive(Debug, Clone, Copy)]
pub struct GoodputMonitor {
    warmup: SimTime,
    served: u64,
    shed: u64,
    lost: u64,
    retries: u64,
}

impl GoodputMonitor {
    /// Creates a monitor that starts counting at `warmup`.
    pub fn new(warmup: SimTime) -> Self {
        Self {
            warmup,
            served: 0,
            shed: 0,
            lost: 0,
            retries: 0,
        }
    }

    /// A job finished service at `now`.
    pub fn record_served(&mut self, now: SimTime) {
        if now >= self.warmup {
            self.served += 1;
        }
    }

    /// A job was refused at admission at `now` (overload shedding).
    pub fn record_shed(&mut self, now: SimTime) {
        if now >= self.warmup {
            self.shed += 1;
        }
    }

    /// A job exhausted its retry budget at `now` and was dropped.
    pub fn record_lost(&mut self, now: SimTime) {
        if now >= self.warmup {
            self.lost += 1;
        }
    }

    /// A crashed-out job was re-submitted at `now`.
    pub fn record_retry(&mut self, now: SimTime) {
        if now >= self.warmup {
            self.retries += 1;
        }
    }

    /// Jobs served to completion in the measurement window.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Jobs shed at admission in the measurement window.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Jobs lost to exhausted retries in the measurement window.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Retry submissions in the measurement window.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Completed jobs per second over `[warmup, now]` — the goodput.
    pub fn goodput(&self, now: SimTime) -> f64 {
        self.rate(self.served, now)
    }

    /// Shed jobs per second over `[warmup, now]`.
    pub fn shed_rate(&self, now: SimTime) -> f64 {
        self.rate(self.shed, now)
    }

    /// Merges another monitor's counters into this one. Used by the
    /// sharded engine to combine per-station goodput in station-index
    /// order (the counters are plain sums, so the merge is exact).
    pub fn merge(&mut self, other: &GoodputMonitor) {
        self.served += other.served;
        self.shed += other.shed;
        self.lost += other.lost;
        self.retries += other.retries;
    }

    fn rate(&self, count: u64, now: SimTime) -> f64 {
        let window = now.since(self.warmup);
        if window == 0.0 {
            return 0.0;
        }
        count as f64 / window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> SimTime {
        SimTime::new(x)
    }

    #[test]
    fn records_after_warmup_only() {
        let mut m = ResponseTimeMonitor::new(2, t(10.0));
        m.record(0, t(5.0), t(12.0)); // arrived during warmup: dropped
        m.record(0, t(10.0), t(13.0)); // boundary arrival: kept
        m.record(1, t(20.0), t(21.0));
        assert_eq!(m.count(0), 1);
        assert_eq!(m.count(1), 1);
        assert_eq!(m.total_count(), 2);
        assert!((m.system_mean() - 2.0).abs() < 1e-12);
        assert_eq!(m.user_means(), vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_user() {
        let mut m = ResponseTimeMonitor::new(1, SimTime::ZERO);
        m.record(1, t(0.0), t(1.0));
    }

    #[test]
    #[should_panic(expected = "before arriving")]
    fn rejects_time_travel() {
        let mut m = ResponseTimeMonitor::new(1, SimTime::ZERO);
        m.record(0, t(2.0), t(1.0));
    }

    #[test]
    fn empty_monitor_means_are_zero() {
        let m = ResponseTimeMonitor::new(3, SimTime::ZERO);
        assert_eq!(m.user_means(), vec![0.0; 3]);
        assert_eq!(m.system_mean(), 0.0);
    }

    /// A million seeded exponential responses over ten users (an
    /// eleventh measures none): the means agree with Welford's, and the
    /// stream cut at random points into monitors merged in order keeps
    /// every count and mean.
    #[test]
    fn counts_and_sums_match_welford_and_merge_in_order() {
        let (users, jobs) = (10, 1_000_000);
        let mut rng = crate::rng::RngStream::new(2002, 0);
        let stream: Vec<(usize, f64)> = (0..jobs)
            .map(|_| {
                let user = (rng.uniform01() * users as f64) as usize;
                (user, rng.exponential(1.0 + user as f64))
            })
            .collect();
        let mut cuts: Vec<usize> = (0..4)
            .map(|_| (rng.uniform01() * jobs as f64) as usize)
            .collect();
        cuts.sort_unstable();
        cuts.push(jobs);

        let mut whole = ResponseTimeMonitor::new(users + 1, SimTime::ZERO);
        let mut merged = whole.clone();
        let mut oracle = vec![lb_stats::Welford::new(); users + 2];
        let mut from = 0;
        for to in cuts {
            let mut part = ResponseTimeMonitor::new(users + 1, SimTime::ZERO);
            for &(user, response) in &stream[from..to] {
                whole.push(user, response);
                part.push(user, response);
                oracle[user].push(response);
                oracle[users + 1].push(response);
            }
            merged.merge(&part);
            from = to;
        }

        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        for m in [&whole, &merged] {
            assert_eq!(m.total_count(), jobs as u64);
            assert!(close(m.system_mean(), oracle[users + 1].mean()));
            for (user, mean) in m.user_means().into_iter().enumerate() {
                assert_eq!(m.count(user), oracle[user].count());
                assert!(close(mean, oracle[user].mean()), "user {user}");
            }
        }
        assert_eq!((merged.count(users), merged.user_means()[users]), (0, 0.0));
    }

    #[test]
    fn monitor_merge_matches_single_stream() {
        let jobs = [
            (0usize, 12.0, 15.0),
            (1, 11.0, 12.5),
            (0, 20.0, 26.0),
            (1, 22.0, 23.0),
            (0, 30.0, 31.0),
        ];
        let mut all = ResponseTimeMonitor::new(2, t(10.0));
        for (u, a, d) in jobs {
            all.record(u, t(a), t(d));
        }
        let mut left = ResponseTimeMonitor::new(2, t(10.0));
        let mut right = ResponseTimeMonitor::new(2, t(10.0));
        for (k, (u, a, d)) in jobs.into_iter().enumerate() {
            if k < 2 {
                left.record(u, t(a), t(d));
            } else {
                right.record(u, t(a), t(d));
            }
        }
        left.merge(&right);
        assert_eq!(left.total_count(), all.total_count());
        for (u, (l, a)) in left.user_means().iter().zip(all.user_means()).enumerate() {
            assert_eq!(left.count(u), all.count(u));
            assert!((l - a).abs() < 1e-12);
        }
        assert!((left.system_mean() - all.system_mean()).abs() < 1e-12);
    }

    #[test]
    fn goodput_merge_sums_counters() {
        let mut a = GoodputMonitor::new(t(0.0));
        a.record_served(t(1.0));
        a.record_shed(t(2.0));
        let mut b = GoodputMonitor::new(t(0.0));
        b.record_served(t(3.0));
        b.record_lost(t(4.0));
        b.record_retry(t(5.0));
        a.merge(&b);
        assert_eq!((a.served(), a.shed(), a.lost(), a.retries()), (2, 1, 1, 1));
    }

    #[test]
    fn goodput_monitor_separates_outcomes() {
        let mut g = GoodputMonitor::new(t(10.0));
        g.record_served(t(5.0)); // warmup: dropped
        g.record_shed(t(5.0)); // warmup: dropped
        g.record_served(t(10.0));
        g.record_served(t(15.0));
        g.record_shed(t(12.0));
        g.record_lost(t(14.0));
        g.record_retry(t(13.0));
        assert_eq!(g.served(), 2);
        assert_eq!(g.shed(), 1);
        assert_eq!(g.lost(), 1);
        assert_eq!(g.retries(), 1);
        assert!((g.goodput(t(20.0)) - 0.2).abs() < 1e-12);
        assert!((g.shed_rate(t(20.0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_goodput_monitor_is_benign() {
        let g = GoodputMonitor::new(t(10.0));
        assert_eq!(g.goodput(t(10.0)), 0.0);
    }
}
