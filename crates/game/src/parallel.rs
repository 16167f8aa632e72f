//! Deterministic parallel fan-out: the workspace's one worker pool.
//!
//! The paper's NASH algorithm is a sequential Gauss–Seidel ring, so the
//! sound parallelism here is in tasks that are pure functions of their
//! index: independent seeded replications
//! ([`lb_stats::ReplicationPlan::seed_for`]), the Poisson-split stations
//! of one replication, and per-user reductions over a frozen state, run
//! as contiguous chunks of users. [`ParallelRunner`] runs them on
//! [`std::thread::scope`] workers, worker 0 on the calling thread, and
//! hands results back **in task-index order**, so any fold over them is
//! byte-identical to the sequential loop at any thread count.
//!
//! The pool defaults to [`std::thread::available_parallelism`] and can be
//! overridden (or opted out of) with the `LB_SIM_THREADS` environment
//! variable: unset, `0`, `auto` or unparseable use all cores; `1` forces
//! the sequential path; any other `N` uses `N` workers. Every pool holds
//! at most [`MAX_THREADS`] workers, whatever it was asked for.

use lb_telemetry::{Collector, FieldValue, Span, SpanHandle};
use std::num::{IntErrorKind, NonZeroUsize};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Environment variable controlling the default worker count.
pub(crate) const THREADS_ENV: &str = "LB_SIM_THREADS";

/// The most workers a pool runs. A run starts min(workers, tasks) − 1
/// threads, and some task counts grow with the input (one task per
/// station, or per chunk of users under a large solver thread knob), so
/// every requested worker count is clamped to this.
pub const MAX_THREADS: usize = 64;

// The 1/2/8-worker determinism checks must run the worker counts they name.
const _: () = assert!(MAX_THREADS >= 8);

/// A fixed-size worker pool that runs independent, index-addressed tasks
/// and merges their results deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    threads: usize,
}

impl Default for ParallelRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ParallelRunner {
    /// A runner with `threads` workers, clamped to `[1, MAX_THREADS]`.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, MAX_THREADS),
        }
    }

    /// The sequential runner (one worker, no threads spawned).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Sizes the pool from `LB_SIM_THREADS`, falling back to
    /// [`std::thread::available_parallelism`] when unset, `0`, `auto`,
    /// or unparseable. A value above [`MAX_THREADS`] is clamped to it,
    /// with one warning line on stderr per process.
    pub fn from_env() -> Self {
        static WARN_ONCE: Once = Once::new();
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let (runner, warning) =
            Self::from_setting(std::env::var(THREADS_ENV).ok().as_deref(), available);
        if let Some(warning) = warning {
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
        }
        runner
    }

    /// The pool an `LB_SIM_THREADS` value (`None` when unset) asks for
    /// on a host with `available` cores, and the warning to print when
    /// the value asked for more than [`MAX_THREADS`] workers. A number
    /// too large for `usize` counts as too many workers, not as garbage.
    fn from_setting(value: Option<&str>, available: usize) -> (Self, Option<String>) {
        // Empty, `auto` and garbage fail to parse and mean "all cores".
        let requested = value.and_then(|text| match text.trim().parse::<usize>() {
            Ok(n) => Some(n),
            Err(e) if *e.kind() == IntErrorKind::PosOverflow => Some(usize::MAX),
            Err(_) => None,
        });
        match requested.filter(|&n| n > 0) {
            Some(n) if n > MAX_THREADS => (
                Self::new(n),
                Some(format!(
                    "warning: {THREADS_ENV}={} exceeds the {MAX_THREADS}-worker cap; \
                     using {MAX_THREADS} workers",
                    value.unwrap_or_default().trim()
                )),
            ),
            Some(n) => (Self::new(n), None),
            None => (Self::new(available), None),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `task(0..count)` across the pool and returns the results in
    /// index order. Tasks are claimed from a shared counter (work
    /// stealing), so uneven task costs do not idle workers; because each
    /// result lands in its own slot, the output is byte-identical to the
    /// sequential `map` for any thread count. Worker 0 runs on the
    /// calling thread; the others run on scoped threads, so a one-worker
    /// run spawns none.
    ///
    /// With an enabled `collector` the run is wrapped in a causal span
    /// tree: a `runner.pool` span (a child of `span_parent` when given, a
    /// root span otherwise) and one `runner.worker` span per worker,
    /// opened **from the worker's own thread** as it starts. Each task
    /// receives its worker's span handle (`None` when not collecting) and
    /// may parent its own spans under it (e.g. one `sim.replication` span
    /// per task). After the join, in worker-index order, each worker span
    /// closes with `{tasks, busy_us, idle_us}` and one flat
    /// `runner.worker {worker, tasks, busy_us, idle_us}` event follows
    /// it, so the event stream is as deterministic as the results (only
    /// the timing field values vary run to run). `idle_us` is the
    /// worker's time from its start to the join spent outside its tasks,
    /// the wait after its last task included. Without a collector no
    /// timing probes run at all, so results are byte-identical with
    /// collection on or off.
    ///
    /// # Panics
    ///
    /// A panic inside `task` is resumed on the calling thread.
    pub fn run<T, F>(
        &self,
        count: usize,
        task: F,
        collector: Option<&Arc<dyn Collector>>,
        span_parent: Option<&SpanHandle>,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Option<&SpanHandle>) -> T + Sync,
    {
        let workers = self.threads.min(count).max(1);
        let collect = lb_telemetry::enabled(collector);
        let pool = collect.map(|_| {
            let fields = [
                ("tasks", FieldValue::U64(count as u64)),
                ("workers", FieldValue::U64(workers as u64)),
            ];
            match span_parent {
                Some(p) => p.child("runner.pool", &fields),
                None => Span::root(collector, "runner.pool", &fields)
                    .expect("collector enablement was checked above"),
            }
        });
        let pool_handle = pool.as_ref().map(Span::handle);
        let next = AtomicUsize::new(0);
        let work = |w: usize| work_through(w, count, &next, &task, pool_handle.as_ref());
        // The workspace's one scoped fan-out: `clippy.toml` disallows
        // `std::thread::scope` everywhere else.
        #[allow(clippy::disallowed_methods)]
        let finished: Vec<WorkerOutput<T>> = std::thread::scope(|s| {
            let work = &work;
            let spawned: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
            let first = work(0);
            let rest = spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            std::iter::once(first).chain(rest).collect()
        });
        let joined = collect.map(|c| (c, Instant::now()));
        let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
        for (worker, (done, timing)) in finished.into_iter().enumerate() {
            if let (Some((c, joined)), Some((span, start, busy))) = (joined, timing) {
                let tasks = done.len() as u64;
                let busy_us = busy.as_micros() as u64;
                let idle = joined.duration_since(start).saturating_sub(busy);
                let idle_us = idle.as_micros() as u64;
                span.close_with(&[
                    ("tasks", tasks.into()),
                    ("busy_us", busy_us.into()),
                    ("idle_us", idle_us.into()),
                ]);
                c.emit(
                    "runner.worker",
                    &[
                        ("worker", (worker as u64).into()),
                        ("tasks", tasks.into()),
                        ("busy_us", busy_us.into()),
                        ("idle_us", idle_us.into()),
                    ],
                );
            }
            for (idx, value) in done {
                slots[idx] = Some(value);
            }
        }
        if let Some(pool) = pool {
            pool.close();
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index is claimed exactly once"))
            .collect()
    }

    /// Fallible variant of [`ParallelRunner::run`], with the same
    /// telemetry: collects `Ok` values in index order, or returns the
    /// error of the **lowest-indexed** failing task — the same error the
    /// sequential loop would surface. Every task runs even after a
    /// failure; tasks are expected to be effect-free.
    ///
    /// # Errors
    ///
    /// The lowest-indexed task error.
    pub fn try_run<T, E, F>(
        &self,
        count: usize,
        task: F,
        collector: Option<&Arc<dyn Collector>>,
        span_parent: Option<&SpanHandle>,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize, Option<&SpanHandle>) -> Result<T, E> + Sync,
    {
        self.run(count, task, collector, span_parent)
            .into_iter()
            .collect()
    }
}

/// One worker's `(index, result)` pairs and, when the run is traced,
/// its open `runner.worker` span, start instant and busy time (the span
/// closes after the join, when the worker's idle time is known).
type WorkerOutput<T> = (Vec<(usize, T)>, Option<(Span, Instant, Duration)>);

/// One worker's loop: claims task indices from `next` until they run
/// out. Under a `pool` span it opens its `runner.worker` span and times
/// each task; without one it takes no timestamps.
fn work_through<T, F>(
    worker: usize,
    count: usize,
    next: &AtomicUsize,
    task: &F,
    pool: Option<&SpanHandle>,
) -> WorkerOutput<T>
where
    F: Fn(usize, Option<&SpanHandle>) -> T,
{
    let start = pool.map(|_| Instant::now());
    let span = pool.map(|p| p.child("runner.worker", &[("worker", (worker as u64).into())]));
    let handle = span.as_ref().map(Span::handle);
    let mut busy = Duration::ZERO;
    let mut done = Vec::new();
    loop {
        let idx = next.fetch_add(1, Ordering::Relaxed);
        if idx >= count {
            break;
        }
        let t0 = start.map(|_| Instant::now());
        done.push((idx, task(idx, handle.as_ref())));
        if let Some(t0) = t0 {
            busy += t0.elapsed();
        }
    }
    (
        done,
        span.zip(start).map(|(span, start)| (span, start, busy)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let runner = ParallelRunner::new(8);
        // Make early tasks the slowest so completion order differs from
        // index order.
        let out = runner.run(
            32,
            |i, _| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * i
            },
            None,
            None,
        );
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_for_any_thread_count() {
        let task = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let reference = ParallelRunner::sequential().run(100, |i, _| task(i), None, None);
        for threads in [2, 3, 8] {
            let out = ParallelRunner::new(threads).run(100, |i, _| task(i), None, None);
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn try_run_reports_the_lowest_failing_index() {
        use lb_telemetry::MemoryCollector;
        let runner = ParallelRunner::new(4);
        let task = |i: usize, _: Option<&SpanHandle>| if i % 10 == 7 { Err(i) } else { Ok(i) };
        let result: Result<Vec<usize>, usize> = runner.try_run(64, task, None, None);
        assert_eq!(result, Err(7));
        let ok: Result<Vec<usize>, usize> = runner.try_run(16, |i, _| Ok(i), None, None);
        assert_eq!(ok.unwrap(), (0..16).collect::<Vec<_>>());
        // Traced, the same lowest-indexed error wins.
        let collector: Arc<dyn Collector> = Arc::new(MemoryCollector::default());
        let traced: Result<Vec<usize>, usize> = runner.try_run(64, task, Some(&collector), None);
        assert_eq!(traced, Err(7));
    }

    #[test]
    fn zero_and_single_task_counts_work() {
        let runner = ParallelRunner::new(4);
        assert_eq!(runner.run(0, |i, _| i, None, None), Vec::<usize>::new());
        assert_eq!(runner.run(1, |i, _| i + 1, None, None), vec![1]);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(ParallelRunner::new(0).threads(), 1);
        assert_eq!(ParallelRunner::new(MAX_THREADS).threads(), MAX_THREADS);
        assert_eq!(ParallelRunner::new(MAX_THREADS + 1).threads(), MAX_THREADS);
        assert_eq!(ParallelRunner::new(usize::MAX).threads(), MAX_THREADS);
        assert!((1..=MAX_THREADS).contains(&ParallelRunner::from_env().threads()));
    }

    #[test]
    fn thread_setting_parses_falls_back_and_clamps_without_spawning() {
        // Only the parse and the pool size are checked: no run starts.
        let threads = |value: Option<&str>, available| {
            let (runner, warning) = ParallelRunner::from_setting(value, available);
            (runner.threads(), warning.is_some())
        };
        let cap = MAX_THREADS.to_string();
        let over = (MAX_THREADS + 1).to_string();
        let huge = usize::MAX.to_string();
        for (value, want) in [
            (None, (3, false)),
            (Some(""), (3, false)),
            (Some("0"), (3, false)),
            (Some("auto"), (3, false)),
            (Some(" 1 "), (1, false)),
            (Some("8"), (8, false)),
            (Some(cap.as_str()), (MAX_THREADS, false)),
            (Some(over.as_str()), (MAX_THREADS, true)),
            (Some(huge.as_str()), (MAX_THREADS, true)),
            (Some("99999999999999999999999999"), (MAX_THREADS, true)),
            (Some("garbage"), (3, false)),
            (Some("-4"), (3, false)),
            (Some("2.5"), (3, false)),
        ] {
            assert_eq!(threads(value, 3), want, "{value:?}");
        }
        // A host with more cores than the cap still gets the cap.
        assert_eq!(threads(None, 4 * MAX_THREADS), (MAX_THREADS, false));
        let (_, warning) = ParallelRunner::from_setting(Some(over.as_str()), 3);
        let warning = warning.expect("clamped values warn");
        assert!(!warning.contains('\n'), "one line: {warning}");
        assert!(
            warning.contains(THREADS_ENV) && warning.contains(&over),
            "{warning}"
        );
    }

    #[test]
    fn traced_run_matches_plain_and_accounts_every_task() {
        use lb_telemetry::{MemoryCollector, SPAN_CLOSE, SPAN_OPEN};
        let task = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let reference = ParallelRunner::sequential().run(64, |i, _| task(i), None, None);
        for threads in [1usize, 4] {
            let runner = ParallelRunner::new(threads);
            let mem = Arc::new(MemoryCollector::default());
            let collector: Arc<dyn Collector> = mem.clone();
            let out = runner.run(64, |i, _| task(i), Some(&collector), None);
            assert_eq!(out, reference, "{threads} threads");
            // One pool span plus one worker span per worker wrap the run.
            assert_eq!(mem.count(SPAN_OPEN), 1 + threads, "pool + worker spans");
            assert_eq!(mem.count(SPAN_CLOSE), 1 + threads, "all spans closed");
            let flat: Vec<_> = mem
                .events()
                .into_iter()
                .filter(|(name, _)| *name == "runner.worker")
                .collect();
            assert_eq!(flat.len(), threads, "one flat event per worker");
            let mut total = 0u64;
            for (worker, (_, fields)) in flat.iter().enumerate() {
                assert_eq!(fields[0], ("worker", FieldValue::U64(worker as u64)));
                let ("tasks", FieldValue::U64(tasks)) = &fields[1] else {
                    panic!("missing tasks field: {fields:?}");
                };
                total += *tasks;
            }
            assert_eq!(total, 64, "every task accounted to a worker");
        }
    }

    #[test]
    fn idle_time_counts_the_wait_until_the_pool_joins() {
        use lb_telemetry::{MemoryCollector, SPAN_CLOSE};
        use std::sync::Barrier;
        // Both tasks meet at the barrier, so they run on different
        // workers; task 0 then sleeps while task 1's worker, out of
        // tasks, waits for the join.
        const SLEEP: Duration = Duration::from_millis(40);
        let barrier = Barrier::new(2);
        let mem = Arc::new(MemoryCollector::default());
        let collector: Arc<dyn Collector> = mem.clone();
        let task = |i: usize, _: Option<&SpanHandle>| {
            barrier.wait();
            if i == 0 {
                std::thread::sleep(SLEEP);
            }
        };
        ParallelRunner::new(2).run(2, task, Some(&collector), None);
        // Flat `{worker, tasks, busy_us, idle_us}` against the worker
        // spans' `{span, name, tasks, busy_us, idle_us}` closes.
        let events = mem.events();
        let flat: Vec<_> = events
            .iter()
            .filter(|(name, _)| *name == "runner.worker")
            .map(|(_, fields)| fields[1..].to_vec())
            .collect();
        let closes: Vec<_> = events
            .iter()
            .filter(|(name, fields)| *name == SPAN_CLOSE && fields[1].1 == "runner.worker".into())
            .map(|(_, fields)| fields[2..].to_vec())
            .collect();
        assert_eq!(flat.len(), 2, "one flat event per worker");
        assert_eq!(closes, flat, "span close fields match the flat events");
        let idle: u64 = flat
            .iter()
            .map(|fields| match fields[2] {
                ("idle_us", FieldValue::U64(us)) => us,
                ref other => panic!("not idle_us: {other:?}"),
            })
            .sum();
        let floor = SLEEP.as_micros() as u64 / 2;
        assert!(idle >= floor, "idle {idle} µs < {floor} µs: {flat:?}");
    }

    #[test]
    fn spanned_run_hands_tasks_a_worker_span_and_stays_bit_identical() {
        use lb_telemetry::MemoryCollector;
        let task = |i: usize, worker: Option<&SpanHandle>| {
            // A per-task child span parented under the worker's span.
            let _child = worker.map(|w| w.child("test.task", &[("i", (i as u64).into())]));
            (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let reference = ParallelRunner::sequential().run(32, task, None, None);
        for threads in [1usize, 4] {
            let runner = ParallelRunner::new(threads);
            let mem = Arc::new(MemoryCollector::default());
            let collector: Arc<dyn Collector> = mem.clone();
            let out = runner.run(32, task, Some(&collector), None);
            assert_eq!(out, reference, "{threads} threads");
            // pool + workers + one span per task, all closed.
            assert_eq!(mem.count("span_open"), 1 + threads + 32);
            assert_eq!(mem.count("span_close"), 1 + threads + 32);
        }
    }

    #[test]
    fn traced_run_without_collector_is_the_plain_path() {
        let runner = ParallelRunner::new(3);
        let out = runner.run(10, |i, _| i * 2, None, None);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let ok: Result<Vec<usize>, usize> = runner.try_run(10, |i, _| Ok(i), None, None);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn task_panics_propagate() {
        let runner = ParallelRunner::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run(
                8,
                |i, _| {
                    assert!(i != 5, "boom");
                    i
                },
                None,
                None,
            )
        }));
        assert!(caught.is_err());
    }
}
