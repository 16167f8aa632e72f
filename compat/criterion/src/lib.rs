//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the API subset its benches use: `Criterion`,
//! `benchmark_group`, the group's `bench_function` / `bench_with_input`,
//! `BenchmarkId`, `Throughput`, and the `criterion_group!` /
//! `criterion_main!` macros. Measurement is a simple
//! calibrate-then-sample wall-clock loop — adequate for the relative
//! comparisons the benches make, with none of upstream's statistics.
//!
//! Two extensions beyond upstream's API support offline perf tracking:
//!
//! * every measurement is recorded on the [`Criterion`] context and can
//!   be serialized with [`Criterion::write_json`]; `criterion_main!`
//!   writes the summary to the path named by the `CRITERION_JSON`
//!   environment variable, and
//! * setting `CRITERION_QUICK=1` shrinks the calibration and sampling
//!   windows ~10× so CI smoke jobs finish fast (numbers are noisy but the
//!   benches still execute end to end and panics still surface).

use std::fmt;
use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            text: format!("{name}/{parameter}"),
        }
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            text: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { text: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { text: s }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Throughput annotation for a benchmark (printed, not analyzed).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// One recorded measurement: a benchmark's identity and its per-iteration
/// wall-clock cost.
#[derive(Debug, Clone, PartialEq)]
struct BenchResult {
    /// Group name (the `benchmark_group` argument).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Mean nanoseconds per iteration over the sampling window.
    pub ns_per_iter: f64,
    /// Iterations in the sampling window.
    pub iters: u64,
}

/// True when `CRITERION_QUICK` requests a reduced-iteration smoke pass.
fn quick_mode() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Measurement driver handed to bench closures.
pub struct Bencher {
    calibrate_for: Duration,
    budget: Duration,
    iters_hint: u64,
    measured: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times `routine`, first calibrating an iteration count so the
    /// measured loop runs for roughly the configured sampling window.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let mut calibration_iters: u64 = 1;
        let per_iter = loop {
            let start = Instant::now();
            for _ in 0..calibration_iters {
                std_black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.calibrate_for || calibration_iters >= (1 << 24) {
                break elapsed / calibration_iters.max(1) as u32;
            }
            calibration_iters *= 8;
        };
        let iters = if per_iter.is_zero() {
            self.iters_hint
        } else {
            (self.budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64
        };
        let start = Instant::now();
        for _ in 0..iters {
            std_black_box(routine());
        }
        self.measured = Some((start.elapsed(), iters));
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    measurement_time: Duration,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the sampling window of subsequent benchmarks (50 ms by
    /// default; `CRITERION_QUICK` keeps its own 5 ms window). Each runs
    /// as many whole iterations as fit in it, at least one.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput figure.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.into(), |b| f(b));
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.into(), |b| f(b, input));
        self
    }

    /// A bencher with this group's calibration window and sampling
    /// budget; ~10× smaller in `quick` mode so CI smoke runs stay cheap.
    fn bencher(&self, quick: bool) -> Bencher {
        let (calibrate_for, budget) = if quick {
            (Duration::from_millis(1), Duration::from_millis(5))
        } else {
            (Duration::from_millis(10), self.measurement_time)
        };
        Bencher {
            calibrate_for,
            budget,
            iters_hint: 100,
            measured: None,
        }
    }

    fn run(&mut self, id: BenchmarkId, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = self.bencher(quick_mode());
        f(&mut bencher);
        match bencher.measured {
            Some((elapsed, iters)) if iters > 0 => {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                let rate = match self.throughput {
                    Some(Throughput::Elements(n)) => {
                        format!(" ({:.3e} elem/s)", n as f64 / per_iter)
                    }
                    None => String::new(),
                };
                println!(
                    "{}/{}: {:.3} µs/iter over {} iters{}",
                    self.name,
                    id,
                    per_iter * 1e6,
                    iters,
                    rate
                );
                self.criterion.results.push(BenchResult {
                    group: self.name.clone(),
                    id: id.to_string(),
                    ns_per_iter: per_iter * 1e9,
                    iters,
                });
            }
            _ => println!("{}/{}: no measurement recorded", self.name, id),
        }
        self.criterion.benchmarks_run += 1;
    }

    /// Ends the group (upstream flushes reports here; the shim prints as
    /// it goes).
    pub fn finish(self) {}
}

/// Top-level bench context, threaded through `criterion_group!` functions.
#[derive(Default)]
pub struct Criterion {
    benchmarks_run: usize,
    results: Vec<BenchResult>,
}

/// Appends `s` to `out` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Criterion {
    /// Accepted for CLI compatibility with upstream; no-op.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Renders the recorded measurements as a JSON document
    /// (`{"benchmarks": [{"group", "id", "ns_per_iter", "iters"}, ...]}`).
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"group\": ");
            push_json_str(&mut out, &r.group);
            out.push_str(", \"id\": ");
            push_json_str(&mut out, &r.id);
            let _ = write!(
                out,
                ", \"ns_per_iter\": {:.1}, \"iters\": {}}}",
                r.ns_per_iter, r.iters
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`Criterion::summary_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.summary_json())
    }

    /// `criterion_main!` hook: writes the JSON summary to the path named
    /// by `CRITERION_JSON`, if set. Failures print to stderr rather than
    /// failing the bench run.
    pub fn finalize_from_env(&self) {
        if let Some(path) = std::env::var_os("CRITERION_JSON") {
            if path.is_empty() {
                return;
            }
            if let Err(e) = self.write_json(&path) {
                eprintln!(
                    "criterion shim: failed to write {}: {e}",
                    path.to_string_lossy()
                );
            } else {
                println!("criterion shim: wrote {}", path.to_string_lossy());
            }
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            measurement_time: Duration::from_millis(50),
            criterion: self,
        }
    }
}

/// Declares a bench group function, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench binary's `main`, mirroring upstream's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($group(&mut c);)+
            c.finalize_from_env();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_a_measurement() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(4));
        group.bench_function(BenchmarkId::from_parameter(4), |b| {
            b.iter(|| black_box(2_u64) * 2)
        });
        group.finish();
        assert_eq!(c.benchmarks_run, 1);
    }

    #[test]
    fn measurement_time_sets_the_sampling_window() {
        // Outside quick mode, whatever `CRITERION_QUICK` says here.
        let iterations = |mut b: Bencher| {
            b.iter(|| (0..1_000_u64).map(black_box).sum::<u64>());
            b.measured.map_or(0, |(_, iters)| iters)
        };
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("window");
        let default = iterations(group.bencher(false));
        group.measurement_time(Duration::from_millis(200));
        let longer = iterations(group.bencher(false));
        group.measurement_time(Duration::ZERO);
        let zero = iterations(group.bencher(false));
        // Four times the 50 ms default times well over twice as many
        // iterations; a zero window still times one.
        assert!(longer > 2 * default, "{longer} vs {default}");
        assert_eq!(zero, 1);
    }

    #[test]
    fn ids_render_like_upstream() {
        assert_eq!(BenchmarkId::new("solve", 16).to_string(), "solve/16");
        assert_eq!(BenchmarkId::from_parameter(64).to_string(), "64");
    }

    #[test]
    fn measurements_are_recorded_and_serialized() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("record");
        group.bench_function("double", |b| b.iter(|| black_box(21_u64) * 2));
        group.finish();
        assert_eq!(c.results.len(), 1);
        let r = &c.results[0];
        assert_eq!(r.group, "record");
        assert_eq!(r.id, "double");
        assert!(r.ns_per_iter >= 0.0);
        assert!(r.iters >= 1);
        let json = c.summary_json();
        assert!(json.contains("\"group\": \"record\""));
        assert!(json.contains("\"id\": \"double\""));
        assert!(json.contains("\"ns_per_iter\""));
    }

    #[test]
    fn json_strings_escape_quotes_and_control_chars() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }
}
