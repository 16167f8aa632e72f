//! Seeds, order statistics, timing and machine facts shared by every
//! workload.

use std::hint::black_box;
use std::time::Instant;

/// One SplitMix64 step: the seed-derivation and shuffle generator. Every
/// op seed, op order and probe input comes from the run's `--seed`
/// through this function, so a seed fixes the inputs exactly.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed from the run seed, a stream tag
/// and an index.
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)) ^ index)
}

/// A deterministic permutation of `0..len` for cycle `cycle` of a run.
pub fn shuffled(len: usize, seed: u64, tag: u64, cycle: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let base = derive(seed, tag, cycle);
    for i in (1..len).rev() {
        let j = (splitmix64(base.wrapping_add(i as u64)) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Nearest-rank `q`-quantile of an unsorted sample (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample or a NaN value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median (the mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads read the same as in any script that
/// checks a set of runs. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld as i64 + 1;
    let n = 4_i64;
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = i * m - j * n;
        let j = j as usize;
        (v[j - 1] * (n - delta) as f64 + v[j] * delta as f64) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// Runs `body` (which performs `units` units of work per call) for about
/// `budget_s` seconds, five times, and returns the median nanoseconds
/// per unit. The loop length is calibrated first so each of the five
/// samples covers the same number of calls.
pub fn ns_per_unit<F: FnMut() -> u64>(budget_s: f64, mut body: F) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_secs_f64() < budget_s / 10.0 || calls == 0 {
        black_box(body());
        calls += 1;
    }
    let per_sample = (calls * 2).max(1);
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        let mut units = 0u64;
        for _ in 0..per_sample {
            units += black_box(body());
        }
        samples.push(t.elapsed().as_secs_f64() * 1e9 / units.max(1) as f64);
    }
    median(&samples)
}

/// Peak resident memory of this process, MB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Moves the calling thread from CPU to CPU between cycles of ops.
///
/// A shared host slows each of its CPUs by its own outside load, and a
/// thread that never blocks stays on the CPU it started on, so a run of
/// single-threaded ops would measure one CPU's neighbours. Each
/// [`CpuRotation::next`] moves the caller to the next CPU the process
/// may use and then allows every one of them again: the caller starts
/// there, and threads the program spawns run wherever the scheduler puts
/// them. Where affinity is unavailable it does nothing.
pub struct CpuRotation {
    cpus: Vec<usize>,
    turn: usize,
}

impl CpuRotation {
    /// A rotation over the CPUs this process may run on.
    pub fn new() -> Self {
        Self {
            cpus: affinity::allowed().unwrap_or_default(),
            turn: 0,
        }
    }

    /// Moves the calling thread onto the next CPU in turn.
    pub fn next(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.turn % self.cpus.len()];
        self.turn += 1;
        // Failing either call only leaves the thread where it was.
        affinity::set(&[cpu]);
        affinity::set(&self.cpus);
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// glibc's `cpu_set_t`: a mask of 1,024 CPUs.
    type CpuSet = [u64; 16];
    const MAX_CPUS: usize = 64 * 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Option<Vec<usize>> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable cpu_set_t and the size passed
        // is its size, so the kernel writes only inside it; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        (rc == 0).then(|| {
            (0..MAX_CPUS)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        })
    }

    /// Restricts the calling thread to `cpus`; false if the kernel refused.
    pub fn set(cpus: &[usize]) -> bool {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a live cpu_set_t and the size passed is its
        // size, so the kernel reads only inside it; pid 0 names the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Option<Vec<usize>> {
        None
    }

    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}

/// Cores the benchmark may use; every thread count it passes is at most
/// this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string, for the run header.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one (a plain source checkout reports `unknown`).
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn shuffles_are_permutations_and_seeded() {
        let a = shuffled(18, 7, 1, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_eq!(a, shuffled(18, 7, 1, 0));
        assert_ne!(a, shuffled(18, 8, 1, 0));
    }
}
