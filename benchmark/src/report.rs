//! The steadiness report: summarises saved run outputs.
//!
//! ```text
//! lb-benchmark report <set> [<set>]
//! ```
//!
//! A set is a directory of saved run outputs (the stdout of one run per
//! file) or a single file. For every workload × metric of a set it
//! prints the run count, the median, the quartiles (as Python's
//! `statistics.quantiles(values, n=4)` gives them), the spread
//! (quartile distance ÷ median) and the mean with its 95% Student-t
//! interval. Given two sets it also prints each metric's change of
//! median from the first set to the second, in the direction that is
//! worse, against the bound BENCHMARK.json (read from the working
//! directory, when present) fixes for it.

use crate::util::quartiles;
use lb_stats::tdist::t_critical;
use lb_stats::Welford;
use lb_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Metric values of one set, by `(workload, trace)` then metric name.
type Set = BTreeMap<(String, String), Group>;

#[derive(Default)]
struct Group {
    runs: u64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Vec<f64>>,
}

fn files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut out: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        out.sort();
        Ok(out)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

fn header_field(line: &str, key: &str) -> Option<String> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
        .map(str::to_string)
}

fn load(path: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    for file in files(path)? {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let Some(header) = text.lines().find(|l| l.starts_with("# lb-benchmark ")) else {
            continue;
        };
        let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
            continue;
        };
        let Ok(result) = parse(last) else {
            eprintln!("{}: last line is not a result, skipped", file.display());
            continue;
        };
        let key = (
            header_field(header, "workload").unwrap_or_default(),
            header_field(header, "trace").unwrap_or_default(),
        );
        let group = set.entry(key).or_default();
        group.runs += 1;
        group.attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        group.failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                group.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no run outputs found", path.display()));
    }
    Ok(set)
}

/// `(better, bound)` of every end-to-end metric in BENCHMARK.json.
fn bounds() -> BTreeMap<String, (String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect()
}

fn summarise(label: &str, set: &Set) {
    println!("set {label}");
    for ((workload, trace), g) in set {
        println!(
            "  {workload} trace={trace}: {} runs, {} ops attempted, {} failed, error_rate {}",
            g.runs,
            g.attempted,
            g.failed,
            g.failed as f64 / g.attempted.max(1) as f64
        );
        println!(
            "    {:<44} {:>3} {:>12} {:>12} {:>12} {:>7} {:>12} {:>12}",
            "metric", "n", "median", "q1", "q3", "spread", "mean", "95% t +-"
        );
        for (name, values) in &g.metrics {
            let (q1, med, q3) = quartiles(values);
            let w: Welford = values.iter().copied().collect();
            let half = if w.count() > 1 {
                t_critical(0.95, (w.count() - 1) as f64) * w.std_error()
            } else {
                f64::NAN
            };
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!(
                "    {name:<44} {:>3} {med:>12.6} {q1:>12.6} {q3:>12.6} {spread:>7.4} {:>12.6} {half:>12.6}",
                values.len(),
                w.mean()
            );
        }
    }
}

fn compare(a: &Set, b: &Set) {
    let bounds = bounds();
    println!("change of median, first set -> second set (positive = worse)");
    for (key, ga) in a {
        let Some(gb) = b.get(key) else { continue };
        println!("  {} trace={}", key.0, key.1);
        for (name, va) in &ga.metrics {
            let Some(vb) = gb.metrics.get(name) else {
                continue;
            };
            let (ma, mb) = (quartiles(va).1, quartiles(vb).1);
            let change = if ma != 0.0 { mb / ma - 1.0 } else { 0.0 };
            let (worse, verdict) = match bounds.get(name) {
                Some((better, bound)) => {
                    let worse = if better == "higher" { -change } else { change };
                    (
                        worse,
                        if worse <= *bound {
                            format!("within bound {bound}")
                        } else {
                            format!("WORSE than bound {bound}")
                        },
                    )
                }
                None => (change, "no bound".to_string()),
            };
            println!("    {name:<44} {ma:>12.6} -> {mb:>12.6}  {worse:>+8.4}  {verdict}");
        }
    }
}

/// Entry point of `lb-benchmark report`.
pub fn run(args: &[String]) -> Result<(), String> {
    match args {
        [one] => {
            summarise(one, &load(Path::new(one))?);
            Ok(())
        }
        [first, second] => {
            let (a, b) = (load(Path::new(first))?, load(Path::new(second))?);
            summarise(first, &a);
            summarise(second, &b);
            compare(&a, &b);
            Ok(())
        }
        _ => Err("usage: lb-benchmark report <set> [<set>]".into()),
    }
}
