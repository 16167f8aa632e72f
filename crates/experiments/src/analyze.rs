//! The `analyze` subcommand: offline causal-profile analysis of a
//! schema-v2/v3 JSONL trace (normally `trace_table1.jsonl` produced
//! by the `trace` subcommand).
//!
//! The flat `span_open`/`span_close` event stream is reconstructed
//! into a forest of [`SpanNode`]s, then distilled four ways:
//!
//! 1. **Critical path** — a backward walk from each root's close time
//!    that repeatedly descends into the last-finishing child, charging
//!    the gaps between children to the parent. The per-name charges
//!    sum to the wall time (the sum of root durations) *exactly*, so
//!    the attribution table always accounts for 100% of the run.
//! 2. **Self time** — per-span duration minus the time covered by its
//!    children (clamped at zero for parallel fan-out, where children
//!    on worker threads can jointly exceed the parent's interval).
//! 3. **Chrome trace JSON** — `chrome://tracing` / Perfetto "X"
//!    complete events, with a greedy lane (tid) assignment that keeps
//!    every lane properly nested so overlapping siblings render on
//!    separate tracks.
//! 4. **Folded stacks** — `root;child;leaf self_us` lines, the input
//!    format of standard flamegraph tooling, aggregated per stack.
//!
//! The walks recurse once per nesting level, so [`analyze`] refuses a
//! forest deeper than [`MAX_SPAN_LEVELS`] with a [`SpanDepthError`]
//! instead of running off the end of the stack (real traces nest about
//! six levels); the cap also bounds each folded-stack line.
//!
//! Spans still open at end-of-log (a truncated run) are legal in the
//! schema; the analyzer extends them to the last timestamp in the log
//! and reports how many it had to. Orphans — spans naming a parent the
//! log never opened — are impossible in a log that passes
//! [`lb_telemetry::parse_log`] validation, but are counted defensively
//! anyway.
//!
//! Schema-v3 logs additionally carry cross-node `xspan.send` /
//! `xspan.recv` hops from the virtual network. When present, the
//! analyzer appends a **staleness attribution** table: per network
//! link, how many causal hops were delivered, lost (a send with no
//! matching recv — the drop roll or a partition ate it), or
//! duplicated, the delay the link charged (virtual µs between send and
//! first delivery), and how much of that charge sits on *certifying*
//! chains — traces an `async.quiesce` event names as the cause of a
//! certificate closing. Legacy v2 logs simply skip the table.

use crate::report::{fmt, Table};
use lb_telemetry::{json, EventLog, Json, SPAN_CLOSE, SPAN_OPEN};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The span id from the log.
    pub id: u64,
    /// Parent span id, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `solver.sweep`.
    pub name: String,
    /// Collector timestamp of the `span_open` event.
    pub open_t_us: u64,
    /// Collector timestamp of the `span_close` event; `None` when the
    /// span was still open at end-of-log.
    pub close_t_us: Option<u64>,
    /// Open-time fields (minus the structural `span`/`parent`/`name`).
    pub open_fields: Vec<(String, Json)>,
    /// Close-time fields (minus the structural `span`).
    pub close_fields: Vec<(String, Json)>,
    /// Indices of child nodes, in open order.
    pub children: Vec<usize>,
    /// Tree depth (roots are 0).
    pub depth: usize,
}

/// The reconstructed span forest.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// All spans, in open order.
    pub nodes: Vec<SpanNode>,
    /// Indices of root spans, in open order.
    pub roots: Vec<usize>,
    /// Spans whose named parent never appeared (0 for any log that
    /// passes schema validation).
    pub orphans: usize,
    /// Spans still open at end-of-log.
    pub open_at_eof: usize,
    /// Timestamp of the last event in the log (close bound for spans
    /// left open).
    pub end_t_us: u64,
}

impl SpanTree {
    /// The effective close time of a node (end-of-log for open spans).
    pub fn close_of(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        node.close_t_us.unwrap_or(self.end_t_us).max(node.open_t_us)
    }

    /// Duration of a node in microseconds.
    pub fn duration_us(&self, idx: usize) -> u64 {
        self.close_of(idx) - self.nodes[idx].open_t_us
    }
}

/// Builds the span forest from a parsed log.
pub fn build_tree(log: &EventLog) -> SpanTree {
    let end_t_us = log.events.last().map_or(0, |e| e.t_us);
    let mut nodes: Vec<SpanNode> = Vec::new();
    let mut roots = Vec::new();
    let mut orphans = 0usize;
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for ev in &log.events {
        match ev.name.as_str() {
            SPAN_OPEN => {
                let Some(id) = ev.field("span").and_then(Json::as_u64) else {
                    continue;
                };
                let name = ev
                    .field("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let parent = ev.field("parent").and_then(Json::as_u64);
                let idx = nodes.len();
                let (parent, depth) = match parent {
                    Some(p) => match by_id.get(&p) {
                        Some(&pidx) => {
                            nodes[pidx].children.push(idx);
                            (Some(p), nodes[pidx].depth + 1)
                        }
                        None => {
                            // Parent never opened: impossible after
                            // schema validation, but keep the span as
                            // a root rather than dropping data.
                            orphans += 1;
                            roots.push(idx);
                            (Some(p), 0)
                        }
                    },
                    None => {
                        roots.push(idx);
                        (None, 0)
                    }
                };
                nodes.push(SpanNode {
                    id,
                    parent,
                    name,
                    open_t_us: ev.t_us,
                    close_t_us: None,
                    open_fields: ev
                        .fields
                        .iter()
                        .filter(|(k, _)| !matches!(k.as_str(), "span" | "parent" | "name"))
                        .cloned()
                        .collect(),
                    close_fields: Vec::new(),
                    children: Vec::new(),
                    depth,
                });
                by_id.insert(id, idx);
            }
            SPAN_CLOSE => {
                let Some(id) = ev.field("span").and_then(Json::as_u64) else {
                    continue;
                };
                if let Some(&idx) = by_id.get(&id) {
                    nodes[idx].close_t_us = Some(ev.t_us);
                    nodes[idx].close_fields = ev
                        .fields
                        .iter()
                        .filter(|(k, _)| k != "span")
                        .cloned()
                        .collect();
                }
            }
            _ => {}
        }
    }
    let open_at_eof = nodes.iter().filter(|n| n.close_t_us.is_none()).count();
    SpanTree {
        nodes,
        roots,
        orphans,
        open_at_eof,
        end_t_us,
    }
}

/// Deepest span nesting [`analyze`] accepts, counting the root as level
/// one — the same bound `json::parse` puts on array/object nesting.
pub const MAX_SPAN_LEVELS: usize = 128;

/// A span forest nested deeper than [`MAX_SPAN_LEVELS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanDepthError {
    /// Nesting levels of the deepest span.
    pub levels: usize,
}

impl std::fmt::Display for SpanDepthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spans nest {} levels deep; the analyzer accepts at most {MAX_SPAN_LEVELS}",
            self.levels
        )
    }
}

impl std::error::Error for SpanDepthError {}

/// Per-name aggregate over the forest.
#[derive(Debug, Clone)]
pub struct NameStat {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Summed durations (overlapping spans double-count; this is CPU-ish
    /// volume, not wall time).
    pub total_us: u64,
    /// Summed self time (duration minus child-covered time, clamped).
    pub self_us: u64,
    /// Wall time this name is responsible for on the critical path.
    pub critical_us: u64,
    /// Longest single span.
    pub max_us: u64,
}

/// The full analysis of one trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The reconstructed forest.
    pub tree: SpanTree,
    /// Per-name aggregates, sorted by critical-path share descending.
    pub stats: Vec<NameStat>,
    /// Wall time: the sum of root-span durations.
    pub wall_us: u64,
    /// Total critical-path attribution (equals `wall_us` by
    /// construction; kept separate so the invariant is checkable).
    pub critical_us: u64,
    /// Deepest nesting level observed.
    pub max_depth: usize,
}

/// Analyzes a parsed log: reconstructs the forest and computes the
/// critical-path and self-time attributions.
///
/// # Errors
///
/// [`SpanDepthError`] when spans nest deeper than [`MAX_SPAN_LEVELS`].
pub fn analyze(log: &EventLog) -> Result<Analysis, SpanDepthError> {
    let tree = build_tree(log);
    let max_depth = tree.nodes.iter().map(|n| n.depth).max().unwrap_or(0);
    if max_depth >= MAX_SPAN_LEVELS {
        return Err(SpanDepthError {
            levels: max_depth + 1,
        });
    }
    let mut critical: BTreeMap<&str, u64> = BTreeMap::new();
    let mut wall_us = 0u64;
    for &root in &tree.roots {
        wall_us += tree.duration_us(root);
        walk_critical(&tree, root, tree.close_of(root), &mut critical);
    }
    let critical_us = critical.values().sum();

    let mut by_name: BTreeMap<&str, NameStat> = BTreeMap::new();
    for (idx, node) in tree.nodes.iter().enumerate() {
        let dur = tree.duration_us(idx);
        let covered: u64 = node
            .children
            .iter()
            .map(|&c| {
                // Clamp the child into the parent's interval so a
                // straggler can't push self time negative.
                let o = tree.nodes[c].open_t_us.max(node.open_t_us);
                let c_end = tree.close_of(c).min(tree.close_of(idx)).max(o);
                c_end - o
            })
            .sum();
        let stat = by_name.entry(node.name.as_str()).or_insert(NameStat {
            name: node.name.clone(),
            count: 0,
            total_us: 0,
            self_us: 0,
            critical_us: 0,
            max_us: 0,
        });
        stat.count += 1;
        stat.total_us += dur;
        stat.self_us += dur.saturating_sub(covered);
        stat.max_us = stat.max_us.max(dur);
    }
    for (name, us) in &critical {
        if let Some(stat) = by_name.get_mut(name) {
            stat.critical_us = *us;
        }
    }
    let mut stats: Vec<NameStat> = by_name.into_values().collect();
    stats.sort_by(|a, b| b.critical_us.cmp(&a.critical_us).then(a.name.cmp(&b.name)));
    Ok(Analysis {
        tree,
        stats,
        wall_us,
        critical_us,
        max_depth,
    })
}

/// Backward critical-path walk over `idx` clipped to
/// `[open, window_end]`: repeatedly descend into the last-finishing
/// child at or before the cursor, charging inter-child gaps to `idx`'s
/// own name. Children that ran concurrently with the chain walked so
/// far (their interval already covered) do not extend the path; a
/// partially covered child recurses with a tightened window. The
/// charges sum to exactly `min(close, window_end) - open`, so the
/// whole-forest attribution equals the wall time.
fn walk_critical<'a>(
    tree: &'a SpanTree,
    idx: usize,
    window_end: u64,
    out: &mut BTreeMap<&'a str, u64>,
) {
    let node = &tree.nodes[idx];
    let open = node.open_t_us;
    let mut cursor = tree.close_of(idx).min(window_end).max(open);
    // Children sorted by effective close, latest first.
    let mut kids: Vec<usize> = node.children.clone();
    kids.sort_by_key(|&c| std::cmp::Reverse(tree.close_of(c)));
    let mut own = 0u64;
    for c in kids {
        let c_open = tree.nodes[c].open_t_us.max(open);
        if c_open >= cursor {
            continue; // Fully covered by the chain walked so far.
        }
        let c_close = tree.close_of(c).min(cursor).max(c_open);
        own += cursor - c_close;
        walk_critical(tree, c, c_close, out);
        cursor = c_open;
    }
    own += cursor - open;
    *out.entry(node.name.as_str()).or_insert(0) += own;
}

/// Serializes the forest as Chrome trace-event JSON (`chrome://tracing`
/// or Perfetto): one `"X"` complete event per span, `ts`/`dur` in
/// microseconds, and a greedy lane (`tid`) assignment that keeps every
/// lane properly nested — a span shares its parent's lane when it fits,
/// and overlapping siblings (parallel workers) spill onto fresh lanes.
pub fn chrome_trace(a: &Analysis) -> String {
    let lanes = assign_lanes(&a.tree);
    let lane_count = lanes.iter().copied().max().map_or(0, |m| m + 1);
    let mut out = String::with_capacity(128 * a.tree.nodes.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for lane in 0..lane_count {
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\
             \"args\":{{\"name\":\"lane {lane}\"}}}}"
        );
    }
    for (idx, node) in a.tree.nodes.iter().enumerate() {
        emit_sep(&mut out, &mut first);
        out.push_str("{\"name\":");
        json::escape_str(&mut out, &node.name);
        let _ = write!(
            out,
            ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            node.open_t_us,
            a.tree.duration_us(idx),
            lanes[idx]
        );
        out.push_str(",\"args\":{");
        let _ = write!(out, "\"span\":{}", node.id);
        if node.close_t_us.is_none() {
            out.push_str(",\"open_at_eof\":true");
        }
        for (k, v) in node.open_fields.iter().chain(node.close_fields.iter()) {
            out.push(',');
            json::escape_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

fn emit_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Greedy lane assignment: processing spans in open order, each span
/// takes its parent's lane when the lane's innermost open interval
/// still contains it, otherwise the lowest lane where it nests
/// cleanly, otherwise a fresh lane.
fn assign_lanes(tree: &SpanTree) -> Vec<u64> {
    let mut lanes: Vec<u64> = vec![0; tree.nodes.len()];
    // Per lane: stack of close times of intervals currently covering
    // the scan position, outermost first.
    let mut stacks: Vec<Vec<u64>> = Vec::new();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    for (idx, node) in tree.nodes.iter().enumerate() {
        let open = node.open_t_us;
        let close = tree.close_of(idx);
        let preferred = node
            .parent
            .and_then(|p| by_id.get(&p))
            .map(|&pidx| lanes[pidx] as usize);
        let candidates = preferred.into_iter().chain(0..=stacks.len());
        let mut placed = None;
        for lane in candidates {
            if lane == stacks.len() {
                stacks.push(Vec::new());
            }
            let stack = &mut stacks[lane];
            while stack.last().is_some_and(|&c| c <= open) {
                stack.pop();
            }
            if stack.last().is_none_or(|&c| c >= close) {
                stack.push(close);
                placed = Some(lane as u64);
                break;
            }
        }
        lanes[idx] = placed.unwrap_or_else(|| {
            stacks.push(vec![close]);
            (stacks.len() - 1) as u64
        });
        by_id.insert(node.id, idx);
    }
    lanes
}

/// Folded-stack lines (`root;child;leaf self_us`), aggregated per
/// unique stack and sorted — the input format of flamegraph tooling.
pub fn folded_stacks(a: &Analysis) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for &root in &a.tree.roots {
        fold_into(a, root, String::new(), &mut agg);
    }
    let mut out = String::new();
    for (stack, us) in agg {
        let _ = writeln!(out, "{stack} {us}");
    }
    out
}

fn fold_into(a: &Analysis, idx: usize, prefix: String, agg: &mut BTreeMap<String, u64>) {
    let node = &a.tree.nodes[idx];
    let stack = if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    let dur = a.tree.duration_us(idx);
    let covered: u64 = node
        .children
        .iter()
        .map(|&c| {
            let o = a.tree.nodes[c].open_t_us.max(node.open_t_us);
            (a.tree.close_of(c).min(a.tree.close_of(idx)).max(o)) - o
        })
        .sum();
    *agg.entry(stack.clone()).or_insert(0) += dur.saturating_sub(covered);
    for &c in &node.children {
        fold_into(a, c, stack.clone(), agg);
    }
}

/// Renders an ASCII timeline of the forest: one indented row per span
/// (pre-order, capped at `max_rows`), with a bar showing its interval
/// on a shared time axis of `width` characters. Non-root spans too
/// short to cover one axis cell are pruned (with their subtrees) so
/// the structure stays readable when leaf spans are microseconds on a
/// multi-second axis; a trailing note counts everything hidden.
pub fn render_timeline(a: &Analysis, width: usize, max_rows: usize) -> String {
    let t0 = a
        .tree
        .roots
        .iter()
        .map(|&r| a.tree.nodes[r].open_t_us)
        .min()
        .unwrap_or(0);
    let t1 = a
        .tree
        .roots
        .iter()
        .map(|&r| a.tree.close_of(r))
        .max()
        .unwrap_or(t0)
        .max(t0 + 1);
    let span_us = t1 - t0;
    let mut rows: Vec<(usize, usize)> = Vec::new(); // (depth, idx)
    let mut hidden = 0usize;
    let mut stack: Vec<(usize, usize)> = a.tree.roots.iter().rev().map(|&r| (0usize, r)).collect();
    while let Some((depth, idx)) = stack.pop() {
        // Prune sub-cell spans (and their subtrees) below the roots.
        if depth > 0 && (a.tree.duration_us(idx) as u128 * width as u128) < span_us as u128 {
            hidden += 1 + descendants(&a.tree, idx);
            continue;
        }
        rows.push((depth, idx));
        for &c in a.tree.nodes[idx].children.iter().rev() {
            stack.push((depth + 1, c));
        }
    }
    let total = rows.len();
    rows.truncate(max_rows);
    let label_w = rows
        .iter()
        .map(|&(d, i)| 2 * d + a.tree.nodes[i].name.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<label_w$}  |{}|  span of {:.3} ms",
        "span",
        "-".repeat(width),
        us_to_ms(span_us)
    );
    for (depth, idx) in rows {
        let node = &a.tree.nodes[idx];
        let open = node.open_t_us - t0;
        let close = a.tree.close_of(idx) - t0;
        let lo = (open as u128 * width as u128 / span_us as u128) as usize;
        let hi = ((close as u128 * width as u128).div_ceil(span_us as u128) as usize)
            .clamp(lo + 1, width);
        let mut bar = String::with_capacity(width);
        for i in 0..width {
            bar.push(if i >= lo && i < hi { '#' } else { '.' });
        }
        let label = format!("{}{}", "  ".repeat(depth), node.name);
        let _ = writeln!(
            out,
            "{label:<label_w$}  |{bar}|  {:>9.3} ms{}",
            us_to_ms(a.tree.duration_us(idx)),
            if node.close_t_us.is_none() {
                "  (open at eof)"
            } else {
                ""
            }
        );
    }
    if total > max_rows {
        let _ = writeln!(out, "... ({} more spans)", total - max_rows);
    }
    if hidden > 0 {
        let _ = writeln!(out, "({hidden} sub-cell spans hidden)");
    }
    out
}

/// Number of descendants of `idx` (excluding `idx` itself).
fn descendants(tree: &SpanTree, idx: usize) -> usize {
    tree.nodes[idx]
        .children
        .iter()
        .map(|&c| 1 + descendants(tree, c))
        .sum()
}

#[allow(clippy::cast_precision_loss)]
fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Everything the `analyze` subcommand produced.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// The trace that was analyzed.
    pub log_path: PathBuf,
    /// Path of the Chrome trace-event JSON export.
    pub chrome_path: PathBuf,
    /// Path of the folded-stack flamegraph text.
    pub folded_path: PathBuf,
    /// Path of the per-name attribution CSV.
    pub csv_path: PathBuf,
    /// Rendered ASCII timeline.
    pub timeline: String,
    /// Summary tables (tree shape, per-name attribution, and — for
    /// schema-v3 logs with cross-node hops — per-link staleness
    /// attribution).
    pub tables: Vec<Table>,
    /// The analysis itself, for programmatic use.
    pub analysis: Analysis,
}

/// Runs the analyzer: reads and schema-validates `log_path` (default:
/// `<out>/trace_table1.jsonl`), reconstructs the span forest, and
/// writes the Chrome JSON, folded stacks, and attribution CSV next to
/// the other artifacts in `out`.
///
/// # Errors
///
/// I/O failures, a schema-invalid log, a log without span events, spans
/// nested deeper than [`MAX_SPAN_LEVELS`], or a Chrome JSON export that
/// fails to re-parse (encoder bug).
pub fn run(log_path: Option<&Path>, out: &Path) -> Result<AnalyzeReport, String> {
    let log_path = log_path.map_or_else(|| out.join("trace_table1.jsonl"), Path::to_path_buf);
    // Stream the log line by line: validation never buffers the raw
    // text, so multi-GB traces cost only the parsed events we keep.
    let reader = lb_telemetry::LogReader::open(&log_path)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let version = reader.version();
    let events = reader
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    let log = EventLog { version, events };
    let a = analyze(&log).map_err(|e| format!("{}: {e}", log_path.display()))?;
    if a.tree.nodes.is_empty() {
        return Err(format!(
            "{}: no span events (schema v{} log without spans — \
             re-run `experiments trace` to regenerate)",
            log_path.display(),
            log.version
        ));
    }

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let stem = log_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    let chrome = chrome_trace(&a);
    // Round-trip the export through the same parser that validates the
    // event log: a Chrome file we cannot re-parse is an encoder bug.
    json::parse(&chrome).map_err(|e| format!("chrome trace export is not valid JSON: {e}"))?;
    let chrome_path = out.join(format!("{stem}_chrome.json"));
    std::fs::write(&chrome_path, &chrome)
        .map_err(|e| format!("writing {}: {e}", chrome_path.display()))?;
    let folded_path = out.join(format!("{stem}_folded.txt"));
    std::fs::write(&folded_path, folded_stacks(&a))
        .map_err(|e| format!("writing {}: {e}", folded_path.display()))?;

    let mut tables = vec![render_shape(&a, &log), render_attribution(&a)];
    if let Some(staleness) = render_staleness(&log) {
        tables.push(staleness);
    }
    if let Some(sampling) = render_sampling(&log) {
        tables.push(sampling);
    }
    let csv_path = out.join(format!("{stem}_spans.csv"));
    tables[1]
        .write_csv(&csv_path)
        .map_err(|e| format!("writing {}: {e}", csv_path.display()))?;
    let timeline = render_timeline(&a, 60, 24);
    Ok(AnalyzeReport {
        log_path,
        chrome_path,
        folded_path,
        csv_path,
        timeline,
        tables,
        analysis: a,
    })
}

/// Sampling reweighting table — present only for head-sampled traces
/// (those carrying `sample.digest` aggregates). Kept counts come from
/// the surviving events; dropped counts from the digests; their sum is
/// the exact emitted total per event type, so attribution over a
/// sampled trace is reweightable without guessing at the rate.
fn render_sampling(log: &EventLog) -> Option<Table> {
    let dropped = crate::trace::digest_counts(log);
    if dropped.is_empty() {
        return None;
    }
    let mut t = Table::new(
        "Analyze: sampling reweighting (kept + dropped = emitted)".to_string(),
        vec![
            "event".to_string(),
            "kept".to_string(),
            "dropped".to_string(),
            "emitted".to_string(),
            "kept %".to_string(),
        ],
    );
    for (name, drop_count) in &dropped {
        let kept = log.count(name) as u64;
        let emitted = kept + drop_count;
        #[allow(clippy::cast_precision_loss)]
        let share = if emitted == 0 {
            100.0
        } else {
            100.0 * kept as f64 / emitted as f64
        };
        t.row(vec![
            name.clone(),
            kept.to_string(),
            drop_count.to_string(),
            emitted.to_string(),
            fmt(share),
        ]);
    }
    Some(t)
}

/// The forest-shape summary table.
fn render_shape(a: &Analysis, log: &EventLog) -> Table {
    let mut t = Table::new(
        "Analyze: span forest".to_string(),
        vec!["metric".to_string(), "value".to_string()],
    );
    let row = |t: &mut Table, k: &str, v: String| t.row(vec![k.to_string(), v]);
    row(&mut t, "events", log.events.len().to_string());
    row(&mut t, "spans", a.tree.nodes.len().to_string());
    row(&mut t, "roots", a.tree.roots.len().to_string());
    row(&mut t, "orphans", a.tree.orphans.to_string());
    row(&mut t, "open at eof", a.tree.open_at_eof.to_string());
    row(&mut t, "max depth", a.max_depth.to_string());
    row(&mut t, "wall (ms)", fmt(us_to_ms(a.wall_us)));
    row(&mut t, "critical path (ms)", fmt(us_to_ms(a.critical_us)));
    #[allow(clippy::cast_precision_loss)]
    let coverage = if a.wall_us == 0 {
        100.0
    } else {
        100.0 * a.critical_us as f64 / a.wall_us as f64
    };
    row(&mut t, "critical coverage (%)", fmt(coverage));
    t
}

/// The per-name attribution table, critical-path share first.
fn render_attribution(a: &Analysis) -> Table {
    let mut t = Table::new(
        "Analyze: per-name attribution (critical path first)".to_string(),
        vec![
            "span".to_string(),
            "count".to_string(),
            "critical ms".to_string(),
            "critical %".to_string(),
            "self ms".to_string(),
            "total ms".to_string(),
            "max ms".to_string(),
        ],
    );
    for s in &a.stats {
        #[allow(clippy::cast_precision_loss)]
        let share = if a.wall_us == 0 {
            0.0
        } else {
            100.0 * s.critical_us as f64 / a.wall_us as f64
        };
        t.row(vec![
            s.name.clone(),
            s.count.to_string(),
            fmt(us_to_ms(s.critical_us)),
            fmt(share),
            fmt(us_to_ms(s.self_us)),
            fmt(us_to_ms(s.total_us)),
            fmt(us_to_ms(s.max_us)),
        ]);
    }
    t
}

/// Accumulated charges for one directed network link.
#[derive(Default)]
struct LinkCharge {
    sends: u64,
    delivered: u64,
    lost: u64,
    dup_extras: u64,
    delay_us: u64,
    max_delay_us: u64,
    /// Delay charged to certifying chains (traces named by an
    /// `async.quiesce` event).
    cert_delay_us: u64,
    /// Hops of certifying chains this link lost (each one forced a
    /// retry or an anti-entropy round before the certificate could
    /// close).
    cert_lost: u64,
}

/// The per-link staleness attribution table, or `None` when the log
/// carries no cross-node hops (a legacy v2 trace, or a scenario
/// without the virtual network).
fn render_staleness(log: &EventLog) -> Option<Table> {
    // First pass: every send decision, keyed by its unique span id.
    // (t_us, from, to, trace, recv count, first-delivery t_us)
    let mut hops: BTreeMap<u64, (u64, u64, u64, u64, u64, u64)> = BTreeMap::new();
    let mut cert_traces: Vec<u64> = Vec::new();
    let u = |ev: &lb_telemetry::LogEvent, key: &str| ev.field(key).and_then(Json::as_u64);
    for ev in &log.events {
        match ev.name.as_str() {
            "xspan.send" => {
                if let (Some(span), Some(t), Some(from), Some(to), Some(trace)) = (
                    u(ev, "span"),
                    u(ev, "t_us"),
                    u(ev, "from"),
                    u(ev, "to"),
                    u(ev, "trace"),
                ) {
                    hops.insert(span, (t, from, to, trace, 0, 0));
                }
            }
            "xspan.recv" => {
                if let (Some(span), Some(t)) = (u(ev, "span"), u(ev, "t_us")) {
                    if let Some(h) = hops.get_mut(&span) {
                        if h.4 == 0 {
                            h.5 = t;
                        }
                        h.4 += 1;
                    }
                }
            }
            "async.quiesce" => {
                if let Some(trace) = u(ev, "trace") {
                    if trace != 0 {
                        cert_traces.push(trace);
                    }
                }
            }
            _ => {}
        }
    }
    if hops.is_empty() {
        return None;
    }

    // Second pass: fold the hops into per-link charges.
    let mut links: BTreeMap<(u64, u64), LinkCharge> = BTreeMap::new();
    for (t_send, from, to, trace, recvs, t_first) in hops.values() {
        let link = links.entry((*from, *to)).or_default();
        link.sends += 1;
        let certifying = cert_traces.contains(trace);
        if *recvs == 0 {
            link.lost += 1;
            if certifying {
                link.cert_lost += 1;
            }
        } else {
            link.delivered += 1;
            link.dup_extras += recvs - 1;
            let delay = t_first.saturating_sub(*t_send);
            link.delay_us += delay;
            link.max_delay_us = link.max_delay_us.max(delay);
            if certifying {
                link.cert_delay_us += delay;
            }
        }
    }

    let mut t = Table::new(
        "Analyze: per-link staleness attribution (xspan hops)".to_string(),
        vec![
            "link".to_string(),
            "sends".to_string(),
            "delivered".to_string(),
            "lost".to_string(),
            "loss %".to_string(),
            "dup extras".to_string(),
            "mean delay (ms)".to_string(),
            "max delay (ms)".to_string(),
            "cert delay (ms)".to_string(),
            "cert lost".to_string(),
        ],
    );
    for ((from, to), link) in &links {
        #[allow(clippy::cast_precision_loss)]
        let loss_pct = 100.0 * link.lost as f64 / link.sends as f64;
        #[allow(clippy::cast_precision_loss)]
        let mean_delay = if link.delivered == 0 {
            0.0
        } else {
            us_to_ms(link.delay_us) / link.delivered as f64
        };
        t.row(vec![
            format!("{from}->{to}"),
            link.sends.to_string(),
            link.delivered.to_string(),
            link.lost.to_string(),
            fmt(loss_pct),
            link.dup_extras.to_string(),
            fmt(mean_delay),
            fmt(us_to_ms(link.max_delay_us)),
            fmt(us_to_ms(link.cert_delay_us)),
            link.cert_lost.to_string(),
        ]);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_telemetry::schema::{encode_event_line, header_line};
    use lb_telemetry::FieldValue;

    type EventRow<'a> = (u64, &'a str, &'a [(&'static str, FieldValue)]);

    /// Builds a log from (t_us, open?, id, parent, name) tuples plus
    /// close rows as (t_us, id).
    fn log_from(events: &[EventRow<'_>]) -> EventLog {
        let mut text = format!("{}\n", header_line());
        for (seq, (t, name, fields)) in events.iter().enumerate() {
            let fields: Vec<(&'static str, FieldValue)> = fields.to_vec();
            text.push_str(&encode_event_line(seq as u64, *t, name, &fields));
            text.push('\n');
        }
        lb_telemetry::parse_log(&text).unwrap()
    }

    fn open(id: u64, name: &'static str) -> Vec<(&'static str, FieldValue)> {
        vec![("span", FieldValue::U64(id)), ("name", name.into())]
    }

    fn open_in(id: u64, parent: u64, name: &'static str) -> Vec<(&'static str, FieldValue)> {
        vec![
            ("span", FieldValue::U64(id)),
            ("parent", FieldValue::U64(parent)),
            ("name", name.into()),
        ]
    }

    fn close(id: u64) -> Vec<(&'static str, FieldValue)> {
        vec![("span", FieldValue::U64(id))]
    }

    /// root [0,100] with parallel children a [10,60] and b [20,90]:
    /// the backward walk charges root for [90,100], b for [20,90], then
    /// a for its uncovered tail [10,20], and root for [0,10].
    #[test]
    fn critical_path_walks_the_last_finishing_chain() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "a");
        let o3 = open_in(3, 1, "b");
        let log = log_from(&[
            (0, SPAN_OPEN, &o1),
            (10, SPAN_OPEN, &o2),
            (20, SPAN_OPEN, &o3),
            (60, SPAN_CLOSE, &close(2)),
            (90, SPAN_CLOSE, &close(3)),
            (100, SPAN_CLOSE, &close(1)),
        ]);
        let a = analyze(&log).unwrap();
        assert_eq!(a.tree.nodes.len(), 3);
        assert_eq!(a.tree.roots.len(), 1);
        assert_eq!(a.tree.orphans, 0);
        assert_eq!(a.wall_us, 100);
        assert_eq!(a.critical_us, a.wall_us, "attribution is exact");
        let by: BTreeMap<&str, u64> = a
            .stats
            .iter()
            .map(|s| (s.name.as_str(), s.critical_us))
            .collect();
        assert_eq!(by["root"], 20, "gaps [90,100] and [0,10]");
        assert_eq!(by["b"], 70);
        assert_eq!(by["a"], 10, "only the tail [10,20] b does not cover");
        // Self time: root covered 50+70=120 > 100 → clamps to 0.
        let root_stat = a.stats.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root_stat.self_us, 0);
        assert_eq!(root_stat.total_us, 100);
        assert_eq!(a.max_depth, 1);
    }

    #[test]
    fn sequential_children_attribute_gaps_to_the_parent() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "step");
        let o3 = open_in(3, 1, "step");
        let log = log_from(&[
            (0, SPAN_OPEN, &o1),
            (10, SPAN_OPEN, &o2),
            (30, SPAN_CLOSE, &close(2)),
            (40, SPAN_OPEN, &o3),
            (70, SPAN_CLOSE, &close(3)),
            (100, SPAN_CLOSE, &close(1)),
        ]);
        let a = analyze(&log).unwrap();
        let by: BTreeMap<&str, u64> = a
            .stats
            .iter()
            .map(|s| (s.name.as_str(), s.critical_us))
            .collect();
        assert_eq!(by["root"], 50, "gaps [0,10], [30,40], [70,100]");
        assert_eq!(by["step"], 50);
        assert_eq!(a.critical_us, 100);
        let root_stat = a.stats.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(root_stat.self_us, 50);
    }

    #[test]
    fn open_at_eof_spans_extend_to_log_end() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "child");
        let log = log_from(&[(0, SPAN_OPEN, &o1), (10, SPAN_OPEN, &o2), (50, "tick", &[])]);
        let a = analyze(&log).unwrap();
        assert_eq!(a.tree.open_at_eof, 2);
        assert_eq!(a.wall_us, 50);
        assert_eq!(a.critical_us, 50);
        assert_eq!(a.tree.duration_us(1), 40);
    }

    #[test]
    fn chrome_trace_round_trips_and_separates_overlapping_siblings() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "a");
        let o3 = open_in(3, 1, "b");
        let o4 = open_in(4, 2, "a.inner");
        let log = log_from(&[
            (0, SPAN_OPEN, &o1),
            (10, SPAN_OPEN, &o2),
            (20, SPAN_OPEN, &o3),
            (25, SPAN_OPEN, &o4),
            (40, SPAN_CLOSE, &close(4)),
            (60, SPAN_CLOSE, &close(2)),
            (90, SPAN_CLOSE, &close(3)),
            (100, SPAN_CLOSE, &close(1)),
        ]);
        let a = analyze(&log).unwrap();
        let text = chrome_trace(&a);
        let parsed = json::parse(&text).expect("chrome JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 4, "one X event per span");
        let tid_of = |name: &str| {
            xs.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("tid"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        // a nests inside root's lane; b overlaps a so it spills; a.inner
        // nests inside a.
        assert_eq!(tid_of("root"), tid_of("a"));
        assert_eq!(tid_of("a"), tid_of("a.inner"));
        assert_ne!(tid_of("root"), tid_of("b"));
        // Durations survive the round trip.
        let root_ev = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("root"))
            .unwrap();
        assert_eq!(root_ev.get("ts").and_then(Json::as_u64), Some(0));
        assert_eq!(root_ev.get("dur").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn folded_stacks_aggregate_self_time_per_stack() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "step");
        let o3 = open_in(3, 1, "step");
        let log = log_from(&[
            (0, SPAN_OPEN, &o1),
            (10, SPAN_OPEN, &o2),
            (30, SPAN_CLOSE, &close(2)),
            (40, SPAN_OPEN, &o3),
            (70, SPAN_CLOSE, &close(3)),
            (100, SPAN_CLOSE, &close(1)),
        ]);
        let a = analyze(&log).unwrap();
        let folded = folded_stacks(&a);
        assert!(folded.contains("root 50\n"), "{folded}");
        assert!(folded.contains("root;step 50\n"), "{folded}");
    }

    #[test]
    fn timeline_renders_a_bar_per_span_and_caps_rows() {
        let o1 = open(1, "root");
        let o2 = open_in(2, 1, "child");
        let log = log_from(&[
            (0, SPAN_OPEN, &o1),
            (25, SPAN_OPEN, &o2),
            (75, SPAN_CLOSE, &close(2)),
            (100, SPAN_CLOSE, &close(1)),
        ]);
        let a = analyze(&log).unwrap();
        let text = render_timeline(&a, 20, 10);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 spans: {text}");
        assert!(lines[1].contains("root"));
        assert!(lines[1].contains("####################"), "{text}");
        assert!(lines[2].contains("  child"));
        let capped = render_timeline(&a, 20, 1);
        assert!(capped.contains("(1 more spans)"), "{capped}");
    }

    #[test]
    fn analyze_reconstructs_a_real_trace_end_to_end() {
        let dir = std::env::temp_dir().join(format!("lb_analyze_test_{}", std::process::id()));
        let report = crate::trace::run(&dir, false).unwrap();
        let out = run(Some(&report.log_path), &dir).unwrap();
        let a = &out.analysis;
        assert_eq!(a.tree.orphans, 0, "every span's parent resolves");
        assert_eq!(a.tree.open_at_eof, 0, "clean shutdown closes all spans");
        assert!(a.critical_us >= a.wall_us * 95 / 100, "coverage >= 95%");
        assert!(a.max_depth >= 2, "solver/ring/sim trees all nest");
        let names: Vec<&str> = a.stats.iter().map(|s| s.name.as_str()).collect();
        for expect in [
            "solver.solve",
            "solver.sweep",
            "solver.best_reply",
            "ring.run",
            "ring.round",
            "ring.hold",
            "sim.run",
            "runner.pool",
            "runner.worker",
            "sim.replication",
            "des.batch",
            "sim.churn",
            "sim.phase_run",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        assert!(out.chrome_path.exists());
        assert!(out.folded_path.exists());
        assert!(out.csv_path.exists());
        // The v3 trace carries cross-node hops, so the staleness
        // attribution table rides along (shape, attribution, staleness).
        assert_eq!(out.tables.len(), 3);
        assert!(
            out.tables[2].render().contains("staleness attribution"),
            "{}",
            out.tables[2].render()
        );
        assert!(!out.tables[2].is_empty(), "at least one link row");
        let chrome = std::fs::read_to_string(&out.chrome_path).unwrap();
        let parsed = json::parse(&chrome).expect("chrome JSON re-parses");
        let n_x = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(n_x, a.tree.nodes.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staleness_attribution_charges_links_for_loss_delay_and_certification() {
        let send = |span: u64, trace: u64, t: u64, from: u64, to: u64| {
            vec![
                ("t_us", FieldValue::U64(t)),
                ("trace", FieldValue::U64(trace)),
                ("span", FieldValue::U64(span)),
                ("parent", FieldValue::U64(0)),
                ("from", FieldValue::U64(from)),
                ("to", FieldValue::U64(to)),
            ]
        };
        let recv = |span: u64, trace: u64, t: u64, from: u64, to: u64| {
            vec![
                ("t_us", FieldValue::U64(t)),
                ("trace", FieldValue::U64(trace)),
                ("span", FieldValue::U64(span)),
                ("from", FieldValue::U64(from)),
                ("to", FieldValue::U64(to)),
            ]
        };
        // Link 1->0 carries three hops: one duplicated (two deliveries
        // of span 11, delay 250 us), one lost (span 12), one delivered
        // on the certifying trace 200 (span 13, delay 100 us). Link
        // 2->0 delivers span 14 cleanly.
        let quiesce = vec![
            ("t_us", FieldValue::U64(5_000)),
            ("trace", FieldValue::U64(200)),
        ];
        let s11 = send(11, 100, 1_000, 1, 0);
        let r11a = recv(11, 100, 1_250, 1, 0);
        let r11b = recv(11, 100, 1_400, 1, 0);
        let s12 = send(12, 100, 2_000, 1, 0);
        let s13 = send(13, 200, 3_000, 1, 0);
        let r13 = recv(13, 200, 3_100, 1, 0);
        let s14 = send(14, 300, 4_000, 2, 0);
        let r14 = recv(14, 300, 4_400, 2, 0);
        let log = log_from(&[
            (1_000, "xspan.send", &s11),
            (1_250, "xspan.recv", &r11a),
            (1_400, "xspan.recv", &r11b),
            (2_000, "xspan.send", &s12),
            (3_000, "xspan.send", &s13),
            (3_100, "xspan.recv", &r13),
            (4_000, "xspan.send", &s14),
            (4_400, "xspan.recv", &r14),
            (5_000, "async.quiesce", &quiesce),
        ]);
        let t = render_staleness(&log).expect("xspan hops present");
        assert_eq!(t.len(), 2, "one row per link");
        let rendered = t.render();
        // Link 1->0: 3 sends, 2 delivered, 1 lost (33.3%), 1 dup
        // extra, mean delay (250+100)/2 = 175 us, max 250 us; the
        // certifying trace was charged 100 us and lost nothing.
        assert!(rendered.contains("1->0"), "{rendered}");
        assert!(rendered.contains("33.3333"), "{rendered}");
        assert!(rendered.contains("0.1750"), "{rendered}");
        assert!(rendered.contains("0.2500"), "{rendered}");
        assert!(rendered.contains("0.1000"), "{rendered}");
        assert!(rendered.contains("2->0"), "{rendered}");

        // A log without hops produces no table.
        let plain = log_from(&[(0, "solver.start", &[])]);
        assert!(render_staleness(&plain).is_none());
    }

    /// Writes a chain of `levels` spans, each opened inside the last and
    /// closed innermost first, as a log file under `dir`.
    fn chain_log(dir: &Path, levels: u64) -> PathBuf {
        let mut text = format!("{}\n", header_line());
        let opens = (1..=levels).map(|id| match id {
            1 => (SPAN_OPEN, open(1, "nest")),
            _ => (SPAN_OPEN, open_in(id, id - 1, "nest")),
        });
        let closes = (1..=levels).rev().map(|id| (SPAN_CLOSE, close(id)));
        for (seq, (name, fields)) in opens.chain(closes).enumerate() {
            text.push_str(&encode_event_line(seq as u64, seq as u64, name, &fields));
            text.push('\n');
        }
        let path = dir.join(format!("chain_{levels}.jsonl"));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn spans_nested_past_the_cap_are_an_error_not_a_stack_overflow() {
        let dir = std::env::temp_dir().join(format!("lb_analyze_deep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let deep = chain_log(&dir, 50_000);
        let err = run(Some(&deep), &dir).unwrap_err();
        assert!(err.contains("spans nest 50000 levels deep"), "{err}");
        let err = crate::diff::run(&deep, &deep).unwrap_err();
        assert!(err.contains("at most 128"), "{err}");
        let err = run(Some(&chain_log(&dir, 129)), &dir).unwrap_err();
        assert!(err.contains("129 levels"), "{err}");
        // Real traces nest six levels (depth 5); both they and a chain
        // exactly at the cap still analyze and diff.
        for levels in [6, MAX_SPAN_LEVELS as u64] {
            let path = chain_log(&dir, levels);
            let out = run(Some(&path), &dir).unwrap();
            assert_eq!(out.analysis.max_depth as u64, levels - 1);
            assert!(crate::diff::run(&path, &path)
                .unwrap()
                .verdict
                .is_identical());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_span_free_logs() {
        let dir = std::env::temp_dir().join(format!("lb_analyze_nospan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plain.jsonl");
        let text = format!(
            "{}\n{}\n",
            header_line(),
            encode_event_line(0, 0, "solver.start", &[])
        );
        std::fs::write(&path, text).unwrap();
        let err = run(Some(&path), &dir).unwrap_err();
        assert!(err.contains("no span events"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
