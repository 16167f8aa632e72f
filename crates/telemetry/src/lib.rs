//! `lb-telemetry`: a zero-external-dependency structured observability
//! layer, in the spirit of the `compat/` shims.
//!
//! The crate's parts:
//!
//! - [`Collector`]: the event/span sink trait the runtime crates are
//!   instrumented against. Hot paths hold an
//!   `Option<Arc<dyn Collector>>` that defaults to `None`, so the
//!   disabled path is a single pointer check (budget: <1% overhead on
//!   the solver benchmarks, measured by the `bench` subcommand).
//!   Implementations: [`NullCollector`] (enabled-but-discarding, for
//!   overhead measurement), [`JsonlCollector`] (append-only versioned
//!   event log), [`StderrCollector`] (human-readable CLI progress),
//!   [`TeeCollector`] (fan-out), [`MemoryCollector`] (tests).
//! - [`schema`]: the versioned JSONL event-log format — a header line
//!   `{"schema":"lb-telemetry","version":2}` followed by one event
//!   object per line — plus a parser/validator ([`parse_log`]) built on
//!   the minimal JSON codec in [`json`].
//! - `span`: causal spans ([`Span`], [`SpanHandle`]) layered on the flat
//!   event stream as `span_open`/`span_close` events, giving logs a
//!   reconstructable parent/child tree for critical-path analysis.
//! - [`MetricsRegistry`]: counters, gauges, and log-linear histograms
//!   with p50/p95/p99, exportable as JSON and Prometheus text format
//!   (strictly checkable via [`validate_exposition`]).
//! - `slo`: declarative [`SloSpec`] objectives evaluated online by
//!   the multi-window burn-rate [`SloEngine`], which folds the event
//!   stream into each SLO's own sliding windows over a virtual-time
//!   watermark (no full-log buffering) and emits deterministic
//!   `alert.fire`/`alert.clear` events.
//! - `serve`: [`LiveServer`], a zero-dep `TcpListener` HTTP endpoint
//!   exposing `/metrics`, `/healthz`, and `/trace/recent` from live
//!   state while a scenario runs.
//! - `sample`: [`SamplingCollector`], deterministic seed-keyed head
//!   sampling with exact reweighting via `sample.digest` aggregates,
//!   for web-scale traces with bounded size.
//!
//! Resource accounting needs no type of its own: each subsystem keeps
//! plain counters and emits them as one `account.*` event, every field
//! an integer, at its snapshot points.
//!
//! Instrumentation never perturbs results: nothing ever flows back
//! from a collector into the computation, and emit sites are
//! clock-free (collectors stamp `seq`/`t_us`). The experiment CSVs are
//! byte-identical with collection on or off (property-tested in
//! `lb-sim` and asserted end-to-end in `lb-experiments`).

#![forbid(unsafe_code)]

pub(crate) mod collectors;
pub(crate) mod event;
pub mod json;
pub(crate) mod metrics;
pub(crate) mod sample;
pub mod schema;
pub(crate) mod serve;
pub(crate) mod slo;
pub(crate) mod span;

pub use collectors::{JsonlCollector, MemoryCollector, StderrCollector, TeeCollector};
pub use event::{enabled, Collector, Field, FieldValue, NullCollector};
pub use json::Json;
pub use metrics::{validate_exposition, MetricsRegistry};
pub use sample::{SamplingCollector, SamplingConfig};
pub use schema::{parse_log, EventLog, LogEvent, LogReader, SCHEMA_VERSION};
pub use serve::LiveServer;
pub use slo::{AlertState, SloEngine, SloSpec, SloVerdict};
pub use span::{Span, SpanHandle, SPAN_CLOSE, SPAN_OPEN};
