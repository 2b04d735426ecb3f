//! `twq-obs`: unified observability for every `twq` evaluator.
//!
//! The paper's results are statements about *resources* — steps, store
//! cardinalities, look-ahead depth, message counts. This crate gives every
//! evaluator one instrumentation seam to measure them:
//!
//! * [`Collector`] — the hook trait threaded through the hot loops.
//!   [`NullCollector`] (`ENABLED = false`) monomorphizes to the
//!   uninstrumented loop at zero cost; a pair `(A, B)` of collectors
//!   feeds both from one run.
//! * [`RunMetrics`] via [`MetricsCollector`] — allocation-free counters:
//!   steps per state, `atp` depth and fan-out, register-store and
//!   cycle-check high-water marks, FO-evaluation call counts, tape cells,
//!   protocol messages, phase timings.
//! * [`Registry`] — session aggregates: named counters/gauges and
//!   [`Histogram`]/[`DenseHistogram`] latencies (log2-bucketed, exact
//!   value counts), with delta [`Snapshot`]s and JSONL export.
//! * [`Trace`] via [`TraceCollector`] — the record of what happened: the
//!   run as a span tree with deterministic causal IDs, each span's last
//!   walk steps and FO tallies, witness valuations, and frontiers. Every
//!   event-level view is a fold over it: the flame profile
//!   ([`Trace::collapsed_with`], [`Trace::top_self`]), the
//!   [`post_mortem`] of the decisive span, [`explain_verdict`] ("why
//!   accepted / why rejected"), and [`diff`], which pinpoints the first
//!   [`Divergence`] between two traces of the same input.
//! * [`report`] — the experiment reporting layer: the same stream of
//!   tables rendered as aligned text or as JSON Lines.
//! * [`json`] — a small self-contained JSON value/writer/parser (the
//!   build environment is offline, so no `serde_json`).
//!
//! That is the one-model rule: the trace is the only event-level record
//! of a run. Metrics and the registry keep counts and aggregates, and
//! every other view of what happened is computed from the trace.
//!
//! The crate deliberately depends on nothing, not even the other `twq`
//! crates: evaluators describe themselves in primitive terms (state ids,
//! node indices, halt kinds), so `twq-obs` sits below every other crate
//! in the dependency order.

#![warn(missing_docs)]

pub mod collect;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod trace;

pub use collect::{Collector, MetricsCollector, NullCollector, PhaseTimer};
pub use event::{FoEval, HaltKind};
pub use hist::{DenseHistogram, Histogram};
pub use json::Json;
pub use metrics::RunMetrics;
pub use registry::{Registry, Snapshot};
pub use report::{col, Cell, Col, HumanReporter, JsonlReporter, Reporter};
pub use trace::{
    diff, explain_verdict, post_mortem, Divergence, Namer, Span, SpanKind, Trace, TraceCollector,
    TraceDepth, Verdict,
};
