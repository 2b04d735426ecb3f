//! `twq-obs`: unified observability for every `twq` evaluator.
//!
//! The paper's results are statements about *resources* — steps, store
//! cardinalities, look-ahead depth, message counts. This crate gives every
//! evaluator one instrumentation seam to measure them:
//!
//! * [`Collector`] — the hook trait threaded through the hot loops.
//!   [`NullCollector`] (`ENABLED = false`) monomorphizes to the
//!   uninstrumented loop at zero cost; [`MetricsCollector`] records
//!   [`RunMetrics`] and optionally forwards span-style [`Event`]s to a
//!   sink.
//! * [`RunMetrics`] — steps per state, `atp` depth and fan-out,
//!   register-store and cycle-check high-water marks, FO-evaluation call
//!   counts, tape cells, protocol messages, phase timings.
//! * Sinks — [`JsonlSink`] (one JSON object per event), [`RingBufferSink`]
//!   (the last `N` events, for post-mortems of `Stuck`/`Nondeterministic`
//!   halts), [`TeeSink`] (fan one stream out to two sinks).
//! * `twq-prof` — the profiling layer on top of the seam:
//!   [`Histogram`]/[`DenseHistogram`] (log2-bucketed latencies, exact
//!   value counts), [`Registry`] (named counters/gauges/histograms with
//!   delta [`Snapshot`]s and JSONL export), and [`FlameProfiler`] (a
//!   span-stack self-time profiler over the event stream emitting
//!   flamegraph-collapsed stacks).
//! * `twq-trace` — the causal trace layer: [`TraceCollector`] records a
//!   run as a [`Trace`] span tree with deterministic causal IDs, witness
//!   valuations, and walk paths; [`diff`] pinpoints the first
//!   [`Divergence`] between two traces of the same input; and
//!   [`explain_verdict`] answers "why accepted / why rejected".
//! * [`report`] — the experiment reporting layer: the same stream of
//!   tables rendered as aligned text or as JSON Lines.
//! * [`json`] — a small self-contained JSON value/writer/parser (the
//!   build environment is offline, so no `serde_json`).
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
pub mod profile;
pub mod registry;
pub mod report;
pub mod sink;
pub mod trace;

pub use collect::{Collector, MetricsCollector, NullCollector, PhaseTimer};
pub use event::{Event, FoEval, HaltKind};
pub use hist::{DenseHistogram, Histogram};
pub use json::Json;
pub use metrics::RunMetrics;
pub use profile::{FlameProfiler, Frame};
pub use registry::{Registry, Snapshot};
pub use report::{col, Cell, Col, HumanReporter, JsonlReporter, Reporter};
pub use sink::{EventSink, JsonlSink, RingBufferSink, TeeSink};
pub use trace::{
    diff, explain_verdict, Divergence, Namer, Span, SpanKind, Trace, TraceCollector, TraceDepth,
    Verdict,
};
