//! # ktelemetry — zero-cost instrumentation for the K-RAD workspace
//!
//! The paper's claims are about *mechanism dynamics*: when a category
//! flips between DEQ and round-robin, how much allotment is wasted,
//! how idle intervals accrue toward the Lemma 2 bound. This crate
//! provides the event layer the simulator and schedulers emit into:
//!
//! * [`TelemetryEvent`] — the structured event schema (run lifecycle,
//!   per-step accounting, per-decision scheduler snapshots);
//! * [`TelemetrySink`] — where events go: [`NoopSink`] (disabled, costs
//!   one branch on the hot path), [`RecordingSink`] (in-memory, for
//!   tests and summaries), [`JsonlSink`] (one JSON object per line),
//!   [`FanoutSink`] (several sinks at once);
//! * [`TelemetryHandle`] — the cheap clonable handle instrumented code
//!   holds. `emit` takes a closure so event construction is skipped
//!   entirely when telemetry is off — the uninstrumented fast path is a
//!   single boolean test;
//! * [`Histogram`] — a dependency-free fixed-bucket histogram;
//! * [`MetricsRegistry`] — named, labeled metric families
//!   ([`CounterHandle`] / [`GaugeHandle`] / [`HistogramHandle`],
//!   lock-free atomic handles) with a Prometheus-compatible text
//!   exposition encoder for live scrapes;
//! * [`FlightRecorder`] — a fixed-capacity ring buffer sink retaining
//!   the last N events with zero steady-state allocation, for
//!   post-mortem dump and replay;
//! * [`SpanRecorder`] — monotonic span timing (`quantum`, `ready`,
//!   `decide`, `deq_allot`, `rr_cycle`, `execute`) feeding the
//!   registry and/or lock-free per-phase profile totals
//!   ([`PhaseStat`]) for offline per-phase breakdowns;
//! * [`JobTrace`] / [`TraceAssembler`] — ktrace, the per-job lifecycle
//!   span model (release → activation → first allotment → execution
//!   segments → completion) assembled deterministically from event
//!   streams, with optional service-layer wall stamps
//!   ([`TraceStamps`]);
//! * [`json`] — the workspace's one JSON codec (value model, parser,
//!   escaper, compact and pretty writers), the record codec every wire
//!   message is declared with ([`schema!`]), and the JSONL
//!   encoder/parser for the event schema; the crate has zero
//!   dependencies.
//!
//! Everything is plain `std`; no external tracing or metrics crates.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod event;
mod flight;
pub mod json;
mod metrics;
mod registry;
mod sink;
mod spans;
mod trace;

pub use event::{interest, SchedulerMode, TelemetryEvent};
pub use flight::{flight_dump_header, FlightRecorder, FLIGHT_DUMP_SCHEMA, FLIGHT_DUMP_VERSION};
pub use metrics::Histogram;
pub use registry::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
pub use sink::{
    FanoutSink, JsonlSink, NoopSink, RecordingSink, SharedSink, TelemetryHandle, TelemetrySink,
};
pub use spans::{PhaseStat, SpanKind, SpanRecorder};
pub use trace::{assemble_traces, ExecSegment, JobTrace, TraceAssembler, TraceStamps};
