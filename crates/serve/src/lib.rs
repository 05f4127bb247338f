//! # kserve — an online K-RAD scheduling service
//!
//! Turns the offline simulator into a daemon: jobs arrive over a
//! newline-delimited JSON protocol (TCP, and a Unix socket on Unix),
//! are admitted into a bounded queue with explicit backpressure, and
//! are injected into the *same* [`ksim::LiveSimulation`] step loop the
//! offline batch path uses, one quantum at a time. That shared engine
//! is the deterministic replay bridge: every session's log yields a
//! canonical arrival trace ([`SessionTrace`]) which, replayed through
//! offline [`ksim::simulate`], reproduces the live per-job completion
//! times byte for byte — so the paper's bounds and checkers apply to
//! live sessions unmodified.
//!
//! Since the kswarm rework the daemon is multi-tenant: a session
//! *registry* maps names to fully isolated scheduling domains (own
//! engine, scheduler, journal, trace assembler), a *sharded worker
//! pool* runs their quantum loops across cores, and a poll-based
//! *reactor* multiplexes every client connection on one thread. The
//! implicit `default` session keeps the single-tenant wire behaviour
//! byte for byte.
//!
//! * [`protocol`] — requests, replies, streamed completion events;
//! * [`server`] — protocol dispatch, admission, and daemon lifecycle;
//! * [`metrics`] — the live metrics registry (admission counters,
//!   paper-semantic per-category gauges, Theorem 3 bound accumulators,
//!   DEQ/RR mode-residency tracking) behind the `metrics` verb and the
//!   optional plain-HTTP `/metrics` scrape listener;
//! * [`journal`] — the durability bridge: write-ahead session journal,
//!   snapshot images, and deterministic-replay recovery for hot restart;
//! * [`client`] — a blocking protocol client;
//! * [`loadgen`] — a multi-threaded closed-loop load generator;
//! * [`replay`] — the session trace and its byte-for-byte verifier.
//!
//! The daemon also carries a [`ktelemetry::FlightRecorder`]: a
//! fixed-capacity ring holding the last engine/scheduler events, dumped
//! as JSONL at drain (and on a scheduler-thread panic) so the tail of
//! any session can be cross-checked against the deterministic replay.

#![deny(missing_docs)]
// The reactor's poll(2) binding is the single audited exception to the
// crate's no-unsafe rule (hand-rolled FFI; no libc dependency).
#![deny(unsafe_code)]

pub mod client;
pub mod journal;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub(crate) mod reactor;
pub(crate) mod registry;
pub mod replay;
pub mod server;
pub(crate) mod shard;

pub use client::Client;
pub use journal::{JournalHealth, SessionJournal};
pub use loadgen::{run_loadgen, ArrivalKind, LoadgenConfig, LoadgenReport};
pub use metrics::{ModeTracker, ServiceMetrics};
pub use protocol::{Event, HelloReply, Request, Response, TraceReply, PROTOCOL_VERSION};
pub use replay::{SessionTrace, TraceJob};
pub use server::{Server, ServerConfig};
