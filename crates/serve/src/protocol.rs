//! The newline-delimited JSON protocol the daemon speaks.
//!
//! One request per line, one reply line per request; a `submit` with
//! `"watch": true` additionally streams [`Event`] lines after the
//! reply until every job of that submission has completed.
//!
//! Encoding is canonical — fixed field order, no whitespace — so a
//! reply can be compared byte-for-byte (the replay bridge relies on
//! this for completion vectors). Each message's fields are declared
//! once, in wire order, with [`ktelemetry::schema!`]; that one list
//! drives both encode and decode.

use crate::replay::SessionTrace;
use kdag::DagSpec;
use ksim::Time;
use ktelemetry::json::{self, Value};
use ktelemetry::schema;
use ktelemetry::{ExecSegment, JobTrace, TraceStamps};

/// Wire-protocol version, reported in `hello` and `stats` replies.
///
/// Every message is declared once with [`ktelemetry::schema!`] and
/// decoded by one rule: an absent field takes its declared default (or
/// is an error if required), a present field of the wrong type or out
/// of range is an error naming the field, and an unknown key is
/// ignored. Each version below only added fields, each defaulted or
/// omitted-when-empty with the value an older peer meant by leaving it
/// out, so every older line is a valid current line.
///
/// Version history:
/// * **1** — the original verb set (implicit: replies carry no
///   `"version"` field, which defaults to 1).
/// * **2** — adds the `hello` verb, the `"version"` field on
///   `hello`/`stats`, and `"time_policy"` on `stats`.
/// * **3** — adds `"durability"` on `hello` and the journal health
///   fields (`"durability"`, `"journal_*"`, `"last_recovery_ms"`) on
///   `stats`. Absent, they mean journaling off.
/// * **4** — ktrace: adds the `trace` verb (per-job span tree),
///   `"trace_ids"` on `submitted` replies, `"trace_id"` on `job_done`
///   events, and the response-time/slowdown fields (`"response_*"`,
///   `"slowdown_*"`) on `stats`. Absent, they mean a pre-tracing
///   server.
/// * **5** — kswarm multi-tenancy: adds the `open`/`close` verb pair
///   (named sessions with per-session scheduler/quota overrides), an
///   optional `"session"` field on `submit`/`status`/`stats`/
///   `cancel`/`trace`/`drain` (absent means the implicit `default`
///   session — every v4 line is a valid v5 line), and `"session"`/
///   `"sessions"` on `stats` replies. A bare `drain` still drains the
///   whole daemon and replies with the default session's report, so
///   v4 clients observe identical bytes.
pub const PROTOCOL_VERSION: u64 = 5;

/// A reference to a server-side generated `kworkloads` scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioRef {
    /// Scenario family: `pipeline`, `mapreduce`, or `mixed-server`.
    pub name: String,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Generator seed.
    pub seed: u64,
}

/// Per-session configuration overrides carried by an `open` request
/// (v5+). Every field is optional; absent fields inherit the daemon's
/// defaults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionSpec {
    /// Scheduler label (e.g. `k-rad`, `equi`).
    pub scheduler: Option<String>,
    /// Selection-policy label (e.g. `fifo`).
    pub policy: Option<String>,
    /// Scheduling quantum in engine steps.
    pub quantum: Option<u64>,
    /// Engine/scheduler RNG seed.
    pub seed: Option<u64>,
    /// Submission-queue bound.
    pub queue_capacity: Option<u64>,
    /// Admitted-but-incomplete bound.
    pub max_inflight: Option<u64>,
    /// Admission rate limit in jobs per second (token bucket); absent
    /// or 0 disables the limit.
    pub rate_per_sec: Option<f64>,
    /// Token-bucket burst size (jobs admitted above the steady rate).
    pub burst: Option<u64>,
}

/// A client request (one per line).
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit jobs: inline DAG specs, or a scenario reference the
    /// server expands. `watch` keeps the connection streaming
    /// completion events for the submitted jobs.
    Submit {
        /// Inline K-DAGs.
        jobs: Vec<DagSpec>,
        /// Server-side scenario expansion (used when `jobs` is empty).
        scenario: Option<ScenarioRef>,
        /// Stream completion events after the reply.
        watch: bool,
        /// Target session (v5+; empty means `default`).
        session: String,
    },
    /// Identify the server: protocol version, scheduler, clock policy.
    Hello,
    /// Per-job states and engine clock.
    Status {
        /// Target session (v5+; empty means `default`).
        session: String,
    },
    /// Service counters and latency metrics.
    Stats {
        /// Target session (v5+; empty means `default`).
        session: String,
    },
    /// The live metrics registry in Prometheus text exposition format.
    Metrics,
    /// Cancel a still-queued job.
    Cancel {
        /// Server-assigned job id.
        job: u64,
        /// Target session (v5+; empty means `default`).
        session: String,
    },
    /// The assembled ktrace span tree of one job (v4+).
    Trace {
        /// Server-assigned job id.
        job: u64,
        /// Target session (v5+; empty means `default`).
        session: String,
    },
    /// Create (or attach to) a named session (v5+).
    Open {
        /// Session name (`[A-Za-z0-9._-]`, at most 64 chars).
        session: String,
        /// Configuration overrides for a newly created session.
        spec: SessionSpec,
    },
    /// Drain and destroy a named session (v5+). The reply carries the
    /// session's final counters and canonical trace.
    Close {
        /// Session name.
        session: String,
    },
    /// Stop admission, finish in-flight work, report the session
    /// trace. With a session name this drains that session only; bare
    /// `drain` drains every session and stops the daemon (legacy v4
    /// semantics).
    Drain {
        /// Target session (v5+; empty drains the whole daemon).
        session: String,
    },
}

/// The lifecycle of one submitted job, as reported by `status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for the quantum loop to inject it.
    Queued,
    /// Cancelled while still queued.
    Cancelled,
    /// Injected into the engine and not yet complete.
    Running,
    /// Complete.
    Done,
}

impl JobState {
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Cancelled => "cancelled",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }

    fn from_name(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "cancelled" => JobState::Cancelled,
            "running" => JobState::Running,
            "done" => JobState::Done,
            _ => return None,
        })
    }
}

/// One row of a `status` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Virtual release time (assigned at injection).
    pub release: Option<Time>,
    /// Virtual completion time (once done).
    pub completion: Option<Time>,
}

/// The `hello` reply body: enough for a client to pick compatible
/// verbs and for wire-protocol evolution to be detectable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloReply {
    /// [`PROTOCOL_VERSION`] of the serving daemon (absent on the wire
    /// means a pre-versioning v1 server).
    pub version: u64,
    /// Label of the scheduling policy serving the session.
    pub scheduler: String,
    /// Engine clock policy label (`unit` or `event`).
    pub time_policy: String,
    /// Scheduling quantum (engine steps per decision).
    pub quantum: u64,
    /// Engine virtual time at the reply.
    pub now: Time,
    /// Durability mode: `off` (no journal) or `wal:<fsync policy>`,
    /// e.g. `wal:interval:50`. Decodes as `off` from older servers.
    pub durability: String,
}

/// The `status` reply body.
#[derive(Clone, Debug, PartialEq)]
pub struct StatusReply {
    /// Engine virtual time.
    pub now: Time,
    /// Jobs admitted but not yet injected.
    pub queued: u64,
    /// Jobs running in the engine.
    pub active: u64,
    /// Whether the server is draining.
    pub draining: bool,
    /// Per-job states, in id order.
    pub jobs: Vec<JobStatus>,
}

/// The `stats` reply body.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReply {
    /// Jobs accepted (acked) so far.
    pub admitted: u64,
    /// Submissions refused with backpressure.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Current submission-queue depth.
    pub queue_depth: u64,
    /// High-water mark of the submission queue.
    pub max_queue_depth: u64,
    /// Engine virtual time.
    pub now: Time,
    /// Simulated busy steps.
    pub busy_steps: u64,
    /// Fast-forwarded idle steps.
    pub idle_steps: u64,
    /// Quantum-loop iterations executed.
    pub quanta: u64,
    /// Mean wall-clock latency of one quantum, in microseconds.
    pub quantum_latency_mean_us: f64,
    /// Median quantum latency (histogram-interpolated), microseconds.
    pub quantum_latency_p50_us: f64,
    /// 95th-percentile quantum latency, microseconds.
    pub quantum_latency_p95_us: f64,
    /// 99th-percentile quantum latency, microseconds.
    pub quantum_latency_p99_us: f64,
    /// Wall-clock seconds since the daemon started.
    pub uptime_secs: f64,
    /// Mean wall time of the ready-set maintenance phase per busy
    /// step, microseconds (0 until the engine records spans).
    pub phase_ready_mean_us: f64,
    /// Mean wall time of one scheduler decide phase, microseconds.
    pub phase_decide_mean_us: f64,
    /// Mean wall time of one DEQ allotment branch, microseconds.
    pub phase_deq_allot_mean_us: f64,
    /// Mean wall time of one RR cycling branch, microseconds.
    pub phase_rr_cycle_mean_us: f64,
    /// Mean wall time of the execute/commit phase per busy step,
    /// microseconds.
    pub phase_execute_mean_us: f64,
    /// Label of the scheduling policy serving the session.
    pub scheduler: String,
    /// [`PROTOCOL_VERSION`] of the serving daemon (decoded as 1 when
    /// the field is absent — a pre-versioning server).
    pub version: u64,
    /// Engine clock policy label (`unit` or `event`; empty from
    /// pre-versioning servers).
    pub time_policy: String,
    /// Durability mode: `off` or `wal:<fsync policy>` (v3+; decodes
    /// as `off` from older servers).
    pub durability: String,
    /// Records appended to the journal since open.
    pub journal_records: u64,
    /// Bytes committed to the journal since open.
    pub journal_bytes: u64,
    /// fsync(2) calls issued by the journal since open.
    pub journal_fsyncs: u64,
    /// Snapshots written since open.
    pub journal_snapshots: u64,
    /// WAL records past the last snapshot — the replay lag a restart
    /// would pay.
    pub journal_tail_records: u64,
    /// Wall-clock milliseconds the last journal recovery took
    /// (0 when the session did not start from a journal).
    pub last_recovery_ms: f64,
    /// Completed jobs with recorded response times (v4+).
    pub response_jobs: u64,
    /// Mean response time over completed jobs, engine steps (v4+).
    pub response_mean_steps: f64,
    /// 99th-percentile response time, engine steps (v4+).
    pub response_p99_steps: f64,
    /// Mean slowdown (response/span) in milli-units (v4+).
    pub slowdown_mean_milli: f64,
    /// 99th-percentile slowdown in milli-units (v4+).
    pub slowdown_p99_milli: f64,
    /// Mean response per dominant category, engine steps (v4+).
    pub response_mean_steps_by_cat: Vec<f64>,
    /// Mean slowdown per dominant category, milli-units (v4+).
    pub slowdown_mean_milli_by_cat: Vec<f64>,
    /// Name of the session these stats describe (v5+; empty from
    /// older servers, meaning the only session there is).
    pub session: String,
    /// Sessions currently live in the daemon's registry (v5+; 0 from
    /// older single-session servers).
    pub sessions: u64,
}

/// The `trace` reply body: one job's assembled lifecycle span tree
/// (v4+). Engine-time fields are absent until the corresponding event
/// has been observed; wall-clock stamps are nanoseconds since the
/// daemon's monotonic epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReply {
    /// Server-assigned job id.
    pub job: u64,
    /// Session-unique trace id (`<session-nonce>-<job>`).
    pub trace_id: String,
    /// Lifecycle state (`queued`/`cancelled`/`running`/`done`).
    pub state: String,
    /// Virtual release time `r(Ji)`.
    pub release: Option<u64>,
    /// Step at which the job entered the active set.
    pub activated: Option<u64>,
    /// Decision step of the first nonzero allotment.
    pub first_allot: Option<u64>,
    /// Execution segments in ascending step order.
    pub segments: Vec<ExecSegment>,
    /// Virtual completion time.
    pub completion: Option<u64>,
    /// `completion − release`.
    pub response: Option<u64>,
    /// When the submit request was read off the wire (ns).
    pub submit_ns: Option<u64>,
    /// When admission committed (ns).
    pub admit_ns: Option<u64>,
    /// When the job was injected into the engine (ns).
    pub inject_ns: Option<u64>,
    /// When the completion was published (ns).
    pub complete_ns: Option<u64>,
}

impl TraceReply {
    /// Convert into the `ktelemetry` trace model (for rendering the
    /// span tree and for equality checks against offline replays).
    pub fn to_job_trace(&self) -> JobTrace {
        JobTrace {
            job: self.job as u32,
            release: self.release,
            activated: self.activated,
            first_allot: self.first_allot,
            segments: self.segments.clone(),
            completion: self.completion,
            response: self.response,
            stamps: TraceStamps {
                submit_ns: self.submit_ns,
                admit_ns: self.admit_ns,
                inject_ns: self.inject_ns,
                complete_ns: self.complete_ns,
            },
        }
    }
}

/// The `drain` reply body: final counters plus the canonical trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DrainReply {
    /// Jobs accepted over the session.
    pub admitted: u64,
    /// Jobs completed (equals injected jobs after a clean drain).
    pub completed: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Submissions refused with backpressure.
    pub rejected: u64,
    /// The canonical session trace for offline replay.
    pub trace: SessionTrace,
}

/// A server reply (one line per request).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Jobs accepted; ids are in submission order.
    Submitted {
        /// Server-assigned ids.
        jobs: Vec<u64>,
        /// Trace ids, parallel to `jobs` (v4+; empty from older
        /// servers).
        trace_ids: Vec<String>,
    },
    /// Backpressure: the submission was refused outright.
    Rejected {
        /// Why (queue full, too many in flight, draining).
        reason: String,
        /// Queue depth at rejection time.
        queue_depth: u64,
        /// Configured queue capacity.
        capacity: u64,
    },
    /// `hello` body.
    Hello(HelloReply),
    /// `status` body.
    Status(StatusReply),
    /// `stats` body.
    Stats(StatsReply),
    /// `metrics` body: the Prometheus text exposition.
    Metrics {
        /// The rendered exposition text.
        text: String,
    },
    /// The job was cancelled while queued.
    Cancelled {
        /// Its id.
        job: u64,
    },
    /// `trace` body.
    Trace(TraceReply),
    /// A named session was created or attached (v5+).
    Opened {
        /// Session name.
        session: String,
        /// Scheduler label serving it.
        scheduler: String,
        /// Engine clock policy label.
        time_policy: String,
        /// Scheduling quantum.
        quantum: u64,
        /// `true` when the name was already live (attach) or was
        /// rebuilt from its journal; `false` for a fresh session.
        existing: bool,
    },
    /// A named session drained and was destroyed (v5+).
    Closed {
        /// Session name.
        session: String,
        /// Final counters and canonical trace, as a drain would report.
        report: DrainReply,
    },
    /// Drain finished; the session is over.
    Drained(DrainReply),
    /// Malformed request or invalid argument.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// A streamed event line (only on watching connections).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// One watched job completed.
    JobDone {
        /// Its id.
        job: u64,
        /// Virtual release time.
        release: Time,
        /// Virtual completion time.
        completion: Time,
        /// `completion - release`.
        response: Time,
        /// Trace id (v4+; empty from older servers).
        trace_id: String,
    },
    /// One watched job was cancelled while still queued.
    JobCancelled {
        /// Its id.
        job: u64,
    },
    /// Every watched job has completed; the stream ends.
    WatchEnd,
}

schema!(ScenarioRef {
    name: req,
    jobs: req,
    seed: req
});

schema!(SessionSpec {
    scheduler: omit,
    policy: omit,
    quantum: omit,
    seed: omit,
    queue_capacity: omit,
    max_inflight: omit,
    rate_per_sec: omit,
    burst: omit,
});

schema!(Request by "cmd" {
    Submit "submit" { jobs: omit, scenario: omit, watch: omit, session: omit },
    Hello "hello" {},
    Status "status" { session: omit },
    Stats "stats" { session: omit },
    Metrics "metrics" {},
    Cancel "cancel" { job: req, session: omit },
    Trace "trace" { job: req, session: omit },
    Open "open" { session: req, spec: flat },
    Close "close" { session: req },
    Drain "drain" { session: omit },
});

impl json::Wire for JobState {
    fn write(&self, out: &mut String) {
        json::push_str_lit(out, self.name());
    }
    fn read(v: &Value) -> Result<Self, String> {
        json::read_label(v, JobState::from_name)
    }
}

schema!(JobStatus {
    job: req,
    state: req,
    release: omit,
    completion: omit
});

schema!(HelloReply {
    version: def(1),
    scheduler: def,
    time_policy: def,
    quantum: def(1),
    now: def,
    durability: def("off".to_string()),
});

schema!(StatusReply {
    now: req,
    queued: req,
    active: req,
    draining: def,
    jobs: req
});

schema!(StatsReply {
    admitted: req,
    rejected: req,
    completed: req,
    cancelled: req,
    queue_depth: req,
    max_queue_depth: req,
    now: req,
    busy_steps: req,
    idle_steps: req,
    quanta: req,
    quantum_latency_mean_us: req,
    quantum_latency_p50_us: def,
    quantum_latency_p95_us: def,
    quantum_latency_p99_us: def,
    uptime_secs: def,
    phase_ready_mean_us: def,
    phase_decide_mean_us: def,
    phase_deq_allot_mean_us: def,
    phase_rr_cycle_mean_us: def,
    phase_execute_mean_us: def,
    scheduler: def,
    version: def(1),
    time_policy: def,
    durability: def("off".to_string()),
    journal_records: def,
    journal_bytes: def,
    journal_fsyncs: def,
    journal_snapshots: def,
    journal_tail_records: def,
    last_recovery_ms: def,
    response_jobs: def,
    response_mean_steps: def,
    response_p99_steps: def,
    slowdown_mean_milli: def,
    slowdown_p99_milli: def,
    response_mean_steps_by_cat: def,
    slowdown_mean_milli_by_cat: def,
    session: def,
    sessions: def,
});

schema!(TraceReply {
    job: req,
    trace_id: def,
    state: req,
    release: omit,
    activated: omit,
    first_allot: omit,
    segments: def,
    completion: omit,
    response: omit,
    submit_ns: omit,
    admit_ns: omit,
    inject_ns: omit,
    complete_ns: omit,
});

schema!(DrainReply {
    admitted: req,
    completed: req,
    cancelled: req,
    rejected: req,
    trace: req
});

schema!(Response by "reply" {
    Submitted "submitted" { jobs: req, trace_ids: omit },
    Rejected "rejected" { reason: req, queue_depth: req, capacity: req },
    Hello "hello" (flat),
    Status "status" (flat),
    Stats "stats" (flat),
    Metrics "metrics" { text: req },
    Cancelled "cancelled" { job: req },
    Trace "trace" (flat),
    Opened "opened" { session: req, scheduler: def, time_policy: def, quantum: def(1), existing: def },
    Closed "closed" { session: req, report: flat },
    Drained "drained" (flat),
    Error "error" { message: req },
});

schema!(Event by "event" {
    JobDone "job_done" { job: req, release: req, completion: req, response: req, trace_id: omit },
    JobCancelled "job_cancelled" { job: req },
    WatchEnd "watch_end" {},
});

impl Request {
    /// Canonical one-line encoding.
    pub fn encode(&self) -> String {
        json::encode(self)
    }

    /// Decode one request line.
    pub fn decode(line: &str) -> Result<Request, String> {
        let req = json::decode(line)?;
        if let Request::Submit {
            jobs,
            scenario: None,
            ..
        } = &req
        {
            if jobs.is_empty() {
                return Err("submit needs 'jobs' or 'scenario'".to_string());
            }
        }
        Ok(req)
    }
}

impl Response {
    /// Canonical one-line encoding.
    pub fn encode(&self) -> String {
        json::encode(self)
    }

    /// Decode one reply line.
    pub fn decode(line: &str) -> Result<Response, String> {
        json::decode(line)
    }
}

impl Event {
    /// Canonical one-line encoding.
    pub fn encode(&self) -> String {
        json::encode(self)
    }

    /// Decode one event line; `Ok(None)` if the line is a reply, not
    /// an event.
    pub fn decode(line: &str) -> Result<Option<Event>, String> {
        let v = json::parse(line).map_err(|e| e.to_string())?;
        if v.get("event").is_none() {
            return Ok(None);
        }
        json::read_record(&v).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbaselines::SchedulerKind;
    use kdag::generators::fork_join;
    use kdag::{Category, SelectionPolicy};

    fn spec() -> DagSpec {
        DagSpec::from_dag(&fork_join(2, &[(Category(0), 3), (Category(1), 2)]))
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Submit {
                jobs: vec![spec(), spec()],
                scenario: None,
                watch: true,
                session: String::new(),
            },
            Request::Submit {
                jobs: vec![],
                scenario: Some(ScenarioRef {
                    name: "pipeline".into(),
                    jobs: 8,
                    seed: 3,
                }),
                watch: false,
                session: "tenant-a".into(),
            },
            Request::Hello,
            Request::Status {
                session: String::new(),
            },
            Request::Stats {
                session: "tenant-a".into(),
            },
            Request::Metrics,
            Request::Cancel {
                job: 17,
                session: String::new(),
            },
            Request::Trace {
                job: 4,
                session: "tenant-b".into(),
            },
            Request::Drain {
                session: String::new(),
            },
            Request::Drain {
                session: "tenant-a".into(),
            },
            Request::Open {
                session: "tenant-a".into(),
                spec: SessionSpec::default(),
            },
            Request::Open {
                session: "tenant-b".into(),
                spec: SessionSpec {
                    scheduler: Some("equi".into()),
                    policy: Some("spread".into()),
                    quantum: Some(4),
                    seed: Some(7),
                    queue_capacity: Some(32),
                    max_inflight: Some(128),
                    rate_per_sec: Some(250.5),
                    burst: Some(64),
                },
            },
            Request::Close {
                session: "tenant-a".into(),
            },
        ];
        for r in reqs {
            let line = r.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Request::decode(&line).unwrap(), r, "{line}");
        }
        // A default-session request encodes byte-identically to v4: no
        // "session" key appears anywhere on the line.
        let bare = Request::Stats {
            session: String::new(),
        }
        .encode();
        assert!(!bare.contains("session"), "{bare}");
        // And v4 lines (no "session") decode into the default session.
        match Request::decode(r#"{"cmd":"cancel","job":3}"#).unwrap() {
            Request::Cancel { job, session } => {
                assert_eq!(job, 3);
                assert_eq!(session, "");
            }
            other => panic!("expected cancel, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Submitted {
                jobs: vec![0, 1],
                trace_ids: vec!["a1b2-0".into(), "a1b2-1".into()],
            },
            Response::Submitted {
                jobs: vec![7],
                trace_ids: vec![],
            },
            Response::Trace(TraceReply {
                job: 3,
                trace_id: "a1b2-3".into(),
                state: "done".into(),
                release: Some(5),
                activated: Some(6),
                first_allot: Some(8),
                segments: vec![
                    ExecSegment {
                        from: 8,
                        to: 10,
                        tasks: 5,
                    },
                    ExecSegment {
                        from: 12,
                        to: 14,
                        tasks: 4,
                    },
                ],
                completion: Some(14),
                response: Some(9),
                submit_ns: Some(1_000),
                admit_ns: Some(2_000),
                inject_ns: Some(3_000),
                complete_ns: Some(9_000),
            }),
            Response::Trace(TraceReply {
                job: 9,
                trace_id: "a1b2-9".into(),
                state: "queued".into(),
                ..TraceReply::default()
            }),
            Response::Hello(HelloReply {
                version: PROTOCOL_VERSION,
                scheduler: "k-rad".into(),
                time_policy: "event".into(),
                quantum: 4,
                now: 17,
                durability: "wal:interval:50".into(),
            }),
            Response::Rejected {
                reason: "queue full".into(),
                queue_depth: 64,
                capacity: 64,
            },
            Response::Status(StatusReply {
                now: 12,
                queued: 1,
                active: 2,
                draining: false,
                jobs: vec![
                    JobStatus {
                        job: 0,
                        state: JobState::Done,
                        release: Some(0),
                        completion: Some(9),
                    },
                    JobStatus {
                        job: 1,
                        state: JobState::Queued,
                        release: None,
                        completion: None,
                    },
                ],
            }),
            Response::Stats(StatsReply {
                admitted: 9,
                rejected: 2,
                completed: 7,
                cancelled: 1,
                queue_depth: 3,
                max_queue_depth: 5,
                now: 40,
                busy_steps: 38,
                idle_steps: 2,
                quanta: 20,
                quantum_latency_mean_us: 12.5,
                quantum_latency_p50_us: 8.5,
                quantum_latency_p95_us: 30.25,
                quantum_latency_p99_us: 64.5,
                uptime_secs: 1.5,
                phase_ready_mean_us: 2.25,
                phase_decide_mean_us: 4.5,
                phase_deq_allot_mean_us: 3.75,
                phase_rr_cycle_mean_us: 0.5,
                phase_execute_mean_us: 6.25,
                scheduler: "k-rad".into(),
                version: PROTOCOL_VERSION,
                time_policy: "event".into(),
                durability: "wal:always".into(),
                journal_records: 44,
                journal_bytes: 2048,
                journal_fsyncs: 44,
                journal_snapshots: 2,
                journal_tail_records: 7,
                last_recovery_ms: 1.25,
                response_jobs: 7,
                response_mean_steps: 18.5,
                response_p99_steps: 64.0,
                slowdown_mean_milli: 2250.5,
                slowdown_p99_milli: 8192.0,
                response_mean_steps_by_cat: vec![20.0, 17.5],
                slowdown_mean_milli_by_cat: vec![2000.0, 2500.0],
                session: "tenant-a".into(),
                sessions: 3,
            }),
            Response::Opened {
                session: "tenant-a".into(),
                scheduler: "k-rad".into(),
                time_policy: "event".into(),
                quantum: 2,
                existing: false,
            },
            Response::Opened {
                session: "tenant-b".into(),
                scheduler: "equi".into(),
                time_policy: "unit".into(),
                quantum: 1,
                existing: true,
            },
            Response::Metrics {
                text: "# HELP krad_quanta_total x\nkrad_quanta_total 3\n".into(),
            },
            Response::Cancelled { job: 3 },
            Response::Error {
                message: "bad \"quote\"".into(),
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn drain_and_close_replies_roundtrip() {
        let report = DrainReply {
            admitted: 5,
            completed: 4,
            cancelled: 1,
            rejected: 2,
            trace: SessionTrace {
                machine: vec![4, 2],
                scheduler: SchedulerKind::KRad,
                policy: SelectionPolicy::Fifo,
                quantum: 2,
                seed: 42,
                jobs: vec![],
                completions: vec![],
            },
        };
        let drained = Response::Drained(report.clone());
        assert_eq!(Response::decode(&drained.encode()).unwrap(), drained);
        let closed = Response::Closed {
            session: "tenant-a".into(),
            report,
        };
        let line = closed.encode();
        assert!(line.contains("\"reply\":\"closed\""), "{line}");
        assert_eq!(Response::decode(&line).unwrap(), closed);
    }

    #[test]
    fn wrong_types_are_errors_that_name_the_field() {
        let requests = [
            (r#"{"cmd":"open","session":"a","quantum":"5"}"#, "quantum"),
            (
                r#"{"cmd":"open","session":"a","rate_per_sec":"10"}"#,
                "rate_per_sec",
            ),
            (r#"{"cmd":"open","session":"a","scheduler":3}"#, "scheduler"),
            (r#"{"cmd":"status","session":7}"#, "session"),
            (
                r#"{"cmd":"submit","scenario":{"name":"x","jobs":1,"seed":1},"session":7}"#,
                "session",
            ),
            (
                r#"{"cmd":"submit","scenario":{"name":"x","jobs":1,"seed":1},"watch":"yes"}"#,
                "watch",
            ),
            (
                r#"{"cmd":"submit","scenario":{"name":"x","jobs":"1","seed":1}}"#,
                "jobs",
            ),
            (r#"{"cmd":"cancel","job":-1}"#, "job"),
            (r#"{"cmd":7}"#, "cmd"),
        ];
        for (line, field) in requests {
            let err = Request::decode(line).unwrap_err();
            assert!(err.contains(&format!("field '{field}'")), "{line}: {err}");
        }
        let replies = [
            (r#"{"reply":"hello","version":"5"}"#, "version"),
            (
                r#"{"reply":"submitted","jobs":[0],"trace_ids":[1]}"#,
                "trace_ids",
            ),
            (
                r#"{"reply":"status","now":1,"queued":0,"active":0,"jobs":[{"job":0,"state":"lost"}]}"#,
                "state",
            ),
            (
                r#"{"reply":"opened","session":"a","existing":"no"}"#,
                "existing",
            ),
        ];
        for (line, field) in replies {
            let err = Response::decode(line).unwrap_err();
            assert!(err.contains(&format!("field '{field}'")), "{line}: {err}");
        }
        let err = Event::decode(
            r#"{"event":"job_done","job":1,"release":0,"completion":2,"response":2,"trace_id":5}"#,
        )
        .unwrap_err();
        assert!(err.contains("field 'trace_id'"), "{err}");
        // Required fields stay required; unknown keys are ignored.
        let err = Request::decode(r#"{"cmd":"open"}"#).unwrap_err();
        assert!(err.contains("missing field 'session'"), "{err}");
        assert_eq!(
            Request::decode(r#"{"cmd":"hello","from_the_future":{"x":[1]}}"#).unwrap(),
            Request::Hello
        );
        assert!(Request::decode(r#"{"cmd":"frobnicate"}"#)
            .unwrap_err()
            .contains("frobnicate"));
    }

    #[test]
    fn trace_reply_converts_to_the_telemetry_model() {
        let reply = TraceReply {
            job: 3,
            trace_id: "n-3".into(),
            state: "done".into(),
            release: Some(5),
            activated: Some(6),
            first_allot: Some(8),
            segments: vec![ExecSegment {
                from: 8,
                to: 14,
                tasks: 9,
            }],
            completion: Some(14),
            response: Some(9),
            admit_ns: Some(500),
            ..TraceReply::default()
        };
        let trace = reply.to_job_trace();
        trace.well_formed(9).unwrap();
        assert_eq!(trace.wait(), Some(2));
        assert_eq!(trace.service(), Some(7));
        assert_eq!(trace.stamps.admit_ns, Some(500));
        let tree = trace.render_tree("3");
        assert!(tree.contains("wait"), "{tree}");
    }

    #[test]
    fn submit_requires_jobs_or_scenario() {
        let err = Request::decode(r#"{"cmd":"submit"}"#).unwrap_err();
        assert!(err.contains("jobs"), "{err}");
    }

    #[test]
    fn events_roundtrip_and_replies_are_not_events() {
        let e = Event::JobDone {
            job: 5,
            release: 10,
            completion: 31,
            response: 21,
            trace_id: "f00-5".into(),
        };
        assert_eq!(Event::decode(&e.encode()).unwrap(), Some(e));
        let bare = Event::JobDone {
            job: 5,
            release: 10,
            completion: 31,
            response: 21,
            trace_id: String::new(),
        };
        assert!(!bare.encode().contains("trace_id"));
        assert_eq!(Event::decode(&bare.encode()).unwrap(), Some(bare));
        let c = Event::JobCancelled { job: 2 };
        assert_eq!(Event::decode(&c.encode()).unwrap(), Some(c));
        assert_eq!(
            Event::decode(&Event::WatchEnd.encode()).unwrap(),
            Some(Event::WatchEnd)
        );
        assert_eq!(
            Event::decode(
                &Response::Submitted {
                    jobs: vec![1],
                    trace_ids: vec![],
                }
                .encode()
            )
            .unwrap(),
            None
        );
    }

    #[test]
    fn dag_spec_decodes_structurally() {
        let s = spec().to_json().to_compact();
        assert!(s.starts_with(r#"{"k":2,"categories":["#), "{s}");
        let v = json::parse(&s).unwrap();
        assert_eq!(DagSpec::from_json(&v).unwrap(), spec());
        // Structure errors are data errors, not panics.
        for bad in [
            r#"{"k":2,"categories":[70000],"edges":[]}"#,
            r#"{"k":2,"categories":[0],"edges":[[0]]}"#,
        ] {
            assert!(DagSpec::from_json(&json::parse(bad).unwrap()).is_err());
        }
    }
}
