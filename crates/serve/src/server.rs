//! The multi-tenant scheduling daemon (kswarm front-end).
//!
//! PR 3's single-tenant shape — one scheduler thread, thread-per-
//! connection I/O — is replaced by three cooperating pieces: the
//! session registry (named sessions, each a full scheduling domain),
//! the shard worker pool (one thread per shard runs the quantum loop
//! for its pinned sessions), and the poll-based reactor (one thread
//! multiplexing every client connection). This module keeps the
//! protocol surface: request dispatch, admission control, scrape
//! rendering, and the [`Server`] lifecycle (bind, start, join).
//!
//! Admission control is explicit and now per session: a full queue,
//! too many in-flight jobs, or an exhausted rate-limit bucket produces
//! a `rejected` reply (backpressure), never unbounded buffering.
//! Draining the daemon stops admission everywhere, finishes every
//! acknowledged job in every session, publishes each canonical
//! [`SessionTrace`] (derived from the session's log), and shuts the
//! listeners down; closing one named session does the same for that
//! session alone.

use crate::journal::SessionJournal;
use crate::protocol::{
    DrainReply, Event, HelloReply, JobState, JobStatus, Request, Response, ScenarioRef, StatsReply,
    StatusReply, TraceReply, PROTOCOL_VERSION,
};
use crate::reactor::{self, Listener};
use crate::registry::{self, Session, Swarm};
use crate::replay::SessionTrace;
use crate::shard;
use kbaselines::SchedulerKind;
use kdag::{DagSpec, JobDag, SelectionPolicy};
use kjournal::{FsyncPolicy, JobImage, JobPhase, Record, SessionLog};
use ksim::TimePolicy;
use ktelemetry::{SpanKind, SpanRecorder, TelemetryHandle, TraceStamps};
use kworkloads::{rng_for, scenarios};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon configuration. For named sessions this is the *template*:
/// each `open` derives a per-session copy (journal directory moved
/// under `sessions/<name>/`, overrides from the open spec applied).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Processors per category.
    pub machine: Vec<u32>,
    /// The scheduling policy serving the session.
    pub scheduler: SchedulerKind,
    /// The environment's task-selection policy.
    pub policy: SelectionPolicy,
    /// Scheduling quantum (engine steps per decision).
    pub quantum: u64,
    /// How the engine clock advances inside a service quantum (see
    /// [`ksim::TimePolicy`]); the event-driven clock batches idle and
    /// frozen spans so sparse sessions cost O(events), not O(steps).
    pub time_policy: TimePolicy,
    /// Seed for the engine RNG and randomized schedulers.
    pub seed: u64,
    /// Bound on the submission queue (admitted, not yet injected).
    pub queue_capacity: usize,
    /// Bound on admitted-but-incomplete jobs (queued + running).
    pub max_inflight: usize,
    /// Wall-clock pacing per quantum; `ZERO` runs flat out (tests,
    /// benches). Ignored while draining.
    pub tick: Duration,
    /// TCP bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Optional Unix-domain listener path (removed and re-created).
    pub unix_path: Option<std::path::PathBuf>,
    /// Engine telemetry sink (run/step/job events).
    pub telemetry: TelemetryHandle,
    /// Plain-HTTP `/metrics` scrape listener bind address (no scrape
    /// endpoint when `None`; the `metrics` protocol verb still works).
    pub metrics_addr: Option<String>,
    /// Flight-recorder capacity in events (0 disables the recorder).
    pub flight_capacity: usize,
    /// Where the flight recorder is dumped (JSONL) at drain — and on a
    /// worker-thread panic, for post-mortem replay. Default session
    /// only; named sessions never dump.
    pub flight_dump: Option<PathBuf>,
    /// Directory for the write-ahead session journal. `None` runs
    /// without durability; with a directory, every admission,
    /// cancellation, and quantum boundary is committed to the WAL
    /// *before* it is acknowledged on the wire, and a restart pointed
    /// at the same directory rebuilds every session (the default at
    /// the root, named sessions under `sessions/<name>/`) by verified
    /// replay.
    pub journal_dir: Option<PathBuf>,
    /// When the WAL escalates from `write(2)` to `fsync(2)` (see
    /// [`kjournal::FsyncPolicy`]). Irrelevant without `journal_dir`.
    pub fsync: FsyncPolicy,
    /// Write a snapshot (truncating the WAL behind it) every this many
    /// quanta; 0 disables periodic snapshots. Drain and recovery
    /// always snapshot.
    pub snapshot_every: u64,
    /// Alert when the observed mean response exceeds this multiple of
    /// the running Theorem-3 makespan bound (`krad_bound_theorem3`).
    /// Crossing the threshold bumps `krad_slo_breaches_total` and
    /// drops an `slo_alert` annotation into the flight recorder;
    /// `0.0` disables the check.
    pub slo_factor: f64,
    /// Worker threads in the shard pool; `0` uses the machine's
    /// available parallelism.
    pub workers: usize,
    /// Per-session admission rate limit in jobs/second (token bucket,
    /// checked before enqueue); `0.0` disables the limit. Named
    /// sessions can override via the open spec's `rate_per_sec`.
    pub session_rate: f64,
    /// Token-bucket burst for `session_rate`; `0` derives the burst
    /// from the rate (one second's worth, at least 1).
    pub session_burst: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            machine: vec![4, 2],
            scheduler: SchedulerKind::KRad,
            policy: SelectionPolicy::Fifo,
            quantum: 1,
            time_policy: TimePolicy::EventDriven,
            seed: 0,
            queue_capacity: 64,
            max_inflight: 1024,
            tick: Duration::ZERO,
            addr: "127.0.0.1:0".to_string(),
            unix_path: None,
            telemetry: TelemetryHandle::off(),
            metrics_addr: None,
            flight_capacity: 4096,
            flight_dump: None,
            journal_dir: None,
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            snapshot_every: 256,
            slo_factor: 0.0,
            workers: 0,
            session_rate: 0.0,
            session_burst: 0,
        }
    }
}

/// A running daemon: its addresses and its thread handles.
pub struct Server {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    swarm: Arc<Swarm>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listeners, start the worker pool and the reactor, and
    /// return.
    ///
    /// Configuration errors (empty machine, zero quantum, unknown
    /// scenario later at submit time) surface as `InvalidInput`.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let swarm = Swarm::new(cfg.clone())?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let metrics_listener = match &cfg.metrics_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        #[cfg(unix)]
        let unix_listener = match &cfg.unix_path {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                Some(std::os::unix::net::UnixListener::bind(path)?)
            }
            None => None,
        };

        let mut threads = Vec::new();

        for sh in 0..swarm.shards.len() {
            let worker_swarm = Arc::clone(&swarm);
            threads.push(
                thread::Builder::new()
                    .name(format!("kswarm-worker-{sh}"))
                    .spawn(move || shard::worker_loop(&worker_swarm, sh))?,
            );
        }

        let (waker, wake_rx) = reactor::waker_pair()?;
        swarm.set_waker(waker);
        let mut listeners = vec![Listener::Tcp(listener)];
        #[cfg(unix)]
        if let Some(l) = unix_listener {
            listeners.push(Listener::Unix(l));
        }
        let reactor_swarm = Arc::clone(&swarm);
        threads.push(
            thread::Builder::new()
                .name("kserve-reactor".into())
                .spawn(move || {
                    reactor::reactor_loop(&reactor_swarm, listeners, wake_rx, metrics_addr)
                })?,
        );

        if let Some(metrics_listener) = metrics_listener {
            let scrape_swarm = Arc::clone(&swarm);
            threads.push(thread::Builder::new().name("kserve-metrics".into()).spawn(
                move || {
                    for stream in metrics_listener.incoming() {
                        if scrape_swarm.stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let conn_swarm = Arc::clone(&scrape_swarm);
                        let _ = thread::Builder::new()
                            .name("kserve-scrape".into())
                            .spawn(move || serve_scrape(stream, &conn_swarm));
                    }
                },
            )?);
        }

        Ok(Server {
            addr,
            metrics_addr,
            swarm,
            threads,
        })
    }

    /// The bound TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` scrape address, if a listener was
    /// configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Wait until the daemon has drained and every thread has exited.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Final (drained/closed) replies are flushed by the reactor;
        // give every pending one a bounded window to reach its socket
        // before the caller is free to exit the process. The ledger
        // aggregates across *all* sessions, so a slow-draining session
        // cannot cause another session's final replies to be dropped.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut acks = self.swarm.acks.lock().unwrap();
        while *acks > 0 && Instant::now() < deadline {
            let (back, _) = self
                .swarm
                .acks_cv
                .wait_timeout(acks, Duration::from_millis(50))
                .unwrap();
            acks = back;
        }
        drop(acks);
        #[cfg(unix)]
        if let Some(path) = &self.swarm.cfg.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Render one scrape: refresh the wall-clock and lock-guarded gauges
/// for every session, then encode the shared registry in Prometheus
/// text exposition format. Default-session series are unlabeled
/// (byte-compatible with the single-tenant scrape); named sessions
/// carry `session="…"` labels in the same families.
pub(crate) fn render_scrape(swarm: &Swarm) -> String {
    for s in swarm.all_sessions() {
        s.metrics.refresh_uptime();
        s.mode_tracker.refresh();
        let g = s.inner.lock().unwrap();
        s.metrics.queue_depth.set_u64(g.queue.len() as u64);
        s.metrics.draining.set_u64(u64::from(g.draining));
    }
    swarm.registry.render()
}

/// Serve one plain-HTTP scrape connection: read the request head,
/// answer `GET /metrics` (or `/`) with the text exposition, `HEAD`
/// with the headers alone, any other method with 405, unknown paths
/// with 404, and close.
fn serve_scrape(stream: TcpStream, swarm: &Arc<Swarm>) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the header block so the peer sees a clean close.
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut writer = stream;
    let (status, body, allow) = match (method, path == "/metrics" || path == "/") {
        ("GET" | "HEAD", true) => ("200 OK", render_scrape(swarm), false),
        ("GET" | "HEAD", false) => ("404 Not Found", "not found\n".to_string(), false),
        _ => (
            "405 Method Not Allowed",
            "method not allowed\n".to_string(),
            true,
        ),
    };
    // HEAD carries the headers (including the Content-Length the GET
    // would have) with no body.
    let payload = if method == "HEAD" { "" } else { body.as_str() };
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{payload}",
        body.len(),
        if allow { "Allow: GET, HEAD\r\n" } else { "" },
    );
    let _ = writer.flush();
}

/// A registered completion-event subscription for one submission.
pub(crate) struct WatchState {
    pub(crate) rx: mpsc::Receiver<Event>,
    pub(crate) remaining: Vec<u64>,
    session: Arc<Session>,
}

impl WatchState {
    /// Resolve every still-unreported job from the session's final log
    /// (used when a drain seals the session under a live watch).
    pub(crate) fn resolve_stragglers(&self) -> Vec<Event> {
        let g = self.session.inner.lock().unwrap();
        self.remaining
            .iter()
            .map(
                |&id| match g.log.job(id).map(|job| job_status(&g.log, job)) {
                    Some(JobStatus {
                        release: Some(release),
                        completion: Some(completion),
                        ..
                    }) => Event::JobDone {
                        job: id,
                        release,
                        completion,
                        response: completion - release,
                        trace_id: self.session.trace_id(id),
                    },
                    _ => Event::JobCancelled { job: id },
                },
            )
            .collect()
    }
}

/// Which sessions a pending drain/close reply is waiting on.
pub(crate) enum DrainKind {
    /// Daemon-wide drain: every session must seal; the reply carries
    /// the default session's report (v4 byte compatibility) and the
    /// whole daemon stops afterwards.
    Global,
    /// Drain one session; the daemon keeps running and the session
    /// stays registered (its journal survives).
    Session(Arc<Session>),
    /// Close one session: drain it, then remove it from the registry
    /// and delete its journal directory.
    Close(Arc<Session>),
}

/// What one dispatched request line produces.
pub(crate) enum Outcome {
    /// An immediate reply.
    Reply(Response),
    /// An immediate reply followed by a completion-event stream.
    ReplyWatch(Response, WatchState),
    /// A deferred drain/close reply (sent once the targeted sessions
    /// report drained). The swarm's ack ledger has already adopted it.
    Drain(DrainKind),
}

/// Admission: validate, then accept into the session's bounded queue
/// or reject with explicit backpressure.
fn admit(session: &Arc<Session>, swarm: &Swarm, dags: Vec<JobDag>, watch: bool) -> Outcome {
    let cfg = &session.cfg;
    let k = cfg.machine.len();
    // ktrace: the submit stamp is taken before validation or locking —
    // it marks when the request came off the wire.
    let submit_ns = session.elapsed_ns();
    for (i, dag) in dags.iter().enumerate() {
        if dag.k() != k {
            return Outcome::Reply(Response::Error {
                message: format!(
                    "job {i}: DAG has {} categories but machine has {k}",
                    dag.k()
                ),
            });
        }
    }
    let n = dags.len();
    let mut g = session.inner.lock().unwrap();
    let reject = |g: &mut registry::Inner, reason: &str| {
        session.metrics.rejected.add(n as u64);
        let depth = g.queue.len() as u64;
        Outcome::Reply(Response::Rejected {
            reason: reason.to_string(),
            queue_depth: depth,
            capacity: cfg.queue_capacity as u64,
        })
    };
    if g.draining {
        return reject(&mut g, "draining");
    }
    // The rate limit is checked before any capacity is consumed, so a
    // throttled burst leaves the queue untouched.
    if !g.quota.try_take(n as u64) {
        return reject(&mut g, "rate limited");
    }
    if g.queue.len() + n > cfg.queue_capacity {
        return reject(&mut g, "queue full");
    }
    if g.inflight() + n > cfg.max_inflight {
        return reject(&mut g, "too many jobs in flight");
    }
    // Write-ahead: the admission must be durable before anything is
    // mutated or acknowledged. On a journal error nothing changed, so
    // the client sees an error and can retry safely.
    let base = g.log.image().jobs.len() as u64;
    let records: Vec<Record> = (base..)
        .zip(&dags)
        .map(|(job, dag)| Record::JobAdmitted {
            job,
            dag: DagSpec::from_dag(dag),
        })
        .collect();
    if let Err(e) = session.commit(&mut g.log, &records) {
        return Outcome::Reply(Response::Error {
            message: format!("journal write failed, submission not accepted: {e}"),
        });
    }
    let admit_ns = session.elapsed_ns();
    let mut ids = Vec::with_capacity(n);
    for (id, dag) in (base..).zip(dags) {
        g.cat_span.push(registry::dominant_cat_span(&dag));
        g.stamps.push(TraceStamps {
            submit_ns: Some(submit_ns),
            admit_ns: Some(admit_ns),
            ..TraceStamps::default()
        });
        g.queue.push_back((id, Arc::new(dag)));
        ids.push(id);
    }
    session.metrics.admitted.add(n as u64);
    let depth = g.queue.len() as u64;
    session.metrics.queue_depth_at_admit.record(depth);
    g.max_queue_depth = g.max_queue_depth.max(depth);
    // Register the watcher under the same lock so no completion can
    // slip between the ack and the subscription.
    let watch_state = watch.then(|| {
        let (tx, rx) = mpsc::channel();
        g.watchers.push(tx);
        WatchState {
            rx,
            remaining: ids.clone(),
            session: Arc::clone(session),
        }
    });
    drop(g);
    session.notify();
    swarm.shards[session.shard].wake();
    let trace_ids = ids.iter().map(|&id| session.trace_id(id)).collect();
    let response = Response::Submitted {
        jobs: ids,
        trace_ids,
    };
    match watch_state {
        Some(w) => Outcome::ReplyWatch(response, w),
        None => Outcome::Reply(response),
    }
}

/// Expand a scenario reference into its DAGs (releases are assigned by
/// the server at injection, so only the shapes are used).
fn expand_scenario(sc: &ScenarioRef, k: usize) -> Result<Vec<JobDag>, String> {
    let mut rng = rng_for(sc.seed, 0x5EED);
    let scenario = match sc.name.as_str() {
        "pipeline" => scenarios::pipeline(&mut rng, sc.jobs),
        "mapreduce" => scenarios::mapreduce(&mut rng, sc.jobs),
        "mixed-server" => scenarios::mixed_server(&mut rng, sc.jobs, 0.25),
        other => return Err(format!("unknown scenario '{other}'")),
    };
    let jobs: Vec<JobDag> = scenario.jobs.iter().map(|j| (*j.dag).clone()).collect();
    if jobs.iter().any(|d| d.k() != k) {
        return Err(format!(
            "scenario '{}' generates {}-category jobs but the machine has {k}",
            sc.name,
            jobs.first().map_or(0, JobDag::k)
        ));
    }
    Ok(jobs)
}

/// Job `job`'s lifecycle as the session log records it.
fn job_status(log: &SessionLog, job: &JobImage) -> JobStatus {
    let release = job.phase.release();
    let completion = release.and(log.completion(job.id));
    let state = match (job.phase, completion) {
        (JobPhase::Queued, _) => JobState::Queued,
        (JobPhase::Cancelled, _) => JobState::Cancelled,
        (JobPhase::Injected { .. }, None) => JobState::Running,
        (JobPhase::Injected { .. }, Some(_)) => JobState::Done,
    };
    JobStatus {
        job: job.id,
        state,
        release,
        completion,
    }
}

fn status_reply(g: &registry::Inner) -> StatusReply {
    let image = g.log.image();
    StatusReply {
        now: image.clock,
        queued: g.queue.len() as u64,
        active: g.log.running() as u64,
        draining: g.draining,
        jobs: image
            .jobs
            .iter()
            .map(|job| job_status(&g.log, job))
            .collect(),
    }
}

fn stats_reply(g: &registry::Inner, session: &Session, sessions: u64) -> StatsReply {
    let latency = session.metrics.quantum_latency_us.snapshot();
    let response = session.metrics.response_all.snapshot();
    let slowdown = session.metrics.slowdown_all.snapshot();
    let health = session
        .journal
        .as_ref()
        .map(SessionJournal::health)
        .unwrap_or_default();
    // Span family handles are shared by label, so re-attaching to the
    // registry reads the same histograms the quantum loop records into.
    let spans = SpanRecorder::for_registry(session.metrics.registry());
    StatsReply {
        admitted: session.metrics.admitted.get(),
        rejected: session.metrics.rejected.get(),
        completed: session.metrics.completed.get(),
        cancelled: session.metrics.cancelled.get(),
        queue_depth: g.queue.len() as u64,
        max_queue_depth: g.max_queue_depth,
        now: g.log.image().clock,
        busy_steps: g.log.image().busy,
        idle_steps: g.log.image().idle,
        quanta: session.metrics.quanta.get(),
        quantum_latency_mean_us: latency.mean(),
        quantum_latency_p50_us: latency.quantile(0.50),
        quantum_latency_p95_us: latency.quantile(0.95),
        quantum_latency_p99_us: latency.quantile(0.99),
        uptime_secs: session.metrics.uptime_secs(),
        phase_ready_mean_us: spans.mean_micros(SpanKind::Ready),
        phase_decide_mean_us: spans.mean_micros(SpanKind::Decide),
        phase_deq_allot_mean_us: spans.mean_micros(SpanKind::DeqAllot),
        phase_rr_cycle_mean_us: spans.mean_micros(SpanKind::RrCycle),
        phase_execute_mean_us: spans.mean_micros(SpanKind::Execute),
        scheduler: session.cfg.scheduler.label().to_string(),
        version: PROTOCOL_VERSION,
        time_policy: session.cfg.time_policy.label().to_string(),
        durability: durability_label(session),
        journal_records: health.records,
        journal_bytes: health.bytes,
        journal_fsyncs: health.fsyncs,
        journal_snapshots: health.snapshots,
        journal_tail_records: health.tail_records,
        last_recovery_ms: session.metrics.recovery_duration_ms.get(),
        response_jobs: session.metrics.response_all.count(),
        response_mean_steps: response.mean(),
        response_p99_steps: response.quantile(0.99),
        slowdown_mean_milli: slowdown.mean(),
        slowdown_p99_milli: slowdown.quantile(0.99),
        response_mean_steps_by_cat: session
            .metrics
            .response_steps
            .iter()
            .map(|h| h.mean())
            .collect(),
        slowdown_mean_milli_by_cat: session
            .metrics
            .slowdown_milli
            .iter()
            .map(|h| h.mean())
            .collect(),
        session: session.display_name().to_string(),
        sessions,
    }
}

/// Assemble the `trace` reply for one admitted job: lifecycle state
/// from the session log, engine-time spans from the live
/// [`ktelemetry::TraceAssembler`], wall stamps from the admission/
/// injection/completion bookkeeping. `None` for ids never admitted.
fn trace_reply(g: &registry::Inner, session: &Session, job: u64) -> Option<TraceReply> {
    let status = job_status(&g.log, g.log.job(job)?);
    let mut reply = TraceReply {
        job,
        trace_id: session.trace_id(job),
        state: status.state.name().to_string(),
        ..TraceReply::default()
    };
    if let Some(stamps) = g.stamps.get(job as usize) {
        reply.submit_ns = stamps.submit_ns;
        reply.admit_ns = stamps.admit_ns;
        reply.inject_ns = stamps.inject_ns;
        reply.complete_ns = stamps.complete_ns;
    }
    // Engine-side spans exist only once the job was injected; the
    // engine indexes jobs by injection order, not admission id.
    if let Ok(engine_idx) = g.log.injected().binary_search(&job) {
        if let Ok(assembler) = session.traces.lock() {
            if let Some(trace) = assembler.job(engine_idx as u32) {
                reply.release = trace.release;
                reply.activated = trace.activated;
                reply.first_allot = trace.first_allot;
                reply.completion = trace.completion;
                reply.response = trace.response;
                reply.segments = trace.segments.clone();
            }
        }
    }
    Some(reply)
}

/// The durability mode clients see: `off`, or `wal:<fsync policy>`.
fn durability_label(session: &Session) -> String {
    session
        .journal
        .as_ref()
        .map_or_else(|| "off".to_string(), SessionJournal::durability)
}

/// Build a sealed session's final drain report (the session must have
/// reported `drained`).
pub(crate) fn drain_reply_for(session: &Session) -> DrainReply {
    let g = session.inner.lock().unwrap();
    debug_assert!(g.drained, "drain reply for a session still serving");
    DrainReply {
        admitted: session.metrics.admitted.get(),
        completed: session.metrics.completed.get(),
        cancelled: session.metrics.cancelled.get(),
        rejected: session.metrics.rejected.get(),
        trace: SessionTrace::from_log(&session.cfg, &g.log),
    }
}

/// Flag one session as draining (idempotent) and wake its shard so the
/// seal happens even if the session is idle.
fn begin_drain(session: &Arc<Session>, swarm: &Swarm) {
    {
        let mut g = session.inner.lock().unwrap();
        g.draining = true;
    }
    session.metrics.draining.set_u64(1);
    session.notify();
    swarm.shards[session.shard].wake();
}

/// Resolve a request's session name, or produce the uniform error.
/// The `Err` side is a ready-to-send `Outcome` by design — callers
/// `?` it straight back to the wire — so its size is fine.
#[allow(clippy::result_large_err)]
fn resolve_session(swarm: &Swarm, name: &str) -> Result<Arc<Session>, Outcome> {
    swarm.resolve(name).ok_or_else(|| {
        Outcome::Reply(Response::Error {
            message: format!("unknown session '{name}'"),
        })
    })
}

/// Decode one request line and produce its outcome: an immediate
/// reply, a reply plus a watch subscription, or a deferred drain.
pub(crate) fn dispatch(line: &str, swarm: &Arc<Swarm>) -> Outcome {
    let request = match Request::decode(line) {
        Ok(r) => r,
        Err(message) => return Outcome::Reply(Response::Error { message }),
    };
    match request {
        Request::Submit {
            jobs,
            scenario,
            watch,
            session,
        } => {
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            let mut dags = Vec::with_capacity(jobs.len());
            for (i, spec) in jobs.iter().enumerate() {
                match spec.build() {
                    Ok(dag) => dags.push(dag),
                    Err(e) => {
                        return Outcome::Reply(Response::Error {
                            message: format!("job {i} has an invalid DAG: {e}"),
                        })
                    }
                }
            }
            if let Some(sc) = &scenario {
                match expand_scenario(sc, s.cfg.machine.len()) {
                    Ok(mut extra) => dags.append(&mut extra),
                    Err(message) => return Outcome::Reply(Response::Error { message }),
                }
            }
            admit(&s, swarm, dags, watch)
        }
        Request::Hello => {
            let s = swarm
                .resolve("")
                .expect("default session always registered");
            let now = s.inner.lock().unwrap().log.image().clock;
            Outcome::Reply(Response::Hello(HelloReply {
                version: PROTOCOL_VERSION,
                scheduler: s.cfg.scheduler.label().to_string(),
                time_policy: s.cfg.time_policy.label().to_string(),
                quantum: s.cfg.quantum,
                now,
                durability: durability_label(&s),
            }))
        }
        Request::Status { session } => {
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            let g = s.inner.lock().unwrap();
            Outcome::Reply(Response::Status(status_reply(&g)))
        }
        Request::Stats { session } => {
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            let sessions = swarm.session_count();
            let g = s.inner.lock().unwrap();
            Outcome::Reply(Response::Stats(stats_reply(&g, &s, sessions)))
        }
        Request::Trace { job, session } => {
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            let g = s.inner.lock().unwrap();
            match trace_reply(&g, &s, job) {
                Some(reply) => Outcome::Reply(Response::Trace(reply)),
                None => Outcome::Reply(Response::Error {
                    message: format!("unknown job {job}"),
                }),
            }
        }
        Request::Metrics => Outcome::Reply(Response::Metrics {
            text: render_scrape(swarm),
        }),
        Request::Cancel { job, session } => {
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            let mut g = s.inner.lock().unwrap();
            match g.log.job(job).map(|j| j.phase) {
                Some(JobPhase::Queued) => {
                    // Write-ahead, like admission: durable before the
                    // log changes or the ack goes out.
                    if let Err(e) = s.commit(&mut g.log, &[Record::JobCancelled { job }]) {
                        return Outcome::Reply(Response::Error {
                            message: format!("journal write failed, job {job} not cancelled: {e}"),
                        });
                    }
                    g.queue.retain(|&(id, _)| id != job);
                    s.metrics.cancelled.incr();
                    Session::broadcast(&mut g, Event::JobCancelled { job });
                    Outcome::Reply(Response::Cancelled { job })
                }
                Some(_) => Outcome::Reply(Response::Error {
                    message: format!("job {job} is not cancellable (already injected)"),
                }),
                None => Outcome::Reply(Response::Error {
                    message: format!("unknown job {job}"),
                }),
            }
        }
        Request::Open { session, spec } => match swarm.open(&session, &spec) {
            Ok((s, existing)) => Outcome::Reply(Response::Opened {
                session: s.name.clone(),
                scheduler: s.cfg.scheduler.label().to_string(),
                time_policy: s.cfg.time_policy.label().to_string(),
                quantum: s.cfg.quantum,
                existing,
            }),
            Err(message) => Outcome::Reply(Response::Error { message }),
        },
        Request::Close { session } => {
            if session.is_empty() || session == "default" {
                return Outcome::Reply(Response::Error {
                    message: "cannot close the default session (use drain)".to_string(),
                });
            }
            let s = match resolve_session(swarm, &session) {
                Ok(s) => s,
                Err(out) => return out,
            };
            begin_drain(&s, swarm);
            swarm.adopt_ack();
            Outcome::Drain(DrainKind::Close(s))
        }
        Request::Drain { session } => {
            if session.is_empty() {
                // Daemon-wide: refuse new sessions, seal every live
                // one; the deferred reply carries the default
                // session's report and then stops the daemon.
                swarm.global_draining.store(true, Ordering::SeqCst);
                for s in swarm.all_sessions() {
                    begin_drain(&s, swarm);
                }
                swarm.adopt_ack();
                Outcome::Drain(DrainKind::Global)
            } else {
                let s = match resolve_session(swarm, &session) {
                    Ok(s) => s,
                    Err(out) => return out,
                };
                begin_drain(&s, swarm);
                swarm.adopt_ack();
                Outcome::Drain(DrainKind::Session(s))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;

    #[test]
    fn rejects_bad_machine() {
        let cfg = ServerConfig {
            machine: vec![],
            ..ServerConfig::default()
        };
        assert!(Server::start(cfg).is_err());
        let cfg = ServerConfig {
            machine: vec![4, 0],
            ..ServerConfig::default()
        };
        assert!(Server::start(cfg).is_err());
    }

    #[test]
    fn rejects_zero_quantum() {
        let cfg = ServerConfig {
            quantum: 0,
            ..ServerConfig::default()
        };
        assert!(Server::start(cfg).is_err());
    }

    // Dispatch against a bare `Swarm` (no worker threads): jobs stay
    // queued forever, which makes the admission, backpressure, and
    // cancel paths fully deterministic.
    fn bare_swarm(queue_capacity: usize, max_inflight: usize) -> Arc<Swarm> {
        Swarm::new(ServerConfig {
            queue_capacity,
            max_inflight,
            ..ServerConfig::default()
        })
        .expect("no journal configured")
    }

    fn reply(outcome: Outcome) -> Response {
        match outcome {
            Outcome::Reply(r) | Outcome::ReplyWatch(r, _) => r,
            Outcome::Drain(_) => panic!("expected an immediate reply, got a deferred drain"),
        }
    }

    fn submit_line(n: usize) -> String {
        use kdag::generators::fork_join;
        use kdag::Category;
        let dag = DagSpec::from_dag(&fork_join(2, &[(Category(0), 2), (Category(1), 1)]));
        Request::Submit {
            jobs: vec![dag; n],
            scenario: None,
            watch: false,
            session: String::new(),
        }
        .encode()
    }

    fn submit_line_to(session: &str, n: usize) -> String {
        use kdag::generators::fork_join;
        use kdag::Category;
        let dag = DagSpec::from_dag(&fork_join(2, &[(Category(0), 2), (Category(1), 1)]));
        Request::Submit {
            jobs: vec![dag; n],
            scenario: None,
            watch: false,
            session: session.to_string(),
        }
        .encode()
    }

    #[test]
    fn admission_backpressure_is_explicit() {
        let swarm = bare_swarm(4, 100);
        let r = reply(dispatch(&submit_line(3), &swarm));
        assert!(matches!(r, Response::Submitted { ref jobs, .. } if jobs == &[0, 1, 2]));
        // 3 queued + 2 > capacity 4 → rejected, queue untouched.
        let r = reply(dispatch(&submit_line(2), &swarm));
        match r {
            Response::Rejected {
                reason,
                queue_depth,
                capacity,
            } => {
                assert_eq!(reason, "queue full");
                assert_eq!((queue_depth, capacity), (3, 4));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // A single job still fits.
        let r = reply(dispatch(&submit_line(1), &swarm));
        assert!(matches!(r, Response::Submitted { ref jobs, .. } if jobs == &[3]));
        let s = swarm.resolve("").unwrap();
        let g = s.inner.lock().unwrap();
        assert_eq!(s.metrics.admitted.get(), 4);
        assert_eq!(s.metrics.rejected.get(), 2);
        assert_eq!(g.max_queue_depth, 4);
    }

    #[test]
    fn inflight_cap_rejects() {
        let swarm = bare_swarm(100, 2);
        let r = reply(dispatch(&submit_line(2), &swarm));
        assert!(matches!(r, Response::Submitted { .. }));
        let r = reply(dispatch(&submit_line(1), &swarm));
        assert!(matches!(r, Response::Rejected { ref reason, .. } if reason.contains("in flight")));
    }

    #[test]
    fn cancel_lifecycle() {
        let swarm = bare_swarm(10, 10);
        let r = reply(dispatch(&submit_line(2), &swarm));
        assert!(matches!(r, Response::Submitted { .. }));
        let r = reply(dispatch(r#"{"cmd":"cancel","job":1}"#, &swarm));
        assert_eq!(r, Response::Cancelled { job: 1 });
        // Cancelling twice is an error; unknown ids too.
        let r = reply(dispatch(r#"{"cmd":"cancel","job":1}"#, &swarm));
        assert!(matches!(r, Response::Error { .. }));
        let r = reply(dispatch(r#"{"cmd":"cancel","job":9}"#, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("unknown")));
        // Status reflects the cancellation; the slot frees capacity.
        let r = reply(dispatch(r#"{"cmd":"status"}"#, &swarm));
        match r {
            Response::Status(st) => {
                assert_eq!(st.queued, 1);
                assert_eq!(st.jobs[1].state, crate::protocol::JobState::Cancelled);
            }
            other => panic!("expected status, got {other:?}"),
        }
        let s = swarm.resolve("").unwrap();
        assert_eq!(s.inner.lock().unwrap().inflight(), 1);
    }

    #[test]
    fn malformed_lines_and_bad_dags_are_errors() {
        let swarm = bare_swarm(10, 10);
        let r = reply(dispatch("not json", &swarm));
        assert!(matches!(r, Response::Error { .. }));
        // A k-mismatched DAG is refused before admission.
        let line = r#"{"cmd":"submit","jobs":[{"k":3,"categories":[0],"edges":[]}]}"#;
        let r = reply(dispatch(line, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("categories")));
        // A cyclic DAG fails validation.
        let line = r#"{"cmd":"submit","jobs":[{"k":2,"categories":[0,1],"edges":[[0,1],[1,0]]}]}"#;
        let r = reply(dispatch(line, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("invalid DAG")));
        let s = swarm.resolve("").unwrap();
        assert_eq!(s.metrics.admitted.get(), 0);
    }

    #[test]
    fn trace_verb_reports_lifecycle_and_stamps() {
        let swarm = bare_swarm(10, 10);
        let s = swarm.resolve("").unwrap();
        let r = reply(dispatch(&submit_line(2), &swarm));
        let ids = match r {
            Response::Submitted { jobs, trace_ids } => {
                assert_eq!(jobs, vec![0, 1]);
                assert_eq!(trace_ids.len(), 2);
                assert_eq!(trace_ids[0], s.trace_id(0));
                trace_ids
            }
            other => panic!("expected submitted, got {other:?}"),
        };
        // No worker thread: both jobs sit queued, stamped but without
        // engine-time spans.
        let r = reply(dispatch(r#"{"cmd":"trace","job":1}"#, &swarm));
        match r {
            Response::Trace(t) => {
                assert_eq!(t.job, 1);
                assert_eq!(t.trace_id, ids[1]);
                assert_eq!(t.state, "queued");
                assert!(t.submit_ns.is_some());
                assert!(t.admit_ns.unwrap() >= t.submit_ns.unwrap());
                assert_eq!(t.inject_ns, None);
                assert_eq!(t.release, None);
                assert!(t.segments.is_empty());
            }
            other => panic!("expected trace, got {other:?}"),
        }
        let r = reply(dispatch(r#"{"cmd":"cancel","job":0}"#, &swarm));
        assert!(matches!(r, Response::Cancelled { .. }));
        let r = reply(dispatch(r#"{"cmd":"trace","job":0}"#, &swarm));
        assert!(matches!(r, Response::Trace(ref t) if t.state == "cancelled"));
        let r = reply(dispatch(r#"{"cmd":"trace","job":9}"#, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("unknown")));
    }

    #[test]
    fn stats_reply_carries_response_accounting() {
        let swarm = bare_swarm(10, 10);
        let s = swarm.resolve("").unwrap();
        s.metrics.record_completion(1, 12, 4);
        s.metrics.record_completion(0, 5, 5);
        let r = reply(dispatch(r#"{"cmd":"stats"}"#, &swarm));
        match r {
            Response::Stats(st) => {
                assert_eq!(st.response_jobs, 2);
                assert!((st.response_mean_steps - 8.5).abs() < 1e-12);
                assert_eq!(st.response_mean_steps_by_cat.len(), 2);
                assert!(st.slowdown_mean_milli > 0.0);
                assert_eq!(st.session, "default");
                assert_eq!(st.sessions, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn scenario_expansion_checks_k() {
        let sc = ScenarioRef {
            name: "pipeline".into(),
            jobs: 3,
            seed: 1,
        };
        assert_eq!(expand_scenario(&sc, 2).unwrap().len(), 3);
        assert!(expand_scenario(&sc, 3)
            .unwrap_err()
            .contains("machine has 3"));
        let bad = ScenarioRef {
            name: "nope".into(),
            jobs: 1,
            seed: 1,
        };
        assert!(expand_scenario(&bad, 2)
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn open_routes_sessions_and_isolates_state() {
        let swarm = bare_swarm(10, 10);
        // Open a tenant with an overridden scheduler and quantum.
        let line = r#"{"cmd":"open","session":"tenant-a","scheduler":"equi","quantum":3}"#;
        let r = reply(dispatch(line, &swarm));
        match r {
            Response::Opened {
                session,
                scheduler,
                quantum,
                existing,
                ..
            } => {
                assert_eq!(session, "tenant-a");
                assert_eq!(scheduler, "equi");
                assert_eq!(quantum, 3);
                assert!(!existing);
            }
            other => panic!("expected opened, got {other:?}"),
        }
        // Re-open without a conflicting spec: idempotent attach.
        let r = reply(dispatch(r#"{"cmd":"open","session":"tenant-a"}"#, &swarm));
        assert!(matches!(r, Response::Opened { existing: true, .. }));
        // Re-open with a conflicting quantum: refused.
        let line = r#"{"cmd":"open","session":"tenant-a","quantum":9}"#;
        let r = reply(dispatch(line, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("conflicts")));
        // Jobs land in their own session's queue, not the default's.
        let r = reply(dispatch(&submit_line_to("tenant-a", 2), &swarm));
        assert!(matches!(r, Response::Submitted { ref jobs, .. } if jobs == &[0, 1]));
        let r = reply(dispatch(r#"{"cmd":"stats","session":"tenant-a"}"#, &swarm));
        match r {
            Response::Stats(st) => {
                assert_eq!(st.admitted, 2);
                assert_eq!(st.session, "tenant-a");
                assert_eq!(st.scheduler, "equi");
                assert_eq!(st.sessions, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let r = reply(dispatch(r#"{"cmd":"stats"}"#, &swarm));
        assert!(matches!(r, Response::Stats(ref st) if st.admitted == 0));
        // Unknown sessions are uniform errors.
        let r = reply(dispatch(&submit_line_to("nope", 1), &swarm));
        assert!(
            matches!(r, Response::Error { ref message } if message.contains("unknown session"))
        );
    }

    #[test]
    fn close_and_drain_are_deferred_outcomes() {
        let swarm = bare_swarm(10, 10);
        let r = reply(dispatch(r#"{"cmd":"open","session":"t"}"#, &swarm));
        assert!(matches!(r, Response::Opened { .. }));
        // Closing the default session is refused.
        let r = reply(dispatch(r#"{"cmd":"close","session":"default"}"#, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("default")));
        // Closing a named session defers until it drains.
        match dispatch(r#"{"cmd":"close","session":"t"}"#, &swarm) {
            Outcome::Drain(DrainKind::Close(s)) => {
                assert_eq!(s.name, "t");
                assert!(s.inner.lock().unwrap().draining);
            }
            _ => panic!("expected a deferred close"),
        }
        assert_eq!(*swarm.acks.lock().unwrap(), 1);
        // Submits to a closing session are rejected as draining.
        let r = reply(dispatch(&submit_line_to("t", 1), &swarm));
        assert!(matches!(r, Response::Rejected { ref reason, .. } if reason == "draining"));
        // A global drain flags every session and is also deferred.
        match dispatch(r#"{"cmd":"drain"}"#, &swarm) {
            Outcome::Drain(DrainKind::Global) => {}
            _ => panic!("expected a deferred global drain"),
        }
        let s = swarm.resolve("default").unwrap();
        assert!(s.inner.lock().unwrap().draining);
        // New opens are refused while the daemon drains.
        let r = reply(dispatch(r#"{"cmd":"open","session":"late"}"#, &swarm));
        assert!(matches!(r, Response::Error { ref message } if message.contains("draining")));
    }

    #[test]
    fn session_rate_limit_rejects_before_enqueue() {
        let swarm = bare_swarm(100, 100);
        let line = r#"{"cmd":"open","session":"throttled","rate_per_sec":0.001,"burst":2}"#;
        let r = reply(dispatch(line, &swarm));
        assert!(matches!(r, Response::Opened { .. }));
        // Burst of 2 admits 2, then the bucket is dry (refill is ~0).
        let r = reply(dispatch(&submit_line_to("throttled", 2), &swarm));
        assert!(matches!(r, Response::Submitted { .. }));
        let r = reply(dispatch(&submit_line_to("throttled", 1), &swarm));
        match r {
            Response::Rejected {
                reason,
                queue_depth,
                ..
            } => {
                assert_eq!(reason, "rate limited");
                // The throttled submit consumed no queue capacity.
                assert_eq!(queue_depth, 2);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // The default session is untouched by the tenant's bucket.
        let r = reply(dispatch(&submit_line(1), &swarm));
        assert!(matches!(r, Response::Submitted { .. }));
    }

    #[test]
    fn session_names_are_validated() {
        let swarm = bare_swarm(10, 10);
        for bad in ["..", "a/b", "", "default", &"x".repeat(65)] {
            let spec = SessionSpec::default();
            assert!(
                swarm.open(bad, &spec).is_err(),
                "name {bad:?} should be rejected"
            );
        }
        assert!(swarm.open("ok-1.A_b", &SessionSpec::default()).is_ok());
    }
}
