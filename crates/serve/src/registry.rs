//! kswarm session registry: named scheduling sessions behind one
//! daemon.
//!
//! A [`Session`] is everything the single-tenant daemon used to be:
//! its own [`LiveSimulation`] + scheduler instance (the
//! [`EngineState`]), its own admission queue and session log
//! ([`Inner`]), its own telemetry fanout, trace assembler, flight
//! ring, optional journal directory, and metric series. The [`Swarm`]
//! owns the map from session name to session, the shared metrics
//! registry every session renders into, the shard handles the worker
//! pool parks on, and the cross-session drain-ack ledger the reactor
//! settles before the process may exit.
//!
//! Determinism is preserved per session because nothing is shared
//! *inside* the scheduling domain: each session's engine is pumped
//! only by the one worker its shard is pinned to, injections are
//! serialized through the session's own queue in admission order, and
//! the per-session journal/replay bridge sees exactly the inputs a
//! single-tenant daemon would have seen. The implicit `default`
//! session (wire name: the absent/empty `"session"` field) keeps its
//! metric series unlabeled and its journal at the configured root, so
//! every v4 client, scrape parser, and recovery path observes
//! byte-identical output.
//!
//! A session's job table *is* its log: the in-memory
//! [`SessionLog`] fold of its `kjournal` records. Every change is a
//! [`Record`] — journaled first when the session is durable
//! ([`Session::commit`], [`Session::append`]), then folded by the same
//! rule recovery uses — and status, traces, snapshots, and the drained
//! trace are derived from the fold. A recovered session adopts the
//! folded log as is.

use crate::journal::{self, SessionJournal};
use crate::metrics::{ModeTracker, ServiceMetrics};
use crate::protocol::{Event, SessionSpec};
use crate::reactor::Waker;
use crate::server::ServerConfig;
use crate::shard::ShardHandle;
use kbaselines::SchedulerKind;
use kdag::{JobDag, SelectionPolicy};
use kjournal::{JobPhase, JournalDir, JournalStore, Record, SessionLog};
use ksim::{LiveSimulation, Resources, Scheduler, SimConfig, Time, TimePolicy};
use ktelemetry::{
    CounterHandle, FanoutSink, FlightRecorder, GaugeHandle, MetricsRegistry, SharedSink,
    SpanRecorder, TelemetryHandle, TraceAssembler, TraceStamps,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A simple token bucket: `rate` jobs/second refilled continuously up
/// to `burst`. `rate == 0` disables the limit entirely.
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(rate: f64, burst: u64) -> Self {
        let burst = if burst == 0 {
            rate.ceil().max(1.0)
        } else {
            burst as f64
        };
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    /// Take `n` tokens if the bucket holds them; `true` on success.
    /// Unlimited (`rate == 0`) always succeeds.
    pub(crate) fn try_take(&mut self, n: u64) -> bool {
        if self.rate <= 0.0 {
            return true;
        }
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= n as f64 {
            self.tokens -= n as f64;
            true
        } else {
            false
        }
    }
}

/// Shared state between connection handling and the session's worker.
pub(crate) struct Inner {
    /// The session's log, folded in memory: every admitted job with its
    /// lifecycle phase and completion, plus the clock and busy/idle
    /// digest of the last quantum. The only job table; everything the
    /// verbs report about jobs is derived from it.
    pub(crate) log: SessionLog,
    /// Admitted jobs awaiting injection, with their built DAGs.
    pub(crate) queue: VecDeque<(u64, Arc<JobDag>)>,
    pub(crate) draining: bool,
    pub(crate) drained: bool,
    // Theorem 3 accumulators over injected jobs: Σ T1(J, α) per
    // category, and max (T∞(J) + r(J)).
    pub(crate) work_by_cat: Vec<u64>,
    pub(crate) span_release_max: u64,
    // ktrace wall-clock stamps per admitted id, nanoseconds since the
    // session's monotonic epoch (`ServiceMetrics::started`).
    pub(crate) stamps: Vec<TraceStamps>,
    // Dominant work category and span per admitted id, fixed at
    // admission — the slowdown denominator and histogram label.
    pub(crate) cat_span: Vec<(usize, u64)>,
    // Edge-trigger state for the SLO alert: set while the mean
    // response sits above the threshold so one crossing fires once.
    pub(crate) slo_breached: bool,
    // Per-session admission rate limit, checked before enqueue.
    pub(crate) quota: TokenBucket,
    pub(crate) max_queue_depth: u64,
    pub(crate) watchers: Vec<mpsc::Sender<Event>>,
}

impl Inner {
    /// Admitted jobs not yet complete: queued plus running.
    pub(crate) fn inflight(&self) -> usize {
        self.queue.len() + self.log.running()
    }

    /// Add an injected job to the Theorem 3 accumulators.
    pub(crate) fn account_injected(&mut self, dag: &JobDag, release: Time) {
        for (cat, &w) in self.work_by_cat.iter_mut().zip(dag.work_by_category()) {
            *cat += w;
        }
        self.span_release_max = self.span_release_max.max(dag.span() + release);
    }
}

/// The engine half of a session: owned exclusively by the worker the
/// session's shard is pinned to. The mutex is uncontended in steady
/// state — it exists so session creation, recovery, and the worker
/// hand the state over without `unsafe`.
pub(crate) struct EngineState {
    pub(crate) live: LiveSimulation,
    pub(crate) scheduler: Box<dyn Scheduler + Send>,
    pub(crate) spans: SpanRecorder,
    pub(crate) done_buf: Vec<usize>,
    pub(crate) desires_buf: Vec<u64>,
    // Wall-clock pacing: the next quantum may not start before this
    // instant (`cfg.tick`; `None` = due now).
    pub(crate) next_due: Option<Instant>,
}

/// One named scheduling session: a full single-tenant daemon's worth
/// of state, pinned to one shard.
pub(crate) struct Session {
    /// Registry name; empty for the implicit default session.
    pub(crate) name: String,
    /// Effective per-session configuration (base config with the
    /// `open` overrides and the per-session journal directory applied).
    pub(crate) cfg: ServerConfig,
    pub(crate) inner: Mutex<Inner>,
    pub(crate) cv: Condvar,
    /// `None` once the session has drained and the engine retired.
    pub(crate) engine: Mutex<Option<EngineState>>,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) mode_tracker: ModeTracker,
    pub(crate) flight: Option<Arc<Mutex<FlightRecorder>>>,
    pub(crate) journal: Option<SessionJournal>,
    // Live span-tree view: assembles engine trace events on the fly;
    // the `trace` verb reads it, `admit` never touches it.
    pub(crate) traces: Arc<Mutex<TraceAssembler>>,
    // Session nonce baked into every trace id (`<nonce:x>-<job>`), so
    // ids from different sessions never collide in downstream stores.
    pub(crate) nonce: u64,
    /// The worker shard this session is pinned to.
    pub(crate) shard: usize,
}

impl Session {
    /// Nanoseconds since the session's monotonic epoch, for ktrace
    /// wall-clock stamps.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.metrics
            .started()
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64
    }

    /// The wire-visible trace id of job `id` in this session.
    pub(crate) fn trace_id(&self, id: u64) -> String {
        format!("{:x}-{id}", self.nonce)
    }

    /// The display name clients see in stats replies.
    pub(crate) fn display_name(&self) -> &str {
        if self.name.is_empty() {
            "default"
        } else {
            &self.name
        }
    }

    /// The telemetry handle the engine and scheduler record into: the
    /// user's configured sink, the trace assembler, the mode tracker,
    /// and the flight recorder, fanned out. The flight ring (the one
    /// sink that keeps the event) goes last so the read-only sinks
    /// ahead of it are fed by reference and never force a clone.
    fn telemetry_fanout(&self) -> TelemetryHandle {
        let mut sinks: Vec<SharedSink> = Vec::new();
        if self.cfg.telemetry.is_enabled() {
            sinks.push(Arc::new(Mutex::new(self.cfg.telemetry.clone())));
        }
        sinks.push(Arc::clone(&self.traces) as SharedSink);
        sinks.push(Arc::new(Mutex::new(self.mode_tracker.clone())));
        if let Some(flight) = &self.flight {
            sinks.push(Arc::clone(flight) as SharedSink);
        }
        TelemetryHandle::new(FanoutSink::new(sinks))
    }

    pub(crate) fn notify(&self) {
        self.cv.notify_all();
    }

    pub(crate) fn broadcast(inner: &mut Inner, event: Event) {
        inner.watchers.retain(|w| w.send(event.clone()).is_ok());
    }

    /// Write-ahead: journal and commit `records` (when the session is
    /// durable), then fold them into the log. On a journal error
    /// nothing is folded, so the caller can refuse without undoing.
    pub(crate) fn commit(&self, log: &mut SessionLog, records: &[Record]) -> io::Result<()> {
        if let Some(j) = &self.journal {
            j.append(records);
            j.commit()?;
        }
        records.iter().for_each(|r| log.apply(r));
        Ok(())
    }

    /// Fold `record` into the log, buffering it into the journal to
    /// ride the next group commit.
    pub(crate) fn append(&self, log: &mut SessionLog, record: Record) {
        if let Some(j) = &self.journal {
            j.append(std::slice::from_ref(&record));
        }
        log.apply(&record);
    }
}

/// A per-process session nonce for trace ids: wall-clock nanoseconds
/// folded with the pid, so restarts (and concurrent daemons) mint
/// distinct id spaces without coordination.
pub(crate) fn session_nonce() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    (nanos ^ u64::from(std::process::id()).rotate_left(32)) | 1
}

/// The dominant work category (argmax of per-category work, ties to
/// the lowest index) and critical-path span of a DAG — the histogram
/// label and slowdown denominator fixed at admission.
pub(crate) fn dominant_cat_span(dag: &JobDag) -> (usize, u64) {
    let cat = dag
        .work_by_category()
        .iter()
        .enumerate()
        .max_by_key(|&(i, &w)| (w, std::cmp::Reverse(i)))
        .map_or(0, |(i, _)| i);
    (cat, dag.span())
}

/// Seed a fresh session from a verified recovery: adopt the folded log
/// as is, queue its queued jobs, and re-derive what the log does not
/// hold (Theorem 3 accumulators, admission labels, counters, gauges).
fn adopt_recovered(
    g: &mut Inner,
    metrics: &ServiceMetrics,
    log: SessionLog,
    dags: Vec<Arc<JobDag>>,
    live: &LiveSimulation,
) {
    for (job, dag) in log.image().jobs.iter().zip(dags) {
        // Wall-clock stamps do not survive a restart (the monotonic
        // epoch is new); slowdown accounting re-derives its inputs.
        g.stamps.push(TraceStamps::default());
        g.cat_span.push(dominant_cat_span(&dag));
        match job.phase {
            JobPhase::Queued => g.queue.push_back((job.id, dag)),
            JobPhase::Cancelled => metrics.cancelled.incr(),
            JobPhase::Injected { release } => g.account_injected(&dag, release),
        }
    }
    metrics.admitted.add(log.image().jobs.len() as u64);
    metrics.completed.add(log.image().completed.len() as u64);
    g.log = log;
    metrics.virtual_time.set_u64(live.now());
    metrics.busy_steps.set_u64(live.busy_steps());
    metrics.idle_steps.set_u64(live.idle_steps());
    metrics.active_jobs.set_u64(live.active_jobs() as u64);
}

/// Registry-level swarm instruments, on the shared registry.
pub(crate) struct SwarmMetrics {
    /// Sessions currently registered — `kswarm_sessions_live`.
    pub(crate) sessions_live: GaugeHandle,
    /// Sessions opened since start — `kswarm_sessions_opened_total`.
    pub(crate) opened: CounterHandle,
    /// Sessions closed since start — `kswarm_sessions_closed_total`.
    pub(crate) closed: CounterHandle,
    /// Queued jobs across each shard's sessions —
    /// `kswarm_shard_queue_depth{shard}`.
    pub(crate) shard_depth: Vec<GaugeHandle>,
    /// Live reactor connections — `kswarm_reactor_connections`.
    pub(crate) reactor_connections: GaugeHandle,
}

impl SwarmMetrics {
    fn new(registry: &MetricsRegistry, shards: usize) -> Self {
        let shard_depth = (0..shards)
            .map(|i| {
                let label = i.to_string();
                registry.gauge_with(
                    "kswarm_shard_queue_depth",
                    "Queued jobs across the sessions pinned to each worker shard",
                    &[("shard", &label)],
                )
            })
            .collect();
        SwarmMetrics {
            sessions_live: registry.gauge(
                "kswarm_sessions_live",
                "Sessions currently registered (including the default session)",
            ),
            opened: registry.counter(
                "kswarm_sessions_opened_total",
                "Sessions opened since the daemon started",
            ),
            closed: registry.counter(
                "kswarm_sessions_closed_total",
                "Sessions closed since the daemon started",
            ),
            shard_depth,
            reactor_connections: registry.gauge(
                "kswarm_reactor_connections",
                "Client connections currently multiplexed by the reactor",
            ),
        }
    }
}

/// The multi-tenant runtime: every session, the shared registry, the
/// shard handles, and the cross-session shutdown bookkeeping.
pub(crate) struct Swarm {
    /// Base (template) configuration sessions derive from.
    pub(crate) cfg: ServerConfig,
    /// The one registry every session's series lives in.
    pub(crate) registry: MetricsRegistry,
    pub(crate) metrics: SwarmMetrics,
    pub(crate) sessions: Mutex<HashMap<String, Arc<Session>>>,
    pub(crate) shards: Vec<ShardHandle>,
    pub(crate) stop: AtomicBool,
    /// Set by a daemon-wide `drain`; refuses new sessions.
    pub(crate) global_draining: AtomicBool,
    // Final replies (drained/closed) adopted by the reactor but not
    // yet flushed to their sockets. `Server::join` waits for zero so
    // the process cannot exit while any session's reply is pending —
    // aggregated across sessions, so one slow drain cannot drop
    // another session's ack.
    pub(crate) acks: Mutex<usize>,
    pub(crate) acks_cv: Condvar,
    waker: Mutex<Option<Waker>>,
}

impl Swarm {
    /// Build the swarm: the shared registry, the default session
    /// (recovering its journal when one exists), and every named
    /// session found under `journal_dir/sessions/`.
    pub(crate) fn new(cfg: ServerConfig) -> io::Result<Arc<Swarm>> {
        let workers = effective_workers(&cfg);
        let registry = MetricsRegistry::new();
        let metrics = SwarmMetrics::new(&registry, workers);
        let swarm = Swarm {
            cfg: cfg.clone(),
            registry: registry.clone(),
            metrics,
            sessions: Mutex::new(HashMap::new()),
            shards: (0..workers).map(|_| ShardHandle::new()).collect(),
            stop: AtomicBool::new(false),
            global_draining: AtomicBool::new(false),
            acks: Mutex::new(0),
            acks_cv: Condvar::new(),
            waker: Mutex::new(None),
        };
        // The default session always exists; its journal lives at the
        // configured root so single-tenant recovery is unchanged.
        let default = create_session(cfg.clone(), String::new(), &registry, 0)?;
        swarm
            .sessions
            .lock()
            .unwrap()
            .insert(String::new(), default);
        swarm.metrics.sessions_live.set_u64(1);

        let swarm = Arc::new(swarm);
        swarm.recover_named_sessions()?;
        Ok(swarm)
    }

    /// Recover every named session journaled under
    /// `journal_dir/sessions/<name>/`. A directory with no recoverable
    /// session (e.g. left by a crash mid-close) is skipped.
    fn recover_named_sessions(&self) -> io::Result<()> {
        let Some(root) = self.cfg.journal_dir.as_ref() else {
            return Ok(());
        };
        let dir = root.join("sessions");
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if validate_session_name(&name).is_err() || !entry.path().is_dir() {
                continue;
            }
            // Peek the journaled meta to rebuild the session's config
            // (scheduler, quantum, seed, …) exactly as journaled.
            let Some(log) = JournalDir::read(&entry.path())?.fold() else {
                continue;
            };
            let mut cfg = derive_session_cfg(&self.cfg, &name, &SessionSpec::default())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
            let meta = &log.image().meta;
            let unknown = |what: &str, label: &str| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("session '{name}': unknown journaled {what} '{label}'"),
                )
            };
            cfg.machine = meta.machine.clone();
            cfg.scheduler = SchedulerKind::from_label(&meta.scheduler)
                .ok_or_else(|| unknown("scheduler", &meta.scheduler))?;
            cfg.policy = SelectionPolicy::from_name(&meta.policy)
                .ok_or_else(|| unknown("policy", &meta.policy))?;
            cfg.time_policy = TimePolicy::from_label(&meta.time_policy)
                .ok_or_else(|| unknown("time policy", &meta.time_policy))?;
            cfg.quantum = meta.quantum;
            cfg.seed = meta.seed;
            let shard = self.shard_of(&name);
            let session = create_session(cfg, name.clone(), &self.registry, shard)?;
            let mut sessions = self.sessions.lock().unwrap();
            sessions.insert(name, session);
            self.metrics.sessions_live.set_u64(sessions.len() as u64);
        }
        Ok(())
    }

    /// The shard a session name is pinned to (stable for its lifetime;
    /// the default session rides shard 0).
    pub(crate) fn shard_of(&self, name: &str) -> usize {
        if name.is_empty() {
            return 0;
        }
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Look a session up by wire name (`""` and `"default"` are the
    /// default session).
    pub(crate) fn resolve(&self, name: &str) -> Option<Arc<Session>> {
        let key = if name == "default" { "" } else { name };
        self.sessions.lock().unwrap().get(key).cloned()
    }

    /// Every registered session (snapshot).
    pub(crate) fn all_sessions(&self) -> Vec<Arc<Session>> {
        self.sessions.lock().unwrap().values().cloned().collect()
    }

    /// Sessions pinned to one shard (snapshot).
    pub(crate) fn sessions_for_shard(&self, shard: usize) -> Vec<Arc<Session>> {
        self.sessions
            .lock()
            .unwrap()
            .values()
            .filter(|s| s.shard == shard)
            .cloned()
            .collect()
    }

    /// Number of registered sessions.
    pub(crate) fn session_count(&self) -> u64 {
        self.sessions.lock().unwrap().len() as u64
    }

    /// Open (or idempotently attach to) a named session. Returns the
    /// session and whether it already existed.
    pub(crate) fn open(
        self: &Arc<Self>,
        name: &str,
        spec: &SessionSpec,
    ) -> Result<(Arc<Session>, bool), String> {
        validate_session_name(name)?;
        if self.global_draining.load(Ordering::SeqCst) {
            return Err("draining".to_string());
        }
        // Fast path outside the creation work: attach to a live session.
        if let Some(existing) = self.sessions.lock().unwrap().get(name).cloned() {
            if existing.inner.lock().unwrap().draining {
                return Err(format!("session '{name}' is closing"));
            }
            check_spec_matches(&existing.cfg, spec)?;
            return Ok((existing, true));
        }
        let cfg = derive_session_cfg(&self.cfg, name, spec)?;
        let shard = self.shard_of(name);
        let session = create_session(cfg, name.to_string(), &self.registry, shard)
            .map_err(|e| e.to_string())?;
        let mut sessions = self.sessions.lock().unwrap();
        // Raced another open of the same name: first one wins.
        if let Some(existing) = sessions.get(name).cloned() {
            drop(sessions);
            check_spec_matches(&existing.cfg, spec)?;
            return Ok((existing, true));
        }
        sessions.insert(name.to_string(), Arc::clone(&session));
        self.metrics.sessions_live.set_u64(sessions.len() as u64);
        drop(sessions);
        self.metrics.opened.incr();
        self.shards[shard].wake();
        Ok((session, false))
    }

    /// Remove a drained session from the registry and destroy its
    /// journal directory (close = destroy; drain keeps the journal).
    pub(crate) fn finish_close(&self, session: &Arc<Session>) {
        let mut sessions = self.sessions.lock().unwrap();
        let removed = sessions.remove(&session.name).is_some();
        self.metrics.sessions_live.set_u64(sessions.len() as u64);
        drop(sessions);
        if removed {
            self.metrics.closed.incr();
            // Retire the tenant's labeled series so /metrics stops
            // exporting a destroyed session.
            self.registry.remove_labeled("session", &session.name);
            if let Some(dir) = &session.cfg.journal_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// Install the reactor's wake handle (once, at reactor startup).
    pub(crate) fn set_waker(&self, waker: Waker) {
        *self.waker.lock().unwrap() = Some(waker);
    }

    /// Wake the reactor so it notices completions, drains, and acks.
    pub(crate) fn wake_reactor(&self) {
        if let Some(w) = self.waker.lock().unwrap().as_ref() {
            w.wake();
        }
    }

    /// Wake every worker shard (used at stop).
    pub(crate) fn wake_all_shards(&self) {
        for s in &self.shards {
            s.wake();
        }
    }

    /// Adopt one pending final reply into the cross-session ledger.
    pub(crate) fn adopt_ack(&self) {
        *self.acks.lock().unwrap() += 1;
    }

    /// Settle `n` pending final replies (flushed or their connection
    /// died); wakes `Server::join`.
    pub(crate) fn settle_acks(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut acks = self.acks.lock().unwrap();
        *acks = acks.saturating_sub(n);
        self.acks_cv.notify_all();
    }
}

/// Resolve the worker-pool width: `cfg.workers`, or the machine's
/// available parallelism (at least 1) when zero.
pub(crate) fn effective_workers(cfg: &ServerConfig) -> usize {
    if cfg.workers > 0 {
        return cfg.workers;
    }
    std::thread::available_parallelism().map_or(2, usize::from)
}

/// Session names are path- and label-safe: 1–64 chars from
/// `[A-Za-z0-9._-]`, not `.`/`..`, and not the reserved `default`.
pub(crate) fn validate_session_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.len() > 64 {
        return Err("session name must be 1–64 characters".to_string());
    }
    if name == "." || name == ".." || name == "default" {
        return Err(format!("session name '{name}' is reserved"));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
    {
        return Err(format!(
            "session name '{name}' has characters outside [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Derive a named session's effective config from the base config and
/// the `open` overrides.
fn derive_session_cfg(
    base: &ServerConfig,
    name: &str,
    spec: &SessionSpec,
) -> Result<ServerConfig, String> {
    let mut cfg = base.clone();
    // Named sessions journal under `<root>/sessions/<name>/` (the
    // validated name cannot traverse) and never share the default
    // session's flight-dump path or external telemetry sink.
    cfg.journal_dir = base
        .journal_dir
        .as_ref()
        .map(|d| d.join("sessions").join(name));
    cfg.flight_dump = None;
    if let Some(s) = &spec.scheduler {
        cfg.scheduler =
            SchedulerKind::from_label(s).ok_or_else(|| format!("unknown scheduler '{s}'"))?;
    }
    if let Some(p) = &spec.policy {
        cfg.policy =
            SelectionPolicy::from_name(p).ok_or_else(|| format!("unknown policy '{p}'"))?;
    }
    if let Some(q) = spec.quantum {
        if q == 0 {
            return Err("quantum must be at least 1".to_string());
        }
        cfg.quantum = q;
    }
    if let Some(s) = spec.seed {
        cfg.seed = s;
    }
    if let Some(c) = spec.queue_capacity {
        cfg.queue_capacity = c as usize;
    }
    if let Some(m) = spec.max_inflight {
        cfg.max_inflight = m as usize;
    }
    if let Some(r) = spec.rate_per_sec {
        if r.is_nan() || r < 0.0 {
            return Err("rate_per_sec must be ≥ 0".to_string());
        }
        cfg.session_rate = r;
    }
    if let Some(b) = spec.burst {
        cfg.session_burst = b;
    }
    Ok(cfg)
}

/// Idempotent-open compatibility: an explicit override that disagrees
/// with the live session's config is an error, not a silent attach.
fn check_spec_matches(cfg: &ServerConfig, spec: &SessionSpec) -> Result<(), String> {
    let mut diffs = Vec::new();
    if let Some(s) = &spec.scheduler {
        if SchedulerKind::from_label(s) != Some(cfg.scheduler) {
            diffs.push(format!("scheduler {s} vs live {}", cfg.scheduler.label()));
        }
    }
    if let Some(p) = &spec.policy {
        if SelectionPolicy::from_name(p) != Some(cfg.policy) {
            diffs.push(format!("policy {p} vs live {}", cfg.policy.name()));
        }
    }
    if let Some(q) = spec.quantum {
        if q != cfg.quantum {
            diffs.push(format!("quantum {q} vs live {}", cfg.quantum));
        }
    }
    if let Some(s) = spec.seed {
        if s != cfg.seed {
            diffs.push(format!("seed {s} vs live {}", cfg.seed));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "open conflicts with the live session configuration: {}",
            diffs.join(", ")
        ))
    }
}

/// Build one session: metrics series (labeled for named sessions),
/// journal open + verified recovery replay, engine + scheduler
/// construction — everything `Server::start` used to do once, now per
/// session.
pub(crate) fn create_session(
    cfg: ServerConfig,
    name: String,
    registry: &MetricsRegistry,
    shard: usize,
) -> io::Result<Arc<Session>> {
    if cfg.machine.is_empty() || cfg.machine.contains(&0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "machine needs at least one category with ≥ 1 processor",
        ));
    }
    if cfg.quantum == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "quantum must be at least 1",
        ));
    }
    let session_label = (!name.is_empty()).then_some(name.as_str());
    let metrics = ServiceMetrics::with_registry(registry, &cfg.machine, session_label);
    let mode_tracker = ModeTracker::with_session(cfg.machine.len(), registry, session_label);
    let flight = (cfg.flight_capacity > 0)
        .then(|| Arc::new(Mutex::new(FlightRecorder::new(cfg.flight_capacity))));
    let (journal, recovered) = match &cfg.journal_dir {
        Some(dir) => {
            let (store, recovered) = JournalStore::open(dir, cfg.fsync)?;
            (
                Some(SessionJournal::new(store, &metrics, cfg.snapshot_every)),
                recovered,
            )
        }
        None => (None, None),
    };
    let k = cfg.machine.len();
    let session = Arc::new(Session {
        name,
        inner: Mutex::new(Inner {
            log: SessionLog::new(journal::session_meta(&cfg)),
            queue: VecDeque::new(),
            draining: false,
            drained: false,
            work_by_cat: vec![0; k],
            span_release_max: 0,
            stamps: Vec::new(),
            cat_span: Vec::new(),
            slo_breached: false,
            quota: TokenBucket::new(cfg.session_rate, cfg.session_burst),
            max_queue_depth: 0,
            watchers: Vec::new(),
        }),
        cv: Condvar::new(),
        engine: Mutex::new(None),
        metrics,
        mode_tracker,
        flight,
        journal,
        traces: Arc::new(Mutex::new(TraceAssembler::new())),
        nonce: session_nonce(),
        cfg,
        shard,
    });

    let cfg = &session.cfg;
    let tel = session.telemetry_fanout();
    let spans = SpanRecorder::for_registry(session.metrics.registry());
    let res = Resources::new(cfg.machine.clone());
    let sim_cfg = SimConfig::default()
        .with_policy(cfg.policy)
        .with_seed(cfg.seed)
        .with_quantum(cfg.quantum)
        .with_time_policy(cfg.time_policy)
        .with_telemetry(tel)
        .with_spans(spans.clone());
    // The scheduler is built here (not in the worker) so a journal
    // recovery replays through the *same* instance that then keeps
    // serving — its internal state (RAD marks, RR cursors, RNG) is
    // part of the determinism argument.
    let mut scheduler = cfg.scheduler.build(res.k(), cfg.seed, &sim_cfg);
    let mut live = LiveSimulation::new(res, sim_cfg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;

    match recovered {
        Some(rec) => {
            let t0 = Instant::now();
            journal::validate_meta(cfg, &rec.image.meta)?;
            let counts = rec.image.counts();
            let log = SessionLog::from_image(rec.image);
            let dags = journal::replay_session(&mut live, scheduler.as_mut(), &log)?;
            let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut g = session.inner.lock().unwrap();
            adopt_recovered(&mut g, &session.metrics, log, dags, &live);
            session.metrics.recovery_duration_ms.set(recovery_ms);
            // Compact immediately: a crash-restart loop must not grow
            // the WAL without bound.
            if let Some(j) = &session.journal {
                j.snapshot(g.log.image())?;
            }
            let image = g.log.image();
            let who = if session.name.is_empty() {
                String::new()
            } else {
                format!(" '{}'", session.name)
            };
            eprintln!(
                "kserve: recovered session{who} from journal ({} jobs: {} done, {} running, \
                 {} queued, {} cancelled; clock {}; {} WAL records{}), replay verified \
                 in {recovery_ms:.1} ms",
                image.jobs.len(),
                counts.3,
                counts.1,
                counts.0,
                counts.2,
                image.clock,
                rec.wal_records,
                if rec.dropped_bytes > 0 {
                    format!(", {} torn bytes truncated", rec.dropped_bytes)
                } else {
                    String::new()
                },
            );
        }
        None => {
            let mut g = session.inner.lock().unwrap();
            session.commit(
                &mut g.log,
                &[Record::SessionOpen(journal::session_meta(cfg))],
            )?;
        }
    }

    *session.engine.lock().unwrap() = Some(EngineState {
        live,
        scheduler,
        spans,
        done_buf: Vec::new(),
        desires_buf: Vec::new(),
        next_due: None,
    });
    Ok(session)
}
