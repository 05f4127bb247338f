//! Durability bridge between the daemon and [`kjournal`].
//!
//! Every session keeps its [`SessionLog`] in memory: the fold of its
//! record stream, and the only job table the daemon has. A change to
//! a session is a [`Record`] folded into that log by the one rule
//! [`SessionLog::apply`]; when the session is durable the record is
//! first appended to the WAL through [`SessionJournal`], which wraps
//! the on-disk [`JournalStore`] behind its own mutex (lock order:
//! `Inner` first, journal second — never the reverse) and mirrors
//! writer counters into the metrics registry after every commit. The
//! daemon's invariant is *commit before ack*: an admission,
//! cancellation, or completion broadcast only reaches the wire after
//! the corresponding records are flushed to the WAL with `write(2)`
//! (so they survive `kill -9`; the fsync policy decides what survives
//! an OS crash). Snapshots encode the borrowed in-memory image.
//!
//! Recovery ([`replay_session`]) is the replay-determinism argument
//! made operational: the journal persists only the session *inputs*
//! (config, admitted DAGs, injection releases) plus a digest of the
//! outputs (clock, busy/idle accumulators, completion times). The
//! folded log is adopted as the session's log as is; the engine is
//! rebuilt by re-injecting the inputs and advancing to the journaled
//! clock, and the rebuilt digest must match the journaled one
//! exactly, in both directions, or recovery refuses to serve. See
//! DESIGN.md §14.

use crate::metrics::ServiceMetrics;
use crate::server::ServerConfig;
use kdag::JobDag;
use kjournal::{JournalStats, JournalStore, Record, SessionImage, SessionLog, SessionMeta};
use ksim::{JobSpec, LiveSimulation, Scheduler};
use ktelemetry::{CounterHandle, GaugeHandle, HistogramHandle};
use std::io;
use std::sync::{Arc, Mutex};

/// The [`SessionMeta`] a config journals — and the one a journaled
/// session is validated against on restart.
pub fn session_meta(cfg: &ServerConfig) -> SessionMeta {
    SessionMeta {
        machine: cfg.machine.clone(),
        scheduler: cfg.scheduler.label().to_string(),
        policy: cfg.policy.name().to_string(),
        time_policy: cfg.time_policy.label().to_string(),
        quantum: cfg.quantum,
        seed: cfg.seed,
    }
}

/// Refuse to resume a journal under a different configuration: the
/// engine is only deterministic under the exact (machine, scheduler,
/// policy, clock, quantum, seed) tuple that produced the journal.
pub fn validate_meta(cfg: &ServerConfig, meta: &SessionMeta) -> io::Result<()> {
    let want = session_meta(cfg);
    if want == *meta {
        return Ok(());
    }
    let mut diffs = Vec::new();
    if want.machine != meta.machine {
        diffs.push(format!(
            "machine {:?} vs journaled {:?}",
            want.machine, meta.machine
        ));
    }
    if want.scheduler != meta.scheduler {
        diffs.push(format!(
            "scheduler {} vs journaled {}",
            want.scheduler, meta.scheduler
        ));
    }
    if want.policy != meta.policy {
        diffs.push(format!(
            "policy {} vs journaled {}",
            want.policy, meta.policy
        ));
    }
    if want.time_policy != meta.time_policy {
        diffs.push(format!(
            "time_policy {} vs journaled {}",
            want.time_policy, meta.time_policy
        ));
    }
    if want.quantum != meta.quantum {
        diffs.push(format!(
            "quantum {} vs journaled {}",
            want.quantum, meta.quantum
        ));
    }
    if want.seed != meta.seed {
        diffs.push(format!("seed {} vs journaled {}", want.seed, meta.seed));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(
            "journal was written by a different session configuration: {}",
            diffs.join(", ")
        ),
    ))
}

fn divergence(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("journal/replay divergence — refusing to resume: {what}"),
    )
}

/// Rebuild the engine from a recovered [`SessionLog`]: re-inject
/// every injected job in injection order with its journaled release,
/// advance to the journaled clock under the *same* scheduler instance
/// that will keep serving, and verify the rebuilt digest (clock,
/// busy/idle, every completion) against the log in both directions.
/// Any mismatch is an error, not a warning — serving from a diverged
/// engine would silently rewrite history. Returns every job's built
/// DAG, in id order.
pub fn replay_session(
    live: &mut LiveSimulation,
    scheduler: &mut dyn Scheduler,
    log: &SessionLog,
) -> io::Result<Vec<Arc<JobDag>>> {
    let image = log.image();
    let mut dags = Vec::with_capacity(image.jobs.len());
    for (i, j) in image.jobs.iter().enumerate() {
        if j.id != i as u64 {
            return Err(divergence(format!(
                "job ids must be consecutive admission ids, found {} at position {i}",
                j.id
            )));
        }
        let dag = j.dag.build().map_err(|e| {
            divergence(format!(
                "journaled DAG for job {} fails validation: {e}",
                j.id
            ))
        })?;
        dags.push(Arc::new(dag));
    }
    for &id in log.injected() {
        let job = &image.jobs[id as usize];
        live.inject(JobSpec {
            dag: Arc::clone(&dags[id as usize]),
            release: job.phase.release().expect("the log lists injected jobs"),
        })
        .map_err(|e| divergence(format!("re-injecting job {id}: {e}")))?;
    }

    if !log.injected().is_empty() {
        live.run_until(image.clock, scheduler);
    }
    if live.now() != image.clock {
        return Err(divergence(format!(
            "clock: replay reached {} but the journal says {}",
            live.now(),
            image.clock
        )));
    }
    if live.busy_steps() != image.busy || live.idle_steps() != image.idle {
        return Err(divergence(format!(
            "busy/idle: replay reached {}/{} but the journal says {}/{}",
            live.busy_steps(),
            live.idle_steps(),
            image.busy,
            image.idle
        )));
    }

    // Completion digest, both directions: everything the journal acked
    // must have completed at the same virtual time, and nothing may
    // have completed that the journal does not know about.
    for (engine_idx, &id) in log.injected().iter().enumerate() {
        let (replayed, journaled) = (live.completion(engine_idx), log.completion(id));
        if replayed != journaled {
            return Err(divergence(format!(
                "job {id}: replayed completion {replayed:?} vs journaled {journaled:?}"
            )));
        }
    }
    for &(id, _) in &image.completed {
        if log.injected().binary_search(&id).is_err() {
            return Err(divergence(format!(
                "journaled completion for job {id}, which was never injected"
            )));
        }
    }
    Ok(dags)
}

/// Journal health for the `stats` verb.
#[derive(Clone, Copy, Debug, Default)]
pub struct JournalHealth {
    /// Records appended since open.
    pub records: u64,
    /// Bytes committed since open.
    pub bytes: u64,
    /// fsync(2) calls since open.
    pub fsyncs: u64,
    /// Snapshots written since open.
    pub snapshots: u64,
    /// WAL records past the last snapshot.
    pub tail_records: u64,
}

struct JState {
    store: JournalStore,
    mirrored: JournalStats,
    quanta: u64,
}

/// The daemon's handle on the journal: serialized writes, snapshot
/// cadence, and metric mirroring.
pub struct SessionJournal {
    state: Mutex<JState>,
    snapshot_every: u64,
    records: CounterHandle,
    bytes: CounterHandle,
    fsyncs: CounterHandle,
    fsync_us: HistogramHandle,
    snapshots: CounterHandle,
    tail: GaugeHandle,
}

impl SessionJournal {
    /// Wrap an opened store, wiring its counters into `metrics`.
    pub fn new(store: JournalStore, metrics: &ServiceMetrics, snapshot_every: u64) -> Self {
        SessionJournal {
            state: Mutex::new(JState {
                store,
                mirrored: JournalStats::default(),
                quanta: 0,
            }),
            snapshot_every,
            records: metrics.journal_records.clone(),
            bytes: metrics.journal_bytes.clone(),
            fsyncs: metrics.journal_fsyncs.clone(),
            fsync_us: metrics.journal_fsync_us.clone(),
            snapshots: metrics.journal_snapshots.clone(),
            tail: metrics.journal_tail_records.clone(),
        }
    }

    fn mirror(&self, st: &mut JState) {
        let now = st.store.stats();
        self.records.add(now.records - st.mirrored.records);
        self.bytes.add(now.bytes - st.mirrored.bytes);
        if now.fsyncs > st.mirrored.fsyncs {
            self.fsyncs.add(now.fsyncs - st.mirrored.fsyncs);
            self.fsync_us.record(now.last_fsync_micros);
        }
        self.tail.set_u64(st.store.tail_records());
        st.mirrored = now;
    }

    /// Buffer `records` into the WAL. Not durable until [`commit`]:
    /// injections ride the next group commit (the quantum boundary,
    /// at the latest), which is safe — until that commit lands, no
    /// output depending on them has been acknowledged either.
    ///
    /// [`commit`]: SessionJournal::commit
    pub fn append(&self, records: &[Record]) {
        let mut st = self.state.lock().unwrap();
        for record in records {
            st.store.append(record);
            st.quanta += u64::from(matches!(record, Record::Quantum { .. }));
        }
    }

    /// Group-commit everything appended so far — *before* the ack or
    /// broadcast that depends on it.
    pub fn commit(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.store.commit()?;
        self.mirror(&mut st);
        Ok(())
    }

    /// Snapshot `image` when the cadence says one is due: the number of
    /// journaled quanta since open is a positive multiple of
    /// `snapshot_every`. Call once per journaled quantum.
    pub fn snapshot_if_due(&self, image: &SessionImage) -> io::Result<()> {
        let quanta = self.state.lock().unwrap().quanta;
        if self.snapshot_every > 0 && quanta > 0 && quanta.is_multiple_of(self.snapshot_every) {
            self.snapshot(image)?;
        }
        Ok(())
    }

    /// Write a snapshot and truncate the WAL behind it.
    pub fn snapshot(&self, image: &SessionImage) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.store.snapshot(image)?;
        self.snapshots.incr();
        self.mirror(&mut st);
        Ok(())
    }

    /// Force an fsync regardless of policy (used at drain).
    pub fn sync(&self) -> io::Result<()> {
        let mut st = self.state.lock().unwrap();
        st.store.sync()?;
        self.mirror(&mut st);
        Ok(())
    }

    /// The durability label clients see: `wal:<fsync policy>`.
    pub fn durability(&self) -> String {
        let st = self.state.lock().unwrap();
        format!("wal:{}", st.store.policy().label())
    }

    /// Counters for the `stats` verb.
    pub fn health(&self) -> JournalHealth {
        let st = self.state.lock().unwrap();
        let stats = st.store.stats();
        JournalHealth {
            records: stats.records,
            bytes: stats.bytes,
            fsyncs: stats.fsyncs,
            snapshots: st.store.snapshots(),
            tail_records: st.store.tail_records(),
        }
    }
}
