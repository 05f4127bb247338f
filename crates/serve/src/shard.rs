//! kswarm worker pool: N threads, each pinned to a shard of sessions.
//!
//! Every session is pinned to exactly one shard for its whole life
//! (`Swarm::shard_of`), and each shard is pumped by exactly one worker
//! thread — so a session's engine is only ever stepped sequentially,
//! by one thread, which is what keeps per-session replay byte-for-byte
//! deterministic. The worker runs the same quantum loop the old
//! single-tenant scheduler thread ran ([`pump_session`]), round-robin
//! across its sessions: inject admitted jobs, advance one quantum
//! unlocked, publish completions, then move on. Each injection and
//! each quantum boundary is a `kjournal::Record` folded into the
//! session's log (the quantum committed to the journal *before* any
//! broadcast); completions are read back from that log, and the
//! drained session's trace and snapshot are derived from it, so the
//! worker keeps no job table of its own. A worker with no runnable
//! session parks on its [`ShardHandle`] condvar; admissions, cancels,
//! and drains wake only the owning shard, so submits never contend
//! across shards.

use crate::protocol::Event;
use crate::registry::{EngineState, Inner, Session, Swarm};
use kjournal::Record;
use ksim::{JobSpec, LiveSimulation, Time};
use ktelemetry::{FlightRecorder, SpanKind, TelemetryEvent, TelemetrySink};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle worker parks before re-scanning its shard: the
/// latency bound on work arriving without an explicit wake (e.g. a
/// session's `tick` pacing coming due).
const IDLE_PARK: Duration = Duration::from_millis(10);

/// A wakeable parking spot for one worker shard.
pub(crate) struct ShardHandle {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl ShardHandle {
    pub(crate) fn new() -> Self {
        ShardHandle {
            pending: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Flag work for this shard and wake its worker.
    pub(crate) fn wake(&self) {
        *self.pending.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Park until woken or `timeout`, consuming the pending flag.
    fn wait_timeout(&self, timeout: Duration) {
        let mut pending = self.pending.lock().unwrap();
        if !*pending {
            let (back, _) = self.cv.wait_timeout(pending, timeout).unwrap();
            pending = back;
        }
        *pending = false;
    }
}

/// The worker thread body: pump every session pinned to `shard` until
/// the swarm stops.
pub(crate) fn worker_loop(swarm: &Arc<Swarm>, shard: usize) {
    // Only the default session can have a flight-dump path (named
    // sessions never do — see `derive_session_cfg`), and it is pinned
    // to shard 0; dump its ring if this worker panics mid-quantum.
    let _guard = (shard == 0)
        .then(|| swarm.resolve(""))
        .flatten()
        .map(|s| FlightDumpGuard {
            flight: s.flight.clone(),
            path: s.cfg.flight_dump.clone(),
        });
    loop {
        let sessions = swarm.sessions_for_shard(shard);
        let mut busy = false;
        let mut depth = 0u64;
        for s in &sessions {
            busy |= pump_session(s, swarm);
            depth += s.inner.lock().unwrap().queue.len() as u64;
        }
        swarm.metrics.shard_depth[shard].set_u64(depth);
        if swarm.stop.load(Ordering::SeqCst) {
            return;
        }
        if !busy {
            swarm.shards[shard].wait_timeout(IDLE_PARK);
        }
    }
}

/// Run one session for one quantum (or finalize its drain). Returns
/// `true` if it did work — `false` means the session is idle (parked,
/// paced, or already retired) and contributes nothing to the worker's
/// busy check.
///
/// Lock order: the engine mutex first (held across the whole pump; it
/// is uncontended — only this worker and session teardown touch it),
/// the `Inner` mutex second, a journal commit inside that. Never the
/// reverse.
pub(crate) fn pump_session(s: &Arc<Session>, swarm: &Swarm) -> bool {
    let mut eng_guard = s.engine.lock().unwrap();
    let Some(eng) = eng_guard.as_mut() else {
        // Drained and retired; the registry entry survives so late
        // stats/drain verbs still resolve.
        return false;
    };
    let cfg = &s.cfg;

    // Admit queued jobs, or bail if there is nothing to run.
    {
        let mut g = s.inner.lock().unwrap();
        if let Some(due) = eng.next_due {
            // Wall-clock pacing: not due yet (draining ignores pacing,
            // matching the single-tenant loop's skip of the tick sleep).
            if !g.draining && Instant::now() < due {
                return false;
            }
            eng.next_due = None;
        }
        inject_queued(&mut eng.live, &mut g, s);
        if !eng.live.has_work() {
            if g.draining {
                finalize_drain(&eng.live, &mut g, s);
                s.notify();
                drop(g);
                // Retire the engine: the session keeps its final state
                // (trace, counters, journal) but can never step again.
                *eng_guard = None;
                swarm.wake_reactor();
                return true;
            }
            return false;
        }
    }

    let EngineState {
        live,
        scheduler,
        spans,
        done_buf,
        desires_buf,
        next_due,
    } = eng;

    // One quantum of engine work, unlocked. `run_until` follows the
    // configured [`ksim::TimePolicy`]: under the event-driven clock
    // the whole quantum is usually a handful of batched segments.
    let start = Instant::now();
    let quantum_span = spans.start();
    done_buf.clear();
    let target = live.now() + cfg.quantum.max(1);
    if live.has_work() {
        let report = live.run_until(target, scheduler.as_mut());
        done_buf.extend(report.completed_jobs());
    }
    spans.finish(SpanKind::Quantum, quantum_span);
    let latency_us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    // Refresh the scrapeable gauges (atomic handles — no lock).
    live.desire_totals_into(desires_buf);
    s.metrics.update_per_category(
        &cfg.machine,
        desires_buf,
        live.last_allotted(),
        live.executed_by_category(),
        live.allotted_by_category(),
        live.now(),
    );
    s.metrics.active_jobs.set_u64(live.active_jobs() as u64);
    s.metrics.virtual_time.set_u64(live.now());
    s.metrics.busy_steps.set_u64(live.busy_steps());
    s.metrics.idle_steps.set_u64(live.idle_steps());
    s.metrics.refresh_uptime();
    s.mode_tracker.refresh();

    // Publish.
    {
        let mut g = s.inner.lock().unwrap();
        s.metrics.quanta.incr();
        s.metrics.quantum_latency_us.record(latency_us);
        s.metrics
            .update_bounds(&cfg.machine, &g.work_by_cat, g.span_release_max);
        let done_jobs: Vec<(u64, Time)> = done_buf
            .iter()
            .map(|&engine_idx| {
                let completion = live
                    .completion(engine_idx)
                    .expect("just-completed job has a completion time");
                (g.log.injected()[engine_idx], completion)
            })
            .collect();
        // Commit the quantum (and any injections buffered at its
        // start) before a single completion is broadcast: a
        // `kill -9` after this point replays to the same state.
        let quantum = Record::Quantum {
            to: live.now(),
            busy: live.busy_steps(),
            idle: live.idle_steps(),
            completed: done_jobs.clone(),
        };
        s.commit(&mut g.log, &[quantum])
            .expect("journal commit failed; cannot acknowledge unjournaled completions");
        let complete_ns = s.elapsed_ns();
        for (id, completion) in done_jobs {
            let release = g.log.job(id).and_then(|j| j.phase.release());
            let release = release.expect("completed job must have been injected");
            s.metrics.completed.incr();
            g.stamps[id as usize].complete_ns = Some(complete_ns);
            let (cat, span) = g.cat_span[id as usize];
            s.metrics.record_completion(cat, completion - release, span);
            Session::broadcast(
                &mut g,
                Event::JobDone {
                    job: id,
                    release,
                    completion,
                    response: completion - release,
                    trace_id: s.trace_id(id),
                },
            );
        }
        // SLO check, edge-triggered on the running mean response
        // crossing `slo_factor ×` the live Theorem-3 bound. The alert
        // annotates the flight ring only — it is a service
        // observation, not an engine event, so deterministic replay
        // stays byte-for-byte comparable.
        if cfg.slo_factor > 0.0 && !done_buf.is_empty() {
            let mean = s.metrics.response_all.mean();
            let threshold = cfg.slo_factor * s.metrics.bound_theorem3.get();
            if threshold > 0.0 && mean > threshold {
                if !g.slo_breached {
                    g.slo_breached = true;
                    s.metrics.slo_breaches.incr();
                    if let Some(flight) = &s.flight {
                        if let Ok(mut ring) = flight.lock() {
                            ring.record(TelemetryEvent::SloAlert {
                                t: live.now(),
                                mean_response_milli: (mean * 1e3) as u64,
                                threshold_milli: (threshold * 1e3) as u64,
                            });
                        }
                    }
                }
            } else {
                g.slo_breached = false;
            }
        }
        if let Some(j) = &s.journal {
            if let Err(e) = j.snapshot_if_due(g.log.image()) {
                // The WAL is still intact — degraded, not fatal.
                eprintln!("kserve: journal snapshot failed: {e}");
            }
        }
        if cfg.tick > Duration::ZERO && !g.draining {
            *next_due = Some(start + cfg.tick);
        }
        if !done_buf.is_empty() {
            s.notify();
            swarm.wake_reactor();
        }
    }
    true
}

/// Move every queued job into the engine with `release = now()`.
/// Injection records are buffered into the journal (not yet
/// committed): they ride the quantum's group commit, and nothing
/// observable depends on them until that commit lands.
fn inject_queued(live: &mut LiveSimulation, g: &mut Inner, s: &Session) {
    while let Some((id, dag)) = g.queue.pop_front() {
        let release = live.now();
        g.stamps[id as usize].inject_ns = Some(s.elapsed_ns());
        g.account_injected(&dag, release);
        let engine_idx = live
            .inject(JobSpec { dag, release })
            .expect("admission validated the DAG and release = now() is never in the past");
        s.append(&mut g.log, Record::JobInjected { job: id, release });
        debug_assert_eq!(g.log.injected()[engine_idx], id);
    }
}

/// Seal a session: refresh the final gauges, dump the flight recorder,
/// snapshot the journal, and mark drained. The canonical trace needs
/// no sealing — it is derived from the log, which no longer changes.
fn finalize_drain(live: &LiveSimulation, g: &mut Inner, s: &Session) {
    let cfg = &s.cfg;
    s.metrics.active_jobs.set_u64(0);
    s.metrics.virtual_time.set_u64(live.now());
    s.metrics.busy_steps.set_u64(live.busy_steps());
    s.metrics.idle_steps.set_u64(live.idle_steps());
    dump_flight(s.flight.as_ref(), cfg.flight_dump.as_deref());
    // Seal the journal: one final snapshot (fsync'd regardless of
    // policy) so the directory holds the complete session compactly.
    if let Some(j) = &s.journal {
        if let Err(e) = j.snapshot(g.log.image()).and_then(|()| j.sync()) {
            eprintln!("kserve: journal drain snapshot failed: {e}");
        }
    }
    g.drained = true;
    let mut watchers = std::mem::take(&mut g.watchers);
    watchers.retain(|w| w.send(Event::WatchEnd).is_ok());
}

/// Write the flight recorder's contents (oldest first) to `path` as
/// JSONL. A no-op unless both the recorder and the path are configured.
pub(crate) fn dump_flight(flight: Option<&Arc<Mutex<FlightRecorder>>>, path: Option<&Path>) {
    let (Some(flight), Some(path)) = (flight, path) else {
        return;
    };
    if let Ok(recorder) = flight.lock() {
        let _ = std::fs::write(path, recorder.to_jsonl());
    }
}

/// Dumps the flight recorder from `Drop` when a worker thread panics,
/// so the last events before the crash survive on disk.
struct FlightDumpGuard {
    flight: Option<Arc<Mutex<FlightRecorder>>>,
    path: Option<PathBuf>,
}

impl Drop for FlightDumpGuard {
    fn drop(&mut self) {
        if thread::panicking() {
            dump_flight(self.flight.as_ref(), self.path.as_deref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Request, Response};
    use crate::server::{dispatch, drain_reply_for, Outcome, ServerConfig};
    use kdag::DagSpec;
    use kjournal::{FsyncPolicy, JournalDir, JournalStore, SessionImage};
    use kworkloads::mixes::{batched_mix, MixConfig};
    use kworkloads::rng_for;

    // A swarm with no worker threads: the test pumps the default
    // session by hand, so every run of the script is deterministic.
    fn swarm(journal_dir: Option<PathBuf>) -> Arc<Swarm> {
        Swarm::new(ServerConfig {
            quantum: 2,
            seed: 7,
            journal_dir,
            fsync: FsyncPolicy::Never,
            snapshot_every: 3,
            ..ServerConfig::default()
        })
        .expect("swarm starts")
    }

    fn reply(swarm: &Arc<Swarm>, line: &str) -> Response {
        match dispatch(line, swarm) {
            Outcome::Reply(r) => r,
            _ => panic!("expected an immediate reply to {line}"),
        }
    }

    fn submit(swarm: &Arc<Swarm>, n: usize, seed: u64) {
        let mut rng = rng_for(seed, 0x10C);
        let jobs = batched_mix(&mut rng, &MixConfig::new(2, n, 12))
            .iter()
            .map(|j| DagSpec::from_dag(&j.dag))
            .collect();
        let line = Request::Submit {
            jobs,
            scenario: None,
            watch: false,
            session: String::new(),
        }
        .encode();
        assert!(matches!(reply(swarm, &line), Response::Submitted { .. }));
    }

    fn pump(swarm: &Arc<Swarm>, quanta: usize) {
        let s = swarm.resolve("").unwrap();
        for _ in 0..quanta {
            pump_session(&s, swarm);
        }
    }

    fn image(swarm: &Arc<Swarm>) -> SessionImage {
        let s = swarm.resolve("").unwrap();
        let g = s.inner.lock().unwrap();
        g.log.image().clone()
    }

    /// Admissions, a cancel, and several quanta.
    fn serve_script(swarm: &Arc<Swarm>) {
        submit(swarm, 4, 1);
        pump(swarm, 2);
        submit(swarm, 3, 2);
        let cancel = reply(swarm, r#"{"cmd":"cancel","job":6}"#);
        assert_eq!(cancel, Response::Cancelled { job: 6 });
        pump(swarm, 3);
        submit(swarm, 5, 3);
        pump(swarm, 2);
    }

    fn drain(swarm: &Arc<Swarm>) {
        assert!(matches!(
            dispatch(r#"{"cmd":"drain"}"#, swarm),
            Outcome::Drain(_)
        ));
        let s = swarm.resolve("").unwrap();
        for _ in 0..10_000 {
            if s.inner.lock().unwrap().drained {
                return;
            }
            pump_session(&s, swarm);
        }
        panic!("session never drained");
    }

    #[test]
    fn the_live_log_is_the_disk_log() {
        let dir = std::env::temp_dir().join(format!("kserve-live-log-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let durable = swarm(Some(dir.clone()));
        let volatile = swarm(None);
        serve_script(&durable);
        serve_script(&volatile);

        let live = image(&durable);
        let (queued, running, cancelled, done) = live.counts();
        assert!(
            queued + running > 0 && done > 0,
            "mid-session: {:?}",
            live.counts()
        );
        assert_eq!(cancelled, 1);
        let files = JournalDir::read(&dir).unwrap();
        assert!(files.snapshot.is_some(), "a periodic snapshot was written");
        let tail = files.wal.as_ref().map_or(0, |wal| wal.records.len());
        assert!(tail > 0, "records follow the snapshot in the WAL");
        assert_eq!(files.fold().unwrap().image(), &live, "disk fold = live log");
        assert_eq!(image(&volatile), live, "journal-less log = journaled log");

        drain(&durable);
        drain(&volatile);
        let live = image(&durable);
        assert_eq!(live.counts(), (0, 0, 1, 11));
        let (_store, recovered) = JournalStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(
            recovered.unwrap().image,
            live,
            "drained disk fold = live log"
        );
        assert_eq!(
            image(&volatile),
            live,
            "drained journal-less log = journaled log"
        );
        let trace = drain_reply_for(&durable.resolve("").unwrap()).trace;
        assert_eq!(trace, drain_reply_for(&volatile.resolve("").unwrap()).trace);
        trace
            .verify()
            .expect("the derived trace replays byte for byte");
        std::fs::remove_dir_all(&dir).ok();
    }
}
