//! Kill-9 crash/recovery end-to-end: a child process serves a live
//! journaled session, the parent SIGKILLs it mid-quantum, restarts a
//! server on the same journal directory, and proves recovery by the
//! replay bridge — zero acked-job loss and a drained trace that
//! replays byte-for-byte through offline `simulate()`, under both the
//! unit-step and event-driven engine clocks.
//!
//! The child is this same test binary re-executed with
//! `KRAD_CRASH_CHILD_DIR` set: the `crash_child_server` "test" then
//! starts a daemon, writes its address to a file, and blocks in
//! `join()` until the parent kills it dead. Without the env var that
//! test is an immediate no-op pass.

use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use kjournal::FsyncPolicy;
use kserve::protocol::{Request, Response, ScenarioRef, SessionSpec};
use kserve::server::{Server, ServerConfig};
use kserve::Client;
use ksim::TimePolicy;
use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

const CHILD_DIR: &str = "KRAD_CRASH_CHILD_DIR";
const CHILD_PORTFILE: &str = "KRAD_CRASH_CHILD_PORTFILE";
const CHILD_TIME_POLICY: &str = "KRAD_CRASH_CHILD_TIME_POLICY";

/// The session configuration shared by the child (pre-crash) and the
/// parent's restarted server — identical meta is what recovery
/// validates. Only `tick` differs: the child paces quanta so the kill
/// lands mid-session, the restart runs flat out.
fn session_config(time_policy: TimePolicy, journal_dir: &Path, tick: Duration) -> ServerConfig {
    ServerConfig {
        machine: vec![3, 2],
        scheduler: SchedulerKind::KRad,
        policy: SelectionPolicy::Fifo,
        quantum: 2,
        time_policy,
        seed: 42,
        tick,
        journal_dir: Some(journal_dir.to_path_buf()),
        fsync: FsyncPolicy::Interval(Duration::from_millis(5)),
        ..ServerConfig::default()
    }
}

/// Child-process entry point (no-op unless re-executed by a parent).
#[test]
fn crash_child_server() {
    let Ok(dir) = std::env::var(CHILD_DIR) else {
        return;
    };
    let portfile = std::env::var(CHILD_PORTFILE).expect("child needs a port file");
    let label = std::env::var(CHILD_TIME_POLICY).expect("child needs a policy");
    let tp = TimePolicy::from_label(&label).expect("a time policy label");
    let cfg = session_config(tp, Path::new(&dir), Duration::from_millis(2));
    let server = Server::start(cfg).expect("child server starts");
    // Written after bind, so the parent's poll can't see a stale addr.
    std::fs::write(&portfile, server.addr().to_string()).expect("child writes port file");
    server.join(); // blocks until SIGKILL — the session never drains
}

/// Spawn this test binary as the crash child and wait for its server.
fn spawn_child(
    journal_dir: &Path,
    portfile: &Path,
    tp_label: &str,
) -> (std::process::Child, String) {
    let child = std::process::Command::new(std::env::current_exe().expect("own path"))
        .args(["crash_child_server", "--exact", "--nocapture"])
        .env(CHILD_DIR, journal_dir)
        .env(CHILD_PORTFILE, portfile)
        .env(CHILD_TIME_POLICY, tp_label)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("child spawns");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(portfile) {
            if !s.is_empty() {
                break s;
            }
        }
        assert!(
            Instant::now() < deadline,
            "child never published its address"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

/// One full crash cycle under `time_policy`: load a journaled child,
/// SIGKILL it with work in flight, restart on the same journal, and
/// verify zero acked-job loss plus a byte-for-byte offline replay.
fn crash_cycle(tp_label: &str) {
    let time_policy = TimePolicy::from_label(tp_label).expect("a time policy label");
    let dir = std::env::temp_dir().join(format!("kserve-crash-{tp_label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal_dir = dir.join("journal");
    let portfile = dir.join("addr.txt");

    let (mut child, addr) = spawn_child(&journal_dir, &portfile, tp_label);

    // Two scenario batches: every returned id below was acknowledged
    // only after its JobAdmitted record was committed to the WAL.
    let mut acked: HashSet<u64> = HashSet::new();
    let mut client = Client::connect(&addr).expect("client connects to child");
    for seed in [9, 10] {
        match client
            .submit_scenario(ScenarioRef {
                name: "pipeline".into(),
                jobs: 8,
                seed,
            })
            .expect("scenario submit runs")
        {
            Response::Submitted { jobs, .. } => acked.extend(jobs),
            other => panic!("expected admission, got {other:?}"),
        }
    }
    assert_eq!(acked.len(), 16);

    // Wait for at least one committed quantum, then kill while the
    // paced session still has work in flight (2 ms/quantum ticks make
    // this window span seconds).
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match client.status() {
            Ok(Response::Status(st)) => {
                let done = st.jobs.iter().filter(|j| j.completion.is_some()).count();
                if st.now > 0 && done < acked.len() {
                    break;
                }
                assert!(
                    done < acked.len(),
                    "workload finished before the kill; grow the scenario"
                );
            }
            Ok(other) => panic!("expected status, got {other:?}"),
            Err(e) => panic!("status poll failed: {e}"),
        }
        assert!(Instant::now() < deadline, "no quantum ever committed");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
    drop(client);

    // Restart on the same journal directory, in-process this time.
    let server = Server::start(session_config(time_policy, &journal_dir, Duration::ZERO))
        .expect("recovery restart succeeds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects after recovery");

    let hello = client.hello_reply().expect("hello runs");
    assert!(
        hello.durability.starts_with("wal:interval"),
        "recovered server advertises durability, got '{}'",
        hello.durability
    );
    let stats = client.stats_reply().expect("stats runs");
    assert!(
        stats.last_recovery_ms > 0.0,
        "recovery duration gauge is set"
    );
    assert_eq!(stats.time_policy, tp_label);

    // Zero acked-job loss: every id acknowledged before the kill is in
    // the recovered session.
    match client.status().expect("status runs") {
        Response::Status(st) => {
            let known: HashSet<u64> = st.jobs.iter().map(|j| j.job).collect();
            for id in &acked {
                assert!(known.contains(id), "acked job {id} lost in the crash");
            }
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Drain: everything completes, and the recovered session's trace
    // replays byte-for-byte through offline `simulate()` — journaled
    // pre-crash completions and post-recovery completions in one
    // deterministic history.
    let drain = match client.drain().expect("drain runs") {
        Response::Drained(d) => d,
        other => panic!("expected drained, got {other:?}"),
    };
    assert_eq!(drain.admitted, acked.len() as u64);
    assert_eq!(drain.completed, drain.admitted);
    assert_eq!(drain.cancelled, 0);
    // `trace.completions[i]` is job i's completion time, so covering
    // every acked id means the vector spans them all.
    for id in &acked {
        assert!(
            (*id as usize) < drain.trace.completions.len(),
            "acked job {id} never completed"
        );
    }
    drain
        .trace
        .verify()
        .expect("recovered trace replays byte-for-byte offline");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill9_recovery_replays_byte_for_byte_unit_clock() {
    crash_cycle("unit");
}

#[test]
fn kill9_recovery_replays_byte_for_byte_event_clock() {
    crash_cycle("event");
}

/// A named tenant and the default session crash together; the
/// restart recovers both from `journal_dir/sessions/<name>/` plus the
/// base journal, with zero acked-job loss and a byte-for-byte replay
/// on each — multi-tenant durability is per session, not per daemon.
#[test]
fn kill9_recovery_restores_named_sessions() {
    let dir = std::env::temp_dir().join(format!("kserve-crash-named-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal_dir = dir.join("journal");
    let portfile = dir.join("addr.txt");

    let (mut child, addr) = spawn_child(&journal_dir, &portfile, "event");
    let mut client = Client::connect(&addr).expect("client connects to child");

    // A tenant with its own scheduler, quantum, and seed: recovery
    // must rebuild exactly this configuration from the journal meta.
    let spec = SessionSpec {
        scheduler: Some("equi".into()),
        quantum: Some(3),
        seed: Some(9),
        ..SessionSpec::default()
    };
    match client.open("tenant-a", spec).expect("open runs") {
        Response::Opened {
            existing,
            scheduler,
            ..
        } => {
            assert!(!existing);
            assert_eq!(scheduler, "equi");
        }
        other => panic!("expected opened, got {other:?}"),
    }

    let mut acked: HashSet<u64> = HashSet::new();
    for seed in [21, 22] {
        match client
            .roundtrip(&Request::Submit {
                jobs: Vec::new(),
                scenario: Some(ScenarioRef {
                    name: "pipeline".into(),
                    jobs: 8,
                    seed,
                }),
                watch: false,
                session: "tenant-a".into(),
            })
            .expect("tenant submit runs")
        {
            Response::Submitted { jobs, .. } => acked.extend(jobs),
            other => panic!("expected admission, got {other:?}"),
        }
    }
    assert_eq!(acked.len(), 16);
    // Keep the default session non-empty too: recovery must bring
    // back every journaled tenant, not just the busiest one.
    match client
        .submit_scenario(ScenarioRef {
            name: "pipeline".into(),
            jobs: 4,
            seed: 5,
        })
        .expect("default submit runs")
    {
        Response::Submitted { jobs, .. } => assert_eq!(jobs.len(), 4),
        other => panic!("expected admission, got {other:?}"),
    }

    // Kill once the tenant has committed a quantum with work left.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match client.status_of("tenant-a") {
            Ok(Response::Status(st)) => {
                let done = st.jobs.iter().filter(|j| j.completion.is_some()).count();
                if st.now > 0 && done < acked.len() {
                    break;
                }
                assert!(
                    done < acked.len(),
                    "tenant finished before the kill; grow the scenario"
                );
            }
            Ok(other) => panic!("expected status, got {other:?}"),
            Err(e) => panic!("status poll failed: {e}"),
        }
        assert!(
            Instant::now() < deadline,
            "tenant never committed a quantum"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
    drop(client);

    // Restart on the same journal tree: the named tenant comes back
    // without any client re-opening it.
    let server = Server::start(session_config(
        TimePolicy::EventDriven,
        &journal_dir,
        Duration::ZERO,
    ))
    .expect("recovery restart succeeds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects after recovery");

    let stats = client.stats_reply_of("tenant-a").expect("tenant stats run");
    assert_eq!(stats.session, "tenant-a");
    assert_eq!(stats.scheduler, "equi");
    assert_eq!(stats.admitted, acked.len() as u64);

    // Re-opening the recovered tenant with the same spec attaches.
    match client
        .open(
            "tenant-a",
            SessionSpec {
                scheduler: Some("equi".into()),
                quantum: Some(3),
                seed: Some(9),
                ..SessionSpec::default()
            },
        )
        .expect("re-open runs")
    {
        Response::Opened { existing, .. } => assert!(existing, "recovered tenant must attach"),
        other => panic!("expected attach, got {other:?}"),
    }

    match client.status_of("tenant-a").expect("tenant status runs") {
        Response::Status(st) => {
            let known: HashSet<u64> = st.jobs.iter().map(|j| j.job).collect();
            for id in &acked {
                assert!(
                    known.contains(id),
                    "acked tenant job {id} lost in the crash"
                );
            }
        }
        other => panic!("expected status, got {other:?}"),
    }

    // Both sessions drain to byte-for-byte replayable traces.
    let tenant = match client.drain_session("tenant-a").expect("tenant drain runs") {
        Response::Drained(d) => d,
        other => panic!("expected drained, got {other:?}"),
    };
    assert_eq!(tenant.admitted, acked.len() as u64);
    assert_eq!(tenant.completed, tenant.admitted);
    assert_eq!(tenant.trace.scheduler, SchedulerKind::Equi);
    assert_eq!(tenant.trace.quantum, 3);
    tenant
        .trace
        .verify()
        .expect("recovered tenant trace replays byte-for-byte");

    let base = match client.drain().expect("global drain runs") {
        Response::Drained(d) => d,
        other => panic!("expected drained, got {other:?}"),
    };
    assert_eq!(base.admitted, 4);
    base.trace
        .verify()
        .expect("recovered default trace replays byte-for-byte");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// In-process (no kill) recovery checks: a drained session restarts
/// as a no-op, and recovery refuses a drifted configuration.
#[test]
fn drained_session_recovers_and_config_drift_is_refused() {
    let dir = std::env::temp_dir().join(format!("kserve-rejournal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal_dir = dir.join("journal");

    let mk = |quantum: u64| ServerConfig {
        machine: vec![3, 2],
        quantum,
        seed: 7,
        journal_dir: Some(journal_dir.clone()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    };

    let server = Server::start(mk(2)).expect("server starts");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");
    match client
        .submit_scenario(ScenarioRef {
            name: "pipeline".into(),
            jobs: 4,
            seed: 3,
        })
        .expect("submit runs")
    {
        Response::Submitted { jobs, .. } => assert_eq!(jobs.len(), 4),
        other => panic!("expected admission, got {other:?}"),
    }
    let first = match client.drain().expect("drain runs") {
        Response::Drained(d) => d,
        other => panic!("expected drained, got {other:?}"),
    };
    assert_eq!(first.completed, 4);
    server.join();

    // Same configuration: the finished session folds back unchanged.
    let server = Server::start(mk(2)).expect("restart after drain succeeds");
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("client reconnects");
    let stats = client.stats_reply().expect("stats runs");
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.durability, "wal:never");
    let again = match client.drain().expect("re-drain runs") {
        Response::Drained(d) => d,
        other => panic!("expected drained, got {other:?}"),
    };
    assert_eq!(again.completed, 4);
    assert_eq!(again.trace.completions, first.trace.completions);
    again.trace.verify().expect("recovered trace replays");
    server.join();

    // Drifted configuration (different quantum): refuse to serve
    // rather than silently diverge from the journaled session.
    let err = match Server::start(mk(3)) {
        Err(e) => e,
        Ok(_) => panic!("config drift must be refused"),
    };
    assert!(
        err.to_string().contains("different session configuration"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
