//! Multi-tenant swarm exercise: eight concurrent named sessions (one
//! per scheduler in the canonical table), four closed-loop clients
//! each, with opens, closes, and cancels interleaved while the other
//! tenants keep serving. Every session's drain/close report must
//! replay byte-for-byte through the offline batch path, and closing
//! one tenant must not perturb another's recorded history.

use kbaselines::SchedulerKind;
use kdag::{DagSpec, SelectionPolicy};
use kserve::protocol::{Event, Response, SessionSpec};
use kserve::server::{Server, ServerConfig};
use kserve::Client;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

const CLIENTS_PER_SESSION: usize = 4;
const CHUNKS_PER_CLIENT: usize = 3;
const JOBS_PER_CHUNK: usize = 4;

fn swarm_config(journal_dir: Option<std::path::PathBuf>) -> ServerConfig {
    ServerConfig {
        machine: vec![6, 3],
        scheduler: SchedulerKind::KRad,
        policy: SelectionPolicy::Fifo,
        quantum: 2,
        seed: 42,
        queue_capacity: 1024,
        max_inflight: 8192,
        journal_dir,
        ..ServerConfig::default()
    }
}

fn some_dags(n: usize, seed: u64) -> Vec<DagSpec> {
    let mut rng = rng_for(seed, 0x5A4A);
    batched_mix(&mut rng, &MixConfig::new(2, n, 12))
        .iter()
        .map(|j| DagSpec::from_dag(&j.dag))
        .collect()
}

fn spec_for(kind: SchedulerKind, idx: usize) -> SessionSpec {
    SessionSpec {
        scheduler: Some(kind.label().to_string()),
        quantum: Some(1 + (idx as u64 % 3)),
        seed: Some(100 + idx as u64),
        ..SessionSpec::default()
    }
}

fn session_name(kind: SchedulerKind) -> String {
    format!("s-{}", kind.label())
}

/// One closed-loop tenant client: watched chunks plus a cancel
/// attempt. Returns (accepted, cancelled) counts.
fn run_tenant_client(addr: &str, session: &str, seed: u64) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("tenant client connects");
    let mut accepted = 0u64;
    for chunk in 0..CHUNKS_PER_CLIENT {
        let dags = some_dags(JOBS_PER_CHUNK, seed * 31 + chunk as u64);
        let (ack, events) = client
            .submit_watch_to(session, dags)
            .expect("watched submit runs");
        match ack {
            Response::Submitted { jobs, .. } => {
                assert_eq!(jobs.len(), JOBS_PER_CHUNK);
                accepted += jobs.len() as u64;
            }
            other => panic!("swarm submit should be admitted, got {other:?}"),
        }
        assert_eq!(events.len(), JOBS_PER_CHUNK, "every watched job settles");
        assert!(events.iter().all(|ev| matches!(ev, Event::JobDone { .. })));
    }
    // A cancel race: the job is either still queued (cancelled) or was
    // injected before we got back to it (explicit refusal) — both are
    // well-defined outcomes, and the drain ledger must reconcile.
    let mut cancelled = 0u64;
    match client
        .submit_to(session, some_dags(1, seed * 97 + 7))
        .expect("cancel-bait submit runs")
    {
        Response::Submitted { jobs, .. } => {
            accepted += 1;
            match client.cancel_in(session, jobs[0]).expect("cancel runs") {
                Response::Cancelled { .. } => cancelled = 1,
                Response::Error { message } => {
                    assert!(
                        message.contains("not cancellable"),
                        "unexpected cancel refusal: {message}"
                    );
                }
                other => panic!("expected cancel outcome, got {other:?}"),
            }
        }
        other => panic!("cancel-bait should be admitted, got {other:?}"),
    }
    (accepted, cancelled)
}

#[test]
fn eight_sessions_replay_and_close_isolation() {
    let dir = std::env::temp_dir().join(format!("kswarm-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::start(swarm_config(Some(dir.join("journal")))).expect("server starts");
    let addr = server.addr().to_string();

    // Open eight tenants, one per scheduler in the canonical table.
    let mut control = Client::connect(&addr).expect("control connects");
    for (idx, kind) in SchedulerKind::ALL.iter().enumerate() {
        let name = session_name(*kind);
        match control
            .open(&name, spec_for(*kind, idx))
            .expect("open runs")
        {
            Response::Opened {
                session,
                scheduler,
                existing,
                ..
            } => {
                assert_eq!(session, name);
                assert_eq!(scheduler, kind.label());
                assert!(!existing, "fresh open must not report attach");
            }
            other => panic!("expected opened, got {other:?}"),
        }
    }

    // Re-opening with the same spec attaches; a drifted spec is refused.
    match control
        .open(
            &session_name(SchedulerKind::Equi),
            spec_for(SchedulerKind::Equi, 1),
        )
        .expect("re-open runs")
    {
        Response::Opened { existing, .. } => assert!(existing, "same spec must attach"),
        other => panic!("expected attach, got {other:?}"),
    }
    match control
        .open(
            &session_name(SchedulerKind::Equi),
            SessionSpec {
                quantum: Some(99),
                ..SessionSpec::default()
            },
        )
        .expect("conflicting open runs")
    {
        Response::Error { message } => assert!(
            message.contains("conflicts with the live session configuration"),
            "unexpected conflict message: {message}"
        ),
        other => panic!("conflicting open must be refused, got {other:?}"),
    }

    // 8 sessions x 4 clients, churning concurrently.
    let mut handles = Vec::new();
    for (idx, kind) in SchedulerKind::ALL.iter().enumerate() {
        for c in 0..CLIENTS_PER_SESSION {
            let addr = addr.clone();
            let name = session_name(*kind);
            let seed = (idx * CLIENTS_PER_SESSION + c) as u64 + 1;
            handles.push(std::thread::spawn(move || {
                run_tenant_client(&addr, &name, seed)
            }));
        }
    }

    // Interleave short-lived tenants while the eight are under load:
    // open, serve, close — then the same name opens fresh again (its
    // journal was destroyed with the session).
    for round in 0..2 {
        match control
            .open("ephemeral", spec_for(SchedulerKind::GreedyFcfs, 4))
            .expect("ephemeral open runs")
        {
            Response::Opened { existing, .. } => {
                assert!(!existing, "round {round}: a closed name must open fresh")
            }
            other => panic!("expected opened, got {other:?}"),
        }
        let (ack, events) = control
            .submit_watch_to("ephemeral", some_dags(6, 400 + round))
            .expect("ephemeral submit runs");
        assert!(matches!(ack, Response::Submitted { .. }));
        assert_eq!(events.len(), 6);
        match control.close("ephemeral").expect("ephemeral close runs") {
            Response::Closed { session, report } => {
                assert_eq!(session, "ephemeral");
                assert_eq!(report.admitted, 6);
                assert_eq!(report.completed, 6);
                report
                    .trace
                    .verify()
                    .expect("ephemeral trace replays byte-for-byte");
            }
            other => panic!("expected closed, got {other:?}"),
        }
    }

    // Tally the swarm: every offered job was acked, every ack settled.
    let mut per_session = std::collections::HashMap::<String, (u64, u64)>::new();
    for (i, h) in handles.into_iter().enumerate() {
        let kind = SchedulerKind::ALL[i / CLIENTS_PER_SESSION];
        let (accepted, cancelled) = h.join().expect("tenant client thread");
        let entry = per_session.entry(session_name(kind)).or_insert((0, 0));
        entry.0 += accepted;
        entry.1 += cancelled;
    }

    // Close-isolation: snapshot one tenant, close its neighbour, and
    // require the survivor's ledger to be untouched.
    let survivor = session_name(SchedulerKind::KRad);
    let victim = session_name(SchedulerKind::Drf);
    // Every tenant client has returned, but a job the survivor already
    // acked can still be running. Wait until its ledger settles, so no
    // completion can land between the two stats calls compared below.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let st = control
            .stats_reply_of(&survivor)
            .expect("survivor stats run");
        if st.completed + st.cancelled == st.admitted {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "survivor ledger never settled: {} completed + {} cancelled of {} admitted",
            st.completed,
            st.cancelled,
            st.admitted
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let before = control
        .stats_reply_of(&survivor)
        .expect("survivor stats run");
    assert_eq!(before.session, survivor);
    match control.close(&victim).expect("victim close runs") {
        Response::Closed { report, .. } => {
            let (accepted, cancelled) = per_session[&victim];
            assert_eq!(report.admitted, accepted);
            assert_eq!(report.cancelled, cancelled);
            assert_eq!(report.completed + report.cancelled, report.admitted);
            report.trace.verify().expect("victim trace replays");
        }
        other => panic!("expected closed, got {other:?}"),
    }
    let after = control
        .stats_reply_of(&survivor)
        .expect("survivor stats re-run");
    assert_eq!(
        after.admitted, before.admitted,
        "close leaked across tenants"
    );
    assert_eq!(after.completed, before.completed);
    assert_eq!(after.cancelled, before.cancelled);

    // The registry is visible in both stats and the metrics text.
    assert!(
        after.sessions >= 7,
        "registry undercounts: {}",
        after.sessions
    );
    let metrics = control.metrics().expect("metrics run");
    assert!(metrics.contains("kswarm_sessions_live"));
    assert!(
        metrics.contains(&format!("session=\"{survivor}\"")),
        "per-session metric labels missing"
    );
    assert!(
        !metrics.contains(&format!("session=\"{victim}\"")),
        "closed tenant still exported"
    );

    // Every remaining tenant drains to a byte-for-byte replayable
    // trace with a reconciled ledger — all eight schedulers covered.
    for kind in SchedulerKind::ALL {
        let name = session_name(kind);
        if name == victim {
            continue;
        }
        let (accepted, cancelled) = per_session[&name];
        let drain = match control.drain_session(&name).expect("session drain runs") {
            Response::Drained(d) => d,
            other => panic!("expected drained for {name}, got {other:?}"),
        };
        assert_eq!(drain.admitted, accepted, "{name} ledger drifted");
        assert_eq!(drain.cancelled, cancelled, "{name} cancel ledger drifted");
        assert_eq!(drain.completed + drain.cancelled, drain.admitted);
        assert_eq!(drain.trace.scheduler, kind);
        drain
            .trace
            .verify()
            .unwrap_or_else(|e| panic!("{name} replay diverged: {e}"));
    }

    // Global drain shuts the daemon down cleanly.
    match control.drain().expect("global drain runs") {
        Response::Drained(d) => d.trace.verify().expect("default trace replays"),
        other => panic!("expected drained, got {other:?}"),
    };
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}
