//! Golden wire transcripts, one per protocol version.
//!
//! For each of v1–v5 this pins the request, reply and event lines a
//! peer of that version sends, with the value each must decode to
//! under the current decoder: every older line is still a valid line.
//! Then, for every current message kind, it pins the canonical bytes:
//! `encode(decode(line)) == line`.

use kbaselines::SchedulerKind;
use kdag::{DagSpec, SelectionPolicy};
use kserve::protocol::{
    DrainReply, Event, HelloReply, JobState, JobStatus, Request, Response, ScenarioRef,
    SessionSpec, StatsReply, StatusReply, TraceReply,
};
use kserve::replay::{SessionTrace, TraceJob};
use ktelemetry::ExecSegment;

const DAG: &str = r#"{"k":2,"categories":[0,1,1],"edges":[[0,1],[0,2]]}"#;

fn dag() -> DagSpec {
    DagSpec {
        k: 2,
        categories: vec![0, 1, 1],
        edges: vec![(0, 1), (0, 2)],
    }
}

fn trace_line() -> String {
    format!(
        r#"{{"machine":[2,1],"scheduler":"k-rad","policy":"fifo","quantum":2,"seed":7,"jobs":[{{"release":0,"dag":{DAG}}}],"completions":[4]}}"#
    )
}

fn trace() -> SessionTrace {
    SessionTrace {
        machine: vec![2, 1],
        scheduler: SchedulerKind::KRad,
        policy: SelectionPolicy::Fifo,
        quantum: 2,
        seed: 7,
        jobs: vec![TraceJob {
            dag: dag(),
            release: 0,
        }],
        completions: vec![4],
    }
}

fn report() -> DrainReply {
    DrainReply {
        admitted: 1,
        completed: 1,
        cancelled: 0,
        rejected: 2,
        trace: trace(),
    }
}

fn default_session(cmd: &str) -> Request {
    let session = String::new();
    match cmd {
        "status" => Request::Status { session },
        "stats" => Request::Stats { session },
        "drain" => Request::Drain { session },
        _ => unreachable!(),
    }
}

/// A v1 `stats` reply: no `version`, `time_policy`, journal, tracing or
/// session fields.
const V1_STATS: &str = r#"{"reply":"stats","admitted":3,"rejected":1,"completed":2,"cancelled":0,"queue_depth":1,"max_queue_depth":2,"now":9,"busy_steps":8,"idle_steps":1,"quanta":9,"quantum_latency_mean_us":1.5,"scheduler":"k-rad"}"#;

fn v1_stats() -> StatsReply {
    StatsReply {
        admitted: 3,
        rejected: 1,
        completed: 2,
        cancelled: 0,
        queue_depth: 1,
        max_queue_depth: 2,
        now: 9,
        busy_steps: 8,
        idle_steps: 1,
        quanta: 9,
        quantum_latency_mean_us: 1.5,
        scheduler: "k-rad".into(),
        version: 1,
        durability: "off".into(),
        ..StatsReply::default()
    }
}

fn check_requests(version: u32, cases: Vec<(String, Request)>) {
    for (line, want) in cases {
        let got = Request::decode(&line).unwrap_or_else(|e| panic!("v{version} {line}: {e}"));
        assert_eq!(got, want, "v{version} request {line}");
    }
}

fn check_replies(version: u32, cases: Vec<(String, Response)>) {
    for (line, want) in cases {
        let got = Response::decode(&line).unwrap_or_else(|e| panic!("v{version} {line}: {e}"));
        assert_eq!(got, want, "v{version} reply {line}");
    }
}

fn check_events(version: u32, cases: Vec<(&str, Event)>) {
    for (line, want) in cases {
        let got = Event::decode(line).unwrap_or_else(|e| panic!("v{version} {line}: {e}"));
        assert_eq!(got, Some(want), "v{version} event {line}");
    }
}

#[test]
fn v1_transcript_decodes() {
    check_requests(
        1,
        vec![
            (
                format!(r#"{{"cmd":"submit","jobs":[{DAG}],"watch":true}}"#),
                Request::Submit {
                    jobs: vec![dag()],
                    scenario: None,
                    watch: true,
                    session: String::new(),
                },
            ),
            (
                r#"{"cmd":"submit","scenario":{"name":"pipeline","jobs":4,"seed":3}}"#.into(),
                Request::Submit {
                    jobs: vec![],
                    scenario: Some(ScenarioRef {
                        name: "pipeline".into(),
                        jobs: 4,
                        seed: 3,
                    }),
                    watch: false,
                    session: String::new(),
                },
            ),
            (r#"{"cmd":"status"}"#.into(), default_session("status")),
            (r#"{"cmd":"stats"}"#.into(), default_session("stats")),
            (r#"{"cmd":"metrics"}"#.into(), Request::Metrics),
            (
                r#"{"cmd":"cancel","job":3}"#.into(),
                Request::Cancel {
                    job: 3,
                    session: String::new(),
                },
            ),
            (r#"{"cmd":"drain"}"#.into(), default_session("drain")),
        ],
    );
    check_replies(
        1,
        vec![
            (
                r#"{"reply":"submitted","jobs":[0,1]}"#.into(),
                Response::Submitted {
                    jobs: vec![0, 1],
                    trace_ids: vec![],
                },
            ),
            (
                r#"{"reply":"rejected","reason":"queue full","queue_depth":4,"capacity":4}"#.into(),
                Response::Rejected {
                    reason: "queue full".into(),
                    queue_depth: 4,
                    capacity: 4,
                },
            ),
            (
                r#"{"reply":"status","now":5,"queued":1,"active":1,"draining":false,"jobs":[{"job":0,"state":"done","release":0,"completion":5},{"job":1,"state":"queued"}]}"#.into(),
                Response::Status(StatusReply {
                    now: 5,
                    queued: 1,
                    active: 1,
                    draining: false,
                    jobs: vec![
                        JobStatus {
                            job: 0,
                            state: JobState::Done,
                            release: Some(0),
                            completion: Some(5),
                        },
                        JobStatus {
                            job: 1,
                            state: JobState::Queued,
                            release: None,
                            completion: None,
                        },
                    ],
                }),
            ),
            (V1_STATS.into(), Response::Stats(v1_stats())),
            (
                r#"{"reply":"metrics","text":"krad_quanta_total 3\n"}"#.into(),
                Response::Metrics {
                    text: "krad_quanta_total 3\n".into(),
                },
            ),
            (
                r#"{"reply":"cancelled","job":3}"#.into(),
                Response::Cancelled { job: 3 },
            ),
            (
                format!(
                    r#"{{"reply":"drained","admitted":1,"completed":1,"cancelled":0,"rejected":2,"trace":{}}}"#,
                    trace_line()
                ),
                Response::Drained(report()),
            ),
            (
                r#"{"reply":"error","message":"bad request"}"#.into(),
                Response::Error {
                    message: "bad request".into(),
                },
            ),
        ],
    );
    check_events(
        1,
        vec![
            (
                r#"{"event":"job_done","job":2,"release":0,"completion":9,"response":9}"#,
                Event::JobDone {
                    job: 2,
                    release: 0,
                    completion: 9,
                    response: 9,
                    trace_id: String::new(),
                },
            ),
            (
                r#"{"event":"job_cancelled","job":3}"#,
                Event::JobCancelled { job: 3 },
            ),
            (r#"{"event":"watch_end"}"#, Event::WatchEnd),
        ],
    );
    // A reply line is not an event.
    assert_eq!(
        Event::decode(r#"{"reply":"submitted","jobs":[0]}"#).unwrap(),
        None
    );
}

#[test]
fn v2_transcript_decodes() {
    check_requests(2, vec![(r#"{"cmd":"hello"}"#.into(), Request::Hello)]);
    check_replies(
        2,
        vec![
            (
                r#"{"reply":"hello","version":2,"scheduler":"k-rad","time_policy":"event","quantum":1,"now":0}"#.into(),
                Response::Hello(HelloReply {
                    version: 2,
                    scheduler: "k-rad".into(),
                    time_policy: "event".into(),
                    quantum: 1,
                    now: 0,
                    durability: "off".into(),
                }),
            ),
            (
                V1_STATS.replace(
                    r#""scheduler":"k-rad""#,
                    r#""scheduler":"k-rad","version":2,"time_policy":"unit""#,
                ),
                Response::Stats(StatsReply {
                    version: 2,
                    time_policy: "unit".into(),
                    ..v1_stats()
                }),
            ),
        ],
    );
}

#[test]
fn v3_transcript_decodes() {
    check_replies(
        3,
        vec![
            (
                r#"{"reply":"hello","version":3,"scheduler":"equi","time_policy":"unit","quantum":2,"now":7,"durability":"wal:always"}"#.into(),
                Response::Hello(HelloReply {
                    version: 3,
                    scheduler: "equi".into(),
                    time_policy: "unit".into(),
                    quantum: 2,
                    now: 7,
                    durability: "wal:always".into(),
                }),
            ),
            (
                V1_STATS.replace(
                    r#""scheduler":"k-rad""#,
                    r#""scheduler":"k-rad","version":3,"time_policy":"event","durability":"wal:interval:50","journal_records":12,"journal_bytes":900,"journal_fsyncs":3,"journal_snapshots":1,"journal_tail_records":4,"last_recovery_ms":2.5"#,
                ),
                Response::Stats(StatsReply {
                    version: 3,
                    time_policy: "event".into(),
                    durability: "wal:interval:50".into(),
                    journal_records: 12,
                    journal_bytes: 900,
                    journal_fsyncs: 3,
                    journal_snapshots: 1,
                    journal_tail_records: 4,
                    last_recovery_ms: 2.5,
                    ..v1_stats()
                }),
            ),
        ],
    );
}

#[test]
fn v4_transcript_decodes() {
    check_requests(
        4,
        vec![(
            r#"{"cmd":"trace","job":4}"#.into(),
            Request::Trace {
                job: 4,
                session: String::new(),
            },
        )],
    );
    check_replies(
        4,
        vec![
            (
                r#"{"reply":"submitted","jobs":[0,1],"trace_ids":["ab-0","ab-1"]}"#.into(),
                Response::Submitted {
                    jobs: vec![0, 1],
                    trace_ids: vec!["ab-0".into(), "ab-1".into()],
                },
            ),
            (
                r#"{"reply":"trace","job":4,"trace_id":"ab-4","state":"done","release":1,"activated":1,"first_allot":2,"segments":[{"from":2,"to":5,"tasks":6}],"completion":5,"response":4,"submit_ns":10,"admit_ns":20,"inject_ns":30,"complete_ns":90}"#.into(),
                Response::Trace(TraceReply {
                    job: 4,
                    trace_id: "ab-4".into(),
                    state: "done".into(),
                    release: Some(1),
                    activated: Some(1),
                    first_allot: Some(2),
                    segments: vec![ExecSegment {
                        from: 2,
                        to: 5,
                        tasks: 6,
                    }],
                    completion: Some(5),
                    response: Some(4),
                    submit_ns: Some(10),
                    admit_ns: Some(20),
                    inject_ns: Some(30),
                    complete_ns: Some(90),
                }),
            ),
            (
                r#"{"reply":"trace","job":9,"trace_id":"ab-9","state":"queued","segments":[]}"#.into(),
                Response::Trace(TraceReply {
                    job: 9,
                    trace_id: "ab-9".into(),
                    state: "queued".into(),
                    ..TraceReply::default()
                }),
            ),
            (
                V1_STATS.replace(
                    r#""scheduler":"k-rad""#,
                    r#""scheduler":"k-rad","version":4,"time_policy":"event","durability":"off","journal_records":0,"journal_bytes":0,"journal_fsyncs":0,"journal_snapshots":0,"journal_tail_records":0,"last_recovery_ms":0,"response_jobs":2,"response_mean_steps":4.5,"response_p99_steps":6,"slowdown_mean_milli":1500,"slowdown_p99_milli":2000,"response_mean_steps_by_cat":[4,5],"slowdown_mean_milli_by_cat":[1000,2000]"#,
                ),
                Response::Stats(StatsReply {
                    version: 4,
                    time_policy: "event".into(),
                    response_jobs: 2,
                    response_mean_steps: 4.5,
                    response_p99_steps: 6.0,
                    slowdown_mean_milli: 1500.0,
                    slowdown_p99_milli: 2000.0,
                    response_mean_steps_by_cat: vec![4.0, 5.0],
                    slowdown_mean_milli_by_cat: vec![1000.0, 2000.0],
                    ..v1_stats()
                }),
            ),
        ],
    );
    check_events(
        4,
        vec![(
            r#"{"event":"job_done","job":2,"release":0,"completion":9,"response":9,"trace_id":"ab-2"}"#,
            Event::JobDone {
                job: 2,
                release: 0,
                completion: 9,
                response: 9,
                trace_id: "ab-2".into(),
            },
        )],
    );
}

#[test]
fn v5_transcript_decodes() {
    check_requests(
        5,
        vec![
            (
                r#"{"cmd":"open","session":"a"}"#.into(),
                Request::Open {
                    session: "a".into(),
                    spec: SessionSpec::default(),
                },
            ),
            (
                r#"{"cmd":"open","session":"b","scheduler":"equi","quantum":5,"rate_per_sec":10,"burst":4}"#.into(),
                Request::Open {
                    session: "b".into(),
                    spec: SessionSpec {
                        scheduler: Some("equi".into()),
                        quantum: Some(5),
                        rate_per_sec: Some(10.0),
                        burst: Some(4),
                        ..SessionSpec::default()
                    },
                },
            ),
            (
                format!(r#"{{"cmd":"submit","jobs":[{DAG}],"session":"a"}}"#),
                Request::Submit {
                    jobs: vec![dag()],
                    scenario: None,
                    watch: false,
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"status","session":"a"}"#.into(),
                Request::Status {
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"stats","session":"a"}"#.into(),
                Request::Stats {
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"cancel","job":1,"session":"a"}"#.into(),
                Request::Cancel {
                    job: 1,
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"trace","job":1,"session":"a"}"#.into(),
                Request::Trace {
                    job: 1,
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"drain","session":"a"}"#.into(),
                Request::Drain {
                    session: "a".into(),
                },
            ),
            (
                r#"{"cmd":"close","session":"a"}"#.into(),
                Request::Close {
                    session: "a".into(),
                },
            ),
        ],
    );
    check_replies(
        5,
        vec![
            (
                r#"{"reply":"opened","session":"a","scheduler":"k-rad","time_policy":"event","quantum":2,"existing":false}"#.into(),
                Response::Opened {
                    session: "a".into(),
                    scheduler: "k-rad".into(),
                    time_policy: "event".into(),
                    quantum: 2,
                    existing: false,
                },
            ),
            (
                format!(
                    r#"{{"reply":"closed","session":"a","admitted":1,"completed":1,"cancelled":0,"rejected":2,"trace":{}}}"#,
                    trace_line()
                ),
                Response::Closed {
                    session: "a".into(),
                    report: report(),
                },
            ),
            (
                V1_STATS.replace(
                    r#""scheduler":"k-rad""#,
                    r#""scheduler":"k-rad","version":5,"session":"a","sessions":3"#,
                ),
                Response::Stats(StatsReply {
                    version: 5,
                    session: "a".into(),
                    sessions: 3,
                    ..v1_stats()
                }),
            ),
        ],
    );
}

/// The canonical bytes of every current message kind survive a decode
/// and re-encode unchanged.
#[test]
fn current_lines_reencode_byte_for_byte() {
    let requests = [
        format!(r#"{{"cmd":"submit","jobs":[{DAG},{DAG}],"watch":true,"session":"a"}}"#),
        r#"{"cmd":"submit","scenario":{"name":"pipeline","jobs":8,"seed":3}}"#.into(),
        r#"{"cmd":"hello"}"#.into(),
        r#"{"cmd":"status"}"#.into(),
        r#"{"cmd":"status","session":"a"}"#.into(),
        r#"{"cmd":"stats","session":"a"}"#.into(),
        r#"{"cmd":"metrics"}"#.into(),
        r#"{"cmd":"cancel","job":17}"#.into(),
        r#"{"cmd":"trace","job":4,"session":"b"}"#.into(),
        r#"{"cmd":"open","session":"a"}"#.into(),
        r#"{"cmd":"open","session":"b","scheduler":"equi","policy":"lifo","quantum":4,"seed":7,"queue_capacity":32,"max_inflight":128,"rate_per_sec":250.5,"burst":64}"#.into(),
        r#"{"cmd":"close","session":"a"}"#.into(),
        r#"{"cmd":"drain"}"#.into(),
        r#"{"cmd":"drain","session":"a"}"#.into(),
    ];
    for line in requests {
        assert_eq!(Request::decode(&line).unwrap().encode(), line);
    }
    let replies = [
        r#"{"reply":"submitted","jobs":[0,1],"trace_ids":["ab-0","ab-1"]}"#.into(),
        r#"{"reply":"submitted","jobs":[7]}"#.into(),
        r#"{"reply":"rejected","reason":"queue \"full\"","queue_depth":64,"capacity":64}"#.into(),
        r#"{"reply":"hello","version":5,"scheduler":"k-rad","time_policy":"event","quantum":4,"now":17,"durability":"wal:interval:50"}"#.into(),
        r#"{"reply":"status","now":12,"queued":1,"active":2,"draining":true,"jobs":[{"job":0,"state":"done","release":0,"completion":9},{"job":1,"state":"running","release":3},{"job":2,"state":"cancelled"}]}"#.into(),
        r#"{"reply":"stats","admitted":9,"rejected":2,"completed":7,"cancelled":1,"queue_depth":3,"max_queue_depth":5,"now":40,"busy_steps":38,"idle_steps":2,"quanta":20,"quantum_latency_mean_us":12.5,"quantum_latency_p50_us":8.5,"quantum_latency_p95_us":30.25,"quantum_latency_p99_us":64,"uptime_secs":1.5,"phase_ready_mean_us":2.25,"phase_decide_mean_us":4.5,"phase_deq_allot_mean_us":3.75,"phase_rr_cycle_mean_us":0.5,"phase_execute_mean_us":0,"scheduler":"k-rad","version":5,"time_policy":"event","durability":"wal:always","journal_records":44,"journal_bytes":2048,"journal_fsyncs":44,"journal_snapshots":2,"journal_tail_records":7,"last_recovery_ms":1.25,"response_jobs":7,"response_mean_steps":18.5,"response_p99_steps":64,"slowdown_mean_milli":2250.5,"slowdown_p99_milli":8192,"response_mean_steps_by_cat":[20,17.5],"slowdown_mean_milli_by_cat":[],"session":"tenant-a","sessions":3}"#.into(),
        r##"{"reply":"metrics","text":"# HELP krad_quanta_total x\nkrad_quanta_total 3\n"}"##.into(),
        r#"{"reply":"cancelled","job":3}"#.into(),
        r#"{"reply":"trace","job":3,"trace_id":"ab-3","state":"done","release":5,"activated":6,"first_allot":8,"segments":[{"from":8,"to":10,"tasks":5},{"from":12,"to":14,"tasks":4}],"completion":14,"response":9,"submit_ns":1000,"admit_ns":2000,"inject_ns":3000,"complete_ns":9000}"#.into(),
        r#"{"reply":"trace","job":9,"trace_id":"ab-9","state":"queued","segments":[]}"#.into(),
        r#"{"reply":"opened","session":"b","scheduler":"equi","time_policy":"unit","quantum":1,"existing":true}"#.into(),
        format!(
            r#"{{"reply":"closed","session":"a","admitted":1,"completed":1,"cancelled":0,"rejected":2,"trace":{}}}"#,
            trace_line()
        ),
        format!(
            r#"{{"reply":"drained","admitted":1,"completed":1,"cancelled":0,"rejected":2,"trace":{}}}"#,
            trace_line()
        ),
        r#"{"reply":"error","message":"bad \"quote\"\n"}"#.into(),
    ];
    for line in replies {
        assert_eq!(Response::decode(&line).unwrap().encode(), line);
    }
    let events = [
        r#"{"event":"job_done","job":5,"release":10,"completion":31,"response":21,"trace_id":"f00-5"}"#,
        r#"{"event":"job_done","job":5,"release":10,"completion":31,"response":21}"#,
        r#"{"event":"job_cancelled","job":2}"#,
        r#"{"event":"watch_end"}"#,
    ];
    for line in events {
        assert_eq!(Event::decode(line).unwrap().unwrap().encode(), line);
    }
    let trace = trace_line();
    assert_eq!(SessionTrace::decode(&trace).unwrap().encode(), trace);
}
