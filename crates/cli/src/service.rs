//! The service-layer subcommands: `serve`, `submit`, `loadgen`,
//! `stats`, `metrics`, `trace`, and `flight`.
//!
//! `serve` runs the kserve daemon in the foreground until a client
//! drains it; `submit` is a one-shot protocol client (submit jobs,
//! query status/stats, cancel, drain); `loadgen` replays a synthetic
//! arrival process against a running daemon and reports throughput
//! and response-time percentiles; `stats` renders the live counters
//! (optionally as a `--watch` dashboard); `metrics` fetches the
//! Prometheus exposition; `trace` renders one job's ktrace span tree
//! from a running daemon (or whole-session lifecycle reports offline
//! from a flight dump); `flight` summarizes a flight-recorder dump
//! and can cross-check it against a session trace's deterministic
//! replay.

use crate::args::ArgMap;
use crate::commands::{parse_policy, parse_scheduler, parse_time_policy};
use kanalysis::flight::{load_flight_dump, verify_against_stream, FlightRecorderReport};
use kanalysis::journal::{JournalDirReport, JournalFileReport};
use kanalysis::table::{f3, Table};
use kanalysis::trace_report::TraceReport;
use kdag::DagSpec;
use kjournal::FsyncPolicy;
use kserve::loadgen::{run_loadgen, ArrivalKind, LoadgenConfig};
use kserve::protocol::{Response, ScenarioRef, StatsReply};
use kserve::{Client, Event, Server, ServerConfig, SessionTrace};
use ktelemetry::json::Value;
use ktelemetry::TelemetryHandle;
use kworkloads::persist::load_jobset;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// Build a [`ServerConfig`] from CLI arguments.
pub fn server_config(args: &ArgMap) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        machine: args.machine()?,
        scheduler: parse_scheduler(args.get_or("scheduler", "k-rad"))?,
        policy: parse_policy(args.get_or("policy", "fifo"))?,
        quantum: args.num("quantum", 1u64)?,
        time_policy: parse_time_policy(args)?,
        seed: args.num("seed", 0u64)?,
        queue_capacity: args.num("queue-capacity", 64usize)?,
        max_inflight: args.num("max-inflight", 1024usize)?,
        tick: Duration::from_millis(args.num("tick-ms", 0u64)?),
        addr: args.get_or("addr", "127.0.0.1:0").to_string(),
        ..ServerConfig::default()
    };
    if let Some(path) = args.get("unix") {
        cfg.unix_path = Some(path.into());
    }
    if let Some(addr) = args.get("metrics-addr") {
        cfg.metrics_addr = Some(addr.to_string());
    }
    cfg.flight_capacity = args.num("flight-capacity", cfg.flight_capacity)?;
    if let Some(path) = args.get("flight-dump") {
        cfg.flight_dump = Some(path.into());
    }
    if let Some(dir) = args.get("journal-dir") {
        cfg.journal_dir = Some(dir.into());
    }
    if let Some(label) = args.get("fsync") {
        cfg.fsync = FsyncPolicy::parse(label)
            .ok_or_else(|| format!("bad --fsync '{label}' (always|interval[:ms]|never)"))?;
    }
    cfg.snapshot_every = args.num("snapshot-every", cfg.snapshot_every)?;
    cfg.slo_factor = args.num("slo-factor", cfg.slo_factor)?;
    cfg.workers = args.num("workers", cfg.workers)?;
    cfg.session_rate = args.num("session-rate", cfg.session_rate)?;
    cfg.session_burst = args.num("session-burst", cfg.session_burst)?;
    Ok(cfg)
}

/// `krad serve` — run the daemon in the foreground until drained.
pub fn serve(args: &ArgMap) -> Result<String, String> {
    let cfg = server_config(args)?;
    let unix = cfg.unix_path.clone();
    let server = Server::start(cfg).map_err(|e| e.to_string())?;
    // Printed eagerly so clients can connect while we block in join().
    println!("kserve listening on {}", server.addr());
    if let Some(path) = unix {
        println!("kserve unix socket at {}", path.display());
    }
    if let Some(addr) = server.metrics_addr() {
        println!("kserve /metrics scrape endpoint on http://{addr}/metrics");
    }
    server.join();
    Ok("kserve: session drained, shutting down".to_string())
}

fn connect(args: &ArgMap) -> Result<Client, String> {
    let addr = args.require("addr")?;
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn render_drain(args: &ArgMap, reply: kserve::protocol::DrainReply) -> Result<String, String> {
    let mut out = String::new();
    writeln!(
        out,
        "drained: {} admitted, {} completed, {} cancelled, {} rejected",
        reply.admitted, reply.completed, reply.cancelled, reply.rejected
    )
    .unwrap();
    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, reply.trace.encode()).map_err(|e| e.to_string())?;
        writeln!(out, "session trace written to {path}").unwrap();
    }
    if args.flag("verify") {
        let canon = reply.trace.verify()?;
        writeln!(
            out,
            "replay verified: {} completions reproduced byte-for-byte ({} bytes)",
            reply.trace.completions.len(),
            canon.len()
        )
        .unwrap();
    }
    Ok(out.trim_end().to_string())
}

/// Render a stats reply as a table.
fn render_stats(x: &StatsReply) -> String {
    let mut t = Table::new("kserve stats", &["metric", "value"]);
    if !x.session.is_empty() {
        t.row_owned(vec!["session".into(), x.session.clone()]);
    }
    if x.sessions > 0 {
        t.row_owned(vec!["sessions live".into(), x.sessions.to_string()]);
    }
    t.row_owned(vec!["scheduler".into(), x.scheduler.clone()]);
    t.row_owned(vec!["uptime (s)".into(), f3(x.uptime_secs)]);
    t.row_owned(vec!["admitted".into(), x.admitted.to_string()]);
    t.row_owned(vec!["rejected".into(), x.rejected.to_string()]);
    t.row_owned(vec!["completed".into(), x.completed.to_string()]);
    t.row_owned(vec!["cancelled".into(), x.cancelled.to_string()]);
    t.row_owned(vec!["queue depth".into(), x.queue_depth.to_string()]);
    t.row_owned(vec![
        "max queue depth".into(),
        x.max_queue_depth.to_string(),
    ]);
    t.row_owned(vec!["virtual time".into(), x.now.to_string()]);
    t.row_owned(vec!["busy steps".into(), x.busy_steps.to_string()]);
    t.row_owned(vec!["idle steps".into(), x.idle_steps.to_string()]);
    t.row_owned(vec!["quanta".into(), x.quanta.to_string()]);
    t.row_owned(vec![
        "mean quantum latency (µs)".into(),
        f3(x.quantum_latency_mean_us),
    ]);
    for (label, v) in [
        ("p50 quantum latency (µs)", x.quantum_latency_p50_us),
        ("p95 quantum latency (µs)", x.quantum_latency_p95_us),
        ("p99 quantum latency (µs)", x.quantum_latency_p99_us),
        ("phase ready mean (µs)", x.phase_ready_mean_us),
        ("phase decide mean (µs)", x.phase_decide_mean_us),
        ("phase deq-allot mean (µs)", x.phase_deq_allot_mean_us),
        ("phase rr-cycle mean (µs)", x.phase_rr_cycle_mean_us),
        ("phase execute mean (µs)", x.phase_execute_mean_us),
    ] {
        t.row_owned(vec![label.into(), f3(v)]);
    }
    if x.response_jobs > 0 {
        t.row_owned(vec![
            "jobs with response".into(),
            x.response_jobs.to_string(),
        ]);
        t.row_owned(vec![
            "mean response (steps)".into(),
            f3(x.response_mean_steps),
        ]);
        t.row_owned(vec![
            "p99 response (steps)".into(),
            f3(x.response_p99_steps),
        ]);
        t.row_owned(vec![
            "mean slowdown (×)".into(),
            f3(x.slowdown_mean_milli / 1e3),
        ]);
        t.row_owned(vec![
            "p99 slowdown (×)".into(),
            f3(x.slowdown_p99_milli / 1e3),
        ]);
        for (cat, mean) in x.response_mean_steps_by_cat.iter().enumerate() {
            if *mean > 0.0 {
                t.row_owned(vec![format!("mean response cat {cat} (steps)"), f3(*mean)]);
            }
        }
    }
    t.row_owned(vec!["durability".into(), x.durability.clone()]);
    if x.durability != "off" {
        t.row_owned(vec![
            "journal records".into(),
            x.journal_records.to_string(),
        ]);
        t.row_owned(vec!["journal bytes".into(), x.journal_bytes.to_string()]);
        t.row_owned(vec!["journal fsyncs".into(), x.journal_fsyncs.to_string()]);
        t.row_owned(vec![
            "journal snapshots".into(),
            x.journal_snapshots.to_string(),
        ]);
        t.row_owned(vec![
            "journal tail records".into(),
            x.journal_tail_records.to_string(),
        ]);
        t.row_owned(vec!["last recovery (ms)".into(), f3(x.last_recovery_ms)]);
    }
    t.render()
}

/// `krad stats` — render a daemon's live counters; with `--watch`,
/// redraw every `--interval-ms` until the connection drops (or
/// `--count` frames have been shown).
pub fn stats(args: &ArgMap) -> Result<String, String> {
    let addr = args.require("addr")?;
    let session = args.get_or("session", "").to_string();
    if !args.flag("watch") {
        let mut client = connect(args)?;
        let x = client.stats_reply_of(&session).map_err(|e| e.to_string())?;
        return Ok(render_stats(&x));
    }
    let interval = Duration::from_millis(args.num("interval-ms", 1000u64)?);
    let count = args.num("count", 0u64)?; // 0 = until the server goes away
    let mut frames = 0u64;
    let mut last = String::new();
    loop {
        let x = Client::connect(addr)
            .and_then(|mut c| c.stats_reply_of(&session))
            .map_err(|e| format!("cannot fetch stats from {addr}: {e}"));
        match x {
            Ok(x) => last = render_stats(&x),
            // A vanished server ends the watch without an error: the
            // last rendered frame is the session's final state.
            Err(e) if frames > 0 => {
                return Ok(format!("{last}\nwatch ended: {e}"));
            }
            Err(e) => return Err(e),
        }
        frames += 1;
        if count > 0 && frames >= count {
            return Ok(last);
        }
        // Clear the screen and redraw in place, dashboard style.
        print!("\x1b[2J\x1b[H{last}\n(frame {frames}, every {interval:?}; ctrl-c to stop)\n");
        std::thread::sleep(interval);
    }
}

/// `krad metrics` — fetch the Prometheus exposition over the protocol.
pub fn metrics(args: &ArgMap) -> Result<String, String> {
    let mut client = connect(args)?;
    client.metrics().map_err(|e| e.to_string())
}

/// `krad trace` — render ktrace span trees.
///
/// Live: `krad trace --addr HOST:PORT JOB` fetches one job's span
/// tree (lifecycle state, engine-time wait/service/exec spans, wall
/// stamps) over the protocol's `trace` verb. Offline: `krad trace
/// --flight FILE.jsonl [--job N]` assembles traces from a
/// flight-recorder dump — the whole session's lifecycle table, or one
/// job's tree.
pub fn trace(args: &ArgMap) -> Result<String, String> {
    if let Some(path) = args.get("flight") {
        let dump = load_flight_dump(Path::new(path))?;
        let report = TraceReport::from_events(&dump);
        return match args.get("job") {
            Some(id) => {
                let id: usize = id.parse().map_err(|_| format!("bad --job: {id}"))?;
                report.traces.get(id).map_or_else(
                    || {
                        Err(format!(
                            "no job {id} in {path} ({} traces)",
                            report.traces.len()
                        ))
                    },
                    |t| Ok(t.render_tree(&id.to_string()).trim_end().to_string()),
                )
            }
            None => Ok(report.render().trim_end().to_string()),
        };
    }
    let mut client = connect(args)?;
    let session = args.get_or("session", "");
    let job: u64 = {
        let raw = args.one_positional()?;
        raw.parse().map_err(|_| format!("bad job id: {raw}"))?
    };
    let reply = client
        .trace_reply_in(session, job)
        .map_err(|e| e.to_string())?;
    let label = format!("{job} [{}] ({})", reply.trace_id, reply.state);
    Ok(reply
        .to_job_trace()
        .render_tree(&label)
        .trim_end()
        .to_string())
}

/// `krad flight` — summarize a flight-recorder JSONL dump; with
/// `--trace`, replay the session offline and require the dump to be a
/// byte-for-byte tail of the replayed event stream.
pub fn flight(args: &ArgMap) -> Result<String, String> {
    let path = args.one_positional()?;
    let dump = load_flight_dump(Path::new(path))?;
    let mut out = FlightRecorderReport::from_events(&dump).render();
    if let Some(trace_path) = args.get("trace") {
        let text = std::fs::read_to_string(trace_path)
            .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
        let trace = SessionTrace::decode(&text)?;
        let (tel, rec) = TelemetryHandle::recording();
        trace.replay_instrumented(tel)?;
        let offline = rec
            .lock()
            .map_err(|_| "replay recording poisoned".to_string())?
            .take();
        let matched = verify_against_stream(&dump, &offline)?;
        write!(
            out,
            "\nflight verified: {matched} events reproduced byte-for-byte \
             against the replayed stream ({} events total)",
            offline.len()
        )
        .unwrap();
    }
    Ok(out)
}

/// `krad journal` — offline summary of one journal file:
/// `krad journal inspect FILE.kj` (a WAL or a snapshot).
pub fn journal(args: &ArgMap) -> Result<String, String> {
    match args.positional.as_slice() {
        [action, path] if action == "inspect" => {
            let path = Path::new(path);
            let title = format!(
                "journal file: {}",
                path.file_name().map_or_else(
                    || path.display().to_string(),
                    |n| n.to_string_lossy().into_owned()
                )
            );
            Ok(JournalFileReport::from_file(path)?.render(&title))
        }
        _ => Err("usage: krad journal inspect FILE.kj".into()),
    }
}

/// `krad recover` — dry run of server recovery: fold snapshot + WAL
/// in a journal directory and print the session image a restarting
/// `kserve --journal-dir` would rebuild, without starting a server.
pub fn recover(args: &ArgMap) -> Result<String, String> {
    let dir = args.one_positional()?;
    Ok(JournalDirReport::from_dir(Path::new(dir))?.render())
}

/// `krad submit` — one-shot client: submit a jobset file or a
/// scenario, or query/drain a running daemon. `--session NAME`
/// addresses a named session (default: the implicit default session).
pub fn submit(args: &ArgMap) -> Result<String, String> {
    let mut client = connect(args)?;
    let session = args.get_or("session", "").to_string();

    if args.flag("status") {
        return match client.status_of(&session).map_err(|e| e.to_string())? {
            Response::Status(st) => {
                let done = st.jobs.iter().filter(|j| j.completion.is_some()).count();
                Ok(format!(
                    "t={} queued={} active={} done={}/{}{}",
                    st.now,
                    st.queued,
                    st.active,
                    done,
                    st.jobs.len(),
                    if st.draining { " (draining)" } else { "" }
                ))
            }
            other => Err(format!("unexpected reply: {other:?}")),
        };
    }
    if args.flag("stats") {
        let x = client.stats_reply_of(&session).map_err(|e| e.to_string())?;
        return Ok(render_stats(&x));
    }
    if let Some(id) = args.get("cancel") {
        let id: u64 = id.parse().map_err(|_| format!("bad --cancel: {id}"))?;
        return match client.cancel_in(&session, id).map_err(|e| e.to_string())? {
            Response::Cancelled { job } => Ok(format!("cancelled job {job}")),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply: {other:?}")),
        };
    }
    if args.flag("drain") {
        let reply = if session.is_empty() {
            client.drain()
        } else {
            client.drain_session(&session)
        };
        return match reply.map_err(|e| e.to_string())? {
            Response::Drained(reply) => render_drain(args, reply),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected reply: {other:?}")),
        };
    }

    // Submission proper: a jobset file, or a server-side scenario.
    // Releases in the file are ignored — the daemon assigns releases
    // at injection (that is what makes the session replayable).
    let (label, dags): (String, Vec<DagSpec>) = if let Some(name) = args.get("scenario") {
        let sc = ScenarioRef {
            name: name.to_string(),
            jobs: args.num("jobs", 8usize)?,
            seed: args.num("seed", 42u64)?,
        };
        let reply = client
            .roundtrip(&kserve::Request::Submit {
                jobs: Vec::new(),
                scenario: Some(sc),
                watch: false,
                session: session.clone(),
            })
            .map_err(|e| e.to_string())?;
        return match reply {
            Response::Submitted { jobs, .. } => Ok(format!(
                "submitted {} jobs from scenario '{name}' (ids {}..{})",
                jobs.len(),
                jobs.first().copied().unwrap_or(0),
                jobs.last().copied().unwrap_or(0),
            )),
            Response::Rejected { reason, .. } => Err(format!("rejected: {reason}")),
            other => Err(format!("unexpected reply: {other:?}")),
        };
    } else {
        let path = args.one_positional()?;
        let (label, jobs) = load_jobset(Path::new(path)).map_err(|e| e.to_string())?;
        (
            label,
            jobs.iter().map(|j| DagSpec::from_dag(&j.dag)).collect(),
        )
    };

    if args.flag("watch") {
        let (ack, events) = client
            .submit_watch_to(&session, dags)
            .map_err(|e| e.to_string())?;
        match ack {
            Response::Submitted { jobs, .. } => {
                let mut t = Table::new(
                    &format!("'{label}': {} jobs completed", events.len()),
                    &["job", "release", "completion", "response"],
                );
                for ev in &events {
                    if let Event::JobDone {
                        job,
                        release,
                        completion,
                        response,
                        ..
                    } = ev
                    {
                        t.row_owned(vec![
                            job.to_string(),
                            release.to_string(),
                            completion.to_string(),
                            response.to_string(),
                        ]);
                    }
                }
                let mut out = t.render();
                write!(
                    out,
                    "\n{} submitted, {} completed",
                    jobs.len(),
                    events.len()
                )
                .unwrap();
                Ok(out)
            }
            Response::Rejected {
                reason,
                queue_depth,
                capacity,
            } => Err(format!(
                "rejected: {reason} (queue {queue_depth}/{capacity})"
            )),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    } else {
        match client
            .submit_to(&session, dags)
            .map_err(|e| e.to_string())?
        {
            Response::Submitted { jobs, .. } => {
                Ok(format!("submitted {} jobs from '{label}'", jobs.len()))
            }
            Response::Rejected {
                reason,
                queue_depth,
                capacity,
            } => Err(format!(
                "rejected: {reason} (queue {queue_depth}/{capacity})"
            )),
            other => Err(format!("unexpected reply: {other:?}")),
        }
    }
}

fn parse_arrivals(spec: &str) -> Result<ArrivalKind, String> {
    if spec == "burst" {
        return Ok(ArrivalKind::Burst);
    }
    if spec == "trace" {
        return Ok(ArrivalKind::Trace);
    }
    if let Some(rate) = spec.strip_prefix("poisson:") {
        let lambda: f64 = rate.parse().map_err(|_| format!("bad rate: {rate}"))?;
        return Ok(ArrivalKind::Poisson { lambda });
    }
    if let Some(alpha) = spec.strip_prefix("heavy-tail:") {
        let alpha: f64 = alpha.parse().map_err(|_| format!("bad alpha: {alpha}"))?;
        return Ok(ArrivalKind::HeavyTail { alpha });
    }
    Err(format!("unknown --arrivals '{spec}'"))
}

/// One stats reply as a JSON object (stable field order).
fn stats_json(x: &StatsReply) -> Value {
    Value::obj([
        ("admitted", Value::from(x.admitted)),
        ("rejected", Value::from(x.rejected)),
        ("completed", Value::from(x.completed)),
        ("cancelled", Value::from(x.cancelled)),
        ("queue_depth", Value::from(x.queue_depth)),
        ("max_queue_depth", Value::from(x.max_queue_depth)),
        ("now", Value::from(x.now)),
        ("busy_steps", Value::from(x.busy_steps)),
        ("idle_steps", Value::from(x.idle_steps)),
        ("quanta", Value::from(x.quanta)),
        (
            "quantum_latency_mean_us",
            Value::from(x.quantum_latency_mean_us),
        ),
        (
            "quantum_latency_p50_us",
            Value::from(x.quantum_latency_p50_us),
        ),
        (
            "quantum_latency_p95_us",
            Value::from(x.quantum_latency_p95_us),
        ),
        (
            "quantum_latency_p99_us",
            Value::from(x.quantum_latency_p99_us),
        ),
        ("journal_records", Value::from(x.journal_records)),
        ("journal_fsyncs", Value::from(x.journal_fsyncs)),
        ("durability", Value::from(x.durability.as_str())),
        ("phase_ready_mean_us", Value::from(x.phase_ready_mean_us)),
        ("phase_decide_mean_us", Value::from(x.phase_decide_mean_us)),
        (
            "phase_deq_allot_mean_us",
            Value::from(x.phase_deq_allot_mean_us),
        ),
        (
            "phase_rr_cycle_mean_us",
            Value::from(x.phase_rr_cycle_mean_us),
        ),
        (
            "phase_execute_mean_us",
            Value::from(x.phase_execute_mean_us),
        ),
        ("uptime_secs", Value::from(x.uptime_secs)),
        ("scheduler", Value::from(x.scheduler.as_str())),
        ("response_jobs", Value::from(x.response_jobs)),
        ("response_mean_steps", Value::from(x.response_mean_steps)),
        ("response_p99_steps", Value::from(x.response_p99_steps)),
        ("slowdown_mean_milli", Value::from(x.slowdown_mean_milli)),
        ("slowdown_p99_milli", Value::from(x.slowdown_p99_milli)),
        (
            "response_mean_steps_by_cat",
            Value::from(x.response_mean_steps_by_cat.clone()),
        ),
        (
            "slowdown_mean_milli_by_cat",
            Value::from(x.slowdown_mean_milli_by_cat.clone()),
        ),
    ])
}

/// The `--stats-out` document: server stats before and after the
/// loadgen burst, plus the counter deltas the burst caused and the
/// per-category response/slowdown mean shifts it induced.
fn loadgen_stats_json(before: &StatsReply, after: &StatsReply) -> String {
    let cats = after
        .response_mean_steps_by_cat
        .len()
        .max(before.response_mean_steps_by_cat.len());
    let mean_deltas = |a: &[f64], b: &[f64]| -> Vec<f64> {
        (0..cats)
            .map(|i| a.get(i).copied().unwrap_or(0.0) - b.get(i).copied().unwrap_or(0.0))
            .collect()
    };
    let delta = |f: fn(&StatsReply) -> u64| Value::from(f(after).saturating_sub(f(before)));
    let doc = Value::obj([
        ("schema", Value::from("krad-loadgen-stats")),
        ("version", Value::from(2u64)),
        ("before", stats_json(before)),
        ("after", stats_json(after)),
        (
            "delta",
            Value::obj([
                ("admitted", delta(|x| x.admitted)),
                ("rejected", delta(|x| x.rejected)),
                ("completed", delta(|x| x.completed)),
                ("quanta", delta(|x| x.quanta)),
                ("busy_steps", delta(|x| x.busy_steps)),
                ("idle_steps", delta(|x| x.idle_steps)),
                ("response_jobs", delta(|x| x.response_jobs)),
                (
                    "response_mean_steps_by_cat",
                    Value::from(mean_deltas(
                        &after.response_mean_steps_by_cat,
                        &before.response_mean_steps_by_cat,
                    )),
                ),
                (
                    "slowdown_mean_milli_by_cat",
                    Value::from(mean_deltas(
                        &after.slowdown_mean_milli_by_cat,
                        &before.slowdown_mean_milli_by_cat,
                    )),
                ),
            ]),
        ),
    ]);
    doc.to_pretty() + "\n"
}

/// `krad session` — manage named sessions on a running daemon.
///
/// * `krad session open NAME [--scheduler S] [--policy P]
///   [--quantum N] [--seed N] [--queue-capacity N] [--max-inflight N]
///   [--rate R] [--burst N]` — create (or attach to) a session with
///   its own scheduler, engine, journal, and admission quota;
/// * `krad session close NAME [--verify]` — drain the session, report
///   its final counters, and remove it (journal included);
/// * `krad session drain NAME [--verify] [--trace-out FILE]` — seal
///   the session but keep it registered;
/// * `krad session stats NAME` — the per-session counter table.
pub fn session(args: &ArgMap) -> Result<String, String> {
    use kserve::protocol::SessionSpec;
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        args.get(key)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad --{key}: {v}")))
            .transpose()
    };
    let mut client = connect(args)?;
    match args.positional.as_slice() {
        [action, name] if action == "open" => {
            let spec = SessionSpec {
                scheduler: args.get("scheduler").map(str::to_string),
                policy: args.get("policy").map(str::to_string),
                quantum: opt_u64("quantum")?,
                seed: opt_u64("seed")?,
                queue_capacity: opt_u64("queue-capacity")?,
                max_inflight: opt_u64("max-inflight")?,
                rate_per_sec: args
                    .get("rate")
                    .map(|v| v.parse::<f64>().map_err(|_| format!("bad --rate: {v}")))
                    .transpose()?,
                burst: opt_u64("burst")?,
            };
            match client.open(name, spec).map_err(|e| e.to_string())? {
                Response::Opened {
                    session,
                    scheduler,
                    time_policy,
                    quantum,
                    existing,
                } => Ok(format!(
                    "{} session '{session}' (scheduler {scheduler}, clock {time_policy}, quantum {quantum})",
                    if existing { "attached to" } else { "opened" },
                )),
                Response::Error { message } => Err(message),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        [action, name] if action == "close" => {
            match client.close(name).map_err(|e| e.to_string())? {
                Response::Closed { session, report } => {
                    let mut out = format!(
                        "closed session '{session}': {} admitted, {} completed, {} cancelled, {} rejected",
                        report.admitted, report.completed, report.cancelled, report.rejected
                    );
                    if args.flag("verify") {
                        let canon = report.trace.verify()?;
                        write!(
                            out,
                            "\nreplay verified: {} completions reproduced byte-for-byte ({} bytes)",
                            report.trace.completions.len(),
                            canon.len()
                        )
                        .unwrap();
                    }
                    Ok(out)
                }
                Response::Error { message } => Err(message),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        [action, name] if action == "drain" => {
            match client.drain_session(name).map_err(|e| e.to_string())? {
                Response::Drained(reply) => render_drain(args, reply),
                Response::Error { message } => Err(message),
                other => Err(format!("unexpected reply: {other:?}")),
            }
        }
        [action, name] if action == "stats" => {
            let x = client.stats_reply_of(name).map_err(|e| e.to_string())?;
            Ok(render_stats(&x))
        }
        _ => Err("usage: krad session open|close|drain|stats NAME --addr HOST:PORT".into()),
    }
}

/// `krad loadgen` — drive a running daemon with concurrent clients.
pub fn loadgen(args: &ArgMap) -> Result<String, String> {
    let addr = args.require("addr")?;
    let cfg = LoadgenConfig {
        clients: args.num("clients", 4usize)?,
        jobs_per_client: args.num("jobs", 50usize)?,
        chunk: args.num("chunk", 5usize)?,
        arrivals: parse_arrivals(args.get_or("arrivals", "burst"))?,
        seed: args.num("seed", 42u64)?,
        k: args.num("k", 2usize)?,
        mean_size: args.num("mean-size", 30usize)?,
        pace: Duration::from_millis(args.num("pace-ms", 0u64)?),
        sessions: args.num("sessions", 0usize)?,
    };
    if cfg.clients == 0 || cfg.jobs_per_client == 0 {
        return Err("loadgen needs --clients ≥ 1 and --jobs ≥ 1".into());
    }
    let fetch_stats = || {
        Client::connect(addr)
            .and_then(|mut c| c.stats_reply())
            .map_err(|e| format!("cannot fetch stats from {addr}: {e}"))
    };
    let before = match args.get("stats-out") {
        Some(_) => Some(fetch_stats()?),
        None => None,
    };
    let report = run_loadgen(addr, &cfg).map_err(|e| e.to_string())?;
    let mut out = report.render();
    if let (Some(path), Some(before)) = (args.get("stats-out"), before) {
        let after = fetch_stats()?;
        std::fs::write(path, loadgen_stats_json(&before, &after))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        write!(out, "\nwrote before/after server stats to {path}").unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_for as parse;
    use kbaselines::SchedulerKind;

    #[test]
    fn server_config_parses() {
        let cfg = server_config(&parse(
            "serve",
            &[
                "--machine",
                "4,2",
                "--scheduler",
                "equi",
                "--policy",
                "lifo",
                "--quantum",
                "3",
                "--queue-capacity",
                "9",
            ],
        ))
        .unwrap();
        assert_eq!(cfg.machine, vec![4, 2]);
        assert_eq!(cfg.scheduler, SchedulerKind::Equi);
        assert_eq!(cfg.quantum, 3);
        assert_eq!(cfg.queue_capacity, 9);
        assert_eq!(cfg.metrics_addr, None);
        assert_eq!(cfg.flight_dump, None);
        assert!(server_config(&parse("serve", &[])).is_err());
        assert!(server_config(&parse(
            "serve",
            &["--machine", "4,2", "--scheduler", "nope"]
        ))
        .is_err());

        let cfg = server_config(&parse(
            "serve",
            &[
                "--machine",
                "2",
                "--metrics-addr",
                "127.0.0.1:0",
                "--flight-capacity",
                "128",
                "--flight-dump",
                "/tmp/f.jsonl",
            ],
        ))
        .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.flight_capacity, 128);
        assert_eq!(cfg.flight_dump.as_deref(), Some(Path::new("/tmp/f.jsonl")));
    }

    #[test]
    fn server_config_parses_journal_flags() {
        let cfg = server_config(&parse("serve", &["--machine", "4,2"])).unwrap();
        assert_eq!(cfg.journal_dir, None);

        let cfg = server_config(&parse(
            "serve",
            &[
                "--machine",
                "4,2",
                "--journal-dir",
                "/tmp/j",
                "--fsync",
                "always",
                "--snapshot-every",
                "64",
            ],
        ))
        .unwrap();
        assert_eq!(cfg.journal_dir.as_deref(), Some(Path::new("/tmp/j")));
        assert_eq!(cfg.fsync, FsyncPolicy::Always);
        assert_eq!(cfg.snapshot_every, 64);
        assert_eq!(
            server_config(&parse(
                "serve",
                &["--machine", "4,2", "--fsync", "interval:5"]
            ))
            .unwrap()
            .fsync
            .label(),
            "interval:5"
        );
        assert!(server_config(&parse("serve", &["--machine", "4,2", "--fsync", "nope"])).is_err());
    }

    #[test]
    fn journal_inspect_and_recover_over_a_drained_session() {
        let dir = std::env::temp_dir().join(format!("kcli-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let jdir = dir.join("journal");

        let server = Server::start(ServerConfig {
            machine: vec![6, 3],
            seed: 5,
            journal_dir: Some(jdir.clone()),
            fsync: FsyncPolicy::Never,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();

        let out = submit(&parse(
            "submit",
            &["--addr", &addr, "--scenario", "pipeline", "--jobs", "3"],
        ))
        .unwrap();
        assert!(out.contains("submitted 3 jobs"), "{out}");

        let out = stats(&parse("stats", &["--addr", &addr])).unwrap();
        assert!(out.contains("durability"), "{out}");
        assert!(out.contains("wal:never"), "{out}");
        assert!(out.contains("journal records"), "{out}");

        let out = submit(&parse("submit", &["--addr", &addr, "--drain", "--verify"])).unwrap();
        assert!(out.contains("replay verified"), "{out}");
        server.join();

        let snap = jdir.join("snap.kj");
        let out = journal(&parse("journal", &["inspect", snap.to_str().unwrap()])).unwrap();
        assert!(out.contains("journal file: snap.kj"), "{out}");
        assert!(out.contains("session-open"), "{out}");
        assert!(journal(&parse("journal", &["inspect"])).is_err());

        let out = recover(&parse("recover", &[jdir.to_str().unwrap()])).unwrap();
        assert!(out.contains("recovered session image"), "{out}");
        assert!(out.contains("k-rad"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arrivals_parse() {
        assert_eq!(parse_arrivals("burst").unwrap(), ArrivalKind::Burst);
        assert_eq!(
            parse_arrivals("poisson:0.5").unwrap(),
            ArrivalKind::Poisson { lambda: 0.5 }
        );
        assert_eq!(
            parse_arrivals("heavy-tail:1.2").unwrap(),
            ArrivalKind::HeavyTail { alpha: 1.2 }
        );
        assert_eq!(parse_arrivals("trace").unwrap(), ArrivalKind::Trace);
        assert!(parse_arrivals("poisson:x").is_err());
        assert!(parse_arrivals("nope").is_err());
    }

    #[test]
    fn submit_and_loadgen_against_in_process_server() {
        let server = Server::start(ServerConfig {
            machine: vec![6, 3],
            seed: 11,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();

        let out = submit(&parse(
            "submit",
            &["--addr", &addr, "--scenario", "pipeline", "--jobs", "3"],
        ))
        .unwrap();
        assert!(out.contains("submitted 3 jobs"), "{out}");

        let dir = std::env::temp_dir().join(format!("kcli-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats_path = dir.join("loadgen-stats.json");
        let out = loadgen(&parse(
            "loadgen",
            &[
                "--addr",
                &addr,
                "--clients",
                "2",
                "--jobs",
                "6",
                "--chunk",
                "3",
                "--stats-out",
                stats_path.to_str().unwrap(),
            ],
        ))
        .unwrap();
        assert!(out.contains("throughput"), "{out}");
        assert!(out.contains("wrote before/after server stats"), "{out}");
        let text = std::fs::read_to_string(&stats_path).unwrap();
        let doc = ktelemetry::json::parse(&text).unwrap();
        assert_eq!(doc["schema"].as_str(), Some("krad-loadgen-stats"));
        assert_eq!(doc["delta"]["admitted"].as_u64(), Some(12));
        assert!(doc["before"]["quanta"].as_u64().is_some());
        assert!(doc["delta"]["response_jobs"].as_u64().is_some());
        assert!(doc["delta"]["response_mean_steps_by_cat"]
            .as_arr()
            .is_some());
        assert!(doc["delta"]["slowdown_mean_milli_by_cat"]
            .as_arr()
            .is_some());
        assert!(doc["after"]["response_mean_steps"].as_f64().is_some());
        std::fs::remove_dir_all(&dir).ok();

        let out = submit(&parse("submit", &["--addr", &addr, "--stats"])).unwrap();
        assert!(out.contains("admitted"), "{out}");

        // The session has completions by now, so the live trace verb
        // can render job 0's span tree end to end.
        let out = trace(&parse("trace", &["--addr", &addr, "0"])).unwrap();
        assert!(out.contains("job 0 ["), "{out}");
        assert!(out.contains("wait"), "{out}");
        assert!(trace(&parse("trace", &["--addr", &addr, "99999"])).is_err());

        let out = submit(&parse("submit", &["--addr", &addr, "--drain", "--verify"])).unwrap();
        assert!(out.contains("replay verified"), "{out}");
        server.join();
    }

    #[test]
    fn stats_metrics_and_flight_commands_roundtrip() {
        let dir = std::env::temp_dir().join(format!("kcli-flight-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("flight.jsonl");
        let trace_path = dir.join("trace.json");

        let server = Server::start(ServerConfig {
            machine: vec![4, 2],
            seed: 3,
            metrics_addr: Some("127.0.0.1:0".into()),
            flight_dump: Some(dump.clone()),
            ..ServerConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        assert!(server.metrics_addr().is_some());

        let out = submit(&parse(
            "submit",
            &["--addr", &addr, "--scenario", "pipeline", "--jobs", "4"],
        ))
        .unwrap();
        assert!(out.contains("submitted 4 jobs"), "{out}");

        let out = stats(&parse("stats", &["--addr", &addr])).unwrap();
        assert!(out.contains("uptime (s)"), "{out}");
        assert!(out.contains("p95 quantum latency"), "{out}");

        let out = stats(&parse(
            "stats",
            &[
                "--addr",
                &addr,
                "--watch",
                "--interval-ms",
                "1",
                "--count",
                "2",
            ],
        ))
        .unwrap();
        assert!(out.contains("quanta"), "{out}");

        let out = metrics(&parse("metrics", &["--addr", &addr])).unwrap();
        assert!(out.contains("krad_quanta_total"), "{out}");
        assert!(out.contains("krad_mode_residency_seconds"), "{out}");

        let out = submit(&parse(
            "submit",
            &[
                "--addr",
                &addr,
                "--drain",
                "--trace-out",
                trace_path.to_str().unwrap(),
            ],
        ))
        .unwrap();
        assert!(out.contains("session trace written"), "{out}");
        server.join();

        // Offline trace assembly from the same dump: whole-session
        // lifecycle table, then one job's span tree.
        let out = trace(&parse("trace", &["--flight", dump.to_str().unwrap()])).unwrap();
        assert!(out.contains("per-job lifecycle"), "{out}");
        let out = trace(&parse(
            "trace",
            &["--flight", dump.to_str().unwrap(), "--job", "0"],
        ))
        .unwrap();
        assert!(out.contains("job 0"), "{out}");
        assert!(trace(&parse(
            "trace",
            &["--flight", dump.to_str().unwrap(), "--job", "999"]
        ))
        .is_err());

        // Summary alone, then summary + byte-for-byte replay check.
        let out = flight(&parse("flight", &[dump.to_str().unwrap()])).unwrap();
        assert!(out.contains("events retained"), "{out}");
        let out = flight(&parse(
            "flight",
            &[
                dump.to_str().unwrap(),
                "--trace",
                trace_path.to_str().unwrap(),
            ],
        ))
        .unwrap();
        assert!(out.contains("flight verified"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
