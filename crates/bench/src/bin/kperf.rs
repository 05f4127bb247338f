//! `kperf` — the pinned perf-trajectory harness.
//!
//! `kperf run` executes the pinned workload suite
//! ([`kworkloads::suite`]) under K-RAD with the phase profiler on,
//! takes the best of N iterations per suite, and writes a
//! `BENCH_*.json` trajectory file (schema `krad-bench` v1: per-suite
//! wall time, per-phase nanosecond totals, throughput).
//!
//! `kperf compare` is the CI regression gate: it compares a fresh run
//! against the committed baseline. Because the baseline was recorded
//! on a different machine, absolute wall times are not comparable;
//! instead the gate computes each suite's current/baseline wall ratio,
//! takes the **median ratio as the machine-speed factor**, and flags
//! suites whose ratio deviates from that median (default: warn beyond
//! 10%, fail beyond 30%). A uniform slowdown (slower runner) passes; a
//! single suite regressing relative to the others does not. Alongside
//! each wall ratio the gate prints the suite's per-phase ns ratios
//! (normalized by the same machine factor) so a phase-level shift —
//! say `decide` regressing while `execute` improves — is visible even
//! when the wall total hides it.
//!
//! `kperf trace` measures tracing overhead: the pinned many-jobs
//! workload stepped quantum by quantum with per-job lifecycle tracing
//! (a live [`TraceAssembler`] telemetry sink) on vs. off, comparing
//! exact p99 per-quantum wall latencies. The median-of-iterations p99
//! ratio is written to a `BENCH_*_trace.json` artifact and gated
//! against a bound (default 1.10).

use kcli::args::{ArgMap, Spec};
use kdag::SelectionPolicy;
use krad::KRad;
use ksim::{simulate, LiveSimulation, SimConfig, SimOutcome, TimePolicy};
use ktelemetry::json::{self, Value};
use ktelemetry::{
    FanoutSink, FlightRecorder, PhaseStat, SharedSink, SpanKind, SpanRecorder, TelemetryHandle,
    TraceAssembler,
};
use kworkloads::suite::PinnedWorkload;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SCHEMA: &str = "krad-bench";
const VERSION: u32 = 1;

const USAGE: &str = "kperf — pinned perf trajectory harness

USAGE:
    kperf run [--smoke] [--iters N] [--out FILE]
        Run the pinned suite (t12-stress, large-dag, many-jobs,
        swf-slice, trace-sparse under both engine clocks) and write a
        krad-bench trajectory JSON.
        --smoke    single iteration per suite (CI mode; sub-millisecond
                   suites keep a small best-of floor for stable walls)
        --iters N  iterations per suite (best-of; default 3)
        --out FILE output path (default BENCH_7.json)

    kperf compare --baseline FILE --current FILE [--warn F] [--fail F]
        Gate a fresh run against a committed baseline. Per-suite wall
        ratios are normalized by their median (machine speed); a suite
        deviating beyond --warn (default 0.10) warns, beyond --fail
        (default 0.30) fails with exit code 1. Per-phase ns ratios are
        printed alongside each wall ratio (informational).

    kperf trace [--iters N] [--bound F] [--out FILE]
        Measure per-job lifecycle tracing overhead: step the pinned
        many-jobs workload one quantum at a time with a live trace
        assembler on vs. off, compare exact p99 quantum latencies, and
        write a krad-bench-trace JSON artifact.
        --iters N  measured on/off pairs (median of p99s; default 15)
        --bound F  fail (exit 1) if the p99 ratio exceeds F (default 1.10)
        --out FILE output path (default BENCH_8_trace.json)

    kperf swarm [--iters N] [--bound F] [--out FILE]
        Measure multi-tenant overhead: run the same per-tenant job mix
        against an in-process kswarm daemon with 1 vs 16 concurrent
        sessions, compare per-session p99 quantum latencies, and write
        a krad-bench-swarm JSON artifact.
        --iters N  measured single/multi pairs (median of p99s; default 5)
        --bound F  fail (exit 1) if the p99 ratio exceeds F (default 1.25)
        --out FILE output path (default BENCH_9_swarm.json)";

struct SuiteRun {
    name: &'static str,
    time_policy: TimePolicy,
    quantum: u64,
    jobs: usize,
    iters: u32,
    wall_ns: u64,
    busy_steps: u64,
    makespan: u64,
    phases: Vec<PhaseStat>,
}

/// One entry of the pinned suite: a workload measured under a specific
/// engine clock. The four dense workloads keep the unit-step
/// methodology of earlier trajectory files; the sparse trace-scale
/// shape is measured under *both* clocks so the trajectory records the
/// event-driven batching win explicitly.
struct SuiteSpec {
    name: &'static str,
    workload: PinnedWorkload,
    time_policy: TimePolicy,
    /// Best-of floor even in `--smoke` mode: sub-millisecond suites
    /// (the event-driven sparse run) need a few iterations for the
    /// minimum to be a stable statistic on shared CI runners.
    min_iters: u32,
}

fn pinned_suites() -> Vec<SuiteSpec> {
    let mut suites: Vec<SuiteSpec> = [
        PinnedWorkload::T12Stress,
        PinnedWorkload::LargeDag,
        PinnedWorkload::ManyJobs,
        PinnedWorkload::SwfSlice,
    ]
    .into_iter()
    .map(|w| SuiteSpec {
        name: w.name(),
        workload: w,
        time_policy: TimePolicy::UnitStep,
        // The millisecond-scale suites need a best-of floor for the
        // wall minimum to be stable on shared runners; many-jobs is
        // long enough to be stable single-shot.
        min_iters: if w == PinnedWorkload::ManyJobs { 1 } else { 3 },
    })
    .collect();
    suites.push(SuiteSpec {
        name: "trace-sparse-unit",
        workload: PinnedWorkload::TraceSparse,
        time_policy: TimePolicy::UnitStep,
        min_iters: 1,
    });
    suites.push(SuiteSpec {
        name: "trace-sparse",
        workload: PinnedWorkload::TraceSparse,
        time_policy: TimePolicy::EventDriven,
        min_iters: 5,
    });
    suites
}

fn run_suite(spec: &SuiteSpec, iters: u32) -> SuiteRun {
    let (jobs, res) = spec.workload.build();
    let iters = iters.max(spec.min_iters);
    let quantum = spec.workload.quantum();
    let mut best: Option<(u64, SimOutcome, Vec<PhaseStat>)> = None;
    for _ in 0..iters {
        // Fresh profiler per iteration so best-of keeps matched
        // wall/phase numbers.
        let spans = SpanRecorder::profiler();
        let mut sched = KRad::with_instrumentation(res.k(), TelemetryHandle::off(), spans.clone());
        let cfg = SimConfig::default()
            .with_policy(SelectionPolicy::Fifo)
            .with_quantum(quantum)
            .with_time_policy(spec.time_policy)
            .with_spans(spans.clone());
        let started = Instant::now();
        let outcome = simulate(&mut sched, &jobs, &res, &cfg);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let profile = spans.profile().unwrap_or_default();
        let better = match &best {
            None => true,
            Some((prev, _, _)) => wall_ns < *prev,
        };
        if better {
            best = Some((wall_ns, outcome, profile));
        }
    }
    let (wall_ns, outcome, phases) = best.expect("at least one iteration");
    SuiteRun {
        name: spec.name,
        time_policy: spec.time_policy,
        quantum,
        jobs: jobs.len(),
        iters,
        wall_ns,
        busy_steps: outcome.busy_steps,
        makespan: outcome.makespan,
        phases,
    }
}

impl SuiteRun {
    fn secs(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    fn steps_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_steps as f64 / self.secs()
        }
    }

    fn jobs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.jobs as f64 / self.secs()
        }
    }
}

/// `x` rounded to `places` decimals, as a JSON number.
fn rounded(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

/// A pretty JSON document with a trailing newline.
fn document(fields: Vec<(&str, Value)>) -> String {
    Value::obj(fields).to_pretty() + "\n"
}

/// Render the trajectory file; fields keep a stable order so diffs of
/// committed baselines stay readable.
fn render_json(runs: &[SuiteRun]) -> String {
    let suites = runs.iter().map(|r| {
        let phases = r
            .phases
            .iter()
            .map(|p| (p.kind.label(), Value::from(p.total_ns)));
        Value::obj([
            ("name", Value::from(r.name)),
            ("time_policy", Value::from(r.time_policy.label())),
            ("quantum", Value::from(r.quantum)),
            ("jobs", Value::from(r.jobs)),
            ("iters", Value::from(r.iters)),
            ("wall_ns", Value::from(r.wall_ns)),
            ("busy_steps", Value::from(r.busy_steps)),
            ("makespan", Value::from(r.makespan)),
            ("steps_per_sec", rounded(r.steps_per_sec(), 1)),
            ("jobs_per_sec", rounded(r.jobs_per_sec(), 1)),
            ("phases_ns", Value::obj(phases)),
        ])
    });
    document(vec![
        ("schema", Value::from(SCHEMA)),
        ("version", Value::from(VERSION)),
        ("suites", Value::Arr(suites.collect())),
    ])
}

fn cmd_run(args: &ArgMap) -> ExitCode {
    let iters = match (args.flag("smoke"), iters(args, 3)) {
        (true, _) => 1,
        (false, Ok(n)) => n,
        (false, Err(e)) => return usage_error(&e),
    };
    let out_path = args.get_or("out", "BENCH_7.json");

    let mut runs = Vec::new();
    for spec in pinned_suites() {
        let run = run_suite(&spec, iters);
        println!(
            "{:<18} {:>6} jobs  {:>10} steps  {:>10.1} ms  {:>12.1} steps/s",
            run.name,
            run.jobs,
            run.busy_steps,
            run.wall_ns as f64 / 1e6,
            run.steps_per_sec()
        );
        runs.push(run);
    }
    let json = render_json(&runs);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

/// One suite's wall time and per-phase ns totals pulled out of a
/// trajectory file.
struct SuiteStat {
    name: String,
    wall: f64,
    /// `(phase label, total ns)` for every phase present in the file's
    /// `phases_ns` object, in [`SpanKind::ALL`] order.
    phases: Vec<(&'static str, u64)>,
}

fn suite_stats(doc: &Value, path: &str) -> Result<Vec<SuiteStat>, String> {
    if doc["schema"].as_str() != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} file"));
    }
    if doc["version"].as_u64() != Some(u64::from(VERSION)) {
        return Err(format!("{path}: unsupported version"));
    }
    let suites = doc["suites"]
        .as_arr()
        .ok_or_else(|| format!("{path}: no suites array"))?;
    let mut stats = Vec::new();
    for s in suites {
        let name = s["name"]
            .as_str()
            .ok_or_else(|| format!("{path}: suite without name"))?;
        let wall = s["wall_ns"]
            .as_u64()
            .ok_or_else(|| format!("{path}: suite {name} without wall_ns"))?;
        if wall == 0 {
            return Err(format!("{path}: suite {name} has zero wall_ns"));
        }
        // Index by the known phase labels rather than iterating the
        // object: older baselines may omit phases entirely, and the
        // label set is the contract (SpanKind::ALL), not the file.
        let phases = SpanKind::ALL
            .iter()
            .filter_map(|k| s["phases_ns"][k.label()].as_u64().map(|ns| (k.label(), ns)))
            .collect();
        stats.push(SuiteStat {
            name: name.to_string(),
            wall: wall as f64,
            phases,
        });
    }
    Ok(stats)
}

fn load_stats(path: &str) -> Result<Vec<SuiteStat>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    suite_stats(&doc, path)
}

/// Phases shorter than this in the baseline are skipped in the
/// per-phase ratio report: dividing tens-of-microsecond totals yields
/// noise, not signal.
const PHASE_FLOOR_NS: u64 = 100_000;

/// Render `base` vs `cur` per-phase ns ratios (normalized by the
/// machine-speed factor) for one suite, or `None` when no phase
/// clears the noise floor on both sides.
fn phase_ratio_line(base: &SuiteStat, cur: &SuiteStat, machine: f64) -> Option<String> {
    let cells: Vec<String> = base
        .phases
        .iter()
        .filter(|&&(_, ns)| ns >= PHASE_FLOOR_NS)
        .filter_map(|&(label, base_ns)| {
            let cur_ns = cur
                .phases
                .iter()
                .find(|&&(l, _)| l == label)
                .map(|&(_, ns)| ns)?;
            if cur_ns == 0 {
                return None;
            }
            let ratio = cur_ns as f64 / base_ns as f64 / machine;
            Some(format!("{label} {ratio:.2}x"))
        })
        .collect();
    if cells.is_empty() {
        None
    } else {
        Some(format!("     phases vs median: {}", cells.join("  ")))
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    let n = xs.len();
    match n {
        0 => 1.0,
        _ if n % 2 == 1 => xs[n / 2],
        _ => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn cmd_compare(args: &ArgMap) -> ExitCode {
    let (Some(baseline), Some(current)) = (args.get("baseline"), args.get("current")) else {
        return usage_error("compare needs --baseline and --current");
    };
    let (warn, fail) = match (args.num("warn", 0.10f64), args.num("fail", 0.30f64)) {
        (Ok(w), Ok(f)) => (w, f),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };

    let base = match load_stats(baseline) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cur = match load_stats(current) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let mut ratios: Vec<(&SuiteStat, &SuiteStat, f64)> = Vec::new();
    let mut failed = false;
    for b in &base {
        match cur.iter().find(|c| c.name == b.name) {
            Some(c) => ratios.push((b, c, c.wall / b.wall)),
            None => {
                println!("FAIL {}: missing from current run", b.name);
                failed = true;
            }
        }
    }
    let machine = median(ratios.iter().map(|&(_, _, r)| r).collect());
    println!("machine-speed factor (median wall ratio): {machine:.3}");
    for &(b, c, ratio) in &ratios {
        let deviation = ratio / machine - 1.0;
        // Only a relative *slowdown* is a regression worth failing on;
        // a large divergence in either direction (including a speedup,
        // which means the committed baseline is stale) warns.
        let status = if deviation > fail {
            failed = true;
            "FAIL"
        } else if deviation.abs() > warn {
            "WARN"
        } else {
            "  ok"
        };
        println!(
            "{status} {name}: wall ratio {ratio:.3}, {deviation:+.1}% vs fleet median",
            name = b.name,
            deviation = deviation * 100.0
        );
        // Phase-level breakdown rides along so a decide-vs-execute
        // shift is visible even when the wall total hides it.
        if let Some(line) = phase_ratio_line(b, c, machine) {
            println!("{line}");
        }
    }
    if failed {
        eprintln!("perf gate failed (deviation beyond {:.0}%)", fail * 100.0);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const TRACE_SCHEMA: &str = "krad-bench-trace";
const TRACE_WORKLOAD: PinnedWorkload = PinnedWorkload::ManyJobs;

/// Step the tracing-overhead workload one quantum at a time and return
/// the exact per-quantum wall latencies in nanoseconds. Both sides
/// mirror a live kserve session's always-on telemetry (the flight
/// ring); `tracing` adds exactly what per-job lifecycle tracing adds
/// on top: a [`TraceAssembler`] sink on the same fanout, fed by both
/// the engine and the scheduler. The ratio therefore isolates the
/// tracing feature's marginal cost, not the cost of telemetry
/// emission itself.
fn quantum_latencies_ns(tracing: bool) -> Vec<u64> {
    let (jobs, res) = TRACE_WORKLOAD.build();
    let k = res.k();
    // The owning sink (flight ring) goes last so read-only sinks
    // ahead of it are fed by reference and never force a clone.
    let mut sinks: Vec<SharedSink> = Vec::new();
    if tracing {
        sinks.push(Arc::new(Mutex::new(TraceAssembler::new())));
    }
    sinks.push(Arc::new(Mutex::new(FlightRecorder::new(4096))));
    let tel = TelemetryHandle::new(FanoutSink::new(sinks));
    let cfg = SimConfig::default()
        .with_policy(SelectionPolicy::Fifo)
        .with_quantum(TRACE_WORKLOAD.quantum())
        .with_time_policy(TimePolicy::UnitStep)
        .with_telemetry(tel.clone());
    let mut live = LiveSimulation::new(res, cfg).expect("pinned workloads match their machines");
    let mut sched = KRad::with_instrumentation(k, tel, SpanRecorder::off());
    live.reserve(jobs.len());
    for job in jobs {
        live.inject(job).expect("pinned jobs inject cleanly");
    }
    let mut latencies = Vec::with_capacity(4096);
    while live.has_work() {
        let started = Instant::now();
        live.advance(&mut sched);
        latencies.push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    latencies
}

/// Exact p99 over raw samples (nearest-rank; 0 when empty).
fn p99_ns(mut xs: Vec<u64>) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[(xs.len() * 99).div_ceil(100).saturating_sub(1)]
}

#[allow(clippy::too_many_arguments)]
fn render_trace_json(
    quanta: usize,
    iters: u32,
    p99_off: &[u64],
    p99_on: &[u64],
    med_off: f64,
    med_on: f64,
    ratio: f64,
    bound: f64,
) -> String {
    document(vec![
        ("schema", Value::from(TRACE_SCHEMA)),
        ("version", Value::from(VERSION)),
        ("workload", Value::from(TRACE_WORKLOAD.name())),
        ("time_policy", Value::from("unit")),
        ("quanta", Value::from(quanta)),
        ("iters", Value::from(iters)),
        ("p99_quantum_ns_tracing_off", Value::from(p99_off)),
        ("p99_quantum_ns_tracing_on", Value::from(p99_on)),
        (
            "median_p99_ns_tracing_off",
            Value::from(med_off.round() as u64),
        ),
        (
            "median_p99_ns_tracing_on",
            Value::from(med_on.round() as u64),
        ),
        ("p99_ratio", rounded(ratio, 4)),
        ("bound", rounded(bound, 2)),
    ])
}

fn cmd_trace(args: &ArgMap) -> ExitCode {
    let (iters, bound) = match (iters(args, 15), bound(args, 1.10)) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let out_path = args.get_or("out", "BENCH_8_trace.json");

    // Unmeasured warm-up pairs (allocator, caches, frequency
    // scaling), then interleaved off/on pairs so ambient machine
    // drift hits both sides of the ratio equally. The median across
    // pairs shrugs off iterations an OS hiccup inflated — a single
    // p99-of-quanta sample on a shared runner is far too volatile to
    // gate on alone.
    for _ in 0..3 {
        quantum_latencies_ns(false);
        quantum_latencies_ns(true);
    }
    // Each iteration records the best of two back-to-back runs per
    // side (the suite's best-of methodology, applied to p99): a
    // preemption can only inflate a run, so the min of two is a far
    // steadier estimate of the undisturbed p99 than either alone.
    let mut quanta = 0;
    let mut p99_off = Vec::with_capacity(iters as usize);
    let mut p99_on = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let off = quantum_latencies_ns(false);
        quanta = off.len();
        let off2 = quantum_latencies_ns(false);
        p99_off.push(p99_ns(off).min(p99_ns(off2)));
        let on = p99_ns(quantum_latencies_ns(true));
        let on2 = p99_ns(quantum_latencies_ns(true));
        p99_on.push(on.min(on2));
    }
    let med_off = median(p99_off.iter().map(|&ns| ns as f64).collect());
    let med_on = median(p99_on.iter().map(|&ns| ns as f64).collect());
    if med_off <= 0.0 {
        eprintln!("degenerate measurement: zero tracing-off p99");
        return ExitCode::FAILURE;
    }
    let ratio = med_on / med_off;

    println!(
        "tracing overhead ({} quanta x {iters} iters): p99 {:.1} us off, {:.1} us on, ratio {ratio:.3} (bound {bound:.2})",
        quanta,
        med_off / 1e3,
        med_on / 1e3,
    );
    let json = render_trace_json(
        quanta, iters, &p99_off, &p99_on, med_off, med_on, ratio, bound,
    );
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if ratio > bound {
        eprintln!("tracing-overhead gate failed: p99 ratio {ratio:.3} exceeds bound {bound:.2}");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const SWARM_SCHEMA: &str = "krad-bench-swarm";
const SWARM_SESSIONS: usize = 16;
const SWARM_JOBS_PER_SESSION: usize = 48;
const SWARM_CHUNK: usize = 8;

/// Serve one fleet of `sessions` tenants against a fresh in-process
/// kswarm daemon and return each tenant's p99 quantum latency (µs) as
/// its own stats report it after the tenant's workload has fully
/// completed. Every tenant runs the same pinned job mix on its own
/// engine, so the only thing that varies with `sessions` is runtime
/// contention: shard scheduling, the shared reactor, and the metrics
/// registry. That is exactly the multi-tenant tax the gate bounds.
fn swarm_p99_us(sessions: usize) -> Vec<f64> {
    use kserve::protocol::SessionSpec;
    use kserve::server::{Server, ServerConfig};
    use kserve::Client;

    let cfg = ServerConfig {
        machine: vec![6, 3],
        scheduler: kbaselines::SchedulerKind::KRad,
        policy: SelectionPolicy::Fifo,
        quantum: 2,
        seed: 42,
        queue_capacity: 4096,
        max_inflight: 65_536,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).expect("swarm bench server starts");
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..sessions)
        .map(|s| {
            let addr = addr.clone();
            std::thread::spawn(move || -> f64 {
                let mut client = Client::connect(&addr).expect("bench tenant connects");
                let name = format!("perf-{s}");
                let spec = SessionSpec {
                    seed: Some(1_000 + s as u64),
                    ..SessionSpec::default()
                };
                client.open(&name, spec).expect("bench tenant opens");
                let mut rng = kworkloads::rng_for(9_000 + s as u64, 0x5EA7);
                for _ in 0..(SWARM_JOBS_PER_SESSION / SWARM_CHUNK) {
                    let dags: Vec<kdag::DagSpec> = kworkloads::mixes::batched_mix(
                        &mut rng,
                        &kworkloads::mixes::MixConfig::new(2, SWARM_CHUNK, 12),
                    )
                    .iter()
                    .map(|j| kdag::DagSpec::from_dag(&j.dag))
                    .collect();
                    let (ack, _) = client
                        .submit_watch_to(&name, dags)
                        .expect("bench submit completes");
                    assert!(
                        matches!(ack, kserve::protocol::Response::Submitted { .. }),
                        "bench tenant must not be rejected, got {ack:?}"
                    );
                }
                client
                    .stats_reply_of(&name)
                    .expect("bench tenant stats run")
                    .quantum_latency_p99_us
            })
        })
        .collect();
    let p99s: Vec<f64> = handles
        .into_iter()
        .map(|h| h.join().expect("bench tenant thread"))
        .collect();

    let mut control = Client::connect(&addr).expect("bench control connects");
    control.drain().expect("bench drain runs");
    drop(control);
    server.join();
    p99s
}

#[allow(clippy::too_many_arguments)]
fn render_swarm_json(
    iters: u32,
    single: &[f64],
    multi: &[f64],
    med_single: f64,
    med_multi: f64,
    ratio: f64,
    bound: f64,
) -> String {
    let arr = |xs: &[f64]| Value::Arr(xs.iter().map(|&x| rounded(x, 1)).collect());
    document(vec![
        ("schema", Value::from(SWARM_SCHEMA)),
        ("version", Value::from(VERSION)),
        ("sessions", Value::from(SWARM_SESSIONS)),
        ("jobs_per_session", Value::from(SWARM_JOBS_PER_SESSION)),
        ("iters", Value::from(iters)),
        ("p99_quantum_us_single_session", arr(single)),
        ("p99_quantum_us_multi_session", arr(multi)),
        ("median_p99_us_single_session", rounded(med_single, 1)),
        ("median_p99_us_multi_session", rounded(med_multi, 1)),
        ("p99_ratio", rounded(ratio, 4)),
        ("bound", rounded(bound, 2)),
    ])
}

fn cmd_swarm(args: &ArgMap) -> ExitCode {
    let (iters, bound) = match (iters(args, 5), bound(args, 1.25)) {
        (Ok(n), Ok(b)) => (n, b),
        (Err(e), _) | (_, Err(e)) => return usage_error(&e),
    };
    let out_path = args.get_or("out", "BENCH_9_swarm.json");

    // Same methodology as the tracing gate: an unmeasured warm-up
    // pair, then interleaved single/multi pairs with best-of-two per
    // side, gated on the median across iterations. Each side's sample
    // is the *median across that fleet's sessions* of the per-session
    // p99, so one tenant landing on a noisy core doesn't swing the
    // whole iteration.
    swarm_p99_us(1);
    swarm_p99_us(SWARM_SESSIONS);
    let mut single = Vec::with_capacity(iters as usize);
    let mut multi = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let s = median(swarm_p99_us(1)).min(median(swarm_p99_us(1)));
        let m = median(swarm_p99_us(SWARM_SESSIONS)).min(median(swarm_p99_us(SWARM_SESSIONS)));
        single.push(s);
        multi.push(m);
    }
    let med_single = median(single.clone());
    let med_multi = median(multi.clone());
    if med_single <= 0.0 {
        eprintln!("degenerate measurement: zero single-session p99");
        return ExitCode::FAILURE;
    }
    let ratio = med_multi / med_single;

    println!(
        "swarm overhead ({SWARM_SESSIONS} sessions x {SWARM_JOBS_PER_SESSION} jobs, {iters} iters): p99 {med_single:.1} us single, {med_multi:.1} us multi, ratio {ratio:.3} (bound {bound:.2})"
    );
    let json = render_swarm_json(iters, &single, &multi, med_single, med_multi, ratio, bound);
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if ratio > bound {
        eprintln!("swarm-overhead gate failed: p99 ratio {ratio:.3} exceeds bound {bound:.2}");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--iters N`: a positive integer.
fn iters(args: &ArgMap, default: u32) -> Result<u32, String> {
    match args.num("iters", default) {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("--iters needs a positive integer".to_string()),
    }
}

/// `--bound F`: a positive factor.
fn bound(args: &ArgMap, default: f64) -> Result<f64, String> {
    match args.num("bound", default) {
        Ok(f) if f > 0.0 => Ok(f),
        _ => Err("--bound needs a positive factor".to_string()),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}\n\n{USAGE}");
    ExitCode::FAILURE
}

/// A subcommand: the options and flags it accepts, and its body.
type Command = (Spec, fn(&ArgMap) -> ExitCode);

const COMMANDS: [Command; 4] = [
    (Spec::new("run", &["iters", "out"], &["smoke"]), cmd_run),
    (
        Spec::new("compare", &["baseline", "current", "warn", "fail"], &[]),
        cmd_compare,
    ),
    (
        Spec::new("trace", &["iters", "bound", "out"], &[]),
        cmd_trace,
    ),
    (
        Spec::new("swarm", &["iters", "bound", "out"], &[]),
        cmd_swarm,
    ),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return usage_error("kperf needs a subcommand");
    };
    let Some((spec, run)) = COMMANDS.iter().find(|(spec, _)| spec.name == cmd) else {
        return usage_error(&format!("unknown subcommand '{cmd}'"));
    };
    match ArgMap::parse(rest, spec) {
        Ok(args) => run(&args),
        Err(e) => usage_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_nearest_rank() {
        assert_eq!(p99_ns(vec![]), 0);
        assert_eq!(p99_ns(vec![7]), 7);
        // 100 samples: p99 is the 99th in rank order.
        let xs: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(p99_ns(xs), 99);
        // 1000 samples: rank 990.
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(p99_ns(xs), 990);
    }

    #[test]
    fn phase_ratios_skip_noise_floor_and_normalize() {
        let base = SuiteStat {
            name: "s".into(),
            wall: 1e6,
            phases: vec![("decide", 400_000), ("rr_cycle", 2_000)],
        };
        let cur = SuiteStat {
            name: "s".into(),
            wall: 2e6,
            phases: vec![("decide", 1_200_000), ("rr_cycle", 9_000)],
        };
        // Machine factor 2.0: decide tripled raw, so 1.50x normalized;
        // rr_cycle sits under the floor and is not reported.
        let line = phase_ratio_line(&base, &cur, 2.0).unwrap();
        assert!(line.contains("decide 1.50x"), "{line}");
        assert!(!line.contains("rr_cycle"), "{line}");
        // No phase above the floor: no line at all.
        let sparse = SuiteStat {
            name: "s".into(),
            wall: 1e6,
            phases: vec![("ready", 10_000)],
        };
        assert!(phase_ratio_line(&sparse, &cur, 1.0).is_none());
    }

    #[test]
    fn suite_stats_reject_foreign_files_and_read_phases() {
        let doc = json::parse(
            r#"{"schema": "krad-bench", "version": 1, "suites": [
                {"name": "a", "wall_ns": 10,
                 "phases_ns": {"decide": 5, "execute": 3}}]}"#,
        )
        .unwrap();
        let stats = suite_stats(&doc, "x").unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].wall, 10.0);
        assert_eq!(stats[0].phases, vec![("decide", 5), ("execute", 3)]);

        let bad = json::parse(r#"{"schema": "other", "version": 1}"#).unwrap();
        assert!(suite_stats(&bad, "x").is_err());
    }

    #[test]
    fn tracing_overhead_measurement_is_well_formed() {
        // One real (tiny) measurement pass: both configurations step
        // the same pinned workload, so they must see the same quantum
        // count, and every latency is nonzero on any real clock.
        let off = quantum_latencies_ns(false);
        let on = quantum_latencies_ns(true);
        assert_eq!(off.len(), on.len());
        assert!(p99_ns(off) > 0);
        assert!(p99_ns(on) > 0);
    }

    #[test]
    fn swarm_measurement_is_well_formed() {
        // A real (tiny) fleet: two tenants against an in-process
        // daemon, each reporting a nonzero p99 after its jobs settle.
        let p99s = swarm_p99_us(2);
        assert_eq!(p99s.len(), 2);
        assert!(p99s.iter().all(|&x| x > 0.0), "{p99s:?}");
    }

    #[test]
    fn swarm_json_is_stable_and_parseable() {
        let json = render_swarm_json(3, &[10.0, 12.0], &[11.0, 13.5], 11.0, 12.2, 1.1091, 1.25);
        let doc = json::parse(&json).unwrap();
        assert_eq!(doc["schema"].as_str(), Some(SWARM_SCHEMA));
        assert_eq!(doc["sessions"].as_u64(), Some(SWARM_SESSIONS as u64));
        assert_eq!(doc["p99_quantum_us_multi_session"][1].as_f64(), Some(13.5));
        assert_eq!(doc["bound"].as_f64(), Some(1.25));
    }

    #[test]
    fn trace_json_is_stable_and_parseable() {
        let json = render_trace_json(1208, 5, &[10, 20], &[11, 21], 15.0, 16.0, 1.0667, 1.10);
        let doc = json::parse(&json).unwrap();
        assert_eq!(doc["schema"].as_str(), Some(TRACE_SCHEMA));
        assert_eq!(doc["workload"].as_str(), Some("many-jobs"));
        assert_eq!(doc["quanta"].as_u64(), Some(1208));
        assert_eq!(doc["p99_quantum_ns_tracing_on"][1].as_u64(), Some(21));
    }
}
