//! The `krad` subcommand implementations.
//!
//! Each command is a pure `ArgMap -> Result<String, String>` function;
//! the binary just prints the result (stdout) or the error (stderr).

use crate::args::ArgMap;
use kanalysis::bounds::{makespan_bounds, response_bounds};
use kanalysis::gantt::gantt;
use kanalysis::offline::clairvoyant_cp;
use kanalysis::table::{f3, Table};
use kanalysis::telemetry_report::TelemetrySummary;
use kanalysis::timeline::{render_timeline, utilization_timeline};
use kbaselines::SchedulerKind;
use kdag::{DagStats, SelectionPolicy};
use ksim::{
    simulate, DesireModel, JobSpec, LiveSimulation, Resources, SimConfig, SimOutcome, TimePolicy,
};
use ktelemetry::json::Value;
use ktelemetry::{FanoutSink, JsonlSink, RecordingSink, SharedSink, SpanRecorder, TelemetryHandle};
use kworkloads::arrivals::poisson_releases;
use kworkloads::heavy_tail::{bursty_releases, heavy_tail_mix, BurstyConfig};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::persist::{load_jobset, save_jobset};
use kworkloads::{adversarial::adversarial_workload, rng_for, scenarios};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

pub(crate) fn parse_scheduler(name: &str) -> Result<SchedulerKind, String> {
    SchedulerKind::from_label(name).ok_or_else(|| format!("unknown scheduler '{name}'"))
}

pub(crate) fn parse_policy(name: &str) -> Result<SelectionPolicy, String> {
    SelectionPolicy::from_name(name).ok_or_else(|| format!("unknown policy '{name}'"))
}

pub(crate) fn parse_time_policy(args: &ArgMap) -> Result<TimePolicy, String> {
    let label = args.get_or("time-policy", "event");
    TimePolicy::from_label(label)
        .ok_or_else(|| format!("unknown --time-policy '{label}' (expected unit or event)"))
}

fn load(args: &ArgMap) -> Result<(String, Vec<JobSpec>), String> {
    let path = args.one_positional()?;
    load_jobset(Path::new(path)).map_err(|e| e.to_string())
}

/// Load the job set named by the positional argument onto the
/// `--machine`, refusing whatever [`ksim::check`] refuses under `cfg`.
fn load_on_machine(
    args: &ArgMap,
    cfg: &SimConfig,
) -> Result<(String, Vec<JobSpec>, Resources), String> {
    let (label, jobs) = load(args)?;
    let res = Resources::new(args.machine()?);
    ksim::check(&jobs, &res, cfg).map_err(|e| e.to_string())?;
    Ok((label, jobs, res))
}

/// `krad generate` — produce a workload JSON.
pub fn generate(args: &ArgMap) -> Result<String, String> {
    let kind = args.get_or("kind", "mix");
    let k: usize = args.num("k", 2)?;
    let n: usize = args.num("jobs", 20)?;
    let seed: u64 = args.num("seed", 42)?;
    let mean: usize = args.num("mean-size", 40)?;
    let out_path = args.require("out")?;

    let mut rng = rng_for(seed, 0xC11);
    let mut jobs = match kind {
        "mix" => batched_mix(&mut rng, &MixConfig::new(k, n, mean)),
        "pipeline" => scenarios::pipeline(&mut rng, n).jobs,
        "mapreduce" => scenarios::mapreduce(&mut rng, n).jobs,
        "server" => scenarios::mixed_server(&mut rng, n, 0.25).jobs,
        "heavy-tail" => heavy_tail_mix(&mut rng, k, n, 1.2, mean / 4, mean * 8),
        "swf" => {
            // A real archive trace via --trace, or the synthetic one.
            let text = match args.get("trace") {
                Some(path) => std::fs::read_to_string(path).map_err(|e| e.to_string())?,
                None => kworkloads::swf::synthetic_swf(n),
            };
            let records = kworkloads::swf::parse_swf(&text).map_err(|e| e.to_string())?;
            let shape = kworkloads::swf::SwfShape {
                k,
                ..kworkloads::swf::SwfShape::default()
            };
            kworkloads::swf::jobs_from_swf(&records, &shape)
        }
        other => return Err(format!("unknown --kind '{other}'")),
    };

    match args.get_or("arrivals", "batch") {
        "batch" => {}
        "bursty" => bursty_releases(&mut jobs, &mut rng, &BurstyConfig::default()),
        spec => {
            if let Some(rate) = spec.strip_prefix("poisson:") {
                let rate: f64 = rate.parse().map_err(|_| format!("bad rate: {rate}"))?;
                poisson_releases(&mut jobs, &mut rng, rate);
            } else {
                return Err(format!("unknown --arrivals '{spec}'"));
            }
        }
    }

    save_jobset(Path::new(out_path), kind, &jobs).map_err(|e| e.to_string())?;
    let tasks: u64 = jobs.iter().map(|j| j.dag.total_work()).sum();
    Ok(format!(
        "wrote {out_path}: {} jobs, {tasks} tasks, K={}, horizon {}",
        jobs.len(),
        jobs.first().map(|j| j.dag.k()).unwrap_or(k),
        jobs.iter().map(|j| j.release).max().unwrap_or(0),
    ))
}

/// `krad inspect` — per-job structural statistics.
pub fn inspect(args: &ArgMap) -> Result<String, String> {
    let (label, jobs) = load(args)?;
    let mut out = String::new();
    writeln!(out, "workload '{label}': {} jobs", jobs.len()).unwrap();
    let mut table = Table::new(
        "jobs",
        &[
            "job",
            "release",
            "tasks",
            "span",
            "avg par",
            "work by category",
        ],
    );
    for (i, j) in jobs.iter().enumerate() {
        let s = DagStats::of(&j.dag);
        table.row_owned(vec![
            format!("job {i}"),
            j.release.to_string(),
            s.tasks.to_string(),
            s.span.to_string(),
            format!("{:.2}", s.avg_parallelism),
            format!("{:?}", s.work_by_category),
        ]);
    }
    out.push_str(&table.render());
    let total: u64 = jobs.iter().map(|j| j.dag.total_work()).sum();
    let agg_span: u64 = jobs.iter().map(|j| j.dag.span()).sum();
    writeln!(out, "total tasks {total}, aggregate span {agg_span}").unwrap();
    Ok(out)
}

/// `krad bounds` — the paper's lower bounds for a workload/machine.
pub fn bounds(args: &ArgMap) -> Result<String, String> {
    let (label, jobs, res) = load_on_machine(args, &SimConfig::default())?;
    let mb = makespan_bounds(&jobs, &res);
    let mut out = String::new();
    writeln!(out, "workload '{label}' on machine {:?}", res.as_slice()).unwrap();
    writeln!(
        out,
        "makespan lower bound:      {:.2}  (release+span {:.2}, work/P {:.2})",
        mb.lower_bound(),
        mb.release_plus_span,
        mb.work_over_p
    )
    .unwrap();
    let t_cp = clairvoyant_cp(&jobs, &res).makespan;
    writeln!(out, "clairvoyant CP schedule:   {t_cp}  (T* is in between)").unwrap();
    writeln!(
        out,
        "K-RAD makespan guarantee:  ≤ {:.3} × T*   (Theorem 3)",
        krad::makespan_bound(res.k(), res.p_max())
    )
    .unwrap();
    if jobs.iter().all(|j| j.release == 0) {
        let rb = response_bounds(&jobs, &res);
        writeln!(
            out,
            "total response lower bound: {:.2}  (aggregate span {:.2}, max swa {:.2})",
            rb.lower_bound(),
            rb.aggregate_span,
            rb.max_swa
        )
        .unwrap();
        writeln!(
            out,
            "K-RAD mean-response bound:  ≤ {:.3} × optimal (batched, Theorem 6)",
            krad::mrt_bound_heavy(res.k(), jobs.len())
        )
        .unwrap();
    }
    Ok(out)
}

/// `krad simulate --json`'s document: every [`SimOutcome`] field in
/// declaration order, `null` for an unrecorded trace or schedule.
fn outcome_json(o: &SimOutcome) -> Value {
    let trace = o.trace.as_ref().map(|steps| {
        let steps = steps.iter().map(|st| {
            Value::obj([
                ("t", Value::from(st.t)),
                ("active_jobs", Value::from(st.active_jobs)),
                ("allotted", Value::from(st.allotted.clone())),
                ("executed", Value::from(st.executed.clone())),
            ])
        });
        Value::Arr(steps.collect())
    });
    let schedule = o.schedule.as_ref().map(|sched| {
        let records = sched.records.iter().map(|r| {
            Value::obj([
                ("job", Value::from(r.job.0)),
                ("task", Value::from(r.task.0)),
                ("t", Value::from(r.t)),
                ("category", Value::from(r.category.0)),
                ("processor", Value::from(r.processor)),
            ])
        });
        Value::obj([("records", Value::Arr(records.collect()))])
    });
    Value::obj([
        ("scheduler", Value::from(o.scheduler.as_str())),
        ("makespan", Value::from(o.makespan)),
        ("releases", Value::from(o.releases.clone())),
        ("completions", Value::from(o.completions.clone())),
        (
            "executed_by_category",
            Value::from(o.executed_by_category.clone()),
        ),
        (
            "allotted_by_category",
            Value::from(o.allotted_by_category.clone()),
        ),
        ("busy_steps", Value::from(o.busy_steps)),
        ("idle_steps", Value::from(o.idle_steps)),
        ("preemptions", Value::from(o.preemptions)),
        ("trace", Value::from(trace)),
        ("schedule", Value::from(schedule)),
    ])
}

/// `krad simulate` — run a scheduler on a workload.
pub fn simulate_cmd(args: &ArgMap) -> Result<String, String> {
    let kind = parse_scheduler(args.get_or("scheduler", "k-rad"))?;
    let policy = parse_policy(args.get_or("policy", "fifo"))?;
    let seed: u64 = args.num("seed", 0)?;

    let mut cfg = SimConfig::default()
        .with_policy(policy)
        .with_seed(seed)
        .with_quantum(args.num("quantum", 1u64)?)
        .with_time_policy(parse_time_policy(args)?)
        .with_schedule(args.flag("gantt") || args.get("svg").is_some())
        .with_trace(args.flag("timeline"));
    if let Some(delta) = args.get("feedback") {
        let delta: f64 = delta
            .parse()
            .map_err(|_| format!("bad --feedback: {delta}"))?;
        cfg = cfg.with_desire_model(DesireModel::AGreedy { delta });
    }
    let (label, jobs, res) = load_on_machine(args, &cfg)?;

    // Telemetry: a JSONL file (--telemetry), an in-memory recording
    // for the end-of-run summary (--telemetry-summary), or both
    // fanned out from one handle.
    let jsonl = match args.get("telemetry") {
        Some(path) => Some(Arc::new(Mutex::new(
            JsonlSink::create(Path::new(path)).map_err(|e| format!("cannot create {path}: {e}"))?,
        ))),
        None => None,
    };
    let recording = args
        .flag("telemetry-summary")
        .then(|| Arc::new(Mutex::new(RecordingSink::new())));
    let mut sinks: Vec<SharedSink> = Vec::new();
    if let Some(rec) = &recording {
        sinks.push(rec.clone() as SharedSink);
    }
    if let Some(j) = &jsonl {
        sinks.push(j.clone() as SharedSink);
    }
    let tel = match sinks.len() {
        0 => TelemetryHandle::off(),
        1 => TelemetryHandle::from_shared(sinks.remove(0)),
        _ => TelemetryHandle::new(FanoutSink::new(sinks)),
    };
    cfg = cfg.with_telemetry(tel.clone());

    let mut sched = kind.build(res.k(), seed, &cfg);
    let o = simulate(sched.as_mut(), &jobs, &res, &cfg);
    tel.flush();
    let lb = makespan_bounds(&jobs, &res).lower_bound();

    let mut out = String::new();
    writeln!(
        out,
        "'{label}' × {} on {:?} (policy {policy}, quantum {}, {} desires)",
        o.scheduler,
        res.as_slice(),
        cfg.quantum,
        match cfg.desire_model {
            DesireModel::Exact => "exact".to_string(),
            DesireModel::AGreedy { delta } => format!("a-greedy δ={delta}"),
        }
    )
    .unwrap();
    writeln!(
        out,
        "makespan:       {}  (T/LB = {})",
        o.makespan,
        f3(o.makespan as f64 / lb)
    )
    .unwrap();
    writeln!(
        out,
        "responses:      mean {}  max {}",
        f3(o.mean_response()),
        o.max_response()
    )
    .unwrap();
    writeln!(
        out,
        "steps:          busy {}  idle {}  preemption volume {}",
        o.busy_steps, o.idle_steps, o.preemptions
    )
    .unwrap();
    for cat in kdag::Category::all(res.k()) {
        writeln!(
            out,
            "{cat} utilization: {:.0}%",
            100.0 * o.utilization(cat, &res)
        )
        .unwrap();
    }
    if let Some(schedule) = &o.schedule {
        if args.flag("gantt") {
            out.push('\n');
            out.push_str(&gantt(schedule, &res, 120));
        }
        if let Some(path) = args.get("svg") {
            std::fs::write(path, kanalysis::svg::gantt_svg(schedule, &res))
                .map_err(|e| e.to_string())?;
            writeln!(out, "\nwrote SVG Gantt chart to {path}").unwrap();
        }
    }
    if let Some(trace) = &o.trace {
        out.push('\n');
        out.push_str(&render_timeline(&utilization_timeline(trace, &res, 60)));
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, outcome_json(&o).to_pretty()).map_err(|e| e.to_string())?;
        writeln!(out, "wrote outcome JSON to {path}").unwrap();
    }
    if let (Some(j), Some(path)) = (&jsonl, args.get("telemetry")) {
        let n = j.lock().map(|g| g.events_written()).unwrap_or(0);
        writeln!(out, "wrote {n} telemetry events to {path}").unwrap();
    }
    if let Some(rec) = &recording {
        let events = rec.lock().map(|mut g| g.take()).unwrap_or_default();
        out.push('\n');
        out.push_str(&TelemetrySummary::from_events(&events).render(&res));
    }
    Ok(out)
}

/// `krad compare` — run every scheduler on a workload and print the
/// standard comparison table.
pub fn compare(args: &ArgMap) -> Result<String, String> {
    let (label, jobs, res) = load_on_machine(args, &SimConfig::default())?;
    let policy = parse_policy(args.get_or("policy", "fifo"))?;
    let rows = kexperiments::runner::compare_schedulers(&jobs, &res, policy, args.num("seed", 0)?);
    let mut table = kexperiments::runner::comparison_table(
        &format!("'{label}' on {:?}", res.as_slice()),
        &rows,
    );
    table.note(&format!("{} jobs, selection policy {policy}", jobs.len()));
    Ok(table.render())
}

/// `krad verify` — run K-RAD on a workload and check every applicable
/// guarantee of the paper against the outcome.
pub fn verify(args: &ArgMap) -> Result<String, String> {
    let policy = parse_policy(args.get_or("policy", "critical-last"))?;
    let cfg = SimConfig::default()
        .with_policy(policy)
        .with_seed(args.num("seed", 0)?);
    let (label, jobs, res) = load_on_machine(args, &cfg)?;
    let mut sched = krad::KRad::new(res.k());
    let o = simulate(&mut sched, &jobs, &res, &cfg);

    let batched = jobs.iter().all(|j| j.release == 0);
    let checks = if batched {
        kanalysis::verify::check_batched(&o, &jobs, &res)
    } else {
        vec![kanalysis::verify::check_theorem3(&o, &jobs, &res)]
    };

    let mut out = String::new();
    writeln!(
        out,
        "verifying K-RAD on '{label}' ({} jobs, machine {:?}, policy {policy}):",
        jobs.len(),
        res.as_slice()
    )
    .unwrap();
    let mut all_hold = true;
    for c in &checks {
        writeln!(out, "  {c}  [{:.1}% of bound]", 100.0 * c.tightness()).unwrap();
        all_hold &= c.holds;
    }
    writeln!(
        out,
        "{}",
        if all_hold {
            "all applicable guarantees hold"
        } else {
            "GUARANTEE VIOLATION — this would be a bug in K-RAD or the model"
        }
    )
    .unwrap();
    if !batched {
        writeln!(
            out,
            "(response-time checks skipped: the §6 bounds require a batched job set)"
        )
        .unwrap();
    }
    Ok(out)
}

fn pinned_workload(args: &ArgMap) -> Result<kworkloads::suite::PinnedWorkload, String> {
    let kind = args.get_or("kind", "t12");
    kworkloads::suite::PinnedWorkload::from_name(kind).ok_or_else(|| {
        format!(
            "unknown --kind '{kind}' (expected t12-stress, large-dag, many-jobs, swf-slice, or trace-sparse)"
        )
    })
}

/// `krad profile` — run a pinned suite workload under K-RAD with the
/// phase profiler on and print the per-phase breakdown of the engine
/// hot path.
pub fn profile(args: &ArgMap) -> Result<String, String> {
    let workload = pinned_workload(args)?;
    let (jobs, res) = workload.build();
    let quantum: u64 = args.num("quantum", workload.quantum())?;
    let spans = SpanRecorder::profiler();
    let mut sched =
        krad::KRad::with_instrumentation(res.k(), TelemetryHandle::off(), spans.clone());
    // Drive the live session directly so the harness wall covers only
    // the stepping loop — session setup (state allocation, job
    // injection) stays outside both the clock and the phase totals,
    // which is what lets the phases account for ~all of the wall.
    let cfg = SimConfig::default()
        .with_policy(SelectionPolicy::Fifo)
        .with_quantum(quantum)
        .with_time_policy(parse_time_policy(args)?)
        .with_spans(spans.clone());
    let mut live = LiveSimulation::new(res.clone(), cfg).map_err(|e| e.to_string())?;
    live.reserve(jobs.len());
    for spec in jobs.iter().cloned() {
        live.inject(spec).map_err(|e| e.to_string())?;
    }
    let started = std::time::Instant::now();
    while live.has_work() {
        live.advance(&mut sched);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let o = live.into_outcome("k-rad");
    let stats = spans.profile().expect("profiler recorder is enabled");

    let mut out = String::new();
    writeln!(
        out,
        "{} — {} jobs on {:?}, quantum {quantum}: makespan {}, busy steps {}",
        workload.name(),
        jobs.len(),
        res.as_slice(),
        o.makespan,
        o.busy_steps
    )
    .unwrap();
    out.push_str(&kanalysis::profile::render_phase_profile(
        &format!("profile: {}", workload.name()),
        &stats,
        Some(wall_ns),
    ));
    Ok(out)
}

/// `krad timeline` — run a pinned suite workload and export the
/// schedule as a Chrome trace-event JSON file (load it in
/// `chrome://tracing` or Perfetto).
pub fn timeline(args: &ArgMap) -> Result<String, String> {
    let workload = pinned_workload(args)?;
    let out_path = args.require("out")?;
    let (jobs, res) = workload.build();
    let kind = parse_scheduler(args.get_or("scheduler", "k-rad"))?;
    let seed: u64 = args.num("seed", 0)?;

    let rec = Arc::new(Mutex::new(RecordingSink::new()));
    let tel = TelemetryHandle::from_shared(rec.clone() as SharedSink);
    let cfg = SimConfig::default()
        .with_policy(SelectionPolicy::Fifo)
        .with_quantum(args.num("quantum", workload.quantum())?)
        .with_time_policy(parse_time_policy(args)?)
        .with_trace(true)
        .with_telemetry(tel.clone());
    ksim::check(&jobs, &res, &cfg).map_err(|e| e.to_string())?;
    let mut sched = kind.build(res.k(), seed, &cfg);
    let o = simulate(sched.as_mut(), &jobs, &res, &cfg);
    tel.flush();
    let events = rec.lock().map(|mut g| g.take()).unwrap_or_default();

    let trace = kanalysis::chrome_trace::chrome_trace(&o, &events);
    std::fs::write(out_path, &trace).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    Ok(format!(
        "wrote Chrome trace for {} × {} ({} jobs, {} busy steps, {} telemetry events) to {out_path}\n\
         open it at chrome://tracing or https://ui.perfetto.dev",
        workload.name(),
        o.scheduler,
        jobs.len(),
        o.busy_steps,
        events.len()
    ))
}

/// `krad adversarial` — the Figure 3 instance, optionally simulated.
pub fn adversarial(args: &ArgMap) -> Result<String, String> {
    let k: usize = args.num("k", 2)?;
    let p: u32 = args.num("p", 4)?;
    let m: u64 = args.num("m", 8)?;
    let w = adversarial_workload(&vec![p; k], m);
    let mut out = String::new();
    writeln!(
        out,
        "Figure 3 instance: K={k}, P={p}, m={m} — {} jobs, T* = {}, bound {}",
        w.jobs.len(),
        w.optimal_makespan,
        f3(w.bound)
    )
    .unwrap();
    if args.flag("run") {
        let mut sched = krad::KRad::new(k);
        let cfg = SimConfig::default().with_policy(SelectionPolicy::CriticalLast);
        let o = simulate(&mut sched, &w.jobs, &w.resources, &cfg);
        let ratio = o.makespan as f64 / w.optimal_makespan as f64;
        writeln!(
            out,
            "K-RAD vs critical-path-last adversary: T = {}, ratio {} ({:.1}% of bound)",
            o.makespan,
            f3(ratio),
            100.0 * ratio / w.bound
        )
        .unwrap();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_for as parse;

    #[test]
    fn scheduler_and_policy_parsing() {
        assert_eq!(parse_scheduler("las").unwrap(), SchedulerKind::Las);
        assert!(parse_scheduler("nope").is_err());
        assert_eq!(
            parse_policy("critical-last").unwrap(),
            SelectionPolicy::CriticalLast
        );
        assert!(parse_policy("nope").is_err());
    }

    #[test]
    fn generate_rejects_unknown_kind() {
        let a = parse("generate", &["--kind", "nope", "--out", "/tmp/x.json"]);
        assert!(generate(&a).unwrap_err().contains("unknown --kind"));
    }

    #[test]
    fn machine_mismatch_is_reported() {
        let dir = std::env::temp_dir().join(format!("krad-cmd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        let a = parse(
            "generate",
            &[
                "--kind",
                "mix",
                "--k",
                "3",
                "--jobs",
                "3",
                "--out",
                file.to_str().unwrap(),
            ],
        );
        generate(&a).unwrap();
        let a = parse("bounds", &[file.to_str().unwrap(), "--machine", "4,4"]);
        assert!(bounds(&a).unwrap_err().contains("categories"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A job set whose job 0 has K=2 and job 1 has K=3.
    fn mixed_k_file(dir: &Path) -> String {
        use kdag::generators::chain;
        use kdag::Category;
        let jobs = [
            JobSpec::batched(chain(2, 3, &[Category(0), Category(1)])),
            JobSpec::batched(chain(3, 3, &[Category(0), Category(1), Category(2)])),
        ];
        let file = dir.join("mixed.json");
        save_jobset(&file, "mixed-k", &jobs).unwrap();
        file.to_str().unwrap().to_string()
    }

    #[test]
    fn mixed_k_job_sets_name_the_offending_job() {
        let dir = std::env::temp_dir().join(format!("krad-cmd5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = mixed_k_file(&dir);
        for cmd in ["bounds", "simulate", "compare", "verify"] {
            let argv: Vec<String> = [cmd, &file, "--machine", "2,2"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            assert_eq!(
                crate::run(&argv).unwrap_err(),
                "job 1: DAG has 3 categories but machine has 2",
                "{cmd}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_range_feedback_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("krad-cmd6-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        let file = file.to_str().unwrap();
        generate(&parse(
            "generate",
            &["--kind", "mix", "--k", "2", "--jobs", "3", "--out", file],
        ))
        .unwrap();
        for delta in ["1.5", "NaN", "-0.1"] {
            let err = simulate_cmd(&parse(
                "simulate",
                &[file, "--machine", "2,2", "--feedback", delta],
            ))
            .unwrap_err();
            assert!(
                err.starts_with("A-Greedy delta must be in [0, 1]"),
                "{delta}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_quantum_is_an_error_in_every_engine_command() {
        let dir = std::env::temp_dir().join(format!("krad-cmd7-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        let file = file.to_str().unwrap();
        generate(&parse(
            "generate",
            &["--kind", "mix", "--k", "2", "--jobs", "3", "--out", file],
        ))
        .unwrap();
        let trace = dir.join("trace.json");
        let quantum = "quantum must be at least 1";
        let sim = simulate_cmd(&parse(
            "simulate",
            &[file, "--machine", "2,2", "--quantum", "0"],
        ));
        assert_eq!(sim.unwrap_err(), quantum);
        let tl = timeline(&parse(
            "timeline",
            &["--out", trace.to_str().unwrap(), "--quantum", "0"],
        ));
        assert_eq!(tl.unwrap_err(), quantum);
        assert!(!trace.exists(), "no trace is written for a refused run");
        assert_eq!(
            profile(&parse("profile", &["--quantum", "0"])).unwrap_err(),
            quantum
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_feedback_and_quantum() {
        let dir = std::env::temp_dir().join(format!("krad-cmd2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        generate(&parse(
            "generate",
            &[
                "--kind",
                "mix",
                "--k",
                "2",
                "--jobs",
                "5",
                "--out",
                file.to_str().unwrap(),
            ],
        ))
        .unwrap();
        let out = simulate_cmd(&parse(
            "simulate",
            &[
                file.to_str().unwrap(),
                "--machine",
                "3,2",
                "--quantum",
                "4",
                "--feedback",
                "0.8",
                "--json",
                dir.join("o.json").to_str().unwrap(),
            ],
        ))
        .unwrap();
        assert!(out.contains("quantum 4"));
        assert!(out.contains("a-greedy"));
        let text = std::fs::read_to_string(dir.join("o.json")).unwrap();
        assert!(text.starts_with("{\n  \"scheduler\": \""), "{text}");
        let doc = ktelemetry::json::parse(&text).unwrap();
        assert_eq!(doc["completions"].as_arr().map(<[_]>::len), Some(5));
        assert_eq!(doc["trace"], Value::Null);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_with_telemetry_writes_jsonl_and_renders_summary() {
        let dir = std::env::temp_dir().join(format!("krad-cmd3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("w.json");
        generate(&parse(
            "generate",
            &[
                "--kind",
                "mix",
                "--k",
                "2",
                "--jobs",
                "8",
                "--out",
                file.to_str().unwrap(),
            ],
        ))
        .unwrap();
        let events_path = dir.join("events.jsonl");
        let out = simulate_cmd(&parse(
            "simulate",
            &[
                file.to_str().unwrap(),
                "--machine",
                "2,2",
                "--telemetry",
                events_path.to_str().unwrap(),
                "--telemetry-summary",
            ],
        ))
        .unwrap();
        assert!(out.contains("telemetry events to"), "{out}");
        assert!(out.contains("telemetry summary"), "{out}");
        assert!(out.contains("deq->rr"), "{out}");

        // The JSONL stream re-parses into the same summary the
        // in-memory recording produced.
        let text = std::fs::read_to_string(&events_path).unwrap();
        let events = ktelemetry::json::parse_jsonl(&text).unwrap();
        let summary = TelemetrySummary::from_events(&events);
        assert!(
            out.contains(&format!("makespan {}", summary.makespan)),
            "{out}"
        );
        assert_eq!(summary.categories(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_prints_a_phase_breakdown() {
        let out = profile(&parse("profile", &["--kind", "t12"])).unwrap();
        assert!(out.contains("t12-stress"), "{out}");
        assert!(out.contains("ready"), "{out}");
        assert!(out.contains("decide"), "{out}");
        assert!(out.contains("execute"), "{out}");
        assert!(out.contains("accounted to phases"), "{out}");
        assert!(profile(&parse("profile", &["--kind", "nope"]))
            .unwrap_err()
            .contains("unknown --kind"));
    }

    #[test]
    fn timeline_writes_a_chrome_trace() {
        let dir = std::env::temp_dir().join(format!("krad-cmd4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let out = timeline(&parse(
            "timeline",
            &["--kind", "large-dag", "--out", trace_path.to_str().unwrap()],
        ))
        .unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let doc = ktelemetry::json::parse(&text).unwrap();
        assert!(!doc["traceEvents"].as_arr().unwrap().is_empty());
        assert!(text.contains("\"job 0\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adversarial_without_run_prints_metadata_only() {
        let out =
            adversarial(&parse("adversarial", &["--k", "3", "--p", "2", "--m", "2"])).unwrap();
        assert!(out.contains("T* ="));
        assert!(!out.contains("ratio"));
    }
}
