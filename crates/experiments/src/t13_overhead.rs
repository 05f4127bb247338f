//! T13 — scheduler decision overhead (the "systems" table).
//!
//! The theory counts steps; an adopter also cares what a step *costs*.
//! This experiment measures wall-clock per simulated step for every
//! scheduler as the job count grows — the per-decision overhead of
//! K-RAD's queue scans and DEQ sorts versus the simpler baselines.
//! (`kperf` measures the engine's phases with best-of-N rigor; this
//! table is the quick, human-readable summary and intentionally makes
//! only order-of-magnitude claims.)

use crate::runner;
use crate::RunOpts;
use kanalysis::report::ExperimentReport;
use kanalysis::table::Table;
use kbaselines::SchedulerKind;
use kdag::generators::{phased, PhaseSpec};
use kdag::Category;
use ksim::{JobSpec, Resources, SimConfig};
use ktelemetry::json::Value;
use std::time::Instant;

struct Row {
    kind: SchedulerKind,
    jobs: usize,
    busy_steps: u64,
    micros_per_step: f64,
}

fn workload(n: usize) -> (Vec<JobSpec>, Resources) {
    // n narrow jobs on a small machine: maximal queue pressure, long
    // runs, stable step counts across schedulers.
    let jobs = (0..n)
        .map(|_| JobSpec::batched(phased(1, &[PhaseSpec::new(Category(0), 2, 10)])))
        .collect();
    (jobs, Resources::uniform(1, 8))
}

/// Run T13.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let sizes: &[usize] = if opts.quick {
        &[64, 256]
    } else {
        &[64, 256, 1024]
    };
    let sim_cfg = SimConfig::default().with_seed(opts.seed);
    let mut rows = Vec::new();
    for &n in sizes {
        let (jobs, res) = workload(n);
        for kind in SchedulerKind::ALL {
            let started = Instant::now();
            let o = runner::run(kind, &jobs, &res, &sim_cfg);
            let elapsed = started.elapsed();
            rows.push(Row {
                kind,
                jobs: n,
                busy_steps: o.busy_steps,
                micros_per_step: elapsed.as_secs_f64() * 1e6 / o.busy_steps as f64,
            });
        }
    }

    let mut table = Table::new(
        "T13 — per-step scheduling overhead (wall clock, informational)",
        &["scheduler", "jobs", "steps", "µs/step"],
    );
    for r in &rows {
        table.row_owned(vec![
            r.kind.label().to_string(),
            r.jobs.to_string(),
            r.busy_steps.to_string(),
            format!("{:.1}", r.micros_per_step),
        ]);
    }
    table.note(
        "wall-clock timings vary by machine; see perfbench/ for the end-to-end benchmark and `kperf run` for per-phase engine timings",
    );

    // Structural checks only (timing itself is machine-dependent):
    // every run completed with the expected step count shape, and no
    // scheduler is catastrophically slow (> 50 ms per step would mean
    // an accidental O(n³) blowup).
    let mut passed = true;
    let mut conclusions = Vec::new();
    for r in &rows {
        if r.micros_per_step > 50_000.0 {
            passed = false;
            conclusions.push(format!(
                "BLOWUP: {} at n={} costs {:.0} µs/step",
                r.kind.label(),
                r.jobs,
                r.micros_per_step
            ));
        }
    }
    if passed {
        let krad_big = rows
            .iter()
            .filter(|r| r.kind == SchedulerKind::KRad)
            .max_by_key(|r| r.jobs)
            .expect("rows");
        conclusions.push(format!(
            "K-RAD's decision cost stays micro-scale even at n={} ({:.1} µs/step) — the queue scan + DEQ sort are far from being a bottleneck",
            krad_big.jobs, krad_big.micros_per_step
        ));
    }

    ExperimentReport {
        id: "T13".into(),
        title: "Scheduler decision overhead vs job count".into(),
        paper_claim: "(systems context) K-RAD's per-step work is a queue scan plus an O(n log n) DEQ — cheap enough to run every unit step".into(),
        params: Value::map([("sizes", Value::from(sizes)), ("seed", Value::from(opts.seed))]),
        table,
        conclusions,
        passed,
        extra_files: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t13_quick_passes() {
        let r = run(&RunOpts::quick(47));
        assert!(r.passed, "{}", r.table.render());
        // All schedulers × 2 sizes.
        assert_eq!(r.table.rows.len(), SchedulerKind::ALL.len() * 2);
    }
}
