//! T10 — environment sensitivity: the selection-policy sweep.
//!
//! K-RAD's guarantees are *environment-independent*: the bounds of
//! Theorems 3/5/6 hold no matter which ready tasks run when a job is
//! deprived. This experiment sweeps all five selection policies (from
//! the helpful clairvoyant critical-path-first to the Theorem 1
//! adversary critical-path-last) over the same workloads and verifies:
//!
//! * the makespan bound holds under every policy;
//! * the ordering is as the theory predicts — the friendly policy is
//!   never worse than the adversarial one.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::makespan_bounds;
use kanalysis::report::ExperimentReport;
use kanalysis::stats::Summary;
use kanalysis::table::{f3, Table};
use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{Resources, SimConfig};
use ktelemetry::json::Value;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

fn measure(policy: SelectionPolicy, seed: u64, master: u64, k: usize, p: u32) -> (f64, f64) {
    let mut rng = rng_for(master ^ seed, 0x7A);
    let jobs = batched_mix(&mut rng, &MixConfig::new(k, 24, 32));
    let res = Resources::uniform(k, p);
    let sim_cfg = SimConfig::default().with_policy(policy).with_seed(seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    let lb = makespan_bounds(&jobs, &res).lower_bound();
    (
        outcome.makespan as f64 / lb,
        outcome.total_response() as f64 / jobs.len() as f64,
    )
}

/// Run T10.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let (k, p) = (2usize, 4u32);
    let seeds: u64 = if opts.quick { 3 } else { 10 };
    let work: Vec<SelectionPolicy> = SelectionPolicy::ALL.to_vec();

    let results = par_map(&work, |_, &policy| {
        let pairs: Vec<(f64, f64)> = (0..seeds)
            .map(|s| measure(policy, s, opts.seed, k, p))
            .collect();
        let ratios: Vec<f64> = pairs.iter().map(|x| x.0).collect();
        let mrts: Vec<f64> = pairs.iter().map(|x| x.1).collect();
        (Summary::of(&ratios), Summary::of(&mrts))
    });

    let bound = krad::makespan_bound(k, p);
    let mut table = Table::new(
        "T10 — selection-policy (environment) sensitivity of K-RAD",
        &["policy", "mean T/LB", "max T/LB", "bound", "mean MRT"],
    );
    let mut passed = true;
    let mut by_policy = std::collections::HashMap::new();
    for (policy, (s, m)) in work.iter().zip(&results) {
        by_policy.insert(*policy, s.mean);
        if s.max > bound + 1e-9 {
            passed = false;
        }
        table.row_owned(vec![
            policy.to_string(),
            f3(s.mean),
            f3(s.max),
            f3(bound),
            f3(m.mean),
        ]);
    }
    let mut conclusions = Vec::new();
    let friendly = by_policy[&SelectionPolicy::CriticalFirst];
    let adversarial = by_policy[&SelectionPolicy::CriticalLast];
    if friendly > adversarial + 1e-9 {
        passed = false;
        conclusions.push(format!(
            "SHAPE: critical-first mean ratio {friendly:.3} worse than critical-last {adversarial:.3}"
        ));
    }
    if passed {
        conclusions.push(format!(
            "the bound is environment-independent: every policy stays below {bound:.3}; friendly selection ({friendly:.3}) ≤ adversarial ({adversarial:.3}) as the Theorem 1 argument predicts"
        ));
    }
    table.note("same workloads and scheduler across rows; only the environment's choice of which ready tasks run differs");

    ExperimentReport {
        id: "T10".into(),
        title: "Selection-policy sensitivity: bounds hold against any environment".into(),
        paper_claim: "Non-clairvoyant guarantees quantify over the environment: the adversary controls which ready tasks execute, and the bounds still hold".into(),
        params: Value::map([("k", Value::from(k)), ("p", Value::from(p)), ("seeds", Value::from(seeds)), ("seed", Value::from(opts.seed))]),
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
    fn t10_quick_passes() {
        let r = run(&RunOpts::quick(37));
        assert!(r.passed, "{}\n{:?}", r.table.render(), r.conclusions);
    }
}
