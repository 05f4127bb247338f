//! T3 — Lemma 2: the structural makespan bound, verified directly.
//!
//! For schedules without idle intervals (guaranteed here by batching),
//! Lemma 2 bounds K-RAD's makespan by
//! `Σα T1(J,α)/Pα + (1 − 1/Pmax) · max_Ji (T∞(Ji) + r(Ji))`.
//! Unlike the competitive ratio, this inequality involves no hidden
//! optimum — both sides are computed exactly, so it is the sharpest
//! possible check of the makespan analysis.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::lemma2_rhs;
use kanalysis::report::ExperimentReport;
use kanalysis::table::{f3, Table};
use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{Resources, SimConfig};
use ktelemetry::json::Value;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

#[derive(Clone, Debug)]
struct Config {
    k: usize,
    p: Vec<u32>,
    jobs: usize,
    policy: SelectionPolicy,
    seed: u64,
}

struct Row {
    cfg: Config,
    makespan: u64,
    rhs: f64,
    idle: u64,
}

fn measure(cfg: &Config, master: u64) -> Row {
    let mix = MixConfig::new(cfg.k, cfg.jobs, 36);
    let mut rng = rng_for(master ^ cfg.seed, 0x73);
    let jobs = batched_mix(&mut rng, &mix);
    let res = Resources::new(cfg.p.clone());
    let sim_cfg = SimConfig::default()
        .with_policy(cfg.policy)
        .with_seed(cfg.seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    Row {
        cfg: cfg.clone(),
        makespan: outcome.makespan,
        rhs: lemma2_rhs(&jobs, &res),
        idle: outcome.idle_steps,
    }
}

/// Run T3.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let mut configs = Vec::new();
    let seeds: u64 = if opts.quick { 2 } else { 6 };
    let machines: Vec<Vec<u32>> = if opts.quick {
        vec![vec![4], vec![4, 2]]
    } else {
        vec![
            vec![4],
            vec![8],
            vec![4, 2],
            vec![8, 8, 2],
            vec![2, 4, 8, 16],
        ]
    };
    let policies = [
        SelectionPolicy::Fifo,
        SelectionPolicy::CriticalLast,
        SelectionPolicy::Random,
    ];
    for p in &machines {
        for &policy in &policies {
            for seed in 0..seeds {
                configs.push(Config {
                    k: p.len(),
                    p: p.clone(),
                    jobs: if opts.quick { 16 } else { 40 },
                    policy,
                    seed,
                });
            }
        }
    }

    let rows = par_map(&configs, |_, cfg| measure(cfg, opts.seed));

    let mut table = Table::new(
        "T3 — Lemma 2: T(J) ≤ Σα T1(α)/Pα + (1−1/Pmax)·max(T∞+r)",
        &[
            "machine",
            "policy",
            "seed",
            "T",
            "Lemma-2 RHS",
            "T/RHS",
            "ok",
        ],
    );
    let mut passed = true;
    let mut worst: f64 = 0.0;
    for r in &rows {
        assert_eq!(r.idle, 0, "batched sets cannot have idle intervals");
        let frac = r.makespan as f64 / r.rhs;
        worst = worst.max(frac);
        let ok = (r.makespan as f64) <= r.rhs + 1e-9;
        passed &= ok;
        table.row_owned(vec![
            format!("{:?}", r.cfg.p),
            r.cfg.policy.to_string(),
            r.cfg.seed.to_string(),
            r.makespan.to_string(),
            f3(r.rhs),
            f3(frac),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let conclusions = if passed {
        vec![format!(
            "Lemma 2 holds exactly on all {} runs (tightest: T = {:.1}% of RHS)",
            rows.len(),
            100.0 * worst
        )]
    } else {
        vec!["VIOLATION of Lemma 2 — see table".into()]
    };

    ExperimentReport {
        id: "T3".into(),
        title: "Lemma 2: structural makespan bound (no idle intervals)".into(),
        paper_claim:
            "With no idle intervals, K-RAD completes J within Σα T1(J,α)/Pα + (1−1/Pmax)·max(T∞+r)"
                .into(),
        params: Value::map([
            ("machines", Value::from(machines)),
            ("seeds", Value::from(seeds)),
            ("seed", Value::from(opts.seed)),
        ]),
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
    fn t3_quick_passes() {
        let r = run(&RunOpts::quick(5));
        assert!(r.passed, "{}", r.table.render());
    }
}
