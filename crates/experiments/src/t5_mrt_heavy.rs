//! T5 — Theorem 6: mean response time under heavy workload.
//!
//! Batched sets with many more jobs than processors, so K-RAD exercises
//! the round-robin cycles. Theorem 6 guarantees
//! `R(J)/R*(J) ≤ 4K + 1 − 4K/(n+1)`; we measure against the §6 lower
//! bound `LB = max(T∞(J), maxα swa(J, α)) ≤ R*(J)`, which makes the
//! measured ratio an upper bound on the true competitive ratio.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::response_bounds;
use kanalysis::report::ExperimentReport;
use kanalysis::stats::Summary;
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
    p: u32,
    n: usize,
    seeds: u64,
}

fn measure(cfg: &Config, seed: u64, master: u64) -> f64 {
    let mix = MixConfig::new(cfg.k, cfg.n, 24);
    let mut rng = rng_for(master ^ seed, 0x75);
    let jobs = batched_mix(&mut rng, &mix);
    let res = Resources::uniform(cfg.k, cfg.p);
    let sim_cfg = SimConfig::default()
        .with_policy(SelectionPolicy::CriticalLast)
        .with_seed(seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    outcome.total_response() as f64 / response_bounds(&jobs, &res).lower_bound()
}

/// Run T5.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let (ks, ps, ns, seeds): (&[usize], &[u32], &[usize], u64) = if opts.quick {
        (&[1, 2], &[2], &[16], 2)
    } else {
        (&[1, 2, 3], &[2, 4], &[16, 48, 96], 5)
    };
    let mut configs = Vec::new();
    for &k in ks {
        for &p in ps {
            for &n in ns {
                configs.push(Config { k, p, n, seeds });
            }
        }
    }

    let results = par_map(&configs, |_, cfg| {
        let ratios: Vec<f64> = (0..cfg.seeds).map(|s| measure(cfg, s, opts.seed)).collect();
        Summary::of(&ratios)
    });

    let mut table = Table::new(
        "T5 — Theorem 6: mean response time under heavy workload (ratio = R / LB)",
        &[
            "K",
            "P",
            "jobs",
            "seeds",
            "mean",
            "max",
            "bound",
            "% of bound",
        ],
    );
    let mut passed = true;
    let mut conclusions = Vec::new();
    let mut worst: f64 = 0.0;
    for (cfg, s) in configs.iter().zip(&results) {
        let bound = krad::mrt_bound_heavy(cfg.k, cfg.n);
        worst = worst.max(s.max / bound);
        if s.max > bound + 1e-9 {
            passed = false;
            conclusions.push(format!(
                "VIOLATION: K={} P={} n={}: max ratio {:.3} > bound {:.3}",
                cfg.k, cfg.p, cfg.n, s.max, bound
            ));
        }
        table.row_owned(vec![
            cfg.k.to_string(),
            cfg.p.to_string(),
            cfg.n.to_string(),
            cfg.seeds.to_string(),
            f3(s.mean),
            f3(s.max),
            f3(bound),
            format!("{:.1}%", 100.0 * s.max / bound),
        ]);
    }
    if passed {
        conclusions.insert(
            0,
            format!(
                "Theorem 6 holds on every configuration (worst case uses {:.1}% of the 4K+1−4K/(n+1) budget)",
                100.0 * worst
            ),
        );
    }
    table.note("heavy load: n >> Pα drives K-RAD's marked round-robin cycles");
    table.note("LB = max(T∞(J), maxα swa(J,α)) ≤ R*(J): measured ratios upper-bound the true competitive ratio");

    ExperimentReport {
        id: "T5".into(),
        title: "Theorem 6: (4K+1−4K/(n+1))-competitive mean response, heavy load".into(),
        paper_claim: "K-RAD is (4K+1−4K/(|J|+1))-competitive w.r.t. mean response time for any batched job set".into(),
        params: Value::map([("K", Value::from(ks)), ("P", Value::from(ps)), ("jobs", Value::from(ns)), ("seeds", Value::from(seeds)), ("seed", Value::from(opts.seed))]),
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
    fn t5_quick_passes() {
        let r = run(&RunOpts::quick(13));
        assert!(r.passed, "{}", r.table.render());
    }
}
