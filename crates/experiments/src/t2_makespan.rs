//! T2 — Theorem 3: K-RAD's makespan competitiveness.
//!
//! Random mixed workloads with batched and Poisson releases; the
//! measured ratio is `T / LB` where `LB = max(max r+T∞, max_α T1/Pα)`
//! is the §4 lower bound on the optimum. Theorem 3's proof bounds
//! K-RAD against exactly this `LB` combination, so the measured ratio
//! must stay below `K + 1 − 1/Pmax` — even under the adversarial
//! critical-path-last environment, which we use to stress the bound.

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
use kworkloads::arrivals::poisson_releases;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

#[derive(Clone, Debug)]
struct Config {
    k: usize,
    p: u32,
    jobs: usize,
    arrivals: &'static str,
    seeds: Vec<u64>,
}

/// Returns (T/LB, T/T_cp): the conservative ratio against the §4 lower
/// bound and the bracketing ratio against the clairvoyant reference.
fn measure(cfg: &Config, seed: u64, master: u64) -> (f64, f64) {
    let mix = MixConfig::new(cfg.k, cfg.jobs, 40);
    let mut rng = rng_for(master ^ seed, 0x72);
    let mut jobs = batched_mix(&mut rng, &mix);
    if cfg.arrivals == "poisson" {
        poisson_releases(&mut jobs, &mut rng, 0.2);
    }
    let res = Resources::uniform(cfg.k, cfg.p);
    let sim_cfg = SimConfig::default()
        .with_policy(SelectionPolicy::CriticalLast)
        .with_seed(seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    let lb = makespan_bounds(&jobs, &res).lower_bound();
    let t_cp = kanalysis::offline::clairvoyant_cp(&jobs, &res).makespan;
    (
        outcome.makespan as f64 / lb,
        outcome.makespan as f64 / t_cp as f64,
    )
}

/// Run T2.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let (ks, ps, ns, seeds): (&[usize], &[u32], &[usize], usize) = if opts.quick {
        (&[1, 2], &[4], &[20], 2)
    } else {
        (&[1, 2, 4], &[4, 16], &[20, 80], 5)
    };
    let mut configs = Vec::new();
    for &k in ks {
        for &p in ps {
            for &n in ns {
                for arrivals in ["batched", "poisson"] {
                    configs.push(Config {
                        k,
                        p,
                        jobs: n,
                        arrivals,
                        seeds: (0..seeds as u64).collect(),
                    });
                }
            }
        }
    }

    let results = par_map(&configs, |_, cfg| {
        let pairs: Vec<(f64, f64)> = cfg
            .seeds
            .iter()
            .map(|&s| measure(cfg, s, opts.seed))
            .collect();
        let lb_ratios: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let cp_ratios: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        (Summary::of(&lb_ratios), Summary::of(&cp_ratios))
    });

    let mut table = Table::new(
        "T2 — Theorem 3: makespan competitiveness of K-RAD (ratio = T / LB)",
        &[
            "K",
            "P",
            "jobs",
            "arrivals",
            "seeds",
            "mean",
            "max",
            "max T/T_cp",
            "bound",
            "slack",
        ],
    );
    let mut passed = true;
    let mut conclusions = Vec::new();
    let mut worst_frac: f64 = 0.0;
    for (cfg, (s, s_cp)) in configs.iter().zip(&results) {
        let bound = krad::makespan_bound(cfg.k, cfg.p);
        worst_frac = worst_frac.max(s.max / bound);
        if s.max > bound + 1e-9 {
            passed = false;
            conclusions.push(format!(
                "VIOLATION: K={} P={} n={} {}: max ratio {:.3} > bound {:.3}",
                cfg.k, cfg.p, cfg.jobs, cfg.arrivals, s.max, bound
            ));
        }
        // Bracket sanity: T/T_cp ≤ T/LB (T_cp ≥ LB always).
        if s_cp.max > s.max + 1e-9 {
            passed = false;
            conclusions.push(format!(
                "BRACKET INVERTED: K={} P={} n={} {}: T/T_cp {:.3} > T/LB {:.3}",
                cfg.k, cfg.p, cfg.jobs, cfg.arrivals, s_cp.max, s.max
            ));
        }
        table.row_owned(vec![
            cfg.k.to_string(),
            cfg.p.to_string(),
            cfg.jobs.to_string(),
            cfg.arrivals.to_string(),
            cfg.seeds.len().to_string(),
            f3(s.mean),
            f3(s.max),
            f3(s_cp.max),
            f3(bound),
            f3(bound - s.max),
        ]);
    }
    if passed {
        conclusions.insert(
            0,
            format!(
                "Theorem 3 holds on every configuration: max measured ratio is {:.1}% of the (K+1−1/Pmax) bound",
                100.0 * worst_frac
            ),
        );
    }
    table.note(
        "LB = max(max_i r_i+T∞_i, max_α T1(α)/Pα) — a lower bound on the clairvoyant optimum",
    );
    table.note("T_cp: feasible clairvoyant critical-path schedule, so LB ≤ T* ≤ T_cp brackets the true ratio in [T/T_cp, T/LB]");
    table.note("environment: critical-path-last (adversarial) selection");

    ExperimentReport {
        id: "T2".into(),
        title: "Theorem 3: (K+1−1/Pmax)-competitive makespan, arbitrary releases".into(),
        paper_claim: "K-RAD is (K+1−1/Pmax)-competitive w.r.t. makespan for any job set with arbitrary release times".into(),
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
    fn t2_quick_passes() {
        let r = run(&RunOpts::quick(3));
        assert!(r.passed, "{}\n{:?}", r.table.render(), r.conclusions);
    }
}
