//! T4 — Theorem 5: mean response time under light workload.
//!
//! Light workload means `|J(α, t)| ≤ Pα` at all times — guaranteed here
//! by using `n ≤ minα Pα` batched jobs — so K-RAD only ever uses DEQ.
//! Two checks per run:
//!
//! 1. the *direct* Inequality (5) the proof establishes:
//!    `R(J) ≤ (2 − 2/(n+1)) · Σα swa(J, α) + T∞(J)`;
//! 2. the competitive form: `R(J) / LB ≤ 2K + 1 − 2K/(n+1)`, with
//!    `LB = max(T∞(J), maxα swa(J, α))` the §6 lower bound.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::{response_bounds, theorem5_rhs};
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
    n: usize,
    p: u32,
    policy: SelectionPolicy,
    seed: u64,
}

struct Row {
    cfg: Config,
    total_response: u64,
    rhs5: f64,
    ratio: f64,
    bound: f64,
}

fn measure(cfg: &Config, master: u64) -> Row {
    let mix = MixConfig::new(cfg.k, cfg.n, 30);
    let mut rng = rng_for(master ^ cfg.seed, 0x74);
    let jobs = batched_mix(&mut rng, &mix);
    let res = Resources::uniform(cfg.k, cfg.p);
    let sim_cfg = SimConfig::default()
        .with_policy(cfg.policy)
        .with_seed(cfg.seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    let rb = response_bounds(&jobs, &res);
    let total = outcome.total_response();
    Row {
        cfg: cfg.clone(),
        total_response: total,
        rhs5: theorem5_rhs(&jobs, &res),
        ratio: total as f64 / rb.lower_bound(),
        bound: krad::mrt_bound_light(cfg.k, cfg.n),
    }
}

/// Run T4.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let mut configs = Vec::new();
    let (ks, ns, seeds): (&[usize], &[usize], u64) = if opts.quick {
        (&[1, 2], &[3, 6], 2)
    } else {
        (&[1, 2, 3], &[2, 4, 8], 5)
    };
    for &k in ks {
        for &n in ns {
            // Light workload: every category has at least n processors.
            let p = (n as u32).max(4);
            for policy in [SelectionPolicy::Fifo, SelectionPolicy::CriticalLast] {
                for seed in 0..seeds {
                    configs.push(Config {
                        k,
                        n,
                        p,
                        policy,
                        seed,
                    });
                }
            }
        }
    }

    let rows = par_map(&configs, |_, cfg| measure(cfg, opts.seed));

    let mut table = Table::new(
        "T4 — Theorem 5: mean response time under light workload (DEQ only)",
        &[
            "K",
            "n",
            "P",
            "policy",
            "seed",
            "R(J)",
            "Ineq(5) RHS",
            "R/LB",
            "bound",
            "ok",
        ],
    );
    let mut passed = true;
    let mut worst_direct: f64 = 0.0;
    let mut worst_ratio_frac: f64 = 0.0;
    for r in &rows {
        let direct_ok = (r.total_response as f64) <= r.rhs5 + 1e-9;
        let ratio_ok = r.ratio <= r.bound + 1e-9;
        worst_direct = worst_direct.max(r.total_response as f64 / r.rhs5);
        worst_ratio_frac = worst_ratio_frac.max(r.ratio / r.bound);
        passed &= direct_ok && ratio_ok;
        table.row_owned(vec![
            r.cfg.k.to_string(),
            r.cfg.n.to_string(),
            r.cfg.p.to_string(),
            r.cfg.policy.to_string(),
            r.cfg.seed.to_string(),
            r.total_response.to_string(),
            f3(r.rhs5),
            f3(r.ratio),
            f3(r.bound),
            if direct_ok && ratio_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let conclusions = if passed {
        vec![
            format!(
                "Inequality (5) holds directly on all {} runs (tightest: R = {:.1}% of RHS)",
                rows.len(),
                100.0 * worst_direct
            ),
            format!(
                "competitive form holds: worst R/LB is {:.1}% of the (2K+1−2K/(n+1)) bound",
                100.0 * worst_ratio_frac
            ),
        ]
    } else {
        vec!["VIOLATION of Theorem 5 — see table".into()]
    };

    ExperimentReport {
        id: "T4".into(),
        title: "Theorem 5: (2K+1−2K/(n+1))-competitive mean response, light load".into(),
        paper_claim:
            "If |J(α,t)| ≤ Pα at all times, K-RAD satisfies R(J) ≤ (2−2/(n+1))Σα swa(J,α) + T∞(J)"
                .into(),
        params: Value::map([
            ("K", Value::from(ks)),
            ("n", Value::from(ns)),
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
    fn t4_quick_passes() {
        let r = run(&RunOpts::quick(11));
        assert!(r.passed, "{}", r.table.render());
    }
}
