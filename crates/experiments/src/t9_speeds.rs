//! T9 — extension: functional **and** performance heterogeneity.
//!
//! The paper's conclusion poses the open challenge of handling machines
//! that are heterogeneous both functionally (categories) and in
//! performance (processor speeds). For *unit-time tasks with integer
//! speeds*, a speed-`s` processor is exactly `s` unit-speed virtual
//! processors (independent ready tasks only; chains still advance one
//! task per step), so K-RAD applies unchanged on the virtual machine
//! and every bound holds with `Pα → sα·Pα`.
//!
//! This experiment validates that claim: machines with few-fast vs
//! many-slow processors of equal aggregate throughput are swept, and
//! K-RAD's makespan and Lemma 2 are checked against the *effective*
//! bounds on each.

use crate::runner::{self, par_map};
use crate::RunOpts;
use kanalysis::bounds::{lemma2_rhs, makespan_bounds};
use kanalysis::report::ExperimentReport;
use kanalysis::table::{f3, Table};
use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{Resources, SimConfig};
use ktelemetry::json::Value;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

#[derive(Clone, Debug)]
struct Machine {
    label: &'static str,
    p: Vec<u32>,
    s: Vec<u32>,
}

struct Row {
    machine: Machine,
    seed: u64,
    makespan: u64,
    ratio: f64,
    bound: f64,
    lemma2_ok: bool,
}

fn measure(machine: &Machine, seed: u64, master: u64) -> Row {
    let res = Resources::with_speeds(&machine.p, &machine.s);
    let k = res.k();
    let mut rng = rng_for(master ^ seed, 0x79);
    let jobs = batched_mix(&mut rng, &MixConfig::new(k, 24, 32));
    let sim_cfg = SimConfig::default()
        .with_policy(SelectionPolicy::CriticalLast)
        .with_seed(seed);
    let outcome = runner::run(SchedulerKind::KRad, &jobs, &res, &sim_cfg);
    let lb = makespan_bounds(&jobs, &res).lower_bound();
    let rhs = lemma2_rhs(&jobs, &res);
    Row {
        machine: machine.clone(),
        seed,
        makespan: outcome.makespan,
        ratio: outcome.makespan as f64 / lb,
        bound: krad::makespan_bound(k, res.p_max()),
        lemma2_ok: (outcome.makespan as f64) <= rhs + 1e-9,
    }
}

/// Run T9.
pub fn run(opts: &RunOpts) -> ExperimentReport {
    let machines = [
        Machine {
            label: "baseline (all speed 1)",
            p: vec![8, 8],
            s: vec![1, 1],
        },
        Machine {
            label: "few-fast CPUs",
            p: vec![2, 8],
            s: vec![4, 1],
        },
        Machine {
            label: "fast accelerators",
            p: vec![8, 2],
            s: vec![1, 4],
        },
        Machine {
            label: "3-way mixed speeds",
            p: vec![8, 4, 1],
            s: vec![1, 2, 8],
        },
    ];
    let seeds: u64 = if opts.quick { 2 } else { 5 };
    let work: Vec<(Machine, u64)> = machines
        .iter()
        .flat_map(|m| (0..seeds).map(move |s| (m.clone(), s)))
        .collect();

    let rows = par_map(&work, |_, (m, s)| measure(m, *s, opts.seed));

    let mut table = Table::new(
        "T9 — extension: performance heterogeneity via virtual processors (Pα → sα·Pα)",
        &[
            "machine",
            "P",
            "speeds",
            "seed",
            "T",
            "T/LB",
            "eff. bound",
            "Lemma2",
        ],
    );
    let mut passed = true;
    let mut worst: f64 = 0.0;
    for r in &rows {
        worst = worst.max(r.ratio / r.bound);
        let ok = r.ratio <= r.bound + 1e-9 && r.lemma2_ok;
        passed &= ok;
        table.row_owned(vec![
            r.machine.label.to_string(),
            format!("{:?}", r.machine.p),
            format!("{:?}", r.machine.s),
            r.seed.to_string(),
            r.makespan.to_string(),
            f3(r.ratio),
            f3(r.bound),
            if r.lemma2_ok { "holds" } else { "VIOLATED" }.to_string(),
        ]);
    }
    let conclusions = if passed {
        vec![format!(
            "the virtual-processor reduction works: K-RAD keeps its guarantees on speed-heterogeneous machines (worst ratio at {:.1}% of the effective bound; Lemma 2 exact everywhere)",
            100.0 * worst
        )]
    } else {
        vec!["VIOLATION under speed heterogeneity — see table".into()]
    };

    ExperimentReport {
        id: "T9".into(),
        title: "Extension: functional + performance heterogeneity (paper's concluding challenge)"
            .into(),
        paper_claim: "\"one interesting challenge is to develop scheduling models and algorithms that capture both functional and performance heterogeneity\" (§8) — solved here for unit tasks with integer speeds via Pα → sα·Pα".into(),
        params: Value::map([("machines", Value::from(machines.iter().map(|m| m.label).collect::<Vec<_>>())), ("seeds", Value::from(seeds)), ("seed", Value::from(opts.seed))]),
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
    fn t9_quick_passes() {
        let r = run(&RunOpts::quick(31));
        assert!(r.passed, "{}", r.table.render());
    }
}
