//! Reproducibility: identical seeds produce identical traces, outcomes,
//! and schedules — the foundation of the experiment tables.

use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{simulate, Resources, SimConfig, SimOutcome};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

fn run_once(kind: SchedulerKind, policy: SelectionPolicy, seed: u64) -> SimOutcome {
    let mut rng = rng_for(seed, 0xD0);
    let jobs = batched_mix(&mut rng, &MixConfig::new(2, 10, 24));
    let res = Resources::new(vec![3, 2]);
    let mut cfg = SimConfig::default().with_policy(policy);
    cfg.seed = seed;
    cfg.record_trace = true;
    let mut sched = kind.build(2, SchedulerKind::DEFAULT_SEED, &cfg);
    simulate(sched.as_mut(), &jobs, &res, &cfg)
}

#[test]
fn identical_seeds_identical_outcomes() {
    for kind in SchedulerKind::ALL {
        for policy in [SelectionPolicy::Fifo, SelectionPolicy::Random] {
            let a = run_once(kind, policy, 99);
            let b = run_once(kind, policy, 99);
            assert_eq!(a.makespan, b.makespan, "{kind}/{policy}");
            assert_eq!(a.completions, b.completions, "{kind}/{policy}");
            assert_eq!(a.trace, b.trace, "{kind}/{policy}: traces must match");
        }
    }
}

#[test]
fn different_seeds_change_random_policy_only() {
    // With the Random policy the seed matters...
    let a = run_once(SchedulerKind::KRad, SelectionPolicy::Random, 1);
    let b = run_once(SchedulerKind::KRad, SelectionPolicy::Random, 2);
    // (workload differs too because rng_for(seed) seeds the mix) — so
    // just check both complete consistently.
    assert!(a.makespan > 0 && b.makespan > 0);

    // ...but with deterministic policies and the SAME workload seed,
    // the engine seed is irrelevant.
    let jobs = {
        let mut rng = rng_for(7, 0xD1);
        batched_mix(&mut rng, &MixConfig::new(2, 8, 20))
    };
    let res = Resources::uniform(2, 3);
    let outcome = |engine_seed: u64| {
        let mut cfg = SimConfig::default().with_policy(SelectionPolicy::Fifo);
        cfg.seed = engine_seed;
        let mut s = SchedulerKind::KRad.build(2, SchedulerKind::DEFAULT_SEED, &cfg);
        simulate(s.as_mut(), &jobs, &res, &cfg)
    };
    let x = outcome(10);
    let y = outcome(20);
    assert_eq!(x.makespan, y.makespan);
    assert_eq!(x.completions, y.completions);
}

#[test]
fn experiment_reports_are_reproducible() {
    use kexperiments::{registry, RunOpts};
    let opts = RunOpts::quick(123);
    for id in ["T1", "T5", "T8"] {
        let e = registry::find(id).unwrap();
        let a = (e.run)(&opts);
        let b = (registry::find(id).unwrap().run)(&opts);
        assert_eq!(a.table.rows, b.table.rows, "{id}: rows must be identical");
        assert_eq!(a.passed, b.passed);
    }
}
