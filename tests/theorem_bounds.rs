//! Integration property tests: the paper's theorems hold on randomized
//! workloads, end to end through workloads → simulator → analysis.

use kanalysis::bounds::{lemma2_rhs, makespan_bounds, response_bounds, theorem5_rhs};
use kbaselines::SchedulerKind;
use kdag::prop;
use kdag::SelectionPolicy;
use krad::KRad;
use ksim::{simulate, Resources, SimConfig};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

fn run_krad(
    jobs: &[ksim::JobSpec],
    res: &Resources,
    policy: SelectionPolicy,
    seed: u64,
) -> ksim::SimOutcome {
    let mut cfg = SimConfig::default().with_policy(policy);
    cfg.seed = seed;
    let mut s = KRad::new(res.k());
    simulate(&mut s, jobs, res, &cfg)
}

/// Lemma 2: for batched job sets (no idle intervals), K-RAD's
/// makespan never exceeds Σα T1(α)/Pα + (1−1/Pmax)·max T∞.
#[test]
fn lemma2_structural_bound() {
    prop::check(
        48,
        (0u64..5000, 1usize..4, 2usize..20, 1u32..9, 0usize..5),
        |&(seed, k, n, p, policy_idx)| {
            let policy = SelectionPolicy::ALL[policy_idx];
            let mut rng = rng_for(seed, 0xA0);
            let jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 24));
            let res = Resources::uniform(k, p);
            let o = run_krad(&jobs, &res, policy, seed);
            let rhs = lemma2_rhs(&jobs, &res);
            assert!(
                (o.makespan as f64) <= rhs + 1e-9,
                "Lemma 2 violated: T={} > RHS={rhs} (k={k} n={n} p={p} {policy})",
                o.makespan
            );
        },
    );
}

/// Theorem 3 (via the §4 lower bound): K-RAD's makespan ratio vs LB
/// never exceeds K + 1 − 1/Pmax, even for arbitrary releases.
#[test]
fn theorem3_makespan_competitive() {
    prop::check(
        48,
        (0u64..5000, 1usize..4, 2usize..16, 2u32..9, 1u64..10),
        |&(seed, k, n, p, lambda_tenths)| {
            let mut rng = rng_for(seed, 0xA1);
            let mut jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 24));
            kworkloads::arrivals::poisson_releases(
                &mut jobs,
                &mut rng,
                lambda_tenths as f64 / 10.0,
            );
            let res = Resources::uniform(k, p);
            let o = run_krad(&jobs, &res, SelectionPolicy::CriticalLast, seed);
            let lb = makespan_bounds(&jobs, &res).lower_bound();
            let bound = krad::makespan_bound(k, p);
            assert!(
                (o.makespan as f64) <= bound * lb + 1e-9,
                "Theorem 3 violated: T={} > {bound}×LB={lb}",
                o.makespan
            );
        },
    );
}

/// Theorem 5's direct Inequality (5) under light workload
/// (n ≤ minα Pα ⇒ DEQ-only operation).
#[test]
fn theorem5_light_load_inequality() {
    prop::check(
        48,
        (0u64..5000, 1usize..4, 1usize..7, 0usize..5),
        |&(seed, k, n, policy_idx)| {
            let policy = SelectionPolicy::ALL[policy_idx];
            let mut rng = rng_for(seed, 0xA2);
            let jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 20));
            let res = Resources::uniform(k, n as u32 + 1);
            let o = run_krad(&jobs, &res, policy, seed);
            let rhs = theorem5_rhs(&jobs, &res);
            assert!(
                (o.total_response() as f64) <= rhs + 1e-9,
                "Inequality (5) violated: R={} > RHS={rhs} (k={k} n={n} {policy})",
                o.total_response()
            );
        },
    );
}

/// Theorem 6 (via the §6 lower bound): heavy-load mean response
/// stays within 4K + 1 − 4K/(n+1).
#[test]
fn theorem6_heavy_load_competitive() {
    prop::check(
        48,
        (0u64..5000, 1usize..3, 8usize..32, 2u32..5),
        |&(seed, k, n, p)| {
            let mut rng = rng_for(seed, 0xA3);
            let jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 16));
            let res = Resources::uniform(k, p);
            let o = run_krad(&jobs, &res, SelectionPolicy::CriticalLast, seed);
            let lb = response_bounds(&jobs, &res).lower_bound();
            let bound = krad::mrt_bound_heavy(k, n);
            assert!(
                (o.total_response() as f64) <= bound * lb + 1e-9,
                "Theorem 6 violated: R={} > {bound}×LB={lb}",
                o.total_response()
            );
        },
    );
}

/// Every scheduler (not just K-RAD) must respect the absolute lower
/// bounds: makespan ≥ LB and completion ≥ release + 1.
#[test]
fn absolute_lower_bounds_for_all_schedulers() {
    prop::check(
        48,
        (0u64..2000, 1usize..3, 2usize..10, 1u32..6, 0usize..8),
        |&(seed, k, n, p, kind_idx)| {
            let kind = SchedulerKind::ALL[kind_idx];
            let mut rng = rng_for(seed, 0xA4);
            let jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 18));
            let res = Resources::uniform(k, p);
            let cfg = SimConfig::default();
            let mut sched = kind.build(k, SchedulerKind::DEFAULT_SEED, &cfg);
            let o = simulate(sched.as_mut(), &jobs, &res, &cfg);
            let lb = makespan_bounds(&jobs, &res).lower_bound();
            // Integer makespan vs real LB: ceil.
            assert!(
                o.makespan as f64 >= lb.ceil() - 1e-9,
                "{kind}: makespan {} below LB {lb}",
                o.makespan
            );
            for i in 0..o.job_count() {
                assert!(o.completions[i] > o.releases[i]);
            }
            // Conservation: all work executed.
            let total: u64 = jobs.iter().map(|j| j.dag.total_work()).sum();
            assert_eq!(o.total_executed(), total);
        },
    );
}
