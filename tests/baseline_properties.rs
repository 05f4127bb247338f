//! Behavioral contracts of the baseline schedulers, verified end to end
//! through the engine.

use kbaselines::SchedulerKind;
use kdag::generators::{chain, fork_join, phased, PhaseSpec};
use kdag::prop;
use kdag::{Category, SelectionPolicy};
use ksim::{simulate, JobSpec, Resources, SimConfig};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

fn run(kind: SchedulerKind, jobs: &[JobSpec], res: &Resources, seed: u64) -> ksim::SimOutcome {
    let mut cfg = SimConfig::default().with_policy(SelectionPolicy::Fifo);
    cfg.seed = seed;
    let mut s = kind.build(res.k(), seed, &cfg);
    simulate(s.as_mut(), jobs, res, &cfg)
}

#[test]
fn rr_only_dilates_a_lone_wide_job_to_its_work() {
    // One 10-phase × 8-wide job on 8 processors: span 10, work 80.
    let phases: Vec<(Category, u32)> = (0..10).map(|_| (Category(0), 8)).collect();
    let jobs = vec![JobSpec::batched(fork_join(1, &phases))];
    let res = Resources::uniform(1, 8);
    assert_eq!(run(SchedulerKind::KRad, &jobs, &res, 0).makespan, 10);
    assert_eq!(
        run(SchedulerKind::RrOnly, &jobs, &res, 0).makespan,
        80,
        "RR-only gives a lone job exactly one processor per step"
    );
    // Randomized RR has the same limitation.
    assert_eq!(run(SchedulerKind::RandomRr, &jobs, &res, 0).makespan, 80);
}

#[test]
fn equi_wastes_what_deq_redistributes() {
    // One narrow job (desire 1) + one wide job (desire 7) on 8 procs:
    // EQUI gives 4+4 (3 wasted), DEQ gives 1+7.
    let narrow = phased(1, &[PhaseSpec::new(Category(0), 1, 28)]);
    let wide = phased(1, &[PhaseSpec::new(Category(0), 7, 28)]);
    let jobs = vec![JobSpec::batched(narrow), JobSpec::batched(wide)];
    let res = Resources::uniform(1, 8);
    let deq = run(SchedulerKind::DeqOnly, &jobs, &res, 0);
    let equi = run(SchedulerKind::Equi, &jobs, &res, 0);
    // DEQ satisfies both desires: wide finishes in 28 steps.
    assert_eq!(deq.makespan, 28);
    // EQUI caps the wide job at 4/step while the narrow job lives
    // (112 of 196 tasks by step 28), then hands it the machine:
    // 28 + ceil(84/7) = 40 steps — a 43% dilation from stranding.
    assert_eq!(
        equi.makespan, 40,
        "EQUI should strand processors until the narrow job ends"
    );
}

#[test]
fn greedy_fcfs_serializes_late_jobs() {
    // Two identical wide jobs; FCFS runs them almost back to back,
    // K-RAD splits the machine (same makespan, fairer responses).
    let wide = || phased(1, &[PhaseSpec::new(Category(0), 8, 10)]);
    let jobs = vec![JobSpec::batched(wide()), JobSpec::batched(wide())];
    let res = Resources::uniform(1, 8);
    let fcfs = run(SchedulerKind::GreedyFcfs, &jobs, &res, 0);
    // Job 0 monopolizes: completes in ~10; job 1 waits: ~20.
    assert!(fcfs.response(0) <= 11);
    assert!(fcfs.response(1) >= 19);
    let krad = run(SchedulerKind::KRad, &jobs, &res, 0);
    // K-RAD equalizes: both take ~20 but the spread is small.
    let spread_krad = krad.response(0).abs_diff(krad.response(1));
    let spread_fcfs = fcfs.response(0).abs_diff(fcfs.response(1));
    assert!(
        spread_krad < spread_fcfs,
        "K-RAD spread {spread_krad} vs FCFS spread {spread_fcfs}"
    );
}

#[test]
fn las_prioritizes_short_jobs() {
    // One long and several short jobs: LAS finishes the short ones
    // first (better mean response than FCFS-by-id).
    let long = phased(1, &[PhaseSpec::new(Category(0), 4, 40)]);
    let mut jobs = vec![JobSpec::batched(long)];
    for _ in 0..4 {
        jobs.push(JobSpec::batched(chain(1, 6, &[Category(0)])));
    }
    let res = Resources::uniform(1, 4);
    let las = run(SchedulerKind::Las, &jobs, &res, 0);
    // All short jobs must finish long before the long one.
    for i in 1..=4 {
        assert!(
            las.completions[i] < las.completions[0] / 2,
            "short job {i} finished at {} vs long at {}",
            las.completions[i],
            las.completions[0]
        );
    }
}

/// All baselines are work-conserving enough to terminate and
/// produce identical total work; K-RAD's makespan is never beaten
/// by more than the theoretical factor (sanity of relative order).
#[test]
fn no_baseline_beats_krad_beyond_its_bound() {
    prop::check(
        24,
        (0u64..1000, 1usize..3, 2usize..10, 2u32..6, 0usize..8),
        |&(seed, k, n, p, kind_idx)| {
            let kind = SchedulerKind::ALL[kind_idx];
            let mut rng = rng_for(seed, 0xBB);
            let jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 20));
            let res = Resources::uniform(k, p);
            let base = run(kind, &jobs, &res, seed);
            let krad = run(SchedulerKind::KRad, &jobs, &res, seed);
            // K-RAD ≤ bound × OPT ≤ bound × (any feasible schedule).
            let bound = krad::makespan_bound(k, p);
            assert!(
                (krad.makespan as f64) <= bound * base.makespan as f64 + 1e-9,
                "K-RAD {} vs {} {} exceeds factor {bound}",
                krad.makespan,
                kind,
                base.makespan
            );
        },
    );
}
