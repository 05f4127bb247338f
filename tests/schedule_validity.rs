//! Every scheduler's recorded schedule satisfies the paper's formal
//! validity conditions (§2), across shapes, policies, and machines.

use kbaselines::SchedulerKind;
use kdag::prop;
use kdag::SelectionPolicy;
use ksim::{checker, simulate, Resources, SimConfig};
use kworkloads::arrivals::{poisson_releases, uniform_releases};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

fn check(
    kind: SchedulerKind,
    jobs: &[ksim::JobSpec],
    res: &Resources,
    policy: SelectionPolicy,
    seed: u64,
) {
    let mut cfg = SimConfig::default().with_policy(policy);
    cfg.seed = seed;
    cfg.record_schedule = true;
    let mut sched = kind.build(res.k(), SchedulerKind::DEFAULT_SEED, &cfg);
    let o = simulate(sched.as_mut(), jobs, res, &cfg);
    let schedule = o.schedule.expect("recorded");
    // One record per task.
    let total: usize = jobs.iter().map(|j| j.dag.len()).sum();
    assert_eq!(schedule.len(), total, "{kind}: record count");
    checker::validate(&schedule, jobs, res)
        .unwrap_or_else(|v| panic!("{kind} with {policy}: invalid schedule: {v}"));
}

#[test]
fn all_schedulers_produce_valid_schedules() {
    prop::check(
        32,
        (
            0u64..3000,
            1usize..4,
            1usize..12,
            1u32..6,
            0usize..8,
            0usize..5,
            0u8..3,
        ),
        |&(seed, k, n, p, kind_idx, policy_idx, arrivals)| {
            let kind = SchedulerKind::ALL[kind_idx];
            let policy = SelectionPolicy::ALL[policy_idx];
            let mut rng = rng_for(seed, 0xB0);
            let mut jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 20));
            match arrivals {
                1 => poisson_releases(&mut jobs, &mut rng, 0.3),
                2 => uniform_releases(&mut jobs, &mut rng, 40),
                _ => {}
            }
            let res = Resources::uniform(k, p);
            check(kind, &jobs, &res, policy, seed);
        },
    );
}

#[test]
fn asymmetric_machines_are_valid_too() {
    prop::check(32, (0u64..1000, 0usize..8), |&(seed, kind_idx)| {
        let kind = SchedulerKind::ALL[kind_idx];
        let mut rng = rng_for(seed, 0xB1);
        let jobs = batched_mix(&mut rng, &MixConfig::new(3, 8, 24));
        let res = Resources::new(vec![1, 8, 3]);
        check(kind, &jobs, &res, SelectionPolicy::Fifo, seed);
    });
}

#[test]
fn adversarial_instance_schedule_is_valid() {
    let w = kworkloads::adversarial::adversarial_workload(&[2, 4], 4);
    check(
        SchedulerKind::KRad,
        &w.jobs,
        &w.resources,
        SelectionPolicy::CriticalLast,
        0,
    );
}

#[test]
fn fig1_schedule_is_valid_for_every_scheduler() {
    let jobs = vec![ksim::JobSpec::batched(kdag::generators::fig1_example())];
    let res = Resources::new(vec![2, 2, 1]);
    for kind in SchedulerKind::ALL {
        check(kind, &jobs, &res, SelectionPolicy::Fifo, 1);
    }
}
