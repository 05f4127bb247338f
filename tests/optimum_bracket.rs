//! The optimum bracket `LB ≤ T* ≤ T_cp` is consistent on randomized
//! workloads, and K-RAD lands inside its proven factor of it.

use kanalysis::bounds::makespan_bounds;
use kanalysis::offline::clairvoyant_cp;
use kdag::prop;
use kdag::SelectionPolicy;
use krad::KRad;
use ksim::{simulate, Resources, SimConfig};
use kworkloads::arrivals::poisson_releases;
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

#[test]
fn bracket_and_krad_are_consistent() {
    prop::check(
        40,
        (0u64..4000, 1usize..4, 2usize..12, 2u32..7, prop::any_bool),
        |&(seed, k, n, p, online)| {
            let mut rng = rng_for(seed, 0xF7);
            let mut jobs = batched_mix(&mut rng, &MixConfig::new(k, n, 22));
            if online {
                poisson_releases(&mut jobs, &mut rng, 0.3);
            }
            let res = Resources::uniform(k, p);

            let lb = makespan_bounds(&jobs, &res).lower_bound();
            let t_cp = clairvoyant_cp(&jobs, &res).makespan;
            // Bracket: the lower bound can never exceed a feasible schedule.
            assert!(lb <= t_cp as f64 + 1e-9, "LB {lb} > T_cp {t_cp}");

            let mut cfg = SimConfig::default().with_policy(SelectionPolicy::CriticalLast);
            cfg.seed = seed;
            let mut sched = KRad::new(k);
            let o = simulate(&mut sched, &jobs, &res, &cfg);

            // K-RAD is feasible, so it is also an upper certificate of T*…
            assert!(lb <= o.makespan as f64 + 1e-9);
            // …and Theorem 3 bounds it against T*, which T_cp upper-bounds:
            // T ≤ bound · T* ≤ bound · T_cp.
            let bound = krad::makespan_bound(k, p);
            assert!(
                (o.makespan as f64) <= bound * t_cp as f64 + 1e-9,
                "K-RAD {} beyond bound×T_cp = {:.1}",
                o.makespan,
                bound * t_cp as f64
            );
            // The bracket's two ratio estimates are ordered.
            let ratio_hi = o.makespan as f64 / lb;
            let ratio_lo = o.makespan as f64 / t_cp as f64;
            assert!(ratio_lo <= ratio_hi + 1e-9);
        },
    );
}

/// Golden snapshots: the standard scenarios' headline numbers are
/// pinned so any behavioral drift in generators, engine, or K-RAD is
/// caught immediately (refresh deliberately when semantics change).
#[test]
fn scenario_snapshots() {
    use kbaselines::SchedulerKind;
    let scenarios = kworkloads::scenarios::standard_suite(&mut rng_for(42, 0x77));
    let mut got = Vec::new();
    for sc in &scenarios {
        let cfg = SimConfig::default();
        let mut sched =
            SchedulerKind::KRad.build(sc.resources.k(), SchedulerKind::DEFAULT_SEED, &cfg);
        let o = simulate(sched.as_mut(), &sc.jobs, &sc.resources, &cfg);
        got.push((sc.label, o.makespan, o.total_response()));
    }
    // These values correspond to master seed 42 (the committed T7
    // inputs). If a deliberate change alters them, update with the
    // values printed by `cargo test -- scenario_snapshots --nocapture`.
    println!("snapshots: {got:?}");
    assert_eq!(got[0].0, "pipeline");
    assert_eq!(got[1].0, "map-reduce");
    assert_eq!(got[2].0, "mixed-server");
    let makespans: Vec<u64> = got.iter().map(|g| g.1).collect();
    assert_eq!(makespans, vec![126, 83, 218], "scenario makespans drifted");
    let responses: Vec<u64> = got.iter().map(|g| g.2).collect();
    assert_eq!(
        responses,
        vec![1731, 1250, 1677],
        "scenario responses drifted"
    );
}
