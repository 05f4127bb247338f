//! Visualize schedules: ASCII Gantt charts of K-RAD vs baselines on a
//! small heterogeneous job set.
//!
//! ```text
//! cargo run --release --example schedule_gallery
//! ```
//!
//! Each chart has one row per (category, processor); cells show which
//! job occupied the processor at each step — the paper's schedule
//! `χ = (τ, π1, …, πK)` made visible. Watch RAD's round-robin cycles
//! interleave jobs where greedy-FCFS runs them back-to-back.

use krad_suite::kanalysis::gantt::gantt;
use krad_suite::prelude::*;

fn main() {
    let cpu = Category(0);
    let io = Category(1);
    let res = Resources::new(vec![3, 1]);

    // Four small jobs with different shapes.
    let jobs = [
        JobSpec::batched(fork_join(2, &[(cpu, 6), (io, 1), (cpu, 6)])),
        JobSpec::batched(chain(2, 8, &[cpu, io])),
        JobSpec::batched(fork_join(2, &[(cpu, 4), (io, 2)])),
        JobSpec::released(chain(2, 6, &[io, cpu]), 4),
    ];

    for kind in [
        SchedulerKind::KRad,
        SchedulerKind::GreedyFcfs,
        SchedulerKind::RrOnly,
    ] {
        let cfg = SimConfig::default().with_schedule(true);
        let mut sched = kind.build(res.k(), SchedulerKind::DEFAULT_SEED, &cfg);
        let o = simulate(sched.as_mut(), &jobs, &res, &cfg);
        println!(
            "=== {} — makespan {}, mean response {:.1} ===",
            kind.label(),
            o.makespan,
            o.mean_response()
        );
        println!("{}", gantt(o.schedule.as_ref().unwrap(), &res, 100));
    }
    println!("legend: cell symbol = job index, '.' = idle processor-step");
}
