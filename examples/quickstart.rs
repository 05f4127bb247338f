//! Quickstart: schedule a few heterogeneous jobs with K-RAD.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds a 2-category machine (CPUs + I/O processors), submits a small
//! mixed job set, runs K-RAD, and prints per-job completion times plus
//! the makespan lower-bound comparison.

use krad_suite::prelude::*;

fn main() {
    // A machine with 4 CPUs (α1) and 2 I/O processors (α2).
    let res = Resources::new(vec![4, 2]);
    let cpu = Category(0);
    let io = Category(1);

    // Three jobs with different shapes:
    // 1. a data-parallel job: wide CPU phases with an I/O phase between,
    let j1 = fork_join(2, &[(cpu, 8), (io, 2), (cpu, 8)]);
    // 2. a sequential pipeline alternating CPU and I/O steps,
    let j2 = chain(2, 12, &[cpu, io]);
    // 3. a custom DAG built by hand: read -> {two parallel computes} -> write.
    let j3 = {
        let mut b = DagBuilder::new(2);
        let read = b.add_task(io);
        let c1 = b.add_task(cpu);
        let c2 = b.add_task(cpu);
        let write = b.add_task(io);
        b.add_edge(read, c1).unwrap();
        b.add_edge(read, c2).unwrap();
        b.add_edge(c1, write).unwrap();
        b.add_edge(c2, write).unwrap();
        b.build().unwrap()
    };

    println!(
        "job 1: fork-join   work={:?} span={}",
        j1.work_by_category(),
        j1.span()
    );
    println!(
        "job 2: chain       work={:?} span={}",
        j2.work_by_category(),
        j2.span()
    );
    println!(
        "job 3: hand-built  work={:?} span={}",
        j3.work_by_category(),
        j3.span()
    );

    let jobs = vec![
        JobSpec::batched(j1),
        JobSpec::batched(j2),
        JobSpec::released(j3, 5), // arrives online at time 5
    ];

    // One run = machine + jobs + config + scheduler. `check` refuses
    // bad inputs with an error (`simulate` would panic on them). K-RAD
    // needs no knowledge of the jobs: it is non-clairvoyant.
    let cfg = SimConfig::default();
    check(&jobs, &res, &cfg).expect("jobs match the 2-category machine");
    let mut scheduler = KRad::new(res.k());
    let outcome = simulate(&mut scheduler, &jobs, &res, &cfg);

    println!("\nscheduler: {}", outcome.scheduler);
    for i in 0..outcome.job_count() {
        println!(
            "  job {i}: released {:>2}, completed {:>3}, response {:>3}",
            outcome.releases[i],
            outcome.completions[i],
            outcome.response(i)
        );
    }
    println!("makespan: {} steps", outcome.makespan);
    println!("mean response time: {:.2} steps", outcome.mean_response());

    // Compare with the paper's lower bound on ANY scheduler:
    let lb = makespan_bounds(&jobs, &res).lower_bound();
    let bound = makespan_bound(res.k(), res.p_max());
    println!("\nmakespan lower bound (§4):  {lb:.1}");
    println!(
        "measured / LB = {:.3}  (Theorem 3 guarantees ≤ {bound:.3})",
        outcome.makespan as f64 / lb
    );
}
