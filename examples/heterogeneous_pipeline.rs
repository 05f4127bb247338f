//! A heterogeneous pipeline workload: CPU + vector + I/O jobs competing
//! on one machine, comparing K-RAD against all baselines.
//!
//! ```text
//! cargo run --release --example heterogeneous_pipeline
//! ```
//!
//! This is the paper's motivating setting: programs interleaving
//! computations, I/Os and vector work, where each task only runs on its
//! matching processor type.

use kdag::rng::StdRng;
use krad_suite::kanalysis::table::{f3, Table};
use krad_suite::prelude::*;

fn make_jobs(rng: &mut StdRng, n: usize) -> Vec<JobSpec> {
    let cpu = Category(0);
    let vec_unit = Category(1);
    let io = Category(2);
    (0..n)
        .map(|i| {
            let dag = match i % 3 {
                // Vectorizable compute: wide vector phases between CPU setup.
                0 => fork_join(
                    3,
                    &[
                        (cpu, 2),
                        (vec_unit, rng.gen_range(4..=12)),
                        (cpu, 2),
                        (vec_unit, rng.gen_range(4..=12)),
                        (io, 1),
                    ],
                ),
                // I/O-heavy ETL pipeline.
                1 => chain(3, rng.gen_range(10..=20), &[io, cpu, io]),
                // Balanced map-reduce over CPU and I/O.
                _ => map_reduce(
                    3,
                    &MapReduceSpec {
                        map_category: cpu,
                        map_count: rng.gen_range(4..=10),
                        reduce_category: io,
                        reduce_count: 2,
                        rounds: 2,
                    },
                ),
            };
            JobSpec::batched(dag)
        })
        .collect()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2007);
    let res = Resources::new(vec![6, 4, 2]); // CPUs, vector units, I/O processors
    let jobs = make_jobs(&mut rng, 18);

    let total_work: u64 = jobs.iter().map(|j| j.dag.total_work()).sum();
    println!(
        "machine: {:?} (K={})  jobs: {}  total tasks: {}\n",
        res.as_slice(),
        res.k(),
        jobs.len(),
        total_work
    );

    let lb = makespan_bounds(&jobs, &res).lower_bound();
    let mut table = Table::new(
        "heterogeneous pipeline: scheduler comparison",
        &["scheduler", "makespan", "T/LB", "mean resp", "max resp"],
    );
    for kind in SchedulerKind::ALL {
        let cfg = SimConfig::default();
        let mut sched = kind.build(res.k(), SchedulerKind::DEFAULT_SEED, &cfg);
        let outcome = simulate(sched.as_mut(), &jobs, &res, &cfg);
        table.row_owned(vec![
            kind.label().to_string(),
            outcome.makespan.to_string(),
            f3(outcome.makespan as f64 / lb),
            f3(outcome.mean_response()),
            outcome.max_response().to_string(),
        ]);
    }
    table.note(&format!("makespan lower bound (§4): {lb:.1}"));
    table.note(&format!(
        "Theorem 3 guarantee for K-RAD: T ≤ {:.3} × optimum",
        makespan_bound(res.k(), res.p_max())
    ));
    println!("{table}");
}
