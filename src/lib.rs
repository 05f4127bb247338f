//! # krad-suite — facade for the K-RAD reproduction
//!
//! Re-exports the whole workspace under one roof for examples,
//! integration tests, and downstream users who want a single
//! dependency:
//!
//! * [`kdag`] — the K-colored DAG job model and generators;
//! * [`ksim`] — the discrete-time K-resource simulator;
//! * [`krad`] — the K-RAD scheduler (the paper's contribution);
//! * [`kbaselines`] — EQUI / DEQ-only / RR-only / Greedy-FCFS;
//! * [`kanalysis`] — lower bounds, squashed work areas, tables;
//! * [`kworkloads`] — seeded workloads and the Figure 3 instance;
//! * [`kexperiments`] — the table/figure regeneration harness;
//! * [`kserve`] — the online scheduling daemon, protocol client,
//!   load generator, and deterministic replay bridge.
//!
//! ## Quickstart
//!
//! ```
//! use krad_suite::prelude::*;
//!
//! // Two categories: 4 CPUs and 2 I/O processors.
//! let res = Resources::new(vec![4, 2]);
//! // One fork-join job alternating CPU and I/O phases.
//! let job = fork_join(2, &[(Category(0), 4), (Category(1), 2), (Category(0), 4)]);
//! let jobs = vec![JobSpec::batched(job)];
//! let cfg = SimConfig::default();
//! // Refuse bad inputs up front; `simulate` panics on them.
//! check(&jobs, &res, &cfg).expect("job shape matches the machine");
//! let mut sched = SchedulerKind::KRad.build(res.k(), SchedulerKind::DEFAULT_SEED, &cfg);
//! let outcome = simulate(sched.as_mut(), &jobs, &res, &cfg);
//! assert_eq!(outcome.makespan, 3); // span-limited
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use kanalysis;
pub use kbaselines;
pub use kdag;
pub use kexperiments;
pub use krad;
pub use kserve;
pub use ksim;
pub use kworkloads;

/// The most common imports in one place.
pub mod prelude {
    pub use kanalysis::bounds::{makespan_bounds, response_bounds};
    pub use kbaselines::{DeqOnly, Equi, GreedyFcfs, RoundRobinOnly, SchedulerKind};
    pub use kdag::generators::{
        adversarial_instance, chain, divide_conquer, fig1_example, fork_join, layered_random,
        map_reduce, phased, series_parallel, wavefront, LayeredConfig, MapReduceSpec, PhaseSpec,
    };
    pub use kdag::{Category, DagBuilder, JobDag, JobId, SelectionPolicy, TaskId};
    pub use krad::{makespan_bound, mrt_bound_heavy, mrt_bound_light, KRad};
    pub use ksim::{
        check, simulate, JobSpec, JobView, Resources, Scheduler, SimConfig, SimError, SimOutcome,
        Time,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_runs() {
        let res = Resources::uniform(2, 2);
        let jobs = vec![JobSpec::batched(chain(2, 4, &[Category(0), Category(1)]))];
        let mut s = KRad::new(2);
        let o = simulate(&mut s, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 4);
    }
}
