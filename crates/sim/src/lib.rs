//! # ksim — discrete-time K-resource scheduling simulator
//!
//! This crate is the "machine" of the ICPP'07 K-RAD paper: a
//! synchronous, discrete-time multiprocessor with `K` categories of
//! processors (`Pα` processors of category `α`), executing unit-time
//! tasks of [`kdag::JobDag`] jobs step by step.
//!
//! ## The scheduling contract
//!
//! At every time step `t` the engine:
//!
//! 1. activates jobs whose release time has passed,
//! 2. computes each active job's instantaneous per-category **desire**
//!    (number of ready `α`-tasks),
//! 3. asks the [`Scheduler`] for an **allotment** `a(Ji, α, t)` per job
//!    and category — the scheduler sees *only* [`JobView`]s (job id,
//!    release, desires): this is the non-clairvoyance boundary,
//! 4. executes `min(allotment, desire)` ready tasks per job/category,
//!    with the *environment's* [`kdag::SelectionPolicy`] deciding which
//!    ready tasks run (the adversary's knob),
//! 5. records traces / the full schedule `χ = (τ, π1..πK)` if asked.
//!
//! Intervals with no active job and no work are fast-forwarded (they
//! still advance the clock — makespan counts them — but cost no
//! simulation work), matching the paper's treatment of idle intervals.
//!
//! ## Outputs
//!
//! [`SimOutcome`] carries the makespan `T(J)`, per-job completion and
//! response times, utilization, optional per-step traces, and an
//! optional [`checker::RecordedSchedule`] that the [`checker`] can
//! validate against the formal schedule definition of the paper (§2):
//! precedence preserved, one job per processor per step, category
//! matching, every task executed exactly once.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod allot;
mod engine;
mod outcome;
mod resources;
mod scheduler;
mod trace;
mod view;

pub mod checker;
pub mod live;
pub mod snapshot;

pub use allot::AllotmentMatrix;
pub use engine::{check, simulate, DesireModel, JobSpec, SimConfig, SimError, TimePolicy};
pub use live::{LiveSimulation, QuantumReport};
pub use outcome::SimOutcome;
pub use resources::Resources;
pub use scheduler::Scheduler;
pub use snapshot::EngineSnapshot;
pub use trace::StepTrace;
pub use view::JobView;

// Re-exported so downstream crates can wire sinks into `SimConfig`
// without naming `ktelemetry` directly.
pub use ktelemetry::{TelemetryEvent, TelemetryHandle};

/// Simulated time, in unit steps. Steps are 1-indexed as in the paper;
/// a release time `r` means the job is available from step `r + 1`.
pub type Time = u64;
