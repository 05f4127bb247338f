//! The discrete-time simulation engine.

use crate::live::LiveSimulation;
use crate::{Resources, Scheduler, SimOutcome, Time};
use kdag::{JobDag, SelectionPolicy};
use ktelemetry::{SpanRecorder, TelemetryEvent, TelemetryHandle};
use std::sync::Arc;

/// One job to simulate: its DAG and its release time.
///
/// `r(Ji) = release` means the job is available for processing from
/// step `release + 1` (the paper counts `release` elapsed steps before
/// the job exists).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The job's K-DAG (shared so workloads can reuse shapes cheaply).
    pub dag: Arc<JobDag>,
    /// Release time; `0` for batched jobs.
    pub release: Time,
}

impl JobSpec {
    /// A batched (release 0) job.
    pub fn batched(dag: JobDag) -> Self {
        JobSpec {
            dag: Arc::new(dag),
            release: 0,
        }
    }

    /// A job released at `release`.
    pub fn released(dag: JobDag, release: Time) -> Self {
        JobSpec {
            dag: Arc::new(dag),
            release,
        }
    }
}

/// How the engine derives the desires it exposes to the scheduler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DesireModel {
    /// The paper's model: `d(Ji, α, t)` is the exact number of ready
    /// `α`-tasks (instantaneous parallelism).
    Exact,
    /// Two-level adaptive scheduling with **A-Greedy parallelism
    /// feedback** (He/Hsu/Leiserson, the RAD lineage's job-level
    /// scheduler): the job reports a multiplicative *estimate* instead
    /// of its true parallelism. Per step and category, with allotment
    /// `a`, reported desire `d`, and observed usage `u`:
    ///
    /// * deprived (`a < d`): estimate unchanged;
    /// * satisfied and *efficient* (`u ≥ delta · a`): estimate doubles;
    /// * satisfied and *inefficient*: estimate halves (min 1).
    ///
    /// `delta ∈ (0, 1)` is the utilization parameter (typically 0.8).
    /// Under feedback the scheduler may allot processors a job cannot
    /// use (waste) or under-serve a suddenly wide job — experiment T11
    /// measures that cost against the exact-desire baseline.
    AGreedy {
        /// Utilization threshold `δ`.
        delta: f64,
    },
}

/// How the engine's virtual clock advances.
///
/// Both policies produce **bit-for-bit identical** outcomes, traces,
/// schedules, and telemetry streams — `UnitStep` is the oracle the
/// event-driven core is property-tested against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TimePolicy {
    /// One unit-time step per engine iteration: the paper's model,
    /// executed literally. Cost is `O(makespan)` engine iterations.
    #[default]
    UnitStep,
    /// Event-driven clock: each [`crate::LiveSimulation::advance`]
    /// call executes one *event* step (decision boundary, job
    /// activation, or idle fast-forward) and then batches the plain
    /// steps up to the next event horizon in one pass — jobs that
    /// drain under their frozen allotments drop out of the inner loop,
    /// and once nothing can execute the remaining quantum is accounted
    /// in O(1). Cost is proportional to steps on which *something
    /// happens*, which is what makes trace-scale (SWF) runs feasible.
    EventDriven,
}

impl TimePolicy {
    /// Stable wire/CLI label (`"unit"` / `"event"`).
    pub fn label(self) -> &'static str {
        match self {
            TimePolicy::UnitStep => "unit",
            TimePolicy::EventDriven => "event",
        }
    }

    /// Parse a wire/CLI label back into a policy.
    pub fn from_label(s: &str) -> Option<TimePolicy> {
        match s {
            "unit" | "unit-step" => Some(TimePolicy::UnitStep),
            "event" | "event-driven" => Some(TimePolicy::EventDriven),
            _ => None,
        }
    }
}

impl std::fmt::Display for TimePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Engine configuration.
///
/// Non-exhaustive: construct via [`SimConfig::default`] and the
/// chainable `with_*` setters (or mutate the public fields); future
/// knobs can then be added without breaking callers.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SimConfig {
    /// Which ready tasks run when a job is deprived (environment side).
    pub policy: SelectionPolicy,
    /// Seed for the [`SelectionPolicy::Random`] policy (unused
    /// otherwise, but kept in the config so runs are reproducible by
    /// value).
    pub seed: u64,
    /// Record per-step [`StepTrace`](crate::StepTrace)s in the outcome.
    pub record_trace: bool,
    /// Record the full schedule `χ` for the [`crate::checker`].
    pub record_schedule: bool,
    /// Abort after this many *consecutive* steps in which active jobs
    /// exist but nothing executes (a stalled/broken scheduler).
    pub stall_limit: u64,
    /// Hard cap on simulated steps (safety net against runaways).
    pub max_steps: u64,
    /// Scheduling quantum `q ≥ 1`: the scheduler is consulted only at
    /// steps `t ≡ 1 (mod q)`; between boundaries allotments stay frozen
    /// (jobs arriving mid-quantum wait; processors of jobs completing
    /// mid-quantum idle until the boundary). `q = 1` is the paper's
    /// per-step model.
    pub quantum: u64,
    /// How desires are derived (exact instantaneous parallelism, or
    /// A-Greedy feedback estimates).
    pub desire_model: DesireModel,
    /// Where the engine emits [`TelemetryEvent`]s (run lifecycle, step
    /// accounting, job release/completion, idle skips). Off by
    /// default: a disabled handle costs one branch per emission site
    /// and never constructs the event.
    pub telemetry: TelemetryHandle,
    /// Span-duration recorder for the quantum loop (`decide` spans are
    /// timed by the engine; schedulers add `deq_allot`/`rr_cycle`).
    /// Off by default: a disabled recorder never reads the clock.
    pub spans: SpanRecorder,
    /// How the virtual clock advances ([`TimePolicy::UnitStep`] by
    /// default). Outcomes are identical either way; `EventDriven`
    /// batches the plain steps between events.
    pub time_policy: TimePolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: SelectionPolicy::Fifo,
            seed: 0,
            record_trace: false,
            record_schedule: false,
            stall_limit: 10_000,
            max_steps: 1_000_000_000,
            quantum: 1,
            desire_model: DesireModel::Exact,
            telemetry: TelemetryHandle::off(),
            spans: SpanRecorder::off(),
            time_policy: TimePolicy::UnitStep,
        }
    }
}

impl SimConfig {
    /// Set the [`SelectionPolicy`] (chainable).
    ///
    /// ```
    /// use kdag::SelectionPolicy;
    /// use ksim::SimConfig;
    /// let cfg = SimConfig::default()
    ///     .with_policy(SelectionPolicy::CriticalLast)
    ///     .with_quantum(4)
    ///     .with_trace(true);
    /// assert_eq!(cfg.quantum, 4);
    /// ```
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Set the RNG seed (chainable).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable/disable per-step [`StepTrace`](crate::StepTrace) recording (chainable).
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Enable/disable full-schedule recording (chainable).
    pub fn with_schedule(mut self, record: bool) -> Self {
        self.record_schedule = record;
        self
    }

    /// Set the stall limit (chainable).
    pub fn with_stall_limit(mut self, limit: u64) -> Self {
        self.stall_limit = limit;
        self
    }

    /// Set the step cap (chainable).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Set the scheduling quantum `q ≥ 1` (chainable).
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        self.quantum = quantum;
        self
    }

    /// Set the [`DesireModel`] (chainable).
    pub fn with_desire_model(mut self, model: DesireModel) -> Self {
        self.desire_model = model;
        self
    }

    /// Wire a [`TelemetryHandle`] into the engine (chainable).
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Wire a [`SpanRecorder`] into the engine (chainable); the engine
    /// times each scheduler `decide` call under it.
    pub fn with_spans(mut self, spans: SpanRecorder) -> Self {
        self.spans = spans;
        self
    }

    /// Set the [`TimePolicy`] (chainable).
    pub fn with_time_policy(mut self, time_policy: TimePolicy) -> Self {
        self.time_policy = time_policy;
        self
    }
}

/// Why a run's inputs were refused: by [`check`] before a run, or by
/// [`LiveSimulation::inject`] mid-run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A job's DAG disagrees with the machine on the number of
    /// processor categories.
    CategoryMismatch {
        /// Index of the offending job.
        job: usize,
        /// `K` of the job's DAG.
        dag_k: usize,
        /// `K` of the machine.
        machine_k: usize,
    },
    /// The scheduling quantum was 0 (must be ≥ 1).
    ZeroQuantum,
    /// The A-Greedy utilization threshold `δ` is outside `[0, 1]` (or
    /// NaN).
    FeedbackDelta {
        /// The offending `δ`.
        delta: f64,
    },
    /// The release time is before the engine's current virtual time —
    /// accepting it would diverge from the offline replay.
    ReleaseInPast {
        /// The offending release time.
        release: Time,
        /// The engine's current virtual time.
        now: Time,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CategoryMismatch {
                job,
                dag_k,
                machine_k,
            } => write!(
                f,
                "job {job}: DAG has {dag_k} categories but machine has {machine_k}"
            ),
            SimError::ZeroQuantum => write!(f, "quantum must be at least 1"),
            SimError::FeedbackDelta { delta } => {
                write!(f, "A-Greedy delta must be in [0, 1], got {delta}")
            }
            SimError::ReleaseInPast { release, now } => {
                write!(f, "release {release} is before the current time {now}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Check a run's inputs the way [`simulate`] and [`LiveSimulation`]
/// do: `q ≥ 1`, an A-Greedy `δ` in `[0, 1]`, and every job's `K`
/// equal to the machine's.
///
/// ```
/// use kdag::{generators::chain, Category};
/// use ksim::{check, JobSpec, Resources, SimConfig, SimError};
/// let jobs = vec![JobSpec::batched(chain(2, 3, &[Category(0), Category(1)]))];
/// let cfg = SimConfig::default();
/// assert_eq!(check(&jobs, &Resources::uniform(2, 4), &cfg), Ok(()));
/// assert_eq!(
///     check(&jobs, &Resources::uniform(3, 4), &cfg),
///     Err(SimError::CategoryMismatch { job: 0, dag_k: 2, machine_k: 3 })
/// );
/// ```
pub fn check(jobs: &[JobSpec], res: &Resources, cfg: &SimConfig) -> Result<(), SimError> {
    if cfg.quantum == 0 {
        return Err(SimError::ZeroQuantum);
    }
    if let DesireModel::AGreedy { delta } = cfg.desire_model {
        if !(0.0..=1.0).contains(&delta) {
            return Err(SimError::FeedbackDelta { delta });
        }
    }
    jobs.iter()
        .enumerate()
        .try_for_each(|(i, j)| check_job(i, j, res.k()))
}

/// The per-job half of [`check`], shared with
/// [`LiveSimulation::inject`].
pub(crate) fn check_job(job: usize, spec: &JobSpec, machine_k: usize) -> Result<(), SimError> {
    if spec.dag.k() == machine_k {
        Ok(())
    } else {
        Err(SimError::CategoryMismatch {
            job,
            dag_k: spec.dag.k(),
            machine_k,
        })
    }
}

/// Simulate `jobs` on machine `res` under `scheduler`.
///
/// ```
/// use kdag::{generators::fork_join, Category};
/// use krad::KRad;
/// use ksim::{simulate, JobSpec, Resources, SimConfig};
/// let jobs = vec![JobSpec::batched(fork_join(2, &[(Category(0), 4), (Category(1), 2)]))];
/// let res = Resources::new(vec![4, 2]);
/// let outcome = simulate(&mut KRad::new(2), &jobs, &res, &SimConfig::default());
/// assert_eq!(outcome.makespan, 2);
/// assert_eq!(outcome.total_executed(), 6);
/// ```
///
/// Runs until every job completes and returns the full
/// [`SimOutcome`]. The engine enforces the scheduler contract and the
/// model invariants:
///
/// * per-category allotments never exceed `Pα` (panics otherwise —
///   that is a scheduler bug, not a data condition);
/// * tasks execute only when ready; successors unlock next step;
/// * idle intervals (no active jobs, future releases pending) are
///   fast-forwarded.
///
/// Since the live-engine refactor this is a thin driver over
/// [`LiveSimulation`]: it injects every job up front and steps to
/// completion, so the batch and online paths execute the *same* step
/// loop (the replay-bridge guarantee the `kserve` daemon relies on).
/// The step loop holds flat preallocated state and performs no
/// steady-state heap allocation: scheduler views borrow desires in
/// place from one reused buffer, and a unit step executes only the
/// jobs whose frozen allotment row is nonzero, so under heavy load its
/// cost follows the jobs served rather than the jobs active. See
/// [`crate::live`] for the data-structure notes.
///
/// # Panics
/// Panics with the [`SimError`] message if [`check`] refuses the
/// inputs (a job's `K` differs from the machine's, `q = 0`, or an
/// A-Greedy `δ` outside `[0, 1]`), if the scheduler over-allots a
/// category, if the scheduler stalls for more than
/// [`SimConfig::stall_limit`] consecutive steps, or if
/// [`SimConfig::max_steps`] is exceeded.
pub fn simulate(
    scheduler: &mut dyn Scheduler,
    jobs: &[JobSpec],
    res: &Resources,
    cfg: &SimConfig,
) -> SimOutcome {
    if let Err(e) = check(jobs, res, cfg) {
        panic!("{e}");
    }
    let tel = cfg.telemetry.clone();
    tel.emit(|| TelemetryEvent::RunStart {
        scheduler: scheduler.name().to_string(),
        jobs: jobs.len() as u32,
        categories: res.k() as u16,
    });

    let mut live = LiveSimulation::new(res.clone(), cfg.clone()).expect("checked above");
    live.reserve(jobs.len());
    for j in jobs {
        live.inject(j.clone())
            .expect("checked above; no release precedes t = 0");
    }
    match cfg.time_policy {
        TimePolicy::UnitStep => {
            while live.has_work() {
                live.step_once(scheduler);
            }
        }
        TimePolicy::EventDriven => {
            while live.has_work() {
                live.advance(scheduler);
            }
        }
    }

    tel.emit(|| TelemetryEvent::RunEnd {
        makespan: live.now(),
        busy_steps: live.busy_steps(),
        idle_steps: live.idle_steps(),
    });
    live.into_outcome(scheduler.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker;
    use crate::{AllotmentMatrix, JobView};
    use kdag::{Category, DagBuilder, JobId};

    /// Gives every job its full desire, clamped per category to the
    /// remaining capacity, scanning jobs in slot order.
    struct GreedyAll;
    impl Scheduler for GreedyAll {
        fn name(&self) -> &str {
            "greedy-all"
        }
        fn allot(
            &mut self,
            _t: Time,
            views: &[JobView<'_>],
            res: &Resources,
            out: &mut AllotmentMatrix,
        ) {
            for cat in Category::all(res.k()) {
                let mut left = res.processors(cat);
                for (slot, v) in views.iter().enumerate() {
                    let a = v.desire(cat).min(left);
                    out.set(slot, cat, a);
                    left -= a;
                    if left == 0 {
                        break;
                    }
                }
            }
        }
    }

    /// Never allots anything: must trip the stall detector.
    struct DoNothing;
    impl Scheduler for DoNothing {
        fn name(&self) -> &str {
            "do-nothing"
        }
        fn allot(&mut self, _: Time, _: &[JobView<'_>], _: &Resources, _: &mut AllotmentMatrix) {}
    }

    /// Allots more than Pα: must trip the contract assertion.
    struct OverAllot;
    impl Scheduler for OverAllot {
        fn name(&self) -> &str {
            "over-allot"
        }
        fn allot(
            &mut self,
            _t: Time,
            views: &[JobView<'_>],
            res: &Resources,
            out: &mut AllotmentMatrix,
        ) {
            for (slot, _) in views.iter().enumerate() {
                out.set(slot, Category(0), res.processors(Category(0)) + 1);
            }
        }
    }

    fn diamond() -> JobDag {
        let mut b = DagBuilder::new(2);
        let a = b.add_task(Category(0));
        let x = b.add_task(Category(1));
        let y = b.add_task(Category(1));
        let z = b.add_task(Category(0));
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn single_diamond_runs_in_span_steps() {
        let jobs = vec![JobSpec::batched(diamond())];
        let res = Resources::uniform(2, 4);
        let o = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 3);
        assert_eq!(o.completions, vec![3]);
        assert_eq!(o.executed_by_category, vec![2, 2]);
        assert_eq!(o.busy_steps, 3);
        assert_eq!(o.idle_steps, 0);
    }

    #[test]
    fn release_times_delay_jobs_and_fast_forward() {
        let jobs = vec![JobSpec::released(diamond(), 10)];
        let res = Resources::uniform(2, 4);
        let o = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 13);
        assert_eq!(o.response(0), 3);
        assert_eq!(o.idle_steps, 10);
        assert_eq!(o.busy_steps, 3);
    }

    #[test]
    fn idle_gap_between_jobs_is_fast_forwarded() {
        let jobs = vec![
            JobSpec::batched(diamond()),
            JobSpec::released(diamond(), 100),
        ];
        let res = Resources::uniform(2, 4);
        let o = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(o.completions[0], 3);
        assert_eq!(o.completions[1], 103);
        assert_eq!(o.makespan, 103);
        assert_eq!(o.idle_steps, 97);
        assert_eq!(o.busy_steps, 6);
    }

    #[test]
    fn capacity_is_respected_and_serializes_work() {
        // Two flat jobs of 4 tasks each, 2 processors: 4 steps.
        let flat = || {
            let mut b = DagBuilder::new(1);
            b.add_tasks(Category(0), 4);
            b.build().unwrap()
        };
        let jobs = vec![JobSpec::batched(flat()), JobSpec::batched(flat())];
        let res = Resources::uniform(1, 2);
        let o = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 4);
        assert_eq!(o.total_executed(), 8);
    }

    #[test]
    fn recorded_schedule_is_valid() {
        let jobs = vec![JobSpec::batched(diamond()), JobSpec::released(diamond(), 2)];
        let res = Resources::new(vec![1, 1]);
        let mut cfg = SimConfig::default();
        cfg.record_schedule = true;
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        let sched = o.schedule.expect("schedule recorded");
        assert_eq!(sched.len(), 8);
        checker::validate(&sched, &jobs, &res).expect("engine produces valid schedules");
    }

    #[test]
    fn quantum_freezes_allotments_between_decisions() {
        // A scheduler that counts how often it is consulted.
        struct Counting {
            calls: u64,
        }
        impl Scheduler for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn allot(
                &mut self,
                _t: Time,
                views: &[JobView<'_>],
                res: &Resources,
                out: &mut AllotmentMatrix,
            ) {
                self.calls += 1;
                // Give everything to the first job.
                out.set(
                    0,
                    Category(0),
                    res.processors(Category(0))
                        .min(views[0].desire(Category(0))),
                );
            }
        }
        let mut b = DagBuilder::new(1);
        b.add_tasks(Category(0), 12);
        let jobs = vec![JobSpec::batched(b.build().unwrap())];
        let res = Resources::uniform(1, 2);
        let mut cfg = SimConfig::default();
        cfg.quantum = 4;
        let mut s = Counting { calls: 0 };
        let o = simulate(&mut s, &jobs, &res, &cfg);
        // 12 tasks at 2/step = 6 steps; decisions at t = 1 and t = 5.
        assert_eq!(o.makespan, 6);
        assert_eq!(s.calls, 2, "scheduler must only run at quantum boundaries");
    }

    #[test]
    fn mid_quantum_arrival_waits_for_boundary() {
        let flat = |n: usize| {
            let mut b = DagBuilder::new(1);
            b.add_tasks(Category(0), n);
            b.build().unwrap()
        };
        let jobs = vec![
            JobSpec::batched(flat(20)),
            JobSpec::released(flat(2), 1), // arrives at step 2, mid-quantum
        ];
        let res = Resources::uniform(1, 4);
        let mut cfg = SimConfig::default();
        cfg.quantum = 5;
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        // Job 1 gets nothing until the next boundary at t = 6.
        assert!(
            o.completions[1] >= 6,
            "mid-quantum arrival served early: {}",
            o.completions[1]
        );
    }

    #[test]
    fn agreedy_estimates_ramp_up_to_wide_jobs() {
        // One very wide flat job: A-Greedy starts at estimate 1 and
        // doubles while efficient, so completion is slower than exact
        // desires but far faster than 1 task/step.
        let mut b = DagBuilder::new(1);
        let tasks = b.add_tasks(Category(0), 64);
        let _ = tasks;
        let jobs = vec![JobSpec::batched(b.build().unwrap())];
        let res = Resources::uniform(1, 16);
        let mut cfg = SimConfig::default();
        cfg.desire_model = DesireModel::AGreedy { delta: 0.8 };
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        let exact = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(exact.makespan, 4); // 64/16
                                       // Feedback ramp: 1+2+4+8 = 15 tasks in 4 steps, then 16/step:
                                       // strictly slower than exact but much better than 64 steps.
        assert!(o.makespan > exact.makespan);
        assert!(o.makespan <= 10, "ramp too slow: {}", o.makespan);
        assert_eq!(o.total_executed(), 64);
    }

    #[test]
    fn agreedy_estimates_back_off_on_waste() {
        // A chain job (true parallelism 1): estimates must fall back to
        // 1 and stay there, so the makespan stays near the span.
        let mut b = DagBuilder::new(1);
        let ts = b.add_tasks(Category(0), 30);
        b.add_chain(&ts).unwrap();
        let jobs = vec![JobSpec::batched(b.build().unwrap())];
        let res = Resources::uniform(1, 8);
        let mut cfg = SimConfig::default();
        cfg.desire_model = DesireModel::AGreedy { delta: 0.8 };
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        assert_eq!(o.makespan, 30, "a chain runs one task per step regardless");
    }

    #[test]
    fn preemptions_counted_only_while_active() {
        // A scheduler that alternates the single processor between two
        // flat jobs each step: every switch withdraws one unit.
        struct Alternator(u64);
        impl Scheduler for Alternator {
            fn name(&self) -> &str {
                "alternator"
            }
            fn allot(
                &mut self,
                _t: Time,
                views: &[JobView<'_>],
                _res: &Resources,
                out: &mut AllotmentMatrix,
            ) {
                let pick = (self.0 as usize) % views.len();
                out.set(pick, Category(0), 1);
                self.0 += 1;
            }
        }
        let flat = || {
            let mut b = DagBuilder::new(1);
            b.add_tasks(Category(0), 3);
            JobSpec::batched(b.build().unwrap())
        };
        let jobs = vec![flat(), flat()];
        let res = Resources::uniform(1, 1);
        let o = simulate(&mut Alternator(0), &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 6);
        // Steps: J0,J1,J0,J1,J0(completes),J1. Withdrawals from a
        // still-active job: steps 2,3,4,5 minus the completion at 5.
        assert!(
            o.preemptions >= 3,
            "alternating must preempt: {}",
            o.preemptions
        );

        // A greedy one-job-at-a-time run has zero preemptions.
        let o2 = simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
        assert_eq!(
            o2.preemptions, 0,
            "FCFS completion must not count as preemption"
        );
    }

    #[test]
    fn trace_records_each_busy_step() {
        let jobs = vec![JobSpec::batched(diamond())];
        let res = Resources::uniform(2, 4);
        let mut cfg = SimConfig::default();
        cfg.record_trace = true;
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        let trace = o.trace.expect("trace recorded");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].t, 1);
        assert_eq!(trace[0].executed, vec![1, 0]);
        assert_eq!(trace[1].executed, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "stalled")]
    fn stall_detector_fires() {
        let jobs = vec![JobSpec::batched(diamond())];
        let res = Resources::uniform(2, 4);
        let mut cfg = SimConfig::default();
        cfg.stall_limit = 5;
        simulate(&mut DoNothing, &jobs, &res, &cfg);
    }

    #[test]
    #[should_panic(expected = "over-allotted")]
    fn over_allotment_detected() {
        let jobs = vec![JobSpec::batched(diamond())];
        let res = Resources::uniform(2, 4);
        simulate(&mut OverAllot, &jobs, &res, &SimConfig::default());
    }

    #[test]
    #[should_panic(expected = "categories but machine")]
    fn k_mismatch_detected() {
        let jobs = vec![JobSpec::batched(diamond())]; // K = 2
        let res = Resources::uniform(3, 4);
        simulate(&mut GreedyAll, &jobs, &res, &SimConfig::default());
    }

    #[test]
    fn check_names_the_offending_input() {
        let res = Resources::uniform(2, 4);
        let mut b = DagBuilder::new(3);
        b.add_task(Category(0));
        let jobs = vec![
            JobSpec::batched(diamond()),
            JobSpec::batched(b.build().unwrap()),
        ];
        let err = check(&jobs, &res, &SimConfig::default()).unwrap_err();
        assert_eq!(
            err,
            SimError::CategoryMismatch {
                job: 1,
                dag_k: 3,
                machine_k: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "job 1: DAG has 3 categories but machine has 2"
        );
        assert_eq!(check(&jobs[..1], &res, &SimConfig::default()), Ok(()));

        let err = check(&[], &res, &SimConfig::default().with_quantum(0)).unwrap_err();
        assert_eq!(err, SimError::ZeroQuantum);
        assert_eq!(err.to_string(), "quantum must be at least 1");
    }

    #[test]
    fn check_bounds_the_feedback_delta() {
        let res = Resources::uniform(2, 4);
        let with_delta =
            |delta| SimConfig::default().with_desire_model(DesireModel::AGreedy { delta });
        for ok in [0.0, 0.8, 1.0] {
            assert_eq!(check(&[], &res, &with_delta(ok)), Ok(()), "δ = {ok}");
            assert!(LiveSimulation::new(res.clone(), with_delta(ok)).is_ok());
        }
        for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let err = check(&[], &res, &with_delta(bad)).unwrap_err();
            assert!(matches!(err, SimError::FeedbackDelta { .. }), "δ = {bad}");
            assert!(err
                .to_string()
                .starts_with("A-Greedy delta must be in [0, 1]"));
            assert!(matches!(
                LiveSimulation::new(res.clone(), with_delta(bad)),
                Err(SimError::FeedbackDelta { .. })
            ));
        }
    }

    #[test]
    #[should_panic(expected = "A-Greedy delta must be in [0, 1]")]
    fn simulate_panics_on_a_bad_feedback_delta() {
        let jobs = vec![JobSpec::batched(diamond())];
        let cfg = SimConfig::default().with_desire_model(DesireModel::AGreedy { delta: 1.5 });
        simulate(&mut GreedyAll, &jobs, &Resources::uniform(2, 4), &cfg);
    }

    #[test]
    fn config_knobs_reach_the_run_and_repeat_runs_agree() {
        let jobs = vec![
            JobSpec::batched(diamond()),
            JobSpec::released(diamond(), 10),
        ];
        let res = Resources::uniform(2, 4);
        let cfg = SimConfig::default()
            .with_policy(SelectionPolicy::Lifo)
            .with_seed(7);
        let a = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        assert_eq!(a.completions, vec![3, 13]);
        let b = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.preemptions, b.preemptions);
    }

    #[test]
    fn spans_wire_a_phase_profiler() {
        use ktelemetry::SpanKind;
        let spans = SpanRecorder::profiler();
        let jobs = vec![JobSpec::batched(diamond())];
        let cfg = SimConfig::default().with_spans(spans.clone());
        simulate(&mut GreedyAll, &jobs, &Resources::uniform(2, 4), &cfg);
        // Quantum 1 → ready/decide/execute once per busy step (3 for
        // the diamond), and the profile snapshot covers every kind.
        assert_eq!(spans.count(SpanKind::Ready), 3);
        assert_eq!(spans.count(SpanKind::Decide), 3);
        assert_eq!(spans.count(SpanKind::Execute), 3);
        assert_eq!(spans.profile().unwrap().len(), SpanKind::COUNT);
    }

    #[test]
    fn telemetry_events_cover_the_run() {
        use ktelemetry::TelemetryEvent as E;
        let jobs = vec![
            JobSpec::batched(diamond()),
            JobSpec::released(diamond(), 100),
        ];
        let res = Resources::uniform(2, 4);
        let mut cfg = SimConfig::default();
        let (handle, rec) = TelemetryHandle::recording();
        cfg.telemetry = handle;
        let o = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        let events = rec.lock().unwrap().take();

        let E::RunStart {
            scheduler,
            jobs: nj,
            categories,
        } = &events[0]
        else {
            panic!("first event must be run_start: {:?}", events[0]);
        };
        assert_eq!(scheduler, "greedy-all");
        assert_eq!((*nj, *categories), (2, 2));
        let E::RunEnd {
            makespan,
            busy_steps,
            idle_steps,
        } = events.last().unwrap()
        else {
            panic!("last event must be run_end");
        };
        assert_eq!(*makespan, o.makespan);
        assert_eq!(*busy_steps, o.busy_steps);
        assert_eq!(*idle_steps, o.idle_steps);

        // The gap between job 0 (done at 3) and job 1 (released 100)
        // must surface as exactly one idle skip.
        let skips: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, E::IdleSkip { .. }))
            .collect();
        assert_eq!(skips, vec![&E::IdleSkip { from: 3, to: 100 }]);

        // One release and one completion per job, with responses.
        let releases = events
            .iter()
            .filter(|e| matches!(e, E::JobReleased { .. }))
            .count();
        assert_eq!(releases, 2);
        let responses: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                E::JobCompleted { response, .. } => Some(*response),
                _ => None,
            })
            .collect();
        assert_eq!(responses, vec![o.response(0), o.response(1)]);

        // Step accounting: one StepStart + StepEnd per busy step, and
        // the summed StepEnd executed equals the outcome totals.
        let starts = events
            .iter()
            .filter(|e| matches!(e, E::StepStart { .. }))
            .count();
        assert_eq!(starts as u64, o.busy_steps);
        let mut executed_total = vec![0u64; 2];
        for e in &events {
            if let E::StepEnd {
                allotted, executed, ..
            } = e
            {
                for (cat, (&a, &x)) in allotted.iter().zip(executed).enumerate() {
                    assert!(x <= a, "executed must never exceed allotted");
                    executed_total[cat] += u64::from(x);
                }
            }
        }
        assert_eq!(executed_total, o.executed_by_category);
    }

    #[test]
    fn disabled_telemetry_emits_nothing_by_default() {
        // `SimConfig::default()` must stay un-instrumented: the handle
        // is off and the engine never constructs events.
        let cfg = SimConfig::default();
        assert!(!cfg.telemetry.is_enabled());
    }

    #[test]
    fn arrival_and_completion_callbacks_fire_in_order() {
        struct Watcher {
            inner: GreedyAll,
            events: Vec<(char, u32, Time)>,
        }
        impl Scheduler for Watcher {
            fn name(&self) -> &str {
                "watcher"
            }
            fn on_arrival(&mut self, id: JobId, t: Time) {
                self.events.push(('a', id.0, t));
            }
            fn on_completion(&mut self, id: JobId, t: Time) {
                self.events.push(('c', id.0, t));
            }
            fn allot(
                &mut self,
                t: Time,
                views: &[JobView<'_>],
                res: &Resources,
                out: &mut AllotmentMatrix,
            ) {
                self.inner.allot(t, views, res, out);
            }
        }
        let jobs = vec![JobSpec::batched(diamond()), JobSpec::released(diamond(), 1)];
        let res = Resources::uniform(2, 4);
        let mut w = Watcher {
            inner: GreedyAll,
            events: vec![],
        };
        let o = simulate(&mut w, &jobs, &res, &SimConfig::default());
        assert_eq!(w.events[0], ('a', 0, 1));
        assert_eq!(w.events[1], ('a', 1, 2));
        assert!(w.events.contains(&('c', 0, o.completions[0])));
        assert!(w.events.contains(&('c', 1, o.completions[1])));
    }
}
