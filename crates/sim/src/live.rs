//! The incremental engine core: a simulation that can be driven one
//! step at a time while new jobs are injected mid-run.
//!
//! [`LiveSimulation`] is the *same* engine the batch [`crate::simulate`]
//! path runs — `simulate` is a thin driver that injects every job up
//! front and steps to completion. A long-running service (the `kserve`
//! daemon) instead injects jobs as they arrive over the wire and
//! advances virtual time quantum by quantum. Because both paths execute
//! this one step loop, an online session whose arrivals are recorded as
//! `(dag, release)` pairs replays *bit-for-bit* through the offline
//! path: same decision boundaries, same freeze semantics, same RNG
//! stream, same completions.
//!
//! ## Invariants for online injection
//!
//! * A job may only be injected with `release >= now()` — the engine
//!   cannot rewrite history ([`SimError::ReleaseInPast`]).
//! * Injection order is the job-index order; the offline replay must
//!   present the same jobs in the same order with the same releases.
//! * Virtual time is work-conserving: it only advances while jobs are
//!   active (or fast-forwards to the next pending release), so
//!   wall-clock idle time at the service layer consumes no virtual
//!   steps and leaves no trace in the canonical arrival record.
//!
//! ## The unit-step hot path
//!
//! * **Views borrow in place.** A decision's [`JobView`]s point at
//!   each job's incrementally maintained ready counts
//!   ([`ExecutionState::desires`]) or at its A-Greedy estimate row; no
//!   desire is copied. The views live in one reused buffer, so a
//!   decision allocates nothing however many jobs are active.
//! * **Only served jobs execute.** A row that is unfrozen (the job
//!   arrived mid-quantum) or all zero is skipped: it would pop nothing,
//!   draw no RNG, record nothing and could not complete a non-empty
//!   job. Its one observable effect, closing an open ktrace segment on
//!   an `n = 0` step, is kept.

use crate::checker::{ExecRecord, RecordedSchedule};
use crate::{
    AllotmentMatrix, DesireModel, JobSpec, JobView, Resources, Scheduler, SimConfig, SimError,
    SimOutcome, StepTrace, Time, TimePolicy,
};
use kdag::rng::StdRng;
use kdag::{Category, ExecutionState, JobId, TaskId};
use ktelemetry::{SpanKind, TelemetryEvent, TelemetryHandle};

/// Cap on A-Greedy estimates (doubling is otherwise unbounded).
const EST_CAP: u32 = 1 << 20;

/// What one [`LiveSimulation::advance`] (or
/// [`LiveSimulation::run_until`]) call did — the typed report of time
/// advanced, allotments, completions, and clock mode.
///
/// Non-exhaustive so the engine can grow the report (e.g. per-category
/// waste) without breaking callers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct QuantumReport {
    /// Virtual time when the call began.
    pub from: Time,
    /// Virtual time when the call returned.
    pub to: Time,
    /// Busy (executed) steps in `(from, to]`.
    pub busy: u64,
    /// Idle (fast-forwarded) steps in `(from, to]`.
    pub idle: u64,
    /// Whether a decision boundary fell inside this call (the
    /// scheduler was consulted and allotments were re-frozen).
    pub decided: bool,
    /// Per-category allotment totals in force at `to`.
    pub allotted: Vec<u32>,
    /// Jobs that completed, as `(job index, completion time)` pairs in
    /// completion order.
    pub completed: Vec<(usize, Time)>,
    /// The clock mode the engine ran this call under.
    pub time_policy: TimePolicy,
}

impl QuantumReport {
    /// Steps of virtual time this call advanced (`to - from`).
    pub fn steps(&self) -> u64 {
        self.to - self.from
    }

    /// Indices of the jobs that completed during this call.
    pub fn completed_jobs(&self) -> impl Iterator<Item = usize> + '_ {
        self.completed.iter().map(|&(idx, _)| idx)
    }
}

/// An incrementally drivable simulation: inject jobs at (or after) the
/// current virtual time, advance with
/// [`advance`](LiveSimulation::advance), and extract the standard
/// [`SimOutcome`] when done.
///
/// ```
/// use kdag::generators::fork_join;
/// use kdag::Category;
/// use krad::KRad;
/// use ksim::{JobSpec, LiveSimulation, Resources, SimConfig};
///
/// let mut live = LiveSimulation::new(Resources::new(vec![4, 2]), SimConfig::default()).unwrap();
/// let mut sched = KRad::new(2);
/// live.inject(JobSpec::batched(fork_join(2, &[(Category(0), 4), (Category(1), 2)])))
///     .unwrap();
/// while live.has_work() {
///     let report = live.advance(&mut sched);
///     assert!(report.to > report.from);
/// }
/// assert_eq!(live.now(), 2);
/// assert_eq!(live.into_outcome("k-rad").makespan, 2);
/// ```
#[derive(Clone, Debug)]
pub struct LiveSimulation {
    res: Resources,
    cfg: SimConfig,
    k: usize,
    rng: StdRng,
    jobs: Vec<JobSpec>,
    states: Vec<ExecutionState>,
    /// Not-yet-activated job indices from `next_arrival` on, sorted by
    /// `(release, index)`; the activated prefix is kept for posterity.
    order: Vec<usize>,
    next_arrival: usize,
    active: Vec<usize>,
    completions: Vec<Time>,
    remaining: usize,
    t: Time,

    // Quantum machinery: allotments frozen between decisions.
    frozen: Vec<u32>,
    frozen_set: Vec<bool>,
    next_decision: Time,
    last_decision: Time,

    // A-Greedy feedback state (flat `jobs × K` matrices, grown only
    // when feedback is enabled).
    feedback_delta: Option<f64>,
    est: Vec<u32>,
    est_set: Vec<bool>,
    reported: Vec<u32>,
    usage: Vec<u64>,
    usage_init: Vec<bool>,

    // Reused per-step buffers (no steady-state allocation).
    /// The scheduler's views, empty between decisions: each decision
    /// refills it with views that borrow desires in place and hands
    /// the allocation back afterwards (see `step_once`).
    views: Vec<JobView<'static>>,
    executed_buf: Vec<u32>,
    exec_record: Vec<(Category, TaskId)>,
    out: AllotmentMatrix,
    allotted_totals: Vec<u32>,
    step_executed_totals: Vec<u32>,
    proc_counter: Vec<u32>,
    decision_totals: Vec<u64>,
    /// Active jobs that can still execute under the current frozen
    /// rows — the working set of the event-driven plain-step batcher.
    seg_live: Vec<usize>,
    /// Reused report buffer returned by `advance`/`run_until`.
    report: QuantumReport,

    // Accounting.
    executed_by_category: Vec<u64>,
    allotted_by_category: Vec<u64>,
    busy_steps: u64,
    idle_steps: u64,
    preemptions: u64,
    stalled: u64,
    trace: Vec<StepTrace>,
    schedule: RecordedSchedule,
    tel: TelemetryHandle,

    // ktrace per-job state: first-allotment flags and the currently
    // open execution segment of each job. Only consulted when
    // `job_events` is set, so the uninstrumented hot path pays
    // nothing beyond the cached boolean.
    job_events: bool,
    first_allot_seen: Vec<bool>,
    /// First step of the open execution segment of each job.
    seg_from: Vec<u64>,
    /// Tasks executed in the open segment (`> 0` iff a segment is
    /// open).
    seg_tasks: Vec<u64>,
}

impl LiveSimulation {
    /// An empty live simulation on machine `res` under `cfg`.
    ///
    /// Fails as [`crate::check`] does on `cfg`: with
    /// [`SimError::ZeroQuantum`] if `cfg.quantum == 0`, or with
    /// [`SimError::FeedbackDelta`] if an A-Greedy `δ` is outside
    /// `[0, 1]`.
    pub fn new(res: Resources, cfg: SimConfig) -> Result<LiveSimulation, SimError> {
        crate::check(&[], &res, &cfg)?;
        let k = res.k();
        let feedback_delta = match cfg.desire_model {
            DesireModel::Exact => None,
            DesireModel::AGreedy { delta } => Some(delta),
        };
        let rng = StdRng::seed_from_u64(cfg.seed);
        let tel = cfg.telemetry.clone();
        let job_events = tel.is_enabled();
        Ok(LiveSimulation {
            res,
            k,
            rng,
            jobs: Vec::new(),
            states: Vec::new(),
            order: Vec::new(),
            next_arrival: 0,
            active: Vec::new(),
            completions: Vec::new(),
            remaining: 0,
            t: 0,
            frozen: Vec::new(),
            frozen_set: Vec::new(),
            next_decision: 0,
            last_decision: 0,
            feedback_delta,
            est: Vec::new(),
            est_set: Vec::new(),
            reported: Vec::new(),
            usage: Vec::new(),
            usage_init: Vec::new(),
            views: Vec::new(),
            executed_buf: vec![0; k],
            exec_record: Vec::new(),
            out: AllotmentMatrix::new(k),
            allotted_totals: vec![0; k],
            step_executed_totals: vec![0; k],
            proc_counter: vec![0; k],
            decision_totals: vec![0; k],
            seg_live: Vec::new(),
            report: QuantumReport::default(),
            executed_by_category: vec![0; k],
            allotted_by_category: vec![0; k],
            busy_steps: 0,
            idle_steps: 0,
            preemptions: 0,
            stalled: 0,
            trace: Vec::new(),
            schedule: RecordedSchedule::default(),
            tel,
            job_events,
            first_allot_seen: Vec::new(),
            seg_from: Vec::new(),
            seg_tasks: Vec::new(),
            cfg,
        })
    }

    /// Pre-size the per-job matrices for `n` further jobs (the batch
    /// driver knows the job count up front; online callers need not
    /// bother).
    pub fn reserve(&mut self, n: usize) {
        self.jobs.reserve(n);
        self.states.reserve(n);
        self.order.reserve(n);
        self.completions.reserve(n);
        self.frozen.reserve(n * self.k);
        self.frozen_set.reserve(n);
        self.first_allot_seen.reserve(n);
        self.seg_from.reserve(n);
        self.seg_tasks.reserve(n);
    }

    /// Inject one job; returns its index (dense, in injection order).
    ///
    /// The job becomes visible to the scheduler at step `release + 1`;
    /// `release` must be at or after [`now`](LiveSimulation::now).
    pub fn inject(&mut self, spec: JobSpec) -> Result<usize, SimError> {
        let idx = self.jobs.len();
        crate::engine::check_job(idx, &spec, self.k)?;
        if spec.release < self.t {
            return Err(SimError::ReleaseInPast {
                release: spec.release,
                now: self.t,
            });
        }
        self.states
            .push(ExecutionState::new(&spec.dag, self.cfg.policy));
        self.completions.push(0);
        self.first_allot_seen.push(false);
        self.seg_from.push(0);
        self.seg_tasks.push(0);
        self.frozen.extend(std::iter::repeat_n(0, self.k));
        self.frozen_set.push(false);
        if self.feedback_delta.is_some() {
            self.est.extend(std::iter::repeat_n(0, self.k));
            self.est_set.push(false);
            self.reported.extend(std::iter::repeat_n(0, self.k));
            self.usage.extend(std::iter::repeat_n(0, self.k));
            self.usage_init.push(false);
        }
        // Sorted insert by (release, index) among the pending tail.
        let key = (spec.release, idx);
        let jobs = &self.jobs;
        let pos = self.next_arrival
            + self.order[self.next_arrival..].partition_point(|&j| (jobs[j].release, j) < key);
        self.order.insert(pos, idx);
        self.jobs.push(spec);
        self.remaining += 1;
        Ok(idx)
    }

    /// The engine's current virtual time (last completed step).
    pub fn now(&self) -> Time {
        self.t
    }

    /// `true` while any injected job is incomplete.
    pub fn has_work(&self) -> bool {
        self.remaining > 0
    }

    /// Number of currently active (released, incomplete) jobs.
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Number of injected jobs whose release is still in the future.
    pub fn pending_jobs(&self) -> usize {
        self.order.len() - self.next_arrival
    }

    /// Total jobs injected so far.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// The injected jobs, in injection order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Completion time of job `idx`, if it has finished.
    pub fn completion(&self, idx: usize) -> Option<Time> {
        match self.completions.get(idx) {
            Some(&c) if c > 0 => Some(c),
            _ => None,
        }
    }

    /// Busy (simulated) steps so far.
    pub fn busy_steps(&self) -> u64 {
        self.busy_steps
    }

    /// Idle (fast-forwarded) steps so far.
    pub fn idle_steps(&self) -> u64 {
        self.idle_steps
    }

    /// The machine description.
    pub fn resources(&self) -> &Resources {
        &self.res
    }

    /// Sum the *instantaneous* per-category desires of the active jobs
    /// into `out` (resized to `K`). This is the paper's `Σi d(Ji, α, t)`
    /// read straight from the incrementally maintained ready counts —
    /// independent of the desire model the scheduler is shown.
    pub fn desire_totals_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.k, 0);
        for &idx in &self.active {
            for (tot, &d) in out.iter_mut().zip(self.states[idx].desires()) {
                *tot += u64::from(d);
            }
        }
    }

    /// Per-category allotment totals of the most recently executed
    /// step (zeros before the first step).
    pub fn last_allotted(&self) -> &[u32] {
        &self.allotted_totals
    }

    /// Cumulative per-category executed task counts.
    pub fn executed_by_category(&self) -> &[u64] {
        &self.executed_by_category
    }

    /// Cumulative per-category allotted processor-steps.
    pub fn allotted_by_category(&self) -> &[u64] {
        &self.allotted_by_category
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// One unit step of the engine: the shared core both clock modes
    /// are built on. Returns whether a decision was taken.
    pub(crate) fn step_once(&mut self, scheduler: &mut dyn Scheduler) -> bool {
        // Phase lap chain: `ready` (arrival activation, desire
        // digestion, view building) → `decide` (scheduler allot, on
        // decision steps only) → `execute` (freeze/commit, task
        // execution, accounting). One clock read per boundary, opened
        // as the first statement so the phases tile the step's wall
        // time exactly; disabled recorders never read the clock.
        let mut lap = self.cfg.spans.start();
        assert!(self.remaining > 0, "step() called with no incomplete jobs");
        let k = self.k;
        let row_range = |idx: usize| idx * k..(idx + 1) * k;

        // Fast-forward idle intervals.
        if self.active.is_empty() {
            let r = self.jobs[self.order[self.next_arrival]].release;
            let t = self.t;
            if r > t {
                self.idle_steps += r - t;
                self.tel
                    .emit(|| TelemetryEvent::IdleSkip { from: t, to: r });
                self.t = r;
            }
        }
        self.t += 1;
        let t = self.t;
        assert!(
            t <= self.cfg.max_steps,
            "simulation exceeded max_steps={} under scheduler '{}'",
            self.cfg.max_steps,
            scheduler.name()
        );

        // Activate arrivals: release < t means available at step t.
        while self.next_arrival < self.order.len()
            && self.jobs[self.order[self.next_arrival]].release < t
        {
            let idx = self.order[self.next_arrival];
            let pos = self.active.partition_point(|&x| x < idx);
            self.active.insert(pos, idx);
            scheduler.on_arrival(JobId(idx as u32), t);
            self.tel
                .emit(|| TelemetryEvent::JobReleased { t, job: idx as u32 });
            self.next_arrival += 1;
        }
        debug_assert!(!self.active.is_empty(), "stepping with no active jobs");
        let active_jobs = self.active.len() as u32;
        self.tel
            .emit(|| TelemetryEvent::StepStart { t, active_jobs });

        // Quantum boundary: consult the scheduler and freeze allotments.
        let decided = t >= self.next_decision;
        if decided {
            // ktrace: a decision re-freezes every row, so the open
            // execution segments are truncated at the boundary — the
            // per-quantum segment of each job ends at `t - 1`.
            if self.job_events {
                for i in 0..self.active.len() {
                    self.close_segment(self.active[i], t - 1);
                }
            }

            // A-Greedy: digest the quantum that just ended, then give a
            // job's first decision the estimate 1 in every category.
            if let Some(delta) = self.feedback_delta {
                let elapsed = t.saturating_sub(self.last_decision);
                for &idx in &self.active {
                    let r = row_range(idx);
                    if elapsed > 0 && self.frozen_set[idx] && self.est_set[idx] {
                        for c in r.clone() {
                            let fr = self.frozen[c];
                            if fr < self.reported[c] {
                                continue; // deprived: estimate unchanged
                            }
                            let granted = u64::from(fr) * elapsed;
                            let e = &mut self.est[c];
                            if (self.usage[c] as f64) >= delta * granted as f64 {
                                *e = e.saturating_mul(2).min(EST_CAP);
                            } else {
                                *e = (*e / 2).max(1);
                            }
                        }
                        self.usage[r.clone()].fill(0);
                    }
                    if !self.est_set[idx] {
                        self.est[r].fill(1);
                        self.est_set[idx] = true;
                    }
                    self.usage_init[idx] = true;
                }
            }

            // Build the non-clairvoyant views. Each borrows its desires
            // in place: the incrementally maintained ready counts, or
            // the A-Greedy estimate row. The views live in the reused
            // `self.views` allocation: an empty `Vec<JobView<'static>>`
            // re-collected into a `Vec<JobView<'_>>` (same layout, so
            // the collect reuses the buffer and allocates nothing), and
            // handed back the same way once the scheduler is done.
            let (jobs, states, est) = (&self.jobs, &self.states, &self.est);
            let mut views: Vec<JobView<'_>> = std::mem::take(&mut self.views)
                .into_iter()
                .map(|_| unreachable!("the views buffer is empty between decisions"))
                .collect();
            views.extend(self.active.iter().map(|&idx| JobView {
                id: JobId(idx as u32),
                release: jobs[idx].release,
                desires: match self.feedback_delta {
                    None => states[idx].desires(),
                    Some(_) => &est[row_range(idx)],
                },
            }));

            self.out.reset(self.active.len());
            lap = self.cfg.spans.lap(SpanKind::Ready, lap);
            scheduler.allot(t, &views, &self.res, &mut self.out);
            lap = self.cfg.spans.lap(SpanKind::Decide, lap);
            views.clear();
            self.views = views.into_iter().map(|_| unreachable!()).collect();

            // Freeze the decision for the quantum (row copies into the
            // flat matrices — no per-decision allocation), folding the
            // per-category totals for the over-allotment check into
            // the same pass over the rows.
            // Preemption accounting folds in here too: within a quantum
            // the frozen rows never change, so processors can only be
            // withdrawn at a decision boundary — comparing the old
            // frozen row against the new one counts exactly the
            // step-over-step losses (a job that *finished* has
            // `frozen_set` cleared and is not counted).
            self.decision_totals.fill(0);
            for (slot, &idx) in self.active.iter().enumerate() {
                let r = row_range(idx);
                let row = self.out.row(slot);
                for (tot, &a) in self.decision_totals.iter_mut().zip(row) {
                    *tot += u64::from(a);
                }
                if self.frozen_set[idx] {
                    for (&p, &a) in self.frozen[r.clone()].iter().zip(row) {
                        self.preemptions += u64::from(p.saturating_sub(a));
                    }
                }
                self.frozen[r.clone()].copy_from_slice(row);
                self.frozen_set[idx] = true;
                if self.job_events && !self.first_allot_seen[idx] && row.iter().any(|&a| a > 0) {
                    self.first_allot_seen[idx] = true;
                    self.tel
                        .emit(|| TelemetryEvent::JobFirstAllot { t, job: idx as u32 });
                }
                if self.feedback_delta.is_some() {
                    self.reported[r.clone()].copy_from_slice(&self.est[r]);
                }
            }

            // Contract: never allot more than Pα in any category.
            for cat in Category::all(k) {
                let total = self.decision_totals[cat.index()];
                assert!(
                    total <= u64::from(self.res.processors(cat)),
                    "scheduler '{}' over-allotted {cat}: {total} > {} at step {t}",
                    scheduler.name(),
                    self.res.processors(cat)
                );
            }
            self.last_decision = t;
            self.next_decision = t + self.cfg.quantum;
            // The allotted totals were summed while freezing the rows.
            for (tot, &d) in self.allotted_totals.iter_mut().zip(&self.decision_totals) {
                *tot = d as u32;
            }
        } else {
            lap = self.cfg.spans.lap(SpanKind::Ready, lap);
            self.recompute_allotted_totals();
        }

        // Execute the step against the flat frozen rows. A zero row (a
        // job that arrived mid-quantum, or one the decision gave
        // nothing) pops nothing, draws no RNG, records nothing and
        // cannot complete a non-empty job, so it is not executed at
        // all: under heavy load K-RAD serves at most Pα jobs per
        // category and the pass costs O(jobs served). Such a job only
        // reaches the ktrace bookkeeping, as an `n = 0` step — the rule
        // the event clock's `seg_live` set applies.
        self.step_executed_totals.fill(0);
        self.proc_counter.fill(0);
        let remaining = self.remaining;
        let mut step_total = 0u64;
        for i in 0..self.active.len() {
            let idx = self.active[i];
            if self.served(idx) {
                step_total += self.execute_row(idx, scheduler);
            } else {
                self.note_segment(idx, 0);
            }
        }
        self.end_step(step_total, self.remaining < remaining, scheduler);
        self.cfg.spans.finish(SpanKind::Execute, lap);
        decided
    }

    /// Whether job `idx`'s frozen row allots it anything: only such a
    /// job can execute before the next decision.
    fn served(&self, idx: usize) -> bool {
        self.frozen_set[idx]
            && self.frozen[idx * self.k..(idx + 1) * self.k]
                .iter()
                .any(|&a| a > 0)
    }

    /// Execute job `idx`'s frozen row at the current step, then do its
    /// per-job accounting: ktrace segment, executed totals, A-Greedy
    /// usage, schedule records and completion. The unit step and the
    /// event clock's plain steps both run it, so they draw the RNG and
    /// record in the same per-job order. Returns the tasks executed.
    fn execute_row(&mut self, idx: usize, scheduler: &mut dyn Scheduler) -> u64 {
        let t = self.t;
        let row = idx * self.k..(idx + 1) * self.k;
        self.exec_record.clear();
        let rec = self.cfg.record_schedule.then_some(&mut self.exec_record);
        let n = self.states[idx].execute_step(
            &self.jobs[idx].dag,
            &self.frozen[row.clone()],
            &mut self.rng,
            &mut self.executed_buf,
            rec,
        );
        self.note_segment(idx, n);
        for (tot, &e) in self.step_executed_totals.iter_mut().zip(&self.executed_buf) {
            *tot += e;
        }
        if self.feedback_delta.is_some() && self.usage_init[idx] {
            for (u, &e) in self.usage[row].iter_mut().zip(&self.executed_buf) {
                *u += u64::from(e);
            }
        }
        for &(cat, task) in &self.exec_record {
            let p = &mut self.proc_counter[cat.index()];
            self.schedule.records.push(ExecRecord {
                job: JobId(idx as u32),
                task,
                t,
                category: cat,
                processor: *p,
            });
            *p += 1;
        }
        if self.states[idx].is_complete() {
            self.complete_job(idx, scheduler);
        }
        n
    }

    /// ktrace: account the `n` tasks job `idx` executed at the current
    /// step. A step that executes nothing ends the open segment, if
    /// any, at the step before.
    fn note_segment(&mut self, idx: usize, n: u64) {
        if !self.job_events {
            return;
        }
        if n > 0 {
            if self.seg_tasks[idx] == 0 {
                self.seg_from[idx] = self.t;
            }
            self.seg_tasks[idx] += n;
        } else {
            self.close_segment(idx, self.t - 1);
        }
    }

    /// ktrace: emit job `idx`'s open execution segment, if any, as
    /// ending at step `to`.
    fn close_segment(&mut self, idx: usize, to: Time) {
        if self.seg_tasks[idx] > 0 {
            let tasks = std::mem::take(&mut self.seg_tasks[idx]);
            let from = self.seg_from[idx];
            self.tel.emit(|| TelemetryEvent::JobExecSegment {
                job: idx as u32,
                from,
                to,
                tasks,
            });
        }
    }

    /// The accounting that closes every executed step: cumulative
    /// totals, dropping completed jobs from `active`, stall detection,
    /// and the `StepEnd` event and trace record.
    fn end_step(&mut self, step_total: u64, any_completed: bool, scheduler: &mut dyn Scheduler) {
        let t = self.t;
        for (tot, &e) in self
            .executed_by_category
            .iter_mut()
            .zip(&self.step_executed_totals)
        {
            *tot += u64::from(e);
        }
        for (tot, &a) in self
            .allotted_by_category
            .iter_mut()
            .zip(&self.allotted_totals)
        {
            *tot += u64::from(a);
        }
        if any_completed {
            let states = &self.states;
            self.active.retain(|&idx| !states[idx].is_complete());
        }
        self.busy_steps += 1;
        if step_total == 0 && self.remaining > 0 {
            self.stalled += 1;
            assert!(
                self.stalled <= self.cfg.stall_limit,
                "scheduler '{}' stalled for {} consecutive steps at t={t}",
                scheduler.name(),
                self.stalled
            );
        } else {
            self.stalled = 0;
        }
        self.tel.emit(|| TelemetryEvent::StepEnd {
            t,
            allotted: self.allotted_totals.clone(),
            executed: self.step_executed_totals.clone(),
        });
        if self.cfg.record_trace {
            self.trace.push(StepTrace {
                t,
                active_jobs: (self.active.len() + usize::from(any_completed)) as u32,
                allotted: self.allotted_totals.clone(),
                executed: self.step_executed_totals.clone(),
            });
        }
    }

    /// Advance the clock by one *event* and return a typed
    /// [`QuantumReport`] of what happened.
    ///
    /// Under [`TimePolicy::UnitStep`] (the default) this is exactly
    /// one unit step. Under
    /// [`TimePolicy::EventDriven`] one call executes the next event
    /// step — a decision boundary, a job activation, or an idle
    /// fast-forward — and then batches the *plain* steps up to the
    /// next event horizon `min(next decision, next activation)` in one
    /// pass: jobs that drain under their frozen rows leave the inner
    /// loop permanently, and once every active job is drained the rest
    /// of the quantum is accounted in O(1). Outcomes, traces,
    /// schedules, and telemetry streams are bit-for-bit identical
    /// under both policies.
    ///
    /// # Panics
    /// Panics if called with no work ([`has_work`](Self::has_work) is
    /// the caller's guard), if the scheduler over-allots a category,
    /// stalls past `cfg.stall_limit`, or `cfg.max_steps` is exceeded —
    /// the same contract enforcement as the batch path.
    pub fn advance(&mut self, scheduler: &mut dyn Scheduler) -> &QuantumReport {
        self.begin_report();
        self.advance_inner(scheduler);
        self.finish_report()
    }

    /// Advance until virtual time reaches at least `target` (or all
    /// work completes), returning one merged [`QuantumReport`] for the
    /// whole span. A single event (e.g. an idle fast-forward to a far
    /// release) may overshoot `target`, exactly as repeated unit
    /// steps would.
    pub fn run_until(&mut self, target: Time, scheduler: &mut dyn Scheduler) -> &QuantumReport {
        self.begin_report();
        while self.remaining > 0 && self.t < target {
            self.advance_inner(scheduler);
        }
        self.finish_report()
    }

    /// The next *scheduled* event time: the earliest step at which the
    /// engine must consult the scheduler or activate an arrival.
    /// `None` when no work remains. Task completions are not
    /// predictable in the non-clairvoyant model — they are discovered
    /// (and reported) by advancing.
    pub fn next_event(&self) -> Option<Time> {
        if self.remaining == 0 {
            return None;
        }
        if self.active.is_empty() {
            // The next event is the activation step of the earliest
            // pending arrival (after any idle fast-forward).
            let r = self.jobs[self.order[self.next_arrival]].release;
            return Some(r.max(self.t) + 1);
        }
        Some(self.plain_horizon().max(self.t + 1))
    }

    /// Reset the report accumulators for a fresh `advance`/`run_until`
    /// call. `busy`/`idle` temporarily hold the starting counters;
    /// `finish_report` converts them to deltas.
    fn begin_report(&mut self) {
        self.report.from = self.t;
        self.report.to = self.t;
        self.report.decided = false;
        self.report.completed.clear();
        self.report.busy = self.busy_steps;
        self.report.idle = self.idle_steps;
    }

    fn finish_report(&mut self) -> &QuantumReport {
        self.report.to = self.t;
        self.report.busy = self.busy_steps - self.report.busy;
        self.report.idle = self.idle_steps - self.report.idle;
        self.report.allotted.clear();
        self.report
            .allotted
            .extend_from_slice(&self.allotted_totals);
        self.report.time_policy = self.cfg.time_policy;
        &self.report
    }

    /// One event step, plus (event-driven only) the batched plain
    /// steps up to the next event horizon.
    fn advance_inner(&mut self, scheduler: &mut dyn Scheduler) {
        if self.step_once(scheduler) {
            self.report.decided = true;
        }
        if self.cfg.time_policy == TimePolicy::EventDriven {
            while self.remaining > 0 && !self.active.is_empty() {
                let horizon = self.plain_horizon();
                if self.t + 1 >= horizon {
                    break;
                }
                self.run_plain_segment(horizon - 1 - self.t, scheduler);
            }
        }
    }

    /// First step index that is *not* plain: the next decision
    /// boundary or the activation step of the next pending arrival.
    /// Steps strictly before the horizon change no frozen state and
    /// admit no arrivals, so they may be batched.
    fn plain_horizon(&self) -> Time {
        let activation = match self.order.get(self.next_arrival) {
            Some(&j) => self.jobs[j].release + 1,
            None => Time::MAX,
        };
        self.next_decision.min(activation)
    }

    /// Execute up to `n` plain steps (no decision, no arrival) in one
    /// batched pass. May stop early when the active set empties; every
    /// state transition, panic, telemetry event, and trace record is
    /// bit-for-bit what `n` unit steps would have produced.
    fn run_plain_segment(&mut self, n: u64, scheduler: &mut dyn Scheduler) {
        debug_assert!(n > 0 && !self.active.is_empty());
        let lap = self.cfg.spans.start();
        let k = self.k;
        let observed = self.cfg.record_trace || self.cfg.record_schedule || self.tel.is_enabled();
        // A job that executes zero tasks on a plain step can never
        // execute again before the next decision: its allotment row is
        // frozen and its ready pools only grow through its own
        // executions. So the live set starts as the active jobs with a
        // nonzero frozen row and only ever shrinks.
        self.seg_live.clear();
        for i in 0..self.active.len() {
            if self.served(self.active[i]) {
                self.seg_live.push(self.active[i]);
            }
        }
        self.recompute_allotted_totals();
        let mut left = n;
        while left > 0 && self.remaining > 0 && !self.active.is_empty() {
            if self.seg_live.is_empty() {
                // Nothing can execute until the horizon: O(1) jump.
                self.bulk_idle_active_steps(left, scheduler, observed);
                break;
            }
            if !observed && self.seg_live.len() == 1 {
                // Single live job, no per-step observers: hand the
                // whole remaining segment to the batched kdag run.
                // Any drained co-active jobs draw no RNG and record
                // nothing, so skipping them is observationally exact.
                let idx = self.seg_live[0];
                let cap = left.min(self.cfg.max_steps.saturating_sub(self.t));
                if cap == 0 {
                    self.t += 1;
                    panic!(
                        "simulation exceeded max_steps={} under scheduler '{}'",
                        self.cfg.max_steps,
                        scheduler.name()
                    );
                }
                let row = idx * k..(idx + 1) * k;
                self.executed_buf.fill(0);
                let rep = self.states[idx].execute_run(
                    &self.jobs[idx].dag,
                    &self.frozen[row.clone()],
                    cap,
                    &mut self.rng,
                    &mut self.executed_buf,
                );
                self.t += rep.steps;
                self.busy_steps += rep.steps;
                if rep.steps > 0 {
                    self.stalled = 0;
                }
                left -= rep.steps;
                for (tot, &e) in self.executed_by_category.iter_mut().zip(&self.executed_buf) {
                    *tot += u64::from(e);
                }
                if self.feedback_delta.is_some() && self.usage_init[idx] {
                    for (u, &e) in self.usage[row].iter_mut().zip(&self.executed_buf) {
                        *u += u64::from(e);
                    }
                }
                for (tot, &a) in self
                    .allotted_by_category
                    .iter_mut()
                    .zip(&self.allotted_totals)
                {
                    *tot += u64::from(a) * rep.steps;
                }
                if rep.completed {
                    self.complete_job(idx, scheduler);
                    self.seg_live.clear();
                    self.active.retain(|&x| x != idx);
                    self.recompute_allotted_totals();
                } else if rep.steps < cap {
                    // Drained: the next step executes nothing, forever
                    // within this quantum.
                    self.seg_live.clear();
                } else if left > 0 {
                    // `cap` was the max_steps allowance, not the
                    // horizon: the next step trips the cap.
                    self.t += 1;
                    panic!(
                        "simulation exceeded max_steps={} under scheduler '{}'",
                        self.cfg.max_steps,
                        scheduler.name()
                    );
                }
                continue;
            }
            self.plain_step_lean(scheduler);
            left -= 1;
        }
        self.cfg.spans.finish(SpanKind::Execute, lap);
    }

    /// One plain step, step-major over the live jobs — used when
    /// per-step observers (trace, schedule, telemetry) are on or more
    /// than one job is live, both of which pin the exact per-step,
    /// per-job order of RNG draws and records.
    fn plain_step_lean(&mut self, scheduler: &mut dyn Scheduler) {
        self.t += 1;
        let t = self.t;
        assert!(
            t <= self.cfg.max_steps,
            "simulation exceeded max_steps={} under scheduler '{}'",
            self.cfg.max_steps,
            scheduler.name()
        );
        let active_jobs = self.active.len() as u32;
        self.tel
            .emit(|| TelemetryEvent::StepStart { t, active_jobs });
        self.step_executed_totals.fill(0);
        self.proc_counter.fill(0);
        let remaining = self.remaining;
        let mut step_total = 0u64;
        let mut w = 0usize;
        for i in 0..self.seg_live.len() {
            let idx = self.seg_live[i];
            let n = self.execute_row(idx, scheduler);
            step_total += n;
            // Drained (`n == 0`) and completed jobs leave the live set.
            if n > 0 && !self.states[idx].is_complete() {
                self.seg_live[w] = idx;
                w += 1;
            }
        }
        self.seg_live.truncate(w);
        let any_completed = self.remaining < remaining;
        self.end_step(step_total, any_completed, scheduler);
        if any_completed {
            self.recompute_allotted_totals();
        }
    }

    /// Account `m` plain steps on which every active job is drained —
    /// state-wise an O(1) jump, with per-step telemetry/trace emitted
    /// only when observers are on, and the unit stepper's stall/cap
    /// panics reproduced at their exact times.
    fn bulk_idle_active_steps(&mut self, m: u64, scheduler: &mut dyn Scheduler, observed: bool) {
        debug_assert!(self.remaining > 0 && !self.active.is_empty());
        // Steps that pass each per-step assert: `max_ok` more steps
        // keep `t <= max_steps`; `stall_ok` more keep the stall counter
        // within the limit.
        let max_ok = self.cfg.max_steps.saturating_sub(self.t);
        let stall_ok = self.cfg.stall_limit.saturating_sub(self.stalled);
        if m <= max_ok && m <= stall_ok {
            self.apply_zero_steps(m, observed);
            return;
        }
        if max_ok <= stall_ok {
            // The step cap trips first: it asserts immediately after
            // the time increment, before any accounting.
            self.apply_zero_steps(max_ok.min(m), observed);
            self.t += 1;
            panic!(
                "simulation exceeded max_steps={} under scheduler '{}'",
                self.cfg.max_steps,
                scheduler.name()
            );
        }
        // The stall limit trips first: the failing step completes its
        // accounting before the assert, exactly like the unit stepper.
        self.apply_zero_steps(stall_ok + 1, observed);
        panic!(
            "scheduler '{}' stalled for {} consecutive steps at t={}",
            scheduler.name(),
            self.stalled,
            self.t
        );
    }

    /// Pure accounting for `m` zero-execution steps (no asserts).
    fn apply_zero_steps(&mut self, m: u64, observed: bool) {
        if m == 0 {
            return;
        }
        let t0 = self.t;
        self.t += m;
        self.busy_steps += m;
        self.stalled += m;
        for (tot, &a) in self
            .allotted_by_category
            .iter_mut()
            .zip(&self.allotted_totals)
        {
            *tot += u64::from(a) * m;
        }
        if observed {
            let active_jobs = self.active.len() as u32;
            for t in t0 + 1..=t0 + m {
                self.tel
                    .emit(|| TelemetryEvent::StepStart { t, active_jobs });
                self.tel.emit(|| TelemetryEvent::StepEnd {
                    t,
                    allotted: self.allotted_totals.clone(),
                    executed: vec![0; self.k],
                });
                if self.cfg.record_trace {
                    self.trace.push(StepTrace {
                        t,
                        active_jobs,
                        allotted: self.allotted_totals.clone(),
                        executed: vec![0; self.k],
                    });
                }
            }
        }
    }

    /// Completion bookkeeping shared by every path. Does *not* remove
    /// the job from `active`/`seg_live` — callers own those structures.
    /// Losing processors by *finishing* is not a preemption: clearing
    /// `frozen_set` excludes the job from the next decision's
    /// old-vs-new comparison.
    fn complete_job(&mut self, idx: usize, scheduler: &mut dyn Scheduler) {
        let t = self.t;
        self.completions[idx] = t;
        scheduler.on_completion(JobId(idx as u32), t);
        self.close_segment(idx, t);
        let release = self.jobs[idx].release;
        self.tel.emit(|| TelemetryEvent::JobCompleted {
            t,
            job: idx as u32,
            response: t - release,
        });
        self.remaining -= 1;
        self.frozen_set[idx] = false;
        if self.feedback_delta.is_some() {
            self.est_set[idx] = false;
        }
        self.report.completed.push((idx, t));
    }

    /// Rebuild the per-category allotment totals from the frozen rows
    /// of the active jobs (what the unit stepper computes per
    /// non-decision step).
    fn recompute_allotted_totals(&mut self) {
        let k = self.k;
        self.allotted_totals.fill(0);
        for &idx in &self.active {
            if self.frozen_set[idx] {
                for (tot, &a) in self
                    .allotted_totals
                    .iter_mut()
                    .zip(&self.frozen[idx * k..(idx + 1) * k])
                {
                    *tot += a;
                }
            }
        }
    }

    /// Consume the engine and produce the standard [`SimOutcome`]
    /// (attributed to `scheduler_name`). Normally called once all work
    /// is done, but a partial outcome mid-run is well-formed too —
    /// incomplete jobs simply carry completion time 0.
    pub fn into_outcome(self, scheduler_name: &str) -> SimOutcome {
        SimOutcome {
            scheduler: scheduler_name.to_string(),
            makespan: self.t,
            releases: self.jobs.iter().map(|j| j.release).collect(),
            completions: self.completions,
            executed_by_category: self.executed_by_category,
            allotted_by_category: self.allotted_by_category,
            busy_steps: self.busy_steps,
            idle_steps: self.idle_steps,
            preemptions: self.preemptions,
            trace: self.cfg.record_trace.then_some(self.trace),
            schedule: self.cfg.record_schedule.then_some(self.schedule),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use kdag::DagBuilder;

    /// Gives every job its full desire, clamped to capacity.
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

    fn diamond() -> kdag::JobDag {
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
    fn live_injection_matches_batch_simulation() {
        // Inject jobs online exactly at their release times; the
        // outcome must equal the batch run given the same specs.
        let releases = [0u64, 0, 3, 7, 7, 20];
        let jobs: Vec<JobSpec> = releases
            .iter()
            .map(|&r| JobSpec::released(diamond(), r))
            .collect();
        let res = Resources::uniform(2, 2);
        let cfg = SimConfig::default().with_quantum(3);

        let batch = simulate(&mut GreedyAll, &jobs, &res, &cfg);

        let mut live = LiveSimulation::new(res, cfg).unwrap();
        let mut sched = GreedyAll;
        let mut next = 0usize;
        loop {
            while next < jobs.len() && jobs[next].release <= live.now() {
                live.inject(jobs[next].clone()).unwrap();
                next += 1;
            }
            if !live.has_work() {
                if next >= jobs.len() {
                    break;
                }
                // Idle at the service layer: the next arrival defines
                // the new virtual time, exactly like the batch
                // fast-forward.
                live.inject(jobs[next].clone()).unwrap();
                next += 1;
                continue;
            }
            live.advance(&mut sched);
        }
        let online = live.into_outcome("greedy-all");
        assert_eq!(online.completions, batch.completions);
        assert_eq!(online.makespan, batch.makespan);
        assert_eq!(online.executed_by_category, batch.executed_by_category);
        assert_eq!(online.preemptions, batch.preemptions);
        assert_eq!(online.busy_steps, batch.busy_steps);
        assert_eq!(online.idle_steps, batch.idle_steps);
    }

    #[test]
    fn advance_reports_completions_and_time() {
        let mut live = LiveSimulation::new(Resources::uniform(2, 4), SimConfig::default()).unwrap();
        live.inject(JobSpec::batched(diamond())).unwrap();
        live.inject(JobSpec::released(diamond(), 10)).unwrap();
        let mut sched = GreedyAll;
        let mut done = Vec::new();
        let mut idle = 0u64;
        while live.has_work() {
            let report = live.advance(&mut sched).clone();
            assert_eq!(report.to, live.now());
            assert!(report.to > report.from);
            assert_eq!(report.time_policy, TimePolicy::UnitStep);
            idle += report.idle;
            done.extend(report.completed_jobs());
        }
        assert_eq!(done, vec![0, 1]);
        assert_eq!(live.completion(0), Some(3));
        assert_eq!(live.completion(1), Some(13));
        assert_eq!(idle, 7, "gap between t=3 and release 10");
    }

    #[test]
    fn next_event_and_run_until_walk_the_horizon() {
        let cfg = SimConfig::default()
            .with_quantum(5)
            .with_time_policy(TimePolicy::EventDriven);
        let mut live = LiveSimulation::new(Resources::uniform(1, 2), cfg).unwrap();
        let flat = |n: usize| {
            let mut b = DagBuilder::new(1);
            b.add_tasks(Category(0), n);
            b.build().unwrap()
        };
        live.inject(JobSpec::batched(flat(20))).unwrap();
        live.inject(JobSpec::released(flat(2), 2)).unwrap();
        // Before any step: the first event is step 1 (activation).
        assert_eq!(live.next_event(), Some(1));
        let report = live.advance(&mut GreedyAll);
        // Decision at t=1 froze allotments until t=6; job 1 activates
        // at step 3, so the first advance batches steps 1..=2.
        assert!(report.decided);
        assert_eq!((report.from, report.to), (0, 2));
        assert_eq!(live.next_event(), Some(3));
        // run_until pushes through activation + boundary events.
        let report = live.run_until(7, &mut GreedyAll);
        assert_eq!(report.from, 2);
        assert!(report.to >= 7);
        assert!(report.decided, "boundary at t=6 falls in this span");
        assert_eq!(live.next_event(), Some(11), "next boundary after t=6");
        while live.has_work() {
            live.advance(&mut GreedyAll);
        }
        assert_eq!(live.next_event(), None);
        let o = live.into_outcome("greedy-all");
        // 22 tasks on 2 processors, serialized by the shared category.
        assert_eq!(o.busy_steps, 11);
    }

    #[test]
    fn inject_rejects_past_releases_and_k_mismatch() {
        let mut live = LiveSimulation::new(Resources::uniform(2, 4), SimConfig::default()).unwrap();
        live.inject(JobSpec::batched(diamond())).unwrap();
        let mut sched = GreedyAll;
        live.advance(&mut sched);
        assert_eq!(
            live.inject(JobSpec::batched(diamond())).unwrap_err(),
            SimError::ReleaseInPast { release: 0, now: 1 }
        );
        let mut b = DagBuilder::new(3);
        b.add_task(Category(0));
        let err = live
            .inject(JobSpec::released(b.build().unwrap(), 5))
            .unwrap_err();
        assert!(matches!(err, SimError::CategoryMismatch { job: 1, .. }));
        assert!(err.to_string().contains("categories but machine"));
    }

    #[test]
    fn spans_and_live_gauge_accessors_track_the_run() {
        use ktelemetry::{MetricsRegistry, SpanRecorder};
        let reg = MetricsRegistry::new();
        let cfg = SimConfig::default().with_spans(SpanRecorder::for_registry(&reg));
        let mut live = LiveSimulation::new(Resources::uniform(2, 2), cfg.clone()).unwrap();
        live.inject(JobSpec::batched(diamond())).unwrap();

        let mut desires = Vec::new();
        live.desire_totals_into(&mut desires);
        assert_eq!(desires, vec![0, 0], "nothing active before the first step");
        assert_eq!(live.last_allotted(), &[0, 0]);

        let mut sched = GreedyAll;
        live.advance(&mut sched);
        // After step 1 the diamond's root ran: one category-0 task.
        assert_eq!(live.executed_by_category(), &[1, 0]);
        assert!(live.last_allotted()[0] >= 1);
        live.desire_totals_into(&mut desires);
        assert_eq!(desires, vec![0, 2], "both middle tasks are now ready");

        while live.has_work() {
            live.advance(&mut sched);
        }
        // Quantum 1 → one decision per busy step (3 for the diamond).
        assert_eq!(cfg.spans.count(SpanKind::Decide), 3);
        // The lap chain times ready/execute on *every* busy step.
        assert_eq!(cfg.spans.count(SpanKind::Ready), 3);
        assert_eq!(cfg.spans.count(SpanKind::Execute), 3);
        assert!(reg
            .render()
            .contains("krad_span_duration_us_count{span=\"decide\"} 3"));
        assert_eq!(live.executed_by_category(), &[2, 2]);
        assert_eq!(live.allotted_by_category(), &[2, 2]);
    }

    #[test]
    fn zero_quantum_is_rejected() {
        let cfg = SimConfig::default().with_quantum(0);
        assert!(matches!(
            LiveSimulation::new(Resources::uniform(1, 1), cfg),
            Err(SimError::ZeroQuantum)
        ));
    }

    #[test]
    fn trace_events_are_policy_invariant_and_well_formed() {
        use ktelemetry::assemble_traces;
        // Staggered releases exercise idle fast-forwards, mid-quantum
        // arrivals, and drained jobs in both clock modes.
        let releases = [0u64, 0, 3, 7, 20];
        let jobs: Vec<JobSpec> = releases
            .iter()
            .map(|&r| JobSpec::released(diamond(), r))
            .collect();
        let res = Resources::uniform(2, 2);
        let mut streams = Vec::new();
        for policy in [TimePolicy::UnitStep, TimePolicy::EventDriven] {
            let (tel, rec) = ktelemetry::TelemetryHandle::recording();
            let cfg = SimConfig::default()
                .with_quantum(3)
                .with_time_policy(policy)
                .with_telemetry(tel);
            simulate(&mut GreedyAll, &jobs, &res, &cfg);
            streams.push(rec.lock().unwrap().take());
        }
        assert_eq!(
            streams[0], streams[1],
            "telemetry streams must be identical under both clock modes"
        );
        let traces = assemble_traces(&streams[0]);
        assert_eq!(traces.len(), jobs.len());
        for tr in &traces {
            // The diamond has four tasks.
            tr.well_formed(4)
                .unwrap_or_else(|e| panic!("job {}: {e}", tr.job));
        }
    }

    #[test]
    fn late_injection_while_running_matches_batch() {
        // A job injected mid-run (release = now) must behave exactly
        // like a batch job with that release.
        let res = Resources::uniform(1, 2);
        let flat = |n: usize| {
            let mut b = DagBuilder::new(1);
            b.add_tasks(Category(0), n);
            b.build().unwrap()
        };
        let cfg = SimConfig::default().with_quantum(2);

        let mut live = LiveSimulation::new(res.clone(), cfg.clone()).unwrap();
        let mut sched = GreedyAll;
        live.inject(JobSpec::batched(flat(8))).unwrap();
        let mut injected_second = None;
        while live.has_work() {
            live.advance(&mut sched);
            if live.now() == 2 && injected_second.is_none() {
                let r = live.now();
                live.inject(JobSpec::released(flat(4), r)).unwrap();
                injected_second = Some(r);
            }
        }
        let online = live.into_outcome("greedy-all");

        let jobs = vec![
            JobSpec::batched(flat(8)),
            JobSpec::released(flat(4), injected_second.unwrap()),
        ];
        let batch = simulate(&mut GreedyAll, &jobs, &res, &cfg);
        assert_eq!(online.completions, batch.completions);
        assert_eq!(online.makespan, batch.makespan);
    }
}
