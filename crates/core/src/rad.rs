//! RAD for a single resource category: DEQ + marked round-robin cycles.

use crate::deq::{deq_allot_scratch, satisfied_deprived};
use kdag::{Category, JobId};
use ksim::{AllotmentMatrix, JobView, Time};
use ktelemetry::{SchedulerMode, SpanKind, SpanRecorder, TelemetryEvent, TelemetryHandle};

/// Job id → view slot lookup for one decision, built once by
/// [`SlotTable::fill`] and shared by the RAD instances of every
/// category.
///
/// Entries persist across decisions; one left over from an earlier
/// decision is recognised by checking the view at the slot it names.
#[derive(Clone, Debug, Default)]
pub struct SlotTable {
    slot: Vec<u32>,
}

impl SlotTable {
    /// An empty table.
    pub fn new() -> Self {
        SlotTable::default()
    }

    /// Record the slot of every view: one write per view.
    ///
    /// `views` must be sorted by job id (the engine guarantees this),
    /// so the last view carries the largest id.
    pub fn fill(&mut self, views: &[JobView<'_>]) {
        debug_assert!(
            views.windows(2).all(|w| w[0].id < w[1].id),
            "views must be sorted by job id"
        );
        let len = views.last().map_or(0, |v| v.id.index() + 1);
        if self.slot.len() < len {
            self.slot.resize(len, u32::MAX);
        }
        for (slot, v) in views.iter().enumerate() {
            self.slot[v.id.index()] = slot as u32;
        }
    }

    /// One more than the largest job id the table has seen.
    pub(crate) fn len(&self) -> usize {
        self.slot.len()
    }

    /// The slot of job `id` in `views`, the views last passed to
    /// [`fill`](SlotTable::fill).
    pub(crate) fn get(&self, id: JobId, views: &[JobView<'_>]) -> Option<usize> {
        let slot = *self.slot.get(id.index())? as usize;
        (slot < views.len() && views[slot].id == id).then_some(slot)
    }
}

/// The RAD scheduler state for one processor category `α`.
///
/// Faithful to the paper's Figure 2 pseudo-code:
///
/// ```text
/// RAD(α, t, J, P)
///   Q  ← unmarked α-active jobs
///   Q' ← marked α-active jobs
///   if |Q| > P → ROUND-ROBIN(first P of Q): 1 processor each, mark
///   else       → move min(|Q'|, P − |Q|) jobs from Q' to Q;
///                DEQ(Q, P); unmark all jobs   (the RR cycle ends)
/// ```
///
/// Jobs are kept in a stable arrival-ordered queue; "first P jobs"
/// means first in that order. Marks identify jobs already served in the
/// current round-robin cycle so every α-active job runs exactly once
/// per cycle (fairness under heavy load).
#[derive(Clone, Debug)]
pub struct RadState {
    cat: Category,
    /// Known uncompleted jobs in arrival order.
    queue: Vec<JobId>,
    /// Per-job "already served in the current RR cycle" flags, indexed
    /// by job id (flat flags instead of a hash set — mark tests sit on
    /// the per-step hot path).
    marked: Vec<bool>,
    /// Number of set entries in `marked`.
    marked_count: u32,
    /// Rotation counter for DEQ's remainder distribution.
    spill: usize,
    /// Scratch: desires of the DEQ participants.
    deq_desires: Vec<u32>,
    /// Scratch: DEQ output.
    deq_out: Vec<u32>,
    /// Scratch: DEQ sort order.
    deq_order: Vec<u32>,
    /// Scratch: `Q` — unmarked α-active `(id, slot)`, queue order.
    scratch_q: Vec<(JobId, usize)>,
    /// Scratch: `Q'` — marked α-active `(id, slot)`, queue order.
    scratch_marked: Vec<(JobId, usize)>,
    /// Branch taken by the previous decision (for transition events).
    mode: SchedulerMode,
    /// Decision-event sink (off by default).
    tel: TelemetryHandle,
    /// Span-duration recorder for `deq_allot`/`rr_cycle` (off by
    /// default: disabled, it never reads the clock).
    spans: SpanRecorder,
}

impl RadState {
    /// Create the RAD state for category `cat`.
    pub fn new(cat: Category) -> Self {
        RadState::with_telemetry(cat, TelemetryHandle::off())
    }

    /// Create the RAD state for category `cat`, emitting decision,
    /// mode-transition, and cycle-completion events into `tel`.
    pub fn with_telemetry(cat: Category, tel: TelemetryHandle) -> Self {
        RadState::with_instrumentation(cat, tel, SpanRecorder::off())
    }

    /// Create a fully instrumented RAD state: events into `tel`, and
    /// the durations of the DEQ-allotment and round-robin branches
    /// recorded as `deq_allot`/`rr_cycle` spans in `spans`.
    pub fn with_instrumentation(cat: Category, tel: TelemetryHandle, spans: SpanRecorder) -> Self {
        RadState {
            cat,
            queue: Vec::new(),
            marked: Vec::new(),
            marked_count: 0,
            spill: 0,
            deq_desires: Vec::new(),
            deq_out: Vec::new(),
            deq_order: Vec::new(),
            scratch_q: Vec::new(),
            scratch_marked: Vec::new(),
            mode: SchedulerMode::Deq,
            tel,
            spans,
        }
    }

    /// The branch the most recent decision took (starts as DEQ: a
    /// fresh category is unloaded).
    pub fn mode(&self) -> SchedulerMode {
        self.mode
    }

    /// The category this instance manages.
    pub fn category(&self) -> Category {
        self.cat
    }

    /// Register a newly released job (appended to the queue tail).
    pub fn job_arrived(&mut self, id: JobId) {
        self.queue.push(id);
    }

    /// Remove a completed job from the queue and marks.
    pub fn job_completed(&mut self, id: JobId) {
        self.queue.retain(|&x| x != id);
        if let Some(m) = self.marked.get_mut(id.index()) {
            if std::mem::take(m) {
                self.marked_count -= 1;
            }
        }
    }

    /// Number of jobs currently tracked (all uncompleted released
    /// jobs, α-active or not).
    pub fn tracked_jobs(&self) -> usize {
        self.queue.len()
    }

    /// `true` if the job has been served in the current RR cycle.
    pub fn is_marked(&self, id: JobId) -> bool {
        self.marked.get(id.index()).copied().unwrap_or(false)
    }

    /// Number of jobs served in the current RR cycle (marked jobs).
    pub fn marked_count(&self) -> u32 {
        self.marked_count
    }

    /// Compute this category's allotments for step `t`.
    ///
    /// `views` must be sorted by job id (the engine guarantees this)
    /// and `slots` must have been [filled](SlotTable::fill) from them;
    /// allotments are written into `out` at each job's slot. `t` is
    /// only stamped into telemetry events — the decision itself
    /// depends on nothing but the queue state and the desires.
    pub fn allot(
        &mut self,
        t: Time,
        views: &[JobView<'_>],
        slots: &SlotTable,
        p: u32,
        out: &mut AllotmentMatrix,
    ) {
        let cat = self.cat;
        if self.marked.len() < slots.len() {
            self.marked.resize(slots.len(), false);
        }

        // Q: unmarked α-active, Q': marked α-active, both in queue
        // order. Built in persistent scratch buffers so the per-step
        // hot path allocates nothing once they reach steady size.
        self.scratch_q.clear();
        self.scratch_marked.clear();
        for &id in &self.queue {
            let Some(slot) = slots.get(id, views) else {
                // Job released but not in views: impossible by
                // construction (queue is synced by the callbacks).
                debug_assert!(false, "queued job {id} missing from views");
                continue;
            };
            if views[slot].desire(cat) == 0 {
                continue; // α-inactive this step
            }
            if self.marked[id.index()] {
                self.scratch_marked.push((id, slot));
            } else {
                self.scratch_q.push((id, slot));
            }
        }

        // Mode bookkeeping: the branch about to be taken, compared to
        // the previous decision's branch.
        let new_mode = if self.scratch_q.len() > p as usize {
            SchedulerMode::RoundRobin
        } else {
            SchedulerMode::Deq
        };
        if new_mode != self.mode {
            let from = self.mode;
            let active_jobs = (self.scratch_q.len() + self.scratch_marked.len()) as u32;
            self.tel.emit(|| TelemetryEvent::ModeTransition {
                t,
                category: cat.0,
                from,
                to: new_mode,
                active_jobs,
            });
            self.mode = new_mode;
        }

        if self.scratch_q.len() > p as usize {
            // ROUND-ROBIN: one processor each to the first P of Q.
            let span_started = self.spans.start();
            for &(id, slot) in &self.scratch_q[..p as usize] {
                out.set(slot, cat, 1);
                // Jobs in Q are unmarked by construction.
                self.marked[id.index()] = true;
                self.marked_count += 1;
            }
            let q = &self.scratch_q;
            let q_marked = &self.scratch_marked;
            self.tel.emit(|| {
                let desire: u64 = q
                    .iter()
                    .chain(q_marked)
                    .map(|&(_, slot)| u64::from(views[slot].desire(cat)))
                    .sum();
                // A served job is satisfied only if one processor was
                // all it wanted; everyone else is deprived.
                let satisfied = q[..p as usize]
                    .iter()
                    .filter(|&&(_, slot)| views[slot].desire(cat) == 1)
                    .count() as u32;
                let jobs = (q.len() + q_marked.len()) as u32;
                TelemetryEvent::Decision {
                    t,
                    category: cat.0,
                    mode: SchedulerMode::RoundRobin,
                    jobs,
                    desire,
                    allotted: u64::from(p),
                    satisfied,
                    deprived: jobs - satisfied,
                }
            });
            self.spans.finish(SpanKind::RrCycle, span_started);
        } else {
            // Cycle completion: top up with marked jobs, then DEQ.
            let span_started = self.spans.start();
            let take = self
                .scratch_marked
                .len()
                .min(p as usize - self.scratch_q.len());
            self.scratch_q
                .extend_from_slice(&self.scratch_marked[..take]);
            self.deq_desires.clear();
            self.deq_desires.extend(
                self.scratch_q
                    .iter()
                    .map(|&(_, slot)| views[slot].desire(cat)),
            );
            self.deq_out.clear();
            self.deq_out.resize(self.scratch_q.len(), 0);
            deq_allot_scratch(
                &self.deq_desires,
                p,
                self.spill,
                &mut self.deq_order,
                &mut self.deq_out,
            );
            self.spill = self.spill.wrapping_add(1);
            for (&(_, slot), &a) in self.scratch_q.iter().zip(&self.deq_out) {
                out.set(slot, cat, a);
            }
            self.spans.finish(SpanKind::DeqAllot, span_started);
            if !self.scratch_q.is_empty() {
                let desires = &self.deq_desires;
                let allots = &self.deq_out;
                let jobs = self.scratch_q.len() as u32;
                self.tel.emit(|| {
                    let (satisfied, deprived) = satisfied_deprived(desires, allots);
                    TelemetryEvent::Decision {
                        t,
                        category: cat.0,
                        mode: SchedulerMode::Deq,
                        jobs,
                        desire: desires.iter().map(|&d| u64::from(d)).sum(),
                        allotted: allots.iter().map(|&a| u64::from(a)).sum(),
                        satisfied,
                        deprived,
                    }
                });
            }
            // Taking the DEQ branch ends the round-robin cycle: every
            // mark placed during the cycle is cleared. Marked jobs are
            // queued jobs (completion drops both), so walking the queue
            // costs O(live jobs), not O(highest job id ever seen).
            if self.marked_count > 0 {
                let served = self.marked_count;
                self.tel.emit(|| TelemetryEvent::RrCycleComplete {
                    t,
                    category: cat.0,
                    served,
                });
                for &id in &self.queue {
                    if let Some(m) = self.marked.get_mut(id.index()) {
                        *m = false;
                    }
                }
                self.marked_count = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::Resources;

    /// Drive a RadState directly with synthetic desires.
    struct Harness {
        rad: RadState,
        k: usize,
        p: u32,
        t: Time,
    }

    impl Harness {
        fn new(p: u32) -> Self {
            Harness::with_rad(RadState::new(Category(0)), p)
        }

        fn with_rad(rad: RadState, p: u32) -> Self {
            Harness { rad, k: 1, p, t: 0 }
        }

        /// One step: jobs given as (id, desire); returns (id → allotment).
        fn step(&mut self, jobs: &[(u32, u32)]) -> Vec<(u32, u32)> {
            self.t += 1;
            let desires: Vec<[u32; 1]> = jobs.iter().map(|&(_, d)| [d]).collect();
            let views: Vec<JobView<'_>> = jobs
                .iter()
                .zip(&desires)
                .map(|(&(id, _), d)| JobView {
                    id: JobId(id),
                    release: 0,
                    desires: d,
                })
                .collect();
            let mut out = AllotmentMatrix::new(self.k);
            out.reset(views.len());
            let mut slots = SlotTable::new();
            slots.fill(&views);
            self.rad.allot(self.t, &views, &slots, self.p, &mut out);
            jobs.iter()
                .enumerate()
                .map(|(slot, &(id, _))| (id, out.get(slot, Category(0))))
                .collect()
        }
    }

    #[test]
    fn light_load_uses_deq() {
        let mut h = Harness::new(8);
        for id in 0..3 {
            h.rad.job_arrived(JobId(id));
        }
        // Paper-style DEQ example: desires 2, 5, 9 on 8 processors.
        let a = h.step(&[(0, 2), (1, 5), (2, 9)]);
        assert_eq!(a, vec![(0, 2), (1, 3), (2, 3)]);
        // Light-load steps end the (trivial) cycle: nothing stays marked.
        assert!(!h.rad.is_marked(JobId(0)));
    }

    #[test]
    fn heavy_load_runs_rr_cycle() {
        let mut h = Harness::new(2);
        for id in 0..5 {
            h.rad.job_arrived(JobId(id));
        }
        let jobs: Vec<(u32, u32)> = (0..5).map(|id| (id, 3)).collect();

        // Step 1: |Q| = 5 > 2 → jobs 0, 1 get one processor each.
        let a = h.step(&jobs);
        assert_eq!(a, vec![(0, 1), (1, 1), (2, 0), (3, 0), (4, 0)]);
        assert!(h.rad.is_marked(JobId(0)) && h.rad.is_marked(JobId(1)));

        // Step 2: unmarked {2,3,4} → jobs 2, 3.
        let a = h.step(&jobs);
        assert_eq!(a, vec![(0, 0), (1, 0), (2, 1), (3, 1), (4, 0)]);

        // Step 3: |Q| = {4} ≤ 2 → move one marked job (0, queue order)
        // into Q, DEQ over {4, 0} with P = 2 → 1 each; cycle ends.
        let a = h.step(&jobs);
        assert_eq!(a, vec![(0, 1), (1, 0), (2, 0), (3, 0), (4, 1)]);
        for id in 0..5 {
            assert!(!h.rad.is_marked(JobId(id)), "cycle must unmark all");
        }
    }

    #[test]
    fn every_job_served_at_least_once_per_cycle() {
        let n = 7u32;
        let p = 3u32;
        let mut h = Harness::new(p);
        for id in 0..n {
            h.rad.job_arrived(JobId(id));
        }
        let jobs: Vec<(u32, u32)> = (0..n).map(|id| (id, 10)).collect();
        let mut served = vec![0u32; n as usize];
        // One full cycle = ceil(n / p) = 3 steps.
        for _ in 0..3 {
            for (id, a) in h.step(&jobs) {
                served[id as usize] += a;
            }
        }
        // Fairness: every α-active job runs ≥ once per cycle. Work
        // conservation: the cycle-ending step tops up with marked jobs
        // (paper's `min(|Q'|, P − |Q|)` move), so all p·steps
        // processors are used — here jobs 0 and 1 are served twice.
        assert!(served.iter().all(|&s| s >= 1), "fairness: {served:?}");
        assert_eq!(served.iter().sum::<u32>(), p * 3, "work conservation");
        assert_eq!(served, vec![2, 2, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn inactive_jobs_are_skipped() {
        let mut h = Harness::new(2);
        for id in 0..4 {
            h.rad.job_arrived(JobId(id));
        }
        // Only jobs 1 and 3 are α-active.
        let a = h.step(&[(0, 0), (1, 5), (2, 0), (3, 5)]);
        assert_eq!(a, vec![(0, 0), (1, 1), (2, 0), (3, 1)]);
    }

    #[test]
    fn completion_removes_from_queue() {
        let mut h = Harness::new(1);
        for id in 0..3 {
            h.rad.job_arrived(JobId(id));
        }
        h.rad.job_completed(JobId(0));
        assert_eq!(h.rad.tracked_jobs(), 2);
        // Heavy load (2 > 1): first unmarked is now job 1.
        let a = h.step(&[(1, 2), (2, 2)]);
        assert_eq!(a, vec![(1, 1), (2, 0)]);
    }

    #[test]
    fn exactly_p_active_jobs_takes_deq_branch() {
        let mut h = Harness::new(3);
        for id in 0..3 {
            h.rad.job_arrived(JobId(id));
        }
        let a = h.step(&[(0, 4), (1, 4), (2, 4)]);
        // DEQ branch: 1 each (equal shares), cycle completes.
        assert_eq!(a, vec![(0, 1), (1, 1), (2, 1)]);
        assert!(!h.rad.is_marked(JobId(0)));
    }

    #[test]
    fn allot_never_exceeds_capacity() {
        let mut h = Harness::new(4);
        for id in 0..10 {
            h.rad.job_arrived(JobId(id));
        }
        for step in 0..20 {
            let jobs: Vec<(u32, u32)> = (0..10).map(|id| (id, 1 + (id + step) % 5)).collect();
            let total: u32 = h.step(&jobs).iter().map(|&(_, a)| a).sum();
            assert!(total <= 4, "step {step}: allotted {total} > 4");
        }
    }

    #[test]
    fn telemetry_traces_modes_decisions_and_cycles() {
        use ktelemetry::TelemetryEvent as E;
        let (handle, rec) = TelemetryHandle::recording();
        let mut h = Harness::with_rad(RadState::with_telemetry(Category(0), handle), 2);
        for id in 0..5 {
            h.rad.job_arrived(JobId(id));
        }
        assert_eq!(h.rad.mode(), SchedulerMode::Deq);
        let jobs: Vec<(u32, u32)> = (0..5).map(|id| (id, 3)).collect();
        h.step(&jobs); // t=1: 5 > 2 → RR (transition Deq→RR)
        h.step(&jobs); // t=2: RR
        h.step(&jobs); // t=3: |Q|=1 ≤ 2 → DEQ, cycle ends (RR→Deq)
        assert_eq!(h.rad.mode(), SchedulerMode::Deq);
        let events = rec.lock().unwrap().take();

        let transitions: Vec<(u64, SchedulerMode, SchedulerMode)> = events
            .iter()
            .filter_map(|e| match e {
                E::ModeTransition { t, from, to, .. } => Some((*t, *from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (1, SchedulerMode::Deq, SchedulerMode::RoundRobin),
                (3, SchedulerMode::RoundRobin, SchedulerMode::Deq),
            ]
        );

        // One decision per step; the RR ones allot exactly P.
        let decisions: Vec<&E> = events
            .iter()
            .filter(|e| matches!(e, E::Decision { .. }))
            .collect();
        assert_eq!(decisions.len(), 3);
        let E::Decision {
            mode,
            jobs: nj,
            desire,
            allotted,
            satisfied,
            deprived,
            ..
        } = decisions[0]
        else {
            unreachable!()
        };
        assert_eq!(*mode, SchedulerMode::RoundRobin);
        assert_eq!((*nj, *desire, *allotted), (5, 15, 2));
        assert_eq!((*satisfied, *deprived), (0, 5), "desire 3 > 1 processor");

        // The cycle-ending DEQ step reports the marked jobs served.
        let cycles: Vec<(u64, u32)> = events
            .iter()
            .filter_map(|e| match e {
                E::RrCycleComplete { t, served, .. } => Some((*t, *served)),
                _ => None,
            })
            .collect();
        assert_eq!(cycles, vec![(3, 4)], "jobs 0..=3 were marked in the cycle");
    }

    #[test]
    fn spans_time_the_branch_actually_taken() {
        use ktelemetry::{MetricsRegistry, SpanRecorder};
        let reg = MetricsRegistry::new();
        let spans = SpanRecorder::for_registry(&reg);
        let rad =
            RadState::with_instrumentation(Category(0), TelemetryHandle::off(), spans.clone());
        let mut h = Harness::with_rad(rad, 2);
        for id in 0..5 {
            h.rad.job_arrived(JobId(id));
        }
        let jobs: Vec<(u32, u32)> = (0..5).map(|id| (id, 3)).collect();
        h.step(&jobs); // 5 > 2 → RR
        h.step(&jobs); // RR
        h.step(&jobs); // DEQ (cycle ends)
        assert_eq!(spans.count(SpanKind::RrCycle), 2);
        assert_eq!(spans.count(SpanKind::DeqAllot), 1);
        assert_eq!(spans.count(SpanKind::Quantum), 0, "engine-level span");
    }

    #[test]
    fn light_load_emits_no_transitions() {
        use ktelemetry::TelemetryEvent as E;
        let (handle, rec) = TelemetryHandle::recording();
        let mut h = Harness::with_rad(RadState::with_telemetry(Category(0), handle), 8);
        for id in 0..3 {
            h.rad.job_arrived(JobId(id));
        }
        for _ in 0..4 {
            h.step(&[(0, 2), (1, 5), (2, 9)]);
        }
        let events = rec.lock().unwrap().take();
        assert!(
            events
                .iter()
                .all(|e| !matches!(e, E::ModeTransition { .. })),
            "light load must never leave DEQ: {events:?}"
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, E::Decision { .. }))
                .count(),
            4
        );
    }

    /// Engine-level smoke test: RadState embedded in a 1-category
    /// scheduler behaves like RAD end to end.
    #[test]
    fn rad_single_category_end_to_end() {
        use kdag::{Category, DagBuilder};
        use ksim::{simulate, JobSpec, SimConfig, Time};

        struct OneRad(RadState, SlotTable);
        impl ksim::Scheduler for OneRad {
            fn name(&self) -> &str {
                "rad-1"
            }
            fn on_arrival(&mut self, id: JobId, _t: Time) {
                self.0.job_arrived(id);
            }
            fn on_completion(&mut self, id: JobId, _t: Time) {
                self.0.job_completed(id);
            }
            fn allot(
                &mut self,
                t: Time,
                views: &[JobView<'_>],
                res: &Resources,
                out: &mut AllotmentMatrix,
            ) {
                self.1.fill(views);
                self.0
                    .allot(t, views, &self.1, res.processors(Category(0)), out);
            }
        }

        // 6 flat jobs of 8 tasks on 2 processors: total work 48, so
        // the makespan must be ≥ 24; RAD must finish in exactly 24
        // (work-conserving: every step executes 2 tasks).
        let jobs: Vec<JobSpec> = (0..6)
            .map(|_| {
                let mut b = DagBuilder::new(1);
                b.add_tasks(Category(0), 8);
                JobSpec::batched(b.build().unwrap())
            })
            .collect();
        let res = Resources::uniform(1, 2);
        let mut s = OneRad(RadState::new(Category(0)), SlotTable::new());
        let o = simulate(&mut s, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 24);
        assert_eq!(o.total_executed(), 48);
    }
}
