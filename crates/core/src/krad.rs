//! K-RAD: one RAD instance per resource category.

use crate::rad::{RadState, SlotTable};
use kdag::{Category, JobId};
use ksim::{AllotmentMatrix, JobView, Resources, Scheduler, Time};
use ktelemetry::{SpanRecorder, TelemetryHandle};

/// The K-RAD scheduler (the paper's §3 algorithm).
///
/// K-RAD runs one independent [`RadState`] per category: the RAD
/// instance for category `α` manages the `α`-tasks of *all* jobs. A
/// job may therefore receive allotments in several categories at the
/// same step (the K-DAG model allows concurrent tasks of different
/// types), and each category independently switches between DEQ
/// (space-sharing) and round-robin cycles (time-sharing) based on its
/// own load `|J(α, t)|` vs `Pα`.
///
/// K-RAD is non-clairvoyant: it reads only the [`JobView`] desires.
#[derive(Clone, Debug)]
pub struct KRad {
    rads: Vec<RadState>,
    /// Job id → view slot for the current decision, shared by every
    /// category's RAD instance.
    slots: SlotTable,
    /// Cached display name (`name()` returns a borrow, so the
    /// formatted string lives with the scheduler).
    name: String,
}

impl KRad {
    /// Create a K-RAD scheduler for `k` categories.
    pub fn new(k: usize) -> Self {
        KRad::with_telemetry(k, TelemetryHandle::off())
    }

    /// Create a K-RAD scheduler whose per-category RAD instances emit
    /// decision, mode-transition, and RR-cycle events into `tel`
    /// (pass a clone of the handle wired into
    /// `ksim::SimConfig::telemetry` to interleave scheduler events
    /// with the engine's step events in one stream).
    pub fn with_telemetry(k: usize, tel: TelemetryHandle) -> Self {
        KRad::with_instrumentation(k, tel, SpanRecorder::off())
    }

    /// Create a fully instrumented K-RAD scheduler: events into `tel`
    /// plus `deq_allot`/`rr_cycle` span durations into `spans` (every
    /// per-category RAD instance shares both).
    pub fn with_instrumentation(k: usize, tel: TelemetryHandle, spans: SpanRecorder) -> Self {
        assert!(k >= 1, "need at least one category");
        KRad {
            rads: Category::all(k)
                .map(|c| RadState::with_instrumentation(c, tel.clone(), spans.clone()))
                .collect(),
            slots: SlotTable::new(),
            name: format!("k-rad(K={k})"),
        }
    }

    /// The number of categories.
    pub fn k(&self) -> usize {
        self.rads.len()
    }

    /// Access the per-category RAD state (for inspection in tests).
    pub fn rad(&self, cat: Category) -> &RadState {
        &self.rads[cat.index()]
    }
}

impl Scheduler for KRad {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, id: JobId, _t: Time) {
        for rad in &mut self.rads {
            rad.job_arrived(id);
        }
    }

    fn on_completion(&mut self, id: JobId, _t: Time) {
        for rad in &mut self.rads {
            rad.job_completed(id);
        }
    }

    fn allot(
        &mut self,
        t: Time,
        views: &[JobView<'_>],
        res: &Resources,
        out: &mut AllotmentMatrix,
    ) {
        assert_eq!(res.k(), self.rads.len(), "machine/scheduler K mismatch");
        self.slots.fill(views);
        for rad in &mut self.rads {
            let p = res.processors(rad.category());
            rad.allot(t, views, &self.slots, p, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::generators::{fig1_example, fork_join};
    use kdag::{Category, DagBuilder};
    use ksim::{simulate, JobSpec, SimConfig};

    #[test]
    fn name_and_k() {
        let s = KRad::new(3);
        assert_eq!(s.k(), 3);
        assert_eq!(s.name(), "k-rad(K=3)");
    }

    #[test]
    fn single_fig1_job_is_span_limited() {
        let jobs = vec![JobSpec::batched(fig1_example())];
        let res = Resources::new(vec![2, 2, 2]);
        let mut s = KRad::new(3);
        let o = simulate(&mut s, &jobs, &res, &SimConfig::default());
        // One job alone: DEQ gives it everything it asks for, so it
        // finishes in exactly its span.
        assert_eq!(o.makespan, 5);
    }

    #[test]
    fn concurrent_categories_overlap() {
        // A job with two independent chains in different categories can
        // execute both at once under K-RAD.
        let mut b = DagBuilder::new(2);
        let c0 = b.add_tasks(Category(0), 5);
        let c1 = b.add_tasks(Category(1), 5);
        b.add_chain(&c0).unwrap();
        b.add_chain(&c1).unwrap();
        let jobs = vec![JobSpec::batched(b.build().unwrap())];
        let res = Resources::uniform(2, 1);
        let mut s = KRad::new(2);
        let o = simulate(&mut s, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 5, "chains must run concurrently");
    }

    #[test]
    fn work_conserving_under_saturation() {
        // 8 flat single-category jobs of 10 tasks, 4 processors:
        // 80 tasks / 4 per step = 20 steps exactly.
        let jobs: Vec<JobSpec> = (0..8)
            .map(|_| {
                let mut b = DagBuilder::new(1);
                b.add_tasks(Category(0), 10);
                JobSpec::batched(b.build().unwrap())
            })
            .collect();
        let res = Resources::uniform(1, 4);
        let mut s = KRad::new(1);
        let o = simulate(&mut s, &jobs, &res, &SimConfig::default());
        assert_eq!(o.makespan, 20);
    }

    #[test]
    fn mixed_fork_join_jobs_complete_validly() {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|i| {
                JobSpec::batched(fork_join(
                    2,
                    &[(Category(i % 2), 3 + i as u32), (Category((i + 1) % 2), 2)],
                ))
            })
            .collect();
        let res = Resources::new(vec![3, 2]);
        let mut cfg = SimConfig::default();
        cfg.record_schedule = true;
        let mut s = KRad::new(2);
        let o = simulate(&mut s, &jobs, &res, &cfg);
        ksim::checker::validate(o.schedule.as_ref().unwrap(), &jobs, &res)
            .expect("K-RAD schedules are valid");
        assert_eq!(
            o.total_executed(),
            jobs.iter().map(|j| j.dag.total_work()).sum::<u64>()
        );
    }

    #[test]
    fn arrivals_enter_all_category_queues() {
        let mut s = KRad::new(2);
        s.on_arrival(JobId(0), 1);
        s.on_arrival(JobId(1), 1);
        assert_eq!(s.rad(Category(0)).tracked_jobs(), 2);
        assert_eq!(s.rad(Category(1)).tracked_jobs(), 2);
        s.on_completion(JobId(0), 5);
        assert_eq!(s.rad(Category(0)).tracked_jobs(), 1);
        assert_eq!(s.rad(Category(1)).tracked_jobs(), 1);
    }
}
