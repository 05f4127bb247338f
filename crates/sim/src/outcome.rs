//! The results of a run and the metrics derived from them.

use crate::checker::RecordedSchedule;
use crate::{Resources, StepTrace, Time};
use kdag::Category;

/// The result of simulating one job set under one scheduler.
///
/// Job-indexed vectors (`releases`, `completions`) follow the order of
/// the `JobSpec` slice given to [`crate::simulate`]. Serializes to
/// JSON for tooling (`krad simulate --json FILE`).
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The scheduler's [`crate::Scheduler::name`].
    pub scheduler: String,
    /// The makespan `T(J)`: the step at which the last job completed.
    pub makespan: Time,
    /// Release time `r(Ji)` of each job (copied from the specs).
    pub releases: Vec<Time>,
    /// Completion time `T(Ji)` of each job.
    pub completions: Vec<Time>,
    /// Total tasks executed per category (= `T1(J, α)` on success).
    pub executed_by_category: Vec<u64>,
    /// Total processor-steps allotted per category. The difference
    /// from `executed_by_category` is *waste*: allotments a job could
    /// not use (possible under EQUI's desire-blind shares, frozen
    /// quanta, or A-Greedy over-estimates; zero for desire-capped
    /// per-step schedulers).
    pub allotted_by_category: Vec<u64>,
    /// Steps that were actually simulated (some job active).
    pub busy_steps: u64,
    /// Steps skipped in idle intervals (no active job, arrivals
    /// pending). They still count toward completion times.
    pub idle_steps: u64,
    /// Preemption volume: total processor units withdrawn from jobs
    /// that remained active (allotment decreases between consecutive
    /// steps, summed over jobs and categories). A proxy for
    /// context-switch cost: time-sharing schedulers (RR) reassign
    /// processors every step; space-sharing ones (DEQ) rarely do.
    pub preemptions: u64,
    /// Per-step traces if requested in the config.
    pub trace: Option<Vec<StepTrace>>,
    /// Full schedule `χ` if requested in the config.
    pub schedule: Option<RecordedSchedule>,
}

impl SimOutcome {
    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        self.completions.len()
    }

    /// The response time `R(Ji) = T(Ji) − r(Ji)` of job `i`.
    pub fn response(&self, i: usize) -> Time {
        self.completions[i] - self.releases[i]
    }

    /// Total response time `R(J) = Σ R(Ji)`.
    pub fn total_response(&self) -> u64 {
        (0..self.job_count()).map(|i| self.response(i)).sum()
    }

    /// Mean response time `R̄(J) = R(J) / |J|`.
    pub fn mean_response(&self) -> f64 {
        self.total_response() as f64 / self.job_count() as f64
    }

    /// Maximum response time over all jobs.
    pub fn max_response(&self) -> Time {
        (0..self.job_count())
            .map(|i| self.response(i))
            .max()
            .unwrap_or(0)
    }

    /// Utilization of one category over the busy portion of the run:
    /// tasks executed divided by `Pα · busy_steps`.
    pub fn utilization(&self, cat: Category, res: &Resources) -> f64 {
        if self.busy_steps == 0 {
            return 0.0;
        }
        self.executed_by_category[cat.index()] as f64
            / (f64::from(res.processors(cat)) * self.busy_steps as f64)
    }

    /// Total tasks executed across all categories.
    pub fn total_executed(&self) -> u64 {
        self.executed_by_category.iter().sum()
    }

    /// Total allotment waste: processor-steps granted but unused.
    pub fn total_waste(&self) -> u64 {
        self.allotted_by_category
            .iter()
            .zip(&self.executed_by_category)
            .map(|(&a, &e)| a.saturating_sub(e))
            .sum()
    }

    /// Waste as a fraction of everything allotted (0 when nothing was
    /// allotted).
    pub fn waste_fraction(&self) -> f64 {
        let allotted: u64 = self.allotted_by_category.iter().sum();
        if allotted == 0 {
            0.0
        } else {
            self.total_waste() as f64 / allotted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> SimOutcome {
        SimOutcome {
            scheduler: "test".into(),
            makespan: 10,
            releases: vec![0, 2, 4],
            completions: vec![5, 10, 6],
            executed_by_category: vec![12, 6],
            allotted_by_category: vec![14, 6],
            busy_steps: 9,
            idle_steps: 1,
            preemptions: 0,
            trace: None,
            schedule: None,
        }
    }

    #[test]
    fn response_metrics() {
        let o = outcome();
        assert_eq!(o.response(0), 5);
        assert_eq!(o.response(1), 8);
        assert_eq!(o.response(2), 2);
        assert_eq!(o.total_response(), 15);
        assert!((o.mean_response() - 5.0).abs() < 1e-12);
        assert_eq!(o.max_response(), 8);
    }

    #[test]
    fn utilization_math() {
        let o = outcome();
        let res = Resources::new(vec![2, 4]);
        // 12 tasks / (2 procs * 9 steps).
        assert!((o.utilization(Category(0), &res) - 12.0 / 18.0).abs() < 1e-12);
        assert_eq!(o.total_executed(), 18);
    }

    #[test]
    fn waste_accounting() {
        let o = outcome();
        assert_eq!(o.total_waste(), 2);
        assert!((o.waste_fraction() - 2.0 / 20.0).abs() < 1e-12);
    }
}
