//! The deterministic replay bridge.
//!
//! Every accepted session yields a [`SessionTrace`]: the engine
//! configuration plus the `(dag, release)` sequence in injection order
//! and the completion times the live engine produced — derived from
//! the session's log ([`kjournal::SessionLog`]), not recorded beside
//! it. Because the
//! daemon's quantum loop and the offline batch path execute the *same*
//! [`ksim::LiveSimulation`] step loop, replaying the trace through
//! [`ksim::simulate`] reproduces the server's outcome exactly — the
//! theorem machinery (bounds, checker, analysis) therefore applies to
//! live sessions unmodified.
//!
//! [`SessionTrace::verify`] is the contract: it re-runs the trace
//! offline and compares the canonical JSON encoding of the completion
//! vectors **byte for byte**.

use crate::server::ServerConfig;
use kbaselines::SchedulerKind;
use kdag::{DagSpec, SelectionPolicy};
use kjournal::SessionLog;
use ksim::{simulate, JobSpec, Resources, SimConfig, SimOutcome, Time};
use ktelemetry::{json, schema, TelemetryHandle};

/// One recorded arrival: the DAG and the virtual release time the
/// server assigned at injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceJob {
    /// The job's DAG.
    pub dag: DagSpec,
    /// Virtual release time (equals the engine clock at injection).
    pub release: Time,
}

/// A canonical record of one service session, sufficient to reproduce
/// it offline.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionTrace {
    /// Processors per category.
    pub machine: Vec<u32>,
    /// The scheduling policy that served the session.
    pub scheduler: SchedulerKind,
    /// The environment's task-selection policy.
    pub policy: SelectionPolicy,
    /// Scheduling quantum.
    pub quantum: u64,
    /// Seed for both the engine RNG and randomized schedulers.
    pub seed: u64,
    /// Arrivals in injection order (releases are nondecreasing).
    pub jobs: Vec<TraceJob>,
    /// Completion times the live engine produced, one per job.
    pub completions: Vec<Time>,
}

schema!(TraceJob {
    release: req,
    dag: req
});

schema!(SessionTrace {
    machine: req,
    scheduler: req,
    policy: req,
    quantum: req,
    seed: req,
    jobs: req,
    completions: req,
});

impl SessionTrace {
    /// The canonical trace of a session served under `cfg`, derived
    /// from its log: the injected jobs in id order, which is injection
    /// order, with their releases and completions (0 while running).
    pub(crate) fn from_log(cfg: &ServerConfig, log: &SessionLog) -> SessionTrace {
        let injected = log.injected();
        SessionTrace {
            machine: cfg.machine.clone(),
            scheduler: cfg.scheduler,
            policy: cfg.policy,
            quantum: cfg.quantum,
            seed: cfg.seed,
            jobs: injected
                .iter()
                .filter_map(|&id| log.job(id))
                .map(|job| TraceJob {
                    dag: job.dag.clone(),
                    release: job.phase.release().unwrap_or_default(),
                })
                .collect(),
            completions: injected
                .iter()
                .map(|&id| log.completion(id).unwrap_or(0))
                .collect(),
        }
    }

    /// Canonical JSON encoding (fixed field order, no whitespace).
    pub fn encode(&self) -> String {
        json::encode(self)
    }

    /// Decode from a JSON string.
    pub fn decode(text: &str) -> Result<SessionTrace, String> {
        json::decode(text)
    }

    /// Rebuild the validated job specs in injection order.
    pub fn restore_jobs(&self) -> Result<Vec<JobSpec>, String> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let dag = j
                    .dag
                    .build()
                    .map_err(|e| format!("trace job {i} has an invalid DAG: {e}"))?;
                Ok(JobSpec::released(dag, j.release))
            })
            .collect()
    }

    /// Replay the session through the offline batch path, with the
    /// same machine, scheduler, policy, quantum, and seed the live
    /// server used.
    pub fn replay(&self) -> Result<SimOutcome, String> {
        self.replay_instrumented(TelemetryHandle::off())
    }

    /// Replay with a telemetry sink attached to both the engine and
    /// the scheduler, reproducing the event stream the live server's
    /// flight recorder captured (modulo the offline-only
    /// `run_start`/`run_end` framing events).
    pub fn replay_instrumented(&self, tel: TelemetryHandle) -> Result<SimOutcome, String> {
        let jobs = self.restore_jobs()?;
        let res = Resources::new(self.machine.clone());
        let cfg = SimConfig::default()
            .with_policy(self.policy)
            .with_seed(self.seed)
            .with_quantum(self.quantum)
            .with_telemetry(tel);
        let mut sched = self.scheduler.build(res.k(), self.seed, &cfg);
        Ok(simulate(sched.as_mut(), &jobs, &res, &cfg))
    }

    /// The canonical completion-vector encoding used for the
    /// byte-for-byte comparison.
    pub fn canonical_completions(completions: &[Time]) -> String {
        let mut s = String::new();
        json::push_u64_arr(&mut s, completions);
        s
    }

    /// Replay offline and require the completion vectors to match
    /// byte for byte. Returns the matched canonical encoding.
    pub fn verify(&self) -> Result<String, String> {
        let outcome = self.replay()?;
        let live = Self::canonical_completions(&self.completions);
        let replayed = Self::canonical_completions(&outcome.completions);
        if live == replayed {
            Ok(live)
        } else {
            Err(format!(
                "replay divergence:\n  live:     {live}\n  replayed: {replayed}"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::generators::fork_join;
    use kdag::Category;

    fn trace(completions: Vec<Time>) -> SessionTrace {
        let dag = DagSpec::from_dag(&fork_join(2, &[(Category(0), 4), (Category(1), 2)]));
        SessionTrace {
            machine: vec![2, 1],
            scheduler: SchedulerKind::KRad,
            policy: SelectionPolicy::Fifo,
            quantum: 2,
            seed: 7,
            jobs: vec![
                TraceJob {
                    dag: dag.clone(),
                    release: 0,
                },
                TraceJob { dag, release: 3 },
            ],
            completions,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = trace(vec![4, 9]);
        let text = t.encode();
        assert_eq!(SessionTrace::decode(&text).unwrap(), t);
        // Canonical: encoding is stable under a decode round trip.
        assert_eq!(SessionTrace::decode(&text).unwrap().encode(), text);
    }

    #[test]
    fn verify_accepts_true_completions_and_rejects_forgeries() {
        // Build the ground truth by replaying an empty-completions
        // trace, then verify with the real vector.
        let skeleton = trace(vec![]);
        let outcome = skeleton.replay().unwrap();
        let honest = trace(outcome.completions.clone());
        let canon = honest.verify().unwrap();
        assert_eq!(
            canon,
            SessionTrace::canonical_completions(&outcome.completions)
        );

        let mut forged = outcome.completions.clone();
        forged[0] += 1;
        assert!(trace(forged).verify().unwrap_err().contains("divergence"));
    }

    #[test]
    fn corrupt_traces_are_data_errors() {
        assert!(SessionTrace::decode("{").is_err());
        assert!(SessionTrace::decode("{\"machine\":[1]}").is_err());
        // A cyclic DAG fails at restore, not with a panic.
        let mut t = trace(vec![]);
        t.jobs[0].dag.edges = vec![(0, 1), (1, 0)];
        assert!(t.restore_jobs().unwrap_err().contains("invalid DAG"));
    }
}
