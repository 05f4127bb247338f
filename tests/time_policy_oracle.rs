//! The event-driven clock oracle: `TimePolicy::EventDriven` must be
//! **bit-for-bit** identical to `TimePolicy::UnitStep`.
//!
//! The unit stepper is the ground truth — it is the paper's model,
//! executed literally. The event-driven clock is allowed to batch,
//! skip, and bulk-account, but never to *observably* deviate: outcomes
//! (including full step traces and recorded schedules) and telemetry
//! event streams must match byte for byte. Every divergence here is an
//! engine bug, not a tolerance question.
//!
//! Matrix: all 8 baseline schedulers × quantum q ∈ {1, 4, 7} × two
//! workloads (a mixed batched/staggered set and a sparse SWF slice),
//! under both FIFO and seeded-Random task selection, with and without
//! observers (the unobserved runs exercise the lean fast paths).

use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{simulate, JobSpec, Resources, SimConfig, SimOutcome, TimePolicy};
use ktelemetry::json::to_json;
use ktelemetry::{TelemetryEvent, TelemetryHandle};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;
use kworkloads::swf::{jobs_from_swf, parse_swf, synthetic_swf, SwfShape};

/// A mixed jobset: a seeded random mix with every third job pushed to
/// a staggered release so activations land mid-quantum.
fn mixed_jobs(seed: u64) -> Vec<JobSpec> {
    let mut rng = rng_for(seed, 0x07AC);
    let mut jobs = batched_mix(&mut rng, &MixConfig::new(2, 12, 18));
    for (i, job) in jobs.iter_mut().enumerate() {
        if i % 3 == 1 {
            job.release = (i as u64) * 5 + 3;
        } else if i % 3 == 2 {
            job.release = (i as u64) * 11 + 1;
        }
    }
    jobs
}

/// A sparse SWF slice: long inter-arrival gaps relative to job length,
/// so the event clock gets real idle spans and drained segments.
fn sparse_swf_jobs() -> Vec<JobSpec> {
    let records = parse_swf(&synthetic_swf(24)).expect("synthetic trace parses");
    let shape = SwfShape {
        seconds_per_step: 4,
        max_width: 6,
        max_tasks: 120,
        ..SwfShape::default()
    };
    jobs_from_swf(&records, &shape)
}

#[derive(Clone, Copy)]
struct RunSpec<'a> {
    kind: SchedulerKind,
    policy: SelectionPolicy,
    quantum: u64,
    time_policy: TimePolicy,
    observed: bool,
    jobs: &'a [JobSpec],
}

fn run(spec: &RunSpec<'_>) -> (SimOutcome, Vec<TelemetryEvent>) {
    let res = Resources::new(vec![3, 2]);
    let mut cfg = SimConfig::default()
        .with_policy(spec.policy)
        .with_seed(41)
        .with_quantum(spec.quantum)
        .with_time_policy(spec.time_policy)
        .with_trace(spec.observed)
        .with_schedule(spec.observed);
    let events = if spec.observed {
        let (tel, rec) = TelemetryHandle::recording();
        cfg.telemetry = tel;
        let mut sched = spec.kind.build(2, 41, &cfg);
        let outcome = simulate(sched.as_mut(), spec.jobs, &res, &cfg);
        let events = rec.lock().unwrap().events().to_vec();
        return (outcome, events);
    } else {
        Vec::new()
    };
    let mut sched = spec.kind.build(2, 41, &cfg);
    (simulate(sched.as_mut(), spec.jobs, &res, &cfg), events)
}

/// Byte-equal comparison of the full outcome (trace and schedule
/// included, via the derived `Debug` form) and of the telemetry stream
/// (via the canonical JSONL codec).
fn assert_bitwise_equal(spec: &RunSpec<'_>, label: &str) {
    let unit = RunSpec {
        time_policy: TimePolicy::UnitStep,
        ..*spec
    };
    let event = RunSpec {
        time_policy: TimePolicy::EventDriven,
        ..*spec
    };
    let (ou, tu) = run(&unit);
    let (oe, te) = run(&event);
    let ctx = format!(
        "{label}: {:?}/{:?} q={} observed={}",
        spec.kind, spec.policy, spec.quantum, spec.observed
    );
    assert_eq!(
        format!("{ou:?}"),
        format!("{oe:?}"),
        "{ctx}: outcome diverged"
    );
    let ju: Vec<String> = tu.iter().map(to_json).collect();
    let je: Vec<String> = te.iter().map(to_json).collect();
    assert_eq!(
        ju.join("\n"),
        je.join("\n"),
        "{ctx}: telemetry stream diverged"
    );
}

#[test]
fn event_driven_matches_unit_step_on_mixed_jobs() {
    let jobs = mixed_jobs(23);
    for kind in SchedulerKind::ALL {
        for quantum in [1u64, 4, 7] {
            for observed in [false, true] {
                assert_bitwise_equal(
                    &RunSpec {
                        kind,
                        policy: SelectionPolicy::Fifo,
                        quantum,
                        time_policy: TimePolicy::UnitStep,
                        observed,
                        jobs: &jobs,
                    },
                    "mixed",
                );
            }
        }
    }
}

#[test]
fn event_driven_matches_unit_step_on_sparse_swf_slice() {
    let jobs = sparse_swf_jobs();
    for kind in SchedulerKind::ALL {
        for quantum in [1u64, 4, 7] {
            assert_bitwise_equal(
                &RunSpec {
                    kind,
                    policy: SelectionPolicy::Fifo,
                    quantum,
                    time_policy: TimePolicy::UnitStep,
                    observed: true,
                    jobs: &jobs,
                },
                "swf-sparse",
            );
        }
    }
}

#[test]
fn event_driven_matches_unit_step_under_random_selection() {
    // Random selection is the sharpest oracle: any reordering of the
    // per-step RNG draws in the batched paths shows up immediately.
    let jobs = mixed_jobs(5);
    for kind in [
        SchedulerKind::KRad,
        SchedulerKind::Equi,
        SchedulerKind::RandomRr,
    ] {
        for quantum in [1u64, 4, 7] {
            for observed in [false, true] {
                assert_bitwise_equal(
                    &RunSpec {
                        kind,
                        policy: SelectionPolicy::Random,
                        quantum,
                        time_policy: TimePolicy::UnitStep,
                        observed,
                        jobs: &jobs,
                    },
                    "random-selection",
                );
            }
        }
    }
}

#[test]
fn event_driven_matches_unit_step_with_feedback_desires() {
    // A-Greedy accumulates usage inside quanta and digests it at
    // boundaries — the batched executor must preserve the sums.
    let jobs = mixed_jobs(17);
    let res = Resources::new(vec![3, 2]);
    for quantum in [1u64, 4, 7] {
        let outcome = |tp: TimePolicy| {
            let cfg = SimConfig::default()
                .with_quantum(quantum)
                .with_desire_model(ksim::DesireModel::AGreedy { delta: 0.8 })
                .with_time_policy(tp)
                .with_trace(true);
            let mut sched = SchedulerKind::KRad.build(2, SchedulerKind::DEFAULT_SEED, &cfg);
            simulate(sched.as_mut(), &jobs, &res, &cfg)
        };
        let a = outcome(TimePolicy::UnitStep);
        let b = outcome(TimePolicy::EventDriven);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "a-greedy q={quantum}");
    }
}
