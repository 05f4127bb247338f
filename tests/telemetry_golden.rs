//! Telemetry golden: K-RAD under heavy load must keep emitting the
//! exact same event stream, completions and preemption count.
//!
//! The digests below were captured from the engine that executed every
//! active job on every step, zero allotment rows included. Any change
//! to which jobs the execute pass visits must leave each
//! `JobExecSegment`, each RNG draw (seeded-Random task selection) and
//! each scheduler decision byte-identical, under both clocks and under
//! both desire models.

use kbaselines::SchedulerKind;
use kdag::SelectionPolicy;
use ksim::{simulate, DesireModel, JobSpec, Resources, SimConfig, TimePolicy};
use ktelemetry::json::to_json;
use ktelemetry::{TelemetryEvent, TelemetryHandle};
use kworkloads::mixes::{batched_mix, MixConfig};
use kworkloads::rng_for;

/// 32 jobs: two thirds released at 0 (so ≥ 20 are active at once and
/// both categories run round-robin on a `[3, 2]` machine), the rest
/// staggered so activations land mid-quantum on unfrozen rows.
fn heavy_jobs() -> Vec<JobSpec> {
    let mut rng = rng_for(0x60_1D, 0x14);
    let mut jobs = batched_mix(&mut rng, &MixConfig::new(2, 32, 20));
    for (i, job) in jobs.iter_mut().enumerate() {
        if i % 3 == 2 {
            job.release = (i as u64) * 4 + 1;
        }
    }
    jobs
}

/// FNV-1a, 64-bit: a fixed, dependency-free digest of the run.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digest of the JSONL event stream, the completions and the
/// preemption count of one run; also returns the peak active-job count
/// the stream reports.
fn digest(desire_model: DesireModel, quantum: u64, time_policy: TimePolicy) -> (u64, u32) {
    let jobs = heavy_jobs();
    let res = Resources::new(vec![3, 2]);
    let (tel, rec) = TelemetryHandle::recording();
    let cfg = SimConfig::default()
        .with_policy(SelectionPolicy::Random)
        .with_seed(7)
        .with_quantum(quantum)
        .with_time_policy(time_policy)
        .with_desire_model(desire_model)
        .with_telemetry(tel);
    let mut sched = SchedulerKind::KRad.build(2, 7, &cfg);
    let outcome = simulate(sched.as_mut(), &jobs, &res, &cfg);
    let events = rec.lock().unwrap().take();
    let mut h = 0xCBF2_9CE4_8422_2325;
    let mut peak = 0;
    for e in &events {
        if let TelemetryEvent::StepStart { active_jobs, .. } = e {
            peak = peak.max(*active_jobs);
        }
        h = fnv1a(to_json(e).as_bytes(), h);
        h = fnv1a(b"\n", h);
    }
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TelemetryEvent::JobExecSegment { .. })),
        "job events must be on"
    );
    let tail = format!("{:?} {}", outcome.completions, outcome.preemptions);
    (fnv1a(tail.as_bytes(), h), peak)
}

#[test]
fn k_rad_heavy_load_telemetry_is_pinned() {
    let golden = [
        (DesireModel::Exact, 1, 0x5cdb_d249_0edc_81a0u64),
        (DesireModel::Exact, 3, 0x1038_18d8_b30e_7b7a),
        (
            DesireModel::AGreedy { delta: 0.8 },
            1,
            0x4d1c_38f1_da8a_5b8b,
        ),
        (
            DesireModel::AGreedy { delta: 0.8 },
            3,
            0xb847_8901_83bf_bd97,
        ),
    ];
    for (model, quantum, want) in golden {
        for tp in [TimePolicy::UnitStep, TimePolicy::EventDriven] {
            let (got, peak) = digest(model, quantum, tp);
            assert!(peak >= 20, "{model:?} q={quantum}: peak active {peak} < 20");
            assert_eq!(
                got, want,
                "{model:?} q={quantum} {tp:?}: digest {got:#018x} != golden {want:#018x}"
            );
        }
    }
}
