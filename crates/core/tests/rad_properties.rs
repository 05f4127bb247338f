//! Property tests for RAD/K-RAD driven by random desire streams.

use kdag::prop;
use kdag::{Category, JobId};
use krad::deq::deq_allot;
use krad::{RadState, SlotTable};
use ksim::{AllotmentMatrix, JobView};

/// Drive one RadState over a stream of desire vectors; returns the
/// allotment matrix rows per step.
fn drive(rad: &mut RadState, stream: &[Vec<u32>], p: u32) -> Vec<Vec<u32>> {
    let mut result = Vec::new();
    for (step, desires) in stream.iter().enumerate() {
        let rows: Vec<[u32; 1]> = desires.iter().map(|&d| [d]).collect();
        let views: Vec<JobView<'_>> = rows
            .iter()
            .enumerate()
            .map(|(i, d)| JobView {
                id: JobId(i as u32),
                release: 0,
                desires: d,
            })
            .collect();
        let mut out = AllotmentMatrix::new(1);
        out.reset(views.len());
        let mut slots = SlotTable::new();
        slots.fill(&views);
        rad.allot(step as u64 + 1, &views, &slots, p, &mut out);
        result.push((0..views.len()).map(|s| out.get(s, Category(0))).collect());
    }
    result
}

/// Per-step invariants over arbitrary desire streams: capacity is
/// respected, inactive jobs get nothing, allotments never exceed
/// desires in the DEQ branch and are ≤ 1 in the RR branch.
#[test]
fn rad_per_step_invariants() {
    prop::check(
        96,
        (prop::vec(prop::vec(0u32..10, 1..12), 1..20), 1u32..6),
        |&(ref stream, p)| {
            let n = stream[0].len();
            // Normalize: all steps same job count.
            let stream: Vec<Vec<u32>> = stream
                .iter()
                .map(|s| {
                    let mut v = s.clone();
                    v.resize(n, 0);
                    v
                })
                .collect();
            let mut rad = RadState::new(Category(0));
            for i in 0..n {
                rad.job_arrived(JobId(i as u32));
            }
            let allots = drive(&mut rad, &stream, p);
            for (step, (desires, a)) in stream.iter().zip(&allots).enumerate() {
                let total: u32 = a.iter().sum();
                assert!(total <= p, "step {step}: over capacity");
                let active = desires.iter().filter(|&&d| d > 0).count() as u32;
                let demand: u32 = desires.iter().sum();
                // Work conservation, exactly:
                // * ≤ p active jobs → every active job participates in the
                //   DEQ step, so total = min(p, demand);
                // * > p active jobs → both the RR branch and the topped-up
                //   DEQ branch hand out all p processors (each participant
                //   desires ≥ 1).
                if active <= p {
                    assert_eq!(total, demand.min(p), "step {}: not work-conserving", step);
                } else {
                    assert_eq!(
                        total, p,
                        "step {}: heavy load must use all processors",
                        step
                    );
                }
                for (i, (&d, &ai)) in desires.iter().zip(a).enumerate() {
                    if d == 0 {
                        assert_eq!(ai, 0, "step {}: inactive job {} got {}", step, i, ai);
                    }
                    assert!(ai <= d, "step {step}: job {i} allotted {ai} > desire {d}");
                }
            }
        },
    );
}

/// Cycle fairness: with constant desires and more jobs than
/// processors, every job is served at least once within any window
/// of ceil(n/p) + 1 consecutive steps.
#[test]
fn rad_cycle_fairness() {
    prop::check(96, (3usize..15, 1u32..4, 1u32..8), |&(n, p, d)| {
        if n as u32 <= p {
            return; // the property needs more jobs than processors
        }
        let mut rad = RadState::new(Category(0));
        for i in 0..n {
            rad.job_arrived(JobId(i as u32));
        }
        let cycle = (n as u32).div_ceil(p) as usize + 1;
        let stream: Vec<Vec<u32>> = (0..3 * cycle).map(|_| vec![d; n]).collect();
        let allots = drive(&mut rad, &stream, p);
        for start in 0..allots.len() - cycle {
            let mut served = vec![0u32; n];
            for step in &allots[start..start + cycle] {
                for (s, a) in served.iter_mut().zip(step) {
                    *s += a;
                }
            }
            for (i, &s) in served.iter().enumerate() {
                assert!(
                    s >= 1,
                    "job {i} unserved in window [{start}, {})",
                    start + cycle,
                );
            }
        }
    });
}

/// Light load (n ≤ p): RAD is exactly DEQ with a rotating spill,
/// i.e. the multiset of allotments matches `deq_allot` and every
/// job with desire ≤ fair share is fully satisfied.
#[test]
fn rad_light_load_is_deq() {
    prop::check(
        96,
        (prop::vec(0u32..12, 1..6), 0u32..6),
        |&(ref desires, extra_p)| {
            let n = desires.len() as u32;
            let p = n + extra_p;
            let mut rad = RadState::new(Category(0));
            for i in 0..desires.len() {
                rad.job_arrived(JobId(i as u32));
            }
            let got = drive(&mut rad, std::slice::from_ref(desires), p).remove(0);
            // Compare against DEQ restricted to active jobs (spill 0: first
            // step of a fresh RadState).
            let active: Vec<usize> = (0..desires.len()).filter(|&i| desires[i] > 0).collect();
            let active_desires: Vec<u32> = active.iter().map(|&i| desires[i]).collect();
            let expect = deq_allot(&active_desires, p, 0);
            for (slot, &i) in active.iter().enumerate() {
                assert_eq!(got[i], expect[slot], "job {} deviates from DEQ", i);
            }
        },
    );
}

/// Mark bookkeeping over random arrive/complete/desire sequences:
/// after every `allot`, `marked_count` equals the number of marked
/// queued jobs, no job stays marked after a DEQ-branch step, and a
/// completed job is never marked.
#[test]
fn rad_marks_track_the_queue() {
    use ktelemetry::SchedulerMode;
    // Ops: 0 → a new job arrives, 1 → the `x`-th live job completes,
    // 2 and 3 → one decision, live job `i` desiring `d[i % d.len()]`.
    let op = (0u8..4, 0usize..64, prop::vec(0u32..4, 1..16));
    prop::check(128, (prop::vec(op, 1..80), 1u32..5), |&(ref ops, p)| {
        let mut rad = RadState::new(Category(0));
        let mut slots = SlotTable::new();
        let mut live: Vec<JobId> = Vec::new();
        let mut done: Vec<JobId> = Vec::new();
        let mut next_id = 0u32;
        for (step, (kind, x, d)) in ops.iter().enumerate() {
            match kind {
                0 => {
                    rad.job_arrived(JobId(next_id));
                    live.push(JobId(next_id));
                    next_id += 1;
                }
                1 if !live.is_empty() => {
                    let id = live.remove(x % live.len());
                    rad.job_completed(id);
                    done.push(id);
                }
                1 => {}
                _ => {
                    let rows: Vec<[u32; 1]> = (0..live.len()).map(|i| [d[i % d.len()]]).collect();
                    let views: Vec<JobView<'_>> = live
                        .iter()
                        .zip(&rows)
                        .map(|(&id, row)| JobView {
                            id,
                            release: 0,
                            desires: row,
                        })
                        .collect();
                    let mut out = AllotmentMatrix::new(1);
                    out.reset(views.len());
                    slots.fill(&views);
                    rad.allot(step as u64 + 1, &views, &slots, p, &mut out);
                    let marked = live.iter().filter(|&&id| rad.is_marked(id)).count();
                    assert_eq!(
                        rad.marked_count() as usize,
                        marked,
                        "step {step}: marked_count disagrees with the marked queue"
                    );
                    if rad.mode() == SchedulerMode::Deq {
                        assert_eq!(marked, 0, "step {step}: marks survive a DEQ step");
                    }
                }
            }
            assert!(
                done.iter().all(|&id| !rad.is_marked(id)),
                "step {step}: a completed job is still marked"
            );
            assert_eq!(rad.tracked_jobs(), live.len());
        }
    });
}
