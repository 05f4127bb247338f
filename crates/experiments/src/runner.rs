//! Shared helpers: the pinned-seed run, a parallel sweep runner, and
//! the all-schedulers comparison harness.

use kanalysis::bounds::makespan_bounds;
use kanalysis::stats::percentile;
use kanalysis::table::{f3, Table};
use kbaselines::SchedulerKind;
use kdag::{Category, SelectionPolicy};
use ksim::{simulate, JobSpec, Resources, SimConfig, SimOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `kind` on `jobs`/`res` under `cfg`: a fresh scheduler built
/// with [`SchedulerKind::DEFAULT_SEED`] (the experiments pin it, so
/// `results/` depends on it) and wired to `cfg`'s telemetry and spans.
pub fn run(kind: SchedulerKind, jobs: &[JobSpec], res: &Resources, cfg: &SimConfig) -> SimOutcome {
    let mut sched = kind.build(res.k(), SchedulerKind::DEFAULT_SEED, cfg);
    simulate(sched.as_mut(), jobs, res, cfg)
}

/// Map `f` over `items` on all available cores, preserving order.
///
/// The closure gets `(index, &item)`. Work is distributed by an atomic
/// cursor, so uneven item costs balance automatically. Panics in
/// workers propagate (the sweep is aborted).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i, &items[i]);
                results.lock().expect("no poisoned sweeps")[i] = Some(r);
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoned sweeps")
        .into_iter()
        .map(|r| r.expect("every index visited"))
        .collect()
}

/// One scheduler's headline metrics on one workload.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Which scheduler.
    pub kind: SchedulerKind,
    /// Makespan `T(J)`.
    pub makespan: u64,
    /// `T / LB` against the §4 lower bound.
    pub ratio_vs_lb: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// 95th-percentile response time.
    pub p95_response: f64,
    /// Maximum response time (the tail).
    pub max_response: u64,
    /// The worst per-category utilization (bottleneck view).
    pub min_utilization: f64,
    /// Processor units withdrawn from still-active jobs.
    pub preemptions: u64,
}

/// Run every [`SchedulerKind`] on the same workload (in parallel) and
/// collect the standard comparison metrics, rows in canonical order.
pub fn compare_schedulers(
    jobs: &[JobSpec],
    res: &Resources,
    policy: SelectionPolicy,
    seed: u64,
) -> Vec<CompareRow> {
    let lb = makespan_bounds(jobs, res).lower_bound();
    let kinds: Vec<SchedulerKind> = SchedulerKind::ALL.to_vec();
    par_map(&kinds, |_, &kind| {
        let cfg = SimConfig::default().with_policy(policy).with_seed(seed);
        let o = run(kind, jobs, res, &cfg);
        let responses: Vec<f64> = (0..o.job_count()).map(|i| o.response(i) as f64).collect();
        CompareRow {
            kind,
            makespan: o.makespan,
            ratio_vs_lb: o.makespan as f64 / lb,
            mean_response: o.mean_response(),
            p95_response: percentile(&responses, 95.0),
            max_response: o.max_response(),
            min_utilization: Category::all(res.k())
                .map(|c| o.utilization(c, res))
                .fold(f64::INFINITY, f64::min),
            preemptions: o.preemptions,
        }
    })
}

/// Render comparison rows as the standard table.
pub fn comparison_table(title: &str, rows: &[CompareRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scheduler",
            "makespan",
            "T/LB",
            "mean resp",
            "p95 resp",
            "max resp",
            "min util",
        ],
    );
    for r in rows {
        table.row_owned(vec![
            r.kind.label().to_string(),
            r.makespan.to_string(),
            f3(r.ratio_vs_lb),
            f3(r.mean_response),
            f3(r.p95_response),
            r.max_response.to_string(),
            format!("{:.0}%", 100.0 * r.min_utilization),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::generators::chain;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |i, &x| x * 2 + i as u64);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, items[i] * 2 + i as u64);
        }
    }

    #[test]
    fn par_map_empty() {
        let items: Vec<u64> = vec![];
        assert!(par_map(&items, |_, &x| x).is_empty());
    }

    #[test]
    fn run_smoke() {
        let jobs = vec![JobSpec::batched(chain(1, 5, &[Category(0)]))];
        let res = Resources::uniform(1, 2);
        for kind in SchedulerKind::ALL {
            let o = run(kind, &jobs, &res, &SimConfig::default());
            assert_eq!(o.makespan, 5, "{kind}: chain must take span steps");
        }
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_records_events() {
        use ksim::{TelemetryEvent, TelemetryHandle};

        let jobs: Vec<JobSpec> = (0..5)
            .map(|i| JobSpec::batched(chain(1, 3 + i, &[Category(0)])))
            .collect();
        let res = Resources::uniform(1, 2);
        for kind in SchedulerKind::ALL {
            let cfg = SimConfig::default().with_seed(9);
            let plain = run(kind, &jobs, &res, &cfg);
            let (tel, rec) = TelemetryHandle::recording();
            let o = run(kind, &jobs, &res, &cfg.with_telemetry(tel));
            assert_eq!(
                o.makespan, plain.makespan,
                "{kind}: telemetry must not perturb"
            );
            assert_eq!(o.executed_by_category, plain.executed_by_category, "{kind}");
            let events = rec.lock().unwrap().take();
            let ends: Vec<&TelemetryEvent> = events
                .iter()
                .filter(|e| matches!(e, TelemetryEvent::RunEnd { .. }))
                .collect();
            assert_eq!(ends.len(), 1, "{kind}: exactly one run_end");
            if let TelemetryEvent::RunEnd { makespan, .. } = ends[0] {
                assert_eq!(*makespan, o.makespan, "{kind}");
            }
            let has_decisions = events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::Decision { .. }));
            assert_eq!(
                has_decisions,
                kind == SchedulerKind::KRad,
                "{kind}: only k-rad emits decision events"
            );
        }
    }

    #[test]
    fn compare_covers_all_kinds_in_order() {
        let jobs = vec![
            JobSpec::batched(chain(1, 4, &[Category(0)])),
            JobSpec::batched(chain(1, 6, &[Category(0)])),
        ];
        let res = Resources::uniform(1, 2);
        let rows = compare_schedulers(&jobs, &res, SelectionPolicy::Fifo, 0);
        assert_eq!(rows.len(), SchedulerKind::ALL.len());
        for (row, kind) in rows.iter().zip(SchedulerKind::ALL) {
            assert_eq!(row.kind, kind);
            assert!(row.makespan >= 6);
            assert!(row.ratio_vs_lb >= 1.0 - 1e-9);
            assert!(row.max_response as f64 >= row.mean_response);
        }
        let table = comparison_table("t", &rows);
        assert_eq!(table.rows.len(), rows.len());
        assert!(table.render().contains("k-rad"));
    }
}
