//! Scheduler factory for the experiment harness.

use crate::{DeqOnly, Drf, Equi, GreedyFcfs, Las, RandomRr, RoundRobinOnly};
use krad::KRad;
use ksim::{Scheduler, SimConfig};
use ktelemetry::json;
use std::fmt;

/// Every scheduler the experiments compare, including K-RAD itself.
///
/// ```
/// use kbaselines::SchedulerKind;
/// use kdag::{generators::chain, Category};
/// use ksim::{simulate, JobSpec, Resources, SimConfig};
/// let jobs = vec![JobSpec::batched(chain(1, 5, &[Category(0)]))];
/// let res = Resources::uniform(1, 2);
/// let cfg = SimConfig::default();
/// for kind in SchedulerKind::ALL {
///     let mut sched = kind.build(res.k(), SchedulerKind::DEFAULT_SEED, &cfg);
///     let o = simulate(sched.as_mut(), &jobs, &res, &cfg);
///     assert_eq!(o.makespan, 5, "{kind}: a chain takes span steps");
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The paper's K-RAD (one RAD per category).
    KRad,
    /// Equi-partitioning without desire feedback.
    Equi,
    /// DEQ at every load level (no RR cycle).
    DeqOnly,
    /// Round-robin at every load level (no DEQ).
    RrOnly,
    /// Greedy first-come-first-served.
    GreedyFcfs,
    /// Least attained service (foreground-background).
    Las,
    /// Randomized round-robin (uniform random subset each step).
    RandomRr,
    /// Dominant Resource Fairness (progressive filling).
    Drf,
}

impl SchedulerKind {
    /// All kinds, in canonical table order (K-RAD first).
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::KRad,
        SchedulerKind::Equi,
        SchedulerKind::DeqOnly,
        SchedulerKind::RrOnly,
        SchedulerKind::GreedyFcfs,
        SchedulerKind::Las,
        SchedulerKind::RandomRr,
        SchedulerKind::Drf,
    ];

    /// The seed [`build`](SchedulerKind::build) callers pass when they
    /// have no reason to vary the randomized schedulers; the
    /// experiments pin it, so `results/` depends on it.
    pub const DEFAULT_SEED: u64 = 0xC0FFEE;

    /// Instantiate a fresh scheduler for a `k`-category machine.
    ///
    /// `seed` drives the randomized schedulers (ignored by the
    /// deterministic ones). Schedulers that observe themselves
    /// (currently K-RAD) record decision events into `cfg.telemetry`
    /// and `deq_allot`/`rr_cycle` spans into `cfg.spans` — the same
    /// handles the engine uses when it runs under `cfg`, so scheduler
    /// decisions interleave with engine step events in one stream.
    /// With both off (the default) every kind behaves exactly as its
    /// plain constructor.
    pub fn build(self, k: usize, seed: u64, cfg: &SimConfig) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerKind::KRad => Box::new(KRad::with_instrumentation(
                k,
                cfg.telemetry.clone(),
                cfg.spans.clone(),
            )),
            SchedulerKind::Equi => Box::new(Equi::new()),
            SchedulerKind::DeqOnly => Box::new(DeqOnly::new()),
            SchedulerKind::RrOnly => Box::new(RoundRobinOnly::new()),
            SchedulerKind::GreedyFcfs => Box::new(GreedyFcfs::new()),
            SchedulerKind::Las => Box::new(Las::new()),
            SchedulerKind::RandomRr => Box::new(RandomRr::seeded(seed)),
            SchedulerKind::Drf => Box::new(Drf::new()),
        }
    }

    /// Short stable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::KRad => "k-rad",
            SchedulerKind::Equi => "equi",
            SchedulerKind::DeqOnly => "deq-only",
            SchedulerKind::RrOnly => "rr-only",
            SchedulerKind::GreedyFcfs => "greedy-fcfs",
            SchedulerKind::Las => "las",
            SchedulerKind::RandomRr => "random-rr",
            SchedulerKind::Drf => "drf",
        }
    }

    /// Parse a [`label`](SchedulerKind::label) back into a kind.
    pub fn from_label(label: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

impl json::Wire for SchedulerKind {
    fn write(&self, out: &mut String) {
        json::push_str_lit(out, self.label());
    }
    fn read(v: &json::Value) -> Result<Self, String> {
        json::read_label(v, SchedulerKind::from_label)
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_named_schedulers() {
        for kind in SchedulerKind::ALL {
            let s = kind.build(2, SchedulerKind::DEFAULT_SEED, &SimConfig::default());
            assert!(!s.name().is_empty(), "{kind} has a name");
        }
    }

    #[test]
    fn build_wires_telemetry_into_krad_and_leaves_the_rest_silent() {
        use kdag::JobId;
        use ksim::{AllotmentMatrix, Resources, TelemetryHandle};

        let res = Resources::uniform(2, 1);
        for kind in SchedulerKind::ALL {
            let (tel, rec) = TelemetryHandle::recording();
            let mut s = kind.build(2, 7, &SimConfig::default().with_telemetry(tel));
            for i in 0..4 {
                s.on_arrival(JobId(i), 1);
            }
            let rows = [[2u32, 2], [2, 2], [2, 2], [2, 2]];
            let views: Vec<ksim::JobView<'_>> = rows
                .iter()
                .enumerate()
                .map(|(i, d)| ksim::JobView {
                    id: JobId(i as u32),
                    release: 0,
                    desires: d,
                })
                .collect();
            let mut out = AllotmentMatrix::new(2);
            out.reset(views.len());
            s.allot(1, &views, &res, &mut out);
            let n = rec.lock().unwrap().events().len();
            if kind == SchedulerKind::KRad {
                assert!(n > 0, "k-rad must emit decision events");
            } else {
                assert_eq!(n, 0, "{kind} emits no telemetry");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut l: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.label()).collect();
        l.sort_unstable();
        l.dedup();
        assert_eq!(l.len(), SchedulerKind::ALL.len());
        for k in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::from_label(k.label()), Some(k));
        }
        assert_eq!(SchedulerKind::from_label("K-RAD"), None);
    }
}
