//! # krad — the K-RAD adaptive scheduler (the paper's contribution)
//!
//! K-RAD schedules parallel jobs on **functionally heterogeneous**
//! resources: `K` categories of processors, where an `α`-task can only
//! run on an `α`-processor. It is **online and non-clairvoyant** — it
//! needs neither release times nor parallelism profiles in advance —
//! yet achieves provably optimal makespan and strong mean response
//! time:
//!
//! * **Makespan** (Theorem 3): `(K + 1 − 1/Pmax)`-competitive for any
//!   job set with arbitrary release times — matching the lower bound of
//!   Theorem 1, hence optimal among deterministic non-clairvoyant
//!   algorithms.
//! * **Mean response time** (Theorems 5 & 6): `(2K + 1 − 2K/(n+1))`-
//!   competitive under light load and `(4K + 1 − 4K/(n+1))`-competitive
//!   in general, for batched job sets of `n` jobs. For `K = 1` this
//!   gives `3 − 2/(n+1)` — better than the previously best known
//!   `2 + √3` bound.
//!
//! ## Structure
//!
//! K-RAD assigns one [`RadState`] per category; each decision fills
//! one [`SlotTable`] (job id → view slot) that all `K` instances share.
//! Each RAD instance unifies two classic policies, switching by
//! instantaneous load:
//!
//! * `|α-active jobs| ≤ Pα` → **DEQ** ([`deq`]): dynamic
//!   equi-partitioning — jobs desiring less than the fair share get
//!   exactly their desire; the surplus is recursively re-divided among
//!   the rest (the *mean deprived allotment*).
//! * `|α-active jobs| > Pα` → **round-robin cycles**: one processor to
//!   each of the first `Pα` unmarked α-active jobs (marking them);
//!   a cycle ends when fewer than `Pα` unmarked jobs remain, at which
//!   point marked jobs top up the step, DEQ divides the processors,
//!   and all marks clear.
//!
//! ```
//! use krad::KRad;
//! use ksim::{simulate, JobSpec, Resources, SimConfig};
//! use kdag::generators::fig1_example;
//!
//! let jobs = vec![JobSpec::batched(fig1_example())];
//! let res = Resources::new(vec![2, 2, 1]);
//! let mut sched = KRad::new(res.k());
//! let outcome = simulate(&mut sched, &jobs, &res, &SimConfig::default());
//! assert_eq!(outcome.makespan, 5); // span-limited: T∞ = 5
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod deq;
mod krad;
mod rad;

pub use krad::KRad;
pub use rad::{RadState, SlotTable};

/// The paper's makespan competitive-ratio bound `K + 1 − 1/Pmax`
/// (Theorems 1 and 3). K-RAD never exceeds this factor over the
/// optimal clairvoyant makespan; no deterministic non-clairvoyant
/// scheduler can do better.
pub fn makespan_bound(k: usize, p_max: u32) -> f64 {
    k as f64 + 1.0 - 1.0 / f64::from(p_max)
}

/// The paper's mean-response-time bound for batched jobs under light
/// workload (Theorem 5): `2K + 1 − 2K/(n+1)`.
pub fn mrt_bound_light(k: usize, n: usize) -> f64 {
    let k = k as f64;
    2.0 * k + 1.0 - 2.0 * k / (n as f64 + 1.0)
}

/// The paper's general mean-response-time bound for batched jobs
/// (Theorem 6): `4K + 1 − 4K/(n+1)`.
pub fn mrt_bound_heavy(k: usize, n: usize) -> f64 {
    let k = k as f64;
    4.0 * k + 1.0 - 4.0 * k / (n as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_formulas_match_paper_constants() {
        // K=1, large P: the classic 2 - 1/P.
        assert!((makespan_bound(1, 4) - (2.0 - 0.25)).abs() < 1e-12);
        // K=3, Pmax=8.
        assert!((makespan_bound(3, 8) - (4.0 - 0.125)).abs() < 1e-12);
        // K=1 light-load MRT approaches 3.
        assert!(mrt_bound_light(1, 1_000_000) < 3.0);
        assert!(mrt_bound_light(1, 1_000_000) > 2.999);
        // K=2 heavy-load MRT approaches 9.
        assert!((mrt_bound_heavy(2, usize::MAX) - 9.0).abs() < 1e-6);
    }
}
