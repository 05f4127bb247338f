//! Randomized round-robin.

use kdag::rng::StdRng;
use kdag::{Category, JobId};
use ksim::{AllotmentMatrix, JobView, Resources, Scheduler, Time};

/// Randomized round-robin: at every step, each category gives one
/// processor to each of `min(Pα, |J(α,t)|)` α-active jobs chosen
/// *uniformly at random* (a fresh partial Fisher-Yates per step).
///
/// The paper's §4 cites Shmoys et al.'s `(2 − 1/√P)` lower bound for
/// randomized algorithms against oblivious adversaries: randomization
/// can beat the deterministic `2 − 1/P` barrier because the adversary
/// can no longer predict who is served last. `RandomRr` is the natural
/// randomized strawman for that comparison — fair in expectation, but
/// (like RR-only) never gives a job more than one processor, so it
/// inherits the light-load span dilation.
#[derive(Clone, Debug)]
pub struct RandomRr {
    rng: StdRng,
}

impl RandomRr {
    /// Create with an explicit seed (determinism for experiments).
    pub fn seeded(seed: u64) -> Self {
        RandomRr {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for RandomRr {
    fn default() -> Self {
        RandomRr::seeded(crate::SchedulerKind::DEFAULT_SEED)
    }
}

impl Scheduler for RandomRr {
    fn name(&self) -> &str {
        "random-rr"
    }

    fn on_arrival(&mut self, _id: JobId, _t: Time) {}
    fn on_completion(&mut self, _id: JobId, _t: Time) {}

    fn allot(
        &mut self,
        _t: Time,
        views: &[JobView<'_>],
        res: &Resources,
        out: &mut AllotmentMatrix,
    ) {
        for cat in Category::all(res.k()) {
            let mut active: Vec<usize> = (0..views.len())
                .filter(|&s| views[s].is_active(cat))
                .collect();
            let take = (res.processors(cat) as usize).min(active.len());
            // Partial Fisher-Yates: the first `take` entries become a
            // uniform random subset.
            for i in 0..take {
                let j = self.rng.gen_range(i..active.len());
                active.swap(i, j);
                out.set(active[i], cat, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views<'a>(desires: &'a [[u32; 1]]) -> Vec<JobView<'a>> {
        desires
            .iter()
            .enumerate()
            .map(|(i, d)| JobView {
                id: JobId(i as u32),
                release: 0,
                desires: d,
            })
            .collect()
    }

    #[test]
    fn allots_exactly_min_p_active_ones() {
        let d = [[3u32], [3], [3], [3], [3]];
        let v = views(&d);
        let res = Resources::uniform(1, 2);
        let mut s = RandomRr::seeded(1);
        for _ in 0..10 {
            let mut out = AllotmentMatrix::new(1);
            out.reset(5);
            s.allot(1, &v, &res, &mut out);
            let a: Vec<u32> = (0..5).map(|i| out.get(i, Category(0))).collect();
            assert_eq!(a.iter().sum::<u32>(), 2);
            assert!(a.iter().all(|&x| x <= 1));
        }
    }

    #[test]
    fn selection_is_uniform_ish() {
        let d = [[3u32], [3], [3], [3]];
        let v = views(&d);
        let res = Resources::uniform(1, 1);
        let mut s = RandomRr::seeded(7);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            let mut out = AllotmentMatrix::new(1);
            out.reset(4);
            s.allot(1, &v, &res, &mut out);
            for (i, c) in counts.iter_mut().enumerate() {
                *c += out.get(i, Category(0));
            }
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed selection: {counts:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let d = [[3u32], [3], [3]];
        let v = views(&d);
        let res = Resources::uniform(1, 1);
        let run = |seed| {
            let mut s = RandomRr::seeded(seed);
            let mut picks = Vec::new();
            for _ in 0..20 {
                let mut out = AllotmentMatrix::new(1);
                out.reset(3);
                s.allot(1, &v, &res, &mut out);
                picks.push((0..3).position(|i| out.get(i, Category(0)) == 1).unwrap());
            }
            picks
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn skips_inactive() {
        let d = [[0u32], [3]];
        let v = views(&d);
        let res = Resources::uniform(1, 2);
        let mut s = RandomRr::seeded(2);
        let mut out = AllotmentMatrix::new(1);
        out.reset(2);
        s.allot(1, &v, &res, &mut out);
        assert_eq!(out.get(0, Category(0)), 0);
        assert_eq!(out.get(1, Category(0)), 1);
    }
}
