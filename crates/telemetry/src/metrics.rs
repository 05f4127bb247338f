//! Dependency-free fixed-bucket histograms.

/// A fixed-bucket histogram over `u64` samples.
///
/// Buckets are defined by ascending **inclusive** upper bounds; one
/// implicit overflow bucket catches everything above the last bound.
/// A sample `v` lands in the first bucket whose bound `b` satisfies
/// `v <= b` — identical to the Prometheus `le` convention, so the
/// exposition encoder can use [`Histogram::bounds`] verbatim. There
/// is no lower bound: `0` always lands in the first bucket.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            total: 0,
            sum: 0,
        }
    }

    /// Exponential bounds `1, 2, 4, … , 2^(n-1)` — a good default for
    /// count-like samples (active jobs, queue lengths).
    ///
    /// Bounds are inclusive upper bounds like every histogram in this
    /// crate: a sample of exactly `2` lands in the `≤2` bucket (not
    /// `≤4`), `0` lands in `≤1`, and anything above `2^(n-1)` —
    /// including `u64::MAX` — lands in the overflow bucket.
    ///
    /// # Panics
    /// Panics if `buckets` is 0 or ≥ 64 (the bounds would be empty or
    /// overflow `u64`).
    pub fn exponential(buckets: u32) -> Self {
        assert!(buckets < 64, "2^{} overflows a u64 bound", buckets);
        Histogram::new((0..buckets).map(|i| 1u64 << i).collect())
    }

    /// Rebuild a histogram from raw parts (bounds, per-bucket counts
    /// including the overflow slot, and the running sum) — the inverse
    /// of [`Histogram::bounds`] + [`Histogram::bucket_counts`] +
    /// [`Histogram::sum`], used by atomic snapshots.
    ///
    /// # Panics
    /// Panics on invalid bounds or a count vector whose length is not
    /// `bounds.len() + 1`.
    pub fn from_parts(bounds: Vec<u64>, counts: Vec<u64>, sum: u64) -> Self {
        let mut h = Histogram::new(bounds);
        assert_eq!(
            counts.len(),
            h.counts.len(),
            "counts must cover every bucket plus overflow"
        );
        h.total = counts.iter().sum();
        h.counts = counts;
        h.sum = sum;
        h
    }

    /// Record one sample. The sample lands in the first bucket whose
    /// inclusive upper bound is `>= value` (overflow bucket otherwise).
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts per bound (Prometheus `le` semantics): entry
    /// `i` is the number of samples `<= bounds[i]`; the final entry is
    /// the total (`le="+Inf"`).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut cum = 0u64;
        self.counts
            .iter()
            .map(|c| {
                cum += c;
                cum
            })
            .collect()
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear
    /// interpolation inside the owning bucket, the way Prometheus'
    /// `histogram_quantile` does. Returns 0 when empty; a quantile
    /// that lands in the overflow bucket returns the last finite
    /// bound (the histogram cannot resolve beyond it).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum;
            cum += c;
            if (cum as f64) >= rank {
                if i == self.bounds.len() {
                    // Overflow bucket: unbounded above, clamp to the
                    // last finite bound.
                    return self.bounds[self.bounds.len() - 1] as f64;
                }
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let fraction = (rank - prev as f64) / c as f64;
                return lower as f64 + fraction * (upper - lower) as f64;
            }
        }
        self.bounds[self.bounds.len() - 1] as f64
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Render as `≤1:12 ≤2:5 ≤4:0 >4:1`, skipping nothing.
    pub fn render(&self) -> String {
        let mut parts: Vec<String> = self
            .bounds
            .iter()
            .zip(&self.counts)
            .map(|(b, c)| format!("≤{b}:{c}"))
            .collect();
        parts.push(format!(
            ">{}:{}",
            self.bounds.last().expect("non-empty bounds"),
            self.counts.last().expect("overflow bucket")
        ));
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_inclusively() {
        let mut h = Histogram::new(vec![1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        // ≤1: {0,1}, ≤4: {2,4}, ≤16: {5,16}, >16: {17,1000}.
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
        assert!((h.mean() - 1045.0 / 8.0).abs() < 1e-12);
        assert!(h.render().starts_with("≤1:2 ≤4:2 ≤16:2 >16:2"));
    }

    #[test]
    fn exponential_bounds() {
        let h = Histogram::exponential(4);
        assert_eq!(h.bounds(), &[1, 2, 4, 8]);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = Histogram::new(vec![10]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::new(vec![4, 2]);
    }

    #[test]
    fn exponential_boundaries_are_inclusive() {
        // Pin the edge semantics: 0 → first bucket, an exact boundary
        // value → that bucket (not the next), u64::MAX → overflow.
        let mut h = Histogram::exponential(4); // bounds 1, 2, 4, 8
        h.record(0);
        assert_eq!(h.bucket_counts(), &[1, 0, 0, 0, 0], "0 lands in ≤1");
        h.record(2);
        assert_eq!(h.bucket_counts(), &[1, 1, 0, 0, 0], "2 lands in ≤2, not ≤4");
        h.record(8);
        assert_eq!(h.bucket_counts(), &[1, 1, 0, 1, 0], "8 lands in ≤8");
        h.record(9);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts(), &[1, 1, 0, 1, 2], "above-last → overflow");
        assert_eq!(h.count(), 5);
        // The running sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn exponential_rejects_unrepresentable_bounds() {
        Histogram::exponential(64);
    }

    #[test]
    fn cumulative_counts_follow_le_semantics() {
        let mut h = Histogram::new(vec![1, 4, 16]);
        for v in [0, 1, 2, 4, 5, 16, 17, 1000] {
            h.record(v);
        }
        assert_eq!(h.cumulative_counts(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new(vec![2, 8]);
        for v in [1, 3, 9, 100] {
            h.record(v);
        }
        let rebuilt =
            Histogram::from_parts(h.bounds().to_vec(), h.bucket_counts().to_vec(), h.sum());
        assert_eq!(rebuilt, h);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn from_parts_checks_count_length() {
        Histogram::from_parts(vec![1, 2], vec![0, 0], 0);
    }

    /// Deterministic 64-bit LCG for the hand-rolled property tests
    /// (`kdag::prop` is out of reach: kdag depends on this crate).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// Random strictly-ascending bounds (1–6 buckets, values ≤ ~4096).
    fn random_bounds(state: &mut u64) -> Vec<u64> {
        let n = 1 + (lcg(state) % 6) as usize;
        let mut bounds = Vec::with_capacity(n);
        let mut b = 0u64;
        for _ in 0..n {
            b += 1 + lcg(state) % 512;
            bounds.push(b);
        }
        bounds
    }

    #[test]
    fn prop_quantile_is_monotone_and_bounded() {
        let mut s = 0x5EED_0001u64;
        for _ in 0..200 {
            let bounds = random_bounds(&mut s);
            let last = *bounds.last().unwrap();
            let mut h = Histogram::new(bounds);
            let samples = (lcg(&mut s) % 40) as usize;
            for _ in 0..samples {
                h.record(lcg(&mut s) % (last * 2 + 1));
            }
            let grid = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = -1.0f64;
            for &q in &grid {
                let v = h.quantile(q);
                if samples == 0 {
                    assert_eq!(v, 0.0, "empty histogram must answer 0");
                    continue;
                }
                assert!(
                    (0.0..=last as f64).contains(&v),
                    "quantile within [0, last]"
                );
                assert!(v >= prev, "quantile must be monotone in q");
                prev = v;
            }
        }
    }

    #[test]
    fn prop_boundary_samples_stay_inclusive() {
        // Recording exactly a bucket bound `b` must keep all mass in
        // the `≤b` bucket: quantile(1.0) answers `b` itself, never the
        // next bound. Recording `b + 1` must spill to the next bucket.
        let mut s = 0xB0DA_0002u64;
        for _ in 0..100 {
            let bounds = random_bounds(&mut s);
            for (i, &b) in bounds.iter().enumerate() {
                let mut h = Histogram::new(bounds.clone());
                let n = 1 + lcg(&mut s) % 9;
                for _ in 0..n {
                    h.record(b);
                }
                let mut expected = vec![0u64; bounds.len() + 1];
                expected[i] = n;
                assert_eq!(h.bucket_counts(), &expected[..], "b lands in its bucket");
                assert!((h.quantile(1.0) - b as f64).abs() < 1e-9);

                let mut above = Histogram::new(bounds.clone());
                above.record(b + 1);
                let expect_bound = *bounds.get(i + 1).unwrap_or(&b) as f64;
                assert!((above.quantile(1.0) - expect_bound).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prop_single_sample_resolves_to_owning_bucket_bound() {
        // With one sample every quantile asks for rank 1, so the
        // answer is the inclusive upper bound of the owning bucket
        // (clamped to the last finite bound on overflow).
        let mut s = 0x051_0003u64;
        for _ in 0..200 {
            let bounds = random_bounds(&mut s);
            let last = *bounds.last().unwrap();
            let v = lcg(&mut s) % (last * 2 + 1);
            let mut h = Histogram::new(bounds.clone());
            h.record(v);
            let owning = bounds.iter().find(|&&b| v <= b).copied().unwrap_or(last) as f64;
            for q in [0.0, 0.5, 1.0] {
                assert!((h.quantile(q) - owning).abs() < 1e-9, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn prop_quantile_rank_mass_is_covered() {
        // At least ceil(q · total) samples are ≤ the upper bound of
        // the bucket the quantile interpolates inside (when the
        // quantile does not clamp into overflow).
        let mut s = 0xC0DE_0004u64;
        for _ in 0..150 {
            let bounds = random_bounds(&mut s);
            let last = *bounds.last().unwrap();
            let mut h = Histogram::new(bounds.clone());
            let samples = 1 + (lcg(&mut s) % 60) as usize;
            for _ in 0..samples {
                h.record(lcg(&mut s) % (last + 1)); // no overflow mass
            }
            for q in [0.1, 0.5, 0.9, 0.99] {
                let v = h.quantile(q);
                let bucket_upper = bounds.iter().find(|&&b| v <= b as f64).copied().unwrap();
                let covered: u64 = bounds
                    .iter()
                    .zip(h.cumulative_counts())
                    .find(|(&b, _)| b == bucket_upper)
                    .map(|(_, c)| c)
                    .unwrap();
                let rank = (q * samples as f64).max(1.0).ceil() as u64;
                assert!(covered >= rank, "bucket ≤{bucket_upper} covers rank {rank}");
            }
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(vec![10, 20, 40]);
        for _ in 0..50 {
            h.record(5); // ≤10 bucket
        }
        for _ in 0..50 {
            h.record(15); // ≤20 bucket
        }
        // Half the mass is ≤10, so p50 is the top of the first bucket.
        assert!((h.quantile(0.5) - 10.0).abs() < 1e-9);
        // p75 is halfway through the (10, 20] bucket.
        assert!((h.quantile(0.75) - 15.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 20.0).abs() < 1e-9);
        assert_eq!(Histogram::new(vec![1]).quantile(0.5), 0.0, "empty → 0");
        // Mass in the overflow bucket clamps to the last finite bound.
        let mut o = Histogram::new(vec![1, 2]);
        o.record(1000);
        assert_eq!(o.quantile(0.99), 2.0);
    }
}
