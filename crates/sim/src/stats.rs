//! Histograms and their quantiles.
//!
//! The paper's rates, peaks and means are plain counters on the structures
//! that produce them; a distribution needs buckets, which live here.

/// Fixed-boundary histogram with overflow bucket.
///
/// Used for commit-latency and flush-queue-depth distributions, where we
/// care about shape and tail percentiles rather than exact moments.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    min: f64,
    max: f64,
    shape: Shape,
}

/// What the constructor knew about how the bounds are spaced: enough for
/// [`Histogram::record`] to guess a sample's bucket instead of searching.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `bounds[i] = (i + 1) / buckets_per_unit`.
    Linear { buckets_per_unit: f64 },
    /// `bounds[i] = lo · e^(i / buckets_per_e)`.
    Geometric { lo: f64, buckets_per_e: f64 },
    /// Hand-written bounds: no guess.
    Unknown,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    /// A sample lands in the first bucket whose bound it does not exceed;
    /// larger samples land in the overflow bucket.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            shape: Shape::Unknown,
        }
    }

    /// Evenly spaced bounds over `[0, hi]` with `n` buckets (plus overflow).
    pub fn linear(hi: f64, n: usize) -> Self {
        assert!(n > 0 && hi > 0.0);
        Histogram {
            shape: Shape::Linear {
                buckets_per_unit: n as f64 / hi,
            },
            ..Self::new((1..=n).map(|i| hi * i as f64 / n as f64).collect())
        }
    }

    /// Geometrically spaced bounds from `lo` to at least `hi` with
    /// `per_decade` buckets per factor of ten — constant *relative*
    /// resolution, so one histogram resolves both millisecond commit
    /// latencies and multi-second stragglers. The last bound is the first
    /// point of the geometric ladder at or above `hi`.
    pub fn geometric(lo: f64, hi: f64, per_decade: usize) -> Self {
        assert!(lo > 0.0 && hi > lo && per_decade > 0);
        let step = 10f64.powf(1.0 / per_decade as f64);
        let mut bounds = vec![lo];
        while *bounds.last().expect("non-empty") < hi {
            let next = bounds.last().expect("non-empty") * step;
            bounds.push(next);
        }
        Histogram {
            shape: Shape::Geometric {
                lo,
                buckets_per_e: 1.0 / step.ln(),
            },
            ..Self::new(bounds)
        }
    }

    /// Adds every sample of `other` into `self` — the aggregation step when
    /// per-source histograms (e.g. per-tenant latency) roll up into one
    /// distribution.
    ///
    /// # Panics
    /// Panics when the two histograms have different bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The bucket of `x`: the number of bounds below it. The shape's guess
    /// is taken only when the bounds on either side of it confirm it —
    /// rounding at an edge, `NaN` and the infinities fall through to the
    /// search, so the choice is the search's for every input.
    #[inline]
    fn bucket(&self, x: f64) -> usize {
        let guess = match self.shape {
            Shape::Linear { buckets_per_unit } => (x * buckets_per_unit).ceil() - 1.0,
            Shape::Geometric { lo, buckets_per_e } => ((x / lo).ln() * buckets_per_e).ceil(),
            Shape::Unknown => 0.0,
        };
        // `as` saturates: negatives and NaN guess the first bucket, +inf
        // the overflow bucket.
        let g = (guess as usize).min(self.bounds.len());
        let above = g == 0 || self.bounds[g - 1] < x;
        let within = g == self.bounds.len() || x <= self.bounds[g];
        if above && within {
            g
        } else {
            self.bounds.partition_point(|&b| b < x)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        let idx = self.bucket(x);
        self.counts[idx] += 1;
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest sample seen, if any.
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest sample seen, if any.
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max)
    }

    /// Approximate quantile (0.0..=1.0) by bucket upper bound.
    ///
    /// Returns `None` when empty. The overflow bucket reports the true max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.walk(|i| self.counts[i], q)
    }

    /// Raw bucket counts (last entry is the overflow bucket) — a snapshot
    /// clients keep to later take windowed readings via
    /// [`Histogram::quantile_since`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate quantile over only the samples recorded since
    /// `baseline` — an earlier [`Histogram::counts`] snapshot of this same
    /// histogram. This is the sliding-window reading the adaptive
    /// controller uses: cumulative quantiles average over the whole run
    /// and react too slowly to workload phase shifts.
    ///
    /// Returns `None` when no samples landed since the snapshot. Like
    /// [`Histogram::quantile`] the result is a bucket upper bound, except
    /// the overflow bucket, which reports the *cumulative* max (the
    /// per-window max is not tracked) — a conservative overestimate.
    ///
    /// # Panics
    /// Panics when `baseline` has the wrong length or any count ran
    /// backwards (it came from a different histogram).
    pub fn quantile_since(&self, baseline: &[u64], q: f64) -> Option<f64> {
        assert_eq!(
            baseline.len(),
            self.counts.len(),
            "baseline snapshot from a different histogram shape"
        );
        let delta = |i: usize| {
            let (c, b) = (self.counts[i], baseline[i]);
            assert!(
                c >= b,
                "bucket {i} ran backwards: baseline from another histogram"
            );
            c - b
        };
        self.walk(delta, q)
    }

    /// The quantile walk over per-bucket counts `count(i)`: the first
    /// bucket whose running count reaches `q` of the total, reported by
    /// its upper bound (the overflow bucket by the max); `None` when the
    /// counts are all zero.
    fn walk(&self, count: impl Fn(usize) -> u64, q: f64) -> Option<f64> {
        let total: u64 = (0..self.counts.len()).map(&count).sum();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for i in 0..self.counts.len() {
            seen += count(i);
            if seen >= target {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// (upper-bound, count) pairs including the overflow bucket (bound =
    /// +inf).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_windowed_quantile() {
        let mut h = Histogram::linear(10.0, 5); // bounds 2,4,6,8,10
        for x in [1.0, 1.5, 1.8] {
            h.record(x);
        }
        // Window opens: everything so far lands in the first bucket.
        let snap = h.counts().to_vec();
        assert_eq!(h.quantile_since(&snap, 0.99), None, "empty window");
        // New samples in the window are all large; the cumulative
        // quantile still reports small, the windowed one must not.
        for x in [7.0, 7.5, 9.0, 9.5] {
            h.record(x);
        }
        assert_eq!(h.quantile(0.25), Some(2.0), "cumulative p25 is low");
        assert_eq!(h.quantile_since(&snap, 0.25), Some(8.0));
        assert_eq!(h.quantile_since(&snap, 0.5), Some(8.0));
        assert_eq!(h.quantile_since(&snap, 1.0), Some(10.0));
        // Overflow in the window reports the cumulative max.
        h.record(55.0);
        assert_eq!(h.quantile_since(&snap, 1.0), Some(55.0));
        // A fresh snapshot empties the window again.
        let snap2 = h.counts().to_vec();
        assert_eq!(h.quantile_since(&snap2, 0.5), None);
    }

    #[test]
    #[should_panic]
    fn histogram_windowed_quantile_rejects_foreign_baseline() {
        let mut h = Histogram::linear(10.0, 5);
        h.record(1.0);
        let _ = h.quantile_since(&[0, 0], 0.5);
    }

    #[test]
    fn histogram_basic_shape() {
        let mut h = Histogram::linear(10.0, 5); // bounds 2,4,6,8,10
        for x in [1.0, 3.0, 3.5, 9.0, 42.0] {
            h.record(x);
        }
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (2.0, 1));
        assert_eq!(buckets[1], (4.0, 2));
        assert_eq!(buckets[4], (10.0, 1));
        assert_eq!(buckets[5].1, 1); // overflow
        assert_eq!(h.total(), 5);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(42.0));
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::linear(100.0, 100);
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.99), Some(99.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        assert_eq!(Histogram::linear(1.0, 1).quantile(0.5), None);
    }

    #[test]
    fn histogram_boundary_sample_goes_low() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.record(1.0); // exactly on a bound → that bucket
        assert_eq!(h.buckets().next().unwrap().1, 1);
    }

    /// Guess-and-verify against the plain search on one seed's shapes.
    fn bucket_case(rng: &mut crate::rng::SimRng) {
        let mut unit = move || rng.next_f64();
        let hi = 1.0 + unit() * 1e5;
        let mut written = vec![unit() - 0.5];
        for _ in 0..(unit() * 40.0) as usize {
            written.push(written.last().expect("non-empty") + 1e-9 + unit() * 10.0);
        }
        let shapes = [
            Histogram::linear(60_000.0, 240),
            Histogram::linear(hi, 1 + (unit() * 300.0) as usize),
            Histogram::geometric(0.01 + unit(), hi * 10.0, 1 + (unit() * 40.0) as usize),
            Histogram::new(written),
        ];
        for (which, h) in shapes.iter().enumerate() {
            let (first, last) = (h.bounds[0], h.bounds[h.bounds.len() - 1]);
            let edges = h
                .bounds
                .iter()
                .flat_map(|&b| [b.next_down(), b, b.next_up()]);
            let special = [0.0, -0.0, -1.0, -hi, f64::MIN_POSITIVE, f64::MAX]
                .into_iter()
                .chain([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
            let random: Vec<f64> = (0..2_000)
                .map(|_| first - 1.0 + unit() * (last - first + 2.0) * 1.1)
                .collect();
            for x in edges.chain(special).chain(random) {
                assert_eq!(
                    h.bucket(x),
                    h.bounds.partition_point(|&b| b < x),
                    "shape {which} ({:?}) sample {x:e}",
                    h.shape
                );
            }
        }
    }

    #[test]
    fn histogram_guess_matches_partition_point() {
        crate::cases::run("stats::tests::histogram_guess", 40, bucket_case);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(vec![2.0, 1.0]);
    }

    #[test]
    fn histogram_geometric_ladder() {
        let h = Histogram::geometric(1.0, 1000.0, 1); // 1, 10, 100, 1000
        let bounds: Vec<f64> = h.buckets().map(|(b, _)| b).collect();
        assert_eq!(bounds.len(), 5); // 4 bounds + overflow
        assert!((bounds[0] - 1.0).abs() < 1e-9);
        assert!((bounds[3] - 1000.0).abs() < 1e-6);
        assert_eq!(bounds[4], f64::INFINITY);
        // Covers hi even when the ladder overshoots it.
        let h2 = Histogram::geometric(1.0, 500.0, 1);
        let last = h2.buckets().map(|(b, _)| b).nth(3).unwrap();
        assert!(last >= 500.0);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let mut a = Histogram::linear(10.0, 5);
        let mut b = Histogram::linear(10.0, 5);
        for x in [1.0, 3.0] {
            a.record(x);
        }
        for x in [7.0, 9.0, 42.0] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.total(), 5);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(42.0));
        assert_eq!(a.quantile(1.0), Some(42.0));
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::linear(10.0, 5));
        assert_eq!(a.total(), 5);
        assert_eq!(a.min(), Some(1.0));
    }

    #[test]
    #[should_panic]
    fn histogram_merge_rejects_shape_mismatch() {
        let mut a = Histogram::linear(10.0, 5);
        a.merge(&Histogram::linear(10.0, 4));
    }
}
