//! Metrics primitives: counters and the log₂-bucketed histogram.
//!
//! All types are plain values (no interior mutability, no atomics): the
//! evaluation loops that feed them are single-threaded, and the parallel
//! harness merges per-shard histograms with [`Log2Histogram::merge`],
//! which is exact, commutative, and associative.

use netsim::json::Value;

/// A monotonic event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Number of histogram buckets: one for 0, plus one per power of two.
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exactly the value 0; bucket `b ≥ 1` holds the half-open
/// dyadic range `[2^(b−1), 2^b)`. Alongside the buckets the histogram
/// tracks the exact count, sum, min, and max, so means are exact and only
/// quantiles are bucket-resolution approximations.
///
/// # Examples
///
/// ```rust
/// use obs::metrics::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [0, 1, 3, 8, 9] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 21);
/// assert_eq!(h.bucket_count(0), 1);        // the 0
/// assert_eq!(h.bucket_count(2), 1);        // 3 ∈ [2, 4)
/// assert_eq!(h.bucket_count(4), 2);        // 8, 9 ∈ [8, 16)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index holding `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in bucket `b`; see the type docs for bucket semantics.
    pub fn bucket_count(&self, b: usize) -> u64 {
        self.buckets[b]
    }

    /// The inclusive value range `[lo, hi]` covered by bucket `b`.
    pub fn bucket_bounds(b: usize) -> (u64, u64) {
        match b {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), (1 << b) - 1),
        }
    }

    /// Folds `other` into `self`. Exact: the result equals the histogram
    /// of the concatenated sample streams, so merging is commutative and
    /// associative.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0 ≤ q ≤ 1`), clamped to the observed max; `None` when empty.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::bucket_bounds(b).1.min(self.max));
            }
        }
        Some(self.max)
    }

    /// [`Log2Histogram::quantile_bound`] at q = 0.5 — the median's bucket
    /// upper bound. The `bench_build` per-source timing columns use these
    /// three accessors.
    pub fn p50(&self) -> Option<u64> {
        self.quantile_bound(0.5)
    }

    /// [`Log2Histogram::quantile_bound`] at q = 0.9.
    pub fn p90(&self) -> Option<u64> {
        self.quantile_bound(0.9)
    }

    /// [`Log2Histogram::quantile_bound`] at q = 0.99.
    pub fn p99(&self) -> Option<u64> {
        self.quantile_bound(0.99)
    }

    /// [`Log2Histogram::quantile_bound`] at q = 0.999 — the tail quantile
    /// the serving-telemetry roadmap reports alongside p50/p99.
    pub fn p999(&self) -> Option<u64> {
        self.quantile_bound(0.999)
    }

    /// This histogram as a JSON object: exact stats plus the non-empty
    /// buckets as `[[lo, count], …]`.
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| Value::Array(vec![Self::bucket_bounds(b).0.into(), c.into()]))
            .collect();
        Value::Object(vec![
            ("count".into(), self.count.into()),
            ("sum".into(), self.sum.into()),
            ("min".into(), self.min().map_or(Value::Null, Value::from)),
            ("max".into(), self.max().map_or(Value::Null, Value::from)),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // The gauge is the registry's last-value-wins handle.
        let g = crate::MetricsRegistry::new().gauge("g");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn bucket_boundaries_are_dyadic() {
        // Every power of two starts a new bucket; its predecessor ends one.
        for b in 1..64usize {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_of(lo), b, "2^{} must open bucket {b}", b - 1);
            assert_eq!(bucket_of(lo + (lo - 1)), b, "2^{b}-1 must close bucket {b}");
            if b >= 2 {
                assert_eq!(bucket_of(lo - 1), b - 1);
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(b);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
        }
    }

    #[test]
    fn merge_is_associative_and_matches_concatenation() {
        let streams: [&[u64]; 3] = [&[0, 1, 5, 17], &[2, 2, 1 << 40], &[u64::MAX, 3]];
        let hist = |vals: &[u64]| {
            let mut h = Log2Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let [a, b, c] = [hist(streams[0]), hist(streams[1]), hist(streams[2])];

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        // Both equal the histogram of the concatenated stream.
        let all: Vec<u64> = streams.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(left, hist(&all));
        assert_eq!(left.count(), 9);
        assert_eq!(left.min(), Some(0));
        assert_eq!(left.max(), Some(u64::MAX));
    }

    #[test]
    fn quantiles_and_json() {
        let mut h = Log2Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // p50 sample is 51, in bucket [32, 64); the bound is 63.
        assert_eq!(h.quantile_bound(0.5), Some(63));
        assert_eq!(h.quantile_bound(1.0), Some(100));
        assert_eq!(h.quantile_bound(0.0), Some(1));
        assert_eq!(Log2Histogram::new().quantile_bound(0.5), None);

        // The named accessors pin the bucket→quantile math: with samples
        // 1..=100, rank(0.9) = 89 → sample 90, bucket [64, 128) clamped to
        // the observed max 100; rank(0.99) = 98 → sample 99, same bucket.
        assert_eq!(h.p50(), Some(63));
        assert_eq!(h.p90(), Some(100));
        assert_eq!(h.p99(), Some(100));
        assert_eq!(Log2Histogram::new().p50(), None);
        // An un-clamped upper tail: powers of two land on exact bounds.
        let mut h2 = Log2Histogram::new();
        for v in [1u64, 2, 4, 1000] {
            h2.record(v);
        }
        assert_eq!(h2.p50(), Some(7)); // rank 1.5→2: sample 4, bucket [4,7]
        assert_eq!(h2.p90(), Some(1000));
        assert_eq!(h2.p99(), Some(1000));

        let json = h.to_json();
        assert_eq!(json.get("count").and_then(Value::as_u64), Some(100));
        assert_eq!(json.get("sum").and_then(Value::as_u64), Some(5050));
        // Round-trips through the parser.
        assert_eq!(Value::parse(&json.to_string()).unwrap(), json);
    }
}
