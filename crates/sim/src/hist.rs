//! Log-bucketed histogram for latency distributions.
//!
//! Latencies in the storage substrate span six orders of magnitude (µs cache
//! hits to 10 s spin-up waits), so a fixed-width histogram is useless.
//! [`LogHistogram`] uses geometrically-spaced buckets with a configurable
//! precision (buckets per decade); quantile queries return the upper bound of
//! the bucket containing the quantile, i.e. an over-estimate by at most one
//! bucket width — the standard HDR-style trade-off.

use serde::{Deserialize, Serialize};

/// Geometric-bucket histogram over positive values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Lower bound of the first bucket; values below land in bucket 0.
    floor: f64,
    /// Geometric growth factor between bucket bounds.
    factor: f64,
    /// `ln(factor)` cached for index computation.
    ln_factor: f64,
    /// `ln(floor)` cached.
    ln_floor: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max_seen: f64,
    /// Single-entry memo of the last value → bucket mapping, keyed by the
    /// value's bit pattern. Latency streams are full of exact repeats
    /// (every RAM-cache hit is the same constant), and the memo turns
    /// those `record` calls from an `ln()` into a bit compare. Pure
    /// acceleration state: excluded from serialization, and the `(0, 0)`
    /// default is self-consistent (`0.0` maps to bucket 0).
    #[serde(default, skip_serializing_if = "always_skip")]
    memo_bits: u64,
    #[serde(default, skip_serializing_if = "always_skip")]
    memo_bucket: usize,
    /// `bucket_upper(i)` for the first [`TABLE_BUCKETS`] buckets, built on
    /// the first `record`. A binary search over it replaces the `ln` and
    /// the `powi` nudges of [`Self::bucket_of`]; values past the last entry
    /// fall back to `bucket_of`. Derived from `floor`/`factor` alone, so
    /// it is excluded from serialization like the memo.
    #[serde(default, skip_serializing_if = "always_skip")]
    uppers: Vec<f64>,
}

/// Buckets covered by the lookup table: 12.8 decades at the default 20
/// buckets per decade (1 µs to ~73 days of latency).
const TABLE_BUCKETS: usize = 256;

fn always_skip<T>(_: &T) -> bool {
    true
}

impl LogHistogram {
    /// Histogram starting at `floor` with `buckets_per_decade` geometric
    /// buckets per ×10 range.
    pub fn new(floor: f64, buckets_per_decade: u32) -> Self {
        assert!(floor > 0.0, "floor must be positive");
        assert!(buckets_per_decade > 0);
        let factor = 10f64.powf(1.0 / buckets_per_decade as f64);
        LogHistogram {
            floor,
            factor,
            ln_factor: factor.ln(),
            ln_floor: floor.ln(),
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max_seen: 0.0,
            memo_bits: 0,
            memo_bucket: 0,
            uppers: Vec::new(),
        }
    }

    /// Default latency histogram: floor 1 µs (in seconds), 20 buckets per
    /// decade (≈12 % relative quantile error).
    pub fn for_latency_secs() -> Self {
        LogHistogram::new(1e-6, 20)
    }

    /// Bucket index of value `v`: the smallest `i` with
    /// `v <= bucket_upper(i)`. The ln-based estimate only seeds the search;
    /// the answer is always settled against [`Self::bucket_upper`] itself,
    /// so the two functions share one integer mapping by construction and a
    /// value exactly on a bucket edge can never land in a bucket whose
    /// upper bound is below it (which would make `quantile` under-report).
    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.floor {
            return 0;
        }
        let mut i =
            (((v.ln() - self.ln_floor) / self.ln_factor).floor() as usize).saturating_add(1);
        // The float estimate is off by at most a few ulps of an index;
        // nudge it until the defining inequalities hold exactly:
        // bucket_upper(i-1) < v <= bucket_upper(i).
        while i > 0 && v <= self.bucket_upper(i - 1) {
            i -= 1;
        }
        while v > self.bucket_upper(i) {
            // Terminates: bucket_upper grows monotonically to +inf (powi
            // overflow saturates at inf, and `v > inf` is false).
            i += 1;
        }
        i
    }

    /// Bucket index of `v` through the table of bucket upper bounds: the
    /// first `i` with `v <= bucket_upper(i)` is the defining inequality of
    /// [`Self::bucket_of`], so the two agree by construction (the bounds
    /// grow monotonically).
    fn bucket_index(&mut self, v: f64) -> usize {
        if self.uppers.is_empty() {
            self.uppers = (0..TABLE_BUCKETS).map(|i| self.bucket_upper(i)).collect();
        }
        let i = self.uppers.partition_point(|&u| u < v);
        if i < self.uppers.len() {
            i
        } else {
            self.bucket_of(v)
        }
    }

    /// Upper bound of bucket `i` — the single source of truth for bucket
    /// geometry ([`Self::bucket_of`] is derived from it).
    fn bucket_upper(&self, i: usize) -> f64 {
        if i == 0 {
            self.floor
        } else {
            self.floor * self.factor.powi(i.min(i32::MAX as usize) as i32)
        }
    }

    /// Record one observation (non-negative; zeros count in bucket 0).
    pub fn record(&mut self, v: f64) {
        debug_assert!(v >= 0.0 && v.is_finite(), "bad histogram value {v}");
        let bits = v.to_bits();
        let b = if bits == self.memo_bits {
            self.memo_bucket
        } else {
            let b = self.bucket_index(v);
            self.memo_bits = bits;
            self.memo_bucket = b;
            b
        };
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v;
        if v > self.max_seen {
            self.max_seen = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded values (tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Exact maximum recorded value.
    pub fn max(&self) -> f64 {
        self.max_seen
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper bound of the bucket holding
    /// the `ceil(q·n)`-th observation (never under-estimates by more than
    /// one bucket). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                // Cap at the true max so p100 is exact.
                return self.bucket_upper(i).min(self.max_seen.max(self.floor));
            }
        }
        self.max_seen
    }

    /// Forget every observation while keeping the bucket allocation, so a
    /// per-slot histogram can be reused without reallocating its counts.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
        self.sum = 0.0;
        self.max_seen = 0.0;
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            (self.floor - other.floor).abs() < f64::EPSILON
                && (self.factor - other.factor).abs() < f64::EPSILON,
            "histogram geometry mismatch"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoised_repeats_match_cold_bucketing() {
        // Alternating repeats exercise both memo hits and memo refreshes;
        // a histogram fed value-by-value through a fresh instance (never a
        // memo hit past the first) must agree on every statistic.
        let values = [2e-4, 2e-4, 2e-4, 0.013, 2e-4, 0.0, 0.013, 0.013, 5.0, 2e-4];
        let mut memoed = LogHistogram::for_latency_secs();
        for v in values {
            memoed.record(v);
        }
        // Reference: same multiset in reverse order — different memo
        // hit/miss pattern, and bucket counts are order-independent, so
        // any memo inconsistency shows up as a statistic mismatch.
        let mut shuffled = values;
        shuffled.reverse();
        let mut cold = LogHistogram::for_latency_secs();
        for v in shuffled {
            cold.record(v);
        }
        assert_eq!(memoed.count(), cold.count());
        // Mean sums in recording order; reversal reassociates the float
        // sum, so compare with tolerance (the memo never touches `sum`).
        assert!((memoed.mean() - cold.mean()).abs() < 1e-15);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(memoed.quantile(q), cold.quantile(q), "q={q}");
        }
    }

    #[test]
    fn empty_is_zero() {
        let h = LogHistogram::for_latency_secs();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LogHistogram::for_latency_secs();
        for v in [0.001, 0.002, 0.003] {
            h.record(v);
        }
        assert!((h.mean() - 0.002).abs() < 1e-12);
        assert_eq!(h.max(), 0.003);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn quantile_bounds_relative_error() {
        let mut h = LogHistogram::new(1e-6, 20);
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-4).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5f64, 0.9, 0.99] {
            let exact = values[((q * 1000.0).ceil() as usize).max(1) - 1];
            let est = h.quantile(q);
            assert!(est >= exact * 0.999, "q{q}: est {est} < exact {exact}");
            // 20 buckets/decade => factor ~1.122; allow 13% overshoot.
            assert!(est <= exact * 1.13, "q{q}: est {est} >> exact {exact}");
        }
    }

    #[test]
    fn bucket_mapping_agrees_on_exact_edges() {
        // `bucket_of` and `bucket_upper` must share one integer mapping:
        // a value exactly equal to a bucket's upper bound belongs to that
        // bucket, so `bucket_upper(bucket_of(v)) >= v` holds with equality
        // on edges and a single recorded edge value quantiles to itself.
        for bpd in [1u32, 3, 7, 10, 20, 29] {
            let h = LogHistogram::new(1e-6, bpd);
            for k in 0..300 {
                let edge = h.bucket_upper(k);
                if !edge.is_finite() {
                    break;
                }
                assert_eq!(h.bucket_of(edge), k, "bpd={bpd} k={k} edge={edge}");
                assert!(h.bucket_upper(h.bucket_of(edge)) >= edge);
                let mut one = LogHistogram::new(1e-6, bpd);
                one.record(edge);
                assert_eq!(one.quantile(0.99), edge, "bpd={bpd} k={k}");
            }
        }
    }

    #[test]
    fn table_bucketing_matches_bucket_of() {
        // Every edge, one ulp either side of it, and pseudo-random values
        // across (and past) the table's range land where `bucket_of` puts
        // them.
        for bpd in [1u32, 7, 20, 29, 100] {
            let mut h = LogHistogram::new(1e-6, bpd);
            let mut probes = vec![0.0, 1e-9, f64::MAX];
            for k in 0..TABLE_BUCKETS + 8 {
                let edge = h.bucket_upper(k);
                if !edge.is_finite() {
                    break;
                }
                probes.extend([edge, edge.next_down(), edge.next_up()]);
            }
            let mut x = 0x2545_F491_4F6C_DD1Du64 ^ bpd as u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Log-uniform over 1e-7 .. 1e9 s.
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                probes.push(10f64.powf(-7.0 + 16.0 * u));
            }
            for v in probes {
                assert_eq!(h.bucket_index(v), h.bucket_of(v), "bpd={bpd} v={v:e}");
            }
        }
    }

    #[test]
    fn extreme_values_never_under_report() {
        // Indices far past `powi`'s overflow point must saturate at +inf
        // inside the mapping, leaving quantiles capped by the exact max
        // rather than wrapped into an under-estimate.
        let mut h = LogHistogram::new(1e-6, 30);
        for v in [1e300, f64::MAX, 1.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), f64::MAX);
        assert!(h.quantile(0.5) >= 1e300);
    }

    #[test]
    fn p100_equals_max() {
        let mut h = LogHistogram::for_latency_secs();
        for v in [0.5, 1.0, 7.25] {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0), 7.25);
    }

    #[test]
    fn tiny_values_land_in_floor_bucket() {
        let mut h = LogHistogram::new(1e-6, 10);
        h.record(0.0);
        h.record(1e-9);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) <= 1e-6);
    }

    #[test]
    fn merge_equivalent_to_sequential() {
        let mut a = LogHistogram::new(1e-6, 20);
        let mut b = LogHistogram::new(1e-6, 20);
        let mut all = LogHistogram::new(1e-6, 20);
        for i in 1..500 {
            let v = i as f64 * 3.3e-5;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn merge_geometry_mismatch_panics() {
        let mut a = LogHistogram::new(1e-6, 20);
        let b = LogHistogram::new(1e-6, 10);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn bad_quantile_panics() {
        let h = LogHistogram::for_latency_secs();
        let _ = h.quantile(1.5);
    }
}
