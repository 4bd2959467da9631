//! Log-bucketed latency histograms (HDR-style).
//!
//! The profiler, the monitor's windows and the SAT backend need
//! percentile-grade latency evidence, not just sums: a mean hides the p99 window that
//! makes the streaming monitor fall behind. Buckets are power-of-two
//! groups subdivided into [`SUB`] linear sub-buckets ([`SUB_BITS`]
//! mantissa bits), so relative error is bounded at `1/SUB` (6.25%)
//! while the whole `u64` nanosecond range fits in [`BUCKETS`] slots.
//!
//! [`HistSnapshot`] is the one representation: a plain, sparse,
//! mergeable value type that every producer (the monitor, the SAT
//! backend, the profiler's per-thread frames) records into on its own
//! thread and merges afterwards; it is also the serialized form
//! ([`ToJson`]).
//!
//! Merging shards with [`HistSnapshot::absorb`] is exact: bucket
//! counts add, so a merge of per-thread snapshots equals one snapshot
//! fed every sample — the property test pins this.
//! Percentiles return the *lower bound* of the covering bucket, which
//! makes `p50 ≤ p90 ≤ p99 ≤ p999 ≤ max` hold unconditionally (the
//! tracked max is exact, and the lower bound of the highest non-empty
//! bucket never exceeds the largest sample in it).

use crate::json::{Json, ToJson};

/// Mantissa bits kept per power-of-two group.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two group (`2^SUB_BITS`).
pub const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = (SUB as usize) + (64 - SUB_BITS as usize) * SUB as usize;

/// Bucket index for a value: identity below [`SUB`], then
/// `group * SUB + sub` where `group` counts powers of two above the
/// mantissa and `sub` is the top [`SUB_BITS`] bits after the leading
/// one.
pub fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let h = 63 - v.leading_zeros(); // h >= SUB_BITS
    let group = (h - SUB_BITS + 1) as u64;
    let sub = (v >> (h - SUB_BITS)) - SUB;
    (group * SUB + sub) as usize
}

/// Smallest value mapping to `index` — the value percentiles report.
pub fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let group = index / SUB;
    let sub = index % SUB;
    (SUB + sub) << (group - 1)
}

/// A plain, sparse, mergeable histogram value.
///
/// Buckets are `(index, count)` pairs sorted by index; only non-empty
/// buckets are stored, so idle histograms serialize to a few bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Non-empty buckets, sorted by bucket index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// Record one sample. The sum saturates rather than wraps: a
    /// `u64::MAX` sample leaves it pinned at `u64::MAX`.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_of(v) as u32;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (idx, 1)),
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Merge another snapshot in. Exact: bucket counts add, the max is
    /// the max of maxes, so merging per-shard snapshots equals one
    /// snapshot fed every sample.
    pub fn absorb(&mut self, other: &HistSnapshot) {
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Is the histogram empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket holding the `q`-quantile sample
    /// (`q` in `[0, 1]`). Returns 0 for an empty histogram. Monotone
    /// in `q` and never exceeds [`max`](HistSnapshot::max).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_low(idx as usize);
            }
        }
        self.max
    }

    /// Median (bucket lower bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile (bucket lower bound).
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile (bucket lower bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// 99.9th percentile (bucket lower bound).
    pub fn p999(&self) -> u64 {
        self.percentile(0.999)
    }
}

impl ToJson for HistSnapshot {
    fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.push("count", self.count.into())
            .push("sum", self.sum.into())
            .push("max", self.max.into())
            .push("p50", self.p50().into())
            .push("p90", self.p90().into())
            .push("p99", self.p99().into())
            .push("p999", self.p999().into())
            .push(
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| Json::Arr(vec![Json::U64(i as u64), Json::U64(n)]))
                        .collect(),
                ),
            );
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HistSnapshot {
        /// The fixture a `counters!` block's `sample` nests: one sample.
        pub(crate) fn sample(seed: u64) -> HistSnapshot {
            let mut h = HistSnapshot::default();
            h.record(seed);
            h
        }
    }

    #[test]
    fn bucket_scheme_is_contiguous_and_ordered() {
        // Every value maps into range; bucket lower bounds are the
        // smallest value of their bucket; indices are monotone in v.
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            1_000_000,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let idx = bucket_of(v);
            assert!(idx < BUCKETS, "index {idx} out of range for {v}");
            assert!(idx >= last, "bucket index must be monotone in value");
            last = idx;
            assert!(bucket_low(idx) <= v, "lower bound exceeds member {v}");
            if idx + 1 < BUCKETS {
                assert!(bucket_low(idx + 1) > v, "{v} belongs to a later bucket");
            }
        }
        // Exhaustive small range: identity below SUB, bounded error above.
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_low(v as usize), v);
        }
        for v in SUB..4096 {
            let low = bucket_low(bucket_of(v));
            assert!(low <= v && (v - low) as f64 <= v as f64 / SUB as f64);
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded_by_max() {
        let mut s = HistSnapshot::default();
        for v in [3u64, 3, 17, 90, 1_000, 1_001, 50_000, 1_000_000] {
            s.record(v);
        }
        let (p50, p90, p99, p999) = (s.p50(), s.p90(), s.p99(), s.p999());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= s.max);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn u64_max_saturates_sum_and_tracks_max() {
        let mut s = HistSnapshot::default();
        s.record(u64::MAX);
        s.record(u64::MAX);
        s.record(7);
        assert_eq!(s.sum, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.count, 3);
        assert!(s.percentile(1.0) <= s.max);
    }

    #[test]
    fn absorb_equals_single_histogram() {
        let samples = [1u64, 5, 16, 17, 200, 5_000, 123_456_789];
        let mut whole = HistSnapshot::default();
        let mut a = HistSnapshot::default();
        let mut b = HistSnapshot::default();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.absorb(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn serialized_percentiles_match_the_accessors() {
        let mut s = HistSnapshot::default();
        for v in [0u64, 9, 63, 4_096, 77_777, u64::MAX] {
            s.record(v);
        }
        let parsed = Json::parse(&s.to_json().to_string()).unwrap();
        assert_eq!(parsed.get("p99").unwrap().as_u64().unwrap(), s.p99());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = HistSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
    }
}
