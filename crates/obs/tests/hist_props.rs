//! Property tests for the log-bucketed latency histogram: sharded
//! recording must merge to exactly the single-histogram result,
//! percentiles must be monotone and bounded, and the saturating sum
//! must survive `u64::MAX` samples.

use jungle_obs::hist::{bucket_low, bucket_of, HistSnapshot, BUCKETS};
use proptest::prelude::*;

/// One histogram fed every sample.
fn recorded(samples: &[u64]) -> HistSnapshot {
    let mut h = HistSnapshot::default();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Spread `samples` round-robin over `shards` histograms, merge them,
/// and compare against one histogram fed everything.
fn record_sharded(samples: &[u64], shards: usize) -> (HistSnapshot, HistSnapshot) {
    let mut split = vec![HistSnapshot::default(); shards];
    for (i, &v) in samples.iter().enumerate() {
        split[i % shards].record(v);
    }
    let mut merged = HistSnapshot::default();
    for h in &split {
        merged.absorb(h);
    }
    (merged, recorded(samples))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge-of-shards equals the single histogram on the same samples,
    /// for every shard count: same buckets, count, sum, and max — and
    /// therefore identical percentiles.
    #[test]
    fn merge_of_shards_equals_single_histogram(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..300),
        shards in 1usize..8,
    ) {
        let (merged, single) = record_sharded(&samples, shards);
        prop_assert_eq!(&merged, &single);
        prop_assert_eq!(merged.count, samples.len() as u64);
        prop_assert_eq!(merged.max, samples.iter().copied().max().unwrap());
        prop_assert_eq!(merged.p99(), single.p99());
    }

    /// Percentiles are monotone in the quantile and bounded by the true
    /// extremes: `min_bucket_low <= p50 <= p90 <= p99 <= p999 <= max`.
    #[test]
    fn percentiles_are_monotone_and_bounded(
        samples in prop::collection::vec(0u64..10_000_000, 1..300),
    ) {
        let s = recorded(&samples);
        let (p50, p90, p99, p999) = (s.p50(), s.p90(), s.p99(), s.p999());
        prop_assert!(p50 <= p90);
        prop_assert!(p90 <= p99);
        prop_assert!(p99 <= p999);
        prop_assert!(p999 <= s.max);
        // Every reported percentile is a bucket lower bound, so it
        // cannot exceed the largest sample.
        prop_assert!(p50 <= *samples.iter().max().unwrap());
    }

    /// The sum saturates instead of wrapping: a run containing
    /// `u64::MAX` samples reports `sum == u64::MAX` and an exact count.
    #[test]
    fn u64_max_saturates_sum(
        normal in prop::collection::vec(0u64..1_000_000, 0..50),
        extremes in 1usize..4,
    ) {
        let mut s = recorded(&normal);
        for _ in 0..extremes {
            s.record(u64::MAX);
        }
        prop_assert_eq!(s.sum, u64::MAX);
        prop_assert_eq!(s.max, u64::MAX);
        prop_assert_eq!(s.count, (normal.len() + extremes) as u64);
        prop_assert!(s.p999() <= s.max);
    }

    /// The bucket scheme is sound for arbitrary values: every value
    /// maps to a valid bucket whose lower bound does not exceed it,
    /// with at most the designed 1/16 relative error.
    #[test]
    fn bucket_bounds_value(v in prop_oneof![0u64..u64::MAX, Just(u64::MAX)]) {
        let idx = bucket_of(v);
        prop_assert!(idx < BUCKETS);
        let low = bucket_low(idx);
        prop_assert!(low <= v);
        // Relative error bound: the bucket lower bound is within
        // 1/16 of the value (exact below 16).
        prop_assert!(v - low <= v / 16);
    }
}
