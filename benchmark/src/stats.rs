//! Order statistics the metrics are built from.

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The smallest of `v`. Panics on an empty slice.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("at least one sample")
}

/// Samples that must lie beyond the reported tail percentile. The
/// costs of a search have a heavy tail: with 30 histories beyond it,
/// the p99 of 3 000 moved by 17 % from seed to seed.
pub const HI_BEYOND: usize = 50;
/// ... and beyond the lowest percentile of [`HI_GRID`], which a
/// workload too small for [`HI_BEYOND`] falls back to.
pub const HI_BEYOND_LOWEST: usize = 10;
/// The tail percentiles on offer, in tenths of a percent.
pub const HI_GRID: [usize; 4] = [900, 950, 990, 999];

/// The highest percentile of [`HI_GRID`] that still has
/// [`HI_BEYOND`] of `n` samples beyond it (nearest rank), or the
/// lowest if that has [`HI_BEYOND_LOWEST`]: the index into the
/// ascending order, and the percentile. `None` when even the lowest
/// has fewer beyond it.
pub fn hi_rank(n: usize) -> Option<(usize, f64)> {
    let rank = |permille: usize| {
        (
            (permille * n).div_ceil(1000).max(1) - 1,
            permille as f64 / 10.0,
        )
    };
    let beyond = |idx: usize| n.saturating_sub(idx + 1);
    HI_GRID
        .iter()
        .rev()
        .map(|&permille| rank(permille))
        .find(|&(idx, _)| beyond(idx) >= HI_BEYOND)
        .or_else(|| Some(rank(HI_GRID[0])).filter(|&(idx, _)| beyond(idx) >= HI_BEYOND_LOWEST))
}

/// The tail value and the percentile used: the mean of the band of
/// samples that ends at [`hi_rank`] and holds half as many as lie
/// beyond it. One order statistic in the sparse part of a
/// distribution jumps with the seed (the p90 of `sweep_exhaustive`'s
/// 100 units sat on the step between its ten heavy rung programs and
/// the rest, and moved by 27 %); the band does not.
pub fn hi_value(v: &[f64]) -> Option<(f64, f64)> {
    let (idx, pct) = hi_rank(v.len())?;
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let band = ((s.len() - 1 - idx) / 2).max(1);
    let below = &s[idx + 1 - band..=idx];
    Some((below.iter().sum::<f64>() / band as f64, pct))
}

/// [`hi_value`], or the largest sample when there are too few for a
/// tail percentile (smoke-scale probes).
pub fn hi_or_max(v: &[f64]) -> f64 {
    hi_value(v).map_or_else(|| v.iter().copied().fold(0.0, f64::max), |h| h.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn hi_rank_is_the_highest_percentile_with_fifty_beyond() {
        // Below 100 samples even p90 has fewer than ten beyond it.
        assert_eq!(hi_rank(99), None);
        // From there p90, whatever lies beyond it ...
        assert_eq!(hi_rank(100), Some((89, 90.0)));
        assert_eq!(hi_rank(999).unwrap().1, 90.0);
        // ... until p95 has fifty beyond it at 1 000 samples, p99 at
        // 5 000 and p99.9 at 50 000.
        assert_eq!(hi_rank(1000), Some((949, 95.0)));
        assert_eq!(hi_rank(4_999).unwrap().1, 95.0);
        assert_eq!(hi_rank(5_000), Some((4_949, 99.0)));
        assert_eq!(hi_rank(49_999).unwrap().1, 99.0);
        assert_eq!(hi_rank(50_000), Some((49_949, 99.9)));
        // The six workloads: 100, 1 800, 3 000, 6 253 and 8 000 units.
        for (n, want) in [
            (100usize, 90.0),
            (1800, 95.0),
            (3000, 95.0),
            (6253, 99.0),
            (8000, 99.0),
        ] {
            let (idx, pct) = hi_rank(n).unwrap();
            assert_eq!(pct, want, "n={n}");
            assert!(n - 1 - idx >= if n < 500 { HI_BEYOND_LOWEST } else { HI_BEYOND });
        }
    }

    #[test]
    fn hi_value_is_the_band_below_the_rank() {
        // Ten beyond rank 89, so the band is 85..=89.
        let v: Vec<f64> = (0..100).map(f64::from).rev().collect();
        assert_eq!(hi_value(&v), Some((87.0, 90.0)));
        assert!(hi_value(&v[..50]).is_none());
        assert_eq!(hi_or_max(&v), 87.0);
        assert_eq!(hi_or_max(&v[..50]), 99.0);
    }
}
