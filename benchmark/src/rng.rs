//! The benchmark's own PRNG (SplitMix64), so that a seed means the
//! same corpus on every build and the generators depend on no crate
//! whose stream could change under them.

/// SplitMix64: 64 bits of state, full period, passes BigCrush.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-generator `tag` of `seed`.
    pub fn stream(seed: u64, tag: u64) -> Self {
        Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// True with probability `pct` percent.
    pub fn pct(&mut self, pct: u32) -> bool {
        self.below(100) < pct as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let draw = |seed, tag| {
            let mut r = Rng::stream(seed, tag);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        // Reference value (SplitMix64 from state 0) pins the algorithm
        // across builds.
        assert_eq!(Rng::stream(0, 0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::stream(3, 0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7)] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert!((0..1000).filter(|_| r.pct(25)).count() > 150);
    }
}
