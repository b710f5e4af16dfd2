//! The benchmark's own seeded generator. Every schedule is a function of
//! `--seed` and this file alone, so a later change to `vendor/rand` or to
//! the crates' generators cannot move the benchmark's inputs.

/// SplitMix64 (Steele, Lea & Flood): 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `salt` separates the graph, churn and
    /// request streams drawn from one `--seed`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ_by_salt() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut r = Rng::new(3, 3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!((1..=4).contains(&r.range(1, 4)));
        }
    }
}
