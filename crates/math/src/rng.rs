//! Deterministic xorshift pseudo-random number generation.

/// A 64-bit xorshift* generator.
///
/// Deterministic and seedable so that every experiment in the workspace is
/// exactly reproducible (the cycle-level simulator asserts identical cycle
/// counts for identical seeds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Create a generator from a seed; a zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa bits => exact representation, never returns 1.0.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i + 1);
            slice.swap(i, j);
        }
    }
}

impl Default for XorShift64 {
    fn default() -> Self {
        XorShift64::new(0x5EED_5EED_5EED_5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = XorShift64::new(7);
        for _ in 0..10_000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v), "{v} out of range");
        }
    }

    #[test]
    fn f32_roughly_uniform() {
        let mut r = XorShift64::new(11);
        let n = 100_000;
        let mean: f32 = (0..n).map(|_| r.next_f32()).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        XorShift64::new(1).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = XorShift64::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left slice ordered");
    }
}
