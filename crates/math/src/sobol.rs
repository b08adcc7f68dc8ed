//! Sobol' (0,2)-sequence sampling.
//!
//! The first two Sobol' dimensions form a (0,2)-sequence in base 2: any
//! prefix of `2^k` points is perfectly stratified over every elementary
//! dyadic partition of the unit square. PBRT's low-discrepancy sampler uses
//! exactly this construction for its pixel samples; we provide it alongside
//! the Halton sampler so the renderer can choose either.

/// Number of index bits the generator consumes.
#[allow(dead_code)]
const SOBOL_BITS: u32 = 32;

/// Gray-code Van der Corput sequence (Sobol' dimension 0) with an XOR
/// scramble.
#[inline]
pub fn sobol_dim0(index: u32, scramble: u32) -> f32 {
    let mut v = index.reverse_bits();
    v ^= scramble;
    v as f32 * (1.0 / 4294967296.0)
}

/// Sobol' dimension 1 with an XOR scramble.
///
/// Uses the classic direction numbers for the second dimension (generated
/// by the primitive polynomial `x^2 + x + 1`).
#[inline]
pub fn sobol_dim1(index: u32, scramble: u32) -> f32 {
    let mut v = 1u32 << 31;
    let mut result = scramble;
    let mut i = index;
    while i != 0 {
        if i & 1 != 0 {
            result ^= v;
        }
        i >>= 1;
        v ^= v >> 1;
    }
    result as f32 * (1.0 / 4294967296.0)
}

/// The `index`-th point of the scrambled (0,2)-sequence.
#[inline]
pub fn sample_02(index: u32, scramble: (u32, u32)) -> (f32, f32) {
    (sobol_dim0(index, scramble.0), sobol_dim1(index, scramble.1))
}

/// A stateful (0,2)-sequence sampler parallel to
/// [`crate::LowDiscrepancy`]: one scrambled stream per pixel, one 2D point
/// per sample index.
#[derive(Debug, Clone)]
pub struct Sobol02 {
    scramble: (u32, u32),
}

impl Sobol02 {
    /// A sampler for the pixel identified by `pixel_seed`.
    pub fn new(pixel_seed: u64) -> Sobol02 {
        let h = pixel_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Sobol02 { scramble: ((h >> 32) as u32, h as u32) }
    }

    /// The 2D sample for `index`.
    pub fn sample(&self, index: u32) -> (f32, f32) {
        sample_02(index, self.scramble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Check that an arbitrary f32 fraction sits in `[0, 1)`.
    fn in_unit(v: f32) -> bool {
        (0.0..1.0).contains(&v)
    }

    #[test]
    fn unscrambled_dim0_is_bit_reversal() {
        assert_eq!(sobol_dim0(0, 0), 0.0);
        assert_eq!(sobol_dim0(1, 0), 0.5);
        assert_eq!(sobol_dim0(2, 0), 0.25);
        assert_eq!(sobol_dim0(3, 0), 0.75);
    }

    #[test]
    fn all_samples_in_unit_interval() {
        let s = Sobol02::new(99);
        for i in 0..10_000u32 {
            let (a, b) = s.sample(i);
            assert!(in_unit(a) && in_unit(b), "({a}, {b}) out of range at {i}");
        }
    }

    #[test]
    fn zero_two_stratification() {
        // The first 2^k unscrambled points must place exactly one point in
        // each of the 2^k dyadic boxes of every elementary partition shape.
        for k in [2u32, 4, 6] {
            let n = 1u32 << k;
            // Partition: 2^j columns x 2^(k-j) rows.
            for j in 0..=k {
                let cols = 1u32 << j;
                let rows = 1u32 << (k - j);
                let mut boxes = vec![0u32; (cols * rows) as usize];
                for i in 0..n {
                    let (x, y) = sample_02(i, (0, 0));
                    let cx = ((x * cols as f32) as u32).min(cols - 1);
                    let cy = ((y * rows as f32) as u32).min(rows - 1);
                    boxes[(cy * cols + cx) as usize] += 1;
                }
                assert!(
                    boxes.iter().all(|&c| c == 1),
                    "partition {cols}x{rows} at n={n}: {boxes:?}"
                );
            }
        }
    }

    #[test]
    fn scrambling_preserves_stratification() {
        // XOR scrambling is measure-preserving on dyadic boxes: the first
        // 16 points remain one-per-box on the 4x4 partition.
        let scramble = (0xDEAD_BEEF, 0x1234_5678);
        let mut boxes = [0u32; 16];
        for i in 0..16u32 {
            let (x, y) = sample_02(i, scramble);
            let cx = ((x * 4.0) as u32).min(3);
            let cy = ((y * 4.0) as u32).min(3);
            boxes[(cy * 4 + cx) as usize] += 1;
        }
        assert!(boxes.iter().all(|&c| c == 1), "{boxes:?}");
    }

    #[test]
    fn distinct_pixels_get_distinct_streams() {
        let a = Sobol02::new(1);
        let b = Sobol02::new(2);
        let differs = (0..32u32).any(|i| a.sample(i) != b.sample(i));
        assert!(differs);
    }

    #[test]
    fn mean_is_near_half() {
        let s = Sobol02::new(7);
        let n = 4096u32;
        let (mut mx, mut my) = (0.0f64, 0.0f64);
        for i in 0..n {
            let (x, y) = s.sample(i);
            mx += x as f64;
            my += y as f64;
        }
        mx /= n as f64;
        my /= n as f64;
        assert!((mx - 0.5).abs() < 0.01, "mean x {mx}");
        assert!((my - 0.5).abs() < 0.01, "mean y {my}");
    }

    #[test]
    fn bits_constant_consistent() {
        // Document the 32-bit index domain.
        assert_eq!(SOBOL_BITS, 32);
    }
}
