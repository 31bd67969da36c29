//! Deterministic pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator mainly used for seeding and for
//!   cheap hash-like mixing.
//! * [`Xoshiro256pp`] — the xoshiro256++ generator, the workhorse used by
//!   the load generators and dataset builders. It has a 256-bit state
//!   and passes BigCrush.
//!
//! Both are fully deterministic given a seed, which is what makes DCPerf-RS
//! runs reproducible.

/// A source of pseudo-random `u64` values with convenience helpers.
///
/// All DCPerf-RS distributions sample through this trait, so any
/// deterministic generator can back them.
///
/// # Examples
///
/// ```
/// use dcperf_util::{Rng, SplitMix64};
///
/// let mut rng = SplitMix64::new(7);
/// let x = rng.next_u64();
/// let y = rng.gen_range(10, 20);
/// assert!((10..20).contains(&y));
/// let f = rng.next_f64();
/// assert!((0.0..1.0).contains(&f));
/// # let _ = x;
/// ```
pub trait Rng {
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `u64` in `[lo, hi)` using Lemire's bounded method.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi (got {lo}..{hi})");
        let span = hi - lo;
        // Multiply-shift bounded sampling with rejection to remove bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0, n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fills `buf` with pseudo-random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Shuffles `slice` in place with the Fisher–Yates algorithm.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_index(i + 1);
            slice.swap(i, j);
        }
    }
}

/// The SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Small and fast; primarily used for seed expansion and in unit tests.
///
/// # Examples
///
/// ```
/// use dcperf_util::{Rng, SplitMix64};
///
/// let mut a = SplitMix64::new(1);
/// let mut b = SplitMix64::new(1);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Applies the SplitMix64 output (finalizer) function to `x`.
    ///
    /// Useful as a cheap 64-bit mixer / avalanche function.
    pub fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        Self::mix(self.state)
    }
}

/// The xoshiro256++ generator (Blackman & Vigna 2019).
///
/// 256-bit state.
///
/// # Examples
///
/// ```
/// use dcperf_util::{Rng, Xoshiro256pp};
///
/// let mut a = Xoshiro256pp::seed_from_u64(123);
/// let mut b = Xoshiro256pp::seed_from_u64(123);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (a fixed point of the generator).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256++ state must be non-zero"
        );
        Self { s }
    }

    /// Expands a 64-bit seed into a full state via SplitMix64, per the
    /// authors' recommendation.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 output can't be all-zero for 4 consecutive draws, but be safe.
        if s.iter().all(|&w| w == 0) {
            Self::from_state([0x9E37_79B9_7F4A_7C15, 1, 2, 3])
        } else {
            Self { s }
        }
    }
}

impl Default for Xoshiro256pp {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

impl Rng for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(0xDEADBEEF);
        let mut b = SplitMix64::new(0xDEADBEEF);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Known-good SplitMix64 sequence for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        let expected = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Reference: xoshiro256++ with state {1, 2, 3, 4}.
        let mut rng = Xoshiro256pp::from_state([1, 2, 3, 4]);
        let expected = [41943041u64, 58720359, 3588806011781223, 3591011842654386];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.gen_range(100, 200);
            assert!((100..200).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_small_span() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[rng.gen_range(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn gen_range_rejects_empty() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.gen_range(5, 5);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..10_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f), "{f} out of range");
        }
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SplitMix64::new(3);
        for len in 0..33 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 16 {
                // Overwhelmingly unlikely to remain all zero.
                assert!(buf.iter().any(|&b| b != 0), "len={len}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should not be identity");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac={frac}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256pp::from_state([0, 0, 0, 0]);
    }
}
