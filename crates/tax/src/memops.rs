//! Memory-operation kernels: the "Memory" tax slice.
//!
//! Production services spend measurable cycles in `memcpy`/`memmove`/
//! `memset` and in pointer-chasing access patterns. These kernels exercise
//! sequential copy, fill, random gather, and pointer chase over
//! caller-sized buffers, returning checksums so the optimizer cannot elide
//! the work.

use dcperf_util::{Rng, SplitMix64};

/// Sequentially copies `src` into `dst` `iters` times.
///
/// Returns a checksum of the final destination.
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn copy_sequential(src: &[u8], dst: &mut [u8], iters: usize) -> u64 {
    assert_eq!(src.len(), dst.len(), "copy buffers must match in length");
    for _ in 0..iters {
        dst.copy_from_slice(src);
    }
    checksum(dst)
}

/// Gathers `count` random bytes from `src` (seeded, reproducible).
pub fn gather_random(src: &[u8], count: usize, seed: u64) -> u64 {
    if src.is_empty() {
        return 0;
    }
    let mut rng = SplitMix64::new(seed);
    let mut acc = 0u64;
    for _ in 0..count {
        let idx = (rng.next_u64() % src.len() as u64) as usize;
        acc = acc.wrapping_add(src[idx] as u64).rotate_left(7);
    }
    acc
}

/// Builds a random cyclic permutation and chases it `steps` times —
/// serialized cache misses, the classic latency-bound kernel.
pub fn pointer_chase(slots: usize, steps: usize, seed: u64) -> u64 {
    if slots == 0 {
        return 0;
    }
    // Sattolo's algorithm: a single cycle visiting every slot.
    let mut next: Vec<u32> = (0..slots as u32).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..slots).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut pos = 0u32;
    let mut acc = 0u64;
    for _ in 0..steps {
        pos = next[pos as usize];
        acc = acc.wrapping_add(pos as u64);
    }
    acc
}

/// Fills `dst` with `value`, `iters` times, returning a checksum.
pub fn fill(dst: &mut [u8], value: u8, iters: usize) -> u64 {
    for _ in 0..iters {
        dst.fill(value);
        // Perturb one byte so successive fills are not trivially dead.
        if let Some(first) = dst.first_mut() {
            *first = first.wrapping_add(1);
        }
    }
    checksum(dst)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut acc = 0u64;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = acc.wrapping_add(u64::from_le_bytes(word)).rotate_left(1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_sequential_copies() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0u8; 256];
        let sum = copy_sequential(&src, &mut dst, 3);
        assert_eq!(src, dst);
        assert_ne!(sum, 0);
    }

    #[test]
    #[should_panic(expected = "match in length")]
    fn copy_sequential_rejects_mismatch() {
        let mut dst = vec![0u8; 3];
        let _ = copy_sequential(&[1, 2], &mut dst, 1);
    }

    #[test]
    fn gather_is_deterministic_per_seed() {
        let src: Vec<u8> = (0..200).map(|i| (i * 3) as u8).collect();
        assert_eq!(gather_random(&src, 1000, 5), gather_random(&src, 1000, 5));
        assert_ne!(gather_random(&src, 1000, 5), gather_random(&src, 1000, 6));
        assert_eq!(gather_random(&[], 100, 1), 0);
    }

    #[test]
    fn pointer_chase_visits_whole_cycle() {
        // With `slots` steps, a single cycle returns to the start; the
        // accumulated sum must cover every slot exactly once.
        let slots = 64usize;
        let acc = pointer_chase(slots, slots, 3);
        // Sum of all positions 0..slots, each visited once.
        assert_eq!(acc, (0..slots as u64).sum::<u64>());
    }

    #[test]
    fn pointer_chase_zero_slots() {
        assert_eq!(pointer_chase(0, 100, 1), 0);
    }

    #[test]
    fn fill_fills() {
        let mut dst = vec![0u8; 100];
        fill(&mut dst, 0xAB, 2);
        assert!(dst[1..].iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn checksum_detects_changes() {
        let a = checksum(b"hello world!");
        let b = checksum(b"hello world?");
        assert_ne!(a, b);
    }
}
