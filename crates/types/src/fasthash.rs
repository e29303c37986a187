//! A fast, deterministic hasher for the simulator's hot maps.
//!
//! The engine's steady-state path hashes small integer keys (LPAs, page
//! numbers) several times per simulated access. The standard library's
//! SipHash is a measurable fraction of that path; this module provides the
//! well-known Fx multiply-rotate hash instead, which collapses a `u64` key
//! to two arithmetic instructions.
//!
//! Determinism matters here beyond speed: `FxBuildHasher` carries no
//! per-process random seed, so map layout — and therefore any accidental
//! dependence on iteration order — is identical across runs. The simulator
//! still forbids observable iteration-order dependence (every map that is
//! drained for output is sorted first), but a deterministic hasher turns a
//! would-be nondeterminism bug into a reproducible one.
//!
//! Only use this for trusted keys: Fx is trivially collision-attackable and
//! must not hash untrusted input.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with the deterministic [`FxHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Zero-sized, seedless builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox `FxHash` function: per 8-byte word,
/// `hash = (hash <<< 5 ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one(0xdead_beef_u64);
        let b = FxBuildHasher::default().hash_one(0xdead_beef_u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let h = FxBuildHasher::default();
        assert_ne!(h.hash_one(1_u64), h.hash_one(2_u64));
        assert_ne!(h.hash_one(1_u64), h.hash_one(1_u64 << 32));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FastHashMap<u64, u32> = FastHashMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
    }
}
