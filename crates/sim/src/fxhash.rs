//! A small, fixed, non-cryptographic hasher for the simulator's
//! integer-keyed maps.
//!
//! The standard library's `HashMap` defaults to SipHash with a per-process
//! random key. That buys DoS resistance the simulator has no use for — every
//! key is an address, a WG id or a metric name the program itself produced —
//! and costs a SipHash round on every lookup of the functional memory image,
//! the SyncMon address index and the policy tables. [`FxHasher`] is the
//! multiply-rotate scheme of the Firefox/rustc "Fx" hash: each word is
//! folded in with a rotate, an xor and one multiply by an odd constant.
//!
//! The hasher has no random state, so a key hashes to the same value in
//! every process and map iteration order is a function of the insertions
//! alone. Nothing in the simulator relies on that order (every iteration
//! that reaches an output is sorted first); it only removes one source of
//! run-to-run variation in host time.
//!
//! # Example
//!
//! ```
//! use awg_sim::FxHashMap;
//!
//! let mut words: FxHashMap<u64, i64> = FxHashMap::default();
//! words.insert(0x40, 7);
//! assert_eq!(words.get(&0x40), Some(&7));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The odd 64-bit multiplier of the Fx hash (Firefox, rustc).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    /// The multiply only carries entropy upward, so an 8-aligned address
    /// leaves the product's three low bits zero. hashbrown picks the bucket
    /// from the low bits; folding the well-mixed high half down spreads
    /// aligned keys over every bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(key: T) -> u64 {
        FxBuildHasher::default().hash_one(key)
    }

    /// Without the fold in `finish`, 64 consecutive words would reach
    /// only the 8 multiples of 8 below 64.
    #[test]
    fn aligned_word_addresses_spread_over_the_low_bits() {
        let base = 0x1_0000u64;
        let low: HashSet<u64> = (0..64).map(|i| hash_of(base + 8 * i) & 63).collect();
        assert!(
            low.len() >= 32,
            "64 consecutive words hit only {} of 64 low-bit buckets",
            low.len()
        );
    }

    #[test]
    fn a_fixed_key_hashes_to_a_fixed_constant() {
        // No per-process random state: these values hold in every run.
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(0x40u64), 0x5f30_6dc9_97b2_c889);
        assert_eq!(hash_of("sleep_backoff_sleeps"), 0x4fab_726a_695f_615e);
    }
}
