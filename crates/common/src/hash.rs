//! A fast, non-cryptographic hasher for interned integer keys.
//!
//! The hot paths of every evaluation strategy in this workspace are hash-map
//! probes keyed by small interned integers (`Const`, `Pred`, state ids).
//! The standard library's SipHash is collision-resistant but an order of
//! magnitude slower than necessary for such keys.  `rustc-hash` is not in the
//! allowed offline dependency set, so we implement the same FxHash algorithm
//! (a multiply-xor mix, originally from Firefox) here.  It is not suitable
//! for hashing attacker-controlled data; every key in this workspace comes
//! from our own interner.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit variant of the Fx multiply-xor hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A streaming hasher implementing the FxHash mix.
#[derive(Default, Clone, Copy)]
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
        // Consume full words, then the tail.  This path is only taken for
        // string keys (interner lookups); integer keys use the fast methods
        // below.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            buf[7] = rem.len() as u8;
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    /// The mixed state rotated left by 26, as rustc-hash 2 does.  The
    /// multiply leaves the entropy of short keys in the high bits, and
    /// hash tries and tables consume the low bits first: unrotated,
    /// `n0 … n9999` land on 32 distinct low-12-bit values.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Construct an empty [`FxHashMap`] with at least `cap` capacity.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Construct an empty [`FxHashSet`] with at least `cap` capacity.
pub fn set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(value: T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u32), hash_one(42u32));
        assert_eq!(hash_one("hello"), hash_one("hello"));
    }

    #[test]
    fn distinguishes_nearby_integers() {
        let a = hash_one(1u64);
        let b = hash_one(2u64);
        assert_ne!(a, b);
    }

    #[test]
    fn distinguishes_string_lengths() {
        // The tail encoding folds the length in, so a prefix must not
        // collide with its extension.
        assert_ne!(hash_one("ab"), hash_one("ab\0"));
        assert_ne!(hash_one(""), hash_one("\0"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = map_with_capacity(16);
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u32 {
            assert_eq!(m[&i], i * 2);
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn set_dedups() {
        let mut s: FxHashSet<(u32, u32)> = set_with_capacity(4);
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn short_names_spread_over_the_low_bits() {
        // Each short name is one word: the multiply pushes the bytes that
        // differ into the high product bits, which the rotation brings down.
        let low: HashSet<u64> = (0..10_000)
            .map(|i| hash_one(format!("n{i}").as_str()) & 0xfff)
            .collect();
        assert!(
            low.len() >= 2_000,
            "{} distinct low-12-bit values",
            low.len()
        );
    }

    #[test]
    fn pair_order_matters() {
        assert_ne!(hash_one((1u32, 2u32)), hash_one((2u32, 1u32)));
    }
}
