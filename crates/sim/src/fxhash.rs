//! A deterministic, fast hasher for dense integer keys.
//!
//! The simulator's hot tables (LOT, LTT, stable DB, workload
//! driver) are keyed by dense `u64` ids. `std`'s default SipHash is both
//! randomly seeded — which costs a `RandomState` per map and makes
//! iteration order vary between processes — and an order of magnitude
//! slower than needed for keys an adversary cannot choose. This module
//! vendors the FxHash construction (a multiply-and-rotate mix of each
//! machine word, as used by rustc's `FxHashMap`), like the other
//! minimal stand-ins under `vendor/`: fixed seed, no per-map state,
//! identical behaviour in every process.
//!
//! Do not use it for attacker-controlled keys; simulation ids are not.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Knuth's 2^64/φ multiplier, the FxHash mixing constant.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: one u64 folded over each written word.
#[derive(Clone, Copy, Debug, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

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
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add_to_hash(n as u64);
        self.add_to_hash((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// Stateless builder: every hasher starts from the same fixed seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the deterministic integer hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the deterministic integer hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // No RandomState: two independently built maps agree — the
        // property the cross-process determinism test relies on.
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abcdefghij"), hash_of(&"abcdefghij"));
    }

    #[test]
    fn spreads_dense_ids() {
        // Dense ids (the simulator's tids/oids) must not collide in bulk.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_tail_is_mixed() {
        // Unaligned tails must still affect the hash.
        let mut a = FxHasher::default();
        a.write(b"0123456789");
        let mut b = FxHasher::default();
        b.write(b"0123456788");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
