//! Fast, deterministic hashing for the manager's hot tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 with a random
//! per-process seed. That is the wrong trade twice over for a BDD
//! package: the unique and computed tables are hit on *every* node
//! creation and *every* ITE step, so the keyed-per-byte SipHash rounds
//! dominate the lookup cost; and the random seed makes iteration order
//! (and therefore anything careless enough to observe it) differ
//! between runs, which the flow's byte-identical determinism contract
//! cannot tolerate even as a latent hazard.
//!
//! [`FastHasher`] is a wyhash-style multiply–rotate–xor word hasher
//! (zero dependencies, fixed seed): each 64-bit word costs one rotate,
//! one xor and one multiply, and [`FastHasher::finish`] applies a
//! splitmix64-style finalizer so low-entropy keys (small node indices,
//! small levels) still spread across the table. The packed table keys
//! of [`crate::nid`] are single `u128` values, so a unique- or
//! computed-table lookup hashes exactly two words.
//!
//! HashDoS resistance is deliberately traded away: keys are internal
//! node indices produced by the manager itself, never attacker-chosen
//! input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier for the word-folding rounds (the fractional part of
/// the golden ratio, as popularized by Fibonacci hashing).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64-style finalizer: full-avalanche mixing of a 64-bit word.
#[inline]
#[must_use]
pub(crate) fn mix64(x: u64) -> u64 {
    let mut x = x;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The word hasher used by the unique and computed tables (and the
/// smaller per-call memo tables, here and in the decomposition engine).
/// Fixed seed, deterministic across runs, processes and thread counts.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    /// Byte-slice fallback (FNV-1a) for keys that are not plain words —
    /// only reached by derived `Hash` impls over non-integer fields.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = (self.state.rotate_left(5) ^ x).wrapping_mul(FOLD);
    }

    #[inline]
    fn write_u128(&mut self, x: u128) {
        // Two folding rounds: the whole packed key in two multiplies.
        self.write_u64(x as u64);
        self.write_u64((x >> 64) as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]: stateless, so every map built from
/// it hashes identically.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` on the fast deterministic hasher. Drop-in for the
/// manager's tables and memo maps. Iterating one is still denied by the
/// lint policy: its order depends on insertion history.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// A `HashSet` on the fast deterministic hasher (seen-sets).
pub type FastSet<K> = HashSet<K, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact 64-bit hash the tables apply to a packed `u128` key.
    fn hash_packed(key: u128) -> u64 {
        let mut h = FastHasher::default();
        h.write_u128(key);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        for key in [0u128, 1, 42, u128::MAX, 0xdead_beef_0000_0001] {
            assert_eq!(hash_packed(key), hash_packed(key));
        }
    }

    #[test]
    fn nearby_keys_do_not_collide() {
        // Sequential node indices are the common case; the finalizer
        // must spread them. Check 64-bit truncation and low byte too.
        let hashes: Vec<u64> = (0..4096u128).map(hash_packed).collect();
        let mut low_bytes: Vec<u8> = hashes.iter().map(|h| (h & 0x7f) as u8).collect();
        low_bytes.sort_unstable();
        low_bytes.dedup();
        assert!(low_bytes.len() > 100, "low bits are clumpy");
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len(), "full hashes collide");
    }

    #[test]
    fn fast_map_behaves_like_a_map() {
        let mut m: FastMap<u128, u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert(u128::from(i) << 13, i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(u128::from(i) << 13)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn write_paths_agree_on_words() {
        // u32/u16/u8/usize all promote to the u64 folding round.
        let via_u64 = {
            let mut h = FastHasher::default();
            h.write_u64(7);
            h.finish()
        };
        let via_u32 = {
            let mut h = FastHasher::default();
            h.write_u32(7);
            h.finish()
        };
        assert_eq!(via_u64, via_u32);
    }
}
