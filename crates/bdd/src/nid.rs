//! Packed table keys over 32-bit node ids.
//!
//! An [`Edge`] is already a bex-style packed *nid*: a `u32` whose low
//! bit is the complement attribute and whose upper 31 bits index the
//! node arena, with the constants inlined as node 0 (`ONE` = raw 0,
//! `ZERO` = raw 1). This module extends that packing to the hash-table
//! keys built *from* nids:
//!
//! * the unique table's `(level, high, low)` triple, and
//! * the computed table's `(f, g, h)` triple,
//!
//! each packed into one `u128` word. A packed key hashes in exactly two
//! folding rounds of [`crate::hash::FastHasher`] (versus a per-field
//! walk over a 3-tuple), compares for equality as one wide integer, and
//! keeps the key representation `Copy` and branch-free to build.
//!
//! Bit layout (low to high):
//!
//! ```text
//! UniqueKey: | low.raw(): 32 | high.raw(): 32 | level: 32 | unused: 32 |
//! IteKey:    | h.raw():   32 | g.raw():    32 | f.raw(): 32 | unused: 32 |
//! ```
//!
//! The upper 32 bits are always zero; they cost nothing (the key lives
//! in one SSE-width slot either way) and leave headroom for tagging if
//! a future cache wants to share one table across operators.

use crate::edge::Edge;

/// Packed unique-table key: `(level, high, low)` in one `u128`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct UniqueKey(u128);

impl UniqueKey {
    /// Packs a canonical node triple. `high` must be regular (the
    /// canonical-form invariant) but the packing itself is total.
    #[inline]
    pub fn pack(level: u32, high: Edge, low: Edge) -> Self {
        UniqueKey(
            u128::from(low.raw()) | (u128::from(high.raw()) << 32) | (u128::from(level) << 64),
        )
    }

    /// Recovers `(level, high, low)` — used by the invariant auditor,
    /// never on the hot path.
    #[inline]
    pub fn unpack(self) -> (u32, Edge, Edge) {
        (
            (self.0 >> 64) as u32,
            Edge((self.0 >> 32) as u32),
            Edge(self.0 as u32),
        )
    }
}

/// Packed computed-table key: a canonical ITE triple `(f, g, h)` in one
/// `u128`. Keys are built only from triples already normalized by
/// [`Manager::canonicalize_ite`](crate::Manager::canonicalize_ite), so
/// structurally equal queries pack to bit-equal keys.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct IteKey(u128);

impl IteKey {
    /// Packs a canonical `(f, g, h)` triple.
    #[inline]
    pub fn pack(f: Edge, g: Edge, h: Edge) -> Self {
        IteKey(u128::from(h.raw()) | (u128::from(g.raw()) << 32) | (u128::from(f.raw()) << 64))
    }

    /// Recovers `(f, g, h)` — auditor-only.
    #[inline]
    pub fn unpack(self) -> (Edge, Edge, Edge) {
        (
            Edge((self.0 >> 64) as u32),
            Edge((self.0 >> 32) as u32),
            Edge(self.0 as u32),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_key_round_trips() {
        for (level, high, low) in [
            (0u32, Edge::ONE, Edge::ZERO),
            (7, Edge::new(3, false), Edge::new(9, true)),
            (u32::MAX - 1, Edge::new((1 << 30) - 1, false), Edge::ZERO),
        ] {
            let k = UniqueKey::pack(level, high, low);
            assert_eq!(k.unpack(), (level, high, low));
        }
    }

    #[test]
    fn ite_key_round_trips() {
        let (f, g, h) = (Edge::new(5, false), Edge::new(6, false), Edge::new(7, true));
        assert_eq!(IteKey::pack(f, g, h).unpack(), (f, g, h));
    }

    #[test]
    fn distinct_triples_pack_distinctly() {
        let a = IteKey::pack(
            Edge::new(1, false),
            Edge::new(2, false),
            Edge::new(3, false),
        );
        let b = IteKey::pack(
            Edge::new(3, false),
            Edge::new(2, false),
            Edge::new(1, false),
        );
        let c = IteKey::pack(Edge::new(1, true), Edge::new(2, false), Edge::new(3, false));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn upper_bits_stay_clear() {
        let k = UniqueKey::pack(u32::MAX, Edge(u32::MAX), Edge(u32::MAX));
        assert_eq!(k.0 >> 96, 0);
    }
}
