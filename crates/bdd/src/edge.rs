//! Compact edge and variable handles.

use std::fmt;

/// A Boolean variable handle.
///
/// Variables are created by [`Manager::new_var`](crate::Manager::new_var)
/// and are stable identities: reordering changes a variable's *level*
/// (position in the order), never its `Var` handle.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Returns the raw index of this variable within its manager.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `Var` from a raw index.
    ///
    /// Only meaningful for indexes previously obtained from the same
    /// manager via [`Var::index`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A (possibly complemented) reference to a BDD node — a bex-style
/// packed *nid*.
///
/// The whole reference is one `u32` word:
///
/// ```text
/// bit 0      complement attribute
/// bits 1..   node index into the owning manager's arena
/// ```
///
/// The constants are *inlined*: node 0 is the terminal, so
/// [`Edge::ONE`] is raw `0` and [`Edge::ZERO`] (the complemented
/// terminal) is raw `1` — constant tests are single integer compares,
/// complementation is one xor, and an edge costs 4 bytes wherever it is
/// stored (node structs, table keys, memo tables). Edges are only
/// meaningful together with the manager that produced them.
///
/// The table keys built from nids are packed the same way — see
/// `nid.rs` for the `u128` key layouts.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge(pub(crate) u32);

impl Edge {
    /// The constant-true function.
    pub const ONE: Edge = Edge(0);
    /// The constant-false function (complemented terminal).
    pub const ZERO: Edge = Edge(1);

    #[inline]
    pub(crate) fn new(node: u32, complement: bool) -> Self {
        Edge(node << 1 | complement as u32)
    }

    /// Index of the referenced node within the manager arena.
    #[inline]
    pub(crate) fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Index of the referenced node within the manager arena, for dense
    /// per-node tables. An edge and its complement share it.
    #[inline]
    pub fn node_index(self) -> usize {
        self.node() as usize
    }

    /// Returns `true` if this edge carries the complement attribute.
    #[inline]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 != 0
    }

    /// Returns the complement of this function (an O(1) operation).
    #[inline]
    pub fn complement(self) -> Edge {
        Edge(self.0 ^ 1)
    }

    /// Complements this edge iff `c` is true.
    #[inline]
    pub fn complement_if(self, c: bool) -> Edge {
        Edge(self.0 ^ c as u32)
    }

    /// Strips the complement attribute, yielding the regular edge.
    #[inline]
    pub fn regular(self) -> Edge {
        Edge(self.0 & !1)
    }

    /// Returns `true` for the constant functions `ONE` / `ZERO`.
    #[inline]
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// Returns `true` if this is the constant-true function.
    #[inline]
    pub fn is_one(self) -> bool {
        self == Edge::ONE
    }

    /// Returns `true` if this is the constant-false function.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == Edge::ZERO
    }

    /// A stable opaque id, useful as a hash/map key across data structures.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::ops::Not for Edge {
    type Output = Edge;
    #[inline]
    fn not(self) -> Edge {
        self.complement()
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            write!(f, "⊤")
        } else if self.is_zero() {
            write!(f, "⊥")
        } else if self.is_complemented() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_complements() {
        assert_eq!(Edge::ONE.complement(), Edge::ZERO);
        assert_eq!(Edge::ZERO.complement(), Edge::ONE);
        assert_eq!(!Edge::ONE, Edge::ZERO);
    }

    #[test]
    fn regular_strips_complement() {
        let e = Edge::new(7, true);
        assert!(e.is_complemented());
        assert!(!e.regular().is_complemented());
        assert_eq!(e.regular().node(), 7);
    }

    #[test]
    fn complement_if_matches_complement() {
        let e = Edge::new(3, false);
        assert_eq!(e.complement_if(true), e.complement());
        assert_eq!(e.complement_if(false), e);
    }

    #[test]
    fn const_queries() {
        assert!(Edge::ONE.is_const() && Edge::ZERO.is_const());
        assert!(Edge::ONE.is_one() && !Edge::ONE.is_zero());
        assert!(Edge::ZERO.is_zero() && !Edge::ZERO.is_one());
        assert!(!Edge::new(1, false).is_const());
    }
}
