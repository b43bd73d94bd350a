//! Simple dominators: 1-, 0- and x-dominators (paper §II-C, §III-D).
//!
//! * A **1-dominator** (Karplus) lies on every 1-path ⇒ algebraic
//!   conjunctive decomposition `F = G · H`.
//! * A **0-dominator** lies on every 0-path ⇒ algebraic disjunctive
//!   decomposition `F = G + H`.
//! * An **x-dominator** (Definition 9) is a *node* contained in every
//!   path ⇒ algebraic XNOR decomposition `F = G ⊙ H` (Theorem 5).

use std::cmp::Reverse;

use bds_bdd::{Edge, Manager};

use crate::lifted::{substitute_vertices, PathInfo, TERMINAL};

/// An algebraic decomposition produced by a simple-dominator search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimpleDecomp {
    /// `F = g · h`.
    And(Edge, Edge),
    /// `F = g + h`.
    Or(Edge, Edge),
    /// `F = g ⊙ h` (XNOR).
    Xnor(Edge, Edge),
}

impl SimpleDecomp {
    /// The two component functions.
    pub fn parts(&self) -> (Edge, Edge) {
        match *self {
            SimpleDecomp::And(g, h) | SimpleDecomp::Or(g, h) | SimpleDecomp::Xnor(g, h) => (g, h),
        }
    }
}

/// The non-root vertices whose through-count `count` equals `total`,
/// deepest first; vertices on one level keep their topological order.
fn dominating(info: &PathInfo, total: u64, count: impl Fn((u64, u64)) -> u64) -> Vec<Edge> {
    // Index 0 is the root, a trivial dominator.
    let mut out: Vec<usize> = (1..info.order.len())
        .filter(|&i| count(info.through[i]) == total)
        .collect();
    out.sort_by_key(|&i| Reverse(info.level[i]));
    out.into_iter().map(|i| info.order[i]).collect()
}

/// Lifted vertices that lie on **every 1-path** of the function `info`
/// describes (excluding the root), deepest first.
pub fn one_dominators(info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || info.totals.0 == 0 {
        return Vec::new();
    }
    dominating(info, info.totals.0, |(p1, _)| p1)
}

/// Lifted vertices on **every 0-path** (excluding the root), deepest
/// first.
pub fn zero_dominators(info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || info.totals.1 == 0 {
        return Vec::new();
    }
    dominating(info, info.totals.1, |(_, p0)| p0)
}

/// Nodes (both parities combined) contained in **every path**
/// (Definition 9), excluding the root node, deepest first; nodes on one
/// level in edge order. Returned as the node's regular edge.
pub fn x_dominators(info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || info.order.is_empty() {
        return Vec::new();
    }
    let total = info.totals.0.saturating_add(info.totals.1);
    let root_node = info.order[0].regular();
    let paths = |i: usize| {
        let (p1, p0) = info.through[i];
        p1.saturating_add(p0)
    };
    let mut out: Vec<(u32, Edge)> = Vec::new();
    for (i, &v) in info.order.iter().enumerate() {
        let j = info.partner[i];
        let count = if j == TERMINAL {
            paths(i)
        } else if (j as usize) < i {
            continue; // counted with its partner
        } else {
            paths(i).saturating_add(paths(j as usize))
        };
        if count == total && v.regular() != root_node {
            out.push((info.level[i], v.regular()));
        }
    }
    out.sort_unstable_by_key(|&(level, n)| (Reverse(level), n));
    out.into_iter().map(|(_, n)| n).collect()
}

/// Decomposes `f` at a 1-dominator `d`: `F = G · H` with `H = func(d)`
/// and `G = F[d → 1]` (Karplus).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn decompose_at_one_dominator(
    mgr: &mut Manager,
    f: Edge,
    d: Edge,
) -> bds_bdd::Result<SimpleDecomp> {
    let g = substitute_vertices(mgr, f, &[(d, Edge::ONE)])?;
    debug_assert!(
        mgr.ite_is(g, d, Edge::ZERO, f),
        "1-dominator identity F = G·H"
    );
    Ok(SimpleDecomp::And(g, d))
}

/// Decomposes `f` at a 0-dominator `d`: `F = G + H` with `H = func(d)`
/// and `G = F[d → 0]`.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn decompose_at_zero_dominator(
    mgr: &mut Manager,
    f: Edge,
    d: Edge,
) -> bds_bdd::Result<SimpleDecomp> {
    let g = substitute_vertices(mgr, f, &[(d, Edge::ZERO)])?;
    debug_assert!(
        mgr.ite_is(g, Edge::ONE, d, f),
        "0-dominator identity F = G+H"
    );
    Ok(SimpleDecomp::Or(g, d))
}

/// Decomposes `f` at an x-dominator node `d` (a regular edge): Theorem 5.
/// `G = func(d)`; `H` is `F` with positive-parity arrivals at `d`
/// replaced by 1 and negative-parity arrivals by 0; then `F = G ⊙ H`.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn decompose_at_x_dominator(
    mgr: &mut Manager,
    f: Edge,
    d: Edge,
) -> bds_bdd::Result<SimpleDecomp> {
    debug_assert!(
        !d.is_complemented(),
        "x-dominator is identified by its regular edge"
    );
    let h = substitute_vertices(mgr, f, &[(d, Edge::ONE), (d.complement(), Edge::ZERO)])?;
    debug_assert!(
        mgr.ite_is(d, h, h.complement(), f),
        "x-dominator identity F = G ⊙ H"
    );
    Ok(SimpleDecomp::Xnor(d, h))
}

#[cfg(test)]
mod tests {
    use bds_bdd::VisitMarks;

    use super::*;

    /// Fig. 2(a)-style: F = (a+b)(c+d) has a 1-dominator at the (c+d)
    /// subgraph.
    #[test]
    fn karplus_conjunctive() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let la = m.literal(v[0], true);
        let lb = m.literal(v[1], true);
        let lc = m.literal(v[2], true);
        let ld = m.literal(v[3], true);
        let ab = m.or(la, lb).unwrap();
        let cd = m.or(lc, ld).unwrap();
        let f = m.and(ab, cd).unwrap();
        let info = PathInfo::compute(&m, f, &mut VisitMarks::new());
        let doms = one_dominators(&info);
        assert!(doms.contains(&cd), "the (c+d) vertex dominates all 1-paths");
        let d = decompose_at_one_dominator(&mut m, f, cd).unwrap();
        assert_eq!(d, SimpleDecomp::And(ab, cd));
    }

    /// Fig. 2(b)-style: F = ab + cde has a 0-dominator ⇒ disjunctive.
    #[test]
    fn karplus_disjunctive() {
        let mut m = Manager::new();
        let v = m.new_vars(5);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let cd = m.and(lits[2], lits[3]).unwrap();
        let cde = m.and(cd, lits[4]).unwrap();
        let f = m.or(ab, cde).unwrap();
        let info = PathInfo::compute(&m, f, &mut VisitMarks::new());
        let doms = zero_dominators(&info);
        assert!(doms.contains(&cde), "the cde vertex dominates all 0-paths");
        let d = decompose_at_zero_dominator(&mut m, f, cde).unwrap();
        let (g, h) = d.parts();
        let rebuilt = m.or(g, h).unwrap();
        assert_eq!(rebuilt, f);
        assert_eq!(h, cde);
    }

    /// Fig. 8: F = (x+y) ⊙ (ū+r̄+q̄) exposes an x-dominator at (x+y).
    #[test]
    fn x_dominator_xnor() {
        let mut m = Manager::new();
        let u = m.new_var("u");
        let r = m.new_var("r");
        let q = m.new_var("q");
        let x = m.new_var("x");
        let y = m.new_var("y");
        let (lu, lr, lq) = (
            m.literal(u, false),
            m.literal(r, false),
            m.literal(q, false),
        );
        let (lx, ly) = (m.literal(x, true), m.literal(y, true));
        let xy = m.or(lx, ly).unwrap();
        let urq1 = m.or(lu, lr).unwrap();
        let urq = m.or(urq1, lq).unwrap();
        let f = m.xnor(xy, urq).unwrap();
        let info = PathInfo::compute(&m, f, &mut VisitMarks::new());
        let doms = x_dominators(&info);
        assert!(
            doms.contains(&xy.regular()),
            "the (x+y) node must be an x-dominator; got {doms:?}"
        );
        let d = decompose_at_x_dominator(&mut m, f, xy.regular()).unwrap();
        let (g, h) = d.parts();
        let rebuilt = m.xnor(g, h).unwrap();
        assert_eq!(rebuilt, f);
    }

    /// A function with no special structure should expose no dominators
    /// below the root.
    #[test]
    fn no_false_dominators_on_xor_pair() {
        let mut m = Manager::new();
        let v = m.new_vars(2);
        let la = m.literal(v[0], true);
        let lb = m.literal(v[1], true);
        let f = m.xor(la, lb).unwrap();
        let info = PathInfo::compute(&m, f, &mut VisitMarks::new());
        // The b-node IS on every path (it is an x-dominator: a⊕b = b ⊙ ā).
        assert!(!x_dominators(&info).is_empty());
        // But no 1-dominator exists below the root (two disjoint 1-paths).
        assert!(one_dominators(&info).is_empty());
        assert!(zero_dominators(&info).is_empty());
    }
}
