//! Simple dominators: 1-, 0- and x-dominators (paper §II-C, §III-D).
//!
//! * A **1-dominator** (Karplus) lies on every 1-path ⇒ algebraic
//!   conjunctive decomposition `F = G · H`.
//! * A **0-dominator** lies on every 0-path ⇒ algebraic disjunctive
//!   decomposition `F = G + H`.
//! * An **x-dominator** (Definition 9) is a *node* contained in every
//!   path ⇒ algebraic XNOR decomposition `F = G ⊙ H` (Theorem 5).

use std::collections::{BTreeMap, HashMap};

use bds_repro::bdd::{Edge, Manager};

use super::lifted::{substitute_vertices, PathInfo};

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

/// Lifted vertices that lie on **every 1-path** of `f` (excluding the
/// root), deepest first.
pub fn one_dominators(mgr: &Manager, f: Edge, info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || info.totals.0 == 0 {
        return Vec::new();
    }
    let mut out: Vec<Edge> = info
        .order
        .iter()
        .skip(1) // the root is a trivial dominator
        .copied()
        .filter(|&v| info.paths_through(v).0 == info.totals.0)
        .collect();
    let _ = f;
    out.sort_by_key(|&v| std::cmp::Reverse(mgr.top_level(v)));
    out
}

/// Lifted vertices on **every 0-path** of `f` (excluding the root),
/// deepest first.
pub fn zero_dominators(mgr: &Manager, f: Edge, info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || info.totals.1 == 0 {
        return Vec::new();
    }
    let mut out: Vec<Edge> = info
        .order
        .iter()
        .skip(1)
        .copied()
        .filter(|&v| info.paths_through(v).1 == info.totals.1)
        .collect();
    let _ = f;
    out.sort_by_key(|&v| std::cmp::Reverse(mgr.top_level(v)));
    out
}

/// Nodes (both parities combined) contained in **every path** of `f`
/// (Definition 9), excluding the root node, deepest first. Returned as
/// the node's regular edge.
pub fn x_dominators(mgr: &Manager, f: Edge, info: &PathInfo) -> Vec<Edge> {
    if info.saturated() || f.is_const() {
        return Vec::new();
    }
    let total = info.totals.0.saturating_add(info.totals.1);
    // BTreeMap: level ties below must break by Edge, not by hash order.
    let mut per_node: BTreeMap<Edge, u64> = BTreeMap::new();
    for &v in &info.order {
        let (p1, p0) = info.paths_through(v);
        let slot = per_node.entry(v.regular()).or_insert(0);
        *slot = slot.saturating_add(p1).saturating_add(p0);
    }
    let root_node = f.regular();
    let mut out: Vec<Edge> = per_node
        .into_iter()
        .filter(|&(n, count)| n != root_node && count == total)
        .map(|(n, _)| n)
        .collect();
    out.sort_by_key(|&v| std::cmp::Reverse(mgr.top_level(v)));
    out
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
) -> bds_repro::bdd::Result<SimpleDecomp> {
    let mut subst = HashMap::new();
    subst.insert(d, Edge::ONE);
    let g = substitute_vertices(mgr, f, &subst)?;
    debug_assert_identity!(mgr.and(g, d), f, "1-dominator identity F = G·H");
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
) -> bds_repro::bdd::Result<SimpleDecomp> {
    let mut subst = HashMap::new();
    subst.insert(d, Edge::ZERO);
    let g = substitute_vertices(mgr, f, &subst)?;
    debug_assert_identity!(mgr.or(g, d), f, "0-dominator identity F = G+H");
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
) -> bds_repro::bdd::Result<SimpleDecomp> {
    debug_assert!(
        !d.is_complemented(),
        "x-dominator is identified by its regular edge"
    );
    let mut subst = HashMap::new();
    subst.insert(d, Edge::ONE);
    subst.insert(d.complement(), Edge::ZERO);
    let h = substitute_vertices(mgr, f, &subst)?;
    debug_assert_identity!(mgr.xnor(d, h), f, "x-dominator identity F = G ⊙ H");
    Ok(SimpleDecomp::Xnor(d, h))
}
