//! The lifted (complement-edge-resolved) view of a BDD.
//!
//! The structural theory of the BDS paper (§III) speaks about paths and
//! dominators in "the BDD without complement edges". With complement
//! edges, the equivalent object is the graph whose vertices are
//! `(node, parity)` pairs — which is exactly what a (possibly
//! complemented) [`Edge`] denotes. The manager's
//! [`node`](bds_bdd::Manager::node) accessor already pushes an edge's
//! parity into its children, so the children of lifted vertex `e` are
//! simply `node(e).1` and `node(e).2`, and the terminal vertices are
//! [`Edge::ONE`] and [`Edge::ZERO`].
//!
//! This module provides the path-counting machinery on that view which
//! every dominator search builds on.

use std::collections::HashMap;

use bds_bdd::{Edge, Manager};

/// Per-vertex path statistics for the lifted graph rooted at some edge.
#[derive(Clone, Debug)]
pub struct PathInfo {
    /// Number of paths from the root to each reachable lifted vertex
    /// (root has 1). Saturating arithmetic.
    pub down: HashMap<Edge, u64>,
    /// `(paths to 1, paths to 0)` from each reachable vertex.
    pub up: HashMap<Edge, (u64, u64)>,
    /// Total `(1-paths, 0-paths)` of the root.
    pub totals: (u64, u64),
    /// Reachable lifted vertices in topological (root-first) order,
    /// excluding terminals.
    pub order: Vec<Edge>,
}

impl PathInfo {
    /// Computes path statistics for the lifted graph of `root`.
    pub fn compute(mgr: &Manager, root: Edge) -> PathInfo {
        // Topological order by DFS.
        let mut order: Vec<Edge> = Vec::new();
        let mut seen: HashMap<Edge, bool> = HashMap::new();
        let mut stack: Vec<(Edge, bool)> = vec![(root, false)];
        while let Some((e, expanded)) = stack.pop() {
            if e.is_const() {
                continue;
            }
            if expanded {
                order.push(e);
                continue;
            }
            if seen.contains_key(&e) {
                continue;
            }
            seen.insert(e, true);
            stack.push((e, true));
            #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
            let (_, t, el) = mgr.node(e).expect("non-const");
            stack.push((t, false));
            stack.push((el, false));
        }
        order.reverse(); // root-first

        // Down counts (root-first sweep).
        let mut down: HashMap<Edge, u64> = HashMap::new();
        down.insert(root, 1);
        for &e in &order {
            let d = *down.get(&e).unwrap_or(&0);
            if d == 0 {
                continue;
            }
            #[expect(clippy::expect_used, reason = "only internal nodes have down-counts")]
            let (_, t, el) = mgr.node(e).expect("non-const");
            for child in [t, el] {
                if !child.is_const() {
                    let slot = down.entry(child).or_insert(0);
                    *slot = slot.saturating_add(d);
                }
            }
        }

        // Up counts (leaf-first sweep).
        let mut up: HashMap<Edge, (u64, u64)> = HashMap::new();
        up.insert(Edge::ONE, (1, 0));
        up.insert(Edge::ZERO, (0, 1));
        for &e in order.iter().rev() {
            #[expect(clippy::expect_used, reason = "order contains internal nodes only")]
            let (_, t, el) = mgr.node(e).expect("non-const");
            let a = up[&t];
            let b = up[&el];
            up.insert(e, (a.0.saturating_add(b.0), a.1.saturating_add(b.1)));
        }
        let totals = if root.is_const() {
            if root.is_one() {
                (1, 0)
            } else {
                (0, 1)
            }
        } else {
            up[&root]
        };
        PathInfo {
            down,
            up,
            totals,
            order,
        }
    }

    /// Number of 1-paths (0-paths) passing through lifted vertex `e` —
    /// `down(e) · to1(e)` (`down(e) · to0(e)`), saturating.
    pub fn paths_through(&self, e: Edge) -> (u64, u64) {
        let d = *self.down.get(&e).unwrap_or(&0);
        let (t1, t0) = *self.up.get(&e).unwrap_or(&(0, 0));
        (d.saturating_mul(t1), d.saturating_mul(t0))
    }

    /// True when saturation occurred somewhere, making dominator
    /// equalities unreliable (callers should then skip dominator-based
    /// decompositions, which is safe — other methods still apply).
    pub fn saturated(&self) -> bool {
        self.totals.0 == u64::MAX || self.totals.1 == u64::MAX
    }
}

/// Rebuilds `root` with selected lifted vertices replaced by constant or
/// arbitrary functions. `subst` maps a lifted vertex (an edge value) to
/// the function that should take its place.
///
/// This is the workhorse behind every structural decomposition: redirect
/// the edges pointing at a dominator to 1/0/don't-care stand-ins.
///
/// # Errors
/// Propagates node-limit errors from the manager.
pub fn substitute_vertices(
    mgr: &mut Manager,
    root: Edge,
    subst: &HashMap<Edge, Edge>,
) -> bds_bdd::Result<Edge> {
    let mut memo: HashMap<Edge, Edge> = HashMap::new();
    substitute_rec(mgr, root, subst, &mut memo)
}

fn substitute_rec(
    mgr: &mut Manager,
    e: Edge,
    subst: &HashMap<Edge, Edge>,
    memo: &mut HashMap<Edge, Edge>,
) -> bds_bdd::Result<Edge> {
    if let Some(&r) = subst.get(&e) {
        return Ok(r);
    }
    if e.is_const() {
        return Ok(e);
    }
    if let Some(&r) = memo.get(&e) {
        return Ok(r);
    }
    #[expect(clippy::expect_used, reason = "guarded: constants are handled above")]
    let (var, t, el) = mgr.node(e).expect("non-const");
    let rt = substitute_rec(mgr, t, subst, memo)?;
    let re = substitute_rec(mgr, el, subst, memo)?;
    let lit = mgr.literal_checked(var, true)?;
    let r = mgr.ite(lit, rt, re)?;
    memo.insert(e, r);
    Ok(r)
}

/// Rebuilds the part of `root`'s lifted graph **above** the level `cut`,
/// replacing every crossing to a vertex at level ≥ `cut` by
/// `free_replacement(vertex)`; constant (leaf) vertices above the cut are
/// kept as-is. This constructs the paper's *generalized dominator*
/// (Definition 7) with its free edges redirected.
///
/// # Errors
/// Propagates node-limit errors from the manager.
pub fn rebuild_above_cut(
    mgr: &mut Manager,
    root: Edge,
    cut_level: u32,
    free_replacement: &mut dyn FnMut(Edge) -> Edge,
) -> bds_bdd::Result<Edge> {
    let mut memo: HashMap<Edge, Edge> = HashMap::new();
    rebuild_rec(mgr, root, cut_level, free_replacement, &mut memo)
}

fn rebuild_rec(
    mgr: &mut Manager,
    e: Edge,
    cut_level: u32,
    free_replacement: &mut dyn FnMut(Edge) -> Edge,
    memo: &mut HashMap<Edge, Edge>,
) -> bds_bdd::Result<Edge> {
    if e.is_const() {
        return Ok(e);
    }
    if mgr.top_level(e) >= cut_level {
        return Ok(free_replacement(e));
    }
    if let Some(&r) = memo.get(&e) {
        return Ok(r);
    }
    #[expect(clippy::expect_used, reason = "guarded: constants are handled above")]
    let (var, t, el) = mgr.node(e).expect("non-const");
    let rt = rebuild_rec(mgr, t, cut_level, free_replacement, memo)?;
    let re = rebuild_rec(mgr, el, cut_level, free_replacement, memo)?;
    let lit = mgr.literal_checked(var, true)?;
    let r = mgr.ite(lit, rt, re)?;
    memo.insert(e, r);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_info_for_and() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let f = m.and(la, lb).unwrap();
        let info = PathInfo::compute(&m, f);
        assert_eq!(info.totals, (1, 2));
        // The b-vertex lies on the only 1-path.
        assert_eq!(info.paths_through(lb).0, 1);
        assert!(!info.saturated());
        assert_eq!(info.order.len(), 2);
        assert_eq!(info.order[0], f, "order starts at the root");
    }

    #[test]
    fn substitute_vertex_to_one() {
        // f = a·b; replacing the b-vertex by 1 gives a.
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let f = m.and(la, lb).unwrap();
        let mut subst = HashMap::new();
        subst.insert(lb, Edge::ONE);
        let g = substitute_vertices(&mut m, f, &subst).unwrap();
        assert_eq!(g, la);
    }

    #[test]
    fn rebuild_above_cut_keeps_leaf_edges() {
        // f = a + b·c, cut below a's level: leaf edge a→1 must survive,
        // the crossing into the b·c subgraph is "free".
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let lc = m.literal(vars[2], true);
        let bc = m.and(lb, lc).unwrap();
        let f = m.or(la, bc).unwrap();
        // Redirect free edges to 1 (conjunctive divisor): D = a + 1 = 1?
        // No: above the cut only the a-node remains; its then-edge is a
        // leaf edge to 1 and its else-edge crosses the cut (free → 1),
        // giving D = ite(a, 1, 1) = 1. With free → 0: G = a.
        let d = rebuild_above_cut(&mut m, f, 1, &mut |_| Edge::ONE).unwrap();
        assert_eq!(d, Edge::ONE);
        let g = rebuild_above_cut(&mut m, f, 1, &mut |_| Edge::ZERO).unwrap();
        assert_eq!(g, la);
    }
}
