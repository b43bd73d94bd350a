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

use bds_bdd::{Edge, FastMap, Manager, VisitMarks};

/// Marks a child that is a terminal in [`PathInfo::children`].
pub const TERMINAL: u32 = u32::MAX;

/// Per-vertex path statistics for the lifted graph rooted at some edge.
///
/// Every per-vertex vector is aligned with `order`: entry `i` describes
/// the vertex `order[i]`, and the root (when not constant) is entry 0.
#[derive(Clone, Debug)]
pub struct PathInfo {
    /// Reachable lifted vertices in topological (root-first) order,
    /// excluding terminals.
    pub order: Vec<Edge>,
    /// Level of each vertex's top variable.
    pub level: Vec<u32>,
    /// The `(then, else)` children of each vertex as indices into
    /// `order`, or [`TERMINAL`] for a constant child.
    pub children: Vec<[u32; 2]>,
    /// The vertices in the order the depth-first search first reached
    /// them (indices into `order`), which is the order a plain DFS from
    /// the root that takes the else-child first discovers them.
    pub discovery: Vec<u32>,
    /// Number of paths from the root to each vertex (root has 1).
    /// Saturating arithmetic.
    pub down: Vec<u64>,
    /// `(paths to 1, paths to 0)` from each vertex.
    pub up: Vec<(u64, u64)>,
    /// `(1-paths, 0-paths)` through each vertex: `down · up`, saturating.
    pub through: Vec<(u64, u64)>,
    /// The index of each vertex's complement (the other parity of the
    /// same node) when it is reachable too, else [`TERMINAL`].
    pub partner: Vec<u32>,
    /// Total `(1-paths, 0-paths)` of the root.
    pub totals: (u64, u64),
}

/// A DFS stack entry: a vertex to enter, or one whose children are done.
enum Step {
    Enter(Edge),
    Leave(Edge, Edge, Edge),
}

impl PathInfo {
    /// Computes path statistics for the lifted graph of `root` in one
    /// depth-first search that reads each vertex's node once. `marks`
    /// is scratch (keyed by [`Edge::raw`]) reused between calls.
    pub fn compute(mgr: &Manager, root: Edge, marks: &mut VisitMarks) -> PathInfo {
        marks.begin(2 * mgr.arena_size());
        // Post-order records; `marks` maps a vertex to its discovery rank
        // while it is open and to its post-order index once it is done.
        let mut post: Vec<Edge> = Vec::new();
        let mut post_level: Vec<u32> = Vec::new();
        let mut post_kids: Vec<[u32; 2]> = Vec::new();
        let mut post_up: Vec<(u64, u64)> = Vec::new();
        let mut post_rank: Vec<u32> = Vec::new();
        let mut rank = 0u32;
        let mut stack = vec![Step::Enter(root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(e) => {
                    if e.is_const() || marks.get(e.raw() as usize).is_some() {
                        continue;
                    }
                    marks.set(e.raw() as usize, rank);
                    rank += 1;
                    #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
                    let (_, t, el) = mgr.node(e).expect("non-const");
                    stack.push(Step::Leave(e, t, el));
                    stack.push(Step::Enter(t));
                    stack.push(Step::Enter(el));
                }
                Step::Leave(e, t, el) => {
                    // Both children are done: the graph is acyclic, so a
                    // child cannot still be open above its parent.
                    let kid = |c: Edge| -> (u32, (u64, u64)) {
                        if c.is_const() {
                            (TERMINAL, if c.is_one() { (1, 0) } else { (0, 1) })
                        } else {
                            let p = marks.get(c.raw() as usize).unwrap_or(TERMINAL);
                            (p, post_up[p as usize])
                        }
                    };
                    let ((pt, a), (pe, b)) = (kid(t), kid(el));
                    post_rank.push(marks.get(e.raw() as usize).unwrap_or(0));
                    marks.set(e.raw() as usize, post.len() as u32);
                    post.push(e);
                    post_level.push(mgr.top_level(e));
                    post_kids.push([pt, pe]);
                    post_up.push((a.0.saturating_add(b.0), a.1.saturating_add(b.1)));
                }
            }
        }

        // Root-first order: post-order index `p` becomes `n - 1 - p`.
        let n = post.len();
        let flip = |p: u32| {
            if p == TERMINAL {
                TERMINAL
            } else {
                (n - 1) as u32 - p
            }
        };
        let order: Vec<Edge> = post.iter().rev().copied().collect();
        let level: Vec<u32> = post_level.into_iter().rev().collect();
        let up: Vec<(u64, u64)> = post_up.into_iter().rev().collect();
        let children: Vec<[u32; 2]> = post_kids
            .iter()
            .rev()
            .map(|&[t, e]| [flip(t), flip(e)])
            .collect();
        let mut discovery = vec![0u32; n];
        for (p, &r) in post_rank.iter().enumerate() {
            discovery[r as usize] = flip(p as u32);
        }
        let partner: Vec<u32> = order
            .iter()
            .map(|&v| flip(marks.get(v.complement().raw() as usize).unwrap_or(TERMINAL)))
            .collect();

        // Down counts (root-first sweep); children always follow parents.
        let mut down = vec![0u64; n];
        if n > 0 {
            down[0] = 1;
        }
        for i in 0..n {
            let d = down[i];
            if d == 0 {
                continue;
            }
            for c in children[i] {
                if c != TERMINAL {
                    let slot = &mut down[c as usize];
                    *slot = slot.saturating_add(d);
                }
            }
        }
        let through = down
            .iter()
            .zip(&up)
            .map(|(&d, &(t1, t0))| (d.saturating_mul(t1), d.saturating_mul(t0)))
            .collect();
        let totals = if root.is_const() {
            if root.is_one() {
                (1, 0)
            } else {
                (0, 1)
            }
        } else {
            up[0]
        };
        PathInfo {
            order,
            level,
            children,
            discovery,
            down,
            up,
            through,
            partner,
            totals,
        }
    }

    /// True when saturation occurred somewhere, making dominator
    /// equalities unreliable (callers should then skip dominator-based
    /// decompositions, which is safe — other methods still apply).
    pub fn saturated(&self) -> bool {
        self.totals.0 == u64::MAX || self.totals.1 == u64::MAX
    }
}

/// Memoized [`Manager::size`] per node, for one manager.
///
/// A node's size is a function of the subgraph below it, which never
/// changes while the manager neither reorders nor collects garbage (a
/// decomposition manager does neither); an edge and its complement have
/// the same size. Valid only with the manager it was first used with.
#[derive(Clone, Debug, Default)]
pub struct SizeMemo {
    /// `sizes[node] = size`, or 0 when not yet computed (a size is ≥ 1).
    sizes: Vec<u32>,
}

impl SizeMemo {
    /// `mgr.size(e)`, computed once per node.
    pub fn size(&mut self, mgr: &Manager, e: Edge) -> usize {
        let i = e.node_index();
        if i >= self.sizes.len() {
            self.sizes.resize(mgr.arena_size().max(i + 1), 0);
        }
        match self.sizes[i] {
            0 => {
                let s = mgr.size(e);
                self.sizes[i] = s as u32;
                s
            }
            s => s as usize,
        }
    }
}

/// Rebuilds `root` with selected lifted vertices replaced by constant or
/// arbitrary functions. `subst` lists `(lifted vertex, replacement)`
/// pairs; the decompositions replace at most two vertices, so a linear
/// scan beats a lookup table.
///
/// This is the workhorse behind every structural decomposition: redirect
/// the edges pointing at a dominator to 1/0/don't-care stand-ins.
///
/// # Errors
/// Propagates node-limit errors from the manager.
pub fn substitute_vertices(
    mgr: &mut Manager,
    root: Edge,
    subst: &[(Edge, Edge)],
) -> bds_bdd::Result<Edge> {
    let mut memo: FastMap<Edge, Edge> = FastMap::default();
    substitute_rec(mgr, root, subst, &mut memo)
}

fn substitute_rec(
    mgr: &mut Manager,
    e: Edge,
    subst: &[(Edge, Edge)],
    memo: &mut FastMap<Edge, Edge>,
) -> bds_bdd::Result<Edge> {
    if let Some(&(_, r)) = subst.iter().find(|&&(v, _)| v == e) {
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
    let mut memo: FastMap<Edge, Edge> = FastMap::default();
    rebuild_rec(mgr, root, cut_level, free_replacement, &mut memo)
}

fn rebuild_rec(
    mgr: &mut Manager,
    e: Edge,
    cut_level: u32,
    free_replacement: &mut dyn FnMut(Edge) -> Edge,
    memo: &mut FastMap<Edge, Edge>,
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
        let info = PathInfo::compute(&m, f, &mut VisitMarks::new());
        assert_eq!(info.totals, (1, 2));
        assert!(!info.saturated());
        assert_eq!(info.order, vec![f, lb], "order starts at the root");
        // The b-vertex lies on the only 1-path and on one of two 0-paths.
        assert_eq!(info.through[1], (1, 1));
        assert_eq!(info.children[0], [1, TERMINAL]);
        assert_eq!(info.children[1], [TERMINAL, TERMINAL]);
        assert_eq!(info.partner, vec![TERMINAL, TERMINAL]);
        assert_eq!(info.discovery, vec![0, 1]);
    }

    #[test]
    fn substitute_vertex_to_one() {
        // f = a·b; replacing the b-vertex by 1 gives a.
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let f = m.and(la, lb).unwrap();
        let g = substitute_vertices(&mut m, f, &[(lb, Edge::ONE)]).unwrap();
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
