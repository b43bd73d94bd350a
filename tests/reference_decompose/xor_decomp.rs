//! Boolean XNOR decomposition via generalized x-dominators
//! (paper §III-D, Theorem 6 and Definition 10).
//!
//! Any function `G` yields a Boolean XNOR decomposition `F = G ⊙ (G ⊙ F)`
//! (Theorem 6); the art is picking `G` so that both factors are small.
//! The paper's heuristic: good candidates are the functions rooted at
//! **generalized x-dominators** — nodes pointed to by at least one
//! complement *and* one regular edge, which is where the BDD's
//! complement-edge structure concentrates its XOR behaviour.

use std::collections::{BTreeMap, HashSet};

use bds_repro::bdd::{Edge, Manager};

use super::{bdd_size, count_nodes};

/// Nodes of `f`'s graph pointed to by at least one complement edge and at
/// least one regular (positive) reference — Definition 10. Returned as
/// regular edges, deepest first; the root is included when `f` itself is
/// referenced both ways (it is excluded here because decomposing at the
/// root is trivial).
pub fn generalized_x_dominators(mgr: &Manager, f: Edge) -> Vec<Edge> {
    if f.is_const() {
        return Vec::new();
    }
    // refs[node] = (has_regular_ref, has_complement_ref)
    // BTreeMap: level ties in the final sort must break by Edge, not by
    // hash order.
    let mut refs: BTreeMap<Edge, (bool, bool)> = BTreeMap::new();
    let mut mark = |e: Edge| {
        if !e.is_const() {
            let slot = refs.entry(e.regular()).or_insert((false, false));
            if e.is_complemented() {
                slot.1 = true;
            } else {
                slot.0 = true;
            }
        }
    };
    mark(f);
    let mut seen: HashSet<Edge> = HashSet::new();
    let mut stack = vec![f.regular()];
    while let Some(e) = stack.pop() {
        if e.is_const() || !seen.insert(e) {
            continue;
        }
        #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
        let (_, high, low) = mgr.node_raw(e).expect("non-const");
        mark(high);
        mark(low);
        stack.push(high.regular());
        stack.push(low.regular());
    }
    let root = f.regular();
    let mut out: Vec<Edge> = refs
        .into_iter()
        .filter(|&(n, (reg, compl))| reg && compl && n != root)
        .map(|(n, _)| n)
        .collect();
    out.sort_by_key(|&n| std::cmp::Reverse(mgr.top_level(n)));
    out
}

/// A Boolean XNOR decomposition `F = G ⊙ H`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XnorDecomp {
    /// The candidate function `G` (rooted at a generalized x-dominator).
    pub g: Edge,
    /// `H = G ⊙ F`, computed with the standard apply operator.
    pub h: Edge,
}

/// Searches the generalized x-dominators of `f` for the best Boolean XNOR
/// decomposition, requiring both components to be strictly smaller than
/// `require_below` and their shared size to beat it.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn best_xnor_decomposition(
    mgr: &mut Manager,
    f: Edge,
    require_below: usize,
) -> bds_repro::bdd::Result<Option<XnorDecomp>> {
    let mut best: Option<(XnorDecomp, usize)> = None;
    for g in generalized_x_dominators(mgr, f) {
        let h = mgr.xnor(g, f)?;
        if h.is_const() || g == f || h == f {
            continue;
        }
        let (sg, sh) = (bdd_size(mgr, g), bdd_size(mgr, h));
        if sg >= require_below || sh >= require_below {
            continue;
        }
        let cost = count_nodes(mgr, &[g, h]);
        if cost < require_below && best.as_ref().is_none_or(|&(_, c)| cost < c) {
            best = Some((XnorDecomp { g, h }, cost));
        }
    }
    Ok(best.map(|(d, _)| d))
}
