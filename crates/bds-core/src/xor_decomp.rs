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

use bds_bdd::{Edge, Manager};

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
) -> bds_bdd::Result<Option<XnorDecomp>> {
    let mut best: Option<(XnorDecomp, usize)> = None;
    for g in generalized_x_dominators(mgr, f) {
        let h = mgr.xnor(g, f)?;
        if h.is_const() || g == f || h == f {
            continue;
        }
        let (sg, sh) = (mgr.size(g), mgr.size(h));
        if sg >= require_below || sh >= require_below {
            continue;
        }
        let cost = mgr.count_nodes(&[g, h]);
        if cost < require_below && best.as_ref().is_none_or(|&(_, c)| cost < c) {
            best = Some((XnorDecomp { g, h }, cost));
        }
    }
    Ok(best.map(|(d, _)| d))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 9: circuit rnd4-1, F = (x1 ⊙ x4) ⊙ (x2·(x5 + x1·x4)).
    /// The x1 and x4 nodes are generalized x-dominators and the XNOR
    /// decomposition must reconstruct F.
    #[test]
    fn fig9_rnd4_1() {
        let mut m = Manager::new();
        // Order as in the figure: x2 above x1/x4/x5 so that the x1-rooted
        // node computing x1 ⊙ x4 exists inside the graph.
        let x2 = m.new_var("x2");
        let x1 = m.new_var("x1");
        let x4 = m.new_var("x4");
        let x5 = m.new_var("x5");
        let (l1, l2, l4, l5) = (
            m.literal(x1, true),
            m.literal(x2, true),
            m.literal(x4, true),
            m.literal(x5, true),
        );
        let x14 = m.xnor(l1, l4).unwrap();
        let a14 = m.and(l1, l4).unwrap();
        let inner = m.or(l5, a14).unwrap();
        let right = m.and(l2, inner).unwrap();
        let f = m.xnor(x14, right).unwrap();

        let doms = generalized_x_dominators(&m, f);
        assert!(
            !doms.is_empty(),
            "rnd4-1 must expose generalized x-dominators"
        );
        let fsize = m.size(f);
        let best = best_xnor_decomposition(&mut m, f, fsize).unwrap();
        let d = best.expect("a beneficial XNOR decomposition exists");
        let rebuilt = m.xnor(d.g, d.h).unwrap();
        assert_eq!(rebuilt, f, "F = G ⊙ H identity");
        assert!(m.count_nodes(&[d.g, d.h]) < m.size(f));
    }

    /// Theorem 6 round-trip: for arbitrary G, F = G ⊙ (G ⊙ F).
    #[test]
    fn theorem6_identity() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let f = m.xor(ab, lits[2]).unwrap();
        for &g in &[lits[3], ab, f.complement(), Edge::ONE] {
            let h = m.xnor(g, f).unwrap();
            let back = m.xnor(g, h).unwrap();
            assert_eq!(back, f);
        }
    }

    /// A pure conjunction has no complement-edge structure to exploit.
    #[test]
    fn and_chain_has_no_x_dominators_below_root() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let f = m.and(ab, lits[2]).unwrap();
        assert!(generalized_x_dominators(&m, f).is_empty());
    }
}
