//! Cross-manager transfer — the paper's "BDD mapping" (`bddPool`, §IV-B).
//!
//! During `eliminate`, variables die as network nodes are collapsed; rather
//! than reorder a polluted manager full of unused variables, BDS initializes
//! a fresh manager containing only the *used* variables and reconstructs
//! each BDD there through a mapping function `F_M`. [`transfer`] is that
//! mechanism: it re-homes a function into any destination manager under an
//! arbitrary variable map, correctly handling a *different variable order*
//! in the destination (the rebuild goes through ITE, so level inversions
//! are resolved on the fly).

use crate::edge::{Edge, Var};
use crate::error::BddError;
use crate::hash::FastMap;
use crate::manager::Manager;
use crate::Result;

/// Re-homes `root` from `src` into `dst`, mapping each source variable `v`
/// to `var_map[v.index()]`.
///
/// The destination order may differ arbitrarily from the source order.
///
/// # Errors
/// [`BddError::BadVarMap`] if the map is shorter than the source variable
/// table or names a variable foreign to `dst`;
/// [`BddError::NodeLimit`] if `dst`'s node limit is hit.
///
/// # Example
///
/// ```
/// use bds_bdd::{Manager, transfer::transfer};
/// # fn main() -> Result<(), bds_bdd::BddError> {
/// let mut src = Manager::new();
/// let a = src.new_var("a");
/// let b = src.new_var("b");
/// let (la, lb) = (src.literal(a, true), src.literal(b, true));
/// let f = src.and(la, lb)?;
///
/// let mut dst = Manager::new();
/// let q = dst.new_var("q");
/// let p = dst.new_var("p");
/// // a ↦ p, b ↦ q (order inverted in dst).
/// let g = transfer(&src, &mut dst, f, &[p, q])?;
/// let (lp, lq) = (dst.literal(p, true), dst.literal(q, true));
/// assert_eq!(g, dst.and(lp, lq)?);
/// # Ok(())
/// # }
/// ```
pub fn transfer(src: &Manager, dst: &mut Manager, root: Edge, var_map: &[Var]) -> Result<Edge> {
    if var_map.len() < src.var_count() {
        return Err(BddError::BadVarMap {
            detail: format!(
                "map covers {} of {} source variables",
                var_map.len(),
                src.var_count()
            ),
        });
    }
    for &v in var_map.iter().take(src.var_count()) {
        dst.check_var(v)?;
    }
    let mut memo: FastMap<u32, Edge> = FastMap::default();
    let out = transfer_rec(src, dst, root, var_map, &mut memo)?;
    bds_trace::counter!("bdd.transfer.calls");
    bds_trace::counter_add!("bdd.transfer.nodes", memo.len() as u64);
    dst.audit()?;
    Ok(out)
}

/// Re-homes several roots at once, sharing the memo table (and therefore
/// the structure) across them.
///
/// # Errors
/// Same as [`transfer`].
pub fn transfer_all(
    src: &Manager,
    dst: &mut Manager,
    roots: &[Edge],
    var_map: &[Var],
) -> Result<Vec<Edge>> {
    let mut memo: FastMap<u32, Edge> = FastMap::default();
    transfer_all_into(src, dst, roots, var_map, &mut memo)
}

/// [`transfer_all`] with a caller-supplied memo, left populated with the
/// source-node → destination-edge mapping of every transferred node.
/// [`crate::reorder::reorder`] uses the mapping to re-home surviving
/// computed-table entries alongside the graph.
pub(crate) fn transfer_all_into(
    src: &Manager,
    dst: &mut Manager,
    roots: &[Edge],
    var_map: &[Var],
    memo: &mut FastMap<u32, Edge>,
) -> Result<Vec<Edge>> {
    if var_map.len() < src.var_count() {
        return Err(BddError::BadVarMap {
            detail: format!(
                "map covers {} of {} source variables",
                var_map.len(),
                src.var_count()
            ),
        });
    }
    for &v in var_map.iter().take(src.var_count()) {
        dst.check_var(v)?;
    }
    let out: Result<Vec<Edge>> = roots
        .iter()
        .map(|&r| transfer_rec(src, dst, r, var_map, memo))
        .collect();
    bds_trace::counter!("bdd.transfer.calls");
    bds_trace::counter_add!("bdd.transfer.nodes", memo.len() as u64);
    out
}

/// The destination image of a source edge under a transfer `memo`, or
/// `None` when the edge's node was not part of the transferred graph.
fn image(e: Edge, memo: &FastMap<u32, Edge>) -> Option<Edge> {
    if e.is_const() {
        return Some(e);
    }
    memo.get(&e.node())
        .map(|&m| m.complement_if(e.is_complemented()))
}

/// Re-homes the source manager's computed-table entries into `dst`
/// through a transfer `memo`, returning how many entries survived.
///
/// Only valid when `dst` uses the **same variable order** as `src`:
/// canonical ITE keys rank their arguments by level, so an entry's key
/// stays canonical in the destination exactly when every variable kept
/// its level. Entries naming any node outside the transferred graph
/// (dead operands or a dead result) are dropped — which also makes the
/// surviving set a pure function of the live graph, independent of
/// whatever dead nodes the source manager's arena still holds.
pub(crate) fn transplant_cache(
    src: &Manager,
    dst: &mut Manager,
    memo: &FastMap<u32, Edge>,
) -> usize {
    debug_assert_eq!(
        src.order(),
        dst.order(),
        "cache transplant requires an unchanged order"
    );
    let mut kept = 0usize;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "each entry is transplanted independently and `kept` is a count, \
                  so the visit order cannot reach the cache contents or any output"
    )]
    for (key, &r) in &src.ite_cache {
        let (f, g, h) = key.unpack();
        let (Some(fi), Some(gi), Some(hi), Some(ri)) = (
            image(f, memo),
            image(g, memo),
            image(h, memo),
            image(r, memo),
        ) else {
            continue;
        };
        dst.ite_cache
            .insert(crate::nid::IteKey::pack(fi, gi, hi), ri);
        kept += 1;
    }
    bds_trace::counter_add!("bdd.transfer.cache_entries", kept as u64);
    kept
}

fn transfer_rec(
    src: &Manager,
    dst: &mut Manager,
    e: Edge,
    var_map: &[Var],
    memo: &mut FastMap<u32, Edge>,
) -> Result<Edge> {
    // Work on the regular node; re-apply the complement at the end. This
    // keeps the memo table keyed by node, not by edge.
    if e.is_const() {
        return Ok(e);
    }
    let node = e.node();
    let mapped = if let Some(&m) = memo.get(&node) {
        m
    } else {
        #[expect(clippy::expect_used, reason = "constants take the other branch")]
        let (var, high, low) = src
            .node_raw(e.regular())
            .expect("non-constant edge has a node");
        let h = transfer_rec(src, dst, high, var_map, memo)?;
        let l = transfer_rec(src, dst, low, var_map, memo)?;
        let dvar = var_map[var.index()];
        let lit = dst.literal_checked(dvar, true)?;
        let m = dst.ite(lit, h, l)?;
        memo.insert(node, m);
        m
    };
    Ok(mapped.complement_if(e.is_complemented()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_identity_map() {
        let mut src = Manager::new();
        let vars = src.new_vars(3);
        let lits: Vec<Edge> = vars.iter().map(|&v| src.literal(v, true)).collect();
        let ab = src.and(lits[0], lits[1]).unwrap();
        let f = src.xor(ab, lits[2]).unwrap();

        let mut dst = Manager::new();
        let dvars = dst.new_vars(3);
        let g = transfer(&src, &mut dst, f, &dvars).unwrap();
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(src.eval(f, &assign), dst.eval(g, &assign));
        }
    }

    #[test]
    fn transfer_with_reordering() {
        let mut src = Manager::new();
        let vars = src.new_vars(4);
        let lits: Vec<Edge> = vars.iter().map(|&v| src.literal(v, true)).collect();
        let ab = src.and(lits[0], lits[2]).unwrap();
        let cd = src.and(lits[1], lits[3]).unwrap();
        let f = src.or(ab, cd).unwrap();

        let mut dst = Manager::new();
        // Interleaved destination order: a, c, b, d by construction order.
        let da = dst.new_var("a");
        let dc = dst.new_var("c");
        let db = dst.new_var("b");
        let dd = dst.new_var("d");
        let g = transfer(&src, &mut dst, f, &[da, db, dc, dd]).unwrap();
        // f = a·c + b·d with the good interleaved order needs fewer nodes.
        assert!(dst.size(g) <= src.size(f));
        for bits in 0..16u32 {
            let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            // dst assignments are indexed by dst variable index:
            // dst[0]=a, dst[1]=c, dst[2]=b, dst[3]=d.
            let dst_assign = [assign[0], assign[2], assign[1], assign[3]];
            assert_eq!(src.eval(f, &assign), dst.eval(g, &dst_assign));
        }
    }

    #[test]
    fn short_var_map_rejected() {
        let mut src = Manager::new();
        let _ = src.new_vars(2);
        let mut dst = Manager::new();
        let d = dst.new_var("d");
        let r = transfer(&src, &mut dst, Edge::ONE, &[d]);
        assert!(matches!(r, Err(BddError::BadVarMap { .. })));
    }
}
