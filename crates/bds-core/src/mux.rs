//! Functional MUX decomposition (paper §III-E, Theorem 7) and the simple
//! Shannon-cofactor fallback.
//!
//! When two lifted vertices `u`, `v` cover **all** paths of the BDD, the
//! function decomposes as `F = h·f + h̄·g` where `f = func(u)`,
//! `g = func(v)` and the control `h` is `F` with `u → 1`, `v → 0`. With a
//! single control function this coincides with a simple disjoint
//! Ashenhurst decomposition of column multiplicity two (§III-E末).

use std::collections::HashMap;

use bds_bdd::{Edge, Manager};

use crate::lifted::{substitute_vertices, PathInfo};

/// A functional MUX decomposition `F = ite(control, hi, lo)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MuxDecomp {
    /// The control function `h`.
    pub control: Edge,
    /// Selected when the control is 1 (`f = func(u)`).
    pub hi: Edge,
    /// Selected when the control is 0 (`g = func(v)`).
    pub lo: Edge,
}

/// For each level `L`, the *crossing set* is the set of lifted vertices
/// at level ≥ `L` that are entered by an edge from above `L` (or are the
/// root). A crossing set of size two {u, v} satisfies Theorem 7: the two
/// vertices cover all paths. Returns `(level, u, v)` candidates, deepest
/// level first — matching the Ashenhurst view, the crossing-set size is
/// the column multiplicity of the cut.
pub fn mux_candidates(mgr: &Manager, f: Edge) -> Vec<(u32, Edge, Edge)> {
    if f.is_const() {
        return Vec::new();
    }
    // Collect every internal edge (from, to) plus the root entry, and the
    // topmost level that owns a leaf (terminal) edge: a cut is only valid
    // for Theorem 7 if **no** leaf edge leaves the region above it —
    // otherwise some paths bypass both crossing vertices.
    let mut vertices: Vec<Edge> = Vec::new();
    let mut edges: Vec<(Edge, Edge)> = Vec::new();
    let mut first_leaf_level = u32::MAX;
    {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(e) = stack.pop() {
            if e.is_const() || !seen.insert(e) {
                continue;
            }
            vertices.push(e);
            #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
            let (_, t, el) = mgr.node(e).expect("non-const");
            for child in [t, el] {
                if child.is_const() {
                    first_leaf_level = first_leaf_level.min(mgr.top_level(e));
                } else {
                    edges.push((e, child));
                    stack.push(child);
                }
            }
        }
    }
    let levels: Vec<u32> = {
        let mut ls: Vec<u32> = vertices.iter().map(|&v| mgr.top_level(v)).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    };
    let mut out = Vec::new();
    for &level in levels.iter().skip(1) {
        // Theorem-7 validity: every node above the cut keeps its paths
        // inside the region (no leaf edges above the cut).
        if first_leaf_level < level {
            break;
        }
        // Crossing vertices: root if at/below the level, plus every edge
        // target at/below the level whose source is above it.
        let mut crossing: Vec<Edge> = Vec::new();
        if mgr.top_level(f) >= level {
            crossing.push(f);
        }
        for &(from, to) in &edges {
            if mgr.top_level(from) < level && mgr.top_level(to) >= level {
                if !crossing.contains(&to) {
                    crossing.push(to);
                }
                if crossing.len() > 2 {
                    break;
                }
            }
        }
        if crossing.len() == 2 {
            out.push((level, crossing[0], crossing[1]));
        }
    }
    out.sort_by_key(|&(level, _, _)| std::cmp::Reverse(level));
    out
}

/// Performs the Theorem-7 decomposition at a crossing pair `(u, v)` of
/// the cut at `level`: `F = ite(h, func(u), func(v))` with
/// `h = F[u → 1, v → 0]`.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn decompose_mux(mgr: &mut Manager, f: Edge, u: Edge, v: Edge) -> bds_bdd::Result<MuxDecomp> {
    let mut subst = HashMap::new();
    subst.insert(u, Edge::ONE);
    subst.insert(v, Edge::ZERO);
    let control = substitute_vertices(mgr, f, &subst)?;
    debug_assert_eq!(
        mgr.ite(control, u, v),
        Ok(f),
        "Theorem 7 identity F = h·f + h̄·g"
    );
    Ok(MuxDecomp {
        control,
        hi: u,
        lo: v,
    })
}

/// Searches cut levels for the best functional MUX decomposition with all
/// three components strictly smaller than `require_below`.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn best_mux_decomposition(
    mgr: &mut Manager,
    f: Edge,
    info: &PathInfo,
    require_below: usize,
) -> bds_bdd::Result<Option<MuxDecomp>> {
    let _ = info;
    let mut best: Option<(MuxDecomp, usize)> = None;
    for (_, u, v) in mux_candidates(mgr, f) {
        let d = decompose_mux(mgr, f, u, v)?;
        if d.control.is_const() {
            continue;
        }
        let sizes = [mgr.size(d.control), mgr.size(d.hi), mgr.size(d.lo)];
        if sizes.iter().any(|&s| s >= require_below) {
            continue;
        }
        // Each component being strictly smaller guarantees termination;
        // the combined (shared) node count only ranks candidates — a MUX
        // split may legitimately total slightly more than the original
        // because the original BDD already shares the branches (carry
        // chains are the canonical example).
        let cost = mgr.count_nodes(&[d.control, d.hi, d.lo]);
        if best.as_ref().is_none_or(|&(_, c)| cost < c) {
            best = Some((d, cost));
        }
    }
    Ok(best.map(|(d, _)| d))
}

/// The always-available fallback: Shannon expansion on the top variable
/// (the paper's *simple MUX*, kept "to ensure that the BDD will still be
/// decomposed when all other attempts fail", §IV-C).
///
/// `Ok(None)` for constants. Fallible so an effort budget or injected
/// fault tripping on the control literal surfaces as an `Err` rather
/// than a panic.
///
/// # Errors
/// [`bds_bdd::BddError::NodeLimit`] / [`bds_bdd::BddError::BudgetExceeded`].
pub fn shannon(mgr: &mut Manager, f: Edge) -> bds_bdd::Result<Option<MuxDecomp>> {
    let Some((var, t, e)) = mgr.node(f) else {
        return Ok(None);
    };
    let control = mgr.literal_checked(var, true)?;
    Ok(Some(MuxDecomp {
        control,
        hi: t,
        lo: e,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 11: F = ḡ·z + g·ȳ with g = x̄w + xw̄ (so F = ite(g, ȳ, z)).
    #[test]
    fn fig11_functional_mux() {
        let mut m = Manager::new();
        let x = m.new_var("x");
        let w = m.new_var("w");
        let z = m.new_var("z");
        let y = m.new_var("y");
        let (lx, lw, lz, ly) = (
            m.literal(x, true),
            m.literal(w, true),
            m.literal(z, true),
            m.literal(y, false),
        );
        let g = m.xor(lx, lw).unwrap();
        let f = m.ite(g, ly, lz).unwrap();

        let candidates = mux_candidates(&m, f);
        assert!(
            !candidates.is_empty(),
            "the z/ȳ articulation pair must be found"
        );
        let fsize = m.size(f);
        let info = PathInfo::compute(&m, f);
        let best = best_mux_decomposition(&mut m, f, &info, fsize)
            .unwrap()
            .expect("a beneficial MUX decomposition exists");
        let rebuilt = m.ite(best.control, best.hi, best.lo).unwrap();
        assert_eq!(rebuilt, f);
        // The control must be g or its complement (the articulation pair
        // may come out in either order).
        assert!(
            best.control == g || best.control == g.complement(),
            "control should be the XOR function"
        );
    }

    #[test]
    fn shannon_always_applies() {
        let mut m = Manager::new();
        let v = m.new_vars(3);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let f = m.or(ab, lits[2]).unwrap();
        let d = shannon(&mut m, f).unwrap().expect("non-constant");
        let rebuilt = m.ite(d.control, d.hi, d.lo).unwrap();
        assert_eq!(rebuilt, f);
        assert_eq!(d.control, lits[0], "top variable is the control");
        assert!(shannon(&mut m, Edge::ONE).unwrap().is_none());
    }

    /// Theorem 7 never mis-fires: every candidate reconstructs F.
    #[test]
    fn all_candidates_reconstruct() {
        let mut m = Manager::new();
        let v = m.new_vars(5);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let cd = m.xor(lits[2], lits[3]).unwrap();
        let acd = m.ite(ab, cd, lits[4]).unwrap();
        for (_, u, w) in mux_candidates(&m, acd) {
            let d = decompose_mux(&mut m, acd, u, w).unwrap();
            let rebuilt = m.ite(d.control, d.hi, d.lo).unwrap();
            assert_eq!(rebuilt, acd);
        }
    }
}
