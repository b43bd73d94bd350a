//! Generalized dominators and conjunctive/disjunctive **Boolean**
//! decomposition (paper §III-B, Lemmas 1–2, and §III-C cut filtering).
//!
//! For a horizontal cut through the BDD of `F`:
//!
//! * redirecting the cut's *free* (internal) edges to **1** yields a
//!   Boolean divisor `D ⊇ F`, and the quotient is any `Q` with
//!   `F ⊆ Q ⊆ F + D̄` — obtained here, as in the paper, by minimizing `F`
//!   with the offset of `D` as don't-care via the Coudert–Madre
//!   `restrict`, giving `F = D · Q`;
//! * redirecting them to **0** yields `G ⊆ F`, and a term `H` with
//!   `F̄ ⊆ H̄ ⊆ …` obtained by minimizing `F` with the onset of `G` as
//!   don't-care, giving `F = G + H`.
//!
//! Only *valid* cuts (containing at least one leaf edge) can produce
//! nontrivial decompositions; 0-equivalent (1-equivalent) cuts produce
//! identical divisors (terms) — Theorem 4 — which this implementation
//! exploits by deduplicating the resulting divisor BDDs (canonicity makes
//! the deduplication exact).

use bds_bdd::{Edge, FastSet, Manager};

use crate::lifted::{rebuild_above_cut, SizeMemo};

/// A conjunctive or disjunctive Boolean decomposition candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BooleanDecomp {
    /// `F = d · q` — `d` is the Boolean divisor, `q` the quotient.
    Conjunctive {
        /// The divisor `D ⊇ F`.
        divisor: Edge,
        /// The quotient `Q`.
        quotient: Edge,
    },
    /// `F = g + h`.
    Disjunctive {
        /// The term `G ⊆ F`.
        term: Edge,
        /// The remainder `H`.
        rest: Edge,
    },
}

impl BooleanDecomp {
    /// The two component functions.
    pub fn parts(&self) -> (Edge, Edge) {
        match *self {
            BooleanDecomp::Conjunctive { divisor, quotient } => (divisor, quotient),
            BooleanDecomp::Disjunctive { term, rest } => (term, rest),
        }
    }
}

/// The levels at which a horizontal cut can be placed for `f`: strictly
/// between the root level and the deepest level present.
pub fn candidate_cut_levels(mgr: &Manager, f: Edge) -> Vec<u32> {
    if f.is_const() {
        return Vec::new();
    }
    let support = mgr.support(f);
    let mut levels: Vec<u32> = support.iter().map(|&v| mgr.level_of(v)).collect();
    levels.sort_unstable();
    // A cut at level L separates levels < L from levels ≥ L; the root
    // level itself gives the trivial "everything is free" cut.
    levels.into_iter().skip(1).collect()
}

/// Builds the Boolean divisor of the horizontal cut at `level`
/// (generalized dominator with free edges → 1, Lemma 1).
/// Returns `None` for trivial results (no free edge, or `D == F`, or
/// `D` constant).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn conjunctive_divisor(
    mgr: &mut Manager,
    f: Edge,
    level: u32,
) -> bds_bdd::Result<Option<Edge>> {
    let mut free_edges = 0usize;
    let d = rebuild_above_cut(mgr, f, level, &mut |_| {
        free_edges += 1;
        Edge::ONE
    })?;
    if free_edges == 0 || d.is_const() || d == f {
        return Ok(None);
    }
    debug_assert!(
        mgr.ite_is(f, d, Edge::ONE, Edge::ONE),
        "divisor must cover F"
    );
    Ok(Some(d))
}

/// Builds the disjunctive Boolean term of the cut at `level`
/// (free edges → 0, Lemma 2). `None` for trivial results.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn disjunctive_term(mgr: &mut Manager, f: Edge, level: u32) -> bds_bdd::Result<Option<Edge>> {
    let mut free_edges = 0usize;
    let g = rebuild_above_cut(mgr, f, level, &mut |_| {
        free_edges += 1;
        Edge::ZERO
    })?;
    if free_edges == 0 || g.is_const() || g == f {
        return Ok(None);
    }
    debug_assert!(
        mgr.ite_is(g, f, Edge::ONE, Edge::ONE),
        "term must be covered by F"
    );
    Ok(Some(g))
}

/// Completes a conjunctive decomposition for a given divisor:
/// `Q = restrict(F, D)`, so that `F = D·Q` (Theorem 2 + Lemma 1).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn conjunctive_quotient(mgr: &mut Manager, f: Edge, divisor: Edge) -> bds_bdd::Result<Edge> {
    let q = mgr.restrict(f, divisor)?;
    debug_assert!(mgr.ite_is(divisor, q, Edge::ZERO, f), "F = D·Q identity");
    Ok(q)
}

/// Completes a disjunctive decomposition for a given term:
/// `H = restrict(F, Ḡ)`, so that `F = G + H` (Theorem 3 + Lemma 2).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn disjunctive_rest(mgr: &mut Manager, f: Edge, term: Edge) -> bds_bdd::Result<Edge> {
    let h = mgr.restrict(f, term.complement())?;
    debug_assert!(mgr.ite_is(term, Edge::ONE, h, f), "F = G+H identity");
    Ok(h)
}

/// Searches all valid horizontal cuts for the best conjunctive or
/// disjunctive Boolean decomposition of `f`, measured by the shared node
/// count of the two components. Returns `None` when nothing beats
/// `require_below` (callers pass `mgr.size(f)` to demand a strict win).
/// Component sizes are read through `sizes`.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn best_boolean_decomposition(
    mgr: &mut Manager,
    f: Edge,
    sizes: &mut SizeMemo,
    require_below: usize,
) -> bds_bdd::Result<Option<BooleanDecomp>> {
    let mut best: Option<(BooleanDecomp, usize)> = None;
    let mut seen_divisors: FastSet<Edge> = FastSet::default();
    let mut seen_terms: FastSet<Edge> = FastSet::default();
    for level in candidate_cut_levels(mgr, f) {
        if let Some(d) = conjunctive_divisor(mgr, f, level)? {
            // Theorem 4: 0-equivalent cuts give identical divisors —
            // canonicity lets us dedupe by edge identity.
            if seen_divisors.insert(d) {
                let q = conjunctive_quotient(mgr, f, d)?;
                if !q.is_const() {
                    let cost = mgr.count_nodes(&[d, q]);
                    let parts_ok =
                        sizes.size(mgr, d) < require_below && sizes.size(mgr, q) < require_below;
                    if parts_ok && best.as_ref().is_none_or(|&(_, c)| cost < c) {
                        best = Some((
                            BooleanDecomp::Conjunctive {
                                divisor: d,
                                quotient: q,
                            },
                            cost,
                        ));
                    }
                }
            }
        }
        if let Some(g) = disjunctive_term(mgr, f, level)? {
            if seen_terms.insert(g) {
                let h = disjunctive_rest(mgr, f, g)?;
                if !h.is_const() {
                    let cost = mgr.count_nodes(&[g, h]);
                    let parts_ok =
                        sizes.size(mgr, g) < require_below && sizes.size(mgr, h) < require_below;
                    if parts_ok && best.as_ref().is_none_or(|&(_, c)| cost < c) {
                        best = Some((BooleanDecomp::Disjunctive { term: g, rest: h }, cost));
                    }
                }
            }
        }
    }
    Ok(best.and_then(|(d, cost)| (cost < require_below).then_some(d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 3 / Example 2: F = e + b·d (order e, d, b) decomposes as
    /// D = e + d, Q = e + b.
    #[test]
    fn fig3_conjunctive() {
        let mut m = Manager::new();
        let e = m.new_var("e");
        let d = m.new_var("d");
        let b = m.new_var("b");
        let le = m.literal(e, true);
        let ld = m.literal(d, true);
        let lb = m.literal(b, true);
        let bd = m.and(lb, ld).unwrap();
        let f = m.or(le, bd).unwrap();
        // Cut between d (level 1) and b (level 2).
        let div = conjunctive_divisor(&mut m, f, 2)
            .unwrap()
            .expect("valid cut");
        let want_d = m.or(le, ld).unwrap();
        assert_eq!(div, want_d, "D = e + d (Lemma 1)");
        let q = conjunctive_quotient(&mut m, f, div).unwrap();
        let want_q = m.or(le, lb).unwrap();
        assert_eq!(q, want_q, "Q = e + b after restrict minimization");
        let prod = m.and(div, q).unwrap();
        assert_eq!(prod, f);
    }

    /// Fig. 5: F = āb + b̄c decomposes disjunctively with G = āb.
    #[test]
    fn fig5_disjunctive() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let la = m.literal(a, false);
        let lb = m.literal(b, true);
        let lnb = m.literal(b, false);
        let lc = m.literal(c, true);
        let ab = m.and(la, lb).unwrap();
        let bc = m.and(lnb, lc).unwrap();
        let f = m.or(ab, bc).unwrap();
        // Cut above c's level.
        let g = disjunctive_term(&mut m, f, 2).unwrap().expect("valid cut");
        assert_eq!(g, ab, "G = āb (Lemma 2)");
        let h = disjunctive_rest(&mut m, f, g).unwrap();
        let rebuilt = m.or(g, h).unwrap();
        assert_eq!(rebuilt, f);
        // The paper's minimized H = b̄ + c … any H with b̄c ⊆ H ⊆ F+āb
        // is legal; check the containment.
        assert!(m.leq(bc, h).unwrap());
        let upper = m.or(f, ab).unwrap();
        assert!(m.leq(h, upper).unwrap());
    }

    /// Fig. 4: the 8-literal decomposition
    /// F = (āf + b + c)(āg + d + e) must be reconstructible from a cut.
    #[test]
    fn fig4_eight_literals() {
        let mut m = Manager::new();
        // Order: a, f, b, c, g, d, e (a on top).
        let a = m.new_var("a");
        let fv = m.new_var("f");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let g = m.new_var("g");
        let d = m.new_var("d");
        let e = m.new_var("e");
        let la = m.literal(a, false);
        let (lf, lb, lc) = (m.literal(fv, true), m.literal(b, true), m.literal(c, true));
        let (lg, ld, le) = (m.literal(g, true), m.literal(d, true), m.literal(e, true));
        let af = m.and(la, lf).unwrap();
        let t1 = m.or(af, lb).unwrap();
        let d1 = m.or(t1, lc).unwrap();
        let ag = m.and(la, lg).unwrap();
        let t2 = m.or(ag, ld).unwrap();
        let d2 = m.or(t2, le).unwrap();
        let f = m.and(d1, d2).unwrap();
        let fsize = m.size(f);
        let best = best_boolean_decomposition(&mut m, f, &mut SizeMemo::default(), fsize).unwrap();
        let Some(BooleanDecomp::Conjunctive { divisor, quotient }) = best else {
            panic!("expected a conjunctive decomposition, got {best:?}");
        };
        let prod = m.and(divisor, quotient).unwrap();
        assert_eq!(prod, f);
        // Both factors must be one of the two OR-terms (up to restrict's
        // choices the divisor is d1: the cut above g's level keeps d1).
        assert!(
            divisor == d1 || divisor == d2,
            "divisor should be one of the paper's factors"
        );
    }

    #[test]
    fn trivial_cuts_are_rejected() {
        let mut m = Manager::new();
        let v = m.new_vars(2);
        let la = m.literal(v[0], true);
        let lb = m.literal(v[1], true);
        let f = m.and(la, lb).unwrap();
        // Cut at level 1: the else-edge of a is a leaf edge to 0, the
        // then-edge crosses to b (free). Divisor = ite(a,1,0) = a — fine;
        // but for the single-level function the quotient b is accepted,
        // so the only rejected case is the cut above the root (skipped).
        let levels = candidate_cut_levels(&m, f);
        assert_eq!(levels, vec![1]);
    }

    /// Theorem 4 sanity: cuts that share their Σ₀ set produce the same
    /// divisor BDD (deduped by canonicity).
    #[test]
    fn equivalent_cuts_dedupe() {
        let mut m = Manager::new();
        let v = m.new_vars(4);
        let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
        // F = a·(b + c·d): cuts between c and d and between b and c share
        // their leaf-edge sets in the upper region in interesting ways.
        let cd = m.and(lits[2], lits[3]).unwrap();
        let bcd = m.or(lits[1], cd).unwrap();
        let f = m.and(lits[0], bcd).unwrap();
        let mut divisors = std::collections::BTreeSet::new();
        for level in candidate_cut_levels(&m, f) {
            if let Some(d) = conjunctive_divisor(&mut m, f, level).unwrap() {
                divisors.insert(d);
            }
        }
        // All divisors are distinct canonical BDDs (dedup by identity);
        // and every one of them covers F.
        for &d in &divisors {
            assert!(m.leq(f, d).unwrap());
        }
    }
}
