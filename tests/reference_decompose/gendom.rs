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

use std::collections::HashSet;

use bds_repro::bdd::{Edge, Manager};

use super::lifted::rebuild_above_cut;
use super::{bdd_size, count_nodes, support};

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

/// The levels at which a horizontal cut can be placed for `f`: strictly
/// between the root level and the deepest level present.
pub fn candidate_cut_levels(mgr: &Manager, f: Edge) -> Vec<u32> {
    if f.is_const() {
        return Vec::new();
    }
    let support = support(mgr, f);
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
) -> bds_repro::bdd::Result<Option<Edge>> {
    let mut free_edges = 0usize;
    let d = rebuild_above_cut(mgr, f, level, &mut |_| {
        free_edges += 1;
        Edge::ONE
    })?;
    if free_edges == 0 || d.is_const() || d == f {
        return Ok(None);
    }
    debug_assert_identity!(mgr.leq(f, d), true, "divisor must cover F");
    Ok(Some(d))
}

/// Builds the disjunctive Boolean term of the cut at `level`
/// (free edges → 0, Lemma 2). `None` for trivial results.
///
/// # Errors
/// Node-limit errors from the manager.
pub fn disjunctive_term(
    mgr: &mut Manager,
    f: Edge,
    level: u32,
) -> bds_repro::bdd::Result<Option<Edge>> {
    let mut free_edges = 0usize;
    let g = rebuild_above_cut(mgr, f, level, &mut |_| {
        free_edges += 1;
        Edge::ZERO
    })?;
    if free_edges == 0 || g.is_const() || g == f {
        return Ok(None);
    }
    debug_assert_identity!(mgr.leq(g, f), true, "term must be covered by F");
    Ok(Some(g))
}

/// Completes a conjunctive decomposition for a given divisor:
/// `Q = restrict(F, D)`, so that `F = D·Q` (Theorem 2 + Lemma 1).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn conjunctive_quotient(
    mgr: &mut Manager,
    f: Edge,
    divisor: Edge,
) -> bds_repro::bdd::Result<Edge> {
    let q = mgr.restrict(f, divisor)?;
    debug_assert_identity!(mgr.and(divisor, q), f, "F = D·Q identity");
    Ok(q)
}

/// Completes a disjunctive decomposition for a given term:
/// `H = restrict(F, Ḡ)`, so that `F = G + H` (Theorem 3 + Lemma 2).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn disjunctive_rest(mgr: &mut Manager, f: Edge, term: Edge) -> bds_repro::bdd::Result<Edge> {
    let h = mgr.restrict(f, term.complement())?;
    debug_assert_identity!(mgr.or(term, h), f, "F = G+H identity");
    Ok(h)
}

/// Searches all valid horizontal cuts for the best conjunctive or
/// disjunctive Boolean decomposition of `f`, measured by the shared node
/// count of the two components. Returns `None` when nothing beats
/// `require_below` (callers pass `mgr.size(f)` to demand a strict win).
///
/// # Errors
/// Node-limit errors from the manager.
pub fn best_boolean_decomposition(
    mgr: &mut Manager,
    f: Edge,
    require_below: usize,
) -> bds_repro::bdd::Result<Option<BooleanDecomp>> {
    let mut best: Option<(BooleanDecomp, usize)> = None;
    let mut seen_divisors: HashSet<Edge> = HashSet::new();
    let mut seen_terms: HashSet<Edge> = HashSet::new();
    for level in candidate_cut_levels(mgr, f) {
        if let Some(d) = conjunctive_divisor(mgr, f, level)? {
            // Theorem 4: 0-equivalent cuts give identical divisors —
            // canonicity lets us dedupe by edge identity.
            if seen_divisors.insert(d) {
                let q = conjunctive_quotient(mgr, f, d)?;
                if !q.is_const() {
                    let cost = count_nodes(mgr, &[d, q]);
                    let parts_ok =
                        bdd_size(mgr, d) < require_below && bdd_size(mgr, q) < require_below;
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
                    let cost = count_nodes(mgr, &[g, h]);
                    let parts_ok =
                        bdd_size(mgr, g) < require_below && bdd_size(mgr, h) < require_below;
                    if parts_ok && best.as_ref().is_none_or(|&(_, c)| cost < c) {
                        best = Some((BooleanDecomp::Disjunctive { term: g, rest: h }, cost));
                    }
                }
            }
        }
    }
    Ok(best.and_then(|(d, cost)| (cost < require_below).then_some(d)))
}
