//! The iterative BDD decomposition engine (paper §IV-C): the frozen
//! `Decomposer`.
//!
//! "The BDD dominators … are empirically ordered in terms of the
//! resulting decomposition efficiency as follows: 1) simple dominators
//! (1-, 0- and x-dominator); 2) functional MUX; 3) generalized dominator;
//! and 4) generalized x-dominator. If all searches fail, the BDD is
//! decomposed using a simple cofactor (simple MUX) w.r.t. a top variable
//! … kept to ensure that the BDD will still be decomposed when all other
//! attempts fail."
//!
//! Every accepted decomposition requires all components to be strictly
//! smaller (in shared BDD nodes) than the function being decomposed, so
//! the recursion is well-founded; the Shannon fallback always removes the
//! top variable. Results are cached per canonical (regular) edge, which
//! is precisely the paper's sharing extraction: two sub-functions that
//! are equal — or complementary — share one factoring subtree.

use std::collections::HashMap;

use bds_repro::bdd::{Edge, Manager};

use super::dominators::{
    decompose_at_one_dominator, decompose_at_x_dominator, decompose_at_zero_dominator,
    one_dominators, x_dominators, zero_dominators, SimpleDecomp,
};
use super::gendom::{best_boolean_decomposition, BooleanDecomp};
use super::lifted::PathInfo;
use super::mux::{best_mux_decomposition, shannon};
use super::xor_decomp::best_xnor_decomposition;
use super::{bdd_size, literal_count, support};
use bds_repro::core::decompose::{DecomposeParams, DecomposeStats, Method};
use bds_repro::core::factor_tree::{FactorForest, FactorNode, FactorRef};

/// Decomposition context reusable across several roots in one manager —
/// sharing the cache across roots is what extracts common logic between
/// outputs (paper Fig. 14).
#[derive(Debug, Default)]
pub struct Decomposer {
    cache: HashMap<Edge, FactorRef>,
    /// Leaves for complemented references (`Leaf` nodes cannot carry a
    /// free complement into a consumer-visible SOP, so the complement of
    /// a leaf gets its own ISOP leaf).
    neg_leaf: HashMap<Edge, FactorRef>,
    /// Statistics accumulated over all decompose calls.
    pub stats: DecomposeStats,
}

impl Decomposer {
    /// Creates an empty decomposer.
    pub fn new() -> Self {
        Decomposer::default()
    }

    /// Decomposes `f` into `forest`, returning the root reference.
    ///
    /// # Errors
    /// Node-limit errors from the manager (never occurs with an
    /// unlimited manager).
    pub fn decompose(
        &mut self,
        mgr: &mut Manager,
        f: Edge,
        forest: &mut FactorForest,
        params: &DecomposeParams,
    ) -> bds_repro::bdd::Result<FactorRef> {
        // Work on the regular edge; complement the reference on the way
        // out (factoring-tree refs carry complement bits too).
        let reg = f.regular();
        let r = if let Some(&r) = self.cache.get(&reg) {
            self.stats.shared += 1;
            r
        } else {
            let r = self.decompose_uncached(mgr, reg, forest, params)?;
            self.cache.insert(reg, r);
            r
        };
        // A complemented reference to a Leaf would force an inverter at
        // every root use (e.g. XOR leaves whose canonical edge is the
        // XNOR): materialize the complement as its own ISOP leaf instead.
        if f.is_complemented() && matches!(forest.node(r), FactorNode::Leaf(_)) {
            if let Some(&n) = self.neg_leaf.get(&reg) {
                return Ok(n);
            }
            let (cubes, cover) = mgr.isop(f, f)?;
            debug_assert_eq!(cover, f);
            let n = forest.push(FactorNode::Leaf(cubes));
            self.neg_leaf.insert(reg, n);
            return Ok(n);
        }
        Ok(r.complement_if(f.is_complemented()))
    }

    fn decompose_uncached(
        &mut self,
        mgr: &mut Manager,
        f: Edge,
        forest: &mut FactorForest,
        params: &DecomposeParams,
    ) -> bds_repro::bdd::Result<FactorRef> {
        debug_assert!(!f.is_complemented());
        if f.is_one() {
            return Ok(forest.push(FactorNode::One));
        }
        if let Some((var, t, e)) = mgr.node(f) {
            if t.is_one() && e.is_zero() {
                return Ok(forest.push(FactorNode::Literal(var)));
            }
        }
        let support = support(mgr, f);
        if support.len() <= params.leaf_support {
            let (cubes, cover) = mgr.isop(f, f)?;
            debug_assert_eq!(cover, f);
            self.stats.leaves += 1;
            return Ok(forest.push(FactorNode::Leaf(cubes)));
        }

        let size = bdd_size(mgr, f);
        let mut result: Option<FactorRef> = None;
        if size <= params.max_search_size {
            let info = PathInfo::compute(mgr, f);
            for &method in &params.priority.clone() {
                if let Some(r) = self.try_method(mgr, f, forest, params, method, &info, size)? {
                    result = Some(r);
                    break;
                }
            }
        }
        let r = match result {
            Some(r) => r,
            None => {
                // Fallback: Shannon cofactor on the top variable.
                #[expect(clippy::expect_used, reason = "decompose() rejects constants on entry")]
                let d = shannon(mgr, f)?.expect("non-constant function");
                self.stats.shannon += 1;
                let hi = self.decompose(mgr, d.hi, forest, params)?;
                let lo = self.decompose(mgr, d.lo, forest, params)?;
                let sel = self.decompose(mgr, d.control, forest, params)?;
                self.push_mux(forest, sel, hi, lo)
            }
        };
        // Two-level comparison: a small function whose factoring tree
        // ended up with more literals than its flat irredundant SOP is
        // emitted flat instead.
        if support.len() <= params.flat_compare_support {
            let (cubes, cover) = mgr.isop(f, f)?;
            debug_assert_eq!(cover, f);
            let flat: usize = cubes.iter().map(bds_repro::bdd::Cube::len).sum();
            if flat < literal_count(forest, r) {
                self.stats.leaves += 1;
                return Ok(forest.push(FactorNode::Leaf(cubes)));
            }
        }
        Ok(r)
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one decomposition attempt needs the manager, the function and its whole search context"
    )]
    fn try_method(
        &mut self,
        mgr: &mut Manager,
        f: Edge,
        forest: &mut FactorForest,
        params: &DecomposeParams,
        method: Method,
        info: &PathInfo,
        size: usize,
    ) -> bds_repro::bdd::Result<Option<FactorRef>> {
        match method {
            Method::SimpleDominators => {
                let pick = |doms: &[Edge]| -> Option<Edge> {
                    if doms.is_empty() {
                        None
                    } else if params.balance_dominators {
                        Some(doms[doms.len() / 2])
                    } else {
                        Some(doms[0])
                    }
                };
                let doms = one_dominators(mgr, f, info);
                if let Some(d) = pick(&doms) {
                    let dec = decompose_at_one_dominator(mgr, f, d)?;
                    if self.parts_shrink(mgr, &dec, size) {
                        self.stats.and_dom += 1;
                        return self.emit_simple(mgr, forest, params, dec).map(Some);
                    }
                }
                let doms = zero_dominators(mgr, f, info);
                if let Some(d) = pick(&doms) {
                    let dec = decompose_at_zero_dominator(mgr, f, d)?;
                    if self.parts_shrink(mgr, &dec, size) {
                        self.stats.or_dom += 1;
                        return self.emit_simple(mgr, forest, params, dec).map(Some);
                    }
                }
                let doms = x_dominators(mgr, f, info);
                if let Some(d) = pick(&doms) {
                    let dec = decompose_at_x_dominator(mgr, f, d)?;
                    if self.parts_shrink(mgr, &dec, size) {
                        self.stats.xnor_dom += 1;
                        return self.emit_simple(mgr, forest, params, dec).map(Some);
                    }
                }
                Ok(None)
            }
            Method::FunctionalMux => match best_mux_decomposition(mgr, f, info, size)? {
                Some(d) => {
                    self.stats.func_mux += 1;
                    let sel = self.decompose(mgr, d.control, forest, params)?;
                    let hi = self.decompose(mgr, d.hi, forest, params)?;
                    let lo = self.decompose(mgr, d.lo, forest, params)?;
                    Ok(Some(self.push_mux(forest, sel, hi, lo)))
                }
                None => Ok(None),
            },
            Method::GeneralizedDominator => match best_boolean_decomposition(mgr, f, size)? {
                Some(BooleanDecomp::Conjunctive { divisor, quotient }) => {
                    self.stats.gen_dom += 1;
                    let a = self.decompose(mgr, divisor, forest, params)?;
                    let b = self.decompose(mgr, quotient, forest, params)?;
                    Ok(Some(forest.push(FactorNode::And(a, b))))
                }
                Some(BooleanDecomp::Disjunctive { term, rest }) => {
                    self.stats.gen_dom += 1;
                    let a = self.decompose(mgr, term, forest, params)?;
                    let b = self.decompose(mgr, rest, forest, params)?;
                    Ok(Some(forest.push(FactorNode::Or(a, b))))
                }
                None => Ok(None),
            },
            Method::GeneralizedXDominator => match best_xnor_decomposition(mgr, f, size)? {
                Some(d) => {
                    self.stats.gen_xdom += 1;
                    let a = self.decompose(mgr, d.g, forest, params)?;
                    let b = self.decompose(mgr, d.h, forest, params)?;
                    Ok(Some(forest.push(FactorNode::Xnor(a, b))))
                }
                None => Ok(None),
            },
        }
    }

    fn parts_shrink(&self, mgr: &Manager, dec: &SimpleDecomp, size: usize) -> bool {
        let (g, h) = dec.parts();
        !g.is_const() && !h.is_const() && bdd_size(mgr, g) < size && bdd_size(mgr, h) < size
    }
}

impl Decomposer {
    fn emit_simple(
        &mut self,
        mgr: &mut Manager,
        forest: &mut FactorForest,
        params: &DecomposeParams,
        dec: SimpleDecomp,
    ) -> bds_repro::bdd::Result<FactorRef> {
        let (g, h) = dec.parts();
        let a = self.decompose(mgr, g, forest, params)?;
        let b = self.decompose(mgr, h, forest, params)?;
        Ok(match dec {
            SimpleDecomp::And(..) => forest.push(FactorNode::And(a, b)),
            SimpleDecomp::Or(..) => forest.push(FactorNode::Or(a, b)),
            SimpleDecomp::Xnor(..) => forest.push(FactorNode::Xnor(a, b)),
        })
    }

    fn push_mux(
        &mut self,
        forest: &mut FactorForest,
        sel: FactorRef,
        hi: FactorRef,
        lo: FactorRef,
    ) -> FactorRef {
        // Degenerate MUX shapes collapse to cheaper gates.
        let one = |f: &FactorForest, r: FactorRef| {
            matches!(f.node(r), FactorNode::One) && !r.is_complemented()
        };
        let zero = |f: &FactorForest, r: FactorRef| {
            matches!(f.node(r), FactorNode::One) && r.is_complemented()
        };
        if one(forest, hi) && zero(forest, lo) {
            return sel;
        }
        if zero(forest, hi) && one(forest, lo) {
            return sel.complement();
        }
        if one(forest, hi) {
            return forest.push(FactorNode::Or(sel, lo));
        }
        if zero(forest, hi) {
            return forest.push(FactorNode::And(sel.complement(), lo));
        }
        if one(forest, lo) {
            return forest.push(FactorNode::Or(sel.complement(), hi));
        }
        if zero(forest, lo) {
            return forest.push(FactorNode::And(sel, hi));
        }
        if hi == lo.complement() {
            return forest.push(FactorNode::Xnor(sel, lo)).complement();
        }
        forest.push(FactorNode::Mux { sel, hi, lo })
    }
}
