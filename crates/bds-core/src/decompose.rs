//! The iterative BDD decomposition engine (paper §IV-C).
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

use bds_bdd::{Edge, Manager};

use crate::dominators::{
    decompose_at_one_dominator, decompose_at_x_dominator, decompose_at_zero_dominator,
    one_dominators, x_dominators, zero_dominators, SimpleDecomp,
};
use crate::factor_tree::{FactorForest, FactorNode, FactorRef};
use crate::gendom::{best_boolean_decomposition, BooleanDecomp};
use crate::lifted::PathInfo;
use crate::mux::{best_mux_decomposition, shannon};
use crate::xor_decomp::best_xnor_decomposition;

/// A decomposition strategy, for priority ordering and ablations.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum Method {
    /// 1-, 0- and x-dominators (algebraic).
    SimpleDominators,
    /// Functional MUX (Theorem 7).
    FunctionalMux,
    /// Generalized dominator (Boolean AND/OR, Lemmas 1–2).
    GeneralizedDominator,
    /// Generalized x-dominator (Boolean XNOR, Theorem 6).
    GeneralizedXDominator,
}

/// Tuning knobs for [`Decomposer::decompose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecomposeParams {
    /// Functions whose support does not exceed this are emitted as
    /// two-level leaves (2 ⇒ gate-level granularity).
    pub leaf_support: usize,
    /// Method priority; the paper's empirical order by default.
    pub priority: Vec<Method>,
    /// Skip the cut/candidate searches for BDDs larger than this and go
    /// straight to Shannon (they should have been bounded by `eliminate`).
    pub max_search_size: usize,
    /// Pick the dominator closest to the middle of the chain instead of
    /// the deepest (the paper's future-work item 3 on tree balancing).
    pub balance_dominators: bool,
    /// After decomposing a function with support up to this size, compare
    /// the factoring tree against a flat two-level (ISOP) leaf and keep
    /// whichever has fewer literals — BDS nodes are ultimately emitted as
    /// SOP covers, so a cheaper flat form should win locally.
    pub flat_compare_support: usize,
}

impl Default for DecomposeParams {
    fn default() -> Self {
        DecomposeParams {
            leaf_support: 2,
            priority: vec![
                Method::SimpleDominators,
                Method::FunctionalMux,
                Method::GeneralizedDominator,
                Method::GeneralizedXDominator,
            ],
            max_search_size: 5_000,
            balance_dominators: true,
            flat_compare_support: 8,
        }
    }
}

/// Counts of applied decompositions, for reporting and ablation studies.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DecomposeStats {
    /// Algebraic AND (1-dominator) steps.
    pub and_dom: usize,
    /// Algebraic OR (0-dominator) steps.
    pub or_dom: usize,
    /// Algebraic XNOR (x-dominator) steps.
    pub xnor_dom: usize,
    /// Functional MUX steps.
    pub func_mux: usize,
    /// Boolean AND/OR (generalized dominator) steps.
    pub gen_dom: usize,
    /// Boolean XNOR (generalized x-dominator) steps.
    pub gen_xdom: usize,
    /// Shannon fallback steps.
    pub shannon: usize,
    /// Two-level leaves emitted.
    pub leaves: usize,
    /// Cache hits (sharing extracted).
    pub shared: usize,
}

impl DecomposeStats {
    /// Adds `other`'s counts into `self` — used by the partitioned flow
    /// to aggregate the per-supernode decomposer statistics.
    pub fn merge(&mut self, other: DecomposeStats) {
        self.and_dom += other.and_dom;
        self.or_dom += other.or_dom;
        self.xnor_dom += other.xnor_dom;
        self.func_mux += other.func_mux;
        self.gen_dom += other.gen_dom;
        self.gen_xdom += other.gen_xdom;
        self.shannon += other.shannon;
        self.leaves += other.leaves;
        self.shared += other.shared;
    }

    /// Total decomposition steps of any kind (excluding leaves and cache
    /// hits): how many times a recursion actually split a function.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.and_dom
            + self.or_dom
            + self.xnor_dom
            + self.func_mux
            + self.gen_dom
            + self.gen_xdom
            + self.shannon
    }
}

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
    ) -> bds_bdd::Result<FactorRef> {
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
    ) -> bds_bdd::Result<FactorRef> {
        debug_assert!(!f.is_complemented());
        if f.is_one() {
            return Ok(forest.push(FactorNode::One));
        }
        if let Some((var, t, e)) = mgr.node(f) {
            if t.is_one() && e.is_zero() {
                return Ok(forest.push(FactorNode::Literal(var)));
            }
        }
        let support = mgr.support(f);
        if support.len() <= params.leaf_support {
            let (cubes, cover) = mgr.isop(f, f)?;
            debug_assert_eq!(cover, f);
            self.stats.leaves += 1;
            return Ok(forest.push(FactorNode::Leaf(cubes)));
        }

        let size = mgr.size(f);
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
            let flat: usize = cubes.iter().map(bds_bdd::Cube::len).sum();
            if flat < forest.literal_count(r) {
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
    ) -> bds_bdd::Result<Option<FactorRef>> {
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
        !g.is_const() && !h.is_const() && mgr.size(g) < size && mgr.size(h) < size
    }
}

impl Decomposer {
    fn emit_simple(
        &mut self,
        mgr: &mut Manager,
        forest: &mut FactorForest,
        params: &DecomposeParams,
        dec: SimpleDecomp,
    ) -> bds_bdd::Result<FactorRef> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_sums_every_field() {
        let mut a = DecomposeStats {
            and_dom: 1,
            or_dom: 2,
            xnor_dom: 3,
            func_mux: 4,
            gen_dom: 5,
            gen_xdom: 6,
            shannon: 7,
            leaves: 8,
            shared: 9,
        };
        let b = DecomposeStats {
            and_dom: 10,
            or_dom: 20,
            xnor_dom: 30,
            func_mux: 40,
            gen_dom: 50,
            gen_xdom: 60,
            shannon: 70,
            leaves: 80,
            shared: 90,
        };
        a.merge(b);
        assert_eq!(
            a,
            DecomposeStats {
                and_dom: 11,
                or_dom: 22,
                xnor_dom: 33,
                func_mux: 44,
                gen_dom: 55,
                gen_xdom: 66,
                shannon: 77,
                leaves: 88,
                shared: 99,
            }
        );
        assert_eq!(a.steps(), 11 + 22 + 33 + 44 + 55 + 66 + 77);
        // Merging the identity changes nothing.
        let before = a;
        a.merge(DecomposeStats::default());
        assert_eq!(a, before);
    }

    fn check_equiv(mgr: &Manager, f: Edge, forest: &FactorForest, root: FactorRef, nvars: usize) {
        for bits in 0..1u32 << nvars {
            let assign: Vec<bool> = (0..nvars).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                mgr.eval(f, &assign),
                forest.eval(root, &assign),
                "mismatch at {assign:?}"
            );
        }
    }

    #[test]
    fn decompose_random_functions_is_sound() {
        // Deterministic pseudo-random truth tables over 5 vars.
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            // Random function: XOR/AND/OR mix of random literals.
            let mut f = lits[(rnd() % 5) as usize];
            for _ in 0..6 {
                let l = lits[(rnd() % 5) as usize].complement_if(rnd() & 1 == 1);
                f = match rnd() % 3 {
                    0 => m.and(f, l).unwrap(),
                    1 => m.or(f, l).unwrap(),
                    _ => m.xor(f, l).unwrap(),
                };
            }
            let mut forest = FactorForest::new();
            let mut dec = Decomposer::new();
            let root = dec
                .decompose(&mut m, f, &mut forest, &DecomposeParams::default())
                .unwrap();
            check_equiv(&m, f, &forest, root, 5);
        }
    }

    #[test]
    fn xor_chain_uses_xnor_nodes() {
        let mut m = Manager::new();
        let vars = m.new_vars(6);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let mut f = lits[0];
        for &l in &lits[1..] {
            f = m.xor(f, l).unwrap();
        }
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let root = dec
            .decompose(&mut m, f, &mut forest, &DecomposeParams::default())
            .unwrap();
        check_equiv(&m, f, &forest, root, 6);
        assert!(
            dec.stats.xnor_dom + dec.stats.gen_xdom + dec.stats.leaves > 0,
            "an XOR chain must be recognized via XNOR structure: {:?}",
            dec.stats
        );
        assert_eq!(
            dec.stats.shannon, 0,
            "no Shannon fallback needed for a parity chain"
        );
    }

    #[test]
    fn and_or_functions_stay_algebraic() {
        let mut m = Manager::new();
        let vars = m.new_vars(6);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        // F = (a+b)(c+d)(e+f): pure conjunctive structure.
        let ab = m.or(lits[0], lits[1]).unwrap();
        let cd = m.or(lits[2], lits[3]).unwrap();
        let ef = m.or(lits[4], lits[5]).unwrap();
        let t = m.and(ab, cd).unwrap();
        let f = m.and(t, ef).unwrap();
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let root = dec
            .decompose(&mut m, f, &mut forest, &DecomposeParams::default())
            .unwrap();
        check_equiv(&m, f, &forest, root, 6);
        assert!(
            dec.stats.and_dom >= 1,
            "1-dominators must fire: {:?}",
            dec.stats
        );
        assert_eq!(dec.stats.shannon, 0);
    }

    #[test]
    fn sharing_between_two_roots() {
        // g appears inside both f1 and f2; the cache must share it.
        let mut m = Manager::new();
        let vars = m.new_vars(5);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let g = m.xor(lits[2], lits[3]).unwrap();
        let gc = m.and(g, lits[4]).unwrap();
        let f1 = m.and(lits[0], gc).unwrap();
        let f2 = m.and(lits[1], gc).unwrap();
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let p = DecomposeParams::default();
        let r1 = dec.decompose(&mut m, f1, &mut forest, &p).unwrap();
        let r2 = dec.decompose(&mut m, f2, &mut forest, &p).unwrap();
        check_equiv(&m, f1, &forest, r1, 5);
        check_equiv(&m, f2, &forest, r2, 5);
        assert!(
            dec.stats.shared > 0,
            "the common gc sub-function must be shared"
        );
    }

    #[test]
    fn constants_and_literals() {
        let mut m = Manager::new();
        let v = m.new_var("a");
        let la = m.literal(v, true);
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let p = DecomposeParams::default();
        let r1 = dec.decompose(&mut m, Edge::ONE, &mut forest, &p).unwrap();
        assert!(forest.eval(r1, &[false]));
        let r0 = dec.decompose(&mut m, Edge::ZERO, &mut forest, &p).unwrap();
        assert!(!forest.eval(r0, &[false]));
        let rl = dec
            .decompose(&mut m, la.complement(), &mut forest, &p)
            .unwrap();
        assert!(forest.eval(rl, &[false]));
        assert!(!forest.eval(rl, &[true]));
    }
}
