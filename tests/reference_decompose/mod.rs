//! The decomposition engine as it was before its per-function analyses
//! were made hash-free, kept as the reference for the differential test
//! in `tests/decompose_differential.rs`.
//!
//! `lifted`, `dominators`, `mux`, `gendom`, `xor_decomp` and the
//! `Decomposer` of `decompose` are the old modules verbatim, without
//! their unit tests and one unused method, and with the parameter and
//! statistics types taken
//! from the library, so that the two engines are driven and compared
//! through the same types. The structural queries they made on the
//! manager (`size`, `count_nodes`, `support`) and the factoring forest
//! (`literal_count`) are the old hash-set and whole-forest walks,
//! re-expressed below over the public API, so the reference shares only
//! the BDD operations (ITE, restrict, ISOP) with the library.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_decompose;`, so library code cannot reach it.

use std::collections::HashSet;

use bds_repro::bdd::{Cube, Edge, Manager, Var};
use bds_repro::core::factor_tree::{FactorForest, FactorNode, FactorRef};

/// The library's `debug_assert_identity!`: in debug builds, runs the
/// BDD operation `$check` (spending effort like any other) and asserts
/// that it yields `$want`, returning its error if it fails.
macro_rules! debug_assert_identity {
    ($check:expr, $want:expr, $msg:literal) => {
        if cfg!(debug_assertions) {
            let got = $check?;
            debug_assert_eq!(got, $want, $msg);
        }
    };
}

pub mod decompose;
pub mod dominators;
pub mod gendom;
pub mod lifted;
pub mod mux;
pub mod xor_decomp;

/// Distinct nodes, terminal included, reachable from `roots`.
pub fn count_nodes(mgr: &Manager, roots: &[Edge]) -> usize {
    let mut seen: HashSet<Edge> = HashSet::new();
    let mut stack: Vec<Edge> = roots.iter().map(|e| e.regular()).collect();
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        if let Some((_, high, low)) = mgr.node_raw(e) {
            stack.push(high.regular());
            stack.push(low.regular());
        }
    }
    seen.len()
}

/// `count_nodes(mgr, &[e])`.
pub fn bdd_size(mgr: &Manager, e: Edge) -> usize {
    count_nodes(mgr, &[e])
}

/// The variables `e` depends on, topmost first.
pub fn support(mgr: &Manager, e: Edge) -> Vec<Var> {
    let mut vars: HashSet<Var> = HashSet::new();
    let mut seen: HashSet<Edge> = HashSet::new();
    let mut stack = vec![e.regular()];
    while let Some(e) = stack.pop() {
        if !seen.insert(e) {
            continue;
        }
        if let Some((var, high, low)) = mgr.node_raw(e) {
            vars.insert(var);
            stack.push(high.regular());
            stack.push(low.regular());
        }
    }
    let mut vars: Vec<Var> = vars.into_iter().collect();
    vars.sort_by_key(|&v| mgr.level_of(v));
    vars
}

/// Literal leaves reachable from `root`, shared sub-trees once, with a
/// visited flag for every node of the forest.
pub fn literal_count(forest: &FactorForest, root: FactorRef) -> usize {
    let mut seen = vec![false; forest.len()];
    let mut stack = vec![root];
    let mut count = 0;
    while let Some(r) = stack.pop() {
        if std::mem::replace(&mut seen[r.id()], true) {
            continue;
        }
        match forest.node(r) {
            FactorNode::One => {}
            FactorNode::Literal(_) => count += 1,
            FactorNode::Leaf(cubes) => count += cubes.iter().map(Cube::len).sum::<usize>(),
            FactorNode::And(a, b) | FactorNode::Or(a, b) | FactorNode::Xnor(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            FactorNode::Mux { sel, hi, lo } => {
                stack.push(*sel);
                stack.push(*hi);
                stack.push(*lo);
            }
        }
    }
    count
}
