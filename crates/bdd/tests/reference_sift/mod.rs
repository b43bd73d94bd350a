//! The rebuild-based sifting loop `reorder::sift` ran before candidate
//! positions were sized on the swap table, kept as the reference for the
//! differential test in `tests/sift_differential.rs`.
//!
//! The loop is the old one verbatim except that trace macros are gone
//! and a [`Tally`] records what the harness needs to know about its
//! coverage. Every candidate position is scored by a full rebuild into
//! a fresh manager through the public `reorder`, so this module shares
//! only that one function with the code under test.
//!
//! It lives in the test tree and is compiled only into the tests that
//! declare `mod reference_sift;`, so library code cannot reach it.

use std::collections::HashSet;

use bds_bdd::reorder::{reorder, SiftLimits};
use bds_bdd::transfer::transfer_all;
use bds_bdd::{Edge, Manager, Result, Var};

/// Coverage counts accumulated over reference runs.
#[derive(Default, Debug)]
pub struct Tally {
    /// Candidate rebuilds that failed (node limit).
    pub failed_rebuilds: u64,
    /// Failed rebuilds whose order gives a graph larger than the node
    /// limit: positions the swap table cannot reach under the limit.
    pub over_limit: u64,
    /// Accepted moves.
    pub accepted: u64,
}

/// Greedy rebuild-based sifting (the old `reorder::sift`).
pub fn sift(
    src: &Manager,
    roots: &[Edge],
    limits: SiftLimits,
    tally: &mut Tally,
) -> Result<(Manager, Vec<Edge>)> {
    let base_order = src.order();
    let start_size = src.count_nodes(roots);
    if start_size > limits.max_nodes || src.var_count() <= 2 {
        return reorder(src, roots, &base_order);
    }

    // Current best.
    let (mut best_mgr, mut best_roots) = reorder(src, roots, &base_order)?;
    let mut best_size = best_mgr.count_nodes(&best_roots);

    for _pass in 0..limits.passes {
        let improved_before_pass = best_size;
        // Sift the support variables, most populous level first.
        let support = best_mgr.support_of(&best_roots);
        let mut candidates: Vec<Var> = support;
        candidates.sort_by_key(|&v| std::cmp::Reverse(level_population(&best_mgr, &best_roots, v)));
        candidates.truncate(limits.max_vars);

        for var in candidates {
            let cur_order = best_mgr.order();
            let cur_pos = cur_order
                .iter()
                .position(|&v| v == var)
                .expect("var in order");
            for pos in 0..cur_order.len() {
                if pos == cur_pos {
                    continue;
                }
                let mut order = cur_order.clone();
                let v = order.remove(cur_pos);
                order.insert(pos, v);
                match reorder(&best_mgr, &best_roots, &order) {
                    Ok((m, r)) => {
                        let size = m.count_nodes(&r);
                        let accepted = size < best_size;
                        if accepted {
                            tally.accepted += 1;
                            best_size = size;
                            best_mgr = m;
                            best_roots = r;
                        }
                    }
                    Err(_) => {
                        // Blow-up under this candidate order: skip it.
                        tally.failed_rebuilds += 1;
                        if unlimited_size(&best_mgr, &best_roots, &order) > src.node_limit() {
                            tally.over_limit += 1;
                        }
                        continue;
                    }
                }
            }
        }
        if best_size == improved_before_pass {
            break; // converged
        }
    }
    Ok((best_mgr, best_roots))
}

/// Number of nodes labelled with `var` in the shared graph of `roots`.
fn level_population(m: &Manager, roots: &[Edge], var: Var) -> usize {
    let lvl = m.level_of(var);
    let mut seen = HashSet::new();
    let mut count = 0usize;
    let mut stack: Vec<Edge> = roots.iter().map(|e| e.regular()).collect();
    while let Some(e) = stack.pop() {
        if e.is_const() || !seen.insert(e) {
            continue;
        }
        let (v, h, l) = m.node_raw(e).expect("non-const");
        if m.level_of(v) == lvl {
            count += 1;
        }
        stack.push(h.regular());
        stack.push(l.regular());
    }
    count
}

/// `count_nodes` of `roots` under `order`, rebuilt without a node limit.
fn unlimited_size(m: &Manager, roots: &[Edge], order: &[Var]) -> usize {
    let mut dst = Manager::new();
    let mut var_map = vec![Var::from_index(0); m.var_count()];
    for &v in order {
        var_map[v.index()] = dst.new_var(m.var_name(v));
    }
    let r = transfer_all(m, &mut dst, roots, &var_map).expect("unlimited");
    dst.count_nodes(&r)
}
