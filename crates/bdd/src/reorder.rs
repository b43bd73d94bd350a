//! Variable reordering: Rudell-style sifting whose managers come from
//! rebuilds.
//!
//! The BDS flow subjects every local BDD to variable reordering before
//! decomposition (paper §IV-C: "a BDD is first subjected to a variable
//! reordering \[30\] … a means to achieve an initial logic simplification").
//!
//! [`sift`](crate::reorder::sift) sizes candidate positions the way the
//! paper's Rudell sifting does — by moving each variable through the
//! order with adjacent level swaps — but on a private swap table
//! (`swap.rs`), never on a manager. An order is adopted only through
//! [`reorder`](crate::reorder::reorder), which rebuilds the BDD into a
//! fresh manager with the permuted order via
//! [`transfer`](crate::transfer::transfer) (ITE handles any order). A
//! reduced BDD's size is canonical for its order, so the table's size is
//! the rebuild's size, and a rebuild runs only where it could be accepted.
//! This split is recorded in `DESIGN.md` (substitution 3).

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::swap::SwapTable;
use crate::{Result, STRICT_CHECKS};

/// Limits that keep sifting affordable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SiftLimits {
    /// Skip sifting entirely when the shared size of the roots exceeds
    /// this (such BDDs should have been size-bounded upstream).
    pub max_nodes: usize,
    /// Maximum number of support variables to sift (the largest levels by
    /// node population are chosen first).
    pub max_vars: usize,
    /// Number of improvement passes over the variable list.
    pub passes: usize,
}

impl Default for SiftLimits {
    fn default() -> Self {
        SiftLimits {
            max_nodes: 20_000,
            max_vars: 24,
            passes: 1,
        }
    }
}

/// Rebuilds `roots` under an explicit new variable order.
///
/// `order` must be a permutation of all manager variables (level 0 first).
/// Returns a fresh manager plus the re-homed roots.
///
/// # Errors
/// [`crate::BddError::BadVarMap`] if `order` is not a permutation of the
/// manager's variables; [`crate::BddError::NodeLimit`] on blow-up.
pub fn reorder(src: &Manager, roots: &[Edge], order: &[Var]) -> Result<(Manager, Vec<Edge>)> {
    if order.len() != src.var_count() {
        return Err(crate::BddError::BadVarMap {
            detail: format!(
                "order lists {} of {} variables",
                order.len(),
                src.var_count()
            ),
        });
    }
    let mut seen = vec![false; src.var_count()];
    for &v in order {
        src.check_var(v)?;
        if std::mem::replace(&mut seen[v.index()], true) {
            return Err(crate::BddError::BadVarMap {
                detail: format!("variable {v} repeated in order"),
            });
        }
    }
    // Recreate the variables with their *identities* (indices and names)
    // unchanged, then impose the new order before any node exists. This
    // way callers' `Var` handles and evaluation assignments stay valid.
    let mut dst = Manager::with_node_limit(src.node_limit());
    let var_map: Vec<Var> = (0..src.var_count())
        .map(|i| dst.new_var(src.var_name(Var::from_index(i))))
        .collect();
    dst.set_order(order);
    let mut memo = crate::hash::FastMap::default();
    let new_roots = crate::transfer::transfer_all_into(src, &mut dst, roots, &var_map, &mut memo)?;
    // An order-preserving rebuild (the common "sifting found nothing"
    // case) keeps every canonical ITE key valid, so the computed-table
    // entries whose operands and result all survived come along — the
    // decompose phase that follows re-asks many build-phase triples and
    // now finds them instead of recomputing.
    if order == src.order() {
        crate::transfer::transplant_cache(src, &mut dst, &memo);
    }
    dst.audit()?;
    Ok((dst, new_roots))
}

/// Greedy sifting: for each support variable (largest level population
/// first), tries every position in the order and keeps the best, measured
/// by the shared node count of `roots`; a move is kept only on strict
/// improvement, and the lowest position wins ties.
///
/// Candidate positions are sized on a private swap table by adjacent
/// level swaps (see the module docs); a rebuild runs only where the table
/// promises a strict improvement, or where the table could not go without
/// passing the node limit.
///
/// Returns `(manager, roots)` — a fresh manager when an improvement was
/// found, or a rebuild under the original order otherwise.
///
/// # Errors
/// Propagates node-limit errors from rebuilds (a candidate order whose
/// rebuild overflows is simply skipped; only the first rebuild, under the
/// original order, can fail). With strict checks on,
/// [`crate::BddError::InvariantViolation`] if the swap table disagrees
/// with a rebuild.
pub fn sift(src: &Manager, roots: &[Edge], limits: SiftLimits) -> Result<(Manager, Vec<Edge>)> {
    let _span = bds_trace::span!("bdd.sift");
    let base_order = src.order();
    let start_size = src.count_nodes(roots);
    if start_size > limits.max_nodes || src.var_count() <= 2 {
        return reorder(src, roots, &base_order);
    }

    // Current best.
    let (mut best_mgr, mut best_roots) = reorder(src, roots, &base_order)?;
    let mut best_size = best_mgr.count_nodes(&best_roots);
    let mut table = SwapTable::new(&best_mgr, &best_roots);

    for _pass in 0..limits.passes {
        bds_trace::counter!("bdd.reorder.passes");
        let improved_before_pass = best_size;
        // Sift the support variables, most populous level first.
        let mut candidates = table.populations();
        candidates.sort_by_key(|&(_, population)| std::cmp::Reverse(population));
        candidates.truncate(limits.max_vars);

        for (var, _) in candidates {
            let cur_order = best_mgr.order();
            let cur_pos = table.level_of(var);
            let swaps_before = table.swaps();
            let sizes = table.sweep(var, src.node_limit());
            let mut best_pos = cur_pos;
            for (pos, &table_size) in sizes.iter().enumerate() {
                if pos == cur_pos {
                    continue;
                }
                if table_size.is_some_and(|size| size >= best_size) {
                    // A rebuild here could not be accepted: skip it.
                    continue;
                }
                let mut order = cur_order.clone();
                let v = order.remove(cur_pos);
                order.insert(pos, v);
                bds_trace::counter!("bdd.reorder.rebuilds");
                // A blow-up under this candidate order skips it.
                if let Ok((m, r)) = reorder(&best_mgr, &best_roots, &order) {
                    let size = m.count_nodes(&r);
                    if STRICT_CHECKS && table_size.is_some_and(|t| t != size) {
                        return Err(crate::BddError::InvariantViolation {
                            detail: format!(
                                "swap table sized {var} at level {pos} as {table_size:?}, \
                                 its rebuild has {size} nodes"
                            ),
                        });
                    }
                    if size < best_size {
                        bds_trace::counter!("bdd.reorder.accepted_moves");
                        best_size = size;
                        best_pos = pos;
                        best_mgr = m;
                        best_roots = r;
                    }
                }
            }
            table.move_to(var, best_pos);
            bds_trace::counter_add!("bdd.reorder.swaps", table.swaps() - swaps_before);
            if STRICT_CHECKS {
                table.check_against(&best_mgr, &best_roots)?;
            }
        }
        if best_size == improved_before_pass {
            break; // converged
        }
    }
    Ok((best_mgr, best_roots))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic order-sensitive function a1·b1 + a2·b2 + a3·b3.
    fn interleaving_victim(m: &mut Manager) -> (Edge, Vec<Var>) {
        // Deliberately bad order: a1 a2 a3 b1 b2 b3.
        let a: Vec<Var> = (0..3).map(|i| m.new_var(format!("a{i}"))).collect();
        let b: Vec<Var> = (0..3).map(|i| m.new_var(format!("b{i}"))).collect();
        let mut f = Edge::ZERO;
        for i in 0..3 {
            let la = m.literal(a[i], true);
            let lb = m.literal(b[i], true);
            let t = m.and(la, lb).unwrap();
            f = m.or(f, t).unwrap();
        }
        let mut vars = a;
        vars.extend(b);
        (f, vars)
    }

    #[test]
    fn reorder_preserves_function() {
        let mut m = Manager::new();
        let (f, vars) = interleaving_victim(&mut m);
        let order = vec![vars[0], vars[3], vars[1], vars[4], vars[2], vars[5]];
        let (m2, roots) = reorder(&m, &[f], &order).unwrap();
        for bits in 0..64u32 {
            let assign: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(f, &assign), m2.eval(roots[0], &assign));
        }
        // Interleaved order shrinks this function: 2^(n+1) vs linear.
        assert!(m2.size(roots[0]) < m.size(f));
    }

    #[test]
    fn sift_finds_interleaved_order() {
        let mut m = Manager::new();
        let (f, _) = interleaving_victim(&mut m);
        let before = m.size(f);
        let (m2, roots) = sift(&m, &[f], SiftLimits::default()).unwrap();
        let after = m2.size(roots[0]);
        assert!(
            after < before,
            "sifting must shrink the interleaving victim"
        );
        assert!(
            after <= 8,
            "interleaved order is linear: 6 decision nodes + terminal"
        );
        for bits in 0..64u32 {
            let assign: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(f, &assign), m2.eval(roots[0], &assign));
        }
    }

    #[test]
    fn reorder_rejects_non_permutation() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let bad = vec![vars[0], vars[0], vars[1]];
        assert!(reorder(&m, &[Edge::ONE], &bad).is_err());
        let short = vec![vars[0]];
        assert!(reorder(&m, &[Edge::ONE], &short).is_err());
    }
}

/// Exact reordering for **small** BDDs: tries every permutation of the
/// support variables (all `n!` of them) and keeps the global optimum.
/// Only sensible for `n ≤ 8`; used as the quality yardstick that the
/// sifting heuristics are measured against.
///
/// # Errors
/// [`crate::BddError::BadVarMap`] when the support exceeds `max_vars`
/// (factorial blow-up guard); node-limit errors from rebuilds.
pub fn exact(src: &Manager, roots: &[Edge], max_vars: usize) -> Result<(Manager, Vec<Edge>)> {
    let support = src.support_of(roots);
    if support.len() > max_vars || support.len() > 8 {
        return Err(crate::BddError::BadVarMap {
            detail: format!(
                "exact reordering over {} variables exceeds the factorial guard",
                support.len()
            ),
        });
    }
    let others: Vec<Var> = src
        .order()
        .into_iter()
        .filter(|v| !support.contains(v))
        .collect();
    let (mut best_mgr, mut best_roots) = reorder(src, roots, &src.order())?;
    let mut best_size = best_mgr.count_nodes(&best_roots);

    // Heap's algorithm over the support permutation.
    let mut perm = support.clone();
    let n = perm.len();
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            let mut order = perm.clone();
            order.extend(others.iter().copied());
            if let Ok((m, r)) = reorder(src, roots, &order) {
                let size = m.count_nodes(&r);
                if size < best_size {
                    best_size = size;
                    best_mgr = m;
                    best_roots = r;
                }
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    Ok((best_mgr, best_roots))
}

#[cfg(test)]
mod exact_tests {
    use super::*;

    #[test]
    fn exact_finds_the_interleaved_optimum() {
        let mut m = Manager::new();
        let a: Vec<Var> = (0..3).map(|i| m.new_var(format!("a{i}"))).collect();
        let b: Vec<Var> = (0..3).map(|i| m.new_var(format!("b{i}"))).collect();
        let mut f = Edge::ZERO;
        for i in 0..3 {
            let la = m.literal(a[i], true);
            let lb = m.literal(b[i], true);
            let t = m.and(la, lb).unwrap();
            f = m.or(f, t).unwrap();
        }
        let (me, re) = exact(&m, &[f], 8).unwrap();
        assert_eq!(
            me.size(re[0]),
            7,
            "global optimum: 6 decision nodes + terminal"
        );
        for bits in 0..64u32 {
            let assign: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(f, &assign), me.eval(re[0], &assign));
        }
    }

    /// Sifting must land within 25% of the exact optimum on small
    /// random-ish functions — the quality contract of the heuristic.
    #[test]
    fn sift_is_near_exact_on_small_functions() {
        let mut seed = 0xD1CEu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10 {
            let mut m = Manager::new();
            let vars = m.new_vars(6);
            let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
            let mut f = lits[(rnd() % 6) as usize];
            for _ in 0..8 {
                let l = lits[(rnd() % 6) as usize].complement_if(rnd() & 1 == 1);
                f = match rnd() % 3 {
                    0 => m.and(f, l).unwrap(),
                    1 => m.or(f, l).unwrap(),
                    _ => m.xor(f, l).unwrap(),
                };
            }
            if f.is_const() {
                continue;
            }
            let (me, re) = exact(&m, &[f], 8).unwrap();
            let optimum = me.size(re[0]);
            let limits = SiftLimits {
                passes: 3,
                ..SiftLimits::default()
            };
            let (ms, rs) = sift(&m, &[f], limits).unwrap();
            let heuristic = ms.size(rs[0]);
            assert!(
                heuristic as f64 <= optimum as f64 * 1.25 + 1.0,
                "sift {heuristic} vs exact {optimum}"
            );
        }
    }

    #[test]
    fn exact_guards_against_factorial_blowup() {
        let mut m = Manager::new();
        let vars = m.new_vars(12);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let mut f = Edge::ZERO;
        for chunk in lits.chunks(2) {
            let t = m.and(chunk[0], chunk[1]).unwrap();
            f = m.or(f, t).unwrap();
        }
        assert!(
            exact(&m, &[f], 8).is_err(),
            "12-var support must be refused"
        );
    }
}
