//! Variable reordering by rebuild-based sifting.
//!
//! The BDS flow subjects every local BDD to variable reordering before
//! decomposition (paper §IV-C: "a BDD is first subjected to a variable
//! reordering \[30\] … a means to achieve an initial logic simplification").
//!
//! The original system used Rudell's in-place sifting. Because BDS-style
//! synthesis bounds the size of every *local* BDD (the `eliminate`
//! threshold), this reproduction uses the simpler and more robust
//! **rebuild-based sifting**: to evaluate a candidate position for a
//! variable, the BDD is rebuilt into a scratch manager with the permuted
//! order via [`transfer`](crate::transfer::transfer) (which routes through
//! ITE and therefore handles any order). The complexity is higher by a
//! constant factor, but on threshold-bounded BDDs it is immaterial and it
//! cannot corrupt the unique table. This substitution is recorded in
//! `DESIGN.md`.

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::Result;

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
/// by the shared node count of `roots`.
///
/// Returns `(manager, roots)` — a fresh manager when an improvement was
/// found, or a rebuild under the original order otherwise.
///
/// # Errors
/// Propagates node-limit errors from rebuilds (a candidate order whose
/// rebuild overflows is simply skipped; only the final rebuild can fail).
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

    for _pass in 0..limits.passes {
        bds_trace::counter!("bdd.reorder.passes");
        let improved_before_pass = best_size;
        // Sift the support variables, most populous level first.
        let support = best_mgr.support_of(&best_roots);
        let mut candidates: Vec<Var> = support;
        candidates.sort_by_key(|&v| std::cmp::Reverse(level_population(&best_mgr, &best_roots, v)));
        candidates.truncate(limits.max_vars);

        for var in candidates {
            let cur_order = best_mgr.order();
            #[expect(clippy::expect_used, reason = "var was taken from this very order")]
            let cur_pos = cur_order
                .iter()
                .position(|&v| v == var)
                .expect("var in order");
            let mut best_pos = cur_pos;
            for pos in 0..cur_order.len() {
                if pos == cur_pos {
                    continue;
                }
                let mut order = cur_order.clone();
                let v = order.remove(cur_pos);
                order.insert(pos, v);
                bds_trace::counter!("bdd.reorder.rebuilds");
                match reorder(&best_mgr, &best_roots, &order) {
                    Ok((m, r)) => {
                        let size = m.count_nodes(&r);
                        let accepted = size < best_size;
                        bds_trace::event!(
                            "reorder.sift_move",
                            var = var.index(),
                            from = cur_pos,
                            to = pos,
                            size = size,
                            best = best_size,
                            accepted = accepted,
                        );
                        if accepted {
                            bds_trace::counter!("bdd.reorder.accepted_moves");
                            best_size = size;
                            best_pos = pos;
                            best_mgr = m;
                            best_roots = r;
                        }
                    }
                    Err(_) => {
                        // Blow-up under this candidate order: skip it.
                        bds_trace::event!(
                            "reorder.sift_move",
                            var = var.index(),
                            from = cur_pos,
                            to = pos,
                            blowup = true,
                            accepted = false,
                        );
                        continue;
                    }
                }
            }
            let _ = best_pos;
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
    let mut seen = std::collections::HashSet::new();
    let mut count = 0usize;
    let mut stack: Vec<Edge> = roots.iter().map(|e| e.regular()).collect();
    while let Some(e) = stack.pop() {
        if e.is_const() || !seen.insert(e.node()) {
            continue;
        }
        #[expect(clippy::expect_used, reason = "guarded: constants are skipped above")]
        let (v, h, l) = m.node_raw(e).expect("non-const");
        if m.level_of(v) == lvl {
            count += 1;
        }
        stack.push(h.regular());
        stack.push(l.regular());
    }
    count
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

/// Sliding window-3 permutation: for each window of three adjacent
/// levels, tries all 6 permutations (by rebuild) and keeps the best.
/// Cheaper than full sifting and often a good finisher after it —
/// the classic companion pass in Rudell-style reordering packages.
///
/// Returns `(manager, roots)`; like [`sift`], variable identities are
/// preserved.
///
/// # Errors
/// Node-limit errors from the final rebuild (candidate orders that blow
/// up are skipped).
pub fn window3(src: &Manager, roots: &[Edge], limits: SiftLimits) -> Result<(Manager, Vec<Edge>)> {
    let _span = bds_trace::span!("bdd.window3");
    let base_order = src.order();
    if src.count_nodes(roots) > limits.max_nodes || src.var_count() < 3 {
        return reorder(src, roots, &base_order);
    }
    let (mut best_mgr, mut best_roots) = reorder(src, roots, &base_order)?;
    let mut best_size = best_mgr.count_nodes(&best_roots);
    for _pass in 0..limits.passes.max(1) {
        bds_trace::counter!("bdd.reorder.passes");
        let before = best_size;
        let n = best_mgr.var_count();
        for start in 0..n.saturating_sub(2) {
            let cur = best_mgr.order();
            // All permutations of the 3 window slots.
            const PERMS: [[usize; 3]; 6] = [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ];
            for perm in PERMS.iter().skip(1) {
                let mut order = cur.clone();
                let window = [cur[start], cur[start + 1], cur[start + 2]];
                for (slot, &take) in perm.iter().enumerate() {
                    order[start + slot] = window[take];
                }
                bds_trace::counter!("bdd.reorder.rebuilds");
                if let Ok((m, r)) = reorder(&best_mgr, &best_roots, &order) {
                    let size = m.count_nodes(&r);
                    if size < best_size {
                        bds_trace::counter!("bdd.reorder.accepted_moves");
                        bds_trace::event!(
                            "reorder.window3_accept",
                            start = start,
                            size = size,
                            was = best_size,
                        );
                        best_size = size;
                        best_mgr = m;
                        best_roots = r;
                    }
                }
            }
        }
        if best_size == before {
            break;
        }
    }
    Ok((best_mgr, best_roots))
}

#[cfg(test)]
mod window_tests {
    use super::*;

    #[test]
    fn window3_preserves_function_and_helps_local_disorder() {
        // A function where swapping two adjacent variables helps:
        // f = (a·c) + (b·c) + (a·b·d) with order a, d, b, c — moving d
        // below b/c shrinks the graph.
        let mut m = Manager::new();
        let a = m.new_var("a");
        let d = m.new_var("d");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let (la, lb, lc, ld) = (
            m.literal(a, true),
            m.literal(b, true),
            m.literal(c, true),
            m.literal(d, true),
        );
        let ac = m.and(la, lc).unwrap();
        let bc = m.and(lb, lc).unwrap();
        let ab = m.and(la, lb).unwrap();
        let abd = m.and(ab, ld).unwrap();
        let t = m.or(ac, bc).unwrap();
        let f = m.or(t, abd).unwrap();
        let before = m.size(f);
        let (m2, roots) = window3(&m, &[f], SiftLimits::default()).unwrap();
        assert!(m2.size(roots[0]) <= before);
        for bits in 0..16u32 {
            let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(m.eval(f, &assign), m2.eval(roots[0], &assign));
        }
    }

    #[test]
    fn window3_matches_sift_on_interleaving_victim() {
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
        let limits = SiftLimits {
            passes: 4,
            ..SiftLimits::default()
        };
        let (mw, rw) = window3(&m, &[f], limits).unwrap();
        let (ms, rs) = sift(&m, &[f], limits).unwrap();
        // Both must reach the linear-size interleaved form.
        assert!(mw.size(rw[0]) <= 8, "window3 got {}", mw.size(rw[0]));
        assert!(ms.size(rs[0]) <= 8);
    }

    #[test]
    fn window3_tiny_inputs_pass_through() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let la = m.literal(a, true);
        let (m2, r) = window3(&m, &[la], SiftLimits::default()).unwrap();
        assert_eq!(m2.size(r[0]), 2);
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
