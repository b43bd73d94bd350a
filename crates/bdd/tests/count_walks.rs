//! Property tests for the structural walks (`count_nodes`, `size`,
//! `support`, `support_of`) against a naive recursive walk.
//!
//! The walks share one thread-local set of visited marks between calls
//! and between managers; these tests interleave managers of different
//! sizes so that a stale mark would show up as a miscount.

use std::collections::BTreeSet;

use bds_bdd::reorder::{sift, SiftLimits};
use bds_bdd::{Edge, Manager, Var};
use bds_prop::{check_cases, Rng};

/// Distinct nodes (by regular edge, terminal included) and support
/// variables reachable from `e`, by plain recursion.
fn naive(m: &Manager, e: Edge, nodes: &mut BTreeSet<Edge>, vars: &mut BTreeSet<Var>) {
    if !nodes.insert(e.regular()) {
        return;
    }
    if let Some((var, high, low)) = m.node_raw(e) {
        vars.insert(var);
        naive(m, high, nodes, vars);
        naive(m, low, nodes, vars);
    }
}

fn naive_count(m: &Manager, roots: &[Edge]) -> usize {
    let (mut nodes, mut vars) = (BTreeSet::new(), BTreeSet::new());
    for &r in roots {
        naive(m, r, &mut nodes, &mut vars);
    }
    nodes.len()
}

/// The naive support of `roots`, ordered by level.
fn naive_support(m: &Manager, roots: &[Edge]) -> Vec<Var> {
    let (mut nodes, mut vars) = (BTreeSet::new(), BTreeSet::new());
    for &r in roots {
        naive(m, r, &mut nodes, &mut vars);
    }
    let mut vars: Vec<Var> = vars.into_iter().collect();
    vars.sort_by_key(|&v| m.level_of(v));
    vars
}

/// A manager with `n` variables and a few random functions over them,
/// complemented at random.
fn random_roots(rng: &mut Rng, n: usize) -> (Manager, Vec<Edge>) {
    let mut m = Manager::new();
    let vars = m.new_vars(n);
    let mut pool: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let steps = rng.range_usize(n..4 * n + 4);
    for _ in 0..steps {
        let a = rng.choose(&pool).complement_if(rng.bool());
        let b = rng.choose(&pool).complement_if(rng.bool());
        let f = match rng.range_u32(0..3) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            _ => m.xor(a, b),
        }
        .unwrap();
        pool.push(f);
    }
    let k = rng.range_usize(1..5).min(pool.len());
    let roots = pool[pool.len() - k..]
        .iter()
        .map(|&f| f.complement_if(rng.bool()))
        .collect();
    (m, roots)
}

#[test]
fn walks_match_the_naive_recursion() {
    check_cases("count_walks", 300, |rng| {
        let (big_n, small_n) = (rng.range_usize(6..14), rng.range_usize(1..5));
        let (big, big_roots) = random_roots(rng, big_n);
        let (small, small_roots) = random_roots(rng, small_n);
        // Alternate managers so marks from one walk meet the other.
        for (m, roots) in [
            (&big, &big_roots),
            (&small, &small_roots),
            (&big, &big_roots),
        ] {
            assert_eq!(m.count_nodes(roots), naive_count(m, roots));
            assert_eq!(m.support_of(roots), naive_support(m, roots));
            for &f in roots {
                let size = naive_count(m, &[f]);
                assert_eq!(m.size(f), size);
                // A complement edge names the same graph.
                assert_eq!(m.size(f.complement()), size);
                assert_eq!(m.count_nodes(&[f, f.complement(), f]), size);
                assert_eq!(m.support(f), naive_support(m, &[f]));
                assert_eq!(m.support(f.complement()), m.support(f));
            }
        }
    });
}

#[test]
fn the_terminal_is_counted_once() {
    let mut m = Manager::new();
    let v = m.new_vars(3);
    let a = m.literal(v[0], true);
    let b = m.literal(v[2], false);
    let f = m.and(a, b).unwrap();
    assert_eq!(m.count_nodes(&[]), 0);
    assert_eq!(m.count_nodes(&[Edge::ONE]), 1);
    assert_eq!(m.count_nodes(&[Edge::ONE, Edge::ZERO, Edge::ONE]), 1);
    assert_eq!(m.size(Edge::ZERO), 1);
    // a, b and the terminal; a constant root adds nothing more.
    assert_eq!(m.count_nodes(&[f, Edge::ZERO]), 3);
    assert_eq!(m.count_nodes(&[f, b, Edge::ONE]), 3);
    assert!(m.support(Edge::ONE).is_empty());
    assert_eq!(m.support_of(&[b, Edge::ZERO, a]), vec![v[0], v[2]]);
}

#[test]
fn support_follows_the_order_after_a_sift() {
    check_cases("support_after_sift", 60, |rng| {
        let n = rng.range_usize(4..10);
        let (m, roots) = random_roots(rng, n);
        let limits = SiftLimits {
            max_nodes: usize::MAX,
            max_vars: usize::MAX,
            passes: 2,
        };
        let (sifted, moved) = sift(&m, &roots, limits).unwrap();
        for (&f, &g) in roots.iter().zip(&moved) {
            let got = sifted.support(g);
            assert_eq!(got, naive_support(&sifted, &[g]));
            let levels: Vec<u32> = got.iter().map(|&v| sifted.level_of(v)).collect();
            assert!(
                levels.windows(2).all(|w| w[0] < w[1]),
                "topmost first: {levels:?}"
            );
            // Sifting keeps variable identity, so the set is unchanged.
            let before: BTreeSet<Var> = m.support(f).into_iter().collect();
            let after: BTreeSet<Var> = got.into_iter().collect();
            assert_eq!(before, after);
            assert_eq!(sifted.size(g), naive_count(&sifted, &[g]));
        }
        assert_eq!(sifted.support_of(&moved), naive_support(&sifted, &moved));
    });
}
