//! Property test for the cross-manager transfer round trip: a function
//! pushed through `transfer` under an arbitrary variable permutation and
//! `transfer`red back must land on **the same canonical edge** in the
//! original manager, with full structural invariants holding at every
//! hop. Hash consing makes edge equality a complete functional check,
//! and `eval` over the whole truth table cross-checks it independently.

use bds_bdd::transfer::transfer;
use bds_bdd::{Edge, Manager, Var};
use bds_prop::{check_cases, Rng};

/// Builds a random DAG of BDD operations over `nvars` variables and
/// returns a root chosen from the built pool. Mixes literals of both
/// polarities with binary ops and ITE so complement edges, shared
/// subgraphs, and constant collapses all occur.
fn random_function(rng: &mut Rng, mgr: &mut Manager, vars: &[Var]) -> Edge {
    let mut pool: Vec<Edge> = vars
        .iter()
        .flat_map(|&v| [true, false].map(|p| mgr.literal(v, p)))
        .collect();
    pool.push(Edge::ZERO);
    pool.push(Edge::ONE);
    let ops = rng.range_usize(3..12);
    for _ in 0..ops {
        let a = *rng.choose(&pool);
        let b = *rng.choose(&pool);
        let built = match rng.range_u32(0..4) {
            0 => mgr.and(a, b),
            1 => mgr.or(a, b),
            2 => mgr.xor(a, b),
            _ => {
                let c = *rng.choose(&pool);
                mgr.ite(a, b, c)
            }
        }
        .expect("default node limit is far above these tiny graphs");
        pool.push(built);
    }
    *rng.choose(&pool[pool.len() - ops..])
}

/// Fisher–Yates permutation of `0..n` driven by the test's PRNG.
fn random_permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.range_usize(0..i + 1);
        perm.swap(i, j);
    }
    perm
}

/// Exhaustive truth-table comparison between a function in `src` and its
/// image in `dst`, where source variable `i` maps to destination
/// variable `var_map[i]`. Destination variables outside the image keep
/// an arbitrary (false) value, which is sound because the image's
/// support is contained in the mapped set.
fn assert_same_function(src: &Manager, f: Edge, dst: &Manager, g: Edge, var_map: &[Var]) {
    let n = src.var_count();
    assert!(n <= 16, "truth-table sweep only feasible for small n");
    for bits in 0..(1u32 << n) {
        let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let mut dst_assign = vec![false; dst.var_count()];
        for (i, &dv) in var_map.iter().enumerate().take(n) {
            dst_assign[dv.index()] = assign[i];
        }
        assert_eq!(
            src.eval(f, &assign),
            dst.eval(g, &dst_assign),
            "functions diverge at assignment {assign:?}"
        );
    }
}

#[test]
fn permuted_transfer_round_trip_is_identity() {
    check_cases("transfer-roundtrip", 64, |rng| {
        let nvars = rng.range_usize(3..9);
        let mut src = Manager::new();
        let vars = src.new_vars(nvars);
        let f = random_function(rng, &mut src, &vars);
        src.check_invariants().unwrap();

        // Hop 1: into a fresh manager under a random variable-order
        // permutation.
        let perm = random_permutation(rng, nvars);
        let mut mid = Manager::new();
        let mut mid_vars = vec![Var::from_index(0); nvars];
        for &p in &perm {
            mid_vars[p] = mid.new_var(src.var_name(vars[p]));
        }
        let g = transfer(&src, &mut mid, f, &mid_vars).unwrap();
        mid.check_invariants().unwrap();
        assert_same_function(&src, f, &mid, g, &mid_vars);

        // Hop 2: back into the original manager under the inverse map.
        // Hash consing makes this the strongest possible check — the
        // round-tripped edge must be bit-identical to the one we started
        // from.
        let mut back_vars = vec![Var::from_index(0); nvars];
        for (i, mv) in mid_vars.iter().enumerate() {
            back_vars[mv.index()] = vars[i];
        }
        let back = transfer(&mid, &mut src, g, &back_vars).unwrap();
        src.check_invariants().unwrap();
        assert_eq!(
            back, f,
            "round trip src→permuted→src changed the canonical edge"
        );
        assert_eq!(src.var_count(), nvars);
    });
}
