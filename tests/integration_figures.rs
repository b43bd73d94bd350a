//! Figure-by-figure reproduction checks: each worked example of the
//! paper decomposes to the structure the paper derives, and every
//! factoring tree is exhaustively equivalent to its BDD.

use bds_repro::bdd::Manager;
use bds_repro::circuits::figures::{self, all_figures};
use bds_repro::core::decompose::{DecomposeParams, Decomposer};
use bds_repro::core::factor_tree::FactorForest;

fn decompose_figure(
    fig: figures::Figure,
) -> (
    Manager,
    FactorForest,
    Vec<bds_repro::core::factor_tree::FactorRef>,
    Decomposer,
) {
    let mut mgr = fig.manager;
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let params = DecomposeParams::default();
    let roots: Vec<_> = fig
        .functions
        .iter()
        .map(|&f| {
            dec.decompose(&mut mgr, f, &mut forest, &params)
                .expect("decompose")
        })
        .collect();
    (mgr, forest, roots, dec)
}

#[test]
fn every_figure_decomposes_equivalently() {
    for fig in all_figures() {
        let label = fig.label;
        let functions = fig.functions.clone();
        let (mgr, forest, roots, _) = decompose_figure(fig);
        let n = mgr.var_count();
        for (f, root) in functions.iter().zip(&roots) {
            for bits in 0..1u32 << n {
                let assign: Vec<bool> = (0..n).map(|k| bits >> k & 1 == 1).collect();
                assert_eq!(
                    mgr.eval(*f, &assign),
                    forest.eval(*root, &assign),
                    "{label} at {assign:?}"
                );
            }
        }
    }
}

#[test]
fn fig1_is_a_functional_mux() {
    let (_, _, _, dec) = decompose_figure(figures::fig1_ashenhurst());
    assert!(
        dec.stats.func_mux + dec.stats.xnor_dom + dec.stats.gen_xdom >= 1,
        "Ashenhurst column-multiplicity-2 chart ⇒ MUX/XNOR structure: {:?}",
        dec.stats
    );
}

#[test]
fn fig2_uses_algebraic_dominators() {
    let (_, _, _, dec) = decompose_figure(figures::fig2_conjunctive());
    assert!(
        dec.stats.and_dom >= 1,
        "Karplus AND decomposition: {:?}",
        dec.stats
    );
    let (_, _, _, dec) = decompose_figure(figures::fig2_disjunctive());
    assert!(
        dec.stats.or_dom >= 1,
        "Karplus OR decomposition: {:?}",
        dec.stats
    );
}

#[test]
fn fig4_reaches_eight_literals() {
    let (mgr, forest, roots, _) = decompose_figure(figures::fig4());
    let lits = forest.literal_count(roots[0]);
    assert!(
        lits <= 8,
        "paper's best-known decomposition has 8 literals, got {lits}: {}",
        forest.display(roots[0], &mgr)
    );
}

#[test]
fn fig8_uses_xnor_structure() {
    let (_, _, _, dec) = decompose_figure(figures::fig8());
    assert!(
        dec.stats.xnor_dom + dec.stats.gen_xdom >= 1,
        "x-dominator XNOR decomposition expected: {:?}",
        dec.stats
    );
}

#[test]
fn fig9_uses_structural_methods() {
    // The unit test `xor_decomp::fig9_rnd4_1` checks the generalized
    // x-dominator machinery directly; through the full priority stack the
    // functional MUX (priority 2) may legitimately claim this function
    // first — either way the engine must succeed without Shannon.
    let (_, _, _, dec) = decompose_figure(figures::fig9_rnd4_1());
    assert!(
        dec.stats.xnor_dom + dec.stats.gen_xdom + dec.stats.func_mux >= 1,
        "structural decomposition expected on rnd4-1: {:?}",
        dec.stats
    );
    assert_eq!(dec.stats.shannon, 0, "no fallback needed: {:?}", dec.stats);
}

#[test]
fn fig11_uses_functional_mux() {
    let (_, _, _, dec) = decompose_figure(figures::fig11());
    assert!(
        dec.stats.func_mux >= 1,
        "functional MUX decomposition expected: {:?}",
        dec.stats
    );
}

#[test]
fn fig14_shares_common_subtree() {
    let (_, _, roots, dec) = decompose_figure(figures::fig14_sharing());
    assert_eq!(roots.len(), 2);
    assert!(
        dec.stats.shared >= 1,
        "the common x⊕y logic must be shared between outputs: {:?}",
        dec.stats
    );
}

#[test]
fn figure_decompositions_beat_flat_sop_literals() {
    // The decomposed factoring trees should not be larger than a flat
    // two-level cover of the same function.
    for fig in all_figures() {
        let label = fig.label;
        let functions = fig.functions.clone();
        let (mut mgr, forest, roots, _) = decompose_figure(fig);
        for (f, root) in functions.iter().zip(&roots) {
            let (isop, _) = mgr.isop_record(*f, *f).expect("isop");
            let flat = isop.literal_count();
            let ours = forest.literal_count(*root);
            assert!(
                ours <= flat.max(2),
                "{label}: factored {ours} literals vs flat {flat}"
            );
        }
    }
}
