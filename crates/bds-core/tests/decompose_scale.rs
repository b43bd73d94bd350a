//! Scale tests for the decomposition engine: instead of exhaustive
//! evaluation (infeasible past ~20 variables), the factoring tree is
//! rebuilt into a BDD and compared by canonicity — an *exact*
//! equivalence check at any size.

use std::collections::HashMap;

use bds::decompose::{DecomposeParams, Decomposer, Method};
use bds::factor_tree::{FactorForest, FactorNode, FactorRef};
use bds_bdd::{Edge, Manager, Var};
use bds_network::cover_to_bdd;
use bds_sop::Cover;

/// Rebuilds a factoring tree into the manager it came from; canonicity
/// makes equality exact.
fn forest_to_bdd(
    mgr: &mut Manager,
    forest: &FactorForest,
    r: FactorRef,
    memo: &mut HashMap<usize, Edge>,
) -> Edge {
    let base = if let Some(&e) = memo.get(&r.id()) {
        e
    } else {
        let e = match forest.node(r) {
            FactorNode::One => Edge::ONE,
            FactorNode::Literal(v) => mgr.literal(*v, true),
            &FactorNode::And(a, b) => {
                let (ea, eb) = (
                    forest_to_bdd(mgr, forest, a, memo),
                    forest_to_bdd(mgr, forest, b, memo),
                );
                mgr.and(ea, eb).expect("unlimited")
            }
            &FactorNode::Or(a, b) => {
                let (ea, eb) = (
                    forest_to_bdd(mgr, forest, a, memo),
                    forest_to_bdd(mgr, forest, b, memo),
                );
                mgr.or(ea, eb).expect("unlimited")
            }
            &FactorNode::Xnor(a, b) => {
                let (ea, eb) = (
                    forest_to_bdd(mgr, forest, a, memo),
                    forest_to_bdd(mgr, forest, b, memo),
                );
                mgr.xnor(ea, eb).expect("unlimited")
            }
            &FactorNode::Mux { sel, hi, lo } => {
                let es = forest_to_bdd(mgr, forest, sel, memo);
                let eh = forest_to_bdd(mgr, forest, hi, memo);
                let el = forest_to_bdd(mgr, forest, lo, memo);
                mgr.ite(es, eh, el).expect("unlimited")
            }
            FactorNode::Leaf(cubes) => {
                let vars: Vec<Var> = (0..mgr.var_count()).map(Var::from_index).collect();
                cover_to_bdd(mgr, &Cover::from_cubes(cubes.clone()), &vars).expect("unlimited")
            }
        };
        memo.insert(r.id(), e);
        e
    };
    base.complement_if(r.is_complemented())
}

fn check_exact(mgr: &mut Manager, forest: &FactorForest, root: FactorRef, f: Edge) {
    let mut memo = HashMap::new();
    let rebuilt = forest_to_bdd(mgr, forest, root, &mut memo);
    assert_eq!(
        rebuilt, f,
        "factoring tree must rebuild to the same canonical BDD"
    );
}

/// A 24-variable mixed function: too big for exhaustive checking, easy
/// for canonicity checking.
fn big_mixed(mgr: &mut Manager, n_pairs: usize) -> Edge {
    let vars = mgr.new_vars(2 * n_pairs);
    let mut f = Edge::ZERO;
    for i in 0..n_pairs {
        let a = mgr.literal(vars[2 * i], true);
        let b = mgr.literal(vars[2 * i + 1], true);
        let t = match i % 3 {
            0 => mgr.and(a, b).expect("unlimited"),
            1 => mgr.xor(a, b).expect("unlimited"),
            _ => mgr.or(a, b.complement()).expect("unlimited"),
        };
        f = if i % 2 == 0 {
            mgr.or(f, t).expect("unlimited")
        } else {
            mgr.xor(f, t).expect("unlimited")
        };
    }
    f
}

#[test]
fn large_mixed_function_decomposes_exactly() {
    let mut mgr = Manager::new();
    let f = big_mixed(&mut mgr, 12); // 24 variables
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let root = dec
        .decompose(&mut mgr, f, &mut forest, &DecomposeParams::default())
        .expect("unlimited");
    check_exact(&mut mgr, &forest, root, f);
    // The engine must do real work, not just Shannon everything.
    let s = dec.stats;
    assert!(
        s.and_dom + s.or_dom + s.xnor_dom + s.func_mux + s.gen_dom + s.gen_xdom > 5,
        "structural methods must dominate: {s:?}"
    );
}

#[test]
fn every_single_method_priority_is_sound_at_scale() {
    let methods = [
        Method::SimpleDominators,
        Method::FunctionalMux,
        Method::GeneralizedDominator,
        Method::GeneralizedXDominator,
    ];
    for &only in &methods {
        let mut mgr = Manager::new();
        let f = big_mixed(&mut mgr, 8); // 16 variables
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let params = DecomposeParams {
            priority: vec![only],
            ..Default::default()
        };
        let root = dec
            .decompose(&mut mgr, f, &mut forest, &params)
            .expect("unlimited");
        check_exact(&mut mgr, &forest, root, f);
    }
}

#[test]
fn adder_msb_decomposes_exactly() {
    // The carry-out of a 16-bit adder: deep AND/OR/XOR mixture.
    let mut mgr = Manager::new();
    let n = 16;
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..n {
        a.push(mgr.new_var(format!("a{i}")));
        b.push(mgr.new_var(format!("b{i}")));
    }
    let mut carry = Edge::ZERO;
    for i in 0..n {
        let la = mgr.literal(a[i], true);
        let lb = mgr.literal(b[i], true);
        let axb = mgr.xor(la, lb).expect("unlimited");
        let c1 = mgr.and(la, lb).expect("unlimited");
        let c2 = mgr.and(axb, carry).expect("unlimited");
        carry = mgr.or(c1, c2).expect("unlimited");
    }
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let root = dec
        .decompose(&mut mgr, carry, &mut forest, &DecomposeParams::default())
        .expect("unlimited");
    check_exact(&mut mgr, &forest, root, carry);
    assert_eq!(
        dec.stats.shannon, 0,
        "carry chains decompose structurally: {:?}",
        dec.stats
    );
}

#[test]
fn shared_outputs_rebuild_exactly() {
    // All 8 sum bits of an adder decomposed with one shared decomposer.
    let mut mgr = Manager::new();
    let n = 8;
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..n {
        a.push(mgr.new_var(format!("a{i}")));
        b.push(mgr.new_var(format!("b{i}")));
    }
    let mut outputs = Vec::new();
    let mut carry = Edge::ZERO;
    for i in 0..n {
        let la = mgr.literal(a[i], true);
        let lb = mgr.literal(b[i], true);
        let axb = mgr.xor(la, lb).expect("unlimited");
        let s = mgr.xor(axb, carry).expect("unlimited");
        let c1 = mgr.and(la, lb).expect("unlimited");
        let c2 = mgr.and(axb, carry).expect("unlimited");
        carry = mgr.or(c1, c2).expect("unlimited");
        outputs.push(s);
    }
    outputs.push(carry);
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let params = DecomposeParams::default();
    let roots: Vec<FactorRef> = outputs
        .iter()
        .map(|&f| {
            dec.decompose(&mut mgr, f, &mut forest, &params)
                .expect("unlimited")
        })
        .collect();
    for (f, r) in outputs.iter().zip(&roots) {
        check_exact(&mut mgr, &forest, *r, *f);
    }
    assert!(dec.stats.shared > 0, "adjacent sum bits share carry logic");
}
