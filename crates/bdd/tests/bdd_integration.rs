//! Cross-module integration tests for the BDD package: arithmetic
//! identities, quantification laws and transfers between managers.

use bds_bdd::reorder::reorder;
use bds_bdd::transfer::transfer_all;
use bds_bdd::{Edge, Manager, Var};

/// Builds the sum bits of an n-bit adder directly with BDD operations.
fn adder_bits(m: &mut Manager, a: &[Var], b: &[Var]) -> (Vec<Edge>, Edge) {
    let mut carry = Edge::ZERO;
    let mut sums = Vec::new();
    for i in 0..a.len() {
        let la = m.literal(a[i], true);
        let lb = m.literal(b[i], true);
        let axb = m.xor(la, lb).unwrap();
        let s = m.xor(axb, carry).unwrap();
        let c1 = m.and(la, lb).unwrap();
        let c2 = m.and(axb, carry).unwrap();
        carry = m.or(c1, c2).unwrap();
        sums.push(s);
    }
    (sums, carry)
}

#[test]
fn bdd_adder_matches_arithmetic() {
    let mut m = Manager::new();
    let n = 5;
    // Interleaved order keeps the BDD small.
    let mut a = Vec::new();
    let mut b = Vec::new();
    for i in 0..n {
        a.push(m.new_var(format!("a{i}")));
        b.push(m.new_var(format!("b{i}")));
    }
    let (sums, carry) = adder_bits(&mut m, &a, &b);
    for av in 0..1u32 << n {
        for bv in 0..1u32 << n {
            let mut assign = vec![false; 2 * n];
            for i in 0..n {
                assign[a[i].index()] = av >> i & 1 == 1;
                assign[b[i].index()] = bv >> i & 1 == 1;
            }
            let want = av + bv;
            for (i, &s) in sums.iter().enumerate() {
                assert_eq!(m.eval(s, &assign), want >> i & 1 == 1, "{av}+{bv} bit {i}");
            }
            assert_eq!(m.eval(carry, &assign), want >> n & 1 == 1);
        }
    }
    // The interleaved adder BDD stays linear in n.
    assert!(m.count_nodes(&sums) < 20 * n, "adder BDD must stay linear");
}

#[test]
fn quantification_laws() {
    let mut m = Manager::new();
    let vars = m.new_vars(4);
    let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let ab = m.and(lits[0], lits[1]).unwrap();
    let f = m.ite(ab, lits[2], lits[3]).unwrap();
    for &v in &vars {
        let f1 = m.cofactor(f, v, true).unwrap();
        let f0 = m.cofactor(f, v, false).unwrap();
        // ∃v f = f₁ + f₀ ; ∀v f = ¬∃v ¬f = f₁·f₀.
        let ex = m.exists(f, &[v]).unwrap();
        let want_ex = m.or(f1, f0).unwrap();
        assert_eq!(ex, want_ex);
        let fa = m.exists(f.complement(), &[v]).unwrap().complement();
        let want_fa = m.and(f1, f0).unwrap();
        assert_eq!(fa, want_fa);
        // Shannon: f = v·f₁ + v̄·f₀.
        let lv = m.literal(v, true);
        let back = m.ite(lv, f1, f0).unwrap();
        assert_eq!(back, f);
    }
}

#[test]
fn quantifier_order_is_irrelevant() {
    let mut m = Manager::new();
    let vars = m.new_vars(4);
    let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let t1 = m.and(lits[0], lits[2]).unwrap();
    let t2 = m.xor(lits[1], lits[3]).unwrap();
    let f = m.or(t1, t2).unwrap();
    let e01 = m.exists(f, &[vars[0], vars[1]]).unwrap();
    let a = m.exists(f, &[vars[1]]).unwrap();
    let e10 = m.exists(a, &[vars[0]]).unwrap();
    assert_eq!(e01, e10);
}

#[test]
fn reorder_then_transfer_back_is_identity() {
    let mut m = Manager::new();
    let vars = m.new_vars(6);
    let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let mut f = lits[0];
    for (i, &l) in lits.iter().enumerate().skip(1) {
        f = if i % 2 == 0 {
            m.and(f, l).unwrap()
        } else {
            m.xor(f, l).unwrap()
        };
    }
    let mut order = m.order();
    order.reverse();
    let (m2, r2) = reorder(&m, &[f], &order).unwrap();
    // Transfer back under the identity variable map.
    let mut m3 = Manager::new();
    let v3 = m3.new_vars(6);
    let back = transfer_all(&m2, &mut m3, &r2, &v3).unwrap();
    let f3 = {
        // Rebuild f in m3 directly for comparison.
        let lits: Vec<Edge> = v3.iter().map(|&v| m3.literal(v, true)).collect();
        let mut g = lits[0];
        for (i, &l) in lits.iter().enumerate().skip(1) {
            g = if i % 2 == 0 {
                m3.and(g, l).unwrap()
            } else {
                m3.xor(g, l).unwrap()
            };
        }
        g
    };
    assert_eq!(back[0], f3, "canonicity: same function, same edge");
}

#[test]
fn node_limit_failures_are_clean() {
    // A blown limit must not corrupt the manager: subsequent small
    // operations still work.
    let mut m = Manager::with_node_limit(8);
    let vars = m.new_vars(3);
    let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let mut acc = Edge::ZERO;
    let mut failed = false;
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                if let Ok(t) = m.and(lits[i], lits[j]) {
                    match m.or(acc, t) {
                        Ok(r) => acc = r,
                        Err(_) => failed = true,
                    }
                } else {
                    failed = true;
                }
            }
        }
    }
    assert!(failed, "limit 8 must trip somewhere");
    // Manager still sane for small ops.
    assert_eq!(m.and(lits[0], lits[0]).unwrap(), lits[0]);
    assert!(m.eval(lits[1], &[false, true, false]));
}
