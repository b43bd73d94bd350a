//! The exact worked examples of the paper's figures, as reusable
//! constructions over a fresh BDD manager. Each function returns the
//! manager, the function(s) of interest and a short description — used
//! by the `paper_figures` example and the figure-reproduction tests.

#![expect(
    clippy::expect_used,
    reason = "fixed-size paper-figure circuits on an unlimited manager; node creation cannot fail"
)]

use bds_bdd::{Edge, Manager};

/// A constructed figure example.
#[derive(Debug)]
pub struct Figure {
    /// Fresh manager holding the function.
    pub manager: Manager,
    /// The function(s) under decomposition.
    pub functions: Vec<Edge>,
    /// Which figure this reproduces.
    pub label: &'static str,
    /// What the paper derives from it.
    pub expectation: &'static str,
}

/// Fig. 1: an Ashenhurst simple disjoint decomposition with column
/// multiplicity two — bound set {x1, x2}, free set {x3, x4}; the chart
/// has exactly two distinct columns selected by `g = x1 ⊙ x2`.
pub fn fig1_ashenhurst() -> Figure {
    let mut m = Manager::new();
    let x1 = m.new_var("x1");
    let x2 = m.new_var("x2");
    let x3 = m.new_var("x3");
    let x4 = m.new_var("x4");
    let (l1, l2, l3, l4) = (
        m.literal(x1, true),
        m.literal(x2, true),
        m.literal(x3, true),
        m.literal(x4, true),
    );
    let g = m.xnor(l1, l2).expect("unlimited");
    let col_a = m.or(l3, l4).expect("unlimited");
    let col_b = m.and(l3, l4).expect("unlimited");
    let f = m.ite(g, col_a, col_b).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 1",
        expectation: "Ashenhurst simple disjoint decomposition ⇒ functional MUX, control x1⊙x2",
    }
}

/// Fig. 2(a): Karplus conjunctive example `F = (a+b)(c+d)e`.
pub fn fig2_conjunctive() -> Figure {
    let mut m = Manager::new();
    let v = m.new_vars(5);
    let la = m.literal(v[0], true);
    let lb = m.literal(v[1], true);
    let lc = m.literal(v[2], true);
    let ld = m.literal(v[3], true);
    let le = m.literal(v[4], true);
    let ab = m.or(la, lb).expect("unlimited");
    let cd = m.or(lc, ld).expect("unlimited");
    let t = m.and(ab, cd).expect("unlimited");
    let f = m.and(t, le).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 2(a)",
        expectation: "1-dominator ⇒ algebraic AND decomposition (a+b)·((c+d)·e)",
    }
}

/// Fig. 2(b): Karplus disjunctive example `F = ab + cde`.
pub fn fig2_disjunctive() -> Figure {
    let mut m = Manager::new();
    let v = m.new_vars(5);
    let lits: Vec<Edge> = v.iter().map(|&x| m.literal(x, true)).collect();
    let ab = m.and(lits[0], lits[1]).expect("unlimited");
    let cd = m.and(lits[2], lits[3]).expect("unlimited");
    let cde = m.and(cd, lits[4]).expect("unlimited");
    let f = m.or(ab, cde).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 2(b)",
        expectation: "0-dominator ⇒ algebraic OR decomposition ab + cde",
    }
}

/// Fig. 3 / Example 2: `F = e + b·d` with order (e, d, b):
/// conjunctive Boolean decomposition `D = e+d`, `Q = e+b`.
pub fn fig3() -> Figure {
    let mut m = Manager::new();
    let e = m.new_var("e");
    let d = m.new_var("d");
    let b = m.new_var("b");
    let le = m.literal(e, true);
    let ld = m.literal(d, true);
    let lb = m.literal(b, true);
    let bd = m.and(lb, ld).expect("unlimited");
    let f = m.or(le, bd).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 3",
        expectation: "generalized dominator ⇒ F = (e+d)(e+b)",
    }
}

/// Fig. 4 / Example 3: the complete AND decomposition with 8 literals,
/// `F = (āf + b + c)(āg + d + e)`.
pub fn fig4() -> Figure {
    let mut m = Manager::new();
    let a = m.new_var("a");
    let fv = m.new_var("f");
    let b = m.new_var("b");
    let c = m.new_var("c");
    let g = m.new_var("g");
    let d = m.new_var("d");
    let e = m.new_var("e");
    let la = m.literal(a, false);
    let (lf, lb, lc) = (m.literal(fv, true), m.literal(b, true), m.literal(c, true));
    let (lg, ld, le) = (m.literal(g, true), m.literal(d, true), m.literal(e, true));
    let af = m.and(la, lf).expect("unlimited");
    let t1 = m.or(af, lb).expect("unlimited");
    let d1 = m.or(t1, lc).expect("unlimited");
    let ag = m.and(la, lg).expect("unlimited");
    let t2 = m.or(ag, ld).expect("unlimited");
    let d2 = m.or(t2, le).expect("unlimited");
    let f = m.and(d1, d2).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 4",
        expectation: "complete AND decomposition, 8 literals: (āf+b+c)(āg+d+e)",
    }
}

/// Fig. 5 / Example 4: `F = āb + b̄c`: disjunctive Boolean decomposition
/// with `G = āb`.
pub fn fig5() -> Figure {
    let mut m = Manager::new();
    let a = m.new_var("a");
    let b = m.new_var("b");
    let c = m.new_var("c");
    let la = m.literal(a, false);
    let lb = m.literal(b, true);
    let lnb = m.literal(b, false);
    let lc = m.literal(c, true);
    let ab = m.and(la, lb).expect("unlimited");
    let bc = m.and(lnb, lc).expect("unlimited");
    let f = m.or(ab, bc).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 5",
        expectation: "disjunctive Boolean decomposition F = āb + H",
    }
}

/// Fig. 8 / Example 5: `F = (x+y) ⊙ (ū+r̄+q̄)` — algebraic XNOR via an
/// x-dominator.
pub fn fig8() -> Figure {
    let mut m = Manager::new();
    let u = m.new_var("u");
    let r = m.new_var("r");
    let q = m.new_var("q");
    let x = m.new_var("x");
    let y = m.new_var("y");
    let (lu, lr, lq) = (
        m.literal(u, false),
        m.literal(r, false),
        m.literal(q, false),
    );
    let (lx, ly) = (m.literal(x, true), m.literal(y, true));
    let xy = m.or(lx, ly).expect("unlimited");
    let t = m.or(lu, lr).expect("unlimited");
    let urq = m.or(t, lq).expect("unlimited");
    let f = m.xnor(xy, urq).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 8",
        expectation: "x-dominator ⇒ F = (x+y) ⊙ (ū+r̄+q̄)",
    }
}

/// Fig. 9 / Example 6: MCNC `rnd4-1`,
/// `F = (x1 ⊙ x4) ⊙ (x2·(x5 + x1·x4))`.
pub fn fig9_rnd4_1() -> Figure {
    let mut m = Manager::new();
    let x2 = m.new_var("x2");
    let x1 = m.new_var("x1");
    let x4 = m.new_var("x4");
    let x5 = m.new_var("x5");
    let (l1, l2, l4, l5) = (
        m.literal(x1, true),
        m.literal(x2, true),
        m.literal(x4, true),
        m.literal(x5, true),
    );
    let x14 = m.xnor(l1, l4).expect("unlimited");
    let a14 = m.and(l1, l4).expect("unlimited");
    let inner = m.or(l5, a14).expect("unlimited");
    let right = m.and(l2, inner).expect("unlimited");
    let f = m.xnor(x14, right).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 9 (rnd4-1)",
        expectation: "generalized x-dominator ⇒ F = (x1⊙x4) ⊙ (x2(x5+x1x4))",
    }
}

/// Fig. 10/11 / Example 7: functional MUX,
/// `F = ḡz + gȳ` with `g = x̄w + xw̄`.
pub fn fig11() -> Figure {
    let mut m = Manager::new();
    let x = m.new_var("x");
    let w = m.new_var("w");
    let z = m.new_var("z");
    let y = m.new_var("y");
    let (lx, lw, lz, lny) = (
        m.literal(x, true),
        m.literal(w, true),
        m.literal(z, true),
        m.literal(y, false),
    );
    let g = m.xor(lx, lw).expect("unlimited");
    let f = m.ite(g, lny, lz).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f],
        label: "Fig. 11",
        expectation: "functional MUX ⇒ F = mux(x⊕w, ȳ, z)",
    }
}

/// Fig. 14 / Example 8: a two-output function sharing factoring
/// subtrees — `f` and `g` both contain `x ⊕ y` logic.
pub fn fig14_sharing() -> Figure {
    let mut m = Manager::new();
    let x = m.new_var("x");
    let y = m.new_var("y");
    let z = m.new_var("z");
    let w = m.new_var("w");
    let (lx, ly, lz, lw) = (
        m.literal(x, true),
        m.literal(y, true),
        m.literal(z, true),
        m.literal(w, true),
    );
    let common = m.xor(lx, ly).expect("unlimited");
    let f = m.ite(common, lz, lw).expect("unlimited");
    let g = m.and(common, lz).expect("unlimited");
    Figure {
        manager: m,
        functions: vec![f, g],
        label: "Fig. 14",
        expectation: "sharing extraction: x⊕y materialized once for both outputs",
    }
}

/// Every figure constructor, for sweeping in tests and examples.
pub fn all_figures() -> Vec<Figure> {
    vec![
        fig1_ashenhurst(),
        fig2_conjunctive(),
        fig2_disjunctive(),
        fig3(),
        fig4(),
        fig5(),
        fig8(),
        fig9_rnd4_1(),
        fig11(),
        fig14_sharing(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_are_nontrivial() {
        for fig in all_figures() {
            for &f in &fig.functions {
                assert!(
                    !f.is_const(),
                    "{}: function must be non-constant",
                    fig.label
                );
                assert!(fig.manager.size(f) >= 3, "{}: too small", fig.label);
            }
        }
    }

    #[test]
    fn fig4_is_the_eight_literal_function() {
        let fig = fig4();
        // Spot-check the product semantics on a few assignments:
        // vars (a, f, b, c, g, d, e) by index.
        let m = &fig.manager;
        let f = fig.functions[0];
        // a=0, f=1 → first factor true via āf; second needs āg/d/e.
        assert!(m.eval(f, &[false, true, false, false, true, false, false]));
        // a=1 → āf, āg dead; need (b|c) and (d|e).
        assert!(m.eval(f, &[true, true, true, false, true, true, false]));
        assert!(!m.eval(f, &[true, true, true, false, true, false, false]));
    }
}
