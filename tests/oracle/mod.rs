//! A deliberately naive reference engine for differential testing.
//!
//! [`Oracle`] functions are explicit truth tables — a `Vec<bool>` with
//! one entry per assignment of a fixed variable universe (≤ 16
//! variables, so ≤ 65 536 entries). Every operation is a direct
//! pointwise definition: no hashing, no memoization, no canonical form,
//! no sharing — nothing that could harbor the same bug twice. The fast
//! engine and this oracle can only agree by computing the same Boolean
//! function.
//!
//! This module lives in the test tree and is compiled only into the
//! integration tests that declare `mod oracle;` (the randomized
//! differential suite in `tests/engine_oracle.rs`), so library code
//! cannot reach it.
//!
//! Variables are indexed `0..vars`; assignment `a` encodes variable `i`
//! as bit `i` (`a >> i & 1`), matching the truth-table convention used
//! by `Manager::eval` test harnesses throughout the workspace.

use bds_repro::bdd::{Edge, Manager};

/// Hard cap on the variable universe: 2^16 table entries.
pub const MAX_VARS: usize = 16;

/// A Boolean function over a fixed universe of `vars` variables,
/// represented as an explicit truth table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Oracle {
    vars: usize,
    table: Vec<bool>,
}

impl Oracle {
    /// The constant function `value` over `vars` variables.
    ///
    /// # Panics
    /// Panics if `vars > MAX_VARS`.
    #[must_use]
    pub fn constant(vars: usize, value: bool) -> Self {
        assert!(vars <= MAX_VARS, "oracle limited to {MAX_VARS} variables");
        Oracle {
            vars,
            table: vec![value; 1 << vars],
        }
    }

    /// The literal `var` (or its complement) over `vars` variables.
    ///
    /// # Panics
    /// Panics if `vars > MAX_VARS` or `var >= vars`.
    #[must_use]
    pub fn literal(vars: usize, var: usize, phase: bool) -> Self {
        assert!(var < vars, "literal variable out of range");
        let mut o = Oracle::constant(vars, false);
        for (a, slot) in o.table.iter_mut().enumerate() {
            *slot = (a >> var & 1 == 1) == phase;
        }
        o
    }

    /// The function's value under assignment `a` (variable `i` = bit `i`).
    #[must_use]
    pub fn eval(&self, a: usize) -> bool {
        self.table[a]
    }

    /// Pointwise negation.
    #[must_use]
    pub fn not(&self) -> Self {
        Oracle {
            vars: self.vars,
            table: self.table.iter().map(|&b| !b).collect(),
        }
    }

    fn zip(&self, other: &Self, op: impl Fn(bool, bool) -> bool) -> Self {
        assert_eq!(self.vars, other.vars, "oracle universes must match");
        Oracle {
            vars: self.vars,
            table: self
                .table
                .iter()
                .zip(&other.table)
                .map(|(&x, &y)| op(x, y))
                .collect(),
        }
    }

    /// Pointwise conjunction.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x && y)
    }

    /// Pointwise disjunction.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x || y)
    }

    /// Pointwise exclusive or.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |x, y| x ^ y)
    }

    /// Pointwise if-then-else: `self·g + self̄·h`.
    ///
    /// # Panics
    /// Panics if the universes differ.
    #[must_use]
    pub fn ite(&self, g: &Self, h: &Self) -> Self {
        assert!(
            self.vars == g.vars && self.vars == h.vars,
            "oracle universes must match"
        );
        Oracle {
            vars: self.vars,
            table: (0..self.table.len())
                .map(|a| {
                    if self.table[a] {
                        g.table[a]
                    } else {
                        h.table[a]
                    }
                })
                .collect(),
        }
    }

    /// The cofactor `self[var := value]`: the table entry for each
    /// assignment is re-read at the assignment with bit `var` forced.
    #[must_use]
    pub fn cofactor(&self, var: usize, value: bool) -> Self {
        assert!(var < self.vars, "cofactor variable out of range");
        Oracle {
            vars: self.vars,
            table: (0..self.table.len())
                .map(|a| {
                    let forced = if value { a | 1 << var } else { a & !(1 << var) };
                    self.table[forced]
                })
                .collect(),
        }
    }

    /// Functional composition `self[var := g]` (Shannon form:
    /// `g·self[var:=1] + ḡ·self[var:=0]`).
    #[must_use]
    pub fn compose(&self, var: usize, g: &Self) -> Self {
        let hi = self.cofactor(var, true);
        let lo = self.cofactor(var, false);
        g.ite(&hi, &lo)
    }

    /// Reads the function of `e` out of a manager by brute-force
    /// evaluation of every assignment. `vars` fixes the universe and
    /// must cover every variable `e` depends on; variable `i` of the
    /// oracle is the manager variable with index `i`.
    ///
    /// # Panics
    /// Panics if `vars > MAX_VARS`.
    #[must_use]
    pub fn from_manager(m: &Manager, e: Edge, vars: usize) -> Self {
        let mut o = Oracle::constant(vars, false);
        let mut assign = vec![false; vars.max(m.var_count())];
        for a in 0..1usize << vars {
            for (i, slot) in assign.iter_mut().enumerate() {
                *slot = a >> i & 1 == 1;
            }
            o.table[a] = m.eval(e, &assign);
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_constant_tables() {
        let t = Oracle::constant(2, true);
        assert!(t.eval(0) && t.eval(3));
        let x0 = Oracle::literal(2, 0, true);
        assert!(!x0.eval(0b00) && x0.eval(0b01) && !x0.eval(0b10) && x0.eval(0b11));
        let nx1 = Oracle::literal(2, 1, false);
        assert!(nx1.eval(0b00) && nx1.eval(0b01) && !nx1.eval(0b10));
    }

    #[test]
    fn connectives_are_pointwise() {
        let a = Oracle::literal(2, 0, true);
        let b = Oracle::literal(2, 1, true);
        let and = a.and(&b);
        let or = a.or(&b);
        let xor = a.xor(&b);
        for assign in 0..4 {
            let (va, vb) = (assign & 1 == 1, assign & 2 == 2);
            assert_eq!(and.eval(assign), va && vb);
            assert_eq!(or.eval(assign), va || vb);
            assert_eq!(xor.eval(assign), va ^ vb);
        }
        assert_eq!(a.ite(&b, &b.not()), a.xor(&b).not());
    }

    #[test]
    fn compose_substitutes() {
        // f = x0 ⊕ x1; f[x0 := x1·x2] = x1·x2 ⊕ x1.
        let x0 = Oracle::literal(3, 0, true);
        let x1 = Oracle::literal(3, 1, true);
        let x2 = Oracle::literal(3, 2, true);
        let f = x0.xor(&x1);
        let g = x1.and(&x2);
        let composed = f.compose(0, &g);
        assert_eq!(composed, g.xor(&x1));
    }

    #[test]
    fn from_manager_matches_eval() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let lc = m.literal(vars[2], true);
        let ab = m.and(la, lb).unwrap();
        let f = m.xor(ab, lc).unwrap();
        let o = Oracle::from_manager(&m, f, 3);
        let oa = Oracle::literal(3, 0, true);
        let ob = Oracle::literal(3, 1, true);
        let oc = Oracle::literal(3, 2, true);
        assert_eq!(o, oa.and(&ob).xor(&oc));
    }
}
