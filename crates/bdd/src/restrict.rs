//! The Coudert–Madre `restrict` operator.
//!
//! `restrict(f, c)` heuristically minimizes the BDD of `f` using `c̄` as a
//! don't-care set: the result `r` satisfies `r·c = f·c` and is usually (not
//! always) smaller than `f`. This is the don't-care minimization engine the
//! BDS paper relies on when computing quotients of conjunctive
//! decompositions and disjunctive remainder terms (§III-B, citing
//! Coudert–Madre \[25\]): exact BDD minimization under don't-cares is
//! NP-complete, so a good heuristic is the practical choice.

use crate::edge::Edge;
use crate::hash::FastMap;
use crate::manager::Manager;
use crate::Result;

impl Manager {
    /// Coudert–Madre restriction of `f` to the care set `c`.
    ///
    /// Guarantees `restrict(f, c) · c == f · c`. When `c` is `ZERO`
    /// everything is don't-care and the result is `ZERO` by convention.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the node limit is hit.
    ///
    /// # Example
    ///
    /// ```
    /// use bds_bdd::Manager;
    /// # fn main() -> Result<(), bds_bdd::BddError> {
    /// let mut m = Manager::new();
    /// let a = m.new_var("a");
    /// let b = m.new_var("b");
    /// let (la, lb) = (m.literal(a, true), m.literal(b, true));
    /// let f = m.and(la, lb)?;       // a·b
    /// let r = m.restrict(f, la)?;   // under care set a, f simplifies to b
    /// assert_eq!(r, lb);
    /// # Ok(())
    /// # }
    /// ```
    pub fn restrict(&mut self, f: Edge, c: Edge) -> Result<Edge> {
        self.ops.restrict_calls += 1;
        let mut memo = FastMap::default();
        self.restrict_rec(f, c, &mut memo)
    }

    fn restrict_rec(&mut self, f: Edge, c: Edge, memo: &mut FastMap<u64, Edge>) -> Result<Edge> {
        if c.is_one() || f.is_const() {
            return Ok(f);
        }
        if c.is_zero() {
            return Ok(Edge::ZERO);
        }
        // Packed (f, c) pair: one word, two fast-hash rounds.
        let key = u64::from(f.raw()) | (u64::from(c.raw()) << 32);
        if let Some(&r) = memo.get(&key) {
            return Ok(r);
        }
        let fl = self.node_level(f);
        let cl = self.node_level(c);
        let r = if cl < fl {
            // The care set constrains a variable above f's support:
            // f can't exploit it directly — drop it by existential
            // abstraction of the care set.
            let (c1, c0) = self.cofactors_at(c, cl);
            let c_exists = self.or(c1, c0)?;
            self.restrict_rec(f, c_exists, memo)?
        } else {
            let level = fl;
            let (f1, f0) = self.cofactors_at(f, level);
            let (c1, c0) = self.cofactors_at(c, level);
            if c1.is_zero() {
                // The whole then-branch is don't-care: collapse to else.
                self.restrict_rec(f0, c0, memo)?
            } else if c0.is_zero() {
                self.restrict_rec(f1, c1, memo)?
            } else {
                let r1 = self.restrict_rec(f1, c1, memo)?;
                let r0 = self.restrict_rec(f0, c0, memo)?;
                self.mk(level, r1, r0)?
            }
        };
        memo.insert(key, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Edge, Manager};

    /// Exhaustively checks the restrict contract `r·c == f·c` for all
    /// 3-variable function pairs drawn from a small pool.
    #[test]
    fn restrict_contract_holds() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let mut pool = vec![Edge::ONE, Edge::ZERO];
        pool.extend(&lits);
        let ab = m.and(lits[0], lits[1]).unwrap();
        let bc = m.or(lits[1], lits[2]).unwrap();
        let x = m.xor(lits[0], lits[2]).unwrap();
        pool.extend([ab, bc, x, ab.complement()]);

        for &f in &pool {
            for &c in &pool {
                let r = m.restrict(f, c).unwrap();
                let rc = m.and(r, c).unwrap();
                let fc = m.and(f, c).unwrap();
                assert_eq!(rc, fc, "restrict contract violated");
            }
        }
    }

    #[test]
    fn restrict_simplifies_quotient() {
        // The Fig. 3 scenario shape: minimizing F against divisor D's ON-set
        // removes the redundant structure.
        let mut m = Manager::new();
        let e = m.new_var("e");
        let b = m.new_var("b");
        let d = m.new_var("d");
        let (le, lb, ld) = (m.literal(e, true), m.literal(b, true), m.literal(d, true));
        let bd = m.and(lb, ld).unwrap();
        let f = m.or(le, bd).unwrap(); // F = e + b·d
        let div = m.or(le, ld).unwrap(); // D = e + d
        let q = m.restrict(f, div).unwrap();
        // Q must satisfy F = D·Q.
        let dq = m.and(div, q).unwrap();
        assert_eq!(dq, f);
        // And it should be the smaller function e + b (2 nodes vs 3).
        let expect = m.or(le, lb).unwrap();
        assert_eq!(q, expect);
    }

    #[test]
    fn restrict_zero_care_set() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let la = m.literal(a, true);
        assert_eq!(m.restrict(la, Edge::ZERO).unwrap(), Edge::ZERO);
        assert_eq!(m.restrict(la, Edge::ONE).unwrap(), la);
    }
}
