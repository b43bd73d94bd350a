//! The ITE operator and derived Boolean connectives.

use crate::canon::IteNorm;
use crate::edge::Edge;
use crate::hash::FastSet;
use crate::manager::Manager;
use crate::nid::IteKey;
use crate::Result;

impl Manager {
    /// If-then-else: `ite(f, g, h) = f·g + f̄·h`.
    ///
    /// This is the single primitive all binary connectives reduce to
    /// (Brace–Rudell–Bryant). Results are memoized in the manager's
    /// computed table under a normalized key, so equivalent calls hit the
    /// cache regardless of argument form.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Result<Edge> {
        self.charge(crate::OpClass::Ite)?;
        self.ops.ite_calls += 1;
        // Canonical standard triple (terminal rules, argument
        // substitution, symmetry and complement normalization — see
        // `canon.rs`): structurally equal queries reach the computed
        // table under one bit-identical key.
        let (f, g, h, negate) = match self.canonicalize_ite(f, g, h) {
            IteNorm::Done(r) => {
                self.ops.terminal_hits += 1;
                return Ok(r);
            }
            IteNorm::Triple { f, g, h, negate } => (f, g, h, negate),
        };

        let key = IteKey::pack(f, g, h);
        if let Some(&cached) = self.ite_cache.get(&key) {
            self.ops.cache_hits += 1;
            return Ok(cached.complement_if(negate));
        }
        self.ops.cache_misses += 1;

        // --- recursion -------------------------------------------------------
        let level = self
            .node_level(f)
            .min(self.node_level(g))
            .min(self.node_level(h));
        let (f1, f0) = self.cofactors_at(f, level);
        let (g1, g0) = self.cofactors_at(g, level);
        let (h1, h0) = self.cofactors_at(h, level);
        let t = self.ite(f1, g1, h1)?;
        let e = self.ite(f0, g0, h0)?;
        let r = self.mk(level, t, e)?;
        self.ite_cache.insert(key, r);
        Ok(r.complement_if(negate))
    }

    /// Shallow cofactors of `e` with respect to the variable at `level`.
    ///
    /// If `e`'s top level is below `level` the function does not depend on
    /// that variable and both cofactors are `e` itself.
    #[inline]
    pub(crate) fn cofactors_at(&self, e: Edge, level: u32) -> (Edge, Edge) {
        if e.is_const() || self.node_level(e) != level {
            return (e, e);
        }
        let n = &self.nodes[e.node() as usize];
        let c = e.is_complemented();
        (n.high.complement_if(c), n.low.complement_if(c))
    }

    /// Conjunction `f · g`.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn and(&mut self, f: Edge, g: Edge) -> Result<Edge> {
        self.ite(f, g, Edge::ZERO)
    }

    /// Disjunction `f + g`.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn or(&mut self, f: Edge, g: Edge) -> Result<Edge> {
        self.ite(f, Edge::ONE, g)
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn xor(&mut self, f: Edge, g: Edge) -> Result<Edge> {
        self.ite(f, g.complement(), g)
    }

    /// Equivalence `f ⊙ g` (XNOR).
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn xnor(&mut self, f: Edge, g: Edge) -> Result<Edge> {
        self.ite(f, g, g.complement())
    }

    /// Difference `f · ḡ`.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn and_not(&mut self, f: Edge, g: Edge) -> Result<Edge> {
        self.ite(f, g.complement(), Edge::ZERO)
    }

    /// Returns `true` iff `f ⊆ g` (as ON-sets), i.e. `f · ḡ = 0`.
    ///
    /// # Errors
    /// [`crate::BddError::NodeLimit`] if the manager's node limit is hit.
    pub fn leq(&mut self, f: Edge, g: Edge) -> Result<bool> {
        Ok(self.and_not(f, g)?.is_zero())
    }

    /// Whether `ite(f, g, h) == want`, decided by walking the four
    /// functions' cofactors together: it creates no node, counts no
    /// operation and spends no effort, so a check made with it leaves
    /// the manager as it was.
    pub fn ite_is(&self, f: Edge, g: Edge, h: Edge, want: Edge) -> bool {
        self.ite_is_rec([f, g, h, want], &mut FastSet::default())
    }

    fn ite_is_rec(&self, e: [Edge; 4], seen: &mut FastSet<[u32; 4]>) -> bool {
        let [f, g, h, want] = e;
        if f.is_one() || g == h {
            return g == want;
        }
        if f.is_zero() {
            return h == want;
        }
        // A walk already entered holds, or the first failure ended it.
        if !seen.insert(e.map(Edge::raw)) {
            return true;
        }
        let level = e
            .map(|x| self.node_level(x))
            .into_iter()
            .fold(u32::MAX, u32::min);
        let c = e.map(|x| self.cofactors_at(x, level));
        self.ite_is_rec(c.map(|(hi, _)| hi), seen) && self.ite_is_rec(c.map(|(_, lo)| lo), seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Manager;

    fn setup() -> (Manager, Edge, Edge, Edge) {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let (la, lb, lc) = (m.literal(a, true), m.literal(b, true), m.literal(c, true));
        (m, la, lb, lc)
    }

    /// `ite_is` agrees with `ite` on every triple of a few functions and
    /// leaves the manager's arena, counters and effort as they were.
    #[test]
    fn ite_is_agrees_with_ite_and_touches_nothing() {
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b).unwrap();
        let bc = m.xor(b, c).unwrap();
        let fs = [Edge::ZERO, Edge::ONE, a, b.complement(), ab, bc];
        let mut cases = Vec::new();
        for f in fs {
            for g in fs {
                for h in fs {
                    cases.push(([f, g, h], m.ite(f, g, h).unwrap()));
                }
            }
        }
        let before = (m.arena_size(), m.op_stats(), m.effort_spent());
        for ([f, g, h], r) in cases {
            for want in fs {
                assert_eq!(m.ite_is(f, g, h, want), r == want);
            }
        }
        assert_eq!((m.arena_size(), m.op_stats(), m.effort_spent()), before);
    }

    #[test]
    fn connectives_agree_with_truth_tables() {
        let (mut m, a, b, _) = setup();
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assign = [va, vb, false];
            let and = m.and(a, b).unwrap();
            let or = m.or(a, b).unwrap();
            let xor = m.xor(a, b).unwrap();
            let xnor = m.xnor(a, b).unwrap();
            assert_eq!(m.eval(and, &assign), va && vb);
            assert_eq!(m.eval(or, &assign), va || vb);
            assert_eq!(m.eval(xor, &assign), va ^ vb);
            assert_eq!(m.eval(xnor, &assign), va == vb);
        }
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = setup();
        let and = m.and(a, b).unwrap();
        let or_compl = m.or(a.complement(), b.complement()).unwrap();
        assert_eq!(and.complement(), or_compl);
    }

    #[test]
    fn xor_is_associative_and_commutative() {
        let (mut m, a, b, c) = setup();
        let ab = m.xor(a, b).unwrap();
        let abc1 = m.xor(ab, c).unwrap();
        let bc = m.xor(b, c).unwrap();
        let abc2 = m.xor(a, bc).unwrap();
        assert_eq!(abc1, abc2);
        let ba = m.xor(b, a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn ite_shannon_expansion() {
        let (mut m, a, b, c) = setup();
        let f = m.ite(a, b, c).unwrap();
        assert!(m.eval(f, &[true, true, false]));
        assert!(!m.eval(f, &[true, false, true]));
        assert!(!m.eval(f, &[false, true, false]));
        assert!(m.eval(f, &[false, false, true]));
    }

    #[test]
    fn leq_detects_containment() {
        let (mut m, a, b, _) = setup();
        let ab = m.and(a, b).unwrap();
        let aorb = m.or(a, b).unwrap();
        assert!(m.leq(ab, a).unwrap());
        assert!(m.leq(a, aorb).unwrap());
        assert!(!m.leq(aorb, ab).unwrap());
    }

    #[test]
    fn complement_edges_shared_structure() {
        // f and !f must share every node (complement edges!).
        let (mut m, a, b, c) = setup();
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, c).unwrap();
        let before = m.arena_size();
        let _nf = f.complement();
        assert_eq!(m.arena_size(), before);
    }

    #[test]
    fn cache_hit_on_symmetric_calls() {
        let (mut m, a, b, _) = setup();
        let x = m.and(a, b).unwrap();
        let y = m.and(b, a).unwrap();
        assert_eq!(x, y);
    }
}
