//! Structural queries: node counts, support, satisfy/path counts.

use std::collections::HashSet;

use crate::edge::{Edge, Var};
use crate::hash::FastBuild;
use crate::manager::Manager;

impl Manager {
    /// Number of distinct nodes (including the terminal) in the shared
    /// graph of `roots`. This is the cost function used throughout the BDS
    /// flow ("the number of BDD nodes … instead of the literal count",
    /// paper §IV-B).
    pub fn count_nodes(&self, roots: &[Edge]) -> usize {
        let mut seen = HashSet::<u32, FastBuild>::default();
        let mut stack: Vec<u32> = roots.iter().map(|e| e.node()).collect();
        while let Some(idx) = stack.pop() {
            if !seen.insert(idx) {
                continue;
            }
            if idx == 0 {
                continue;
            }
            let n = &self.nodes[idx as usize];
            stack.push(n.high.node());
            stack.push(n.low.node());
        }
        seen.len()
    }

    /// Convenience for a single root: `count_nodes(&[e])`.
    pub fn size(&self, e: Edge) -> usize {
        self.count_nodes(&[e])
    }

    /// The support of `e`: every variable the function depends on,
    /// ordered by current level (topmost first).
    pub fn support(&self, e: Edge) -> Vec<Var> {
        let mut levels = HashSet::<u32, FastBuild>::default();
        let mut seen = HashSet::<u32, FastBuild>::default();
        let mut stack = vec![e.node()];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let n = &self.nodes[idx as usize];
            levels.insert(n.level);
            stack.push(n.high.node());
            stack.push(n.low.node());
        }
        // Hash order cannot leak: the levels are sorted just below.
        let mut lv: Vec<u32> = levels.into_iter().collect();
        lv.sort_unstable();
        lv.into_iter().map(|l| self.var_at(l)).collect()
    }

    /// Combined support of several functions, ordered by level.
    pub fn support_of(&self, roots: &[Edge]) -> Vec<Var> {
        let mut set = HashSet::<Var, FastBuild>::default();
        for &r in roots {
            set.extend(self.support(r));
        }
        // Hash order cannot leak: sorted by level (unique per var) below.
        let mut v: Vec<Var> = set.into_iter().collect();
        v.sort_by_key(|&var| self.level_of(var));
        v
    }

    /// Number of satisfying assignments over `nvars` variables, as `f64`
    /// (exact for < 2⁵³).
    pub fn sat_count(&self, e: Edge, nvars: usize) -> f64 {
        fn rec(m: &Manager, e: Edge, memo: &mut std::collections::HashMap<Edge, f64>) -> f64 {
            // Fraction of the full space that satisfies e.
            if e.is_one() {
                return 1.0;
            }
            if e.is_zero() {
                return 0.0;
            }
            if let Some(&r) = memo.get(&e) {
                return r;
            }
            #[expect(clippy::expect_used, reason = "guarded: e is non-constant here")]
            let (_, t, el) = m.node(e).expect("non-const");
            let r = 0.5 * rec(m, t, memo) + 0.5 * rec(m, el, memo);
            memo.insert(e, r);
            r
        }
        let mut memo = std::collections::HashMap::new();
        #[expect(clippy::cast_precision_loss, reason = "nvars is far below 2^52")]
        let scale = (nvars as f64).exp2();
        rec(self, e, &mut memo) * scale
    }

    /// Returns `(one_paths, zero_paths)`: the number of paths from `e` to
    /// the 1- and 0-terminal in the complement-edge-resolved view of the
    /// graph. Saturates at `u64::MAX`.
    ///
    /// Path counts drive the dominator searches of the decomposition
    /// engine (paper §III-A, Theorem 1 context).
    pub fn count_paths(&self, e: Edge) -> (u64, u64) {
        let mut memo = std::collections::HashMap::new();
        self.count_paths_rec(e, &mut memo)
    }

    fn count_paths_rec(
        &self,
        e: Edge,
        memo: &mut std::collections::HashMap<Edge, (u64, u64)>,
    ) -> (u64, u64) {
        if e.is_one() {
            return (1, 0);
        }
        if e.is_zero() {
            return (0, 1);
        }
        if let Some(&r) = memo.get(&e) {
            return r;
        }
        #[expect(clippy::expect_used, reason = "guarded: e is non-constant here")]
        let (_, t, el) = self.node(e).expect("non-const");
        let (t1, t0) = self.count_paths_rec(t, memo);
        let (e1, e0) = self.count_paths_rec(el, memo);
        let r = (t1.saturating_add(e1), t0.saturating_add(e0));
        memo.insert(e, r);
        r
    }

    /// True iff the function depends on `var`.
    pub fn depends_on(&self, e: Edge, var: Var) -> bool {
        let lvl = self.level_of(var);
        let mut seen = HashSet::<u32, FastBuild>::default();
        let mut stack = vec![e.node()];
        while let Some(idx) = stack.pop() {
            if idx == 0 || !seen.insert(idx) {
                continue;
            }
            let n = &self.nodes[idx as usize];
            if n.level == lvl {
                return true;
            }
            if n.level < lvl {
                stack.push(n.high.node());
                stack.push(n.low.node());
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::{Edge, Manager};

    #[test]
    fn size_and_support() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let f = m.or(ab, lits[2]).unwrap();
        assert_eq!(m.support(f), vars);
        assert_eq!(m.size(f), 4); // 3 decision nodes + terminal
        assert_eq!(m.size(Edge::ONE), 1);
        assert!(m.depends_on(f, vars[0]));
        let g = lits[2];
        assert!(!m.depends_on(g, vars[0]));
    }

    #[test]
    fn shared_count_is_not_a_sum() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let f = m.and(la, lb).unwrap();
        let g = m.or(la, lb).unwrap();
        let both = m.count_nodes(&[f, g]);
        assert!(both < m.size(f) + m.size(g));
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let f = m.or(ab, lits[2]).unwrap(); // a·b + c : 5 minterms of 8
        assert_eq!(m.sat_count(f, 3), 5.0);
        assert_eq!(m.sat_count(Edge::ONE, 3), 8.0);
        assert_eq!(m.sat_count(Edge::ZERO, 3), 0.0);
    }

    #[test]
    fn path_counts() {
        let mut m = Manager::new();
        let vars = m.new_vars(2);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let f = m.and(la, lb).unwrap();
        // Paths: a=1,b=1 → 1 ; a=0 → 0 ; a=1,b=0 → 0.
        assert_eq!(m.count_paths(f), (1, 2));
        let g = m.xor(la, lb).unwrap();
        assert_eq!(m.count_paths(g), (2, 2));
    }
}
