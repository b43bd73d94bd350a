//! Satisfying-assignment extraction: witnesses, shortest cubes, and
//! minterm iteration.

use crate::cube::Cube;
use crate::edge::{Edge, Var};
use crate::manager::Manager;

impl Manager {
    /// Returns one satisfying assignment of `e` as a cube over its
    /// decision path (variables not mentioned are don't-cares), or
    /// `None` for the constant-false function.
    ///
    /// The witness follows the lexicographically-first 1-path, preferring
    /// the else-branch (so low-index minterm assignments come out first
    /// for typical orders).
    pub fn satisfy_one(&self, e: Edge) -> Option<Cube> {
        if e.is_zero() {
            return None;
        }
        let mut lits: Vec<(Var, bool)> = Vec::new();
        let mut cur = e;
        while !cur.is_const() {
            #[expect(clippy::expect_used, reason = "loop runs while cur is non-constant")]
            let (var, t, el) = self.node(cur).expect("non-const");
            // Prefer the branch that leads to 1; try else first.
            if !el.is_zero() {
                lits.push((var, false));
                cur = el;
            } else {
                lits.push((var, true));
                cur = t;
            }
        }
        debug_assert!(cur.is_one());
        Cube::from_lits(lits)
    }

    /// Returns the satisfying cube with the fewest literals among the
    /// BDD's **1-paths** (a shortest path to the 1-terminal), or `None`
    /// for constant false. Note that a path records every decision
    /// variable along it, so this is a large implicant of the function
    /// but not necessarily a prime.
    pub fn shortest_cube(&self, e: Edge) -> Option<Cube> {
        if e.is_zero() {
            return None;
        }
        // Dynamic programming on path length to 1.
        fn rec(
            m: &Manager,
            e: Edge,
            memo: &mut std::collections::HashMap<Edge, Option<Vec<(Var, bool)>>>,
        ) -> Option<Vec<(Var, bool)>> {
            if e.is_one() {
                return Some(Vec::new());
            }
            if e.is_zero() {
                return None;
            }
            if let Some(r) = memo.get(&e) {
                return r.clone();
            }
            #[expect(clippy::expect_used, reason = "guarded: e is non-constant here")]
            let (var, t, el) = m.node(e).expect("non-const");
            let a = rec(m, t, memo).map(|mut v| {
                v.push((var, true));
                v
            });
            let b = rec(m, el, memo).map(|mut v| {
                v.push((var, false));
                v
            });
            let best = match (a, b) {
                (Some(x), Some(y)) => Some(if x.len() <= y.len() { x } else { y }),
                (x, y) => x.or(y),
            };
            memo.insert(e, best.clone());
            best
        }
        let mut memo = std::collections::HashMap::new();
        let lits = rec(self, e, &mut memo)?;
        Cube::from_lits(lits)
    }

    /// Iterates all satisfying cubes (the 1-paths) of `e`, for small
    /// functions. The cubes are disjoint and cover exactly the ON-set.
    pub fn one_paths(&self, e: Edge) -> Vec<Cube> {
        let mut out = Vec::new();
        let mut prefix: Vec<(Var, bool)> = Vec::new();
        self.one_paths_rec(e, &mut prefix, &mut out);
        out
    }

    fn one_paths_rec(&self, e: Edge, prefix: &mut Vec<(Var, bool)>, out: &mut Vec<Cube>) {
        if e.is_one() {
            #[expect(clippy::expect_used, reason = "a BDD path never repeats a variable")]
            out.push(Cube::from_lits(prefix.clone()).expect("path literals are consistent"));
            return;
        }
        if e.is_zero() {
            return;
        }
        #[expect(clippy::expect_used, reason = "guarded: constants are handled above")]
        let (var, t, el) = self.node(e).expect("non-const");
        prefix.push((var, true));
        self.one_paths_rec(t, prefix, out);
        prefix.pop();
        prefix.push((var, false));
        self.one_paths_rec(el, prefix, out);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfy_one_is_satisfying() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let ab = m.and(lits[0], lits[1]).unwrap();
        let cd = m.and(lits[2].complement(), lits[3]).unwrap();
        let f = m.or(ab, cd).unwrap();
        let cube = m.satisfy_one(f).expect("satisfiable");
        // Extend the cube to a full assignment (don't-cares to false).
        let mut assign = vec![false; 4];
        for &(v, p) in cube.literals() {
            assign[v.index()] = p;
        }
        assert!(m.eval(f, &assign), "witness must satisfy the function");
        assert!(m.satisfy_one(Edge::ZERO).is_none());
        assert!(m.satisfy_one(Edge::ONE).expect("const true").is_empty());
    }

    #[test]
    fn shortest_cube_is_minimal() {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        // f = a·b·c + d: the shortest 1-path is ā·d (paths record every
        // decision on the way; a is decided at the root).
        let abc1 = m.and(lits[0], lits[1]).unwrap();
        let abc = m.and(abc1, lits[2]).unwrap();
        let f = m.or(abc, lits[3]).unwrap();
        let cube = m.shortest_cube(f).expect("satisfiable");
        assert_eq!(cube.len(), 2, "shortest 1-path is ā·d: {cube}");
        // It must satisfy f when extended arbitrarily.
        let mut assign = vec![false; 4];
        for &(v, p) in cube.literals() {
            assign[v.index()] = p;
        }
        assert!(m.eval(f, &assign));
        // And it must be no longer than any other 1-path.
        let all = m.one_paths(f);
        let min = all.iter().map(Cube::len).min().unwrap();
        assert_eq!(cube.len(), min);
    }

    #[test]
    fn one_paths_cover_exactly() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let lits: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        let x = m.xor(lits[0], lits[1]).unwrap();
        let f = m.or(x, lits[2]).unwrap();
        let cubes = m.one_paths(f);
        // Disjoint cover: per assignment exactly ON(f) matches ≥1 cube.
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let covered = cubes.iter().filter(|c| c.eval(&assign)).count();
            if m.eval(f, &assign) {
                assert_eq!(covered, 1, "1-paths are disjoint and exhaustive");
            } else {
                assert_eq!(covered, 0);
            }
        }
    }
}
