//! Structural queries: node counts and support.
//!
//! The walks mark what they reach in a thread-local [`VisitMarks`]: no
//! hash per node, and no arena-sized allocation per call, so a walk costs
//! the nodes it reaches. The marks hold no result between calls, so the
//! answers cannot depend on which thread or in which order they run.

use std::cell::RefCell;

use crate::edge::{Edge, Var};
use crate::manager::Manager;
use crate::marks::VisitMarks;

/// Scratch for one walk: the visited marks (by arena index) and the
/// DFS stack, both kept to reuse their capacity.
#[derive(Default)]
struct Walk {
    marks: VisitMarks,
    stack: Vec<u32>,
}

thread_local! {
    static WALK: RefCell<Walk> = RefCell::new(Walk::default());
}

impl Manager {
    /// Runs `visit` once on each distinct arena index reachable from
    /// `roots` (the terminal, index 0, included when reached).
    fn walk_nodes(&self, roots: &[Edge], mut visit: impl FnMut(u32)) {
        let mut run = |w: &mut Walk| {
            w.marks.begin(self.nodes.len());
            w.stack.clear();
            for &r in roots {
                if w.marks.insert(r.node() as usize) {
                    w.stack.push(r.node());
                }
            }
            while let Some(idx) = w.stack.pop() {
                visit(idx);
                if idx == 0 {
                    continue;
                }
                let n = &self.nodes[idx as usize];
                for child in [n.high.node(), n.low.node()] {
                    if w.marks.insert(child as usize) {
                        w.stack.push(child);
                    }
                }
            }
        };
        WALK.with(|cell| match cell.try_borrow_mut() {
            Ok(mut w) => run(&mut w),
            // Only a walk started from inside `visit` gets here; none does.
            Err(_) => run(&mut Walk::default()),
        });
    }

    /// Number of distinct nodes (including the terminal) in the shared
    /// graph of `roots`. This is the cost function used throughout the BDS
    /// flow ("the number of BDD nodes … instead of the literal count",
    /// paper §IV-B).
    pub fn count_nodes(&self, roots: &[Edge]) -> usize {
        let mut count = 0;
        self.walk_nodes(roots, |_| count += 1);
        count
    }

    /// Convenience for a single root: `count_nodes(&[e])`.
    pub fn size(&self, e: Edge) -> usize {
        self.count_nodes(&[e])
    }

    /// The support of `e`: every variable the function depends on,
    /// ordered by current level (topmost first).
    pub fn support(&self, e: Edge) -> Vec<Var> {
        self.support_of(&[e])
    }

    /// Combined support of several functions, ordered by level.
    pub fn support_of(&self, roots: &[Edge]) -> Vec<Var> {
        let mut levels: Vec<u32> = Vec::new();
        self.walk_nodes(roots, |idx| {
            if idx != 0 {
                levels.push(self.nodes[idx as usize].level);
            }
        });
        levels.sort_unstable();
        levels.dedup();
        levels.into_iter().map(|l| self.var_at(l)).collect()
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
}
