//! The swap table: a private copy of a live BDD graph that moves
//! variables by Rudell's in-place adjacent-level swap.
//!
//! [`crate::reorder::sift`] uses it only to *size* candidate orders, and
//! a sweep stops where a lower bound shows that no further order can
//! beat a given size ([`SwapTable::sweep`]). A
//! reduced ordered BDD with complement edges has one canonical shape per
//! variable order, so the table's live node count after any sequence of
//! swaps equals `count_nodes` of a rebuild under the same order. Every
//! manager sift returns is still produced by a rebuild; the table never
//! hands out a graph.
//!
//! Layout: one node list and one unique map per level, reference counts
//! on every decision node, and the manager's complement-edge convention
//! (the then-edge is never complemented). A swap of levels `i` and
//! `i + 1` touches only the nodes of those two levels.

use crate::edge::{Edge, Var};
use crate::error::BddError;
use crate::hash::FastMap;
use crate::manager::Manager;
use crate::Result;

/// Variable label of the terminal node.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Copy, Clone, Debug)]
struct Node {
    /// Variable index (not level: swaps move levels, labels stay).
    var: u32,
    high: Edge,
    low: Edge,
    /// Parents plus root references; a node at 0 is dead.
    refs: u32,
}

/// The nodes of one level: their list and their hash-cons map.
#[derive(Default, Debug)]
struct Level {
    nodes: Vec<u32>,
    unique: FastMap<u64, u32>,
}

fn key(high: Edge, low: Edge) -> u64 {
    u64::from(high.raw()) << 32 | u64::from(low.raw())
}

/// What a [`SwapTable::sweep`] learnt about one level of its variable.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The table's size with the variable at this level.
    Size(usize),
    /// Not reached: the sweep stopped at a move past the node cap.
    PastCap,
    /// Not reached: every order with the variable here has at least this
    /// many nodes, which is no fewer than the sweep's bound.
    AtLeast(usize),
}

/// A reference-counted copy of the graph of some roots, reordered in
/// place by adjacent swaps.
#[derive(Debug)]
pub(crate) struct SwapTable {
    /// `nodes[0]` is the terminal.
    nodes: Vec<Node>,
    /// Slots of freed nodes, reused before the arena grows.
    free: Vec<u32>,
    levels: Vec<Level>,
    var_at_level: Vec<u32>,
    level_of_var: Vec<u32>,
    /// Live decision nodes.
    live: usize,
    /// Whether the roots reach the terminal (they do unless there are
    /// none), so that [`SwapTable::size`] counts like `count_nodes`.
    terminal: bool,
    /// Adjacent swaps performed so far.
    swaps: u64,
}

impl SwapTable {
    /// Copies the graph of `roots` out of `m`, under `m`'s order.
    pub(crate) fn new(m: &Manager, roots: &[Edge]) -> Self {
        let mut t = SwapTable {
            nodes: vec![Node {
                var: TERMINAL_VAR,
                high: Edge::ONE,
                low: Edge::ONE,
                refs: 0,
            }],
            free: Vec::new(),
            levels: (0..m.var_count()).map(|_| Level::default()).collect(),
            var_at_level: m.var_at_level.clone(),
            level_of_var: m.level_of_var.clone(),
            live: 0,
            terminal: !roots.is_empty(),
            swaps: 0,
        };
        // Manager node index → table node index (0: not copied yet; the
        // terminal maps to itself).
        let mut copied = vec![0u32; m.arena_size()];
        for &r in roots {
            let e = t.copy(m, r, &mut copied);
            t.add_ref(e);
        }
        t
    }

    fn copy(&mut self, m: &Manager, e: Edge, copied: &mut [u32]) -> Edge {
        let src = e.node();
        if src == 0 {
            return e;
        }
        if copied[src as usize] == 0 {
            let n = m.nodes[src as usize];
            let high = self.copy(m, n.high, copied);
            let low = self.copy(m, n.low, copied);
            let level = n.level as usize;
            let var = self.var_at_level[level];
            let idx = self.alloc(var, high, low);
            self.levels[level].nodes.push(idx);
            self.levels[level].unique.insert(key(high, low), idx);
            copied[src as usize] = idx;
        }
        Edge::new(copied[src as usize], e.is_complemented())
    }

    /// Live node count, counted like [`Manager::count_nodes`] (terminal
    /// included).
    pub(crate) fn size(&self) -> usize {
        self.live + usize::from(self.terminal)
    }

    /// Adjacent swaps performed since the table was built.
    pub(crate) fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Current level of `var`.
    pub(crate) fn level_of(&self, var: Var) -> usize {
        self.level_of_var[var.index()] as usize
    }

    /// The variables with at least one node, topmost first, each with
    /// its node count: the support and the level populations of the
    /// roots.
    pub(crate) fn populations(&self) -> Vec<(Var, usize)> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.nodes.is_empty())
            .map(|(level, l)| (Var(self.var_at_level[level]), l.nodes.len()))
            .collect()
    }

    /// Moves `var` one level at a time to `level`.
    pub(crate) fn move_to(&mut self, var: Var, level: usize) {
        while self.level_of(var) < level {
            self.swap(self.level_of(var));
        }
        while self.level_of(var) > level {
            self.swap(self.level_of(var) - 1);
        }
    }

    /// Sweeps `var` to both ends of the order (the nearer end first) and
    /// reports every level: the table size where it reached it, else why
    /// it stopped short. A move that takes the size past `cap` is undone
    /// at once, so the table holds more than `cap` nodes only for the
    /// span of one swap. The variable is left at one end of its reach.
    ///
    /// The lower bound: moving `var` down from level `at` never changes
    /// the levels above `at` again, and every support variable at or
    /// below `at` keeps a node, so every further level costs at least the
    /// nodes above `at`, one per such variable, and the terminal (up is
    /// the mirror image). A direction stops once that reaches `bound`.
    pub(crate) fn sweep(&mut self, var: Var, cap: usize, bound: usize) -> Vec<Probe> {
        let n = self.var_at_level.len();
        let start = self.level_of(var);
        let mut sizes = vec![Probe::PastCap; n];
        sizes[start] = Probe::Size(self.size());
        let support = self.levels.iter().filter(|l| !l.nodes.is_empty()).count();
        let down_first = n - 1 - start < start;
        for down in [down_first, !down_first] {
            self.move_to(var, start);
            // Nodes and support variables on the side `var` leaves behind.
            let side = if down {
                &self.levels[..start]
            } else {
                &self.levels[start + 1..]
            };
            let mut nodes: usize = side.iter().map(|l| l.nodes.len()).sum();
            let mut vars = side.iter().filter(|l| !l.nodes.is_empty()).count();
            loop {
                let at = self.level_of(var);
                let (upper, next, rest) = match down {
                    true if at + 1 < n => (at, at + 1, at + 1..n),
                    false if at > 0 => (at - 1, at - 1, 0..at),
                    _ => break,
                };
                let least = nodes + support - vars + usize::from(self.terminal);
                if least >= bound {
                    sizes[rest].fill(Probe::AtLeast(least));
                    break;
                }
                self.swap(upper);
                if self.size() > cap {
                    self.swap(upper);
                    break;
                }
                sizes[next] = Probe::Size(self.size());
                let left = &self.levels[at];
                nodes += left.nodes.len();
                vars += usize::from(!left.nodes.is_empty());
            }
        }
        sizes
    }

    fn label(&self, e: Edge) -> u32 {
        self.nodes[e.node() as usize].var
    }

    fn add_ref(&mut self, e: Edge) {
        if !e.is_const() {
            self.nodes[e.node() as usize].refs += 1;
        }
    }

    fn alloc(&mut self, var: u32, high: Edge, low: Edge) -> u32 {
        self.add_ref(high);
        self.add_ref(low);
        self.live += 1;
        let node = Node {
            var,
            high,
            low,
            refs: 0,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// The two cofactors of `e` with respect to `var`, which labels
    /// `e`'s node or sits above it.
    fn cofactors(&self, e: Edge, var: u32) -> (Edge, Edge) {
        let n = self.nodes[e.node() as usize];
        if n.var == var {
            let c = e.is_complemented();
            (n.high.complement_if(c), n.low.complement_if(c))
        } else {
            (e, e)
        }
    }

    /// Finds or creates the node `(var, high, low)` in `level` and takes
    /// a reference to it for the caller.
    fn mk(&mut self, level: &mut Level, var: u32, high: Edge, low: Edge) -> Edge {
        if high == low {
            self.add_ref(high);
            return high;
        }
        let c = high.is_complemented();
        let (high, low) = (high.complement_if(c), low.complement_if(c));
        let idx = match level.unique.get(&key(high, low)) {
            Some(&idx) => idx,
            None => {
                let idx = self.alloc(var, high, low);
                level.nodes.push(idx);
                level.unique.insert(key(high, low), idx);
                idx
            }
        };
        self.nodes[idx as usize].refs += 1;
        Edge::new(idx, c)
    }

    /// Rudell's adjacent swap of the variables at levels `i` and `i + 1`.
    ///
    /// Each node of the upper variable `x` with a child labelled by the
    /// lower variable `y` is rewritten in place as a `y` node whose
    /// children are (new or shared) `x` nodes, so every edge into it
    /// keeps its function; `x` nodes without a `y` child just change
    /// level. `y` nodes left without parents die. Nothing below the two
    /// levels changes: a dead `y` node's children are the grandchildren
    /// that the new `x` nodes now point to.
    fn swap(&mut self, i: usize) {
        self.swaps += 1;
        let x = self.var_at_level[i];
        let y = self.var_at_level[i + 1];
        let upper = std::mem::take(&mut self.levels[i]);
        let mut lower = std::mem::take(&mut self.levels[i + 1]);
        let mut x_level = Level {
            nodes: Vec::with_capacity(upper.nodes.len()),
            unique: upper.unique,
        };
        let mut moved = Vec::new();
        for &f in &upper.nodes {
            let n = self.nodes[f as usize];
            if self.label(n.high) == y || self.label(n.low) == y {
                x_level.unique.remove(&key(n.high, n.low));
                moved.push(f);
            } else {
                x_level.nodes.push(f);
            }
        }
        for &f in &moved {
            let n = self.nodes[f as usize];
            let (f11, f10) = self.cofactors(n.high, y);
            let (f01, f00) = self.cofactors(n.low, y);
            let high = self.mk(&mut x_level, x, f11, f01);
            let low = self.mk(&mut x_level, x, f10, f00);
            debug_assert!(!high.is_complemented(), "then-cofactor of a then-edge");
            self.release(n.high);
            self.release(n.low);
            self.nodes[f as usize] = Node {
                var: y,
                high,
                low,
                ..self.nodes[f as usize]
            };
            lower.unique.insert(key(high, low), f);
        }
        let mut y_nodes = Vec::with_capacity(lower.nodes.len() + moved.len());
        for &g in &lower.nodes {
            let n = self.nodes[g as usize];
            if n.refs > 0 {
                y_nodes.push(g);
                continue;
            }
            lower.unique.remove(&key(n.high, n.low));
            self.release(n.high);
            self.release(n.low);
            debug_assert!(
                [n.high, n.low]
                    .iter()
                    .all(|e| e.is_const() || self.nodes[e.node() as usize].refs > 0),
                "a swap must not kill nodes below the swapped levels"
            );
            self.free.push(g);
            self.live -= 1;
        }
        y_nodes.extend(moved);
        self.levels[i] = Level {
            nodes: y_nodes,
            unique: lower.unique,
        };
        self.levels[i + 1] = x_level;
        self.var_at_level.swap(i, i + 1);
        self.level_of_var[x as usize] = (i + 1) as u32;
        self.level_of_var[y as usize] = i as u32;
    }

    /// Drops one reference; a node that reaches 0 is freed by the swap
    /// that owns its level.
    fn release(&mut self, e: Edge) {
        if !e.is_const() {
            self.nodes[e.node() as usize].refs -= 1;
        }
    }

    /// Checks the table against a manager holding the same roots under
    /// the same order: equal size and equal per-level node counts.
    ///
    /// # Errors
    /// [`BddError::InvariantViolation`] on any difference.
    pub(crate) fn check_against(&self, m: &Manager, roots: &[Edge]) -> Result<()> {
        let order: Vec<u32> = m.order().iter().map(|v| v.0).collect();
        let mut counts = vec![0usize; m.var_count()];
        let mut seen = vec![false; m.arena_size()];
        let mut stack: Vec<u32> = roots.iter().map(|e| e.node()).collect();
        while let Some(idx) = stack.pop() {
            if idx == 0 || std::mem::replace(&mut seen[idx as usize], true) {
                continue;
            }
            let n = m.nodes[idx as usize];
            counts[n.level as usize] += 1;
            stack.push(n.high.node());
            stack.push(n.low.node());
        }
        let table: Vec<usize> = self.levels.iter().map(|l| l.nodes.len()).collect();
        let size = m.count_nodes(roots);
        if order != self.var_at_level || counts != table || size != self.size() {
            return Err(BddError::InvariantViolation {
                detail: format!(
                    "swap table disagrees with its manager: size {} vs {size}, \
                     level counts {table:?} vs {counts:?}",
                    self.size()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::reorder;

    /// Σ aᵢ·bᵢ over three pairs with all a's above all b's, and
    /// a₀ ⊕ b₁ beside it.
    fn victim() -> (Manager, Vec<Edge>) {
        let mut m = Manager::new();
        let a = m.new_vars(3);
        let b = m.new_vars(3);
        let mut f = Edge::ZERO;
        for i in 0..3 {
            let (la, lb) = (m.literal(a[i], true), m.literal(b[i], true));
            let t = m.and(la, lb).unwrap();
            f = m.or(f, t).unwrap();
        }
        let (la, lb) = (m.literal(a[0], true), m.literal(b[1], true));
        let g = m.xor(la, lb).unwrap();
        (m, vec![f, g.complement(), Edge::ONE])
    }

    #[test]
    fn every_swap_matches_a_rebuild() {
        let (m, roots) = victim();
        let mut t = SwapTable::new(&m, &roots);
        t.check_against(&m, &roots).unwrap();
        let mut order = m.order();
        for &i in &[0usize, 2, 4, 3, 1, 0, 4, 2, 2, 1] {
            t.swap(i);
            order.swap(i, i + 1);
            let (m2, r2) = reorder(&m, &roots, &order).unwrap();
            t.check_against(&m2, &r2).unwrap();
        }
        assert_eq!(t.swaps(), 10);
    }

    /// `count_nodes` of a rebuild of `roots` with the variable at `from`
    /// moved to `to`.
    fn rebuilt_size(m: &Manager, roots: &[Edge], from: usize, to: usize) -> usize {
        let mut order = m.order();
        let v = order.remove(from);
        order.insert(to, v);
        let (m2, r2) = reorder(m, roots, &order).unwrap();
        m2.count_nodes(&r2)
    }

    #[test]
    fn sweep_reports_every_level_and_respects_the_cap() {
        let (m, roots) = victim();
        let f = roots[0];
        let mut t = SwapTable::new(&m, &[f]);
        let var = m.order()[2];
        // With no bound, every level is reached or past the cap.
        let sweep = |t: &mut SwapTable, cap| -> Vec<Option<usize>> {
            let sizes = t.sweep(var, cap, usize::MAX).into_iter();
            sizes
                .map(|p| match p {
                    Probe::Size(s) => Some(s),
                    Probe::PastCap => None,
                    Probe::AtLeast(_) => panic!("no bound was given"),
                })
                .collect()
        };
        let sizes = sweep(&mut t, usize::MAX);
        for (level, size) in sizes.iter().enumerate() {
            assert_eq!(
                *size,
                Some(rebuilt_size(&m, &[f], 2, level)),
                "level {level}"
            );
        }
        t.move_to(var, 2);
        t.check_against(&m, &[f]).unwrap();

        // Cap just below the largest size: that level and everything
        // beyond it in its direction go unvisited.
        let cap = sizes.iter().flatten().max().unwrap() - 1;
        let capped = sweep(&mut t, cap);
        assert!(capped.contains(&None));
        for (level, size) in capped.iter().enumerate() {
            match size {
                Some(s) => assert_eq!(Some(*s), sizes[level]),
                // Unvisited: some level from the start up to this one,
                // in its direction, is past the cap.
                None => {
                    let (lo, hi) = if level < 2 { (level, 1) } else { (3, level) };
                    assert!((lo..=hi).any(|k| sizes[k].unwrap() > cap), "level {level}");
                }
            }
        }
        t.move_to(var, 2);
        t.check_against(&m, &[f]).unwrap();
    }

    #[test]
    fn bounded_sweep_skips_only_levels_that_cannot_win() {
        let (m, roots) = victim();
        let mut t = SwapTable::new(&m, &roots);
        let mut pruned = 0;
        for start in 0..m.var_count() {
            let var = m.order()[start];
            let rebuilt: Vec<usize> = (0..m.var_count())
                .map(|level| rebuilt_size(&m, &roots, start, level))
                .collect();
            for bound in 1..=rebuilt.iter().max().unwrap() + 1 {
                let sizes = t.sweep(var, usize::MAX, bound);
                for (level, probe) in sizes.iter().enumerate() {
                    match *probe {
                        Probe::Size(s) => assert_eq!(s, rebuilt[level], "level {level}"),
                        Probe::AtLeast(least) => {
                            pruned += 1;
                            assert!(least >= bound, "level {level}: {least} < {bound}");
                            assert!(rebuilt[level] >= least, "level {level}: bound {least}");
                        }
                        Probe::PastCap => panic!("level {level}: the cap is unlimited"),
                    }
                }
                t.move_to(var, start);
                t.check_against(&m, &roots).unwrap();
            }
        }
        assert!(pruned > 0, "some bound must cut a sweep short");
    }
}
