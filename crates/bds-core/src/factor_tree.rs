//! Factoring trees — the output of BDD decomposition (paper §IV-C).
//!
//! "Factoring trees are constructed along with the BDD decomposition as a
//! means to record the result of the decomposition." A [`FactorForest`]
//! is an arena of operator nodes shared by every output of a supernode
//! (or, in global mode, every primary output), so common sub-functions
//! are stored once — the substrate for sharing extraction (§IV-C,
//! Fig. 13/14).
//!
//! References ([`FactorRef`]) carry a complement bit, mirroring BDD
//! complement edges: `!t` costs nothing and inverters materialize only at
//! network-emission time.

use std::collections::BinaryHeap;
use std::fmt;

use bds_bdd::Var;
use bds_sop::Cube;

/// Index of a node within a [`FactorForest`] plus a complement flag.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FactorRef {
    pub(crate) id: u32,
    pub(crate) complement: bool,
}

impl FactorRef {
    /// The complemented reference (free, like a BDD complement edge).
    pub fn complement(self) -> FactorRef {
        FactorRef {
            id: self.id,
            complement: !self.complement,
        }
    }

    /// Complements iff `c`.
    pub fn complement_if(self, c: bool) -> FactorRef {
        FactorRef {
            id: self.id,
            complement: self.complement ^ c,
        }
    }

    /// True if this reference carries the complement attribute.
    pub fn is_complemented(self) -> bool {
        self.complement
    }

    /// The arena index.
    pub fn id(self) -> usize {
        self.id as usize
    }
}

/// An operator node in a factoring tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FactorNode {
    /// Constant true (reference it complemented for false).
    One,
    /// A single input literal.
    Literal(Var),
    /// Conjunction of two sub-trees.
    And(FactorRef, FactorRef),
    /// Disjunction of two sub-trees.
    Or(FactorRef, FactorRef),
    /// Equivalence (XNOR) of two sub-trees.
    Xnor(FactorRef, FactorRef),
    /// Multiplexer: `ite(sel, hi, lo)`.
    Mux {
        /// The control sub-tree.
        sel: FactorRef,
        /// Selected when the control is 1.
        hi: FactorRef,
        /// Selected when the control is 0.
        lo: FactorRef,
    },
    /// A small two-level leaf: sum of cubes whose positions are manager
    /// variable indices, in ISOP order (emitted for functions below the
    /// decomposition threshold).
    Leaf(Vec<Cube>),
}

/// Arena of factoring-tree nodes shared across the outputs of one
/// decomposition run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactorForest {
    nodes: Vec<FactorNode>,
}

impl FactorForest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        FactorForest { nodes: Vec::new() }
    }

    /// Adds a node and returns a positive reference to it.
    pub fn push(&mut self, node: FactorNode) -> FactorRef {
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        FactorRef {
            id,
            complement: false,
        }
    }

    /// The node a reference points at (ignoring its complement flag).
    pub fn node(&self, r: FactorRef) -> &FactorNode {
        &self.nodes[r.id()]
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Counts literal leaves reachable from `root` (shared sub-trees are
    /// counted once — the factored-form cost of the forest slice).
    pub fn literal_count(&self, root: FactorRef) -> usize {
        let mut count = 0;
        self.walk(&[root], |node| match node {
            FactorNode::Literal(_) => count += 1,
            FactorNode::Leaf(cubes) => count += cubes.iter().map(Cube::len).sum::<usize>(),
            _ => {}
        });
        count
    }

    /// Runs `visit` once on each node reachable from `roots`, touching
    /// only those nodes. Operands are always pushed before the nodes that
    /// use them, so a node's id exceeds its operands': taking pending ids
    /// largest first meets every pending copy of an id in a row, once
    /// all the nodes that reach it have been visited.
    fn walk(&self, roots: &[FactorRef], mut visit: impl FnMut(&FactorNode)) {
        let mut pending: BinaryHeap<u32> = roots.iter().map(|r| r.id).collect();
        let mut last = None;
        while let Some(id) = pending.pop() {
            if last.replace(id) == Some(id) {
                continue;
            }
            let node = &self.nodes[id as usize];
            visit(node);
            match node {
                FactorNode::One | FactorNode::Literal(_) | FactorNode::Leaf(_) => {}
                FactorNode::And(a, b) | FactorNode::Or(a, b) | FactorNode::Xnor(a, b) => {
                    pending.extend([a.id, b.id]);
                }
                FactorNode::Mux { sel, hi, lo } => pending.extend([sel.id, hi.id, lo.id]),
            }
        }
    }

    /// Evaluates `root` under a total assignment indexed by variable.
    pub fn eval(&self, root: FactorRef, assignment: &[bool]) -> bool {
        let v = match self.node(root) {
            FactorNode::One => true,
            FactorNode::Literal(var) => assignment[var.index()],
            FactorNode::And(a, b) => self.eval(*a, assignment) && self.eval(*b, assignment),
            FactorNode::Or(a, b) => self.eval(*a, assignment) || self.eval(*b, assignment),
            FactorNode::Xnor(a, b) => self.eval(*a, assignment) == self.eval(*b, assignment),
            FactorNode::Mux { sel, hi, lo } => {
                if self.eval(*sel, assignment) {
                    self.eval(*hi, assignment)
                } else {
                    self.eval(*lo, assignment)
                }
            }
            FactorNode::Leaf(cubes) => cubes.iter().any(|c| c.eval(assignment)),
        };
        v ^ root.is_complemented()
    }

    /// Renders `root` as a human-readable expression using the variable
    /// names of `mgr`.
    pub fn display(&self, root: FactorRef, mgr: &bds_bdd::Manager) -> String {
        let mut s = String::new();
        self.fmt_rec(root, mgr, &mut s);
        s
    }

    fn fmt_rec(&self, r: FactorRef, mgr: &bds_bdd::Manager, out: &mut String) {
        use fmt::Write as _;
        if r.is_complemented() {
            out.push('!');
        }
        match self.node(r) {
            FactorNode::One => out.push('1'),
            FactorNode::Literal(v) => {
                let _ = write!(out, "{}", mgr.var_name(*v));
            }
            FactorNode::And(a, b) => {
                out.push('(');
                self.fmt_rec(*a, mgr, out);
                out.push('·');
                self.fmt_rec(*b, mgr, out);
                out.push(')');
            }
            FactorNode::Or(a, b) => {
                out.push('(');
                self.fmt_rec(*a, mgr, out);
                out.push_str(" + ");
                self.fmt_rec(*b, mgr, out);
                out.push(')');
            }
            FactorNode::Xnor(a, b) => {
                out.push('(');
                self.fmt_rec(*a, mgr, out);
                out.push_str(" ⊙ ");
                self.fmt_rec(*b, mgr, out);
                out.push(')');
            }
            FactorNode::Mux { sel, hi, lo } => {
                out.push_str("mux(");
                self.fmt_rec(*sel, mgr, out);
                out.push_str(", ");
                self.fmt_rec(*hi, mgr, out);
                out.push_str(", ");
                self.fmt_rec(*lo, mgr, out);
                out.push(')');
            }
            FactorNode::Leaf(cubes) => {
                out.push('[');
                for (i, c) in cubes.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    if c.is_empty() {
                        out.push('1');
                    }
                    for (j, &(v, p)) in c.literals().iter().enumerate() {
                        let sep = if j > 0 { "·" } else { "" };
                        let _ = write!(out, "{sep}{}v{v}", if p { "" } else { "!" });
                    }
                }
                out.push(']');
            }
        }
    }

    /// Count of structural gate nodes (And/Or/Xnor/Mux) reachable from
    /// the given roots, shared nodes counted once.
    pub fn gate_count(&self, roots: &[FactorRef]) -> usize {
        let mut count = 0;
        self.walk(roots, |node| {
            if !matches!(node, FactorNode::One | FactorNode::Literal(_)) {
                count += 1;
            }
        });
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_and_complement() {
        let mut f = FactorForest::new();
        let a = f.push(FactorNode::Literal(Var::from_index(0)));
        let b = f.push(FactorNode::Literal(Var::from_index(1)));
        let and = f.push(FactorNode::And(a, b));
        let or = f.push(FactorNode::Or(a, b.complement()));
        assert!(f.eval(and, &[true, true]));
        assert!(!f.eval(and, &[true, false]));
        assert!(f.eval(and.complement(), &[true, false]));
        assert!(f.eval(or, &[false, false]));
        let x = f.push(FactorNode::Xnor(a, b));
        assert!(f.eval(x, &[true, true]));
        assert!(!f.eval(x, &[true, false]));
        let m = f.push(FactorNode::Mux {
            sel: a,
            hi: b,
            lo: b.complement(),
        });
        assert!(f.eval(m, &[true, true]));
        assert!(!f.eval(m, &[true, false]));
        assert!(f.eval(m, &[false, false]));
    }

    #[test]
    fn shared_literals_counted_once() {
        let mut f = FactorForest::new();
        let a = f.push(FactorNode::Literal(Var::from_index(0)));
        let b = f.push(FactorNode::Literal(Var::from_index(1)));
        let and = f.push(FactorNode::And(a, b));
        let or = f.push(FactorNode::Or(a, b));
        let top = f.push(FactorNode::Xnor(and, or));
        assert_eq!(f.literal_count(top), 2, "a and b shared below both gates");
        assert_eq!(f.gate_count(&[top]), 3);
    }

    #[test]
    fn display_names_variables() {
        let mut mgr = bds_bdd::Manager::new();
        let va = mgr.new_var("alpha");
        let mut f = FactorForest::new();
        let a = f.push(FactorNode::Literal(va));
        let one = f.push(FactorNode::One);
        let and = f.push(FactorNode::And(a.complement(), one));
        let s = f.display(and, &mgr);
        assert!(s.contains("alpha"));
        assert!(s.contains('!'));
        let leaf = f.push(FactorNode::Leaf(vec![
            Cube::parse(&[(0, true), (2, false)]),
            Cube::one(),
        ]));
        assert_eq!(f.display(leaf, &mgr), "[v0·!v2 + 1]");
    }
}
