//! The BDD manager: node arena, unique table, variable order.

use crate::edge::{Edge, Var};
use crate::error::BddError;
use crate::hash::FastMap;
use crate::nid::{IteKey, UniqueKey};
use crate::stats::OpStats;
use crate::Result;

/// Level of the terminal node — below every variable.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

#[derive(Copy, Clone, Debug)]
pub(crate) struct Node {
    /// Position of this node's variable in the current order.
    pub level: u32,
    /// Then-child; never complemented (canonical-form invariant).
    pub high: Edge,
    /// Else-child; may be complemented.
    pub low: Edge,
}

/// A BDD manager: owns the node arena, the unique table and the variable
/// order, and provides all Boolean operations.
///
/// Edges ([`Edge`]) are only meaningful with the manager that created them.
/// See the [crate docs](crate) for the canonical-form invariants.
///
/// # Example
///
/// ```
/// use bds_bdd::Manager;
/// # fn main() -> Result<(), bds_bdd::BddError> {
/// let mut m = Manager::new();
/// let x = m.new_var("x");
/// let lx = m.literal(x, true);
/// let f = m.xor(lx, bds_bdd::Edge::ONE)?; // x ⊕ 1 = !x
/// assert_eq!(f, m.literal(x, false));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Manager {
    pub(crate) nodes: Vec<Node>,
    /// Hash-cons table: packed `(level, high, low)` key → node index.
    pub(crate) unique: FastMap<UniqueKey, u32>,
    /// ITE computed table: packed canonical `(f, g, h)` key → result.
    pub(crate) ite_cache: FastMap<IteKey, Edge>,
    pub(crate) var_names: Vec<String>,
    /// var index -> level.
    pub(crate) level_of_var: Vec<u32>,
    /// level -> var index.
    pub(crate) var_at_level: Vec<u32>,
    node_limit: usize,
    /// Deterministic effort ticks consumed so far (see `budget.rs`).
    pub(crate) effort_spent: u64,
    /// Effort tick ceiling; `u64::MAX` means unbudgeted.
    pub(crate) effort_limit: u64,
    /// Armed fault injection: `(fault, absolute trip tick)`. Fires once.
    pub(crate) armed_fault: Option<(crate::budget::Fault, u64)>,
    /// Lifetime operation counters (see [`crate::OpStats`]).
    pub(crate) ops: OpStats,
}

impl Manager {
    /// Creates an empty manager with no variables and no node limit.
    pub fn new() -> Self {
        Manager::with_node_limit(usize::MAX)
    }

    /// Creates a manager that fails with [`BddError::NodeLimit`] once its
    /// arena would exceed `limit` live nodes.
    ///
    /// This is the back-pressure mechanism used by the `eliminate`
    /// procedure of `bds-network` to abandon collapses that would blow up.
    pub fn with_node_limit(limit: usize) -> Self {
        Manager {
            // nodes[0] is the terminal.
            nodes: vec![Node {
                level: TERMINAL_LEVEL,
                high: Edge::ONE,
                low: Edge::ONE,
            }],
            unique: FastMap::default(),
            ite_cache: FastMap::default(),
            var_names: Vec::new(),
            level_of_var: Vec::new(),
            var_at_level: Vec::new(),
            node_limit: limit,
            effort_spent: 0,
            effort_limit: u64::MAX,
            armed_fault: None,
            ops: OpStats::default(),
        }
    }

    /// Makes room for `nodes` more nodes in the arena and for as many
    /// entries in the unique and computed tables, so that a build of
    /// about that size does not rehash them on the way. Changes no
    /// result, counter or node number.
    pub fn reserve(&mut self, nodes: usize) {
        self.nodes.reserve(nodes);
        self.unique.reserve(nodes);
        self.ite_cache.reserve(nodes);
    }

    /// Returns the configured node limit (`usize::MAX` when unlimited).
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Changes the node limit. Lowering it below the current arena size
    /// causes the *next* node creation to fail, not this call.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Total number of nodes ever created in this manager (arena size,
    /// including the terminal). This is the quantity bounded by the node
    /// limit and the natural "memory" proxy for experiments.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Appends a fresh variable at the bottom of the order.
    pub fn new_var(&mut self, name: impl Into<String>) -> Var {
        let idx = self.var_names.len() as u32;
        self.var_names.push(name.into());
        self.level_of_var.push(idx);
        self.var_at_level.push(idx);
        Var(idx)
    }

    /// Creates `n` fresh anonymous variables (`x0`, `x1`, …) and returns
    /// their handles in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|i| self.new_var(format!("x{i}"))).collect()
    }

    /// Number of variables known to the manager.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// The name given to `var` at creation.
    ///
    /// # Panics
    /// Panics if `var` does not belong to this manager.
    pub fn var_name(&self, var: Var) -> &str {
        &self.var_names[var.index()]
    }

    /// Current level (position in the order, 0 = topmost) of `var`.
    pub fn level_of(&self, var: Var) -> u32 {
        self.level_of_var[var.index()]
    }

    /// The variable currently sitting at `level`.
    pub fn var_at(&self, level: u32) -> Var {
        Var(self.var_at_level[level as usize])
    }

    /// The current variable order, topmost first.
    pub fn order(&self) -> Vec<Var> {
        self.var_at_level.iter().map(|&v| Var(v)).collect()
    }

    /// Replaces the variable order wholesale. Only permitted while the
    /// manager holds no decision nodes (used by `reorder` to preserve
    /// variable identity across a rebuild).
    ///
    /// `order` must be a permutation of all variables; this is the
    /// caller's responsibility (checked upstream in `reorder`).
    pub(crate) fn set_order(&mut self, order: &[Var]) {
        debug_assert_eq!(self.nodes.len(), 1, "set_order requires an empty arena");
        debug_assert_eq!(order.len(), self.var_names.len());
        for (level, &v) in order.iter().enumerate() {
            self.level_of_var[v.index()] = level as u32;
            self.var_at_level[level] = v.index() as u32;
        }
    }

    /// Validates that `var` belongs to this manager.
    pub fn check_var(&self, var: Var) -> Result<()> {
        if var.index() < self.var_names.len() {
            Ok(())
        } else {
            Err(BddError::UnknownVar {
                var: var.index(),
                var_count: self.var_names.len(),
            })
        }
    }

    /// The function of a single literal: `var` when `phase` is true,
    /// `!var` otherwise.
    ///
    /// # Panics
    /// Panics if `var` does not belong to this manager or if the node
    /// limit is exhausted; use [`Manager::literal_checked`] in
    /// limit-sensitive code.
    pub fn literal(&mut self, var: Var, phase: bool) -> Edge {
        #[expect(
            clippy::expect_used,
            reason = "documented panicking convenience; use literal_checked in limit-sensitive code"
        )]
        self.literal_checked(var, phase)
            .expect("node limit exhausted while creating a literal")
    }

    /// Fallible variant of [`Manager::literal`].
    ///
    /// # Errors
    /// [`BddError::UnknownVar`] for a foreign variable,
    /// [`BddError::NodeLimit`] when the arena is exhausted.
    pub fn literal_checked(&mut self, var: Var, phase: bool) -> Result<Edge> {
        self.check_var(var)?;
        let level = self.level_of(var);
        let e = self.mk(level, Edge::ONE, Edge::ZERO)?;
        Ok(e.complement_if(!phase))
    }

    /// Constant function for `value`.
    pub fn constant(&self, value: bool) -> Edge {
        if value {
            Edge::ONE
        } else {
            Edge::ZERO
        }
    }

    /// Creates (or finds) the canonical node `(level, high, low)`.
    ///
    /// # Errors
    /// [`BddError::NodeLimit`] when the arena would exceed the limit.
    pub(crate) fn mk(&mut self, level: u32, high: Edge, low: Edge) -> Result<Edge> {
        if high == low {
            return Ok(high);
        }
        // Canonical form: then-edge never complemented.
        if high.is_complemented() {
            let e = self.mk_raw(level, high.complement(), low.complement())?;
            return Ok(e.complement());
        }
        self.mk_raw(level, high, low)
    }

    fn mk_raw(&mut self, level: u32, high: Edge, low: Edge) -> Result<Edge> {
        debug_assert!(!high.is_complemented());
        debug_assert!(level < self.node_level(high) && level < self.node_level(low));
        let key = UniqueKey::pack(level, high, low);
        if let Some(&idx) = self.unique.get(&key) {
            self.ops.unique_hits += 1;
            return Ok(Edge::new(idx, false));
        }
        self.charge(crate::OpClass::UniqueInsert)?;
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::NodeLimit {
                limit: self.node_limit,
            });
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { level, high, low });
        self.unique.insert(key, idx);
        self.ops.nodes_created += 1;
        Ok(Edge::new(idx, false))
    }

    /// Level of the node referenced by `e` (terminal ⇒ `u32::MAX`).
    #[inline]
    pub(crate) fn node_level(&self, e: Edge) -> u32 {
        self.nodes[e.node() as usize].level
    }

    /// The level of the top variable of `e`, or `u32::MAX` for constants.
    #[inline]
    pub fn top_level(&self, e: Edge) -> u32 {
        self.node_level(e)
    }

    /// Destructures a non-constant edge into `(top variable, then, else)`,
    /// where complementation on `e` has been pushed into the children
    /// (so the returned cofactors are the cofactors *of the function* `e`).
    ///
    /// Returns `None` for constants.
    pub fn node(&self, e: Edge) -> Option<(Var, Edge, Edge)> {
        if e.is_const() {
            return None;
        }
        let n = &self.nodes[e.node() as usize];
        let c = e.is_complemented();
        Some((
            self.var_at(n.level),
            n.high.complement_if(c),
            n.low.complement_if(c),
        ))
    }

    /// Raw structural view of an edge's node without pushing the edge's own
    /// complement bit into the children: `(var, high, low)` as stored.
    ///
    /// This is what structural analyses (dominators, cuts — see the `bds`
    /// crate) need: the *graph*, with complement bits visible on the edges
    /// themselves. Returns `None` for constants.
    pub fn node_raw(&self, e: Edge) -> Option<(Var, Edge, Edge)> {
        if e.is_const() {
            return None;
        }
        let n = &self.nodes[e.node() as usize];
        Some((self.var_at(n.level), n.high, n.low))
    }

    /// Evaluates the function under a total assignment indexed by variable
    /// (`assignment[v.index()]`).
    ///
    /// # Panics
    /// Panics if the assignment is shorter than some variable index
    /// encountered along the path.
    pub fn eval(&self, e: Edge, assignment: &[bool]) -> bool {
        let mut cur = e;
        loop {
            if cur.is_const() {
                return cur.is_one();
            }
            let n = &self.nodes[cur.node() as usize];
            let var = self.var_at_level[n.level as usize] as usize;
            let next = if assignment[var] { n.high } else { n.low };
            cur = next.complement_if(cur.is_complemented());
        }
    }

    /// Drops every decision node, the unique table, the ITE cache and
    /// the effort count, keeping the variables, their order, the limits,
    /// the lifetime operation counters and the tables' capacity. Every
    /// outstanding [`Edge`] other than the constants is invalidated.
    ///
    /// Afterwards the manager builds exactly what a fresh manager with the
    /// same variables would: the same edges, the same arena growth, and a
    /// node limit that trips at the same point. Loops that build many
    /// small throwaway BDDs reuse one manager this way instead of
    /// allocating a new one per function.
    pub fn clear_nodes(&mut self) {
        self.nodes.truncate(1);
        self.unique.clear();
        self.ite_cache.clear();
        self.effort_spent = 0;
    }
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_is_node_zero() {
        let m = Manager::new();
        assert_eq!(m.arena_size(), 1);
        assert!(Edge::ONE.is_const());
        assert_eq!(m.node(Edge::ONE), None);
    }

    #[test]
    fn literal_round_trip() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let pos = m.literal(a, true);
        let neg = m.literal(a, false);
        assert_eq!(pos.complement(), neg);
        assert!(m.eval(pos, &[true]));
        assert!(!m.eval(pos, &[false]));
        assert!(m.eval(neg, &[false]));
    }

    #[test]
    fn mk_is_hash_consed() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let l1 = m.literal(a, true);
        let l2 = m.literal(a, true);
        assert_eq!(l1, l2);
        assert_eq!(m.arena_size(), 2);
    }

    #[test]
    fn node_pushes_complement_into_children() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let pos = m.literal(a, true);
        let neg = pos.complement();
        let (_, h, l) = m.node(pos).unwrap();
        assert_eq!((h, l), (Edge::ONE, Edge::ZERO));
        let (_, h, l) = m.node(neg).unwrap();
        assert_eq!((h, l), (Edge::ZERO, Edge::ONE));
    }

    #[test]
    fn node_limit_enforced() {
        // Room for terminal + two literal nodes, but not for the AND node.
        let mut m = Manager::with_node_limit(3);
        let a = m.new_var("a");
        let b = m.new_var("b");
        let la = m.literal(a, true);
        let lb = m.literal(b, true);
        assert_eq!(m.arena_size(), 3);
        let r = m.and(la, lb);
        assert_eq!(r, Err(BddError::NodeLimit { limit: 3 }));
    }

    /// Builds `(a ∧ b) ∨ (c ⊕ d)` over the first four variables.
    fn sample(m: &mut Manager) -> Result<Edge> {
        let l: Vec<Edge> = (0..4)
            .map(|i| m.literal_checked(Var::from_index(i), true))
            .collect::<Result<_>>()?;
        let ab = m.and(l[0], l[1])?;
        let cd = m.xor(l[2], l[3])?;
        m.or(ab, cd)
    }

    #[test]
    fn clear_nodes_rebuilds_like_a_fresh_manager() {
        let mut fresh = Manager::new();
        fresh.new_vars(4);
        let want = sample(&mut fresh).unwrap();

        let mut reused = Manager::new();
        reused.new_vars(4);
        let first = sample(&mut reused).unwrap();
        // Unrelated work leaves nodes, cache entries and effort behind.
        let x = reused.literal(Var::from_index(3), false);
        reused.and(first, x).unwrap();
        reused.clear_nodes();
        assert_eq!(reused.arena_size(), 1);
        assert_eq!(reused.effort_spent(), 0);
        assert_eq!(reused.var_count(), 4);
        reused.check_invariants().unwrap();

        let got = sample(&mut reused).unwrap();
        assert_eq!(got, want);
        assert_eq!(reused.arena_size(), fresh.arena_size());
        assert_eq!(reused.size(got), fresh.size(want));
        reused.check_invariants().unwrap();
    }

    #[test]
    fn clear_nodes_trips_the_node_limit_at_the_same_count() {
        // The limit at which a fresh manager first fails to build `sample`.
        let mut fresh = Manager::new();
        fresh.new_vars(4);
        sample(&mut fresh).unwrap();
        let full = fresh.arena_size();
        for limit in 1..=full {
            let mut fresh = Manager::with_node_limit(limit);
            fresh.new_vars(4);
            let want = sample(&mut fresh);

            let mut reused = Manager::new();
            reused.new_vars(4);
            sample(&mut reused).unwrap();
            reused.clear_nodes();
            reused.set_node_limit(limit);
            let got = sample(&mut reused);
            assert_eq!(got, want, "limit {limit}");
            assert_eq!(reused.arena_size(), fresh.arena_size(), "limit {limit}");
            assert_eq!(got.is_err(), limit < full, "limit {limit}");
            reused.check_invariants().unwrap();
        }
    }

    #[test]
    fn var_bookkeeping() {
        let mut m = Manager::new();
        let a = m.new_var("alpha");
        let b = m.new_var("beta");
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.var_name(a), "alpha");
        assert_eq!(m.level_of(b), 1);
        assert_eq!(m.var_at(0), a);
        assert_eq!(m.order(), vec![a, b]);
        assert!(m.check_var(a).is_ok());
        assert!(m.check_var(Var::from_index(9)).is_err());
    }
}
