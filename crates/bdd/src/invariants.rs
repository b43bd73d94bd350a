//! Structural invariant auditing for the ROBDD package.
//!
//! Every mutating pass of the BDS flow — reordering, restrict, transfer,
//! eliminate — relies on the manager staying a *canonical* ROBDD forest.
//! The canonical-form rules are documented on the [crate root](crate);
//! this module turns them into an executable specification:
//!
//! 1. the unique table holds no duplicate `(level, high, low)` triples and
//!    mirrors the arena exactly (hash-consing soundness),
//! 2. the then/1-edge of a node is never complemented,
//! 3. child levels are strictly greater than their parent's level
//!    (ordering monotonicity),
//! 4. no edge indexes past the arena,
//! 5. computed-table (ITE cache) entries reference live nodes only,
//! 6. the variable/level permutation tables are mutual inverses,
//! 7. no node has identical then/else children.
//!
//! [`Manager::check_invariants`] always performs the full audit;
//! [`Manager::audit`] is the cheap gate the flow calls at phase
//! boundaries — a no-op unless [`STRICT_CHECKS`] is enabled
//! (`debug_assertions` or the `strict-checks` feature).

use std::collections::HashMap;

use crate::edge::Edge;
use crate::error::BddError;
use crate::manager::{Manager, TERMINAL_LEVEL};
use crate::Result;

/// True when structural auditing is compiled in: debug builds, or any
/// build with the `strict-checks` feature.
pub const STRICT_CHECKS: bool = cfg!(any(debug_assertions, feature = "strict-checks"));

impl Manager {
    /// Runs the full structural audit unconditionally.
    ///
    /// The audit is `O(arena + caches)` and allocates a scratch map, so
    /// the synthesis flow calls it through [`Manager::audit`] instead,
    /// which compiles to nothing in unchecked release builds.
    ///
    /// # Errors
    /// [`BddError::InvariantViolation`] naming the first broken invariant.
    #[expect(
        clippy::iter_over_hash_type,
        reason = "an audit of every table entry: the verdict does not depend on visit order, \
                  only which violation is named first does"
    )]
    pub fn check_invariants(&self) -> Result<()> {
        let n = self.nodes.len();
        if n == 0 {
            return violation("arena is empty: terminal node missing".into());
        }
        if self.nodes[0].level != TERMINAL_LEVEL {
            return violation(format!(
                "terminal node has level {} instead of the terminal sentinel",
                self.nodes[0].level
            ));
        }

        // Variable bookkeeping: level_of_var and var_at_level must be
        // mutually inverse permutations over the declared variables.
        let vars = self.var_names.len();
        if self.level_of_var.len() != vars || self.var_at_level.len() != vars {
            return violation(format!(
                "order tables cover {}/{} entries for {vars} variables",
                self.level_of_var.len(),
                self.var_at_level.len()
            ));
        }
        for (var, &lvl) in self.level_of_var.iter().enumerate() {
            if lvl as usize >= vars || self.var_at_level[lvl as usize] as usize != var {
                return violation(format!(
                    "order tables disagree: level_of_var[{var}] = {lvl} but \
                     var_at_level does not map it back"
                ));
            }
        }

        // Decision nodes: canonical-form rules over the whole arena.
        let mut seen: HashMap<(u32, Edge, Edge), usize> = HashMap::with_capacity(n);
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            if node.level as usize >= vars {
                return violation(format!(
                    "node {idx} is labelled with level {} but only {vars} variables exist",
                    node.level
                ));
            }
            if node.high.is_complemented() {
                return violation(format!(
                    "node {idx} has a complemented then-edge {:?}",
                    node.high
                ));
            }
            if node.high == node.low {
                return violation(format!(
                    "node {idx} has identical then/else children {:?}",
                    node.high
                ));
            }
            for (which, e) in [("then", node.high), ("else", node.low)] {
                if e.node() as usize >= n {
                    return violation(format!(
                        "node {idx} {which}-edge indexes node {} past the arena of {n}",
                        e.node()
                    ));
                }
                let child_level = self.nodes[e.node() as usize].level;
                if child_level <= node.level {
                    return violation(format!(
                        "ordering violated: node {idx} at level {} has a {which}-child \
                         at level {child_level}",
                        node.level
                    ));
                }
            }
            if let Some(dup) = seen.insert((node.level, node.high, node.low), idx) {
                return violation(format!(
                    "duplicate unique-table triple: nodes {dup} and {idx} both encode \
                     (level {}, {:?}, {:?})",
                    node.level, node.high, node.low
                ));
            }
        }

        // Unique table mirrors the arena exactly.
        if self.unique.len() != n - 1 {
            return violation(format!(
                "unique table holds {} entries for {} decision nodes",
                self.unique.len(),
                n - 1
            ));
        }
        for (key, &idx) in &self.unique {
            let (level, high, low) = key.unpack();
            if idx as usize >= n {
                return violation(format!(
                    "unique table maps a triple to node {idx} past the arena of {n}"
                ));
            }
            let node = &self.nodes[idx as usize];
            if (node.level, node.high, node.low) != (level, high, low) {
                return violation(format!(
                    "unique table entry for node {idx} disagrees with the arena: \
                     table says (level {level}, {high:?}, {low:?}), arena says \
                     (level {}, {:?}, {:?})",
                    node.level, node.high, node.low
                ));
            }
        }

        // Computed table references live nodes only.
        for (key, &r) in &self.ite_cache {
            let (f, g, h) = key.unpack();
            for (role, e) in [("f", f), ("g", g), ("h", h), ("result", r)] {
                if e.node() as usize >= n {
                    return violation(format!(
                        "computed-table {role} edge references node {} past the arena of {n}",
                        e.node()
                    ));
                }
            }
        }

        Ok(())
    }

    /// Phase-boundary audit gate: runs [`Manager::check_invariants`] when
    /// [`STRICT_CHECKS`] is enabled, otherwise does nothing.
    ///
    /// # Errors
    /// [`BddError::InvariantViolation`] when auditing is on and an
    /// invariant is broken.
    #[inline]
    pub fn audit(&self) -> Result<()> {
        if STRICT_CHECKS {
            self.check_invariants()
        } else {
            Ok(())
        }
    }
}

fn violation(detail: String) -> Result<()> {
    Err(BddError::InvariantViolation { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Node;
    use crate::nid::{IteKey, UniqueKey};

    fn sample_manager() -> Manager {
        let mut m = Manager::new();
        let vars = m.new_vars(4);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let lc = m.literal(vars[2], true);
        let ab = m.and(la, lb).unwrap();
        let f = m.xor(ab, lc).unwrap();
        let _ = m.or(f, la).unwrap();
        m
    }

    #[test]
    fn healthy_manager_passes() {
        let m = sample_manager();
        m.check_invariants().unwrap();
        m.audit().unwrap();
    }

    #[test]
    fn empty_manager_passes() {
        Manager::new().check_invariants().unwrap();
    }

    #[test]
    fn complemented_then_edge_detected() {
        let mut m = sample_manager();
        let idx = m.nodes.len() - 1;
        let key = {
            let node = &m.nodes[idx];
            UniqueKey::pack(node.level, node.high, node.low)
        };
        m.unique.remove(&key);
        m.nodes[idx].high = m.nodes[idx].high.complement();
        let node = &m.nodes[idx];
        m.unique
            .insert(UniqueKey::pack(node.level, node.high, node.low), idx as u32);
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("complemented then-edge"), "{err}");
    }

    #[test]
    fn duplicate_triple_detected() {
        let mut m = sample_manager();
        let copy = m.nodes[1];
        m.nodes.push(copy);
        // Keep counts consistent so the duplicate itself is what trips.
        m.unique.insert(
            UniqueKey::pack(copy.level, Edge::ZERO, copy.low),
            m.nodes.len() as u32,
        );
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn ordering_violation_detected() {
        let mut m = sample_manager();
        // Find a node whose child is a decision node and invert levels.
        let idx = (1..m.nodes.len())
            .find(|&i| !m.nodes[i].low.is_const() || !m.nodes[i].high.is_const())
            .expect("sample has internal edges");
        m.nodes[idx].level = u32::MAX - 1;
        let err = m.check_invariants().unwrap_err();
        assert!(
            err.to_string().contains("level") || err.to_string().contains("ordering"),
            "{err}"
        );
    }

    #[test]
    fn dangling_edge_detected() {
        let mut m = sample_manager();
        let bogus = Edge::new(10_000, false);
        let idx = m.nodes.len() - 1;
        let key = {
            let node = &m.nodes[idx];
            UniqueKey::pack(node.level, node.high, node.low)
        };
        m.unique.remove(&key);
        m.nodes[idx].low = bogus;
        let node = &m.nodes[idx];
        m.unique
            .insert(UniqueKey::pack(node.level, node.high, node.low), idx as u32);
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("past the arena"), "{err}");
    }

    #[test]
    fn stale_computed_table_detected() {
        let mut m = sample_manager();
        let bogus = Edge::new(9_999, false);
        m.ite_cache
            .insert(IteKey::pack(bogus, Edge::ONE, Edge::ZERO), Edge::ONE);
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("computed-table"), "{err}");
    }

    #[test]
    fn unique_table_desync_detected() {
        let mut m = sample_manager();
        m.unique
            .insert(UniqueKey::pack(0, Edge::ONE, Edge::ZERO), 0);
        // Either the count or the content check must fire.
        assert!(m.check_invariants().is_err());
    }

    #[test]
    fn broken_order_tables_detected() {
        let mut m = sample_manager();
        m.level_of_var.swap(0, 1);
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("order tables"), "{err}");
    }

    #[test]
    fn terminal_corruption_detected() {
        let mut m = sample_manager();
        m.nodes[0].level = 3;
        let err = m.check_invariants().unwrap_err();
        assert!(err.to_string().contains("terminal"), "{err}");
    }

    #[test]
    fn node_wrapper_is_copy() {
        let n = Node {
            level: 0,
            high: Edge::ONE,
            low: Edge::ZERO,
        };
        let _m = n;
        let _n2 = n;
    }
}
