//! Operation counters and table statistics for the [`Manager`].
//!
//! The counters answer the questions the paper's evaluation and the
//! ROADMAP's performance work keep asking: how hard is the computed
//! table working (hit rate), how often does hash-consing find an
//! existing node, and how much structure did `ite` chew through. They are
//! plain `u64` field increments on paths that already mutate the
//! manager, so they stay on unconditionally; the registry-level `trace`
//! feature only affects the `bds-trace` macros layered on top.

use crate::edge::Edge;
use crate::manager::Manager;

/// Monotonic operation counters accumulated over a [`Manager`]'s
/// lifetime. Obtain a copy via [`Manager::op_stats`] or as part of
/// [`Manager::table_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Total `ite` invocations, including internal recursive calls.
    pub ite_calls: u64,
    /// `ite` calls resolved by a terminal case or argument
    /// normalization, before the computed table was even consulted.
    pub terminal_hits: u64,
    /// Computed-table lookups that found a memoized result.
    pub cache_hits: u64,
    /// Computed-table lookups that missed and forced a recursion.
    pub cache_misses: u64,
    /// Top-level `restrict` invocations.
    pub restrict_calls: u64,
    /// Unique-table lookups that found an existing node (hash-cons hits).
    pub unique_hits: u64,
    /// Decision nodes freshly created in the arena.
    pub nodes_created: u64,
}

impl OpStats {
    /// Adds `other`'s counts into `self` — used to aggregate over the
    /// several managers a synthesis flow creates and discards.
    pub fn merge(&mut self, other: &OpStats) {
        self.ite_calls += other.ite_calls;
        self.terminal_hits += other.terminal_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.restrict_calls += other.restrict_calls;
        self.unique_hits += other.unique_hits;
        self.nodes_created += other.nodes_created;
    }

    /// Computed-table hit rate in `[0, 1]`, or 0.0 before any lookup.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            #[expect(
                clippy::cast_precision_loss,
                reason = "counter magnitudes sit far below f64's exact-integer range"
            )]
            {
                self.cache_hits as f64 / total as f64
            }
        }
    }
}

/// A point-in-time snapshot of a [`Manager`]'s tables, returned by
/// [`Manager::table_stats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Live nodes in the arena, including the terminal.
    pub arena_nodes: usize,
    /// Entries in the unique (hash-cons) table.
    pub unique_entries: usize,
    /// Allocated capacity of the unique table.
    pub unique_capacity: usize,
    /// Entries in the ITE computed table.
    pub computed_entries: usize,
    /// Allocated capacity of the computed table.
    pub computed_capacity: usize,
    /// Operation counters accumulated since the manager was created.
    pub ops: OpStats,
}

impl TableStats {
    /// Computed-table hit rate in `[0, 1]` (see [`OpStats::cache_hit_rate`]).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        self.ops.cache_hit_rate()
    }

    /// Estimated bytes held by the manager: arena nodes at their struct
    /// size plus both hash tables at capacity × (key + value + one
    /// control byte). An accounting model, not an allocator measurement
    /// — but it is **deterministic** (capacities depend only on the
    /// insertion history), so peaks can be gated exactly across runs
    /// and thread counts.
    #[must_use]
    pub fn estimated_bytes(&self) -> usize {
        // Node is (u32 level, Edge high, Edge low); Edge is a u32 wrapper.
        let node = std::mem::size_of::<crate::manager::Node>();
        // The tables key on packed u128 words (see `nid.rs`), so a slot
        // is key + value + one control byte.
        let unique_slot =
            std::mem::size_of::<crate::nid::UniqueKey>() + std::mem::size_of::<u32>() + 1;
        let computed_slot =
            std::mem::size_of::<crate::nid::IteKey>() + std::mem::size_of::<Edge>() + 1;
        self.arena_nodes * node
            + self.unique_capacity * unique_slot
            + self.computed_capacity * computed_slot
    }
}

impl Manager {
    /// Snapshots the sizes and load of the unique and computed tables
    /// together with the lifetime operation counters.
    #[must_use]
    pub fn table_stats(&self) -> TableStats {
        TableStats {
            arena_nodes: self.nodes.len(),
            unique_entries: self.unique.len(),
            unique_capacity: self.unique.capacity(),
            computed_entries: self.ite_cache.len(),
            computed_capacity: self.ite_cache.capacity(),
            ops: self.ops,
        }
    }

    /// Copies the lifetime operation counters.
    #[must_use]
    pub fn op_stats(&self) -> OpStats {
        self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_ite_and_tables() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let la = m.literal(a, true);
        let lb = m.literal(b, true);
        let lc = m.literal(c, true);
        // Literal-on-literal ops take the literal fast path (terminal
        // hits, no table traffic); a composite operand forces a genuine
        // computed-table miss.
        let ab = m.and(la, lb).unwrap();
        let and1 = m.and(ab, lc).unwrap();
        let before = m.table_stats();
        assert!(before.ops.ite_calls >= 1);
        assert!(before.ops.terminal_hits >= 1);
        assert!(before.ops.cache_misses >= 1);
        assert!(before.ops.nodes_created >= 4); // three literals + the AND chain
        assert_eq!(before.arena_nodes, m.arena_size());
        assert_eq!(before.unique_entries, before.arena_nodes - 1);
        assert!(before.unique_capacity >= before.unique_entries);

        // The symmetric call normalizes to the same computed-table key.
        let and2 = m.and(lc, ab).unwrap();
        assert_eq!(and1, and2);
        let after = m.table_stats();
        assert!(after.ops.cache_hits > before.ops.cache_hits);
        assert!(after.cache_hit_rate() > 0.0);
    }

    #[test]
    fn merge_sums_every_field() {
        let mut a = OpStats {
            ite_calls: 1,
            terminal_hits: 7,
            cache_hits: 2,
            cache_misses: 3,
            restrict_calls: 4,
            unique_hits: 5,
            nodes_created: 6,
        };
        let b = OpStats {
            ite_calls: 10,
            terminal_hits: 70,
            cache_hits: 20,
            cache_misses: 30,
            restrict_calls: 40,
            unique_hits: 50,
            nodes_created: 60,
        };
        a.merge(&b);
        assert_eq!(
            a,
            OpStats {
                ite_calls: 11,
                terminal_hits: 77,
                cache_hits: 22,
                cache_misses: 33,
                restrict_calls: 44,
                unique_hits: 55,
                nodes_created: 66,
            }
        );
    }

    #[test]
    fn ite_calls_split_into_terminal_hits_and_lookups() {
        let mut m = Manager::new();
        let vars: Vec<_> = (0..8).map(|i| m.new_var(format!("x{i}"))).collect();
        let mut acc = m.literal(vars[0], true);
        for v in &vars[1..] {
            let lit = m.literal(*v, true);
            acc = m.xor(acc, lit).unwrap();
        }
        let ops = m.op_stats();
        assert!(ops.cache_misses > 0);
        assert!(ops.terminal_hits > 0);
        assert_eq!(
            ops.ite_calls,
            ops.terminal_hits + ops.cache_hits + ops.cache_misses
        );
    }

    #[test]
    fn estimated_bytes_counts_arena_and_tables() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let la = m.literal(a, true);
        let lb = m.literal(b, true);
        let _ = m.and(la, lb).unwrap();
        let stats = m.table_stats();
        let bytes = stats.estimated_bytes();
        // At minimum the arena nodes at their struct size.
        assert!(bytes >= stats.arena_nodes * std::mem::size_of::<crate::manager::Node>());
        // Monotone in capacity: a fresh empty manager models fewer bytes.
        assert!(bytes > Manager::new().table_stats().estimated_bytes());
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(OpStats::default().cache_hit_rate(), 0.0);
    }
}
