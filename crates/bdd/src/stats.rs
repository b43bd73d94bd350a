//! Operation counters and table statistics for the [`Manager`].
//!
//! The counters answer the questions the paper's evaluation and the
//! ROADMAP's performance work keep asking: how hard is the computed
//! table working (hit rate), how loaded is the unique table, and how
//! much structure did `restrict`/`ite` actually chew through. They are
//! plain `u64` field increments on paths that already mutate the
//! manager, so they stay on unconditionally; the registry-level `trace`
//! feature only affects the `bds-trace` macros layered on top.

use crate::edge::Edge;
use crate::manager::Manager;

/// Number of log2 recursion-depth buckets for computed-table misses:
/// bucket 0 is depth 0, bucket `i > 0` covers depths `2^(i-1)..2^i`,
/// and the last bucket absorbs everything deeper.
pub const MISS_DEPTH_BUCKETS: usize = 8;

/// Log2 bucket index for a recursion depth (saturating at the last
/// bucket, see [`MISS_DEPTH_BUCKETS`]).
#[must_use]
pub fn miss_depth_bucket(depth: u32) -> usize {
    ((u32::BITS - depth.leading_zeros()) as usize).min(MISS_DEPTH_BUCKETS - 1)
}

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
    /// Computed-table misses bucketed by the log2 of the recursion depth
    /// they occurred at (`miss_depth.iter().sum() == cache_misses`).
    /// Shallow misses are cold first touches; a fat tail of deep misses
    /// means the cache is thrashing inside recursions.
    pub miss_depth: [u64; MISS_DEPTH_BUCKETS],
    /// Top-level `restrict` invocations.
    pub restrict_calls: u64,
    /// Restrict memo-table lookups that found an entry.
    pub restrict_hits: u64,
    /// Restrict memo-table lookups that missed.
    pub restrict_misses: u64,
    /// Cross-manager transfer memo hits (counted on the destination).
    pub transfer_hits: u64,
    /// Cross-manager transfer memo misses (nodes actually rebuilt).
    pub transfer_misses: u64,
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
        for (d, o) in self.miss_depth.iter_mut().zip(other.miss_depth.iter()) {
            *d += o;
        }
        self.restrict_calls += other.restrict_calls;
        self.restrict_hits += other.restrict_hits;
        self.restrict_misses += other.restrict_misses;
        self.transfer_hits += other.transfer_hits;
        self.transfer_misses += other.transfer_misses;
        self.unique_hits += other.unique_hits;
        self.nodes_created += other.nodes_created;
    }

    /// Counts accumulated since `baseline` was snapshotted off the same
    /// manager: per-field saturating subtraction. Used by flow phases
    /// that keep one warm manager across a phase boundary and must
    /// attribute each phase's operations exactly once.
    #[must_use]
    pub fn delta_since(&self, baseline: &OpStats) -> OpStats {
        let mut d = OpStats {
            ite_calls: self.ite_calls.saturating_sub(baseline.ite_calls),
            terminal_hits: self.terminal_hits.saturating_sub(baseline.terminal_hits),
            cache_hits: self.cache_hits.saturating_sub(baseline.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(baseline.cache_misses),
            miss_depth: [0; MISS_DEPTH_BUCKETS],
            restrict_calls: self.restrict_calls.saturating_sub(baseline.restrict_calls),
            restrict_hits: self.restrict_hits.saturating_sub(baseline.restrict_hits),
            restrict_misses: self
                .restrict_misses
                .saturating_sub(baseline.restrict_misses),
            transfer_hits: self.transfer_hits.saturating_sub(baseline.transfer_hits),
            transfer_misses: self
                .transfer_misses
                .saturating_sub(baseline.transfer_misses),
            unique_hits: self.unique_hits.saturating_sub(baseline.unique_hits),
            nodes_created: self.nodes_created.saturating_sub(baseline.nodes_created),
        };
        for (slot, (cur, base)) in d
            .miss_depth
            .iter_mut()
            .zip(self.miss_depth.iter().zip(baseline.miss_depth.iter()))
        {
            *slot = cur.saturating_sub(*base);
        }
        d
    }

    /// Merges an iterator of per-manager (or per-worker) counter sets
    /// into one total. Addition is commutative, so the result does not
    /// depend on the order worker threads finished in — the property the
    /// sharded flow relies on to keep its reports deterministic.
    #[must_use]
    pub fn merged<'a>(stats: impl IntoIterator<Item = &'a OpStats>) -> OpStats {
        let mut total = OpStats::default();
        for s in stats {
            total.merge(s);
        }
        total
    }

    /// Computed-table hit rate in `[0, 1]`, or 0.0 before any lookup.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        Self::rate(self.cache_hits, self.cache_misses)
    }

    /// Restrict memo hit rate in `[0, 1]`, or 0.0 before any lookup.
    #[must_use]
    pub fn restrict_hit_rate(&self) -> f64 {
        Self::rate(self.restrict_hits, self.restrict_misses)
    }

    /// Transfer memo hit rate in `[0, 1]`, or 0.0 before any lookup.
    #[must_use]
    pub fn transfer_hit_rate(&self) -> f64 {
        Self::rate(self.transfer_hits, self.transfer_misses)
    }

    fn rate(hits: u64, misses: u64) -> f64 {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            #[expect(
                clippy::cast_precision_loss,
                reason = "counter magnitudes sit far below f64's exact-integer range"
            )]
            {
                hits as f64 / total as f64
            }
        }
    }
}

impl std::iter::Sum for OpStats {
    fn sum<I: Iterator<Item = OpStats>>(iter: I) -> Self {
        let mut total = OpStats::default();
        for s in iter {
            total.merge(&s);
        }
        total
    }
}

impl<'a> std::iter::Sum<&'a OpStats> for OpStats {
    fn sum<I: Iterator<Item = &'a OpStats>>(iter: I) -> Self {
        OpStats::merged(iter)
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

    /// Number of decision nodes currently sitting at each level of the
    /// order (`result[level]`; the terminal is not counted). The shape
    /// of this profile is the raw input an information-driven reorder
    /// heuristic needs, and a cheap "where did the nodes go" answer for
    /// memory work.
    #[must_use]
    pub fn level_node_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.var_count()];
        for n in self.nodes.iter().skip(1) {
            if let Some(slot) = counts.get_mut(n.level as usize) {
                *slot += 1;
            }
        }
        counts
    }

    /// Collision-chain lengths of the unique table under the table's
    /// *actual* hash (the in-tree fast hash over the packed key — see
    /// `hash.rs`), bucketed modulo the table capacity: the occupancy
    /// count of every non-empty bucket.
    ///
    /// `std::collections::HashMap` does not expose its buckets, so this
    /// simulates the distribution. Because the fast hash is fixed and
    /// seedless, the model uses the very function the table uses — the
    /// histogram is an honest picture of the deployed hash, not a proxy
    /// — and the result depends only on the key set and capacity,
    /// making it deterministic across runs and thread counts.
    #[must_use]
    pub fn unique_chain_lengths(&self) -> Vec<u64> {
        let buckets = self.unique.capacity();
        if buckets == 0 {
            return Vec::new();
        }
        let mut occupancy = vec![0u64; buckets];
        #[expect(
            clippy::iter_over_hash_type,
            clippy::disallowed_methods,
            reason = "per-bucket tallies are order-independent and sorted below"
        )]
        for key in self.unique.keys() {
            let h = crate::hash::hash_packed(key.raw());
            occupancy[(h % buckets as u64) as usize] += 1;
        }
        let mut chains: Vec<u64> = occupancy.into_iter().filter(|&c| c > 0).collect();
        // Deterministic output order: HashMap iteration order fed the
        // counts (order-independent), but the collection order of the
        // non-empty buckets is not meaningful — sort it away.
        chains.sort_unstable();
        chains
    }

    /// Number of arena nodes unreachable from `roots` — the garbage a
    /// rebuild (sift, transfer-compact) would shed. The terminal and
    /// reachable nodes are live; everything else is the dead-node
    /// census the flow reports after its sweep/eliminate phases.
    #[must_use]
    pub fn dead_node_count(&self, roots: &[Edge]) -> usize {
        let mut live = vec![false; self.nodes.len()];
        live[0] = true; // terminal
        let mut stack: Vec<u32> = roots
            .iter()
            .filter(|e| !e.is_const())
            .map(|e| e.node())
            .collect();
        while let Some(idx) = stack.pop() {
            if std::mem::replace(&mut live[idx as usize], true) {
                continue;
            }
            let n = &self.nodes[idx as usize];
            for child in [n.high, n.low] {
                if !child.is_const() && !live[child.node() as usize] {
                    stack.push(child.node());
                }
            }
        }
        live.iter().filter(|&&l| !l).count()
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
            miss_depth: [1, 0, 2, 0, 0, 0, 0, 0],
            restrict_calls: 4,
            restrict_hits: 8,
            restrict_misses: 9,
            transfer_hits: 11,
            transfer_misses: 12,
            unique_hits: 5,
            nodes_created: 6,
        };
        let b = OpStats {
            ite_calls: 10,
            terminal_hits: 70,
            cache_hits: 20,
            cache_misses: 30,
            miss_depth: [10, 20, 0, 0, 0, 0, 0, 0],
            restrict_calls: 40,
            restrict_hits: 80,
            restrict_misses: 90,
            transfer_hits: 110,
            transfer_misses: 120,
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
                miss_depth: [11, 20, 2, 0, 0, 0, 0, 0],
                restrict_calls: 44,
                restrict_hits: 88,
                restrict_misses: 99,
                transfer_hits: 121,
                transfer_misses: 132,
                unique_hits: 55,
                nodes_created: 66,
            }
        );
    }

    #[test]
    fn delta_since_inverts_merge_on_every_field() {
        let baseline = OpStats {
            ite_calls: 1,
            terminal_hits: 7,
            cache_hits: 2,
            cache_misses: 3,
            miss_depth: [1, 0, 2, 0, 0, 0, 0, 0],
            restrict_calls: 4,
            restrict_hits: 8,
            restrict_misses: 9,
            transfer_hits: 11,
            transfer_misses: 12,
            unique_hits: 5,
            nodes_created: 6,
        };
        let growth = OpStats {
            ite_calls: 10,
            terminal_hits: 70,
            cache_hits: 20,
            cache_misses: 30,
            miss_depth: [10, 20, 0, 0, 0, 0, 0, 0],
            restrict_calls: 40,
            restrict_hits: 80,
            restrict_misses: 90,
            transfer_hits: 110,
            transfer_misses: 120,
            unique_hits: 50,
            nodes_created: 60,
        };
        let mut total = baseline;
        total.merge(&growth);
        // Counters are monotonic, so the delta off a later snapshot of
        // the same manager recovers exactly the growth.
        assert_eq!(total.delta_since(&baseline), growth);
        assert_eq!(total.delta_since(&total), OpStats::default());
    }

    #[test]
    fn miss_depth_buckets_are_log2() {
        assert_eq!(miss_depth_bucket(0), 0);
        assert_eq!(miss_depth_bucket(1), 1);
        assert_eq!(miss_depth_bucket(2), 2);
        assert_eq!(miss_depth_bucket(3), 2);
        assert_eq!(miss_depth_bucket(4), 3);
        assert_eq!(miss_depth_bucket(63), 6);
        assert_eq!(miss_depth_bucket(64), 7);
        assert_eq!(miss_depth_bucket(u32::MAX), MISS_DEPTH_BUCKETS - 1);
    }

    #[test]
    fn miss_depth_sums_to_cache_misses() {
        let mut m = Manager::new();
        let vars: Vec<_> = (0..8).map(|i| m.new_var(format!("x{i}"))).collect();
        let mut acc = m.literal(vars[0], true);
        for v in &vars[1..] {
            let lit = m.literal(*v, true);
            acc = m.xor(acc, lit).unwrap();
        }
        let ops = m.op_stats();
        assert!(ops.cache_misses > 0);
        assert_eq!(ops.miss_depth.iter().sum::<u64>(), ops.cache_misses);
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
    fn level_counts_and_chains_reflect_the_table() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let c = m.new_var("c");
        let la = m.literal(a, true);
        let lb = m.literal(b, true);
        let lc = m.literal(c, true);
        let ab = m.and(la, lb).unwrap();
        let _ = m.or(ab, lc).unwrap();

        let counts = m.level_node_counts();
        assert_eq!(counts.len(), 3);
        assert_eq!(
            counts.iter().sum::<u64>() as usize,
            m.arena_size() - 1,
            "every non-terminal node sits at exactly one level"
        );

        let chains = m.unique_chain_lengths();
        assert_eq!(
            chains.iter().sum::<u64>() as usize,
            m.table_stats().unique_entries,
            "chain occupancy partitions the key set"
        );
        assert!(chains.windows(2).all(|w| w[0] <= w[1]), "sorted output");
    }

    #[test]
    fn dead_node_census_finds_garbage() {
        let mut m = Manager::new();
        let a = m.new_var("a");
        let b = m.new_var("b");
        let la = m.literal(a, true);
        let lb = m.literal(b, true);
        let and = m.and(la, lb).unwrap();
        // The AND's graph is {and-node, b-literal, terminal}: the
        // standalone a-literal node is the one piece of garbage.
        assert_eq!(m.dead_node_count(&[and]), 1);
        // Keeping every root alive leaves nothing dead.
        assert_eq!(m.dead_node_count(&[and, la, lb]), 0);
        // No roots at all: every non-terminal node is dead.
        assert_eq!(m.dead_node_count(&[]), m.arena_size() - 1);
        // Constant roots contribute nothing.
        assert_eq!(m.dead_node_count(&[Edge::ONE]), m.arena_size() - 1);
    }

    #[test]
    fn sum_and_merged_aggregate_in_any_order() {
        let parts = [
            OpStats {
                ite_calls: 1,
                nodes_created: 2,
                ..OpStats::default()
            },
            OpStats {
                ite_calls: 10,
                cache_hits: 5,
                ..OpStats::default()
            },
            OpStats {
                unique_hits: 3,
                ..OpStats::default()
            },
        ];
        let forward: OpStats = parts.iter().sum();
        let backward: OpStats = parts.iter().rev().copied().sum();
        assert_eq!(forward, backward);
        assert_eq!(forward, OpStats::merged(&parts));
        assert_eq!(forward.ite_calls, 11);
        assert_eq!(forward.cache_hits, 5);
        assert_eq!(forward.unique_hits, 3);
        assert_eq!(forward.nodes_created, 2);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(OpStats::default().cache_hit_rate(), 0.0);
    }
}
