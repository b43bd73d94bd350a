//! Root-refcounted garbage collection for the node arena.
//!
//! Historically this package had no collector at all: the BDS answer to
//! manager pollution is rebuilding into a fresh manager ("BDD mapping",
//! §IV-B), and short-lived local BDDs mostly kept arenas small. But
//! long build phases — cube-by-cube SOP construction, global collapses
//! — strand large volumes of dead intermediate nodes in the arena, and
//! everything that walks the arena afterwards (invariant audits, level
//! profiles, the memory model, the unique-table chain census) drags
//! them along.
//!
//! The protocol:
//!
//! 1. callers pin the functions they hold with [`Manager::add_root`] /
//!    [`Manager::release_root`] — a per-node reference count;
//! 2. [`Manager::collect_garbage`] marks everything reachable from the
//!    root registry (plus any loose handles passed in), then
//!    **compacts** the arena in stable order: live nodes keep their
//!    relative order, so the collection is a pure function of the
//!    reachable graph — deterministic at any thread count;
//! 3. the unique table is rebuilt from the surviving arena, computed-
//!    table entries whose operands or result died are dropped and the
//!    rest are remapped, and the root registry is remapped in place.
//!
//! Compaction renumbers nodes, so **every [`Edge`] not covered by the
//! root registry or the `handles` argument is invalidated** by a
//! collection. The flow runs collections only at phase boundaries where
//! it can enumerate its live handles exactly.
//!
//! Collection charges no effort ticks: budgets, armed faults and the
//! deterministic profiler see an identical tick stream whether or not a
//! GC ran in between.

use crate::edge::Edge;
use crate::hash::FastMap;
use crate::manager::{Manager, Node};
use crate::nid::UniqueKey;

/// What one [`Manager::collect_garbage`] call did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Decision nodes that survived (the terminal is not counted).
    pub live: usize,
    /// Dead decision nodes reclaimed by this collection.
    pub collected: usize,
    /// Computed-table entries dropped because an operand or the result
    /// referenced a reclaimed node.
    pub cache_dropped: usize,
}

impl Manager {
    /// Pins the node referenced by `e` (and, transitively at collection
    /// time, everything reachable from it). Each `add_root` must be
    /// balanced by one [`Manager::release_root`]. Constant edges are
    /// accepted and ignored — the terminal is always live.
    pub fn add_root(&mut self, e: Edge) {
        if !e.is_const() {
            *self.roots.entry(e.node()).or_insert(0) += 1;
        }
    }

    /// Releases one pin on the node referenced by `e`. Releasing an
    /// edge that was never rooted (or already fully released) is a
    /// no-op: the registry only ever under-protects on misuse, and the
    /// invariant auditor checks registry coherence separately.
    pub fn release_root(&mut self, e: Edge) {
        if e.is_const() {
            return;
        }
        if let Some(count) = self.roots.get_mut(&e.node()) {
            *count -= 1;
            if *count == 0 {
                self.roots.remove(&e.node());
            }
        }
    }

    /// Number of distinct nodes currently pinned in the root registry.
    #[must_use]
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    /// Collects every node unreachable from the root registry and from
    /// `handles`, compacting the arena in stable order. The edges in
    /// `handles` are remapped in place so the caller's functions stay
    /// valid; any other outstanding edge is invalidated (see the
    /// `gc.rs` module docs).
    ///
    /// Deterministic: the surviving arena, the rebuilt unique table and
    /// the retained computed-table entries are pure functions of the
    /// reachable graph.
    pub fn collect_garbage(&mut self, handles: &mut [Edge]) -> GcStats {
        let n = self.nodes.len();

        // --- mark -------------------------------------------------------
        let mut live = vec![false; n];
        live[0] = true; // terminal
        let mut stack: Vec<u32> = Vec::with_capacity(self.roots.len() + handles.len());
        #[expect(
            clippy::disallowed_methods,
            reason = "mark order is irrelevant (set union); it cannot leak into any output"
        )]
        stack.extend(self.roots.keys().copied());
        stack.extend(handles.iter().filter(|e| !e.is_const()).map(|e| e.node()));
        while let Some(idx) = stack.pop() {
            if std::mem::replace(&mut live[idx as usize], true) {
                continue;
            }
            let node = &self.nodes[idx as usize];
            for child in [node.high, node.low] {
                if !child.is_const() && !live[child.node() as usize] {
                    stack.push(child.node());
                }
            }
        }

        // --- compact (stable order) -------------------------------------
        let mut remap = vec![u32::MAX; n];
        let mut next = 0u32;
        for (idx, &alive) in live.iter().enumerate() {
            if alive {
                remap[idx] = next;
                next += 1;
            }
        }
        let live_total = next as usize;
        if live_total == n {
            // Nothing to reclaim; leave the tables untouched.
            return GcStats {
                live: n - 1,
                collected: 0,
                cache_dropped: 0,
            };
        }
        let remap_edge =
            |e: Edge| -> Edge { Edge::new(remap[e.node() as usize], e.is_complemented()) };
        let mut nodes = Vec::with_capacity(live_total);
        for (idx, node) in self.nodes.iter().enumerate() {
            if live[idx] {
                // Children always precede parents in the arena, so both
                // remap slots are already assigned.
                nodes.push(Node {
                    level: node.level,
                    high: remap_edge(node.high),
                    low: remap_edge(node.low),
                });
            }
        }
        self.nodes = nodes;

        // --- rebuild the unique table from the survivors -----------------
        let mut unique = FastMap::default();
        unique.reserve(live_total.saturating_sub(1));
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            unique.insert(UniqueKey::pack(node.level, node.high, node.low), idx as u32);
        }
        self.unique = unique;

        // --- remap the computed table, dropping dead entries -------------
        let old_cache = std::mem::take(&mut self.ite_cache);
        let mut dropped = 0usize;
        self.ite_cache.reserve(old_cache.len());
        #[expect(
            clippy::iter_over_hash_type,
            reason = "the rebuilt table's contents and the `dropped` count are pure \
                      functions of the live set, whatever the visit order"
        )]
        for (key, result) in old_cache {
            let (f, g, h) = key.unpack();
            if [f, g, h, result].iter().all(|e| live[e.node() as usize]) {
                self.ite_cache.insert(
                    crate::nid::IteKey::pack(remap_edge(f), remap_edge(g), remap_edge(h)),
                    remap_edge(result),
                );
            } else {
                dropped += 1;
            }
        }

        // --- remap the root registry and caller handles ------------------
        let old_roots = std::mem::take(&mut self.roots);
        self.roots.reserve(old_roots.len());
        #[expect(
            clippy::iter_over_hash_type,
            reason = "each entry is remapped independently into another hash map, \
                      so the visit order cannot reach its contents"
        )]
        for (idx, count) in old_roots {
            self.roots.insert(remap[idx as usize], count);
        }
        for e in handles.iter_mut() {
            if !e.is_const() {
                *e = remap_edge(*e);
            }
        }

        let stats = GcStats {
            live: live_total - 1,
            collected: n - live_total,
            cache_dropped: dropped,
        };
        bds_trace::counter!("bdd.gc.runs");
        bds_trace::counter_add!("bdd.gc.collected", stats.collected as u64);
        bds_trace::counter_add!("bdd.gc.cache_dropped", stats.cache_dropped as u64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `a·b ⊕ c` plus some stranded intermediates and returns
    /// the root.
    fn build(m: &mut Manager) -> Edge {
        let vars = m.new_vars(4);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let lc = m.literal(vars[2], true);
        let ld = m.literal(vars[3], true);
        let ab = m.and(la, lb).unwrap();
        let f = m.xor(ab, lc).unwrap();
        // Stranded garbage: an unrelated conjunction chain.
        let g1 = m.and(lc, ld).unwrap();
        let _g2 = m.or(g1, la).unwrap();
        f
    }

    fn truth_table(m: &Manager, e: Edge, vars: usize) -> Vec<bool> {
        (0..1usize << vars)
            .map(|bits| {
                let assign: Vec<bool> = (0..vars).map(|i| bits >> i & 1 == 1).collect();
                m.eval(e, &assign)
            })
            .collect()
    }

    #[test]
    fn collect_preserves_rooted_functions_exactly() {
        let mut m = Manager::new();
        let f = build(&mut m);
        let before = truth_table(&m, f, 4);
        let dead_before = m.dead_node_count(&[f]);
        assert!(dead_before > 0, "test needs garbage to collect");

        m.add_root(f);
        let mut handles = [f];
        let stats = m.collect_garbage(&mut handles);
        let f = handles[0];
        assert_eq!(stats.collected, dead_before);
        assert_eq!(stats.live + 1, m.arena_size());
        assert_eq!(truth_table(&m, f, 4), before);
        assert_eq!(m.dead_node_count(&[f]), 0, "census must drop to zero");
        m.check_invariants().unwrap();
    }

    #[test]
    fn census_decreases_monotonically_across_collects() {
        let mut m = Manager::new();
        let f = build(&mut m);
        let mut handles = [f];
        let d0 = m.dead_node_count(&handles);
        m.collect_garbage(&mut handles);
        let d1 = m.dead_node_count(&handles);
        assert!(d1 <= d0);
        m.collect_garbage(&mut handles);
        let d2 = m.dead_node_count(&handles);
        assert!(d2 <= d1);
        assert_eq!(d2, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn registry_pins_without_explicit_handles() {
        let mut m = Manager::new();
        let f = build(&mut m);
        let tt = truth_table(&m, f, 4);
        m.add_root(f);
        let stats = m.collect_garbage(&mut []);
        assert!(stats.collected > 0);
        // The registry was remapped; the rooted function survives under
        // its new id, which the registry tracks.
        assert_eq!(m.root_count(), 1);
        let &idx = m.roots.keys().next().unwrap();
        let rooted = Edge::new(idx, f.is_complemented());
        assert_eq!(truth_table(&m, rooted, 4), tt);
        m.check_invariants().unwrap();
    }

    #[test]
    fn refcounts_balance() {
        let mut m = Manager::new();
        let f = build(&mut m);
        m.add_root(f);
        m.add_root(f);
        assert_eq!(m.root_count(), 1);
        m.release_root(f);
        assert_eq!(m.root_count(), 1, "still pinned once");
        m.release_root(f);
        assert_eq!(m.root_count(), 0);
        // Releasing again is a documented no-op.
        m.release_root(f);
        assert_eq!(m.root_count(), 0);
        // Constants never enter the registry.
        m.add_root(Edge::ONE);
        assert_eq!(m.root_count(), 0);
    }

    #[test]
    fn unrooted_arena_collapses_to_terminal() {
        let mut m = Manager::new();
        let _ = build(&mut m);
        let stats = m.collect_garbage(&mut []);
        assert_eq!(m.arena_size(), 1);
        assert_eq!(stats.live, 0);
        assert!(m.table_stats().computed_entries == 0);
        m.check_invariants().unwrap();
        // The manager stays fully usable: literals rebuild on demand.
        let la = m.literal(crate::Var::from_index(0), true);
        assert!(m.eval(la, &[true, false, false, false]));
    }

    #[test]
    fn surviving_cache_entries_still_hit() {
        let mut m = Manager::new();
        let vars = m.new_vars(3);
        let la = m.literal(vars[0], true);
        let lb = m.literal(vars[1], true);
        let lc = m.literal(vars[2], true);
        let ab = m.xor(la, lb).unwrap();
        let f = m.xor(ab, lc).unwrap();
        let mut handles = [f, ab, la, lb, lc];
        m.collect_garbage(&mut handles);
        m.check_invariants().unwrap();
        let [f2, ab2, la2, lb2, lc2] = handles;
        // Everything was live: the same queries must reproduce the same
        // (remapped) results, partly straight from the retained cache.
        let hits_before = m.op_stats().cache_hits;
        let ab3 = m.xor(la2, lb2).unwrap();
        let f3 = m.xor(ab3, lc2).unwrap();
        assert_eq!(ab3, ab2);
        assert_eq!(f3, f2);
        assert!(m.op_stats().cache_hits > hits_before);
    }

    #[test]
    fn gc_charges_no_effort_ticks() {
        let mut m = Manager::new();
        let f = build(&mut m);
        let spent = m.effort_spent();
        let mut handles = [f];
        m.collect_garbage(&mut handles);
        assert_eq!(m.effort_spent(), spent);
    }
}
