//! The `eliminate` pass: partial collapse into supernodes (paper §IV-B).
//!
//! BDS never builds one monolithic global BDD; instead it partially
//! collapses the network into *supernodes*, each small enough to be
//! represented as a local BDD. The collapse decision is costed in **BDD
//! nodes** rather than literals: "BDS adopts a similar approach
//! \[iterative elimination\], except that it uses the number of BDD nodes
//! as the cost function to guide the elimination".

use std::collections::HashMap;

use bds_bdd::{Edge, Manager, Var};
use bds_sop::{Cover, Cube};

use crate::error::NetworkError;
use crate::global::cover_to_bdd;
use crate::network::{Network, SignalId};
use crate::Result;

/// Cost model guiding [`Network::eliminate`] collapse decisions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum EliminateCost {
    /// Local-BDD node counts — the BDS choice (paper §IV-B).
    #[default]
    BddNodes,
    /// SOP literal counts — the classic SIS `eliminate` value function.
    Literals,
}

/// Tuning knobs for [`Network::eliminate`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EliminateParams {
    /// The cost model (BDD nodes for BDS, literals for the SIS baseline).
    pub cost: EliminateCost,
    /// Hard cap on any local BDD produced by a collapse; candidates whose
    /// composition exceeds it are rejected. This bounds supernode size and
    /// is what keeps huge arithmetic circuits (the paper's `m64x64`)
    /// synthesizable without a global BDD.
    pub max_local_bdd: usize,
    /// Collapse a node when the total BDD-node cost grows by at most this
    /// much (0 = only collapses that do not grow the representation;
    /// positive values collapse more aggressively).
    pub growth_allowance: isize,
    /// Do not collapse into fanouts whose merged support would exceed this
    /// many signals.
    pub max_support: usize,
    /// Nodes with more fanouts than this are never eliminated (their logic
    /// would be duplicated into each fanout).
    pub max_fanout: usize,
    /// Maximum number of full passes.
    pub max_passes: usize,
}

impl Default for EliminateParams {
    fn default() -> Self {
        EliminateParams {
            cost: EliminateCost::BddNodes,
            max_local_bdd: 600,
            growth_allowance: 0,
            max_support: 28,
            max_fanout: 6,
            max_passes: 8,
        }
    }
}

/// Per-signal `collapse_cost` results for one `eliminate` call; `None`
/// means not yet computed. An entry is dropped when its node is rewritten.
type CostMemo = Vec<Option<Option<usize>>>;

impl Network {
    /// Iteratively eliminates internal nodes into their fanouts while the
    /// BDD-node cost does not grow beyond `params.growth_allowance`.
    /// Returns the number of nodes eliminated.
    ///
    /// Primary outputs' driving nodes are never eliminated (their names
    /// must survive), and primary inputs are untouchable by construction.
    ///
    /// # Errors
    /// Propagates [`NetworkError`]s from the collapse rewrites (a healthy
    /// network produces none); the exit audit reports
    /// [`NetworkError::Inconsistent`] / [`NetworkError::Cycle`] if a
    /// collapse corrupted the network (strict builds only).
    pub fn eliminate(&mut self, params: &EliminateParams) -> Result<usize> {
        let _span = bds_trace::span!("net.eliminate");
        let mut eliminated = 0;
        let mut is_output = vec![false; self.signals.len()];
        for &o in self.outputs() {
            is_output[o.index()] = true;
        }
        let mut costs: CostMemo = vec![None; self.signals.len()];
        for _ in 0..params.max_passes {
            let mut changed = 0;
            // Reverse topological order: collapsing sinks first exposes
            // further candidates cheaply.
            let mut order = self.topo_order();
            order.reverse();
            for sig in order {
                if self.node(sig).is_none() || is_output[sig.index()] {
                    continue;
                }
                if self.try_eliminate(sig, params, &mut costs)? {
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
            eliminated += changed;
        }
        bds_trace::counter_add!("net.eliminate.removed", eliminated as u64);
        self.audit()?;
        Ok(eliminated)
    }

    /// Attempts to collapse the node driving `sig` into every fanout.
    /// `Ok(false)` means the collapse was not profitable or not feasible;
    /// errors are reserved for structural corruption.
    fn try_eliminate(
        &mut self,
        sig: SignalId,
        params: &EliminateParams,
        costs: &mut CostMemo,
    ) -> Result<bool> {
        let fanouts = self.fanouts(sig).to_vec();
        if fanouts.is_empty() || fanouts.len() > params.max_fanout {
            return Ok(false);
        }
        let Some((own_fanins, _)) = self.node(sig) else {
            return Ok(false);
        };
        let own_fanins = own_fanins.to_vec();

        // Cost before: sizes of sig and each fanout under the cost model.
        let Some(own_size) = self.memo_cost(sig, params, costs) else {
            return Ok(false);
        };
        let mut old_cost = own_size as isize;
        let mut new_nodes: Vec<(SignalId, Vec<SignalId>, Cover)> = Vec::new();
        let mut new_cost = 0isize;
        for &fo in &fanouts {
            let Some(fo_size) = self.memo_cost(fo, params, costs) else {
                return Ok(false);
            };
            old_cost += fo_size as isize;
            // Merged fanin list: fanout fanins minus sig, plus sig's fanins.
            let Some((fo_fanins, _)) = self.node(fo) else {
                return Err(NetworkError::Inconsistent {
                    detail: format!("fanout map lists non-node `{}`", self.signal_name(fo)),
                });
            };
            let mut merged: Vec<SignalId> = Vec::new();
            for &f in fo_fanins {
                if f != sig && !merged.contains(&f) {
                    merged.push(f);
                }
            }
            for &f in &own_fanins {
                if !merged.contains(&f) {
                    merged.push(f);
                }
            }
            if merged.len() > params.max_support {
                return Ok(false);
            }
            let Some((cover, bdd_size)) =
                self.composed_cover(fo, sig, &merged, params.max_local_bdd)
            else {
                return Ok(false);
            };
            new_cost += match params.cost {
                EliminateCost::BddNodes => bdd_size as isize,
                EliminateCost::Literals => cover.literal_count() as isize,
            };
            new_nodes.push((fo, merged, cover));
        }
        if new_cost - old_cost > params.growth_allowance {
            return Ok(false);
        }
        bds_trace::event!(
            "net.eliminate.collapse",
            node = sig.index(),
            fanouts = fanouts.len(),
            old_cost = old_cost,
            new_cost = new_cost,
        );
        for (fo, fanins, cover) in new_nodes {
            // Collapse only rewires to upstream signals, so this cannot
            // close a cycle; a failure here is structural corruption and
            // must surface, not unwind.
            self.replace_node(fo, fanins, cover)?;
            costs[fo.index()] = None;
        }
        Ok(true)
    }

    /// [`Network::collapse_cost`] through the per-call memo.
    fn memo_cost(
        &self,
        sig: SignalId,
        params: &EliminateParams,
        costs: &mut CostMemo,
    ) -> Option<usize> {
        *costs[sig.index()].get_or_insert_with(|| self.collapse_cost(sig, params))
    }

    /// Cost of the node driving `sig` under the configured model, still
    /// requiring the local BDD to fit within the structural cap.
    fn collapse_cost(&self, sig: SignalId, params: &EliminateParams) -> Option<usize> {
        bds_trace::counter!("net.eliminate.cost_evals");
        match params.cost {
            EliminateCost::BddNodes => self.local_bdd_size(sig, params.max_local_bdd),
            EliminateCost::Literals => {
                // Still guard against structurally huge nodes.
                self.local_bdd_size(sig, params.max_local_bdd)?;
                let (_, cover) = self.node(sig)?;
                Some(cover.literal_count())
            }
        }
    }

    /// Size (in BDD nodes) of the local function of `sig`, or `None` when
    /// it exceeds `limit`.
    pub(crate) fn local_bdd_size(&self, sig: SignalId, limit: usize) -> Option<usize> {
        let (fanins, cover) = self.node(sig)?;
        let mut mgr = Manager::with_node_limit(limit.saturating_mul(4).max(64));
        let vars = mgr.new_vars(fanins.len());
        let edge = cover_to_bdd(&mut mgr, cover, &vars).ok()?;
        let size = mgr.size(edge);
        (size <= limit).then_some(size)
    }

    /// Builds the cover of `fanout` with `sig` substituted by its local
    /// function, over the `merged` fanin list. Returns the cover and the
    /// BDD size, or `None` on blow-up.
    fn composed_cover(
        &self,
        fanout: SignalId,
        sig: SignalId,
        merged: &[SignalId],
        limit: usize,
    ) -> Option<(Cover, usize)> {
        let (fo_fanins, fo_cover) = self.node(fanout)?;
        let (own_fanins, own_cover) = self.node(sig)?;
        let mut mgr = Manager::with_node_limit(limit.saturating_mul(8).max(256));
        let mut var_of: HashMap<SignalId, Var> = HashMap::new();
        for &f in merged {
            var_of.insert(f, mgr.new_var(self.signal_name(f)));
        }
        // Build sig's function over merged vars.
        let own_vars: Vec<Var> = own_fanins.iter().map(|f| var_of[f]).collect();
        let own_edge = cover_to_bdd(&mut mgr, own_cover, &own_vars).ok()?;
        // Build the fanout function with sig's position replaced by the
        // composed edge.
        let fanin_edges: Vec<Edge> = fo_fanins
            .iter()
            .map(|&f| {
                if f == sig {
                    Ok(own_edge)
                } else {
                    mgr.literal_checked(var_of[&f], true)
                }
            })
            .collect::<std::result::Result<_, bds_bdd::BddError>>()
            .ok()?;
        let composed = crate::global::cover_to_bdd_edges(&mut mgr, fo_cover, &fanin_edges).ok()?;
        let size = mgr.size(composed);
        if size > limit {
            return None;
        }
        // Extract an ISOP cover over the merged positions.
        let (cubes, _) = mgr.isop(composed, composed).ok()?;
        let pos_of: HashMap<usize, u32> = merged
            .iter()
            .enumerate()
            .map(|(i, &f)| (var_of[&f].index(), i as u32))
            .collect();
        let mut mapped_cubes = Vec::with_capacity(cubes.len());
        for c in &cubes {
            // ISOP cubes are consistent by construction; treat a
            // contradictory one as blow-up rather than unwinding.
            let cube = Cube::new(
                c.literals()
                    .iter()
                    .map(|&(v, p)| (pos_of[&v.index()], p))
                    .collect(),
            )?;
            mapped_cubes.push(cube);
        }
        let cover = Cover::from_cubes(mapped_cubes);
        Some((cover, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> Cover {
        Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])])
    }

    /// A 2-level AND tree: eliminate should collapse it into one supernode.
    #[test]
    fn eliminate_collapses_and_tree() {
        let mut n = Network::new("t");
        let ins: Vec<SignalId> = (0..4)
            .map(|i| n.add_input(format!("i{i}")).unwrap())
            .collect();
        let g1 = n.add_node("g1", vec![ins[0], ins[1]], and2()).unwrap();
        let g2 = n.add_node("g2", vec![ins[2], ins[3]], and2()).unwrap();
        let f = n.add_node("f", vec![g1, g2], and2()).unwrap();
        n.mark_output(f).unwrap();
        let before: Vec<bool> = (0..16)
            .map(|bits| n.eval(&assign4(bits)).unwrap()[0])
            .collect();
        let eliminated = n.eliminate(&EliminateParams::default()).unwrap();
        assert_eq!(eliminated, 2, "both intermediate ANDs collapse");
        let c = n.compacted().unwrap();
        assert_eq!(c.node_count(), 1);
        for bits in 0..16 {
            assert_eq!(n.eval(&assign4(bits)).unwrap()[0], before[bits as usize]);
        }
    }

    fn assign4(bits: u32) -> Vec<bool> {
        (0..4).map(|i| bits >> i & 1 == 1).collect()
    }

    /// XOR chains must stop collapsing once the BDD cost stops improving.
    #[test]
    fn eliminate_respects_growth_allowance() {
        let xor2 = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let mut n = Network::new("x");
        let ins: Vec<SignalId> = (0..8)
            .map(|i| n.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut prev = ins[0];
        for (k, &i) in ins.iter().enumerate().skip(1) {
            let name = format!("x{k}");
            prev = n.add_node(name, vec![prev, i], xor2.clone()).unwrap();
        }
        n.mark_output(prev).unwrap();
        let params = EliminateParams {
            max_local_bdd: 12,
            ..Default::default()
        };
        n.eliminate(&params).unwrap();
        // Every surviving node's local BDD must respect the cap.
        let c = n.compacted().unwrap();
        for sig in c.node_ids() {
            let size = c.local_bdd_size(sig, usize::MAX).unwrap_or(0);
            assert!(size <= 12, "supernode exceeded the local-BDD cap: {size}");
        }
        // Function preserved.
        for bits in 0..256u32 {
            let a: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            let want = a.iter().fold(false, |acc, &b| acc ^ b);
            assert_eq!(n.eval(&a).unwrap()[0], want);
        }
    }

    /// Outputs are never eliminated.
    #[test]
    fn output_nodes_survive() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let g = n.add_node("g", vec![a, b], and2()).unwrap();
        let f = n.add_node("f", vec![g, a], and2()).unwrap();
        n.mark_output(g).unwrap();
        n.mark_output(f).unwrap();
        n.eliminate(&EliminateParams::default()).unwrap();
        assert!(n.node(g).is_some());
        assert!(n.outputs().contains(&g));
    }
}
