//! The `eliminate` pass: partial collapse into supernodes (paper §IV-B).
//!
//! BDS never builds one monolithic global BDD; instead it partially
//! collapses the network into *supernodes*, each small enough to be
//! represented as a local BDD. The collapse decision is costed in **BDD
//! nodes** rather than literals: "BDS adopts a similar approach
//! \[iterative elimination\], except that it uses the number of BDD nodes
//! as the cost function to guide the elimination".
//!
//! Only a size is needed to decide, so under [`EliminateCost::BddNodes`]
//! a candidate's fanouts are composed and measured, and ISOP covers are
//! built only for the fanouts of an accepted collapse. Every BDD of one
//! call is built in one scratch manager, cleared before each use.

use bds_bdd::{Edge, Manager, Var};
use bds_sop::{Cover, Cube};

use crate::global::{cover_to_bdd, cover_to_bdd_edges};
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
    /// Collapse a node when the total cost under `cost` (BDD nodes or
    /// literals) grows by at most this much (0 = only collapses that do
    /// not grow the representation; positive values collapse more
    /// aggressively).
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

/// Marks a signal that is not in [`Scratch::merged`].
const ABSENT: u32 = u32::MAX;

/// What one [`Network::eliminate`] call carries from candidate to
/// candidate.
struct Scratch {
    /// Per-signal `collapse_cost` results; `None` means not yet computed.
    /// An entry is dropped when its node is rewritten.
    costs: Vec<Option<Option<usize>>>,
    /// Signals whose last collapse attempt was rejected and whose
    /// neighbourhood has not changed since.
    settled: Vec<bool>,
    /// The manager every BDD of the call is built in, cleared before each
    /// use. Variable `i` stands for position `i` of the fanin list the
    /// function is built over.
    mgr: Manager,
    /// `vars[i]` is variable `i` of `mgr`.
    vars: Vec<Var>,
    /// The merged fanin list of the last composition.
    merged: Vec<SignalId>,
    /// `pos[s]` is the position of `s` in `merged`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Variables of the collapsed node's fanins, in its fanin order.
    own_vars: Vec<Var>,
    /// Functions standing for the fanout's fanins, in its fanin order.
    fanin_edges: Vec<Edge>,
}

impl Scratch {
    fn new(signals: usize) -> Self {
        Scratch {
            costs: vec![None; signals],
            settled: vec![false; signals],
            mgr: Manager::new(),
            vars: Vec::new(),
            merged: Vec::new(),
            pos: vec![ABSENT; signals],
            own_vars: Vec::new(),
            fanin_edges: Vec::new(),
        }
    }

    /// Empties the manager for a function over `vars` positional
    /// variables whose arena may not exceed `limit` nodes. It then builds
    /// exactly what a fresh manager would.
    fn reset_manager(&mut self, vars: usize, limit: usize) {
        self.mgr.clear_nodes();
        self.mgr.set_node_limit(limit);
        while self.vars.len() < vars {
            let i = self.vars.len();
            self.vars.push(self.mgr.new_var(format!("x{i}")));
        }
    }

    /// Sets `merged` to `fanins` without repeats, in first-seen order.
    fn merge<'a>(&mut self, fanins: impl Iterator<Item = &'a SignalId>) {
        for f in self.merged.drain(..) {
            self.pos[f.index()] = ABSENT;
        }
        for &f in fanins {
            if self.pos[f.index()] == ABSENT {
                self.pos[f.index()] = self.merged.len() as u32;
                self.merged.push(f);
            }
        }
    }

    /// The variable standing for `f`, which must be in `merged`.
    fn var_of(&self, f: SignalId) -> Var {
        self.vars[self.pos[f.index()] as usize]
    }

    /// ISOP cover of `f`, a function in `mgr`; cover position `i` is
    /// variable `i`. `None` if the extraction hits the node limit.
    fn cover_of(&mut self, f: Edge) -> Option<Cover> {
        let (cubes, _) = self.mgr.isop(f, f).ok()?;
        let cubes = cubes
            .iter()
            // ISOP cubes are consistent by construction; treat a
            // contradictory one as blow-up rather than unwinding.
            .map(|c| Cube::new(c.literals().iter().map(|&(v, p)| (v.index() as u32, p)).collect()))
            .collect::<Option<Vec<_>>>()?;
        Some(Cover::from_cubes(cubes))
    }

    /// Forgets the rejections that a rewrite of `fo` from fanins `old` to
    /// `new` may have changed: those of `fo` and of every signal whose
    /// fanout list it touches.
    fn unsettle(&mut self, fo: SignalId, old: &[SignalId], new: &[SignalId]) {
        self.settled[fo.index()] = false;
        for &f in old.iter().chain(new) {
            self.settled[f.index()] = false;
        }
    }
}

impl Network {
    /// Iteratively eliminates internal nodes into their fanouts while the
    /// cost under `params.cost` (BDD nodes, or literals for the SIS
    /// baseline) grows by at most `params.growth_allowance`.
    /// Returns the number of nodes eliminated.
    ///
    /// Primary outputs' driving nodes are never eliminated (their names
    /// must survive), and primary inputs are untouchable by construction.
    ///
    /// A rejected candidate is not tried again until a rewrite touches
    /// its neighbourhood: it would be rejected again, so this skips work
    /// without changing the result.
    ///
    /// # Errors
    /// Propagates [`NetworkError`](crate::NetworkError)s from the collapse
    /// rewrites (a healthy network produces none); the exit audit reports
    /// [`NetworkError::Inconsistent`](crate::NetworkError::Inconsistent) /
    /// [`NetworkError::Cycle`](crate::NetworkError::Cycle) if a collapse
    /// corrupted the network (strict builds only).
    pub fn eliminate(&mut self, params: &EliminateParams) -> Result<usize> {
        let _span = bds_trace::span!("net.eliminate");
        let mut eliminated = 0;
        let mut is_output = vec![false; self.signals.len()];
        for &o in self.outputs() {
            is_output[o.index()] = true;
        }
        let mut scratch = Scratch::new(self.signals.len());
        for _ in 0..params.max_passes {
            let mut changed = 0;
            // Reverse topological order: collapsing sinks first exposes
            // further candidates cheaply.
            let mut order = self.topo_order();
            order.reverse();
            for sig in order {
                if self.node(sig).is_none()
                    || is_output[sig.index()]
                    || scratch.settled[sig.index()]
                {
                    continue;
                }
                if self.try_eliminate(sig, params, &mut scratch)? {
                    changed += 1;
                } else {
                    scratch.settled[sig.index()] = true;
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
    ///
    /// The decision reads only the nodes of `sig` and its fanouts and the
    /// fanout list of `sig`; [`Scratch::unsettle`] relies on that.
    fn try_eliminate(
        &mut self,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
    ) -> Result<bool> {
        let fanouts = self.fanouts(sig).to_vec();
        if fanouts.is_empty() || fanouts.len() > params.max_fanout {
            return Ok(false);
        }
        // Cost before: sizes of sig and each fanout under the cost model.
        let mut old_cost = 0isize;
        for &n in std::iter::once(&sig).chain(&fanouts) {
            let Some(size) = self.memo_cost(n, params, s) else {
                return Ok(false);
            };
            old_cost += size as isize;
        }
        // Costs are non-negative, so once the running total passes the
        // bound the collapse is rejected whatever the other fanouts cost.
        let bound = old_cost.saturating_add(params.growth_allowance);
        let mut new_nodes: Vec<(SignalId, Vec<SignalId>, Cover)> = Vec::new();
        let mut new_cost = 0isize;
        let mut last = Edge::ZERO;
        for &fo in &fanouts {
            let Some((composed, bdd_size)) = self.compose(fo, sig, params, s) else {
                return Ok(false);
            };
            new_cost += match params.cost {
                EliminateCost::BddNodes => bdd_size as isize,
                EliminateCost::Literals => {
                    let Some(cover) = s.cover_of(composed) else {
                        return Ok(false);
                    };
                    let literals = cover.literal_count() as isize;
                    new_nodes.push((fo, s.merged.clone(), cover));
                    literals
                }
            };
            if new_cost > bound {
                return Ok(false);
            }
            last = composed;
        }
        if params.cost == EliminateCost::BddNodes {
            // Accepted on size: build the covers. The manager still holds
            // the last fanout's composition; the others are recomposed.
            let Some((&last_fo, rest)) = fanouts.split_last() else {
                return Ok(false);
            };
            let Some(cover) = s.cover_of(last) else {
                return Ok(false);
            };
            let last_node = (last_fo, s.merged.clone(), cover);
            for &fo in rest {
                let Some((composed, _)) = self.compose(fo, sig, params, s) else {
                    return Ok(false);
                };
                let Some(cover) = s.cover_of(composed) else {
                    return Ok(false);
                };
                new_nodes.push((fo, s.merged.clone(), cover));
            }
            new_nodes.push(last_node);
        }
        for (fo, fanins, cover) in new_nodes {
            if let Some((old, _)) = self.node(fo) {
                s.unsettle(fo, old, &fanins);
            }
            // Collapse only rewires to upstream signals, so this cannot
            // close a cycle; a failure here is structural corruption and
            // must surface, not unwind.
            self.replace_node(fo, fanins, cover)?;
            s.costs[fo.index()] = None;
        }
        Ok(true)
    }

    /// [`Network::collapse_cost`] through the per-call memo.
    fn memo_cost(&self, sig: SignalId, params: &EliminateParams, s: &mut Scratch) -> Option<usize> {
        if let Some(cost) = s.costs[sig.index()] {
            return cost;
        }
        let cost = self.collapse_cost(sig, params, s);
        s.costs[sig.index()] = Some(cost);
        cost
    }

    /// Cost of the node driving `sig` under the configured model, still
    /// requiring the local BDD to fit within the structural cap.
    fn collapse_cost(
        &self,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
    ) -> Option<usize> {
        bds_trace::counter!("net.eliminate.cost_evals");
        let size = self.local_bdd_size(sig, params.max_local_bdd, s)?;
        match params.cost {
            EliminateCost::BddNodes => Some(size),
            EliminateCost::Literals => Some(self.node(sig)?.1.literal_count()),
        }
    }

    /// Size (in BDD nodes) of the local function of `sig`, or `None` when
    /// it exceeds `limit`.
    fn local_bdd_size(&self, sig: SignalId, limit: usize, s: &mut Scratch) -> Option<usize> {
        let (fanins, cover) = self.node(sig)?;
        s.reset_manager(fanins.len(), limit.saturating_mul(4).max(64));
        let edge = cover_to_bdd(&mut s.mgr, cover, &s.vars).ok()?;
        let size = s.mgr.size(edge);
        (size <= limit).then_some(size)
    }

    /// Composes the node driving `sig` into `fanout` in the scratch
    /// manager, over the merged fanin list it leaves in `s.merged`:
    /// `fanout`'s fanins minus `sig`, then `sig`'s fanins, without
    /// repeats. Returns the composed function and its BDD size, or `None`
    /// when the merged support exceeds `params.max_support` or the BDD
    /// blows up.
    fn compose(
        &self,
        fanout: SignalId,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
    ) -> Option<(Edge, usize)> {
        let (fo_fanins, fo_cover) = self.node(fanout)?;
        let (own_fanins, own_cover) = self.node(sig)?;
        s.merge(fo_fanins.iter().filter(|&&f| f != sig).chain(own_fanins));
        if s.merged.len() > params.max_support {
            return None;
        }
        bds_trace::counter!("net.eliminate.composed");
        let limit = params.max_local_bdd;
        s.reset_manager(s.merged.len(), limit.saturating_mul(8).max(256));
        // Build sig's function, then the fanout's with sig's position
        // replaced by it.
        s.own_vars.clear();
        for &f in own_fanins {
            s.own_vars.push(s.var_of(f));
        }
        let own_edge = cover_to_bdd(&mut s.mgr, own_cover, &s.own_vars).ok()?;
        s.fanin_edges.clear();
        for &f in fo_fanins {
            let edge = if f == sig {
                own_edge
            } else {
                s.mgr.literal_checked(s.var_of(f), true).ok()?
            };
            s.fanin_edges.push(edge);
        }
        let composed = cover_to_bdd_edges(&mut s.mgr, fo_cover, &s.fanin_edges).ok()?;
        let size = s.mgr.size(composed);
        (size <= limit).then_some((composed, size))
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
        let mut scratch = Scratch::new(c.signals().count());
        for sig in c.node_ids() {
            let size = c.local_bdd_size(sig, usize::MAX, &mut scratch).unwrap_or(0);
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
