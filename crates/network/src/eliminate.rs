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
//! call is built in one scratch manager, cleared before each use, and
//! each distinct size probe and composition is built once per call: the
//! results are memoized by the covers and fanin positions they read.

use bds_bdd::{Edge, FastMap, Manager, Var};
use bds_sop::Cover;

use crate::global::{bdd_to_cover, cover_to_bdd, cover_to_bdd_edges};
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

/// Marks a signal that is not in [`Scratch::merged`], and a signal whose
/// cover has no id yet.
const ABSENT: u32 = u32::MAX;

/// A composition that fits its bounds: its BDD size and, once one was
/// needed, its ISOP cover.
#[derive(Copy, Clone)]
struct Composition {
    size: usize,
    cover: Isop,
}

/// The ISOP cover of a [`Composition`], over merged-fanin positions.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Isop {
    /// Not extracted yet.
    Unknown,
    /// The extraction hit the node limit.
    Failed,
    /// The interned cover with this id.
    Cover(u32),
}

/// What one [`Network::eliminate`] call carries from candidate to
/// candidate.
///
/// Every BDD is built from covers in a manager cleared first, so a
/// result depends only on the covers and positions it was built from and
/// on the call's parameters. The memos are keyed by exactly that content,
/// and a hit returns what a rebuild would, node-limit failures included.
struct Scratch {
    /// Signals whose last collapse attempt was rejected and whose
    /// neighbourhood has not changed since.
    settled: Vec<bool>,
    /// `cover_id[s]` is the id of the cover of the node driving `s`, or
    /// [`ABSENT`] before it is first read. Refreshed when a collapse
    /// rewrites the node.
    cover_id: Vec<u32>,
    /// Interned covers, by id.
    covers: Vec<Cover>,
    /// The id of each interned cover.
    ids: FastMap<Cover, u32>,
    /// Size-probe results by cover id: `None` until probed, then the
    /// collapse cost, or `None` when the local BDD exceeds the cap.
    probes: Vec<Option<Option<usize>>>,
    /// Compositions by key (see [`Network::composition`]); `None` when
    /// the composition blew up.
    compositions: FastMap<Box<[u32]>, Option<Composition>>,
    /// The key of the last composition looked up.
    key: Vec<u32>,
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
            settled: vec![false; signals],
            cover_id: vec![ABSENT; signals],
            covers: Vec::new(),
            ids: FastMap::default(),
            probes: Vec::new(),
            compositions: FastMap::default(),
            key: Vec::new(),
            mgr: Manager::new(),
            vars: Vec::new(),
            merged: Vec::new(),
            pos: vec![ABSENT; signals],
            own_vars: Vec::new(),
            fanin_edges: Vec::new(),
        }
    }

    /// The id of `cover`, interning it on first sight.
    fn intern(&mut self, cover: &Cover) -> u32 {
        if let Some(&id) = self.ids.get(cover) {
            return id;
        }
        let id = self.covers.len() as u32;
        self.covers.push(cover.clone());
        self.ids.insert(cover.clone(), id);
        self.probes.push(None);
        id
    }

    /// The id of `cover`, the current cover of the node driving `sig`.
    fn cover_id(&mut self, sig: SignalId, cover: &Cover) -> u32 {
        let id = self.cover_id[sig.index()];
        if id != ABSENT {
            return id;
        }
        let id = self.intern(cover);
        self.cover_id[sig.index()] = id;
        id
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

    /// Size (in BDD nodes) of `cover`, a function over `vars` positions,
    /// or `None` when it exceeds `limit`.
    fn local_bdd_size(&mut self, cover: &Cover, vars: usize, limit: usize) -> Option<usize> {
        self.reset_manager(vars, limit.saturating_mul(4).max(64));
        let edge = cover_to_bdd(&mut self.mgr, cover, &self.vars).ok()?;
        let size = self.mgr.size(edge);
        (size <= limit).then_some(size)
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
    /// without changing the result. Each distinct size probe and
    /// composition is built once per call.
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
            let Some(size) = self.collapse_cost(n, params, s) else {
                return Ok(false);
            };
            old_cost += size as isize;
        }
        // Costs are non-negative, so once the running total passes the
        // bound the collapse is rejected whatever the other fanouts cost.
        let bound = old_cost.saturating_add(params.growth_allowance);
        let literals = params.cost == EliminateCost::Literals;
        let mut new_cost = 0isize;
        for &fo in &fanouts {
            let Some(c) = self.composition(fo, sig, params, s, literals) else {
                return Ok(false);
            };
            new_cost += match c.cover {
                Isop::Cover(id) if literals => s.covers[id as usize].literal_count() as isize,
                _ => c.size as isize,
            };
            if new_cost > bound {
                return Ok(false);
            }
        }
        // Accepted: every fanout's cover, then the rewrites.
        let mut new_nodes = Vec::with_capacity(fanouts.len());
        for &fo in &fanouts {
            let Some(Composition {
                cover: Isop::Cover(id),
                ..
            }) = self.composition(fo, sig, params, s, true)
            else {
                return Ok(false);
            };
            new_nodes.push((fo, s.merged.clone(), id));
        }
        for (fo, fanins, id) in new_nodes {
            if let Some((old, _)) = self.node(fo) {
                s.unsettle(fo, old, &fanins);
            }
            // Collapse only rewires to upstream signals, so this cannot
            // close a cycle; a failure here is structural corruption and
            // must surface, not unwind.
            self.replace_node(fo, fanins, s.covers[id as usize].clone())?;
            s.cover_id[fo.index()] = id;
        }
        Ok(true)
    }

    /// Cost of the node driving `sig` under the configured model, still
    /// requiring the local BDD to fit within the structural cap. A probe
    /// reads only the node's cover, so it is memoized by cover id.
    fn collapse_cost(
        &self,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
    ) -> Option<usize> {
        let (fanins, cover) = self.node(sig)?;
        let id = s.cover_id(sig, cover) as usize;
        if let Some(cost) = s.probes[id] {
            return cost;
        }
        bds_trace::counter!("net.eliminate.cost_evals");
        let cost = s
            .local_bdd_size(cover, fanins.len(), params.max_local_bdd)
            .map(|size| match params.cost {
                EliminateCost::BddNodes => size,
                EliminateCost::Literals => cover.literal_count(),
            });
        s.probes[id] = Some(cost);
        cost
    }

    /// The composition of the node driving `sig` into `fanout`, over the
    /// merged fanin list it leaves in `s.merged`: `fanout`'s fanins minus
    /// `sig`, then `sig`'s fanins, without repeats. With `with_cover` the
    /// result holds the ISOP cover too. `None` when the merged support
    /// exceeds `params.max_support`, the BDD blows up, or a wanted cover
    /// cannot be extracted.
    ///
    /// The memo key is both cover ids and the merged position of every
    /// fanin of both nodes ([`ABSENT`] for `sig` itself): all a build
    /// reads besides `params`.
    fn composition(
        &self,
        fanout: SignalId,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
        with_cover: bool,
    ) -> Option<Composition> {
        let (fo_fanins, fo_cover) = self.node(fanout)?;
        let (own_fanins, own_cover) = self.node(sig)?;
        s.merge(fo_fanins.iter().filter(|&&f| f != sig).chain(own_fanins));
        let fo_id = s.cover_id(fanout, fo_cover);
        let own_id = s.cover_id(sig, own_cover);
        s.key.clear();
        s.key.extend([fo_id, own_id, fo_fanins.len() as u32]);
        let pos = &s.pos;
        s.key
            .extend(fo_fanins.iter().chain(own_fanins).map(|f| pos[f.index()]));
        let memo = s.compositions.get(&s.key[..]).copied();
        let c = match memo {
            Some(None) => return None,
            Some(Some(c)) if !with_cover || c.cover != Isop::Unknown => c,
            _ => {
                let c = self.compose(fanout, sig, params, s, with_cover);
                s.compositions.insert(s.key.as_slice().into(), c);
                c?
            }
        };
        (!with_cover || c.cover != Isop::Failed).then_some(c)
    }

    /// Builds the composition [`Network::composition`] describes, over
    /// the merged list it left in `s.merged`, in the scratch manager, and
    /// with `with_cover` extracts its ISOP cover.
    fn compose(
        &self,
        fanout: SignalId,
        sig: SignalId,
        params: &EliminateParams,
        s: &mut Scratch,
        with_cover: bool,
    ) -> Option<Composition> {
        let (fo_fanins, fo_cover) = self.node(fanout)?;
        let (own_fanins, own_cover) = self.node(sig)?;
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
        if size > limit {
            return None;
        }
        let cover = if !with_cover {
            Isop::Unknown
        } else if let Some(cover) = bdd_to_cover(&mut s.mgr, composed) {
            Isop::Cover(s.intern(&cover))
        } else {
            Isop::Failed
        };
        Some(Composition { size, cover })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_sop::Cube;

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
            let (fanins, cover) = c.node(sig).unwrap();
            let size = scratch
                .local_bdd_size(cover, fanins.len(), usize::MAX)
                .unwrap_or(0);
            assert!(size <= 12, "supernode exceeded the local-BDD cap: {size}");
        }
        // Function preserved.
        for bits in 0..256u32 {
            let a: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            let want = a.iter().fold(false, |acc, &b| acc ^ b);
            assert_eq!(n.eval(&a).unwrap()[0], want);
        }
    }

    /// Fanouts with equal covers but different fanin positions must not
    /// share a composition: `f1` and `f2` differ only in where `g`'s
    /// fanins land in the merged list, `f1` and `f3` only in which
    /// position of the fanout reads `g`.
    #[test]
    fn composition_key_holds_both_position_maps() {
        let or2 = Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, true)]);
        let and_not = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, false)])]);
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let c = n.add_input("c").unwrap();
        let g = n.add_node("g", vec![a, c], or2).unwrap();
        let f1 = n.add_node("f1", vec![g, a], and_not.clone()).unwrap();
        let f2 = n.add_node("f2", vec![g, b], and_not.clone()).unwrap();
        let f3 = n.add_node("f3", vec![a, g], and_not).unwrap();
        for f in [f1, f2, f3] {
            n.mark_output(f).unwrap();
        }
        assert_eq!(n.eliminate(&EliminateParams::default()).unwrap(), 1);
        let node = |s: SignalId| {
            let (fanins, cover) = n.node(s).unwrap();
            (fanins.to_vec(), cover.clone())
        };
        // f1 = (a + c)·!a = !a·c over [a, c].
        let want1 = Cover::from_cubes(vec![Cube::parse(&[(0, false), (1, true)])]);
        assert_eq!(node(f1), (vec![a, c], want1));
        // f2 = (a + c)·!b over [b, a, c].
        let want2 = Cover::from_cubes(vec![
            Cube::parse(&[(0, false), (1, true)]),
            Cube::parse(&[(0, false), (2, true)]),
        ]);
        assert_eq!(node(f2), (vec![b, a, c], want2));
        // f3 = a·!(a + c) = 0 over [a, c].
        assert_eq!(node(f3), (vec![a, c], Cover::zero()));
        for bits in 0..8u32 {
            let [a, b, c] = [0, 1, 2].map(|i| bits >> i & 1 == 1);
            let g = a || c;
            let want = vec![g && !a, g && !b, a && !g];
            assert_eq!(n.eval(&[a, b, c]).unwrap(), want, "a={a} b={b} c={c}");
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
