//! The Boolean-network data structure.

use std::collections::HashMap;

use bds_sop::Cover;

use crate::error::NetworkError;
use crate::Result;

/// Identifier of a signal (primary input or internal node output) within
/// one [`Network`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Raw index of this signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
pub(crate) struct NodeData {
    pub fanins: Vec<SignalId>,
    /// Local function over fanin *positions* (cover variable `i` is
    /// `fanins[i]`).
    pub cover: Cover,
}

#[derive(Clone, Debug)]
pub(crate) enum Driver {
    Input,
    Node(NodeData),
}

#[derive(Clone, Debug)]
pub(crate) struct SignalEntry {
    pub(crate) name: String,
    pub(crate) driver: Driver,
}

/// A combinational multi-level Boolean network.
///
/// Nodes carry local functions as SOP covers over their fanins. The
/// network is a DAG by construction: `add_node` only accepts existing
/// signals as fanins, and `replace_node` re-checks acyclicity.
///
/// The network keeps a fanout index (each signal's readers) and a count
/// of back edges up to date on every edit, so fanout queries and most
/// cycle checks never scan the whole network (DESIGN.md §5).
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    pub(crate) signals: Vec<SignalEntry>,
    pub(crate) by_name: HashMap<String, SignalId>,
    pub(crate) inputs: Vec<SignalId>,
    pub(crate) outputs: Vec<SignalId>,
    /// `fanout_index[s]`: the nodes reading `s`, in ascending id order,
    /// once per fanin position. Written only by `add_signal` and
    /// `replace_node`.
    pub(crate) fanout_index: Vec<Vec<SignalId>>,
    /// Number of fanin positions whose signal id is `>=` the id of the
    /// node reading it. While it is zero every edge points to a higher
    /// id, so the network is acyclic without a search.
    pub(crate) back_edges: usize,
    fresh_counter: u32,
}

impl Network {
    /// Creates an empty network called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            signals: Vec::new(),
            by_name: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            fanout_index: Vec::new(),
            back_edges: 0,
            fresh_counter: 0,
        }
    }

    /// The network's model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a primary input.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] if the name is taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> Result<SignalId> {
        let id = self.add_signal(name.into(), Driver::Input)?;
        self.inputs.push(id);
        Ok(id)
    }

    /// Adds an internal node computing `cover` over `fanins`.
    ///
    /// Cover variable `i` refers to `fanins[i]`.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] for a taken name,
    /// [`NetworkError::UnknownSignal`] for a foreign fanin,
    /// [`NetworkError::Inconsistent`] if the cover mentions a variable
    /// outside the fanin list.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        fanins: Vec<SignalId>,
        cover: Cover,
    ) -> Result<SignalId> {
        for &f in &fanins {
            self.check_signal(f)?;
        }
        Self::check_cover(&fanins, &cover)?;
        self.add_signal(name.into(), Driver::Node(NodeData { fanins, cover }))
    }

    /// Adds a constant node.
    ///
    /// # Errors
    /// [`NetworkError::DuplicateName`] if the name is taken.
    pub fn add_constant(&mut self, name: impl Into<String>, value: bool) -> Result<SignalId> {
        let cover = if value { Cover::one() } else { Cover::zero() };
        self.add_node(name, Vec::new(), cover)
    }

    fn add_signal(&mut self, name: String, driver: Driver) -> Result<SignalId> {
        if self.by_name.contains_key(&name) {
            return Err(NetworkError::DuplicateName { name });
        }
        let id = SignalId(self.signals.len() as u32);
        if let Driver::Node(nd) = &driver {
            // Every fanin already exists, so it has a lower id: appending
            // keeps each list sorted and adds no back edge.
            for &f in &nd.fanins {
                self.fanout_index[f.index()].push(id);
            }
        }
        self.by_name.insert(name.clone(), id);
        self.signals.push(SignalEntry { name, driver });
        self.fanout_index.push(Vec::new());
        Ok(id)
    }

    fn check_cover(fanins: &[SignalId], cover: &Cover) -> Result<()> {
        let max = cover.support().into_iter().max();
        if let Some(v) = max {
            if v as usize >= fanins.len() {
                return Err(NetworkError::Inconsistent {
                    detail: format!(
                        "cover references position {v} but node has {} fanins",
                        fanins.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Replaces the local function of the node driving `sig`.
    ///
    /// Costs O(old + new fanin count) to update the fanout index (plus
    /// shifting each reader list that gains or loses `sig`). The cycle
    /// check searches only when the edit leaves back edges (fanins with an
    /// id `>=` their reader's) in the network: a forward search from `sig`
    /// for the fanins it did not already read.
    ///
    /// # Errors
    /// [`NetworkError::UnknownSignal`] / [`NetworkError::Inconsistent`] as
    /// for `add_node`; [`NetworkError::Cycle`] if some new fanin depends
    /// (transitively) on `sig`.
    pub fn replace_node(
        &mut self,
        sig: SignalId,
        fanins: Vec<SignalId>,
        cover: Cover,
    ) -> Result<()> {
        self.check_signal(sig)?;
        for &f in &fanins {
            self.check_signal(f)?;
        }
        Self::check_cover(&fanins, &cover)?;
        let Driver::Node(old) = &self.signals[sig.index()].driver else {
            return Err(NetworkError::Inconsistent {
                detail: format!("`{}` is a primary input", self.signal_name(sig)),
            });
        };
        let mut old_sorted = old.fanins.clone();
        old_sorted.sort_unstable();
        let mut new_sorted = fanins.clone();
        new_sorted.sort_unstable();
        // Cycle check: no fanin may (transitively) depend on sig. The
        // network is acyclic, so a fanin that sig already reads cannot.
        let back = |list: &[SignalId]| list.iter().filter(|&&f| f >= sig).count();
        let back_edges = self.back_edges - back(&old.fanins) + back(&fanins);
        let cyclic = fanins.contains(&sig)
            || (back_edges > 0 && {
                let added: Vec<SignalId> = new_sorted
                    .iter()
                    .copied()
                    .filter(|f| old_sorted.binary_search(f).is_err())
                    .collect();
                self.reaches_any(sig, &added)
            });
        if cyclic {
            return Err(NetworkError::Cycle {
                name: self.signal_name(sig).to_string(),
            });
        }
        self.relink(sig, &old_sorted, &new_sorted);
        self.back_edges = back_edges;
        self.signals[sig.index()].driver = Driver::Node(NodeData { fanins, cover });
        Ok(())
    }

    /// Moves `sig` in the fanout index from the lists of `old` to those of
    /// `new` (both sorted). Fanins present in both stay untouched.
    fn relink(&mut self, sig: SignalId, old: &[SignalId], new: &[SignalId]) {
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < new.len() {
            if j == new.len() || (i < old.len() && old[i] < new[j]) {
                let list = &mut self.fanout_index[old[i].index()];
                if let Ok(pos) = list.binary_search(&sig) {
                    list.remove(pos);
                }
                i += 1;
            } else if i == old.len() || new[j] < old[i] {
                let list = &mut self.fanout_index[new[j].index()];
                let pos = list.partition_point(|&r| r <= sig);
                list.insert(pos, sig);
                j += 1;
            } else {
                i += 1;
                j += 1;
            }
        }
    }

    /// True if some signal in `targets` is reachable from `sig` along
    /// fanout edges. Stops at the first hit.
    fn reaches_any(&self, sig: SignalId, targets: &[SignalId]) -> bool {
        if targets.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.signals.len()];
        let mut stack = vec![sig];
        while let Some(s) = stack.pop() {
            for &t in &self.fanout_index[s.index()] {
                if targets.contains(&t) {
                    return true;
                }
                if !std::mem::replace(&mut seen[t.index()], true) {
                    stack.push(t);
                }
            }
        }
        false
    }

    /// Marks `sig` as a primary output (idempotent).
    ///
    /// # Errors
    /// [`NetworkError::UnknownSignal`] for a foreign signal.
    pub fn mark_output(&mut self, sig: SignalId) -> Result<()> {
        self.check_signal(sig)?;
        if !self.outputs.contains(&sig) {
            self.outputs.push(sig);
        }
        Ok(())
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// The name of `sig`.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn signal_name(&self, sig: SignalId) -> &str {
        &self.signals[sig.index()].name
    }

    /// Looks a signal up by name.
    pub fn signal_id(&self, name: &str) -> Option<SignalId> {
        self.by_name.get(name).copied()
    }

    /// True if `sig` is a primary input.
    pub fn is_input(&self, sig: SignalId) -> bool {
        matches!(self.signals[sig.index()].driver, Driver::Input)
    }

    /// The `(fanins, cover)` of the node driving `sig`, or `None` for a
    /// primary input.
    pub fn node(&self, sig: SignalId) -> Option<(&[SignalId], &Cover)> {
        match &self.signals[sig.index()].driver {
            Driver::Input => None,
            Driver::Node(n) => Some((&n.fanins, &n.cover)),
        }
    }

    pub(crate) fn node_data(&self, sig: SignalId) -> Option<&NodeData> {
        match &self.signals[sig.index()].driver {
            Driver::Input => None,
            Driver::Node(n) => Some(n),
        }
    }

    /// Every signal id, inputs and nodes alike.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len() as u32).map(SignalId)
    }

    /// Ids of internal nodes only.
    pub fn node_ids(&self) -> Vec<SignalId> {
        self.signals().filter(|&s| !self.is_input(s)).collect()
    }

    /// Number of internal nodes.
    pub fn node_count(&self) -> usize {
        self.signals
            .iter()
            .filter(|s| matches!(s.driver, Driver::Node(_)))
            .count()
    }

    fn check_signal(&self, sig: SignalId) -> Result<()> {
        if sig.index() < self.signals.len() {
            Ok(())
        } else {
            Err(NetworkError::UnknownSignal {
                name: format!("#{}", sig.0),
            })
        }
    }

    /// All signals topologically sorted (fanins before fanouts).
    pub fn topo_order(&self) -> Vec<SignalId> {
        let mut order = Vec::with_capacity(self.signals.len());
        // Iterative DFS over every signal. `state`: 0 new, 1 open, 2 done.
        // The stack is empty again at the end of every start's search.
        let mut state = vec![0u8; self.signals.len()];
        let mut stack = Vec::new();
        for start in self.signals() {
            if state[start.index()] != 0 {
                continue;
            }
            stack.push((start, false));
            while let Some((sig, expanded)) = stack.pop() {
                if expanded {
                    state[sig.index()] = 2;
                    order.push(sig);
                    continue;
                }
                if state[sig.index()] != 0 {
                    continue;
                }
                state[sig.index()] = 1;
                stack.push((sig, true));
                if let Some(nd) = self.node_data(sig) {
                    for &f in &nd.fanins {
                        if state[f.index()] == 0 {
                            stack.push((f, false));
                        }
                    }
                }
            }
        }
        order
    }

    /// The nodes that read `sig`, in ascending id order, listed once per
    /// fanin position. O(1): the index is kept up to date by every edit.
    ///
    /// # Panics
    /// Panics on a foreign id.
    pub fn fanouts(&self, sig: SignalId) -> &[SignalId] {
        &self.fanout_index[sig.index()]
    }

    /// Simulates the network under a primary-input assignment (values in
    /// input declaration order). Returns output values in output order.
    ///
    /// # Errors
    /// [`NetworkError::BadAssignment`] on a length mismatch.
    pub fn eval(&self, input_values: &[bool]) -> Result<Vec<bool>> {
        if input_values.len() != self.inputs.len() {
            return Err(NetworkError::BadAssignment {
                expected: self.inputs.len(),
                got: input_values.len(),
            });
        }
        let mut values = vec![false; self.signals.len()];
        for (i, &sig) in self.inputs.iter().enumerate() {
            values[sig.index()] = input_values[i];
        }
        for sig in self.topo_order() {
            if let Some(nd) = self.node_data(sig) {
                let local: Vec<bool> = nd.fanins.iter().map(|&f| values[f.index()]).collect();
                values[sig.index()] = nd.cover.eval(&local);
            }
        }
        Ok(self.outputs.iter().map(|&o| values[o.index()]).collect())
    }

    /// Generates a fresh, unused signal name with the given prefix.
    pub fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let candidate = format!("{prefix}_{}", self.fresh_counter);
            self.fresh_counter += 1;
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    /// Rebuilds the network keeping only signals reachable from the
    /// outputs (plus all primary inputs). Returns the compacted network;
    /// signal ids are renumbered.
    ///
    /// # Errors
    /// [`NetworkError::Inconsistent`] if the source network is corrupt —
    /// duplicate names, a fanin that is not yet placed by the topological
    /// order, or an output whose driving signal could not be rebuilt. A
    /// well-formed network (see [`Network::check_invariants`]) never
    /// fails.
    pub fn compacted(&self) -> Result<Network> {
        let _span = bds_trace::span!("net.compacted");
        let mut live = vec![false; self.signals.len()];
        let mut stack: Vec<SignalId> = self.outputs.clone();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut live[s.index()], true) {
                continue;
            }
            if let Some(nd) = self.node_data(s) {
                stack.extend(nd.fanins.iter().copied());
            }
        }
        let mut out = Network::new(self.name.clone());
        // `map[s]`: the id of `s` in `out`, once it has been rebuilt.
        let mut map: Vec<Option<SignalId>> = vec![None; self.signals.len()];
        for &i in &self.inputs {
            let ni = out.add_input(self.signal_name(i))?;
            map[i.index()] = Some(ni);
        }
        for sig in self.topo_order() {
            if self.is_input(sig) || !live[sig.index()] {
                continue;
            }
            let nd = self
                .node_data(sig)
                .ok_or_else(|| NetworkError::Inconsistent {
                    detail: format!("`{}` is neither input nor node", self.signal_name(sig)),
                })?;
            let mut fanins = Vec::with_capacity(nd.fanins.len());
            for f in &nd.fanins {
                let mapped = map[f.index()].ok_or_else(|| NetworkError::Inconsistent {
                    detail: format!(
                        "fanin `{}` of `{}` not placed by topological order",
                        self.signal_name(*f),
                        self.signal_name(sig)
                    ),
                })?;
                fanins.push(mapped);
            }
            let ns = out.add_node(self.signal_name(sig), fanins, nd.cover.clone())?;
            map[sig.index()] = Some(ns);
        }
        for &o in &self.outputs {
            let mapped = map[o.index()].ok_or_else(|| NetworkError::Inconsistent {
                detail: format!("output `{}` was not rebuilt", self.signal_name(o)),
            })?;
            out.mark_output(mapped)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_sop::Cube;

    fn and_cover() -> Cover {
        Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])])
    }

    #[test]
    fn build_and_eval() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let f = n.add_node("f", vec![a, b], and_cover()).unwrap();
        n.mark_output(f).unwrap();
        assert_eq!(n.eval(&[true, true]).unwrap(), vec![true]);
        assert_eq!(n.eval(&[false, true]).unwrap(), vec![false]);
        assert!(n.eval(&[true]).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = Network::new("t");
        n.add_input("a").unwrap();
        assert!(matches!(
            n.add_input("a"),
            Err(NetworkError::DuplicateName { .. })
        ));
    }

    #[test]
    fn cover_out_of_range_rejected() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let bad = Cover::from_cubes(vec![Cube::parse(&[(1, true)])]);
        assert!(matches!(
            n.add_node("f", vec![a], bad),
            Err(NetworkError::Inconsistent { .. })
        ));
    }

    #[test]
    fn replace_node_cycle_detected() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let f = n
            .add_node("f", vec![a], Cover::from_cubes(vec![Cube::lit(0, true)]))
            .unwrap();
        let g = n
            .add_node("g", vec![f], Cover::from_cubes(vec![Cube::lit(0, false)]))
            .unwrap();
        // Making f depend on g closes a cycle.
        let r = n.replace_node(f, vec![g], Cover::from_cubes(vec![Cube::lit(0, true)]));
        assert!(matches!(r, Err(NetworkError::Cycle { .. })));
        // Self-loop too.
        let r = n.replace_node(f, vec![f], Cover::from_cubes(vec![Cube::lit(0, true)]));
        assert!(matches!(r, Err(NetworkError::Cycle { .. })));
    }

    #[test]
    fn fanouts_track_edits() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let f = n.add_node("f", vec![a, b], and_cover()).unwrap();
        let g = n.add_node("g", vec![f, a], and_cover()).unwrap();
        assert_eq!(n.fanouts(a), &[f, g]);
        assert_eq!(n.fanouts(f), &[g]);
        n.replace_node(g, vec![b, b], and_cover()).unwrap();
        assert_eq!(n.fanouts(a), &[f]);
        assert_eq!(n.fanouts(b), &[f, g, g]);
        assert!(n.fanouts(f).is_empty());
        n.check_invariants().unwrap();
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let f = n.add_node("f", vec![a, b], and_cover()).unwrap();
        let g = n.add_node("g", vec![f, a], and_cover()).unwrap();
        n.mark_output(g).unwrap();
        let order = n.topo_order();
        let pos = |s: SignalId| order.iter().position(|&x| x == s).unwrap();
        assert!(pos(a) < pos(f));
        assert!(pos(f) < pos(g));
    }

    #[test]
    fn compacted_drops_dead_logic() {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let f = n.add_node("f", vec![a, b], and_cover()).unwrap();
        let _dead = n.add_node("dead", vec![a, b], and_cover()).unwrap();
        n.mark_output(f).unwrap();
        let c = n.compacted().unwrap();
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.eval(&[true, true]).unwrap(), vec![true]);
    }

    #[test]
    fn fresh_names_unique() {
        let mut n = Network::new("t");
        n.add_input("n_0").unwrap();
        let f1 = n.fresh_name("n");
        let f2 = n.fresh_name("n");
        assert_ne!(f1, "n_0");
        assert_ne!(f1, f2);
    }

    #[test]
    fn constants() {
        let mut n = Network::new("t");
        let c1 = n.add_constant("one", true).unwrap();
        let c0 = n.add_constant("zero", false).unwrap();
        n.mark_output(c1).unwrap();
        n.mark_output(c0).unwrap();
        assert_eq!(n.eval(&[]).unwrap(), vec![true, false]);
    }
}
