//! Local and global BDD construction for networks.

use std::collections::HashMap;

use bds_bdd::{Edge, Manager, Var};
use bds_sop::Cover;

use crate::network::{Network, SignalId};
use crate::Result;

/// Builds the BDD of `cover` in `mgr`, mapping cover position `i` to
/// `vars[i]`.
///
/// # Errors
/// Propagates BDD node-limit / unknown-variable errors.
///
/// # Panics
/// Panics if the cover references a position `≥ vars.len()` (networks
/// validate covers on construction).
pub fn cover_to_bdd(mgr: &mut Manager, cover: &Cover, vars: &[Var]) -> Result<Edge> {
    let mut acc = Edge::ZERO;
    for cube in cover.cubes() {
        let mut prod = Edge::ONE;
        for &(pos, phase) in cube.literals() {
            let lit = mgr.literal_checked(vars[pos as usize], phase)?;
            prod = mgr.and(prod, lit)?;
        }
        acc = mgr.or(acc, prod)?;
    }
    Ok(acc)
}

impl Network {
    /// A static variable order for the primary inputs: depth-first fanin
    /// traversal from the outputs, recording inputs at first visit. This
    /// is the classic netlist-aware initial order that keeps related
    /// inputs adjacent.
    pub fn static_input_order(&self) -> Vec<SignalId> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.signals().count()];
        let mut stack: Vec<SignalId> = self.outputs().iter().rev().copied().collect();
        while let Some(sig) = stack.pop() {
            if std::mem::replace(&mut seen[sig.index()], true) {
                continue;
            }
            match self.node(sig) {
                None => order.push(sig),
                Some((fanins, _)) => {
                    for &f in fanins.iter().rev() {
                        if !seen[f.index()] {
                            stack.push(f);
                        }
                    }
                }
            }
        }
        // Inputs never reached from outputs still get variables, at the
        // end of the order.
        for &i in self.inputs() {
            if !seen[i.index()] {
                order.push(i);
            }
        }
        order
    }

    /// Builds global BDDs for all primary outputs by sweeping the network
    /// in topological order (the "global form" of §II-A: the network
    /// collapsed into one BDD per output).
    ///
    /// Returns the manager (one variable per primary input, ordered by
    /// [`Network::static_input_order`]), the output functions in output
    /// order, and the map from input signal to variable.
    ///
    /// # Errors
    /// [`crate::NetworkError::Bdd`] when `node_limit` is exceeded —
    /// global BDDs are intractable for e.g. large multipliers, which is
    /// exactly why BDS synthesizes on partitioned local BDDs.
    pub fn global_bdds(
        &self,
        node_limit: usize,
    ) -> Result<(Manager, Vec<Edge>, HashMap<SignalId, Var>)> {
        let mut mgr = Manager::with_node_limit(node_limit);
        let mut var_of: HashMap<SignalId, Var> = HashMap::new();
        for sig in self.static_input_order() {
            let v = mgr.new_var(self.signal_name(sig));
            var_of.insert(sig, v);
        }
        let edges = self.global_bdds_in(&mut mgr, &var_of)?;
        Ok((mgr, edges, var_of))
    }

    /// Like [`Network::global_bdds`] but into a caller-supplied manager
    /// and input-variable map (used by the equivalence checker to share
    /// one manager across two networks).
    ///
    /// # Errors
    /// [`crate::NetworkError::Bdd`] on node-limit exhaustion;
    /// [`crate::NetworkError::Inconsistent`] if an input lacks a variable.
    pub fn global_bdds_in(
        &self,
        mgr: &mut Manager,
        var_of: &HashMap<SignalId, Var>,
    ) -> Result<Vec<Edge>> {
        let mut value: HashMap<SignalId, Edge> = HashMap::new();
        // Sort by variable before touching the manager: literal nodes must
        // be allocated in a deterministic order or node indices become
        // run-dependent.
        #[expect(clippy::disallowed_methods, reason = "`pairs` is sorted by Var below")]
        let mut pairs: Vec<(SignalId, Var)> = var_of.iter().map(|(&s, &v)| (s, v)).collect();
        pairs.sort_unstable_by_key(|&(_, v)| v);
        for (sig, var) in pairs {
            let lit = mgr.literal_checked(var, true)?;
            value.insert(sig, lit);
        }
        for sig in self.topo_order() {
            if self.is_input(sig) {
                if !value.contains_key(&sig) {
                    return Err(crate::NetworkError::Inconsistent {
                        detail: format!("input `{}` has no bdd variable", self.signal_name(sig)),
                    });
                }
                continue;
            }
            #[expect(clippy::expect_used, reason = "guarded: inputs are handled above")]
            let (fanins, cover) = self.node(sig).expect("non-input");
            let fanin_edges: Vec<Edge> = fanins.iter().map(|f| value[f]).collect();
            let e = cover_to_bdd_edges(mgr, cover, &fanin_edges)?;
            value.insert(sig, e);
        }
        Ok(self.outputs().iter().map(|o| value[o]).collect())
    }

    /// Builds the local BDD of the node driving `sig` over fresh (or
    /// caller-chosen) fanin variables.
    ///
    /// # Errors
    /// BDD errors as usual; `Inconsistent` when `sig` is a primary input.
    ///
    /// # Panics
    /// Panics if `fanin_vars` is shorter than the fanin list.
    pub fn local_bdd(&self, sig: SignalId, mgr: &mut Manager, fanin_vars: &[Var]) -> Result<Edge> {
        let (fanins, cover) = self
            .node(sig)
            .ok_or_else(|| crate::NetworkError::Inconsistent {
                detail: format!("`{}` is a primary input", self.signal_name(sig)),
            })?;
        assert!(
            fanin_vars.len() >= fanins.len(),
            "fanin variable list too short"
        );
        cover_to_bdd(mgr, cover, fanin_vars)
    }
}

/// Builds the BDD of `cover` where position `i` stands for the
/// already-built function `fanin_edges[i]` (composition by substitution).
///
/// # Errors
/// Propagates BDD node-limit errors.
pub fn cover_to_bdd_edges(mgr: &mut Manager, cover: &Cover, fanin_edges: &[Edge]) -> Result<Edge> {
    let mut acc = Edge::ZERO;
    for cube in cover.cubes() {
        let mut prod = Edge::ONE;
        for &(pos, phase) in cube.literals() {
            let f = fanin_edges[pos as usize].complement_if(!phase);
            prod = mgr.and(prod, f)?;
        }
        acc = mgr.or(acc, prod)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_sop::Cube;

    fn xor_net() -> Network {
        let mut n = Network::new("x");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let f = n.add_node("f", vec![a, b], cover).unwrap();
        n.mark_output(f).unwrap();
        n
    }

    #[test]
    fn global_bdd_matches_simulation() {
        let n = xor_net();
        let (mgr, outs, var_of) = n.global_bdds(usize::MAX).unwrap();
        assert_eq!(outs.len(), 1);
        for bits in 0..4u32 {
            let vals = [bits & 1 == 1, bits >> 1 & 1 == 1];
            let sim = n.eval(&vals).unwrap()[0];
            // Build the assignment indexed by manager variable.
            let mut assign = vec![false; mgr.var_count()];
            for (i, &sig) in n.inputs().iter().enumerate() {
                assign[var_of[&sig].index()] = vals[i];
            }
            assert_eq!(mgr.eval(outs[0], &assign), sim);
        }
    }

    #[test]
    fn global_bdd_respects_node_limit() {
        // A function big enough to overflow a tiny limit.
        let mut n = Network::new("big");
        let inputs: Vec<SignalId> = (0..8)
            .map(|i| n.add_input(format!("i{i}")).unwrap())
            .collect();
        let mut cubes = Vec::new();
        for i in 0..4 {
            cubes.push(Cube::parse(&[(2 * i, true), (2 * i + 1, true)]));
        }
        let f = n.add_node("f", inputs, Cover::from_cubes(cubes)).unwrap();
        n.mark_output(f).unwrap();
        assert!(n.global_bdds(4).is_err());
        assert!(n.global_bdds(1000).is_ok());
    }

    #[test]
    fn static_order_covers_all_inputs() {
        let mut n = Network::new("o");
        let a = n.add_input("a").unwrap();
        let _unused = n.add_input("u").unwrap();
        let f = n
            .add_node("f", vec![a], Cover::from_cubes(vec![Cube::lit(0, true)]))
            .unwrap();
        n.mark_output(f).unwrap();
        let order = n.static_input_order();
        assert_eq!(order.len(), 2, "unused inputs still get variables");
    }
}
