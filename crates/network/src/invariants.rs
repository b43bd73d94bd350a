//! Structural invariant auditing for Boolean networks.
//!
//! The network mutators — `sweep`, `eliminate`, `replace_node`, the flow's
//! emit/alias machinery — all promise to preserve a handful of structural
//! facts. This module states them executably:
//!
//! 1. the network is an acyclic DAG (every fanin is drivable without
//!    passing through its own fanout cone),
//! 2. every cover only references fanin positions inside the node's fanin
//!    arity,
//! 3. the name table is a bijection: every signal's name maps back to its
//!    id and no two signals share a name,
//! 4. the declared inputs/outputs reference existing signals, inputs are
//!    input-driven, and the input list covers exactly the input-driven
//!    signals,
//! 5. [`Network::topo_order`] covers every signal exactly once, fanins
//!    first,
//! 6. the incrementally kept fanout index and back-edge count equal a
//!    recompute from the fanin lists.
//!
//! [`Network::check_invariants`] always runs the full audit;
//! [`Network::audit`] gates it behind [`STRICT_CHECKS`]
//! (`debug_assertions` or the `strict-checks` feature) for phase-boundary
//! use in the synthesis flows.

use std::collections::HashSet;

use crate::error::NetworkError;
use crate::network::{Driver, Network, SignalId};
use crate::Result;

/// True when structural auditing is compiled in: debug builds, or any
/// build with the `strict-checks` feature.
pub const STRICT_CHECKS: bool = cfg!(any(debug_assertions, feature = "strict-checks"));

impl Network {
    /// Runs the full structural audit unconditionally.
    ///
    /// `O(signals + edges)` plus a topological sort; the flows call the
    /// gated [`Network::audit`] instead.
    ///
    /// # Errors
    /// [`NetworkError::Cycle`] for a combinational cycle,
    /// [`NetworkError::Inconsistent`] for every other violation.
    pub fn check_invariants(&self) -> Result<()> {
        let n = self.signals.len();

        // Name table is a bijection onto the signal array.
        if self.by_name.len() != n {
            return inconsistent(format!(
                "name table holds {} entries for {n} signals",
                self.by_name.len()
            ));
        }
        for (idx, entry) in self.signals.iter().enumerate() {
            match self.by_name.get(&entry.name) {
                Some(&id) if id.index() == idx => {}
                Some(&id) => {
                    return inconsistent(format!(
                        "name `{}` maps to signal #{} but labels signal #{idx}",
                        entry.name,
                        id.index()
                    ));
                }
                None => {
                    return inconsistent(format!(
                        "signal #{idx} `{}` is missing from the name table",
                        entry.name
                    ));
                }
            }
        }

        // Inputs: declared list must be exactly the input-driven signals.
        let mut declared_inputs = HashSet::new();
        for &i in &self.inputs {
            if i.index() >= n {
                return inconsistent(format!("input #{} is out of range", i.index()));
            }
            if !matches!(self.signals[i.index()].driver, Driver::Input) {
                return inconsistent(format!(
                    "declared input `{}` is driven by a node",
                    self.signals[i.index()].name
                ));
            }
            if !declared_inputs.insert(i) {
                return inconsistent(format!(
                    "input `{}` declared twice",
                    self.signals[i.index()].name
                ));
            }
        }
        for (idx, entry) in self.signals.iter().enumerate() {
            if matches!(entry.driver, Driver::Input)
                && !declared_inputs.contains(&SignalId(idx as u32))
            {
                return inconsistent(format!(
                    "signal `{}` is input-driven but missing from the input list",
                    entry.name
                ));
            }
        }

        // Outputs reference existing signals, without duplicates.
        let mut seen_outputs = HashSet::new();
        for &o in &self.outputs {
            if o.index() >= n {
                return inconsistent(format!("output #{} is out of range", o.index()));
            }
            if !seen_outputs.insert(o) {
                return inconsistent(format!(
                    "output `{}` declared twice",
                    self.signals[o.index()].name
                ));
            }
        }

        // Node-local consistency: fanins exist, covers stay in arity.
        for (idx, entry) in self.signals.iter().enumerate() {
            let Driver::Node(nd) = &entry.driver else {
                continue;
            };
            for &f in &nd.fanins {
                if f.index() >= n {
                    return inconsistent(format!(
                        "node `{}` lists out-of-range fanin #{}",
                        entry.name,
                        f.index()
                    ));
                }
                if f.index() == idx {
                    return Err(NetworkError::Cycle {
                        name: entry.name.to_string(),
                    });
                }
            }
            if let Some(max) = nd.cover.support().into_iter().max() {
                if max as usize >= nd.fanins.len() {
                    return inconsistent(format!(
                        "node `{}` cover references position {max} but the node has \
                         {} fanins",
                        entry.name,
                        nd.fanins.len()
                    ));
                }
            }
        }

        // Acyclicity via iterative three-colour DFS over the fanin graph.
        let mut state = vec![0u8; n]; // 0 new, 1 open, 2 done
        for start in 0..n {
            if state[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((sig, expanded)) = stack.pop() {
                if expanded {
                    state[sig] = 2;
                    continue;
                }
                if state[sig] == 2 {
                    continue;
                }
                state[sig] = 1;
                stack.push((sig, true));
                if let Driver::Node(nd) = &self.signals[sig].driver {
                    for &f in &nd.fanins {
                        match state[f.index()] {
                            0 => stack.push((f.index(), false)),
                            1 => {
                                return Err(NetworkError::Cycle {
                                    name: self.signals[f.index()].name.to_string(),
                                });
                            }
                            _ => {}
                        }
                    }
                }
            }
        }

        // Topological order covers every signal exactly once, fanins first.
        let order = self.topo_order();
        if order.len() != n {
            return inconsistent(format!(
                "topological order visits {} of {n} signals",
                order.len()
            ));
        }
        let mut position = vec![usize::MAX; n];
        for (pos, &sig) in order.iter().enumerate() {
            if sig.index() >= n {
                return inconsistent(format!(
                    "topological order lists out-of-range signal #{}",
                    sig.index()
                ));
            }
            if position[sig.index()] != usize::MAX {
                return inconsistent(format!(
                    "topological order visits `{}` twice",
                    self.signals[sig.index()].name
                ));
            }
            position[sig.index()] = pos;
        }
        for (idx, entry) in self.signals.iter().enumerate() {
            let Driver::Node(nd) = &entry.driver else {
                continue;
            };
            for &f in &nd.fanins {
                if position[f.index()] >= position[idx] {
                    return inconsistent(format!(
                        "topological order places `{}` before its fanin `{}`",
                        entry.name,
                        self.signals[f.index()].name
                    ));
                }
            }
        }

        // The fanout index and back-edge count match a full recompute.
        let mut fanouts = vec![Vec::new(); n];
        let mut back_edges = 0;
        for (idx, entry) in self.signals.iter().enumerate() {
            if let Driver::Node(nd) = &entry.driver {
                for &f in &nd.fanins {
                    fanouts[f.index()].push(SignalId(idx as u32));
                    back_edges += usize::from(f.index() >= idx);
                }
            }
        }
        if self.fanout_index.len() != n {
            return inconsistent(format!(
                "fanout index holds {} lists for {n} signals",
                self.fanout_index.len()
            ));
        }
        for (idx, want) in fanouts.iter().enumerate() {
            if self.fanout_index[idx] != *want {
                return inconsistent(format!(
                    "fanout index lists {:?} as readers of `{}`, the fanin lists say {want:?}",
                    self.fanout_index[idx], self.signals[idx].name
                ));
            }
        }
        if self.back_edges != back_edges {
            return inconsistent(format!(
                "back-edge count is {} but the fanin lists hold {back_edges}",
                self.back_edges
            ));
        }
        Ok(())
    }

    /// Phase-boundary audit gate: runs [`Network::check_invariants`] when
    /// [`STRICT_CHECKS`] is enabled, otherwise does nothing.
    ///
    /// # Errors
    /// [`NetworkError::Cycle`] / [`NetworkError::Inconsistent`] when
    /// auditing is on and an invariant is broken.
    #[inline]
    pub fn audit(&self) -> Result<()> {
        if STRICT_CHECKS {
            self.check_invariants()
        } else {
            Ok(())
        }
    }
}

fn inconsistent(detail: String) -> Result<()> {
    Err(NetworkError::Inconsistent { detail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeData;
    use bds_sop::{Cover, Cube};

    fn sample() -> Network {
        let mut n = Network::new("t");
        let a = n.add_input("a").unwrap();
        let b = n.add_input("b").unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let g = n.add_node("g", vec![a, b], and.clone()).unwrap();
        let f = n.add_node("f", vec![g, a], and).unwrap();
        n.mark_output(f).unwrap();
        n
    }

    #[test]
    fn healthy_network_passes() {
        let n = sample();
        n.check_invariants().unwrap();
        n.audit().unwrap();
    }

    #[test]
    fn empty_network_passes() {
        Network::new("empty").check_invariants().unwrap();
    }

    #[test]
    fn cycle_detected() {
        let mut n = sample();
        // Rewire g to read f, closing a cycle, bypassing replace_node's
        // own guard by editing the entry directly.
        let g = n.signal_id("g").unwrap();
        let f = n.signal_id("f").unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        n.signals[g.index()].driver = Driver::Node(NodeData {
            fanins: vec![f, n.signal_id("a").unwrap()],
            cover: and,
        });
        assert!(matches!(
            n.check_invariants(),
            Err(NetworkError::Cycle { .. })
        ));
    }

    #[test]
    fn self_loop_detected() {
        let mut n = sample();
        let g = n.signal_id("g").unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        n.signals[g.index()].driver = Driver::Node(NodeData {
            fanins: vec![g, n.signal_id("a").unwrap()],
            cover: and,
        });
        assert!(matches!(
            n.check_invariants(),
            Err(NetworkError::Cycle { .. })
        ));
    }

    #[test]
    fn cover_out_of_arity_detected() {
        let mut n = sample();
        let g = n.signal_id("g").unwrap();
        let wide = Cover::from_cubes(vec![Cube::parse(&[(0, true), (5, true)])]);
        let a = n.signal_id("a").unwrap();
        let b = n.signal_id("b").unwrap();
        n.signals[g.index()].driver = Driver::Node(NodeData {
            fanins: vec![a, b],
            cover: wide,
        });
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("position 5"), "{err}");
    }

    #[test]
    fn name_table_desync_detected() {
        let mut n = sample();
        n.by_name.insert("g".into(), SignalId(0));
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("name"), "{err}");
    }

    #[test]
    fn missing_name_detected() {
        let mut n = sample();
        n.by_name.remove("g");
        n.by_name.insert("ghost".into(), n.signal_id("f").unwrap());
        assert!(n.check_invariants().is_err());
    }

    #[test]
    fn dangling_fanin_detected() {
        let mut n = sample();
        let g = n.signal_id("g").unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        n.signals[g.index()].driver = Driver::Node(NodeData {
            fanins: vec![SignalId(99), n.signal_id("a").unwrap()],
            cover: and,
        });
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("out-of-range"), "{err}");
    }

    #[test]
    fn undeclared_input_detected() {
        let mut n = sample();
        n.inputs.pop();
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("input"), "{err}");
    }

    #[test]
    fn stale_fanout_index_detected() {
        let mut n = sample();
        let a = n.signal_id("a").unwrap();
        n.fanout_index[a.index()].pop();
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("fanout index"), "{err}");
    }

    #[test]
    fn stale_back_edge_count_detected() {
        let mut n = sample();
        n.back_edges = 1;
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("back-edge"), "{err}");
    }

    #[test]
    fn duplicate_output_detected() {
        let mut n = sample();
        let f = n.signal_id("f").unwrap();
        n.outputs.push(f);
        let err = n.check_invariants().unwrap_err();
        assert!(err.to_string().contains("twice"), "{err}");
    }
}
