//! Dynamic-programming tree covering.
//!
//! The classic tree-mapping algorithm: multi-fanout subject nodes break
//! the graph into trees; within each tree the minimum-area cover is
//! computed bottom-up by matching library patterns (internal pattern
//! nodes may only cover single-fanout subject nodes). The reported delay
//! is the critical-path arrival time under a per-gate delay model.

use std::collections::{BTreeMap, HashMap, HashSet};

use bds_network::{Network, NetworkError};

use crate::library::{Gate, Library, Pattern};
use crate::subject::{SNode, Subject};

/// The result of technology mapping.
#[derive(Clone, Debug)]
pub struct MappedNetlist {
    /// Total cell area.
    pub area: f64,
    /// Critical-path delay (arrival at the slowest output).
    pub delay: f64,
    /// Number of cell instances.
    pub gate_count: usize,
    /// Instances per cell name.
    pub gate_histogram: BTreeMap<String, usize>,
}

impl MappedNetlist {
    /// Number of instances of a given cell.
    pub fn count_of(&self, gate: &str) -> usize {
        self.gate_histogram.get(gate).copied().unwrap_or(0)
    }
}

/// The optimization objective of the tree covering.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum MapGoal {
    /// Minimize total cell area (the paper's primary metric).
    #[default]
    Area,
    /// Minimize worst arrival time, ties broken by area.
    Delay,
}

/// Maps `net` onto `lib`: technology decomposition followed by
/// minimum-area tree covering.
///
/// # Errors
/// Propagates [`NetworkError`] from technology decomposition.
pub fn map_network(net: &Network, lib: &Library) -> Result<MappedNetlist, NetworkError> {
    let subject = Subject::from_network(net)?;
    map_subject_with(&subject, lib, MapGoal::Area)
}

/// Like [`map_network`] but minimizing delay (area as tie-break).
///
/// # Errors
/// Propagates [`NetworkError`] from technology decomposition.
pub fn map_network_delay(net: &Network, lib: &Library) -> Result<MappedNetlist, NetworkError> {
    let subject = Subject::from_network(net)?;
    map_subject_with(&subject, lib, MapGoal::Delay)
}

/// Maps an already-built subject graph for minimum area.
///
/// # Errors
/// [`NetworkError::Inconsistent`] if some subject node is covered by no
/// library gate (a library without the INV/NAND2 primitives).
pub fn map_subject(subject: &Subject, lib: &Library) -> Result<MappedNetlist, NetworkError> {
    map_subject_with(subject, lib, MapGoal::Area)
}

/// Maps an already-built subject graph under the given goal.
///
/// # Errors
/// [`NetworkError::Inconsistent`] if some subject node is covered by no
/// library gate (a library without the INV/NAND2 primitives).
pub fn map_subject_with(
    subject: &Subject,
    lib: &Library,
    goal: MapGoal,
) -> Result<MappedNetlist, NetworkError> {
    let nodes = subject.nodes();
    // Fanout counts (outputs add one reference each).
    let mut fanout = vec![0usize; nodes.len()];
    for n in nodes {
        match n {
            SNode::Inv(a) => fanout[*a as usize] += 1,
            SNode::Nand(a, b) => {
                fanout[*a as usize] += 1;
                fanout[*b as usize] += 1;
            }
            _ => {}
        }
    }
    for &(o, _) in subject.outputs() {
        fanout[o as usize] += 1;
    }

    // DP bottom-up (nodes are created in topological order by
    // construction: children precede parents).
    #[derive(Clone)]
    struct Choice {
        cost: f64,
        arrival: f64,
        gate: usize,
        leaves: Vec<u32>,
    }
    let mut best: Vec<Option<Choice>> = vec![None; nodes.len()];
    let is_leaf_kind = |i: u32| matches!(nodes[i as usize], SNode::Pi(_) | SNode::Const(_));
    for (i, n) in nodes.iter().enumerate() {
        if matches!(n, SNode::Pi(_) | SNode::Const(_)) {
            continue;
        }
        let mut here: Option<Choice> = None;
        for (gi, gate) in lib.gates().iter().enumerate() {
            if let Some(leaves) = match_at(nodes, &fanout, &gate.pattern, i as u32, true) {
                let mut cost = gate.area;
                let mut arrival = 0.0f64;
                let mut ok = true;
                for &l in &leaves {
                    if is_leaf_kind(l) {
                        continue;
                    }
                    match &best[l as usize] {
                        Some(c) => {
                            cost += c.cost;
                            arrival = arrival.max(c.arrival);
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                let arrival = arrival + gate.delay;
                let better = here.as_ref().is_none_or(|h| match goal {
                    MapGoal::Area => cost < h.cost,
                    MapGoal::Delay => {
                        arrival < h.arrival || (arrival == h.arrival && cost < h.cost)
                    }
                });
                if ok && better {
                    here = Some(Choice {
                        cost,
                        arrival,
                        gate: gi,
                        leaves,
                    });
                }
            }
        }
        best[i] = here;
    }

    // Select the cover from the outputs.
    let mut selected: HashSet<u32> = HashSet::new();
    let mut stack: Vec<u32> = subject
        .outputs()
        .iter()
        .map(|&(o, _)| o)
        .filter(|&o| !is_leaf_kind(o))
        .collect();
    let mut area = 0.0;
    let mut gate_count = 0usize;
    let mut histogram: BTreeMap<String, usize> = BTreeMap::new();
    let mut chosen: HashMap<u32, (usize, Vec<u32>)> = HashMap::new();
    while let Some(node) = stack.pop() {
        if !selected.insert(node) {
            continue;
        }
        let choice = best[node as usize]
            .as_ref()
            .ok_or_else(|| NetworkError::Inconsistent {
                detail: format!("no library gate covers subject node #{node}"),
            })?;
        let gate: &Gate = &lib.gates()[choice.gate];
        area += gate.area;
        gate_count += 1;
        *histogram.entry(gate.name.clone()).or_insert(0) += 1;
        chosen.insert(node, (choice.gate, choice.leaves.clone()));
        for &l in &choice.leaves {
            if !is_leaf_kind(l) {
                stack.push(l);
            }
        }
    }

    // Arrival times over the chosen cover.
    let mut arrival: HashMap<u32, f64> = HashMap::new();
    let mut delay = 0.0f64;
    // Repeated relaxation in index order works because leaves precede
    // roots in the subject ordering.
    #[expect(clippy::disallowed_methods, reason = "collected, then sorted below")]
    let mut order: Vec<u32> = chosen.keys().copied().collect();
    order.sort_unstable();
    for &node in &order {
        let (gi, leaves) = &chosen[&node];
        let gate = &lib.gates()[*gi];
        let worst = leaves
            .iter()
            .map(|l| arrival.get(l).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        arrival.insert(node, worst + gate.delay);
    }
    for &(o, _) in subject.outputs() {
        delay = delay.max(arrival.get(&o).copied().unwrap_or(0.0));
    }

    Ok(MappedNetlist {
        area,
        delay,
        gate_count,
        gate_histogram: histogram,
    })
}

/// Matches `pattern` rooted at subject node `node`. Internal pattern
/// nodes require fanout-1 subject nodes (except the match root); pattern
/// inputs match anything but must bind **consistently** (the same input
/// position always binds the same subject node — essential for XOR/MUX
/// patterns whose inputs occur several times). Returns the subject nodes
/// bound to pattern leaves in occurrence order.
fn match_at(
    nodes: &[SNode],
    fanout: &[usize],
    pattern: &Pattern,
    node: u32,
    root: bool,
) -> Option<Vec<u32>> {
    let mut binding: Vec<Option<u32>> = vec![None; 8];
    let mut leaves = Vec::new();
    if match_rec(
        nodes,
        fanout,
        pattern,
        node,
        root,
        &mut binding,
        &mut leaves,
    ) {
        Some(leaves)
    } else {
        None
    }
}

fn match_rec(
    nodes: &[SNode],
    fanout: &[usize],
    pattern: &Pattern,
    node: u32,
    root: bool,
    binding: &mut Vec<Option<u32>>,
    leaves: &mut Vec<u32>,
) -> bool {
    match pattern {
        Pattern::Input(i) => {
            let slot = &mut binding[*i as usize];
            match slot {
                Some(bound) if *bound != node => false,
                _ => {
                    *slot = Some(node);
                    leaves.push(node);
                    true
                }
            }
        }
        Pattern::Inv(p) => {
            // Leaf inverters (INV directly over a pattern input) may be
            // shared between cells: real mappers duplicate input
            // inverters freely, and without this XOR/XNOR trees that
            // share an input inverter would break each other.
            let leaf_inverter = matches!(**p, Pattern::Input(_));
            if !root && !leaf_inverter && fanout[node as usize] != 1 {
                return false;
            }
            match nodes[node as usize] {
                SNode::Inv(c) => match_rec(nodes, fanout, p, c, false, binding, leaves),
                _ => false,
            }
        }
        Pattern::Nand(p1, p2) => {
            if !root && fanout[node as usize] != 1 {
                return false;
            }
            let SNode::Nand(a, b) = nodes[node as usize] else {
                return false;
            };
            // Try both child orders (NAND commutes), backtracking the
            // binding and leaf state between attempts.
            for (x, y) in [(a, b), (b, a)] {
                let saved_binding = binding.clone();
                let saved_len = leaves.len();
                if match_rec(nodes, fanout, p1, x, false, binding, leaves)
                    && match_rec(nodes, fanout, p2, y, false, binding, leaves)
                {
                    return true;
                }
                *binding = saved_binding;
                leaves.truncate(saved_len);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_sop::{Cover, Cube};

    fn single_node_net(cover: Cover, n: usize) -> Network {
        let mut net = Network::new("t");
        let ins: Vec<_> = (0..n)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let f = net.add_node("f", ins, cover).unwrap();
        net.mark_output(f).unwrap();
        net
    }

    #[test]
    fn maps_and2_to_single_cell() {
        let cover = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let net = single_node_net(cover, 2);
        let m = map_network(&net, &Library::mcnc()).unwrap();
        assert_eq!(m.gate_count, 1);
        assert_eq!(m.count_of("and2"), 1);
        assert_eq!(m.area, 24.0);
    }

    #[test]
    fn maps_single_fanout_xor_to_xor_cell() {
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let net = single_node_net(cover, 2);
        let m = map_network(&net, &Library::mcnc()).unwrap();
        assert_eq!(m.count_of("xor2"), 1, "histogram: {:?}", m.gate_histogram);
        assert_eq!(m.gate_count, 1);
    }

    #[test]
    fn multi_fanout_breaks_xor_tree() {
        // f = a⊕b, g = (a⊕b)·c … but with the inner nand(a,b) also used
        // elsewhere the XOR tree is broken. Build it via two nodes
        // sharing the XOR node's output.
        let mut net = Network::new("t");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let c = net.add_input("c").unwrap();
        let xor = Cover::from_cubes(vec![
            Cube::parse(&[(0, true), (1, false)]),
            Cube::parse(&[(0, false), (1, true)]),
        ]);
        let x = net.add_node("x", vec![a, b], xor).unwrap();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let g = net.add_node("g", vec![x, c], and).unwrap();
        net.mark_output(x).unwrap();
        net.mark_output(g).unwrap();
        let m = map_network(&net, &Library::mcnc()).unwrap();
        // The XOR output itself has fanout 2 (output + g), which is fine:
        // the xor cell can still be used because only the cell's *root*
        // may be multi-fanout.
        assert_eq!(m.count_of("xor2"), 1);
        assert!(m.gate_count >= 2);
    }

    #[test]
    fn delay_is_positive_and_bounded() {
        // A chain of ANDs: delay grows with depth.
        let mut net = Network::new("chain");
        let ins: Vec<_> = (0..5)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let mut prev = ins[0];
        for (k, &i) in ins.iter().enumerate().skip(1) {
            prev = net
                .add_node(format!("n{k}"), vec![prev, i], and.clone())
                .unwrap();
        }
        net.mark_output(prev).unwrap();
        let m = map_network(&net, &Library::mcnc()).unwrap();
        assert!(m.delay >= 1.0);
        assert!(m.delay <= 10.0);
        assert!(m.area > 0.0);
    }

    #[test]
    fn nand4_cheaper_than_discrete_gates() {
        // !(abcd) should map to one nand4 (area 32), not three cells.
        let cover = Cover::from_cubes(vec![
            Cube::parse(&[(0, false)]),
            Cube::parse(&[(1, false)]),
            Cube::parse(&[(2, false)]),
            Cube::parse(&[(3, false)]),
        ]);
        let net = single_node_net(cover, 4);
        let m = map_network(&net, &Library::mcnc()).unwrap();
        assert_eq!(m.count_of("nand4"), 1, "histogram: {:?}", m.gate_histogram);
    }
}

#[cfg(test)]
mod goal_tests {
    use super::*;
    use bds_network::Network;
    use bds_sop::{Cover, Cube};

    /// Delay-mode mapping must never be slower than area mode, and area
    /// mode never larger than delay mode.
    #[test]
    fn delay_goal_trades_area_for_speed() {
        // A 6-input AND chain: area mode prefers big NAND4 cells, delay
        // mode prefers balanced 2-input coverage.
        let mut net = Network::new("chain");
        let ins: Vec<_> = (0..6)
            .map(|i| net.add_input(format!("i{i}")).unwrap())
            .collect();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);
        let mut prev = ins[0];
        for (k, &i) in ins.iter().enumerate().skip(1) {
            prev = net
                .add_node(format!("n{k}"), vec![prev, i], and.clone())
                .unwrap();
        }
        net.mark_output(prev).unwrap();
        let lib = Library::mcnc();
        let a = map_network(&net, &lib).unwrap();
        let d = map_network_delay(&net, &lib).unwrap();
        assert!(
            d.delay <= a.delay + 1e-9,
            "delay goal: {} vs {}",
            d.delay,
            a.delay
        );
        assert!(
            a.area <= d.area + 1e-9,
            "area goal: {} vs {}",
            a.area,
            d.area
        );
    }

    #[test]
    fn goals_agree_on_single_gate() {
        let mut net = Network::new("one");
        let a = net.add_input("a").unwrap();
        let b = net.add_input("b").unwrap();
        let f = net
            .add_node(
                "f",
                vec![a, b],
                Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]),
            )
            .unwrap();
        net.mark_output(f).unwrap();
        let lib = Library::mcnc();
        let x = map_network(&net, &lib).unwrap();
        let y = map_network_delay(&net, &lib).unwrap();
        assert_eq!(x.gate_count, 1);
        assert_eq!(y.gate_count, 1);
    }
}
