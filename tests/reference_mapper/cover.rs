//! The old `bds_map::cover`: tree covering with per-match binding
//! vectors, owned leaf lists and hash-table selection.

use std::collections::{BTreeMap, HashMap, HashSet};

use bds_repro::map::cover::MappedNetlist;
use bds_repro::map::library::{Gate, Library, Pattern};
use bds_repro::network::NetworkError;

use super::subject::{SNode, Subject};

/// The optimization objective of the tree covering (the library covers
/// for area only; the reference keeps both goals as they were).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MapGoal {
    /// Minimize total cell area.
    Area,
    /// Minimize worst arrival time, ties broken by area.
    #[expect(dead_code, reason = "the differential test compares area mapping only")]
    Delay,
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
