//! Dynamic-programming tree covering.
//!
//! The classic tree-mapping algorithm: multi-fanout subject nodes break
//! the graph into trees; within each tree the minimum-area cover is
//! computed bottom-up by matching library patterns (internal pattern
//! nodes may only cover single-fanout subject nodes). The reported delay
//! is the critical-path arrival time under a per-gate delay model.

use std::collections::BTreeMap;

use bds_network::{Network, NetworkError};

use crate::library::{Library, Pattern};
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

/// Maps `net` onto `lib`: technology decomposition followed by
/// minimum-area tree covering.
///
/// # Errors
/// Propagates [`NetworkError`] from technology decomposition.
pub fn map_network(net: &Network, lib: &Library) -> Result<MappedNetlist, NetworkError> {
    let subject = Subject::from_network(net)?;
    map_subject(&subject, lib)
}

/// Maps an already-built subject graph for minimum area.
///
/// # Errors
/// [`NetworkError::Inconsistent`] if some subject node is covered by no
/// library gate (a library without the INV/NAND2 primitives).
pub fn map_subject(subject: &Subject, lib: &Library) -> Result<MappedNetlist, NetworkError> {
    let nodes = subject.nodes();
    let gates = lib.gates();
    // Fanout counts (outputs add one reference each).
    let mut fanout = vec![0u32; nodes.len()];
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

    // A pattern can only match a subject node of its root's kind, so
    // each node tries one of two gate lists (in library order, which
    // keeps the first-gate tie-break). An input-rooted pattern would
    // bind the node to itself, whose cover is still being decided, so it
    // never wins and is left out.
    let mut inv_rooted = Vec::new();
    let mut nand_rooted = Vec::new();
    let mut slots = 0;
    for (gi, gate) in gates.iter().enumerate() {
        match gate.pattern {
            Pattern::Inv(_) => inv_rooted.push(gi),
            Pattern::Nand(..) => nand_rooted.push(gi),
            Pattern::Input(_) => {}
        }
        slots = slots.max(input_slots(&gate.pattern));
    }
    let mut matcher = Matcher {
        nodes,
        fanout: &fanout,
        binding: vec![UNBOUND; slots],
        trail: Vec::new(),
        leaves: Vec::new(),
    };

    // DP bottom-up (nodes are created in topological order by
    // construction: children precede parents). Node `i`'s best choice is
    // `gate_of[i]` (or `NO_GATE`) over the leaves `arena[leaf_at[i]..
    // leaf_at[i + 1]]`.
    let is_leaf_kind = |i: u32| matches!(nodes[i as usize], SNode::Pi(_) | SNode::Const(_));
    let mut cost = vec![0.0f64; nodes.len()];
    let mut gate_of = vec![NO_GATE; nodes.len()];
    let mut leaf_at = Vec::with_capacity(nodes.len() + 1);
    let mut arena: Vec<u32> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        let start = arena.len();
        leaf_at.push(start);
        let candidates = match n {
            SNode::Pi(_) | SNode::Const(_) => continue,
            SNode::Inv(_) => &inv_rooted,
            SNode::Nand(..) => &nand_rooted,
        };
        for &gi in candidates {
            let gate = &gates[gi];
            if !matcher.matches(&gate.pattern, i as u32) {
                continue;
            }
            let mut here_cost = gate.area;
            let mut ok = true;
            for &l in &matcher.leaves {
                if is_leaf_kind(l) {
                    continue;
                }
                if gate_of[l as usize] == NO_GATE {
                    ok = false;
                    break;
                }
                here_cost += cost[l as usize];
            }
            let better = gate_of[i] == NO_GATE || here_cost < cost[i];
            if ok && better {
                cost[i] = here_cost;
                gate_of[i] = gi;
                arena.truncate(start);
                arena.extend_from_slice(&matcher.leaves);
            }
        }
    }
    leaf_at.push(arena.len());
    let leaves_of = |i: u32| &arena[leaf_at[i as usize]..leaf_at[i as usize + 1]];

    // Select the cover from the outputs.
    let mut selected = vec![false; nodes.len()];
    let mut stack: Vec<u32> = subject
        .outputs()
        .iter()
        .map(|&(o, _)| o)
        .filter(|&o| !is_leaf_kind(o))
        .collect();
    let mut area = 0.0;
    let mut gate_count = 0usize;
    let mut uses = vec![0usize; gates.len()];
    while let Some(node) = stack.pop() {
        if std::mem::replace(&mut selected[node as usize], true) {
            continue;
        }
        let gi = gate_of[node as usize];
        if gi == NO_GATE {
            return Err(NetworkError::Inconsistent {
                detail: format!("no library gate covers subject node #{node}"),
            });
        }
        area += gates[gi].area;
        gate_count += 1;
        uses[gi] += 1;
        stack.extend(leaves_of(node).iter().filter(|&&l| !is_leaf_kind(l)));
    }
    let mut histogram: BTreeMap<String, usize> = BTreeMap::new();
    for (gate, &n) in gates.iter().zip(&uses) {
        if n > 0 {
            *histogram.entry(gate.name.clone()).or_insert(0) += n;
        }
    }

    // Arrival times over the chosen cover, in index order: leaves
    // precede roots in the subject ordering, and unselected nodes (the
    // primary inputs and constants among them) arrive at 0.
    let mut at = vec![0.0f64; nodes.len()];
    for node in 0..nodes.len() as u32 {
        if !selected[node as usize] {
            continue;
        }
        let worst = leaves_of(node)
            .iter()
            .map(|&l| at[l as usize])
            .fold(0.0f64, f64::max);
        at[node as usize] = worst + gates[gate_of[node as usize]].delay;
    }
    let delay = subject
        .outputs()
        .iter()
        .map(|&(o, _)| at[o as usize])
        .fold(0.0f64, f64::max);

    Ok(MappedNetlist {
        area,
        delay,
        gate_count,
        gate_histogram: histogram,
    })
}

/// `gate_of` entry of a node no gate covers (yet).
const NO_GATE: usize = usize::MAX;
/// Binding slot of a pattern input not bound in the current match.
const UNBOUND: u32 = u32::MAX;

/// Binding slots a pattern needs: its largest input index + 1.
fn input_slots(pattern: &Pattern) -> usize {
    match pattern {
        Pattern::Input(i) => usize::from(*i) + 1,
        Pattern::Inv(p) => input_slots(p),
        Pattern::Nand(a, b) => input_slots(a).max(input_slots(b)),
    }
}

/// Pattern matching state reused across every match of one covering
/// run, so a match allocates nothing once the buffers have grown.
struct Matcher<'a> {
    nodes: &'a [SNode],
    fanout: &'a [u32],
    /// Subject node bound to each pattern input, or `UNBOUND`.
    binding: Vec<u32>,
    /// Inputs bound in the current match, in binding order, so a failed
    /// branch unbinds exactly what it bound.
    trail: Vec<u8>,
    /// Subject nodes bound to pattern leaves, in occurrence order.
    leaves: Vec<u32>,
}

impl Matcher<'_> {
    /// Matches `pattern` rooted at subject node `node`, leaving its
    /// leaves in `self.leaves`. Internal pattern nodes require fanout-1
    /// subject nodes (except the match root); pattern inputs match
    /// anything but must bind **consistently** (the same input position
    /// always binds the same subject node — essential for XOR/MUX
    /// patterns whose inputs occur several times).
    fn matches(&mut self, pattern: &Pattern, node: u32) -> bool {
        self.unbind(0);
        self.leaves.clear();
        self.match_rec(pattern, node, true)
    }

    /// Unbinds every input bound after the first `mark` trail entries.
    fn unbind(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.binding[usize::from(slot)] = UNBOUND;
        }
    }

    fn match_rec(&mut self, pattern: &Pattern, node: u32, root: bool) -> bool {
        match pattern {
            Pattern::Input(i) => {
                let slot = &mut self.binding[usize::from(*i)];
                if *slot == UNBOUND {
                    *slot = node;
                    self.trail.push(*i);
                } else if *slot != node {
                    return false;
                }
                self.leaves.push(node);
                true
            }
            Pattern::Inv(p) => {
                // Leaf inverters (INV directly over a pattern input) may be
                // shared between cells: real mappers duplicate input
                // inverters freely, and without this XOR/XNOR trees that
                // share an input inverter would break each other.
                let leaf_inverter = matches!(**p, Pattern::Input(_));
                if !root && !leaf_inverter && self.fanout[node as usize] != 1 {
                    return false;
                }
                match self.nodes[node as usize] {
                    SNode::Inv(c) => self.match_rec(p, c, false),
                    _ => false,
                }
            }
            Pattern::Nand(p1, p2) => {
                if !root && self.fanout[node as usize] != 1 {
                    return false;
                }
                let SNode::Nand(a, b) = self.nodes[node as usize] else {
                    return false;
                };
                // Try both child orders (NAND commutes), backtracking the
                // binding and leaf state between attempts.
                for (x, y) in [(a, b), (b, a)] {
                    let (mark, len) = (self.trail.len(), self.leaves.len());
                    if self.match_rec(p1, x, false) && self.match_rec(p2, y, false) {
                        return true;
                    }
                    self.unbind(mark);
                    self.leaves.truncate(len);
                }
                false
            }
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

    /// A cell with more than eight distinct inputs binds as many slots
    /// as it has inputs: a left-deep chain of eight AND2 nodes over nine
    /// inputs is one `and9` cell.
    #[test]
    fn nine_input_cell_maps_a_chain() {
        let lib = crate::genlib::parse_genlib(
            "GATE inv 16 O=!a;\nGATE nand2 16 O=!(a*b);\nGATE and9 80 O=a*b*c*d*e*f*g*h*i;\n",
        )
        .unwrap();
        let mut net = Network::new("chain9");
        let ins: Vec<_> = (0..9)
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
        let m = map_network(&net, &lib).unwrap();
        assert_eq!(m.area, 80.0, "histogram: {:?}", m.gate_histogram);
        assert_eq!(m.count_of("and9"), 1);
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
