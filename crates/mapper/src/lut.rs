//! K-LUT mapping for FPGAs — the paper's future-work item 4.
//!
//! §VI of the paper: "Recently, we found that BDS is also amenable to
//! FPGA synthesis … very encouraging initial results, showing over 30%
//! improvement in the LUT count, have already been obtained" (the
//! BDS-pga line of work). This module provides the LUT-mapping substrate
//! for that experiment: k-feasible cut enumeration over the subject
//! graph with area-flow-driven cut selection.
//!
//! Inverters are absorbed into LUTs (as in AIG-based mappers): the
//! mapped netlist is measured in LUTs and logic depth.

use std::collections::HashMap;

use bds_network::{Network, NetworkError};

use crate::subject::{SNode, Subject};

/// Result of K-LUT mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct LutNetlist {
    /// LUT input size used.
    pub k: usize,
    /// Number of LUTs in the selected cover.
    pub luts: usize,
    /// Logic depth in LUT levels.
    pub depth: usize,
}

/// Maps `net` onto `k`-input LUTs.
///
/// # Errors
/// Propagates technology-decomposition errors.
///
/// # Panics
/// Panics if `k < 2` (a 1-input LUT cannot merge logic).
pub fn map_network_luts(net: &Network, k: usize) -> Result<LutNetlist, NetworkError> {
    let subject = Subject::from_network(net)?;
    Ok(map_subject_luts(&subject, k))
}

/// Maps a subject graph onto `k`-input LUTs.
///
/// # Panics
/// Panics if `k < 2`.
pub fn map_subject_luts(subject: &Subject, k: usize) -> LutNetlist {
    assert!(k >= 2, "k-LUT mapping requires k ≥ 2");
    let nodes = subject.nodes();

    // Resolve inverter chains: logical driver of a node (inverters are
    // free attributes in LUT mapping).
    let mut driver: Vec<u32> = (0..nodes.len() as u32).collect();
    for (i, n) in nodes.iter().enumerate() {
        if let SNode::Inv(a) = n {
            driver[i] = driver[*a as usize];
        }
    }

    // Fanout estimate for area flow (on resolved drivers).
    let mut fanout = vec![0usize; nodes.len()];
    for n in nodes {
        match n {
            SNode::Inv(_) => {}
            SNode::Nand(a, b) => {
                fanout[driver[*a as usize] as usize] += 1;
                fanout[driver[*b as usize] as usize] += 1;
            }
            _ => {}
        }
    }
    for &(o, _) in subject.outputs() {
        fanout[driver[o as usize] as usize] += 1;
    }

    const CUT_LIMIT: usize = 16;

    // Cut enumeration + area flow + depth, bottom-up over NAND nodes.
    #[derive(Clone)]
    struct NodeInfo {
        best_cut: Vec<u32>,
        flow: f64,
        level: usize,
    }
    let mut info: HashMap<u32, NodeInfo> = HashMap::new();
    let mut cuts: HashMap<u32, Vec<Vec<u32>>> = HashMap::new();

    let leaf_like = |i: u32| matches!(nodes[i as usize], SNode::Pi(_) | SNode::Const(_));

    for i in 0..nodes.len() as u32 {
        let SNode::Nand(a, b) = nodes[i as usize] else {
            continue;
        };
        let (da, db) = (driver[a as usize], driver[b as usize]);
        let child_cuts = |d: u32, cuts: &HashMap<u32, Vec<Vec<u32>>>| -> Vec<Vec<u32>> {
            let mut cs = vec![vec![d]]; // the trivial cut
            if !leaf_like(d) {
                if let Some(more) = cuts.get(&d) {
                    cs.extend(more.iter().cloned());
                }
            }
            cs
        };
        let ca = child_cuts(da, &cuts);
        let cb = child_cuts(db, &cuts);
        let mut merged: Vec<Vec<u32>> = Vec::new();
        for x in &ca {
            for y in &cb {
                let mut leaves = x.clone();
                for &l in y {
                    if !leaves.contains(&l) {
                        leaves.push(l);
                    }
                }
                if leaves.len() <= k {
                    leaves.sort_unstable();
                    if !merged.contains(&leaves) {
                        merged.push(leaves);
                    }
                }
            }
        }
        // Prune dominated cuts (a cut is dominated if a subset cut exists).
        merged.sort_by_key(Vec::len);
        let mut kept: Vec<Vec<u32>> = Vec::new();
        'outer: for c in merged {
            for prev in &kept {
                if prev.iter().all(|l| c.contains(l)) {
                    continue 'outer;
                }
            }
            kept.push(c);
            if kept.len() >= CUT_LIMIT {
                break;
            }
        }

        // Pick by (level, area flow).
        let mut best: Option<(usize, f64, Vec<u32>)> = None;
        for cut in &kept {
            let mut flow = 1.0;
            let mut level = 0usize;
            for &l in cut {
                if leaf_like(l) {
                    continue;
                }
                #[expect(clippy::expect_used, reason = "DP order: children precede parents")]
                let li = info.get(&l).expect("children precede parents");
                flow += li.flow / fanout[l as usize].max(1) as f64;
                level = level.max(li.level);
            }
            let level = level + 1;
            let better = match &best {
                None => true,
                Some((bl, bf, _)) => level < *bl || (level == *bl && flow < *bf),
            };
            if better {
                best = Some((level, flow, cut.clone()));
            }
        }
        #[expect(clippy::expect_used, reason = "the trivial cut fits (k >= 2 checked)")]
        let (level, flow, best_cut) = best.expect("the trivial cut always fits (k ≥ 2)");
        info.insert(
            i,
            NodeInfo {
                best_cut: best_cut.clone(),
                flow,
                level,
            },
        );
        cuts.insert(i, kept);
    }

    // Select the cover from the outputs.
    let mut selected: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = subject
        .outputs()
        .iter()
        .map(|&(o, _)| driver[o as usize])
        .filter(|&o| !leaf_like(o))
        .collect();
    let mut depth = 0usize;
    while let Some(node) = stack.pop() {
        if selected.contains(&node) {
            continue;
        }
        selected.push(node);
        #[expect(clippy::expect_used, reason = "all selected nodes got DP info above")]
        let ni = info.get(&node).expect("selected nodes are NANDs");
        depth = depth.max(ni.level);
        for &l in &ni.best_cut {
            if !leaf_like(l) {
                stack.push(l);
            }
        }
    }
    LutNetlist {
        k,
        luts: selected.len(),
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_network::blif;

    fn parse(text: &str) -> Network {
        blif::parse(text).expect("test blif")
    }

    #[test]
    fn single_gate_is_one_lut() {
        let net = parse(".model m\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n.end\n");
        let m = map_network_luts(&net, 4).unwrap();
        assert_eq!(m.luts, 1);
        assert_eq!(m.depth, 1);
    }

    #[test]
    fn wide_and_needs_multiple_luts() {
        // 9-input AND with k=4: ceil coverage needs ≥ 3 LUTs, depth ≥ 2.
        let net = parse(
            ".model m\n.inputs a b c d e f g h i\n.outputs o\n.names a b c d e f g h i o\n111111111 1\n.end\n",
        );
        let m = map_network_luts(&net, 4).unwrap();
        assert!(m.luts >= 3, "9-AND cannot fit fewer than 3 4-LUTs: {m:?}");
        assert!(m.depth >= 2);
    }

    #[test]
    fn xor_pair_fits_one_lut() {
        // (a ⊕ b) has 5 subject nodes but only 2 inputs: one 4-LUT.
        let net = parse(".model m\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n");
        let m = map_network_luts(&net, 4).unwrap();
        assert_eq!(m.luts, 1);
    }

    #[test]
    fn bigger_k_never_hurts() {
        let net = parse(
            ".model m\n.inputs a b c d e\n.outputs o\n.names a b t\n10 1\n01 1\n.names t c u\n11 1\n.names u d e o\n1-1 1\n-11 1\n.end\n",
        );
        let m4 = map_network_luts(&net, 4).unwrap();
        let m6 = map_network_luts(&net, 6).unwrap();
        assert!(m6.luts <= m4.luts);
        assert!(m6.depth <= m4.depth);
    }

    #[test]
    #[should_panic(expected = "k ≥ 2")]
    fn k1_rejected() {
        let net = parse(".model m\n.inputs a\n.outputs f\n.names a f\n0 1\n.end\n");
        let _ = map_network_luts(&net, 1);
    }
}
