//! Property test of the network's incremental fanout index: after every
//! step of a random edit sequence, `fanouts(sig)` must equal a recompute
//! from the fanin lists, `check_invariants` (which also audits the
//! back-edge count) must pass, and `topo_order` must equal the
//! depth-first search it skips while the network has no back edge.
//!
//! Edits: `add_node`, `replace_node` (including attempts that must be
//! rejected as cyclic or self-looping), `sweep`, `eliminate`, and BLIF
//! round trips whose `.names` blocks are shuffled so that fanins refer
//! forward to nodes defined later in the file.

use bds_network::{blif, EliminateParams, Network, NetworkError, SignalId};
use bds_prop::{check_cases, Rng};
use bds_sop::{Cover, Cube};

/// Readers of each signal recomputed from scratch, in the index's order.
fn recomputed_fanouts(net: &Network) -> Vec<Vec<SignalId>> {
    let mut out: Vec<Vec<SignalId>> = net.signals().map(|_| Vec::new()).collect();
    for sig in net.signals() {
        if let Some((fanins, _)) = net.node(sig) {
            for &f in fanins {
                out[f.index()].push(sig);
            }
        }
    }
    out
}

/// The depth-first topological order: every signal in id order starts a
/// search that emits each fanin cone before its root.
fn reference_topo_order(net: &Network) -> Vec<SignalId> {
    let mut order = Vec::new();
    let mut state = vec![0u8; net.signals().count()];
    let mut stack = Vec::new();
    for start in net.signals() {
        stack.push((start, false));
        while let Some((sig, expanded)) = stack.pop() {
            if expanded {
                state[sig.index()] = 2;
                order.push(sig);
            } else if state[sig.index()] == 0 {
                state[sig.index()] = 1;
                stack.push((sig, true));
                for &f in net.node(sig).map_or(&[][..], |(fanins, _)| fanins) {
                    if state[f.index()] == 0 {
                        stack.push((f, false));
                    }
                }
            }
        }
    }
    order
}

fn assert_index_exact(net: &Network, step: &str) {
    assert_eq!(
        net.topo_order(),
        reference_topo_order(net),
        "after {step}: topological order"
    );
    for (sig, want) in net.signals().zip(recomputed_fanouts(net)) {
        assert_eq!(
            net.fanouts(sig),
            want.as_slice(),
            "after {step}: fanouts of `{}`",
            net.signal_name(sig)
        );
    }
    if let Err(e) = net.check_invariants() {
        panic!("after {step}: {e}");
    }
}

/// True if `sig` is one of `fanins` or lies in their transitive fanin,
/// i.e. making `sig` read `fanins` would close a cycle.
fn would_cycle(net: &Network, sig: SignalId, fanins: &[SignalId]) -> bool {
    let mut seen = vec![false; net.signals().count()];
    let mut stack = fanins.to_vec();
    while let Some(s) = stack.pop() {
        if s == sig {
            return true;
        }
        if std::mem::replace(&mut seen[s.index()], true) {
            continue;
        }
        if let Some((fi, _)) = net.node(s) {
            stack.extend_from_slice(fi);
        }
    }
    false
}

fn random_cover(rng: &mut Rng, arity: usize) -> Cover {
    let cubes = (0..rng.range_usize(1..4))
        .filter_map(|_| {
            let lits = (0..arity as u32)
                .filter_map(|v| match rng.range_u32(0..3) {
                    0 => None,
                    p => Some((v, p == 1)),
                })
                .collect();
            Cube::new(lits)
        })
        .collect();
    Cover::from_cubes(cubes)
}

fn random_fanins(rng: &mut Rng, net: &Network) -> Vec<SignalId> {
    let all: Vec<SignalId> = net.signals().collect();
    (0..rng.range_usize(1..4))
        .map(|_| *rng.choose(&all))
        .collect()
}

/// Writes `net` as BLIF with its `.names` blocks in random order, so the
/// parser meets fanins before their definitions.
fn shuffled_blif(rng: &mut Rng, net: &Network) -> String {
    let text = blif::write(net);
    let mut header = Vec::new();
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    for line in text.lines() {
        if line.starts_with(".names") {
            blocks.push(vec![line]);
        } else if line == ".end" {
            break;
        } else if let Some(block) = blocks.last_mut() {
            block.push(line);
        } else {
            header.push(line);
        }
    }
    for i in (1..blocks.len()).rev() {
        blocks.swap(i, rng.range_usize(0..i + 1));
    }
    let mut out = header.join("\n");
    for line in blocks.concat() {
        out.push('\n');
        out.push_str(line);
    }
    out.push_str("\n.end\n");
    out
}

/// Runs a random edit sequence and counts the steps it ends without and
/// with back edges.
fn run_edits(rng: &mut Rng, back_edge_steps: &mut [u32; 2]) {
    let mut net = Network::new("prop");
    for i in 0..rng.range_usize(2..6) {
        net.add_input(format!("i{i}")).unwrap();
    }
    let mut named = 0;
    for step in 0..40 {
        let nodes = net.node_ids();
        let op = rng.range_u32(0..16);
        let label = match op {
            0..=4 => {
                let fanins = random_fanins(rng, &net);
                let cover = random_cover(rng, fanins.len());
                let sig = net.add_node(format!("n{named}"), fanins, cover).unwrap();
                named += 1;
                if rng.ratio(0.3) {
                    net.mark_output(sig).unwrap();
                }
                "add_node"
            }
            5..=9 if !nodes.is_empty() => {
                let sig = *rng.choose(&nodes);
                let mut fanins = random_fanins(rng, &net);
                if rng.ratio(0.2) {
                    fanins.push(sig);
                }
                let cover = random_cover(rng, fanins.len());
                let cyclic = would_cycle(&net, sig, &fanins);
                let before = blif::write(&net);
                match net.replace_node(sig, fanins, cover) {
                    Ok(()) => assert!(!cyclic, "step {step}: cyclic replace accepted"),
                    Err(NetworkError::Cycle { .. }) => {
                        assert!(cyclic, "step {step}: acyclic replace rejected");
                        assert_eq!(blif::write(&net), before, "rejected edit changed the net");
                    }
                    Err(e) => panic!("step {step}: unexpected error {e}"),
                }
                "replace_node"
            }
            10 | 11 => {
                net.sweep().unwrap();
                "sweep"
            }
            12 | 13 => {
                net.eliminate(&EliminateParams::default()).unwrap();
                "eliminate"
            }
            _ => {
                let text = shuffled_blif(rng, &net);
                let parsed = blif::parse(&text).unwrap();
                assert_eq!(parsed.node_count(), net.node_count(), "round trip");
                for _ in 0..8 {
                    let values: Vec<bool> = net.inputs().iter().map(|_| rng.bool()).collect();
                    assert_eq!(parsed.eval(&values).unwrap(), net.eval(&values).unwrap());
                }
                net = parsed;
                "blif round trip"
            }
        };
        assert_index_exact(&net, &format!("step {step} ({label})"));
        back_edge_steps[usize::from(has_back_edges(&net))] += 1;
    }
}

#[test]
fn fanout_index_matches_recompute_under_random_edits() {
    let mut back_edge_steps = [0; 2];
    check_cases("fanout index under random edits", 96, |rng| {
        run_edits(rng, &mut back_edge_steps);
    });
    let [forward, back] = back_edge_steps;
    assert!(
        forward > 0 && back > 0,
        "steps without / with back edges: {forward} / {back}"
    );
}

/// True if some signal of `fanins` is `sig` or is reachable from `sig`
/// along `fanouts()`: the full search, over every fanin, old or new.
fn reaches_a_fanin(net: &Network, sig: SignalId, fanins: &[SignalId]) -> bool {
    let mut seen = vec![false; net.signals().count()];
    let mut stack = vec![sig];
    while let Some(s) = stack.pop() {
        if fanins.contains(&s) {
            return true;
        }
        for &t in net.fanouts(s) {
            if !std::mem::replace(&mut seen[t.index()], true) {
                stack.push(t);
            }
        }
    }
    false
}

fn has_back_edges(net: &Network) -> bool {
    net.signals().any(|s| {
        net.node(s)
            .is_some_and(|(fanins, _)| fanins.iter().any(|&f| f >= s))
    })
}

#[test]
fn cycle_check_matches_full_reachability_with_back_edges() {
    let (mut with_back_edges, mut cyclic, mut accepted) = (0u32, 0u32, 0u32);
    check_cases("cycle check with back edges", 96, |rng| {
        let mut net = Network::new("cyc");
        for i in 0..rng.range_usize(2..6) {
            net.add_input(format!("i{i}")).unwrap();
        }
        for k in 0..rng.range_usize(4..16) {
            let fanins = random_fanins(rng, &net);
            let cover = random_cover(rng, fanins.len());
            let sig = net.add_node(format!("n{k}"), fanins, cover).unwrap();
            net.mark_output(sig).unwrap();
        }
        // Shuffled `.names` blocks make fanins refer forward: back edges.
        let mut net = blif::parse(&shuffled_blif(rng, &net)).unwrap();
        with_back_edges += u32::from(has_back_edges(&net));
        for step in 0..30 {
            let sig = *rng.choose(&net.node_ids());
            // Keep a random part of the old fanins, add new ones.
            let old = net.node(sig).unwrap().0.to_vec();
            let mut fanins: Vec<SignalId> = old.into_iter().filter(|_| rng.bool()).collect();
            fanins.extend(random_fanins(rng, &net));
            let cover = random_cover(rng, fanins.len());
            let want = reaches_a_fanin(&net, sig, &fanins);
            let before = blif::write(&net);
            match net.replace_node(sig, fanins, cover) {
                Ok(()) => {
                    assert!(!want, "step {step}: cyclic replace accepted");
                    accepted += 1;
                }
                Err(NetworkError::Cycle { .. }) => {
                    assert!(want, "step {step}: acyclic replace rejected");
                    assert_eq!(blif::write(&net), before, "rejected edit changed the net");
                    cyclic += 1;
                }
                Err(e) => panic!("step {step}: unexpected error {e}"),
            }
            assert_index_exact(&net, &format!("step {step}"));
        }
    });
    assert!(
        with_back_edges > 48,
        "too few networks with back edges: {with_back_edges}"
    );
    assert!(
        cyclic > 100 && accepted > 100,
        "{cyclic} cyclic, {accepted} accepted"
    );
}

#[test]
fn forward_references_take_the_search_path() {
    // `.names` blocks in reverse order: every fanin is a back edge.
    let text = "\
.model fwd
.inputs a b
.outputs f
.names g b f
11 1
.names a g
0 1
.end
";
    let mut net = blif::parse(text).unwrap();
    assert_index_exact(&net, "parse");
    let (f, g) = (net.signal_id("f").unwrap(), net.signal_id("g").unwrap());
    assert!(g > f, "g is defined after f");
    assert_eq!(net.fanouts(g), &[f]);
    let buf = Cover::from_cubes(vec![Cube::lit(0, true)]);
    let r = net.replace_node(g, vec![f], buf.clone());
    assert!(matches!(r, Err(NetworkError::Cycle { .. })));
    let a = net.signal_id("a").unwrap();
    net.replace_node(g, vec![a], buf).unwrap();
    assert_index_exact(&net, "replace");
}
