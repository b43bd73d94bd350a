//! `optimize_partitioned` decomposes a non-compact network as it is: on
//! random networks made non-compact by dead nodes (left by `eliminate`,
//! or by `replace_node` rewiring a node's only reader), inputs declared
//! after nodes, and back edges from `replace_node`, it must give the
//! same BLIF and `FlowReport` as on the network's `compacted` form, at
//! `jobs` 1 and 2, with and without a fault plan (whose target is an
//! index into the supernode list, so it also pins the list's order).
//!
//! CI also runs it in release with strict checks, where the case count
//! is larger and every edited network passes `check_invariants`:
//! `cargo test --release --features strict-checks --test noncompact_partitioned`.

use bds_prop::{check_cases, Rng};
use bds_repro::bdd::Fault;
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::core::flow::{optimize_partitioned, FaultPlan, FlowParams};
use bds_repro::network::{blif, Network, NetworkError, SignalId};
use bds_repro::sop::{Cover, Cube};

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 40 } else { 400 };

/// The BLIF and the report, or the error's text.
fn outcome(net: &Network, params: &FlowParams) -> Result<(String, String), String> {
    optimize_partitioned(net, params)
        .map(|(out, report)| (blif::write(&out), format!("{report:?}")))
        .map_err(|e| e.to_string())
}

fn and2() -> Cover {
    Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, false)])])
}

/// The ways a network stops being compact, counted over the run.
#[derive(Default)]
struct Seen {
    dead: u32,
    late_inputs: u32,
    back_edges: u32,
}

/// Edits `net` so that it is not compact, and records which of the
/// three ways the edits took.
fn make_non_compact(rng: &mut Rng, net: &mut Network, seen: &mut Seen) {
    let nodes = |net: &Network| net.node_ids();
    // An input declared after the nodes, sometimes read by a node.
    if rng.bool() {
        let late = net.add_input("late_in").expect("fresh name");
        seen.late_inputs += 1;
        let ids = nodes(net);
        if !ids.is_empty() && rng.bool() {
            let sig = *rng.choose(&ids);
            let (fanins, _) = net.node(sig).expect("a node");
            if let Some(&f) = fanins.first() {
                net.replace_node(sig, vec![f, late], and2())
                    .expect("a later input closes no cycle");
            }
        }
    }
    // Back edges: a node reads a later one that does not depend on it.
    let mut back_edges = false;
    for _ in 0..rng.range_usize(0..4) {
        let ids = nodes(net);
        if ids.len() < 2 {
            break;
        }
        let (a, b) = (*rng.choose(&ids), *rng.choose(&ids));
        let (early, late) = (a.min(b), a.max(b));
        let Some((fanins, _)) = net.node(early) else {
            continue;
        };
        let keep = fanins.first().copied().unwrap_or(late);
        match net.replace_node(early, vec![keep, late], and2()) {
            Ok(()) => back_edges = true,
            Err(NetworkError::Cycle { .. }) => {}
            Err(e) => panic!("replace_node: {e}"),
        }
    }
    seen.back_edges += u32::from(back_edges);
    // Dead nodes: rewire a node to read only inputs, which can leave its
    // old fanins without a reader.
    if rng.bool() {
        let ids = nodes(net);
        let inputs: Vec<SignalId> = net.inputs().to_vec();
        if !ids.is_empty() && !inputs.is_empty() {
            let sig = *rng.choose(&ids);
            let input = *rng.choose(&inputs);
            net.replace_node(
                sig,
                vec![input],
                Cover::from_cubes(vec![Cube::lit(0, false)]),
            )
            .expect("an input closes no cycle");
        }
    }
    let live = net.live_signals();
    if net.signals().any(|s| !live[s.index()] && !net.is_input(s)) {
        seen.dead += 1;
    }
}

/// Default parameters at `jobs`, with a fault plan when `fault` is set.
fn params(jobs: usize, fault: Option<usize>) -> FlowParams {
    let mut p = FlowParams {
        jobs,
        ..FlowParams::default()
    };
    p.govern.inject = fault.map(|supernode| FaultPlan {
        supernode,
        fault: Fault::Budget,
        at_tick: 20,
    });
    p
}

#[test]
fn non_compact_networks_decompose_as_their_compacted_form() {
    let mut seen = Seen::default();
    check_cases(
        "optimize_partitioned(net) == optimize_partitioned(net.compacted())",
        CASES,
        |rng| {
            let logic = RandomLogicParams {
                inputs: rng.range_usize(3..16),
                outputs: rng.range_usize(1..6),
                nodes: rng.range_usize(4..50),
                max_fanin: rng.range_usize(2..5),
                max_cubes: rng.range_usize(1..5),
            };
            let mut net = random_logic(&logic, rng.next_u64());
            if rng.bool() {
                net.sweep().expect("sweeps");
                net.eliminate(&FlowParams::default().eliminate)
                    .expect("eliminates");
            }
            make_non_compact(rng, &mut net, &mut seen);
            net.check_invariants().expect("edited network is sound");
            let compact = net.compacted().expect("compacts");
            let fault = rng.bool().then(|| rng.range_usize(0..64));
            for jobs in [1, 2] {
                let p = params(jobs, fault);
                assert_eq!(
                    outcome(&net, &p),
                    outcome(&compact, &p),
                    "jobs={jobs}, fault plan on item {fault:?}\n{}",
                    blif::write(&net)
                );
            }
        },
    );
    eprintln!(
        "{CASES} networks: {} with dead nodes, {} with late inputs, {} with back edges",
        seen.dead, seen.late_inputs, seen.back_edges
    );
    for (way, count) in [
        ("dead nodes", seen.dead),
        ("late inputs", seen.late_inputs),
        ("back edges", seen.back_edges),
    ] {
        assert!(count > CASES / 8, "too few networks with {way}: {count}");
    }
}
