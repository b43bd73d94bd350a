//! Differential test: `optimize_global`, whose stitch writes a swept,
//! compact network as it emits, against the old path kept below: the
//! same build, sift and decomposition, then the plain emission of
//! `tests/reference_stitch` followed by `sweep` and `compacted`.
//!
//! Both must give byte-identical BLIF and equal `FlowReport` fields (all
//! but `seconds`), or the same error. The networks are the swept inputs
//! `optimize` hands to `optimize_global`, for flowbench's `global_bdd`
//! circuits, the Table I circuits and seeded random logic networks, each
//! under default parameters and with the structure-loss guard off (so
//! the circuits it rejects are stitched too). `Stitch::emit_expr` and
//! `Stitch::node`, the SOP and verbatim rungs' emission, are pinned the
//! same way on random covers whose variables share signals.
//!
//! CI also runs it in release, where the random sets are larger:
//! `cargo test --release --features strict-checks --test global_differential -- --nocapture`.

mod reference_stitch;

use bds_prop::{check_cases, Rng};
use bds_repro::bdd::reorder::sift;
use bds_repro::bdd::BddError;
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::circuits::suites;
use bds_repro::core::decompose::Decomposer;
use bds_repro::core::factor_tree::FactorForest;
use bds_repro::core::flow::{optimize_global, FlowMode, FlowParams, FlowReport};
use bds_repro::core::sharing::{Sig, Stitch};
use bds_repro::network::{blif, Network, NetworkError, SignalId};
use bds_repro::sop::{Cover, Cube};

/// Random cases; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 20 } else { 300 };

/// The old `optimize_global`, trace calls left out.
fn reference_global(
    net: &Network,
    params: &FlowParams,
) -> Result<(Network, FlowReport), NetworkError> {
    let (mgr, edges, var_of) = net.global_bdds(params.global_limit)?;
    mgr.audit().map_err(NetworkError::Bdd)?;
    let literals = net.stats().literals.max(1);
    let global_size = mgr.count_nodes(&edges);
    if params.global_blowup_factor > 0 && global_size > params.global_blowup_factor * literals {
        return Err(NetworkError::Bdd(BddError::NodeLimit {
            limit: params.global_blowup_factor * literals,
        }));
    }
    let peak0 = mgr.arena_size();
    let mut ops = mgr.op_stats();
    let (mut mgr, edges) = sift(&mgr, &edges, params.sift).map_err(NetworkError::Bdd)?;
    mgr.set_node_limit(usize::MAX);
    let mut forest = FactorForest::new();
    let mut dec = Decomposer::new();
    let mut roots = Vec::with_capacity(edges.len());
    for &e in &edges {
        roots.push(
            dec.decompose(&mut mgr, e, &mut forest, &params.decompose)
                .map_err(NetworkError::Bdd)?,
        );
    }
    ops.merge(&mgr.op_stats());

    let mut out = Network::new(net.name());
    let mut var_slots: Vec<Option<SignalId>> = vec![None; mgr.var_count()];
    for &i in net.inputs() {
        let sig = out.add_input(net.signal_name(i))?;
        if let Some(&v) = var_of.get(&i) {
            var_slots[v.index()] = Some(sig);
        }
    }
    let mut var_signals: Vec<SignalId> = Vec::with_capacity(var_slots.len());
    for (v, slot) in var_slots.into_iter().enumerate() {
        let sig = slot.ok_or_else(|| NetworkError::Inconsistent {
            detail: format!("global-BDD variable #{v} matches no primary input"),
        })?;
        var_signals.push(sig);
    }
    let emitted = reference_stitch::emit_forest(&mut out, &forest, &roots, &var_signals, "bds")?;
    for (idx, &o) in net.outputs().iter().enumerate() {
        let sig = reference_stitch::alias(&mut out, emitted[idx], net.signal_name(o))?;
        out.mark_output(sig)?;
    }
    out.sweep()?;
    let out = out.compacted()?;
    Ok((
        out,
        FlowReport {
            mode: FlowMode::Global,
            decompose: dec.stats,
            seconds: 0.0,
            peak_bdd_nodes: peak0.max(mgr.arena_size()),
            eliminated: 0,
            bdd_ops: ops,
            degraded: 0,
        },
    ))
}

/// What one run is compared on: the BLIF and every structural report
/// field, or the error's text.
fn outcome(result: Result<(Network, FlowReport), NetworkError>) -> Result<String, String> {
    match result {
        Ok((out, r)) => Ok(format!(
            "{:?} {:?} peak={} eliminated={} {:?} degraded={}\n{}",
            r.mode,
            r.decompose,
            r.peak_bdd_nodes,
            r.eliminated,
            r.bdd_ops,
            r.degraded,
            blif::write(&out)
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// The network `optimize` hands to `optimize_global`: the input,
/// compacted and swept.
fn swept(net: &Network) -> Network {
    let mut work = net.compacted().expect("compacts");
    work.sweep().expect("sweeps");
    work
}

/// Checks `net` under default parameters and with the structure-loss
/// guard off; returns how many of the two runs were stitched.
fn check(name: &str, net: &Network) -> usize {
    let unguarded = FlowParams {
        global_blowup_factor: 0,
        ..FlowParams::default()
    };
    let mut stitched = 0;
    for (label, params) in [("default", FlowParams::default()), ("unguarded", unguarded)] {
        let expected = outcome(reference_global(net, &params));
        let got = outcome(optimize_global(net, &params));
        assert!(
            got == expected,
            "{name} [{label}]: differs from the reference\n--- reference\n{expected:?}\n--- new\n{got:?}"
        );
        stitched += usize::from(expected.is_ok());
    }
    stitched
}

#[test]
fn flowbench_and_table1_circuits_match_the_reference() {
    // flowbench's `global_bdd` set, then the Table I set.
    let suite = suites::global_bdd_and_table1();
    let mut stitched = 0;
    for c in &suite {
        stitched += check(&c.name, &swept(&c.net));
    }
    eprintln!(
        "{} circuits identical: {stitched} stitched runs",
        suite.len()
    );
    assert!(
        stitched >= suite.len(),
        "too few global stitches: {stitched}"
    );
}

#[test]
fn random_logic_matches_the_reference() {
    let mut stitched = 0;
    check_cases("optimize_global matches the reference", CASES, |rng| {
        let logic = RandomLogicParams {
            inputs: rng.range_usize(3..13),
            outputs: rng.range_usize(1..9),
            nodes: rng.range_usize(2..41),
            max_fanin: rng.range_usize(2..6),
            max_cubes: rng.range_usize(1..6),
        };
        let seed = rng.next_u64();
        let net = swept(&random_logic(&logic, seed));
        stitched += check(&format!("random {logic:?} seed {seed:#x}"), &net);
    });
    eprintln!("{CASES} random networks identical: {stitched} stitched runs");
    assert!(
        stitched > CASES as usize,
        "too few global stitches: {stitched}"
    );
}

/// `emit_expr` on the factored form of a random cover whose variables
/// map onto fewer signals (so fanins repeat and covers degenerate), with
/// the root named as an output: the stitch must write what the old
/// emission, `sweep` and `compacted` wrote.
#[test]
fn factored_covers_match_the_reference() {
    let mut degenerate = 0;
    check_cases("emit_expr matches the reference", CASES * 4, |rng| {
        let vars = rng.range_usize(1..7);
        let cover = random_cover(rng, vars);
        let expr = bds_repro::sop::factor::factor(&cover);
        let signals = rng.range_usize(1..vars + 1);
        let of_var: Vec<usize> = (0..vars).map(|_| rng.range_usize(0..signals)).collect();
        let phase = rng.bool();
        let names: Vec<String> = (0..signals).map(|i| format!("x{i}")).collect();

        let mut old = Network::new("expr");
        let ins: Vec<SignalId> = names
            .iter()
            .map(|n| old.add_input(n.as_str()).unwrap())
            .collect();
        let var_signals: Vec<SignalId> = of_var.iter().map(|&s| ins[s]).collect();
        let r = reference_stitch::emit_expr(&mut old, &expr, &var_signals, "bds").unwrap();
        let r = reference_stitch::ResolvedRef {
            phase: r.phase == phase,
            ..r
        };
        let o = reference_stitch::alias(&mut old, r, "F").unwrap();
        old.mark_output(o).unwrap();
        degenerate += usize::from(old.sweep().unwrap() > 0);
        let expected = blif::write(&old.compacted().unwrap());

        let mut stitch = Stitch::new("expr", "bds");
        let ins: Vec<Sig> = names
            .iter()
            .map(|n| stitch.add_input(n.as_str()).unwrap())
            .collect();
        let var_signals: Vec<Sig> = of_var.iter().map(|&s| ins[s]).collect();
        let mut r = stitch.emit_expr(&expr, &var_signals).unwrap();
        r.phase = r.phase == phase;
        let o = stitch.alias(r, "F", true).unwrap();
        stitch.mark_output(o).unwrap();
        let got = blif::write(&stitch.finish().unwrap());
        assert_eq!(got, expected, "cover {cover} over {of_var:?}");
    });
    eprintln!(
        "{} covers identical: {degenerate} needed a sweep",
        CASES * 4
    );
    assert!(degenerate > 0, "no cover exercised the clean-up");
}

/// A random cover over `vars` positions, not necessarily simplified.
fn random_cover(rng: &mut Rng, vars: usize) -> Cover {
    let cubes: Vec<Cube> = (0..rng.range_usize(0..7))
        .filter_map(|_| {
            let lits = (0..rng.range_usize(0..4))
                .map(|_| (rng.range_usize(0..vars) as u32, rng.bool()))
                .collect();
            Cube::new(lits)
        })
        .collect();
    Cover::from_cubes(cubes)
}

/// `Stitch::node`, the verbatim rung's emission, on a random cover whose
/// positions map onto fewer signals and onto constants, read by a named
/// AND: the stitch must write what `add_node`, `sweep` and `compacted`
/// wrote, whether or not the node is a named output itself.
#[test]
fn verbatim_covers_match_the_reference() {
    let mut degenerate = 0;
    check_cases("node matches the reference", CASES * 4, |rng| {
        let vars = rng.range_usize(1..9);
        let cover = random_cover(rng, vars);
        let signals = rng.range_usize(1..vars + 1);
        // Index `signals` and `signals + 1` stand for constants 0 and 1.
        let constants = if rng.ratio(0.2) { 2 } else { 0 };
        let of_var: Vec<usize> = (0..vars)
            .map(|_| rng.range_usize(0..signals + constants))
            .collect();
        let named = rng.bool();
        let names: Vec<String> = (0..signals).map(|i| format!("x{i}")).collect();
        let and = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, true)])]);

        let mut old = Network::new("node");
        let mut ins: Vec<SignalId> = names
            .iter()
            .map(|n| old.add_input(n.as_str()).unwrap())
            .collect();
        ins.push(old.add_constant("k0", false).unwrap());
        ins.push(old.add_constant("k1", true).unwrap());
        let var_signals: Vec<SignalId> = of_var.iter().map(|&s| ins[s]).collect();
        let f = old.add_node("F", var_signals, cover.clone()).unwrap();
        let g = old.add_node("G", vec![f, ins[0]], and.clone()).unwrap();
        if named {
            old.mark_output(f).unwrap();
        }
        old.mark_output(g).unwrap();
        degenerate += usize::from(old.sweep().unwrap() > 0);
        let expected = blif::write(&old.compacted().unwrap());

        let mut stitch = Stitch::new("node", "bds");
        let mut ins: Vec<Sig> = names
            .iter()
            .map(|n| stitch.add_input(n.as_str()).unwrap())
            .collect();
        ins.extend([Sig::Const(false), Sig::Const(true)]);
        let var_signals: Vec<Sig> = of_var.iter().map(|&s| ins[s]).collect();
        let f = stitch
            .node("F", &var_signals, cover.clone(), named)
            .unwrap();
        let g = stitch.node("G", &[f, ins[0]], and, true).unwrap();
        if named {
            stitch.mark_output(f).unwrap();
        }
        stitch.mark_output(g).unwrap();
        let got = blif::write(&stitch.finish().unwrap());
        assert_eq!(got, expected, "cover {cover} over {of_var:?}");
    });
    eprintln!(
        "{} covers identical: {degenerate} needed a sweep",
        CASES * 4
    );
    assert!(degenerate > 0, "no cover exercised the clean-up");
}
