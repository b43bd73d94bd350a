//! `optimize_partitioned` (each distinct supernode function decomposed
//! once, every supernode stitched from its group's artifact) pinned by
//! digests: at `jobs` 1 and 4 alike, the BLIF and every `FlowReport`
//! field but `seconds`, or the error, must be those recorded in
//! `tests/digests/partitioned_differential.txt`. The networks are the
//! swept and eliminate-collapsed inputs `optimize` feeds the partitioned
//! flow, for the scaling circuits, flowbench's `global_bdd` and
//! `sis_rugged` circuits, seeded random logic networks and networks the
//! flow already optimized. Each runs under default parameters, budgets
//! tight enough to reach degradation rungs 1–3, and fault plans aimed at
//! a supernode whose function other supernodes share. The baseline was
//! recorded while a frozen copy of the loop this replaced, which
//! decomposed every supernode afresh, still agreed with it.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test partitioned_differential -- --nocapture`.

use std::sync::Once;

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::bdd::Fault;
use bds_repro::circuits::adder::carry_select_adder;
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::circuits::suites;
use bds_repro::core::flow::{optimize_partitioned, FaultPlan, FlowParams, FlowReport};
use bds_repro::network::verify::{verify, Verdict};
use bds_repro::network::{blif, Network, SignalId};
use bds_repro::sop::Cover;

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 20 } else { 300 };

/// The fault plans aimed at each target; debug builds take a subset.
const FAULTS: &[(Fault, u64)] = if cfg!(debug_assertions) {
    &[(Fault::Budget, 50), (Fault::Panic, 50)]
} else {
    &[
        (Fault::Budget, 0),
        (Fault::Budget, 50),
        (Fault::Alloc, 0),
        (Fault::Alloc, 50),
        (Fault::Panic, 0),
        (Fault::Panic, 50),
    ]
};

/// Keeps the default panic hook quiet for injected panics, which the
/// flow catches and turns into errors.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

/// What one run is digested on: the BLIF and every structural report
/// field but the BDD operation counters, or the error's text; then the
/// counters.
fn outcome(
    result: Result<(Network, FlowReport), impl std::fmt::Display>,
) -> (Result<String, String>, String) {
    match result {
        Ok((out, r)) => (
            Ok(format!(
                "{:?} {:?} peak={} eliminated={} degraded={}\n{}",
                r.mode,
                r.decompose,
                r.peak_bdd_nodes,
                r.eliminated,
                r.degraded,
                blif::write(&out)
            )),
            format!("{:?}", r.bdd_ops),
        ),
        Err(e) => (Err(e.to_string()), String::new()),
    }
}

/// Runs the flow at jobs 1 and 4 on `net`, asserts both give the same
/// outcome, digests it under `name` and returns it: an ungoverned run
/// with its counters under `name ops`, a run under a budget or a fault
/// plan with its counters under `name`.
fn check(
    d: &mut Digests,
    name: &str,
    net: &Network,
    params: &FlowParams,
) -> Result<String, String> {
    let [one, four] = [1, 4].map(|jobs| {
        outcome(optimize_partitioned(
            net,
            &FlowParams {
                jobs,
                ..params.clone()
            },
        ))
    });
    assert!(
        one == four,
        "{name}: jobs=1 and jobs=4 differ\n--- jobs=1\n{one:?}\n--- jobs=4\n{four:?}"
    );
    let (text, ops) = one;
    if params.govern.supernode_budget == 0 && params.govern.inject.is_none() {
        d.add(name, format!("{text:?}"));
        d.add(format!("{name} ops"), ops);
    } else {
        d.add(name, format!("{text:?} {ops}"));
    }
    text
}

/// The two networks `optimize` hands to `optimize_partitioned`: the
/// swept input, and the same after `eliminate` and another sweep.
fn partitioned_inputs(net: &Network) -> [(&'static str, Network); 2] {
    let mut work = net.compacted().expect("compacts");
    work.sweep().expect("sweeps");
    let mut collapsed = work.clone();
    collapsed
        .eliminate(&FlowParams::default().eliminate)
        .expect("eliminates");
    collapsed.sweep().expect("sweeps");
    [("swept", work), ("collapsed", collapsed)]
}

/// Default parameters at `jobs = 1`.
fn base() -> FlowParams {
    FlowParams {
        jobs: 1,
        ..FlowParams::default()
    }
}

/// Budgets small enough that supernodes retreat to rungs 1, 2 and 3.
fn governed() -> Vec<(&'static str, FlowParams)> {
    let mut budget300 = base();
    budget300.govern.supernode_budget = 300;
    let mut budget60 = base();
    budget60.govern.supernode_budget = 60;
    budget60.govern.sop_cube_limit = 2;
    vec![
        ("default", base()),
        ("budget 300", budget300),
        ("budget 60, sop 2", budget60),
    ]
}

/// A fault plan aimed at item `target`, on top of a mid-sized budget.
fn faulted(target: usize, fault: Fault, at_tick: u64) -> FlowParams {
    let mut p = base();
    p.govern.supernode_budget = 2_000_000;
    p.govern.inject = Some(FaultPlan {
        supernode: target,
        fault,
        at_tick,
    });
    p
}

/// The supernodes `optimize_partitioned` decomposes, in its order: every
/// non-input node of the compacted network with a cover, in topological
/// order, as `(signal, fanin count, cover)`.
fn supernodes(work: &Network) -> Vec<(SignalId, usize, Cover)> {
    work.topo_order()
        .into_iter()
        .filter(|&sig| !work.is_input(sig))
        .filter_map(|sig| {
            work.node(sig)
                .map(|(fanins, cover)| (sig, fanins.len(), cover.clone()))
        })
        .collect()
}

/// Items whose function another item shares: the first item of a group
/// with at least two members (with the fault there, the next member
/// leads), and that next member (the fault then lands inside the group).
fn shared_targets(net: &Network) -> Option<[usize; 2]> {
    let items = supernodes(&net.compacted().expect("compacts"));
    items.iter().enumerate().find_map(|(i, (_, n, cover))| {
        let next = items[i + 1..]
            .iter()
            .position(|(_, m, other)| m == n && other == cover)?;
        Some([i, i + 1 + next])
    })
}

/// Runs `net` under every governed setting and every fault plan aimed
/// at `targets`; returns the number of runs that degraded and that
/// failed.
fn check_all(d: &mut Digests, name: &str, net: &Network, targets: &[usize]) -> (usize, usize) {
    let (mut degraded, mut failed) = (0, 0);
    let mut tally = |r: Result<String, String>| match r {
        Ok(text) if !text.contains(" degraded=0\n") => degraded += 1,
        Ok(_) => {}
        Err(_) => failed += 1,
    };
    for (label, params) in governed() {
        tally(check(d, &format!("{name} [{label}]"), net, &params));
    }
    for &target in targets {
        for &(fault, at_tick) in FAULTS {
            let label = format!("{name} [{fault:?} at tick {at_tick} on item {target}]");
            tally(check(d, &label, net, &faulted(target, fault, at_tick)));
        }
    }
    (degraded, failed)
}

#[test]
fn scaling_circuits_match_the_reference() {
    quiet_injected_panics();
    let mut d = bds_prop::digests!("scaling");
    for c in suites::scale() {
        let name = &c.name;
        for (form, input) in partitioned_inputs(&c.net) {
            let name = format!("{name} ({form})");
            let targets = shared_targets(&input).expect("scaling circuits repeat functions");
            let (degraded, failed) = check_all(&mut d, &name, &input, &targets);
            eprintln!("{name}: {degraded} runs degraded, {failed} failed");
            assert!(
                degraded > 0,
                "{name}: no run reached the degradation ladder"
            );
        }
    }
    d.check();
}

#[test]
fn flowbench_circuits_match_the_reference() {
    quiet_injected_panics();
    // flowbench's `global_bdd` set, then its `sis_rugged` set.
    let mut d = bds_prop::digests!("flowbench");
    for c in suites::global_bdd_and_table1() {
        let name = &c.name;
        for (form, input) in partitioned_inputs(&c.net) {
            let name = format!("{name} ({form})");
            let targets = shared_targets(&input).map_or(vec![0, 3], Vec::from);
            let (degraded, failed) = check_all(&mut d, &name, &input, &targets);
            eprintln!("{name}: {degraded} runs degraded, {failed} failed");
        }
    }
    d.check();
}

#[test]
fn random_logic_matches_the_reference() {
    quiet_injected_panics();
    let (mut shared, mut degraded) = (0u32, 0u32);
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("optimize_partitioned matches its digests", CASES, |rng| {
        let logic = RandomLogicParams {
            inputs: rng.range_usize(3..25),
            outputs: rng.range_usize(1..9),
            nodes: rng.range_usize(2..81),
            max_fanin: rng.range_usize(2..6),
            max_cubes: rng.range_usize(1..6),
        };
        let seed = rng.next_u64();
        let raw = random_logic(&logic, seed);
        let [swept, collapsed] = partitioned_inputs(&raw);
        let (form, net) = if rng.bool() { swept } else { collapsed };
        let targets = shared_targets(&net);
        shared += u32::from(targets.is_some());
        let params = random_params(rng, targets);
        let r = check(&mut d, &format!("{case:04} ({form})"), &net, &params);
        case += 1;
        degraded += u32::from(r.is_ok_and(|text| !text.contains(" degraded=0\n")));
    });
    eprintln!("{CASES} random networks: {shared} repeat a function, {degraded} degraded");
    assert!(
        shared > CASES / 4,
        "too few cases repeat a function: {shared}"
    );
    d.check();
}

/// Networks the flow already optimized, whose node names have the
/// stitch's fresh-name form `bds_<n>`. The flow reserves given names
/// before it emits, so it must succeed on them, alike at jobs 1 and 4,
/// with a network equivalent to its input.
#[test]
fn reoptimized_networks_match_the_reference() {
    let mut d = bds_prop::digests!("reoptimized");
    let mut case = 0u32;
    check_cases(
        "re-optimized networks match their digests",
        CASES / 4,
        |rng| {
            let logic = RandomLogicParams {
                inputs: rng.range_usize(3..25),
                outputs: rng.range_usize(1..9),
                nodes: rng.range_usize(2..81),
                max_fanin: rng.range_usize(2..6),
                max_cubes: rng.range_usize(1..6),
            };
            let seed = rng.next_u64();
            let raw = random_logic(&logic, seed);
            let (once, _) = bds_repro::core::flow::optimize(&raw, &base()).expect("optimizes");
            for (form, net) in partitioned_inputs(&once) {
                let name = format!("{case:04} ({form})");
                let [one, four] = [1, 4].map(|jobs| {
                    outcome(optimize_partitioned(&net, &FlowParams { jobs, ..base() }))
                });
                assert!(one == four, "{name}: jobs=1 and jobs=4 differ");
                let (text, ops) = one;
                d.add(&name, format!("{text:?}"));
                d.add(format!("{name} ops"), ops);
                if let Err(e) = text {
                    panic!("{name}: {e}");
                }
                let (out, _) = optimize_partitioned(&net, &base()).expect("succeeded above");
                assert_eq!(
                    verify(&net, &out, 4_000_000).expect("verifies"),
                    Verdict::Equivalent,
                    "{name}"
                );
            }
            case += 1;
        },
    );
    d.check();
}

/// One random governance setting: a budget (two draws in three) or a
/// fault plan aimed at a shared item when there is one.
fn random_params(rng: &mut Rng, targets: Option<[usize; 2]>) -> FlowParams {
    let mut p = base();
    match rng.range_usize(0..3) {
        0 | 1 => {
            p.govern.supernode_budget = *rng.choose(&[0, 40, 60, 120, 300]);
            p.govern.sop_cube_limit = rng.range_usize(0..5);
        }
        _ => {
            let target = match targets {
                Some(t) => *rng.choose(&t),
                None => rng.range_usize(0..20),
            };
            let fault = *rng.choose(&[Fault::Budget, Fault::Alloc, Fault::Panic]);
            p = faulted(target, fault, rng.range_u64(0..80));
        }
    }
    p
}

/// Every degraded supernode — not only the ones whose group was
/// decomposed — is tallied by the `flow.degrade.*` counters, so their sum
/// equals `FlowReport::degraded` at any `jobs`. Without `--features
/// trace` the counters are empty and this checks nothing.
#[test]
fn degrade_counters_count_every_supernode() {
    let [_, (_, net)] = partitioned_inputs(&carry_select_adder(16, 4));
    assert!(shared_targets(&net).is_some(), "csel16 repeats a function");
    let mut params = base();
    params.govern.supernode_budget = 60;
    params.govern.sop_cube_limit = 2;
    for jobs in [1, 4] {
        bds_trace::reset();
        let (_, report) = optimize_partitioned(
            &net,
            &FlowParams {
                jobs,
                ..params.clone()
            },
        )
        .expect("degrades instead of failing");
        let snap = bds_trace::take();
        assert!(
            report.degraded > 0,
            "a 60-tick budget must force the ladder"
        );
        if bds_trace::is_enabled() {
            let counted: u64 = ["noreorder", "sop", "verbatim"]
                .iter()
                .filter_map(|rung| snap.counter(&format!("flow.degrade.{rung}")))
                .sum();
            assert_eq!(
                counted, report.degraded as u64,
                "jobs={jobs}: degrade counters disagree with the report"
            );
        }
    }
}
