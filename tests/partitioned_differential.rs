//! Differential test: `optimize_partitioned` (each distinct supernode
//! function decomposed once, every supernode stitched from its group's
//! artifact) against the loop it replaced (`tests/reference_partitioned`),
//! which decomposes every supernode afresh.
//!
//! Both must give byte-identical BLIF and equal `FlowReport` fields (all
//! but `seconds`), or the same error, at `jobs` 1 and 4. The networks are
//! the swept and eliminate-collapsed inputs `optimize` feeds the
//! partitioned flow, for the scaling circuits, flowbench's `global_bdd`
//! and `sis_rugged` circuits, and seeded random logic networks. Each runs
//! under default parameters, budgets tight enough to reach degradation
//! rungs 1–3, and fault plans aimed at a supernode whose function other
//! supernodes share.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test partitioned_differential -- --nocapture`.

mod reference_partitioned;

use std::sync::Once;

use bds_prop::{check_cases, Rng};
use bds_repro::bdd::Fault;
use bds_repro::circuits::adder::{carry_select_adder, ripple_adder};
use bds_repro::circuits::alu::alu;
use bds_repro::circuits::comparator::comparator;
use bds_repro::circuits::ecc::hamming_encoder;
use bds_repro::circuits::misc::{gray_to_bin, popcount};
use bds_repro::circuits::multiplier::multiplier;
use bds_repro::circuits::parity::parity_tree;
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::circuits::shifter::{barrel_shifter, logical_shifter};
use bds_repro::core::flow::{optimize_partitioned, FaultPlan, FlowParams, FlowReport};
use bds_repro::network::{blif, Network};

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
/// flow (and the reference) catch and turn into errors.
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

/// What one run is compared on: the BLIF and every structural report
/// field, or the error's text.
fn outcome(
    result: Result<(Network, FlowReport), impl std::fmt::Display>,
) -> Result<String, String> {
    match result {
        Ok((out, r)) => Ok(format!(
            "{:?} {:?} peak={} eliminated={} {:?} bytes={} degraded={}\n{}",
            r.mode,
            r.decompose,
            r.peak_bdd_nodes,
            r.eliminated,
            r.bdd_ops,
            r.peak_arena_bytes,
            r.degraded,
            blif::write(&out)
        )),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs the reference and the new flow at jobs 1 and 4 on `net`, asserts
/// they agree, and returns the reference's outcome.
fn check(name: &str, net: &Network, params: &FlowParams) -> Result<String, String> {
    let expected = outcome(reference_partitioned::optimize_partitioned(net, params));
    for jobs in [1, 4] {
        let got = outcome(optimize_partitioned(
            net,
            &FlowParams {
                jobs,
                ..params.clone()
            },
        ));
        assert!(
            got == expected,
            "{name} at jobs={jobs}: differs from the reference\n--- reference\n{expected:?}\n--- new\n{got:?}"
        );
    }
    expected
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

/// Budgets small enough that supernodes retreat to rungs 1, 2 and 3,
/// and a budget that fails instead of degrading.
fn governed() -> Vec<(&'static str, FlowParams)> {
    let mut budget300 = base();
    budget300.govern.supernode_budget = 300;
    let mut budget60 = base();
    budget60.govern.supernode_budget = 60;
    budget60.govern.sop_cube_limit = 2;
    let mut no_degrade = budget60.clone();
    no_degrade.govern.degrade = false;
    vec![
        ("default", base()),
        ("budget 300", budget300),
        ("budget 60, sop 2", budget60),
        ("budget 60, no degrade", no_degrade),
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

/// Items whose function another item shares: the first item of a group
/// with at least two members (with the fault there, the next member
/// leads), and that next member (the fault then lands inside the group).
fn shared_targets(net: &Network) -> Option<[usize; 2]> {
    let items = reference_partitioned::supernodes(&net.compacted().expect("compacts"));
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
fn check_all(name: &str, net: &Network, targets: &[usize]) -> (usize, usize) {
    let (mut degraded, mut failed) = (0, 0);
    let mut tally = |r: Result<String, String>| match r {
        Ok(text) if !text.contains(" degraded=0\n") => degraded += 1,
        Ok(_) => {}
        Err(_) => failed += 1,
    };
    for (label, params) in governed() {
        tally(check(&format!("{name} [{label}]"), net, &params));
    }
    for &target in targets {
        for &(fault, at_tick) in FAULTS {
            let label = format!("{name} [{fault:?} at tick {at_tick} on item {target}]");
            tally(check(&label, net, &faulted(target, fault, at_tick)));
        }
    }
    (degraded, failed)
}

#[test]
fn scaling_circuits_match_the_reference() {
    quiet_injected_panics();
    let suite = [
        ("mult16", multiplier(16, 16)),
        ("bshift128", barrel_shifter(128)),
        ("adder128", ripple_adder(128)),
    ];
    for (name, net) in &suite {
        for (form, input) in partitioned_inputs(net) {
            let name = format!("{name} ({form})");
            let targets = shared_targets(&input).expect("scaling circuits repeat functions");
            let (degraded, failed) = check_all(&name, &input, &targets);
            eprintln!("{name}: identical ({degraded} runs degraded, {failed} failed alike)");
            assert!(
                degraded > 0,
                "{name}: no run reached the degradation ladder"
            );
        }
    }
}

#[test]
fn flowbench_circuits_match_the_reference() {
    quiet_injected_panics();
    let rl = |inputs, outputs, nodes, seed| {
        let params = RandomLogicParams {
            inputs,
            outputs,
            nodes,
            ..RandomLogicParams::default()
        };
        random_logic(&params, seed)
    };
    // flowbench's `global_bdd` set, then its `sis_rugged` set.
    let suite = [
        ("bshift16", barrel_shifter(16)),
        ("bshift32", barrel_shifter(32)),
        ("alu8", alu(8)),
        ("alu12", alu(12)),
        ("parity32", parity_tree(32)),
        ("cmp24", comparator(24)),
        ("cmp32", comparator(32)),
        ("lshift32", logical_shifter(32)),
        ("popcount16", popcount(16)),
        ("gray2bin32", gray_to_bin(32)),
        ("ctrl36", rl(36, 7, 120, 42)),
        ("ecc32", hamming_encoder(32)),
        ("ecc26", hamming_encoder(26)),
        ("alu16", alu(16)),
        ("csel16", carry_select_adder(16, 4)),
        ("cmp16", comparator(16)),
        ("mult8", multiplier(8, 8)),
        ("ctrl20", rl(20, 12, 100, 7)),
        ("ctrl24", rl(24, 16, 120, 13)),
        ("shift32", barrel_shifter(32)),
        ("parity16", parity_tree(16)),
    ];
    for (name, net) in &suite {
        for (form, input) in partitioned_inputs(net) {
            let name = format!("{name} ({form})");
            let targets = shared_targets(&input).map_or(vec![0, 3], Vec::from);
            let (degraded, failed) = check_all(&name, &input, &targets);
            eprintln!("{name}: identical ({degraded} runs degraded, {failed} failed alike)");
        }
    }
}

#[test]
fn random_logic_matches_the_reference() {
    quiet_injected_panics();
    let (mut shared, mut degraded) = (0u32, 0u32);
    check_cases("optimize_partitioned matches the reference", CASES, |rng| {
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
        let r = check(
            &format!(
                "random {logic:?} seed {seed:#x} ({form}) {:?}",
                params.govern
            ),
            &net,
            &params,
        );
        degraded += u32::from(r.is_ok_and(|text| !text.contains(" degraded=0\n")));
    });
    eprintln!("{CASES} random networks identical: {shared} repeat a function, {degraded} degraded");
    assert!(
        shared > CASES / 4,
        "too few cases repeat a function: {shared}"
    );
}

/// One random governance setting: a budget (two draws in three) or a
/// fault plan aimed at a shared item when there is one.
fn random_params(rng: &mut Rng, targets: Option<[usize; 2]>) -> FlowParams {
    let mut p = base();
    match rng.range_usize(0..3) {
        0 | 1 => {
            p.govern.supernode_budget = *rng.choose(&[0, 40, 60, 120, 300]);
            p.govern.sop_cube_limit = rng.range_usize(0..5);
            p.govern.degrade = rng.ratio(0.8);
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
