//! `Network::eliminate` pinned by digests: the eliminated count and
//! the BLIF must be those recorded in
//! `tests/digests/eliminate_differential.txt` on the scaling circuits,
//! the `sis_rugged` circuits under both costs, and seeded random logic
//! networks under random `EliminateParams`. The baseline was recorded
//! while a frozen copy of the loop `eliminate` replaced (which re-tried
//! every candidate and built a cover per fanout) still agreed with it.
//!
//! CI also runs it in release, where the random set is larger:
//! `cargo test --release --features strict-checks --test eliminate_differential -- --nocapture`.

use bds_prop::digest::Digests;
use bds_prop::{check_cases, Rng};
use bds_repro::circuits::random_logic::{random_logic, RandomLogicParams};
use bds_repro::circuits::suites::{self, Sizes};
use bds_repro::core::sis_flow::SisParams;
use bds_repro::network::{blif, EliminateCost, EliminateParams, Network};

/// Random networks; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 20 } else { 300 };

/// Runs `eliminate` on a copy of `net`, digests the count and the BLIF
/// under `name`, and returns the count.
fn check(d: &mut Digests, name: &str, net: &Network, params: &EliminateParams) -> usize {
    let mut out = net.clone();
    let eliminated = out.eliminate(params).expect("eliminate succeeds");
    d.add(
        name,
        format!("eliminated={eliminated}\n{}", blif::write(&out)),
    );
    eliminated
}

/// The network `eliminate` sees inside both flows: compacted and swept.
fn prologue(net: &Network) -> Network {
    let mut work = net.compacted().expect("compacts");
    work.sweep().expect("sweeps");
    work
}

#[test]
fn scaling_circuits_match_the_reference() {
    let mut d = bds_prop::digests!("scaling");
    for c in suites::scale() {
        let name = &c.name;
        let n = check(&mut d, name, &prologue(&c.net), &EliminateParams::default());
        eprintln!("{name}: {n} eliminated");
    }
    d.check();
}

#[test]
fn sis_rugged_circuits_match_the_reference() {
    // flowbench's `sis_rugged` set (Table I at full size), under the
    // baseline's literal cost and under the BDS node cost.
    let literals = SisParams::default().eliminate;
    assert_eq!(literals.cost, EliminateCost::Literals);
    let mut d = bds_prop::digests!("sis_rugged");
    for c in suites::table1(Sizes::Full) {
        let (name, work) = (&c.name, prologue(&c.net));
        let lits = check(&mut d, &format!("{name} (literals)"), &work, &literals);
        let nodes = check(
            &mut d,
            &format!("{name} (BDD nodes)"),
            &work,
            &EliminateParams::default(),
        );
        eprintln!("{name}: {lits} eliminated by literals, {nodes} by BDD nodes");
    }
    d.check();
}

/// A candidate rejected in one pass gains a fanout when the node it
/// feeds is collapsed in a later pass, and is then accepted. Skipping it
/// because only the rewritten node's old fanins were re-examined changes
/// the result here; random cases of the usual size rarely reach this.
#[test]
fn candidate_gaining_a_fanout_is_tried_again() {
    let logic = RandomLogicParams {
        inputs: 9,
        outputs: 1,
        nodes: 22,
        max_fanin: 5,
        max_cubes: 5,
    };
    let params = EliminateParams {
        cost: EliminateCost::BddNodes,
        max_local_bdd: 60,
        growth_allowance: 3,
        max_support: 27,
        max_fanout: 6,
        max_passes: 5,
    };
    let raw = random_logic(&logic, 0x43ff_6489_d677_9be0);
    let mut d = bds_prop::digests!("gaining_a_fanout");
    check(&mut d, "raw", &raw, &params);
    check(&mut d, "swept", &prologue(&raw), &params);
    d.check();
}

/// Random `EliminateParams` across both cost models, with caps small
/// enough to reject on support, fanout, local BDD size and pass count.
fn random_params(rng: &mut Rng) -> EliminateParams {
    EliminateParams {
        cost: *rng.choose(&[EliminateCost::BddNodes, EliminateCost::Literals]),
        max_local_bdd: *rng.choose(&[1, 3, 6, 12, 24, 60, 600]),
        growth_allowance: rng.range_usize(0..11) as isize - 2,
        max_support: rng.range_usize(2..29),
        max_fanout: rng.range_usize(1..7),
        max_passes: rng.range_usize(1..9),
    }
}

#[test]
fn random_logic_matches_the_reference() {
    let mut eliminating = 0u32;
    let mut d = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("eliminate matches its digests", CASES, |rng| {
        let logic = RandomLogicParams {
            inputs: rng.range_usize(3..41),
            outputs: rng.range_usize(1..17),
            nodes: rng.range_usize(2..161),
            max_fanin: rng.range_usize(2..7),
            max_cubes: rng.range_usize(1..7),
        };
        let seed = rng.next_u64();
        let raw = random_logic(&logic, seed);
        // Unswept networks keep buffers, constants and repeated fanins.
        let net = if rng.bool() { prologue(&raw) } else { raw };
        let params = random_params(rng);
        let n = check(&mut d, &format!("{case:04}"), &net, &params);
        case += 1;
        eliminating += u32::from(n > 0);
    });
    eprintln!("{CASES} random networks: {eliminating} with eliminations");
    assert!(
        eliminating > CASES / 4,
        "too few cases eliminate anything: {eliminating}"
    );
    d.check();
}
