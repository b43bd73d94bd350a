//! Equivalence at scale: the partitioned flow on the scaling circuits
//! (mult16, bshift128, adder128) must produce networks equivalent to
//! their inputs, and the same BLIF at `jobs = 1` and `jobs = 4`. The
//! SIS-style `script_rugged` baseline must also produce networks
//! equivalent to its inputs on the same circuits. Both flows' outputs
//! must match the digests in `tests/digests/scale_equivalence.txt`.
//!
//! Equivalence follows the rule of `bds_bench::harness` and flowbench:
//! global-BDD `verify` at 2,000,000 nodes, and when that cannot decide
//! (mult16's global BDDs do not fit), 512 rounds of random simulation
//! with seed `0xB5D5`.
//!
//! CI also runs it in release with the auditors compiled in:
//! `cargo test --release --features strict-checks --test scale_equivalence`.

mod flow_digest;

use bds_repro::circuits::adder::ripple_adder;
use bds_repro::circuits::multiplier::multiplier;
use bds_repro::circuits::shifter::barrel_shifter;
use bds_repro::core::flow::{optimize, FlowParams};
use bds_repro::core::sis_flow::{script_rugged, SisParams};
use bds_repro::network::verify::{verify, verify_by_simulation, Verdict};
use bds_repro::network::{blif, Network};

fn params(jobs: usize) -> FlowParams {
    FlowParams {
        jobs,
        ..FlowParams::default()
    }
}

/// `bds_bench::harness`'s rule: which check proved the result, or a
/// panic naming the output that differs.
fn proven_by(name: &str, original: &Network, result: &Network) -> &'static str {
    match verify(original, result, 2_000_000) {
        Ok(Verdict::Equivalent) => "bdd",
        Ok(Verdict::Inequivalent { output }) => panic!("{name}: output `{output}` differs"),
        Err(_) => match verify_by_simulation(original, result, 512, 0xB5D5) {
            Ok(Verdict::Equivalent) => "sim",
            Ok(Verdict::Inequivalent { output }) => {
                panic!("{name}: simulation refutes output `{output}`")
            }
            Err(e) => panic!("{name}: simulation failed: {e}"),
        },
    }
}

fn check_circuit(name: &str, net: &Network) {
    let (one, one_report) = optimize(net, &params(1)).expect("jobs=1 flow succeeds");
    let (four, four_report) = optimize(net, &params(4)).expect("jobs=4 flow succeeds");
    assert_eq!(
        blif::write(&one),
        blif::write(&four),
        "{name}: jobs=1 and jobs=4 BLIF differ"
    );
    one.check_invariants()
        .expect("optimized network is well formed");
    let how = proven_by(name, net, &one);
    eprintln!("{name}: equivalent ({how}), jobs=1 == jobs=4");
    let mut d = bds_prop::digests!(name);
    flow_digest::optimize(&mut d, "optimize jobs=1", &one, &one_report);
    flow_digest::optimize(&mut d, "optimize jobs=4", &four, &four_report);
    d.check();
}

#[test]
fn mult16_equivalent_and_jobs_invariant() {
    check_circuit("mult16", &multiplier(16, 16));
}

#[test]
fn bshift128_equivalent_and_jobs_invariant() {
    check_circuit("bshift128", &barrel_shifter(128));
}

#[test]
fn adder128_equivalent_and_jobs_invariant() {
    check_circuit("adder128", &ripple_adder(128));
}

fn check_baseline(name: &str, net: &Network) {
    let (out, report) = script_rugged(net, &SisParams::default()).expect("script_rugged succeeds");
    let mut d = bds_prop::digests!(&format!("{name} baseline"));
    flow_digest::script_rugged(&mut d, "script_rugged", &out, &report);
    out.check_invariants()
        .expect("baseline network is well formed");
    let how = proven_by(name, net, &out);
    eprintln!("{name}: script_rugged equivalent ({how})");
    d.check();
}

#[test]
fn mult16_baseline_equivalent() {
    check_baseline("mult16", &multiplier(16, 16));
}

#[test]
fn bshift128_baseline_equivalent() {
    check_baseline("bshift128", &barrel_shifter(128));
}

#[test]
fn adder128_baseline_equivalent() {
    check_baseline("adder128", &ripple_adder(128));
}
