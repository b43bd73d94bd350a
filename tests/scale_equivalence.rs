//! Equivalence at scale: the partitioned flow on the scaling circuits
//! (mult16, bshift128, adder128) must produce networks equivalent to
//! their inputs, and the same BLIF at `jobs = 1` and `jobs = 4`. The
//! SIS-style `script_rugged` baseline must also produce networks
//! equivalent to its inputs on the same circuits. Both flows' outputs
//! must match the digests in `tests/digests/scale_equivalence.txt`.
//!
//! Equivalence follows the bench tables' rule,
//! `bds_network::verify::equivalence`: global-BDD `verify`, and random
//! simulation when the global BDDs do not fit (mult16's).
//!
//! CI also runs it in release with the auditors compiled in:
//! `cargo test --release --features strict-checks --test scale_equivalence`.

mod flow_digest;

use bds_repro::circuits::suites;
use bds_repro::core::flow::{optimize, FlowParams};
use bds_repro::core::sis_flow::{script_rugged, SisParams};
use bds_repro::network::verify::{equivalence, Verdict};
use bds_repro::network::{blif, Network};

fn params(jobs: usize) -> FlowParams {
    FlowParams {
        jobs,
        ..FlowParams::default()
    }
}

/// Which check proved the result, or a panic naming the output that
/// differs.
fn proven_by(name: &str, original: &Network, result: &Network) -> &'static str {
    match equivalence(original, result) {
        Ok((Verdict::Equivalent, how)) => how.label(),
        Ok((Verdict::Inequivalent { output }, how)) => {
            panic!("{name}: output `{output}` differs ({})", how.label())
        }
        Err(e) => panic!("{name}: cannot compare: {e}"),
    }
}

/// The circuit of [`suites::scale`] named `name`.
fn scale_circuit(name: &str) -> Network {
    let found = suites::scale().into_iter().find(|c| c.name == name);
    found.expect("a scale circuit").net
}

fn check_circuit(name: &str) {
    let net = &scale_circuit(name);
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
    check_circuit("mult16");
}

#[test]
fn bshift128_equivalent_and_jobs_invariant() {
    check_circuit("bshift128");
}

#[test]
fn adder128_equivalent_and_jobs_invariant() {
    check_circuit("adder128");
}

fn check_baseline(name: &str) {
    let net = &scale_circuit(name);
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
    check_baseline("mult16");
}

#[test]
fn bshift128_baseline_equivalent() {
    check_baseline("bshift128");
}

#[test]
fn adder128_baseline_equivalent() {
    check_baseline("adder128");
}
