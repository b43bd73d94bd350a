//! End-to-end integration: every generator family through the full BDS
//! flow with BDD-based equivalence checking, plus the algebraic baseline
//! on the same circuits.

use bds_repro::circuits::adder::{carry_select_adder, ripple_adder};
use bds_repro::circuits::alu::alu;
use bds_repro::circuits::comparator::comparator;
use bds_repro::circuits::ecc::hamming_encoder;
use bds_repro::circuits::misc::{
    bin_to_gray, carry_lookahead_adder, decoder, gray_to_bin, popcount, priority_encoder,
};
use bds_repro::circuits::multiplier::multiplier;
use bds_repro::circuits::parity::parity_tree;
use bds_repro::circuits::shifter::{barrel_shifter, logical_shifter};
use bds_repro::circuits::suites::random_control;
use bds_repro::core::flow::{optimize, optimize_global, FlowMode, FlowParams};
use bds_repro::core::sis_flow::{script_rugged, SisParams};
use bds_repro::network::verify::{verify, Verdict};
use bds_repro::network::Network;

fn assert_both_flows_sound(name: &str, net: &Network) {
    let (bds_out, _) = optimize(net, &FlowParams::default())
        .unwrap_or_else(|e| panic!("{name}: bds flow failed: {e}"));
    assert_eq!(
        verify(net, &bds_out, 4_000_000).unwrap(),
        Verdict::Equivalent,
        "{name}: BDS result must be equivalent"
    );
    let (sis_out, _) = script_rugged(net, &SisParams::default())
        .unwrap_or_else(|e| panic!("{name}: baseline flow failed: {e}"));
    assert_eq!(
        verify(net, &sis_out, 4_000_000).unwrap(),
        Verdict::Equivalent,
        "{name}: baseline result must be equivalent"
    );
}

#[test]
fn adders_survive_both_flows() {
    assert_both_flows_sound("add6", &ripple_adder(6));
    assert_both_flows_sound("csel8", &carry_select_adder(8, 2));
}

#[test]
fn multiplier_survives_both_flows() {
    assert_both_flows_sound("m4x4", &multiplier(4, 4));
}

#[test]
fn shifters_survive_both_flows() {
    assert_both_flows_sound("bshift16", &barrel_shifter(16));
    assert_both_flows_sound("lshift8", &logical_shifter(8));
}

#[test]
fn xor_classes_survive_both_flows() {
    assert_both_flows_sound("parity12", &parity_tree(12));
    assert_both_flows_sound("ecc16", &hamming_encoder(16));
    assert_both_flows_sound("cmp8", &comparator(8));
}

#[test]
fn alu_survives_both_flows() {
    assert_both_flows_sound("alu4", &alu(4));
}

#[test]
fn misc_families_survive_both_flows() {
    assert_both_flows_sound("cla6", &carry_lookahead_adder(6));
    assert_both_flows_sound("dec4", &decoder(4));
    assert_both_flows_sound("prio6", &priority_encoder(6));
    assert_both_flows_sound("popcount7", &popcount(7));
    assert_both_flows_sound("b2g6", &bin_to_gray(6));
    assert_both_flows_sound("g2b6", &gray_to_bin(6));
}

#[test]
fn random_logic_survives_both_flows() {
    for seed in [1u64, 2, 3] {
        let net = random_control(10, 5, 30, seed);
        assert_both_flows_sound(&format!("rand{seed}"), &net);
    }
}

/// The flow must never *increase* mapped area dramatically: the portfolio
/// keeps the structure-preserving candidate as a floor.
#[test]
fn flow_is_not_catastrophically_worse_than_input() {
    use bds_repro::map::{map_network, Library};
    let lib = Library::mcnc();
    for net in [multiplier(4, 4), barrel_shifter(16), ripple_adder(8)] {
        let before = map_network(&net, &lib).unwrap().area;
        let (out, _) = optimize(&net, &FlowParams::default()).unwrap();
        let after = map_network(&out, &lib).unwrap().area;
        assert!(
            after <= before * 1.25,
            "{}: area regressed {before} → {after}",
            net.name()
        );
    }
}

/// XOR-intensive circuits must not end up larger under BDS than under
/// the algebraic baseline — the headline claim of the paper. Compared on
/// mapped area (the paper's figure of merit), since raw literal counts
/// misprice XNOR covers.
#[test]
fn bds_beats_baseline_on_parity_area() {
    use bds_repro::map::{map_network, Library};
    let lib = Library::mcnc();
    let net = parity_tree(12);
    let (bds_out, _) = optimize(&net, &FlowParams::default()).unwrap();
    let (sis_out, _) = script_rugged(&net, &SisParams::default()).unwrap();
    let b = map_network(&bds_out, &lib).unwrap().area;
    let s = map_network(&sis_out, &lib).unwrap().area;
    assert!(
        b <= s * 1.02,
        "BDS (area {b}) must not lose to the algebraic baseline ({s}) on parity"
    );
}

/// `global_limit` budgets the global build only. Under the reversed
/// method priority, decomposing swept cmp32's sifted global BDDs grows
/// the manager past that limit, and the global flow must still succeed
/// rather than report the node limit as "global form infeasible".
#[test]
fn global_decomposition_is_not_bound_by_the_build_limit() {
    let net = comparator(32);
    let mut work = net.compacted().unwrap();
    work.sweep().unwrap();
    let mut params = FlowParams::default();
    params.decompose.priority.reverse();
    let (out, report) = optimize_global(&work, &params)
        .unwrap_or_else(|e| panic!("cmp32: global flow failed under the reversed priority: {e}"));
    assert_eq!(report.mode, FlowMode::Global);
    assert!(
        report.peak_bdd_nodes > params.global_limit,
        "cmp32 no longer outgrows the build limit ({} nodes); the test needs a larger case",
        report.peak_bdd_nodes
    );
    assert_eq!(
        verify(&net, &out, 4_000_000).unwrap(),
        Verdict::Equivalent,
        "cmp32: reversed-priority global result must be equivalent"
    );
}
