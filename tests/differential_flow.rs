//! Differential-testing harness for the sharded flow: the parallel
//! partitioned flow must be a **pure scheduling change**. For every
//! circuit, running `optimize` with `jobs = 1` and `jobs = 4` must
//! (a) produce networks provably equivalent to the input, and
//! (b) produce byte-identical BLIF output and identical structural
//! report fields — networks, literal counts, decomposition statistics,
//! BDD operation counters, peak gauges. Only wall-clock fields may
//! differ. A separate determinism test runs the `jobs = 4`
//! configuration repeatedly and checks the merged trace counters too
//! (trivially empty unless built with `--features trace`). The outputs
//! at both `jobs` values, and those of `optimize` and `script_rugged` on
//! the Table I and Table II circuits, must match the digests in
//! `tests/digests/differential_flow.txt`.

mod flow_digest;

use bds_repro::circuits::adder::{carry_select_adder, ripple_adder};
use bds_repro::circuits::alu::alu;
use bds_repro::circuits::comparator::comparator;
use bds_repro::circuits::ecc::hamming_encoder;
use bds_repro::circuits::misc::{gray_to_bin, popcount};
use bds_repro::circuits::multiplier::multiplier;
use bds_repro::circuits::parity::{parity_chain, parity_tree};
use bds_repro::circuits::shifter::barrel_shifter;
use bds_repro::circuits::suites::{self, random_control, Circuit, Sizes};
use bds_repro::core::flow::{optimize, FlowParams, FlowReport};
use bds_repro::core::sis_flow::{script_rugged, SisParams};
use bds_repro::network::verify::{verify, Verdict};
use bds_repro::network::{blif, Network};
use bds_trace::{Snapshot, SpanSnap};

/// Flow parameters pinned to an explicit worker count — bypassing the
/// `BDS_FLOW_JOBS` environment default so the differential pairing is
/// what this file says it is, whatever the ambient configuration.
fn params(jobs: usize) -> FlowParams {
    let mut p = FlowParams {
        jobs,
        ..FlowParams::default()
    };
    // A generous but *finite* effort budget: the acceptance contract is
    // that merely configuring the governor (without tripping it) leaves
    // every benchmark on rung 0 with unchanged output.
    p.govern.supernode_budget = 200_000_000;
    p
}

/// The benchmark set: one representative of every generator family that
/// is cheap enough to run through the full flow portfolio repeatedly.
fn benchmark_suite() -> Vec<(String, Network)> {
    let mut suite: Vec<(String, Network)> = vec![
        ("add8".into(), ripple_adder(8)),
        ("csel8".into(), carry_select_adder(8, 2)),
        ("parity12".into(), parity_tree(12)),
        ("paritych10".into(), parity_chain(10)),
        ("cmp8".into(), comparator(8)),
        ("ecc16".into(), hamming_encoder(16)),
        ("m4x4".into(), multiplier(4, 4)),
        ("alu4".into(), alu(4)),
        ("bshift16".into(), barrel_shifter(16)),
        ("popcount9".into(), popcount(9)),
        ("g2b10".into(), gray_to_bin(10)),
    ];
    for seed in [7u64, 1003] {
        suite.push((format!("rand{seed}"), random_control(12, 6, 40, seed)));
    }
    suite
}

/// Asserts every structural (non-wall-clock) field of two flow reports
/// matches. `seconds` is deliberately ignored: it is the one field the
/// determinism contract exempts.
fn assert_reports_structurally_equal(name: &str, a: &FlowReport, b: &FlowReport) {
    assert_eq!(a.mode, b.mode, "{name}: mode diverged");
    assert_eq!(a.decompose, b.decompose, "{name}: decompose stats diverged");
    assert_eq!(a.bdd_ops, b.bdd_ops, "{name}: BDD op counters diverged");
    assert_eq!(
        a.peak_bdd_nodes, b.peak_bdd_nodes,
        "{name}: peak BDD nodes diverged"
    );
    assert_eq!(
        a.eliminated, b.eliminated,
        "{name}: eliminate count diverged"
    );
    assert_eq!(a.degraded, b.degraded, "{name}: degraded count diverged");
}

#[test]
fn jobs1_and_jobs4_agree_on_every_benchmark() {
    let mut d = bds_prop::digests!("benchmarks");
    for (name, net) in benchmark_suite() {
        let (seq_out, seq_report) = optimize(&net, &params(1))
            .unwrap_or_else(|e| panic!("{name}: sequential flow failed: {e}"));
        let (par_out, par_report) = optimize(&net, &params(4))
            .unwrap_or_else(|e| panic!("{name}: sharded flow failed: {e}"));

        // (a) Both results are provably equivalent to the input.
        assert_eq!(
            verify(&net, &seq_out, 4_000_000).unwrap(),
            Verdict::Equivalent,
            "{name}: sequential result must be equivalent"
        );
        assert_eq!(
            verify(&net, &par_out, 4_000_000).unwrap(),
            Verdict::Equivalent,
            "{name}: sharded result must be equivalent"
        );

        // (b) Structural identity: same network, same report numbers.
        let (ss, ps) = (seq_out.stats(), par_out.stats());
        assert_eq!(ss.literals, ps.literals, "{name}: literal counts diverged");
        assert_eq!(ss.nodes, ps.nodes, "{name}: node counts diverged");
        assert_eq!(
            blif::write(&seq_out),
            blif::write(&par_out),
            "{name}: BLIF output diverged between jobs=1 and jobs=4"
        );
        assert_reports_structurally_equal(&name, &seq_report, &par_report);
        flow_digest::optimize(&mut d, &format!("{name} jobs=1"), &seq_out, &seq_report);
        flow_digest::optimize(&mut d, &format!("{name} jobs=4"), &par_out, &par_report);
    }
    d.check();
}

/// Digests `optimize` at jobs 1 and 4 and `script_rugged` on each
/// circuit of `suite` under `group`, with the bench binaries' flow
/// parameters, so the digests pin what `table1` and `table2` publish.
fn digest_flows(group: &str, suite: &[Circuit]) {
    let mut d = bds_prop::digests!(group);
    for Circuit { name, net, .. } in suite {
        for jobs in [1, 4] {
            let params = FlowParams {
                jobs,
                ..FlowParams::default()
            };
            let (out, report) = optimize(net, &params)
                .unwrap_or_else(|e| panic!("{name}: flow failed at jobs={jobs}: {e}"));
            flow_digest::optimize(
                &mut d,
                &format!("{name} optimize jobs={jobs}"),
                &out,
                &report,
            );
        }
        let (out, report) = script_rugged(net, &SisParams::default())
            .unwrap_or_else(|e| panic!("{name}: script_rugged failed: {e}"));
        flow_digest::script_rugged(&mut d, &format!("{name} script_rugged"), &out, &report);
    }
    d.check();
}

/// Table I's circuits at the `table1` binary's full sizes.
#[test]
fn table1_circuits_keep_their_output() {
    digest_flows("table1", &suites::table1(Sizes::Full));
}

/// Table II's circuits at the `table2` binary's default sizes: barrel
/// shifters up to 128 bits and multipliers up to 16×16 in release
/// builds, 32 bits and 4×4 in debug builds.
#[test]
fn table2_circuits_keep_their_output() {
    let (shift_max, mult_max) = if cfg!(debug_assertions) {
        (32, 4)
    } else {
        (128, 16)
    };
    digest_flows("table2", &suites::table2(shift_max, mult_max));
}

#[test]
fn jobs_zero_auto_detect_matches_sequential() {
    let net = ripple_adder(8);
    let (seq_out, seq_report) = optimize(&net, &params(1)).unwrap();
    let (auto_out, auto_report) = optimize(&net, &params(0)).unwrap();
    assert_eq!(blif::write(&seq_out), blif::write(&auto_out));
    assert_reports_structurally_equal("add8/auto", &seq_report, &auto_report);
}

/// Flattens a span tree into `(path, calls)` pairs, dropping the
/// wall-time field — call counts must be deterministic, durations are
/// not.
fn span_calls(prefix: &str, spans: &[SpanSnap], out: &mut Vec<(String, u64)>) {
    for s in spans {
        let path = format!("{prefix}/{}", s.name);
        out.push((path.clone(), s.calls));
        span_calls(&path, &s.children, out);
    }
}

/// The deterministic projection of a snapshot: counters, gauges and
/// span call counts — everything except wall time.
fn structural_view(snap: &Snapshot) -> Vec<(String, u64)> {
    let mut view: Vec<(String, u64)> = Vec::new();
    for (name, v) in &snap.counters {
        view.push((format!("counter:{name}"), *v));
    }
    for (name, v) in &snap.gauges {
        view.push((format!("gauge:{name}"), *v));
    }
    let mut spans = Vec::new();
    span_calls("span", &snap.spans, &mut spans);
    view.extend(spans);
    view
}

#[test]
fn three_jobs4_runs_are_byte_identical() {
    let suite: Vec<(String, Network)> = vec![
        ("csel8".into(), carry_select_adder(8, 2)),
        ("ecc16".into(), hamming_encoder(16)),
        ("m4x4".into(), multiplier(4, 4)),
        ("bshift64".into(), barrel_shifter(64)),
    ];
    for (name, net) in suite {
        let mut blifs: Vec<String> = Vec::new();
        let mut traces: Vec<Vec<(String, u64)>> = Vec::new();
        for _ in 0..3 {
            bds_trace::reset();
            let (out, _) = optimize(&net, &params(4))
                .unwrap_or_else(|e| panic!("{name}: sharded flow failed: {e}"));
            traces.push(structural_view(&bds_trace::take()));
            blifs.push(blif::write(&out));
        }
        assert_eq!(
            blifs[0], blifs[1],
            "{name}: BLIF diverged between jobs=4 runs"
        );
        assert_eq!(
            blifs[1], blifs[2],
            "{name}: BLIF diverged between jobs=4 runs"
        );
        assert_eq!(
            traces[0], traces[1],
            "{name}: merged trace diverged between jobs=4 runs"
        );
        assert_eq!(
            traces[1], traces[2],
            "{name}: merged trace diverged between jobs=4 runs"
        );
    }
}

#[test]
fn jobs4_trace_counters_match_sequential() {
    // Counters, gauges and span call counts — not just the final
    // network — must be independent of the thread count: workers drain
    // their thread-local registries and the coordinator merges them in
    // fixed order. (Without `--features trace` both
    // snapshots are empty and this checks the no-op path stays a no-op
    // across threads.) bshift64 adds a circuit whose many supernodes
    // share a few decomposed leaders, so its per-item and per-leader
    // signals (DESIGN.md §9) differ widely.
    let mut suite = benchmark_suite();
    suite.push(("bshift64".into(), barrel_shifter(64)));
    for (name, net) in suite {
        bds_trace::reset();
        let _ = optimize(&net, &params(1)).unwrap();
        let seq = structural_view(&bds_trace::take());
        bds_trace::reset();
        let _ = optimize(&net, &params(4)).unwrap();
        let par = structural_view(&bds_trace::take());
        assert_eq!(
            seq, par,
            "{name}: trace structural view diverged with jobs=4"
        );
        if bds_trace::is_enabled() {
            assert!(
                seq.iter().any(|(k, _)| k == "counter:bdd.ite_calls"),
                "{name}: trace-enabled run should have recorded BDD counters"
            );
        }
    }
}
