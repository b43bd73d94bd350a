//! Regenerates the **in-text summary results** of §V for small/medium
//! circuits (the paper's reference \[32\] numbers):
//!
//! * AND/OR-intensive (random logic) class — paper: BDS ≈4% fewer gates,
//!   ~5% more area, ~37% less CPU than SIS;
//! * XOR-intensive / arithmetic class — paper: BDS −40% literals,
//!   −23% gates, −12% area, −84% CPU.
//!
//! Also reports the XOR-cell preservation rate the paper attributes to
//! the tree mapper ("only 33% of XORs were preserved").
//!
//! Usage: `cargo run --release --bin summary [-- --json <path>]
//! [--trace-tree]`. To compare two runs field by field, write each with
//! `--json` and diff the files; only `seconds` and span times move
//! between runs of the same code.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::sis_flow::SisParams;
use bds_circuits::adder::{carry_select_adder, ripple_adder};
use bds_circuits::comparator::comparator;
use bds_circuits::ecc::hamming_encoder;
use bds_circuits::misc::{carry_lookahead_adder, gray_to_bin, popcount};
use bds_circuits::multiplier::multiplier;
use bds_circuits::parity::{parity_chain, parity_tree};
use bds_circuits::random_logic::{random_logic, RandomLogicParams};
use bds_network::Network;

use crate::harness::{geomean, live_line, print_rows, run_both, Row};
use crate::report::{finish_rows, parse_args, Extras};

fn class_summary(title: &str, rows: &[Row], paper_claim: &str) {
    print_rows(title, rows);
    let gates = geomean(rows.iter().map(|r| r.bds.gates as f64 / r.sis.gates as f64));
    let area = geomean(rows.iter().map(|r| r.bds.area / r.sis.area));
    let lits = geomean(
        rows.iter()
            .map(|r| r.bds.literals as f64 / r.sis.literals as f64),
    );
    let cpu = geomean(rows.iter().map(|r| r.bds.seconds / r.sis.seconds));
    println!("geo-mean BDS/SIS ratios:");
    println!(
        "  gates {:.2}  area {:.2}  literals {:.2}  cpu {:.2}",
        gates, area, lits, cpu
    );
    println!("paper reports: {paper_claim}");
    println!();
}

/// Entry point (called by the root `summary` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("summary", Extras::ALL) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let flow = args.flow_params();
    let sis = SisParams::default();
    let run = |name: String, net: &Network| {
        let row = run_both(name, "-", net, &flow, &sis);
        if args.live {
            eprintln!("{}", live_line(&row));
        }
        row
    };

    // S1: AND/OR-intensive random logic (10 seeded instances).
    let mut ctrl_rows = Vec::new();
    for seed in 0..10u64 {
        let net = random_logic(
            &RandomLogicParams {
                inputs: 14,
                outputs: 8,
                nodes: 45,
                ..Default::default()
            },
            1000 + seed,
        );
        ctrl_rows.push(run(format!("rand{seed}"), &net));
    }
    class_summary(
        "S1 — AND/OR-intensive (random logic) class",
        &ctrl_rows,
        "≈4% fewer gates, ~5% more area, ~37% less CPU (BDS vs SIS)",
    );

    // S2: XOR-intensive / arithmetic class.
    let arith: Vec<(String, Network)> = vec![
        ("add8".into(), ripple_adder(8)),
        ("add16".into(), ripple_adder(16)),
        ("csel8".into(), carry_select_adder(8, 2)),
        ("parity12".into(), parity_tree(12)),
        ("paritych12".into(), parity_chain(12)),
        ("cmp8".into(), comparator(8)),
        ("ecc16".into(), hamming_encoder(16)),
        ("m4x4".into(), multiplier(4, 4)),
        ("cla8".into(), carry_lookahead_adder(8)),
        ("popcount9".into(), popcount(9)),
        ("g2b10".into(), gray_to_bin(10)),
    ];
    let arith_rows: Vec<Row> = arith.iter().map(|(n, net)| run(n.clone(), net)).collect();
    class_summary(
        "S2 — XOR-intensive / arithmetic class",
        &arith_rows,
        "−40% literals, −23% gates, −12% area, −84% CPU (BDS vs SIS)",
    );

    // XOR preservation through the tree mapper.
    let total_bds_xors: usize = arith_rows.iter().map(|r| r.bds.xor_cells).sum();
    let total_sis_xors: usize = arith_rows.iter().map(|r| r.sis.xor_cells).sum();
    println!(
        "mapped XOR/XNOR cells on the arithmetic class: BDS {total_bds_xors}, baseline {total_sis_xors}"
    );
    println!("(paper: the tree mapper preserved only ~33% of the XORs BDS exposed)");
    println!();

    let rows: Vec<Row> = ctrl_rows.into_iter().chain(arith_rows).collect();
    if let Err(code) = finish_rows(&args, "summary", &rows) {
        return code;
    }
    ExitCode::SUCCESS
}
