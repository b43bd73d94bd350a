//! Regenerates **Table I** of the paper: BDS vs SIS on circuit-family
//! stand-ins for the LGSynth91/ISCAS'85 suite (area, delay, CPU, memory
//! proxy), mapped with the shared mcnc-style library.
//!
//! Usage: `cargo run --release --bin table1 [-- --json <path>] [--trace-tree]`
//! (set `BDS_TABLE1_FAST=1` to shrink the circuit sizes for smoke runs;
//! debug builds default to the fast set — override with `BDS_TABLE1_FULL=1`).

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::sis_flow::SisParams;
use bds_circuits::adder::carry_select_adder;
use bds_circuits::alu::alu;
use bds_circuits::comparator::comparator;
use bds_circuits::ecc::hamming_encoder;
use bds_circuits::multiplier::multiplier;
use bds_circuits::parity::parity_tree;
use bds_circuits::random_logic::{random_logic, RandomLogicParams};
use bds_circuits::shifter::barrel_shifter;
use bds_network::Network;

use crate::harness::{live_line, print_rows, run_both, Row};
use crate::report::{finish_rows, parse_args, Extras};

fn workloads(fast: bool) -> Vec<(String, &'static str, Network)> {
    let k = if fast { 1 } else { 2 };
    let rl = |inputs, outputs, nodes, seed| {
        random_logic(
            &RandomLogicParams {
                inputs,
                outputs,
                nodes,
                ..Default::default()
            },
            seed,
        )
    };
    vec![
        ("ctrl36".into(), "C432", rl(36, 7, 60 * k, 42)),
        ("ecc32".into(), "C499", hamming_encoder(32)),
        ("ecc26".into(), "C1355", hamming_encoder(26)),
        ("alu8".into(), "C880", alu(8)),
        ("alu16".into(), "C3540", alu(16)),
        ("csel16".into(), "pair", carry_select_adder(16, 4)),
        ("cmp16".into(), "rot", comparator(16)),
        ("mult8".into(), "C6288", multiplier(4 * k, 4 * k)),
        ("ctrl20".into(), "vda", rl(20, 12, 50 * k, 7)),
        ("ctrl24".into(), "dalu", rl(24, 16, 60 * k, 13)),
        (
            "shift32".into(),
            "-",
            barrel_shifter(if fast { 16 } else { 32 }),
        ),
        ("parity16".into(), "-", parity_tree(16)),
    ]
}

/// Entry point (called by the root `table1` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("table1", Extras::ALL) {
        Ok(args) => args,
        Err(code) => return code,
    };
    // Debug builds (the default `cargo run`) use the fast workload set;
    // an optimized table run is `cargo run --release --bin table1`.
    let fast = std::env::var("BDS_TABLE1_FAST").is_ok()
        || (cfg!(debug_assertions) && std::env::var("BDS_TABLE1_FULL").is_err());
    let flow = args.flow_params();
    let sis = SisParams::default();
    let rows: Vec<Row> = workloads(fast)
        .into_iter()
        .map(|(name, stands_for, net)| {
            eprintln!("running {name} ({} nodes)…", net.stats().nodes);
            let row = run_both(name, stands_for, &net, &flow, &sis);
            if args.live {
                eprintln!("{}", live_line(&row));
            }
            row
        })
        .collect();
    print_rows(
        "Table I reproduction — BDS vs SIS-style baseline (family stand-ins)",
        &rows,
    );
    println!();
    println!("memory proxy (paper: BDS uses ~82% less):");
    for r in &rows {
        println!(
            "  {:<12} sis-lits={:<8} bds-peak-bdd={:<8}",
            r.name, r.sis.mem_proxy, r.bds.mem_proxy
        );
    }
    if let Err(code) = finish_rows(&args, "table1", &rows) {
        return code;
    }
    ExitCode::SUCCESS
}
