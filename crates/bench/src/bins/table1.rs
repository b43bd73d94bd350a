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
use bds_circuits::suites::{self, Sizes};

use crate::harness::{live_line, print_rows, run_both, Row};
use crate::report::{finish_rows, parse_args, Extras};

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
    let sizes = if fast { Sizes::Fast } else { Sizes::Full };
    let flow = args.flow_params();
    let sis = SisParams::default();
    let rows: Vec<Row> = suites::table1(sizes)
        .into_iter()
        .map(|c| {
            eprintln!("running {} ({} nodes)…", c.name, c.net.stats().nodes);
            let row = run_both(c.name, c.stands_for, &c.net, &flow, &sis);
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
