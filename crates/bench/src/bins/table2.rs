//! Regenerates **Table II** of the paper: large arithmetic circuits —
//! barrel shifters `bshiftN` and array multipliers `mNxN` — comparing
//! gates/area/delay/CPU and the BDS-over-SIS speedup, which must grow
//! with circuit size (8× → 100×+ in the paper).
//!
//! Usage: `cargo run --release --bin table2 [-- --json <path>] [--trace-tree]`
//! Environment:
//! * `BDS_TABLE2_SHIFT_MAX` (default 128; 32 in debug builds) — largest
//!   barrel shifter width,
//! * `BDS_TABLE2_MULT_MAX` (default 16; 4 in debug builds) — largest
//!   multiplier operand width.
//!   The paper's full sizes (512 / 64×64) work but take correspondingly
//!   longer, dominated by the baseline — exactly the paper's point.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::sis_flow::SisParams;
use bds_circuits::multiplier::multiplier;
use bds_circuits::shifter::barrel_shifter;

use crate::harness::{print_rows, run_both, Row};
use crate::report::{finish_rows, parse_args};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Entry point (called by the root `table2` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("table2", false) {
        Ok(args) => args,
        Err(code) => return code,
    };
    // Debug builds stop at smoke-test sizes; release runs the table.
    let (shift_default, mult_default) = if cfg!(debug_assertions) {
        (32, 4)
    } else {
        (128, 16)
    };
    let shift_max = env_usize("BDS_TABLE2_SHIFT_MAX", shift_default);
    let mult_max = env_usize("BDS_TABLE2_MULT_MAX", mult_default);
    let flow = args.flow_params();
    let sis = SisParams::default();

    let mut rows: Vec<Row> = Vec::new();
    let mut w = 16;
    while w <= shift_max {
        let net = barrel_shifter(w);
        eprintln!("bshift{w} ({} nodes)…", net.stats().nodes);
        rows.push(run_both(format!("bshift{w}"), "-", &net, &flow, &sis));
        w *= 2;
    }
    let mut n = 2;
    while n <= mult_max {
        let net = multiplier(n, n);
        eprintln!("m{n}x{n} ({} nodes)…", net.stats().nodes);
        rows.push(run_both(format!("m{n}x{n}"), "-", &net, &flow, &sis));
        n *= 2;
    }
    print_rows("Table II reproduction — large arithmetic circuits", &rows);
    println!();
    println!("speedup trend (paper: grows with size, avg >100x at full scale):");
    for r in &rows {
        println!("  {:<10} speedup {:>8.1}x", r.name, r.speedup);
    }
    if let Err(code) = finish_rows(&args, "table2", &rows) {
        return code;
    }
    ExitCode::SUCCESS
}
