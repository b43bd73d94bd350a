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
//! [--compare <report.json>] [--trace-tree]` — `--compare` diffs the
//! current run against an earlier `--json` report (any bench), matching
//! circuits by name through the hand-rolled [`bds_trace::json`] parser.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::path::Path;
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
use bds_trace::json::{parse, Json};

use bds_trace::gate::compare_reports;

use crate::harness::{geomean, live_line, print_rows, run_both, Row};
use crate::report::{envelope, finish_rows, parse_args, row_json};

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

/// One prior-run circuit entry pulled from a `--json` report.
struct Baseline {
    name: String,
    gates: u64,
    area: f64,
}

fn load_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse(&text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("bds-trace-report/v1") => {}
        other => return Err(format!("unsupported report schema {other:?}")),
    }
    Ok(doc)
}

fn load_baselines(doc: &Json) -> Result<Vec<Baseline>, String> {
    let circuits = doc
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("report has no circuits array")?;
    let mut out = Vec::new();
    for c in circuits {
        let (Some(name), Some(bds)) = (c.get("name").and_then(Json::as_str), c.get("bds")) else {
            continue;
        };
        let (Some(gates), Some(area)) = (
            bds.get("gates").and_then(Json::as_u64),
            bds.get("area").and_then(Json::as_f64),
        ) else {
            continue;
        };
        out.push(Baseline {
            name: name.to_string(),
            gates,
            area,
        });
    }
    Ok(out)
}

fn print_comparison(path: &Path, baselines: &[Baseline], rows: &[Row]) {
    println!("comparison against {}:", path.display());
    let mut matched = 0usize;
    for row in rows {
        let Some(base) = baselines.iter().find(|b| b.name == row.name) else {
            continue;
        };
        matched += 1;
        let dg = row.bds.gates as i64 - base.gates as i64;
        let da = row.bds.area - base.area;
        println!(
            "  {:<12} gates {:>4} ({:+}) area {:>8.1} ({:+.1})",
            row.name, row.bds.gates, dg, row.bds.area, da
        );
    }
    if matched == 0 {
        println!("  (no circuit names in common with the baseline report)");
    }
    println!();
}

/// Entry point (called by the root `summary` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("summary", true) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let baseline_doc = match &args.compare {
        Some(path) => match load_report(path) {
            Ok(doc) => Some(doc),
            Err(err) => {
                eprintln!("summary: cannot load {}: {err}", path.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let baselines = match &baseline_doc {
        Some(doc) => match load_baselines(doc) {
            Ok(baselines) => Some(baselines),
            Err(err) => {
                eprintln!("summary: bad baseline report: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
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
    if let (Some(path), Some(baselines)) = (&args.compare, &baselines) {
        print_comparison(path, baselines, &rows);
    }
    if let Err(code) = finish_rows(&args, "summary", &rows) {
        return code;
    }
    // Structural gate: the same exact comparison as `cargo xtask
    // perfgate`. Any gated field that moved fails the run, so CI and
    // scripts can rely on the exit code, not just the printed diff.
    if let Some(doc) = &baseline_doc {
        let fresh = envelope(
            "summary",
            args.effective_jobs(),
            rows.iter().map(row_json).collect(),
        );
        match compare_reports(doc, &fresh) {
            Ok(outcome) => {
                print!("{}", outcome.render());
                if !outcome.passed() {
                    return ExitCode::FAILURE;
                }
            }
            Err(err) => {
                eprintln!("summary: cannot gate against baseline: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
