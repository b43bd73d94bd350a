//! FPGA experiment (paper §VI, future work 4 / the BDS-pga claim):
//! "over 30% improvement in the LUT count" when BDS feeds LUT mapping.
//!
//! Maps both flows' outputs onto K-LUTs and reports the LUT-count ratio.
//!
//! Usage: `cargo run --release --bin fpga [-- --json <path>]`

#![expect(clippy::expect_used, reason = "setup aborts loudly on broken fixtures")]
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::flow::optimize;
use bds::sis_flow::{script_rugged, SisParams};
use bds_circuits::adder::ripple_adder;
use bds_circuits::alu::alu;
use bds_circuits::comparator::comparator;
use bds_circuits::ecc::hamming_encoder;
use bds_circuits::multiplier::multiplier;
use bds_circuits::parity::parity_tree;
use bds_circuits::shifter::barrel_shifter;
use bds_circuits::suites::random_control;
use bds_map::map_network_luts;
use bds_network::Network;
use bds_trace::json::Json;

use crate::harness::geomean;
use crate::report::{envelope, parse_args, write_json, Extras};

/// Entry point (called by the root `fpga` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("fpga", Extras::NONE) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let flow = args.flow_params();
    let suite: Vec<(&str, Network)> = vec![
        ("parity16", parity_tree(16)),
        ("add12", ripple_adder(12)),
        ("ecc16", hamming_encoder(16)),
        ("alu8", alu(8)),
        ("cmp12", comparator(12)),
        ("m4x4", multiplier(4, 4)),
        ("bshift16", barrel_shifter(16)),
        ("rand14", random_control(14, 8, 45, 77)),
    ];
    let mut entries: Vec<Json> = Vec::new();
    for k in [4usize, 5] {
        println!("== K = {k} LUT mapping ==");
        println!(
            "{:<10} {:>9} {:>9} {:>8} | {:>9} {:>9}",
            "circuit", "sis-luts", "bds-luts", "ratio", "sis-depth", "bds-depth"
        );
        let mut ratios = Vec::new();
        for (name, net) in &suite {
            let (sis_net, _) = script_rugged(net, &SisParams::default()).expect("baseline");
            let (bds_net, _) = optimize(net, &flow).expect("bds");
            let s = map_network_luts(&sis_net, k).expect("lut map");
            let b = map_network_luts(&bds_net, k).expect("lut map");
            let ratio = b.luts as f64 / s.luts as f64;
            ratios.push(ratio);
            println!(
                "{:<10} {:>9} {:>9} {:>8.2} | {:>9} {:>9}",
                name, s.luts, b.luts, ratio, s.depth, b.depth
            );
            entries.push(Json::Obj(vec![
                ("name".into(), Json::Str((*name).into())),
                ("k".into(), Json::Int(k as u64)),
                ("sis_luts".into(), Json::Int(s.luts as u64)),
                ("bds_luts".into(), Json::Int(b.luts as u64)),
                ("ratio".into(), Json::Num(ratio)),
                ("sis_depth".into(), Json::Int(s.depth as u64)),
                ("bds_depth".into(), Json::Int(b.depth as u64)),
            ]));
        }
        println!(
            "geo-mean BDS/SIS LUT ratio: {:.2}  (paper/BDS-pga: ≈0.70, i.e. 30% fewer LUTs)\n",
            geomean(ratios.into_iter())
        );
    }
    if let Some(path) = &args.json {
        let doc = envelope("fpga", args.effective_jobs(), entries);
        if let Err(err) = write_json(path, &doc) {
            eprintln!("fpga: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("fpga: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
