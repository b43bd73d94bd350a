//! Quality-side ablation study for the design choices listed in
//! DESIGN.md §2: decomposition method priority, XNOR detection, MUX
//! detection, dominator balancing and the flat two-level comparison.
//!
//! For each variant the full BDS flow runs on a mixed suite and the
//! mapped area / gate count / CPU are reported. The CPU column is one
//! run; repeated, alternated timing is the stand-alone `flowbench/`
//! package's job.
//!
//! Usage: `cargo run --release --bin ablation [-- --json <path>]`

#![expect(clippy::expect_used, reason = "setup aborts loudly on broken fixtures")]
#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::decompose::{DecomposeParams, Method};
use bds::flow::{optimize, optimize_global, FlowParams};
use bds::sdc::{sdc_simplify, SdcParams};
use bds_circuits::adder::ripple_adder;
use bds_circuits::alu::alu;
use bds_circuits::comparator::comparator;
use bds_circuits::parity::parity_tree;
use bds_circuits::random_logic::{random_logic, RandomLogicParams};
use bds_map::{map_network, Library};
use bds_network::Network;
use bds_trace::json::Json;

use crate::report::{envelope, parse_args, write_json, Extras};

fn variants() -> Vec<(&'static str, DecomposeParams)> {
    let base = DecomposeParams::default();
    let mut no_xnor = base.clone();
    no_xnor.priority = vec![
        Method::SimpleDominators,
        Method::FunctionalMux,
        Method::GeneralizedDominator,
    ];
    let mut no_mux = base.clone();
    no_mux.priority = vec![
        Method::SimpleDominators,
        Method::GeneralizedDominator,
        Method::GeneralizedXDominator,
    ];
    let mut shannon_only = base.clone();
    shannon_only.priority = Vec::new();
    let mut reversed = base.clone();
    reversed.priority.reverse();
    let mut deepest = base.clone();
    deepest.balance_dominators = false;
    let mut no_flat = base.clone();
    no_flat.flat_compare_support = 0;
    vec![
        ("paper", base.clone()),
        ("paper+sdc", base),
        ("no-xnor", no_xnor),
        ("no-mux", no_mux),
        ("shannon-only", shannon_only),
        ("reversed", reversed),
        ("deepest-dom", deepest),
        ("no-flat-cmp", no_flat),
    ]
}

fn suite() -> Vec<(&'static str, Network)> {
    vec![
        ("parity16", parity_tree(16)),
        ("add8", ripple_adder(8)),
        ("alu4", alu(4)),
        ("cmp8", comparator(8)),
        (
            "rand12",
            random_logic(
                &RandomLogicParams {
                    inputs: 12,
                    outputs: 6,
                    nodes: 40,
                    ..Default::default()
                },
                5,
            ),
        ),
    ]
}

/// Entry point (called by the root `ablation` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("ablation", Extras::NONE) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let lib = Library::mcnc();
    let suite = suite();
    let mut entries: Vec<Json> = Vec::new();
    println!(
        "{:<14} | {:>10} {:>8} {:>9} | per-circuit gate counts",
        "variant", "area", "gates", "cpu[s]"
    );
    for (name, dparams) in variants() {
        let params = FlowParams {
            decompose: dparams,
            ..args.flow_params()
        };
        let mut area = 0.0;
        let mut gates = 0usize;
        let mut cpu = 0.0;
        let mut per = Vec::new();
        let mut per_json = Vec::new();
        for (cname, net) in &suite {
            // Force global mode where possible so variant differences are
            // not masked by the flow portfolio; fall back otherwise.
            let mut swept = net.compacted().expect("compact");
            swept.sweep().expect("sweep");
            let (mut out, rep) = optimize_global(&swept, &params)
                .or_else(|_| optimize(net, &params))
                .expect("flow");
            if name == "paper+sdc" {
                if let Err(err) = sdc_simplify(&mut out, &SdcParams::default()) {
                    eprintln!("ablation: sdc_simplify failed on {cname}: {err}");
                    return ExitCode::FAILURE;
                }
                out.sweep().expect("sweep");
                out = out.compacted().expect("compact");
            }
            let m = map_network(&out, &lib).expect("map");
            area += m.area;
            gates += m.gate_count;
            cpu += rep.seconds;
            per.push(format!("{cname}={}", m.gate_count));
            per_json.push(((*cname).to_string(), Json::Int(m.gate_count as u64)));
        }
        println!(
            "{:<14} | {:>10.0} {:>8} {:>9.3} | {}",
            name,
            area,
            gates,
            cpu,
            per.join(" ")
        );
        entries.push(Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            ("area".into(), Json::Num(area)),
            ("gates".into(), Json::Int(gates as u64)),
            ("cpu_s".into(), Json::Num(cpu)),
            ("gates_per_circuit".into(), Json::Obj(per_json)),
        ]));
    }
    println!();
    println!("expected shape: the paper priority is on the area frontier; removing");
    println!("XNOR hurts parity/adders; shannon-only inflates everything; the flat");
    println!("comparison mostly protects small control nodes.");
    if let Some(path) = &args.json {
        let doc = envelope("ablation", args.effective_jobs(), entries);
        if let Err(err) = write_json(path, &doc) {
            eprintln!("ablation: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("ablation: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
