//! CPU-scaling series — the trend behind Table II rendered as data: one
//! CSV row per circuit size with both flows' runtimes, ready for
//! plotting. This is the closest thing the paper has to a results
//! "figure" (its figures are all worked examples), so the reproduction
//! ships the series explicitly.
//!
//! Usage: `cargo run --release --bin scaling [> scaling.csv]` — with
//! `-- --json <path>` the same series is also written as a report. The
//! trace views (`--folded`, `--trace-tree`) share the `table1` code
//! paths, so the scaling sweep can feed the same tooling. Env:
//! `BDS_SCALING_MAX_NODES` (default 2000) bounds the sweep; 30000 admits
//! the paper's sizes (bshift256/512, mult32/64).

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "experiment binaries report to the console by design"
)]

use std::process::ExitCode;

use bds::flow::{optimize, FlowParams};
use bds::sis_flow::{script_rugged, SisParams};
use bds_circuits::adder::ripple_adder;
use bds_circuits::multiplier::multiplier;
use bds_circuits::shifter::barrel_shifter;
use bds_network::Network;
use bds_trace::json::Json;
use bds_trace::Stopwatch;

use crate::report::{
    envelope, finish_observability, parse_args, write_json, Extras, ObservedCircuit,
};

/// One size point of the sweep: timings for the CSV plus the trace data
/// drained across the BDS flow, so the shared observability exports see
/// the same capture shape as the row-based binaries.
struct Point {
    name: String,
    sis: f64,
    bds: f64,
    trace: bds_trace::Snapshot,
}

fn time_flows(name: String, net: &Network, flow: &FlowParams) -> Result<Point, String> {
    let t0 = Stopwatch::start();
    script_rugged(net, &SisParams::default()).map_err(|e| format!("baseline flow failed: {e}"))?;
    let sis = t0.seconds();
    // Scope the trace window to the BDS flow alone, mirroring the
    // harness: the baseline above never pollutes the capture.
    bds_trace::reset();
    let t1 = Stopwatch::start();
    optimize(net, flow).map_err(|e| format!("bds flow failed: {e}"))?;
    let bds = t1.seconds();
    Ok(Point {
        name,
        sis,
        bds,
        trace: bds_trace::take(),
    })
}

type Family = (&'static str, Box<dyn Fn(usize) -> Network>, Vec<usize>);

/// Entry point (called by the root `scaling` bin shim).
#[must_use]
pub fn main() -> ExitCode {
    let args = match parse_args("scaling", Extras::VIEWS) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let flow = args.flow_params();
    let max_nodes: usize = std::env::var("BDS_SCALING_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);
    println!("family,size,nodes,sis_cpu_s,bds_cpu_s,speedup");
    let mut entries: Vec<Json> = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    let mut families: Vec<Family> = vec![
        (
            "bshift",
            Box::new(barrel_shifter),
            vec![8, 16, 32, 64, 128, 256, 512],
        ),
        (
            "mult",
            Box::new(|n| multiplier(n, n)),
            vec![2, 4, 8, 12, 16, 32, 64],
        ),
        ("adder", Box::new(ripple_adder), vec![8, 16, 32, 64, 128]),
    ];
    for (name, gen, sizes) in &mut families {
        for &size in sizes.iter() {
            let net = gen(size);
            let nodes = net.stats().nodes;
            if nodes > max_nodes {
                eprintln!("skipping {name}{size} ({nodes} nodes > cap)");
                continue;
            }
            let point = match time_flows(format!("{name}{size}"), &net, &flow) {
                Ok(p) => p,
                Err(err) => {
                    eprintln!("scaling: {name}{size}: {err}");
                    return ExitCode::FAILURE;
                }
            };
            let speedup = point.sis / point.bds.max(1e-9);
            println!(
                "{name},{size},{nodes},{:.4},{:.4},{speedup:.2}",
                point.sis, point.bds
            );
            entries.push(Json::Obj(vec![
                ("name".into(), Json::Str(point.name.clone())),
                ("family".into(), Json::Str((*name).into())),
                ("size".into(), Json::Int(size as u64)),
                ("nodes".into(), Json::Int(nodes as u64)),
                ("sis_cpu_s".into(), Json::Num(point.sis)),
                ("bds_cpu_s".into(), Json::Num(point.bds)),
                ("speedup".into(), Json::Num(speedup)),
            ]));
            points.push(point);
        }
    }
    if let Some(path) = &args.json {
        let doc = envelope("scaling", args.effective_jobs(), entries);
        if let Err(err) = write_json(path, &doc) {
            eprintln!("scaling: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("scaling: wrote {}", path.display());
    }
    let observed: Vec<ObservedCircuit<'_>> = points
        .iter()
        .map(|p| ObservedCircuit {
            name: &p.name,
            trace: &p.trace,
        })
        .collect();
    if finish_observability(&args, "scaling", &observed).is_err() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
