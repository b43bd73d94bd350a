//! `bds_opt` — the command-line face of the reproduction: optimize a
//! BLIF file like the original `bds` binary did.
//!
//! ```text
//! USAGE: bds_opt [OPTIONS] <input.blif>
//!   --sis           run the SIS-style algebraic baseline instead of BDS
//!   --sdc           enable satisfiability-don't-care simplification
//!   --verify        equivalence-check the result against the input
//!   --map           report mapped area/delay (built-in mcnc-like library)
//!   --genlib FILE   map with a genlib library file instead
//!   --luts K        report K-LUT mapping results
//!   --stats         print before/after statistics only (no BLIF output)
//!   -o FILE         write the optimized BLIF to FILE (default: stdout)
//! ```
//!
//! Example: `cargo run --release --bin bds_opt -- --verify --map circuit.blif`

use std::io::Write as _;
use std::process::ExitCode;

use bds_repro::core::flow::{optimize, FlowParams};
use bds_repro::core::sdc::{sdc_simplify, SdcParams};
use bds_repro::core::sis_flow::{script_rugged, SisParams};
use bds_repro::map::{map_network, map_network_luts, parse_genlib, Library};
use bds_repro::network::blif;
use bds_repro::network::verify::{verify, verify_by_simulation, Verdict};

struct Options {
    input: String,
    output: Option<String>,
    sis: bool,
    sdc: bool,
    verify: bool,
    map: bool,
    genlib: Option<String>,
    luts: Option<usize>,
    stats_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        output: None,
        sis: false,
        sdc: false,
        verify: false,
        map: false,
        genlib: None,
        luts: None,
        stats_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sis" => opts.sis = true,
            "--sdc" => opts.sdc = true,
            "--verify" => opts.verify = true,
            "--map" => opts.map = true,
            "--stats" => opts.stats_only = true,
            "--genlib" => {
                opts.genlib = Some(args.next().ok_or("--genlib requires a file")?);
                opts.map = true;
            }
            "--luts" => {
                let k = args.next().ok_or("--luts requires a number")?;
                opts.luts = Some(k.parse().map_err(|_| format!("bad LUT size `{k}`"))?);
            }
            "-o" => opts.output = Some(args.next().ok_or("-o requires a file")?),
            "-h" | "--help" => return Err("help".into()),
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_string();
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if opts.input.is_empty() {
        return Err("missing input file".into());
    }
    Ok(opts)
}

fn usage() {
    eprintln!(
        "usage: bds_opt [--sis] [--sdc] [--verify] [--map] [--genlib FILE] [--luts K] [--stats] [-o FILE] <input.blif>"
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(&opts.input)?;
    let net = blif::parse(&text)?;
    eprintln!("input:     {}", net.stats());

    let (result, label) = if opts.sis {
        let (out, report) = script_rugged(&net, &SisParams::default())?;
        eprintln!(
            "baseline:  {} ({} extracted, {} resubstituted, {:.3}s)",
            out.stats(),
            report.extracted,
            report.resubstituted,
            report.seconds
        );
        (out, "sis")
    } else {
        let (mut out, report) = optimize(&net, &FlowParams::default())?;
        if opts.sdc {
            sdc_simplify(&mut out, &SdcParams::default())?;
            out.sweep()?;
            out = out.compacted()?;
        }
        eprintln!(
            "bds:       {} ({:?} mode, {:.3}s, peak {} bdd nodes)",
            out.stats(),
            report.mode,
            report.seconds,
            report.peak_bdd_nodes
        );
        (out, "bds")
    };

    if opts.verify {
        let verdict = match verify(&net, &result, 4_000_000) {
            Ok(v) => v,
            Err(_) => {
                eprintln!("verify:    global BDDs too large — falling back to simulation");
                verify_by_simulation(&net, &result, 1024, 0xB5D5)?
            }
        };
        match verdict {
            Verdict::Equivalent => eprintln!("verify:    equivalent ✓"),
            Verdict::Inequivalent { output } => {
                return Err(format!("result differs from input on output `{output}`").into())
            }
        }
    }

    if opts.map {
        let lib = match &opts.genlib {
            Some(path) => parse_genlib(&std::fs::read_to_string(path)?)?,
            None => Library::mcnc(),
        };
        let mapped = map_network(&result, &lib)?;
        eprintln!(
            "mapped:    {} gates, area {:.1}, delay {:.2}",
            mapped.gate_count, mapped.area, mapped.delay
        );
    }
    if let Some(k) = opts.luts {
        let l = map_network_luts(&result, k)?;
        eprintln!("luts(k={k}): {} luts, depth {}", l.luts, l.depth);
    }

    if !opts.stats_only {
        let blif_text = blif::write(&result);
        match &opts.output {
            Some(path) => std::fs::write(path, blif_text)?,
            None => {
                std::io::stdout().write_all(blif_text.as_bytes())?;
            }
        }
        let _ = label;
    }
    Ok(())
}
