//! Machine-readable benchmark reports and shared CLI flags.
//!
//! Every bench binary accepts `--json <path>` (write a report); those
//! that print the two attribution views of the span tree also accept
//! `--trace-tree` (print it per circuit) and `--folded <path>` (write it
//! as flamegraph stacks). A flag a binary does not act on is a usage
//! error there ([`Extras`]).
//! Reports share one envelope, schema `bds-trace-report/v1`:
//!
//! ```json
//! {
//!   "schema": "bds-trace-report/v1",
//!   "bench": "table1",
//!   "trace_enabled": true,
//!   "circuits": [ { "name": "...", ... }, ... ]
//! }
//! ```
//!
//! Comparison rows ([`Row`]) serialize their flow report — decomposition
//! step counts, BDD operation counters with the computed-table hit rate —
//! plus the [`bds_trace::Snapshot`] captured across the BDS flow
//! (`trace`) and the one captured across the baseline (`sis_trace`),
//! whose span sections carry the per-phase wall times when the `trace`
//! feature is on. `cargo xtask perfgate` reads these files back through
//! [`bds_trace::json::parse`]; no serde anywhere.
//!
//! `--live` (`table1` and `summary`) streams a one-line summary per
//! circuit to stderr.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "CLI usage errors and trace trees go to the console by design"
)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bds_trace::json::Json;
use bds_trace::Snapshot;

use crate::harness::Row;

/// Flags shared by the bench binaries.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    /// Write a `bds-trace-report/v1` JSON report here.
    pub json: Option<PathBuf>,
    /// Print the aggregated span tree after the tables.
    pub trace_tree: bool,
    /// Write folded flamegraph stacks of the per-circuit span trees here
    /// (feed to `flamegraph.pl` or speedscope).
    pub folded: Option<PathBuf>,
    /// Worker threads for the BDS flow (`--jobs N`; `0` = one per
    /// core). `None` keeps [`bds::flow::FlowParams`]'s default, which
    /// honors the `BDS_FLOW_JOBS` environment variable.
    pub jobs: Option<usize>,
    /// Print a one-line progress summary per circuit to stderr as rows
    /// finish, so long runs show a heartbeat.
    pub live: bool,
}

impl BenchArgs {
    /// Flow parameters with the `--jobs` flag applied on top of the
    /// defaults. Sharding is a pure scheduling choice, so every
    /// structural number in a report is identical across `--jobs`
    /// settings — only wall-clock fields may move.
    #[must_use]
    pub fn flow_params(&self) -> bds::flow::FlowParams {
        let mut params = bds::flow::FlowParams::default();
        if let Some(jobs) = self.jobs {
            params.jobs = jobs;
        }
        params
    }

    /// The worker count reports should record: the `--jobs` flag, else
    /// the flow default (env-controlled).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.flow_params().jobs
    }
}

/// The flags a bench binary acts on besides `--json` and `--jobs`. The
/// others are unknown flags there, so none is accepted and ignored.
#[derive(Copy, Clone, Debug)]
pub struct Extras {
    /// `--trace-tree` and `--folded`: the binary prints the span-tree
    /// views.
    pub views: bool,
    /// `--live`: the binary prints a line per finished row.
    pub live: bool,
}

impl Extras {
    /// Neither (`ablation`, `fpga`).
    pub const NONE: Extras = Extras {
        views: false,
        live: false,
    };
    /// The span-tree views only (`scaling`, `table2`).
    pub const VIEWS: Extras = Extras {
        views: true,
        live: false,
    };
    /// The views and `--live` (`table1`, `summary`).
    pub const ALL: Extras = Extras {
        views: true,
        live: true,
    };
}

/// Parses `std::env::args` for a bench binary that acts on `extras`.
///
/// # Errors
/// Returns a nonzero [`ExitCode`] (after printing usage to stderr) on an
/// unknown flag or a missing flag argument.
pub fn parse_args(bench: &str, extras: Extras) -> Result<BenchArgs, ExitCode> {
    let mut out = BenchArgs::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => out.json = Some(PathBuf::from(path)),
                None => return Err(usage(bench, extras, "--json needs a path")),
            },
            "--trace-tree" if extras.views => out.trace_tree = true,
            "--folded" if extras.views => match args.next() {
                Some(path) => out.folded = Some(PathBuf::from(path)),
                None => return Err(usage(bench, extras, "--folded needs a path")),
            },
            "--jobs" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(jobs) => out.jobs = Some(jobs),
                None => return Err(usage(bench, extras, "--jobs needs a count")),
            },
            "--live" if extras.live => out.live = true,
            other => return Err(usage(bench, extras, &format!("unknown flag {other}"))),
        }
    }
    Ok(out)
}

fn usage(bench: &str, extras: Extras, problem: &str) -> ExitCode {
    eprintln!("{bench}: {problem}");
    let view_flags = if extras.views {
        " [--trace-tree] [--folded <path>]"
    } else {
        ""
    };
    let live_flag = if extras.live { " [--live]" } else { "" };
    eprintln!("usage: {bench} [--json <path>] [--jobs <n>]{view_flags}{live_flag}");
    ExitCode::from(2)
}

/// Wraps per-circuit entries in the common report envelope. `jobs`
/// records the flow worker count the run used, so scaling studies can
/// line up reports from `--jobs 1/2/4` by reading their envelopes.
#[must_use]
pub fn envelope(bench: &str, jobs: usize, circuits: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str("bds-trace-report/v1".into())),
        ("bench".into(), Json::Str(bench.into())),
        ("trace_enabled".into(), Json::Bool(bds_trace::is_enabled())),
        ("jobs".into(), Json::Int(jobs as u64)),
        ("circuits".into(), Json::Arr(circuits)),
    ])
}

fn flow_result_fields(r: &crate::harness::FlowResult) -> Vec<(String, Json)> {
    vec![
        ("gates".into(), Json::Int(r.gates as u64)),
        ("area".into(), Json::Num(r.area)),
        ("delay".into(), Json::Num(r.delay)),
        ("seconds".into(), Json::Num(r.seconds)),
        ("literals".into(), Json::Int(r.literals as u64)),
        ("xor_cells".into(), Json::Int(r.xor_cells as u64)),
        ("mem_proxy".into(), Json::Int(r.mem_proxy as u64)),
    ]
}

/// What one circuit contributes to the attribution views, borrowed
/// from whatever the binary keeps per circuit. [`Row`]-based binaries
/// get one via [`ObservedCircuit::from_row`]; `scaling` builds them from
/// its own captures so every bench shares the same `--trace-tree` /
/// `--folded` code paths.
pub struct ObservedCircuit<'a> {
    /// Circuit label used in tree headers and folded-stack prefixes.
    pub name: &'a str,
    /// Span tree + counters captured across the BDS flow.
    pub trace: &'a Snapshot,
}

impl<'a> ObservedCircuit<'a> {
    /// Borrows the observability capture out of a comparison row.
    #[must_use]
    pub fn from_row(row: &'a Row) -> Self {
        ObservedCircuit {
            name: &row.name,
            trace: &row.trace,
        }
    }
}

/// Serializes one comparison row, including the BDS flow's decomposition
/// step counts, BDD operation counters, and trace snapshot. The `bds`,
/// `decompose` and `bdd_ops` objects are what the structural gate
/// ([`bds_trace::gate`]) compares.
#[must_use]
pub fn row_json(row: &Row) -> Json {
    let d = &row.report.decompose;
    let ops = &row.report.bdd_ops;
    let decompose = Json::Obj(vec![
        ("and_dom".into(), Json::Int(d.and_dom as u64)),
        ("or_dom".into(), Json::Int(d.or_dom as u64)),
        ("xnor_dom".into(), Json::Int(d.xnor_dom as u64)),
        ("func_mux".into(), Json::Int(d.func_mux as u64)),
        ("gen_dom".into(), Json::Int(d.gen_dom as u64)),
        ("gen_xdom".into(), Json::Int(d.gen_xdom as u64)),
        ("shannon".into(), Json::Int(d.shannon as u64)),
        ("leaves".into(), Json::Int(d.leaves as u64)),
        ("shared".into(), Json::Int(d.shared as u64)),
    ]);
    let bdd_ops = Json::Obj(vec![
        ("ite_calls".into(), Json::Int(ops.ite_calls)),
        ("cache_hits".into(), Json::Int(ops.cache_hits)),
        ("cache_misses".into(), Json::Int(ops.cache_misses)),
        ("cache_hit_rate".into(), Json::Num(ops.cache_hit_rate())),
        ("restrict_calls".into(), Json::Int(ops.restrict_calls)),
        ("unique_hits".into(), Json::Int(ops.unique_hits)),
        ("nodes_created".into(), Json::Int(ops.nodes_created)),
    ]);
    Json::Obj(vec![
        ("name".into(), Json::Str(row.name.clone())),
        ("stands_for".into(), Json::Str(row.stands_for.into())),
        ("verified".into(), Json::Str(row.verified.into())),
        ("speedup".into(), Json::Num(row.speedup)),
        ("mode".into(), Json::Str(format!("{:?}", row.report.mode))),
        ("sis".into(), Json::Obj(flow_result_fields(&row.sis))),
        ("bds".into(), Json::Obj(flow_result_fields(&row.bds))),
        ("decompose".into(), decompose),
        ("bdd_ops".into(), bdd_ops),
        ("trace".into(), row.trace.to_json()),
        ("sis_trace".into(), row.sis_trace.to_json()),
    ])
}

/// Writes `contents` to `path`, creating its parent directories first.
fn write_output(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

/// Renders `doc` to `path` (pretty, trailing newline), creating its
/// parent directories first.
///
/// # Errors
/// Propagates the underlying filesystem error.
pub fn write_json(path: &Path, doc: &Json) -> std::io::Result<()> {
    write_output(path, &doc.render())
}

/// Standard tail for the row-based binaries: the attribution views
/// ([`finish_observability`]), then the `--json` report when asked.
///
/// # Errors
/// Returns a nonzero [`ExitCode`] when an output file cannot be written.
pub fn finish_rows(args: &BenchArgs, bench: &str, rows: &[Row]) -> Result<(), ExitCode> {
    let observed: Vec<ObservedCircuit<'_>> = rows.iter().map(ObservedCircuit::from_row).collect();
    finish_observability(args, bench, &observed)?;
    if let Some(path) = &args.json {
        let doc = envelope(
            bench,
            args.effective_jobs(),
            rows.iter().map(row_json).collect(),
        );
        if let Err(err) = write_json(path, &doc) {
            eprintln!("{bench}: cannot write {}: {err}", path.display());
            return Err(ExitCode::FAILURE);
        }
        eprintln!("{bench}: wrote {}", path.display());
    }
    Ok(())
}

/// The attribution views of the per-circuit span trees: prints each
/// tree under `--trace-tree` and writes them as folded stacks under
/// `--folded`, creating the file's parent directories first.
///
/// # Errors
/// Returns a nonzero [`ExitCode`] when the folded file cannot be written.
pub fn finish_observability(
    args: &BenchArgs,
    bench: &str,
    circuits: &[ObservedCircuit<'_>],
) -> Result<(), ExitCode> {
    if args.trace_tree {
        for c in circuits {
            print_trace_tree(c.name, c.trace);
        }
    }
    if let Some(path) = &args.folded {
        if !bds_trace::is_enabled() {
            eprintln!("{bench}: note: --folded without --features trace records no spans");
        }
        let folded: String = circuits.iter().map(|c| c.trace.folded(c.name)).collect();
        if let Err(err) = write_output(path, &folded) {
            eprintln!("{bench}: cannot write {}: {err}", path.display());
            return Err(ExitCode::FAILURE);
        }
        eprintln!("{bench}: wrote {}", path.display());
    }
    Ok(())
}

/// Prints one circuit's aggregated span tree (or a note that tracing is
/// compiled out).
pub fn print_trace_tree(name: &str, trace: &Snapshot) {
    if trace.is_empty() {
        println!("-- {name}: no trace data (build with --features trace)");
        return;
    }
    println!("-- {name} --");
    print!("{}", trace.render_tree());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bds_trace::json::parse;

    #[test]
    fn envelope_round_trips_through_parser() {
        let doc = envelope(
            "demo",
            4,
            vec![Json::Obj(vec![("name".into(), Json::Str("x".into()))])],
        );
        let text = doc.render();
        let back = parse(&text).expect("parses");
        assert_eq!(
            back.get("schema").and_then(Json::as_str),
            Some("bds-trace-report/v1")
        );
        assert_eq!(back.get("bench").and_then(Json::as_str), Some("demo"));
        assert_eq!(
            back.get("trace_enabled").and_then(Json::as_bool),
            Some(bds_trace::is_enabled())
        );
        let circuits = back.get("circuits").and_then(Json::as_arr).expect("array");
        assert_eq!(circuits.len(), 1);
        assert_eq!(circuits[0].get("name").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn row_json_gates_against_itself() {
        let net = bds_circuits::adder::ripple_adder(4);
        let row = crate::harness::run_both(
            "add4",
            "-",
            &net,
            &bds::flow::FlowParams::default(),
            &bds::sis_flow::SisParams::default(),
        );
        let doc = envelope("t", 1, vec![row_json(&row)]);
        let back = parse(&doc.render()).expect("parses");
        let circuit = &back.get("circuits").and_then(Json::as_arr).expect("array")[0];
        assert_eq!(
            circuit
                .get("bds")
                .and_then(|b| b.get("mem_proxy"))
                .and_then(Json::as_u64),
            Some(row.report.peak_bdd_nodes as u64)
        );
        let outcome = bds_trace::gate::compare_reports(&back, &back).expect("gates");
        assert!(outcome.passed());
        assert_eq!(outcome.matched, 1);
    }

    #[test]
    fn write_json_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("bds-report-test");
        let path = dir.join("nested/out.json");
        let _ = std::fs::remove_dir_all(&dir);
        write_json(&path, &envelope("t", 1, Vec::new())).expect("writes");
        let text = std::fs::read_to_string(&path).expect("readable");
        assert!(parse(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn folded_output_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("bds-folded-test");
        let path = dir.join("nested/deeper/folded.txt");
        let _ = std::fs::remove_dir_all(&dir);
        let args = BenchArgs {
            folded: Some(path.clone()),
            ..BenchArgs::default()
        };
        let trace = Snapshot::default();
        let circuits = [ObservedCircuit {
            name: "c",
            trace: &trace,
        }];
        assert!(finish_observability(&args, "t", &circuits).is_ok());
        assert!(path.is_file(), "folded stacks not written");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
