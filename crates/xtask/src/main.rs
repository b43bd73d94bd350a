//! Workspace automation (`cargo xtask`).
//!
//! Two subcommands:
//!
//! * `cargo xtask ci` — the full local gate: `cargo fmt --check`, then
//!   `cargo clippy --workspace --all-targets -- -D warnings` (which also
//!   enforces the workspace lint policy, DESIGN.md §10), then
//!   `cargo test --workspace`, then a build and test pass with the
//!   `trace` feature on (`--features bds-bench/trace`) so the
//!   instrumented configuration cannot rot, then
//!   `cargo doc --workspace --no-deps` with `RUSTDOCFLAGS=-D warnings`,
//!   which fails on a doc link to an item that no longer exists.
//!
//! * `cargo xtask perfgate` — the structural gate: runs the
//!   trace-enabled `table1` bench (or takes a pre-generated report via
//!   `--fresh <path>`), compares it against the checked-in baseline
//!   (`results/BENCH_flow.json`, override with `--baseline <path>`)
//!   through [`bds_trace::gate::compare_reports`], and exits nonzero on
//!   any mismatch. Every numeric field of each circuit's `bds`,
//!   `decompose` and `bdd_ops` objects is compared exactly except wall
//!   time, which the stand-alone `flowbench/` benchmark measures.
//!   `--jobs <n>` runs the fresh `table1` with the sharded flow; the
//!   comparison against the sequential baseline stays exact because
//!   sharding is a pure scheduling change. Zero matched circuits is also
//!   a failure: a gate that compares nothing protects nothing. Self-run
//!   gates leave the fresh report and the folded span stacks under
//!   `target/perfgate/` so CI can upload them as artifacts.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ci") => run_ci(),
        Some("perfgate") => run_perfgate(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <ci|perfgate>");
            eprintln!(
                "  ci        fmt --check, clippy -D warnings, tests, trace build and tests, rustdoc"
            );
            eprintln!("  perfgate  gate a fresh table1 run against the checked-in baseline");
            eprintln!(
                "            [--baseline <report.json>] [--fresh <report.json>] [--jobs <n>]"
            );
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> PathBuf {
    // crates/xtask → workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

// ---------------------------------------------------------------------------
// `cargo xtask ci`
// ---------------------------------------------------------------------------

/// One CI gate: its label, the cargo arguments and extra environment.
type Step = (
    &'static str,
    &'static [&'static str],
    &'static [(&'static str, &'static str)],
);

fn run_ci() -> ExitCode {
    let root = workspace_root();
    let steps: [Step; 6] = [
        ("cargo fmt --check", &["fmt", "--all", "--", "--check"], &[]),
        (
            "cargo clippy -D warnings",
            &[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ],
            &[],
        ),
        ("cargo test", &["test", "--workspace", "--quiet"], &[]),
        (
            "cargo build (trace)",
            &["build", "--workspace", "--features", "bds-bench/trace"],
            &[],
        ),
        (
            "cargo test (trace)",
            &[
                "test",
                "--workspace",
                "--features",
                "bds-bench/trace",
                "--quiet",
            ],
            &[],
        ),
        (
            "cargo doc -D warnings",
            &["doc", "--workspace", "--no-deps", "--quiet"],
            &[("RUSTDOCFLAGS", "-D warnings")],
        ),
    ];
    let mut failed = Vec::new();
    for (label, cmd_args, envs) in &steps {
        println!("==> {label}");
        if !run_cargo(&root, cmd_args, envs) {
            failed.push(*label);
        }
    }
    if failed.is_empty() {
        println!("ci: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("ci: FAILED gates: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_cargo(root: &Path, args: &[&str], envs: &[(&str, &str)]) -> bool {
    let status = Command::new("cargo")
        .args(args)
        .envs(envs.iter().copied())
        .current_dir(root)
        .status();
    match status {
        Ok(status) => status.success(),
        Err(err) => {
            eprintln!("failed to spawn cargo {}: {err}", args.join(" "));
            false
        }
    }
}

// ---------------------------------------------------------------------------
// `cargo xtask perfgate`
// ---------------------------------------------------------------------------

/// Where `perfgate` leaves the freshly generated report (relative to the
/// workspace root) so CI can pick it up as an artifact.
const FRESH_REPORT: &str = "target/perfgate/fresh.json";

/// Default baseline: the checked-in trace-enabled `table1` report.
const BASELINE_REPORT: &str = "results/BENCH_flow.json";

/// Where self-run gates leave the folded flamegraph stacks.
const FRESH_FOLDED: &str = "target/perfgate/folded.txt";

fn run_perfgate(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut baseline = root.join(BASELINE_REPORT);
    let mut fresh: Option<PathBuf> = None;
    let mut jobs: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline = PathBuf::from(p),
                None => return perfgate_usage("--baseline needs a path"),
            },
            "--fresh" => match it.next() {
                Some(p) => fresh = Some(PathBuf::from(p)),
                None => return perfgate_usage("--fresh needs a path"),
            },
            "--jobs" => match it.next().and_then(|v| v.trim().parse::<usize>().ok()) {
                Some(n) => jobs = Some(n.to_string()),
                None => return perfgate_usage("--jobs needs a count"),
            },
            other => return perfgate_usage(&format!("unknown flag {other}")),
        }
    }
    if jobs.is_some() && fresh.is_some() {
        return perfgate_usage("--jobs only applies when perfgate runs table1 itself");
    }

    let fresh = match fresh {
        Some(path) => path,
        None => {
            // Regenerate: a release table1 run with tracing on, writing
            // the same report the baseline was produced from.
            let out = root.join(FRESH_REPORT);
            println!(
                "perfgate: running trace-enabled table1 (jobs={}) -> {}",
                jobs.as_deref().unwrap_or("default"),
                out.display()
            );
            let mut cargo_args = vec![
                "run",
                "--release",
                "--features",
                "trace",
                "--bin",
                "table1",
                "--",
                "--json",
                FRESH_REPORT,
                // The folded span stacks ride along on every self-run
                // gate so CI can upload them next to the report.
                "--folded",
                FRESH_FOLDED,
            ];
            if let Some(n) = &jobs {
                cargo_args.push("--jobs");
                cargo_args.push(n);
            }
            if !run_cargo(&root, &cargo_args, &[]) {
                eprintln!("perfgate: table1 run failed");
                return ExitCode::FAILURE;
            }
            out
        }
    };

    let baseline_doc = match load_report(&baseline) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!(
                "perfgate: cannot load baseline {}: {err}",
                baseline.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let fresh_doc = match load_report(&fresh) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!(
                "perfgate: cannot load fresh report {}: {err}",
                fresh.display()
            );
            return ExitCode::FAILURE;
        }
    };

    let outcome = match bds_trace::gate::compare_reports(&baseline_doc, &fresh_doc) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfgate: {err}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", outcome.render());
    if outcome.matched == 0 {
        eprintln!(
            "perfgate: no circuits in common between {} and {} — refusing to pass an empty gate",
            baseline.display(),
            fresh.display()
        );
        return ExitCode::FAILURE;
    }
    if outcome.passed() {
        println!("perfgate: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: FAILED");
        ExitCode::FAILURE
    }
}

fn load_report(path: &Path) -> Result<bds_trace::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    bds_trace::json::parse(&text).map_err(|e| e.to_string())
}

fn perfgate_usage(problem: &str) -> ExitCode {
    eprintln!("perfgate: {problem}");
    eprintln!(
        "usage: cargo xtask perfgate [--baseline <report.json>] [--fresh <report.json>] \
         [--jobs <n>]"
    );
    ExitCode::from(2)
}
