//! Workspace automation (`cargo xtask`).
//!
//! Three subcommands:
//!
//! * `cargo xtask ci` — the full local gate: `cargo fmt --check`, then
//!   `cargo clippy --workspace --all-targets -- -D warnings` (which also
//!   enforces the workspace lint policy, DESIGN.md §10), then
//!   `cargo test --workspace`, then a build and test pass with the
//!   `trace` feature on (`--features bds-bench/trace`) so the
//!   instrumented configuration cannot rot.
//!
//! * `cargo xtask perfgate` — the perf-regression gate: runs the
//!   trace-enabled `table1` bench (or takes a pre-generated report via
//!   `--fresh <path>`), compares it against the checked-in baseline
//!   (`results/BENCH_flow.json`, override with `--baseline <path>`)
//!   through [`bds_trace::gate::compare_reports`], and exits nonzero on
//!   any regression — structural counts are exact, wall time gets a
//!   noise allowance. `--jobs <n>` runs the fresh `table1` with the
//!   sharded flow; the structural comparison against the sequential
//!   baseline stays exact because sharding is a pure scheduling change
//!   (only wall time may differ between thread counts). Zero matched circuits is also a failure: a gate
//!   that compares nothing protects nothing. The fresh report is left at
//!   `target/perfgate/fresh.json` so CI can upload it as an artifact.
//!   The wall-time allowance honors `BDS_PERFGATE_TOLERANCE`
//!   (`PCT` or `PCT+FLOOR`, e.g. `150+0.5`).
//!
//!   When a telemetry baseline exists (`results/TELEMETRY.json`,
//!   override with `--telemetry-baseline <path>`), the fresh run also
//!   writes `target/perfgate/telemetry.json` and gates the engine
//!   metrics — cache hit rate may not drop, peak arena bytes and peak
//!   unique-table load may not grow — through
//!   [`bds_trace::gate::compare_telemetry`]. All three are
//!   deterministic across `--jobs` settings, so the telemetry gate is
//!   exact (modulo float round-tripping).
//!
//!   On any regression the gate **attributes the blame**: it diffs the
//!   baseline and fresh span trees through [`bds_trace::attr`] and
//!   prints the top culprit span paths by self-time growth. The full
//!   attribution report (`bds-attr-report/v1`) is always written to
//!   `target/perfgate/attr.json`, and self-run gates also leave the
//!   Perfetto/folded/profile exports under `target/perfgate/` for CI
//!   artifacts. `--record` appends one `bds-perf-ledger/v1` line to
//!   `results/history/perf.jsonl` when the gate passes.
//!
//! * `cargo xtask perfhist [--ledger <path>] [--check]` — renders the
//!   perf history ledger as a trend table (wall-time deltas vs the
//!   previous entry and vs the seed row). `--check` only validates the
//!   ledger, so CI fails fast on a malformed line.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ci") => run_ci(),
        Some("perfgate") => run_perfgate(&args[1..]),
        Some("perfhist") => run_perfhist(&args[1..]),
        _ => {
            eprintln!("usage: cargo xtask <ci|perfgate|perfhist>");
            eprintln!("  ci        fmt --check, clippy -D warnings, tests, trace build and tests");
            eprintln!("  perfgate  gate a fresh table1 run against the checked-in baseline");
            eprintln!("            [--baseline <report.json>] [--fresh <report.json>]");
            eprintln!(
                "            [--telemetry-baseline <telemetry.json>] [--jobs <n>] [--record]"
            );
            eprintln!("  perfhist  render the perf history ledger [--ledger <path>] [--check]");
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

fn run_ci() -> ExitCode {
    let root = workspace_root();
    let steps: [(&str, &[&str]); 5] = [
        ("cargo fmt --check", &["fmt", "--all", "--", "--check"]),
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
        ),
        ("cargo test", &["test", "--workspace", "--quiet"]),
        (
            "cargo build (trace)",
            &["build", "--workspace", "--features", "bds-bench/trace"],
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
        ),
    ];
    let mut failed = Vec::new();
    for (label, cmd_args) in &steps {
        println!("==> {label}");
        if !run_cargo(&root, cmd_args) {
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

fn run_cargo(root: &Path, args: &[&str]) -> bool {
    match Command::new("cargo").args(args).current_dir(root).status() {
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

/// Where `perfgate` leaves the freshly generated telemetry document
/// (relative to the workspace root) so CI can upload it as an artifact.
const FRESH_TELEMETRY: &str = "target/perfgate/telemetry.json";

/// Default telemetry baseline: the checked-in `bds-telemetry/v1` file.
const TELEMETRY_BASELINE: &str = "results/TELEMETRY.json";

/// Where self-run gates leave the Perfetto trace-event export.
const FRESH_PERFETTO: &str = "target/perfgate/perfetto.json";

/// Where self-run gates leave the folded flamegraph stacks.
const FRESH_FOLDED: &str = "target/perfgate/folded.txt";

/// Where self-run gates leave the deterministic effort-tick profile.
const FRESH_PROFILE: &str = "target/perfgate/profile.txt";

/// Where every gate leaves the span-level attribution report.
const ATTR_REPORT: &str = "target/perfgate/attr.json";

/// The perf history ledger: one `bds-perf-ledger/v1` line per recorded
/// gate run, appended by `perfgate --record`, rendered by `perfhist`.
const LEDGER_PATH: &str = "results/history/perf.jsonl";

fn run_perfgate(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut baseline = root.join(BASELINE_REPORT);
    let mut telemetry_baseline = root.join(TELEMETRY_BASELINE);
    let mut fresh: Option<PathBuf> = None;
    let mut jobs: Option<String> = None;
    let mut record = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline = PathBuf::from(p),
                None => return perfgate_usage("--baseline needs a path"),
            },
            "--telemetry-baseline" => match it.next() {
                Some(p) => telemetry_baseline = PathBuf::from(p),
                None => return perfgate_usage("--telemetry-baseline needs a path"),
            },
            "--fresh" => match it.next() {
                Some(p) => fresh = Some(PathBuf::from(p)),
                None => return perfgate_usage("--fresh needs a path"),
            },
            "--jobs" => match it.next().and_then(|v| v.trim().parse::<usize>().ok()) {
                Some(n) => jobs = Some(n.to_string()),
                None => return perfgate_usage("--jobs needs a count"),
            },
            "--record" => record = true,
            other => return perfgate_usage(&format!("unknown flag {other}")),
        }
    }
    if jobs.is_some() && fresh.is_some() {
        return perfgate_usage("--jobs only applies when perfgate runs table1 itself");
    }

    // Telemetry is only regenerated when perfgate runs table1 itself; a
    // pre-generated `--fresh` report carries no timeline file to diff.
    let mut fresh_telemetry: Option<PathBuf> = None;
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
                "--telemetry",
                FRESH_TELEMETRY,
                // Exporters ride along on every self-run gate so CI can
                // upload the Perfetto trace, the folded span stacks and
                // the deterministic profile next to the report.
                "--perfetto",
                FRESH_PERFETTO,
                "--folded",
                FRESH_FOLDED,
                "--profile",
                FRESH_PROFILE,
            ];
            if let Some(n) = &jobs {
                cargo_args.push("--jobs");
                cargo_args.push(n);
            }
            if !run_cargo(&root, &cargo_args) {
                eprintln!("perfgate: table1 run failed");
                return ExitCode::FAILURE;
            }
            fresh_telemetry = Some(root.join(FRESH_TELEMETRY));
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

    let thresholds = match bds_trace::gate::Thresholds::from_env() {
        Ok(thresholds) => thresholds,
        Err(err) => {
            eprintln!("perfgate: invalid tolerance: {err}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match bds_trace::gate::compare_reports(&baseline_doc, &fresh_doc, &thresholds) {
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

    // Attribution: diff the two span trees and counter sets. The full
    // report is always written (CI uploads it either way); the blame
    // table is only printed when the gate actually failed.
    match bds_trace::attr::diff_reports(&baseline_doc, &fresh_doc) {
        Ok(attr) => {
            let attr_path = root.join(ATTR_REPORT);
            if let Some(parent) = attr_path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(&attr_path, attr.to_json().render()) {
                Ok(()) => println!("perfgate: wrote {}", attr_path.display()),
                Err(err) => {
                    eprintln!("perfgate: cannot write {}: {err}", attr_path.display());
                    return ExitCode::FAILURE;
                }
            }
            if !outcome.passed() {
                print!("{}", attr.render_blame(bds_trace::attr::DEFAULT_TOP_K));
            }
        }
        Err(err) => eprintln!("perfgate: cannot attribute: {err}"),
    }

    // Engine-telemetry gate: exact comparison of cache hit rate and the
    // memory peaks when both the checked-in baseline and a fresh
    // telemetry document exist.
    let mut telemetry_failed = false;
    match &fresh_telemetry {
        Some(fresh_path) if telemetry_baseline.exists() => {
            match gate_telemetry(&telemetry_baseline, fresh_path) {
                Ok(passed) => telemetry_failed = !passed,
                Err(err) => {
                    eprintln!("perfgate: telemetry gate: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Some(_) => println!(
            "perfgate: no telemetry baseline at {} — skipping the telemetry gate",
            telemetry_baseline.display()
        ),
        None => println!("perfgate: --fresh given — skipping the telemetry gate"),
    }

    if outcome.passed() && !telemetry_failed {
        if record {
            if let Err(err) = record_ledger(&root, &fresh_doc, fresh_telemetry.as_deref()) {
                eprintln!("perfgate: cannot record ledger entry: {err}");
                return ExitCode::FAILURE;
            }
        }
        println!("perfgate: OK");
        ExitCode::SUCCESS
    } else {
        if record {
            eprintln!("perfgate: gate failed — not recording a ledger entry");
        }
        eprintln!("perfgate: FAILED");
        ExitCode::FAILURE
    }
}

/// Appends one `bds-perf-ledger/v1` line for the gated run to
/// `results/history/perf.jsonl`, stamped with the current short commit
/// hash (`unknown` outside a git checkout).
fn record_ledger(
    root: &Path,
    fresh_doc: &bds_trace::json::Json,
    telemetry: Option<&Path>,
) -> Result<(), String> {
    let telemetry_doc = match telemetry {
        Some(path) => Some(load_report(path).map_err(|e| format!("{}: {e}", path.display()))?),
        None => None,
    };
    let entry = bds_trace::ledger::LedgerEntry::from_report(
        fresh_doc,
        telemetry_doc.as_ref(),
        &short_commit(root),
    )?;
    let path = root.join(LEDGER_PATH);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let mut text = std::fs::read_to_string(&path).unwrap_or_default();
    // Validate before appending: a corrupt ledger should fail loudly
    // here, not later in `perfhist --check`.
    bds_trace::ledger::parse_ledger(&text).map_err(|e| format!("existing ledger invalid: {e}"))?;
    if !text.is_empty() && !text.ends_with('\n') {
        text.push('\n');
    }
    text.push_str(&entry.to_line());
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    println!(
        "perfgate: recorded {} ({} circuits, {:.3}s) -> {}",
        entry.commit,
        entry.circuits,
        entry.seconds,
        path.display()
    );
    Ok(())
}

/// The current short commit hash, or `unknown` when git is unavailable.
fn short_commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

// ---------------------------------------------------------------------------
// `cargo xtask perfhist`
// ---------------------------------------------------------------------------

fn run_perfhist(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut ledger = root.join(LEDGER_PATH);
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--ledger" => match it.next() {
                Some(p) => ledger = PathBuf::from(p),
                None => return perfhist_usage("--ledger needs a path"),
            },
            "--check" => check = true,
            other => return perfhist_usage(&format!("unknown flag {other}")),
        }
    }
    let text = match std::fs::read_to_string(&ledger) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("perfhist: cannot read {}: {err}", ledger.display());
            return ExitCode::FAILURE;
        }
    };
    let entries = match bds_trace::ledger::parse_ledger(&text) {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("perfhist: {}: {err}", ledger.display());
            return ExitCode::FAILURE;
        }
    };
    if entries.is_empty() {
        eprintln!("perfhist: {} has no entries", ledger.display());
        return ExitCode::FAILURE;
    }
    if check {
        println!(
            "perfhist: {} OK ({} entries)",
            ledger.display(),
            entries.len()
        );
    } else {
        print!("{}", bds_trace::ledger::render_history(&entries));
    }
    ExitCode::SUCCESS
}

fn perfhist_usage(problem: &str) -> ExitCode {
    eprintln!("perfhist: {problem}");
    eprintln!("usage: cargo xtask perfhist [--ledger <perf.jsonl>] [--check]");
    ExitCode::from(2)
}

/// Runs the telemetry gate between two `bds-telemetry/v1` files.
/// Returns `Ok(true)` when it passed.
fn gate_telemetry(baseline: &Path, fresh: &Path) -> Result<bool, String> {
    let baseline_doc =
        load_report(baseline).map_err(|e| format!("cannot load {}: {e}", baseline.display()))?;
    let fresh_doc =
        load_report(fresh).map_err(|e| format!("cannot load {}: {e}", fresh.display()))?;
    let outcome = bds_trace::gate::compare_telemetry(&baseline_doc, &fresh_doc)?;
    print!("telemetry {}", outcome.render());
    if outcome.matched == 0 {
        return Err(format!(
            "no circuits in common between {} and {} — refusing to pass an empty gate",
            baseline.display(),
            fresh.display()
        ));
    }
    Ok(outcome.passed())
}

fn load_report(path: &Path) -> Result<bds_trace::json::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    bds_trace::json::parse(&text).map_err(|e| e.to_string())
}

fn perfgate_usage(problem: &str) -> ExitCode {
    eprintln!("perfgate: {problem}");
    eprintln!(
        "usage: cargo xtask perfgate [--baseline <report.json>] [--fresh <report.json>] \
         [--telemetry-baseline <telemetry.json>] [--jobs <n>] [--record]"
    );
    ExitCode::from(2)
}
