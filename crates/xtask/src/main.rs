//! Workspace automation (`cargo xtask`).
//!
//! One subcommand, `cargo xtask ci`, the full local gate:
//! `cargo fmt --check`, then
//! `cargo clippy --workspace --all-targets -- -D warnings` (which also
//! enforces the workspace lint policy, DESIGN.md §10), then
//! `cargo test --workspace`, then a build and test pass with the
//! `trace` feature on (`--features bds-bench/trace`) so the
//! instrumented configuration cannot rot, then
//! `cargo doc --workspace --no-deps` with `RUSTDOCFLAGS=-D warnings`,
//! which fails on a doc link to an item that no longer exists.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("ci") => run_ci(),
        _ => {
            eprintln!("usage: cargo xtask ci");
            eprintln!(
                "  ci  fmt --check, clippy -D warnings, tests, trace build and tests, rustdoc"
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
