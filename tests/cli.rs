//! End-to-end tests of the `bds_opt` command-line tool, and of the bench
//! binaries' flag parsing.

use std::io::Write as _;
use std::process::Command;

const BLIF: &str = "\
.model cli_test
.inputs a b c d
.outputs f g
.names a b t1
10 1
01 1
.names t1 c t2
10 1
01 1
.names t2 d f
11 1
.names a b g
11 1
.end
";

/// Writes the input circuit to a file named after the calling test, so
/// tests running in parallel never share (or delete) each other's input.
fn write_input(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("bds_cli_{test}_{}.blif", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(BLIF.as_bytes()).expect("write");
    path
}

fn bds_opt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bds_opt"))
}

#[test]
fn optimizes_verifies_and_emits_blif() {
    let input = write_input("optimizes_verifies_and_emits_blif");
    let out = bds_opt()
        .arg("--verify")
        .arg("--map")
        .arg(&input)
        .output()
        .expect("bds_opt runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalent"), "must verify: {stderr}");
    assert!(stderr.contains("mapped:"), "must report mapping: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(".model"), "must emit blif");
    assert!(stdout.contains(".outputs f g"));
    // The emitted BLIF must re-parse and still be the same function.
    let reparsed = bds_repro::network::blif::parse(&stdout).expect("own output parses");
    let original = bds_repro::network::blif::parse(BLIF).expect("test input parses");
    assert_eq!(
        bds_repro::network::verify::verify(&original, &reparsed, 100_000).unwrap(),
        bds_repro::network::verify::Verdict::Equivalent
    );
    let _ = std::fs::remove_file(input);
}

#[test]
fn sdc_flag_applies_the_post_pass() {
    let input = write_input("sdc_flag_applies_the_post_pass");
    let out = bds_opt()
        .arg("--sdc")
        .arg("--verify")
        .arg(&input)
        .output()
        .expect("bds_opt runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("equivalent"), "must verify: {stderr}");
    // `--sdc` is `optimize`, then `sdc_simplify`, `sweep` and `compacted`.
    let net = bds_repro::network::blif::parse(BLIF).expect("test input parses");
    let (mut expected, _) =
        bds_repro::core::flow::optimize(&net, &bds_repro::core::flow::FlowParams::default())
            .expect("flow runs");
    bds_repro::core::sdc::sdc_simplify(&mut expected, &Default::default()).expect("sdc runs");
    expected.sweep().expect("sweep");
    let expected = expected.compacted().expect("compacted");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        bds_repro::network::blif::write(&expected)
    );
    let _ = std::fs::remove_file(input);
}

#[test]
fn sis_mode_and_luts() {
    let input = write_input("sis_mode_and_luts");
    let out = bds_opt()
        .arg("--sis")
        .arg("--stats")
        .arg("--luts")
        .arg("4")
        .arg(&input)
        .output()
        .expect("bds_opt runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("baseline:"), "{stderr}");
    assert!(stderr.contains("luts(k=4):"), "{stderr}");
    assert!(out.stdout.is_empty(), "--stats suppresses blif output");
    let _ = std::fs::remove_file(input);
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bds_opt().arg("--frobnicate").output().expect("runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = bds_opt().output().expect("runs");
    assert!(!out.status.success(), "missing input file must fail");
}

#[test]
fn missing_file_reports_error() {
    let out = bds_opt()
        .arg("/nonexistent/definitely_missing.blif")
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn output_file_flag_writes_file() {
    let input = write_input("output_file_flag_writes_file");
    let outpath = std::env::temp_dir().join(format!("bds_cli_out_{}.blif", std::process::id()));
    let out = bds_opt()
        .arg("-o")
        .arg(&outpath)
        .arg(&input)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&outpath).expect("output file written");
    assert!(written.contains(".model"));
    let _ = std::fs::remove_file(input);
    let _ = std::fs::remove_file(outpath);
}

/// `ablation` and `fpga` print no span-tree views, so the two view
/// flags are usage errors there rather than silently ignored.
#[test]
fn view_flags_rejected_where_no_views_are_printed() {
    for bin in [env!("CARGO_BIN_EXE_ablation"), env!("CARGO_BIN_EXE_fpga")] {
        for args in [&["--trace-tree"][..], &["--folded", "out.folded"][..]] {
            let out = Command::new(bin).args(args).output().expect("runs");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("unknown flag {}", args[0])),
                "{stderr}"
            );
            assert!(
                stderr.contains("usage:") && !stderr.contains("--trace-tree]"),
                "{stderr}"
            );
        }
    }
}

/// Only `table1` and `summary` print a line per finished row, so
/// `--live` is a usage error in the other bench binaries.
#[test]
fn live_rejected_where_no_rows_stream() {
    for bin in [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_fpga"),
        env!("CARGO_BIN_EXE_scaling"),
        env!("CARGO_BIN_EXE_table2"),
    ] {
        let out = Command::new(bin).arg("--live").output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{bin} --live");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --live"), "{stderr}");
        assert!(
            stderr.contains("usage:") && !stderr.contains("[--live]"),
            "{stderr}"
        );
    }
}

/// `table1` runs end to end and writes its two files: a report in the
/// `bds-trace-report/v1` envelope naming all twelve circuits, and the
/// folded span stacks. Debug builds run the fast circuit set.
#[test]
fn table1_writes_its_report_and_folded_stacks() {
    let dir = std::env::temp_dir().join(format!("bds_cli_table1_{}", std::process::id()));
    let (json, folded) = (dir.join("r.json"), dir.join("f.txt"));
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--json")
        .arg(&json)
        .arg("--folded")
        .arg(&folded)
        .output()
        .expect("table1 runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("report written");
    assert!(
        text.starts_with("{\n  \"schema\": \"bds-trace-report/v1\",\n  \"bench\": \"table1\",\n"),
        "{}",
        &text[..text.len().min(200)]
    );
    for name in [
        "ctrl36", "ecc32", "ecc26", "alu8", "alu16", "csel16", "cmp16", "mult8", "ctrl20",
        "ctrl24", "shift32", "parity16",
    ] {
        assert!(text.contains(&format!("\"name\": \"{name}\",")), "{name}");
    }
    assert!(folded.is_file(), "folded stacks not written");
    let _ = std::fs::remove_dir_all(&dir);
}
