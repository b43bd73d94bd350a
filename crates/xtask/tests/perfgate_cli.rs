//! End-to-end checks of `cargo xtask perfgate`'s exit paths, driven
//! through `--fresh` so no `table1` run is needed: the checked-in
//! baseline passes against itself, a one-count structural change fails
//! and names its circuit and field, and a report sharing no circuit
//! with the baseline fails rather than passing an empty gate.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bds_trace::json::{parse, Json};

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_flow.json")
}

fn baseline() -> Json {
    let text = std::fs::read_to_string(baseline_path()).expect("baseline is checked in");
    parse(&text).expect("baseline parses")
}

/// Runs `xtask perfgate --fresh <fresh>` against the checked-in baseline.
fn perfgate(fresh: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("perfgate")
        .arg("--fresh")
        .arg(fresh)
        .output()
        .expect("xtask runs")
}

/// Writes `doc` to a per-test file under the system temp directory.
fn write_fresh(test: &str, doc: &Json) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bds-perfgate-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fresh.json");
    std::fs::write(&path, doc.render()).expect("fresh report written");
    path
}

fn circuits_mut(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Obj(fields) = doc else {
        panic!("report is an object")
    };
    match fields.iter_mut().find(|(k, _)| k == "circuits") {
        Some((_, Json::Arr(circuits))) => circuits,
        _ => panic!("report has a circuits array"),
    }
}

fn field_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = obj else {
        panic!("`{key}` lives in an object")
    };
    let Some((_, value)) = fields.iter_mut().find(|(k, _)| k == key) else {
        panic!("field `{key}` present")
    };
    value
}

fn text(out: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn baseline_passes_against_itself() {
    let out = perfgate(&baseline_path());
    let log = text(&out);
    assert!(out.status.success(), "perfgate failed:\n{log}");
    assert!(log.contains("0 mismatch(es)"), "{log}");
    assert!(log.contains("perfgate: OK"), "{log}");
}

#[test]
fn one_more_literal_fails_and_names_the_field() {
    let mut doc = baseline();
    let circuit = &mut circuits_mut(&mut doc)[0];
    let name = circuit
        .get("name")
        .and_then(Json::as_str)
        .expect("named circuit")
        .to_string();
    let Json::Int(literals) = field_mut(field_mut(circuit, "bds"), "literals") else {
        panic!("literals is an integer")
    };
    *literals += 1;
    let fresh = write_fresh("literals", &doc);
    let out = perfgate(&fresh);
    let log = text(&out);
    let _ = std::fs::remove_dir_all(fresh.parent().expect("temp dir"));
    assert!(!out.status.success(), "a +1 literal passed:\n{log}");
    let line = log
        .lines()
        .find(|l| l.contains("MISMATCH"))
        .unwrap_or_else(|| panic!("no mismatch line:\n{log}"));
    assert!(
        line.contains(&name) && line.contains("bds.literals"),
        "{line}"
    );
    assert_eq!(log.matches("MISMATCH").count(), 1, "{log}");
}

#[test]
fn disjoint_report_fails() {
    let mut doc = baseline();
    let circuits = circuits_mut(&mut doc);
    circuits.truncate(1);
    *field_mut(&mut circuits[0], "name") = Json::Str("no-such-circuit".into());
    let fresh = write_fresh("disjoint", &doc);
    let out = perfgate(&fresh);
    let log = text(&out);
    let _ = std::fs::remove_dir_all(fresh.parent().expect("temp dir"));
    assert!(!out.status.success(), "an empty gate passed:\n{log}");
    assert!(log.contains("0 circuit(s) matched"), "{log}");
    assert!(log.contains("no circuits in common"), "{log}");
}
