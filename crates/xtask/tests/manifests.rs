//! Manifest policy (DESIGN.md §6, §8): the workspace has no external
//! dependencies, and the `trace` feature forwards intact from the root
//! package down to `bds-trace/enabled` while staying off by default.
//! The manifests are read with plain line matching.

use std::path::Path;

/// `(package, member its trace feature must list)`.
const TRACE_CHAIN: [(&str, &str); 5] = [
    ("bds-repro", "bds-bench/trace"),
    ("bds-bench", "bds/trace"),
    ("bds", "bds-network/trace"),
    ("bds-network", "bds-bdd/trace"),
    ("bds-bdd", "bds-trace/enabled"),
];

/// The manifest's lines with comments dropped and multi-line arrays joined.
fn logical_lines(text: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut open = false;
    for line in text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
    {
        match out.last_mut() {
            Some(last) if open => last.push_str(line),
            _ => out.push(line.to_string()),
        }
        open = if open {
            !line.contains(']')
        } else {
            line.ends_with('[')
        };
    }
    out
}

/// Every policy violation in `manifests` (`(path, text)` pairs) and in
/// `lock`, the text of `Cargo.lock`.
fn violations(manifests: &[(&str, &str)], lock: &str) -> Vec<String> {
    let mut out: Vec<String> = lock
        .lines()
        .filter(|l| l.starts_with("source ="))
        .map(|l| format!("Cargo.lock: external dependency, {l}"))
        .collect();
    let turns_on = |v: &str| v.contains("trace") || v.contains("enabled");
    let mut trace_features = Vec::new();
    for &(path, text) in manifests {
        let (mut section, mut package) = (String::new(), String::new());
        for line in logical_lines(text) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            match section.as_str() {
                "[package]" if key == "name" => package = value.trim_matches('"').to_string(),
                "[features]" if key == "default" && turns_on(value) => {
                    out.push(format!("{path}: the default feature turns on tracing"));
                }
                "[features]" if key == "trace" => {
                    trace_features.push((package.clone(), value.to_string()));
                }
                s if s.ends_with("dependencies]")
                    && value.contains("features")
                    && turns_on(value) =>
                {
                    out.push(format!("{path}: dependency `{key}` turns on tracing"));
                }
                _ => {}
            }
        }
    }
    for (package, member) in TRACE_CHAIN {
        let quoted = format!("\"{member}\"");
        if !trace_features
            .iter()
            .any(|(p, v)| p == package && v.contains(&quoted))
        {
            out.push(format!(
                "`{package}`: feature `trace` must forward `{member}`"
            ));
        }
    }
    out
}

#[test]
fn workspace_manifests_follow_the_policy() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        paths.push(entry.expect("entry").path().join("Cargo.toml"));
    }
    let texts: Vec<(String, String)> = paths
        .iter()
        .filter_map(|p| Some((p.display().to_string(), std::fs::read_to_string(p).ok()?)))
        .collect();
    let manifests: Vec<(&str, &str)> = texts
        .iter()
        .map(|(p, t)| (p.as_str(), t.as_str()))
        .collect();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is readable");
    assert_eq!(violations(&manifests, &lock), Vec::<String>::new());
}

/// A miniature workspace that follows the policy.
const CLEAN: [(&str, &str); 5] = [
    ("Cargo.toml", "[package]\nname = \"bds-repro\"\n[features]\ntrace = [\"bds-bench/trace\"]\n"),
    (
        "crates/bench/Cargo.toml",
        "[package]\nname = \"bds-bench\"\n[features]\ntrace = [\n  \"bds-trace/enabled\",\n  \"bds/trace\",\n]\n",
    ),
    ("crates/bds-core/Cargo.toml", "[package]\nname = \"bds\"\n[features]\ntrace = [\"bds-network/trace\"]\n"),
    ("crates/network/Cargo.toml", "[package]\nname = \"bds-network\"\n[features]\ntrace = [\"bds-bdd/trace\"]\n"),
    (
        "crates/bdd/Cargo.toml",
        "[package]\nname = \"bds-bdd\"\n[features]\ntrace = [\"bds-trace/enabled\"]\n\
         [dependencies]\nbds-trace.workspace = true\n",
    ),
];

#[test]
fn seeded_manifest_violations_are_caught() {
    assert_eq!(violations(&CLEAN, ""), Vec::<String>::new());
    let mut manifests = CLEAN;
    manifests[0].1 =
        "[package]\nname = \"bds-repro\"\n[features]\ndefault = [\"trace\"]\ntrace = [\"bds-bench/trace\"]\n";
    manifests[3].1 = "[package]\nname = \"bds-network\"\n[features]\ntrace = []\n";
    manifests[4].1 = "[package]\nname = \"bds-bdd\"\n[features]\ntrace = [\"bds-trace/enabled\"]\n\
                      [dependencies]\nbds-trace = { path = \"../trace\", features = [\"enabled\"] }\n";
    let lock = "[[package]]\nname = \"rand\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(
        violations(&manifests, lock),
        [
            "Cargo.lock: external dependency, source = \"registry+https://github.com/rust-lang/crates.io-index\"",
            "Cargo.toml: the default feature turns on tracing",
            "crates/bdd/Cargo.toml: dependency `bds-trace` turns on tracing",
            "`bds-network`: feature `trace` must forward `bds-bdd/trace`",
        ]
    );
}
