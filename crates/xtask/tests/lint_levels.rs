//! Every library crate root denies the library lint policy (DESIGN.md
//! §10) outside its unit tests. The canary in `crates/bdd/src/lint_canary.rs`
//! catches drift in `clippy.toml`, but an `#[expect]` switches its own
//! lint on, so it cannot notice a lint dropped from a crate root.

use std::path::Path;

const ALL: &str = "unwrap_used expect_used panic unreachable print_stdout print_stderr \
                   disallowed_methods";

/// The lints a crate root denies with `#![cfg_attr(not(test), deny(...))]`.
fn denied(text: &str) -> Vec<&str> {
    text.lines()
        .filter_map(|l| l.strip_prefix("#![cfg_attr(not(test), deny("))
        .flat_map(|l| l.trim_end_matches(")]").trim_end_matches(')').split(", "))
        .map(|lint| lint.trim_start_matches("clippy::"))
        .collect()
}

#[test]
fn library_crate_roots_deny_the_policy_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let determinism = "iter_over_hash_type cast_precision_loss";
    let roots = [
        ("src/lib.rs", ""),
        (
            "crates/bdd/src/lib.rs",
            "disallowed_types iter_over_hash_type cast_precision_loss",
        ),
        ("crates/network/src/lib.rs", determinism),
        ("crates/bds-core/src/lib.rs", determinism),
        ("crates/sop/src/lib.rs", ""),
        ("crates/mapper/src/lib.rs", ""),
        ("crates/circuits/src/lib.rs", ""),
        ("crates/prop/src/lib.rs", ""),
        ("crates/trace/src/lib.rs", ""),
        ("crates/bench/src/lib.rs", ""),
    ];
    for (path, extra) in roots {
        let text = std::fs::read_to_string(root.join(path)).expect("crate root is readable");
        let denied = denied(&text);
        for lint in ALL.split_whitespace().chain(extra.split_whitespace()) {
            assert!(
                denied.contains(&lint),
                "{path} does not deny clippy::{lint}"
            );
        }
        let documented = ["bdd", "network", "trace"].iter().any(|c| path.contains(c));
        assert!(
            !documented || text.contains("#![warn(missing_docs)]"),
            "{path}: missing_docs"
        );
    }
}

#[test]
fn a_dropped_lint_is_noticed() {
    let text = "#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]\n";
    assert_eq!(denied(text), ["panic", "unreachable"]);
    assert!(denied("#![deny(clippy::panic)]\n").is_empty());
}
