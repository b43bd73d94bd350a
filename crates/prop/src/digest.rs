//! Output digests pinned by checked-in baselines.
//!
//! A test feeds each output it pins into a
//! [`Digests`](crate::digest::Digests) under a label;
//! [`Digests::check`](crate::digest::Digests::check) compares the run's
//! `(label, hash)` table with the suite's baseline file. The hash is
//! 64-bit FNV-1a ([`fnv1a`](crate::digest::fnv1a)), fixed here so that a
//! baseline stays valid across toolchains.
//!
//! A suite is one integration-test target, and its baseline is
//! `tests/digests/<suite>.txt` in the crate that owns the target: one
//! `label hash` line per label, sorted, the hash in 16 hex digits. Each
//! test function of the suite checks its own group of labels (every
//! label starts with `group/`), so test functions can run in any order
//! and any subset.
//!
//! The check is strict:
//! * a label whose hash moved, or a label the baseline lacks, fails;
//! * a release run must produce exactly the group's baseline labels,
//!   and a debug run a non-empty subset of them: fewer random cases, no
//!   release-only circuits, and no labels added with
//!   [`Digests::add_release`](crate::digest::Digests::add_release);
//! * a group that compares no label at all fails.
//!
//! On any failure the check writes the run's table, merged with the rest
//! of the baseline, to `target/digests/<suite>.txt`. After an intended
//! output change, run the suite in release and copy that file over the
//! baseline; the diff then lists the labels that moved.
//!
//! Build the collector with [`digests!`](crate::digests), which finds
//! both paths from the calling integration-test target (so the example
//! compiles only there):
//!
//! ```ignore
//! let mut d = bds_prop::digests!("circuits");
//! d.add("ecc32", "the written BLIF, the report fields …");
//! d.check();
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a hash of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Creates a [`Digests`] for `group` in the calling integration-test
/// target: the baseline is `tests/digests/<target>.txt` under the
/// calling crate, and a failing run writes `target/digests/<target>.txt`.
#[macro_export]
macro_rules! digests {
    ($group:expr) => {
        $crate::digest::Digests::for_suite(
            env!("CARGO_MANIFEST_DIR"),
            env!("CARGO_TARGET_TMPDIR"),
            env!("CARGO_CRATE_NAME"),
            $group,
        )
    };
}

/// A run's digests for one group of one suite; see the module docs.
pub struct Digests {
    group: String,
    baseline: PathBuf,
    out: PathBuf,
    table: BTreeMap<String, u64>,
}

impl Digests {
    /// A collector for `group` checked against the file `baseline`; a
    /// failing check writes the run's table to `out`.
    fn new(baseline: impl Into<PathBuf>, out: impl Into<PathBuf>, group: &str) -> Digests {
        debug_assert!(!group.contains('/'), "digest group `{group}` holds a `/`");
        Digests {
            group: group.to_string(),
            baseline: baseline.into(),
            out: out.into(),
            table: BTreeMap::new(),
        }
    }

    /// A collector for `group` of the test target `suite` of the crate at
    /// `manifest_dir`, whose cargo scratch directory is `target_tmpdir`
    /// (`target/tmp`). [`digests!`](crate::digests) passes all three.
    pub fn for_suite(manifest_dir: &str, target_tmpdir: &str, suite: &str, group: &str) -> Digests {
        let file = format!("{suite}.txt");
        let target = Path::new(target_tmpdir)
            .parent()
            .unwrap_or(Path::new(target_tmpdir));
        Digests::new(
            Path::new(manifest_dir).join("tests/digests").join(&file),
            target.join("digests").join(file),
            group,
        )
    }

    /// Folds `bytes` into the digest of `label` (which must not hold a
    /// newline). Adding to a label again extends its digest, so a label
    /// can pin a sequence of outputs.
    pub fn add(&mut self, label: impl AsRef<str>, bytes: impl AsRef<[u8]>) {
        let label = label.as_ref();
        debug_assert!(
            !label.contains('\n'),
            "digest label `{label}` holds a newline"
        );
        let hash = self
            .table
            .entry(format!("{}/{label}", self.group))
            .or_insert(FNV_OFFSET);
        // 0xff never occurs in UTF-8, so `add(l, "ab")` differs from
        // `add(l, "a"); add(l, "b")`.
        *hash = fold(fold(*hash, bytes.as_ref()), &[0xff]);
    }

    /// [`add`](Self::add) in release builds only, for a label whose
    /// debug run digests less: a suite that tries fewer variants in
    /// debug builds under one label. Debug and release builds count the
    /// same BDD operations and effort, so counters need no such label.
    pub fn add_release(&mut self, label: impl AsRef<str>, bytes: impl AsRef<[u8]>) {
        if !cfg!(debug_assertions) {
            self.add(label, bytes);
        }
    }

    /// Checks the run against the baseline: exactly its group's labels
    /// in release builds, a non-empty subset in debug builds.
    ///
    /// # Panics
    /// On any difference, naming the labels, after writing the run's
    /// table to `target/digests/<suite>.txt`.
    #[expect(clippy::panic, reason = "a failed digest check must fail the test")]
    pub fn check(self) {
        let text = std::fs::read_to_string(&self.baseline).unwrap_or_default();
        let outcome = parse(&text).and_then(|baseline| {
            compare(&baseline, &self.table, &self.group, !cfg!(debug_assertions))
                .map_err(|msg| format!("{msg}\n{}", self.write_merged(baseline)))
        });
        if let Err(msg) = outcome {
            panic!(
                "digest check of `{}` against {}: {msg}",
                self.group,
                self.baseline.display()
            );
        }
    }

    /// Writes `baseline` with this group's labels replaced by the run's
    /// (and those of groups that already failed in this process) to
    /// `out`; returns a line saying what was written.
    fn write_merged(&self, baseline: BTreeMap<String, u64>) -> String {
        static WRITTEN: Mutex<BTreeMap<PathBuf, BTreeMap<String, u64>>> =
            Mutex::new(BTreeMap::new());
        let mut written = WRITTEN.lock().unwrap_or_else(PoisonError::into_inner);
        let table = written.entry(self.out.clone()).or_insert(baseline);
        table.retain(|label, _| !in_group(label, &self.group));
        table.extend(self.table.iter().map(|(l, &h)| (l.clone(), h)));
        let mut text = String::new();
        for (label, hash) in table.iter() {
            let _ = writeln!(text, "{label} {hash:016x}");
        }
        let result = match self.out.parent() {
            Some(dir) => std::fs::create_dir_all(dir),
            None => Ok(()),
        }
        .and_then(|()| std::fs::write(&self.out, text));
        match result {
            Ok(()) => format!(
                "the run's table is in {}; if the change is intended, copy it over \
                 the baseline from a release run",
                self.out.display()
            ),
            Err(e) => format!("writing {} failed: {e}", self.out.display()),
        }
    }
}

fn in_group(label: &str, group: &str) -> bool {
    label
        .strip_prefix(group)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// Parses a baseline file: one `label hash` line per label.
fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut table = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let parsed = line
            .rsplit_once(' ')
            .and_then(|(label, hex)| Some((label, u64::from_str_radix(hex, 16).ok()?)));
        let Some((label, hash)) = parsed else {
            return Err(format!(
                "baseline line {} is not `label hash`: {line:?}",
                i + 1
            ));
        };
        if table.insert(label.to_string(), hash).is_some() {
            return Err(format!(
                "baseline line {} repeats the label `{label}`",
                i + 1
            ));
        }
    }
    Ok(table)
}

/// Compares the run's `run` table of `group` with `baseline`. `exact`
/// also requires every baseline label of the group.
fn compare(
    baseline: &BTreeMap<String, u64>,
    run: &BTreeMap<String, u64>,
    group: &str,
    exact: bool,
) -> Result<(), String> {
    if run.is_empty() {
        return Err("the run compared no label".to_string());
    }
    let mut moved = Vec::new();
    let mut unknown = Vec::new();
    for (label, hash) in run {
        match baseline.get(label) {
            Some(want) if want == hash => {}
            Some(_) => moved.push(label.as_str()),
            None => unknown.push(label.as_str()),
        }
    }
    let missing: Vec<&str> = if exact {
        baseline
            .keys()
            .filter(|l| in_group(l, group) && !run.contains_key(*l))
            .map(String::as_str)
            .collect()
    } else {
        Vec::new()
    };
    if moved.is_empty() && unknown.is_empty() && missing.is_empty() {
        return Ok(());
    }
    let mut msg = format!("{} labels compared", run.len());
    for (what, labels) in [
        ("moved", &moved),
        ("not in the baseline", &unknown),
        ("in the baseline but not run", &missing),
    ] {
        if !labels.is_empty() {
            let shown: Vec<&str> = labels.iter().take(10).copied().collect();
            let more = labels.len() - shown.len();
            let _ = write!(msg, "; {} {what}: {}", labels.len(), shown.join(", "));
            if more > 0 {
                let _ = write!(msg, " and {more} more");
            }
        }
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(l, h)| (l.to_string(), h)).collect()
    }

    #[test]
    fn fnv1a_is_pinned() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn add_folds_parts_with_a_separator() {
        let mut d = Digests::new("unused", "unused", "g");
        d.add("one", "ab");
        d.add("two", "a");
        d.add("two", "b");
        assert_ne!(d.table["g/one"], d.table["g/two"]);
        assert_eq!(d.table["g/one"], fold(fnv1a(b"ab"), &[0xff]));
    }

    #[test]
    fn a_moved_label_fails_and_is_named() {
        let base = table(&[("g/a", 1), ("g/b", 2)]);
        let run = table(&[("g/a", 1), ("g/b", 3)]);
        let err = compare(&base, &run, "g", true).expect_err("moved");
        assert!(err.contains("1 moved: g/b"), "{err}");
        assert_eq!(compare(&base, &base, "g", true), Ok(()));
    }

    #[test]
    fn a_label_missing_from_the_baseline_fails() {
        let base = table(&[("g/a", 1)]);
        let run = table(&[("g/a", 1), ("g/new", 5)]);
        for exact in [true, false] {
            let err = compare(&base, &run, "g", exact).expect_err("unknown label");
            assert!(err.contains("not in the baseline: g/new"), "{err}");
        }
    }

    #[test]
    fn a_run_comparing_no_label_fails() {
        let base = table(&[("g/a", 1)]);
        for exact in [true, false] {
            let err = compare(&base, &BTreeMap::new(), "g", exact).expect_err("empty");
            assert!(err.contains("no label"), "{err}");
        }
    }

    #[test]
    fn only_an_exact_check_requires_every_group_label() {
        let base = table(&[("g/a", 1), ("g/b", 2), ("gx/c", 3), ("h/d", 4)]);
        let run = table(&[("g/a", 1)]);
        assert_eq!(compare(&base, &run, "g", false), Ok(()));
        let err = compare(&base, &run, "g", true).expect_err("g/b not run");
        assert!(err.contains("1 in the baseline but not run: g/b"), "{err}");
    }

    #[test]
    fn baselines_round_trip_and_reject_malformed_lines() {
        let text = "g/a b c 00000000000000ff\ng/d 0123456789abcdef\n";
        let parsed = parse(text).expect("well formed");
        assert_eq!(parsed["g/a b c"], 0xff);
        assert_eq!(parsed["g/d"], 0x0123_4567_89ab_cdef);
        assert!(parse("no-hash\n").is_err());
        assert!(parse("g/a 1\ng/a 2\n").is_err());
    }

    #[test]
    fn a_failed_check_writes_the_merged_table() {
        let dir = std::env::temp_dir().join(format!("bds-prop-digest-{}", std::process::id()));
        let (base, out) = (dir.join("base.txt"), dir.join("out/suite.txt"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::fs::write(&base, "g/a 0000000000000001\nh/b 0000000000000002\n").expect("writes");
        let mut d = Digests::new(&base, &out, "g");
        d.add("a", "x");
        let hash = d.table["g/a"];
        let err = std::panic::catch_unwind(move || d.check()).expect_err("moved");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("moved: g/a"), "{msg}");
        let written = std::fs::read_to_string(&out).expect("table written");
        assert_eq!(written, format!("g/a {hash:016x}\nh/b 0000000000000002\n"));
        std::fs::remove_dir_all(&dir).expect("cleans up");
    }
}
