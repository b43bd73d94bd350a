//! Structural gate: exact comparison of two `bds-trace-report/v1` files.
//!
//! Its front end is `cargo xtask perfgate` (`--baseline <a> --fresh <b>`
//! diffs any two reports). Circuits are matched by name; for each match
//! the gate compares every numeric field the baseline row carries in its
//! `bds`, `decompose` and `bdd_ops` objects (mapped gates, literals,
//! area, delay, memory proxies, decomposition step counts, BDD operation
//! counts). The flow is deterministic at any thread count, so any
//! difference — better or worse — is a mismatch: an intended change
//! regenerates the baseline. Two rules keep the comparison honest:
//!
//! * `bds.seconds` is the one field skipped: wall time is measured by the
//!   stand-alone `flowbench/` benchmark, not here;
//! * a field present in the baseline but missing from the fresh row is a
//!   mismatch, so a renamed or dropped field cannot silently pass.
//!
//! Integers compare exactly; floats get `FLOAT_EPSILON` (1e-6) of slack
//! for report-file round-tripping. The gate never fails on *missing*
//! circuits — a baseline from a different bench simply matches nothing
//! — but front ends that require overlap (perfgate) treat `matched == 0`
//! as an error themselves.

use crate::json::Json;

/// Report schema accepted by [`compare_reports`].
pub const REPORT_SCHEMA: &str = "bds-trace-report/v1";

/// The per-circuit objects whose numeric fields are gated.
const GATED_SECTIONS: [&str; 3] = ["bds", "decompose", "bdd_ops"];

/// Absolute slack for floating-point fields (area, delay, hit rates):
/// the values are deterministic, but they pass through `f64`
/// formatting and parsing on the way into a report file.
const FLOAT_EPSILON: f64 = 1e-6;

/// One gated field whose fresh value differs from the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct Mismatch {
    /// Circuit name the field belongs to.
    pub circuit: String,
    /// Field path, `section.field` (e.g. `decompose.shared`).
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Freshly measured value; `None` when the fresh row lacks the field.
    pub current: Option<f64>,
}

/// Result of gating one fresh report against a baseline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateOutcome {
    /// Circuits present in both reports.
    pub matched: usize,
    /// Gated fields compared across the matched circuits.
    pub compared: usize,
    /// Fields whose fresh value differs from (or is missing against)
    /// the baseline.
    pub mismatches: Vec<Mismatch>,
}

impl GateOutcome {
    /// `true` when every gated field matched.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable verdict, one line per mismatch.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "perfgate: {} circuit(s) matched, {} field(s) compared, {} mismatch(es)\n",
            self.matched,
            self.compared,
            self.mismatches.len()
        );
        for m in &self.mismatches {
            let current = m
                .current
                .map_or_else(|| "missing".to_string(), |c| c.to_string());
            out.push_str(&format!(
                "  MISMATCH {:<12} {:<24} baseline {} -> current {current}\n",
                m.circuit, m.field, m.baseline
            ));
        }
        out
    }
}

fn validate(doc: &Json, which: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(REPORT_SCHEMA) => Ok(()),
        other => Err(format!("{which} report has unsupported schema {other:?}")),
    }
}

fn find_circuit<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("circuits")?
        .as_arr()?
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
}

/// `true` when two report values agree: integers exactly, anything
/// else within [`FLOAT_EPSILON`].
fn same_value(baseline: &Json, current: &Json) -> bool {
    match (baseline, current) {
        (Json::Int(b), Json::Int(c)) => b == c,
        _ => match (baseline.as_f64(), current.as_f64()) {
            (Some(b), Some(c)) => (b - c).abs() <= FLOAT_EPSILON,
            _ => false,
        },
    }
}

/// Compares every gated field of one matched circuit.
fn gate_circuit(name: &str, base: &Json, fresh: &Json, outcome: &mut GateOutcome) {
    for section in GATED_SECTIONS {
        let Some(fields) = base.get(section).and_then(Json::entries) else {
            continue;
        };
        let fresh_section = fresh.get(section);
        for (field, b) in fields {
            let Some(baseline) = b.as_f64() else {
                continue;
            };
            if section == "bds" && field == "seconds" {
                continue;
            }
            outcome.compared += 1;
            let c = fresh_section.and_then(|s| s.get(field));
            if c.is_some_and(|c| same_value(b, c)) {
                continue;
            }
            outcome.mismatches.push(Mismatch {
                circuit: name.to_string(),
                field: format!("{section}.{field}"),
                baseline,
                current: c.and_then(Json::as_f64),
            });
        }
    }
}

/// Gates `current` against `baseline`.
///
/// # Errors
/// Returns a description when either document is not a
/// `bds-trace-report/v1` report with a `circuits` array.
pub fn compare_reports(baseline: &Json, current: &Json) -> Result<GateOutcome, String> {
    validate(baseline, "baseline")?;
    validate(current, "current")?;
    let current_circuits = current
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("current report has no circuits array")?;
    baseline
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("baseline report has no circuits array")?;

    let mut outcome = GateOutcome::default();
    for fresh in current_circuits {
        let Some(name) = fresh.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base) = find_circuit(baseline, name) else {
            continue;
        };
        outcome.matched += 1;
        gate_circuit(name, base, fresh, &mut outcome);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One report row: `bds` counts plus small `decompose` and
    /// `bdd_ops` objects, with a float in each float-carrying section.
    fn row(name: &str, gates: u64, literals: u64, seconds: f64) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(name.into())),
            (
                "bds".into(),
                Json::Obj(vec![
                    ("gates".into(), Json::Int(gates)),
                    ("area".into(), Json::Num(12.5)),
                    ("seconds".into(), Json::Num(seconds)),
                    ("literals".into(), Json::Int(literals)),
                    ("peak_arena_bytes".into(), Json::Int(4096)),
                ]),
            ),
            (
                "decompose".into(),
                Json::Obj(vec![
                    ("and_dom".into(), Json::Int(3)),
                    ("shared".into(), Json::Int(2)),
                ]),
            ),
            (
                "bdd_ops".into(),
                Json::Obj(vec![
                    ("ite_calls".into(), Json::Int(100)),
                    ("cache_hit_rate".into(), Json::Num(0.4)),
                ]),
            ),
        ])
    }

    fn report(rows: Vec<Json>) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            ("bench".into(), Json::Str("test".into())),
            ("circuits".into(), Json::Arr(rows)),
        ])
    }

    fn field_mut<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Obj(fields) = obj else {
            unreachable!()
        };
        fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap()
    }

    /// Applies `f` to field `section.field` of every row.
    fn edit(doc: &mut Json, section: &str, field: &str, f: impl Fn(&mut Json)) {
        let Json::Arr(rows) = field_mut(doc, "circuits") else {
            unreachable!()
        };
        for row in rows {
            f(field_mut(field_mut(row, section), field));
        }
    }

    fn bump(v: &mut Json) {
        if let Json::Int(n) = v {
            *n += 1;
        }
    }

    #[test]
    fn identical_reports_pass() {
        let doc = report(vec![row("a", 10, 20, 0.05), row("b", 5, 9, 0.01)]);
        let outcome = compare_reports(&doc, &doc).unwrap();
        assert!(outcome.passed());
        assert_eq!(outcome.matched, 2);
        // Eight gated fields per row: everything numeric but `seconds`.
        assert_eq!(outcome.compared, 16);
    }

    #[test]
    fn count_increase_is_an_exact_regression() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let fresh = report(vec![row("a", 11, 20, 0.05)]);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(
            outcome.mismatches,
            vec![Mismatch {
                circuit: "a".into(),
                field: "bds.gates".into(),
                baseline: 10.0,
                current: Some(11.0),
            }]
        );
        assert!(outcome.render().contains("MISMATCH a"));
    }

    #[test]
    fn improvements_fail_the_exact_gate() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let fresh = report(vec![row("a", 10, 19, 0.05)]);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.mismatches.len(), 1);
        assert_eq!(outcome.mismatches[0].field, "bds.literals");
    }

    #[test]
    fn one_more_shared_decomposition_fails() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let mut fresh = base.clone();
        edit(&mut fresh, "decompose", "shared", bump);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.mismatches.len(), 1);
        assert_eq!(outcome.mismatches[0].field, "decompose.shared");
        assert_eq!(outcome.mismatches[0].current, Some(3.0));
    }

    #[test]
    fn one_more_ite_call_fails() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let mut fresh = base.clone();
        edit(&mut fresh, "bdd_ops", "ite_calls", bump);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.mismatches.len(), 1);
        assert_eq!(outcome.mismatches[0].field, "bdd_ops.ite_calls");
    }

    #[test]
    fn wall_time_is_not_gated() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let fresh = report(vec![row("a", 10, 20, 9.0)]);
        assert!(compare_reports(&base, &fresh).unwrap().passed());
    }

    #[test]
    fn float_epsilon_absorbs_round_tripping() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let mut jitter = base.clone();
        edit(&mut jitter, "bdd_ops", "cache_hit_rate", |v| {
            *v = Json::Num(0.4 + 1e-9);
        });
        assert!(compare_reports(&base, &jitter).unwrap().passed());
        let mut moved = base.clone();
        edit(&mut moved, "bds", "area", |v| *v = Json::Num(12.6));
        assert!(!compare_reports(&base, &moved).unwrap().passed());
        // Bytes are integers: one extra byte fails.
        let mut bloat = base.clone();
        edit(&mut bloat, "bds", "peak_arena_bytes", bump);
        assert!(!compare_reports(&base, &bloat).unwrap().passed());
    }

    #[test]
    fn missing_fresh_field_is_a_mismatch() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let mut fresh = base.clone();
        edit(&mut fresh, "bds", "literals", |v| *v = Json::Null);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.mismatches.len(), 1);
        assert_eq!(outcome.mismatches[0].field, "bds.literals");
        assert_eq!(outcome.mismatches[0].current, None);
        assert!(outcome.render().contains("-> current missing"));
        // A whole missing section fails every field it should carry.
        let bare = report(vec![Json::Obj(vec![(
            "name".into(),
            Json::Str("a".into()),
        )])]);
        assert_eq!(compare_reports(&base, &bare).unwrap().mismatches.len(), 8);
    }

    #[test]
    fn disjoint_reports_match_nothing() {
        let base = report(vec![row("a", 10, 20, 0.05)]);
        let fresh = report(vec![row("z", 10, 20, 0.05)]);
        let outcome = compare_reports(&base, &fresh).unwrap();
        assert_eq!(outcome.matched, 0);
        assert!(outcome.passed());
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let good = report(Vec::new());
        let bad = Json::Obj(vec![("schema".into(), Json::Str("nope/v9".into()))]);
        assert!(compare_reports(&bad, &good).is_err());
        assert!(compare_reports(&good, &bad).is_err());
    }
}
