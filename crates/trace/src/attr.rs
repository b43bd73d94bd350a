//! Perf attribution: span-level blame for report regressions.
//!
//! The gate ([`crate::gate`]) says *that* a metric moved; this module
//! says *which span or counter moved it*. [`diff_reports`] walks the
//! embedded `"trace"` objects of two `bds-trace-report/v1` documents,
//! flattens each circuit's span tree into `;`-joined paths, and
//! computes per-path deltas of
//!
//! * **self time** — a span's wall nanoseconds minus its children's
//!   (child-exclusive, so a parent is not blamed for a child's
//!   regression), and
//! * **call count** — exact under the determinism contract, so any
//!   call-count delta is itself a structural finding.
//!
//! Counter deltas ride along from the same `"trace"` objects. Culprits
//! are ranked by self-time growth across all circuits;
//! [`AttrReport::render_blame`] prints the top-K table that
//! `summary --compare` and `cargo xtask perfgate` show under any
//! regression, and [`AttrReport::to_json`] is the `bds-attr-report/v1`
//! artifact CI uploads next to the fresh report.

use std::collections::BTreeMap;

use crate::json::Json;

/// Schema identifier written by [`AttrReport::to_json`].
pub const ATTR_SCHEMA: &str = "bds-attr-report/v1";

/// How many culprits [`AttrReport::render_blame`] prints by default.
pub const DEFAULT_TOP_K: usize = 5;

/// One span path's movement between baseline and current run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanDelta {
    /// Circuit the span belongs to.
    pub circuit: String,
    /// `;`-joined span path (`"flow;flow.decompose"`).
    pub path: String,
    /// Completed calls in the baseline / current run.
    pub calls: (u64, u64),
    /// Child-exclusive (self) wall nanoseconds, baseline / current.
    pub self_ns: (u64, u64),
    /// Total (inclusive) wall nanoseconds, baseline / current.
    pub total_ns: (u64, u64),
}

impl SpanDelta {
    /// Signed self-time movement in nanoseconds (positive = slower).
    #[must_use]
    pub fn self_delta_ns(&self) -> i64 {
        i64::try_from(self.self_ns.1)
            .unwrap_or(i64::MAX)
            .saturating_sub(i64::try_from(self.self_ns.0).unwrap_or(i64::MAX))
    }

    /// Signed call-count movement (positive = more calls).
    #[must_use]
    pub fn calls_delta(&self) -> i64 {
        i64::try_from(self.calls.1)
            .unwrap_or(i64::MAX)
            .saturating_sub(i64::try_from(self.calls.0).unwrap_or(i64::MAX))
    }
}

/// One counter's movement between baseline and current run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterDelta {
    /// Circuit the counter belongs to.
    pub circuit: String,
    /// Counter name (`"bdd.ite_calls"`).
    pub name: String,
    /// Baseline / current values.
    pub values: (u64, u64),
}

impl CounterDelta {
    /// Signed movement (positive = the counter grew).
    #[must_use]
    pub fn delta(&self) -> i64 {
        i64::try_from(self.values.1)
            .unwrap_or(i64::MAX)
            .saturating_sub(i64::try_from(self.values.0).unwrap_or(i64::MAX))
    }
}

/// Attribution of a report diff: ranked span and counter deltas.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AttrReport {
    /// Span deltas across all matched circuits, sorted by self-time
    /// growth (worst regression first; improvements at the tail).
    pub spans: Vec<SpanDelta>,
    /// Counter deltas across all matched circuits, sorted by absolute
    /// movement (largest first).
    pub counters: Vec<CounterDelta>,
    /// Circuits present in both reports (matched by name).
    pub matched: usize,
}

/// Flattens a `"trace"` span tree (the `{name, calls, ns, children}`
/// shape [`crate::Snapshot::to_json`] writes) into path-keyed rows.
fn flatten_spans(spans: &Json, prefix: &str, out: &mut BTreeMap<String, (u64, u64, u64)>) {
    let Some(spans) = spans.as_arr() else { return };
    for s in spans {
        let (Some(name), Some(calls), Some(ns)) = (
            s.get("name").and_then(Json::as_str),
            s.get("calls").and_then(Json::as_u64),
            s.get("ns").and_then(Json::as_u64),
        ) else {
            continue;
        };
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix};{name}")
        };
        let child_ns: u64 = s.get("children").and_then(Json::as_arr).map_or(0, |cs| {
            cs.iter()
                .filter_map(|c| c.get("ns").and_then(Json::as_u64))
                .sum()
        });
        let entry = out.entry(path.clone()).or_insert((0, 0, 0));
        entry.0 += calls;
        entry.1 += ns.saturating_sub(child_ns);
        entry.2 += ns;
        if let Some(children) = s.get("children") {
            flatten_spans(children, &path, out);
        }
    }
}

fn find_circuit<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("circuits")?
        .as_arr()?
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
}

fn counters_of(trace: &Json) -> BTreeMap<String, u64> {
    trace
        .get("counters")
        .and_then(Json::entries)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(n, v)| v.as_u64().map(|v| (n.clone(), v)))
                .collect()
        })
        .unwrap_or_default()
}

/// Diffs two `bds-trace-report/v1` documents span-by-span and
/// counter-by-counter. Circuits are matched by name; circuits or
/// `"trace"` objects present on only one side are skipped (a baseline
/// from an older schema attributes nothing rather than erroring).
///
/// # Errors
/// Returns a description when either document is not a
/// `bds-trace-report/v1` report with a `circuits` array.
pub fn diff_reports(baseline: &Json, current: &Json) -> Result<AttrReport, String> {
    for (doc, which) in [(baseline, "baseline"), (current, "current")] {
        match doc.get("schema").and_then(Json::as_str) {
            Some(crate::gate::REPORT_SCHEMA) => {}
            other => return Err(format!("{which} report has unsupported schema {other:?}")),
        }
    }
    let current_circuits = current
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("current report has no circuits array")?;
    baseline
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("baseline report has no circuits array")?;

    let mut report = AttrReport::default();
    for fresh in current_circuits {
        let Some(name) = fresh.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(base) = find_circuit(baseline, name) else {
            continue;
        };
        report.matched += 1;
        let (Some(bt), Some(ct)) = (base.get("trace"), fresh.get("trace")) else {
            continue;
        };

        let mut base_spans = BTreeMap::new();
        let mut cur_spans = BTreeMap::new();
        if let Some(s) = bt.get("spans") {
            flatten_spans(s, "", &mut base_spans);
        }
        if let Some(s) = ct.get("spans") {
            flatten_spans(s, "", &mut cur_spans);
        }
        let mut paths: Vec<&String> = base_spans.keys().chain(cur_spans.keys()).collect();
        paths.sort();
        paths.dedup();
        for path in paths {
            let b = base_spans.get(path).copied().unwrap_or((0, 0, 0));
            let c = cur_spans.get(path).copied().unwrap_or((0, 0, 0));
            report.spans.push(SpanDelta {
                circuit: name.to_string(),
                path: path.clone(),
                calls: (b.0, c.0),
                self_ns: (b.1, c.1),
                total_ns: (b.2, c.2),
            });
        }

        let base_counters = counters_of(bt);
        let cur_counters = counters_of(ct);
        let mut names: Vec<&String> = base_counters.keys().chain(cur_counters.keys()).collect();
        names.sort();
        names.dedup();
        for n in names {
            let b = base_counters.get(n).copied().unwrap_or(0);
            let c = cur_counters.get(n).copied().unwrap_or(0);
            if b != c {
                report.counters.push(CounterDelta {
                    circuit: name.to_string(),
                    name: n.clone(),
                    values: (b, c),
                });
            }
        }
    }

    // Worst self-time growth first; ties broken by (circuit, path) so
    // the ranking is deterministic across runs.
    report.spans.sort_by(|a, b| {
        b.self_delta_ns()
            .cmp(&a.self_delta_ns())
            .then_with(|| (&a.circuit, &a.path).cmp(&(&b.circuit, &b.path)))
    });
    report.counters.sort_by(|a, b| {
        b.delta()
            .abs()
            .cmp(&a.delta().abs())
            .then_with(|| (&a.circuit, &a.name).cmp(&(&b.circuit, &b.name)))
    });
    Ok(report)
}

#[expect(clippy::cast_precision_loss, reason = "summary stats; f64 loss fine")]
fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

impl AttrReport {
    /// The `top_k` worst span culprits by self-time growth, truncated
    /// to the prefix that actually moved: spans with zero call and
    /// self-time delta are matched context, not culprits.
    #[must_use]
    pub fn top_culprits(&self, top_k: usize) -> &[SpanDelta] {
        let moved = self
            .spans
            .iter()
            .take_while(|d| d.self_delta_ns() != 0 || d.calls_delta() != 0)
            .count();
        &self.spans[..moved.min(top_k)]
    }

    /// Human-readable blame table: the `top_k` guilty span paths (by
    /// self-time growth) and the `top_k` largest counter movements.
    #[must_use]
    pub fn render_blame(&self, top_k: usize) -> String {
        let mut out = String::new();
        let culprits = self.top_culprits(top_k);
        if culprits.is_empty() && self.counters.is_empty() {
            out.push_str("blame: no span or counter deltas attributable\n");
            return out;
        }
        if !culprits.is_empty() {
            out.push_str(&format!(
                "blame: top {} span path(s) by self-time delta\n",
                culprits.len()
            ));
            out.push_str(&format!(
                "  {:<12} {:<36} {:>10} {:>12} {:>12}\n",
                "circuit", "span path", "Δcalls", "self-ms", "Δself-ms"
            ));
            for d in culprits {
                out.push_str(&format!(
                    "  {:<12} {:<36} {:>+10} {:>12.3} {:>+12.3}\n",
                    d.circuit,
                    d.path,
                    d.calls_delta(),
                    ms(d.self_ns.1),
                    ms(d.self_ns.1) - ms(d.self_ns.0),
                ));
            }
        }
        if !self.counters.is_empty() {
            let shown = self.counters.len().min(top_k);
            out.push_str(&format!("blame: top {shown} counter movement(s)\n"));
            for d in &self.counters[..shown] {
                out.push_str(&format!(
                    "  {:<12} {:<36} {} -> {} ({:+})\n",
                    d.circuit,
                    d.name,
                    d.values.0,
                    d.values.1,
                    d.delta()
                ));
            }
        }
        out
    }

    /// Serializes the full attribution as a `bds-attr-report/v1`
    /// document (every delta, not just the rendered top-K).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(d.circuit.clone())),
                    ("path".into(), Json::Str(d.path.clone())),
                    ("calls_base".into(), Json::Int(d.calls.0)),
                    ("calls_new".into(), Json::Int(d.calls.1)),
                    ("self_ns_base".into(), Json::Int(d.self_ns.0)),
                    ("self_ns_new".into(), Json::Int(d.self_ns.1)),
                    ("total_ns_base".into(), Json::Int(d.total_ns.0)),
                    ("total_ns_new".into(), Json::Int(d.total_ns.1)),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|d| {
                Json::Obj(vec![
                    ("circuit".into(), Json::Str(d.circuit.clone())),
                    ("name".into(), Json::Str(d.name.clone())),
                    ("base".into(), Json::Int(d.values.0)),
                    ("new".into(), Json::Int(d.values.1)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(ATTR_SCHEMA.into())),
            ("matched".into(), Json::Int(self.matched as u64)),
            ("spans".into(), Json::Arr(spans)),
            ("counters".into(), Json::Arr(counters)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::REPORT_SCHEMA;

    /// A minimal report: one circuit with a span tree and counters.
    fn report(spans: Json, counters: &[(&str, u64)]) -> Json {
        let counters = counters
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::Int(v)))
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            (
                "circuits".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("csel8".into())),
                    (
                        "trace".into(),
                        Json::Obj(vec![
                            ("counters".into(), Json::Obj(counters)),
                            ("spans".into(), spans),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    fn span(name: &str, calls: u64, ns: u64, children: Vec<Json>) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(name.into())),
            ("calls".into(), Json::Int(calls)),
            ("ns".into(), Json::Int(ns)),
        ];
        if !children.is_empty() {
            fields.push(("children".into(), Json::Arr(children)));
        }
        Json::Obj(fields)
    }

    fn flow(decompose_ns: u64, decompose_calls: u64) -> Json {
        Json::Arr(vec![span(
            "flow",
            1,
            decompose_ns + 2_000_000,
            vec![
                span("flow.build", 3, 1_000_000, vec![]),
                span("flow.decompose", decompose_calls, decompose_ns, vec![]),
            ],
        )])
    }

    #[test]
    fn blames_the_span_that_grew() {
        let base = report(flow(4_000_000, 3), &[("bdd.ite_calls", 100)]);
        let fresh = report(flow(9_000_000, 5), &[("bdd.ite_calls", 260)]);
        let attr = diff_reports(&base, &fresh).unwrap();
        assert_eq!(attr.matched, 1);
        // The guilty path ranks first, with child-exclusive attribution:
        // `flow` itself gained nothing (its self time is constant).
        let top = &attr.top_culprits(1)[0];
        assert_eq!(top.path, "flow;flow.decompose");
        assert_eq!(top.calls, (3, 5));
        assert_eq!(top.self_delta_ns(), 5_000_000);
        let flow_self = attr
            .spans
            .iter()
            .find(|d| d.path == "flow")
            .expect("flow delta present");
        assert_eq!(flow_self.self_delta_ns(), 0);
        // Counter movement rides along.
        assert_eq!(attr.counters.len(), 1);
        assert_eq!(attr.counters[0].delta(), 160);
        let blame = attr.render_blame(3);
        assert!(blame.contains("flow;flow.decompose"), "{blame}");
        assert!(blame.contains("bdd.ite_calls"), "{blame}");
    }

    #[test]
    fn improvements_rank_last_and_missing_paths_count_as_zero() {
        let base = report(flow(9_000_000, 5), &[]);
        let fresh = report(Json::Arr(vec![span("flow", 1, 1_000_000, vec![])]), &[]);
        let attr = diff_reports(&base, &fresh).unwrap();
        // flow.decompose vanished: current side is all zeros.
        let gone = attr
            .spans
            .iter()
            .find(|d| d.path == "flow;flow.decompose")
            .unwrap();
        assert_eq!(gone.self_ns.1, 0);
        assert!(gone.self_delta_ns() < 0);
        // The most-improved path sorts to the tail.
        assert_eq!(attr.spans.last().unwrap().path, "flow;flow.decompose");
    }

    #[test]
    fn attr_json_is_schema_tagged_and_complete() {
        let base = report(flow(4_000_000, 3), &[("a.b", 1)]);
        let fresh = report(flow(5_000_000, 3), &[("a.b", 2)]);
        let attr = diff_reports(&base, &fresh).unwrap();
        let doc = attr.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(ATTR_SCHEMA));
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(attr.spans.len())
        );
        assert_eq!(
            doc.get("counters")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn wrong_schema_is_rejected_and_traceless_reports_attribute_nothing() {
        let good = report(flow(1, 1), &[]);
        let bad = Json::Obj(vec![("schema".into(), Json::Str("nope/v9".into()))]);
        assert!(diff_reports(&bad, &good).is_err());
        let bare = Json::Obj(vec![
            ("schema".into(), Json::Str(REPORT_SCHEMA.into())),
            (
                "circuits".into(),
                Json::Arr(vec![Json::Obj(vec![(
                    "name".into(),
                    Json::Str("csel8".into()),
                )])]),
            ),
        ]);
        let attr = diff_reports(&bare, &good).unwrap();
        assert_eq!(attr.matched, 1);
        assert!(attr.spans.is_empty());
        assert!(attr
            .render_blame(5)
            .contains("no span or counter deltas attributable"));
    }
}
