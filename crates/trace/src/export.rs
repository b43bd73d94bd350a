//! Trace exporters: Chrome/Perfetto trace-event JSON and folded-stack
//! flamegraph text.
//!
//! [`perfetto_trace`] turns a [`Journal`] into the Chrome trace-event
//! array format that `ui.perfetto.dev` and `chrome://tracing` load
//! directly: span enters become `"ph": "B"` records, exits `"ph": "E"`,
//! and `event!` marks become thread-scoped instants (`"ph": "i"`) whose
//! fields ride along in `args`. Timestamps are microseconds (the format's
//! unit), derived from the journal's nanosecond clock.
//!
//! [`folded_stacks`] renders a [`Snapshot`]'s aggregated span tree in the
//! `semicolon;separated;stack value` format consumed by Brendan Gregg's
//! `flamegraph.pl` and by speedscope. One line is emitted per span-tree
//! **leaf**, carrying the leaf's total nanoseconds, so the file's line
//! count equals the tree's leaf count.

use crate::journal::{EventKind, FieldValue, Journal};
use crate::json::Json;
use crate::registry::{Snapshot, SpanSnap};

// Json::Int is unsigned; negative deltas go through Num. Journal deltas
// are tiny, so the f64 round-trip is exact.
#[expect(clippy::cast_precision_loss, reason = "tiny journal deltas stay exact")]
fn field_to_json(v: &FieldValue) -> Json {
    match v {
        FieldValue::U64(v) => Json::Int(*v),
        FieldValue::I64(v) => Json::Num(*v as f64),
        FieldValue::F64(v) => Json::Num(*v),
        FieldValue::Bool(b) => Json::Bool(*b),
        FieldValue::Str(s) => Json::Str(s.clone()),
    }
}

// Trace-event timestamps are microseconds; keep sub-µs precision as a
// fractional part.
#[expect(
    clippy::cast_precision_loss,
    reason = "nanosecond timestamps sit far below f64's exact-integer range"
)]
fn ts_us(ts_ns: u64) -> Json {
    Json::Num(ts_ns as f64 / 1000.0)
}

fn trace_record(ph: &str, name: &str, ts_ns: u64, tid: u64) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::Str(name.to_string())),
        ("ph".into(), Json::Str(ph.to_string())),
        ("ts".into(), ts_us(ts_ns)),
        ("pid".into(), Json::Int(1)),
        ("tid".into(), Json::Int(tid)),
    ]
}

/// Converts a journal into a Chrome/Perfetto trace-event JSON array.
///
/// The output is always well-formed for the viewer even when the ring
/// buffer evicted events mid-span: exit events whose enter was evicted
/// are dropped, and spans still open when the journal ends are closed at
/// the journal's final timestamp, so `B`/`E` records always balance per
/// thread.
#[must_use]
pub fn perfetto_trace(journal: &Journal) -> Json {
    use std::collections::BTreeMap;

    let mut records = Vec::new();
    // Per-thread stack of open span names, for B/E balancing.
    let mut open: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();

    for e in &journal.events {
        last_ts.insert(e.thread, e.ts_ns);
        match e.kind {
            EventKind::SpanEnter => {
                open.entry(e.thread).or_default().push(e.name);
                records.push(Json::Obj(trace_record("B", e.name, e.ts_ns, e.thread)));
            }
            EventKind::SpanExit => {
                let stack = open.entry(e.thread).or_default();
                // An exit without a surviving enter means the ring
                // evicted the enter: skip it rather than unbalance the
                // stream. Mismatched names (a snapshot reset mid-span)
                // close the intervening spans first.
                if let Some(pos) = stack.iter().rposition(|&n| n == e.name) {
                    for name in stack.drain(pos..).rev() {
                        records.push(Json::Obj(trace_record("E", name, e.ts_ns, e.thread)));
                    }
                }
            }
            EventKind::Instant => {
                let mut rec = trace_record("i", e.name, e.ts_ns, e.thread);
                rec.push(("s".into(), Json::Str("t".to_string())));
                if !e.fields.is_empty() {
                    let args = e
                        .fields
                        .iter()
                        .map(|(k, v)| ((*k).to_string(), field_to_json(v)))
                        .collect();
                    rec.push(("args".into(), Json::Obj(args)));
                }
                records.push(Json::Obj(rec));
            }
        }
    }

    // Close anything still open so every B has an E.
    for (thread, stack) in &mut open {
        let ts = last_ts.get(thread).copied().unwrap_or(0);
        while let Some(name) = stack.pop() {
            records.push(Json::Obj(trace_record("E", name, ts, *thread)));
        }
    }

    Json::Arr(records)
}

fn fold_span(span: &SpanSnap, path: &str, out: &mut String) {
    let here = if path.is_empty() {
        span.name.clone()
    } else {
        format!("{path};{}", span.name)
    };
    if span.children.is_empty() {
        out.push_str(&format!("{here} {}\n", span.total_ns));
    } else {
        for child in &span.children {
            fold_span(child, &here, out);
        }
    }
}

/// Renders a snapshot's span tree as folded stacks: one line per leaf,
/// `root;child;leaf total_ns`. A non-empty `prefix` (e.g. a circuit
/// name) becomes the outermost frame of every stack.
#[must_use]
pub fn folded_stacks(snapshot: &Snapshot, prefix: &str) -> String {
    let mut out = String::new();
    for span in &snapshot.spans {
        fold_span(span, prefix, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Event;

    fn ev(ts_ns: u64, kind: EventKind, name: &'static str) -> Event {
        Event {
            ts_ns,
            thread: 1,
            kind,
            name,
            fields: Vec::new(),
        }
    }

    fn phases(j: &Json) -> Vec<(String, String)> {
        j.as_arr()
            .unwrap()
            .iter()
            .map(|r| {
                (
                    r.get("ph").unwrap().as_str().unwrap().to_string(),
                    r.get("name").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn spans_emit_balanced_begin_end_pairs() {
        let journal = Journal {
            events: vec![
                ev(1_000, EventKind::SpanEnter, "flow"),
                ev(2_000, EventKind::SpanEnter, "decompose"),
                ev(3_000, EventKind::SpanExit, "decompose"),
                ev(4_000, EventKind::SpanExit, "flow"),
            ],
            dropped: 0,
        };
        let trace = perfetto_trace(&journal);
        assert_eq!(
            phases(&trace),
            vec![
                ("B".into(), "flow".into()),
                ("B".into(), "decompose".into()),
                ("E".into(), "decompose".into()),
                ("E".into(), "flow".into()),
            ]
        );
        let first = &trace.as_arr().unwrap()[0];
        assert_eq!(first.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(first.get("pid").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn orphan_exits_dropped_and_open_spans_closed() {
        let journal = Journal {
            // The ring evicted the enter for "lost"; "flow" never exits.
            events: vec![
                ev(1_000, EventKind::SpanExit, "lost"),
                ev(2_000, EventKind::SpanEnter, "flow"),
                ev(3_000, EventKind::Instant, "mark"),
            ],
            dropped: 1,
        };
        let trace = perfetto_trace(&journal);
        let ph = phases(&trace);
        assert_eq!(
            ph,
            vec![
                ("B".into(), "flow".into()),
                ("i".into(), "mark".into()),
                ("E".into(), "flow".into()),
            ]
        );
        // The synthetic close lands at the journal's last timestamp.
        let close = &trace.as_arr().unwrap()[2];
        assert_eq!(close.get("ts").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn instant_args_carry_typed_fields() {
        let journal = Journal {
            events: vec![Event {
                ts_ns: 500,
                thread: 2,
                kind: EventKind::Instant,
                name: "decompose.choice",
                fields: vec![
                    ("method", FieldValue::Str("and_dom".into())),
                    ("delta", FieldValue::I64(-3)),
                    ("nodes", FieldValue::U64(42)),
                    ("accepted", FieldValue::Bool(true)),
                ],
            }],
            dropped: 0,
        };
        let trace = perfetto_trace(&journal);
        let rec = &trace.as_arr().unwrap()[0];
        assert_eq!(rec.get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(rec.get("s").unwrap().as_str(), Some("t"));
        let args = rec.get("args").unwrap();
        assert_eq!(args.get("method").unwrap().as_str(), Some("and_dom"));
        assert_eq!(args.get("delta").unwrap().as_f64(), Some(-3.0));
        assert_eq!(args.get("nodes").unwrap().as_u64(), Some(42));
        assert_eq!(args.get("accepted").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn folded_lines_equal_leaf_count() {
        let snap = Snapshot {
            spans: vec![SpanSnap {
                name: "flow".into(),
                calls: 1,
                total_ns: 100,
                children: vec![
                    SpanSnap {
                        name: "build".into(),
                        calls: 1,
                        total_ns: 40,
                        children: Vec::new(),
                    },
                    SpanSnap {
                        name: "decompose".into(),
                        calls: 1,
                        total_ns: 60,
                        children: vec![SpanSnap {
                            name: "shannon".into(),
                            calls: 2,
                            total_ns: 25,
                            children: Vec::new(),
                        }],
                    },
                ],
            }],
            ..Snapshot::default()
        };
        let folded = folded_stacks(&snap, "c432");
        assert_eq!(
            folded,
            "c432;flow;build 40\nc432;flow;decompose;shannon 25\n"
        );
        assert_eq!(folded.lines().count(), 2);
        let unprefixed = folded_stacks(&snap, "");
        assert!(unprefixed.starts_with("flow;build 40\n"));
    }
}
