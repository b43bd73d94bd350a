//! A thread's trace: counters, gauges and the span call tree, plus the
//! detached [`Snapshot`] they drain into. The live registry is
//! thread-local (`store.rs`); counters sum, gauges keep the maximum
//! (every gauge in this workspace is a peak), and span trees merge by
//! `(parent, name)` when a snapshot is absorbed.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::span::fmt_duration_ns;
use crate::store::with;

/// One aggregated node of the span call tree in a [`Snapshot`].
///
/// Spans with the same name under the same parent are merged: `calls`
/// counts how many guard drops landed here and `total_ns` sums their
/// wall-clock time. Children appear in first-entered order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnap {
    /// Span name as passed to `span!` / [`crate::span_enter`].
    pub name: String,
    /// Completed enter/exit pairs aggregated into this node.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_ns: u64,
    /// Child spans in first-entered order.
    pub children: Vec<SpanSnap>,
}

/// A point-in-time copy of every metric in the registry, detached from
/// the live registry and safe to ship to a sink.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Peak gauges (the higher value wins), sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Root spans in first-entered order.
    pub spans: Vec<SpanSnap>,
}

impl Snapshot {
    /// Value of a counter by name, if it was ever incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by name, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }

    /// Renders the snapshot as an indented human-readable tree.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                render_span(s, 1, &mut out);
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name} = {v}\n"));
            }
        }
        out
    }

    /// Serializes the snapshot into the report JSON shape (the `trace`
    /// section of a `bds-trace-report/v1` file).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::Int(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), Json::Int(*v)))
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
        ])
    }
}

fn render_span(s: &SpanSnap, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let calls = if s.calls == 1 {
        "1 call".to_string()
    } else {
        format!("{} calls", s.calls)
    };
    out.push_str(&format!(
        "{indent}{:<28} {:>9}  {}\n",
        s.name,
        calls,
        fmt_duration_ns(s.total_ns)
    ));
    for c in &s.children {
        render_span(c, depth + 1, out);
    }
}

fn span_to_json(s: &SpanSnap) -> Json {
    let mut fields = vec![
        ("name".into(), Json::Str(s.name.clone())),
        ("calls".into(), Json::Int(s.calls)),
        ("ns".into(), Json::Int(s.total_ns)),
    ];
    if !s.children.is_empty() {
        fields.push((
            "children".into(),
            Json::Arr(s.children.iter().map(span_to_json).collect()),
        ));
    }
    Json::Obj(fields)
}

/// Live span node: index-linked tree in a flat arena. Names are owned
/// strings so absorbed worker snapshots (whose names arrive as `String`)
/// and macro call sites (`&'static str`) share one arena.
struct SpanNode {
    name: String,
    calls: u64,
    total_ns: u64,
    children: Vec<usize>,
}

#[derive(Default)]
pub(crate) struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    arena: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
}

impl Registry {
    /// Finds or creates the span node `name` under `parent` (or the root
    /// set) without touching the stack. Shared by `enter` and `absorb`.
    fn node_under(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings: &[usize] = match parent {
            Some(p) => &self.arena[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.arena[i].name == name);
        match found {
            Some(i) => i,
            None => {
                let i = self.arena.len();
                self.arena.push(SpanNode {
                    name: name.to_string(),
                    calls: 0,
                    total_ns: 0,
                    children: Vec::new(),
                });
                match parent {
                    Some(p) => self.arena[p].children.push(i),
                    None => self.roots.push(i),
                }
                i
            }
        }
    }

    /// Finds or creates the child span `name` under the current stack
    /// top (or the root set), and makes it the new top.
    pub(crate) fn enter(&mut self, name: &str) -> usize {
        let idx = self.node_under(self.stack.last().copied(), name);
        self.stack.push(idx);
        idx
    }

    /// Merges a snapshot span tree under `parent`: calls and nanoseconds
    /// add, children recurse.
    fn absorb_span(&mut self, parent: Option<usize>, snap: &SpanSnap) {
        let idx = self.node_under(parent, &snap.name);
        self.arena[idx].calls += snap.calls;
        self.arena[idx].total_ns = self.arena[idx].total_ns.saturating_add(snap.total_ns);
        for child in &snap.children {
            self.absorb_span(Some(idx), child);
        }
    }

    /// Folds a detached snapshot into this registry: counters add,
    /// gauges keep the maximum, and the snapshot's span roots merge
    /// under `parent` (or at root level).
    pub(crate) fn absorb(&mut self, snap: &Snapshot, parent: Option<usize>) {
        for (name, v) in &snap.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &snap.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*v);
        }
        for s in &snap.spans {
            self.absorb_span(parent, s);
        }
    }

    /// Records a completed span. Normally the guard being dropped sits on
    /// top of the stack; if a reset disturbed the stack we recover by
    /// matching the nearest enclosing span of the same name, or
    /// re-entering it, so drops never panic and nesting stays balanced.
    pub(crate) fn exit(&mut self, name: &str, ns: u64) {
        let idx = match self.stack.iter().rposition(|&i| self.arena[i].name == name) {
            Some(pos) => {
                let idx = self.stack[pos];
                self.stack.truncate(pos);
                idx
            }
            None => {
                let idx = self.enter(name);
                self.stack.pop();
                idx
            }
        };
        self.arena[idx].calls += 1;
        self.arena[idx].total_ns = self.arena[idx].total_ns.saturating_add(ns);
    }

    /// The innermost open span, if any.
    pub(crate) fn open_span(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Names of the open spans, outermost first.
    pub(crate) fn open_names(&self) -> Vec<String> {
        self.stack
            .iter()
            .map(|&i| self.arena[i].name.clone())
            .collect()
    }

    fn snapshot_span(&self, idx: usize) -> SpanSnap {
        let node = &self.arena[idx];
        SpanSnap {
            name: node.name.clone(),
            calls: node.calls,
            total_ns: node.total_ns,
            children: node
                .children
                .iter()
                .map(|&c| self.snapshot_span(c))
                .collect(),
        }
    }

    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            spans: self.roots.iter().map(|&i| self.snapshot_span(i)).collect(),
        }
    }
}

/// Adds `by` to the named monotonic counter, creating it at zero first.
pub fn add_counter(name: &'static str, by: u64) {
    with(|r| {
        // Fast path avoids allocating the key on every increment.
        if let Some(v) = r.counters.get_mut(name) {
            *v += by;
        } else {
            r.counters.insert(name.to_string(), by);
        }
    });
}

/// Raises the named gauge to `value` (the higher value wins). Every
/// gauge in this workspace is a peak, and absorbing a worker trace
/// already maxes gauges — keeping the same rule *within* a thread makes
/// a sequential run and a worker-merged run agree: two flow candidates
/// running back-to-back on one thread record the same peak as the same
/// candidates running on two absorbed workers.
pub fn set_gauge(name: &'static str, value: u64) {
    with(|r| {
        if let Some(v) = r.gauges.get_mut(name) {
            *v = (*v).max(value);
        } else {
            r.gauges.insert(name.to_string(), value);
        }
    });
}

/// Number of currently open spans on this thread. Mainly for tests: a
/// balanced workload must come back to the depth it started at.
#[must_use]
pub fn span_depth() -> usize {
    with(|r| r.stack.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reset;

    #[test]
    fn spans_aggregate_by_parent_and_name() {
        reset();
        for _ in 0..3 {
            let _outer = crate::span_enter("outer");
            let _inner = crate::span_enter("inner");
        }
        {
            let _other = crate::span_enter("other");
        }
        let snap = crate::take();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].calls, 3);
        assert_eq!(snap.spans[0].children.len(), 1);
        assert_eq!(snap.spans[0].children[0].name, "inner");
        assert_eq!(snap.spans[0].children[0].calls, 3);
        assert_eq!(snap.spans[1].name, "other");
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn snapshot_preserves_open_span_chain() {
        reset();
        let outer = crate::span_enter("outer");
        // Setting the state aside keeps the open chain live…
        let first = crate::set_aside();
        assert_eq!(span_depth(), 1);
        {
            let _inner = crate::span_enter("inner");
        }
        crate::rejoin(first, true);
        // …so the work in between nests under the guard opened before it.
        drop(outer);
        let second = crate::take();
        assert_eq!(second.spans.len(), 1);
        assert_eq!(second.spans[0].name, "outer");
        assert_eq!(second.spans[0].calls, 1);
        assert_eq!(second.spans[0].children[0].name, "inner");
        assert_eq!(span_depth(), 0);
    }

    #[test]
    fn counters_gauges_and_lookup() {
        reset();
        add_counter("a", 2);
        add_counter("a", 3);
        set_gauge("g", 7);
        set_gauge("g", 9);
        let snap = crate::take();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.gauge("g"), Some(9));
        assert!(crate::take().is_empty());
    }

    /// Absorbs `parts` in order into an empty store and drains it.
    fn absorbed(parts: &[Snapshot]) -> Snapshot {
        reset();
        for p in parts {
            crate::absorb(p.clone());
        }
        crate::take()
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let a = Snapshot {
            counters: vec![("x".into(), 2), ("y".into(), 1)],
            gauges: vec![("peak".into(), 10)],
            ..Snapshot::default()
        };
        let b = Snapshot {
            counters: vec![("x".into(), 3), ("z".into(), 7)],
            gauges: vec![("peak".into(), 4), ("other".into(), 9)],
            ..Snapshot::default()
        };
        let merged = absorbed(&[a, b]);
        assert_eq!(merged.counter("x"), Some(5));
        assert_eq!(merged.counter("y"), Some(1));
        assert_eq!(merged.counter("z"), Some(7));
        assert_eq!(merged.gauge("peak"), Some(10));
        assert_eq!(merged.gauge("other"), Some(9));
        // Names stay sorted so merged reports render deterministically.
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn snapshot_merge_combines_span_trees_by_name() {
        let tree = |calls| SpanSnap {
            name: "flow.build".into(),
            calls,
            total_ns: 10,
            children: vec![SpanSnap {
                name: "inner".into(),
                calls,
                total_ns: 5,
                children: Vec::new(),
            }],
        };
        let a = Snapshot {
            spans: vec![tree(2)],
            ..Snapshot::default()
        };
        let b = Snapshot {
            spans: vec![
                tree(3),
                SpanSnap {
                    name: "flow.reorder".into(),
                    calls: 1,
                    total_ns: 1,
                    children: Vec::new(),
                },
            ],
            ..Snapshot::default()
        };
        let merged = absorbed(&[a, b]);
        assert_eq!(merged.spans.len(), 2);
        assert_eq!(merged.spans[0].calls, 5);
        assert_eq!(merged.spans[0].total_ns, 20);
        assert_eq!(merged.spans[0].children[0].calls, 5);
        assert_eq!(merged.spans[1].name, "flow.reorder");
    }

    #[test]
    fn absorb_snapshot_grafts_under_open_span() {
        reset();
        let worker = Snapshot {
            counters: vec![("w.steps".into(), 4)],
            spans: vec![SpanSnap {
                name: "flow.build".into(),
                calls: 4,
                total_ns: 40,
                children: Vec::new(),
            }],
            ..Snapshot::default()
        };
        {
            let _flow = crate::span_enter("flow");
            crate::absorb(worker.clone());
            crate::absorb(worker);
        }
        let snap = crate::take();
        assert_eq!(snap.counter("w.steps"), Some(8));
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "flow");
        let child = &snap.spans[0].children[0];
        assert_eq!((child.name.as_str(), child.calls), ("flow.build", 8));
    }

    #[test]
    fn render_tree_mentions_all_sections() {
        reset();
        add_counter("c", 1);
        set_gauge("g", 2);
        {
            let _s = crate::span_enter("root");
        }
        let text = crate::take().render_tree();
        for needle in ["spans:", "counters:", "gauges:", "root", "c = 1"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
