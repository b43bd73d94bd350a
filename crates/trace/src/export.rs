//! Folded-stack flamegraph export.
//!
//! [`Snapshot::folded`] renders the aggregated span tree in the
//! `semicolon;separated;stack value` format consumed by Brendan Gregg's
//! `flamegraph.pl` and by speedscope. One line is emitted per span-tree
//! **leaf**, carrying the leaf's total nanoseconds, so the output's line
//! count equals the tree's leaf count.

use crate::registry::{Snapshot, SpanSnap};

impl Snapshot {
    /// Renders the span tree as folded flamegraph stacks, the format of
    /// `flamegraph.pl` and speedscope: one line per span-tree leaf,
    /// `root;child;leaf total_ns`. A non-empty `prefix` (e.g. a circuit
    /// name) becomes the outermost frame of every stack.
    #[must_use]
    pub fn folded(&self, prefix: &str) -> String {
        let mut out = String::new();
        for span in &self.spans {
            fold_span(span, prefix, &mut out);
        }
        out
    }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let folded = snap.folded("c432");
        assert_eq!(
            folded,
            "c432;flow;build 40\nc432;flow;decompose;shannon 25\n"
        );
        assert_eq!(folded.lines().count(), 2);
        let unprefixed = snap.folded("");
        assert!(unprefixed.starts_with("flow;build 40\n"));
    }
}
