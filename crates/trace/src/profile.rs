//! Deterministic sampling profiler: effort-tick samples of the open
//! span path and the op class doing the work.
//!
//! Wall-clock profilers answer "where did the nanoseconds go", but their
//! output changes with machine load and job count. This profiler rides
//! the resource governor's *effort ticks* instead — the deterministic
//! logical clock `bds-bdd` already charges one tick per ITE recursion
//! step and one per fresh unique-table insertion. Every
//! [`PROFILE_INTERVAL`] ticks the manager calls [`observe`], which
//! records one sample keyed by
//!
//! * the calling thread's **open span path** (`"flow;flow.decompose"` —
//!   the registry's live span stack joined with `;`), and
//! * the **op class** that paid the tick (`"ite"`, `"unique-insert"`).
//!
//! A profile is therefore a pure function of the work performed: under
//! the flow's determinism contract, jobs=1 and jobs=4 produce
//! byte-identical profiles (`tests/differential_flow.rs` pins this),
//! and [`Profile::folded`] renders flamegraph folded-stack text whose
//! values are sample counts, so flamegraphs work without timestamps.
//!
//! # Merging across shards
//!
//! The samples live in the thread-local trace store next to the span
//! registry. [`crate::absorb`] grafts each absorbed stack under the
//! absorbing thread's open span path, just as it grafts worker span
//! roots under the open span: a worker that sampled inside `flow.build`
//! lands at `flow;flow.build` when the coordinator absorbs it inside its
//! open `flow` span. [`crate::rejoin`] merges stacks verbatim, because
//! they were recorded on the same thread and are already absolute.
//! Counts add commutatively and the sample map is ordered, so merging
//! in the fixed worker order yields one canonical profile at any job
//! count.

use std::collections::BTreeMap;

use crate::json::Json;

/// One profiler sample is recorded every this-many effort ticks.
///
/// Effort ticks arrive roughly as fast as ITE recursion steps, so this
/// is dense enough that every bench circuit produces samples, sparse
/// enough that the sample map stays small and the hot-path check is a
/// single multiple test.
pub const PROFILE_INTERVAL: u64 = 256;

/// A tick-sampled profile: `(open-span path, op class) -> sample count`.
///
/// Obtain via [`crate::take`]. Every field is structural — there is no
/// wall-clock anywhere in a profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Profile {
    /// Sample counts keyed by (`;`-joined span path, op class). Ordered,
    /// so every rendering of equal profiles is byte-identical.
    pub samples: BTreeMap<(String, String), u64>,
}

/// Records one sample attributing the current effort tick to `op` under
/// this thread's open span path. Called from the manager's tick charge
/// (already gated on `is_enabled` and [`PROFILE_INTERVAL`] there);
/// a no-op when instrumentation is off.
pub fn observe(op: &'static str) {
    if crate::is_enabled() {
        record_sample(op);
    }
}

fn record_sample(op: &str) {
    crate::store::with(|st| {
        let stack = st.store.registry.open_path();
        *st.store
            .profile
            .samples
            .entry((stack, op.to_string()))
            .or_insert(0) += 1;
    });
}

/// Joins a graft prefix and a sampled stack, eliding empty sides.
pub(crate) fn graft(prefix: &str, stack: &str) -> String {
    match (prefix.is_empty(), stack.is_empty()) {
        (true, _) => stack.to_string(),
        (false, true) => prefix.to_string(),
        (false, false) => format!("{prefix};{stack}"),
    }
}

impl Profile {
    /// Number of distinct (stack, op) keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total sample count across all keys.
    #[must_use]
    pub fn sample_total(&self) -> u64 {
        self.samples.values().sum()
    }

    /// Serializes the profile: `interval` plus one `[stack, op, count]`
    /// row per key, in map (byte-sorted) order. Fully structural, so
    /// equal profiles render byte-identically.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|((stack, op), count)| {
                Json::Arr(vec![
                    Json::Str(stack.clone()),
                    Json::Str(op.clone()),
                    Json::Int(*count),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("interval".to_string(), Json::Int(PROFILE_INTERVAL)),
            ("samples".to_string(), Json::Arr(samples)),
        ])
    }

    /// Folded flamegraph text with sample counts as values: one line
    /// per key, `prefix;span;path;op count` (frames that are empty are
    /// elided). Same shape as [`crate::export::folded_stacks`], so the
    /// usual flamegraph tools consume it directly — the x-axis is
    /// deterministic effort instead of noisy nanoseconds.
    #[must_use]
    pub fn folded(&self, prefix: &str) -> String {
        let mut out = String::new();
        for ((stack, op), count) in &self.samples {
            let frames = graft(&graft(prefix, stack), op);
            out.push_str(&frames);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{absorb, rejoin, reset, set_aside, take, Trace};

    fn profile(rows: &[(&str, &str, u64)]) -> Profile {
        Profile {
            samples: rows
                .iter()
                .map(|&(s, o, c)| ((s.to_string(), o.to_string()), c))
                .collect(),
        }
    }

    /// Absorbs `parts` in order into an empty store and drains the profile.
    fn absorbed(parts: &[&Profile]) -> Profile {
        reset();
        for p in parts {
            absorb(Trace {
                profile: (*p).clone(),
                ..Trace::default()
            });
        }
        take().profile
    }

    #[test]
    fn observe_keys_by_open_span_path() {
        reset();
        {
            let _flow = crate::span_enter("flow");
            let _build = crate::span_enter("flow.build");
            observe("ite");
            observe("ite");
            observe("unique-insert");
        }
        observe("ite"); // no spans open: empty stack
        let p = take().profile;
        if crate::is_enabled() {
            assert_eq!(
                p.samples.get(&("flow;flow.build".into(), "ite".into())),
                Some(&2)
            );
            assert_eq!(
                p.samples
                    .get(&("flow;flow.build".into(), "unique-insert".into())),
                Some(&1)
            );
            assert_eq!(p.samples.get(&(String::new(), "ite".into())), Some(&1));
        } else {
            assert!(p.is_empty(), "observe is a no-op without `enabled`");
        }
        reset();
    }

    #[test]
    fn absorb_grafts_under_the_open_span() {
        reset();
        let worker = profile(&[("flow.build", "ite", 3), ("", "unique-insert", 1)]);
        {
            let _flow = crate::span_enter("flow");
            for _ in 0..2 {
                absorb(Trace {
                    profile: worker.clone(),
                    ..Trace::default()
                });
            }
        }
        let p = take().profile;
        assert_eq!(
            p.samples.get(&("flow;flow.build".into(), "ite".into())),
            Some(&6)
        );
        // An empty worker stack lands on the graft point itself.
        assert_eq!(
            p.samples.get(&("flow".into(), "unique-insert".into())),
            Some(&2)
        );
        reset();
    }

    #[test]
    fn restore_merges_verbatim_even_inside_a_span() {
        reset();
        {
            let _flow = crate::span_enter("flow");
            let saved = set_aside();
            {
                let _decompose = crate::span_enter("flow.decompose");
                for _ in 0..5 {
                    record_sample("ite");
                }
            }
            rejoin(saved, true);
        }
        let p = take().profile;
        // No doubled `flow` prefix: rejoin does not graft.
        assert_eq!(
            p.samples.get(&("flow;flow.decompose".into(), "ite".into())),
            Some(&5)
        );
        assert_eq!(p.len(), 1);
        reset();
    }

    #[test]
    fn merge_is_commutative() {
        let a = profile(&[("flow", "ite", 2), ("flow;flow.build", "ite", 1)]);
        let b = profile(&[("flow", "ite", 3), ("flow", "unique-insert", 7)]);
        let ab = absorbed(&[&a, &b]);
        assert_eq!(ab, absorbed(&[&b, &a]));
        assert_eq!(ab.sample_total(), 13);
        assert_eq!(ab.len(), 3);
    }

    #[test]
    fn json_round_trip_is_lossless_and_canonical() {
        let p = profile(&[("flow;flow.build", "ite", 4), ("flow", "unique-insert", 2)]);
        let doc = p.to_json();
        let text = doc.render();
        assert_eq!(crate::json::parse(&text), Ok(doc));
        // Equal profiles render byte-identically (map order is total).
        assert_eq!(text, p.clone().to_json().render());
    }

    #[test]
    fn folded_elides_empty_frames() {
        let p = profile(&[("flow;flow.build", "ite", 4), ("", "unique-insert", 2)]);
        assert_eq!(
            p.folded("csel8"),
            "csel8;unique-insert 2\ncsel8;flow;flow.build;ite 4\n"
        );
        assert_eq!(p.folded(""), "unique-insert 2\nflow;flow.build;ite 4\n");
    }
}
