//! The flight recorder: a bounded, time-ordered journal of structured
//! events alongside the aggregate registry.
//!
//! Where the registry answers "how much work happened" (counters, span
//! totals), the journal answers "**which** decision happened **when**":
//! every `event!` call — and, transparently, every span enter/exit —
//! appends an [`Event`] carrying a monotonic timestamp, the recording
//! thread, a kind string and free-form `key = value` fields. The buffer
//! is a ring of [`DEFAULT_JOURNAL_CAPACITY`] events: when full, the
//! **oldest** events are evicted and counted in [`Journal::dropped`], so
//! a runaway workload can never exhaust memory.
//!
//! Like the registry, the journal is part of the thread-local store
//! (events recorded on sibling threads land in *their* journals until
//! absorbed) and always compiled; the
//! `event!` macro expands to a no-op unless the `enabled` feature is on,
//! so default builds pay nothing at the instrumented call sites.
//!
//! Timestamps are nanoseconds since the first journal use on the
//! thread. The epoch survives [`crate::reset`] on purpose: a bench run
//! that resets the registry between circuits still produces one
//! globally ordered timeline, which is what the Perfetto exporter
//! ([`crate::export::perfetto_trace`]) needs.

use std::collections::VecDeque;

/// Journal ring capacity: each thread keeps its newest 64k events
/// (~4 MiB at typical field counts) between drains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 64 * 1024;

/// One typed field value attached to an [`Event`].
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, node indices).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Floating point (ratios, costs).
    F64(f64),
    /// Boolean (accepted/rejected flags).
    Bool(bool),
    /// Free-form text (method names, signal names).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<isize> for FieldValue {
    fn from(v: isize) -> Self {
        FieldValue::I64(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] records: a span boundary or a point-in-time mark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span guard opened (`span!` with the feature on, or
    /// [`crate::span_enter`] directly).
    SpanEnter,
    /// A span guard dropped.
    SpanExit,
    /// An instant mark from `event!` / [`record_event`].
    Instant,
}

/// One journal entry: a timestamped, typed observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Nanoseconds since the thread's journal epoch (first trace use).
    pub ts_ns: u64,
    /// Small sequential id of the recording thread (process-unique).
    pub thread: u64,
    /// Span boundary or instant mark.
    pub kind: EventKind,
    /// Event name: the span name for boundaries, the `event!` kind
    /// string for instants.
    pub name: &'static str,
    /// `key = value` attributes, in call-site order. Empty for spans.
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// A drained copy of a thread's journal (the `journal` of a
/// [`crate::Trace`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    /// Events in recording order (oldest first).
    pub events: Vec<Event>,
    /// Events evicted by the ring since the journal was last drained.
    pub dropped: u64,
}

impl Journal {
    /// `true` when nothing was recorded (and nothing was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Appends another journal's events (used by the bench harness to
    /// stitch per-circuit journals into one timeline).
    pub fn extend(&mut self, other: Journal) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
    }
}

/// The live ring: the newest [`DEFAULT_JOURNAL_CAPACITY`] events.
pub(crate) struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
    /// Always [`DEFAULT_JOURNAL_CAPACITY`] outside the eviction tests.
    capacity: usize,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            events: VecDeque::new(),
            dropped: 0,
            capacity: DEFAULT_JOURNAL_CAPACITY,
        }
    }
}

impl Ring {
    /// Appends `event`, evicting (and counting) the oldest when full.
    pub(crate) fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        while self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Appends a drained journal's events, keeping their own thread ids
    /// and timestamps; its eviction count carries over.
    pub(crate) fn absorb(&mut self, journal: Journal) {
        self.dropped += journal.dropped;
        for event in journal.events {
            self.push(event);
        }
    }

    pub(crate) fn into_journal(self) -> Journal {
        Journal {
            events: self.events.into(),
            dropped: self.dropped,
        }
    }
}

/// Records one instant event into this thread's journal. Prefer the
/// `event!` macro, which compiles to a no-op without the `enabled`
/// feature.
pub fn record_event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    crate::store::with(|st| st.record(EventKind::Instant, name, fields));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{absorb, reset, take, Trace};

    /// Sets this thread's live ring capacity (reset restores the default).
    fn set_capacity(capacity: usize) {
        crate::store::with(|st| st.store.ring.capacity = capacity);
    }

    #[test]
    fn events_record_in_order_with_fields() {
        reset();
        record_event("a", vec![("n", FieldValue::U64(1))]);
        record_event(
            "b",
            vec![("d", FieldValue::I64(-2)), ("ok", FieldValue::Bool(true))],
        );
        let j = take().journal;
        assert_eq!(j.events.len(), 2);
        assert_eq!(j.events[0].name, "a");
        assert_eq!(j.events[0].fields, vec![("n", FieldValue::U64(1))]);
        assert_eq!(j.events[1].name, "b");
        assert!(j.events[0].ts_ns <= j.events[1].ts_ns);
        assert_eq!(j.events[0].thread, j.events[1].thread);
        assert_eq!(j.dropped, 0);
        assert!(take().journal.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        reset();
        set_capacity(4);
        for i in 0..10u64 {
            record_event("tick", vec![("i", FieldValue::U64(i))]);
        }
        let j = take().journal;
        assert_eq!(j.events.len(), 4);
        assert_eq!(j.dropped, 6);
        let kept: Vec<u64> = j
            .events
            .iter()
            .map(|e| match e.fields[0].1 {
                FieldValue::U64(v) => v,
                _ => unreachable!("u64 field"),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
        reset();
    }

    #[test]
    fn zero_capacity_discards_everything() {
        reset();
        set_capacity(0);
        record_event("x", Vec::new());
        let j = take().journal;
        assert!(j.events.is_empty());
        assert_eq!(j.dropped, 1);
        reset();
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u32), FieldValue::U64(3));
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-3i32), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(-3isize), FieldValue::I64(-3));
        assert_eq!(FieldValue::from(0.5f64), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("s"), FieldValue::Str("s".into()));
        assert_eq!(
            FieldValue::from(String::from("t")),
            FieldValue::Str("t".into())
        );
    }

    #[test]
    fn absorb_preserves_thread_ids_and_counts_drops() {
        reset();
        let worker = std::thread::spawn(|| {
            record_event("remote", vec![("i", FieldValue::U64(7))]);
            take()
        })
        .join()
        .expect("worker panicked");
        let remote_thread = worker.journal.events[0].thread;
        record_event("local", Vec::new());
        absorb(worker);
        let j = take().journal;
        assert_eq!(j.events.len(), 2);
        assert_eq!(j.events[0].name, "local");
        assert_eq!(j.events[1].name, "remote");
        assert_eq!(j.events[1].thread, remote_thread);
        assert_ne!(j.events[0].thread, remote_thread);

        // Absorbing into a full ring evicts the oldest and counts drops.
        set_capacity(1);
        record_event("old", Vec::new());
        absorb(Trace {
            journal: Journal {
                events: vec![Event {
                    ts_ns: 0,
                    thread: remote_thread,
                    kind: EventKind::Instant,
                    name: "new",
                    fields: Vec::new(),
                }],
                dropped: 2,
            },
            ..Trace::default()
        });
        let j = take().journal;
        assert_eq!(j.events.len(), 1);
        assert_eq!(j.events[0].name, "new");
        assert_eq!(j.dropped, 3);
        reset();
    }

    #[test]
    fn journal_extend_stitches_timelines() {
        reset();
        record_event("first", Vec::new());
        let mut a = take().journal;
        record_event("second", Vec::new());
        let b = take().journal;
        a.extend(b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.events[0].name, "first");
        assert_eq!(a.events[1].name, "second");
        assert!(
            a.events[0].ts_ns <= a.events[1].ts_ns,
            "shared epoch orders events"
        );
    }
}
