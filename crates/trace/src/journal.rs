//! The flight recorder: a bounded, time-ordered journal of structured
//! events alongside the aggregate registry.
//!
//! Where the registry answers "how much work happened" (counters, span
//! totals), the journal answers "**which** decision happened **when**":
//! every `event!` call — and, transparently, every span enter/exit —
//! appends an [`Event`] carrying a monotonic timestamp, the recording
//! thread, a kind string and free-form `key = value` fields. The buffer
//! is a fixed-capacity ring (default [`DEFAULT_JOURNAL_CAPACITY`]):
//! when full, the **oldest** events are evicted and counted in
//! [`Journal::dropped`], so a runaway workload can never exhaust memory.
//!
//! Like the registry, the journal is thread-local (events recorded on
//! sibling threads land in *their* journals) and always compiled; the
//! `event!` macro expands to a no-op unless the `enabled` feature is on,
//! so default builds pay nothing at the instrumented call sites.
//!
//! Timestamps are nanoseconds since the first journal use on the
//! thread. The epoch survives [`crate::reset`] on purpose: a bench run
//! that resets the registry between circuits still produces one
//! globally ordered timeline, which is what the Perfetto exporter
//! ([`crate::export::perfetto_trace`]) needs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default ring capacity: 64k events (~4 MiB at typical field counts).
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
    /// Nanoseconds since the thread's journal epoch (first use).
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

/// A drained copy of the thread's journal, returned by [`take_journal`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    /// Events in recording order (oldest first).
    pub events: Vec<Event>,
    /// Events evicted by the ring since the journal was last drained.
    pub dropped: u64,
    /// Ring capacity that was in force while recording.
    pub capacity: usize,
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
        self.capacity = self.capacity.max(other.capacity);
    }

    /// Interleaves another journal's events into this one by timestamp.
    ///
    /// Each thread's journal clock starts at its own epoch (first use on
    /// that thread), so cross-thread timestamps are only approximately
    /// comparable; what this merge guarantees is that the result is
    /// globally sorted by `ts_ns` **and** that each thread's events keep
    /// their relative order (per-thread timestamps are monotonic, and
    /// the sort is stable). That is exactly what the Perfetto exporter
    /// needs: `B`/`E` records stay balanced per thread-track no matter
    /// how worker timelines interleave.
    pub fn merge_by_time(&mut self, other: Journal) {
        self.events.extend(other.events);
        self.dropped += other.dropped;
        self.capacity = self.capacity.max(other.capacity);
        self.events.sort_by_key(|e| e.ts_ns);
    }
}

struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
    capacity: usize,
    epoch: Instant,
    thread: u64,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

impl Ring {
    #[expect(
        clippy::disallowed_methods,
        reason = "the journal timestamps events against a per-thread epoch"
    )]
    fn new() -> Self {
        Ring {
            events: VecDeque::new(),
            dropped: 0,
            capacity: DEFAULT_JOURNAL_CAPACITY,
            epoch: Instant::now(),
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn push(
        &mut self,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        while self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        // u64 nanoseconds cover ~584 years; saturate rather than wrap.
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.events.push_back(Event {
            ts_ns,
            thread: self.thread,
            kind,
            name,
            fields,
        });
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::new());
}

fn with<R>(f: impl FnOnce(&mut Ring) -> R) -> R {
    RING.with(|r| f(&mut r.borrow_mut()))
}

/// Records one instant event into this thread's journal. Prefer the
/// `event!` macro, which compiles to a no-op without the `enabled`
/// feature.
pub fn record_event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    with(|r| r.push(EventKind::Instant, name, fields));
}

/// Sets the ring capacity for this thread's journal (default
/// [`DEFAULT_JOURNAL_CAPACITY`]). Shrinking evicts the oldest events
/// immediately; `0` discards everything recorded from now on.
pub fn set_journal_capacity(capacity: usize) {
    with(|r| {
        r.capacity = capacity;
        while r.events.len() > capacity {
            r.events.pop_front();
            r.dropped += 1;
        }
    });
}

/// Number of events currently buffered on this thread.
#[must_use]
pub fn journal_len() -> usize {
    with(|r| r.events.len())
}

/// Drains this thread's journal: returns all buffered events (oldest
/// first) plus the eviction count, and leaves an empty ring with the
/// same capacity and epoch.
#[must_use]
pub fn take_journal() -> Journal {
    with(|r| {
        let journal = Journal {
            events: r.events.drain(..).collect(),
            dropped: r.dropped,
            capacity: r.capacity,
        };
        r.dropped = 0;
        journal
    })
}

/// Re-injects a drained worker [`Journal`] into **this thread's** ring,
/// preserving each event's original thread id and timestamp (the ring's
/// own clock and thread id are not re-stamped). The ring's capacity
/// still applies: absorbed events evict the oldest entries when the ring
/// is full, and `other.dropped` carries over. The sharded flow uses this
/// so a single [`take_journal`] on the coordinating thread yields the
/// complete multi-thread flight recording.
pub fn absorb_journal(other: Journal) {
    with(|r| {
        r.dropped += other.dropped;
        for event in other.events {
            if r.capacity == 0 {
                r.dropped += 1;
                continue;
            }
            while r.events.len() >= r.capacity {
                r.events.pop_front();
                r.dropped += 1;
            }
            r.events.push_back(event);
        }
    });
}

/// Clears this thread's journal without returning it. The epoch and
/// capacity are preserved so timestamps stay globally ordered.
pub fn clear_journal() {
    with(|r| {
        r.events.clear();
        r.dropped = 0;
    });
}

/// Internal hook for [`crate::span_enter`].
pub(crate) fn record_span_enter(name: &'static str) {
    with(|r| r.push(EventKind::SpanEnter, name, Vec::new()));
}

/// Internal hook for `SpanGuard::drop`.
pub(crate) fn record_span_exit(name: &'static str) {
    with(|r| r.push(EventKind::SpanExit, name, Vec::new()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_fields() {
        clear_journal();
        record_event("a", vec![("n", FieldValue::U64(1))]);
        record_event(
            "b",
            vec![("d", FieldValue::I64(-2)), ("ok", FieldValue::Bool(true))],
        );
        let j = take_journal();
        assert_eq!(j.events.len(), 2);
        assert_eq!(j.events[0].name, "a");
        assert_eq!(j.events[0].fields, vec![("n", FieldValue::U64(1))]);
        assert_eq!(j.events[1].name, "b");
        assert!(j.events[0].ts_ns <= j.events[1].ts_ns);
        assert_eq!(j.events[0].thread, j.events[1].thread);
        assert_eq!(j.dropped, 0);
        assert!(take_journal().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        clear_journal();
        set_journal_capacity(4);
        for i in 0..10u64 {
            record_event("tick", vec![("i", FieldValue::U64(i))]);
        }
        let j = take_journal();
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
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
    }

    #[test]
    fn zero_capacity_discards_everything() {
        clear_journal();
        set_journal_capacity(0);
        record_event("x", Vec::new());
        let j = take_journal();
        assert!(j.events.is_empty());
        assert_eq!(j.dropped, 1);
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
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
    fn merge_by_time_orders_across_thread_epochs() {
        clear_journal();
        record_event("main.first", Vec::new());
        record_event("main.second", Vec::new());
        let mut main = take_journal();
        let worker = std::thread::spawn(|| {
            record_event("worker.first", Vec::new());
            record_event("worker.second", Vec::new());
            take_journal()
        })
        .join()
        .expect("worker panicked");
        let worker_thread = worker.events[0].thread;
        assert_ne!(worker_thread, main.events[0].thread);
        main.merge_by_time(worker);
        assert_eq!(main.events.len(), 4);
        // Globally sorted by timestamp…
        assert!(main.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        // …and each thread's events keep their relative order.
        let worker_names: Vec<&str> = main
            .events
            .iter()
            .filter(|e| e.thread == worker_thread)
            .map(|e| e.name)
            .collect();
        assert_eq!(worker_names, vec!["worker.first", "worker.second"]);
        let main_names: Vec<&str> = main
            .events
            .iter()
            .filter(|e| e.thread != worker_thread)
            .map(|e| e.name)
            .collect();
        assert_eq!(main_names, vec!["main.first", "main.second"]);
    }

    #[test]
    fn absorb_preserves_thread_ids_and_counts_drops() {
        clear_journal();
        let worker = std::thread::spawn(|| {
            record_event("remote", vec![("i", FieldValue::U64(7))]);
            take_journal()
        })
        .join()
        .expect("worker panicked");
        let remote_thread = worker.events[0].thread;
        record_event("local", Vec::new());
        absorb_journal(worker);
        let j = take_journal();
        assert_eq!(j.events.len(), 2);
        assert_eq!(j.events[0].name, "local");
        assert_eq!(j.events[1].name, "remote");
        assert_eq!(j.events[1].thread, remote_thread);
        assert_ne!(j.events[0].thread, remote_thread);

        // Absorbing into a full ring evicts the oldest and counts drops.
        set_journal_capacity(1);
        record_event("old", Vec::new());
        absorb_journal(Journal {
            events: vec![Event {
                ts_ns: 0,
                thread: remote_thread,
                kind: EventKind::Instant,
                name: "new",
                fields: Vec::new(),
            }],
            dropped: 2,
            capacity: 1,
        });
        let j = take_journal();
        assert_eq!(j.events.len(), 1);
        assert_eq!(j.events[0].name, "new");
        assert_eq!(j.dropped, 3);
        set_journal_capacity(DEFAULT_JOURNAL_CAPACITY);
    }

    #[test]
    fn journal_extend_stitches_timelines() {
        clear_journal();
        record_event("first", Vec::new());
        let mut a = take_journal();
        record_event("second", Vec::new());
        let b = take_journal();
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
