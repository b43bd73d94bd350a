//! The one thread-local trace store and the four calls that move its
//! contents: [`take`], [`absorb`], [`set_aside`] and [`rejoin`].
//!
//! A thread's span registry, journal ring and profile samples live
//! together in one `RefCell`, so a span boundary or a profiler sample
//! touches thread-local storage once. Only the journal's epoch and
//! thread id sit outside the movable part: they stamp every event this
//! thread records, whichever store is live.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::journal::{Event, EventKind, FieldValue, Journal, Ring};
use crate::profile::{graft, Profile};
use crate::registry::{Registry, Snapshot};

/// Everything one thread has recorded since its last drain.
#[derive(Default)]
pub(crate) struct Store {
    pub(crate) registry: Registry,
    pub(crate) ring: Ring,
    pub(crate) profile: Profile,
}

impl Store {
    fn into_trace(self) -> Trace {
        Trace {
            snapshot: self.registry.snapshot(),
            journal: self.ring.into_journal(),
            profile: self.profile,
        }
    }

    /// Merges `trace` into this store: under the innermost open span
    /// when `under_open`, else at root level. Counters add, gauges keep
    /// the maximum, histograms merge, span trees and profile stacks
    /// merge by name, and journal events append through the ring.
    fn absorb(&mut self, trace: Trace, under_open: bool) {
        let (parent, prefix) = if under_open {
            (self.registry.open_span(), self.registry.open_path())
        } else {
            (None, String::new())
        };
        self.registry.absorb(&trace.snapshot, parent);
        self.ring.absorb(trace.journal);
        for ((stack, op), count) in trace.profile.samples {
            *self
                .profile
                .samples
                .entry((graft(&prefix, &stack), op))
                .or_insert(0) += count;
        }
    }
}

pub(crate) struct State {
    epoch: Instant,
    thread: u64,
    pub(crate) store: Store,
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

impl State {
    #[expect(
        clippy::disallowed_methods,
        reason = "the journal timestamps events against a per-thread epoch"
    )]
    fn new() -> Self {
        State {
            epoch: Instant::now(),
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            store: Store::default(),
        }
    }

    /// Appends one event to the live journal, stamped with this
    /// thread's clock and id.
    pub(crate) fn record(
        &mut self,
        kind: EventKind,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        // u64 nanoseconds cover ~584 years; saturate rather than wrap.
        let ts_ns = u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.store.ring.push(Event {
            ts_ns,
            thread: self.thread,
            kind,
            name,
            fields,
        });
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

pub(crate) fn with<R>(f: impl FnOnce(&mut State) -> R) -> R {
    STATE.with(|s| f(&mut s.borrow_mut()))
}

/// Everything a thread recorded: the aggregate snapshot, the journal
/// events and the profile samples. Returned by [`take`], merged back by
/// [`absorb`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Counters, gauges, histograms and the span tree.
    pub snapshot: Snapshot,
    /// Flight-recorder events, oldest first, plus the eviction count.
    pub journal: Journal,
    /// Effort-tick profiler samples.
    pub profile: Profile,
}

/// A thread's trace state moved out by [`set_aside`]. Hand it back to
/// [`rejoin`]; dropping it discards everything it held.
#[must_use = "dropping the saved state discards everything recorded before `set_aside`"]
pub struct Aside(Store);

/// Drains this thread's trace: registry, journal and profile in one
/// move, leaving an empty store. Worker threads call it before exiting
/// and hand the result to the coordinator's [`absorb`]; the bench
/// harness calls it once per circuit.
///
/// Only the calling thread's recordings are returned; anything recorded
/// on sibling threads is absent until absorbed. Debug builds assert
/// that no span is open, where the open span would show zero completed
/// calls. The journal epoch survives, so later drains on this thread
/// continue one ordered timeline.
#[must_use]
pub fn take() -> Trace {
    debug_assert_eq!(
        crate::span_depth(),
        0,
        "take inside an open span; drop the guards first"
    );
    set_aside().0.into_trace()
}

/// Merges a drained [`Trace`] into this thread's live store, grafted
/// under the innermost open span: the trace's span roots become
/// children of that span and its profile stacks are prefixed with the
/// open span path. Journal events keep their own thread ids and
/// timestamps and pass through the ring's capacity. Absorbing worker
/// traces in a fixed worker order makes the merged trace independent of
/// thread scheduling.
pub fn absorb(trace: Trace) {
    with(|st| st.store.absorb(trace, true));
}

/// Moves this thread's trace state out and starts a fresh store with
/// the same chain of open spans, so guards opened before the call still
/// close into a consistent tree. Costs O(open span depth). Pair with
/// [`rejoin`], and keep the spans that were open here open until then.
pub fn set_aside() -> Aside {
    with(|st| {
        let chain = st.store.registry.open_names();
        let saved = std::mem::take(&mut st.store);
        for name in &chain {
            st.store.registry.enter(name);
        }
        Aside(saved)
    })
}

/// Swaps the state saved by [`set_aside`] back in. With `keep`, what was
/// recorded since `set_aside` merges in at root level, where its paths
/// are already absolute; without it, those recordings are discarded.
/// Costs O(what was recorded since `set_aside`). The flow's panic
/// quarantine keeps a supernode attempt's recordings only if it did not
/// panic.
pub fn rejoin(saved: Aside, keep: bool) {
    with(|st| {
        let attempt = std::mem::replace(&mut st.store, saved.0);
        if keep {
            st.store.absorb(attempt.into_trace(), false);
        }
    });
}

/// Clears every metric on this thread — registry (counters, gauges,
/// histograms, open spans), journal events and profiler samples alike.
/// The journal's timestamp epoch survives, so events recorded after a
/// reset still share one ordered timeline with earlier drains. Guards
/// that outlive a reset re-register themselves on drop.
pub fn reset() {
    with(|st| st.store = Store::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejoin_without_keep_discards_only_the_attempt() {
        reset();
        let outer = crate::span_enter("outer");
        crate::add_counter("before", 1);
        // Put the state aside mid-span, as the flow quarantine does…
        let saved = set_aside();
        // …record work that will be discarded…
        crate::add_counter("discarded", 99);
        {
            let _junk = crate::span_enter("junk");
        }
        crate::record_event("junk.event", Vec::new());
        // …and swap the saved state back without it.
        rejoin(saved, false);
        {
            let _inner = crate::span_enter("inner");
        }
        drop(outer);
        let t = take();
        assert_eq!(t.snapshot.counter("before"), Some(1));
        assert_eq!(t.snapshot.counter("discarded"), None);
        assert_eq!(t.snapshot.spans.len(), 1);
        assert_eq!(t.snapshot.spans[0].name, "outer");
        assert_eq!(t.snapshot.spans[0].calls, 1);
        let children: Vec<&str> = t.snapshot.spans[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(children, vec!["inner"], "no doubled `outer` chain");
        assert!(t.journal.events.iter().all(|e| e.name != "junk.event"));
        assert_eq!(crate::span_depth(), 0);
    }

    #[test]
    fn take_collects_worker_threads() {
        reset();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        crate::add_counter("work.items", 2);
                        take()
                    })
                })
                .collect();
            for h in handles {
                let worker = h.join().expect("worker panicked");
                assert_eq!(worker.snapshot.counter("work.items"), Some(2));
                absorb(worker);
            }
        });
        assert_eq!(take().snapshot.counter("work.items"), Some(6));
    }
}
