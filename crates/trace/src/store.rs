//! The one thread-local trace registry and the four calls that move its
//! contents: [`take`], [`absorb`], [`set_aside`] and [`rejoin`].

use std::cell::RefCell;

use crate::registry::{Registry, Snapshot};

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

pub(crate) fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

/// A thread's registry moved out by [`set_aside`]. Hand it back to
/// [`rejoin`]; dropping it discards everything it held.
#[must_use = "dropping the saved state discards everything recorded before `set_aside`"]
pub struct Aside(Registry);

/// Drains this thread's trace into a [`Snapshot`], leaving an empty
/// registry. Worker threads call it before exiting and hand the result
/// to the coordinator's [`absorb`]; the bench harness calls it once per
/// circuit.
///
/// Only the calling thread's recordings are returned; anything recorded
/// on sibling threads is absent until absorbed. Debug builds assert
/// that no span is open, where the open span would show zero completed
/// calls.
///
/// ```
/// bds_trace::reset();
/// {
///     let _s = bds_trace::span_enter("work");
///     bds_trace::add_counter("steps", 2);
/// } // guard dropped: depth back to 0, safe to drain
/// assert_eq!(bds_trace::take().counter("steps"), Some(2));
///
/// // Metrics recorded on another thread do NOT appear here:
/// std::thread::spawn(|| bds_trace::add_counter("elsewhere", 1))
///     .join()
///     .unwrap();
/// assert_eq!(bds_trace::take().counter("elsewhere"), None);
/// ```
#[must_use]
pub fn take() -> Snapshot {
    debug_assert_eq!(
        crate::span_depth(),
        0,
        "take inside an open span; drop the guards first"
    );
    set_aside().0.snapshot()
}

/// Merges a drained [`Snapshot`] into this thread's live registry,
/// grafted under the innermost open span: the snapshot's span roots
/// become children of that span. Absorbing worker snapshots in a fixed
/// worker order makes the merged trace independent of thread
/// scheduling.
pub fn absorb(snapshot: Snapshot) {
    with(|r| {
        let parent = r.open_span();
        r.absorb(&snapshot, parent);
    });
}

/// Moves this thread's registry out and starts a fresh one with the
/// same chain of open spans, so guards opened before the call still
/// close into a consistent tree. Costs O(open span depth). Pair with
/// [`rejoin`], and keep the spans that were open here open until then.
pub fn set_aside() -> Aside {
    with(|r| {
        let chain = r.open_names();
        let saved = std::mem::take(r);
        for name in &chain {
            r.enter(name);
        }
        Aside(saved)
    })
}

/// Swaps the registry saved by [`set_aside`] back in. With `keep`, what
/// was recorded since `set_aside` merges in at root level, where its
/// paths are already absolute; without it, those recordings are
/// discarded. Costs O(what was recorded since `set_aside`). The flow's
/// panic quarantine keeps a supernode attempt's recordings only if it
/// did not panic.
pub fn rejoin(saved: Aside, keep: bool) {
    with(|r| {
        let attempt = std::mem::replace(r, saved.0);
        if keep {
            r.absorb(&attempt.snapshot(), None);
        }
    });
}

/// Clears every metric on this thread: counters, gauges and open
/// spans. Guards that outlive a reset re-register themselves on drop.
pub fn reset() {
    with(|r| *r = Registry::default());
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
        // …and swap the saved state back without it.
        rejoin(saved, false);
        {
            let _inner = crate::span_enter("inner");
        }
        drop(outer);
        let t = take();
        assert_eq!(t.counter("before"), Some(1));
        assert_eq!(t.counter("discarded"), None);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "outer");
        assert_eq!(t.spans[0].calls, 1);
        let children: Vec<&str> = t.spans[0]
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(children, vec!["inner"], "no doubled `outer` chain");
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
                assert_eq!(worker.counter("work.items"), Some(2));
                absorb(worker);
            }
        });
        assert_eq!(take().counter("work.items"), Some(6));
    }
}
