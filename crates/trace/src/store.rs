//! The one thread-local trace registry and the two calls that move its
//! contents: [`take`] and [`absorb`].

use std::cell::RefCell;

use crate::registry::{Registry, Snapshot};

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
}

pub(crate) fn with<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    REGISTRY.with(|r| f(&mut r.borrow_mut()))
}

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
    with(std::mem::take).snapshot()
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

/// Clears every metric on this thread: counters, gauges and open
/// spans. Guards that outlive a reset re-register themselves on drop.
pub fn reset() {
    with(|r| *r = Registry::default());
}

#[cfg(test)]
mod tests {
    use super::*;

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
