//! Seeded violations of the library lint policy (DESIGN.md §10), one per
//! rule. The module is compiled only under clippy (`#[cfg(clippy)]`), so
//! it never ships. Each violation sits under an `#[expect]`: if a change
//! to `clippy.toml` ever silences a rule, its expectation goes unmet and
//! clippy fails with `unfulfilled_lint_expectations`.
//!
//! `unsafe_code` is forbidden workspace-wide, and a forbidden lint cannot
//! be expected, so forbid-unsafe and static-mut have no canary here: the
//! compiler rejects any violation outright.

use crate::hash::FastMap;

/// panic: `unwrap_used`, `expect_used`, `panic`, `unreachable`.
pub fn panics(x: Option<u32>) -> u32 {
    #[expect(clippy::unwrap_used, reason = "canary: panic")]
    let a = x.unwrap();
    #[expect(clippy::expect_used, reason = "canary: panic")]
    let b = x.expect("canary");
    match a + b {
        #[expect(clippy::panic, reason = "canary: panic")]
        0 => panic!("canary"),
        #[expect(clippy::unreachable, reason = "canary: panic")]
        1 => unreachable!("canary"),
        n => n,
    }
}

/// print: `print_stdout`, `print_stderr`.
#[expect(clippy::print_stdout, clippy::print_stderr, reason = "canary: print")]
pub fn prints() {
    println!("canary");
    eprintln!("canary");
}

#[expect(missing_docs, reason = "canary: docs")]
pub fn undocumented() {}

/// instant, thread-spawn, thread-id, unwind: `disallowed_methods`; lock:
/// `disallowed_types`; float-cast: `cast_precision_loss`.
pub fn determinism(thread: &std::thread::Thread, n: usize) {
    #[expect(clippy::disallowed_methods, reason = "canary: instant")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "canary: thread-spawn")]
    let _ = std::thread::spawn(|| ());
    #[expect(clippy::disallowed_methods, reason = "canary: thread-id")]
    let _ = thread.id();
    #[expect(clippy::disallowed_methods, reason = "canary: unwind")]
    let _ = std::panic::catch_unwind(|| ());
    #[expect(clippy::disallowed_types, reason = "canary: lock")]
    let _ = std::sync::Mutex::new(0);
    #[expect(clippy::cast_precision_loss, reason = "canary: float-cast")]
    let _ = n as f64;
}

/// iter-order on the engine's `FastMap` alias: `iter_over_hash_type` for
/// `for` loops, `disallowed_methods` for method chains.
pub fn hash_iteration() -> u32 {
    let fast: FastMap<u32, u32> = FastMap::default();
    let mut sum = 0;
    #[expect(clippy::iter_over_hash_type, reason = "canary: iter-order")]
    for (k, v) in &fast {
        sum += k + v;
    }
    #[expect(clippy::disallowed_methods, reason = "canary: iter-order")]
    let keys = fast.keys().count();
    sum + u32::from(keys > 0)
}

/// allow-justification: `allow_attributes`.
#[expect(clippy::allow_attributes, reason = "canary: allow-justification")]
#[allow(dead_code, reason = "canary")]
pub fn allow_attribute() {}

/// allow-justification: `allow_attributes_without_reason`.
#[expect(
    clippy::allow_attributes_without_reason,
    reason = "canary: allow-justification"
)]
#[expect(unused_variables)]
pub fn expect_without_reason() {
    let unused = 0;
}
