//! Property and golden tests for the trace registry.
//!
//! * Counter monotonicity — registry counters and the BDD manager's
//!   always-on [`bds_bdd::OpStats`] only ever grow while random BDD op
//!   sequences run.
//! * Span nesting balance — arbitrarily nested span guards always return
//!   the registry to depth zero, and setting the store aside mid-flight
//!   keeps the open chain intact.
//! * JSON round-trip — every snapshot's JSON survives `render` → `parse`
//!   (the same hand-rolled parser `cargo xtask perfgate` reads reports
//!   with), including a fixed golden report.
//! * Absorb algebra — absorbing snapshots is commutative and associative.

use bds_bdd::{Edge, Manager};
use bds_prop::{check_cases, Rng};
use bds_trace::json::{parse, Json};
use bds_trace::{add_counter, set_gauge, Snapshot};

/// Reads a counter without disturbing the store: with no span open,
/// `take` followed by `absorb` of the same trace leaves it as it was.
fn peek_counter(name: &str) -> u64 {
    let trace = bds_trace::take();
    let value = trace.counter(name).unwrap_or(0);
    bds_trace::absorb(trace);
    value
}

/// Drives a random sequence of BDD operations, asserting after every
/// step that both the trace counters and the manager's op counters are
/// monotonically non-decreasing.
#[test]
fn counters_are_monotone_across_random_bdd_ops() {
    check_cases("counter-monotonicity", 24, |rng: &mut Rng| {
        bds_trace::reset();
        let mut mgr = Manager::new();
        let vars = mgr.new_vars(6);
        let mut pool: Vec<Edge> = vars.iter().map(|&v| mgr.literal(v, rng.bool())).collect();
        let mut last_registry = 0u64;
        let mut last_ops = mgr.op_stats();
        for _ in 0..rng.range_usize(5..40) {
            let f = *rng.choose(&pool);
            let g = *rng.choose(&pool);
            let out = match rng.range_u32(0..4) {
                0 => mgr.and(f, g),
                1 => mgr.or(f, g),
                2 => mgr.xor(f, g),
                _ => mgr.xnor(f, g),
            }
            .expect("no node limit configured");
            pool.push(out);

            // Mirror the manager counters into the registry the way the
            // flow's publish step does, then check both never regress.
            let ops = mgr.op_stats();
            add_counter("prop.ite_calls", ops.ite_calls - last_ops.ite_calls);
            assert!(ops.ite_calls >= last_ops.ite_calls);
            assert!(ops.cache_hits >= last_ops.cache_hits);
            assert!(ops.cache_misses >= last_ops.cache_misses);
            assert!(ops.nodes_created >= last_ops.nodes_created);
            assert!(ops.unique_hits >= last_ops.unique_hits);
            last_ops = ops;

            let registry = peek_counter("prop.ite_calls");
            assert!(registry >= last_registry, "registry counter regressed");
            last_registry = registry;
        }
        assert_eq!(last_registry, last_ops.ite_calls);
    });
}

/// Opens a random tree of nested spans (guards held in a stack, popped
/// in random bursts) and checks the registry depth tracks the live guard
/// count exactly — i.e. nesting always balances.
#[test]
fn span_nesting_always_balances() {
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    check_cases("span-balance", 32, |rng: &mut Rng| {
        bds_trace::reset();
        let mut guards = Vec::new();
        for _ in 0..rng.range_usize(1..60) {
            if guards.is_empty() || rng.ratio(0.6) {
                guards.push(bds_trace::span_enter(
                    NAMES[rng.range_usize(0..NAMES.len())],
                ));
            } else {
                for _ in 0..rng.range_usize(1..guards.len() + 1) {
                    guards.pop();
                }
            }
            assert_eq!(bds_trace::span_depth(), guards.len());
        }
        let depth_before = bds_trace::span_depth();
        guards.clear();
        assert_eq!(bds_trace::span_depth(), 0);
        if depth_before > 0 {
            assert!(!bds_trace::take().spans.is_empty());
        }
    });
}

/// Random snapshots' JSON survives render → parse bit-for-bit.
#[test]
fn snapshot_json_round_trips_randomly() {
    const NAMES: [&str; 6] = ["flow", "flow.build", "bdd.sift", "net.sweep", "x", "y"];
    check_cases("json-round-trip", 24, |rng: &mut Rng| {
        bds_trace::reset();
        for _ in 0..rng.range_usize(0..12) {
            let name = NAMES[rng.range_usize(0..NAMES.len())];
            if rng.bool() {
                add_counter(name, rng.range_u64(0..1 << 40));
            } else {
                set_gauge(name, rng.range_u64(0..1 << 40));
            }
        }
        let mut guards = Vec::new();
        for _ in 0..rng.range_usize(0..10) {
            if guards.is_empty() || rng.bool() {
                guards.push(bds_trace::span_enter(
                    NAMES[rng.range_usize(0..NAMES.len())],
                ));
            } else {
                guards.pop();
            }
        }
        guards.clear();
        let json = bds_trace::take().to_json();
        let text = json.render();
        let parsed = parse(&text).expect("rendered snapshot JSON parses");
        assert_eq!(parsed.render(), text);
        assert_eq!(parsed, json);
    });
}

/// Builds a random snapshot through the real registry pipeline:
/// counters and gauges under a small name pool, plus a random
/// tree of nested spans.
fn random_snapshot(rng: &mut Rng) -> Snapshot {
    const NAMES: [&str; 5] = ["flow", "flow.build", "bdd.sift", "net.sweep", "x"];
    bds_trace::reset();
    for _ in 0..rng.range_usize(0..16) {
        let name = NAMES[rng.range_usize(0..NAMES.len())];
        if rng.bool() {
            add_counter(name, rng.range_u64(0..1 << 32));
        } else {
            set_gauge(name, rng.range_u64(0..1 << 32));
        }
    }
    let mut guards = Vec::new();
    for _ in 0..rng.range_usize(0..12) {
        if guards.is_empty() || rng.bool() {
            guards.push(bds_trace::span_enter(
                NAMES[rng.range_usize(0..NAMES.len())],
            ));
        } else {
            guards.pop();
        }
    }
    guards.clear();
    bds_trace::take()
}

/// Sorts sibling spans by name, recursively. Span *values* merge keyed
/// by `(parent, name)`, but sibling *order* is first-entered (the first
/// absorbed trace's order, then later traces' new names), so comparing
/// merges from different operand orders needs an order-insensitive
/// view.
fn canonicalize_spans(spans: &mut [bds_trace::SpanSnap]) {
    for s in spans.iter_mut() {
        canonicalize_spans(&mut s.children);
    }
    spans.sort_by(|a, b| a.name.cmp(&b.name));
}

fn canonical(mut snap: Snapshot) -> Snapshot {
    canonicalize_spans(&mut snap.spans);
    snap
}

/// Absorbs `a` then `b` into an empty store and drains it.
fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    bds_trace::reset();
    for s in [a, b] {
        bds_trace::absorb(s.clone());
    }
    bds_trace::take()
}

/// Absorbing snapshots is commutative and associative up to sibling-span
/// order: counters sum, gauges keep the max and span trees merge keyed
/// by `(parent, name)`. This is what makes the sharded flow's
/// fixed-worker-order fold deterministic — any grouping of the same
/// worker snapshots yields the same metrics.
#[test]
fn snapshot_merge_is_commutative_and_associative() {
    check_cases("merge-algebra", 24, |rng: &mut Rng| {
        let a = random_snapshot(rng);
        let b = random_snapshot(rng);
        let c = random_snapshot(rng);

        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        assert_eq!(ab.counters, ba.counters, "counter sums depend on order");
        assert_eq!(ab.gauges, ba.gauges, "gauge maxima depend on order");
        assert_eq!(
            canonical(ab.clone()).spans,
            canonical(ba).spans,
            "span values depend on merge order"
        );

        let ab_c = merged(&ab, &c);
        let a_bc = merged(&a, &merged(&b, &c));
        assert_eq!(ab_c.counters, a_bc.counters);
        assert_eq!(ab_c.gauges, a_bc.gauges);
        assert_eq!(canonical(ab_c).spans, canonical(a_bc).spans);

        // Merging an empty snapshot is the identity.
        assert_eq!(merged(&a, &Snapshot::default()), a);
    });
}

/// Golden check: a fixed report, in the exact envelope the bench
/// binaries write, parses with the hand parser and yields the expected
/// values — guarding the on-disk schema against accidental drift.
#[test]
fn golden_report_parses_to_expected_values() {
    let golden = r#"{
  "schema": "bds-trace-report/v1",
  "bench": "table1",
  "trace_enabled": true,
  "circuits": [
    {
      "name": "parity16",
      "bds": {"gates": 15, "area": 64.0, "seconds": 0.0125},
      "bdd_ops": {"ite_calls": 1853, "cache_hit_rate": 0.375},
      "decompose": {"xnor_dom": 14, "shannon": 0},
      "trace": {
        "counters": {"decompose.xnor_dom": 14},
        "gauges": {},
        "spans": [
          {"name": "flow", "calls": 1, "ns": 12500000, "children": [
            {"name": "flow.decompose", "calls": 1, "ns": 9000000}
          ]}
        ]
      }
    }
  ]
}
"#;
    let doc = parse(golden).expect("golden parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("bds-trace-report/v1")
    );
    assert_eq!(doc.get("trace_enabled").and_then(Json::as_bool), Some(true));
    let circuits = doc.get("circuits").and_then(Json::as_arr).expect("array");
    let c = &circuits[0];
    assert_eq!(c.get("name").and_then(Json::as_str), Some("parity16"));
    let bds = c.get("bds").expect("bds section");
    assert_eq!(bds.get("gates").and_then(Json::as_u64), Some(15));
    assert_eq!(bds.get("seconds").and_then(Json::as_f64), Some(0.0125));
    let ops = c.get("bdd_ops").expect("bdd_ops section");
    assert_eq!(
        ops.get("cache_hit_rate").and_then(Json::as_f64),
        Some(0.375)
    );
    assert_eq!(
        c.get("decompose")
            .and_then(|d| d.get("xnor_dom"))
            .and_then(Json::as_u64),
        Some(14)
    );
    // The trace section is a snapshot's JSON: walk the span tree.
    let trace = c.get("trace").expect("trace section");
    assert_eq!(
        trace
            .get("counters")
            .and_then(|t| t.get("decompose.xnor_dom"))
            .and_then(Json::as_u64),
        Some(14)
    );
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("flow"));
    assert_eq!(spans[0].get("ns").and_then(Json::as_u64), Some(12_500_000));
    let children = spans[0]
        .get("children")
        .and_then(Json::as_arr)
        .expect("children");
    assert_eq!(
        children[0].get("name").and_then(Json::as_str),
        Some("flow.decompose")
    );
    // Re-render → re-parse: the round trip is stable.
    let again = parse(&doc.render()).expect("re-parses");
    assert_eq!(again, doc);
}
