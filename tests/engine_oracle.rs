//! Reference-oracle differential suite for the engine core.
//!
//! The fast engine (canonical ITE triples, packed keys, fast hashing,
//! rebuild-based reordering) is gated by the deliberately naive
//! truth-table engine in `tests/oracle`: random operation sequences are
//! applied to both, truth-table equality is asserted after **every**
//! operation, and the full structural audit (`check_invariants`) runs
//! after every step — including across forced reorders that move the
//! whole pool into a fresh manager mid-sequence.
//! Every case is seeded by `bds-prop`, so any failure replays exactly.

mod oracle;

use bds_prop::{check_cases, Rng};
use bds_repro::bdd::reorder::{sift, SiftLimits};
use bds_repro::bdd::{Edge, IteNorm, Manager, Var};
use oracle::Oracle;

/// Variable universe for the randomized differential cases. Small
/// enough that a truth-table comparison is 32 entries, large enough for
/// non-trivial sharing and reordering behaviour.
const NVARS: usize = 5;

/// Cap on the live function pool per case; a new result replaces a
/// random slot once the pool is full, so dead nodes accumulate — the
/// garbage a forced reorder must then leave behind.
const POOL_CAP: usize = 16;

/// Randomized cases per property (the acceptance floor is 200).
const CASES: u32 = 220;

/// One engine function paired with its ground-truth table.
type Tracked = (Edge, Oracle);

fn seed_pool(m: &mut Manager, vars: &[Var]) -> Vec<Tracked> {
    let mut pool: Vec<Tracked> = vec![
        (Edge::ONE, Oracle::constant(NVARS, true)),
        (Edge::ZERO, Oracle::constant(NVARS, false)),
    ];
    for (i, &v) in vars.iter().enumerate() {
        pool.push((m.literal(v, true), Oracle::literal(NVARS, i, true)));
    }
    pool
}

/// Asserts that every pool entry still computes its recorded function
/// and that the manager is structurally sound.
fn audit_pool(m: &Manager, pool: &[Tracked], when: &str) {
    m.check_invariants()
        .unwrap_or_else(|e| panic!("invariants broken {when}: {e}"));
    for (i, (e, oracle)) in pool.iter().enumerate() {
        assert_eq!(
            &Oracle::from_manager(m, *e, NVARS),
            oracle,
            "pool entry {i} diverged from the oracle {when}"
        );
    }
}

/// Records `entry` in the pool, replacing a random slot once the pool
/// is at capacity (keeping the constants and literals replaceable too —
/// they can always be rebuilt by later draws).
fn push(pool: &mut Vec<Tracked>, rng: &mut Rng, entry: Tracked) {
    if pool.len() < POOL_CAP {
        pool.push(entry);
    } else {
        let slot = rng.range_usize(0..pool.len());
        pool[slot] = entry;
    }
}

/// Forces a reorder (rebuild-based sifting) and re-verifies the pool in
/// the new manager.
fn force_reorder(m: Manager, pool: &mut [Tracked]) -> Manager {
    let edges: Vec<Edge> = pool.iter().map(|p| p.0).collect();
    let (m2, edges2) = sift(&m, &edges, SiftLimits::default()).expect("sift is unbudgeted here");
    for (slot, &e) in pool.iter_mut().zip(&edges2) {
        slot.0 = e;
    }
    audit_pool(&m2, pool, "after forced reorder");
    m2
}

#[test]
fn randomized_ops_agree_with_the_oracle() {
    check_cases("engine vs oracle", CASES, |rng| {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let mut pool = seed_pool(&mut m, &vars);
        audit_pool(&m, &pool, "after seeding");

        let steps = rng.range_usize(8..20);
        for step in 0..steps {
            let (f, of) = pool[rng.range_usize(0..pool.len())].clone();
            let (g, og) = pool[rng.range_usize(0..pool.len())].clone();
            let (h, oh) = pool[rng.range_usize(0..pool.len())].clone();
            let entry: Tracked = match rng.range_u32(0..7) {
                0 => (m.and(f, g).unwrap(), of.and(&og)),
                1 => (m.or(f, g).unwrap(), of.or(&og)),
                2 => (m.xor(f, g).unwrap(), of.xor(&og)),
                3 => (f.complement(), of.not()),
                4 => (m.ite(f, g, h).unwrap(), of.ite(&og, &oh)),
                5 => {
                    // Restrict is heuristic: its contract is
                    // r·c == f·c, adjudicated by the oracle; the
                    // result's own table is then read back as the
                    // ground truth for later ops.
                    let r = m.restrict(f, g).unwrap();
                    let or = Oracle::from_manager(&m, r, NVARS);
                    assert_eq!(
                        or.and(&og),
                        of.and(&og),
                        "restrict contract violated at step {step}"
                    );
                    (r, or)
                }
                _ => {
                    let vi = rng.range_usize(0..NVARS);
                    (m.compose(f, vars[vi], g).unwrap(), of.compose(vi, &og))
                }
            };
            assert_eq!(
                Oracle::from_manager(&m, entry.0, NVARS),
                entry.1,
                "result diverged from the oracle at step {step}"
            );
            audit_pool(&m, &pool, "mid-sequence");
            push(&mut pool, rng, entry);

            // Interleave reorders into the op sequence itself, not
            // just at the end — the ops that follow must work on the
            // rebuilt manager.
            if rng.ratio(0.15) {
                m = force_reorder(m, &mut pool);
            }
        }

        // Every case ends with one more reorder.
        let m = force_reorder(m, &mut pool);

        // The op-accounting identity survives everything above.
        let ops = m.op_stats();
        assert_eq!(
            ops.ite_calls,
            ops.terminal_hits + ops.cache_hits + ops.cache_misses,
            "every ite call is exactly one of terminal/hit/miss"
        );
    });
}

#[test]
fn canonicalization_preserves_semantics_and_is_idempotent() {
    check_cases("ite canonicalization", CASES, |rng| {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let mut pool = seed_pool(&mut m, &vars);
        // A few composite functions so triples see non-literal inputs.
        for _ in 0..4 {
            let (f, of) = pool[rng.range_usize(0..pool.len())].clone();
            let (g, og) = pool[rng.range_usize(0..pool.len())].clone();
            let e = match rng.range_u32(0..3) {
                0 => (m.and(f, g).unwrap(), of.and(&og)),
                1 => (m.or(f, g).unwrap(), of.or(&og)),
                _ => (m.xor(f, g).unwrap(), of.xor(&og)),
            };
            pool.push(e);
        }
        for _ in 0..16 {
            let (mut f, mut of) = pool[rng.range_usize(0..pool.len())].clone();
            let (mut g, mut og) = pool[rng.range_usize(0..pool.len())].clone();
            let (mut h, mut oh) = pool[rng.range_usize(0..pool.len())].clone();
            // Random phases multiply the variant space the
            // canonicalization must collapse.
            if rng.bool() {
                f = f.complement();
                of = of.not();
            }
            if rng.bool() {
                g = g.complement();
                og = og.not();
            }
            if rng.bool() {
                h = h.complement();
                oh = oh.not();
            }
            let want = of.ite(&og, &oh);
            match m.canonicalize_ite(f, g, h) {
                IteNorm::Done(r) => {
                    assert_eq!(
                        Oracle::from_manager(&m, r, NVARS),
                        want,
                        "terminal-rule result diverged"
                    );
                }
                IteNorm::Triple {
                    f: cf,
                    g: cg,
                    h: ch,
                    negate,
                } => {
                    assert!(
                        !cf.is_complemented() && !cf.is_const(),
                        "canonical f must be a regular decision node"
                    );
                    assert!(!cg.is_complemented(), "canonical g must be regular");
                    // Idempotence: canonicalize(canonicalize(t)) == canonicalize(t).
                    assert_eq!(
                        m.canonicalize_ite(cf, cg, ch),
                        IteNorm::Triple {
                            f: cf,
                            g: cg,
                            h: ch,
                            negate: false
                        },
                        "canonicalization must be idempotent"
                    );
                    // Semantics: ite(canonical) ⊕ negate == ite(original).
                    let r = m.ite(cf, cg, ch).unwrap().complement_if(negate);
                    assert_eq!(
                        Oracle::from_manager(&m, r, NVARS),
                        want,
                        "canonical triple changed the function"
                    );
                }
            }
            m.check_invariants().unwrap();
        }
    });
}

/// Equivalent `ite` phrasings must land on one computed-table entry:
/// after the first composite query, each symmetric/complemented variant
/// is a cache hit, not a fresh miss.
#[test]
fn structurally_equal_queries_share_cache_entries() {
    let mut m = Manager::new();
    let vars = m.new_vars(4);
    let la = m.literal(vars[0], true);
    let lb = m.literal(vars[1], true);
    let lc = m.literal(vars[2], true);
    let ld = m.literal(vars[3], true);
    let ab = m.and(la, lb).unwrap();
    let cd = m.or(lc, ld).unwrap();
    let first = m.and(ab, cd).unwrap();
    let misses = m.op_stats().cache_misses;
    // Symmetric argument order, De-Morgan phrasing, complement phases:
    // all collapse onto the cached triple.
    let variants = [
        m.and(cd, ab).unwrap(),
        m.or(ab.complement(), cd.complement()).unwrap().complement(),
    ];
    for v in variants {
        assert_eq!(v, first);
    }
    assert_eq!(
        m.op_stats().cache_misses,
        misses,
        "every variant must reuse the canonical cache entry"
    );
}
