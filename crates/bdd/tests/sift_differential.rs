//! Sifting pinned by digests: `reorder::sift` (candidates sized on the
//! swap table, rebuilds only where they can be accepted) must return the
//! variable order, root edges, arena size and operation counters, or the
//! error, recorded in `tests/digests/sift_differential.txt`, on random
//! multi-root functions over 4–17 variables, random `SiftLimits`, and
//! node limits that are unlimited, tight (many candidate rebuilds fail,
//! some because the order's graph exceeds the limit) or twice the start
//! size. The baseline was recorded while a frozen copy of the
//! rebuild-every-candidate loop `sift` replaced still agreed with it.
//! Under `strict-checks` (always on in debug builds) `sift` also audits
//! its swap table against every rebuild it runs, and rebuilds the first
//! position each sweep skipped at its lower bound in either direction.

use bds_bdd::reorder::{sift, SiftLimits};
use bds_bdd::{Edge, Manager, Var};
use bds_prop::{check_cases, Rng};

/// Randomized cases; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 200 } else { 3000 };

/// A random function over `vars`: a chain of and/or/xor/ite steps on
/// literals of both polarities and earlier results.
fn random_function(rng: &mut Rng, m: &mut Manager, vars: &[Var], pool: &mut Vec<Edge>) -> Edge {
    let mut f = m.literal(*rng.choose(vars), rng.bool());
    for _ in 0..rng.range_usize(1..2 * vars.len() + 2) {
        let g = if !pool.is_empty() && rng.ratio(0.2) {
            *rng.choose(pool)
        } else {
            m.literal(*rng.choose(vars), rng.bool())
        };
        f = match rng.range_u32(0..4) {
            0 => m.and(f, g),
            1 => m.or(f, g),
            2 => m.xor(f, g),
            _ => {
                let s = m.literal(*rng.choose(vars), true);
                m.ite(s, f, g)
            }
        }
        .expect("unlimited");
        pool.push(f);
    }
    f
}

/// Which node limit a case runs under.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Limit {
    Unlimited,
    Tight,
    Double,
}

#[test]
fn sift_matches_the_rebuild_reference() {
    let (mut improving, mut errors) = (0u32, 0u32);
    let mut by_limit = [0u32; 3];
    let mut digests = bds_prop::digests!("random");
    let mut case = 0u32;
    check_cases("sift matches its digests", CASES, |rng| {
        let mut m = Manager::new();
        let vars = m.new_vars(rng.range_usize(4..18));
        let mut pool = Vec::new();
        let roots: Vec<Edge> = (0..rng.range_usize(1..5))
            .map(|_| random_function(rng, &mut m, &vars, &mut pool))
            .collect();
        let start = m.count_nodes(&roots);
        let limit = *rng.choose(&[Limit::Unlimited, Limit::Tight, Limit::Double]);
        by_limit[limit as usize] += 1;
        m.set_node_limit(match limit {
            Limit::Unlimited => usize::MAX,
            Limit::Tight => start + rng.range_usize(0..start / 4 + 2),
            Limit::Double => 2 * start,
        });
        let limits = SiftLimits {
            max_nodes: 20_000,
            max_vars: rng.range_usize(1..25),
            passes: rng.range_usize(1..4),
        };

        let text = match sift(&m, &roots, limits) {
            Ok((gm, gr)) => {
                improving += u32::from(gm.count_nodes(&gr) < start);
                format!(
                    "{:?} {gr:?} arena={} {:?}",
                    gm.order(),
                    gm.arena_size(),
                    gm.op_stats()
                )
            }
            Err(e) => {
                errors += 1;
                format!("error: {e}")
            }
        };
        digests.add(format!("{case:04}"), text);
        case += 1;
    });
    println!(
        "{CASES} cases ({by_limit:?} unlimited/tight/double): {improving} improving, \
         {errors} errors"
    );
    assert!(
        improving > CASES / 4,
        "too few improving sifts: {improving}"
    );
    digests.check();
}

/// A limit that trips exactly on a literal: `transfer` reports the node
/// limit instead of panicking, and `sift` skips such candidates.
#[test]
fn node_limit_on_a_literal_is_an_error() {
    use bds_bdd::transfer::transfer;
    use bds_bdd::BddError;

    let mut src = Manager::new();
    let a = src.new_vars(3);
    let b = src.new_vars(3);
    let mut f = Edge::ZERO;
    for i in 0..3 {
        let (la, lb) = (src.literal(a[i], true), src.literal(b[i], true));
        let t = src.and(la, lb).unwrap();
        f = src.or(f, t).unwrap();
    }

    // The rebuild starts at the bottom: the literal b2 and nothing else
    // fits under a limit of 2 (terminal + one node), so the limit trips
    // on the next literal, b1.
    let mut dst = Manager::with_node_limit(2);
    let dv = dst.new_vars(6);
    assert_eq!(
        transfer(&src, &mut dst, f, &dv),
        Err(BddError::NodeLimit { limit: 2 })
    );

    // Sweep the limit across the sizes sifting goes through: some
    // candidate rebuilds now fail on a literal, which must be skipped.
    let mut outcomes = [0u32; 2];
    for limit in 1..64 {
        src.set_node_limit(limit);
        match sift(&src, &[f], SiftLimits::default()) {
            Ok((m2, r2)) => {
                outcomes[0] += 1;
                assert!(m2.count_nodes(&r2) <= src.count_nodes(&[f]));
                for bits in 0..64u32 {
                    let assign: Vec<bool> = (0..6).map(|i| bits >> i & 1 == 1).collect();
                    assert_eq!(src.eval(f, &assign), m2.eval(r2[0], &assign));
                }
            }
            Err(e) => {
                outcomes[1] += 1;
                assert_eq!(e, BddError::NodeLimit { limit });
            }
        }
    }
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
