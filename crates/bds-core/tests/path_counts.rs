//! Property tests for `PathInfo`: its one-pass counts against brute-force
//! enumeration of every root-to-terminal path of the lifted graph, on
//! random functions of at most ten variables, and its saturation flag on
//! parity functions whose path counts straddle `u64::MAX`.

use std::collections::BTreeMap;

use bds::dominators::{one_dominators, x_dominators, zero_dominators};
use bds::lifted::{PathInfo, TERMINAL};
use bds_bdd::{Edge, Manager, VisitMarks};
use bds_prop::{check_cases, Rng};

/// Per-vertex counts found by enumerating paths.
#[derive(Default)]
struct Brute {
    /// Paths from the root reaching each vertex.
    down: BTreeMap<Edge, u64>,
    /// `(1-paths, 0-paths)` through each vertex.
    through: BTreeMap<Edge, (u64, u64)>,
    totals: (u64, u64),
}

/// Walks every path from `e`, with `path` the vertices above it.
fn enumerate(m: &Manager, e: Edge, path: &mut Vec<Edge>, out: &mut Brute) {
    if e.is_const() {
        for v in path.iter() {
            let slot = out.through.entry(*v).or_default();
            if e.is_one() {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
        if e.is_one() {
            out.totals.0 += 1;
        } else {
            out.totals.1 += 1;
        }
        return;
    }
    *out.down.entry(e).or_default() += 1;
    let (_, t, el) = m.node(e).unwrap();
    path.push(e);
    enumerate(m, t, path, out);
    enumerate(m, el, path, out);
    path.pop();
}

/// A random function over `n` variables.
fn random_function(rng: &mut Rng, m: &mut Manager, n: usize) -> Edge {
    let vars = m.new_vars(n);
    let mut pool: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
    let steps = rng.range_usize(n..3 * n + 3);
    for _ in 0..steps {
        let a = rng.choose(&pool).complement_if(rng.bool());
        let b = rng.choose(&pool).complement_if(rng.bool());
        let f = match rng.range_u32(0..3) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            _ => m.xor(a, b),
        }
        .unwrap();
        pool.push(f);
    }
    pool.last().unwrap().complement_if(rng.bool())
}

#[test]
fn counts_match_path_enumeration() {
    // One marks value across cases and managers, as a Decomposer keeps it.
    let mut marks = VisitMarks::new();
    check_cases("path_counts", 300, |rng| {
        let mut m = Manager::new();
        let n = rng.range_usize(1..11);
        let f = random_function(rng, &mut m, n);
        let info = PathInfo::compute(&m, f, &mut marks);
        let mut brute = Brute::default();
        enumerate(&m, f, &mut Vec::new(), &mut brute);

        assert_eq!(info.totals, brute.totals);
        assert!(!info.saturated(), "at most 2^10 paths");
        let mut vertices: Vec<Edge> = info.order.clone();
        vertices.sort_unstable();
        assert_eq!(
            vertices,
            brute.down.keys().copied().collect::<Vec<_>>(),
            "order holds every reachable vertex once"
        );
        if !f.is_const() {
            assert_eq!(info.order[0], f, "the root comes first");
        }
        let n = info.order.len();
        for (i, &v) in info.order.iter().enumerate() {
            assert_eq!(info.down[i], brute.down[&v], "down of {v:?}");
            assert_eq!(info.through[i], brute.through[&v], "through of {v:?}");
            let (up1, up0) = info.up[i];
            assert_eq!(info.through[i], (info.down[i] * up1, info.down[i] * up0));
            assert_eq!(info.level[i], m.top_level(v));
            let (_, t, el) = m.node(v).unwrap();
            for (child, c) in [t, el].into_iter().zip(info.children[i]) {
                if child.is_const() {
                    assert_eq!(c, TERMINAL);
                } else {
                    assert!(c as usize > i, "children follow their parents");
                    assert_eq!(info.order[c as usize], child);
                }
            }
            let partner = info.order.iter().position(|&w| w == v.complement());
            assert_eq!(info.partner[i], partner.map_or(TERMINAL, |j| j as u32));
        }
        let mut discovery = info.discovery.clone();
        discovery.sort_unstable();
        assert_eq!(discovery, (0..n as u32).collect::<Vec<_>>());
        assert_eq!(info.discovery.first().copied(), (n > 0).then_some(0));
    });
}

/// Parity of `n` variables: `2^(n-1)` 1-paths and as many 0-paths.
fn parity(m: &mut Manager, n: usize) -> Edge {
    let vars = m.new_vars(n);
    let mut f = Edge::ZERO;
    for v in vars {
        let l = m.literal(v, true);
        f = m.xor(f, l).unwrap();
    }
    f
}

#[test]
fn saturation_is_flagged_exactly_past_u64() {
    let mut marks = VisitMarks::new();
    let mut m = Manager::new();
    let f = parity(&mut m, 64);
    let info = PathInfo::compute(&m, f, &mut marks);
    assert_eq!(info.totals, (1 << 63, 1 << 63));
    assert!(!info.saturated());
    assert!(
        !x_dominators(&info).is_empty(),
        "every parity node is on every path"
    );

    let mut m = Manager::new();
    let f = parity(&mut m, 65);
    let info = PathInfo::compute(&m, f, &mut marks);
    assert_eq!(info.totals, (u64::MAX, u64::MAX));
    assert!(info.saturated());
    assert!(one_dominators(&info).is_empty());
    assert!(zero_dominators(&info).is_empty());
    assert!(x_dominators(&info).is_empty());
}

#[test]
fn constant_roots_have_no_vertices() {
    let m = Manager::new();
    let mut marks = VisitMarks::new();
    for (c, totals) in [(Edge::ONE, (1, 0)), (Edge::ZERO, (0, 1))] {
        let info = PathInfo::compute(&m, c, &mut marks);
        assert!(info.order.is_empty());
        assert_eq!(info.totals, totals);
        assert!(!info.saturated());
    }
}
