//! Property-based tests of the core invariants, using random function
//! and network generators driven by the deterministic `bds-prop` harness.
//!
//! Beyond the semantic contracts (restrict, ISOP, reorder, transfer,
//! decompose, factor, sweep, BLIF), this suite exercises the structural
//! auditors: random operation sequences are applied to [`Manager`]s and
//! [`Network`]s with `check_invariants` called after every step, so any
//! canonical-form or DAG-consistency regression fails with a replayable
//! case seed.

use bds_prop::{check_cases, Rng};

use bds_repro::bdd::{reorder, transfer, Edge, Manager, Var};
use bds_repro::core::decompose::{DecomposeParams, Decomposer};
use bds_repro::core::factor_tree::FactorForest;
use bds_repro::network::verify::{verify, Verdict};
use bds_repro::network::{blif, cover_to_bdd, isop_cubes, EliminateParams, Network};
use bds_repro::sop::{factor::factor, Cover, Cube};

const NVARS: usize = 5;
const CASES: u32 = 64;

/// A random Boolean expression encoded as a sequence of (op, var, phase)
/// instructions folded left-to-right.
fn random_program(rng: &mut Rng) -> Vec<(u8, u8, bool)> {
    let len = rng.range_usize(1..12);
    (0..len)
        .map(|_| {
            (
                rng.range_u32(0..4) as u8,
                rng.range_u32(0..NVARS as u32) as u8,
                rng.bool(),
            )
        })
        .collect()
}

fn build_bdd(m: &mut Manager, vars: &[Var], prog: &[(u8, u8, bool)]) -> Edge {
    let mut acc = Edge::ZERO;
    for &(op, v, phase) in prog {
        let lit = m.literal(vars[v as usize], phase);
        acc = match op {
            0 => m.and(acc, lit).expect("unlimited"),
            1 => m.or(acc, lit).expect("unlimited"),
            2 => m.xor(acc, lit).expect("unlimited"),
            _ => m.ite(lit, acc, lit.complement()).expect("unlimited"),
        };
    }
    acc
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..1u32 << NVARS).map(|bits| (0..NVARS).map(|i| bits >> i & 1 == 1).collect())
}

/// restrict contract: restrict(f, c) · c == f · c.
#[test]
fn restrict_contract() {
    check_cases("restrict contract", CASES, |rng| {
        let fp = random_program(rng);
        let cp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let c = build_bdd(&mut m, &vars, &cp);
        let r = m.restrict(f, c).expect("unlimited");
        let rc = m.and(r, c).expect("unlimited");
        let fc = m.and(f, c).expect("unlimited");
        assert_eq!(rc, fc);
    });
}

/// ISOP exactness: the cubes of `isop_record(f, f)` rebuild f.
#[test]
fn isop_exact() {
    check_cases("isop exact", CASES, |rng| {
        let fp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let (isop, cover) = m.isop_record(f, f).expect("unlimited");
        assert_eq!(cover, f);
        let cubes = Cover::from_cubes(isop_cubes(&isop));
        let rebuilt = cover_to_bdd(&mut m, &cubes, &vars).expect("unlimited");
        assert_eq!(rebuilt, f);
    });
}

/// Reordering by sifting preserves the function pointwise, and the
/// reordered manager passes the full structural audit.
#[test]
fn sift_preserves_function() {
    check_cases("sift preserves function", CASES, |rng| {
        let fp = random_program(rng);
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let (m2, roots) =
            reorder::sift(&m, &[f], reorder::SiftLimits::default()).expect("unlimited");
        m2.check_invariants().expect("sifted manager is canonical");
        for assign in assignments() {
            assert_eq!(m.eval(f, &assign), m2.eval(roots[0], &assign));
        }
    });
}

/// Cross-manager transfer under the identity map preserves semantics and
/// canonical form in the destination.
#[test]
fn transfer_preserves_function() {
    check_cases("transfer preserves function", CASES, |rng| {
        let fp = random_program(rng);
        let mut src = Manager::new();
        let vars = src.new_vars(NVARS);
        let f = build_bdd(&mut src, &vars, &fp);
        let mut dst = Manager::new();
        let dvars = dst.new_vars(NVARS);
        let g = transfer::transfer(&src, &mut dst, f, &dvars).expect("unlimited");
        dst.check_invariants()
            .expect("transfer target is canonical");
        for assign in assignments() {
            assert_eq!(src.eval(f, &assign), dst.eval(g, &assign));
        }
    });
}

/// Random apply/ite/cofactor/restrict sequences keep the manager in
/// canonical form after every single step — the unique table stays
/// duplicate-free, then-edges regular, levels ordered, caches in-arena.
#[test]
fn manager_survives_random_op_sequences() {
    check_cases("manager op-sequence audit", CASES, |rng| {
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let mut pool: Vec<Edge> = vars.iter().map(|&v| m.literal(v, true)).collect();
        pool.push(Edge::ZERO);
        pool.push(Edge::ONE);
        let steps = rng.range_usize(4..24);
        for _ in 0..steps {
            let f = *rng.choose(&pool);
            let g = *rng.choose(&pool);
            let h = *rng.choose(&pool);
            let var = vars[rng.range_usize(0..vars.len())];
            let produced = match rng.range_u32(0..7) {
                0 => m.and(f, g),
                1 => m.or(f, g),
                2 => m.xor(f, g),
                3 => m.ite(f, g, h),
                4 => m.cofactor(f, var, rng.bool()),
                5 => m.restrict(f, g),
                _ => Ok(f.complement()),
            };
            let e = produced.expect("node limit is unbounded in this test");
            pool.push(e);
            m.check_invariants()
                .expect("manager stays canonical after every op");
        }
        // Finish the sequence the way the flow does: sift, then transfer
        // into a fresh manager; both results must also audit clean.
        let roots: Vec<Edge> = pool.iter().copied().filter(|e| !e.is_const()).collect();
        if roots.is_empty() {
            return;
        }
        let (m2, moved) =
            reorder::sift(&m, &roots, reorder::SiftLimits::default()).expect("unlimited");
        m2.check_invariants().expect("sifted manager is canonical");
        let mut dst = Manager::new();
        let dvars = dst.new_vars(NVARS);
        let g = transfer::transfer(&m2, &mut dst, moved[0], &dvars).expect("unlimited");
        dst.check_invariants()
            .expect("transfer target is canonical");
        for assign in assignments() {
            assert_eq!(m2.eval(moved[0], &assign), dst.eval(g, &assign));
        }
    });
}

/// Decomposition soundness: the factoring tree is pointwise equal to the
/// BDD it came from, for any function and either method priority.
#[test]
fn decompose_sound() {
    check_cases("decompose sound", CASES, |rng| {
        let fp = random_program(rng);
        let balance = rng.bool();
        let mut m = Manager::new();
        let vars = m.new_vars(NVARS);
        let f = build_bdd(&mut m, &vars, &fp);
        let mut forest = FactorForest::new();
        let mut dec = Decomposer::new();
        let params = DecomposeParams {
            balance_dominators: balance,
            ..Default::default()
        };
        let root = dec
            .decompose(&mut m, f, &mut forest, &params)
            .expect("unlimited");
        m.check_invariants()
            .expect("decomposition leaves the manager canonical");
        for assign in assignments() {
            assert_eq!(m.eval(f, &assign), forest.eval(root, &assign));
        }
    });
}

/// Algebraic factoring preserves the function and never increases literal
/// count.
#[test]
fn factor_sound() {
    check_cases("factor sound", CASES, |rng| {
        let ncubes = rng.range_usize(1..6);
        let cover: Cover = (0..ncubes)
            .filter_map(|_| {
                let nlits = rng.range_usize(1..4);
                Cube::new(
                    (0..nlits)
                        .map(|_| (rng.range_u32(0..NVARS as u32), rng.bool()))
                        .collect(),
                )
            })
            .collect();
        if cover.is_empty() {
            return;
        }
        let e = factor(&cover);
        for assign in assignments() {
            assert_eq!(e.eval(&assign), cover.eval(&assign));
        }
        assert!(e.literal_count() <= cover.literal_count());
    });
}

/// sweep preserves network behaviour on random gate networks and leaves a
/// structurally sound network behind.
#[test]
fn sweep_preserves_network() {
    check_cases("sweep preserves network", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        net.check_invariants()
            .expect("generator builds sound networks");
        let mut swept = net.clone();
        swept.sweep().expect("sweep succeeds on sound networks");
        swept.check_invariants().expect("sweep preserves soundness");
        for bits in 0..1u32 << net.inputs().len() {
            let assign: Vec<bool> = (0..net.inputs().len())
                .map(|i| bits >> i & 1 == 1)
                .collect();
            assert_eq!(net.eval(&assign).unwrap(), swept.eval(&assign).unwrap());
        }
    });
}

/// The sweep → eliminate → compact pipeline keeps the network auditable
/// at every stage and preserves its function.
#[test]
fn network_pipeline_stays_sound() {
    check_cases("network pipeline audit", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        let mut work = net.clone();
        work.sweep().expect("sweep");
        work.check_invariants().expect("after sweep");
        work.eliminate(&EliminateParams::default())
            .expect("eliminate");
        work.check_invariants().expect("after eliminate");
        let work = work.compacted().expect("compacted");
        work.check_invariants().expect("after compaction");
        assert_eq!(
            verify(&net, &work, 1_000_000).expect("verify"),
            Verdict::Equivalent,
            "pipeline must preserve the function"
        );
    });
}

/// BLIF write → parse → verify round trip is behaviour-preserving.
#[test]
fn blif_round_trip() {
    check_cases("blif round trip", CASES, |rng| {
        let fp = random_program(rng);
        let seed = rng.next_u64();
        let net = random_net(&fp, seed);
        let text = blif::write(&net);
        let parsed = blif::parse(&text).expect("own output must parse");
        parsed.check_invariants().expect("parsed network is sound");
        assert_eq!(
            verify(&net, &parsed, 1_000_000).expect("verify"),
            Verdict::Equivalent,
            "round trip must preserve the function"
        );
    });
}

/// Builds a small network from the expression program: a chain of 2-input
/// gates mirroring `build_bdd`'s semantics.
fn random_net(prog: &[(u8, u8, bool)], seed: u64) -> Network {
    let mut net = Network::new(format!("p{seed}"));
    let inputs: Vec<_> = (0..NVARS)
        .map(|i| net.add_input(format!("i{i}")).expect("unique"))
        .collect();
    let mut acc = net.add_constant("zero", false).expect("unique");
    for (k, &(op, v, phase)) in prog.iter().enumerate() {
        let lit_in = inputs[v as usize];
        let cover = match op {
            0 => Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, phase)])]),
            1 => Cover::from_cubes(vec![Cube::lit(0, true), Cube::lit(1, phase)]),
            2 => Cover::from_cubes(vec![
                Cube::parse(&[(0, true), (1, !phase)]),
                Cube::parse(&[(0, false), (1, phase)]),
            ]),
            _ => Cover::from_cubes(vec![
                Cube::parse(&[(1, phase), (0, true)]),
                Cube::parse(&[(1, !phase), (0, false)]),
            ]),
        };
        acc = net
            .add_node(format!("n{k}"), vec![acc, lit_in], cover)
            .expect("unique");
    }
    net.mark_output(acc).expect("valid");
    net
}
