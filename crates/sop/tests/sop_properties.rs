//! Property-based tests of the cube/SOP algebra (deterministic seeded
//! cases via `bds-prop`).

use bds_prop::{check_cases, Rng};
use bds_sop::division::{divide, divide_by_cube};
use bds_sop::factor::factor;
use bds_sop::kernel::{common_cube, is_cube_free, kernels};
use bds_sop::{Cover, Cube};

const NVARS: u32 = 6;
const CASES: u32 = 96;

fn random_cube(rng: &mut Rng) -> Option<Cube> {
    let n = rng.range_usize(1..4);
    let lits: Vec<(u32, bool)> = (0..n)
        .map(|_| (rng.range_u32(0..NVARS), rng.bool()))
        .collect();
    Cube::new(lits)
}

fn random_cover(rng: &mut Rng) -> Cover {
    let n = rng.range_usize(1..7);
    (0..n).filter_map(|_| random_cube(rng)).collect()
}

fn eval_everywhere(f: &Cover) -> Vec<bool> {
    (0..1u32 << NVARS)
        .map(|bits| {
            let a: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            f.eval(&a)
        })
        .collect()
}

/// Weak division reconstructs: f == q·d + r as a cube set.
#[test]
fn division_reconstructs() {
    check_cases("division_reconstructs", CASES, |rng| {
        let f = random_cover(rng);
        let d = random_cover(rng);
        let div = divide(&f, &d);
        let rebuilt = div.quotient.and(&d).or(&div.remainder);
        assert_eq!(rebuilt, f);
    });
}

/// Cube division reconstructs exactly too.
#[test]
fn cube_division_reconstructs() {
    check_cases("cube_division_reconstructs", CASES, |rng| {
        let f = random_cover(rng);
        let Some(c) = random_cube(rng) else { return };
        let div = divide_by_cube(&f, &c);
        let rebuilt = div.quotient.times_cube(&c).or(&div.remainder);
        assert_eq!(rebuilt, f);
    });
}

/// Kernels: every kernel is the quotient of its co-kernel and is
/// cube-free.
#[test]
fn kernels_are_cube_free_quotients() {
    check_cases("kernels_are_cube_free_quotients", CASES, |rng| {
        let f = random_cover(rng).scc_minimal();
        for k in kernels(&f) {
            let q = divide_by_cube(&f, &k.co_kernel).quotient;
            let cc = common_cube(&q);
            let reduced = divide_by_cube(&q, &cc).quotient;
            assert_eq!(&reduced, &k.kernel, "co-kernel {:?}", k.co_kernel);
            assert!(is_cube_free(&k.kernel));
        }
    });
}

/// simplify never changes the function and never grows literals.
#[test]
fn simplify_preserves_function() {
    check_cases("simplify_preserves_function", CASES, |rng| {
        let f = random_cover(rng);
        let s = f.simplify();
        assert!(s.literal_count() <= f.literal_count());
        assert_eq!(eval_everywhere(&f), eval_everywhere(&s));
    });
}

/// scc_minimal preserves the function.
#[test]
fn scc_preserves_function() {
    check_cases("scc_preserves_function", CASES, |rng| {
        let f = random_cover(rng);
        let s = f.scc_minimal();
        assert!(s.len() <= f.len());
        assert_eq!(eval_everywhere(&f), eval_everywhere(&s));
    });
}

/// factor: expansion is semantically identical and never more literals
/// than the SCC-minimal flat form.
#[test]
fn factor_is_semantics_preserving() {
    check_cases("factor_is_semantics_preserving", CASES, |rng| {
        let f = random_cover(rng);
        let e = factor(&f);
        let flat = f.scc_minimal();
        assert!(e.literal_count() <= flat.literal_count());
        for bits in 0..1u32 << NVARS {
            let a: Vec<bool> = (0..NVARS).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(e.eval(&a), f.eval(&a));
        }
    });
}

/// Cofactor identity: f = x·f_x + x̄·f_x̄ (algebraic cofactor).
#[test]
fn shannon_on_covers() {
    check_cases("shannon_on_covers", CASES, |rng| {
        let f = random_cover(rng);
        let v = rng.range_u32(0..NVARS);
        let f1 = f.cofactor_lit(v, true);
        let f0 = f.cofactor_lit(v, false);
        let lit1 = Cover::from_cubes(vec![Cube::lit(v, true)]);
        let lit0 = Cover::from_cubes(vec![Cube::lit(v, false)]);
        let rebuilt = lit1.and(&f1).or(&lit0.and(&f0));
        assert_eq!(eval_everywhere(&f), eval_everywhere(&rebuilt));
    });
}

/// A cover built to trip `simplify`: random cubes plus contained cubes,
/// duplicates and distance-1 partners of them, pushed unsorted or sorted.
fn tangled_cover(rng: &mut Rng) -> Cover {
    let mut cubes: Vec<Cube> = (0..rng.range_usize(1..5))
        .filter_map(|_| random_cube(rng))
        .collect();
    if cubes.is_empty() {
        cubes.push(Cube::one());
    }
    for _ in 0..rng.range_usize(0..3) {
        let base = rng.choose(&cubes).clone();
        let mut lits = base.literals().to_vec();
        match rng.range_u32(0..3) {
            0 => lits.push((rng.range_u32(0..NVARS), rng.bool())),
            1 if !lits.is_empty() => {
                let i = rng.range_usize(0..lits.len());
                lits[i].1 = !lits[i].1;
            }
            _ => {}
        }
        cubes.extend(Cube::new(lits));
    }
    if rng.bool() {
        return Cover::from_cubes(cubes);
    }
    let mut cover = Cover::zero();
    for c in cubes {
        cover.push(c);
    }
    cover
}

/// `is_simplified` is exactly "`simplify` returns the cover unchanged",
/// on tangled covers and on already-simplified ones.
#[test]
fn is_simplified_matches_simplify() {
    let (mut minimal, mut not_minimal) = (0, 0);
    check_cases("is_simplified_matches_simplify", 4 * CASES, |rng| {
        let f = tangled_cover(rng);
        let f = if rng.ratio(0.3) { f.simplify() } else { f };
        let unchanged = f.simplify() == f;
        assert_eq!(f.is_simplified(), unchanged, "{f:?}");
        if unchanged {
            minimal += 1;
        } else {
            not_minimal += 1;
        }
    });
    assert!(
        minimal > CASES / 4 && not_minimal > CASES / 4,
        "{minimal} / {not_minimal}"
    );
}

/// `Cover::renumbered` equals renaming each cube through `Cube::new` and
/// collecting the survivors into a cover, for position maps that permute
/// positions and for maps that merge them (which may make cubes
/// contradictory).
#[test]
fn renumbered_matches_per_cube_renaming() {
    check_cases("renumbered_matches_per_cube_renaming", CASES, |rng| {
        let f = random_cover(rng);
        let mut map: Vec<u32> = (0..NVARS).collect();
        if rng.bool() {
            for i in (1..map.len()).rev() {
                map.swap(i, rng.range_usize(0..i + 1));
            }
        } else {
            let range = rng.range_u32(1..NVARS);
            map.iter_mut().for_each(|m| *m = rng.range_u32(0..range));
        }
        let reference: Cover = (f.cubes().iter())
            .filter_map(|c| {
                Cube::new(
                    c.literals()
                        .iter()
                        .map(|&(v, p)| (map[v as usize], p))
                        .collect(),
                )
            })
            .collect();
        assert_eq!(f.renumbered(|v| map[v as usize]), reference);
    });
}
