//! Property test for `Manager::isop_record`: the recorded cover's cube
//! and literal counts are those of the cubes it hands out, each cube's
//! literals come sorted by variable, and the cubes rebuild the cover,
//! over random functions and random `lower ⊆ upper` pairs.

use bds_bdd::{Edge, Manager};
use bds_prop::{check_cases, Rng};

/// A manager over 2–9 variables holding a random pair `lower ⊆ upper`,
/// drawn from `seed`.
fn random_interval(seed: u64) -> (Manager, Edge, Edge) {
    let mut rng = Rng::new(seed);
    let mut m = Manager::new();
    let vars = m.new_vars(rng.range_usize(2..10));
    let mut random = |m: &mut Manager| {
        let mut f = m.literal(*rng.choose(&vars), rng.bool());
        for _ in 0..rng.range_usize(0..2 * vars.len()) {
            let g = m.literal(*rng.choose(&vars), rng.bool());
            f = match rng.range_u32(0..3) {
                0 => m.and(f, g),
                1 => m.or(f, g),
                _ => m.xor(f, g),
            }
            .unwrap();
        }
        f
    };
    let f = random(&mut m);
    let g = random(&mut m);
    let lower = m.and(f, g).unwrap();
    let upper = m.or(f, g).unwrap();
    (m, lower, upper)
}

#[test]
fn isop_record_counts_match_its_cubes() {
    check_cases("isop record counts", 300, |rng| {
        let (mut m, lower, upper) = random_interval(rng.next_u64());
        let (isop, cover) = m.isop_record(lower, upper).unwrap();
        let mut cubes = Vec::new();
        isop.for_each_cube(|lits| cubes.push(lits.to_vec()));
        assert_eq!(isop.cube_count(), cubes.len());
        assert_eq!(
            isop.literal_count(),
            cubes.iter().map(Vec::len).sum::<usize>()
        );
        assert!(cubes
            .iter()
            .all(|lits| lits.windows(2).all(|w| w[0].0 < w[1].0)));
        assert!(m.leq(lower, cover).unwrap() && m.leq(cover, upper).unwrap());

        let mut sum = Edge::ZERO;
        for lits in cubes {
            let mut cube = Edge::ONE;
            for (v, p) in lits {
                let lit = m.literal(v, p);
                cube = m.and(cube, lit).unwrap();
            }
            sum = m.or(sum, cube).unwrap();
        }
        assert_eq!(sum, cover);
    });
}
