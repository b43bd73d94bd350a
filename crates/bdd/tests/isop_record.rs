//! Property test for `Manager::isop_record`: the recorded cover's cube
//! and literal counts are those of the cubes it writes, and counting then
//! writing leaves the manager exactly as one `isop` call does (same
//! cubes, cover, `OpStats` and arena size), over random functions and
//! random `lower ⊆ upper` pairs.

use bds_bdd::{Cube, Edge, Manager};
use bds_prop::{check_cases, Rng};

/// A manager over 2–9 variables holding a random pair `lower ⊆ upper`,
/// drawn from `seed` so that two managers can hold the same pair.
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
        let seed = rng.next_u64();
        let (mut m, lower, upper) = random_interval(seed);
        let (isop, cover) = m.isop_record(lower, upper).unwrap();
        let cubes = isop.cubes();
        assert_eq!(isop.cube_count(), cubes.len());
        assert_eq!(
            isop.literal_count(),
            cubes.iter().map(Cube::len).sum::<usize>()
        );

        let (mut reference, lower, upper) = random_interval(seed);
        let (ref_cubes, ref_cover) = reference.isop(lower, upper).unwrap();
        assert_eq!(m.op_stats(), reference.op_stats());
        assert_eq!(m.arena_size(), reference.arena_size());
        assert_eq!((&cubes, cover), (&ref_cubes, ref_cover));
        assert!(m.leq(lower, cover).unwrap() && m.leq(cover, upper).unwrap());
        assert_eq!(m.sum_of_cubes(&cubes).unwrap(), cover);
    });
}
