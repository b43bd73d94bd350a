//! Property test of `sweep`'s duplicate key: two covers get equal
//! [`FunctionKeys`] keys exactly when their BDDs are the same edge of one
//! reference manager, with one variable per signal.
//!
//! Each case draws a cover over up to 8 fanin positions of 10 signals
//! (repeated fanins and constant covers included) and keys four forms of
//! it: as drawn, with its positions permuted, with cubes split on further
//! positions (wide covers of narrow functions, some with more than six
//! distinct fanins), and with uses of a fanin moved to a repeat of it.
//!
//! CI runs it in release, where it keys 20,000 covers:
//! `cargo test --release -p bds-network --features strict-checks --test function_keys`.

use std::collections::HashMap;

use bds_bdd::{Edge, Manager, Var};
use bds_network::{cover_to_bdd, FunctionKey, FunctionKeys};
use bds_prop::{check_cases, Rng};
use bds_sop::{Cover, Cube};

const SIGNALS: usize = 10;

/// Cases of four covers each; debug builds (the tier-1 run) take fewer.
const CASES: u32 = if cfg!(debug_assertions) { 500 } else { 5_000 };

/// A node: its fanin signals and its cover over their positions.
type Form = (Vec<usize>, Cover);

fn random_cube(rng: &mut Rng, positions: usize) -> Cube {
    let lits = (0..positions as u32)
        .filter_map(|v| match rng.range_u32(0..4) {
            0 => Some((v, true)),
            1 => Some((v, false)),
            _ => None,
        })
        .collect();
    Cube::new(lits).expect("positions are distinct")
}

fn random_form(rng: &mut Rng) -> Form {
    let positions = rng.range_usize(0..9);
    // Drawing from three signals gives narrow functions of many positions.
    let pool = if rng.ratio(0.3) { 3 } else { SIGNALS };
    let fanins = (0..positions).map(|_| rng.range_usize(0..pool)).collect();
    let cubes = (0..rng.range_usize(0..5))
        .map(|_| random_cube(rng, positions))
        .collect();
    (fanins, Cover::from_cubes(cubes))
}

/// The same node with its positions permuted.
fn permuted(rng: &mut Rng, (fanins, cover): &Form) -> Form {
    let mut to: Vec<u32> = (0..fanins.len() as u32).collect();
    for i in (1..to.len()).rev() {
        to.swap(i, rng.range_usize(0..i + 1));
    }
    let mut moved = vec![0; fanins.len()];
    for (i, &s) in fanins.iter().enumerate() {
        moved[to[i] as usize] = s;
    }
    let cubes = cover
        .cubes()
        .iter()
        .map(|c| {
            let lits = c
                .literals()
                .iter()
                .map(|&(v, p)| (to[v as usize], p))
                .collect();
            Cube::new(lits).expect("a permutation keeps positions distinct")
        })
        .collect();
    (moved, Cover::from_cubes(cubes))
}

/// The same function with cubes split as `c = c·x + c·x'` on positions,
/// some of them new positions of random signals, so the cover mentions
/// signals the function does not depend on.
fn split(rng: &mut Rng, (fanins, cover): &Form) -> Form {
    let mut fanins = fanins.clone();
    let mut cubes = cover.cubes().to_vec();
    for _ in 0..rng.range_usize(1..6) {
        if cubes.is_empty() {
            break;
        }
        if fanins.len() < 10 && rng.bool() {
            fanins.push(rng.range_usize(0..SIGNALS));
        }
        if fanins.is_empty() {
            break;
        }
        let at = rng.range_usize(0..cubes.len());
        let v = rng.range_usize(0..fanins.len()) as u32;
        if cubes[at].literals().iter().any(|&(w, _)| w == v) {
            continue;
        }
        let cube = cubes.swap_remove(at);
        for phase in [true, false] {
            let mut lits = cube.literals().to_vec();
            lits.push((v, phase));
            cubes.push(Cube::new(lits).expect("v is not in the cube"));
        }
    }
    (fanins, Cover::from_cubes(cubes))
}

/// The same function with some uses of one position moved to a new
/// position of the same signal.
fn repeated(rng: &mut Rng, (fanins, cover): &Form) -> Form {
    if fanins.is_empty() {
        return (fanins.clone(), cover.clone());
    }
    let from = rng.range_usize(0..fanins.len()) as u32;
    let to = fanins.len() as u32;
    let mut fanins = fanins.clone();
    fanins.push(fanins[from as usize]);
    let cubes = cover
        .cubes()
        .iter()
        .map(|c| {
            let lits = c
                .literals()
                .iter()
                .map(|&(v, p)| {
                    if v == from && rng.bool() {
                        (to, p)
                    } else {
                        (v, p)
                    }
                })
                .collect();
            Cube::new(lits).expect("the new position is not in the cube")
        })
        .collect();
    (fanins, Cover::from_cubes(cubes))
}

/// One reference manager with a variable per signal, and the key relation
/// seen so far in both directions.
struct Reference {
    mgr: Manager,
    vars: Vec<Var>,
    edge_of: HashMap<FunctionKey, Edge>,
    key_of: HashMap<Edge, FunctionKey>,
    /// Forms keyed with more than six distinct fanins, by whether their
    /// function depends on more than six signals.
    wide: [usize; 2],
}

impl Reference {
    fn new() -> Self {
        let mut mgr = Manager::new();
        let vars = mgr.new_vars(SIGNALS);
        Reference {
            mgr,
            vars,
            edge_of: HashMap::new(),
            key_of: HashMap::new(),
            wide: [0, 0],
        }
    }

    fn edge(&mut self, (fanins, cover): &Form) -> Edge {
        let vars: Vec<Var> = fanins.iter().map(|&s| self.vars[s]).collect();
        cover_to_bdd(&mut self.mgr, cover, &vars).expect("no node limit")
    }

    /// Keys `form` and checks both directions of the relation.
    fn check(&mut self, keys: &mut FunctionKeys, form: &Form) -> Edge {
        let key = keys
            .key(form.0.iter().copied(), &form.1)
            .expect("no node limit");
        let edge = self.edge(form);
        let mut distinct = form.0.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() > 6 {
            self.wide[usize::from(self.mgr.support(edge).len() > 6)] += 1;
        }
        assert_eq!(
            *self.edge_of.entry(key).or_insert(edge),
            edge,
            "one key for two functions: {form:?}"
        );
        assert_eq!(
            *self.key_of.entry(edge).or_insert(key),
            key,
            "two keys for one function: {form:?}"
        );
        edge
    }
}

#[test]
fn keys_are_equal_exactly_when_functions_are() {
    let mut keys = FunctionKeys::default();
    let mut reference = Reference::new();
    check_cases("function keys against BDD edges", CASES, |rng| {
        let base = random_form(rng);
        let edge = reference.check(&mut keys, &base);
        let forms = [
            permuted(rng, &base),
            split(rng, &base),
            repeated(rng, &base),
        ];
        for form in &forms {
            assert_eq!(
                reference.check(&mut keys, form),
                edge,
                "{form:?} is not {base:?}"
            );
        }
    });
    let [narrow, wide] = reference.wide;
    eprintln!(
        "{} covers, {} functions; over six distinct fanins: {narrow} narrow, {wide} wide",
        CASES * 4,
        reference.key_of.len()
    );
    assert!(narrow > 0 && wide > 0, "both kinds of wide node are drawn");
}

/// a·b + a·b'·c + a·c' is the literal a, so it gets a's key; over other
/// signals it does not. Constants of any fanins share one key per value.
#[test]
fn wide_covers_of_narrow_functions_share_keys() {
    let mut keys = FunctionKeys::default();
    let cover = Cover::from_cubes(vec![
        Cube::parse(&[(0, true), (1, true)]),
        Cube::parse(&[(0, true), (1, false), (2, true)]),
        Cube::parse(&[(0, true), (2, false)]),
    ]);
    let a = keys.key([3], &Cover::from_cubes(vec![Cube::lit(0, true)]));
    assert_eq!(keys.key([3, 5, 7], &cover), a);
    assert_ne!(keys.key([5, 3, 7], &cover), a);
    let zero = keys.key([], &Cover::zero());
    let one = keys.key([], &Cover::one());
    assert_ne!(zero, one);
    assert_eq!(keys.key([1, 2], &Cover::zero()), zero);
    let contradiction = Cover::from_cubes(vec![Cube::parse(&[(0, true), (1, false)])]);
    assert_eq!(keys.key([4, 4], &contradiction), zero);
    // x0 + … + x7 + x0' is 1 over eight distinct fanins.
    let wide_one = Cover::from_cubes(
        (0..8)
            .map(|v| Cube::lit(v, true))
            .chain([Cube::lit(0, false)])
            .collect(),
    );
    assert_eq!(keys.key(0..8, &wide_one), one);
}
