//! Kernel and co-kernel enumeration (Brayton–McMullen).
//!
//! A *kernel* of a cover is a cube-free quotient of the cover by a cube
//! (its *co-kernel*). Kernels are the primary divisors algebraic
//! factoring and multi-node extraction search over.

use std::collections::BTreeSet;

use crate::cover::Cover;
use crate::cube::Cube;
use crate::division::divide_by_cube;

/// A kernel together with the co-kernel cube that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kernel {
    /// The cube-free quotient.
    pub kernel: Cover,
    /// The co-kernel cube (`cover / co_kernel == kernel`).
    pub co_kernel: Cube,
}

/// Returns the largest cube dividing every cube of `f` (the "common cube").
pub fn common_cube(f: &Cover) -> Cube {
    let mut iter = f.cubes().iter();
    let first = match iter.next() {
        Some(c) => c.clone(),
        None => return Cube::one(),
    };
    iter.fold(first, |acc, c| {
        let lits = acc
            .literals()
            .iter()
            .copied()
            .filter(|&(v, p)| c.has_lit(v, p))
            .collect();
        #[expect(clippy::expect_used, reason = "intersecting consistent cubes is safe")]
        Cube::new(lits).expect("intersection of consistent cubes is consistent")
    })
}

/// True if no single literal divides every cube (the cover is cube-free).
pub fn is_cube_free(f: &Cover) -> bool {
    f.len() > 1 && common_cube(f).is_empty()
}

/// Enumerates all kernels of `f`, including (per convention) `f` itself
/// divided by its common cube when that quotient is cube-free.
///
/// Kernels of a cover with fewer than two cubes are empty.
pub fn kernels(f: &Cover) -> Vec<Kernel> {
    let mut out: Vec<Kernel> = Vec::new();
    let mut seen: BTreeSet<Vec<Cube>> = BTreeSet::new();
    let cc = common_cube(f);
    let base = divide_by_cube(f, &cc).quotient;
    if base.len() < 2 {
        return out;
    }
    kernels_rec(&base, 0, &cc, &mut out, &mut seen);
    // The top-level cube-free quotient is itself a kernel (level-n kernel).
    if is_cube_free(&base) && seen.insert(base.cubes().to_vec()) {
        out.push(Kernel {
            kernel: base,
            co_kernel: cc,
        });
    }
    out
}

fn kernels_rec(
    f: &Cover,
    min_var: u32,
    co_kernel_path: &Cube,
    out: &mut Vec<Kernel>,
    seen: &mut BTreeSet<Vec<Cube>>,
) {
    // Count literal occurrences.
    let support = f.support();
    for &v in support.iter().filter(|&&v| v >= min_var) {
        for phase in [true, false] {
            let occurrences = f.cubes().iter().filter(|c| c.has_lit(v, phase)).count();
            if occurrences < 2 {
                continue;
            }
            let lit_cube = Cube::lit(v, phase);
            let q = divide_by_cube(f, &lit_cube).quotient;
            let cc = common_cube(&q);
            let k = divide_by_cube(&q, &cc).quotient;
            // A kernel containing the constant-true cube arises only from
            // non-SCC-minimal covers and is useless as a divisor.
            if k.len() < 2 || k.has_unit_cube() {
                continue;
            }
            // Avoid re-deriving the same kernel from a different literal of
            // its co-kernel: standard pruning — if the common cube contains
            // a variable smaller than v, this kernel was already found.
            if cc.literals().iter().any(|&(u, _)| u < v) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "cube division keeps cubes consistent")]
            let co = co_kernel_path
                .product(&lit_cube)
                .and_then(|c| c.product(&cc))
                .expect("co-kernel cubes are consistent by construction");
            if seen.insert(k.cubes().to_vec()) {
                out.push(Kernel {
                    kernel: k.clone(),
                    co_kernel: co.clone(),
                });
            }
            kernels_rec(&k, v + 1, &co, out, seen);
        }
    }
}

/// Kernels of level 0 only (kernels that have no kernels other than
/// themselves) — cheaper, often sufficient for quick factoring.
pub fn level0_kernels(f: &Cover) -> Vec<Kernel> {
    kernels(f)
        .into_iter()
        .filter(|k| {
            // A kernel is level-0 if it has no proper kernels.
            kernels(&k.kernel)
                .iter()
                .all(|inner| inner.kernel == k.kernel)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(lits: &[(u32, bool)]) -> Cube {
        Cube::parse(lits)
    }

    #[test]
    fn common_cube_of_shared_literal() {
        let f = Cover::from_cubes(vec![c(&[(0, true), (1, true)]), c(&[(0, true), (2, true)])]);
        assert_eq!(common_cube(&f), Cube::lit(0, true));
        assert!(!is_cube_free(&f));
    }

    #[test]
    fn textbook_kernels() {
        // f = a·d + b·c·d + e  (adapted classic example)
        // kernels: {a + b·c} with co-kernel d, and f itself (cube-free).
        let f = Cover::from_cubes(vec![
            c(&[(0, true), (3, true)]),
            c(&[(1, true), (2, true), (3, true)]),
            c(&[(4, true)]),
        ]);
        let ks = kernels(&f);
        let want = Cover::from_cubes(vec![c(&[(0, true)]), c(&[(1, true), (2, true)])]);
        assert!(
            ks.iter()
                .any(|k| k.kernel == want && k.co_kernel == Cube::lit(3, true)),
            "expected kernel a + b·c with co-kernel d, got {ks:?}"
        );
        assert!(
            ks.iter().any(|k| k.kernel == f),
            "f itself is cube-free, hence a kernel"
        );
    }

    #[test]
    fn kernels_reconstruct() {
        // Every kernel/co-kernel pair must satisfy f/co == kernel.
        let f = Cover::from_cubes(vec![
            c(&[(0, true), (2, true)]),
            c(&[(0, true), (3, true)]),
            c(&[(1, true), (2, true)]),
            c(&[(1, true), (3, true)]),
        ]);
        for k in kernels(&f) {
            let q = divide_by_cube(&f, &k.co_kernel).quotient;
            assert_eq!(q, k.kernel, "co-kernel {:?}", k.co_kernel);
            assert!(is_cube_free(&k.kernel) || k.kernel.len() < 2);
        }
    }

    #[test]
    fn single_cube_has_no_kernels() {
        let f = Cover::from_cubes(vec![c(&[(0, true), (1, true)])]);
        assert!(kernels(&f).is_empty());
    }

    #[test]
    fn level0_subset_of_kernels() {
        let f = Cover::from_cubes(vec![
            c(&[(0, true), (2, true)]),
            c(&[(0, true), (3, true)]),
            c(&[(1, true), (2, true)]),
            c(&[(1, true), (3, true)]),
        ]);
        let all = kernels(&f);
        let l0 = level0_kernels(&f);
        assert!(!l0.is_empty());
        assert!(l0.len() <= all.len());
    }
}
