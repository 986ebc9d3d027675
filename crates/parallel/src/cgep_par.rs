//! Multithreaded **C-GEP** (paper Section 3: "a similar parallel
//! algorithm with the same parallel time bound applies to C-GEP").
//!
//! The recursion and the parallel grouping are exactly Figure 6's — this
//! module runs `gep-core`'s A/B/C/D skeleton ([`gep_core::abcd`]) and
//! supplies only a different [`AbcdLeaf`]: a base case that reads the
//! snapshot matrices and performs the τ-scheduled saves of Figure 3,
//! selected by the same [`snapshot_reads`] / [`snapshot_saves`] rules as
//! sequential C-GEP. The dependency argument carries over because every
//! snapshot write of a task targets the same `(i, j)` cells as its `c`
//! writes (each update saves only into its own cell's slots), so the
//! groups' write sets stay pairwise disjoint, and snapshot *reads* target
//! the `U`/`V`/`W` panel regions that no group member writes.

use gep_core::abcd::{fn_a, Abcd, AbcdLeaf};
use gep_core::cgep::{snapshot_reads, snapshot_saves};
use gep_core::igep::Cube;
use gep_core::{BoxShape, GepMat, GepSpec};
use gep_matrix::Matrix;

/// The C-GEP base case over the five shared matrices of one execution.
struct SnapshotLeaf<'a, S: GepSpec> {
    spec: &'a S,
    c: GepMat<'a, S::Elem>,
    u0: GepMat<'a, S::Elem>,
    u1: GepMat<'a, S::Elem>,
    v0: GepMat<'a, S::Elem>,
    v1: GepMat<'a, S::Elem>,
}

/// Runs multithreaded C-GEP (4n² variant) on the current rayon pool;
/// equivalent to iterative GEP for **every** spec.
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side.
pub fn cgep_parallel<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    let Some(root) = Cube::root(c.n(), base_size) else {
        return;
    };
    let _span = gep_obs::span("cgep_parallel", "parallel")
        .arg("n", root.s as i64)
        .arg("base", base_size as i64)
        .arg("threads", rayon::current_num_threads() as i64);
    let mut u0 = c.clone();
    let mut u1 = c.clone();
    let mut v0 = c.clone();
    let mut v1 = c.clone();
    let leaf = SnapshotLeaf {
        spec,
        c: GepMat::new(c),
        u0: GepMat::new(&mut u0),
        u1: GepMat::new(&mut u1),
        v0: GepMat::new(&mut v0),
        v1: GepMat::new(&mut v1),
    };
    // SAFETY: exclusive borrows of all five matrices; the skeleton upholds
    // the Figure 6 disjoint-writes discipline, which the leaf extends to
    // the snapshot matrices (module docs).
    unsafe {
        let x = Abcd {
            joiner: &crate::RayonJoiner,
            spec,
            leaf: &leaf,
            base: base_size,
        };
        fn_a(&x, 0, 0, 0, root.s)
    }
}

impl<S: GepSpec + Sync> AbcdLeaf for SnapshotLeaf<'_, S> {
    /// Iterative base-case kernel (k-major order, like G), each update
    /// with the snapshot reads and saves of Figure 3.
    unsafe fn leaf(&self, xr: usize, xc: usize, kk: usize, s: usize, _: BoxShape) {
        let spec = self.spec;
        let n = self.c.n();
        for k in kk..kk + s {
            for i in xr..xr + s {
                for j in xc..xc + s {
                    if !spec.in_sigma(i, j, k) {
                        continue;
                    }
                    let [ru, rv, rw] = snapshot_reads(i, j, k);
                    let x = self.c.get(i, j);
                    let u = if ru { self.u1 } else { self.u0 }.get(i, k);
                    let v = if rv { self.v1 } else { self.v0 }.get(k, j);
                    let w = if rw { self.u1 } else { self.u0 }.get(k, k);
                    let nv = spec.update(i, j, k, x, u, v, w);
                    self.c.set(i, j, nv);
                    let saves = snapshot_saves(spec, n, i, j, k);
                    for (snap, save) in [self.u0, self.u1, self.v0, self.v1].iter().zip(saves) {
                        if save {
                            snap.set(i, j, nv);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;
    use gep_core::{cgep_full, gep_iterative, SumSpec};

    #[test]
    fn parallel_cgep_fixes_the_counterexample() {
        let init = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        let mut h = init.clone();
        with_threads(2, || cgep_parallel(&SumSpec, &mut h, 1));
        assert_eq!(h[(1, 0)], 2);
    }

    #[test]
    fn parallel_cgep_equals_sequential_cgep_on_general_spec() {
        for n in [4usize, 16, 64] {
            let init = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 13) as i64 - 6);
            let mut seq = init.clone();
            cgep_full(&SumSpec, &mut seq, 4);
            for threads in [1usize, 3, 4] {
                let mut par = init.clone();
                with_threads(threads, || cgep_parallel(&SumSpec, &mut par, 4));
                assert_eq!(par, seq, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_cgep_on_fw_matches_g() {
        use gep_apps::floyd_warshall::FwSpec;
        let n = 64;
        let mut s = 31u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 90) as i64 + 1
            }
        });
        let mut g = init.clone();
        gep_iterative(&FwSpec::<i64>::new(), &mut g);
        let mut par = init.clone();
        with_threads(4, || cgep_parallel(&FwSpec::<i64>::new(), &mut par, 8));
        assert_eq!(par, g);
    }

    #[test]
    fn repeated_runs_deterministic() {
        let n = 32;
        let init = Matrix::from_fn(n, n, |i, j| (i * n + j) as i64 % 17 - 8);
        let mut first = init.clone();
        with_threads(4, || cgep_parallel(&SumSpec, &mut first, 2));
        for _ in 0..3 {
            let mut again = init.clone();
            with_threads(4, || cgep_parallel(&SumSpec, &mut again, 2));
            assert_eq!(again, first);
        }
    }
}
