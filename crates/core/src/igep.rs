//! **I-GEP / F** — the in-place cache-oblivious recursion (Figure 2).
//!
//! `F(X, k1, k2)` takes an aligned subsquare `X = c[i1..i2, j1..j2]` with
//! `|i-range| = |j-range| = |k-range| = 2^q`, splits `X` into quadrants and
//! the `k`-range into halves, and recurses: a *forward pass* over all four
//! quadrants with the first `k`-half, then a *backward pass* in reverse
//! quadrant order with the second half. The recursion touches each update
//! of `Σ` exactly once and orders the updates on any fixed cell by
//! increasing `k` (Theorem 2.1); it is cache-oblivious with
//! Θ(n³/(B√M)) I/Os on a tall cache.
//!
//! [`walk`] is the one copy of that schedule in the workspace: it visits
//! the non-pruned base-case boxes of `F` in execution order and hands each
//! to a leaf visitor. Every sequential Figure 2 / Figure 3 engine is a
//! visitor over it — [`igep`] and [`igep_box`] here (the iterative kernel
//! on a [`CellStore`], which is what the cache-simulator and out-of-core
//! experiments run), the resumable engine and step counter of
//! [`crate::resume`], both C-GEP variants ([`crate::cgep`],
//! [`mod@crate::cgep_reduced`]) and the Lemma 3.1(b) schedule in `gep-bench`.
//! The raw-speed in-core variant (with the Figure 6 A/B/C/D
//! specialisation) lives in [`crate::abcd`].

use crate::iterative::{gep_iterative_box, sigma_count_box};
use crate::spec::GepSpec;
use crate::store::CellStore;
use std::ops::ControlFlow;

/// One subproblem of the Figure 2 recursion: rows `i0..i0+s`, columns
/// `j0..j0+s`, update indices `k0..k0+s` (`s` a power of two).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cube {
    /// First row.
    pub i0: usize,
    /// First column.
    pub j0: usize,
    /// First update index `k`.
    pub k0: usize,
    /// Side.
    pub s: usize,
}

impl Cube {
    /// The whole update space of an `n × n` problem, or `None` when
    /// `n = 0` (Σ ⊆ [0,0)³ is empty — every engine is then a no-op).
    ///
    /// # Panics
    /// Panics unless `n` is zero or a power of two, and `base >= 1` — the
    /// contract every recursive engine shares.
    pub fn root(n: usize, base: usize) -> Option<Cube> {
        if n == 0 {
            return None;
        }
        assert!(
            n.is_power_of_two(),
            "GEP recursion needs a power-of-two side"
        );
        assert!(base >= 1);
        Some(Cube {
            i0: 0,
            j0: 0,
            k0: 0,
            s: n,
        })
    }

    /// The inclusive `(i, j, k)` ranges, in the form
    /// [`GepSpec::sigma_intersects`] and the box kernels take them.
    #[inline]
    pub fn ranges(self) -> ((usize, usize), (usize, usize), (usize, usize)) {
        let last = self.s - 1;
        (
            (self.i0, self.i0 + last),
            (self.j0, self.j0 + last),
            (self.k0, self.k0 + last),
        )
    }

    /// Whether `T ∩ Σ ≠ ∅` for this box (Figure 2, line 1).
    #[inline]
    pub fn meets_sigma<S: GepSpec>(self, spec: &S) -> bool {
        let (ib, jb, kb) = self.ranges();
        spec.sigma_intersects(ib, jb, kb)
    }

    /// Number of updates of `Σ` inside the box (see
    /// [`sigma_count_box`]).
    pub fn sigma_count<S: GepSpec>(self, spec: &S) -> u64 {
        let (ib, jb, kb) = self.ranges();
        sigma_count_box(spec, ib, jb, kb)
    }
}

/// The call counter and span a [`walk`] records at every non-pruned node
/// (internal nodes and leaves alike), e.g. `igep.calls` and `F`/`igep`.
#[derive(Clone, Copy, Debug)]
pub struct NodeObs {
    /// Counter bumped once per node.
    pub calls: &'static str,
    /// Span name.
    pub span: &'static str,
    /// Span category.
    pub cat: &'static str,
}

const F_OBS: NodeObs = NodeObs {
    calls: "igep.calls",
    span: "F",
    cat: "igep",
};

/// Walks the Figure 2 recursion on `cube` and calls `leaf` on each
/// non-pruned base-case box (side `<= base`), in execution order.
///
/// Boxes with `T ∩ Σ = ∅` are skipped whole, so the leaf sequence depends
/// only on `(Σ, cube, base)` — never on matrix contents. That sequence is
/// what checkpoint cursors and WAL step counts index, so it must not
/// change. `leaf` returning [`ControlFlow::Break`] stops the walk at once
/// and the break is returned.
///
/// With `obs`, every non-pruned node bumps `obs.calls` and opens an
/// `obs.span` span (args `i0`, `j0`, `k0`, `s`) covering its subtree.
pub fn walk<S: GepSpec>(
    spec: &S,
    cube: Cube,
    base: usize,
    obs: Option<NodeObs>,
    leaf: &mut impl FnMut(Cube) -> ControlFlow<()>,
) -> ControlFlow<()> {
    // Line 1: if T ∩ Σ = ∅ then return.
    if !cube.meets_sigma(spec) {
        return ControlFlow::Continue(());
    }
    let _span = obs.map(|o| {
        gep_obs::counter_add(o.calls, 1);
        gep_obs::span(o.span, o.cat)
            .arg("i0", cube.i0 as i64)
            .arg("j0", cube.j0 as i64)
            .arg("k0", cube.k0 as i64)
            .arg("s", cube.s as i64)
    });
    if cube.s <= base {
        return leaf(cube);
    }
    let h = cube.s / 2;
    let Cube { i0, j0, k0, .. } = cube;
    let mut f = |i0, j0, k0| {
        let child = Cube { i0, j0, k0, s: h };
        walk(spec, child, base, obs, leaf)
    };
    // Line 5 — forward pass, k in the first half:
    // F(X11), F(X12), F(X21), F(X22).
    f(i0, j0, k0)?;
    f(i0, j0 + h, k0)?;
    f(i0 + h, j0, k0)?;
    f(i0 + h, j0 + h, k0)?;
    // Line 6 — backward pass, k in the second half:
    // F(X22), F(X21), F(X12), F(X11).
    f(i0 + h, j0 + h, k0 + h)?;
    f(i0 + h, j0, k0 + h)?;
    f(i0, j0 + h, k0 + h)?;
    f(i0, j0, k0 + h)
}

/// Runs I-GEP (Figure 2) on `c`.
///
/// `base_size` is the §4.2 optimisation: subproblems of side `<= base_size`
/// are solved with the iterative kernel instead of recursing to single
/// elements. `base_size = 1` is the literal Figure 2 algorithm. For specs
/// on which I-GEP is exact (Gaussian elimination, LU, Floyd–Warshall,
/// matrix multiplication, …) the result is independent of `base_size`.
///
/// The best `base_size` is host-dependent and interacts with kernel
/// selection: larger bases give the specialized SIMD base-case kernels of
/// `gep-kernels` longer inner loops to amortise their setup, while the
/// scalar generic kernel usually peaks earlier. Run `repro tune` to sweep
/// `base_size × backend` per application and persist the winners to a
/// `tuning.json` profile (see `docs/KERNELS.md`); engines fall back to a
/// built-in default of 64 when no profile is present. Note this store-based
/// engine always uses the generic iterative kernel — the specialized
/// kernels apply to the raw in-core [`crate::abcd`] engine.
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side, and
/// `base_size >= 1`.
pub fn igep<S, St>(spec: &S, c: &mut St, base_size: usize)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    if let Some(Cube { i0, j0, k0, s }) = Cube::root(c.n(), base_size) {
        igep_box(spec, c, i0, j0, k0, s, base_size);
    }
}

/// The recursive `F` on an explicit box: rows `i0..i0+s`,
/// cols `j0..j0+s`, update indices `k0..k0+s` (`s` a power of two).
///
/// Exposed so schedulers can drive the top levels of the recursion
/// themselves — e.g. the Lemma 3.1(b) deterministic schedule, which pins
/// each `(n/√p)`-sized subproblem to one processor's private cache.
///
/// # Panics
/// Panics (in debug) on out-of-range boxes; the caller must pass boxes
/// aligned the way `F` would produce them for the results to mean
/// anything.
pub fn igep_box<S, St>(spec: &S, c: &mut St, i0: usize, j0: usize, k0: usize, s: usize, base: usize)
where
    S: GepSpec,
    St: CellStore<S::Elem> + ?Sized,
{
    let cube = Cube { i0, j0, k0, s };
    let _ = walk(spec, cube, base, Some(F_OBS), &mut |leaf| {
        // Line 2 generalised: iterative kernel on the box (for s = 1 this
        // is exactly the paper's base case).
        if gep_obs::enabled() {
            gep_obs::counter_add("igep.base_cases", 1);
            gep_obs::counter_add("igep.updates", leaf.sigma_count(spec));
        }
        let (ib, jb, kb) = leaf.ranges();
        gep_iterative_box(spec, c, ib, jb, kb);
        ControlFlow::Continue(())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::gep_iterative;
    use crate::spec::{ClosureSpec, ExplicitSet, SumSpec};
    use gep_matrix::Matrix;

    #[test]
    fn paper_counterexample_value_for_f() {
        // Section 2.2.1: F outputs c[1][0] = 8 where G outputs 2.
        let mut c = Matrix::from_rows(&[vec![0i64, 0], vec![0, 1]]);
        igep(&SumSpec, &mut c, 1);
        assert_eq!(c[(1, 0)], 8);
    }

    /// Floyd–Warshall-style spec: min-plus over the full update set.
    /// I-GEP is exact for this class, so F ≡ G for any input.
    struct MinPlus;
    impl GepSpec for MinPlus {
        type Elem = i64;
        fn update(&self, _: usize, _: usize, _: usize, x: i64, u: i64, v: i64, _w: i64) -> i64 {
            x.min(u.saturating_add(v))
        }
        fn in_sigma(&self, _: usize, _: usize, _: usize) -> bool {
            true
        }
    }

    #[test]
    fn igep_equals_g_on_min_plus() {
        for n in [1usize, 2, 4, 8, 16] {
            let init = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    0i64
                } else {
                    ((i * 7 + j * 13) % 19 + 1) as i64
                }
            });
            let mut g = init.clone();
            let mut f = init.clone();
            gep_iterative(&MinPlus, &mut g);
            igep(&MinPlus, &mut f, 1);
            assert_eq!(g, f, "n={n}");
        }
    }

    #[test]
    fn base_size_does_not_change_result_on_valid_spec() {
        let n = 16;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else {
                ((i * 31 + j * 17) % 23 + 1) as i64
            }
        });
        let mut reference = init.clone();
        igep(&MinPlus, &mut reference, 1);
        for base in [2usize, 4, 8, 16] {
            let mut c = init.clone();
            igep(&MinPlus, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    #[test]
    fn pruning_skips_untouched_quadrants() {
        // Σ confined to the top-left quadrant: bottom-right must not be read.
        let sigma = ExplicitSet::from_iter(
            (0..2).flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| (i, j, k)))),
        );
        let spec = ClosureSpec::new(|_, _, _, x: i64, u, v, w| x + u + v + w, sigma);
        let init = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as i64);
        let mut f = init.clone();
        let mut g = init.clone();
        igep(&spec, &mut f, 1);
        gep_iterative(&spec, &mut g);
        // Sub-box confined Σ with box side 2 is itself a complete 2x2 GEP;
        // I-GEP on sub-GEP of SumSpec diverges from G in general, but the
        // untouched quadrants must be identical to the input.
        for i in 0..4 {
            for j in 0..4 {
                if i >= 2 || j >= 2 {
                    assert_eq!(f[(i, j)], init[(i, j)]);
                    assert_eq!(g[(i, j)], init[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn n1_single_cell() {
        let spec = ClosureSpec::new(
            |_, _, _, x: i64, u, v, w| x * 2 + u + v + w,
            ExplicitSet::from_iter([(0, 0, 0)]),
        );
        let mut c = Matrix::from_rows(&[vec![3i64]]);
        igep(&spec, &mut c, 1);
        // x=u=v=w=3 -> 2*3 + 3 + 3 + 3 = 15.
        assert_eq!(c[(0, 0)], 15);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        let mut c = Matrix::square(3, 0i64);
        igep(&SumSpec, &mut c, 1);
    }
}
