//! The Figure 6 decomposition of I-GEP: function family `A / B / C / D`.
//!
//! I-GEP's recursion invokes four distinct *kinds* of subproblem,
//! distinguished by how the output block `X = c[I, J]`, the row panel
//! `U = c[I, K]`, the column panel `V = c[K, J]` and the pivot block
//! `W = c[K, K]` overlap:
//!
//! | kind | precondition (Fig. 13) | overlap |
//! |------|------------------------|---------|
//! | `A`  | `I = J = K`            | all four coincide |
//! | `B`  | `I = K`, `J ∩ K = ∅`   | `X ≡ V`, `U ≡ W` |
//! | `C`  | `J = K`, `I ∩ K = ∅`   | `X ≡ U`, `V ≡ W` |
//! | `D`  | `I ∩ K = J ∩ K = ∅`    | none |
//!
//! Less overlap means fewer ordering constraints and therefore more
//! parallelism: `D` runs all four quadrant calls of each half concurrently,
//! `B`/`C` run pairs, `A` is mostly sequential. Because `U`, `V`, `W` are
//! always determined by `(I, J, K)`, a subproblem is fully described by the
//! tuple `(xr, xc, kk, s)` — the row origin, column origin, `k`-origin and
//! side — over a single shared matrix handle [`GepMat`].
//!
//! [`fn_a`]..[`fn_d`] are the one copy of the Figure 6 skeleton in the
//! workspace. They are generic over a [`Joiner`], so the *same* code is
//! the optimised sequential I-GEP of Section 4.2 (with [`Serial`]) and the
//! multithreaded I-GEP of Section 3 (with `gep-parallel`'s rayon joiner),
//! and over an [`AbcdLeaf`] — the base case — so the same code is also the
//! multithreaded C-GEP of Section 3 (`gep-parallel::cgep_par` passes a
//! leaf that reads and saves the Figure 3 snapshots). The skeleton owns
//! pruning, the `abcd.{a,b,c,d}.calls` counters and the `A`/`B`/`C`/`D`
//! spans; the leaf owns everything inside a base-case box.
//!
//! The paper's Fig. 5 distinguishes `B₁/B₂`, `C₁/C₂`, `D₁..D₄` by which
//! pass they arise in; their *bodies* are identical, so the subscripts are
//! not represented at runtime (they matter only for the span analysis in
//! `gep-parallel::span`).

use crate::gepmat::GepMat;
use crate::igep::Cube;
use crate::joiner::{Joiner, Serial};
use crate::spec::{BoxShape, GepSpec};
use gep_matrix::Matrix;

/// Optimised sequential I-GEP (Section 4.2): the A/B/C/D recursion with an
/// iterative base-case kernel of side `base_size`, executed serially.
///
/// Produces the same result as [`crate::igep`] for every spec on which
/// I-GEP is exact.
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side and
/// `1 <= base_size`.
pub fn igep_opt<S>(spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
{
    igep_abcd(&Serial, spec, c, base_size);
}

/// The A/B/C/D engine with an explicit joiner (used by `gep-parallel`).
///
/// # Panics
/// Panics unless `c` is square with a power-of-two side and
/// `1 <= base_size`.
pub fn igep_abcd<S, J>(joiner: &J, spec: &S, c: &mut Matrix<S::Elem>, base_size: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
{
    let Some(root) = Cube::root(c.n(), base_size) else {
        return;
    };
    let leaf = KernelLeaf {
        spec,
        m: GepMat::new(c),
    };
    // SAFETY: `leaf.m` exclusively borrows `c`, and the kernel leaf touches
    // only its box and panels; `fn_a` upholds the Figure 6 disjoint-writes
    // discipline (see `gepmat` module docs).
    unsafe {
        let x = Abcd {
            joiner,
            spec,
            leaf: &leaf,
            base: base_size,
        };
        fn_a(&x, 0, 0, 0, root.s)
    }
}

/// A Figure 6 base case: what the A/B/C/D skeleton runs on every
/// non-pruned box of side `<= base`. The optimised I-GEP passes the
/// spec's (specialized) kernel; parallel C-GEP passes its snapshot
/// kernel.
pub trait AbcdLeaf: Sync {
    /// Runs the base case on the box
    /// `i ∈ [xr, xr+s) × j ∈ [xc, xc+s) × k ∈ [kk, kk+s)`, whose Figure 13
    /// classification is `shape`.
    ///
    /// # Safety
    /// The caller guarantees exclusive access to every cell the leaf
    /// writes and stability of every cell it reads, per the Figure 6
    /// dependency argument (see [`crate::gepmat`]). Implementations must
    /// write only the box's own cells and read only the box and its
    /// `U`/`V`/`W` panels.
    unsafe fn leaf(&self, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape);
}

/// The I-GEP base case: [`GepSpec::kernel_shaped`] on one matrix, timed
/// into the leaf-latency histograms when a recorder is installed.
struct KernelLeaf<'a, S: GepSpec> {
    spec: &'a S,
    m: GepMat<'a, S::Elem>,
}

impl<S: GepSpec + Sync> AbcdLeaf for KernelLeaf<'_, S> {
    /// Executes one base-case kernel, timing it into the `kernel.leaf_ns`
    /// histogram plus a per-shape one (`kernel.leaf.{a,b,c,d}_ns`) when a
    /// recorder is installed. The disabled path takes no clock readings at
    /// all — just the one relaxed load of [`gep_obs::enabled`].
    #[inline]
    unsafe fn leaf(&self, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
        let spec = self.spec;
        if !gep_obs::enabled() {
            spec.kernel_shaped(self.m, xr, xc, kk, s, shape);
            return;
        }
        // The Σ-count scan is O(s³), hence the `enabled` gate above.
        let cube = Cube {
            i0: xr,
            j0: xc,
            k0: kk,
            s,
        };
        gep_obs::counter_add("abcd.base_cases", 1);
        gep_obs::counter_add("abcd.updates", cube.sigma_count(spec));
        let start = std::time::Instant::now();
        spec.kernel_shaped(self.m, xr, xc, kk, s, shape);
        let ns = start.elapsed().as_nanos() as u64;
        gep_obs::hist_record("kernel.leaf_ns", ns);
        let per_shape = match shape {
            BoxShape::Diagonal => "kernel.leaf.a_ns",
            BoxShape::RowPanel => "kernel.leaf.b_ns",
            BoxShape::ColPanel => "kernel.leaf.c_ns",
            BoxShape::Disjoint => "kernel.leaf.d_ns",
        };
        gep_obs::hist_record(per_shape, ns);
    }
}

/// Generic iterative base-case kernel: iterative GEP restricted to the box
/// `i ∈ [xr, xr+s) × j ∈ [xc, xc+s) × k ∈ [kk, kk+s)`, with the `u`/`w`
/// reads hoisted out of the inner loop (and refreshed at the aliasing
/// points `j == k` / `i == j == k`, so semantics match Figure 1 exactly).
///
/// # Safety
/// The caller must guarantee exclusive access to every cell the kernel
/// touches: the box itself plus the panels `c[xr.., kk..]`, `c[kk.., xc..]`
/// and `c[kk.., kk..]` (shared reads among concurrent kernels are allowed
/// only for cells none of them writes).
pub unsafe fn generic_kernel<S>(
    spec: &S,
    m: GepMat<'_, S::Elem>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) where
    S: GepSpec,
{
    for k in kk..kk + s {
        let mut w = m.get(k, k);
        for i in xr..xr + s {
            let mut u = m.get(i, k);
            for j in xc..xc + s {
                if spec.in_sigma(i, j, k) {
                    let x = m.get(i, j);
                    let v = m.get(k, j);
                    let nv = spec.update(i, j, k, x, u, v, w);
                    m.set(i, j, nv);
                    if j == k {
                        u = nv;
                        if i == k {
                            w = nv;
                        }
                    }
                }
            }
        }
    }
}

/// One A/B/C/D execution: the joiner that runs Figure 6's `parallel:`
/// groups, the spec (for `T ∩ Σ = ∅` pruning), the base case and its
/// size. The one copy of the Figure 6 skeleton, [`fn_a`]..[`fn_d`], is
/// generic over all three.
pub struct Abcd<'a, S, J, L> {
    /// Runs the `parallel:` groups.
    pub joiner: &'a J,
    /// Decides `T ∩ Σ = ∅` pruning.
    pub spec: &'a S,
    /// The base case.
    pub leaf: &'a L,
    /// Largest box side handed to `leaf` (the §4.2 base size).
    pub base: usize,
}

impl<S, J, L> Abcd<'_, S, J, L>
where
    S: GepSpec + Sync,
    J: Joiner,
    L: AbcdLeaf,
{
    /// Figure 6's shared prologue: prune (`T ∩ Σ = ∅` returns `None`),
    /// bump the kind's call counter, and open its span.
    #[inline]
    fn enter(
        &self,
        kind: &'static str,
        calls: &'static str,
        xr: usize,
        xc: usize,
        kk: usize,
        s: usize,
    ) -> Option<gep_obs::SpanGuard> {
        let cube = Cube {
            i0: xr,
            j0: xc,
            k0: kk,
            s,
        };
        if !cube.meets_sigma(self.spec) {
            return None;
        }
        gep_obs::counter_add(calls, 1);
        Some(
            gep_obs::span(kind, "abcd")
                .arg("xr", xr as i64)
                .arg("xc", xc as i64)
                .arg("kk", kk as i64)
                .arg("s", s as i64),
        )
    }
}

/// `A` — all of `X`, `U`, `V`, `W` coincide (`xr == xc == kk`).
///
/// # Safety
/// Caller guarantees exclusive access to the subsquare at `(xr, xc)` of
/// side `s` (which here covers the panels too).
pub unsafe fn fn_a<S, J, L>(x: &Abcd<'_, S, J, L>, xr: usize, xc: usize, kk: usize, s: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: AbcdLeaf,
{
    debug_assert!(xr == kk && xc == kk);
    let Some(_span) = x.enter("A", "abcd.a.calls", xr, xc, kk, s) else {
        return;
    };
    if s <= x.base {
        x.leaf.leaf(xr, xc, kk, s, BoxShape::Diagonal);
        return;
    }
    let h = s / 2;
    // Forward pass (k in first half).
    fn_a(x, xr, xc, kk, h);
    x.joiner.join(
        // SAFETY: B writes X12 (rows xr.., cols xc+h..) and C writes X21
        // (rows xr+h.., cols xc..): disjoint; both only read X11/W11,
        // which neither writes.
        || fn_b(x, xr, xc + h, kk, h),
        || fn_c(x, xr + h, xc, kk, h),
    );
    fn_d(x, xr + h, xc + h, kk, h);
    // Backward pass (k in second half).
    fn_a(x, xr + h, xc + h, kk + h, h);
    x.joiner.join(
        || fn_b(x, xr + h, xc, kk + h, h),
        || fn_c(x, xr, xc + h, kk + h, h),
    );
    fn_d(x, xr, xc, kk + h, h);
}

/// `B` — `I = K` (row range equals pivot range), `J` disjoint: `X ≡ V`,
/// `U ≡ W`.
///
/// # Safety
/// As [`fn_a`]; caller guarantees exclusivity of `X` and read-stability of
/// the pivot block.
pub unsafe fn fn_b<S, J, L>(x: &Abcd<'_, S, J, L>, xr: usize, xc: usize, kk: usize, s: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: AbcdLeaf,
{
    debug_assert!(xr == kk);
    let Some(_span) = x.enter("B", "abcd.b.calls", xr, xc, kk, s) else {
        return;
    };
    if s <= x.base {
        x.leaf.leaf(xr, xc, kk, s, BoxShape::RowPanel);
        return;
    }
    let h = s / 2;
    // Forward: the two B-children write X11, X12 (disjoint columns) and
    // read only the pivot block U11 = W11 outside X.
    x.joiner
        .join(|| fn_b(x, xr, xc, kk, h), || fn_b(x, xr, xc + h, kk, h));
    // The D-children write X21, X22 and read V11 = X11 / V12 = X12
    // (finished above) and U21 = c[rows xr+h.., cols kk..kk+h] = W21
    // region outside X.
    x.joiner.join(
        || fn_d(x, xr + h, xc, kk, h),
        || fn_d(x, xr + h, xc + h, kk, h),
    );
    // Backward: k in second half; bottom row of quadrants first.
    x.joiner.join(
        || fn_b(x, xr + h, xc, kk + h, h),
        || fn_b(x, xr + h, xc + h, kk + h, h),
    );
    x.joiner.join(
        || fn_d(x, xr, xc, kk + h, h),
        || fn_d(x, xr, xc + h, kk + h, h),
    );
}

/// `C` — `J = K` (column range equals pivot range), `I` disjoint:
/// `X ≡ U`, `V ≡ W`.
///
/// # Safety
/// As [`fn_b`].
pub unsafe fn fn_c<S, J, L>(x: &Abcd<'_, S, J, L>, xr: usize, xc: usize, kk: usize, s: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: AbcdLeaf,
{
    debug_assert!(xc == kk);
    let Some(_span) = x.enter("C", "abcd.c.calls", xr, xc, kk, s) else {
        return;
    };
    if s <= x.base {
        x.leaf.leaf(xr, xc, kk, s, BoxShape::ColPanel);
        return;
    }
    let h = s / 2;
    x.joiner
        .join(|| fn_c(x, xr, xc, kk, h), || fn_c(x, xr + h, xc, kk, h));
    x.joiner.join(
        || fn_d(x, xr, xc + h, kk, h),
        || fn_d(x, xr + h, xc + h, kk, h),
    );
    x.joiner.join(
        || fn_c(x, xr, xc + h, kk + h, h),
        || fn_c(x, xr + h, xc + h, kk + h, h),
    );
    x.joiner.join(
        || fn_d(x, xr, xc, kk + h, h),
        || fn_d(x, xr + h, xc, kk + h, h),
    );
}

/// `D` — `I` and `J` both disjoint from `K`: `X`, `U`, `V`, `W` pairwise
/// non-overlapping, so all four quadrant calls of each `k`-half run
/// concurrently.
///
/// # Safety
/// As [`fn_b`].
pub unsafe fn fn_d<S, J, L>(x: &Abcd<'_, S, J, L>, xr: usize, xc: usize, kk: usize, s: usize)
where
    S: GepSpec + Sync,
    J: Joiner,
    L: AbcdLeaf,
{
    let Some(_span) = x.enter("D", "abcd.d.calls", xr, xc, kk, s) else {
        return;
    };
    if s <= x.base {
        x.leaf.leaf(xr, xc, kk, s, BoxShape::Disjoint);
        return;
    }
    let h = s / 2;
    // All four children write disjoint X-quadrants and read panels outside
    // X entirely.
    x.joiner.join4(
        || fn_d(x, xr, xc, kk, h),
        || fn_d(x, xr, xc + h, kk, h),
        || fn_d(x, xr + h, xc, kk, h),
        || fn_d(x, xr + h, xc + h, kk, h),
    );
    x.joiner.join4(
        || fn_d(x, xr, xc, kk + h, h),
        || fn_d(x, xr, xc + h, kk + h, h),
        || fn_d(x, xr + h, xc, kk + h, h),
        || fn_d(x, xr + h, xc + h, kk + h, h),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::igep::igep;
    use crate::iterative::gep_iterative;

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

    fn random_dist(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 100) as i64 + 1
            }
        })
    }

    #[test]
    fn abcd_matches_g_and_igep_on_min_plus() {
        for n in [1usize, 2, 4, 8, 16, 32] {
            let init = random_dist(n, 42 + n as u64);
            let mut g = init.clone();
            let mut f = init.clone();
            let mut opt = init.clone();
            gep_iterative(&MinPlus, &mut g);
            igep(&MinPlus, &mut f, 1);
            igep_opt(&MinPlus, &mut opt, 1);
            assert_eq!(g, f, "n={n}");
            assert_eq!(g, opt, "n={n}");
        }
    }

    #[test]
    fn abcd_base_size_invariant() {
        let n = 32;
        let init = random_dist(n, 7);
        let mut reference = init.clone();
        gep_iterative(&MinPlus, &mut reference);
        for base in [1usize, 2, 4, 8, 16, 32] {
            let mut c = init.clone();
            igep_opt(&MinPlus, &mut c, base);
            assert_eq!(c, reference, "base={base}");
        }
    }

    /// Gaussian-elimination-shaped spec (Σ = {i > k ∧ j > k}) exercises
    /// the pruning paths of all four function kinds.
    struct GeSpec;
    impl GepSpec for GeSpec {
        type Elem = f64;
        fn update(&self, _: usize, _: usize, _: usize, x: f64, u: f64, v: f64, w: f64) -> f64 {
            x - u * v / w
        }
        fn in_sigma(&self, i: usize, j: usize, k: usize) -> bool {
            i > k && j > k
        }
        fn sigma_intersects(
            &self,
            ib: (usize, usize),
            jb: (usize, usize),
            kb: (usize, usize),
        ) -> bool {
            // Exists i > k, j > k within the boxes.
            ib.1 > kb.0 && jb.1 > kb.0
        }
    }

    /// Symbolic replay of the recursion, checking the Figure 5 dispatch
    /// table: the function kind of every child call (determined by the
    /// Figure 13 preconditions on its coordinates) must be the kind the
    /// parent's body invokes.
    #[test]
    fn figure5_dispatch_table_holds() {
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        enum Kind {
            A,
            B,
            C,
            D,
        }
        fn classify(xr: usize, xc: usize, kk: usize) -> Kind {
            match (xr == kk, xc == kk) {
                (true, true) => Kind::A,
                (true, false) => Kind::B,
                (false, true) => Kind::C,
                (false, false) => Kind::D,
            }
        }
        // (child kind per Figure 5, row = parent kind), forward then
        // backward pass, in our bodies' call order.
        fn walk(kind: Kind, xr: usize, xc: usize, kk: usize, s: usize) {
            assert_eq!(
                classify(xr, xc, kk),
                kind,
                "precondition at ({xr},{xc},{kk})"
            );
            if s == 1 {
                return;
            }
            let h = s / 2;
            let children: Vec<(Kind, usize, usize, usize)> = match kind {
                Kind::A => vec![
                    (Kind::A, xr, xc, kk),
                    (Kind::B, xr, xc + h, kk),
                    (Kind::C, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::A, xr + h, xc + h, kk + h),
                    (Kind::B, xr + h, xc, kk + h),
                    (Kind::C, xr, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                ],
                Kind::B => vec![
                    (Kind::B, xr, xc, kk),
                    (Kind::B, xr, xc + h, kk),
                    (Kind::D, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::B, xr + h, xc, kk + h),
                    (Kind::B, xr + h, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr, xc + h, kk + h),
                ],
                Kind::C => vec![
                    (Kind::C, xr, xc, kk),
                    (Kind::C, xr + h, xc, kk),
                    (Kind::D, xr, xc + h, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::C, xr, xc + h, kk + h),
                    (Kind::C, xr + h, xc + h, kk + h),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr + h, xc, kk + h),
                ],
                Kind::D => vec![
                    (Kind::D, xr, xc, kk),
                    (Kind::D, xr, xc + h, kk),
                    (Kind::D, xr + h, xc, kk),
                    (Kind::D, xr + h, xc + h, kk),
                    (Kind::D, xr, xc, kk + h),
                    (Kind::D, xr, xc + h, kk + h),
                    (Kind::D, xr + h, xc, kk + h),
                    (Kind::D, xr + h, xc + h, kk + h),
                ],
            };
            for (k, r, c, kx) in children {
                walk(k, r, c, kx, h);
            }
        }
        walk(Kind::A, 0, 0, 0, 32);
    }

    #[test]
    fn abcd_matches_g_on_gaussian_elimination() {
        for n in [4usize, 8, 16] {
            // Diagonally dominant => no pivoting needed.
            let init = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    n as f64 * 10.0
                } else {
                    ((i * 13 + j * 7) % 10) as f64 / 10.0 + 0.1
                }
            });
            let mut g = init.clone();
            let mut opt = init.clone();
            gep_iterative(&GeSpec, &mut g);
            igep_opt(&GeSpec, &mut opt, 2);
            assert!(g.approx_eq(&opt, 1e-9), "n={n}");
        }
    }
}
