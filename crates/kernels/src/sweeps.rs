//! Shared, auto-vectorizable kernel bodies.
//!
//! Each function here computes *exactly* what iterative GEP restricted to
//! the box computes for its application (same per-cell `k` order, same
//! aliasing refreshes), expressed with contiguous inner loops over row
//! slices so LLVM's auto-vectorizer can do its job. They are
//! `#[inline(always)]` so the backend modules can re-instantiate them
//! under `#[target_feature]` wrappers and get wider auto-vectorization
//! without duplicating the bodies.
//!
//! Unlike the packed micro-tile kernels in the backend modules, every
//! sweep is sound on **any** box shape (see [`gep_core::BoxShape`]): the
//! `k`-outermost order plus the aliasing splits below reproduce the
//! generic kernel's refresh points even when the box overlaps its own
//! `U`/`V`/`W` panels.

use gep_core::algebra::{Gf2Block, MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_core::{BoxShape, GepMat};

/// Min-plus element: the two operations Floyd–Warshall needs, written so
/// the same body serves `i64` (exact) and `f64` (IEEE).
pub(crate) trait MinPlusElem: Copy {
    fn mp_add(self, o: Self) -> Self;
    fn mp_lt(self, o: Self) -> bool;
}

impl MinPlusElem for i64 {
    /// Tropical `⊗` — saturating and absorbing at [`TROPICAL_INF`]
    /// (`gep_core::algebra::MinPlusI64::mul`), not plain `+`: a missing
    /// edge must never shorten a path, even with negative or
    /// near-sentinel finite weights.
    ///
    /// [`TROPICAL_INF`]: gep_core::algebra::TROPICAL_INF
    #[inline(always)]
    fn mp_add(self, o: i64) -> i64 {
        MinPlusI64::mul(self, o)
    }
    #[inline(always)]
    fn mp_lt(self, o: i64) -> bool {
        self < o
    }
}

impl MinPlusElem for f64 {
    #[inline(always)]
    fn mp_add(self, o: f64) -> f64 {
        self + o
    }
    #[inline(always)]
    fn mp_lt(self, o: f64) -> bool {
        self < o
    }
}

/// Gaussian elimination sweep: `Σ = {i > k ∧ j > k}`,
/// `f = x − (u/w)·v` with the division hoisted per `(k, i)`.
///
/// `Σ` excludes `i == k` and `j == k`, so no cell of row `k` or column `k`
/// is ever written at step `k` — `w`, `factor` and `vrow` stay valid for
/// the whole step on every box shape.
///
/// # Safety
/// Standard base-case contract: exclusive access to the box, stability of
/// the out-of-box panel cells it reads.
#[inline(always)]
pub(crate) unsafe fn ge_sweep(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    for k in kk..kk + s {
        let w = m.get(k, k);
        let vrow = m.row_ptr(k);
        for i in (k + 1).max(xr)..xr + s {
            let factor = m.get(i, k) / w;
            let xrow = m.row_ptr(i);
            for j in (k + 1).max(xc)..xc + s {
                *xrow.add(j) -= factor * *vrow.add(j);
            }
        }
    }
}

/// LU sweep: `Σ = {i > k ∧ j ≥ k}`; the `j == k` update stores the
/// multiplier `x/w`, later `j > k` updates read it back as `u`.
///
/// # Safety
/// As [`ge_sweep`].
#[inline(always)]
pub(crate) unsafe fn lu_sweep(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    for k in kk..kk + s {
        let w = m.get(k, k);
        let vrow = m.row_ptr(k);
        for i in (k + 1).max(xr)..xr + s {
            // j == k: form the multiplier (only if column k is in the
            // tile; otherwise it was formed by the tile that owns it).
            if (xc..xc + s).contains(&k) {
                let l = m.get(i, k) / w;
                m.set(i, k, l);
            }
            let u = m.get(i, k);
            let xrow = m.row_ptr(i);
            for j in (k + 1).max(xc)..xc + s {
                *xrow.add(j) -= u * *vrow.add(j);
            }
        }
    }
}

/// Floyd–Warshall min-plus sweep over the full `Σ`.
///
/// The aliasing refresh of the generic kernel (`u` when `j == k`) is
/// preserved by splitting the `j`-range at `k`; `w` is unused by the
/// update, so no pivot refresh is needed.
///
/// # Safety
/// As [`ge_sweep`].
#[inline(always)]
pub(crate) unsafe fn fw_sweep<T: MinPlusElem>(
    m: GepMat<'_, T>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) {
    for k in kk..kk + s {
        let vrow = m.row_ptr(k);
        for i in xr..xr + s {
            let mut u = m.get(i, k);
            let xrow = m.row_ptr(i);
            // Segment 1: j < k (u fixed).
            let mid = k.clamp(xc, xc + s);
            for j in xc..mid {
                let cand = u.mp_add(*vrow.add(j));
                if cand.mp_lt(*xrow.add(j)) {
                    *xrow.add(j) = cand;
                }
            }
            // Segment 2: j == k (updates c[i,k] itself).
            if (xc..xc + s).contains(&k) {
                let cand = u.mp_add(*vrow.add(k));
                if cand.mp_lt(*xrow.add(k)) {
                    *xrow.add(k) = cand;
                    u = cand;
                }
            }
            // Segment 3: j > k.
            for j in (mid + usize::from((xc..xc + s).contains(&k)))..xc + s {
                let cand = u.mp_add(*vrow.add(j));
                if cand.mp_lt(*xrow.add(j)) {
                    *xrow.add(j) = cand;
                }
            }
        }
    }
}

// `TROPICAL_INF + 1` is a power of two, so a cell lies in
// `[0, TROPICAL_INF]` exactly when it has no bit above `TROPICAL_INF`'s
// set — sign bit included. One OR over a block then decides the whole
// block.
const _: () = assert!(TROPICAL_INF & (TROPICAL_INF + 1) == 0);

/// `true` when every cell of the `s × s` block at `(r0, c0)` lies in
/// `[0, TROPICAL_INF]`.
///
/// # Safety
/// The block is in bounds and nobody writes it concurrently.
#[inline(always)]
unsafe fn i64_block_in_range(m: GepMat<'_, i64>, r0: usize, c0: usize, s: usize) -> bool {
    let mut acc = 0i64;
    for i in r0..r0 + s {
        let row = std::slice::from_raw_parts(m.row_ptr(i).add(c0), s);
        acc |= row.iter().fold(0, |a, &x| a | x);
    }
    acc & !TROPICAL_INF == 0
}

/// Does every cell an i64 Floyd–Warshall leaf reads lie in
/// `[0, TROPICAL_INF]`? That is the precondition of the exact fast paths
/// ([`fw_i64_in_range_sweep`] and the backends' disjoint tiles):
///
/// * `u + v` cannot overflow (`2·TROPICAL_INF < i64::MAX`), and a sum
///   with an `∞` operand is already `≥ TROPICAL_INF`, so
///   `MinPlusI64::mul(u, v) == min(u + v, TROPICAL_INF)`;
/// * every candidate is `≤ TROPICAL_INF`, so clamping an `X` cell to
///   `TROPICAL_INF` once and then taking `min(x, u + v)` per step gives
///   exactly the saturating, absorbing result (a box has `s ≥ 1` steps);
/// * on the aliasing shapes values stay in range, and `c[k,k] ≥ 0` makes
///   row `k` and column `k` fixed points of step `k`, so the plain
///   `k`-outer sweep needs no aliasing refresh.
///
/// On [`BoxShape::Disjoint`] only `U` and `V` are checked — `X` is never
/// read as an operand there, and the fast paths clamp it on load. On the
/// aliasing shapes `X` coincides with one panel and is checked with the
/// other one (`U ≡ W` for a row panel, `V ≡ W` for a column panel).
///
/// # Safety
/// Standard base-case contract (see [`ge_sweep`]).
#[inline(always)]
pub(crate) unsafe fn fw_i64_in_range(
    m: GepMat<'_, i64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) -> bool {
    let x = || i64_block_in_range(m, xr, xc, s);
    let u = || i64_block_in_range(m, xr, kk, s);
    let v = || i64_block_in_range(m, kk, xc, s);
    match shape {
        BoxShape::Diagonal => x(),
        BoxShape::RowPanel => x() && u(),
        BoxShape::ColPanel => x() && v(),
        BoxShape::Disjoint => u() && v(),
    }
}

/// Largest side [`fw_i64_in_range_sweep`] packs into stack buffers (two
/// `PACK × PACK` i64 blocks, 64 KiB); larger boxes take the saturating
/// [`fw_sweep`].
const PACK: usize = 64;

/// i64 Floyd–Warshall in-range fast path on any box shape: one add and
/// one `min` per update, `k` outermost.
///
/// The box is packed into contiguous stack buffers first:
/// `X` (clamped to `TROPICAL_INF`, see [`fw_i64_in_range`]) and, unless
/// `X ≡ U`, `U` transposed, so the sweep reads column `k` of `U` as one
/// contiguous run. In a matrix whose row stride is a large power of two,
/// the unpacked rows of a box all map to the same few L1 sets.
///
/// Row `k` and column `k` are fixed points of step `k`, so the sweep
/// needs no aliasing refresh and `u` can be hoisted per row.
///
/// # Safety
/// Standard base-case contract, and [`fw_i64_in_range`] holds for the
/// box's shape.
#[inline(always)]
pub(crate) unsafe fn fw_i64_in_range_sweep(
    m: GepMat<'_, i64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) {
    if s > PACK {
        return fw_sweep::<i64>(m, xr, xc, kk, s);
    }
    let (x_is_u, x_is_v) = (xc == kk, xr == kk);
    let mut xb = [0i64; PACK * PACK];
    let mut ub = [0i64; PACK * PACK];
    for i in 0..s {
        let src = std::slice::from_raw_parts(m.row_ptr(xr + i).add(xc), s);
        for (d, &x) in xb[i * s..(i + 1) * s].iter_mut().zip(src) {
            *d = x.min(TROPICAL_INF);
        }
        if !x_is_u {
            for k in 0..s {
                ub[k * s + i] = m.get(xr + i, kk + k);
            }
        }
    }
    let mut vrow = [0i64; PACK];
    for k in 0..s {
        vrow[..s].copy_from_slice(if x_is_v {
            &xb[k * s..(k + 1) * s]
        } else {
            std::slice::from_raw_parts(m.row_ptr(kk + k).add(xc), s)
        });
        for i in 0..s {
            let u = if x_is_u { xb[i * s + k] } else { ub[k * s + i] };
            for (x, &v) in xb[i * s..(i + 1) * s].iter_mut().zip(&vrow[..s]) {
                // In range: u + v ≤ 2·TROPICAL_INF cannot overflow.
                *x = (*x).min(u.wrapping_add(v));
            }
        }
    }
    for i in 0..s {
        std::slice::from_raw_parts_mut(m.row_ptr(xr + i).add(xc), s)
            .copy_from_slice(&xb[i * s..(i + 1) * s]);
    }
}

/// i64 Floyd–Warshall leaf for the backends without a register tile:
/// the in-range fast path when [`fw_i64_in_range`] holds, else the
/// saturating [`fw_sweep`].
///
/// # Safety
/// Standard base-case contract (see [`ge_sweep`]).
#[inline(always)]
pub(crate) unsafe fn fw_i64_sweep(
    m: GepMat<'_, i64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    if fw_i64_in_range(m, xr, xc, kk, s, shape) {
        fw_i64_in_range_sweep(m, xr, xc, kk, s)
    } else {
        fw_sweep::<i64>(m, xr, xc, kk, s)
    }
}

/// Transitive-closure and-or sweep: skips the inner loop when `u` is
/// false. `u = c[i,k]` is stable within a `k`-iteration even when column
/// `k` is inside the tile: the `j == k` update computes
/// `x ∨ (x ∧ v) = x`.
///
/// # Safety
/// As [`ge_sweep`].
#[inline(always)]
pub(crate) unsafe fn tc_sweep(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize) {
    for k in kk..kk + s {
        let vrow = m.row_ptr(k);
        for i in xr..xr + s {
            if !m.get(i, k) {
                continue;
            }
            let xrow = m.row_ptr(i);
            for j in xc..xc + s {
                if *vrow.add(j) {
                    *xrow.add(j) = true;
                }
            }
        }
    }
}

/// Bottleneck (max-min) closure sweep over the full `Σ`:
/// `x ← max(x, min(u, v))` — widest-path relaxation.
///
/// Same aliasing structure as [`fw_sweep`]: `u = c[i,k]` is refreshed at
/// `j == k`, `w` is unused. The `k`-outermost split makes it sound on
/// every box shape.
///
/// # Safety
/// As [`ge_sweep`].
#[inline(always)]
pub(crate) unsafe fn maxmin_sweep(m: GepMat<'_, i64>, xr: usize, xc: usize, kk: usize, s: usize) {
    for k in kk..kk + s {
        let vrow = m.row_ptr(k);
        for i in xr..xr + s {
            let mut u = m.get(i, k);
            let xrow = m.row_ptr(i);
            // Segment 1: j < k (u fixed).
            let mid = k.clamp(xc, xc + s);
            for j in xc..mid {
                let cand = u.min(*vrow.add(j));
                if cand > *xrow.add(j) {
                    *xrow.add(j) = cand;
                }
            }
            // Segment 2: j == k (updates c[i,k] itself).
            if (xc..xc + s).contains(&k) {
                let cand = u.min(*vrow.add(k));
                if cand > *xrow.add(k) {
                    *xrow.add(k) = cand;
                    u = cand;
                }
            }
            // Segment 3: j > k.
            for j in (mid + usize::from((xc..xc + s).contains(&k)))..xc + s {
                let cand = u.min(*vrow.add(j));
                if cand > *xrow.add(j) {
                    *xrow.add(j) = cand;
                }
            }
        }
    }
}

/// Bitsliced GF(2) block elimination sweep: `Σ = {i > k ∧ j > k}`,
/// `f = x ⊖ (u ⊗ w⁻¹ ⊗ v)` over 64×64 bit-matrix blocks
/// ([`gep_core::algebra::Gf2x64`]), with the pivot-block inverse hoisted
/// per `k` and the left multiplier `u ⊗ w⁻¹` hoisted per `(k, i)`.
///
/// The hoists are sound for the same reason as in [`ge_sweep`]: `Σ`
/// excludes `i == k` and `j == k`, so block-row `k` and block-column `k`
/// are never written during step `k` on any box shape. Every inner-loop
/// operation is a 64×64 bit-matrix multiply-xor — 64 GF(2) lanes per
/// `u64` word, which is the entire point of this kernel regime.
///
/// # Panics
/// Panics if a pivot block is singular; exact GF(2) elimination requires
/// inputs with nonsingular leading principal block minors (the paper's
/// no-pivoting precondition — there is no `inf`/`NaN` to absorb it).
///
/// # Safety
/// As [`ge_sweep`].
#[inline(always)]
pub(crate) unsafe fn gf2_elim_sweep(
    m: GepMat<'_, Gf2Block>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
) {
    for k in kk..kk + s {
        let w = m.get(k, k);
        let winv = w
            .inverse()
            .expect("GF(2) elimination hit a singular pivot block");
        let vrow = m.row_ptr(k);
        for i in (k + 1).max(xr)..xr + s {
            let factor = m.get(i, k).mul(&winv);
            let xrow = m.row_ptr(i);
            for j in (k + 1).max(xc)..xc + s {
                let prod = factor.mul(&*vrow.add(j));
                (*xrow.add(j)).xor_assign(&prod);
            }
        }
    }
}

/// Portable `C += A·B` panel (`ikj`, contiguous inner loop, unfused
/// multiply-add throughout — rustc does not contract `x + u*v` into an
/// FMA, so every cell sees identical rounding in the vector and remainder
/// paths).
///
/// # Safety
/// `c` (`mi × nj`, stride `ldc`), `a` (`mi × kd`, stride `lda`) and `b`
/// (`kd × nj`, stride `ldb`) must be valid and non-overlapping with `c`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn mm_acc_portable(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    for i in 0..mi {
        let crow = c.add(i * ldc);
        let arow = a.add(i * lda);
        for k in 0..kd {
            let u = *arow.add(k);
            let brow = b.add(k * ldb);
            for j in 0..nj {
                *crow.add(j) += u * *brow.add(j);
            }
        }
    }
}

/// Portable `C −= A·B` panel; see [`mm_acc_portable`].
///
/// # Safety
/// As [`mm_acc_portable`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn mm_sub_portable(
    c: *mut f64,
    ldc: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    for i in 0..mi {
        let crow = c.add(i * ldc);
        let arow = a.add(i * lda);
        for k in 0..kd {
            let u = *arow.add(k);
            let brow = b.add(k * ldb);
            for j in 0..nj {
                *crow.add(j) -= u * *brow.add(j);
            }
        }
    }
}
