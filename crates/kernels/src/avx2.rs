//! AVX2/FMA backend: explicit `std::arch` micro-tile kernels for the
//! disjoint (GEMM-like) box, plus 256-bit re-instantiations of the shared
//! sweeps for the aliasing shapes. The f64 and i64 register tiles are
//! written once, as the [`f64_tile!`] and [`fw_i64_leaf!`] macros, and
//! instantiated here for `ymm` and in the AVX-512 module for `zmm`.
//!
//! Rounding discipline: the f64 multiply-accumulate tiles use *fused*
//! operations everywhere — `fmadd`/`fnmadd` in the vector lanes and
//! `f64::mul_add` in the scalar edge cells — so a given `(i, j, k)`
//! update produces bit-identical results no matter which path, or which
//! of the two instances, its cell lands on. The sweeps stay unfused
//! (`x ± u·v` is never contracted by rustc), matching the portable
//! backend bit-for-bit on non-disjoint boxes.
//!
//! `#[target_feature]` functions cannot coerce to the plain `unsafe fn`
//! pointers the [`crate::KernelSet`] vtable holds, so every vtable entry
//! is a thin `unsafe fn` wrapper around a `#[target_feature]` inner
//! function. Callers uphold the safety contract by construction: the
//! wrappers are only reachable through [`crate::dispatch`], which selects
//! this backend only after `is_x86_feature_detected!("avx2")` and
//! `("fma")` both pass.

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

use crate::sweeps;
use core::arch::x86_64::*;
use gep_core::algebra::{MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_core::{BoxShape, GepMat};

// ---------------------------------------------------------------------
// f64 multiply-accumulate tiles (the FLOP hot path)
// ---------------------------------------------------------------------

/// Fused scalar cell: `*c ← *c + a[k]·b[k·ldb]` over the k-column (with
/// `SUB`, `(−a[k])·b[k·ldb] + *c`, exactly what `fnmadd` computes per
/// lane), k ascending, one rounding per update: the edge path of
/// [`f64_tile!`], bitwise equal to its vector lanes.
///
/// # Safety
/// `c`, `a[..kd]` and `b[k·ldb]` for `k < kd` are valid.
#[inline(always)]
pub(crate) unsafe fn f64_cell<const SUB: bool>(
    c: *mut f64,
    a: *const f64,
    b: *const f64,
    ldb: usize,
    kd: usize,
) {
    let mut x = *c;
    for k in 0..kd {
        let u = if SUB { -*a.add(k) } else { *a.add(k) };
        x = u.mul_add(*b.add(k * ldb), x);
    }
    *c = x;
}

/// The f64 multiply-accumulate leaves of a vector backend, shared by the
/// AVX2 and AVX-512 modules: defines the vtable entries `pub unsafe fn
/// ge`, `lu`, `mm_acc` and `mm_sub`.
///
/// All four run one register tile, `f64_strip`: 4 rows × `NV` vectors of
/// C in registers, k innermost, one fused `fmadd` (or `fnmadd`) per
/// update. The `kc × NV·LANES` strip of B a tile column reads is first
/// copied to a contiguous stack buffer, per `F64_KC` chunk of k: in
/// place, its rows sit one matrix row apart, which for power-of-two
/// sides maps them all to the same L1 sets. Columns are covered by
/// strips of `F64_NV` vectors, then of one vector, then by the fused
/// scalar [`f64_cell`]; the last `mi mod 4` rows also run the cell.
///
/// Gaussian elimination first forms the `u/w` factor panel of up to
/// `F64_MC` rows × `F64_KC` k on the stack: the pivots `c[k,k]` are
/// gathered into a contiguous buffer so the division can run as a vector
/// `div`, which is IEEE division per lane and so bitwise the scalar `/`.
///
/// Every cell sees its updates in ascending k with one rounding each,
/// whatever the tile width, chunking or edge path, so every instance
/// gives bitwise the same result. Nothing allocates. The invoking module
/// supplies the vector type through `LANES`, `F64_NV` and
/// `fload`/`fstore`/`fsplat`/`fmadd`/`fnmadd`/`fdiv`, and brings this
/// module's `F64_KC` and `F64_MC` into scope.
macro_rules! f64_tile {
    ($feature:literal) => {
        /// Copies the `kc × W` block at `b` (row stride `ldb`) to `bp`
        /// (row stride `W`).
        ///
        /// # Safety
        /// Both blocks are valid and do not overlap; the host supports
        /// the instance's target features (as for every fn below).
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn f64_pack<const W: usize>(b: *const f64, ldb: usize, kc: usize, bp: *mut f64) {
            for k in 0..kc {
                std::ptr::copy_nonoverlapping(b.add(k * ldb), bp.add(k * W), W);
            }
        }

        /// `C[..mi, ..NV·LANES] ±= A[..mi, ..kc] · Bp`, with `Bp` the
        /// packed `kc × NV·LANES` strip.
        ///
        /// # Safety
        /// `C` (row stride `ldc`), `A` (row stride `lda`) and `Bp` are
        /// valid, and `C` overlaps neither.
        #[inline]
        #[target_feature(enable = $feature)]
        unsafe fn f64_strip<const NV: usize, const SUB: bool>(
            c: *mut f64,
            ldc: usize,
            a: *const f64,
            lda: usize,
            bp: *const f64,
            mi: usize,
            kc: usize,
        ) {
            let w = NV * LANES;
            let mut i = 0usize;
            while i + 4 <= mi {
                let mut acc = [[fsplat(0.0); NV]; 4];
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, x) in row.iter_mut().enumerate() {
                        *x = fload(c.add((i + r) * ldc + v * LANES));
                    }
                }
                for k in 0..kc {
                    let mut bv = [fsplat(0.0); NV];
                    for (v, x) in bv.iter_mut().enumerate() {
                        *x = fload(bp.add(k * w + v * LANES));
                    }
                    for (r, row) in acc.iter_mut().enumerate() {
                        let u = fsplat(*a.add((i + r) * lda + k));
                        for (x, &b) in row.iter_mut().zip(bv.iter()) {
                            *x = if SUB {
                                fnmadd(u, b, *x)
                            } else {
                                fmadd(u, b, *x)
                            };
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &x) in row.iter().enumerate() {
                        fstore(c.add((i + r) * ldc + v * LANES), x);
                    }
                }
                i += 4;
            }
            while i < mi {
                for j in 0..w {
                    $crate::avx2::f64_cell::<SUB>(
                        c.add(i * ldc + j),
                        a.add(i * lda),
                        bp.add(j),
                        w,
                        kc,
                    );
                }
                i += 1;
            }
        }

        /// `C ← C ± A·B` over `mi × nj`, k chunked by `F64_KC`.
        ///
        /// # Safety
        /// As [`crate::TilePanel`]: the three blocks are valid and `C`
        /// overlaps neither `A` nor `B`.
        #[target_feature(enable = $feature)]
        unsafe fn f64_mm<const SUB: bool>(
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
            const NR: usize = F64_NV * LANES;
            let mut bp = [0.0f64; F64_KC * NR];
            let bp = bp.as_mut_ptr();
            let mut k0 = 0usize;
            while k0 < kd {
                let kc = (kd - k0).min(F64_KC);
                let (ak, bk) = (a.add(k0), b.add(k0 * ldb));
                let mut j = 0usize;
                while j + NR <= nj {
                    f64_pack::<NR>(bk.add(j), ldb, kc, bp);
                    f64_strip::<F64_NV, SUB>(c.add(j), ldc, ak, lda, bp, mi, kc);
                    j += NR;
                }
                while j + LANES <= nj {
                    f64_pack::<LANES>(bk.add(j), ldb, kc, bp);
                    f64_strip::<1, SUB>(c.add(j), ldc, ak, lda, bp, mi, kc);
                    j += LANES;
                }
                for i in 0..mi {
                    for jj in j..nj {
                        $crate::avx2::f64_cell::<SUB>(
                            c.add(i * ldc + jj),
                            ak.add(i * lda),
                            bk.add(jj),
                            ldb,
                            kc,
                        );
                    }
                }
                k0 += kc;
            }
        }

        /// `C ← C − (A / diag W)·B`: the Gaussian disjoint leaf, with `w`
        /// the first pivot and `ws` the pivot stride.
        ///
        /// # Safety
        /// As `f64_mm`, and `w[k·ws]` is valid for every `k < kd`.
        #[target_feature(enable = $feature)]
        unsafe fn f64_ge_tile(
            c: *mut f64,
            ldc: usize,
            a: *const f64,
            lda: usize,
            b: *const f64,
            ldb: usize,
            w: *const f64,
            ws: usize,
            mi: usize,
            nj: usize,
            kd: usize,
        ) {
            let mut piv = [0.0f64; F64_KC];
            let mut fac = [0.0f64; F64_MC * F64_KC];
            let mut k0 = 0usize;
            while k0 < kd {
                let kc = (kd - k0).min(F64_KC);
                for (k, p) in piv[..kc].iter_mut().enumerate() {
                    *p = *w.add((k0 + k) * ws);
                }
                let mut i0 = 0usize;
                while i0 < mi {
                    let rows = (mi - i0).min(F64_MC);
                    for r in 0..rows {
                        let arow = a.add((i0 + r) * lda + k0);
                        let frow = fac.as_mut_ptr().add(r * F64_KC);
                        let mut k = 0usize;
                        while k + LANES <= kc {
                            fstore(
                                frow.add(k),
                                fdiv(fload(arow.add(k)), fload(piv.as_ptr().add(k))),
                            );
                            k += LANES;
                        }
                        while k < kc {
                            *frow.add(k) = *arow.add(k) / piv[k];
                            k += 1;
                        }
                    }
                    f64_mm::<true>(
                        c.add(i0 * ldc),
                        ldc,
                        fac.as_ptr(),
                        F64_KC,
                        b.add(k0 * ldb),
                        ldb,
                        rows,
                        nj,
                        kc,
                    );
                    i0 += rows;
                }
                k0 += kc;
            }
        }

        pub unsafe fn ge(
            m: GepMat<'_, f64>,
            xr: usize,
            xc: usize,
            kk: usize,
            s: usize,
            shape: BoxShape,
        ) {
            match shape {
                // Pruning guarantees xr > kk and xc > kk here, so the
                // whole box is inside Σ and U/V/W are all outside X: a
                // pure GEMM-like tile.
                BoxShape::Disjoint => {
                    let ld = m.n();
                    f64_ge_tile(
                        m.row_ptr(xr).add(xc),
                        ld,
                        m.row_ptr(xr).add(kk),
                        ld,
                        m.row_ptr(kk).add(xc),
                        ld,
                        m.row_ptr(kk).add(kk),
                        ld + 1,
                        s,
                        s,
                        s,
                    )
                }
                _ => $crate::avx2::ge_sweep_tf(m, xr, xc, kk, s),
            }
        }

        pub unsafe fn lu(
            m: GepMat<'_, f64>,
            xr: usize,
            xc: usize,
            kk: usize,
            s: usize,
            shape: BoxShape,
        ) {
            match shape {
                // Disjoint ⇒ xc > kk: column k is outside the tile, the
                // multipliers in c[xr.., kk..] are already formed, and
                // every update is the pure `x − u·v`.
                BoxShape::Disjoint => {
                    let ld = m.n();
                    f64_mm::<true>(
                        m.row_ptr(xr).add(xc),
                        ld,
                        m.row_ptr(xr).add(kk),
                        ld,
                        m.row_ptr(kk).add(xc),
                        ld,
                        s,
                        s,
                        s,
                    )
                }
                _ => $crate::avx2::lu_sweep_tf(m, xr, xc, kk, s),
            }
        }

        pub unsafe fn mm_acc(
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
            f64_mm::<false>(c, ldc, a, lda, b, ldb, mi, nj, kd)
        }

        pub unsafe fn mm_sub(
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
            f64_mm::<true>(c, ldc, a, lda, b, ldb, mi, nj, kd)
        }
    };
}

/// Columns per f64 tile: 4 rows × 2 `ymm` vectors (8 of the 16 registers
/// accumulate).
const F64_NV: usize = 2;

/// k-chunk of the f64 tiles' packed B strip (4 KiB on AVX2, 16 KiB on
/// AVX-512) and of the Gaussian factor panel, both backends.
pub(crate) const F64_KC: usize = 64;
/// Rows of the Gaussian factor panel, both backends (32 KiB).
pub(crate) const F64_MC: usize = 64;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fload(p: *const f64) -> __m256d {
    _mm256_loadu_pd(p)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fstore(p: *mut f64, v: __m256d) {
    _mm256_storeu_pd(p, v)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fsplat(x: f64) -> __m256d {
    _mm256_set1_pd(x)
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    _mm256_fmadd_pd(a, b, c)
}

#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fnmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
    _mm256_fnmadd_pd(a, b, c)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fdiv(a: __m256d, b: __m256d) -> __m256d {
    _mm256_div_pd(a, b)
}

f64_tile!("avx2,fma");

// ---------------------------------------------------------------------
// Floyd–Warshall min-plus panels
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2")]
unsafe fn fw_f64_panel_inner(
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
            let uv = _mm256_set1_pd(u);
            let brow = b.add(k * ldb);
            let mut j = 0usize;
            while j + 4 <= nj {
                let x = _mm256_loadu_pd(crow.add(j));
                let v = _mm256_loadu_pd(brow.add(j));
                let cand = _mm256_add_pd(uv, v);
                // `cand < x` with ordered-quiet semantics == the scalar
                // `if cand < x` (NaN compares false, keeps x).
                let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(cand, x);
                _mm256_storeu_pd(crow.add(j), _mm256_blendv_pd(x, cand, lt));
                j += 4;
            }
            while j < nj {
                let cand = u + *brow.add(j);
                if cand < *crow.add(j) {
                    *crow.add(j) = cand;
                }
                j += 1;
            }
        }
    }
}

/// Scalar in-range min-plus cell (the edge path of the register tiles):
/// `*c ← min(*c, TROPICAL_INF, a[k] + b[k·ldb] for every k)`.
///
/// # Safety
/// `c`, `a[..kd]` and `b[k·ldb]` for `k < kd` are valid; every `a`/`b`
/// value lies in `[0, TROPICAL_INF]`.
#[inline(always)]
pub(crate) unsafe fn fw_i64_cell(c: *mut i64, a: *const i64, b: *const i64, ldb: usize, kd: usize) {
    let mut x = (*c).min(TROPICAL_INF);
    for k in 0..kd {
        x = x.min((*a.add(k)).wrapping_add(*b.add(k * ldb)));
    }
    *c = x;
}

/// The i64 Floyd–Warshall leaf of a vector backend, shared by the AVX2
/// and AVX-512 modules: defines the vtable entry `pub unsafe fn fw_i64`.
///
/// When [`sweeps::fw_i64_in_range`] holds, a disjoint box runs the
/// register tile `fw_i64_tile` and the aliasing shapes the plain
/// [`sweeps::fw_i64_in_range_sweep`], both compiled for `$feature`;
/// otherwise the leaf runs the saturating [`fw_i64_saturating`].
///
/// The tile computes `C ← min(C, A ⊗ B)` with 4 rows × 2 vectors of C in
/// registers and k innermost, like [`f64_tile!`]; each C cell is clamped
/// to `TROPICAL_INF` on load, after which every update is one add and
/// one min. The `FW_KC × 2·LANES` strip of B a tile column reads is
/// first copied to a contiguous stack buffer: in place, its rows sit one
/// matrix row apart, which for power-of-two sides maps them all to the
/// same L1 sets. Edges fall back to [`fw_i64_cell`]. The invoking
/// module supplies the vector type through `LANES`, `FW_KC` and
/// `vload`/`vstore`/`vsplat`/`vadd`/`vmin`.
macro_rules! fw_i64_leaf {
    ($feature:literal) => {
        #[target_feature(enable = $feature)]
        unsafe fn fw_i64_tile(
            c: *mut i64,
            ldc: usize,
            a: *const i64,
            lda: usize,
            b: *const i64,
            ldb: usize,
            mi: usize,
            nj: usize,
            kd: usize,
        ) {
            let inf = vsplat(TROPICAL_INF);
            let mut bp = [0i64; FW_KC * 2 * LANES];
            let mut k0 = 0usize;
            while k0 < kd {
                let kc = (kd - k0).min(FW_KC);
                let mut j = 0usize;
                while j + 2 * LANES <= nj {
                    for k in 0..kc {
                        std::ptr::copy_nonoverlapping(
                            b.add((k0 + k) * ldb + j),
                            bp.as_mut_ptr().add(k * 2 * LANES),
                            2 * LANES,
                        );
                    }
                    let mut i = 0usize;
                    while i + 4 <= mi {
                        let r0 = c.add(i * ldc + j);
                        let r1 = c.add((i + 1) * ldc + j);
                        let r2 = c.add((i + 2) * ldc + j);
                        let r3 = c.add((i + 3) * ldc + j);
                        let a0 = a.add(i * lda + k0);
                        let a1 = a.add((i + 1) * lda + k0);
                        let a2 = a.add((i + 2) * lda + k0);
                        let a3 = a.add((i + 3) * lda + k0);
                        let mut c00 = vmin(vload(r0), inf);
                        let mut c01 = vmin(vload(r0.add(LANES)), inf);
                        let mut c10 = vmin(vload(r1), inf);
                        let mut c11 = vmin(vload(r1.add(LANES)), inf);
                        let mut c20 = vmin(vload(r2), inf);
                        let mut c21 = vmin(vload(r2.add(LANES)), inf);
                        let mut c30 = vmin(vload(r3), inf);
                        let mut c31 = vmin(vload(r3.add(LANES)), inf);
                        for k in 0..kc {
                            let brow = bp.as_ptr().add(k * 2 * LANES);
                            let bv0 = vload(brow);
                            let bv1 = vload(brow.add(LANES));
                            let u0 = vsplat(*a0.add(k));
                            c00 = vmin(c00, vadd(u0, bv0));
                            c01 = vmin(c01, vadd(u0, bv1));
                            let u1 = vsplat(*a1.add(k));
                            c10 = vmin(c10, vadd(u1, bv0));
                            c11 = vmin(c11, vadd(u1, bv1));
                            let u2 = vsplat(*a2.add(k));
                            c20 = vmin(c20, vadd(u2, bv0));
                            c21 = vmin(c21, vadd(u2, bv1));
                            let u3 = vsplat(*a3.add(k));
                            c30 = vmin(c30, vadd(u3, bv0));
                            c31 = vmin(c31, vadd(u3, bv1));
                        }
                        vstore(r0, c00);
                        vstore(r0.add(LANES), c01);
                        vstore(r1, c10);
                        vstore(r1.add(LANES), c11);
                        vstore(r2, c20);
                        vstore(r2.add(LANES), c21);
                        vstore(r3, c30);
                        vstore(r3.add(LANES), c31);
                        i += 4;
                    }
                    while i < mi {
                        for jj in j..j + 2 * LANES {
                            $crate::avx2::fw_i64_cell(
                                c.add(i * ldc + jj),
                                a.add(i * lda + k0),
                                b.add(k0 * ldb + jj),
                                ldb,
                                kc,
                            );
                        }
                        i += 1;
                    }
                    j += 2 * LANES;
                }
                for i in 0..mi {
                    for jj in j..nj {
                        $crate::avx2::fw_i64_cell(
                            c.add(i * ldc + jj),
                            a.add(i * lda + k0),
                            b.add(k0 * ldb + jj),
                            ldb,
                            kc,
                        );
                    }
                }
                k0 += kc;
            }
        }

        #[target_feature(enable = $feature)]
        unsafe fn fw_i64_tf(
            m: GepMat<'_, i64>,
            xr: usize,
            xc: usize,
            kk: usize,
            s: usize,
            shape: BoxShape,
        ) {
            if !sweeps::fw_i64_in_range(m, xr, xc, kk, s, shape) {
                return $crate::avx2::fw_i64_saturating(m, xr, xc, kk, s, shape);
            }
            match shape {
                BoxShape::Disjoint => {
                    let ld = m.n();
                    fw_i64_tile(
                        m.row_ptr(xr).add(xc),
                        ld,
                        m.row_ptr(xr).add(kk),
                        ld,
                        m.row_ptr(kk).add(xc),
                        ld,
                        s,
                        s,
                        s,
                    )
                }
                _ => sweeps::fw_i64_in_range_sweep(m, xr, xc, kk, s),
            }
        }

        pub unsafe fn fw_i64(
            m: GepMat<'_, i64>,
            xr: usize,
            xc: usize,
            kk: usize,
            s: usize,
            shape: BoxShape,
        ) {
            fw_i64_tf(m, xr, xc, kk, s, shape)
        }
    };
}

const LANES: usize = 4;
const FW_KC: usize = 64;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vload(p: *const i64) -> __m256i {
    _mm256_loadu_si256(p as *const __m256i)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vstore(p: *mut i64, v: __m256i) {
    _mm256_storeu_si256(p as *mut __m256i, v)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vsplat(x: i64) -> __m256i {
    _mm256_set1_epi64x(x)
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vadd(a: __m256i, b: __m256i) -> __m256i {
    _mm256_add_epi64(a, b)
}

/// AVX2 has no `vpminsq`: compare, then blend.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn vmin(a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b))
}

fw_i64_leaf!("avx2");

/// i64 min-plus panel with the exact [`MinPlusI64::mul`] semantics of the
/// scalar path, for disjoint boxes that fail the in-range test: `u ⊗ v`
/// saturates instead of wrapping and is absorbing at [`TROPICAL_INF`] — a plain `_mm256_add_epi64` would let two
/// near-sentinel weights wrap negative and "win" every relaxation.
#[target_feature(enable = "avx2")]
unsafe fn fw_i64_panel_inner(
    c: *mut i64,
    ldc: usize,
    a: *const i64,
    lda: usize,
    b: *const i64,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    let inf = _mm256_set1_epi64x(TROPICAL_INF);
    let inf_m1 = _mm256_set1_epi64x(TROPICAL_INF - 1);
    let zero = _mm256_setzero_si256();
    for i in 0..mi {
        let crow = c.add(i * ldc);
        let arow = a.add(i * lda);
        for k in 0..kd {
            let u = *arow.add(k);
            let brow = b.add(k * ldb);
            if u >= TROPICAL_INF {
                // u is absorbing: every candidate is exactly INF. Only
                // out-of-range cells (x > INF) change, matching the
                // scalar `min(x, INF)`.
                let mut j = 0usize;
                while j + 4 <= nj {
                    let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                    let gt = _mm256_cmpgt_epi64(x, inf);
                    let res = _mm256_blendv_epi8(x, inf, gt);
                    _mm256_storeu_si256(crow.add(j) as *mut __m256i, res);
                    j += 4;
                }
                while j < nj {
                    if TROPICAL_INF < *crow.add(j) {
                        *crow.add(j) = TROPICAL_INF;
                    }
                    j += 1;
                }
                continue;
            }
            let uv = _mm256_set1_epi64x(u);
            // Overflow of u + v requires sign(u) == sign(v), so the
            // saturated value is uniform across the vector.
            let satval = _mm256_set1_epi64x(if u >= 0 { i64::MAX } else { i64::MIN });
            let mut j = 0usize;
            while j + 4 <= nj {
                let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                let v = _mm256_loadu_si256(brow.add(j) as *const __m256i);
                let mut cand = _mm256_add_epi64(uv, v);
                // Signed-overflow mask: the sum overflowed iff its sign
                // differs from both addends' — (u^cand) & (v^cand) has
                // the sign bit set (AVX2 has no 64-bit arithmetic shift,
                // so read the sign bit with a compare against zero).
                let ovf = _mm256_cmpgt_epi64(
                    zero,
                    _mm256_and_si256(_mm256_xor_si256(uv, cand), _mm256_xor_si256(v, cand)),
                );
                cand = _mm256_blendv_epi8(cand, satval, ovf);
                // Clamp into the sentinel: min(cand, INF) (no
                // _mm256_min_epi64 at AVX2).
                let big = _mm256_cmpgt_epi64(cand, inf);
                cand = _mm256_blendv_epi8(cand, inf, big);
                // Absorb: v ≥ INF ⇒ cand = INF, whatever u was.
                let vinf = _mm256_cmpgt_epi64(v, inf_m1);
                cand = _mm256_blendv_epi8(cand, inf, vinf);
                // Take cand exactly where x > cand, i.e. cand < x.
                let gt = _mm256_cmpgt_epi64(x, cand);
                let res = _mm256_blendv_epi8(x, cand, gt);
                _mm256_storeu_si256(crow.add(j) as *mut __m256i, res);
                j += 4;
            }
            while j < nj {
                let cand = MinPlusI64::mul(u, *brow.add(j));
                if cand < *crow.add(j) {
                    *crow.add(j) = cand;
                }
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Transitive-closure or-panel (bool == u8 with values 0/1)
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2")]
unsafe fn tc_panel_inner(
    c: *mut bool,
    ldc: usize,
    a: *const bool,
    lda: usize,
    b: *const bool,
    ldb: usize,
    mi: usize,
    nj: usize,
    kd: usize,
) {
    for i in 0..mi {
        let crow = c.add(i * ldc) as *mut u8;
        let arow = a.add(i * lda);
        for k in 0..kd {
            if !*arow.add(k) {
                continue;
            }
            let brow = b.add(k * ldb) as *const u8;
            let mut j = 0usize;
            while j + 32 <= nj {
                let x = _mm256_loadu_si256(crow.add(j) as *const __m256i);
                let v = _mm256_loadu_si256(brow.add(j) as *const __m256i);
                _mm256_storeu_si256(crow.add(j) as *mut __m256i, _mm256_or_si256(x, v));
                j += 32;
            }
            while j < nj {
                // OR of 0x00/0x01 bytes stays a valid bool.
                *crow.add(j) |= *brow.add(j);
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// 256-bit instantiations of the shared sweeps (aliasing shapes)
// ---------------------------------------------------------------------

#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn ge_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::ge_sweep(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn lu_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::lu_sweep(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn fw_f64_sweep_tf(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::fw_sweep::<f64>(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn fw_i64_sweep_tf(m: GepMat<'_, i64>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::fw_sweep::<i64>(m, xr, xc, kk, s)
}

#[target_feature(enable = "avx2")]
unsafe fn tc_sweep_tf(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize) {
    sweeps::tc_sweep(m, xr, xc, kk, s)
}

// ---------------------------------------------------------------------
// Shaped entry points (the KernelSet vtable)
// ---------------------------------------------------------------------

pub unsafe fn fw_f64(
    m: GepMat<'_, f64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            fw_f64_panel_inner(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => fw_f64_sweep_tf(m, xr, xc, kk, s),
    }
}

/// The saturating i64 Floyd–Warshall leaf: exact for any input, used
/// when [`sweeps::fw_i64_in_range`] fails (negative weights, cells
/// above `TROPICAL_INF`).
pub(crate) unsafe fn fw_i64_saturating(
    m: GepMat<'_, i64>,
    xr: usize,
    xc: usize,
    kk: usize,
    s: usize,
    shape: BoxShape,
) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            fw_i64_panel_inner(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => fw_i64_sweep_tf(m, xr, xc, kk, s),
    }
}

pub unsafe fn tc(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            tc_panel_inner(
                m.row_ptr(xr).add(xc),
                ld,
                m.row_ptr(xr).add(kk),
                ld,
                m.row_ptr(kk).add(xc),
                ld,
                s,
                s,
                s,
            )
        }
        _ => tc_sweep_tf(m, xr, xc, kk, s),
    }
}
