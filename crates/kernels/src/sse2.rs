//! SSE2 backend: 128-bit explicit kernels for the disjoint box.
//!
//! SSE2 is part of the x86-64 baseline, so nothing here needs
//! `#[target_feature]` or runtime detection — these are plain `unsafe fn`s
//! that coerce directly into the [`crate::KernelSet`] vtable. There is no
//! FMA at this ISA level: the multiply-accumulate panels use separate
//! mul + add/sub (two roundings), matching the plain `x ± u·v` of the
//! scalar edge paths, so per-update results are again path-independent
//! within the backend.
//!
//! SSE2 has no 64-bit integer compare (`pcmpgtq` is SSE4.2), so the i64
//! Floyd–Warshall entry routes every shape to the shared portable sweeps
//! (the in-range fast path, or the saturating sweep).
//!
//! Non-disjoint shapes use the shared sweeps at baseline width.

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

use crate::sweeps;
use core::arch::x86_64::*;
use gep_core::{BoxShape, GepMat};

#[inline(always)]
unsafe fn cell_acc(c: *mut f64, arow: *const f64, bcol: *const f64, ldb: usize, kd: usize) {
    let mut x = *c;
    for k in 0..kd {
        x += *arow.add(k) * *bcol.add(k * ldb);
    }
    *c = x;
}

#[inline(always)]
unsafe fn cell_sub(c: *mut f64, arow: *const f64, bcol: *const f64, ldb: usize, kd: usize) {
    let mut x = *c;
    for k in 0..kd {
        x -= *arow.add(k) * *bcol.add(k * ldb);
    }
    *c = x;
}

macro_rules! mm_panel {
    ($name:ident, $op:ident, $cell:ident) => {
        /// 4 rows × 4 columns of C in eight xmm accumulators, k innermost.
        unsafe fn $name(
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
            let mut i = 0usize;
            while i + 4 <= mi {
                let r0 = c.add(i * ldc);
                let r1 = c.add((i + 1) * ldc);
                let r2 = c.add((i + 2) * ldc);
                let r3 = c.add((i + 3) * ldc);
                let a0 = a.add(i * lda);
                let a1 = a.add((i + 1) * lda);
                let a2 = a.add((i + 2) * lda);
                let a3 = a.add((i + 3) * lda);
                let mut j = 0usize;
                while j + 4 <= nj {
                    let mut c00 = _mm_loadu_pd(r0.add(j));
                    let mut c01 = _mm_loadu_pd(r0.add(j + 2));
                    let mut c10 = _mm_loadu_pd(r1.add(j));
                    let mut c11 = _mm_loadu_pd(r1.add(j + 2));
                    let mut c20 = _mm_loadu_pd(r2.add(j));
                    let mut c21 = _mm_loadu_pd(r2.add(j + 2));
                    let mut c30 = _mm_loadu_pd(r3.add(j));
                    let mut c31 = _mm_loadu_pd(r3.add(j + 2));
                    for k in 0..kd {
                        let brow = b.add(k * ldb + j);
                        let bv0 = _mm_loadu_pd(brow);
                        let bv1 = _mm_loadu_pd(brow.add(2));
                        let u0 = _mm_set1_pd(*a0.add(k));
                        c00 = $op(c00, _mm_mul_pd(u0, bv0));
                        c01 = $op(c01, _mm_mul_pd(u0, bv1));
                        let u1 = _mm_set1_pd(*a1.add(k));
                        c10 = $op(c10, _mm_mul_pd(u1, bv0));
                        c11 = $op(c11, _mm_mul_pd(u1, bv1));
                        let u2 = _mm_set1_pd(*a2.add(k));
                        c20 = $op(c20, _mm_mul_pd(u2, bv0));
                        c21 = $op(c21, _mm_mul_pd(u2, bv1));
                        let u3 = _mm_set1_pd(*a3.add(k));
                        c30 = $op(c30, _mm_mul_pd(u3, bv0));
                        c31 = $op(c31, _mm_mul_pd(u3, bv1));
                    }
                    _mm_storeu_pd(r0.add(j), c00);
                    _mm_storeu_pd(r0.add(j + 2), c01);
                    _mm_storeu_pd(r1.add(j), c10);
                    _mm_storeu_pd(r1.add(j + 2), c11);
                    _mm_storeu_pd(r2.add(j), c20);
                    _mm_storeu_pd(r2.add(j + 2), c21);
                    _mm_storeu_pd(r3.add(j), c30);
                    _mm_storeu_pd(r3.add(j + 2), c31);
                    j += 4;
                }
                while j < nj {
                    $cell(r0.add(j), a0, b.add(j), ldb, kd);
                    $cell(r1.add(j), a1, b.add(j), ldb, kd);
                    $cell(r2.add(j), a2, b.add(j), ldb, kd);
                    $cell(r3.add(j), a3, b.add(j), ldb, kd);
                    j += 1;
                }
                i += 4;
            }
            while i < mi {
                let r = c.add(i * ldc);
                let ar = a.add(i * lda);
                for j in 0..nj {
                    $cell(r.add(j), ar, b.add(j), ldb, kd);
                }
                i += 1;
            }
        }
    };
}

mm_panel!(mm_acc_inner, _mm_add_pd, cell_acc);
mm_panel!(mm_sub_inner, _mm_sub_pd, cell_sub);

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
    mm_acc_inner(c, ldc, a, lda, b, ldb, mi, nj, kd)
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
    mm_sub_inner(c, ldc, a, lda, b, ldb, mi, nj, kd)
}

/// k-chunk length of the Gaussian factor strip.
const GE_KC: usize = 128;

unsafe fn ge_panel(
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
    let mut fbuf = [0.0f64; 4 * GE_KC];
    let mut i = 0usize;
    while i < mi {
        let rows = (mi - i).min(4);
        let mut k0 = 0usize;
        while k0 < kd {
            let kc = (kd - k0).min(GE_KC);
            for r in 0..rows {
                let arow = a.add((i + r) * lda + k0);
                for k in 0..kc {
                    fbuf[r * GE_KC + k] = *arow.add(k) / *w.add((k0 + k) * ws);
                }
            }
            mm_sub_inner(
                c.add(i * ldc),
                ldc,
                fbuf.as_ptr(),
                GE_KC,
                b.add(k0 * ldb),
                ldb,
                rows,
                nj,
                kc,
            );
            k0 += kc;
        }
        i += rows;
    }
}

unsafe fn fw_f64_panel(
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
            let uv = _mm_set1_pd(u);
            let brow = b.add(k * ldb);
            let mut j = 0usize;
            while j + 2 <= nj {
                let x = _mm_loadu_pd(crow.add(j));
                let v = _mm_loadu_pd(brow.add(j));
                let cand = _mm_add_pd(uv, v);
                // Blend without SSE4.1 blendv: (cand & lt) | (x & !lt).
                let lt = _mm_cmplt_pd(cand, x);
                let res = _mm_or_pd(_mm_and_pd(lt, cand), _mm_andnot_pd(lt, x));
                _mm_storeu_pd(crow.add(j), res);
                j += 2;
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

unsafe fn tc_panel(
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
            while j + 16 <= nj {
                let x = _mm_loadu_si128(crow.add(j) as *const __m128i);
                let v = _mm_loadu_si128(brow.add(j) as *const __m128i);
                _mm_storeu_si128(crow.add(j) as *mut __m128i, _mm_or_si128(x, v));
                j += 16;
            }
            while j < nj {
                *crow.add(j) |= *brow.add(j);
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shaped entry points
// ---------------------------------------------------------------------

pub unsafe fn ge(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            ge_panel(
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
        _ => sweeps::ge_sweep(m, xr, xc, kk, s),
    }
}

pub unsafe fn lu(m: GepMat<'_, f64>, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            mm_sub_inner(
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
        _ => sweeps::lu_sweep(m, xr, xc, kk, s),
    }
}

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
            fw_f64_panel(
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
        _ => sweeps::fw_sweep::<f64>(m, xr, xc, kk, s),
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
    // No 64-bit SIMD compare at SSE2 level: portable sweeps on every shape.
    sweeps::fw_i64_sweep(m, xr, xc, kk, s, shape)
}

pub unsafe fn tc(m: GepMat<'_, bool>, xr: usize, xc: usize, kk: usize, s: usize, shape: BoxShape) {
    match shape {
        BoxShape::Disjoint => {
            let ld = m.n();
            tc_panel(
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
        _ => sweeps::tc_sweep(m, xr, xc, kk, s),
    }
}
