//! AVX-512F backend: 8-lane `zmm` instances of the AVX2 module's
//! register tiles, for the i64 Floyd–Warshall leaf and the f64
//! multiply-accumulate leaves.
//!
//! AVX-512F brings `vpminsq`, the 64-bit signed `min` AVX2 lacks, so the
//! in-range min-plus update is one add and one min per 8 lanes
//! ([`fw_i64_leaf!`]). The f64 tile ([`f64_tile!`]) is 4 rows × 4 `zmm`
//! (32 columns) for GE, LU and both matmul panels; it applies the same
//! fused updates in the same per-cell order as the AVX2 one, so the two
//! backends agree bit for bit. The aliasing shapes, the saturating
//! fallback for out-of-range FW leaves and every other
//! [`crate::KernelSet`] field reuse the AVX2 entries.
//!
//! As in the AVX2 module, the vtable entry is a plain `unsafe fn` around
//! a `#[target_feature]` body, reachable only through [`crate::dispatch`],
//! which selects this backend only after `is_x86_feature_detected!`
//! confirms `avx512f` (plus the `avx2` and `fma` of the reused entries).

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

use crate::avx2::{F64_KC, F64_MC};
use crate::sweeps;
use core::arch::x86_64::*;
use gep_core::algebra::TROPICAL_INF;
use gep_core::{BoxShape, GepMat};

const LANES: usize = 8;
const FW_KC: usize = 64;

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vload(p: *const i64) -> __m512i {
    _mm512_loadu_epi64(p)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vstore(p: *mut i64, v: __m512i) {
    _mm512_storeu_epi64(p, v)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vsplat(x: i64) -> __m512i {
    _mm512_set1_epi64(x)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vadd(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi64(a, b)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn vmin(a: __m512i, b: __m512i) -> __m512i {
    _mm512_min_epi64(a, b)
}

fw_i64_leaf!("avx512f");

/// Columns per f64 tile: 4 rows × 4 `zmm` vectors (16 of the 32
/// registers accumulate).
const F64_NV: usize = 4;

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fload(p: *const f64) -> __m512d {
    _mm512_loadu_pd(p)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fstore(p: *mut f64, v: __m512d) {
    _mm512_storeu_pd(p, v)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fsplat(x: f64) -> __m512d {
    _mm512_set1_pd(x)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
    _mm512_fmadd_pd(a, b, c)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fnmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
    _mm512_fnmadd_pd(a, b, c)
}

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn fdiv(a: __m512d, b: __m512d) -> __m512d {
    _mm512_div_pd(a, b)
}

f64_tile!("avx512f");
