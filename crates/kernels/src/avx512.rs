//! AVX-512F backend: the AVX2 kernel set with an 8-lane i64
//! Floyd–Warshall leaf.
//!
//! AVX-512F brings `vpminsq`, the 64-bit signed `min` AVX2 lacks, so the
//! in-range min-plus update is one add and one min per 8 lanes. Every
//! other [`crate::KernelSet`] field reuses the AVX2 entry, and the
//! saturating fallback for out-of-range leaves is the AVX2 one.
//!
//! As in the AVX2 module, the vtable entry is a plain `unsafe fn` around
//! a `#[target_feature]` body, reachable only through [`crate::dispatch`],
//! which selects this backend only after `is_x86_feature_detected!`
//! confirms `avx512f` (plus the `avx2` and `fma` of the reused entries).

#![allow(clippy::missing_safety_doc, clippy::too_many_arguments)]

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
