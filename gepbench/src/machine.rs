//! In-benchmark machine references: register-resident FMA and min-plus
//! throughput, and streaming bandwidth out of DRAM. The leaf-kernel
//! `peak_frac` metrics divide by these.

use crate::util::median;
use std::hint::black_box;
use std::time::Instant;

/// The three references plus the stream sizes they were taken at.
#[derive(Clone, Copy, Debug)]
pub struct MachineRefs {
    /// f64 FMA throughput, GFLOP/s (one FMA = 2 flops).
    pub fma_gflops: f64,
    /// i64 min-plus updates `c = min(c, a + b)` per ns (G updates/s).
    pub minplus_gups: f64,
    /// Read bandwidth out of DRAM, GB/s.
    pub stream_gbs: f64,
    /// Bytes of the streamed array.
    pub stream_array_bytes: u64,
    /// Last-level cache size the arrays were sized against.
    pub llc_bytes: u64,
    /// Whether the AVX2/FMA loops ran (else the scalar fallbacks did).
    pub simd: bool,
}

const FMA_ACC: usize = 12;
const MINPLUS_ACC: usize = 8;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: u64, a: f64, b: f64) -> f64 {
    use std::arch::x86_64::*;
    let (va, vb) = (_mm256_set1_pd(a), _mm256_set1_pd(b));
    let mut acc = [_mm256_set1_pd(1.0); FMA_ACC];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm256_fmadd_pd(*r, va, vb);
        }
    }
    let mut lanes = [0.0f64; 4];
    let mut sum = 0.0;
    for r in acc {
        _mm256_storeu_pd(lanes.as_mut_ptr(), r);
        sum += lanes.iter().sum::<f64>();
    }
    sum
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn minplus_avx2(iters: u64, seed: i64) -> i64 {
    use std::arch::x86_64::*;
    let one = _mm256_set1_epi64x(1);
    let mut u = _mm256_set1_epi64x(seed);
    let mut v = [_mm256_setzero_si256(); MINPLUS_ACC];
    let mut acc = [_mm256_set1_epi64x(i64::MAX / 4); MINPLUS_ACC];
    for (k, x) in v.iter_mut().enumerate() {
        *x = _mm256_set1_epi64x(k as i64 * 7);
    }
    for _ in 0..iters {
        for (r, x) in acc.iter_mut().zip(&v) {
            let t = _mm256_add_epi64(u, *x);
            let gt = _mm256_cmpgt_epi64(*r, t);
            *r = _mm256_blendv_epi8(*r, t, gt);
        }
        u = _mm256_sub_epi64(u, one);
    }
    let mut lanes = [0i64; 4];
    let mut out = 0i64;
    for r in acc {
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), r);
        out = out.wrapping_add(lanes.iter().copied().fold(0, i64::wrapping_add));
    }
    out
}

fn fma_scalar(iters: u64, a: f64, b: f64) -> f64 {
    let mut acc = [1.0f64; FMA_ACC];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = r.mul_add(a, b);
        }
    }
    acc.iter().sum()
}

fn minplus_scalar(iters: u64, seed: i64) -> i64 {
    let mut acc = [i64::MAX / 4; MINPLUS_ACC];
    let mut u = seed;
    for _ in 0..iters {
        for (k, r) in acc.iter_mut().enumerate() {
            *r = (*r).min(u + k as i64 * 7);
        }
        u -= 1;
    }
    acc.iter().copied().fold(0, i64::wrapping_add)
}

fn has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Median of `reps` timings of `f`, which returns the work it did.
fn rate(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let work = f();
        rates.push(work / t0.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// Measures the three references. `quick` shrinks the streamed array
/// (tests); otherwise it spans four times the last-level cache.
pub fn measure(quick: bool) -> MachineRefs {
    let simd = has_avx2_fma();
    let iters: u64 = if quick { 200_000 } else { 4_000_000 };
    let fma_gflops = rate(5, || {
        let (a, b) = (black_box(0.999_999), black_box(1e-7));
        #[cfg(target_arch = "x86_64")]
        let s = if simd {
            // SAFETY: AVX2 and FMA were detected on this host.
            unsafe { fma_avx2(iters, a, b) }
        } else {
            fma_scalar(iters, a, b)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let s = fma_scalar(iters, a, b);
        black_box(s);
        let lanes = if simd { 4 } else { 1 };
        (iters * (FMA_ACC * lanes * 2) as u64) as f64 / 1e9
    });
    let minplus_gups = rate(5, || {
        let seed = black_box(1_000_000i64);
        #[cfg(target_arch = "x86_64")]
        let s = if simd {
            // SAFETY: AVX2 was detected on this host.
            unsafe { minplus_avx2(iters, seed) }
        } else {
            minplus_scalar(iters, seed)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let s = minplus_scalar(iters, seed);
        black_box(s);
        let lanes = if simd { 4 } else { 1 };
        (iters * (MINPLUS_ACC * lanes) as u64) as f64 / 1e9
    });

    // Read bandwidth: one array of at least four times the last-level
    // cache, summed in full per pass.
    let llc_bytes = crate::host::llc_bytes();
    let bytes = if quick { 4 << 20 } else { 4 * llc_bytes };
    let data = vec![1.0f64; (bytes / 8) as usize];
    let stream_gbs = rate(5, || {
        // Eight independent partial sums, so the pass is bound by memory
        // rather than by the latency of one add chain.
        let parts = black_box(&data)
            .chunks_exact(8)
            .fold([0.0f64; 8], |mut acc, c| {
                for (a, x) in acc.iter_mut().zip(c) {
                    *a += x;
                }
                acc
            });
        black_box(parts);
        bytes as f64 / 1e9
    });
    MachineRefs {
        fma_gflops,
        minplus_gups,
        stream_gbs,
        stream_array_bytes: bytes,
        llc_bytes,
        simd,
    }
}
