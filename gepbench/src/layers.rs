//! Layer probes that time one public call in isolation: a base-size
//! leaf kernel per `BoxShape`, called through the selected `KernelSet`
//! fn pointer outside any recursion, and one `rayon::join` under
//! `with_threads(2, ..)`.

use crate::util::{centered, median, XorShift};
use gep_apps::GaussianSpec;
use gep_core::{BoxShape, GepMat, GepSpec};
use gep_matrix::Matrix;
use std::time::Instant;

/// The four shapes in metric-name order.
pub const SHAPES: [(BoxShape, &str); 4] = [
    (BoxShape::Diagonal, "diag"),
    (BoxShape::RowPanel, "row"),
    (BoxShape::ColPanel, "col"),
    (BoxShape::Disjoint, "disj"),
];

/// Box origin `(xr, xc, kk)` of a base-size box of each shape.
fn origin(shape: BoxShape, b: usize) -> (usize, usize, usize) {
    match shape {
        BoxShape::Diagonal => (0, 0, 0),
        BoxShape::RowPanel => (0, b, 0),
        BoxShape::ColPanel => (b, 0, 0),
        BoxShape::Disjoint => (b, 2 * b, 0),
    }
}

/// Median microseconds of one leaf call per shape. Every call starts from
/// the same pristine matrix, restored outside the timed region.
fn leaf_us<T: Copy>(
    pristine: &Matrix<T>,
    base: usize,
    reps: usize,
    call: impl Fn(GepMat<'_, T>, usize, usize, usize, usize, BoxShape),
) -> [f64; 4] {
    let mut work = pristine.clone();
    let mut out = [0.0; 4];
    for (slot, &(shape, _)) in SHAPES.iter().enumerate() {
        let (xr, xc, kk) = origin(shape, base);
        let _span = gep_obs::span("leaf_probe", "bench").arg("shape", slot as i64);
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            work.copy_from(pristine);
            let m = GepMat::new(&mut work);
            let t0 = Instant::now();
            call(m, xr, xc, kk, base, shape);
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        out[slot] = median(&samples);
    }
    out
}

/// Leaf times of the i64 min-plus Floyd–Warshall kernel.
pub fn fw_leaf_us(base: usize, reps: usize, seed: u64) -> [f64; 4] {
    let pristine = gep_serve::graph::random_graph(4 * base, seed);
    let set = gep_kernels::dispatch();
    let spec = gep_apps::FwSpec::<i64>::new();
    leaf_us(&pristine, base, reps, |m, xr, xc, kk, s, shape| match set {
        // SAFETY: the probe matrix is exclusively borrowed by `m` and the
        // box plus its panels lie inside it (side 4·base ≥ 3·base).
        Some(set) => unsafe { (set.i64_fw)(m, xr, xc, kk, s, shape) },
        None => unsafe { spec.kernel_shaped(m, xr, xc, kk, s, shape) },
    })
}

/// Leaf times of the f64 Gaussian-elimination (FMA) kernel.
pub fn ge_leaf_us(base: usize, reps: usize, seed: u64) -> [f64; 4] {
    let n = 4 * base;
    let mut rng = XorShift::new(seed);
    let pristine = Matrix::from_fn(
        n,
        n,
        |i, j| {
            if i == j {
                n as f64
            } else {
                centered(&mut rng)
            }
        },
    );
    let set = gep_kernels::dispatch();
    leaf_us(&pristine, base, reps, |m, xr, xc, kk, s, shape| match set {
        // SAFETY: as in `fw_leaf_us`.
        Some(set) => unsafe { (set.f64_ge)(m, xr, xc, kk, s, shape) },
        None => unsafe { GaussianSpec.kernel_shaped(m, xr, xc, kk, s, shape) },
    })
}

/// Median microseconds of one `rayon::join` of two empty closures on a
/// 2-thread pool.
pub fn join_us(reps: usize) -> f64 {
    gep_parallel::with_threads(2, || {
        let _span = gep_obs::span("join_probe", "bench");
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            rayon::join(|| (), || ());
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        median(&samples)
    })
}
