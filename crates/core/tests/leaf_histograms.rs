//! Leaf-latency histograms of the optimised I-GEP engine.
//!
//! This test installs the process-global `gep_obs` recorder, and every
//! engine run in the same process records into whichever recorder is
//! installed. It therefore lives in a test binary of its own: run among
//! the library's unit tests, sibling tests' engine runs land in its
//! recorder and inflate the counts.

use gep_core::{igep_opt, GepSpec};
use gep_matrix::Matrix;

/// Floyd–Warshall-style spec: min-plus over the full update set.
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

/// Every base case lands one sample in `kernel.leaf_ns` and exactly
/// one of the per-shape histograms.
#[test]
fn leaf_latency_histograms_cover_every_base_case() {
    gep_obs::install(gep_obs::Recorder::counters_only());
    let mut c = random_dist(16, 3);
    igep_opt(&MinPlus, &mut c, 2);
    let rec = gep_obs::take().expect("recorder installed above");
    let base_cases = rec.counter("abcd.base_cases");
    assert_eq!(base_cases, 512); // 8^3 leaves for n=16, base=2
    let h = rec.hist("kernel.leaf_ns").expect("leaf histogram present");
    assert_eq!(h.count(), base_cases);
    let per_shape: u64 = ["a", "b", "c", "d"]
        .iter()
        .map(|s| {
            rec.hist(&format!("kernel.leaf.{s}_ns"))
                .map_or(0, |h| h.count())
        })
        .sum();
    assert_eq!(per_shape, base_cases);
}
