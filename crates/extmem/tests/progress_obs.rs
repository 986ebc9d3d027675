//! Progress gauges and latency histograms of a checkpointed solve.
//!
//! This test installs the process-global `gep_obs` recorder, and every
//! engine run in the same process records into whichever recorder is
//! installed. It therefore lives in a test binary of its own: run among
//! the library's unit tests, sibling tests' checkpointed solves land in
//! its recorder and inflate the histogram counts.

use gep_apps::floyd_warshall::{FwSpec, Weight};
use gep_extmem::{run_checkpointed, CkptConfig, DiskProfile, MemStore};
use gep_matrix::Matrix;

fn fw_input(n: usize, seed: u64) -> Matrix<i64> {
    let mut s = seed.max(1);
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0
        } else {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s.is_multiple_of(5) {
                <i64 as Weight>::INFINITY
            } else {
                (s % 30) as i64 + 1
            }
        }
    })
}

/// The progress gauges and latency histograms a flight recorder would
/// sample: final state shows a complete run with zero checkpoint lag,
/// and every durability / paging event left a latency sample.
#[test]
fn run_publishes_progress_gauges_and_latency_histograms() {
    gep_obs::install(gep_obs::Recorder::counters_only());
    let n = 16;
    let input = fw_input(n, 23);
    let cfg = CkptConfig {
        m_bytes: 2048,
        b_bytes: 256,
        base: 2,
        snapshot_every: 10,
        profile: DiskProfile::fujitsu_map3735nc(),
    };
    let mut store = MemStore::new(None);
    let (_, stats) = run_checkpointed(&FwSpec::<i64>::new(), &input, &cfg, &mut store, None);
    let rec = gep_obs::take().expect("recorder installed above");
    assert_eq!(rec.gauge("progress.cursor"), Some(stats.total_steps as f64));
    assert_eq!(rec.gauge("progress.pct"), Some(100.0));
    assert_eq!(rec.gauge("progress.ckpt_lag_steps"), Some(0.0));
    assert_eq!(rec.gauge("progress.ckpt_lag_wal_bytes"), Some(0.0));
    let frac = rec.gauge("progress.io_wait_frac").expect("io_wait_frac");
    assert!((0.0..=1.0).contains(&frac), "frac={frac}");
    let wal = rec.hist("extmem.wal_fsync_ns").expect("wal hist");
    assert_eq!(wal.count(), stats.wal_records);
    // The leaf kernels themselves run over the arena-backed CellStore
    // and record into kernel.leaf_ns via gep-core's resumable walker.
    let leaf = rec.hist("kernel.leaf_ns").expect("leaf hist");
    assert_eq!(leaf.count(), stats.executed_steps);
    // A 2 KiB cache over a 16x16 i64 matrix must page: both fault
    // paths leave latency samples.
    assert!(rec.hist("extmem.read_ns").is_some(), "read hist");
    assert!(rec.hist("extmem.write_ns").is_some(), "write hist");
}
