//! What the page cache's drop path reports to the observability layer.
//!
//! These tests install the process-global `gep_obs` recorder, and every
//! arena in the same process records into whichever recorder is
//! installed. They therefore live in a test binary of their own: run
//! among the library's unit tests, sibling tests' arenas flush pages into
//! their recorder. `LOCK` serializes the two of them.

use gep_extmem::fault::crash;
use gep_extmem::{run_to_crash, silence_injected_crash_reports, DiskProfile, ExtArena};
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn obs_test_lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn arena(pages: u64) -> ExtArena<i64> {
    // 64-byte pages = 8 i64 elements.
    ExtArena::new(pages * 64, 64, DiskProfile::fujitsu_map3735nc())
}

#[test]
fn drop_flushes_dirty_pages_deterministically() {
    // The global recorder observes the drop-path flush even though the
    // arena (and its disk) die with it.
    let _g = obs_test_lock();
    let _ = gep_obs::take();
    gep_obs::install(gep_obs::Recorder::counters_only());
    {
        let mut a = arena(4);
        a.write(0, 1);
        a.write(8, 2);
        a.write(9, 3); // same page as 8
    } // drop → flush
    let rec = gep_obs::take().expect("recorder installed above");
    assert_eq!(rec.counter("extmem.flush.pages"), 2);
    assert_eq!(
        rec.counter("io.unlabelled.block_writes"),
        0,
        "flush publishes its own counter, not io.* (those need a label)"
    );
}

#[test]
fn drop_during_panic_skips_flush() {
    let _g = obs_test_lock();
    let _ = gep_obs::take();
    silence_injected_crash_reports();
    gep_obs::install(gep_obs::Recorder::counters_only());
    let result = run_to_crash(|| {
        let mut a = arena(4);
        a.write(0, 1);
        crash(1, false);
    });
    assert!(result.is_err());
    let rec = gep_obs::take().expect("recorder installed above");
    assert_eq!(
        rec.counter("extmem.flush.pages"),
        0,
        "unwinding must not write back volatile state"
    );
}
