//! The simulated block device.

use crate::fault::{self, FaultClock, WriteFate};
use std::collections::{BTreeSet, HashMap};

/// Timing model of a disk drive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskProfile {
    /// Average positioning time charged for a non-sequential transfer, in
    /// seconds.
    pub avg_seek_s: f64,
    /// Sustained transfer bandwidth in bytes/second.
    pub bandwidth_bps: f64,
}

impl DiskProfile {
    /// The paper's Fujitsu MAP3735NC (10K RPM): 4.5 ms average seek,
    /// 64.1–107.86 MB/s sustained transfer (we use the mid-range).
    pub fn fujitsu_map3735nc() -> Self {
        Self {
            avg_seek_s: 4.5e-3,
            bandwidth_bps: 85.0e6,
        }
    }
}

/// I/O counters of a [`SimDisk`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IoStats {
    /// Blocks read from the device.
    pub block_reads: u64,
    /// Blocks written to the device.
    pub block_writes: u64,
    /// Transfers that required a seek (non-sequential).
    pub seeks: u64,
    /// Bytes transferred in either direction.
    pub bytes: u64,
    /// Transient read errors that were retried (fault injection).
    pub retries: u64,
    /// Modelled cumulative I/O wait in seconds.
    pub wait_s: f64,
}

impl IoStats {
    /// Total block transfers (the paper's I/O count).
    pub fn transfers(&self) -> u64 {
        self.block_reads + self.block_writes
    }

    /// Publishes the counters to the `gep_obs` recorder (if one is
    /// installed) under
    /// `io.<label>.{block_reads,block_writes,seeks,bytes,retries}` plus
    /// the gauges `io.<label>.wait_s` and `io.<label>.retry_rate` (retries
    /// per block read). The `io.*` family sorts after `cache.*` and
    /// `ckpt.*` in the summary's counter table (BTreeMap order — pinned
    /// by the `gep-obs` summary tests).
    pub fn publish(&self, label: &str) {
        if !gep_obs::enabled() {
            return;
        }
        gep_obs::counter_add(&format!("io.{label}.block_reads"), self.block_reads);
        gep_obs::counter_add(&format!("io.{label}.block_writes"), self.block_writes);
        gep_obs::counter_add(&format!("io.{label}.seeks"), self.seeks);
        gep_obs::counter_add(&format!("io.{label}.bytes"), self.bytes);
        gep_obs::counter_add(&format!("io.{label}.retries"), self.retries);
        gep_obs::gauge_set(&format!("io.{label}.wait_s"), self.wait_s);
        if self.block_reads > 0 {
            gep_obs::gauge_set(
                &format!("io.{label}.retry_rate"),
                self.retries as f64 / self.block_reads as f64,
            );
        }
    }
}

/// A sparse simulated block device storing blocks of `block_elems`
/// elements (`block_bytes = block_elems · size_of::<T>()` for timing).
///
/// Unwritten blocks read as `T::default()` without charging a transfer
/// (the simulation's analogue of a freshly formatted file: STXXL likewise
/// does not read uninitialised pages).
pub struct SimDisk<T = u8> {
    block_elems: usize,
    block_bytes: u64,
    profile: DiskProfile,
    blocks: HashMap<u64, Box<[T]>>,
    stats: IoStats,
    last_block: Option<u64>,
    /// Blocks written since the last [`Self::mark_clean`] — the
    /// snapshotter's delta set.
    changed: BTreeSet<u64>,
    fault: Option<FaultClock>,
}

impl<T: Copy + Default> SimDisk<T> {
    /// Creates a device with blocks of `block_bytes` bytes.
    ///
    /// # Panics
    /// Panics unless `block_bytes` is a positive multiple of
    /// `size_of::<T>()`.
    pub fn new(block_bytes: u64, profile: DiskProfile) -> Self {
        let elem = std::mem::size_of::<T>() as u64;
        assert!(block_bytes > 0 && elem > 0 && block_bytes.is_multiple_of(elem));
        Self {
            block_elems: (block_bytes / elem) as usize,
            block_bytes,
            profile,
            blocks: HashMap::new(),
            stats: IoStats::default(),
            last_block: None,
            changed: BTreeSet::new(),
            fault: None,
        }
    }

    /// Attaches a fault-injection clock (see [`crate::fault`]). Reads and
    /// writes consult it from then on; `None` faults are free.
    pub fn set_fault_clock(&mut self, clock: FaultClock) {
        self.fault = Some(clock);
    }

    /// Block size in bytes (the timing unit).
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Elements per block.
    pub fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Counter snapshot.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Number of materialised (ever written) blocks.
    pub fn allocated_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn charge(&mut self, block: u64) {
        let sequential =
            self.last_block == Some(block.wrapping_sub(1)) || self.last_block == Some(block);
        if !sequential {
            self.stats.seeks += 1;
            self.stats.wait_s += self.profile.avg_seek_s;
        }
        self.stats.bytes += self.block_bytes;
        self.stats.wait_s += self.block_bytes as f64 / self.profile.bandwidth_bps;
        self.last_block = Some(block);
    }

    /// Reads block `id` into a fresh buffer (`T::default()` if never
    /// written, which charges no transfer).
    ///
    /// With a fault clock attached, a transient read error is retried with
    /// a modelled backoff (one average seek per attempt, charged to
    /// `wait_s` and counted in [`IoStats::retries`]); an exhausted retry
    /// budget escalates to an injected crash.
    pub fn read_block(&mut self, id: u64) -> Box<[T]> {
        match self.blocks.get(&id) {
            Some(data) => {
                let out = data.clone();
                if let Some(clock) = self.fault.clone() {
                    while clock.borrow_mut().on_read() {
                        self.stats.retries += 1;
                        self.stats.wait_s += self.profile.avg_seek_s;
                        if !clock.borrow_mut().on_retry() {
                            let at = clock.borrow().writes();
                            fault::crash(at, false);
                        }
                    }
                }
                self.stats.block_reads += 1;
                self.charge(id);
                out
            }
            None => vec![T::default(); self.block_elems].into_boxed_slice(),
        }
    }

    /// Writes block `id`.
    ///
    /// With a fault clock attached, the planned crash-at-Nth-write fires
    /// *before* the block is stored: the simulated disk is volatile state
    /// that a real crash would take down with the process, so nothing of
    /// the doomed write survives (torn prefixes only apply to stable-store
    /// appends, i.e. the WAL).
    ///
    /// # Panics
    /// Panics if `data` is not exactly one block.
    pub fn write_block(&mut self, id: u64, data: &[T]) {
        assert_eq!(data.len(), self.block_elems);
        if let Some(clock) = self.fault.clone() {
            let fate = clock.borrow_mut().on_write(std::mem::size_of_val(data));
            if let WriteFate::Crash { .. } = fate {
                let at = clock.borrow().writes();
                fault::crash(at, false);
            }
        }
        self.stats.block_writes += 1;
        self.charge(id);
        self.changed.insert(id);
        self.blocks.insert(id, data.into());
    }

    /// Ids of the blocks written since the last [`Self::mark_clean`]
    /// (ascending). The checkpoint snapshotter's delta set.
    pub fn changed_blocks(&self) -> Vec<u64> {
        self.changed.iter().copied().collect()
    }

    /// Clears the changed-block set (called after a snapshot commits).
    pub fn mark_clean(&mut self) {
        self.changed.clear();
    }

    /// Ids of every materialised block (ascending). Used by full
    /// (generation-0) snapshots.
    pub fn block_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.blocks.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Borrows block `id` without charging a transfer — checkpoint
    /// serialisation reads the device image, not the simulated workload.
    pub fn peek_block(&self, id: u64) -> Option<&[T]> {
        self.blocks.get(&id).map(|b| &b[..])
    }

    /// Installs block `id` without charging a transfer or dirtying the
    /// changed set — recovery restores the device image as of the
    /// snapshot, which by definition is clean.
    ///
    /// # Panics
    /// Panics if `data` is not exactly one block.
    pub fn restore_block(&mut self, id: u64, data: &[T]) {
        assert_eq!(data.len(), self.block_elems);
        self.blocks.insert(id, data.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk<u8> {
        SimDisk::new(4096, DiskProfile::fujitsu_map3735nc())
    }

    #[test]
    fn roundtrip() {
        let mut d = disk();
        let mut buf = vec![0u8; 4096];
        buf[17] = 0xAB;
        d.write_block(5, &buf);
        let back = d.read_block(5);
        assert_eq!(back[17], 0xAB);
        assert_eq!(back[16], 0);
    }

    #[test]
    fn typed_blocks() {
        let mut d: SimDisk<f64> = SimDisk::new(4096, DiskProfile::fujitsu_map3735nc());
        assert_eq!(d.block_elems(), 512);
        let mut buf = vec![0.0f64; 512];
        buf[3] = 2.5;
        d.write_block(1, &buf);
        assert_eq!(d.read_block(1)[3], 2.5);
    }

    #[test]
    fn unwritten_blocks_read_zero_for_free() {
        let mut d = disk();
        let b = d.read_block(99);
        assert!(b.iter().all(|&x| x == 0));
        assert_eq!(d.stats().transfers(), 0);
        assert_eq!(d.stats().wait_s, 0.0);
    }

    #[test]
    fn sequential_writes_seek_once() {
        let mut d = disk();
        let buf = vec![1u8; 4096];
        for id in 10..20 {
            d.write_block(id, &buf);
        }
        assert_eq!(d.stats().seeks, 1, "only the first transfer seeks");
        assert_eq!(d.stats().block_writes, 10);
    }

    #[test]
    fn random_writes_seek_every_time() {
        let mut d = disk();
        let buf = vec![1u8; 4096];
        for id in [5u64, 100, 3, 77, 42] {
            d.write_block(id, &buf);
        }
        assert_eq!(d.stats().seeks, 5);
    }

    #[test]
    fn wait_time_model() {
        let mut d: SimDisk<u8> = SimDisk::new(
            1_000_000,
            DiskProfile {
                avg_seek_s: 0.01,
                bandwidth_bps: 100.0e6,
            },
        );
        let buf = vec![0u8; 1_000_000];
        d.write_block(0, &buf); // seek 0.01 + 1e6/1e8 = 0.01 s transfer
        let s = d.stats();
        assert!((s.wait_s - 0.02).abs() < 1e-9, "wait = {}", s.wait_s);
    }

    #[test]
    fn changed_block_tracking_and_uncharged_accessors() {
        let mut d = disk();
        let buf = vec![3u8; 4096];
        d.write_block(2, &buf);
        d.write_block(9, &buf);
        assert_eq!(d.changed_blocks(), vec![2, 9]);
        d.mark_clean();
        assert!(d.changed_blocks().is_empty());
        d.write_block(9, &buf);
        assert_eq!(d.changed_blocks(), vec![9]);
        assert_eq!(d.block_ids(), vec![2, 9]);

        let before = d.stats();
        assert_eq!(d.peek_block(2).unwrap()[0], 3);
        assert!(d.peek_block(99).is_none());
        let restored = vec![7u8; 4096];
        d.restore_block(5, &restored);
        assert_eq!(d.stats(), before, "peek/restore charge no I/O");
        assert!(d.changed_blocks() == vec![9], "restore does not dirty");
        assert_eq!(d.peek_block(5).unwrap()[0], 7);
    }

    #[test]
    fn write_crash_fires_before_block_persists() {
        use crate::fault::{fault_clock, run_to_crash, FaultPlan};
        crate::fault::silence_injected_crash_reports();
        let clock = fault_clock(FaultPlan {
            crash_at_write: Some(2),
            ..Default::default()
        });
        let mut d = disk();
        d.set_fault_clock(clock);
        let buf = vec![1u8; 4096];
        d.write_block(0, &buf);
        let err =
            run_to_crash(std::panic::AssertUnwindSafe(|| d.write_block(1, &buf))).unwrap_err();
        assert_eq!(err.at_write, 2);
        assert!(d.peek_block(0).is_some());
        assert!(d.peek_block(1).is_none(), "doomed write must not persist");
    }

    #[test]
    fn read_faults_retry_with_backoff_and_count() {
        use crate::fault::{fault_clock, FaultPlan};
        let clock = fault_clock(FaultPlan {
            read_fail_every: Some(2),
            max_retries: 3,
            ..Default::default()
        });
        let mut d = disk();
        d.set_fault_clock(clock);
        let buf = vec![5u8; 4096];
        d.write_block(0, &buf);
        let wait_before = d.stats().wait_s;
        assert_eq!(d.read_block(0)[0], 5); // read #1 ok
        assert_eq!(d.read_block(0)[0], 5); // read #2 fails, retry (#3) ok
        let s = d.stats();
        assert_eq!(s.retries, 1);
        assert_eq!(s.block_reads, 2);
        // Both reads are sequential (same block as the write), so the
        // only seek-sized charge is the single retry backoff.
        let seek = DiskProfile::fujitsu_map3735nc().avg_seek_s;
        assert!(
            s.wait_s > wait_before + seek && s.wait_s < wait_before + 2.0 * seek,
            "exactly one retry backoff charged: {} vs before {}",
            s.wait_s,
            wait_before
        );
    }

    #[test]
    fn rewrite_same_block_counts_as_sequential() {
        let mut d = disk();
        let buf = vec![2u8; 4096];
        d.write_block(7, &buf);
        d.write_block(7, &buf);
        assert_eq!(d.stats().seeks, 1);
        assert_eq!(d.stats().block_writes, 2);
    }
}
