//! The out-of-core layer, measured in the traced `fw-apsp` run:
//! `gep_extmem::run_checkpointed` on i64 Floyd–Warshall, n = 128, with a
//! small arena (M = n²·8/16 bytes = eight 1 KiB blocks), base 16, a
//! snapshot every 32 of the 512 leaf steps, a `MemStore` and the Fujitsu
//! disk profile. Every result is checked bitwise against in-core
//! `igep_opt`.

use crate::report::Report;
use crate::trace::{Snap, Tracer};
use crate::util::{median, timed};
use crate::RunConfig;
use gep_apps::FwSpec;
use gep_core::{igep_opt, igep_resumable, igep_step_count, CellStore, StepControl};
use gep_extmem::{
    run_checkpointed, CkptConfig, CkptStats, DiskProfile, ExtArena, ExtMatrix, IoStats, MemStore,
};
use gep_matrix::Matrix;
use gep_obs::Json;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Clone, Copy, Debug)]
struct Size {
    n: usize,
    base: usize,
    b_bytes: u64,
    every: u64,
}

fn size(quick: bool) -> Size {
    if quick {
        Size {
            n: 64,
            base: 4,
            b_bytes: 256,
            every: 64,
        }
    } else {
        Size {
            n: 128,
            base: 16,
            b_bytes: 1024,
            every: 32,
        }
    }
}

fn config(sz: Size, every: u64) -> CkptConfig {
    CkptConfig {
        m_bytes: (sz.n * sz.n * 8 / 16) as u64,
        b_bytes: sz.b_bytes,
        base: sz.base,
        snapshot_every: every,
        profile: DiskProfile::fujitsu_map3735nc(),
    }
}

fn solve(input: &Matrix<i64>, cfg: &CkptConfig) -> (f64, (Matrix<i64>, CkptStats)) {
    let _span = gep_obs::span("ckpt_solve", "bench");
    let mut store = MemStore::new(None);
    timed(|| run_checkpointed(&FwSpec::<i64>::new(), input, cfg, &mut store, None))
}

/// The arena I/O of one `run_checkpointed` attempt, replayed through
/// the public out-of-core API: load the input, flush at cursor 0, at
/// every snapshot boundary and at the end, then read the result back.
/// `run_checkpointed` keeps its arena private, so this is how the
/// modelled transfers and disk wait are read. Returns the I/O counters
/// and the result.
fn replay_io(input: &Matrix<i64>, cfg: &CkptConfig) -> (IoStats, Matrix<i64>) {
    let _span = gep_obs::span("ckpt_replay", "bench");
    let n = input.n();
    let spec = FwSpec::<i64>::new();
    let total = igep_step_count(&spec, n, cfg.base);
    let arena = Rc::new(RefCell::new(ExtArena::<i64>::new(
        cfg.m_bytes,
        cfg.b_bytes,
        cfg.profile,
    )));
    let mut ext = ExtMatrix::<i64>::zeroed(arena.clone(), n);
    for i in 0..n {
        for j in 0..n {
            CellStore::write(&mut ext, i, j, input.get(i, j));
        }
    }
    arena.borrow_mut().flush();
    igep_resumable(&spec, &mut ext, cfg.base, 0, &mut |cursor| {
        if cursor % cfg.snapshot_every == 0 && cursor < total {
            arena.borrow_mut().flush();
        }
        StepControl::Continue
    });
    arena.borrow_mut().flush();
    let result = ext.to_matrix();
    let io = arena.borrow().io_stats();
    (io, result)
}

/// The arena I/O the recorder saw in one step: block reads, block
/// writes and flushed pages.
fn arena_io(delta: &Snap) -> [u64; 3] {
    [
        delta.hist_count("extmem.read_ns"),
        delta.hist_count("extmem.write_ns"),
        delta.counter("extmem.flush.pages"),
    ]
}

/// Measures the out-of-core layer into `report`: untraced checkpointed
/// solves (with periodic and with only the final snapshot), then one
/// checkpointed solve and the I/O replay under the recorder.
pub fn layers(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) {
    let sz = size(cfg.quick);
    let n = sz.n;
    let ckpt = config(sz, sz.every);
    report.detail("ooc_n", Json::Int(n as i64));
    report.detail("ooc_base", Json::Int(sz.base as i64));
    report.detail("ooc_m_bytes", Json::Int(ckpt.m_bytes as i64));
    report.detail("ooc_b_bytes", Json::Int(sz.b_bytes as i64));
    report.detail("ooc_snapshot_every", Json::Int(sz.every as i64));

    let input = gep_serve::graph::random_graph(n, cfg.seed);
    let mut oracle = input.clone();
    igep_opt(&FwSpec::<i64>::new(), &mut oracle, n.min(64));
    let check = |report: &mut Report, got: &Matrix<i64>, what: &str| {
        report.tally.check(got == &oracle, || {
            format!("ooc-ckpt: {what} differs from in-core igep_opt")
        });
    };

    let mut solves = Vec::new();
    let mut stats = CkptStats::default();
    for _ in 0..3 {
        let (t, (got, s)) = solve(&input, &ckpt);
        check(report, &got, "checkpointed solve");
        solves.push(t);
        stats = s;
    }
    let t_u = median(&solves);
    let total_steps = igep_step_count(&FwSpec::<i64>::new(), n, sz.base);
    let (t_final, (got, _)) = solve(&input, &config(sz, total_steps.max(1)));
    check(report, &got, "final-snapshot-only solve");
    let level = *gep_parallel::span::abcd_level_counts(n, sz.base)
        .last()
        .expect("levels");
    let leaves = level.a + level.b + level.c + level.d;
    report.tally.check(leaves == total_steps, || {
        format!("ooc-ckpt: {total_steps} schedule steps != {leaves} §3 leaves")
    });

    // The checkpointed solve and the replay, each under the recorder.
    // The replay's block reads, block writes and flushed pages must
    // equal the real run's; that ties the replayed I/O metrics to it.
    let ((_, (got, _)), run_delta) = tracer.traced(|| solve(&input, &ckpt));
    check(report, &got, "traced solve");
    let ((io, got), replay_delta) = tracer.traced(|| replay_io(&input, &ckpt));
    check(report, &got, "I/O replay");
    let (run_blocks, replay_blocks) = (arena_io(&run_delta), arena_io(&replay_delta));
    report.tally.check(run_blocks == replay_blocks, || {
        format!(
            "ooc-ckpt: [block reads, block writes, flushed pages] of the replay \
             {replay_blocks:?} != the run's {run_blocks:?}"
        )
    });

    report.put("extmem.solve_s", t_u, "s", solves.len());
    report.put("extmem.transfers", io.transfers() as f64, "count", 1);
    report.put("extmem.seeks", io.seeks as f64, "count", 1);
    report.put("extmem.bytes", io.bytes as f64, "bytes", 1);
    report.put("extmem.io_wait_model_s", io.wait_s, "s", 1);
    report.put(
        "extmem.ns_per_update",
        t_u * 1e9 / (n * n * n) as f64,
        "ns",
        1,
    );
    report.put("ckpt.snapshots", stats.snapshots_written as f64, "count", 1);
    report.put("ckpt.snap_bytes", stats.snap_bytes as f64, "bytes", 1);
    report.put("ckpt.wal_bytes", stats.wal_bytes as f64, "bytes", 1);
    report.put("ckpt.overhead_share", (t_u - t_final) / t_u, "share", 1);

    report.detail("ooc_flushed_pages", Json::Int(run_blocks[2] as i64));
}
