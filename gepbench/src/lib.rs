//! # gepbench — the repository's seeded benchmark
//!
//! One command runs one workload through the workspace's public APIs,
//! checks every output, and prints its metrics. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer metrics, timing each crate's
//! public calls from outside with the `gep_obs` recorder installed
//! around the traced steps only.
//! See `README.md` for the workloads and the definition of every
//! metric.

mod alloc;
mod host;
mod layers;
mod machine;
mod ooc;
pub mod report;
mod serve;
mod solve;
mod trace;
mod util;

use gep_obs::Json;
use report::Report;
use solve::App;
use trace::Tracer;

/// The workloads, by their command-line names.
pub const WORKLOADS: [&str; 2] = ["fw-apsp", "ge-2k"];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("solve_p1_s", "s"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A metric of a layer
/// the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("machine.fma_gflops", "GFLOP/s"),
    ("machine.minplus_gups", "Gupd/s"),
    ("machine.stream_gbs", "GB/s"),
    ("kernels.fw_i64.diag.leaf_us", "us"),
    ("kernels.fw_i64.row.leaf_us", "us"),
    ("kernels.fw_i64.col.leaf_us", "us"),
    ("kernels.fw_i64.disj.leaf_us", "us"),
    ("kernels.ge_f64.diag.leaf_us", "us"),
    ("kernels.ge_f64.row.leaf_us", "us"),
    ("kernels.ge_f64.col.leaf_us", "us"),
    ("kernels.ge_f64.disj.leaf_us", "us"),
    ("kernels.fw_i64.disj.peak_frac", "share"),
    ("kernels.ge_f64.disj.peak_frac", "share"),
    ("kernels.leaf_share", "share"),
    ("kernels.fallback", "count"),
    ("recursion.leaves.diag", "count"),
    ("recursion.leaves.row", "count"),
    ("recursion.leaves.col", "count"),
    ("recursion.leaves.disj", "count"),
    ("recursion.self_share", "share"),
    ("parallel.join_us", "us"),
    ("parallel.joins", "count"),
    ("parallel.solve_p1_s", "s"),
    ("parallel.solve_p2_s", "s"),
    ("parallel.speedup_p2", "x"),
    ("parallel.join_share", "share"),
    ("extmem.solve_s", "s"),
    ("extmem.transfers", "count"),
    ("extmem.seeks", "count"),
    ("extmem.bytes", "bytes"),
    ("extmem.io_wait_model_s", "s"),
    ("extmem.ns_per_update", "ns"),
    ("ckpt.snapshots", "count"),
    ("ckpt.snap_bytes", "bytes"),
    ("ckpt.wal_bytes", "bytes"),
    ("ckpt.overhead_share", "share"),
    ("serve.setup_s", "s"),
    ("serve.read_p50_us", "us"),
    ("serve.read_p99_us", "us"),
    ("serve.read_capacity_qps", "1/s"),
    ("serve.staleness_dec_p50_ms", "ms"),
    ("serve.staleness_mixed_p50_ms", "ms"),
    ("serve.staleness_busy_p50_ms", "ms"),
    ("serve.resolve_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.lookup_ns.dist", "ns"),
    ("serve.lookup_ns.path", "ns"),
    ("serve.snapshot_ns", "ns"),
    ("serve.wire_us", "us"),
    ("serve.generator_late_p99_us", "us"),
    ("serve.epochs", "count"),
    ("serve.resolves", "count"),
    ("serve.epoch_regressions", "count"),
    ("obs.trace_overhead_frac", "share"),
    ("obs.serve_overhead_frac", "share"),
    ("error.rate", "share"),
];

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small sizes for tests.
    pub quick: bool,
}

/// Runs one workload. Returns `Err` for an unknown workload name.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let app = match cfg.workload.as_str() {
        "fw-apsp" => App::Fw,
        "ge-2k" => App::Ge,
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    alloc::reset_peak();
    let backend = host::pin_backend();
    let mut report = Report {
        fingerprint: host::fingerprint(
            backend,
            vec![
                ("quick", Json::Bool(cfg.quick)),
                ("seconds", Json::from_f64(cfg.seconds)),
            ],
        ),
        ..Report::default()
    };
    if !cfg.trace {
        solve::run(app, cfg, None, &mut report);
        return Ok(report);
    }
    // Traced run: the probes, the workload's solver layers, and for the
    // APSP workload also the out-of-core and serving layers, which solve
    // the same problem on their own paths.
    let mut tracer = Tracer::new(cfg.quick, cfg.seed);
    let probes = tracer.probes(&mut report);
    solve::run(app, cfg, Some((&mut tracer, &probes)), &mut report);
    if app == App::Fw {
        ooc::layers(cfg, &mut tracer, &mut report);
        serve::layers(cfg, &mut tracer, &mut report);
    }
    tracer.finish(&cfg.workload, &mut report);
    finish_per_layer(&mut report);
    Ok(report)
}

/// Adds the error rate and reads every metric of a layer this workload
/// does not reach as 0. A metric left without samples (a median of
/// nothing) also reads 0, and its name goes into the detail line.
fn finish_per_layer(report: &mut Report) {
    let attempted = report.tally.attempted as usize;
    report.put("error.rate", report.error_rate(), "share", attempted);
    let mut unmeasured = Vec::new();
    for m in report.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        unmeasured.push(Json::Str(m.name.clone()));
        (m.value, m.samples) = (0.0, 0);
    }
    report.detail("unmeasured", Json::Arr(unmeasured));
    for (name, unit) in PER_LAYER {
        if report.metric(name).is_none() {
            report.put(name, 0.0, unit, 0);
        }
    }
}
