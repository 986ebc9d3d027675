//! `repro profile`: per-depth × per-shape attribution for one recorded
//! I-GEP solve, cross-checked against the §3 recurrences.
//!
//! One single-threaded `igep_opt` run of the Floyd–Warshall app (full Σ,
//! kernel-backed) is recorded with spans on. The recorded A/B/C/D call
//! tree is then:
//!
//! 1. **attributed** — calls, wall time (total and self), and update
//!    "flops" (2 ops per min-plus update: add + min) are grouped by
//!    recursion depth × function kind;
//! 2. **cross-checked** — the per-depth call populations must equal
//!    [`gep_parallel::span::abcd_level_counts`] *exactly* (the same
//!    discipline as `repro span`, refined per depth), and the leaf
//!    population must equal `base_cases_full`;
//! 3. **replayed** — the base-case boxes of each [`BoxShape`] are
//!    re-executed under a `gep-hwc` span (`profile.<shape>` labels), so
//!    LLC misses and achieved GFLOP/s attribute to the shape that caused
//!    them (replay runs over a copy of the input, so values differ from
//!    the original run but the per-shape memory footprint is identical);
//! 4. **flattened** — self times fold into a collapsed-stack file
//!    (`profile_flame.folded`) loadable by any flamegraph viewer.
//!
//! The roofline table compares each shape's achieved bytes/flop against
//! the paper's `n³/(B√M)` block-transfer bound from `gep_cachesim`.

use super::misses::Geometry;
use crate::util::{fmt_secs, print_table};
use crate::workloads::random_dist_matrix;
use gep_apps::FwSpec;
use gep_cachesim::igep_miss_bound;
use gep_core::{igep_opt, BoxShape, GepMat, GepSpec};
use gep_hwc::{Availability, HwSpan};
use gep_obs::SpanRecord;
use gep_parallel::span::{abcd_level_counts, base_cases_full, AbcdCounts};
use std::collections::BTreeMap;

const ELEM_BYTES: u64 = 8;
/// One min-plus update = one add + one min.
const OPS_PER_UPDATE: u64 = 2;

/// Attribution for one (recursion depth, function kind) cell.
#[derive(Clone, Copy, Debug)]
pub struct DepthKindRow {
    /// Recursion depth: 0 is the root `A`, the last depth holds leaves.
    pub depth: usize,
    /// Box side at this depth (`n >> depth`).
    pub side: usize,
    /// Function kind: `"A"`, `"B"`, `"C"` or `"D"`.
    pub kind: &'static str,
    /// Recorded invocations.
    pub calls: u64,
    /// Invocations predicted by the §3 recurrences.
    pub predicted: u64,
    /// Total recorded wall time (includes children).
    pub total_ns: u64,
    /// Self wall time (children subtracted).
    pub self_ns: u64,
    /// Update ops attributed here (nonzero only at the leaf depth).
    pub flops: u64,
}

/// Per-shape leaf-replay measurement.
#[derive(Clone, Debug)]
pub struct ShapeRow {
    /// Function kind letter.
    pub kind: &'static str,
    /// Shape name (`BoxShape` in kebab form).
    pub shape: &'static str,
    /// Leaf kernels replayed.
    pub leaves: u64,
    /// Update ops executed by those kernels.
    pub flops: u64,
    /// Replay wall time.
    pub seconds: f64,
    /// Measured LLC misses during the replay, when the host grants
    /// hardware counters.
    pub llc_misses: Option<u64>,
}

impl ShapeRow {
    /// Achieved GFLOP/s of the replay.
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

/// Everything `repro profile` reports.
#[derive(Clone, Debug)]
pub struct ProfileOutcome {
    /// Matrix side of the profiled solve.
    pub n: usize,
    /// Base-case side.
    pub base: usize,
    /// Selected kernel backend name.
    pub backend: &'static str,
    /// `kernels.fallback` count (0 = every leaf took the specialized
    /// backend path).
    pub fallback_kernels: u64,
    /// Depth × kind attribution, depth-major then A/B/C/D.
    pub rows: Vec<DepthKindRow>,
    /// Per-shape leaf-replay rows (only shapes that occur).
    pub shapes: Vec<ShapeRow>,
    /// Collapsed-stack flamegraph text (`A;B;D <self_ns>` lines).
    pub flame: String,
    /// Leaf-latency histograms recorded during the profiled solve
    /// (`kernel.leaf_ns` and the per-shape variants).
    pub hists: Vec<(String, gep_obs::Histogram)>,
    /// True iff every depth × kind count matched the recurrences and the
    /// counter totals agreed.
    pub cross_check_ok: bool,
    /// Detected cache geometry used for the roofline bound.
    pub geometry: Geometry,
    /// The paper's `n³/(B√M)` block-transfer bound for this solve.
    pub bound_block_transfers: f64,
}

const KINDS: [(&str, BoxShape, &str); 4] = [
    ("A", BoxShape::Diagonal, "diagonal"),
    ("B", BoxShape::RowPanel, "row-panel"),
    ("C", BoxShape::ColPanel, "col-panel"),
    ("D", BoxShape::Disjoint, "disjoint"),
];

fn kind_index(name: &str) -> Option<usize> {
    KINDS.iter().position(|(k, _, _)| *k == name)
}

fn span_arg(s: &SpanRecord, key: &str) -> Option<i64> {
    s.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Self time per span: duration minus the durations of direct children.
/// Spans on one thread always nest (rayon `join` is LIFO per thread;
/// here the run is serial anyway), so a start-ordered stack walk finds
/// every parent/child pair.
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, u64::MAX - spans[i].dur_ns));
    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid != s.tid || s.start_ns >= t.start_ns + t.dur_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_ns[parent] += s.dur_ns;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, &c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Folds self times into collapsed-stack lines (`A;A;B 1234`), the input
/// format of flamegraph viewers. Stacks are name paths from the root.
fn collapsed_stacks(spans: &[SpanRecord], self_ns: &[u64]) -> String {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, u64::MAX - spans[i].dur_ns));
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    // Stack of (span index, stack string).
    let mut stack: Vec<(usize, String)> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&(top, _)) = stack.last() {
            let t = &spans[top];
            if t.tid != s.tid || s.start_ns >= t.start_ns + t.dur_ns {
                stack.pop();
            } else {
                break;
            }
        }
        let path = match stack.last() {
            Some((_, parent)) => format!("{parent};{}", s.name),
            None => s.name.to_string(),
        };
        *folded.entry(path.clone()).or_insert(0) += self_ns[i];
        stack.push((i, path));
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&format!("{path} {ns}\n"));
    }
    out
}

/// Runs the profiled solve and builds the full attribution. See the
/// module docs for the pipeline.
pub fn profile_report(n: usize, base: usize, avail: &Availability) -> ProfileOutcome {
    let spec = FwSpec::<i64>::new();
    let input = random_dist_matrix(n, 4242);

    gep_obs::install(gep_obs::Recorder::new());
    let mut c = input.clone();
    igep_opt(&spec, &mut c, base);
    let rec = gep_obs::take().expect("recorder was installed");

    let spans: Vec<SpanRecord> = rec
        .spans
        .iter()
        .filter(|s| s.cat == "abcd")
        .cloned()
        .collect();
    let self_ns = self_times(&spans);
    let flame = collapsed_stacks(&spans, &self_ns);

    // Depth × kind attribution from the recorded spans.
    let predicted = abcd_level_counts(n, base);
    let levels = predicted.len();
    let mut calls = vec![[0u64; 4]; levels];
    let mut total = vec![[0u64; 4]; levels];
    let mut selfs = vec![[0u64; 4]; levels];
    let mut attributable = true;
    for (s, &sn) in spans.iter().zip(&self_ns) {
        let (Some(k), Some(side)) = (kind_index(s.name), span_arg(s, "s")) else {
            attributable = false;
            continue;
        };
        let side = side as usize;
        if side == 0 || !n.is_multiple_of(side) || !(n / side).is_power_of_two() {
            attributable = false;
            continue;
        }
        let depth = (n / side).trailing_zeros() as usize;
        if depth >= levels {
            attributable = false;
            continue;
        }
        calls[depth][k] += 1;
        total[depth][k] += s.dur_ns;
        selfs[depth][k] += sn;
    }

    let leaf_flops = (base as u64).pow(3) * OPS_PER_UPDATE;
    let mut rows = Vec::new();
    for (depth, p) in predicted.iter().enumerate() {
        let want = [p.a, p.b, p.c, p.d];
        for (k, &(kind, _, _)) in KINDS.iter().enumerate() {
            rows.push(DepthKindRow {
                depth,
                side: n >> depth,
                kind,
                calls: calls[depth][k],
                predicted: want[k],
                total_ns: total[depth][k],
                self_ns: selfs[depth][k],
                flops: if depth == levels - 1 {
                    calls[depth][k] * leaf_flops
                } else {
                    0
                },
            });
        }
    }

    let leaf_level: AbcdCounts = *predicted.last().expect("at least one level");
    let cross_check_ok = attributable
        && rows.iter().all(|r| r.calls == r.predicted)
        && rec.counter("abcd.base_cases") == base_cases_full(n, base)
        && leaf_level.total() == base_cases_full(n, base)
        && rec.counter("abcd.updates") == (n * n * n) as u64;

    // Per-shape leaf replay under hardware counters.
    let mut replay = input.clone();
    let m = GepMat::new(&mut replay);
    let mut shapes = Vec::new();
    for (k, &(kind, shape, shape_name)) in KINDS.iter().enumerate() {
        let boxes: Vec<(usize, usize, usize, usize)> = spans
            .iter()
            .filter(|s| s.name == kind && span_arg(s, "s").is_some_and(|v| v as usize <= base))
            .filter_map(|s| {
                Some((
                    span_arg(s, "xr")? as usize,
                    span_arg(s, "xc")? as usize,
                    span_arg(s, "kk")? as usize,
                    span_arg(s, "s")? as usize,
                ))
            })
            .collect();
        if boxes.is_empty() {
            continue;
        }
        debug_assert_eq!(boxes.len() as u64, calls[levels - 1][k]);
        let hw = HwSpan::start_with(&format!("profile.{shape_name}"), avail);
        let t0 = std::time::Instant::now();
        for &(xr, xc, kk, s) in &boxes {
            // SAFETY: the replay matrix is exclusively borrowed by `m`
            // and the kernels run sequentially, so every cell access is
            // exclusive; the shape is the engine's own classification of
            // the recorded box.
            unsafe { spec.kernel_shaped(m, xr, xc, kk, s, shape) };
        }
        let seconds = t0.elapsed().as_secs_f64();
        std::hint::black_box(&boxes);
        let reading = hw.stop();
        shapes.push(ShapeRow {
            kind,
            shape: shape_name,
            leaves: boxes.len() as u64,
            flops: boxes.len() as u64 * leaf_flops,
            seconds,
            llc_misses: reading.as_ref().and_then(|r| r.llc_misses()),
        });
    }

    let geometry = Geometry::detect();
    let bound = igep_miss_bound(n, geometry.llc_bytes, geometry.line_bytes, ELEM_BYTES);
    ProfileOutcome {
        n,
        base,
        backend: gep_kernels::selected_backend().name(),
        fallback_kernels: rec.counter("kernels.fallback"),
        rows,
        shapes,
        flame,
        hists: rec
            .hists
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect(),
        cross_check_ok,
        geometry,
        bound_block_transfers: bound,
    }
}

/// Prints the attribution, cross-check and roofline tables.
pub fn print_profile(p: &ProfileOutcome) {
    let rows: Vec<Vec<String>> = p
        .rows
        .iter()
        .filter(|r| r.calls > 0 || r.predicted > 0)
        .map(|r| {
            vec![
                r.depth.to_string(),
                r.side.to_string(),
                r.kind.to_string(),
                r.calls.to_string(),
                r.predicted.to_string(),
                fmt_secs(r.total_ns as f64 / 1e9),
                fmt_secs(r.self_ns as f64 / 1e9),
                if r.calls == r.predicted {
                    "ok"
                } else {
                    "MISMATCH"
                }
                .to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "repro profile: depth x kind attribution (FW, n={}, base {}, backend {}, fallback kernels {})",
            p.n, p.base, p.backend, p.fallback_kernels
        ),
        &[
            "depth", "side", "kind", "calls", "predicted", "total", "self", "",
        ],
        &rows,
    );
    let total_flops = (p.n as u64).pow(3) * OPS_PER_UPDATE;
    let bound_bytes_per_flop =
        p.bound_block_transfers * p.geometry.line_bytes as f64 / total_flops as f64;
    let rows: Vec<Vec<String>> = p
        .shapes
        .iter()
        .map(|s| {
            let bytes_per_flop = s
                .llc_misses
                .map(|m| {
                    format!(
                        "{:.4}",
                        m as f64 * p.geometry.line_bytes as f64 / s.flops as f64
                    )
                })
                .unwrap_or_else(|| "-".into());
            vec![
                s.shape.to_string(),
                s.leaves.to_string(),
                s.flops.to_string(),
                fmt_secs(s.seconds),
                format!("{:.3}", s.gflops()),
                s.llc_misses
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "-".into()),
                bytes_per_flop,
            ]
        })
        .collect();
    print_table(
        &format!(
            "per-shape roofline (leaf replay; bound n³/(B√M) = {:.0} block transfers, {:.4} bytes/flop)",
            p.bound_block_transfers, bound_bytes_per_flop
        ),
        &[
            "shape",
            "leaves",
            "flops",
            "time",
            "GFLOP/s",
            "llc misses",
            "bytes/flop",
        ],
        &rows,
    );
    println!(
        "depth cross-check vs §3 recurrences: {}",
        if p.cross_check_ok { "PASS" } else { "FAIL" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children() {
        let span = |tid, start_ns, dur_ns| SpanRecord {
            name: "A",
            cat: "abcd",
            tid,
            start_ns,
            dur_ns,
            depth: 0,
            args: vec![],
        };
        // Parent [0, 100); children [10, 40) and [50, 90); grandchild
        // [55, 60). Another thread overlaps freely.
        let spans = vec![
            span(0, 0, 100),
            span(0, 10, 30),
            span(0, 50, 40),
            span(0, 55, 5),
            span(1, 20, 70),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 35, 5, 70]);
    }

    #[test]
    fn collapsed_stacks_fold_paths() {
        let span = |name, start_ns, dur_ns| SpanRecord {
            name,
            cat: "abcd",
            tid: 0,
            start_ns,
            dur_ns,
            depth: 0,
            args: vec![],
        };
        let spans = vec![span("A", 0, 100), span("B", 10, 20), span("B", 40, 20)];
        let self_ns = self_times(&spans);
        let text = collapsed_stacks(&spans, &self_ns);
        assert_eq!(text, "A 60\nA;B 40\n");
    }
}
