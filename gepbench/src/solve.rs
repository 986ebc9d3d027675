//! The workloads: `fw-apsp` (i64 min-plus Floyd–Warshall) and `ge-2k`
//! (f64 Gaussian elimination without pivoting), solved in core serially
//! (`igep_opt`) and on two threads (`with_threads(2, igep_parallel)`),
//! every result checked.

use crate::report::{Report, Tally};
use crate::trace::{Probes, Tracer};
use crate::util::{centered, sub_seed, timed, Window, XorShift};
use crate::RunConfig;
use gep_apps::reference::dijkstra_reference;
use gep_apps::{FwSpec, GaussianSpec};
use gep_core::{igep_opt, GepSpec};
use gep_matrix::Matrix;
use gep_obs::Json;
use gep_parallel::{igep_parallel, with_threads};

/// Which solver workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Fw,
    Ge,
}

/// Base size of both workloads, and of the leaf probes that
/// `kernels.leaf_share` multiplies by their recorded leaf counts.
pub fn base(quick: bool) -> usize {
    if quick {
        32
    } else {
        64
    }
}

impl App {
    fn n(self, quick: bool) -> usize {
        match (self, quick) {
            (App::Fw, false) => 1024,
            (App::Fw, true) => 128,
            (App::Ge, false) => 2048,
            (App::Ge, true) => 256,
        }
    }
}

/// Sources whose rows are checked against Dijkstra per FW solve.
const FW_CHECK_SOURCES: usize = 8;
/// Rows whose `L·U` residual is checked per GE solve (the last row,
/// which touches every pivot, is always among them).
const GE_CHECK_ROWS: usize = 6;
/// Largest accepted `max_j |A - L·U|_ij / max_j |A_ij|` on a checked row.
pub const GE_RESIDUAL_TOL: f64 = 1e-12;

/// Entry `(i, j)` of the diagonally dominant GE input: off-diagonal
/// entries uniform in `[-0.5, 0.5)`, diagonal `n`, drawn from row `i`'s
/// own stream `rng`, so the residual check regenerates rows instead of
/// keeping `A`.
fn ge_entry(rng: &mut XorShift, n: usize, i: usize, j: usize) -> f64 {
    if i == j {
        n as f64
    } else {
        centered(rng)
    }
}

fn ge_row_rng(seed: u64, i: usize) -> XorShift {
    XorShift::new(sub_seed(seed, i as u64))
}

fn ge_row(n: usize, seed: u64, i: usize) -> Vec<f64> {
    let mut rng = ge_row_rng(seed, i);
    (0..n).map(|j| ge_entry(&mut rng, n, i, j)).collect()
}

/// The GE input, generated straight into the matrix in row-major order.
fn ge_input(n: usize, seed: u64) -> Matrix<f64> {
    let mut rng = ge_row_rng(seed, 0);
    Matrix::from_fn(n, n, |i, j| {
        if j == 0 {
            rng = ge_row_rng(seed, i);
        }
        ge_entry(&mut rng, n, i, j)
    })
}

/// Relative `L·U` residual of row `i`. After GaussianSpec elimination
/// the upper triangle is `U` and the strict lower cell `(i, k)` holds
/// `c_ik` after `k` steps, so `L_ik = c_ik / c_kk`.
fn ge_row_residual(c: &Matrix<f64>, seed: u64, i: usize) -> f64 {
    let n = c.n();
    let a = ge_row(n, seed, i);
    let l: Vec<f64> = (0..i).map(|k| c[(i, k)] / c[(k, k)]).collect();
    let mut worst = 0.0f64;
    for (j, &aij) in a.iter().enumerate() {
        let top = i.min(j);
        let mut lu = if j >= i { c[(i, j)] } else { 0.0 };
        for (k, &lik) in l.iter().enumerate().take(top + 1) {
            lu += lik * c[(k, j)];
        }
        worst = worst.max((aij - lu).abs());
    }
    let scale = a.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    worst / scale
}

/// Wall time of one serial solve of a fresh copy of the input, and its
/// result.
fn solve_p1<S>(spec: &S, base: usize, mut c: Matrix<S::Elem>) -> (f64, Matrix<S::Elem>)
where
    S: GepSpec + Sync,
{
    let _span = gep_obs::span("solve_p1", "bench");
    let (t, ()) = timed(|| igep_opt(spec, &mut c, base));
    (t, c)
}

/// Wall time of one 2-thread solve of a fresh copy of the input, and its
/// result.
fn solve_p2<S>(spec: &S, base: usize, mut c: Matrix<S::Elem>) -> (f64, Matrix<S::Elem>)
where
    S: GepSpec + Sync,
    S::Elem: Send,
{
    let _span = gep_obs::span("solve_p2", "bench");
    let (t, ()) = timed(|| with_threads(2, || igep_parallel(spec, &mut c, base)));
    (t, c)
}

/// The inputs and the output checks of one solver workload.
struct Case {
    app: App,
    n: usize,
    seed: u64,
    /// FW only: the input graph, for the Dijkstra oracle.
    graph: Option<Matrix<i64>>,
}

/// An input or a solved matrix of either workload.
enum Output {
    Fw(Matrix<i64>),
    Ge(Matrix<f64>),
}

impl Case {
    /// The set-up of one solve: input generation (allocation included)
    /// and kernel dispatch, timed.
    fn setup(&self) -> (f64, Output) {
        let _span = gep_obs::span("setup", "bench");
        timed(|| {
            let _ = gep_kernels::dispatch();
            match self.app {
                App::Fw => Output::Fw(gep_serve::graph::random_graph(self.n, self.seed)),
                App::Ge => Output::Ge(ge_input(self.n, self.seed)),
            }
        })
    }

    /// One solve of `input`, serial or on 2 threads.
    fn solve(&self, input: Output, base: usize, parallel: bool) -> (f64, Output) {
        match input {
            Output::Fw(c) => {
                let spec = FwSpec::<i64>::new();
                let (t, c) = if parallel {
                    solve_p2(&spec, base, c)
                } else {
                    solve_p1(&spec, base, c)
                };
                (t, Output::Fw(c))
            }
            Output::Ge(c) => {
                let (t, c) = if parallel {
                    solve_p2(&GaussianSpec, base, c)
                } else {
                    solve_p1(&GaussianSpec, base, c)
                };
                (t, Output::Ge(c))
            }
        }
    }

    /// Checks a serial result against the oracle: sampled Dijkstra rows
    /// for FW, sampled `L·U` residual rows for GE.
    fn check(&self, got: &Output, tally: &mut Tally) {
        match got {
            Output::Fw(c) => {
                let graph = self.graph.as_ref().expect("fw keeps its input");
                let mut rng = XorShift::new(sub_seed(self.seed, 0xD1));
                for _ in 0..FW_CHECK_SOURCES {
                    let src = rng.below(self.n as u64) as usize;
                    let want = dijkstra_reference(graph, src);
                    tally.check(c.row(src) == want.as_slice(), || {
                        format!("fw-apsp: row {src} differs from Dijkstra")
                    });
                }
            }
            Output::Ge(c) => {
                let mut rng = XorShift::new(sub_seed(self.seed, 0xD2));
                let mut rows: Vec<usize> = (1..GE_CHECK_ROWS)
                    .map(|_| rng.below(self.n as u64) as usize)
                    .collect();
                rows.push(self.n - 1);
                for i in rows {
                    let r = ge_row_residual(c, self.seed, i);
                    tally.check(r <= GE_RESIDUAL_TOL, || {
                        format!("ge-2k: row {i} residual {r:e} > {GE_RESIDUAL_TOL:e}")
                    });
                }
            }
        }
    }
}

/// Checks that the 2-thread result equals the serial one bit for bit.
fn check_same(p1: &Output, p2: &Output, tally: &mut Tally) {
    let same = match (p1, p2) {
        (Output::Fw(a), Output::Fw(b)) => a.as_slice() == b.as_slice(),
        (Output::Ge(a), Output::Ge(b)) => a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        _ => false,
    };
    tally.check(same, || "p1 and p2 results differ".into());
}

/// Runs one solver workload into `report`. Untraced, it times serial
/// solves for the run's window and checks one 2-thread solve against the
/// last of them; traced, it attributes one serial and one 2-thread solve
/// to the layers.
pub fn run(app: App, cfg: &RunConfig, traced: Option<(&mut Tracer, &Probes)>, report: &mut Report) {
    let (n, base) = (app.n(cfg.quick), base(cfg.quick));
    let seed = cfg.seed;
    report.detail("n", Json::Int(n as i64));
    report.detail("base", Json::Int(base as i64));

    let case = Case {
        app,
        n,
        seed,
        graph: (app == App::Fw).then(|| gep_serve::graph::random_graph(n, seed)),
    };

    let Some((tracer, probes)) = traced else {
        // Every round sets up a fresh input and solves it, so `setup_s`
        // and `solve_p1_s` are medians over the same stretch of time.
        let (mut setups, mut p1s) = (Vec::new(), Vec::new());
        let mut last = None;
        let mut window = Window::new(cfg.seconds);
        while window.more() {
            let (ts, input) = case.setup();
            let (t, c) = case.solve(input, base, false);
            case.check(&c, &mut report.tally);
            setups.push(ts);
            p1s.push(t);
            last = Some(c);
        }
        let (_, input) = case.setup();
        let (_, c2) = case.solve(input, base, true);
        check_same(&last.expect("at least one round"), &c2, &mut report.tally);
        report.put_median("setup_s", &setups, "s");
        report.put_median("solve_p1_s", &p1s, "s");
        report.put("peak_heap_mib", crate::alloc::peak_mib(), "MiB", 1);
        report.detail("peak_rss_mib", Json::from_f64(crate::util::peak_rss_mib()));
        return;
    };

    // Traced run: an untraced serial and 2-thread solve, then the same
    // pair under the recorder, whose counter deltas attribute the solves
    // to layers.
    let pair = |report: &mut Report| {
        let (p1, c1) = case.solve(case.setup().1, base, false);
        case.check(&c1, &mut report.tally);
        let (p2, c2) = case.solve(case.setup().1, base, true);
        check_same(&c1, &c2, &mut report.tally);
        (p1, p2)
    };
    let (p1_u, p2_u) = pair(report);
    let ((p1_t, p2_t), delta) = tracer.traced(|| pair(report));

    // The serial and the parallel solve of the traced pair run the same
    // leaves.
    let leaves: [u64; 4] =
        ["a", "b", "c", "d"].map(|k| delta.hist_count(&format!("kernel.leaf.{k}_ns")) / 2);
    if app == App::Fw {
        let want = *gep_parallel::span::abcd_level_counts(n, base)
            .last()
            .expect("levels");
        let want = [want.a, want.b, want.c, want.d];
        report.tally.check(leaves == want, || {
            format!("fw-apsp: recorded leaves {leaves:?} != §3 recurrence {want:?}")
        });
    }
    let leaf_us = match app {
        App::Fw => probes.fw_leaf_us,
        App::Ge => probes.ge_leaf_us,
    };
    let leaf_s: f64 = leaves
        .iter()
        .zip(leaf_us)
        .map(|(&c, us)| c as f64 * us / 1e6)
        .sum();
    let leaf_share = leaf_s / p1_u;
    for ((_, shape), c) in crate::layers::SHAPES.iter().zip(leaves) {
        report.put(&format!("recursion.leaves.{shape}"), c as f64, "count", 1);
    }
    report.put("kernels.leaf_share", leaf_share, "share", 1);
    report.put("recursion.self_share", 1.0 - leaf_share, "share", 1);
    report.put(
        "kernels.fallback",
        delta.counter("kernels.fallback") as f64,
        "count",
        1,
    );
    let joins = delta.counter("parallel.joins");
    report.put("parallel.solve_p1_s", p1_u, "s", 1);
    report.put("parallel.solve_p2_s", p2_u, "s", 1);
    report.put("parallel.joins", joins as f64, "count", 1);
    report.put("parallel.speedup_p2", p1_u / p2_u, "x", 1);
    report.put(
        "parallel.join_share",
        joins as f64 * probes.join_us / 1e6 / p2_u,
        "share",
        1,
    );
    report.put(
        "obs.trace_overhead_frac",
        (p1_t + p2_t) / (p1_u + p2_u) - 1.0,
        "share",
        1,
    );
}
