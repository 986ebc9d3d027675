//! The serving layer, measured in the traced `fw-apsp` run: an
//! in-process `gep_serve::Server` on an n = 512 graph, driven over
//! loopback by the benchmark's own client.
//!
//! * **Open loop** (one pipelined connection, a sender and a receiver
//!   thread): reads at a fixed rate (dist 90 / path 5 / reach 4 /
//!   status 1), every latency timed from the request's *due* time.
//!   16-edge `mutate` batches replace read slots on a fixed schedule,
//!   alternating decrease-or-insert-only and `random_mutations` batches;
//!   the spacing leaves the solver idle when each lands. Staleness is the
//!   time from a batch's due time to the first read stamped with a newer
//!   epoch.
//! * **Closed loop, read-only** (two connections): read capacity.
//! * **Closed loop with batches** (one connection): the staleness of a
//!   batch while a reader keeps the solver's second core busy.

use crate::report::{Report, Tally};
use crate::trace::Tracer;
use crate::util::{median, per_call_ns, quantile, sub_seed, timed, XorShift};
use crate::RunConfig;
use gep_apps::reference::dijkstra_reference;
use gep_matrix::Matrix;
use gep_obs::Json;
use gep_serve::graph::{apply_mutations, random_graph, random_mutations};
use gep_serve::protocol::{
    read_frame, response_epoch, response_ok, response_trace, with_trace, write_frame, EdgeMut,
};
use gep_serve::{Request, Server, ServerConfig, Solved, TROPICAL_INF};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Edges per mutate batch.
const BATCH_EDGES: usize = 16;
/// Sources checked against Dijkstra after quiescing.
const CHECK_SOURCES: usize = 8;

/// Pinned sizes of the workload.
#[derive(Clone, Copy, Debug)]
struct Size {
    n: usize,
    /// Open-loop read rate, requests per second.
    rate: f64,
    /// Open-loop gap between batch due times, seconds.
    spacing: f64,
    /// Batches of the contended closed-loop phase.
    contended_batches: usize,
}

fn size(quick: bool) -> Size {
    if quick {
        Size {
            n: 64,
            rate: 1000.0,
            spacing: 0.1,
            contended_batches: 2,
        }
    } else {
        Size {
            n: 512,
            rate: 2000.0,
            spacing: 1.0,
            contended_batches: 8,
        }
    }
}

/// What one request slot carries.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Read,
    /// Batch number `k` (even: decrease-or-insert, odd: mixed).
    Batch(usize),
}

fn read_request(rng: &mut XorShift, n: usize) -> Request {
    let u = rng.below(n as u64) as u32;
    let v = rng.below(n as u64) as u32;
    match rng.below(100) {
        0..=89 => Request::Dist { u, v },
        90..=94 => Request::Path { u, v },
        95..=98 => Request::Reach { u, v },
        _ => Request::Status,
    }
}

/// The benchmark's mirror of the server's base graph, and the batches
/// it generates against it.
struct Mirror {
    graph: Matrix<i64>,
    seed: u64,
    rng: XorShift,
}

impl Mirror {
    /// Batch `k`: even `k` decreases or inserts edges only, odd `k` is
    /// the mixed `random_mutations` stream (re-weights, 1/8 deletions).
    fn batch(&mut self, k: usize) -> Vec<EdgeMut> {
        let n = self.graph.n();
        let edges = if k % 2 == 1 {
            random_mutations(n, BATCH_EDGES, sub_seed(self.seed, 0x4D00 + k as u64))
        } else {
            let mut edges = Vec::with_capacity(BATCH_EDGES);
            while edges.len() < BATCH_EDGES {
                let u = self.rng.below(n as u64) as usize;
                let v = self.rng.below(n as u64) as usize;
                let cur = self.graph.get(u, v);
                if u == v || cur == 1 {
                    continue;
                }
                let w = if cur >= TROPICAL_INF {
                    self.rng.below(100) as i64 + 1
                } else {
                    self.rng.below(cur as u64 - 1) as i64 + 1
                };
                self.graph.set(u, v, w);
                edges.push((u as u32, v as u32, w));
            }
            return edges;
        };
        apply_mutations(&mut self.graph, &edges);
        edges
    }
}

/// Per-epoch re-solve times, read from the published snapshot when a
/// client first sees the epoch.
fn note_epoch(server: &Server, epoch: u64, solves: &mut BTreeMap<u64, f64>) {
    let snap: Arc<Solved> = server.cache().snapshot();
    if snap.epoch == epoch {
        solves.entry(epoch).or_insert(snap.solve_s);
    }
}

/// Validates one response; returns its epoch.
fn check_response(resp: &Json, trace: u64, last_epoch: &mut u64, out: &mut ClientStats) -> u64 {
    let epoch = response_epoch(resp).unwrap_or(0);
    let echoed = response_trace(resp) == Some(trace.to_string().as_str());
    if !response_ok(resp) || !echoed || epoch == 0 {
        out.failed += 1;
    }
    if epoch < *last_epoch {
        out.regressions += 1;
    }
    *last_epoch = (*last_epoch).max(epoch);
    epoch
}

#[derive(Debug, Default)]
struct ClientStats {
    requests: u64,
    failed: u64,
    regressions: u64,
}

/// Open-loop results.
#[derive(Debug, Default)]
struct OpenLoop {
    stats: ClientStats,
    read_us: Vec<f64>,
    late_us: Vec<f64>,
    staleness_ms: [Vec<f64>; 2],
    /// Staleness minus the batch's re-solve time, ms.
    queue_ms: Vec<f64>,
    solves: BTreeMap<u64, f64>,
    batches: usize,
}

struct SentInfo {
    due: Instant,
    slot: Slot,
    trace: u64,
}

/// One open-loop phase of `duration` seconds on `conn`.
fn open_loop(
    server: &Server,
    conn: &TcpStream,
    mirror: &mut Mirror,
    sz: Size,
    duration: f64,
    next_trace: &AtomicU64,
    first_batch: usize,
) -> OpenLoop {
    // At least one batch of each kind, spread evenly over the phase. A
    // phase too short for its rate still gets two slots per batch, so
    // every batch has a slot of its own and a read after it.
    let batches = ((duration / sz.spacing) as usize).max(2);
    let slots = ((duration * sz.rate) as usize).max(2 * batches);
    let mut plan = vec![Slot::Read; slots];
    for b in 0..batches {
        let at = (b as f64 + 0.25) * slots as f64 / batches as f64;
        plan[at as usize] = Slot::Batch(first_batch + b);
    }
    let (tx, rx) = mpsc::channel::<SentInfo>();
    let mut writer = conn.try_clone().expect("clone connection");
    let reader = conn.try_clone().expect("clone connection");
    let n = sz.n;
    let mut rng = XorShift::new(sub_seed(mirror.seed, 0x0A00 + first_batch as u64));
    let t0 = Instant::now() + Duration::from_millis(5);

    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_us = Vec::with_capacity(slots);
            for (i, slot) in plan.iter().enumerate() {
                let due = t0 + Duration::from_secs_f64(i as f64 / sz.rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let req = match *slot {
                    Slot::Read => read_request(&mut rng, n),
                    Slot::Batch(k) => Request::Mutate {
                        edges: mirror.batch(k),
                    },
                };
                let trace = next_trace.fetch_add(1, Ordering::Relaxed);
                let _span = gep_obs::span("send", "bench").arg("trace", trace as i64);
                let sent = Instant::now();
                late_us.push((sent - due).as_secs_f64() * 1e6);
                let info = SentInfo {
                    due,
                    slot: *slot,
                    trace,
                };
                if tx.send(info).is_err()
                    || write_frame(&mut writer, &with_trace(req.to_json(), &trace.to_string()))
                        .is_err()
                {
                    break;
                }
            }
            drop(tx);
            late_us
        });

        let mut out = OpenLoop {
            batches,
            ..OpenLoop::default()
        };
        let mut reader = BufReader::new(reader);
        let mut last_epoch = 0u64;
        // Batches whose newer epoch no read has shown yet: (due, kind,
        // epoch at accept).
        let mut pending: VecDeque<(Instant, usize, u64)> = VecDeque::new();
        for info in rx {
            let _span = gep_obs::span("recv", "bench").arg("trace", info.trace as i64);
            out.stats.requests += 1;
            let Ok(Some(resp)) = read_frame(&mut reader) else {
                out.stats.failed += 1;
                break;
            };
            let at = Instant::now();
            let epoch = check_response(&resp, info.trace, &mut last_epoch, &mut out.stats);
            match info.slot {
                Slot::Batch(k) => pending.push_back((info.due, k % 2, epoch)),
                Slot::Read => {
                    out.read_us.push((at - info.due).as_secs_f64() * 1e6);
                    if pending.front().is_some_and(|p| epoch > p.2) {
                        note_epoch(server, epoch, &mut out.solves);
                    }
                    while let Some(&(due, kind, accepted)) = pending.front() {
                        if epoch <= accepted {
                            break;
                        }
                        pending.pop_front();
                        let stale = (at - due).as_secs_f64() * 1e3;
                        out.staleness_ms[kind].push(stale);
                        if let Some(solve) = out.solves.get(&epoch) {
                            out.queue_ms.push(stale - solve * 1e3);
                        }
                    }
                }
            }
        }
        out.late_us = sender.join().expect("sender thread");
        out
    })
}

/// One closed-loop phase. Without batches it reads on both connections
/// for `duration` seconds; with `batches`, connection 0 alone reads and
/// sends them one at a time (each once the previous one is visible), and
/// the phase ends after the last one is visible. Returns the client
/// counts, the phase time and the staleness of each batch in seconds,
/// from its send to the first response stamped with a newer epoch.
fn closed_loop(
    conns: &[TcpStream; 2],
    mirror: &mut Mirror,
    sz: Size,
    duration: f64,
    batches: Option<(usize, usize)>,
    next_trace: &AtomicU64,
) -> (ClientStats, f64, Vec<f64>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(duration);
    let seed = mirror.seed;
    let worker = |idx: usize, mirror: Option<&mut Mirror>| {
        let mut stream = conns[idx].try_clone().expect("clone connection");
        let mut reader = BufReader::new(conns[idx].try_clone().expect("clone connection"));
        let mut rng = XorShift::new(sub_seed(seed, 0xC100 + idx as u64));
        let mut stats = ClientStats::default();
        let mut staleness = Vec::new();
        let mut last_epoch = 0u64;
        // (next batch, end, (accept epoch, send time) of the batch in
        // flight).
        let mut plan = batches.map(|(first, count)| (first, first + count, None::<(u64, Instant)>));
        let mut mirror = mirror;
        loop {
            let req = match (&mut plan, mirror.as_deref_mut()) {
                (Some((next, end, None)), Some(m)) if *next < *end => {
                    let edges = m.batch(*next);
                    *next += 1;
                    Request::Mutate { edges }
                }
                _ => read_request(&mut rng, sz.n),
            };
            let is_batch = matches!(req, Request::Mutate { .. });
            let trace = next_trace.fetch_add(1, Ordering::Relaxed);
            let _span = gep_obs::span("request", "bench").arg("trace", trace as i64);
            stats.requests += 1;
            let sent = Instant::now();
            let resp = write_frame(&mut stream, &with_trace(req.to_json(), &trace.to_string()))
                .ok()
                .and_then(|()| read_frame(&mut reader).ok().flatten());
            let Some(resp) = resp else {
                stats.failed += 1;
                break;
            };
            let epoch = check_response(&resp, trace, &mut last_epoch, &mut stats);
            let done = match &mut plan {
                None => Instant::now() >= deadline,
                Some((_, _, waiting)) if is_batch => {
                    *waiting = Some((epoch, sent));
                    false
                }
                Some((next, end, waiting)) => match *waiting {
                    Some((accepted, at)) if epoch > accepted => {
                        staleness.push(at.elapsed().as_secs_f64());
                        *waiting = None;
                        next == end
                    }
                    _ => false,
                },
            };
            if done {
                break;
            }
        }
        (stats, staleness)
    };
    // The read-only phase reads on both connections; with batches only
    // connection 0 runs, so one reader keeps the solver's second core
    // busy.
    let ((s0, staleness), (s1, _)) = std::thread::scope(|s| {
        let other = batches.is_none().then(|| s.spawn(|| worker(1, None)));
        let first = worker(0, Some(mirror));
        let second = other.map_or_else(Default::default, |h| h.join().expect("closed-loop worker"));
        (first, second)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = ClientStats {
        requests: s0.requests + s1.requests,
        failed: s0.failed + s1.failed,
        regressions: s0.regressions + s1.regressions,
    };
    (stats, elapsed, staleness)
}

/// Starts a server on the seeded graph and opens both connections.
fn setup(n: usize, seed: u64) -> (f64, (Arc<Server>, [TcpStream; 2])) {
    let _span = gep_obs::span("setup", "bench");
    timed(|| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            slow_threshold: Duration::from_secs(3600),
        };
        let server = Server::start(&config, random_graph(n, seed)).expect("server start");
        let connect = || {
            let c = TcpStream::connect(server.local_addr()).expect("connect");
            c.set_nodelay(true).expect("nodelay");
            c
        };
        let conns = [connect(), connect()];
        (server, conns)
    })
}

fn tally_client(tally: &mut Tally, what: &str, stats: &ClientStats) {
    tally.bulk(stats.requests, stats.failed + stats.regressions, || {
        format!(
            "serve-rw {what}: {} failed, {} epoch regressions",
            stats.failed, stats.regressions
        )
    });
}

/// Measures the serving layer into `report`: one untraced pass
/// (open loop, read-only closed loop, contended batches, final check,
/// in-process lookups), then an open loop under the recorder.
pub fn layers(cfg: &RunConfig, tracer: &mut Tracer, report: &mut Report) {
    let sz = size(cfg.quick);
    let seed = cfg.seed;
    report.detail("serve_n", Json::Int(sz.n as i64));
    report.detail("serve_open_loop_rate_qps", Json::from_f64(sz.rate));

    let mut setups = Vec::new();
    let (server, conns) = loop {
        let (t, (server, conns)) = setup(sz.n, seed);
        setups.push(t);
        if setups.len() == 3 {
            break (server, conns);
        }
        shutdown(server, conns);
    };
    let mut mirror = Mirror {
        graph: random_graph(sz.n, seed),
        seed,
        rng: XorShift::new(sub_seed(seed, 0xDEC)),
    };
    let next_trace = AtomicU64::new(1);

    let open_s = 0.3 * cfg.seconds;
    let open = open_loop(&server, &conns[0], &mut mirror, sz, open_s, &next_trace, 0);
    let (ro, ro_s, _) = closed_loop(
        &conns,
        &mut mirror,
        sz,
        0.1 * cfg.seconds,
        None,
        &next_trace,
    );
    let (busy, _, busy_stale) = closed_loop(
        &conns,
        &mut mirror,
        sz,
        0.0,
        Some((open.batches, sz.contended_batches)),
        &next_trace,
    );
    let total_batches = open.batches + sz.contended_batches;
    tally_client(&mut report.tally, "open loop", &open.stats);
    tally_client(&mut report.tally, "read-only closed loop", &ro);
    tally_client(&mut report.tally, "contended closed loop", &busy);

    // Quiesce, then check the final epoch against Dijkstra on the mirror.
    server.cache().quiesce();
    let snap = server.cache().snapshot();
    let stats = server.cache().stats();
    report.tally.check(snap.epoch == 1 + stats.resolves, || {
        format!(
            "serve-rw: epoch {} after {} re-solves",
            snap.epoch, stats.resolves
        )
    });
    let mut rng = XorShift::new(sub_seed(seed, 0xD3));
    for _ in 0..CHECK_SOURCES {
        let src = rng.below(sz.n as u64) as usize;
        let want = dijkstra_reference(&mirror.graph, src);
        let ok = want
            .iter()
            .enumerate()
            .all(|(v, &d)| snap.dist(src, v) == (d < TROPICAL_INF).then_some(d));
        report.tally.check(ok, || {
            format!("serve-rw: final epoch row {src} differs from Dijkstra")
        });
    }

    let open_solves: Vec<f64> = open.solves.values().copied().collect();
    let read_p50 = quantile(&open.read_us, 0.5);
    let reads = open.read_us.len();
    report.put("serve.setup_s", median(&setups), "s", setups.len());
    report.put("serve.read_p50_us", read_p50, "us", reads);
    report.put(
        "serve.read_p99_us",
        quantile(&open.read_us, 0.99),
        "us",
        reads,
    );
    report.put(
        "serve.read_capacity_qps",
        ro.requests as f64 / ro_s,
        "1/s",
        ro.requests as usize,
    );
    for (kind, name) in [(0, "dec"), (1, "mixed")] {
        let s = &open.staleness_ms[kind];
        report.put(
            &format!("serve.staleness_{name}_p50_ms"),
            median(s),
            "ms",
            s.len(),
        );
    }
    report.put(
        "serve.staleness_busy_p50_ms",
        median(&busy_stale) * 1e3,
        "ms",
        busy_stale.len(),
    );
    report.put(
        "serve.resolve_s",
        median(&open_solves),
        "s",
        open_solves.len(),
    );
    report.put(
        "serve.queue_wait_ms",
        median(&open.queue_ms),
        "ms",
        open.queue_ms.len(),
    );
    report.put(
        "serve.generator_late_p99_us",
        quantile(&open.late_us, 0.99),
        "us",
        open.late_us.len(),
    );
    report.put("serve.epochs", snap.epoch as f64, "count", 1);
    report.put("serve.resolves", stats.resolves as f64, "count", 1);
    let regressions = open.stats.regressions + ro.regressions + busy.regressions;
    report.put("serve.epoch_regressions", regressions as f64, "count", 1);
    report.detail("serve_batches", Json::Int(total_batches as i64));

    // In-process lookups on the live cache.
    let mut rng = XorShift::new(sub_seed(seed, 0x100C));
    let pairs: Vec<(usize, usize)> = (0..1000)
        .map(|_| {
            (
                rng.below(sz.n as u64) as usize,
                rng.below(sz.n as u64) as usize,
            )
        })
        .collect();
    let dist_ns = per_call_ns(50, 1000, |i| {
        let (u, v) = pairs[i % pairs.len()];
        black_box(snap.dist(u, v));
    });
    let path_ns = per_call_ns(50, 100, |i| {
        let (u, v) = pairs[i % pairs.len()];
        black_box(snap.path(u, v));
    });
    let cache = server.cache();
    let snapshot_ns = per_call_ns(50, 1000, |_| {
        black_box(cache.snapshot());
    });
    report.put("serve.lookup_ns.dist", dist_ns, "ns", 50);
    report.put("serve.lookup_ns.path", path_ns, "ns", 50);
    report.put("serve.snapshot_ns", snapshot_ns, "ns", 50);
    report.put("serve.wire_us", read_p50 - dist_ns / 1e3, "us", reads);

    // Traced pass: one more set-up and a shorter open loop under the
    // recorder, for the request spans and the tracing overhead.
    let (traced, _) = tracer.traced(|| {
        let (_, (extra, extra_conns)) = setup(sz.n, seed);
        shutdown(extra, extra_conns);
        open_loop(
            &server,
            &conns[0],
            &mut mirror,
            sz,
            0.1 * cfg.seconds,
            &next_trace,
            total_batches,
        )
    });
    tally_client(&mut report.tally, "traced open loop", &traced.stats);
    report.put(
        "obs.serve_overhead_frac",
        quantile(&traced.read_us, 0.5) / read_p50 - 1.0,
        "share",
        traced.read_us.len(),
    );
    shutdown(server, conns);
}

fn shutdown(server: Arc<Server>, conns: [TcpStream; 2]) {
    drop(conns);
    server.shutdown();
}
