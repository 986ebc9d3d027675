//! The traced run's recorder: installed only around the traced steps,
//! read as counter/histogram deltas per step, and written out at the end
//! as a Chrome trace.

use crate::layers;
use crate::machine::{self, MachineRefs};
use crate::report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Counters and histogram sample counts of the installed recorder.
#[derive(Clone, Debug, Default)]
pub struct Snap {
    counters: BTreeMap<String, u64>,
    hist_counts: BTreeMap<String, u64>,
}

impl Snap {
    /// The installed recorder's state now (empty when none is).
    pub fn take() -> Snap {
        gep_obs::metrics_snapshot().map_or_else(Snap::default, |m| Snap {
            counters: m.counters,
            hist_counts: m
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), h.count()))
                .collect(),
        })
    }

    /// What accumulated between `before` and `self`.
    pub fn since(&self, before: &Snap) -> Snap {
        let sub = |now: &BTreeMap<String, u64>, then: &BTreeMap<String, u64>| {
            now.iter()
                .map(|(k, v)| (k.clone(), v - then.get(k).copied().unwrap_or(0)))
                .collect()
        };
        Snap {
            counters: sub(&self.counters, &before.counters),
            hist_counts: sub(&self.hist_counts, &before.hist_counts),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist_counts.get(name).copied().unwrap_or(0)
    }
}

/// Results of the layer probes every traced run takes.
#[derive(Clone, Copy, Debug)]
pub struct Probes {
    pub fw_leaf_us: [f64; 4],
    pub ge_leaf_us: [f64; 4],
    pub join_us: f64,
    pub machine: MachineRefs,
}

/// Owns the traced run's recorder: installed for the layer probes and
/// for each [`Tracer::traced`] step, and held uninstalled in between so
/// the untraced reference measurements run without it.
pub struct Tracer {
    quick: bool,
    seed: u64,
    rec: Option<gep_obs::Recorder>,
}

impl Tracer {
    pub fn new(quick: bool, seed: u64) -> Tracer {
        Tracer {
            quick,
            seed,
            rec: Some(gep_obs::Recorder::new()),
        }
    }

    /// Runs `f` with the recorder installed; returns its result and the
    /// counter and histogram deltas it caused.
    pub fn traced<R>(&mut self, f: impl FnOnce() -> R) -> (R, Snap) {
        gep_obs::install(self.rec.take().expect("recorder is held between steps"));
        let before = Snap::take();
        let out = f();
        let delta = Snap::take().since(&before);
        self.rec = gep_obs::take();
        (out, delta)
    }

    /// Measures the machine references, the leaf kernels and the join
    /// under the recorder, and reports them.
    pub fn probes(&mut self, report: &mut Report) -> Probes {
        let base = crate::solve::base(self.quick);
        let reps = if self.quick { 20 } else { 200 };
        let (quick, seed) = (self.quick, self.seed);
        let (probes, _) = self.traced(|| {
            let machine = {
                let _span = gep_obs::span("machine_probe", "bench");
                machine::measure(quick)
            };
            Probes {
                fw_leaf_us: layers::fw_leaf_us(base, reps, seed),
                ge_leaf_us: layers::ge_leaf_us(base, reps, seed),
                join_us: layers::join_us(if quick { 20 } else { 200 }),
                machine,
            }
        });
        let machine = probes.machine;
        report.put("machine.fma_gflops", machine.fma_gflops, "GFLOP/s", 5);
        report.put("machine.minplus_gups", machine.minplus_gups, "Gupd/s", 5);
        report.put("machine.stream_gbs", machine.stream_gbs, "GB/s", 5);
        report.detail(
            "machine",
            gep_obs::Json::obj(vec![
                ("simd", gep_obs::Json::Bool(machine.simd)),
                (
                    "stream_array_bytes",
                    gep_obs::Json::Int(machine.stream_array_bytes as i64),
                ),
                ("llc_bytes", gep_obs::Json::Int(machine.llc_bytes as i64)),
                ("leaf_probe_base", gep_obs::Json::Int(base as i64)),
            ]),
        );
        let cube = (base * base * base) as f64;
        for (app, us, peak, flops) in [
            ("fw_i64", probes.fw_leaf_us, machine.minplus_gups, 1.0),
            ("ge_f64", probes.ge_leaf_us, machine.fma_gflops, 2.0),
        ] {
            for ((_, shape), t) in layers::SHAPES.iter().zip(us) {
                report.put(&format!("kernels.{app}.{shape}.leaf_us"), t, "us", reps);
            }
            // Work per ns is G per second.
            let rate = flops * cube / (us[3] * 1e3);
            report.put(
                &format!("kernels.{app}.disj.peak_frac"),
                rate / peak,
                "share",
                reps,
            );
        }
        report.put("parallel.join_us", probes.join_us, "us", 200);
        probes
    }

    /// Takes the recorder and writes its spans as a Chrome trace to
    /// `out/trace-<workload>.json` in the benchmark's directory.
    pub fn finish(self, workload: &str, report: &mut Report) {
        let Some(rec) = self.rec else { return };
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{workload}.json"));
        let spans = rec.spans.len();
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, gep_obs::chrome_trace_string(&rec)));
        report.tally.check(written.is_ok(), || {
            format!("writing {}: {:?}", path.display(), written.err())
        });
        report.detail("trace_spans", gep_obs::Json::Int(spans as i64));
        report.detail(
            "trace_file",
            gep_obs::Json::Str(format!("out/trace-{workload}.json")),
        );
    }
}
