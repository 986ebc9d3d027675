//! Quick-size runs of every workload: all checks pass, every declared
//! metric is emitted with its unit, and the count metrics repeat exactly
//! for the same seed.

use gepbench::report::Report;
use gepbench::{RunConfig, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::{Mutex, PoisonError};

/// Runs share the process-global recorder, so they take turns.
fn run_for(workload: &str, trace: bool, seed: u64, seconds: f64) -> Report {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    gepbench::run(&RunConfig {
        workload: workload.into(),
        seed,
        seconds,
        trace,
        quick: true,
    })
    .expect("known workload")
}

fn run(workload: &str, trace: bool, seed: u64) -> Report {
    run_for(workload, trace, seed, 0.2)
}

fn assert_emits(report: &Report, declared: &[(&str, &str)], workload: &str) {
    assert!(
        report.correct(),
        "{workload}: failures {:?}",
        report.tally.failures
    );
    let mut names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    assert_eq!(names, want, "{workload}: emitted metrics");
    for (name, unit) in declared {
        let m = report.metric(name).expect("emitted");
        assert_eq!(m.unit, *unit, "{workload}: unit of {name}");
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
    }
}

#[test]
fn untraced_runs_pass_and_emit_every_end_to_end_metric() {
    for w in WORKLOADS {
        let report = run(w, false, 7);
        assert_emits(&report, &END_TO_END, w);
        for (name, _) in END_TO_END {
            let m = report.metric(name).expect("emitted");
            assert!(m.value > 0.0 && m.samples > 0, "{w}: {name} = {m:?}");
        }
        let line = report.result_json();
        let keys: Vec<&str> = match &line {
            gep_obs::Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("result line is not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn traced_runs_pass_and_emit_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_emits(&run(w, true, 7), &PER_LAYER, w);
    }
}

#[test]
fn zero_second_runs_pass_and_emit_every_metric() {
    for w in WORKLOADS {
        assert_emits(&run_for(w, false, 5, 0.0), &END_TO_END, w);
        assert_emits(&run_for(w, true, 5, 0.0), &PER_LAYER, w);
    }
}

#[test]
fn count_metrics_repeat_for_the_same_seed() {
    const COUNTS: [&str; 14] = [
        "recursion.leaves.diag",
        "recursion.leaves.row",
        "recursion.leaves.col",
        "recursion.leaves.disj",
        "parallel.joins",
        "extmem.transfers",
        "extmem.seeks",
        "extmem.bytes",
        "extmem.io_wait_model_s",
        "ckpt.snapshots",
        "ckpt.snap_bytes",
        "ckpt.wal_bytes",
        "serve.epochs",
        "serve.resolves",
    ];
    for w in WORKLOADS {
        let (a, b) = (run(w, true, 11), run(w, true, 11));
        for name in COUNTS {
            let (x, y) = (a.metric(name).unwrap(), b.metric(name).unwrap());
            assert_eq!(x.value, y.value, "{w}: {name} differs between runs");
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = gep_obs::Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(gep_obs::Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(gep_obs::Json::as_str)
                        .unwrap()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(gep_obs::Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(gep_obs::Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
