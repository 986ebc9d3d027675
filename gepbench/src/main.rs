//! Command line of the benchmark:
//!
//! ```text
//! gepbench --workload <fw-apsp|ge-2k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a detail line (every metric with its unit and sample count,
//! the error rate, the host fingerprint) and, as the last line, the
//! result: `{"correct", "attempted", "failed", "metrics"}`.

use gepbench::{RunConfig, WORKLOADS};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: gepbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(cfg.seconds >= 0.0 && cfg.seconds <= 600.0) {
                    return Err(bad("expected 0..=600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("gepbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match gepbench::run(&cfg) {
        Ok(report) => {
            println!("{}", report.detail_json(&cfg.workload, cfg.seed, cfg.trace));
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gepbench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
