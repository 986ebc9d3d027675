//! What one run reports: the checked-operation tally, the metrics, and
//! the two output lines (a detail line, then the result line).

use gep_obs::Json;

/// One reported metric with the number of raw samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Counts the operations a run attempted and the ones that failed: a
/// failed output check, an errored or dropped request, a rejected
/// mutate. `error_rate` is `failed / attempted`.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the detail line.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `ok = false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records `n` operations of which `failed` failed.
    pub fn bulk(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Host and configuration fingerprint.
    pub fingerprint: Vec<(String, Json)>,
    /// Workload-specific facts worth keeping next to the numbers (sizes,
    /// sample counts of derived metrics, cross-checks).
    pub details: Vec<(String, Json)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    /// Reports the median of raw samples as `name` and keeps the samples
    /// in the detail line.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.put(name, crate::util::median(samples), unit, samples.len());
        let raw = samples.iter().map(|&x| Json::from_f64(x)).collect();
        self.detail(&format!("{name}.samples"), Json::Arr(raw));
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The detail line: every metric with its unit and sample count, the
    /// error rate, the fingerprint and the workload details.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::from_f64(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                        ("samples", Json::Int(m.samples as i64)),
                    ]),
                )
            })
            .collect();
        let failures = self
            .tally
            .failures
            .iter()
            .map(|f| Json::Str(f.clone()))
            .collect();
        Json::obj(vec![
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Int(seed as i64)),
            ("trace", Json::Bool(trace)),
            ("error_rate", Json::from_f64(self.error_rate())),
            ("failures", Json::Arr(failures)),
            ("metrics", Json::Obj(metrics)),
            ("host", Json::Obj(self.fingerprint.clone())),
            ("details", Json::Obj(self.details.clone())),
        ])
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics` (value and unit per metric).
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::from_f64(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.tally.attempted as i64)),
            ("failed", Json::Int(self.tally.failed as i64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}
