//! The `BENCH_<experiment>.json` schema.
//!
//! `repro -- all --json` writes one of these files per reproduced
//! figure/table so the measured numbers (miss counts, simulated seconds,
//! update counts) land somewhere machine-readable that future PRs can diff
//! against. Schema (version 3):
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "experiment": "fig8",          // [A-Za-z0-9_.-]+, used in the filename
//!   "title": "Figure 8: ...",
//!   "quick": true,                 // was --quick passed?
//!   "host": "optional free text",
//!   "rows": [ { "n": 128, "gep_s": 0.01, ... }, ... ],
//!   "counters": { "io.gep.seeks": 123, ... },  // optional, integers
//!   "gauges": { "fit.c": 1.82, ... },          // optional, v2+: floats
//!   "histograms": {                            // optional, v3+
//!     "kernel.leaf_ns": { "count": 512, "max": 90321, "p50": 1024,
//!                         "p90": 4096, "p99": 8192,
//!                         "buckets": [[1024, 300], [2048, 180], ...] }
//!   }
//! }
//! ```
//!
//! Version history: v1 had no `gauges`; v2 adds the optional `gauges`
//! object whose values are floats written via [`Json::from_f64`], so
//! `NaN`/`±Infinity` land as the deterministic sentinel strings rather
//! than `null`; v3 adds the optional `histograms` object serializing
//! [`crate::hist::Histogram`] (log-bucketed latency distributions).
//! [`validate`] accepts v2 and v3; v1 files are rejected.
//!
//! Rows are flat objects of scalars; each experiment chooses its own
//! columns. [`validate`] enforces the envelope (not the per-experiment
//! columns) and is run by `repro validate` in CI against every emitted
//! file.

use crate::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Current schema version, written to every new file.
pub const SCHEMA_VERSION: i64 = 3;

/// Oldest schema version [`validate`] still accepts (pre-`histograms`
/// files).
pub const MIN_SCHEMA_VERSION: i64 = 2;

/// Builder for one `BENCH_<experiment>.json` document.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    experiment: String,
    title: String,
    quick: bool,
    host: Option<String>,
    rows: Vec<Json>,
    counters: Vec<(String, Json)>,
    gauges: Vec<(String, Json)>,
    histograms: Vec<(String, Json)>,
}

impl BenchDoc {
    /// Starts a document. `experiment` must match `[A-Za-z0-9_.-]+` (it
    /// becomes part of the filename).
    pub fn new(experiment: &str, title: &str, quick: bool) -> Self {
        assert!(
            experiment_name_ok(experiment),
            "bad experiment name {experiment:?}"
        );
        BenchDoc {
            experiment: experiment.to_string(),
            title: title.to_string(),
            quick,
            host: None,
            rows: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Attaches free-text host information.
    pub fn host(mut self, host: &str) -> Self {
        self.host = Some(host.to_string());
        self
    }

    /// Appends one row (a flat object).
    pub fn row(&mut self, fields: Vec<(&str, Json)>) {
        self.rows.push(Json::obj(fields));
    }

    /// Attaches a recorder counter (or any named scalar).
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters
            .push((name.to_string(), Json::Int(value as i64)));
    }

    /// Attaches a named float (fit constants, ratios, recorder gauges).
    /// Non-finite values serialize as the deterministic sentinel strings —
    /// see [`Json::from_f64`].
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_string(), Json::from_f64(value)));
    }

    /// Attaches a recorder histogram (schema v3): summary quantiles plus
    /// the sparse bucket list — see [`crate::hist::Histogram::to_json`].
    pub fn histogram(&mut self, name: &str, h: &crate::hist::Histogram) {
        self.histograms.push((name.to_string(), h.to_json()));
    }

    /// Number of rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The document as a JSON value (always valid per [`validate`]).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("experiment", Json::Str(self.experiment.clone())),
            ("title", Json::Str(self.title.clone())),
            ("quick", Json::Bool(self.quick)),
        ];
        if let Some(h) = &self.host {
            fields.push(("host", Json::Str(h.clone())));
        }
        fields.push(("rows", Json::Arr(self.rows.clone())));
        if !self.counters.is_empty() {
            fields.push(("counters", Json::Obj(self.counters.clone())));
        }
        if !self.gauges.is_empty() {
            fields.push(("gauges", Json::Obj(self.gauges.clone())));
        }
        if !self.histograms.is_empty() {
            fields.push(("histograms", Json::Obj(self.histograms.clone())));
        }
        Json::obj(fields)
    }

    /// Filename this document writes to: `BENCH_<experiment>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// Writes the document (pretty enough: one row per line) under `dir`,
    /// creating the directory if needed. Returns the file path.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.filename());
        let mut f = std::fs::File::create(&path)?;
        f.write_all(render(&self.to_json()).as_bytes())?;
        Ok(path)
    }
}

fn experiment_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// Serializes with the top-level object and the rows array split across
/// lines, so the files diff well; everything else stays compact.
fn render(doc: &Json) -> String {
    let mut out = String::new();
    let Json::Obj(fields) = doc else {
        doc.write_into(&mut out);
        return out;
    };
    out.push_str("{\n");
    for (idx, (k, v)) in fields.iter().enumerate() {
        out.push_str("  ");
        Json::Str(k.clone()).write_into(&mut out);
        out.push_str(": ");
        match (k.as_str(), v) {
            ("rows", Json::Arr(rows)) => {
                out.push_str("[\n");
                for (ridx, row) in rows.iter().enumerate() {
                    out.push_str("    ");
                    row.write_into(&mut out);
                    if ridx + 1 < rows.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str("  ]");
            }
            _ => v.write_into(&mut out),
        }
        if idx + 1 < fields.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out.push('\n');
    out
}

/// Validates the envelope of a parsed `BENCH_*.json` document.
pub fn validate(doc: &Json) -> Result<(), String> {
    if !doc.is_obj() {
        return Err("document is not a JSON object".into());
    }
    match doc.get("schema_version").and_then(Json::as_i64) {
        Some(v) if (MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&v) => {}
        Some(v) => {
            return Err(format!(
                "schema_version {v} outside supported range {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
            ))
        }
        None => return Err("missing integer schema_version".into()),
    }
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("missing string experiment")?;
    if !experiment_name_ok(experiment) {
        return Err(format!("bad experiment name {experiment:?}"));
    }
    doc.get("title")
        .and_then(Json::as_str)
        .ok_or("missing string title")?;
    doc.get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean quick")?;
    if let Some(host) = doc.get("host") {
        host.as_str().ok_or("host must be a string")?;
    }
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing rows array")?;
    for (idx, row) in rows.iter().enumerate() {
        let Json::Obj(fields) = row else {
            return Err(format!("rows[{idx}] is not an object"));
        };
        for (key, value) in fields {
            match value {
                Json::Int(_) | Json::Float(_) | Json::Str(_) | Json::Bool(_) | Json::Null => {}
                _ => return Err(format!("rows[{idx}].{key} must be a scalar, got {value}")),
            }
        }
    }
    if let Some(counters) = doc.get("counters") {
        let Json::Obj(fields) = counters else {
            return Err("counters must be an object".into());
        };
        for (key, value) in fields {
            if value.as_f64().is_none() {
                return Err(format!("counters.{key} must be numeric, got {value}"));
            }
        }
    }
    if let Some(gauges) = doc.get("gauges") {
        let Json::Obj(fields) = gauges else {
            return Err("gauges must be an object".into());
        };
        for (key, value) in fields {
            // Numbers or the from_f64 sentinels ("NaN"/"Infinity"/...).
            if value.as_gauge().is_none() {
                return Err(format!("gauges.{key} must be a gauge value, got {value}"));
            }
        }
    }
    if let Some(hists) = doc.get("histograms") {
        let Json::Obj(fields) = hists else {
            return Err("histograms must be an object".into());
        };
        for (key, value) in fields {
            validate_histogram(value).map_err(|e| format!("histograms.{key}: {e}"))?;
        }
    }
    Ok(())
}

/// Envelope check for one serialized histogram (schema v3): the five
/// summary scalars are required; the sparse bucket list, if present, is
/// an array of `[lower_bound, count]` pairs.
fn validate_histogram(h: &Json) -> Result<(), String> {
    if !h.is_obj() {
        return Err("not an object".into());
    }
    for field in ["count", "max", "p50", "p90", "p99"] {
        if h.get(field).and_then(Json::as_f64).is_none() {
            return Err(format!("missing numeric {field}"));
        }
    }
    if let Some(buckets) = h.get("buckets") {
        let arr = buckets.as_arr().ok_or("buckets must be an array")?;
        for (idx, pair) in arr.iter().enumerate() {
            let ok = pair
                .as_arr()
                .is_some_and(|p| p.len() == 2 && p.iter().all(|v| v.as_f64().is_some()));
            if !ok {
                return Err(format!("buckets[{idx}] must be a [lo, count] pair"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchDoc {
        let mut d = BenchDoc::new("fig8", "Figure 8: in-core FW", true).host("test host");
        d.row(vec![
            ("n", Json::Int(128)),
            ("gep_s", Json::Float(0.5)),
            ("igep_s", Json::Float(0.25)),
        ]);
        d.row(vec![("n", Json::Int(256)), ("gep_s", Json::Float(4.0))]);
        d.counter("io.seeks", 17);
        d.gauge("fit.c", 1.8125);
        d
    }

    #[test]
    fn builder_emits_valid_schema() {
        let d = sample();
        assert_eq!(d.len(), 2);
        assert_eq!(d.filename(), "BENCH_fig8.json");
        let doc = d.to_json();
        validate(&doc).expect("builder output must validate");
        let reparsed = Json::parse(&render(&doc)).expect("rendered output must parse");
        assert_eq!(reparsed, doc);
        validate(&reparsed).unwrap();
    }

    #[test]
    fn write_to_roundtrips_on_disk() {
        let dir = std::env::temp_dir().join("gep_obs_bench_test");
        let path = sample().write_to(&dir).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = Json::parse(&text).expect("parse");
        validate(&doc).expect("validate");
        assert_eq!(
            doc.get("rows").unwrap().as_arr().unwrap()[0]
                .get("n")
                .unwrap()
                .as_i64(),
            Some(128)
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn validator_rejects_bad_documents() {
        let ok = sample().to_json();
        validate(&ok).unwrap();
        let cases: Vec<(&str, Json)> = vec![
            ("not object", Json::Int(3)),
            (
                "future version",
                Json::obj(vec![("schema_version", Json::Int(99))]),
            ),
            (
                "gauges not an object",
                Json::obj(vec![
                    ("schema_version", Json::Int(2)),
                    ("experiment", Json::Str("x".into())),
                    ("title", Json::Str("t".into())),
                    ("quick", Json::Bool(false)),
                    ("rows", Json::Arr(vec![])),
                    ("gauges", Json::Arr(vec![])),
                ]),
            ),
            (
                "gauge value not a gauge",
                Json::obj(vec![
                    ("schema_version", Json::Int(2)),
                    ("experiment", Json::Str("x".into())),
                    ("title", Json::Str("t".into())),
                    ("quick", Json::Bool(false)),
                    ("rows", Json::Arr(vec![])),
                    ("gauges", Json::obj(vec![("g", Json::Str("fast".into()))])),
                ]),
            ),
            (
                "rows not objects",
                Json::obj(vec![
                    ("schema_version", Json::Int(2)),
                    ("experiment", Json::Str("x".into())),
                    ("title", Json::Str("t".into())),
                    ("quick", Json::Bool(false)),
                    ("rows", Json::Arr(vec![Json::Int(1)])),
                ]),
            ),
            (
                "nested row value",
                Json::obj(vec![
                    ("schema_version", Json::Int(2)),
                    ("experiment", Json::Str("x".into())),
                    ("title", Json::Str("t".into())),
                    ("quick", Json::Bool(false)),
                    (
                        "rows",
                        Json::Arr(vec![Json::obj(vec![("v", Json::Arr(vec![]))])]),
                    ),
                ]),
            ),
        ];
        for (label, doc) in cases {
            assert!(validate(&doc).is_err(), "{label} should be rejected");
        }
    }

    #[test]
    fn v3_histograms_roundtrip_and_bad_ones_are_rejected() {
        let mut h = crate::hist::Histogram::new();
        for v in [100u64, 200, 300, 50_000] {
            h.record(v);
        }
        let mut d = BenchDoc::new("profile", "per-shape latency attribution", true);
        d.row(vec![("n", Json::Int(64))]);
        d.histogram("kernel.leaf_ns", &h);
        let doc = d.to_json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_i64),
            Some(SCHEMA_VERSION)
        );
        validate(&doc).expect("histogram document validates");
        let back = Json::parse(&render(&doc)).expect("reparses");
        validate(&back).unwrap();
        let hist = back
            .get("histograms")
            .unwrap()
            .get("kernel.leaf_ns")
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_i64), Some(4));
        assert_eq!(hist.get("max").and_then(Json::as_i64), Some(50_000));
        // Envelope violations are rejected with the field named.
        let base = vec![
            ("schema_version", Json::Int(3)),
            ("experiment", Json::Str("x".into())),
            ("title", Json::Str("t".into())),
            ("quick", Json::Bool(false)),
            ("rows", Json::Arr(vec![])),
        ];
        let with_hists = |h: Json| {
            let mut fields = base.clone();
            fields.push(("histograms", h));
            Json::obj(fields)
        };
        for (label, bad) in [
            ("histograms not an object", with_hists(Json::Arr(vec![]))),
            (
                "histogram missing p99",
                with_hists(Json::obj(vec![(
                    "h",
                    Json::obj(vec![
                        ("count", Json::Int(1)),
                        ("max", Json::Int(1)),
                        ("p50", Json::Int(1)),
                        ("p90", Json::Int(1)),
                    ]),
                )])),
            ),
            (
                "bucket not a pair",
                with_hists(Json::obj(vec![(
                    "h",
                    Json::obj(vec![
                        ("count", Json::Int(1)),
                        ("max", Json::Int(1)),
                        ("p50", Json::Int(1)),
                        ("p90", Json::Int(1)),
                        ("p99", Json::Int(1)),
                        ("buckets", Json::Arr(vec![Json::Int(7)])),
                    ]),
                )])),
            ),
        ] {
            assert!(validate(&bad).is_err(), "{label} should be rejected");
        }
    }

    #[test]
    fn v2_documents_still_validate() {
        // Files emitted at schema_version 2 (gauges, no histograms) must
        // keep passing `repro validate` so committed baselines and the
        // trajectory history stay comparable after the v3 bump.
        let v2 = Json::obj(vec![
            ("schema_version", Json::Int(2)),
            ("experiment", Json::Str("misses".into())),
            ("title", Json::Str("t".into())),
            ("quick", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![("n", Json::Int(64))])]),
            ),
            ("gauges", Json::obj(vec![("fit.c", Json::Float(1.5))])),
        ]);
        validate(&v2).expect("v2 envelope must stay valid");
    }

    #[test]
    fn v1_documents_are_rejected() {
        // Version 1 (before the gauges field) was only ever written by
        // this repository, and no committed file uses it any more.
        let v1 = Json::obj(vec![
            ("schema_version", Json::Int(1)),
            ("experiment", Json::Str("fig8".into())),
            ("title", Json::Str("t".into())),
            ("quick", Json::Bool(true)),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![("n", Json::Int(64))])]),
            ),
        ]);
        let err = validate(&v1).expect_err("v1 envelope must be rejected");
        assert!(err.contains("schema_version 1"), "{err}");
    }

    #[test]
    fn nonfinite_gauges_roundtrip_in_documents() {
        let mut d = BenchDoc::new("misses", "measured vs bound", true);
        d.row(vec![("n", Json::Int(256))]);
        d.gauge("ratio.nan", f64::NAN);
        d.gauge("bound.inf", f64::INFINITY);
        let doc = d.to_json();
        validate(&doc).expect("sentinel gauges must validate");
        let text = render(&doc);
        let back = Json::parse(&text).expect("must re-parse");
        validate(&back).unwrap();
        let gauges = back.get("gauges").unwrap();
        assert!(gauges
            .get("ratio.nan")
            .unwrap()
            .as_gauge()
            .unwrap()
            .is_nan());
        assert_eq!(
            gauges.get("bound.inf").unwrap().as_gauge(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    #[should_panic(expected = "bad experiment name")]
    fn bad_experiment_names_panic() {
        let _ = BenchDoc::new("has space", "t", false);
    }
}
