//! The flight recorder: a background sampler streaming periodic
//! counter/gauge snapshots to a crash-durable JSONL file.
//!
//! Everything the [`crate::recorder`] collects is post-hoc — visible only
//! after [`crate::take`]. For multi-hour out-of-core solves that is too
//! late: the run may be killed, and an operator wants progress *while it
//! runs*. The sampler closes that gap:
//!
//! * a background thread wakes every `period` and, **iff a recorder is
//!   installed**, snapshots its counters and gauges (one clone under the
//!   existing sink mutex — the hot engine hooks are never touched, so the
//!   zero-cost-when-disabled contract is preserved: with no sampler
//!   started there is no thread, no file, no cost at all);
//! * each snapshot lands in a bounded in-memory ring (oldest evicted) and
//!   is appended to a versioned JSONL file, one complete line per sample,
//!   written and flushed immediately — after a `SIGKILL` every fully
//!   written line survives, and [`read_flight_file`] simply discards a
//!   torn final line (the same tail discipline as the extmem WAL);
//! * `repro watch <file>` tails such a file from another process and
//!   renders live progress/ETA from the `progress.*` gauges that
//!   `gep_extmem::run_checkpointed` publishes per leaf step.
//!
//! ## File format (version 2)
//!
//! ```text
//! {"kind":"gep-flight-recorder","schema_version":2,"period_ms":250}
//! {"seq":1,"elapsed_s":0.25,"counters":{...},"gauges":{...}}
//! {"seq":2,"elapsed_s":0.31,"event":"slow_request","op":"dist",...}
//! {"seq":3,"elapsed_s":0.50,"counters":{...},"gauges":{...}}
//! ```
//!
//! The first line is the header; every later line is either one periodic
//! sample or one structured **event** (distinguished by its `"event"`
//! field), interleaved in emission order under one strictly increasing
//! `seq`. Events are how a process flags notable moments — `gep-serve`'s
//! slow-request log emits one per over-threshold request via
//! [`flight_event`] — without waiting for the next sampling tick.
//! Counters are integers, gauges go through [`Json::from_f64`] so
//! non-finite values survive as sentinel strings. The reader accepts
//! version 2 only.

use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Flight-recorder file format version, written into the header line.
pub const FLIGHT_SCHEMA_VERSION: i64 = 2;

/// The `kind` tag of the header line.
pub const FLIGHT_KIND: &str = "gep-flight-recorder";

/// Configuration of one sampler.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// JSONL output path (created/truncated at start).
    pub path: PathBuf,
    /// Sampling period.
    pub period: Duration,
    /// In-memory ring capacity (oldest samples evicted beyond this).
    pub ring_capacity: usize,
}

impl SamplerConfig {
    /// A sampler writing to `path` with a 250 ms period and a 256-sample
    /// ring.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SamplerConfig {
            path: path.into(),
            period: Duration::from_millis(250),
            ring_capacity: 256,
        }
    }
}

/// One snapshot of the installed recorder's counters and gauges.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// 1-based sequence number (monotone per sampler).
    pub seq: u64,
    /// Seconds since the sampler started.
    pub elapsed_s: f64,
    /// Counter values at snapshot time.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at snapshot time.
    pub gauges: BTreeMap<String, f64>,
}

impl Sample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::Int(self.seq as i64)),
            ("elapsed_s", Json::Float(self.elapsed_s)),
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from_f64(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

struct Shared {
    ring: Mutex<VecDeque<Sample>>,
    capacity: usize,
    file: Mutex<std::fs::File>,
    epoch: Instant,
    seq: Mutex<u64>,
    stop: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sampler (if any) that [`flight_event`] appends events through.
/// Registered by [`Sampler::start`], cleared when that sampler stops.
static EVENT_SINK: Mutex<Option<Arc<Shared>>> = Mutex::new(None);

impl Shared {
    /// Takes one sample if a recorder is installed; returns whether a
    /// line was written.
    fn sample_once(&self) -> bool {
        // Clone under the sink lock, serialize outside it: the engines'
        // hooks contend with a map clone, never with file I/O.
        let snap = {
            let guard = crate::recorder::snapshot_for_sampler();
            match guard {
                Some((counters, gauges)) => (counters, gauges),
                None => return false,
            }
        };
        // The file lock is taken *before* the seq is allocated (here and
        // in write_event) so file order always matches seq order — the
        // reader rejects out-of-order seqs as interior corruption.
        let mut f = lock(&self.file);
        let seq = {
            let mut s = lock(&self.seq);
            *s += 1;
            *s
        };
        let sample = Sample {
            seq,
            elapsed_s: self.epoch.elapsed().as_secs_f64(),
            counters: snap.0,
            gauges: snap.1,
        };
        let mut line = String::new();
        sample.to_json().write_into(&mut line);
        line.push('\n');
        {
            let mut ring = lock(&self.ring);
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(sample);
        }
        // One complete line per write, flushed immediately: the tail of
        // the file survives a process kill up to the last full sample.
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
        true
    }

    /// Appends one structured event line (same seq space as samples).
    fn write_event(&self, event: &str, fields: Vec<(String, Json)>) {
        let mut f = lock(&self.file);
        let seq = {
            let mut s = lock(&self.seq);
            *s += 1;
            *s
        };
        let mut obj = vec![
            ("seq".to_string(), Json::Int(seq as i64)),
            (
                "elapsed_s".to_string(),
                Json::Float(self.epoch.elapsed().as_secs_f64()),
            ),
            ("event".to_string(), Json::Str(event.into())),
        ];
        obj.extend(fields);
        let mut line = String::new();
        Json::Obj(obj).write_into(&mut line);
        line.push('\n');
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }
}

/// Emits one structured event into the running sampler's flight file —
/// immediately, outside the periodic cadence. Events carry an `"event"`
/// tag plus caller-supplied fields and share the samples' strictly
/// increasing `seq`. Returns `false` (event dropped) when no sampler is
/// running; callers treat the flight file as best-effort, exactly like
/// gauges with no recorder installed.
pub fn flight_event(event: &str, fields: Vec<(String, Json)>) -> bool {
    let shared = lock(&EVENT_SINK).as_ref().map(Arc::clone);
    match shared {
        Some(shared) => {
            shared.write_event(event, fields);
            true
        }
        None => false,
    }
}

/// Handle to a running sampler. Stops (with a final flush sample) on
/// [`Sampler::stop`] or on drop.
pub struct Sampler {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts a background sampler: writes the header line, then appends
    /// one sample per period whenever a recorder is installed.
    pub fn start(config: SamplerConfig) -> std::io::Result<Sampler> {
        if let Some(parent) = config.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(&config.path)?;
        let header = Json::obj(vec![
            ("kind", Json::Str(FLIGHT_KIND.into())),
            ("schema_version", Json::Int(FLIGHT_SCHEMA_VERSION)),
            ("period_ms", Json::Int(config.period.as_millis() as i64)),
        ]);
        let mut line = String::new();
        header.write_into(&mut line);
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()?;
        let shared = Arc::new(Shared {
            ring: Mutex::new(VecDeque::with_capacity(config.ring_capacity.max(1))),
            capacity: config.ring_capacity.max(1),
            file: Mutex::new(file),
            epoch: Instant::now(),
            seq: Mutex::new(0),
            stop: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let period = config.period;
        let thread = std::thread::Builder::new()
            .name("gep-obs-sampler".into())
            .spawn(move || {
                // Sleep in short slices so stop() returns promptly even
                // with a long period.
                let slice = period
                    .min(Duration::from_millis(20))
                    .max(Duration::from_millis(1));
                let mut next = Instant::now() + period;
                while !worker.stop.load(Ordering::Relaxed) {
                    if Instant::now() >= next {
                        worker.sample_once();
                        next = Instant::now() + period;
                    }
                    std::thread::sleep(slice);
                }
            })?;
        // Newest sampler wins the event sink: a process runs at most one
        // sampler in practice, and events follow the live file.
        *lock(&EVENT_SINK) = Some(Arc::clone(&shared));
        Ok(Sampler {
            shared,
            thread: Some(thread),
        })
    }

    /// Takes one sample right now (in addition to the periodic ones).
    /// Returns whether a recorder was installed and a line was written.
    pub fn sample_now(&self) -> bool {
        self.shared.sample_once()
    }

    /// Samples recorded so far (bounded by the ring capacity).
    pub fn ring(&self) -> Vec<Sample> {
        lock(&self.shared.ring).iter().cloned().collect()
    }

    /// Stops the background thread, then writes one final sample so the
    /// file ends with the recorder's last published state.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::Relaxed);
        let _ = thread.join();
        self.shared.sample_once();
        // Unregister from the event sink (unless a newer sampler already
        // took it over) so late events don't land in a stopped file.
        let mut sink = lock(&EVENT_SINK);
        if sink.as_ref().is_some_and(|s| Arc::ptr_eq(s, &self.shared)) {
            *sink = None;
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A parsed flight-recorder file.
#[derive(Clone, Debug)]
pub struct FlightLog {
    /// The parsed header line.
    pub header: Json,
    /// Every complete sample line, in file order.
    pub samples: Vec<Json>,
    /// Every complete event line (lines carrying an `"event"` tag, e.g.
    /// `gep-serve`'s slow-request log), in file order.
    pub events: Vec<Json>,
    /// True iff the final line was torn (killed mid-write) and discarded.
    pub torn_tail: bool,
}

impl FlightLog {
    /// The gauge `name` of sample `idx`, if present and numeric.
    pub fn gauge(&self, idx: usize, name: &str) -> Option<f64> {
        self.samples.get(idx)?.get("gauges")?.get(name)?.as_gauge()
    }
}

/// Reads and validates a flight-recorder file: the header must carry the
/// expected kind and a supported version; sample/event `seq`s must
/// strictly increase across the whole file. A torn final line — the
/// expected state after a kill — is discarded, not an error; torn or
/// malformed *interior* lines are.
pub fn read_flight_file(path: &Path) -> Result<FlightLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.split_inclusive('\n');
    let header_line = lines.next().ok_or("empty flight-recorder file")?;
    if !header_line.ends_with('\n') {
        return Err("torn header line".into());
    }
    let header = Json::parse(header_line).map_err(|e| format!("header: {e}"))?;
    if header.get("kind").and_then(Json::as_str) != Some(FLIGHT_KIND) {
        return Err(format!("not a {FLIGHT_KIND} file"));
    }
    match header.get("schema_version").and_then(Json::as_i64) {
        Some(FLIGHT_SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("unsupported flight schema_version {v}")),
        None => return Err("missing integer schema_version".into()),
    }
    let mut samples = Vec::new();
    let mut events = Vec::new();
    let mut torn_tail = false;
    let mut prev_seq = 0i64;
    let mut rest = lines.peekable();
    while let Some(line) = rest.next() {
        let complete = line.ends_with('\n');
        let parsed = Json::parse(line);
        match parsed {
            Ok(entry) if complete => {
                let idx = samples.len() + events.len();
                let seq = entry
                    .get("seq")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| format!("line {idx} missing seq"))?;
                if seq <= prev_seq {
                    return Err(format!("seq {seq} not greater than {prev_seq}"));
                }
                prev_seq = seq;
                if entry.get("event").and_then(Json::as_str).is_some() {
                    events.push(entry);
                } else {
                    samples.push(entry);
                }
            }
            _ if rest.peek().is_none() => {
                // Incomplete or unparsable *final* line: the torn tail of
                // a killed process. Everything before it stands.
                torn_tail = true;
            }
            Ok(_) => return Err("unterminated interior line".into()),
            Err(e) => return Err(format!("line {}: {e}", samples.len() + events.len())),
        }
    }
    Ok(FlightLog {
        header,
        samples,
        events,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{counter_add, gauge_set, install, take, test_lock, Recorder};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gep-flight-{}-{name}", std::process::id()))
    }

    #[test]
    fn sampler_without_recorder_writes_header_only() {
        let _g = test_lock();
        let _ = take();
        let path = tmp("idle.jsonl");
        let s = Sampler::start(SamplerConfig {
            path: path.clone(),
            period: Duration::from_millis(5),
            ring_capacity: 4,
        })
        .expect("start");
        assert!(!s.sample_now(), "no recorder installed -> no sample");
        s.stop();
        let log = read_flight_file(&path).expect("parse");
        assert!(log.samples.is_empty());
        assert!(!log.torn_tail);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn samples_capture_counters_and_gauges_and_ring_is_bounded() {
        let _g = test_lock();
        let path = tmp("capture.jsonl");
        install(Recorder::counters_only());
        let s = Sampler::start(SamplerConfig {
            path: path.clone(),
            period: Duration::from_secs(3600), // explicit samples only
            ring_capacity: 3,
        })
        .expect("start");
        for i in 1..=5u64 {
            counter_add("steps", 1);
            gauge_set("progress.cursor", i as f64);
            assert!(s.sample_now());
        }
        assert_eq!(s.ring().len(), 3, "ring evicts oldest beyond capacity");
        assert_eq!(s.ring()[0].seq, 3);
        s.stop();
        let _ = take();
        let log = read_flight_file(&path).expect("parse");
        // 5 explicit + 1 final flush sample from stop().
        assert_eq!(log.samples.len(), 6);
        let last = log.samples.len() - 1;
        assert_eq!(log.gauge(last, "progress.cursor"), Some(5.0));
        assert_eq!(
            log.samples[4]
                .get("counters")
                .and_then(|c| c.get("steps"))
                .and_then(Json::as_i64),
            Some(5)
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn torn_tail_is_discarded_but_interior_corruption_is_an_error() {
        let _g = test_lock();
        let path = tmp("torn.jsonl");
        install(Recorder::counters_only());
        let s = Sampler::start(SamplerConfig {
            path: path.clone(),
            period: Duration::from_secs(3600),
            ring_capacity: 8,
        })
        .expect("start");
        gauge_set("g", 1.0);
        assert!(s.sample_now());
        assert!(s.sample_now());
        drop(s); // final flush sample
        let _ = take();
        // Simulate a kill mid-append: a truncated last line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":99,\"elapsed");
        std::fs::write(&path, &text).unwrap();
        let log = read_flight_file(&path).expect("torn tail tolerated");
        assert!(log.torn_tail);
        assert_eq!(log.samples.len(), 3);
        // The same corruption in the middle is not tolerated.
        let broken = text.replace("{\"seq\":2", "{\"zzz\":2");
        std::fs::write(&path, &broken).unwrap();
        assert!(read_flight_file(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn background_thread_samples_periodically() {
        let _g = test_lock();
        let path = tmp("periodic.jsonl");
        install(Recorder::counters_only());
        gauge_set("g", 2.5);
        let s = Sampler::start(SamplerConfig {
            path: path.clone(),
            period: Duration::from_millis(5),
            ring_capacity: 64,
        })
        .expect("start");
        let deadline = Instant::now() + Duration::from_secs(5);
        while s.ring().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        s.stop();
        let _ = take();
        let log = read_flight_file(&path).expect("parse");
        assert!(log.samples.len() >= 2, "periodic samples were written");
        assert_eq!(log.gauge(0, "g"), Some(2.5));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn flight_events_interleave_with_samples_in_seq_order() {
        let _g = test_lock();
        let path = tmp("events.jsonl");
        install(Recorder::counters_only());
        let s = Sampler::start(SamplerConfig {
            path: path.clone(),
            period: Duration::from_secs(3600),
            ring_capacity: 8,
        })
        .expect("start");
        assert!(s.sample_now());
        assert!(flight_event(
            "slow_request",
            vec![
                ("op".into(), Json::Str("dist".into())),
                ("total_ns".into(), Json::Int(12345)),
            ],
        ));
        assert!(s.sample_now());
        s.stop();
        let _ = take();
        assert!(
            !flight_event("late", vec![]),
            "stopped sampler no longer accepts events"
        );
        let log = read_flight_file(&path).expect("parse");
        assert_eq!(log.samples.len(), 3, "2 explicit + 1 flush sample");
        assert_eq!(log.events.len(), 1);
        let ev = &log.events[0];
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("slow_request"));
        assert_eq!(ev.get("op").and_then(Json::as_str), Some("dist"));
        assert_eq!(ev.get("total_ns").and_then(Json::as_i64), Some(12345));
        // The event's seq slots strictly between the surrounding samples.
        let seq = |j: &Json| j.get("seq").and_then(Json::as_i64).unwrap();
        assert_eq!(seq(ev), 2);
        assert_eq!(seq(&log.samples[0]), 1);
        assert_eq!(seq(&log.samples[1]), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reader_rejects_version_1_files() {
        let path = tmp("v1.jsonl");
        std::fs::write(
            &path,
            format!(
                "{{\"kind\":\"{FLIGHT_KIND}\",\"schema_version\":1,\"period_ms\":250}}\n\
                 {{\"seq\":1,\"elapsed_s\":0.1,\"counters\":{{}},\"gauges\":{{\"g\":4.0}}}}\n"
            ),
        )
        .unwrap();
        let err = read_flight_file(&path).expect_err("v1 is rejected");
        assert_eq!(err, "unsupported flight schema_version 1");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn reader_rejects_wrong_kind_and_version() {
        let path = tmp("badheader.jsonl");
        std::fs::write(&path, "{\"kind\":\"other\",\"schema_version\":1}\n").unwrap();
        assert!(read_flight_file(&path).is_err());
        std::fs::write(
            &path,
            format!("{{\"kind\":\"{FLIGHT_KIND}\",\"schema_version\":99}}\n"),
        )
        .unwrap();
        assert!(read_flight_file(&path).is_err());
        let _ = std::fs::remove_file(path);
    }
}
