//! Small shared helpers: order statistics, timing, memory, seeding.

use std::time::{Duration, Instant};

pub use gep_serve::graph::XorShift;

/// Median of `xs` (mean of the middle pair for an even count); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank quantile of raw samples, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Wall time of `f`, in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median wall time per call of `f`, timing `batch` calls at a time so
/// the clock reads stay negligible next to sub-microsecond work.
pub fn per_call_ns(rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let t0 = Instant::now();
        for i in 0..batch {
            f(r * batch + i);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// A measurement window: rounds run until `seconds` have passed, and
/// at least one runs.
pub struct Window {
    start: Instant,
    budget: Duration,
    rounds: usize,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            rounds: 0,
        }
    }

    /// Whether another round should start.
    pub fn more(&mut self) -> bool {
        let go = self.rounds == 0 || self.start.elapsed() < self.budget;
        self.rounds += 1;
        go
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// An independent stream seed derived from the run seed and a tag, so
/// every generator of a run is reproducible on its own.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Uniform `f64` in `[-0.5, 0.5)`.
pub fn centered(rng: &mut XorShift) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }

    #[test]
    fn window_runs_at_least_one_round() {
        let mut w = Window::new(0.0);
        assert!(w.more());
        assert!(!w.more());
    }
}
