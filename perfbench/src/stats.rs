//! Samples, percentiles, process counters and the metric map.

use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Time `f`, in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms_since(t0))
}

/// A list of measurements.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0..=1), linearly interpolated between ranks;
    /// 0 for no samples.
    pub fn q(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.q(0.5)
    }

    /// The 90th percentile, which needs at least 100 samples so that ten
    /// lie beyond it.
    ///
    /// # Panics
    ///
    /// With fewer than 100 samples: the workloads are sized so this
    /// never happens.
    pub fn p90(&self) -> f64 {
        assert!(self.len() >= 100, "p90 over {} samples", self.len());
        self.q(0.9)
    }
}

/// Peak resident set size (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset VmHWM to the current RSS, so the input generator's peak drops
/// out of `peak_rss_mb`.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

/// User plus system CPU time of this process, in ms. `/proc` reports it
/// in USER_HZ ticks, which Linux fixes at 100 per second.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Write back dirty file data and commit pending deletions (`sync`), so
/// the disk work of staging inputs, of a finished phase or of an earlier
/// run does not land inside a timed phase. Best effort: without `sync`
/// the run goes on.
pub fn settle_disk() {
    let _ = std::process::Command::new("sync").status();
}

/// Sleep until `deadline` (no-op if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// How many times a workload sets the program up; `setup_s` is the
/// median.
pub const SETUPS: usize = 21;

/// Median of `runs` timings of `f`, in seconds, keeping the last result.
pub fn median_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one run"), times.p50())
}

/// Metric name → (value, unit), printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn table(&self) -> String {
        self.0
            .iter()
            .map(|(name, (value, unit))| format!("  {name:<40} {value:>14.4} {unit}\n"))
            .collect()
    }
}
