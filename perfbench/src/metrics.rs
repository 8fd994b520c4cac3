//! Samples, quantiles, named metrics, spans, and the JSON the benchmark
//! prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One reported number and its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

pub fn put(m: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    m.insert(name.into(), Metric { value, unit });
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Set-ups inside the first this-long of a process are not timed: a
/// freshly started process runs its first fraction of a second slower.
const SETUP_WARM: Duration = Duration::from_millis(300);
/// A round of set-ups is due once the run has spent this many times the
/// set-up's median since the last round.
const SETUP_EVERY: f64 = 5.0;

/// Set-up timings, spread over the run. The host's speed drifts by a
/// third or more over seconds, so set-ups timed back to back follow the
/// moment they ran in. Rounds taken between measured sessions, off the
/// measured clock, give a median that follows the whole run, as the
/// other metrics do.
pub struct SetupClock {
    times: Vec<f64>,
    /// Shortest time one round of set-ups takes (at least one set-up).
    round: Duration,
    last: Instant,
}

impl SetupClock {
    /// Warm up, then time the first round. Returns the clock and the
    /// last set-up's result.
    pub fn start<T>(
        round: Duration,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<(SetupClock, T), String> {
        let warm = Instant::now();
        while warm.elapsed() < SETUP_WARM {
            set_up()?;
        }
        let mut clock = SetupClock {
            times: Vec::new(),
            round,
            last: Instant::now(),
        };
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            let out = set_up()?;
            clock.times.push(t0.elapsed().as_secs_f64());
            if started.elapsed() >= round {
                clock.last = Instant::now();
                return Ok((clock, out));
            }
        }
    }

    pub fn due(&self) -> bool {
        self.last.elapsed().as_secs_f64() >= SETUP_EVERY * self.median()
    }

    /// Time one round; returns how long it took, for the caller to keep
    /// off its measured clock.
    pub fn round<T>(
        &mut self,
        mut set_up: impl FnMut() -> Result<T, String>,
    ) -> Result<Duration, String> {
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            set_up()?;
            self.times.push(t0.elapsed().as_secs_f64());
            if started.elapsed() >= self.round {
                self.last = Instant::now();
                return Ok(started.elapsed());
            }
        }
    }

    /// Median set-up time in seconds.
    pub fn median(&self) -> f64 {
        quantile(&self.times, 0.5)
    }
}

/// Latencies in milliseconds, by operation class.
pub type Latencies = BTreeMap<&'static str, Vec<f64>>;

/// Peak resident set of a process in MiB (`VmHWM`), or 0 if unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Run {
    /// Median set-up time over the run's repeated set-ups.
    pub setup_s: f64,
    /// Operations attempted and failed (errors or wrong answers).
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each finished session, in ms.
    pub sessions_ms: Vec<f64>,
    /// Operations (commands, requests, fleet-script commands) completed.
    pub ops: u64,
    /// Length of the measured phase in seconds.
    pub measured_s: f64,
    pub peak_rss_mb: f64,
    /// Per-class operation latencies, in ms.
    pub lat: Latencies,
    /// Workload-specific end-to-end metrics beyond the common ones.
    pub extra: Metrics,
    /// Per-layer metrics (traced runs).
    pub layer: Metrics,
    /// Descriptions of failed operations and broken invariants.
    pub problems: Vec<String>,
    /// Invariants that make the run incorrect even with no failed
    /// operation (a deterministic counter that moved, say).
    pub broken: bool,
}

impl Run {
    /// Book one operation's outcome.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn latency(&mut self, class: &'static str, ms: f64) {
        self.lat.entry(class).or_default().push(ms);
    }

    /// Flag a broken invariant.
    pub fn invariant_broken(&mut self, why: String) {
        self.broken = true;
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// Fold in the operations another client of the same run booked.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.ops += other.ops;
        self.sessions_ms.extend(other.sessions_ms);
        for (class, v) in other.lat {
            self.lat.entry(class).or_default().extend(v);
        }
        self.broken |= other.broken;
        let room = 20usize.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }
}

/// A span recorded by the benchmark around one public call.
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub session: u64,
}

/// In-memory span store, written out when the run ends.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        session: u64,
    ) -> usize {
        let span = Span {
            name: name.into(),
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent,
            session,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Spans::end`].
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, session: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, session)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.micros(Instant::now());
    }

    /// A span's duration minus the part of it its children cover, in ms.
    /// Children are recorded after their parent.
    pub fn self_ms(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let mut kids: Vec<(f64, f64)> = self.spans[id + 1..]
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start_us;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_us - s.start_us - covered) / 1e3
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"session\":{}}}",
                json_str(&s.name),
                s.start_us,
                s.end_us,
                s.session
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`
pub fn metrics_json(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(v.value),
                json_str(v.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-9);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut s = Spans::new();
        let t0 = s.epoch;
        let ms = |n: u64| t0 + std::time::Duration::from_millis(n);
        let root = s.record("cmd", ms(0), ms(10), None, 0);
        s.record("wait", ms(1), ms(4), Some(root), 0);
        s.record("wait", ms(3), ms(6), Some(root), 0);
        s.record("wait", ms(9), ms(12), Some(root), 0);
        // Children cover 1..6 and 9..10: 6 ms of 10.
        assert!((s.self_ms(root) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        let mut m = Metrics::new();
        put(&mut m, "x", 1.5, "ms");
        assert_eq!(
            metrics_json(&m),
            "{\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
    }
}
