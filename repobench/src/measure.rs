//! Timing, statistics and event-digest helpers shared by the workloads.

use std::time::{Duration, Instant};

/// User + system CPU seconds of every thread of this process so far,
/// including threads that have exited (`/proc/self/stat`, in clock
/// ticks of 1/100 s). Time the VM's vCPUs were stolen by the host is
/// not charged to the process, so CPU-time rates hold still while the
/// host is busy; wall-clock rates do not.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// Wall and CPU time of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    started: Instant,
    cpu0: f64,
}

/// What a finished [`Region`] took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    pub wall: Duration,
    pub cpu_secs: f64,
}

impl Region {
    pub fn start() -> Self {
        Region {
            started: Instant::now(),
            cpu0: cpu_secs(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn finish(self) -> Spent {
        Spent {
            wall: self.started.elapsed(),
            cpu_secs: cpu_secs() - self.cpu0,
        }
    }
}

impl Spent {
    /// `chars` per CPU second, in millions.
    pub fn mchar_per_cpu_s(&self, chars: u64) -> f64 {
        ratio(chars as f64, self.cpu_secs) / 1e6
    }

    /// `chars` per wall second, in millions.
    pub fn mchar_per_s(&self, chars: u64) -> f64 {
        ratio(chars as f64, self.wall.as_secs_f64()) / 1e6
    }
}

/// An order-sensitive digest of a `(pattern, end)` event stream, so a
/// run keeps 16 bytes per checked unit instead of its events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u64,
    count: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            count: 0,
        }
    }
}

impl Digest {
    pub fn add(&mut self, pattern: u64, end: u64) {
        for word in [pattern, end] {
            self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            self.hash ^= self.hash >> 29;
        }
        self.count += 1;
    }

    pub fn of(events: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut d = Digest::default();
        for (pattern, end) in events {
            d.add(pattern, end);
        }
        d
    }
}

/// Nearest-rank percentile `q` (0..=1) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when the denominator is 0 (a layer or counter the
/// workload never reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// [`timed`] when `on`, else just `f()` with a zero duration: the
/// untraced pass of a workload carries no per-call timers.
pub fn timed_if<T>(on: bool, f: impl FnOnce() -> T) -> (T, Duration) {
    if on {
        timed(f)
    } else {
        (f(), Duration::ZERO)
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What one workload run did: operations attempted and failed, and the
/// metrics it measured (end-to-end ones untraced, per-layer ones
/// traced).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Sessions, pages or windows whose events differ from the oracle
    /// (each is also counted in `failed`).
    pub mismatched: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Books one oracle comparison.
    pub fn check(&mut self, equal: bool) {
        self.attempted += 1;
        if !equal {
            self.failed += 1;
            self.mismatched += 1;
        }
    }
}
