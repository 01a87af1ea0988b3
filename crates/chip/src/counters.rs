//! Run totals, rates and shared counters for the throughput engine.
//!
//! The paper quotes one headline number — 4.0 Mchar/s — and the
//! reproduction's scheduler reports its own equivalents. Each worker
//! counts its work in plain integers and hands them back at the join;
//! the coordinator sums them into a [`CounterSnapshot`], which derives
//! the rates (chars/sec, lane occupancy, cache hit rate) at reporting
//! time. [`Counter`] is a relaxed atomic for counts that outlive one
//! run and are read from several threads; [`RateWindow`] windows one
//! such count into a current rate.
//!
//! ```
//! use pm_chip::counters::CounterSnapshot;
//! use std::time::Duration;
//!
//! let snap = CounterSnapshot {
//!     chars: 500_000,
//!     lane_slots_used: 96,
//!     lane_slots_total: 128,
//!     cache_hits: 3,
//!     cache_misses: 1,
//!     elapsed: Duration::from_millis(125),
//!     ..CounterSnapshot::default()
//! };
//! assert_eq!(snap.chars_per_sec() as u64, 4_000_000); // the paper's rate
//! assert_eq!(snap.lane_occupancy(), 0.75);
//! assert_eq!(snap.cache_hit_rate(), 0.75);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonically increasing event counter shared between threads.
/// Relaxed ordering is sufficient: counters are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One run's totals with the derived rates the EXPERIMENTS table
/// reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterSnapshot {
    /// Text characters processed.
    pub chars: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Word batches executed.
    pub batches: u64,
    /// Lane slots carrying a stream.
    pub lane_slots_used: u64,
    /// Lane slots available.
    pub lane_slots_total: u64,
    /// Pattern-cache hits.
    pub cache_hits: u64,
    /// Pattern-cache misses.
    pub cache_misses: u64,
    /// Batches stolen across worker deques.
    pub steals: u64,
    /// Wall-clock time covered by this snapshot.
    pub elapsed: Duration,
}

impl CounterSnapshot {
    /// Characters per second over the snapshot window (0 for an empty
    /// window).
    pub fn chars_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.chars as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of lane slots that carried a stream (1.0 = every word
    /// batch was full).
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_slots_total > 0 {
            self.lane_slots_used as f64 / self.lane_slots_total as f64
        } else {
            0.0
        }
    }

    /// Fraction of pattern lookups served from the compiled cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} chars in {:.3} s → {:.2} Mchar/s; {} batches at {:.0} % lane occupancy; cache {:.0} % hits",
            self.jobs,
            self.chars,
            self.elapsed.as_secs_f64(),
            self.chars_per_sec() / 1e6,
            self.batches,
            self.lane_occupancy() * 100.0,
            self.cache_hit_rate() * 100.0,
        )
    }
}

/// A sliding-window rate estimator over a monotonic count.
///
/// The lifetime-average rate ([`CounterSnapshot::chars_per_sec`] over
/// elapsed-since-start) is the right number for a finite benchmark run,
/// but a long-running scheduler asking "how fast am I going *now*?"
/// must not dilute the answer with hours of history. `RateWindow` keeps
/// `(instant, count)` samples covering the last `window` of wall clock
/// and reports the rate across the span it retains.
///
/// Feed it the same monotonic counter it is windowing — typically
/// `window.sample(counter.get())` on whatever reporting cadence the
/// caller already has.
///
/// ```
/// use pm_chip::counters::RateWindow;
/// use std::time::{Duration, Instant};
///
/// let w = RateWindow::new(Duration::from_secs(10));
/// let t0 = Instant::now();
/// w.sample_at(0, t0);
/// w.sample_at(4_000_000, t0 + Duration::from_secs(1));
/// assert_eq!(w.rate().round() as u64, 4_000_000); // the paper's rate
/// ```
#[derive(Debug)]
pub struct RateWindow {
    window: Duration,
    samples: Mutex<VecDeque<(Instant, u64)>>,
}

impl RateWindow {
    /// A window covering the last `window` of wall clock.
    pub fn new(window: Duration) -> Self {
        RateWindow {
            window,
            samples: Mutex::new(VecDeque::new()),
        }
    }

    /// Records the counter's current value now.
    pub fn sample(&self, count: u64) {
        self.sample_at(count, Instant::now());
    }

    /// Records a `(count, instant)` observation and evicts samples that
    /// have slid out of the window. Exposed separately so tests can
    /// drive synthetic clocks; `at` values must be non-decreasing.
    pub fn sample_at(&self, count: u64, at: Instant) {
        let mut samples = self.samples.lock().expect("rate window poisoned");
        samples.push_back((at, count));
        // Keep one sample at-or-before the window edge so the span
        // always covers the full window once enough history exists.
        while samples.len() > 2 {
            let second = samples[1].0;
            if at.saturating_duration_since(second) >= self.window {
                samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Events per second across the retained window: the count delta
    /// between the oldest and newest samples over their time span.
    /// Returns 0.0 until two samples with distinct instants exist.
    pub fn rate(&self) -> f64 {
        let samples = self.samples.lock().expect("rate window poisoned");
        let (Some(&(t0, c0)), Some(&(t1, c1))) = (samples.front(), samples.back()) else {
            return 0.0;
        };
        let span = t1.saturating_duration_since(t0).as_secs_f64();
        if span > 0.0 {
            c1.saturating_sub(c0) as f64 / span
        } else {
            0.0
        }
    }

    /// The configured window length.
    pub fn window(&self) -> Duration {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add(2);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn empty_snapshot_has_no_rates() {
        let snap = CounterSnapshot::default();
        assert_eq!(snap.chars_per_sec(), 0.0);
        assert_eq!(snap.lane_occupancy(), 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
    }

    #[test]
    fn windowed_rate_tracks_current_not_lifetime_throughput() {
        // A scheduler that ran fast for an hour then slowed to a crawl:
        // the lifetime average stays high, the window must not.
        let w = RateWindow::new(Duration::from_secs(10));
        let t0 = Instant::now();
        // One hour at 1M events/s…
        w.sample_at(0, t0);
        w.sample_at(3_600_000_000, t0 + Duration::from_secs(3600));
        // …then 10 s at 100 events/s.
        for i in 1..=10u64 {
            w.sample_at(3_600_000_000 + 100 * i, t0 + Duration::from_secs(3600 + i));
        }
        let lifetime = 3_600_001_000.0 / 3610.0; // ≈ 997k/s
        let windowed = w.rate();
        assert!(windowed < 200.0, "windowed {windowed} should be ~100/s");
        assert!(lifetime > 900_000.0);
    }

    #[test]
    fn windowed_rate_edge_cases() {
        let w = RateWindow::new(Duration::from_secs(5));
        assert_eq!(w.rate(), 0.0); // no samples
        let t0 = Instant::now();
        w.sample_at(10, t0);
        assert_eq!(w.rate(), 0.0); // one sample: zero span
        w.sample_at(10, t0); // same instant
        assert_eq!(w.rate(), 0.0);
        w.sample_at(30, t0 + Duration::from_secs(2));
        assert_eq!(w.rate(), 10.0);
        assert_eq!(w.window(), Duration::from_secs(5));
    }

    #[test]
    fn display_mentions_rate_and_occupancy() {
        let snap = CounterSnapshot {
            jobs: 2,
            chars: 1_000_000,
            batches: 1,
            lane_slots_used: 32,
            lane_slots_total: 64,
            elapsed: Duration::from_secs(1),
            ..CounterSnapshot::default()
        };
        let text = snap.to_string();
        assert!(text.contains("1.00 Mchar/s"), "{text}");
        assert!(text.contains("50 % lane occupancy"), "{text}");
    }
}
