//! Run totals, rates and shared counters for the throughput engine.
//!
//! The paper quotes one headline number — 4.0 Mchar/s — and the
//! reproduction's scheduler reports its own equivalents. Each worker
//! counts its work in plain integers and hands them back at the join;
//! the coordinator sums them into a [`CounterSnapshot`], which derives
//! the rates (chars/sec, lane occupancy, cache hit rate) at reporting
//! time. [`Counter`] is a relaxed atomic for counts that outlive one
//! run and are read from several threads. A current rate over a long
//! run is the exporter's job: scrape a monotonic count (the telemetry
//! registry's `pm_chars_total`) twice and divide by the interval.
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

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
