//! Metrics built on the workspace trace-event taxonomy: counters,
//! fixed-bucket histograms and the two exporters CI consumes.
//!
//! `pm_systolic::telemetry` defines *what can be observed* (the
//! [`TraceEvent`] taxonomy and the [`TraceSink`] contract); this module
//! defines *what is kept*: [`MetricsRegistry`] is a sink that folds the
//! event stream into monotonic [`Counter`]s, last-value or high-water
//! gauges and fixed-bucket [`Histogram`]s — the same shared-atomic
//! discipline as [`crate::counters`] — and snapshots into a
//! [`TelemetrySnapshot`] with two exporters:
//!
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus text exposition
//!   (`pm_*_total` counters, gauges, `_bucket{le=…}/_sum/_count`
//!   histograms), for scraping a long-running scheduler;
//! * [`TelemetrySnapshot::to_json`] — the `BENCH_telemetry.json`
//!   snapshot the E30 figure writes and the CI `bench-smoke` gate
//!   reads (hand-rolled: the workspace is offline and carries no serde).
//!
//! Every metric is declared once, as a row of the `metrics!` table
//! below; the registry and snapshot structs, [`MetricsRegistry::new`],
//! [`MetricsRegistry::snapshot`] and both exporters' rows are generated
//! from it. Only the event → metric fold (`impl TraceSink for
//! MetricsRegistry`) is written by hand, one arm per event. Adding a
//! metric is one table row, one line in a fold arm, and one row in
//! ARCHITECTURE.md's metrics reference carrying the same help text
//! (pm-lint's `telemetry-completeness` rule checks the last).
//!
//! ```
//! use pm_chip::telemetry::MetricsRegistry;
//! use pm_systolic::telemetry::{TraceEvent, TraceSink};
//!
//! let metrics = MetricsRegistry::new();
//! metrics.record(TraceEvent::JobCompleted { job: 0, worker: 0, chars: 4096, matches: 3 });
//! let snap = metrics.snapshot();
//! assert_eq!(snap.jobs_completed, 1);
//! assert!(snap.to_prometheus().contains("pm_chars_total 4096"));
//! ```

use crate::counters::Counter;
use pm_systolic::telemetry::{TraceEvent, TraceSink};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default occupancy buckets: lane slots carried per batch (≤ 64 for
/// the `u64` engine, up to 512 for a width-8 superplane batch).
pub const OCCUPANCY_BOUNDS: &[u64] = &[1, 8, 16, 32, 64, 128, 256, 512];

/// Default batch-latency buckets, in microseconds.
pub const LATENCY_BOUNDS_MICROS: &[u64] = &[10, 50, 100, 500, 1_000, 5_000, 10_000];

/// A fixed-bucket histogram of `u64` observations, shared between
/// threads with the same relaxed-atomic discipline as
/// [`Counter`]: statistics, not synchronisation.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; one implicit +Inf bucket
    /// follows the last.
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given ascending inclusive upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time reading of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds (the final +Inf bucket is implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Appends this histogram in Prometheus exposition format
    /// (cumulative `_bucket{le=…}` rows, then `_sum` and `_count`).
    fn to_prometheus(&self, name: &str, help: &str, out: &mut String) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cum = 0u64;
        for (bound, n) in self.bounds.iter().zip(&self.counts) {
            cum += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
        }
        cum += self.counts.last().copied().unwrap_or(0);
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
        let _ = writeln!(out, "{name}_sum {}", self.sum);
        let _ = writeln!(out, "{name}_count {}", self.count);
    }

    /// Appends this histogram as a JSON object.
    fn to_json(&self, out: &mut String) {
        out.push_str("{\"bounds\": [");
        for (i, b) in self.bounds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("], \"counts\": [");
        for (i, n) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{n}");
        }
        let _ = write!(out, "], \"sum\": {}, \"count\": {}}}", self.sum, self.count);
    }
}

/// Declares every exported metric once and generates everything that
/// names it: the [`MetricsRegistry`] fields and constructor, the
/// [`TelemetrySnapshot`] fields and [`MetricsRegistry::snapshot`], and
/// the rows both exporters render, in table order.
///
/// Each row is `field: "pm_name", "help"`; the help text doubles as the
/// field's rustdoc and the Prometheus `# HELP` line. Histogram rows also
/// carry their bucket bounds. A counter row may be followed by
/// `=> field: "pm_name", "help", derive`: a snapshot-only counter
/// computed by the `fn(u64) -> u64` `derive` from the registry
/// counter's value.
macro_rules! metrics {
    (
        counters {
            $($c:ident: $c_name:literal, $c_help:literal
                $(=> $d:ident: $d_name:literal, $d_help:literal, $derive:expr)?;)*
        }
        gauges { $($g:ident: $g_name:literal, $g_help:literal;)* }
        histograms { $($h:ident: $h_name:literal, $h_help:literal, $bounds:expr;)* }
    ) => {
        /// A [`TraceSink`] that folds the event stream into counters,
        /// gauges and histograms. Share one behind an `Arc` (wrapped in
        /// a [`SinkHandle`](pm_systolic::telemetry::SinkHandle)) across
        /// workers; recording is a handful of relaxed atomic adds per
        /// event.
        #[derive(Debug)]
        pub struct MetricsRegistry {
            $(#[doc = $c_help] pub $c: Counter,)*
            $(#[doc = $g_help] pub $g: AtomicU64,)*
            $(#[doc = $h_help] pub $h: Histogram,)*
        }

        impl MetricsRegistry {
            /// A fresh registry with the default bucket bounds.
            pub fn new() -> Self {
                MetricsRegistry {
                    $($c: Counter::new(),)*
                    $($g: AtomicU64::new(0),)*
                    $($h: Histogram::new($bounds),)*
                }
            }

            /// Folds the current counts into an exportable snapshot.
            pub fn snapshot(&self) -> TelemetrySnapshot {
                TelemetrySnapshot {
                    $(
                        $c: self.$c.get(),
                        $($d: {
                            let derive: fn(u64) -> u64 = $derive;
                            derive(self.$c.get())
                        },)?
                    )*
                    $($g: self.$g.load(Ordering::Relaxed),)*
                    $($h: self.$h.snapshot(),)*
                }
            }
        }

        /// A point-in-time reading of a [`MetricsRegistry`], ready to
        /// export.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct TelemetrySnapshot {
            $(
                #[doc = $c_help] pub $c: u64,
                $(#[doc = $d_help] pub $d: u64,)?
            )*
            $(#[doc = $g_help] pub $g: u64,)*
            $(#[doc = $h_help] pub $h: HistogramSnapshot,)*
        }

        impl TelemetrySnapshot {
            /// Every counter and gauge as `(name, help, type, value)`.
            fn scalar_rows(&self) -> Vec<(&'static str, &'static str, &'static str, u64)> {
                vec![
                    $(
                        ($c_name, $c_help, "counter", self.$c),
                        $(($d_name, $d_help, "counter", self.$d),)?
                    )*
                    $(($g_name, $g_help, "gauge", self.$g),)*
                ]
            }

            /// Every histogram as `(name, help, reading)`.
            fn histogram_rows(&self) -> Vec<(&'static str, &'static str, &HistogramSnapshot)> {
                vec![$(($h_name, $h_help, &self.$h),)*]
            }
        }
    };
}

metrics! {
    counters {
        clock_phases: "pm_clock_phases_total", "Clock phases observed (2 per array beat)."
            => beats: "pm_beats_total", "Array beats executed.", |phases| phases / 2;
        texts_injected: "pm_texts_injected_total", "Text items injected into beat-accurate arrays.";
        comparator_fires: "pm_comparator_fires_total", "Complete-window results exited from arrays.";
        match_lanes: "pm_match_lanes_total", "Matching lanes summed over comparator fires.";
        host_stalls: "pm_host_stalls_total", "Host watchdog stall declarations.";
        host_retries: "pm_host_retries_total", "Host retries after backoff.";
        backoff_beats: "pm_backoff_beats_total", "Idle backoff beats summed over retries.";
        scrubs_passed: "pm_scrubs_passed_total", "BIST scrubs that passed.";
        scrubs_failed: "pm_scrubs_failed_total", "BIST scrubs that failed.";
        scrub_beats: "pm_scrub_beats_total", "Array beats spent inside BIST programs.";
        condemned: "pm_condemned_total", "Sockets condemned.";
        remaps: "pm_remaps_total", "Chain remaps performed.";
        replayed_chars: "pm_replayed_chars_total", "Characters replayed through healed chains.";
        commits: "pm_commits_total", "Result-watermark commits.";
        fallbacks: "pm_fallbacks_total", "Software-fallback engagements.";
        jobs_started: "pm_jobs_started_total", "Jobs handed to workers.";
        jobs_completed: "pm_jobs_completed_total", "Jobs whose results were recorded.";
        chars: "pm_chars_total", "Text characters processed.";
        matches: "pm_matches_total", "Matches found.";
        batches: "pm_batches_total", "Word batches executed.";
        batch_steps: "pm_batch_steps_total", "Engine steps summed over batches.";
        lane_slots_used: "pm_lane_slots_used_total", "Lane slots that carried a stream.";
        lane_slots_total: "pm_lane_slots_total",
            "Lane slots offered (64 per u64 batch, W*64 per superplane batch).";
        cache_hits: "pm_cache_hits_total", "Compiled-pattern cache hits.";
        cache_misses: "pm_cache_misses_total", "Compiled-pattern cache misses.";
        dispatch_portable: "pm_dispatch_portable_total",
            "Runs dispatched to the portable superplane kernel.";
        dispatch_avx2: "pm_dispatch_avx2_total", "Runs dispatched to the AVX2 superplane kernel.";
        dispatch_avx512: "pm_dispatch_avx512_total",
            "Runs dispatched to the AVX-512 superplane kernel.";
        faults_injected: "pm_faults_injected_total",
            "Chaos-harness faults injected into scheduler workers.";
        scrub_mismatches: "pm_scrub_mismatches_total",
            "Sampled-lane scrubs that disagreed with the scalar spec.";
        quarantined_workers: "pm_quarantined_workers_total", "Scheduler workers quarantined.";
        ladder_demotions: "pm_ladder_demotions_total", "Degradation-ladder demotions.";
        ladder_promotions: "pm_ladder_promotions_total", "Degradation-ladder re-promotions.";
        batches_retried: "pm_batches_retried_total",
            "Voided batches re-executed on a recovery rung.";
        dict_patterns: "pm_dict_patterns_total", "Patterns submitted to the dictionary compiler.";
        dict_resident_lanes: "pm_dict_resident_lanes_total",
            "Patterns resident after dictionary dedup (÷ submitted = dedup ratio).";
        dict_groups: "pm_dict_groups_total",
            "Superplane groups planned by the dictionary compiler.";
        dict_lane_slots: "pm_dict_lane_slots_total",
            "Lane slots across planned dictionary groups (resident ÷ slots = occupancy).";
        sessions_opened: "pm_sessions_opened_total", "Front-door sessions admitted by pm-serve.";
        sessions_closed: "pm_sessions_closed_total", "Front-door sessions closed normally.";
        session_chars: "pm_session_chars_total", "Text characters streamed by closed sessions.";
        sessions_rejected: "pm_sessions_rejected_total",
            "Admission-control rejections (session cap or byte budgets).";
        frames: "pm_frames_total", "Protocol frames received on front-door connections.";
        frame_bytes: "pm_frame_bytes_total", "Payload bytes carried by received frames.";
        events_delivered: "pm_events_delivered_total",
            "Match events delivered to front-door clients.";
        backpressure_signals: "pm_backpressure_signals_total",
            "SERVER_BUSY backpressure signals with a retry-after hint.";
        batch_steals: "pm_batch_steals_total", "Batches a worker stole from a sibling's deque.";
        router_runs: "pm_router_runs_total", "Routed batch runs completed by the shard router.";
        router_jobs: "pm_router_jobs_total", "Jobs admitted through the shard router.";
        router_groups: "pm_router_groups_total", "Pattern groups the router planned.";
        router_affinity_moves: "pm_router_affinity_moves_total",
            "Groups routed away from their affinity shard to balance load.";
        router_micros: "pm_router_micros_total",
            "Microseconds the router spent grouping and assigning.";
        shard_jobs: "pm_shard_jobs_total", "Jobs admitted to shards, summed over routing rounds.";
    }
    gauges {
        superplane_words: "pm_superplane_words",
            "Superplane width (words) of the most recent dispatch.";
        ladder_words: "pm_ladder_words", "Current degradation-ladder rung in words (0 = software).";
        shard_queue_depth: "pm_shard_queue_depth",
            "High-water mark of jobs admitted to any one shard per routing round.";
        outbox_high_water: "pm_outbox_high_water_bytes",
            "High-water mark of reply bytes any one front-door connection held unsent.";
    }
    histograms {
        batch_occupancy: "pm_batch_occupancy", "Lane slots carried per word batch.",
            OCCUPANCY_BOUNDS;
        // Only batches the caller timed observe; untimed ones report 0 µs.
        batch_micros: "pm_batch_micros", "Word-batch wall clock, microseconds.",
            LATENCY_BOUNDS_MICROS;
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for MetricsRegistry {
    fn record(&self, event: TraceEvent) {
        match event {
            TraceEvent::Clock { .. } => self.clock_phases.add(1),
            TraceEvent::TextInjected { .. } => self.texts_injected.add(1),
            TraceEvent::ComparatorFire { lanes, .. } => {
                self.comparator_fires.add(1);
                self.match_lanes.add(u64::from(lanes));
            }
            TraceEvent::HostStall { .. } => self.host_stalls.add(1),
            TraceEvent::HostRetry { backoff_beats, .. } => {
                self.host_retries.add(1);
                self.backoff_beats.add(backoff_beats);
            }
            TraceEvent::ScrubOutcome { passed, beats, .. } => {
                if passed {
                    self.scrubs_passed.add(1);
                } else {
                    self.scrubs_failed.add(1);
                }
                self.scrub_beats.add(beats);
            }
            TraceEvent::Condemned { .. } => self.condemned.add(1),
            TraceEvent::Remapped { replayed_chars, .. } => {
                self.remaps.add(1);
                self.replayed_chars.add(replayed_chars);
            }
            TraceEvent::Committed { .. } => self.commits.add(1),
            TraceEvent::FallbackEngaged => self.fallbacks.add(1),
            TraceEvent::JobStarted { .. } => self.jobs_started.add(1),
            TraceEvent::JobCompleted { chars, matches, .. } => {
                self.jobs_completed.add(1);
                self.chars.add(chars);
                self.matches.add(matches);
            }
            TraceEvent::BatchExecuted {
                lanes,
                slots,
                steps,
                micros,
                ..
            } => {
                self.batches.add(1);
                self.batch_steps.add(steps);
                self.lane_slots_used.add(u64::from(lanes));
                self.lane_slots_total.add(u64::from(slots));
                self.batch_occupancy.observe(u64::from(lanes));
                if micros > 0 {
                    self.batch_micros.observe(micros);
                }
            }
            TraceEvent::CacheLookup { hit } => {
                if hit {
                    self.cache_hits.add(1);
                } else {
                    self.cache_misses.add(1);
                }
            }
            TraceEvent::FaultInjected { .. } => self.faults_injected.add(1),
            TraceEvent::ScrubMismatch { .. } => self.scrub_mismatches.add(1),
            TraceEvent::WorkerQuarantined { .. } => self.quarantined_workers.add(1),
            TraceEvent::LadderMoved { words, down } => {
                if down {
                    self.ladder_demotions.add(1);
                } else {
                    self.ladder_promotions.add(1);
                }
                self.ladder_words.store(u64::from(words), Ordering::Relaxed);
            }
            TraceEvent::BatchRetried { .. } => self.batches_retried.add(1),
            TraceEvent::DictionaryPlanned {
                patterns,
                resident,
                groups,
                lane_slots,
            } => {
                self.dict_patterns.add(patterns);
                self.dict_resident_lanes.add(resident);
                self.dict_groups.add(u64::from(groups));
                self.dict_lane_slots.add(lane_slots);
            }
            TraceEvent::SessionOpened { .. } => self.sessions_opened.add(1),
            TraceEvent::SessionClosed { chars, .. } => {
                self.sessions_closed.add(1);
                self.session_chars.add(chars);
            }
            TraceEvent::SessionRejected { .. } => self.sessions_rejected.add(1),
            TraceEvent::FrameReceived { bytes, .. } => {
                self.frames.add(1);
                self.frame_bytes.add(bytes);
            }
            TraceEvent::EventsDelivered { events, .. } => self.events_delivered.add(events),
            TraceEvent::BackpressureSignalled { .. } => self.backpressure_signals.add(1),
            TraceEvent::OutboxBacklog { bytes } => {
                self.outbox_high_water.fetch_max(bytes, Ordering::Relaxed);
            }
            TraceEvent::BatchStolen { .. } => self.batch_steals.add(1),
            TraceEvent::RouterPlanned {
                jobs,
                groups,
                moves,
                micros,
                ..
            } => {
                self.router_runs.add(1);
                self.router_jobs.add(jobs);
                self.router_groups.add(groups);
                self.router_affinity_moves.add(moves);
                self.router_micros.add(micros);
            }
            TraceEvent::ShardAdmitted { jobs, depth, .. } => {
                self.shard_jobs.add(jobs);
                self.shard_queue_depth.fetch_max(depth, Ordering::Relaxed);
            }
            TraceEvent::DispatchSelected { words, level } => {
                use pm_systolic::superplane::SimdLevel;
                match level {
                    SimdLevel::Portable => self.dispatch_portable.add(1),
                    SimdLevel::Avx2 => self.dispatch_avx2.add(1),
                    SimdLevel::Avx512 => self.dispatch_avx512.add(1),
                }
                self.superplane_words
                    .store(u64::from(words), Ordering::Relaxed);
            }
            _ => {}
        }
    }
}
impl TelemetrySnapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, kind, value) in self.scalar_rows() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, help, histogram) in self.histogram_rows() {
            histogram.to_prometheus(name, help, &mut out);
        }
        out
    }

    /// Renders the snapshot as the `BENCH_telemetry.json` document:
    /// `chars_per_sec` at top level (what the CI gate reads), then
    /// every counter and gauge under `"counters"` and every histogram
    /// under `"histograms"`.
    pub fn to_json(&self, chars_per_sec: f64) -> String {
        let scalars: Vec<String> = self
            .scalar_rows()
            .into_iter()
            .map(|(name, _, _, value)| format!("    \"{name}\": {value}"))
            .collect();
        let histograms: Vec<String> = self
            .histogram_rows()
            .into_iter()
            .map(|(name, _, histogram)| {
                let mut row = format!("    \"{name}\": ");
                histogram.to_json(&mut row);
                row
            })
            .collect();
        format!(
            "{{\n  \"chars_per_sec\": {chars_per_sec:.1},\n  \"counters\": {{\n{}\n  }},\n  \
             \"histograms\": {{\n{}\n  }}\n}}\n",
            scalars.join(",\n"),
            histograms.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(70);
        h.observe(1000); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.sum, 1085);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn registry_folds_events() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::Clock {
            beat: 0,
            phase: pm_systolic::telemetry::ClockPhase::Phi1,
        });
        m.record(TraceEvent::Clock {
            beat: 0,
            phase: pm_systolic::telemetry::ClockPhase::Phi2,
        });
        m.record(TraceEvent::ComparatorFire {
            beat: 5,
            seq: 2,
            lanes: 7,
        });
        m.record(TraceEvent::JobCompleted {
            job: 1,
            worker: 0,
            chars: 100,
            matches: 4,
        });
        m.record(TraceEvent::BatchExecuted {
            worker: 0,
            lanes: 48,
            slots: 64,
            steps: 4096,
            micros: 120,
        });
        m.record(TraceEvent::DispatchSelected {
            words: 8,
            level: pm_systolic::superplane::SimdLevel::Portable,
        });
        m.record(TraceEvent::CacheLookup { hit: true });
        m.record(TraceEvent::CacheLookup { hit: false });
        m.record(TraceEvent::ScrubOutcome {
            socket: 2,
            passed: false,
            beats: 30,
        });
        let s = m.snapshot();
        assert_eq!(s.beats, 1);
        assert_eq!(s.match_lanes, 7);
        assert_eq!(s.chars, 100);
        assert_eq!(s.matches, 4);
        assert_eq!(s.lane_slots_used, 48);
        assert_eq!(s.lane_slots_total, 64);
        assert_eq!(s.dispatch_portable, 1);
        assert_eq!(s.superplane_words, 8);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.scrubs_failed, 1);
        assert_eq!(s.scrub_beats, 30);
        assert_eq!(s.batch_occupancy.count, 1);
        assert_eq!(s.batch_micros.sum, 120);
    }

    #[test]
    fn registry_folds_fault_and_ladder_events() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::FaultInjected {
            worker: 1,
            label: "lane_upset",
        });
        m.record(TraceEvent::ScrubMismatch {
            worker: 1,
            batch: 3,
        });
        m.record(TraceEvent::WorkerQuarantined {
            worker: 1,
            label: "lane_upset",
        });
        m.record(TraceEvent::LadderMoved {
            words: 4,
            down: true,
        });
        m.record(TraceEvent::LadderMoved {
            words: 8,
            down: false,
        });
        m.record(TraceEvent::BatchRetried {
            batch: 3,
            attempt: 1,
            words: 4,
        });
        let s = m.snapshot();
        assert_eq!(s.faults_injected, 1);
        assert_eq!(s.scrub_mismatches, 1);
        assert_eq!(s.quarantined_workers, 1);
        assert_eq!(s.ladder_demotions, 1);
        assert_eq!(s.ladder_promotions, 1);
        assert_eq!(s.batches_retried, 1);
        assert_eq!(s.ladder_words, 8); // last move wins the gauge
        let prom = s.to_prometheus();
        assert!(prom.contains("pm_quarantined_workers_total 1"), "{prom}");
        assert!(prom.contains("pm_ladder_words 8"), "{prom}");
        let json = s.to_json(0.0);
        assert!(json.contains("\"pm_scrub_mismatches_total\": 1"), "{json}");
        assert!(json.contains("\"pm_ladder_words\": 8"), "{json}");
        assert!(!json.contains(",\n  }"), "{json}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::BatchExecuted {
            worker: 0,
            lanes: 64,
            slots: 512,
            steps: 100,
            micros: 0, // untimed: no latency observation
        });
        let text = m.snapshot().to_prometheus();
        assert!(text.contains("# TYPE pm_batches_total counter"), "{text}");
        assert!(text.contains("pm_batches_total 1"), "{text}");
        assert!(
            text.contains("pm_batch_occupancy_bucket{le=\"64\"} 1"),
            "{text}"
        );
        assert!(text.contains("pm_batch_occupancy_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pm_batch_micros_count 0"), "{text}");
    }

    #[test]
    fn json_snapshot_shape() {
        let m = MetricsRegistry::new();
        m.record(TraceEvent::JobCompleted {
            job: 0,
            worker: 0,
            chars: 42,
            matches: 1,
        });
        let json = m.snapshot().to_json(123456.7);
        assert!(json.contains("\"chars_per_sec\": 123456.7"), "{json}");
        assert!(json.contains("\"pm_chars_total\": 42"), "{json}");
        assert!(json.contains("\"pm_batch_occupancy\""), "{json}");
        // Crude but deliberate: balanced braces, no trailing commas.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",\n  }"), "{json}");
    }
}
