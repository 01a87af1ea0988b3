//! E30: beat-level telemetry — exact event counters over the throughput
//! scheduler, both exposition formats, and the zero-cost-when-disabled
//! claim for the beat-accurate path.
//!
//! The paper's silicon had exactly one observable: the match output pin.
//! The reproduction threads a [`TraceSink`](pm_systolic::telemetry)
//! through its engines instead, and this figure demonstrates the two
//! promises that design makes: folded counters are *exact* (they equal
//! the ground truth the engines return, not an estimate), and a
//! disabled sink costs nothing (the A/B on the beat-accurate
//! `SuperplaneDriver::<1>`'s one run loop: `NullSink` against a
//! disabled `dyn TraceSink`, timed by the figures' one paired
//! estimator). It also writes the `BENCH_telemetry.json` snapshot the
//! CI bench-regression gate compares against its committed baseline.

use crate::figures::paired::{paired, quartiles, verdict, Claim};
use crate::workloads;
use pm_chip::telemetry::MetricsRegistry;
use pm_chip::throughput::{Job, ThroughputEngine};
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::SuperplaneDriver;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use pm_systolic::telemetry::{NullSink, SinkHandle, TraceSink};
use std::cell::RefCell;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

/// Streams in the scheduler workload: one full word of lanes plus a
/// ragged tail, same shape as E29.
const STREAMS: usize = 96;
/// Characters per stream.
const STREAM_LEN: usize = 4_096;
/// Pattern length (`k+1`).
const PATTERN_LEN: usize = 16;
/// Worker threads for the scheduler run.
const WORKERS: usize = 4;
/// Scheduler repetitions; the best-of-N rate is the regression-gate
/// headline, which rejects most scheduler noise on shared CI boxes.
const SCHED_REPS: usize = 3;
/// Lanes and characters for the A/B workload (the beat-accurate driver
/// is the slow path; a modest size keeps the figure quick).
const AB_LANES: usize = 64;
const AB_LEN: usize = 1_024;

/// Renders the E30 telemetry figure and writes `BENCH_telemetry.json`
/// (path overridable via `PM_TELEMETRY_JSON`; write errors are
/// ignored so read-only checkouts can still render the figure).
pub fn telemetry() -> String {
    let mut out = String::new();
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 30);
    // Matches are planted every 512 characters so the match counter has
    // real events to mirror (a 16-char pattern over random 2-bit text
    // matches with probability ≈ 4⁻¹⁶ otherwise).
    let texts: Vec<Vec<Symbol>> = (0..STREAMS)
        .map(|i| workloads::planted_text(&pattern, STREAM_LEN, 512, 3000 + i as u64).0)
        .collect();

    writeln!(
        out,
        "Beat-level telemetry (E30): {STREAMS} streams × {STREAM_LEN} chars, \
         pattern of {PATTERN_LEN}, {WORKERS} workers"
    )
    .unwrap();

    // Instrumented scheduler runs: every event folds into the registry.
    // Each repetition gets a fresh engine + registry (so the exactness
    // check below compares one run against one run's ground truth); the
    // fastest repetition becomes the regression-gate headline.
    let jobs: Vec<Job> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Job::new(i as u64, pattern.clone(), t.clone()))
        .collect();
    // One timed run on a fresh engine + registry, with the registry
    // scraped on either side of it, as an exporter would.
    let sched_run = || {
        let m = Arc::new(MetricsRegistry::new());
        let e = ThroughputEngine::with_sink(WORKERS, 16, SinkHandle::new(m.clone()));
        let before = m.snapshot().chars;
        let started = Instant::now();
        let r = e.run(&jobs).expect("scheduler never overfills a batch");
        let scraped = (m.snapshot().chars - before) as f64 / started.elapsed().as_secs_f64();
        (m, r, scraped)
    };
    let (mut metrics, mut report, mut scraped_rate) = sched_run();
    for _ in 1..SCHED_REPS {
        let (m, r, scraped) = sched_run();
        if r.totals.chars_per_sec() > report.totals.chars_per_sec() {
            (metrics, report, scraped_rate) = (m, r, scraped);
        }
    }
    let chars_per_sec = report.totals.chars_per_sec();

    let mut agree = true;
    for (i, t) in texts.iter().enumerate() {
        if report.outputs[i].hits.bits() != match_spec(t, &pattern) {
            agree = false;
        }
    }

    let snap = metrics.snapshot();
    let truth_chars: u64 = jobs.iter().map(|j| j.text.len() as u64).sum();
    let truth_matches: u64 = report.outputs.iter().map(|o| o.hits.count() as u64).sum();
    let exact = snap.jobs_started == jobs.len() as u64
        && snap.jobs_completed == jobs.len() as u64
        && snap.chars == truth_chars
        && snap.matches == truth_matches
        && snap.batches == report.totals.batches
        && snap.lane_slots_used == report.totals.lane_slots_used
        && snap.cache_hits == report.totals.cache_hits
        && snap.cache_misses == report.totals.cache_misses;

    writeln!(
        out,
        "\n  scheduler rate: {:.2} Mchar/s, best of {SCHED_REPS} \
         (registry scrape: {:.2} Mchar/s, pm_chars_total read before and after the run)",
        chars_per_sec / 1e6,
        scraped_rate / 1e6,
    )
    .unwrap();
    writeln!(out, "\n  counters folded from the event stream:").unwrap();
    for (name, value, truth) in [
        ("jobs started", snap.jobs_started, jobs.len() as u64),
        ("jobs completed", snap.jobs_completed, jobs.len() as u64),
        ("chars", snap.chars, truth_chars),
        ("matches", snap.matches, truth_matches),
        ("batches", snap.batches, report.totals.batches),
        (
            "lane slots used",
            snap.lane_slots_used,
            report.totals.lane_slots_used,
        ),
        ("cache hits", snap.cache_hits, report.totals.cache_hits),
        (
            "cache misses",
            snap.cache_misses,
            report.totals.cache_misses,
        ),
    ] {
        writeln!(
            out,
            "    {name:<16} {value:>10}   (ground truth {truth:>10})"
        )
        .unwrap();
    }
    writeln!(
        out,
        "  batch occupancy histogram: {} batches, mean {:.1} lanes",
        snap.batch_occupancy.count,
        if snap.batch_occupancy.count > 0 {
            snap.batch_occupancy.sum as f64 / snap.batch_occupancy.count as f64
        } else {
            0.0
        }
    )
    .unwrap();

    // Prometheus exposition excerpt: enough lines to show the format
    // without flooding the figure.
    let prom = snap.to_prometheus();
    writeln!(out, "\n  Prometheus exposition (excerpt):").unwrap();
    for line in prom
        .lines()
        .filter(|l| {
            l.contains("pm_jobs_completed")
                || l.contains("pm_chars_total")
                || l.contains("pm_batch_occupancy_bucket{le=\"64\"}")
                || l.contains("pm_batch_occupancy_count")
        })
        .take(8)
    {
        writeln!(out, "    {line}").unwrap();
    }

    // JSON snapshot for the CI regression gate.
    let json = snap.to_json(chars_per_sec);
    let path = std::env::var("PM_TELEMETRY_JSON")
        .unwrap_or_else(|_| crate::snapshot_path("BENCH_telemetry.json"));
    super::write_snapshot(&mut out, &path, &json);

    let ab_pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 31);
    let ab_texts: Vec<Vec<Symbol>> = (0..AB_LANES)
        .map(|i| workloads::random_text(alphabet, AB_LEN, 3100 + i as u64))
        .collect();
    null_sink_ab::<1>(&mut out, &ab_pattern, &ab_texts);

    writeln!(out, "\n  all outputs equal specification: {agree}").unwrap();
    writeln!(out, "  telemetry equals ground truth: {exact}").unwrap();
    out
}

/// The NullSink A/B on a beat-accurate [`SuperplaneDriver`] of width
/// `W`, one lane per text, every lane carrying `pattern`. Both sides
/// run the one loop, `run_with_sink`: the baseline with [`NullSink`],
/// disabled at compile time (this is `run`), the other with a null
/// `Arc<dyn TraceSink>` (what [`SinkHandle::null`] wraps), disabled
/// only at run time. The difference is the one cost a disabled sink
/// can still have: the per-beat `enabled()` guard. Writes the figure
/// block into `out`; E30 and E31 both use it.
///
/// The sides are timed by [`paired`], and every round asserts them
/// bit-identical. The block reports the median per-round overhead with
/// its interquartile range, and judges "within 1 %" by [`verdict`].
pub(crate) fn null_sink_ab<const W: usize>(
    out: &mut String,
    pattern: &Pattern,
    texts: &[Vec<Symbol>],
) {
    let patterns = vec![pattern.clone(); texts.len()];
    let lanes: Vec<&[Symbol]> = texts.iter().map(Vec::as_slice).collect();
    let driver =
        RefCell::new(SuperplaneDriver::<W>::new(&patterns).expect("uniform pattern lengths"));
    // Opaque to the optimiser, so every beat asks the sink.
    let runtime_null: Arc<dyn TraceSink> = std::hint::black_box(Arc::new(NullSink));
    let timing = paired(
        &mut [
            &mut || {
                driver
                    .borrow_mut()
                    .run_with_sink(&lanes, &NullSink)
                    .expect("lanes match")
            },
            &mut || {
                driver
                    .borrow_mut()
                    .run_with_sink(&lanes, &*runtime_null)
                    .expect("lanes match")
            },
        ],
        |runs| assert_eq!(runs[0], runs[1], "both sinks must give bit-identical runs"),
    );
    let overheads: Vec<f64> = timing.speedups(1).iter().map(|s| 1.0 / s - 1.0).collect();
    let [q1, median, q3] = quartiles(&overheads);
    let len = texts.iter().map(Vec::len).max().unwrap_or(0);
    writeln!(
        out,
        "\n  NullSink A/B (beat-accurate SuperplaneDriver::<{W}>, {} lanes × {len} chars, {}):",
        texts.len(),
        timing.label(),
    )
    .unwrap();
    let ms = |side: usize| timing.secs(side) * 1e3;
    writeln!(out, "    NullSink (static)      : {:>8.3} ms", ms(0)).unwrap();
    writeln!(out, "    dyn TraceSink, disabled: {:>8.3} ms", ms(1)).unwrap();
    writeln!(
        out,
        "    disabled-sink overhead: {:.2} % (IQR {:.2} %; within 1 %: {})",
        median * 100.0,
        (q3 - q1) * 100.0,
        verdict(&overheads, Claim::AtMost(0.01)),
    )
    .unwrap();
}

#[cfg(test)]
mod tests {
    #[test]
    fn telemetry_figure_is_exact() {
        // Route the JSON somewhere harmless for the test run.
        std::env::set_var("PM_TELEMETRY_JSON", "/tmp/pm_test_telemetry.json");
        let text = super::telemetry();
        assert!(text.contains("equal specification: true"), "{text}");
        assert!(
            text.contains("telemetry equals ground truth: true"),
            "{text}"
        );
        assert!(text.contains("chars"), "{text}");
    }
}
