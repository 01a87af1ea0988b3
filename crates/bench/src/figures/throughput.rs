//! E29: aggregate throughput — scalar array vs. bit-plane batch engine
//! vs. threaded scheduler, against the paper's 4.0 Mchar/s silicon.
//!
//! The paper's §1 rate describes one chip serving one stream; the
//! ROADMAP's "heavy traffic" scenario wants many streams at once. This
//! figure measures how far the software reproduction gets by exploiting
//! what the silicon could not: the per-cell state is one bit, so 64
//! streams ride one machine word (`SuperMatcher<1>` in
//! `pm_systolic::superplane`), and worker threads multiply that again
//! (`pm_chip::throughput`).

use crate::workloads;
use pm_chip::throughput::{Job, ThroughputEngine};
use pm_chip::timing::ClockModel;
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::SuperMatcher;
use pm_systolic::symbol::{Alphabet, Symbol};
use std::fmt::Write;
use std::time::Instant;

/// Streams per batch workload: one full word of lanes plus a ragged
/// tail, so the measurement covers the `N % 64 ≠ 0` case the property
/// tests pin down.
const STREAMS: usize = 96;
/// Characters per stream.
const STREAM_LEN: usize = 4_096;
/// Pattern length (`k+1`).
const PATTERN_LEN: usize = 16;
/// Streams the scalar beat-simulator is timed on (it is slow enough
/// that a subset gives a stable rate; the rate is per character, so the
/// comparison is fair).
const SCALAR_STREAMS: usize = 8;

/// Renders the E29 throughput comparison.
pub fn throughput() -> String {
    let mut out = String::new();
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 29);
    let texts: Vec<Vec<Symbol>> = (0..STREAMS)
        .map(|i| workloads::random_text(alphabet, STREAM_LEN, 2900 + i as u64))
        .collect();

    writeln!(
        out,
        "Aggregate throughput (E29): {STREAMS} streams × {STREAM_LEN} chars, \
         pattern of {PATTERN_LEN} ({} wild cards)",
        pattern.symbols().iter().filter(|s| s.is_wild()).count()
    )
    .unwrap();

    // Scalar: the beat-accurate array simulator, one stream at a time.
    let mut scalar = SystolicMatcher::new(&pattern).expect("pattern is valid");
    let started = Instant::now();
    let mut scalar_results = Vec::new();
    for t in texts.iter().take(SCALAR_STREAMS) {
        scalar_results.push(scalar.match_symbols(t));
    }
    let scalar_chars = (SCALAR_STREAMS * STREAM_LEN) as f64;
    let scalar_rate = scalar_chars / started.elapsed().as_secs_f64();

    // Batched: 64 lanes per word, single thread.
    let batch = SuperMatcher::<1>::new(&pattern);
    let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
    let started = Instant::now();
    let batch_results = batch
        .match_streams(&lanes)
        .expect("lane chunking is automatic");
    let total_chars = (STREAMS * STREAM_LEN) as f64;
    let batch_rate = total_chars / started.elapsed().as_secs_f64();

    // Threaded: the job scheduler over the same streams.
    let workers = 4;
    let jobs: Vec<Job> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Job::new(i as u64, pattern.clone(), t.clone()))
        .collect();
    let engine = ThroughputEngine::new(workers, 16);
    let report = engine
        .run(&jobs)
        .expect("scheduler never overfills a batch");
    let threaded_rate = report.totals.chars_per_sec();

    // Golden check: every engine agrees with the executable spec.
    let mut agree = true;
    for (i, t) in texts.iter().enumerate() {
        let spec = match_spec(t, &pattern);
        if i < SCALAR_STREAMS && scalar_results[i].bits() != spec {
            agree = false;
        }
        if batch_results[i].bits() != spec || report.outputs[i].hits.bits() != spec {
            agree = false;
        }
    }

    let silicon = ClockModel::prototype().chars_per_second();
    writeln!(
        out,
        "\n  engine               |   Mchar/s | × scalar | × silicon"
    )
    .unwrap();
    writeln!(
        out,
        "  ---------------------+-----------+----------+----------"
    )
    .unwrap();
    for (name, rate) in [
        ("scalar beat simulator", scalar_rate),
        ("bit-plane batch (×64)", batch_rate),
        (
            &format!("scheduler ({workers} threads)") as &str,
            threaded_rate,
        ),
    ] {
        writeln!(
            out,
            "  {name:<21}| {:>9.2} | {:>8.1} | {:>8.1}",
            rate / 1e6,
            rate / scalar_rate,
            rate / silicon
        )
        .unwrap();
    }
    writeln!(
        out,
        "  (silicon = the paper's derived {:.1} Mchar/s for ONE stream)",
        silicon / 1e6
    )
    .unwrap();

    writeln!(
        out,
        "\n  scheduler: {} batches, {:.0} % lane occupancy, cache {:.0} % hits \
         ({} distinct pattern)",
        report.totals.batches,
        report.totals.lane_occupancy() * 100.0,
        report.totals.cache_hit_rate() * 100.0,
        report.totals.cache_misses,
    )
    .unwrap();
    for w in &report.workers {
        writeln!(
            out,
            "  worker {}: {} jobs, {:.2} Mchar/s, {:.0} % occupancy",
            w.worker,
            w.jobs,
            w.chars_per_sec() / 1e6,
            w.lane_occupancy() * 100.0
        )
        .unwrap();
    }

    writeln!(out, "\n  all engines equal specification: {agree}").unwrap();
    writeln!(
        out,
        "  batched ≥10× scalar: {}",
        batch_rate >= 10.0 * scalar_rate
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn throughput_figure_reports_agreement() {
        let text = super::throughput();
        assert!(text.contains("equal specification: true"), "{text}");
    }
}
