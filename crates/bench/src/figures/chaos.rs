//! E32: chaos harness — the fault-tolerant scheduler under seeded
//! fault campaigns, and the price of protection when nothing fails.
//!
//! The paper's §4 discipline is that a special-purpose part earns its
//! keep only if its failure modes are *testable*: single-stuck-at
//! faults, detected by exercising the comparator lattice against known
//! answers. E32 carries that discipline up to the scheduler: the
//! resilient layer ([`pm_chip::throughput::ResiliencePolicy`]) buys
//! sampled-lane scrubbing, a stall watchdog, exit known-answer tests
//! and a degradation ladder — and this figure measures two claims
//! about it:
//!
//! 1. **zero-fault overhead** — on a fault-free run the resilient
//!    scheduler sustains ≈ the fast path's chars/sec. The same-run
//!    ratio `chaos_zero_fault_ratio` (resilient ÷ fast, the median of
//!    per-round ratios with the two paths timed in turns, each run on a
//!    fresh engine) goes to `BENCH_chaos.json` for the CI gate, which
//!    allows ≤ 3 % dilution;
//! 2. **exactness under fire** — seeded campaigns at increasing fault
//!    densities (lane upsets, stuck comparators, cache poison, stalls,
//!    panics) always commit output bit-identical to the scalar spec.
//!
//! The campaign seed folds in `PM_CHAOS_SEED` when set, so the CI seed
//! matrix replays distinct deterministic campaigns. Override the JSON
//! destination with `PM_CHAOS_JSON`.

use crate::figures::paired::{paired, quartiles, verdict, Claim};
use crate::workloads;
use pm_chip::faults::FaultPlan;
use pm_chip::throughput::{Job, ResiliencePolicy, SuperWidth, ThroughputEngine};
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::simd_level;
use pm_systolic::symbol::{Alphabet, Pattern};
use std::fmt::Write;
use std::time::Duration;

/// Jobs in the timing workload: eight full 512-lane batches at W=8
/// (two per pattern group), so the stealing queue has enough grain
/// that one descheduled worker does not set the whole run's wall
/// clock.
const JOBS: usize = if cfg!(debug_assertions) { 512 } else { 4_096 };
/// Characters per job text. The protection cost worth reporting is the
/// *sustained* dilution, not the fixed per-run gate (each worker runs
/// one exit known-answer test however long the run was), so the
/// release workload is long enough to amortise it the way a real
/// service run would; the debug build — where the figure runs only as
/// a smoke test and the ratio is advisory — keeps the workload small.
const STREAM_LEN: usize = if cfg!(debug_assertions) { 1_024 } else { 4_096 };
/// Distinct patterns cycled across the jobs (the cache keeps each
/// worker's compile cost at one per distinct pattern).
const PATTERN_LEN: usize = 12;
const PATTERNS: usize = 4;
/// Scheduler worker threads.
const WORKERS: usize = 4;
/// Fault densities (‰ per worker) for the campaign legs.
const CAMPAIGNS: [u32; 3] = [250, 500, 1000];

/// The CI seed-matrix contribution, as in the chaos proptests.
fn env_seed() -> u64 {
    std::env::var("PM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A resilience policy for timing runs: the watchdog is opened far
/// beyond any honest batch (a debug-build batch is slow, not stalled),
/// so a false condemnation can never pollute the overhead ratio.
fn figure_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        watchdog: Duration::from_secs(30),
        ..ResiliencePolicy::default()
    }
}

fn engine(resilient: bool, plan: Option<FaultPlan>) -> ThroughputEngine {
    let mut e = ThroughputEngine::new(WORKERS, PATTERNS * 2);
    e.set_width(SuperWidth::W8);
    e.set_resilience(resilient.then(figure_policy));
    e.set_fault_plan(plan);
    e
}

/// Renders the E32 chaos figure and writes `BENCH_chaos.json` (path
/// overridable via `PM_CHAOS_JSON`).
pub fn chaos() -> String {
    let path =
        std::env::var("PM_CHAOS_JSON").unwrap_or_else(|_| crate::snapshot_path("BENCH_chaos.json"));
    chaos_to(&path)
}

/// As [`chaos`], but with the JSON snapshot destination passed
/// explicitly (tests route it to a temp path without touching the
/// process environment). Write errors are ignored so read-only
/// checkouts can still render.
pub fn chaos_to(json_path: &str) -> String {
    let mut out = String::new();
    let alphabet = Alphabet::TWO_BIT;
    let patterns: Vec<Pattern> = (0..PATTERNS)
        .map(|i| workloads::random_pattern(alphabet, PATTERN_LEN, 10, 3_201 + i as u64))
        .collect();
    let jobs: Vec<Job> = (0..JOBS)
        .map(|i| {
            Job::new(
                i as u64,
                patterns[i % PATTERNS].clone(),
                workloads::random_text(alphabet, STREAM_LEN, 3_300 + i as u64),
            )
        })
        .collect();
    let total_chars = (JOBS * STREAM_LEN) as f64;
    let seed = 1_980 ^ env_seed();

    writeln!(
        out,
        "Chaos harness (E32): {JOBS} jobs × {STREAM_LEN} chars, {PATTERNS} patterns \
         of {PATTERN_LEN}, {WORKERS} workers at W=8, SIMD dispatch: {}, seed {seed}",
        simd_level(),
    )
    .unwrap();

    // Leg 1: zero-fault overhead — fast path vs. resilient path, no
    // fault plan installed, each run on a fresh engine (so ladder state
    // cannot leak between runs), which it returns so that dropping it
    // stays outside the timed region.
    let run = |resilient: bool| {
        let e = engine(resilient, None);
        e.run(&jobs).expect("figure workloads are valid");
        e
    };
    let timing = paired(&mut [&mut || run(false), &mut || run(true)], |_| ());
    let (fast_rate, resilient_rate) = (total_chars / timing.secs(0), total_chars / timing.secs(1));
    let ratios = timing.speedups(1);
    let [q1, ratio, q3] = quartiles(&ratios);
    writeln!(
        out,
        "\n  zero-fault overhead ({}):\n\
         \x20   fast path      : {:>9.2} Mchar/s\n\
         \x20   resilient path : {:>9.2} Mchar/s\n\
         \x20   chaos_zero_fault_ratio: {ratio:.3} (IQR {:.3}; ≥ 0.97 holds: {})",
        timing.label(),
        fast_rate / 1e6,
        resilient_rate / 1e6,
        q3 - q1,
        verdict(&ratios, Claim::AtLeast(0.97)),
    )
    .unwrap();

    // Leg 2: seeded fault campaigns — every committed bit must equal
    // the scalar specification, whatever the density.
    let mut agree = true;
    writeln!(
        out,
        "\n  campaign ‰ | faults | scrub | quarantined | recovered | fallback | ladder"
    )
    .unwrap();
    writeln!(
        out,
        "  -----------+--------+-------+-------------+-----------+----------+-------"
    )
    .unwrap();
    for permille in CAMPAIGNS {
        // Onset 0: a faulted worker is defective from its first batch
        // (the timing workload plans few batches per worker, so a late
        // onset would never fire).
        let plan = FaultPlan::new(seed)
            .with_worker_fault_permille(permille)
            .with_max_onset_batches(0)
            .with_stall_millis(1);
        let e = engine(true, Some(plan));
        let report = e.run(&jobs).expect("resilient runs contain faults");
        for (job, out) in jobs.iter().zip(&report.outputs) {
            if out.hits.bits() != match_spec(&job.text, &job.pattern) {
                agree = false;
            }
        }
        let res = report.resilience.expect("resilient run reports");
        writeln!(
            out,
            "  {permille:>10} | {:>6} | {:>5} | {:>11} | {:>9} | {:>8} | W×{}",
            res.faults_injected,
            res.scrub_mismatches,
            res.quarantined.len(),
            res.recovered_jobs,
            res.fallback_jobs,
            res.ladder_words,
        )
        .unwrap();
    }

    // JSON for the CI regression gate: the hardware-independent
    // protection ratio (both sides measured in this process), plus the
    // advisory absolute rates behind it.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"chaos_zero_fault_ratio\": {ratio:.3},");
    let _ = writeln!(json, "  \"resilient_chars_per_sec\": {resilient_rate:.1},");
    let _ = writeln!(json, "  \"fast_chars_per_sec\": {fast_rate:.1},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", simd_level());
    let _ = writeln!(json, "  \"jobs\": {JOBS},");
    let _ = writeln!(json, "  \"stream_len\": {STREAM_LEN}");
    json.push_str("}\n");
    super::write_snapshot(&mut out, json_path, &json);

    writeln!(
        out,
        "\n  all committed campaign output equal specification: {agree}"
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn chaos_figure_is_exact() {
        let path = std::env::temp_dir().join("pm_test_chaos.json");
        let text = super::chaos_to(path.to_str().unwrap());
        assert!(text.contains("equal specification: true"), "{text}");
        assert!(text.contains("chaos_zero_fault_ratio"), "{text}");
    }
}
