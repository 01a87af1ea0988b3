//! Property tests: telemetry is an *exact* mirror of the work, not an
//! estimate. Counters folded from the trace-event stream must agree
//! with the ground truth the engines return — matches emitted, beats
//! executed, jobs completed — for arbitrary workloads, including the
//! ragged `N % 64 ≠ 0` lane path.

use pm_chip::telemetry::MetricsRegistry;
use pm_chip::throughput::{Job, ThroughputEngine};
use pm_systolic::prelude::*;
use pm_systolic::telemetry::SinkHandle;
use proptest::prelude::*;
use std::sync::Arc;

fn build(pat: &[Option<u8>]) -> Pattern {
    let syms: Vec<PatSym> = pat
        .iter()
        .map(|o| match o {
            Some(v) => PatSym::Lit(Symbol::new(*v)),
            None => PatSym::Wild,
        })
        .collect();
    Pattern::new(syms, Alphabet::TWO_BIT).unwrap()
}

/// A shared-length pattern plus 1..=64 equal-length texts — the
/// beat-accurate [`SuperplaneDriver`] workload. Lane counts deliberately
/// cover the ragged range, not just full words.
fn plane_workload() -> impl Strategy<Value = (Vec<Option<u8>>, Vec<Vec<u8>>)> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None), // wild card
    ];
    (
        proptest::collection::vec(pat_sym, 1..=6),
        (1usize..=64, 0usize..=24),
    )
        .prop_flat_map(|(pat, (lanes, tlen))| {
            (
                Just(pat),
                proptest::collection::vec(
                    proptest::collection::vec(0u8..=3, tlen..=tlen),
                    lanes..=lanes,
                ),
            )
        })
}

/// A pattern pool and jobs drawn from it (mirrors the scheduler
/// proptest's workload shape).
type JobWorkload = (Vec<Vec<Option<u8>>>, Vec<(usize, Vec<u8>)>);

fn job_workload() -> impl Strategy<Value = JobWorkload> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None),
    ];
    let pool = proptest::collection::vec(proptest::collection::vec(pat_sym, 1..=8), 1..=4);
    pool.prop_flat_map(|pool| {
        let picks = pool.len();
        (
            Just(pool),
            proptest::collection::vec(
                (0..picks, proptest::collection::vec(0u8..=3, 0..=30)),
                0..=80,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The beat-accurate path: clock events count every beat exactly,
    /// text injections count every position, and comparator-fire lane
    /// popcounts sum to the ground-truth match total.
    #[test]
    fn plane_driver_telemetry_is_exact((pat, texts) in plane_workload()) {
        let pattern = build(&pat);
        let patterns: Vec<Pattern> = (0..texts.len()).map(|_| pattern.clone()).collect();
        let symbol_texts: Vec<Vec<Symbol>> = texts
            .iter()
            .map(|t| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let lanes: Vec<&[Symbol]> = symbol_texts.iter().map(|t| t.as_slice()).collect();

        let mut driver = SuperplaneDriver::<1>::new(&patterns).unwrap();
        let metrics = MetricsRegistry::new();
        let hits = driver.run_with_sink(&lanes, &metrics).unwrap();

        // Results are still the spec, sink or no sink.
        for (h, t) in hits.iter().zip(&symbol_texts) {
            prop_assert_eq!(h.bits(), match_spec(t, &pattern));
        }
        let snap = metrics.snapshot();

        // Beats executed: 2 per text position (feed) + 2·slack (drain),
        // where slack = cells + 2·pattern_len + 4 and cells = k+1.
        let tmax = texts.first().map_or(0, |t| t.len()) as u64;
        let slack = (pattern.len() + 2 * pattern.len() + 4) as u64;
        prop_assert_eq!(snap.beats, 2 * tmax + 2 * slack);
        prop_assert_eq!(snap.clock_phases, 2 * snap.beats);
        prop_assert_eq!(snap.texts_injected, tmax);

        // Matches emitted: the comparator-fire popcount sum equals the
        // ground-truth match count across every lane.
        let truth: u64 = hits.iter().map(|h| h.count() as u64).sum();
        prop_assert_eq!(snap.match_lanes, truth);

        // One fire per complete window.
        let k = pattern.k() as u64;
        prop_assert_eq!(snap.comparator_fires, tmax.saturating_sub(k));
    }

    /// The scheduler path: job/char/match/batch counters folded from
    /// the event stream agree with the report the engine returns, for
    /// arbitrary job mixes and worker counts (ragged batches included —
    /// job counts are rarely multiples of 64).
    #[test]
    fn scheduler_telemetry_is_exact(
        (pool, specs) in job_workload(),
        workers in 1usize..6,
    ) {
        let patterns: Vec<Pattern> = pool.iter().map(|p| build(p)).collect();
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(id, (pick, text))| {
                let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
                Job::new(id as u64, patterns[*pick].clone(), symbols)
            })
            .collect();

        let metrics = Arc::new(MetricsRegistry::new());
        let engine = ThroughputEngine::with_sink(workers, 8, SinkHandle::new(metrics.clone()));
        let report = engine.run(&jobs).unwrap();
        let snap = metrics.snapshot();

        // Job lifecycle: every job started and completed exactly once.
        prop_assert_eq!(snap.jobs_started, jobs.len() as u64);
        prop_assert_eq!(snap.jobs_completed, jobs.len() as u64);

        // Characters and matches: exactly the ground truth.
        let truth_chars: u64 = jobs.iter().map(|j| j.text.len() as u64).sum();
        let truth_matches: u64 = jobs
            .iter()
            .map(|j| match_spec(&j.text, &j.pattern).iter().filter(|&&b| b).count() as u64)
            .sum();
        prop_assert_eq!(snap.chars, truth_chars);
        prop_assert_eq!(snap.matches, truth_matches);

        // Batch accounting agrees with the counters module's view.
        prop_assert_eq!(snap.batches, report.totals.batches);
        prop_assert_eq!(snap.lane_slots_used, report.totals.lane_slots_used);
        prop_assert_eq!(snap.lane_slots_total, report.totals.lane_slots_total);
        prop_assert_eq!(snap.cache_hits, report.totals.cache_hits);
        prop_assert_eq!(snap.cache_misses, report.totals.cache_misses);

        // The occupancy histogram saw every batch, and its sum is the
        // filled-lane total.
        prop_assert_eq!(snap.batch_occupancy.count, report.totals.batches);
        prop_assert_eq!(snap.batch_occupancy.sum, report.totals.lane_slots_used);
    }
}
