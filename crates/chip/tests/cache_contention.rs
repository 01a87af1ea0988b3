//! Regression test for the compiled-pattern memo: a many-worker run
//! over one hot pattern must not fall behind a single worker.
//!
//! An early scheduler kept its compiled patterns behind one global
//! mutex, so every worker's every lookup serialised through one lock —
//! precisely worst on the most common workload, a service hammered
//! with one hot pattern. The scheduler now shares one read-mostly
//! `PatternIndex`: a hit takes only its read lock, and a batch looks
//! each run of equal patterns up once. This test pins that property:
//! with one hot pattern split across many `u64`-width batches, sixteen
//! workers must sustain at least the character rate of one.
//!
//! Timing discipline for noisy CI boxes (possibly single-core): the
//! contended configuration gets its *best* of three runs, the baseline
//! its *worst* of three, so scheduler jitter works against the
//! assertion only if the contended path is genuinely slower. Even so,
//! a wall-clock ratio of a 16-thread run against a 1-thread run can
//! misbehave on an oversubscribed 1–2 core box, so the timing test is
//! `#[ignore]` in the default suite and runs in a dedicated CI step
//! (`cargo test ... -- --ignored`); the deterministic cache-behaviour
//! assertions stay in the default suite below.

use pm_chip::throughput::{Job, SuperWidth, ThroughputEngine};
use pm_systolic::symbol::{Pattern, Symbol};

fn hot_jobs() -> Vec<Job> {
    let pattern = Pattern::parse("ABCA").unwrap();
    (0..1024u64)
        .map(|id| {
            let text: Vec<Symbol> = (0..2048)
                .map(|i| Symbol::new(((id as usize + i * 5) % 4) as u8))
                .collect();
            Job::new(id, pattern.clone(), text)
        })
        .collect()
}

fn best_rate(engine: &ThroughputEngine, jobs: &[Job], reps: usize) -> f64 {
    (0..reps)
        .map(|_| engine.run(jobs).unwrap().totals.chars_per_sec())
        .fold(0.0, f64::max)
}

fn worst_rate(engine: &ThroughputEngine, jobs: &[Job], reps: usize) -> f64 {
    (0..reps)
        .map(|_| engine.run(jobs).unwrap().totals.chars_per_sec())
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "relative wall-clock throughput; run via `--ignored` in the dedicated CI step"]
fn sixteen_workers_on_one_hot_pattern_keep_up_with_one() {
    let jobs = hot_jobs();

    // u64 width so the hot pattern splits into 16 batches — enough for
    // every worker to claim work (and to steal when its deque drains).
    let mut single = ThroughputEngine::new(1, 8);
    single.set_width(SuperWidth::W1);
    let mut contended = ThroughputEngine::new(16, 8);
    contended.set_width(SuperWidth::W1);

    // Warm both engines (first run pays compilation and page faults).
    single.run(&jobs).unwrap();
    contended.run(&jobs).unwrap();

    let single_worst = worst_rate(&single, &jobs, 3);
    let contended_best = best_rate(&contended, &jobs, 3);
    // 16 threads on a small (possibly single-core) CI box pay real
    // context-switch overhead, so allow a little scheduling slack: the
    // regression this guards against — every lookup serialising through
    // one mutex — costs integer factors, not 15 %.
    assert!(
        contended_best >= 0.85 * single_worst,
        "16 workers ({contended_best:.0} chars/s) fell far behind one \
         worker ({single_worst:.0} chars/s) on a single hot pattern"
    );
}

#[test]
fn hot_pattern_is_compiled_once_across_sixteen_workers() {
    // The deterministic half of the regression: the hot pattern is
    // compiled once per engine lifetime, so after a warm run every
    // lookup hits the shared index — no wall clocks involved, safe on
    // any CI box.
    let jobs = hot_jobs();
    let mut contended = ThroughputEngine::new(16, 8);
    contended.set_width(SuperWidth::W1);
    contended.run(&jobs).unwrap(); // warm: pays the one compilation
    let report = contended.run(&jobs).unwrap();
    assert_eq!(report.totals.cache_misses, 0);
    assert!(report.totals.cache_hit_rate() == 1.0);
}
