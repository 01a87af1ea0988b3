//! End-to-end throughput path: many (pattern, text) jobs through the
//! threaded scheduler, checked job-for-job against both the executable
//! specification and the scalar beat-accurate array — the same
//! golden-testing discipline the single-stream engines follow.

use systolic_pm::chip::throughput::{Job, ThroughputEngine};
use systolic_pm::systolic::batch::LANES;
use systolic_pm::systolic::prelude::*;

/// A deterministic mixed workload: three patterns (one with wild
/// cards), 130 texts of assorted lengths — two full 64-lane words plus
/// a ragged tail, so word-boundary chunking is on the e2e path.
fn jobs() -> Vec<Job> {
    let patterns = [
        Pattern::parse("AXC").unwrap(),
        Pattern::parse("ABCA").unwrap(),
        Pattern::parse("BD").unwrap(),
    ];
    (0..130u64)
        .map(|id| {
            let len = (id as usize * 7) % 41;
            let text: Vec<Symbol> = (0..len)
                .map(|i| Symbol::new(((id as usize + i * 3) % 4) as u8))
                .collect();
            Job::new(id, patterns[id as usize % patterns.len()].clone(), text)
        })
        .collect()
}

#[test]
fn scheduler_agrees_with_spec_and_scalar_array() {
    let jobs = jobs();
    assert!(jobs.len() > 2 * LANES && !jobs.len().is_multiple_of(LANES));

    let engine = ThroughputEngine::new(4, 8);
    let report = engine.run(&jobs).unwrap();
    assert_eq!(report.outputs.len(), jobs.len());

    for (job, out) in jobs.iter().zip(&report.outputs) {
        assert_eq!(out.id, job.id);
        let spec = match_spec(&job.text, &job.pattern);
        assert_eq!(out.hits.bits(), spec, "job {} disagrees with spec", job.id);

        let mut scalar = SystolicMatcher::new(&job.pattern).unwrap();
        assert_eq!(
            scalar.match_symbols(&job.text).bits(),
            spec,
            "job {} disagrees with the scalar array",
            job.id
        );
    }

    // Global planning packs each distinct pattern into as few batches
    // as possible, so a single run compiles each pattern once; a second
    // run finds everything in the engine's persistent pattern index.
    assert!(report.totals.cache_misses <= 3);
    let again = engine.run(&jobs).unwrap();
    assert_eq!(again.totals.cache_misses, 0);
    assert!(again.totals.cache_hits > 0);
    assert_eq!(report.workers.len(), engine.workers());
}

#[test]
fn scheduler_agrees_with_spec_at_every_superplane_width() {
    use systolic_pm::chip::throughput::SuperWidth;
    let jobs = jobs();
    for width in [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8] {
        let mut engine = ThroughputEngine::new(3, 8);
        engine.set_width(width);
        let report = engine.run(&jobs).unwrap();
        assert_eq!(report.lanes_per_batch, width.lanes());
        for (job, out) in jobs.iter().zip(&report.outputs) {
            assert_eq!(
                out.hits.bits(),
                match_spec(&job.text, &job.pattern),
                "job {} disagrees with spec at width {width}",
                job.id
            );
        }
    }
}

#[test]
fn batch_matcher_agrees_across_the_word_boundary() {
    let jobs = jobs();
    let pattern = &jobs[0].pattern;
    let texts: Vec<&[Symbol]> = jobs.iter().map(|j| j.text.as_slice()).collect();
    let hits = SuperMatcher::<1>::new(pattern)
        .match_streams(&texts)
        .unwrap();
    for (job, h) in jobs.iter().zip(&hits) {
        assert_eq!(h.bits(), match_spec(&job.text, pattern));
    }
}
