//! Chaos properties: under arbitrary seeded fault campaigns — lane
//! upsets, stuck comparators, cache poisoning, stalls, panics, and
//! failing recovery rungs — the resilient scheduler's committed output
//! is bit-identical to the scalar specification, and every run
//! terminates inside a bounded wall clock (no deadlock, no livelock).
//!
//! The campaign seed folds in `PM_CHAOS_SEED` when set, so the CI seed
//! matrix replays distinct deterministic campaigns and any failure
//! reproduces locally with the same environment variable.

use pm_chip::faults::{FaultPlan, PlaneFault};
use pm_chip::throughput::{Job, ResiliencePolicy, SuperWidth, ThroughputEngine};
use pm_systolic::prelude::*;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// A pattern pool and a job list of (pool index, text) pairs — the
/// same ragged multi-pattern shape as the fault-free scheduler props.
type JobWorkload = (Vec<Vec<Option<u8>>>, Vec<(usize, Vec<u8>)>);

fn job_workload() -> impl Strategy<Value = JobWorkload> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None), // wild card
    ];
    let pool = proptest::collection::vec(proptest::collection::vec(pat_sym, 1..=8), 1..=4);
    pool.prop_flat_map(|pool| {
        let picks = pool.len();
        (
            Just(pool),
            proptest::collection::vec(
                (0..picks, proptest::collection::vec(0u8..=3, 0..=30)),
                0..=60,
            ),
        )
    })
}

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

fn jobs_from(pool: &[Vec<Option<u8>>], specs: &[(usize, Vec<u8>)]) -> Vec<Job> {
    let patterns: Vec<Pattern> = pool.iter().map(|p| build(p)).collect();
    specs
        .iter()
        .enumerate()
        .map(|(id, (pick, text))| {
            let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
            Job::new(id as u64, patterns[*pick].clone(), symbols)
        })
        .collect()
}

/// The CI seed-matrix contribution: campaigns differ per matrix entry
/// but stay deterministic within one.
fn env_seed() -> u64 {
    std::env::var("PM_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A generous per-case bound: a hung scheduler (lost worker, deadlocked
/// queue, unbounded retry loop) blows straight through it.
const CASE_BUDGET: Duration = Duration::from_secs(30);

fn check_resilient(jobs: &[Job], plan: FaultPlan, workers: usize, width: SuperWidth) {
    let seed = plan.seed();
    let mut engine = ThroughputEngine::new(workers, 8);
    engine.set_width(width);
    engine.set_resilience(Some(ResiliencePolicy::default()));
    engine.set_fault_plan(Some(plan));
    let started = Instant::now();
    let report = engine.run(jobs).expect("resilient runs contain faults");
    assert!(
        started.elapsed() < CASE_BUDGET,
        "run exceeded the {CASE_BUDGET:?} liveness budget"
    );
    assert_eq!(report.outputs.len(), jobs.len());
    for (job, out) in jobs.iter().zip(&report.outputs) {
        assert_eq!(out.id, job.id);
        assert_eq!(
            out.hits.bits(),
            match_spec(&job.text, &job.pattern),
            "job {} diverged from spec under seed {seed}",
            job.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resilient_scheduler_equals_spec_under_random_faults(
        (pool, specs) in job_workload(),
        seed in 0u64..1_000_000,
        permille in 0u32..=1000,
        onset in 0u64..4,
        rung_permille in 0u32..=400,
        workers in 1usize..4,
    ) {
        let jobs = jobs_from(&pool, &specs);
        // Short stalls: liveness faults must slow the run, not the
        // suite (the watchdog path has its own wall-clock test).
        let plan = FaultPlan::new(seed ^ env_seed())
            .with_worker_fault_permille(permille)
            .with_max_onset_batches(onset)
            .with_rung_fail_permille(rung_permille)
            .with_stall_millis(2);
        check_resilient(&jobs, plan, workers, SuperWidth::W8);
    }

    #[test]
    fn resilient_scheduler_equals_spec_at_every_width(
        (pool, specs) in job_workload(),
        seed in 0u64..1_000_000,
    ) {
        let jobs = jobs_from(&pool, &specs);
        for width in [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8] {
            let plan = FaultPlan::new(seed ^ env_seed())
                .with_worker_fault_permille(600)
                .with_stall_millis(2);
            check_resilient(&jobs, plan, 2, width);
        }
    }
}

#[test]
fn all_workers_condemned_and_all_rungs_failing_lands_on_software() {
    // The deepest path the ladder has: every worker defective from its
    // first batch, every hardware recovery rung failing — the run must
    // still terminate with spec-identical output, carried entirely by
    // the software fallback.
    let pool: Vec<Vec<Option<u8>>> = vec![vec![Some(0), None, Some(2)], vec![Some(1), Some(1)]];
    let specs: Vec<(usize, Vec<u8>)> = (0..40u8)
        .map(|i| {
            (
                usize::from(i % 2),
                (0..20).map(|j| (i.wrapping_add(j)) % 4).collect(),
            )
        })
        .collect();
    let jobs = jobs_from(&pool, &specs);
    let mut engine = ThroughputEngine::new(3, 8);
    engine.set_resilience(Some(ResiliencePolicy::default()));
    engine.set_fault_plan(Some(
        FaultPlan::new(1980 ^ env_seed())
            .with_worker_fault_permille(1000)
            .with_forced_kind(PlaneFault::StuckComparator { level: true })
            .with_max_onset_batches(0)
            .with_rung_fail_permille(1000),
    ));
    let started = Instant::now();
    let report = engine.run(&jobs).unwrap();
    assert!(started.elapsed() < CASE_BUDGET);
    for (job, out) in jobs.iter().zip(&report.outputs) {
        assert_eq!(out.hits.bits(), match_spec(&job.text, &job.pattern));
    }
    let res = report.resilience.expect("resilient run reports");
    // Every worker is condemned (the exit known-answer test runs even
    // on a worker whose batches were all stolen); with every rung
    // failing, every job lands on the software rung.
    assert!(!res.quarantined.is_empty());
    assert_eq!(res.fallback_jobs, jobs.len() as u64);
    assert!(res.demotions > 0);
}

#[test]
fn chaos_campaign_is_deterministic_for_a_fixed_seed() {
    // Two uniform batches over up to four workers: which worker runs
    // which batch (and whether it runs any) depends on steal order, so
    // a single replay pair can agree by luck. Replay many times per
    // worker count; the report must never move.
    let pool: Vec<Vec<Option<u8>>> = vec![vec![Some(0), Some(1)], vec![Some(2), None]];
    let specs: Vec<(usize, Vec<u8>)> = (0..30u8)
        .map(|i| (usize::from(i % 2), (0..15).map(|j| (i ^ j) % 4).collect()))
        .collect();
    let jobs = jobs_from(&pool, &specs);
    for workers in 1..=4 {
        let run = || {
            let mut engine = ThroughputEngine::new(workers, 8);
            engine.set_resilience(Some(ResiliencePolicy::default()));
            engine.set_fault_plan(Some(
                FaultPlan::new(42)
                    .with_worker_fault_permille(1000)
                    .with_forced_kind(PlaneFault::LaneUpset)
                    .with_max_onset_batches(0)
                    .with_rung_fail_permille(0),
            ));
            let report = engine.run(&jobs).unwrap();
            let res = report.resilience.unwrap();
            (res.quarantined, res.recovered_jobs, res.fallback_jobs)
        };
        let first = run();
        for replay in 1..50 {
            assert_eq!(
                run(),
                first,
                "equal seeds must replay identical campaigns ({workers} workers, replay {replay})"
            );
        }
    }
}
