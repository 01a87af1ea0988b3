//! The memory system: shards owning a slice of the machine, and the
//! router that feeds them.
//!
//! §1 sells the chip on outrunning "the memory bandwidth of most
//! conventional computers"; the scaled-up reproduction eventually hits
//! the software analogue — one [`ThroughputEngine`] whose workers all
//! contend on one pattern index, one slot pool and one planner. This
//! module splits the machine the way §3.4 splits the array:
//!
//! * a [`Shard`] is a self-contained slice of the lane budget — its
//!   own worker pool, work-stealing deques, compiled-pattern index and
//!   resilience ladder. A fault quarantines *inside* its shard; the
//!   others keep their width.
//! * the [`Router`] is the front of the memory system: it admits a
//!   batch of jobs, groups them by pattern (same-pattern jobs share
//!   compiled planes, so they belong together), routes each group to
//!   its *affinity shard* — a deterministic hash of the pattern, so
//!   repeat traffic re-hits warm caches — spilling to the least-loaded
//!   shard when affinity would overload one, hands every shard its
//!   groups, runs the shards in parallel, and merges the reports back
//!   into submission order. A routed batch is grouped once: each
//!   shard's planner cuts batches from the router's groups.
//!
//! Routing cost is accounted, not assumed: [`RouterReport`] carries
//! `route_micros` (which includes the one grouping pass) plus every
//! shard's `plan_micros` (its cut), and
//! [`RouterReport::planner_overhead_frac`] is the gated ratio the E36
//! ingest benchmark holds below 5 % of batch wall-clock.
//!
//! ```
//! use pm_chip::shard::{Router, RouterConfig};
//! use pm_chip::throughput::Job;
//! use pm_systolic::symbol::{text_from_letters, Pattern};
//!
//! let router = Router::new(RouterConfig {
//!     shards: 2,
//!     workers_per_shard: 2,
//!     ..RouterConfig::default()
//! });
//! let text = text_from_letters("ABRACADABRA").unwrap();
//! let jobs = vec![Job::new(0, Pattern::parse("ABRA").unwrap(), text)];
//! let report = router.run(&jobs).unwrap();
//! assert_eq!(report.outputs.len(), 1);
//! assert_eq!(report.outputs[0].hits.ending_positions(), vec![3, 10]);
//! ```
//!
//! [`ThroughputEngine`]: crate::throughput::ThroughputEngine

use crate::throughput::{
    group_by_pattern, Job, JobOutput, JobRef, ResiliencePolicy, SuperWidth, ThroughputEngine,
    ThroughputReport,
};
use pm_systolic::error::Error;
use pm_systolic::symbol::Pattern;
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shape of the sharded memory system.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Independent shards (each a full engine); at least 1.
    pub shards: usize,
    /// Worker threads per shard; at least 1.
    pub workers_per_shard: usize,
    /// Compiled-pattern capacity of each shard's one
    /// [`PatternIndex`](crate::throughput::PatternIndex), which the
    /// shard's workers share.
    pub cache_capacity: usize,
    /// Superplane width every shard starts at.
    pub width: SuperWidth,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 4,
            workers_per_shard: 4,
            cache_capacity: 256,
            width: SuperWidth::default(),
        }
    }
}

/// A bounded budget of batch-slot bytes, leased by a front end that
/// feeds the engines (the `pm-serve` front door keeps one per shard,
/// cut by [`SlotPool::split`]).
///
/// The superplane engine's capacity is finite: `workers × W × 64`
/// lanes, each carrying a stream of text. A front door multiplexing
/// thousands of client sessions must not buffer unbounded text on
/// behalf of slow clients, so admission happens in *bytes*: every feed
/// leases its chunk length from the pool and the lease releases on
/// drop (RAII). When the pool is exhausted the caller signals
/// backpressure (SERVER_BUSY paced by
/// [`RetryPolicy`](crate::host::RetryPolicy)) instead of queueing.
///
/// Acquisition is a CAS loop on one atomic — no lock, no fairness
/// queue; contention cost is a handful of retries under the same
/// relaxed discipline as [`crate::counters`].
///
/// ```
/// use pm_chip::shard::SlotPool;
///
/// let pool = SlotPool::new(1024);
/// let lease = pool.try_lease(1000).expect("fits");
/// assert_eq!(pool.available(), 24);
/// assert!(pool.try_lease(100).is_none(), "exhausted: backpressure");
/// drop(lease);
/// assert_eq!(pool.available(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct SlotPool {
    inner: Arc<SlotPoolInner>,
}

#[derive(Debug)]
struct SlotPoolInner {
    capacity: u64,
    in_flight: AtomicU64,
}

impl SlotPool {
    /// A pool of `capacity_bytes` leasable batch-slot bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        SlotPool {
            inner: Arc::new(SlotPoolInner {
                capacity: capacity_bytes,
                in_flight: AtomicU64::new(0),
            }),
        }
    }

    /// `budget_bytes` split exactly over `n` pools (at least one): the
    /// first `budget_bytes % n` take one extra byte, so the capacities
    /// sum to the whole budget.
    ///
    /// ```
    /// use pm_chip::shard::SlotPool;
    ///
    /// let pools = SlotPool::split(10, 3);
    /// let caps: Vec<u64> = pools.iter().map(SlotPool::capacity).collect();
    /// assert_eq!(caps, vec![4, 3, 3]);
    /// ```
    pub fn split(budget_bytes: u64, n: usize) -> Vec<SlotPool> {
        let n = n.max(1) as u64;
        (0..n)
            .map(|i| SlotPool::new(budget_bytes / n + u64::from(i < budget_bytes % n)))
            .collect()
    }

    /// Leases `bytes` from the pool, or `None` when the remaining
    /// budget is too small — the caller's cue to apply backpressure.
    /// A zero-byte lease always succeeds and holds nothing.
    pub fn try_lease(&self, bytes: u64) -> Option<SlotLease> {
        let mut current = self.inner.in_flight.load(Ordering::Relaxed);
        loop {
            let next = current.checked_add(bytes)?;
            if next > self.inner.capacity {
                return None;
            }
            match self.inner.in_flight.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(SlotLease {
                        pool: Arc::clone(&self.inner),
                        bytes,
                    })
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Total leasable bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes currently leased out.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Relaxed)
    }

    /// Bytes still available to lease.
    pub fn available(&self) -> u64 {
        self.inner.capacity.saturating_sub(self.in_flight())
    }
}

/// A live lease of batch-slot bytes from a [`SlotPool`]; the bytes
/// return to the pool when the lease drops.
#[derive(Debug)]
pub struct SlotLease {
    pool: Arc<SlotPoolInner>,
    bytes: u64,
}

impl SlotLease {
    /// Bytes this lease holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        self.pool.in_flight.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// One slice of the machine: an engine and its index in the router.
#[derive(Debug)]
pub struct Shard {
    id: usize,
    engine: ThroughputEngine,
}

impl Shard {
    /// This shard's index within its router.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's engine, for read-side inspection.
    pub fn engine(&self) -> &ThroughputEngine {
        &self.engine
    }

    /// The shard's engine, for configuration (width, faults, policy).
    pub fn engine_mut(&mut self) -> &mut ThroughputEngine {
        &mut self.engine
    }
}

/// The affinity hash: which shard a pattern's traffic prefers.
///
/// Plain `DefaultHasher` over the pattern — deterministic within a
/// process, which is all affinity needs (the property under test is
/// *stability*, so repeat traffic lands on warm caches).
fn pattern_shard(pattern: &Pattern) -> u64 {
    let mut h = DefaultHasher::new();
    pattern.hash(&mut h);
    h.finish()
}

/// The front of the memory system: admits jobs, balances them across
/// [`Shard`]s by load and pattern affinity, runs the shards in
/// parallel and merges results back into submission order.
#[derive(Debug)]
pub struct Router {
    shards: Vec<Shard>,
    sink: SinkHandle,
}

impl Router {
    /// A router with no trace sink.
    pub fn new(config: RouterConfig) -> Self {
        Self::with_sink(config, SinkHandle::null())
    }

    /// A router whose shards (and the router itself) emit trace events
    /// into `sink`.
    pub fn with_sink(config: RouterConfig, sink: SinkHandle) -> Self {
        let workers = config.workers_per_shard.max(1);
        let shards = (0..config.shards.max(1))
            .map(|id| {
                let mut engine =
                    ThroughputEngine::with_sink(workers, config.cache_capacity, sink.clone());
                engine.set_width(config.width);
                Shard { id, engine }
            })
            .collect();
        Router { shards, sink }
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by index.
    pub fn shard(&self, id: usize) -> &Shard {
        &self.shards[id]
    }

    /// One shard by index, mutably — the hook chaos tests use to arm a
    /// fault plan on a single shard.
    pub fn shard_mut(&mut self, id: usize) -> &mut Shard {
        &mut self.shards[id]
    }

    /// Installs (or clears) the same resilience policy on every shard.
    pub fn set_resilience(&mut self, policy: Option<ResiliencePolicy>) {
        for shard in &mut self.shards {
            shard.engine.set_resilience(policy);
        }
    }

    /// As [`run_refs`](Self::run_refs), over owned jobs.
    ///
    /// # Errors
    ///
    /// As [`run_refs`](Self::run_refs).
    pub fn run(&self, jobs: &[Job]) -> Result<RouterReport, Error> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        self.run_refs(&refs)
    }

    /// Routes a batch across the shards, runs them in parallel, and
    /// merges the shard reports into one [`RouterReport`] whose
    /// `outputs` are in submission order.
    ///
    /// Routing is by pattern group: all jobs sharing a pattern go to
    /// the pattern's affinity shard unless that shard is already
    /// loaded past ~1.25× its fair share of characters, in which case
    /// the group spills to the least-loaded shard (counted in
    /// [`RouterReport::affinity_moves`]).
    ///
    /// # Errors
    ///
    /// A shard's error — e.g. [`Error::WorkerPanicked`] on the fast
    /// path, with `worker` carrying the *shard* index — after every
    /// shard thread has been joined.
    pub fn run_refs(&self, jobs: &[JobRef<'_>]) -> Result<RouterReport, Error> {
        let wall = Instant::now();
        let route_timer = Instant::now();
        let n = self.shards.len();

        let groups = group_by_pattern(jobs, 0..jobs.len());
        let group_count = groups.len() as u64;

        let total_chars: usize = jobs.iter().map(|j| j.text.len()).sum();
        // Fair share plus 25 % headroom: affinity wins until a shard
        // would exceed it, then the group spills to the least loaded.
        let cap = total_chars / n + total_chars / (4 * n) + 1;
        let mut load = vec![0usize; n];
        let mut assignment: Vec<Vec<(&Pattern, Vec<usize>)>> = vec![Vec::new(); n];
        let mut moves = 0u64;
        for (pattern, members) in groups {
            let group_chars: usize = members.iter().map(|&i| jobs[i].text.len()).sum();
            let preferred = (pattern_shard(pattern) % n as u64) as usize;
            let target = if n > 1 && load[preferred] + group_chars > cap {
                let least = (0..n).min_by_key(|&s| load[s]).unwrap_or(preferred);
                if least != preferred {
                    moves += 1;
                }
                least
            } else {
                preferred
            };
            load[target] += group_chars;
            assignment[target].push((pattern, members));
        }
        let route_micros = route_timer.elapsed().as_micros() as u64;

        self.sink.record(TraceEvent::RouterPlanned {
            shards: n as u32,
            jobs: jobs.len() as u64,
            groups: group_count,
            moves,
            micros: route_micros,
        });
        // Each shard's jobs laid out group by group, with its groups as
        // ranges of that layout: the shard plans without grouping again.
        let mut handoff = Vec::with_capacity(n);
        for (shard, admitted) in self.shards.iter().zip(&assignment) {
            let (mut local, mut groups) = (Vec::new(), Vec::with_capacity(admitted.len()));
            for (pattern, members) in admitted {
                let from = local.len();
                local.extend(members.iter().map(|&i| jobs[i]));
                groups.push((*pattern, (from..local.len()).collect()));
            }
            let depth = local.len() as u64;
            self.sink.record(TraceEvent::ShardAdmitted {
                shard: shard.id as u32,
                jobs: depth,
                depth,
            });
            handoff.push((local, groups));
        }

        let joined: Vec<std::thread::Result<Result<ThroughputReport, Error>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .zip(handoff)
                    .map(|(shard, (sj, groups))| {
                        scope.spawn(move || shard.engine.run_groups(&sj, groups, Instant::now()))
                    })
                    .collect();
                // Join every shard before inspecting any outcome, so
                // one failing shard never leaves siblings running.
                handles.into_iter().map(|h| h.join()).collect()
            });

        let mut shard_reports = Vec::with_capacity(n);
        for (s, joined) in joined.into_iter().enumerate() {
            match joined {
                Ok(res) => shard_reports.push(res?),
                Err(_) => return Err(Error::WorkerPanicked { worker: s }),
            }
        }

        // Move, don't clone: each output owns its match-end list.
        let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs.len()];
        for (groups, report) in assignment.iter().zip(&mut shard_reports) {
            let globals = groups.iter().flat_map(|(_, members)| members);
            for (&global, out) in globals.zip(std::mem::take(&mut report.outputs)) {
                outputs[global] = Some(out);
            }
        }
        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("every routed job produces an output"))
            .collect();

        Ok(RouterReport {
            outputs,
            shard_reports,
            groups: group_count,
            affinity_moves: moves,
            route_micros,
            wall_micros: wall.elapsed().as_micros() as u64,
        })
    }
}

/// What one routed batch produced, merged across shards.
#[derive(Debug)]
pub struct RouterReport {
    /// One output per job, in submission order.
    pub outputs: Vec<JobOutput>,
    /// Each shard's own report, in shard order (idle shards report
    /// empty runs). Their `outputs` are drained into
    /// [`outputs`](Self::outputs), so each shard report's `outputs` is
    /// empty; its counters, worker stats and timings are intact.
    pub shard_reports: Vec<ThroughputReport>,
    /// Distinct pattern groups the batch split into.
    pub groups: u64,
    /// Groups routed away from their affinity shard to balance load.
    pub affinity_moves: u64,
    /// Wall-clock the router spent grouping and assigning.
    pub route_micros: u64,
    /// Wall-clock of the whole routed run, routing included.
    pub wall_micros: u64,
}

impl RouterReport {
    /// Total planning cost: router assignment plus every shard
    /// planner's `plan_micros`.
    pub fn plan_micros(&self) -> u64 {
        self.route_micros
            + self
                .shard_reports
                .iter()
                .map(|r| r.plan_micros)
                .sum::<u64>()
    }

    /// The gated ratio: planning cost over batch wall-clock (0 for an
    /// instantaneous run). The E36 benchmark holds this below 0.05 at
    /// 64 workers.
    pub fn planner_overhead_frac(&self) -> f64 {
        if self.wall_micros == 0 {
            return 0.0;
        }
        self.plan_micros() as f64 / self.wall_micros as f64
    }

    /// Text characters processed, summed across shards.
    pub fn total_chars(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.totals.chars).sum()
    }

    /// Batches stolen across worker deques, summed across shards.
    pub fn steals(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.totals.steals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::{text_from_letters, Symbol};

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    fn job_mix() -> Vec<Job> {
        let patterns = ["AB", "ABC", "CxT", "DEFG", "A"];
        let texts = [
            "ABCABCABQABCCABCABABC",
            "CATCOTCUTQQCAT",
            "AAAAABAAAB",
            "DEFGDEFGABDEFG",
        ];
        let mut jobs = Vec::new();
        for (i, p) in patterns.iter().enumerate() {
            for (j, t) in texts.iter().enumerate() {
                jobs.push(Job::new(
                    (i * texts.len() + j) as u64,
                    Pattern::parse(p).unwrap(),
                    letters(t),
                ));
            }
        }
        jobs
    }

    #[test]
    fn routed_outputs_match_the_scalar_spec_in_submission_order() {
        let jobs = job_mix();
        for shards in [1, 2, 3, 5] {
            let router = Router::new(RouterConfig {
                shards,
                workers_per_shard: 2,
                ..RouterConfig::default()
            });
            let report = router.run(&jobs).unwrap();
            assert_eq!(report.outputs.len(), jobs.len());
            for (job, out) in jobs.iter().zip(&report.outputs) {
                assert_eq!(out.id, job.id, "submission order broken");
                let spec = match_spec(&job.text, &job.pattern);
                assert_eq!(out.hits.bits(), &spec[..], "job {}", job.id);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn single_shard_router_equals_the_plain_engine(
            groups in crate::throughput::tests::plan_workload(),
            workers in 1usize..=7,
            w in 0usize..3,
            seed in 0u64..1000,
        ) {
            use crate::faults::{mix, XorShift64};
            use pm_systolic::symbol::{Alphabet, PatSym};
            use proptest::prelude::*;
            let width = [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8][w];
            let lanes = width.lanes();
            let mut rng = XorShift64::new(mix(seed + 1));
            let texts: Vec<Vec<Symbol>> = (0..8)
                .map(|_| {
                    let len = rng.bounded(12) as usize;
                    (0..len).map(|_| Symbol::new(rng.bounded(3) as u8)).collect()
                })
                .collect();
            // Owned jobs, each carrying its own copy of its pattern (so
            // equal patterns sit at distinct addresses), round-robin over
            // groups of `n % 3 + 1` or `n` % of a batch's lanes.
            let mut left: Vec<usize> = groups
                .iter()
                .map(|&(_, (tiny, n))| if tiny { n % 3 + 1 } else { (lanes * n / 100).max(1) })
                .collect();
            let mut jobs = Vec::new();
            while left.iter().any(|&l| l > 0) {
                for ((syms, _), l) in groups.iter().zip(&mut left) {
                    if *l > 0 {
                        *l -= 1;
                        let syms = syms
                            .iter()
                            .map(|s| s.map_or(PatSym::Wild, |v| PatSym::Lit(Symbol::new(v))))
                            .collect();
                        let pattern = Pattern::new(syms, Alphabet::TWO_BIT).unwrap();
                        let text = texts[jobs.len() % texts.len()].clone();
                        jobs.push(Job::new(jobs.len() as u64, pattern, text));
                    }
                }
            }

            let router = Router::new(RouterConfig {
                shards: 1,
                workers_per_shard: workers,
                width,
                ..RouterConfig::default()
            });
            let mut engine = ThroughputEngine::new(workers, 256);
            engine.set_width(width);
            let routed = router.run(&jobs).unwrap();
            let plain = engine.run(&jobs).unwrap();
            prop_assert_eq!(routed.outputs.len(), plain.outputs.len());
            for (a, b) in routed.outputs.iter().zip(&plain.outputs) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(a.hits.bits(), b.hits.bits());
            }
            prop_assert_eq!(routed.affinity_moves, 0, "one shard has nowhere to move");
            // The shard plans exactly the batches the plain engine does.
            let (r, p) = (&routed.shard_reports[0].totals, &plain.totals);
            prop_assert_eq!(r.batches, p.batches);
            prop_assert_eq!(r.lane_slots_used, p.lane_slots_used);
            prop_assert_eq!(r.lane_slots_total, p.lane_slots_total);
            // A batch looks each run of one pattern up once, so equal
            // lookup counts mean the same cuts through the same groups.
            prop_assert_eq!(r.cache_hits + r.cache_misses, p.cache_hits + p.cache_misses);
        }
    }

    #[test]
    fn affinity_is_deterministic() {
        let jobs = job_mix();
        let router = Router::new(RouterConfig {
            shards: 4,
            workers_per_shard: 1,
            ..RouterConfig::default()
        });
        let a = router.run(&jobs).unwrap();
        let b = router.run(&jobs).unwrap();
        assert_eq!(a.affinity_moves, b.affinity_moves);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.groups, 5, "five distinct patterns");
    }

    #[test]
    fn slot_pool_split_is_exact() {
        let pools = SlotPool::split(10, 3);
        let slices: Vec<u64> = pools.iter().map(SlotPool::capacity).collect();
        assert_eq!(slices, vec![4, 3, 3]);
        assert!(pools.iter().all(|p| p.in_flight() == 0));
    }

    #[test]
    fn empty_batch_reports_empty_everything() {
        let router = Router::new(RouterConfig::default());
        let report = router.run(&[]).unwrap();
        assert!(report.outputs.is_empty());
        assert_eq!(report.groups, 0);
        assert_eq!(report.total_chars(), 0);
        assert_eq!(report.shard_reports.len(), 4);
    }

    #[test]
    fn slot_pool_leases_and_releases() {
        let pool = SlotPool::new(100);
        assert_eq!(pool.capacity(), 100);
        let a = pool.try_lease(60).expect("fits");
        assert_eq!(a.bytes(), 60);
        assert_eq!(pool.in_flight(), 60);
        assert_eq!(pool.available(), 40);
        assert!(pool.try_lease(41).is_none(), "over budget");
        let b = pool.try_lease(40).expect("exactly fits");
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 60);
        drop(b);
        assert_eq!(pool.in_flight(), 0);
        // Zero-byte leases always succeed, even at capacity.
        let _full = pool.try_lease(100).unwrap();
        assert!(pool.try_lease(0).is_some());
    }

    #[test]
    fn slot_pool_is_exact_under_contention() {
        let pool = SlotPool::new(64);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                let mut granted = 0u64;
                for _ in 0..1000 {
                    if let Some(lease) = pool.try_lease(1) {
                        granted += 1;
                        assert!(pool.in_flight() <= 64, "budget overshot");
                        drop(lease);
                    }
                }
                granted
            }));
        }
        let granted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(granted > 0);
        assert_eq!(pool.in_flight(), 0, "every lease returned");
    }
}
