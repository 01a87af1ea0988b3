//! Multi-stream job scheduling over the bit-plane batch engines.
//!
//! The paper's throughput claim (§1: one character every 250 ns,
//! "higher than the memory bandwidth of most conventional computers")
//! describes a chip serving *one* stream very fast. A host with many
//! concurrent search jobs — the ROADMAP's "heavy traffic" scenario —
//! wants the aggregate rate instead, and the bit-plane kernel supplies
//! it: 64 independent streams per machine word, up to 512 per
//! superplane ([`pm_systolic::superplane`]). This module is the
//! host-side scheduler that keeps those lanes full:
//!
//! * [`ThroughputEngine::run`] plans batches *globally* — every job is
//!   grouped by pattern across the whole submission, so same-pattern
//!   jobs land in the same batch (one run of one compiled pattern, set
//!   up once) no matter which worker would have owned them under
//!   static sharding; groups too small to fill half a batch are packed
//!   together into full batches. Every batch is lane-packed — a
//!   pattern per lane — and runs one kernel;
//! * batches go onto per-worker deques and workers *steal*: each pops
//!   its own deque from the front and raids the back of its neighbours'
//!   when it runs dry, so a straggler batch never idles the rest of the
//!   pool;
//! * the batch width is a [`SuperWidth`] — one `u64` plane (64 lanes)
//!   or a 4- or 8-word superplane (256 / 512 lanes, the default) whose
//!   kernel is runtime-dispatched to AVX2/AVX-512 where the CPU has
//!   them ([`simd_level`]); the choice is announced once per run via
//!   [`TraceEvent::DispatchSelected`] and echoed in the
//!   [`ThroughputReport`];
//! * pattern → control-bit-plane compilation is memoised twice over: a
//!   private [`PatternCache`] per worker (no lock at all on the hot
//!   path) backed by a shared read-mostly [`PatternIndex`] that
//!   persists across runs, so the setup cost the paper's §3.3.1
//!   analysis worries about ("loading this pattern") is paid once per
//!   *distinct* pattern, not once per job — and never behind a global
//!   mutex;
//! * every worker runs one loop and buffers its outputs; the
//!   coordinator commits them once all threads have joined. An
//!   installed [`ResiliencePolicy`] adds fault tolerance to that loop —
//!   a watchdog, lane scrubbing, `catch_unwind` containment and an exit
//!   known-answer test gating each worker's commit — plus a recovery
//!   ladder for whatever a condemned worker left unresolved;
//! * per-worker [`WorkerStats`] and whole-run rates (chars/sec, lane
//!   occupancy, cache hit rate) are surfaced through the
//!   [`counters`](crate::counters) module.
//!
//! Results are bit-identical to running every job alone through the
//! scalar array — property-tested against the executable spec.
//!
//! ```
//! use pm_chip::throughput::{Job, ThroughputEngine};
//! use pm_systolic::symbol::{Pattern, text_from_letters};
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! let pattern = Pattern::parse("AXC")?;
//! let jobs: Vec<Job> = (0..3)
//!     .map(|id| Job::new(id, pattern.clone(), text_from_letters("ABCAACCAB").unwrap()))
//!     .collect();
//! let engine = ThroughputEngine::new(2, 16);
//! let report = engine.run(&jobs)?;
//! assert_eq!(report.outputs[0].hits.ending_positions(), vec![2, 5, 6]);
//! assert_eq!(report.totals.jobs, 3);
//! let again = engine.run(&jobs)?; // the compiled planes are indexed now
//! assert_eq!(again.totals.cache_misses, 0);
//! # Ok(())
//! # }
//! ```

use crate::counters::{Counter, CounterSnapshot, RateWindow, ThroughputCounters};
use crate::faults::{corrupt_bits, mix, FaultPlan, PlaneFault, StickyFault, XorShift64};
use crate::host::RetryPolicy;
use pm_matchers::software_fallback;
use pm_systolic::batch::CompiledPattern;
use pm_systolic::engine::MatchBits;
use pm_systolic::error::Error;
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::{lanes_of, match_lanes_wide, simd_level, SimdLevel};
use pm_systolic::symbol::{text_from_letters, Pattern, Symbol};
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Default sliding window for [`ThroughputEngine::windowed_chars_per_sec`].
const RATE_WINDOW: Duration = Duration::from_secs(30);

/// How wide one batch is: the number of 64-lane machine words packed
/// side by side in each bit plane.
///
/// Every width runs the same lane-packed kernel of
/// [`pm_systolic::superplane`] — [`W1`](SuperWidth::W1) one `u64`
/// word wide, [`W4`](SuperWidth::W4) and [`W8`](SuperWidth::W8) as
/// 4- and 8-word superplanes — runtime-dispatched to AVX2/AVX-512 on
/// CPUs that have them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuperWidth {
    /// One `u64` word per plane: 64 lanes per batch.
    W1,
    /// Four words per plane: 256 lanes per batch.
    W4,
    /// Eight words per plane: 512 lanes per batch (the default).
    #[default]
    W8,
}

impl SuperWidth {
    /// Plane width in 64-bit words.
    pub const fn words(self) -> usize {
        match self {
            SuperWidth::W1 => 1,
            SuperWidth::W4 => 4,
            SuperWidth::W8 => 8,
        }
    }

    /// Lane slots one batch of this width offers.
    pub const fn lanes(self) -> usize {
        lanes_of(self.words())
    }

    /// Short human label for figures and reports.
    pub const fn label(self) -> &'static str {
        match self {
            SuperWidth::W1 => "u64",
            SuperWidth::W4 => "superplane-4",
            SuperWidth::W8 => "superplane-8",
        }
    }
}

impl fmt::Display for SuperWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One incoming unit of work: match `pattern` against `text`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the [`JobOutput`].
    pub id: u64,
    /// The pattern to search for (wild cards allowed).
    pub pattern: Pattern,
    /// The text stream to search.
    pub text: Vec<Symbol>,
}

impl Job {
    /// Bundles a job.
    pub fn new(id: u64, pattern: Pattern, text: Vec<Symbol>) -> Self {
        Job { id, pattern, text }
    }

    /// A borrowed view of this job for the zero-copy entry points.
    pub fn to_ref(&self) -> JobRef<'_> {
        JobRef {
            id: self.id,
            pattern: &self.pattern,
            text: &self.text,
        }
    }
}

/// A borrowed unit of work: the zero-copy twin of [`Job`].
///
/// The ingestion layer ([`crate::ingest`]) and the
/// [`Router`](crate::shard::Router) hand the scheduler `&[Symbol]`
/// slices straight out of a paged corpus or a client buffer; nothing
/// on the batch path needs an owned `Vec`, so
/// [`ThroughputEngine::run_refs`] takes these and [`Job`] is just the
/// owning convenience wrapper.
#[derive(Debug, Clone, Copy)]
pub struct JobRef<'a> {
    /// Caller-chosen identifier, echoed in the [`JobOutput`].
    pub id: u64,
    /// The pattern to search for (wild cards allowed).
    pub pattern: &'a Pattern,
    /// The text slice to search.
    pub text: &'a [Symbol],
}

/// The completed result of one [`Job`].
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The job's identifier.
    pub id: u64,
    /// One result bit per text position, as from the scalar matcher.
    pub hits: MatchBits,
}

/// An LRU cache of compiled pattern control planes, keyed by pattern.
///
/// Compilation walks the pattern and allocates its broadcast planes;
/// a hot service sees the same handful of patterns over and over, so
/// the cache turns per-job setup into per-*distinct*-pattern setup.
/// Each scheduler worker owns one privately (no locking); the shared
/// tier behind it is a [`PatternIndex`].
///
/// ```
/// use pm_chip::throughput::PatternCache;
/// use pm_systolic::symbol::Pattern;
///
/// let mut cache = PatternCache::new(2);
/// let a = Pattern::parse("AB").unwrap();
/// let (_, hit) = cache.get_or_compile(&a);
/// assert!(!hit); // first sight compiles
/// let (_, hit) = cache.get_or_compile(&a);
/// assert!(hit); // second is served from cache
/// ```
#[derive(Debug)]
pub struct PatternCache {
    capacity: usize,
    tick: u64,
    map: HashMap<Pattern, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    compiled: Arc<CompiledPattern>,
    last_used: u64,
}

impl PatternCache {
    /// A cache holding at most `capacity` compiled patterns (at least
    /// one).
    pub fn new(capacity: usize) -> Self {
        PatternCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks `pattern` up, refreshing its recency on a hit.
    pub fn get(&mut self, pattern: &Pattern) -> Option<Arc<CompiledPattern>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(pattern).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.compiled)
        })
    }

    /// Stores an already-compiled pattern, evicting the least recently
    /// used entry if the cache is full.
    pub fn insert(&mut self, pattern: &Pattern, compiled: Arc<CompiledPattern>) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(pattern) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(p, _)| p.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(
            pattern.clone(),
            CacheEntry {
                compiled,
                last_used: self.tick,
            },
        );
    }

    /// Returns the compiled planes for `pattern` and whether the lookup
    /// was a hit, compiling and (LRU-)evicting on a miss.
    pub fn get_or_compile(&mut self, pattern: &Pattern) -> (Arc<CompiledPattern>, bool) {
        if let Some(compiled) = self.get(pattern) {
            return (compiled, true);
        }
        let compiled = Arc::new(CompiledPattern::compile(pattern));
        self.insert(pattern, Arc::clone(&compiled));
        (compiled, false)
    }

    /// Number of patterns currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of cached patterns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The shared, read-mostly tier of pattern memoisation: a
/// `RwLock`-guarded map that persists across runs of a
/// [`ThroughputEngine`].
///
/// Workers consult it only after missing their private
/// [`PatternCache`], take the write lock only to publish a freshly
/// compiled pattern, and never hold any lock while matching — the old
/// global `Mutex<PatternCache>` serialised every lookup of every
/// worker through one point. Eviction is FIFO by publication order
/// (recency lives in the per-worker caches; the index only has to
/// bound memory).
#[derive(Debug)]
pub struct PatternIndex {
    capacity: usize,
    inner: RwLock<IndexInner>,
}

#[derive(Debug, Default)]
struct IndexInner {
    map: HashMap<Pattern, Arc<CompiledPattern>>,
    fifo: VecDeque<Pattern>,
}

impl PatternIndex {
    /// An index holding at most `capacity` compiled patterns (at least
    /// one).
    pub fn new(capacity: usize) -> Self {
        PatternIndex {
            capacity: capacity.max(1),
            inner: RwLock::new(IndexInner::default()),
        }
    }

    /// Looks `pattern` up under the read lock.
    pub fn get(&self, pattern: &Pattern) -> Option<Arc<CompiledPattern>> {
        self.inner
            .read()
            .expect("index poisoned")
            .map
            .get(pattern)
            .cloned()
    }

    /// Publishes a compiled pattern under the write lock, evicting the
    /// oldest publication at capacity. Concurrent publishers of the
    /// same pattern are harmless: the first insert wins and later ones
    /// are no-ops.
    pub fn publish(&self, pattern: &Pattern, compiled: Arc<CompiledPattern>) {
        let mut inner = self.inner.write().expect("index poisoned");
        if inner.map.contains_key(pattern) {
            return;
        }
        while inner.map.len() >= self.capacity {
            match inner.fifo.pop_front() {
                Some(oldest) => {
                    inner.map.remove(&oldest);
                }
                None => break,
            }
        }
        inner.map.insert(pattern.clone(), compiled);
        inner.fifo.push_back(pattern.clone());
    }

    /// Number of patterns currently indexed.
    pub fn len(&self) -> usize {
        self.inner.read().expect("index poisoned").map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of indexed patterns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// What one worker thread did during a run.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Text characters this worker pushed through the engine.
    pub chars: u64,
    /// Batches this worker executed.
    pub batches: u64,
    /// Lane slots this worker filled, out of `lane_slots`.
    pub lanes_used: u64,
    /// Lane slots this worker's batches offered (64 per `u64` batch,
    /// `W × 64` per width-`W` superplane batch).
    pub lane_slots: u64,
    /// Wall-clock time this worker spent matching.
    pub elapsed: Duration,
}

impl WorkerStats {
    fn idle(worker: usize) -> Self {
        WorkerStats {
            worker,
            jobs: 0,
            chars: 0,
            batches: 0,
            lanes_used: 0,
            lane_slots: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// This worker's character rate.
    pub fn chars_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.chars as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of this worker's lane slots that carried a stream.
    pub fn lane_occupancy(&self) -> f64 {
        if self.lane_slots > 0 {
            self.lanes_used as f64 / self.lane_slots as f64
        } else {
            0.0
        }
    }
}

/// The outcome of one [`ThroughputEngine::run`].
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// One output per input job, in input order.
    pub outputs: Vec<JobOutput>,
    /// Per-worker statistics (idle workers report zero batches).
    pub workers: Vec<WorkerStats>,
    /// Whole-run counters and derived rates.
    pub totals: CounterSnapshot,
    /// The instruction-set level the superplane kernels dispatched to
    /// this run (process-wide; `Portable` also covers the `u64` width,
    /// which has no specialised kernels).
    pub simd: SimdLevel,
    /// Lane slots per batch at the width this run used.
    pub lanes_per_batch: usize,
    /// Wall-clock microseconds the global batch planner spent before
    /// any worker started — the scheduler-overhead half of the
    /// router's `planner_overhead_frac` accounting.
    pub plan_micros: u64,
    /// What the fault-tolerant scheduler saw and did, when a
    /// [`ResiliencePolicy`] is installed (`None` without one).
    pub resilience: Option<ResilienceReport>,
}

/// Tunables of the fault-tolerant scheduler layer. Installing one via
/// [`ThroughputEngine::set_resilience`] arms four tripwires in the
/// scheduler's one worker loop: every batch runs under `catch_unwind`
/// and a wall-clock watchdog, a sampled lane is periodically re-checked
/// against the scalar spec, and each worker must pass an exit
/// known-answer test before its buffered results commit. Detected
/// faults void the worker's results and send its jobs down the recovery
/// ladder (retry → narrower width → software fallback), so committed
/// output is spec-identical even under active fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResiliencePolicy {
    /// Re-run one random lane of every Nth batch (per worker) through
    /// the scalar spec; 0 disables sampling (the exit known-answer test
    /// still gates commits).
    pub scrub_period_batches: u64,
    /// Wall-clock bound on one batch; a slower batch condemns the
    /// worker as stalled.
    pub watchdog: Duration,
    /// Backoff schedule for recovery-ladder retries (shares
    /// [`RetryPolicy`] with the single-stream host bus).
    pub retry: RetryPolicy,
    /// Clean batches required before the ladder climbs back up a rung.
    pub repromote_after: u64,
    /// Wall-clock length of one backoff beat.
    pub beat: Duration,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            scrub_period_batches: 4,
            watchdog: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            repromote_after: 32,
            beat: Duration::from_micros(20),
        }
    }
}

/// What the resilient scheduler observed during one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Chaos-harness faults that fired in workers.
    pub faults_injected: u64,
    /// Sampled-lane scrubs that disagreed with the scalar spec.
    pub scrub_mismatches: u64,
    /// Quarantined workers and the label of what condemned each.
    pub quarantined: Vec<(usize, &'static str)>,
    /// Jobs whose first execution was voided and went to recovery.
    pub recovered_jobs: u64,
    /// Recovery-batch executions on hardware rungs (every attempt).
    pub retried_batches: u64,
    /// Ladder demotions this run (includes the move to software).
    pub demotions: u64,
    /// Ladder re-promotions this run.
    pub promotions: u64,
    /// Jobs that ended up on the software-fallback rung.
    pub fallback_jobs: u64,
    /// The engine's ladder rung after this run, as a superplane width
    /// in words (the next run's starting width).
    pub ladder_words: usize,
}

/// The engine's persistent position on the degradation ladder: an
/// index into [`ladder_rungs`] plus the count of consecutively clean
/// batches driving re-promotion.
#[derive(Debug, Default)]
struct LadderState {
    rung: AtomicUsize,
    clean: AtomicU64,
}

/// The hardware rungs below (and including) a starting width, widest
/// first; the software fallback sits below the last.
fn ladder_rungs(width: SuperWidth) -> &'static [SuperWidth] {
    match width {
        SuperWidth::W8 => &[SuperWidth::W8, SuperWidth::W4, SuperWidth::W1],
        SuperWidth::W4 => &[SuperWidth::W4, SuperWidth::W1],
        SuperWidth::W1 => &[SuperWidth::W1],
    }
}

/// Groups the job indices `picks` by pattern, preserving first-seen
/// order — the shared first stage of the batch planner below, the
/// recovery ladder and the [`Router`](crate::shard::Router)'s affinity
/// planner.
///
/// Jobs are keyed by their pattern's *address* first. The ingest and
/// router paths hand over many jobs borrowing one `&Pattern`, and those
/// group without hashing any pattern contents: a pattern is hashed by
/// value only the first time its address is seen. Equal patterns at
/// distinct addresses — owned [`Job`]s, each carrying its own copy —
/// still merge through that by-value lookup.
pub(crate) fn group_by_pattern<'a>(
    jobs: &[JobRef<'a>],
    picks: impl IntoIterator<Item = usize>,
) -> Vec<(&'a Pattern, Vec<usize>)> {
    let mut groups: Vec<(&'a Pattern, Vec<usize>)> = Vec::new();
    let mut by_addr: HashMap<*const Pattern, usize> = HashMap::new();
    let mut by_value: HashMap<&'a Pattern, usize> = HashMap::new();
    for i in picks {
        let pattern = jobs[i].pattern;
        let g = *by_addr
            .entry(std::ptr::from_ref(pattern))
            .or_insert_with(|| {
                *by_value.entry(pattern).or_insert_with(|| {
                    groups.push((pattern, Vec::new()));
                    groups.len() - 1
                })
            });
        groups[g].1.push(i);
    }
    groups
}

/// Groups all jobs by pattern (first-seen order) and cuts the groups
/// into width-sized batches so that every lane carries a stream. Each
/// batch is a list of global job indices, one per lane, and every
/// batch runs the same lane-packed kernel:
///
/// * a group of at least `lanes / 2` jobs fills most of a batch on its
///   own and is cut into batches of that one pattern;
/// * smaller groups share one pool, length-bucketed via
///   [`plan::bucket_by_len`](crate::plan::bucket_by_len) — so one long
///   pattern can't inflate the `kmax` of every batch it touches, and
///   each group's members stay contiguous — and cut evenly into
///   batches.
///
/// The pool yields `ceil(pooled / lanes)` batches, but never fewer
/// than `min(workers, pooled groups)`: packing must not leave a worker
/// idle that one batch per group would have kept busy. (A pool of one
/// group is therefore one batch.) Global planning is what lets
/// same-pattern jobs share a batch regardless of submission order.
fn plan_batches(jobs: &[JobRef<'_>], lanes: usize, workers: usize) -> Vec<Vec<usize>> {
    let mut plan = Vec::new();
    let mut pool: Vec<Vec<usize>> = Vec::new();
    for (_, members) in group_by_pattern(jobs, 0..jobs.len()) {
        if members.len() < lanes / 2 {
            pool.push(members);
        } else {
            plan.extend(members.chunks(lanes).map(<[usize]>::to_vec));
        }
    }
    if !pool.is_empty() {
        let mut pooled = pool.concat();
        crate::plan::bucket_by_len(&mut pooled, |&i| jobs[i].pattern.len());
        let batches = pooled.len().div_ceil(lanes).max(workers.min(pool.len()));
        let (base, extra) = (pooled.len() / batches, pooled.len() % batches);
        let mut rest = pooled.as_slice();
        for b in 0..batches {
            let (batch, tail) = rest.split_at(base + usize::from(b < extra));
            plan.push(batch.to_vec());
            rest = tail;
        }
    }
    plan
}

/// Per-worker deques of batch indices with work stealing: a worker
/// drains its own deque from the front and, when empty, steals from
/// the *back* of its neighbours' — the classic arrangement that keeps
/// owner and thief on opposite ends.
struct WorkQueue {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkQueue {
    /// Distributes `batches` batch indices round-robin over `workers`
    /// deques.
    fn new(batches: usize, workers: usize) -> Self {
        let mut deques: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for b in 0..batches {
            deques[b % workers].push_back(b);
        }
        WorkQueue {
            deques: deques.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The next batch for `worker`: its own front, else a steal from
    /// another deque's back (the victim's index rides along so the
    /// caller can book the steal). `None` means every batch is claimed.
    fn next(&self, worker: usize) -> Option<(usize, Option<usize>)> {
        if let Some(b) = self.deques[worker]
            .lock()
            .expect("queue poisoned")
            .pop_front()
        {
            return Some((b, None));
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            if let Some(b) = self.deques[victim]
                .lock()
                .expect("queue poisoned")
                .pop_back()
            {
                return Some((b, Some(victim)));
            }
        }
        None
    }
}

/// Plans batches globally, then lets worker threads pull them from
/// work-stealing deques, each driving a bit-plane batch engine of the
/// configured [`SuperWidth`]. Compiled patterns persist across runs in
/// a shared [`PatternIndex`] behind per-worker [`PatternCache`]s.
#[derive(Debug)]
pub struct ThroughputEngine {
    workers: usize,
    width: SuperWidth,
    cache_capacity: usize,
    index: PatternIndex,
    sink: SinkHandle,
    /// Characters processed across every run of this engine's lifetime.
    lifetime_chars: Counter,
    /// Sliding window over `lifetime_chars`, sampled after each run.
    rate: RateWindow,
    /// Fault-tolerant scheduling, when installed.
    resilience: Option<ResiliencePolicy>,
    /// Seeded chaos campaign, when armed (orthogonal to `resilience`:
    /// a plan without a policy injects faults nobody contains, which is
    /// what the unprotected regression tests want).
    chaos: Option<FaultPlan>,
    /// Persistent degradation-ladder position across runs.
    ladder: LadderState,
}

impl ThroughputEngine {
    /// An engine with `workers` threads (at least one) and pattern
    /// caches of `cache_capacity` entries each (one shared index plus
    /// one private cache per worker). Batches default to the widest
    /// superplane ([`SuperWidth::W8`]); telemetry is disabled; use
    /// [`with_sink`](Self::with_sink) or [`set_sink`](Self::set_sink)
    /// to attach a sink and [`set_width`](Self::set_width) to narrow
    /// the batches.
    pub fn new(workers: usize, cache_capacity: usize) -> Self {
        Self::with_sink(workers, cache_capacity, SinkHandle::null())
    }

    /// As [`new`](Self::new), with a trace sink the workers emit job
    /// lifecycle, batch, dispatch and cache events into.
    pub fn with_sink(workers: usize, cache_capacity: usize, sink: SinkHandle) -> Self {
        ThroughputEngine {
            workers: workers.max(1),
            width: SuperWidth::default(),
            cache_capacity: cache_capacity.max(1),
            index: PatternIndex::new(cache_capacity),
            sink,
            lifetime_chars: Counter::new(),
            rate: {
                let rate = RateWindow::new(RATE_WINDOW);
                rate.sample(0); // construction anchors the window
                rate
            },
            resilience: None,
            chaos: None,
            ladder: LadderState::default(),
        }
    }

    /// Replaces the trace sink (e.g. to enable telemetry on a running
    /// engine between runs).
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Selects the batch width for subsequent runs. Also resets the
    /// degradation ladder, whose rungs descend from this width.
    pub fn set_width(&mut self, width: SuperWidth) {
        self.width = width;
        self.ladder.rung.store(0, Ordering::Relaxed);
        self.ladder.clean.store(0, Ordering::Relaxed);
    }

    /// Installs (or removes) the fault-tolerant scheduler layer: the
    /// policy's tripwires, the recovery ladder and the
    /// [`ResilienceReport`]. Workers run the same loop and buffer their
    /// outputs either way.
    pub fn set_resilience(&mut self, policy: Option<ResiliencePolicy>) {
        self.resilience = policy;
    }

    /// The installed resilience policy, if any.
    pub fn resilience(&self) -> Option<ResiliencePolicy> {
        self.resilience
    }

    /// Arms (or disarms) a seeded chaos campaign. A plan without a
    /// resilience policy injects faults nobody contains: data faults
    /// silently corrupt results and panics surface as
    /// [`Error::WorkerPanicked`] — the harness the regression tests
    /// point at an unprotected engine. With a policy installed, the
    /// same plan exercises detection and recovery instead.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.chaos = plan;
    }

    /// The armed chaos plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.chaos.as_ref()
    }

    /// The width the *next* run under a [`ResiliencePolicy`] will use:
    /// the configured width lowered to the ladder's current rung. A run
    /// without a policy ignores the ladder and uses the configured
    /// width.
    pub fn ladder_width(&self) -> SuperWidth {
        let rungs = ladder_rungs(self.width);
        rungs[self
            .ladder
            .rung
            .load(Ordering::Relaxed)
            .min(rungs.len() - 1)]
    }

    /// The batch width subsequent runs will use.
    pub fn width(&self) -> SuperWidth {
        self.width
    }

    /// Lane slots per batch at the current width.
    pub fn lanes_per_batch(&self) -> usize {
        self.width.lanes()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of distinct patterns currently in the shared index.
    pub fn cached_patterns(&self) -> usize {
        self.index.len()
    }

    /// Characters processed across this engine's whole lifetime.
    pub fn lifetime_chars(&self) -> u64 {
        self.lifetime_chars.get()
    }

    /// Current throughput over the last ~30 s of wall clock — the
    /// windowed rate a long-running scheduler should report, as opposed
    /// to the lifetime average a finite benchmark wants
    /// ([`CounterSnapshot::chars_per_sec`]). Returns 0.0 until two runs
    /// have completed inside the window.
    pub fn windowed_chars_per_sec(&self) -> f64 {
        self.rate.rate()
    }

    /// Runs every job to completion and reports results plus stats.
    /// Output `i` belongs to input job `i` regardless of which worker
    /// or batch carried it.
    ///
    /// Workers buffer their outputs and the coordinator commits them
    /// once every thread has joined. With a [`ResiliencePolicy`]
    /// installed the run is also fault-tolerant: a worker's buffer
    /// commits only after the worker passes its exit known-answer test,
    /// and anything voided is re-executed down the degradation ladder
    /// with full verification against the scalar spec — so outputs are
    /// spec-identical even under an armed [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// Without a policy, an injected (or genuine) worker panic surfaces
    /// as [`Error::WorkerPanicked`] and an engine failure as the
    /// engine's own error, both *after* every worker thread has been
    /// joined — an early failure never leaks running threads. With a
    /// policy, panics and engine errors condemn the worker instead and
    /// the run returns `Ok`.
    pub fn run(&self, jobs: &[Job]) -> Result<ThroughputReport, Error> {
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        self.run_refs(&refs)
    }

    /// As [`run`](Self::run), over borrowed jobs — the zero-copy entry
    /// point the ingestion layer and the [`Router`](crate::shard::Router)
    /// use, so text slices flow from a paged corpus straight into the
    /// kernels without an owning copy per job.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_refs(&self, jobs: &[JobRef<'_>]) -> Result<ThroughputReport, Error> {
        let started = Instant::now();
        let policy = self.resilience;
        let rungs = ladder_rungs(self.width);
        // Only a policy rides the ladder; without one every run keeps
        // the configured width.
        let rung0 = policy.map_or(0, |_| {
            self.ladder
                .rung
                .load(Ordering::Relaxed)
                .min(rungs.len() - 1)
        });
        let width = rungs[rung0];
        let simd = simd_level();
        self.sink.record(TraceEvent::DispatchSelected {
            words: width.words() as u32,
            level: simd,
        });

        let counters = ThroughputCounters::new();
        let plan_timer = Instant::now();
        let plan = plan_batches(jobs, width.lanes(), self.workers);
        let plan_micros = plan_timer.elapsed().as_micros() as u64;
        let queue = WorkQueue::new(plan.len(), self.workers);

        let joined: Vec<std::thread::Result<Result<WorkerOutcome, Error>>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.workers)
                    .map(|w| {
                        let (counters, plan, queue) = (&counters, &plan, &queue);
                        scope
                            .spawn(move || self.work(w, jobs, plan, queue, counters, width, policy))
                    })
                    .collect();
                // Join every handle before inspecting any outcome, so a
                // panicked worker cannot leave its siblings running when
                // we bail out below.
                handles.into_iter().map(|h| h.join()).collect()
            });
        let mut outcomes = Vec::with_capacity(self.workers);
        for (w, joined) in joined.into_iter().enumerate() {
            outcomes.push(match joined {
                Ok(outcome) => outcome,
                // Under a policy a panic that escaped containment can
                // only come from the worker harness itself, not a
                // batch: void the worker like a quarantined one.
                Err(_) if policy.is_some() => {
                    Ok(WorkerOutcome::condemned(w, PlaneFault::WorkerPanic.label()))
                }
                Err(_) => return Err(Error::WorkerPanicked { worker: w }),
            });
        }

        let mut outputs: Vec<Option<JobOutput>> = vec![None; jobs.len()];
        let mut report = ResilienceReport::default();
        let mut worker_stats = Vec::with_capacity(self.workers);
        for (w, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome?;
            report.faults_injected += outcome.faults_injected;
            report.scrub_mismatches += outcome.scrub_mismatches;
            if let Some(label) = outcome.condemned {
                self.sink.record(TraceEvent::WorkerQuarantined {
                    worker: w as u32,
                    label,
                });
                report.quarantined.push((w, label));
            } else {
                // Commit: fold the worker's buffered outputs and its
                // stats into the run's ground truth. (The enabled()
                // guard matters: `hits.count()` walks every output
                // bit, a price only a listening sink should charge.)
                if self.sink.enabled() {
                    for (idx, out) in &outcome.outs {
                        self.sink.record(TraceEvent::JobCompleted {
                            job: out.id,
                            worker: w as u32,
                            chars: jobs[*idx].text.len() as u64,
                            matches: out.hits.count() as u64,
                        });
                    }
                }
                counters.jobs.add(outcome.stats.jobs);
                counters.chars.add(outcome.stats.chars);
                counters.batches.add(outcome.stats.batches);
                counters.lane_slots_used.add(outcome.stats.lanes_used);
                counters.lane_slots_total.add(outcome.stats.lane_slots);
                for (idx, out) in outcome.outs {
                    outputs[idx] = Some(out);
                }
            }
            worker_stats.push(outcome.stats);
        }

        if let Some(policy) = policy {
            // Everything not committed — batches of quarantined
            // workers, batches left unclaimed because every worker was
            // condemned — goes down the recovery ladder.
            let unresolved: Vec<usize> =
                (0..jobs.len()).filter(|&i| outputs[i].is_none()).collect();
            report.recovered_jobs = unresolved.len() as u64;
            let deepest = self.recover(
                jobs,
                &unresolved,
                &mut outputs,
                rungs,
                rung0,
                policy,
                &counters,
                &mut report,
            );

            // Ladder bookkeeping: a demoted run parks the engine on the
            // deepest rung recovery needed; a clean run counts toward
            // re-promotion.
            if deepest > rung0 {
                self.ladder
                    .rung
                    .store(deepest.min(rungs.len() - 1), Ordering::Relaxed);
                self.ladder.clean.store(0, Ordering::Relaxed);
            } else if unresolved.is_empty() && rung0 > 0 {
                let clean = self
                    .ladder
                    .clean
                    .fetch_add(plan.len() as u64, Ordering::Relaxed)
                    + plan.len() as u64;
                if clean >= policy.repromote_after {
                    let up = rung0 - 1;
                    self.ladder.rung.store(up, Ordering::Relaxed);
                    self.ladder.clean.store(0, Ordering::Relaxed);
                    self.sink.record(TraceEvent::LadderMoved {
                        words: rungs[up].words() as u32,
                        down: false,
                    });
                    report.promotions += 1;
                }
            }
            report.ladder_words = self.ladder_width().words();
        }

        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("every job is committed or recovered"))
            .collect();
        let totals = counters.snapshot(started.elapsed());
        self.lifetime_chars.add(totals.chars);
        self.rate.sample(self.lifetime_chars.get());
        Ok(ThroughputReport {
            outputs,
            workers: worker_stats,
            totals,
            simd,
            lanes_per_batch: width.lanes(),
            plan_micros,
            resilience: policy.map(|_| report),
        })
    }

    /// One worker: pull batches from the stealing queue until none
    /// remain, buffering every batch's outputs for the coordinator to
    /// commit.
    ///
    /// Without a policy nothing contains an armed chaos plan's faults:
    /// corruption flows into the outputs, a panic unwinds to the join
    /// in [`run_refs`](Self::run_refs) and an engine error returns
    /// as-is. A policy adds the four tripwires — every batch runs under
    /// `catch_unwind` and a wall-clock watchdog, a sampled lane is
    /// periodically re-run through the scalar spec, and the worker must
    /// pass the exit known-answer test before its buffer commits. A
    /// tripped wire condemns the worker: its buffer is voided and the
    /// coordinator recovers its jobs down the ladder.
    #[allow(clippy::too_many_arguments)]
    fn work(
        &self,
        worker: usize,
        jobs: &[JobRef<'_>],
        plan: &[Vec<usize>],
        queue: &WorkQueue,
        counters: &ThroughputCounters,
        width: SuperWidth,
        policy: Option<ResiliencePolicy>,
    ) -> Result<WorkerOutcome, Error> {
        let started = Instant::now();
        let sink = &self.sink;
        let mut local = PatternCache::new(self.cache_capacity);
        let mut stats = WorkerStats::idle(worker);
        let mut outs: Vec<(usize, JobOutput)> = Vec::new();
        let sticky = self.chaos.as_ref().and_then(|p| p.worker_fault(worker));
        let stall_millis = self.chaos.as_ref().map_or(0, |p| p.stall_millis());
        let mut scrub_rng = XorShift64::new(mix(worker as u64 + 1) ^ 0x5C4B_0000);
        let mut batch_no = 0u64;
        let mut faults_injected = 0u64;
        let mut scrub_mismatches = 0u64;
        let mut condemned: Option<&'static str> = None;

        while let Some((b, stolen_from)) = queue.next(worker) {
            if let Some(victim) = stolen_from {
                counters.steals.add(1);
                sink.record(TraceEvent::BatchStolen {
                    worker: worker as u32,
                    victim: victim as u32,
                });
            }
            let members = &plan[b];
            if sink.enabled() {
                for &i in members {
                    sink.record(TraceEvent::JobStarted {
                        job: jobs[i].id,
                        worker: worker as u32,
                    });
                }
            }
            let timer = (policy.is_some() || sink.enabled()).then(Instant::now);
            let active = sticky.filter(|f| batch_no >= f.onset);
            let mut execute = || -> Result<Vec<MatchBits>, Error> {
                let (mut hits, cache_hit) = execute_members(
                    &plan[b],
                    jobs,
                    &mut local,
                    &self.index,
                    counters,
                    sink,
                    width,
                )?;
                if let Some(f) = active {
                    sink.record(TraceEvent::FaultInjected {
                        worker: worker as u32,
                        label: f.kind.label(),
                    });
                    faults_injected += 1;
                    apply_sticky(
                        f,
                        batch_no,
                        stall_millis,
                        members,
                        jobs,
                        &mut hits,
                        cache_hit,
                    );
                }
                Ok(hits)
            };
            // Only a policy contains panics; without one they unwind to
            // the join.
            let executed = match policy {
                Some(_) => catch_unwind(AssertUnwindSafe(execute)),
                None => Ok(execute()),
            };
            batch_no += 1;
            let hits = match executed {
                Err(_) => {
                    condemned = Some(PlaneFault::WorkerPanic.label());
                    break;
                }
                Ok(Err(e)) if policy.is_none() => return Err(e),
                Ok(Err(_)) => {
                    condemned = Some("engine_error");
                    break;
                }
                Ok(Ok(hits)) => hits,
            };
            let elapsed = timer.map_or(Duration::ZERO, |t| t.elapsed());
            if let Some(policy) = policy {
                if elapsed > policy.watchdog {
                    condemned = Some(PlaneFault::WorkerStall.label());
                    break;
                }
                if policy.scrub_period_batches > 0
                    && batch_no.is_multiple_of(policy.scrub_period_batches)
                {
                    let pos = scrub_rng.bounded(members.len() as u64 - 1) as usize;
                    let i = members[pos];
                    if hits[pos].bits() != match_spec(jobs[i].text, jobs[i].pattern).as_slice() {
                        sink.record(TraceEvent::ScrubMismatch {
                            worker: worker as u32,
                            batch: b as u64,
                        });
                        scrub_mismatches += 1;
                        condemned = Some("scrub_mismatch");
                        break;
                    }
                }
            }
            book_pending(
                members,
                hits,
                jobs,
                &mut outs,
                &mut stats,
                sink,
                elapsed.as_micros() as u64,
                width,
            );
        }

        // Exit known-answer test: the commit gate. Faults are sticky, so
        // a datapath fault that was active during any pending batch is
        // still active here and must reveal itself on the known answers.
        // Every worker runs it, even one whose batches were all stolen,
        // so a fault active from batch 0 quarantines its worker whatever
        // the steal order.
        if policy.is_some()
            && condemned.is_none()
            && !known_answer_test(worker, width, &mut local, sticky, batch_no)
        {
            condemned = Some("kat_mismatch");
        }
        if condemned.is_some() {
            outs.clear();
            stats = WorkerStats::idle(worker);
        }
        stats.elapsed = started.elapsed();
        Ok(WorkerOutcome {
            stats,
            outs,
            condemned,
            faults_injected,
            scrub_mismatches,
        })
    }

    /// Re-executes unresolved jobs down the ladder: group by pattern at
    /// the rung's width, retry with backoff, verify *every* lane
    /// against the scalar spec, descend on failure, land on the
    /// software fallback when hardware rungs are exhausted. Returns the
    /// deepest hardware rung index recovery used (`rung0` when nothing
    /// needed recovery; `rungs.len()` when the fallback was needed).
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &self,
        jobs: &[JobRef<'_>],
        unresolved: &[usize],
        outputs: &mut [Option<JobOutput>],
        rungs: &'static [SuperWidth],
        rung0: usize,
        policy: ResiliencePolicy,
        counters: &ThroughputCounters,
        report: &mut ResilienceReport,
    ) -> usize {
        if unresolved.is_empty() {
            return rung0;
        }
        let mut deepest = rung0;
        let mut cache = PatternCache::new(self.cache_capacity.max(unresolved.len()));
        // Group unresolved jobs by pattern so each recovery batch is one
        // run of one compiled pattern, then chunk at the *narrowest*
        // rung width so one chunk fits every rung it may descend
        // through.
        let narrow = rungs[rungs.len() - 1].lanes();
        let mut chunk_no = 0usize;
        for (pattern, members) in group_by_pattern(jobs, unresolved.iter().copied()) {
            let (compiled, _) = cache.get_or_compile(pattern);
            for chunk in members.chunks(narrow) {
                let batch: Vec<(&CompiledPattern, &[Symbol])> = chunk
                    .iter()
                    .map(|&i| (compiled.as_ref(), jobs[i].text))
                    .collect();
                let truth: Vec<Vec<bool>> = chunk
                    .iter()
                    .map(|&i| match_spec(jobs[i].text, pattern))
                    .collect();
                let mut committed = false;
                for (ri, &rung) in rungs.iter().enumerate().skip(rung0) {
                    let attempts = policy.retry.max_retries.max(1);
                    for attempt in 1..=attempts {
                        if attempt > 1 {
                            let beats = policy.retry.backoff_beats(attempt - 1);
                            self.sink.record(TraceEvent::HostRetry {
                                attempt,
                                backoff_beats: beats,
                            });
                            let nap = policy
                                .beat
                                .saturating_mul(beats.min(u64::from(u32::MAX)) as u32);
                            std::thread::sleep(nap);
                        }
                        self.sink.record(TraceEvent::BatchRetried {
                            batch: chunk_no as u64,
                            attempt,
                            words: rung.words() as u32,
                        });
                        report.retried_batches += 1;
                        let Ok(hits) = run_lanes(rung, &batch) else {
                            continue;
                        };
                        let mut lanes: Vec<Vec<bool>> =
                            hits.iter().map(|h| h.bits().to_vec()).collect();
                        // An armed plan can fail the rung itself,
                        // modelling damage wider than one worker.
                        if let Some(plan) = self.chaos.as_ref() {
                            if plan.rung_fails(chunk_no, ri) {
                                corrupt_bits(
                                    PlaneFault::LaneUpset,
                                    plan.seed() ^ mix((chunk_no as u64) << 8 | ri as u64),
                                    &mut lanes,
                                    true,
                                );
                            }
                        }
                        if lanes == truth {
                            commit_recovered(
                                chunk, lanes, jobs, outputs, counters, &self.sink, rung,
                            );
                            committed = true;
                            deepest = deepest.max(ri);
                            break;
                        }
                    }
                    if committed {
                        break;
                    }
                    // This rung failed every attempt: step down.
                    let next_words = rungs.get(ri + 1).map_or(0, |r| r.words());
                    self.sink.record(TraceEvent::LadderMoved {
                        words: next_words as u32,
                        down: true,
                    });
                    report.demotions += 1;
                }
                if !committed {
                    // Software rung: exact by construction.
                    deepest = rungs.len();
                    self.sink.record(TraceEvent::FallbackEngaged);
                    report.fallback_jobs += chunk.len() as u64;
                    let matcher = software_fallback(pattern);
                    let lanes: Vec<Vec<bool>> = chunk
                        .iter()
                        .zip(&truth)
                        .map(|(&i, t)| {
                            matcher
                                .find(jobs[i].text, pattern)
                                .unwrap_or_else(|_| t.clone())
                        })
                        .collect();
                    commit_recovered(
                        chunk,
                        lanes,
                        jobs,
                        outputs,
                        counters,
                        &self.sink,
                        rungs[rungs.len() - 1],
                    );
                }
                chunk_no += 1;
            }
        }
        deepest
    }
}
/// Two-tier pattern lookup: private cache, then shared index (copying
/// the hit down into the cache), then compile-and-publish. Only the
/// last is a miss. The returned flag reports whether the lookup was a
/// hit — the chaos harness's [`PlaneFault::CachePoison`] keys on it.
fn lookup_pattern(
    pattern: &Pattern,
    local: &mut PatternCache,
    index: &PatternIndex,
    counters: &ThroughputCounters,
    sink: &SinkHandle,
) -> (Arc<CompiledPattern>, bool) {
    if let Some(compiled) = local.get(pattern) {
        counters.cache_hits.add(1);
        sink.record(TraceEvent::CacheLookup { hit: true });
        return (compiled, true);
    }
    if let Some(compiled) = index.get(pattern) {
        local.insert(pattern, Arc::clone(&compiled));
        counters.cache_hits.add(1);
        sink.record(TraceEvent::CacheLookup { hit: true });
        return (compiled, true);
    }
    let compiled = Arc::new(CompiledPattern::compile(pattern));
    index.publish(pattern, Arc::clone(&compiled));
    local.insert(pattern, Arc::clone(&compiled));
    counters.cache_misses.add(1);
    sink.record(TraceEvent::CacheLookup { hit: false });
    (compiled, false)
}

/// Runs one planned batch's kernel at `width`, returning the per-lane
/// results plus whether any pattern lookup hit the cache.
///
/// The planner keeps each pattern group's members contiguous, so one
/// lookup per run of equal patterns books one lookup per
/// (batch, pattern), and the run's lanes share one compilation — which
/// the kernel sets up once for the whole run.
#[allow(clippy::too_many_arguments)]
fn execute_members(
    members: &[usize],
    jobs: &[JobRef<'_>],
    local: &mut PatternCache,
    index: &PatternIndex,
    counters: &ThroughputCounters,
    sink: &SinkHandle,
    width: SuperWidth,
) -> Result<(Vec<MatchBits>, bool), Error> {
    let mut any_hit = false;
    let mut compiled: Vec<Arc<CompiledPattern>> = Vec::with_capacity(members.len());
    for (lane, &i) in members.iter().enumerate() {
        let pattern = jobs[i].pattern;
        let repeat = lane > 0 && {
            let prev = jobs[members[lane - 1]].pattern;
            std::ptr::eq(prev, pattern) || prev == pattern
        };
        let c = if repeat {
            Arc::clone(&compiled[lane - 1])
        } else {
            let (c, hit) = lookup_pattern(pattern, local, index, counters, sink);
            any_hit |= hit;
            c
        };
        compiled.push(c);
    }
    let lanes: Vec<(&CompiledPattern, &[Symbol])> = members
        .iter()
        .zip(&compiled)
        .map(|(&i, c)| (c.as_ref(), jobs[i].text))
        .collect();
    Ok((run_lanes(width, &lanes)?, any_hit))
}

/// The lane-packed kernel at a given width.
fn run_lanes(
    width: SuperWidth,
    lanes: &[(&CompiledPattern, &[Symbol])],
) -> Result<Vec<MatchBits>, Error> {
    match width {
        SuperWidth::W1 => match_lanes_wide::<1>(lanes),
        SuperWidth::W4 => match_lanes_wide::<4>(lanes),
        SuperWidth::W8 => match_lanes_wide::<8>(lanes),
    }
}

/// Applies an active sticky fault to one executed batch: stalls sleep,
/// panics panic, data faults corrupt the result lanes in place.
fn apply_sticky(
    fault: StickyFault,
    batch_no: u64,
    stall_millis: u64,
    members: &[usize],
    jobs: &[JobRef<'_>],
    hits: &mut [MatchBits],
    cache_hit: bool,
) {
    match fault.kind {
        PlaneFault::WorkerStall => std::thread::sleep(Duration::from_millis(stall_millis)),
        PlaneFault::WorkerPanic => panic!("injected fault: worker panic"),
        _ => corrupt_hits(
            fault,
            mix(batch_no),
            hits,
            members.iter().map(|&i| jobs[i].pattern.k()),
            cache_hit,
        ),
    }
}

/// Corrupts result lanes in place through [`corrupt_bits`], salted by
/// `fault.salt ^ stir`, rewrapping each changed lane with its
/// pattern's `k` (one per lane, in order).
fn corrupt_hits(
    fault: StickyFault,
    stir: u64,
    hits: &mut [MatchBits],
    ks: impl IntoIterator<Item = usize>,
    cache_hit: bool,
) {
    let mut lanes: Vec<Vec<bool>> = hits.iter().map(|h| h.bits().to_vec()).collect();
    if corrupt_bits(fault.kind, fault.salt ^ stir, &mut lanes, cache_hit) {
        for ((hit, bits), k) in hits.iter_mut().zip(lanes).zip(ks) {
            *hit = MatchBits::new(bits, k);
        }
    }
}

/// What one worker hands back: its stats, its *pending* outputs tagged
/// with their global job index, and what (if anything) condemned it.
/// The coordinator commits the outputs only for un-condemned workers.
struct WorkerOutcome {
    stats: WorkerStats,
    outs: Vec<(usize, JobOutput)>,
    condemned: Option<&'static str>,
    faults_injected: u64,
    scrub_mismatches: u64,
}

impl WorkerOutcome {
    /// A fully voided outcome: no outputs, zeroed stats.
    fn condemned(worker: usize, label: &'static str) -> Self {
        WorkerOutcome {
            stats: WorkerStats::idle(worker),
            outs: Vec::new(),
            condemned: Some(label),
            faults_injected: 0,
            scrub_mismatches: 0,
        }
    }
}

/// Books one executed batch into the worker's *pending* state: local
/// stats and buffered outputs plus the `BatchExecuted` trace (the
/// execution really happened) — but no shared counters and no
/// `JobCompleted`, which belong to the commit.
#[allow(clippy::too_many_arguments)]
fn book_pending(
    members: &[usize],
    hits: Vec<MatchBits>,
    jobs: &[JobRef<'_>],
    outs: &mut Vec<(usize, JobOutput)>,
    stats: &mut WorkerStats,
    sink: &SinkHandle,
    micros: u64,
    width: SuperWidth,
) {
    debug_assert_eq!(members.len(), hits.len());
    let slots = width.lanes() as u64;
    let mut batch_chars = 0u64;
    let mut steps = 0u64;
    for (&i, hit) in members.iter().zip(hits) {
        let job = &jobs[i];
        batch_chars += job.text.len() as u64;
        steps = steps.max(job.text.len() as u64);
        outs.push((
            i,
            JobOutput {
                id: job.id,
                hits: hit,
            },
        ));
    }
    sink.record(TraceEvent::BatchExecuted {
        worker: stats.worker as u32,
        lanes: members.len() as u32,
        slots: slots as u32,
        steps,
        micros,
    });
    stats.jobs += members.len() as u64;
    stats.chars += batch_chars;
    stats.batches += 1;
    stats.lanes_used += members.len() as u64;
    stats.lane_slots += slots;
}

/// Commits one recovery chunk: spec-verified (or software-exact) lanes
/// become outputs, booked into the shared counters under the
/// coordinator's pseudo-worker id `u32::MAX`.
fn commit_recovered(
    chunk: &[usize],
    lanes: Vec<Vec<bool>>,
    jobs: &[JobRef<'_>],
    outputs: &mut [Option<JobOutput>],
    counters: &ThroughputCounters,
    sink: &SinkHandle,
    width: SuperWidth,
) {
    let mut chars = 0u64;
    for (&i, bits) in chunk.iter().zip(lanes) {
        let job = &jobs[i];
        chars += job.text.len() as u64;
        let hits = MatchBits::new(bits, job.pattern.k());
        if sink.enabled() {
            sink.record(TraceEvent::JobCompleted {
                job: job.id,
                worker: u32::MAX,
                chars: job.text.len() as u64,
                matches: hits.count() as u64,
            });
        }
        outputs[i] = Some(JobOutput { id: job.id, hits });
    }
    counters.jobs.add(chunk.len() as u64);
    counters.chars.add(chars);
    counters.batches.add(1);
    counters.lane_slots_used.add(chunk.len() as u64);
    counters.lane_slots_total.add(width.lanes() as u64);
}

/// Runs a deterministic known-answer workload through the worker's own
/// datapath — its local pattern cache, the run-width kernel and any
/// sticky data fault — and checks every lane against the scalar spec.
/// The pattern is executed twice so the second round is a guaranteed
/// cache hit, which is what flushes out [`PlaneFault::CachePoison`].
/// Liveness faults (stall, panic) are not replayed: they cannot
/// corrupt data and are caught by the watchdog and `catch_unwind`
/// during real batches.
fn known_answer_test(
    worker: usize,
    width: SuperWidth,
    local: &mut PatternCache,
    sticky: Option<StickyFault>,
    batches_started: u64,
) -> bool {
    let Ok(pattern) = Pattern::parse("ABAB") else {
        return false;
    };
    let mut rng = XorShift64::new(mix(worker as u64 + 1) ^ 0x04A7_0000);
    let texts: Vec<Vec<Symbol>> = (0..width.lanes())
        .map(|_| {
            let len = 40usize;
            let mut s: String = (0..len)
                .map(|_| if rng.next_u64() & 1 == 1 { 'A' } else { 'B' })
                .collect();
            // Plant one guaranteed match so a stuck-at-false lane is
            // always distinguishable from an honest all-miss lane.
            let at = rng.bounded(len as u64 - 4) as usize;
            s.replace_range(at..at + 4, "ABAB");
            text_from_letters(&s).expect("A/B are alphabet letters")
        })
        .collect();
    for round in 0..2u64 {
        let (compiled, cache_hit) = local.get_or_compile(&pattern);
        let lanes: Vec<(&CompiledPattern, &[Symbol])> = texts
            .iter()
            .map(|t| (compiled.as_ref(), t.as_slice()))
            .collect();
        let Ok(mut hits) = run_lanes(width, &lanes) else {
            return false;
        };
        if let Some(f) =
            sticky.filter(|f| f.kind.corrupts_data() && f.onset <= batches_started + round)
        {
            let ks = std::iter::repeat(pattern.k());
            corrupt_hits(f, mix(batches_started + round), &mut hits, ks, cache_hit);
        }
        for (hit, text) in hits.iter().zip(&texts) {
            if hit.bits() != match_spec(text, &pattern).as_slice() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn jobs_fixture() -> Vec<Job> {
        let p1 = Pattern::parse("AXC").unwrap();
        let p2 = Pattern::parse("BB").unwrap();
        let p3 = Pattern::parse("CABX").unwrap();
        let texts = ["ABCAACCAB", "BBABBB", "CABACABC", "", "AACCA"];
        let mut jobs = Vec::new();
        for (i, t) in texts.iter().enumerate() {
            for (j, p) in [&p1, &p2, &p3].iter().enumerate() {
                jobs.push(Job::new(
                    (i * 3 + j) as u64,
                    (*p).clone(),
                    text_from_letters(t).unwrap(),
                ));
            }
        }
        jobs
    }

    #[test]
    fn outputs_equal_spec_for_any_worker_count_and_width() {
        let jobs = jobs_fixture();
        for width in [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8] {
            for workers in [1, 2, 3, 7] {
                // With and without a policy the one worker loop must
                // book exactly the same work.
                let mut booked = Vec::new();
                for policy in [None, Some(ResiliencePolicy::default())] {
                    let mut engine = ThroughputEngine::new(workers, 8);
                    engine.set_width(width);
                    engine.set_resilience(policy);
                    let report = engine.run(&jobs).unwrap();
                    assert_eq!(report.outputs.len(), jobs.len());
                    assert_eq!(report.lanes_per_batch, width.lanes());
                    for (out, job) in report.outputs.iter().zip(&jobs) {
                        assert_eq!(out.id, job.id);
                        assert_eq!(
                            out.hits.bits(),
                            match_spec(&job.text, &job.pattern),
                            "job {} under {workers} workers at width {width}, policy {policy:?}",
                            job.id
                        );
                    }
                    let t = &report.totals;
                    booked.push((
                        t.jobs,
                        t.chars,
                        t.batches,
                        t.lane_slots_used,
                        t.lane_slots_total,
                    ));
                }
                assert_eq!(
                    booked[0], booked[1],
                    "{workers} workers at width {width}: both modes book the same work"
                );
            }
        }
    }

    #[test]
    fn repeated_patterns_hit_the_cache() {
        let jobs = jobs_fixture();
        let engine = ThroughputEngine::new(1, 8);
        let report = engine.run(&jobs).unwrap();
        // 3 distinct patterns; one worker sees each exactly once.
        assert_eq!(report.totals.cache_misses, 3);
        assert_eq!(engine.cached_patterns(), 3);
        // A second run finds everything in the shared index: all hits.
        let report2 = engine.run(&jobs).unwrap();
        assert_eq!(report2.totals.cache_misses, 0);
        assert!(report2.totals.cache_hit_rate() == 1.0);
    }

    #[test]
    fn lru_evicts_the_coldest_pattern() {
        let mut cache = PatternCache::new(2);
        let a = Pattern::parse("A").unwrap();
        let b = Pattern::parse("B").unwrap();
        let c = Pattern::parse("C").unwrap();
        cache.get_or_compile(&a);
        cache.get_or_compile(&b);
        cache.get_or_compile(&a); // refresh a; b is now coldest
        cache.get_or_compile(&c); // evicts b
        assert_eq!(cache.len(), 2);
        let (_, hit_a) = cache.get_or_compile(&a);
        assert!(hit_a, "a was refreshed and must survive");
        let (_, hit_b) = cache.get_or_compile(&b);
        assert!(!hit_b, "b was the LRU entry and must be gone");
    }

    #[test]
    fn index_evicts_fifo_and_tolerates_republication() {
        let index = PatternIndex::new(2);
        let a = Pattern::parse("A").unwrap();
        let b = Pattern::parse("B").unwrap();
        let c = Pattern::parse("C").unwrap();
        index.publish(&a, Arc::new(CompiledPattern::compile(&a)));
        index.publish(&b, Arc::new(CompiledPattern::compile(&b)));
        index.publish(&a, Arc::new(CompiledPattern::compile(&a))); // no-op
        assert_eq!(index.len(), 2);
        index.publish(&c, Arc::new(CompiledPattern::compile(&c))); // evicts a
        assert_eq!(index.len(), 2);
        assert!(index.get(&a).is_none(), "a was the oldest publication");
        assert!(index.get(&b).is_some());
        assert!(index.get(&c).is_some());
    }

    /// Whether every member of a planned batch shares one pattern.
    fn one_pattern(jobs: &[JobRef<'_>], members: &[usize]) -> bool {
        members
            .iter()
            .all(|&i| jobs[i].pattern == jobs[members[0]].pattern)
    }

    #[test]
    fn global_planning_merges_same_pattern_jobs_across_the_run() {
        // 8 jobs, one pattern, interleaved with nothing: global
        // planning packs them into a single one-pattern batch even though
        // the old static sharding would have split them over workers.
        let p = Pattern::parse("AB").unwrap();
        let jobs: Vec<Job> = (0..8)
            .map(|id| Job::new(id, p.clone(), text_from_letters("ABAB").unwrap()))
            .collect();
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        let plan = plan_batches(&refs, SuperWidth::W8.lanes(), 4);
        assert_eq!(plan.len(), 1);
        assert!(
            one_pattern(&refs, &plan[0]),
            "expected one pattern, got {plan:?}"
        );
        assert_eq!(plan[0].len(), 8);
        // And the batch count survives into the run's counters.
        let engine = ThroughputEngine::new(4, 8);
        let report = engine.run(&jobs).unwrap();
        assert_eq!(report.totals.batches, 1);
    }

    #[test]
    fn planner_splits_groups_at_the_lane_limit() {
        let p = Pattern::parse("AB").unwrap();
        let q = Pattern::parse("BA").unwrap();
        let lanes = SuperWidth::W1.lanes();
        let mut jobs: Vec<Job> = (0..(lanes as u64 + 3))
            .map(|id| Job::new(id, p.clone(), text_from_letters("AB").unwrap()))
            .collect();
        jobs.push(Job::new(999, q.clone(), text_from_letters("BA").unwrap()));
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        let plan = plan_batches(&refs, lanes, 1);
        // 65+2 same-pattern jobs → two one-pattern batches; the
        // singleton rides a pooled batch of its own.
        assert_eq!(plan.len(), 3);
        let (m0, m1, m2) = (&plan[0], &plan[1], &plan[2]);
        assert!(
            one_pattern(&refs, m0) && one_pattern(&refs, m1),
            "unexpected plan {plan:?}"
        );
        assert_eq!(m0.len(), lanes);
        assert_eq!(m1.len(), 3);
        assert_eq!(m2, &vec![jobs.len() - 1]);
    }

    #[test]
    fn grouping_is_identical_for_owned_and_shared_patterns() {
        let patterns = [
            Pattern::parse("AB").unwrap(),
            Pattern::parse("BA").unwrap(),
            Pattern::parse("AXB").unwrap(),
        ];
        let text = text_from_letters("ABAB").unwrap();
        let picks = [0, 1, 0, 2, 1, 0, 2, 2];
        // Owned jobs: equal patterns at distinct addresses.
        let owned: Vec<Job> = picks
            .iter()
            .enumerate()
            .map(|(id, &p)| Job::new(id as u64, patterns[p].clone(), text.clone()))
            .collect();
        let owned: Vec<JobRef<'_>> = owned.iter().map(Job::to_ref).collect();
        // Borrowed jobs: every job of a pattern shares one address.
        let shared: Vec<JobRef<'_>> = picks
            .iter()
            .enumerate()
            .map(|(id, &p)| JobRef {
                id: id as u64,
                pattern: &patterns[p],
                text: &text,
            })
            .collect();
        let groups = |jobs: &[JobRef<'_>]| -> Vec<(Pattern, Vec<usize>)> {
            group_by_pattern(jobs, 0..jobs.len())
                .into_iter()
                .map(|(p, members)| (p.clone(), members))
                .collect()
        };
        let expected = vec![
            (patterns[0].clone(), vec![0, 2, 5]),
            (patterns[1].clone(), vec![1, 4]),
            (patterns[2].clone(), vec![3, 6, 7]),
        ];
        assert_eq!(groups(&owned), expected);
        assert_eq!(groups(&shared), expected);
    }

    #[test]
    fn mixed_batch_looks_up_each_pattern_once() {
        const N: usize = 5;
        let p = Pattern::parse("AB").unwrap();
        let q = Pattern::parse("BXA").unwrap();
        let text = text_from_letters("ABABBAAB").unwrap();
        let jobs: Vec<Job> = (0..2 * N)
            .map(|id| {
                let pattern = if id < N { p.clone() } else { q.clone() };
                Job::new(id as u64, pattern, text.clone())
            })
            .collect();
        let refs: Vec<JobRef<'_>> = jobs.iter().map(Job::to_ref).collect();
        let counters = ThroughputCounters::new();
        let (hits, _) = execute_members(
            &(0..2 * N).collect::<Vec<_>>(),
            &refs,
            &mut PatternCache::new(8),
            &PatternIndex::new(8),
            &counters,
            &SinkHandle::null(),
            SuperWidth::W8,
        )
        .unwrap();
        // 2 patterns × N lanes: one lookup per pattern, not per lane.
        assert_eq!(counters.cache_hits.get() + counters.cache_misses.get(), 2);
        for (hit, job) in hits.iter().zip(&jobs) {
            assert_eq!(hit.bits(), match_spec(&job.text, &job.pattern));
        }
        // A batch of one pattern books exactly one lookup, as the
        // single-pattern batches of a large group always have.
        let one: Vec<JobRef<'_>> = (0..8)
            .map(|id| JobRef {
                id,
                pattern: &p,
                text: &text,
            })
            .collect();
        let counters = ThroughputCounters::new();
        let (hits, _) = execute_members(
            &(0..8).collect::<Vec<_>>(),
            &one,
            &mut PatternCache::new(8),
            &PatternIndex::new(8),
            &counters,
            &SinkHandle::null(),
            SuperWidth::W8,
        )
        .unwrap();
        assert_eq!(counters.cache_hits.get() + counters.cache_misses.get(), 1);
        for hit in &hits {
            assert_eq!(hit.bits(), match_spec(&text, &p));
        }
    }

    /// A planner workload: per group, a pattern (literal-or-wild
    /// symbols) and a size spec `(tiny, n)` — `n % 3 + 1` jobs when
    /// tiny, else `n` percent of a batch's lanes, so groups fall on
    /// both sides of the `lanes / 2` cut at every width.
    type PlanWorkload = Vec<(Vec<Option<u8>>, (bool, usize))>;

    fn plan_workload() -> impl proptest::strategy::Strategy<Value = PlanWorkload> {
        use proptest::prelude::*;
        let sym = prop_oneof![4 => (0u8..=3).prop_map(Some), 1 => Just(None)];
        let pattern = prop::collection::vec(sym, 1..=6);
        prop::collection::vec((pattern, (any::<bool>(), 1usize..=150)), 1..=5)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn planner_packs_every_job_once_and_matches_the_spec(
            groups in plan_workload(),
            workers in 1usize..=7,
            w in 0usize..3,
            seed in 0u64..1000,
        ) {
            use pm_systolic::symbol::PatSym;
            use proptest::prelude::*;
            let width = [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8][w];
            let lanes = width.lanes();
            let patterns: Vec<Pattern> = groups
                .iter()
                .map(|(syms, _)| {
                    let syms = syms
                        .iter()
                        .map(|s| s.map_or(PatSym::Wild, |v| PatSym::Lit(Symbol::new(v))))
                        .collect();
                    Pattern::new(syms, pm_systolic::symbol::Alphabet::TWO_BIT).unwrap()
                })
                .collect();
            let sizes: Vec<usize> = groups
                .iter()
                .map(|&(_, (tiny, n))| if tiny { n % 3 + 1 } else { (lanes * n / 100).max(1) })
                .collect();
            let mut rng = XorShift64::new(mix(seed + 1));
            let texts: Vec<Vec<Symbol>> = (0..8)
                .map(|_| {
                    let len = rng.bounded(12) as usize;
                    (0..len).map(|_| Symbol::new(rng.bounded(3) as u8)).collect()
                })
                .collect();
            // Interleave the groups, as ingestion does: round-robin
            // over groups with jobs left.
            let mut left = sizes.clone();
            let mut jobs: Vec<JobRef<'_>> = Vec::new();
            while left.iter().any(|&l| l > 0) {
                for (g, l) in left.iter_mut().enumerate() {
                    if *l > 0 {
                        *l -= 1;
                        jobs.push(JobRef {
                            id: jobs.len() as u64,
                            pattern: &patterns[g],
                            text: &texts[jobs.len() % texts.len()],
                        });
                    }
                }
            }

            let plan = plan_batches(&jobs, lanes, workers);
            // Large groups' batches come first; every member of one
            // shares one pattern.
            let whole: usize = group_by_pattern(&jobs, 0..jobs.len())
                .into_iter()
                .map(|(_, members)| members.len())
                .filter(|&n| n >= lanes / 2)
                .map(|n| n.div_ceil(lanes))
                .sum();
            let mut seen = vec![0usize; jobs.len()];
            let mut mixed = 0;
            for (b, members) in plan.iter().enumerate() {
                if b < whole {
                    prop_assert!(one_pattern(&jobs, members));
                } else {
                    mixed += 1;
                }
                prop_assert!(!members.is_empty() && members.len() <= lanes);
                for &i in members {
                    seen[i] += 1;
                }
            }
            prop_assert!(seen.iter().all(|&n| n == 1), "every job planned exactly once");
            let pooled: Vec<usize> = group_by_pattern(&jobs, 0..jobs.len())
                .into_iter()
                .map(|(_, members)| members.len())
                .filter(|&n| n < lanes / 2)
                .collect();
            if !matches!(pooled.as_slice(), [only] if *only > 1) {
                prop_assert!(mixed >= workers.min(pooled.len()));
            }

            let mut engine = ThroughputEngine::new(workers, 8);
            engine.set_width(width);
            let report = engine.run_refs(&jobs).unwrap();
            for (out, job) in report.outputs.iter().zip(&jobs) {
                prop_assert_eq!(out.id, job.id);
                prop_assert_eq!(out.hits.bits().to_vec(), match_spec(job.text, job.pattern));
            }
            prop_assert_eq!(report.totals.batches, plan.len() as u64);
        }
    }

    #[test]
    fn stats_account_for_every_character() {
        let jobs = jobs_fixture();
        let total_chars: u64 = jobs.iter().map(|j| j.text.len() as u64).sum();
        let engine = ThroughputEngine::new(3, 8);
        let report = engine.run(&jobs).unwrap();
        assert_eq!(report.totals.chars, total_chars);
        let worker_chars: u64 = report.workers.iter().map(|w| w.chars).sum();
        assert_eq!(worker_chars, total_chars);
        assert_eq!(report.totals.jobs, jobs.len() as u64);
        assert!(report.totals.lane_occupancy() > 0.0);
        assert!(report.totals.lane_occupancy() <= 1.0);
        // Per-batch slot accounting matches the configured width.
        assert_eq!(
            report.totals.lane_slots_total,
            report.totals.batches * engine.lanes_per_batch() as u64
        );
        let worker_slots: u64 = report.workers.iter().map(|w| w.lane_slots).sum();
        assert_eq!(worker_slots, report.totals.lane_slots_total);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = jobs_fixture().into_iter().take(2).collect::<Vec<_>>();
        let engine = ThroughputEngine::new(8, 4);
        let report = engine.run(&jobs).unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.workers.len(), 8);
    }

    #[test]
    fn sinked_engine_reports_ground_truth_counts() {
        use crate::telemetry::MetricsRegistry;
        let jobs = jobs_fixture();
        let metrics = Arc::new(MetricsRegistry::new());
        let engine = ThroughputEngine::with_sink(2, 8, SinkHandle::new(metrics.clone()));
        let report = engine.run(&jobs).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_started, jobs.len() as u64);
        assert_eq!(snap.jobs_completed, jobs.len() as u64);
        assert_eq!(snap.chars, report.totals.chars);
        let truth_matches: u64 = report.outputs.iter().map(|o| o.hits.count() as u64).sum();
        assert_eq!(snap.matches, truth_matches);
        assert_eq!(snap.batches, report.totals.batches);
        assert_eq!(snap.lane_slots_used, report.totals.lane_slots_used);
        assert_eq!(snap.lane_slots_total, report.totals.lane_slots_total);
        assert_eq!(snap.batch_occupancy.count, report.totals.batches);
        assert_eq!(snap.batch_occupancy.sum, report.totals.lane_slots_used);
        // The dispatch announcement is folded into the registry.
        assert_eq!(snap.superplane_words, engine.width().words() as u64);
        assert_eq!(
            snap.dispatch_portable + snap.dispatch_avx2 + snap.dispatch_avx512,
            1
        );
        // The engine samples its rate window after each run.
        assert_eq!(engine.lifetime_chars(), report.totals.chars);
        assert!(engine.windowed_chars_per_sec() >= 0.0);
    }

    #[test]
    fn empty_job_list_yields_empty_report() {
        let engine = ThroughputEngine::new(2, 4);
        let report = engine.run(&[]).unwrap();
        assert!(report.outputs.is_empty());
        assert_eq!(report.totals.chars, 0);
        assert_eq!(report.workers.len(), 2);
    }

    use crate::faults::FaultPlan;

    fn assert_spec_equal(report: &ThroughputReport, jobs: &[Job]) {
        for (out, job) in report.outputs.iter().zip(jobs) {
            assert_eq!(out.id, job.id);
            assert_eq!(
                out.hits.bits(),
                match_spec(&job.text, &job.pattern),
                "job {}",
                job.id
            );
        }
    }

    #[test]
    fn panicking_worker_yields_error_not_abort() {
        // Satellite (f) regression: before the join fix, a worker panic
        // unwound through `join().expect(...)` and aborted the caller.
        // Now every thread is joined first and the panic surfaces as a
        // typed error.
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(3, 8);
        engine.set_fault_plan(Some(
            FaultPlan::new(7)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::WorkerPanic)
                .with_max_onset_batches(0),
        ));
        match engine.run(&jobs) {
            Err(Error::WorkerPanicked { .. }) => {}
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The engine survives the failed run and works once disarmed.
        engine.set_fault_plan(None);
        let report = engine.run(&jobs).unwrap();
        assert_spec_equal(&report, &jobs);
    }

    #[test]
    fn unprotected_chaos_corrupts_fast_path_outputs() {
        // A data fault with nothing containing it flows straight into
        // the outputs — the contrast that makes the policy's
        // guarantee meaningful.
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(1, 8);
        engine.set_fault_plan(Some(
            FaultPlan::new(3)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::StuckComparator { level: true })
                .with_max_onset_batches(0),
        ));
        let report = engine.run(&jobs).unwrap();
        let corrupted = report
            .outputs
            .iter()
            .zip(&jobs)
            .any(|(out, job)| out.hits.bits() != match_spec(&job.text, &job.pattern));
        assert!(corrupted, "forced stuck comparator must corrupt something");
    }

    #[test]
    fn resilient_run_is_spec_identical_under_every_fault_kind() {
        let jobs = jobs_fixture();
        let kinds = [
            PlaneFault::LaneUpset,
            PlaneFault::StuckComparator { level: true },
            PlaneFault::StuckComparator { level: false },
            PlaneFault::CachePoison,
            PlaneFault::WorkerPanic,
        ];
        for kind in kinds {
            let mut engine = ThroughputEngine::new(2, 8);
            engine.set_resilience(Some(ResiliencePolicy::default()));
            engine.set_fault_plan(Some(
                FaultPlan::new(11)
                    .with_worker_fault_permille(1000)
                    .with_forced_kind(kind)
                    .with_max_onset_batches(1)
                    .with_rung_fail_permille(0),
            ));
            let report = engine.run(&jobs).unwrap();
            assert_spec_equal(&report, &jobs);
            let res = report.resilience.expect("resilient run reports");
            assert!(
                !res.quarantined.is_empty(),
                "{kind:?}: every worker is defective, someone must be condemned"
            );
            assert!(res.recovered_jobs > 0, "{kind:?}");
        }
    }

    #[test]
    fn resilient_run_without_faults_commits_everything_directly() {
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(2, 8);
        engine.set_resilience(Some(ResiliencePolicy::default()));
        let report = engine.run(&jobs).unwrap();
        assert_spec_equal(&report, &jobs);
        let res = report.resilience.expect("resilient run reports");
        assert_eq!(res.quarantined, vec![]);
        assert_eq!(res.recovered_jobs, 0);
        assert_eq!(res.faults_injected, 0);
        assert_eq!(res.fallback_jobs, 0);
        // Counters still account for every character.
        let total_chars: u64 = jobs.iter().map(|j| j.text.len() as u64).sum();
        assert_eq!(report.totals.chars, total_chars);
        assert_eq!(report.totals.jobs, jobs.len() as u64);
    }

    #[test]
    fn failing_rungs_force_the_software_fallback_and_demote_the_ladder() {
        // Every worker defective AND every hardware recovery rung
        // failing: the only exit is the software rung, end to end.
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(2, 8);
        engine.set_resilience(Some(ResiliencePolicy::default()));
        engine.set_fault_plan(Some(
            FaultPlan::new(5)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::StuckComparator { level: true })
                .with_max_onset_batches(0)
                .with_rung_fail_permille(1000),
        ));
        assert_eq!(engine.ladder_width(), SuperWidth::W8);
        let report = engine.run(&jobs).unwrap();
        assert_spec_equal(&report, &jobs);
        let res = report.resilience.expect("resilient run reports");
        assert!(res.fallback_jobs > 0, "all rungs fail → software");
        assert!(res.demotions > 0);
        assert!(res.retried_batches > 0);
        // The engine parks on the narrowest hardware rung for next run.
        assert_eq!(res.ladder_words, SuperWidth::W1.words());
        assert_eq!(engine.ladder_width(), SuperWidth::W1);
    }

    #[test]
    fn clean_runs_repromote_the_ladder() {
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(2, 8);
        let policy = ResiliencePolicy {
            repromote_after: 1,
            ..ResiliencePolicy::default()
        };
        engine.set_resilience(Some(policy));
        // Demote first.
        engine.set_fault_plan(Some(
            FaultPlan::new(5)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::StuckComparator { level: true })
                .with_max_onset_batches(0)
                .with_rung_fail_permille(1000),
        ));
        engine.run(&jobs).unwrap();
        assert_eq!(engine.ladder_width(), SuperWidth::W1);
        // Then run clean: with repromote_after = 1 each clean run
        // climbs one rung until back at the configured width.
        engine.set_fault_plan(None);
        let r1 = engine.run(&jobs).unwrap();
        assert_eq!(r1.resilience.as_ref().unwrap().promotions, 1);
        assert_eq!(engine.ladder_width(), SuperWidth::W4);
        let r2 = engine.run(&jobs).unwrap();
        assert_spec_equal(&r2, &jobs);
        assert_eq!(engine.ladder_width(), SuperWidth::W8);
    }

    #[test]
    fn stalled_worker_trips_the_watchdog() {
        let jobs = jobs_fixture();
        let mut engine = ThroughputEngine::new(2, 8);
        engine.set_resilience(Some(ResiliencePolicy {
            watchdog: Duration::from_millis(10),
            ..ResiliencePolicy::default()
        }));
        engine.set_fault_plan(Some(
            FaultPlan::new(2)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::WorkerStall)
                .with_stall_millis(40)
                .with_max_onset_batches(0),
        ));
        let report = engine.run(&jobs).unwrap();
        assert_spec_equal(&report, &jobs);
        let res = report.resilience.expect("resilient run reports");
        assert!(res
            .quarantined
            .iter()
            .any(|(_, label)| *label == "worker_stall"));
    }

    #[test]
    fn resilient_telemetry_reaches_the_registry() {
        use crate::telemetry::MetricsRegistry;
        let jobs = jobs_fixture();
        let metrics = Arc::new(MetricsRegistry::new());
        let mut engine = ThroughputEngine::with_sink(2, 8, SinkHandle::new(metrics.clone()));
        engine.set_resilience(Some(ResiliencePolicy::default()));
        engine.set_fault_plan(Some(
            FaultPlan::new(11)
                .with_worker_fault_permille(1000)
                .with_forced_kind(PlaneFault::StuckComparator { level: true })
                .with_max_onset_batches(0)
                .with_rung_fail_permille(0),
        ));
        let report = engine.run(&jobs).unwrap();
        assert_spec_equal(&report, &jobs);
        let res = report.resilience.expect("resilient run reports");
        let snap = metrics.snapshot();
        assert_eq!(snap.faults_injected, res.faults_injected);
        assert_eq!(snap.quarantined_workers, res.quarantined.len() as u64);
        assert_eq!(snap.batches_retried, res.retried_batches);
        assert_eq!(snap.scrub_mismatches, res.scrub_mismatches);
        // Committed ground truth flows through JobCompleted as before.
        assert_eq!(snap.jobs_completed, jobs.len() as u64);
        let truth_matches: u64 = report.outputs.iter().map(|o| o.hits.count() as u64).sum();
        assert_eq!(snap.matches, truth_matches);
    }

    #[test]
    fn known_answer_test_passes_clean_and_fails_corrupt() {
        for width in [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8] {
            let mut cache = PatternCache::new(4);
            assert!(
                known_answer_test(0, width, &mut cache, None, 3),
                "clean datapath must pass at {width}"
            );
            for kind in [
                PlaneFault::LaneUpset,
                PlaneFault::StuckComparator { level: true },
                PlaneFault::StuckComparator { level: false },
                PlaneFault::CachePoison,
            ] {
                let mut cache = PatternCache::new(4);
                let sticky = StickyFault {
                    kind,
                    onset: 0,
                    salt: 0x1234_5677, // odd, like the plan draws
                };
                assert!(
                    !known_answer_test(1, width, &mut cache, Some(sticky), 3),
                    "{kind:?} must fail the KAT at {width}"
                );
            }
        }
    }

    #[test]
    fn ladder_rungs_descend_from_every_width() {
        assert_eq!(
            ladder_rungs(SuperWidth::W8),
            &[SuperWidth::W8, SuperWidth::W4, SuperWidth::W1]
        );
        assert_eq!(
            ladder_rungs(SuperWidth::W4),
            &[SuperWidth::W4, SuperWidth::W1]
        );
        assert_eq!(ladder_rungs(SuperWidth::W1), &[SuperWidth::W1]);
    }
}
