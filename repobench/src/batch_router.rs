//! `batch_router`: the batch path — plan, route, pattern cache and
//! compile, kernel and merge — on the paper's own 2-bit single-pattern
//! array. A `Router` of 2 shards × 1 worker at W8 runs one `run_refs`
//! call per `OverlapChunker` window of a file-backed 2-bit corpus.
//!
//! Each window is cut into 64 overlapping lane slices and matched
//! against 48 patterns drawn with a fixed skew from a pool of 1024, so
//! the pattern caches both hit and miss.

use crate::gen::{self, Rng};
use crate::measure::{
    median, micros, percentile, ratio, timed, timed_if, Digest, Outcome, Region, Spent,
};
use crate::CorpusFile;
use pm_chip::ingest::{ChunkView, OverlapChunker, PagedCorpus, SliceSource};
use pm_chip::shard::{Router, RouterConfig, RouterReport};
use pm_chip::throughput::{JobRef, SuperWidth};
use pm_matchers::aho_corasick::AhoCorasick;
use pm_systolic::batch::CompiledPattern;
use pm_systolic::superplane::match_lanes_wide;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::path::Path;
use std::time::Duration;

const POOL: usize = 1024;
const WINDOW_PATTERNS: usize = 48;
const LANE_SLICES: usize = 64;
const MIN_LEN: usize = 6;
const KMAX: usize = 16;
const CORPUS_BYTES: usize = 4 << 20;
const PAGE: usize = 64 << 10;
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const SETUP_REPS: usize = 7;
/// Windows replayed through the bare kernel for the ceiling.
const KERNEL_WINDOWS: usize = 32;

fn generate(seed: u64) -> (Vec<Pattern>, Vec<u8>) {
    let mut rng = Rng::new(seed, 3);
    let pool = (0..POOL)
        .map(|_| {
            let mut bytes = vec![0u8; rng.range(MIN_LEN, KMAX)];
            rng.fill(&mut bytes, 2);
            Pattern::from_bytes(&bytes, None, Alphabet::TWO_BIT).expect("2-bit pattern")
        })
        .collect();
    let mut corpus = vec![0u8; CORPUS_BYTES];
    rng.fill(&mut corpus, 2);
    (pool, corpus)
}

/// The next window's patterns: distinct pool indices drawn with a
/// fixed skew toward the head of the pool (index = ⌊POOL·u²⌋).
fn draw(rng: &mut Rng) -> Vec<usize> {
    let mut picked = Vec::with_capacity(WINDOW_PATTERNS);
    while picked.len() < WINDOW_PATTERNS {
        let u = rng.unit();
        let i = ((POOL as f64) * u * u) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Cuts `slice` into up to `lanes` sub-slices overlapping by `overlap`
/// symbols, as `(sub, min_end, offset)`: scan `sub`, keep match ends ≥
/// `min_end`, report them at `offset + position` within `slice`.
fn lane_cuts(slice: &[Symbol], lanes: usize, overlap: usize) -> Vec<(&[Symbol], usize, usize)> {
    let len = slice.len();
    let step = len.div_ceil(lanes).max(overlap + 1);
    let mut cuts = Vec::new();
    let mut at = 0;
    while at < len {
        let start = at.saturating_sub(overlap);
        let end = (at + step).min(len);
        cuts.push((&slice[start..end], at - start, start));
        at = end;
    }
    cuts
}

/// One window's jobs, with `(window pattern, keep-from, base)` per job
/// for turning result bits back into global events.
fn jobs<'a>(
    view: &ChunkView<'a>,
    pool: &'a [Pattern],
    picked: &[usize],
) -> (Vec<JobRef<'a>>, Vec<(usize, usize, usize)>) {
    let mut refs = Vec::new();
    let mut meta = Vec::new();
    for (slice, min_end, base) in view.regions() {
        for (sub, sub_min, off) in lane_cuts(slice, LANE_SLICES, KMAX - 1) {
            let keep_from = sub_min.max(min_end.saturating_sub(off));
            for (w, &p) in picked.iter().enumerate() {
                refs.push(JobRef {
                    id: refs.len() as u64,
                    pattern: &pool[p],
                    text: sub,
                });
                meta.push((w, keep_from, base + off));
            }
        }
    }
    (refs, meta)
}

/// The events a routed window reported, in `(end, pattern)` order.
fn events(report: &RouterReport, meta: &[(usize, usize, usize)]) -> Digest {
    let mut out = Vec::new();
    for (job, &(pattern, keep_from, base)) in report.outputs.iter().zip(meta) {
        for end in job.hits.ending_positions() {
            if end >= keep_from {
                out.push((base + end, pattern));
            }
        }
    }
    out.sort_unstable();
    Digest::of(out.into_iter().map(|(end, p)| (p as u64, end as u64)))
}

/// The oracle's events for a window: Aho–Corasick over the window's
/// patterns on the corpus span that ends inside the window's chunk.
fn expected(corpus: &[Symbol], pool: &[Pattern], w: &Window) -> Digest {
    let lo = w.base.saturating_sub(KMAX - 1);
    let patterns: Vec<Pattern> = w.picked.iter().map(|&p| pool[p].clone()).collect();
    let ac = AhoCorasick::new(&patterns).expect("literal patterns");
    Digest::of(
        ac.find_all(&corpus[lo..w.base + w.len])
            .into_iter()
            .map(|m| (m.pattern as u64, (lo + m.end) as u64))
            .filter(|&(_, end)| end as usize >= w.base),
    )
}

/// One routed window, kept for the oracle check after the run.
struct Window {
    picked: Vec<usize>,
    /// Offset of the window's chunk in the corpus, and its length.
    base: usize,
    len: usize,
    events: Digest,
}

/// Router-side totals over a pass's calls.
#[derive(Default)]
struct Totals {
    calls: u64,
    route_us: f64,
    plan_us: f64,
    wall_us: f64,
    moves: u64,
    steals: u64,
    lanes_used: u64,
    lane_slots: u64,
    cache_hits: u64,
    cache_lookups: u64,
    worker_secs: f64,
}

impl Totals {
    fn add(&mut self, r: &RouterReport) {
        self.calls += 1;
        self.route_us += r.route_micros as f64;
        self.plan_us += r.plan_micros() as f64;
        self.wall_us += r.wall_micros as f64;
        self.moves += r.affinity_moves;
        self.steals += r.steals();
        for s in &r.shard_reports {
            self.lanes_used += s.totals.lane_slots_used;
            self.lane_slots += s.totals.lane_slots_total;
            self.cache_hits += s.totals.cache_hits;
            self.cache_lookups += s.totals.cache_hits + s.totals.cache_misses;
            self.worker_secs += s
                .workers
                .iter()
                .map(|w| w.elapsed.as_secs_f64())
                .sum::<f64>();
        }
    }
}

#[derive(Default)]
struct Pass {
    chars: u64,
    spent: Spent,
    windows: u64,
    window_us: Vec<f64>,
    call_us: Vec<f64>,
    call_secs: f64,
    read_secs: f64,
    totals: Totals,
}

struct Batch<'a> {
    pool: &'a [Pattern],
    path: &'a Path,
    router: Router,
    chunker: OverlapChunker<PagedCorpus>,
    draws: Rng,
    windows: Vec<Window>,
}

impl Batch<'_> {
    /// Reads and routes one window; `false` at the end of the corpus.
    fn window(&mut self, pass: &mut Pass, traced: bool, out: &mut Outcome) -> Result<bool, String> {
        let picked = draw(&mut self.draws);
        let (view, read) = timed_if(traced, || self.chunker.next_window());
        let Some(view) = view.map_err(|e| format!("batch_router read: {e}"))? else {
            return Ok(false);
        };
        let (base, len) = (view.chunk_base, view.chunk.len());
        let ((refs, meta), build) = timed_if(traced, || jobs(&view, self.pool, &picked));
        let (report, call) = timed_if(traced, || self.router.run_refs(&refs));
        out.attempted += 1;
        let report = report.map_err(|e| format!("batch_router run_refs: {e}"))?;
        pass.chars += len as u64;
        pass.windows += 1;
        if traced {
            pass.window_us.push(micros(read + build + call));
            pass.call_us.push(micros(call));
            pass.call_secs += call.as_secs_f64();
            pass.read_secs += read.as_secs_f64();
            pass.totals.add(&report);
        }
        self.windows.push(Window {
            events: events(&report, &meta),
            picked,
            base,
            len,
        });
        Ok(true)
    }

    /// Routes windows until `budget` of wall clock is spent, wrapping
    /// to a fresh stream at the end of the corpus.
    fn pass(&mut self, budget: Duration, traced: bool, out: &mut Outcome) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let region = Region::start();
        while region.elapsed() < budget {
            if !self.window(&mut pass, traced, out)? {
                self.chunker = chunker(self.path)?;
            }
        }
        pass.spent = region.finish();
        Ok(pass)
    }
}

fn chunker(path: &Path) -> Result<OverlapChunker<PagedCorpus>, String> {
    let corpus = PagedCorpus::open(path, PAGE).map_err(|e| format!("batch_router open: {e}"))?;
    Ok(OverlapChunker::new(corpus, KMAX))
}

fn router() -> Router {
    Router::new(RouterConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        width: SuperWidth::W8,
        ..RouterConfig::default()
    })
}

/// The kernel ceiling: the first windows' lane slices, packed into full
/// W8 batches, straight through `match_lanes_wide` on one thread.
/// Returns corpus characters per second, in millions.
fn kernel_ceiling(corpus: &[Symbol], pool: &[Pattern], windows: &[Window]) -> Result<f64, String> {
    let mut chunker = OverlapChunker::new(SliceSource::new(corpus, PAGE), KMAX);
    let (mut chars, mut secs) = (0usize, 0.0);
    for w in windows.iter().take(KERNEL_WINDOWS) {
        let view = chunker
            .next_window()
            .map_err(|e| format!("batch_router replay: {e}"))?
            .ok_or("batch_router replay ran out of corpus")?;
        let compiled: Vec<CompiledPattern> = w
            .picked
            .iter()
            .map(|&p| CompiledPattern::compile(&pool[p]))
            .collect();
        let (refs, meta) = jobs(&view, pool, &w.picked);
        let lanes: Vec<(&CompiledPattern, &[Symbol])> = refs
            .iter()
            .zip(&meta)
            .map(|(r, &(p, _, _))| (&compiled[p], r.text))
            .collect();
        let (ok, took) = timed(|| {
            lanes
                .chunks(SuperWidth::W8.lanes())
                .all(|batch| match_lanes_wide::<8>(batch).is_ok())
        });
        if !ok {
            return Err("batch_router: match_lanes_wide refused a batch".into());
        }
        chars += view.chunk.len();
        secs += took.as_secs_f64();
    }
    Ok(ratio(chars as f64, secs) / 1e6)
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let (pool, corpus_bytes) = generate(seed);
    let file = CorpusFile::write("batch_router", &corpus_bytes)?;
    let mut out = Outcome::default();

    // Set-up: `Router::new` plus the first, cold-cache window.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (batch, took) = timed(|| -> Result<Batch, String> {
            let mut batch = Batch {
                pool: &pool,
                path: file.path(),
                router: router(),
                chunker: chunker(file.path())?,
                draws: Rng::new(seed, 4),
                windows: Vec::new(),
            };
            if !batch.window(&mut Pass::default(), false, &mut out)? {
                return Err("batch_router: empty corpus".into());
            }
            Ok(batch)
        });
        setups.push(took.as_secs_f64());
        kept = Some(batch?);
    }
    let mut batch = kept.expect("at least one set-up");

    let (plain, traced) = if trace {
        let plain = batch.pass(budget / 2, false, &mut out)?;
        (plain, Some(batch.pass(budget / 2, true, &mut out)?))
    } else {
        (batch.pass(budget, false, &mut out)?, None)
    };

    let corpus = gen::symbols(&corpus_bytes);
    for w in &batch.windows {
        out.check(expected(&corpus, &pool, w) == w.events);
    }

    let Some(traced) = traced else {
        out.push("setup_s", median(&setups));
        out.push("mchar_per_cpu_s", plain.spent.mchar_per_cpu_s(plain.chars));
        // CPU time per window, a mean: per-chunk percentiles of a
        // CPU-bound scan flip with the host's speed epochs.
        out.push(
            "feed_p50_us",
            plain.spent.cpu_secs * 1e6 / plain.windows as f64,
        );
        return Ok(out);
    };
    let t = &traced.totals;
    let calls = t.calls as f64;
    let workers = (SHARDS * WORKERS_PER_SHARD) as f64;
    let mib = traced.chars as f64 / (1 << 20) as f64;
    out.push("feed_p99_us", percentile(&traced.window_us, 0.99));
    out.push("wall_mchar_per_s", plain.spent.mchar_per_s(plain.chars));
    out.push("ingest.read_us_per_mib", traced.read_secs * 1e6 / mib);
    out.push("router.call_p50_us", percentile(&traced.call_us, 0.5));
    out.push("router.call_p99_us", percentile(&traced.call_us, 0.99));
    out.push("router.route_us", ratio(t.route_us, calls));
    out.push("router.plan_us", ratio(t.plan_us, calls));
    out.push("router.planner_overhead_frac", ratio(t.plan_us, t.wall_us));
    out.push("router.affinity_moves", t.moves as f64);
    out.push(
        "throughput.lane_occupancy",
        ratio(t.lanes_used as f64, t.lane_slots as f64),
    );
    out.push(
        "throughput.cache_hit_frac",
        ratio(t.cache_hits as f64, t.cache_lookups as f64),
    );
    out.push(
        "throughput.worker_busy_frac",
        ratio(t.worker_secs, traced.call_secs * workers),
    );
    out.push("throughput.steals", t.steals as f64);
    out.push(
        "superplane.mchar_per_s",
        kernel_ceiling(&corpus, &pool, &batch.windows)?,
    );
    out.push(
        "trace_overhead_frac",
        1.0 - ratio(
            traced.spent.mchar_per_cpu_s(traced.chars),
            plain.spent.mchar_per_cpu_s(plain.chars),
        ),
    );
    Ok(out)
}
