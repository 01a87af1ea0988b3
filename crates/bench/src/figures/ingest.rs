//! E36: zero-copy ingestion through the sharded memory system — a
//! file-backed corpus paged through [`PagedCorpus`], windowed by the
//! [`OverlapChunker`], and routed across shards at the 64-worker
//! design point.
//!
//! The paper's §1 headline is that the array outruns "the memory
//! bandwidth of most conventional computers" — the bottleneck is
//! feeding it, not matching. E36 measures the reproduction's feeding
//! path end to end and checks the two claims the PR 10 gate enforces:
//!
//! 1. **exactness** — the streamed, sharded scan (ragged pages, the
//!    `kmax − 1` boundary carry, affinity routing) reports exactly the
//!    events the offline Aho–Corasick oracle finds on the whole
//!    corpus;
//! 2. **overhead** — router assignment plus every shard planner's cost
//!    (`RouterReport::planner_overhead_frac`, aggregated over the
//!    stream) stays below 5 % of batch wall-clock at 64 workers. The
//!    fraction is same-run cost over same-run wall-clock, so it is
//!    hardware-independent; `bench_gate` holds the JSON snapshot to
//!    the 0.05 ceiling absolutely. One pass lasts tens of
//!    milliseconds, so one descheduled planner thread can swing it:
//!    the figure streams the corpus `PASSES` times and gates the
//!    median pass.
//!
//! The figure writes `BENCH_ingest.json` (override the path with
//! `PM_INGEST_JSON`) carrying `planner_overhead_frac` and
//! `ingest_chars_per_sec` for the CI gate.

use crate::workloads;
use pm_chip::ingest::{OverlapChunker, PagedCorpus};
use pm_chip::shard::{Router, RouterConfig};
use pm_chip::throughput::JobRef;
use pm_matchers::aho_corasick::{AhoCorasick, DictMatch};
use pm_systolic::superplane::simd_level;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::fmt::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Corpus size on disk. Large enough that engine work dominates the
/// per-window routing cost it is compared against.
const CORPUS_BYTES: usize = 512 << 10;
/// Page size the corpus is read at — each page becomes one routed
/// batch of per-pattern jobs. Sized so each routed batch amortises
/// its grouping-and-assignment cost over ~2 KiB lanes.
const PAGE_BYTES: usize = 128 << 10;
/// Dictionary size; every pattern scans every page.
const PATTERNS: usize = 16;
/// Shards × workers per shard = the 64-worker design point.
const SHARDS: usize = 4;
const WORKERS_PER_SHARD: usize = 16;
/// Sub-slices each page region is cut into, so every pattern group
/// fills a whole `u64` lane word instead of wasting 63 of its 64 bit
/// planes on one long stream.
const SUBLANES: usize = 64;
/// Streamed passes over the same corpus; the gated overhead is their
/// median.
const PASSES: usize = 9;

/// What one streamed pass over the corpus saw and spent.
#[derive(Default)]
struct Pass {
    /// Events kept after both keep-disciplines, sorted.
    events: Vec<DictMatch>,
    windows: u64,
    jobs: u64,
    chars: u64,
    plan_micros: u64,
    route_micros: u64,
    wall_micros: u64,
    steals: u64,
    elapsed: Duration,
}

impl Pass {
    /// Planning (router + shard planners) over batch wall-clock.
    fn overhead(&self) -> f64 {
        if self.wall_micros == 0 {
            0.0
        } else {
            self.plan_micros as f64 / self.wall_micros as f64
        }
    }
}

/// Cuts `slice` into up to `lanes` sub-slices overlapping by
/// `overlap` symbols, as `(sub, min_end, offset)` triples — the
/// [`ChunkView::regions`](pm_chip::ingest::ChunkView::regions)
/// keep-discipline applied a second time, to pack superplane lanes:
/// scan `sub`, keep match ends ≥ `min_end`, report at
/// `offset + position` within `slice`.
fn lane_cuts(slice: &[Symbol], lanes: usize, overlap: usize) -> Vec<(&[Symbol], usize, usize)> {
    let len = slice.len();
    let step = len.div_ceil(lanes.max(1)).max(overlap + 1);
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

/// Renders the E36 ingestion figure and writes `BENCH_ingest.json`
/// (path overridable via `PM_INGEST_JSON`).
pub fn ingest_figure() -> String {
    let path = std::env::var("PM_INGEST_JSON")
        .unwrap_or_else(|_| crate::snapshot_path("BENCH_ingest.json"));
    ingest_to(&path)
}

/// As [`ingest_figure`], with the JSON destination passed explicitly
/// so tests can route the snapshot to a temp path. Write errors are
/// ignored so read-only checkouts can still render.
pub fn ingest_to(json_path: &str) -> String {
    let mut out = String::new();
    let alphabet = Alphabet::TWO_BIT;

    // The corpus: deterministic symbols written to a real file, so the
    // measured path includes the paged positional reads.
    let corpus: Vec<Symbol> = workloads::random_text(alphabet, CORPUS_BYTES, 3600);
    let bytes: Vec<u8> = corpus.iter().map(|s| s.value()).collect();
    let corpus_path =
        std::env::temp_dir().join(format!("pm_e36_corpus_{}.bin", std::process::id()));
    std::fs::write(&corpus_path, &bytes).expect("temp corpus is writable");

    // Literal dictionary (AC-comparable), lengths 4..=12.
    let patterns: Vec<Pattern> = (0..PATTERNS)
        .map(|i| workloads::random_pattern(alphabet, 4 + i % 9, 0, 3700 + i as u64))
        .collect();
    let kmax = patterns.iter().map(Pattern::len).max().unwrap_or(1);

    writeln!(
        out,
        "Zero-copy ingestion (E36): {} KiB corpus in {} KiB pages, \
         {PATTERNS} patterns (kmax {kmax}), {SHARDS} shards × \
         {WORKERS_PER_SHARD} workers = {} workers, SIMD dispatch: {}",
        CORPUS_BYTES >> 10,
        PAGE_BYTES >> 10,
        SHARDS * WORKERS_PER_SHARD,
        simd_level(),
    )
    .unwrap();

    // Offline oracle: Aho–Corasick over the whole in-memory corpus.
    let oracle = AhoCorasick::new(&patterns).expect("literal patterns");
    let offline = {
        let t = Instant::now();
        let events = oracle.find_all(&corpus);
        (events, t.elapsed())
    };

    // Streamed path: file → pages → overlap windows → routed jobs, on
    // a fresh router each pass.
    let mut passes: Vec<Pass> = (0..PASSES)
        .map(|_| streamed_pass(&corpus_path, &patterns, kmax))
        .collect();
    std::fs::remove_file(&corpus_path).ok();

    let exact = passes.iter().all(|p| p.events == offline.0);
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.2} %", p.overhead() * 100.0))
        .collect();
    // The gate, the report and the advisory rates all come from the
    // median pass.
    passes.sort_by(|a, b| a.overhead().total_cmp(&b.overhead()));
    let m = &passes[PASSES / 2];
    let overhead = m.overhead();
    let rate = m.chars as f64 / m.elapsed.as_secs_f64();
    let corpus_rate = CORPUS_BYTES as f64 / m.elapsed.as_secs_f64();

    writeln!(
        out,
        "\n  streamed windows: {} ({} routed jobs, {} chars scanned, {} batch steals)",
        m.windows, m.jobs, m.chars, m.steals
    )
    .unwrap();
    writeln!(
        out,
        "  events: {} streamed, {} offline (AC oracle scanned in {:.1} ms)",
        m.events.len(),
        offline.0.len(),
        offline.1.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        out,
        "  scan rate: {:.1} Mchar/s across patterns ({:.1} Mchar/s of corpus)",
        rate / 1e6,
        corpus_rate / 1e6
    )
    .unwrap();
    writeln!(
        out,
        "\n  planner overhead: {} µs planning ({} µs routing) over {} µs of \
         batch wall-clock = {:.2} % (< 5 % holds: {}), median of {PASSES} \
         passes; per pass: {}",
        m.plan_micros,
        m.route_micros,
        m.wall_micros,
        overhead * 100.0,
        overhead < 0.05,
        per_pass.join(", ")
    )
    .unwrap();

    // JSON for the CI gate: the 0.05 ceiling on `planner_overhead_frac`
    // is enforced absolutely by bench_gate; the rates are advisory.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"planner_overhead_frac\": {overhead:.5},");
    let _ = writeln!(json, "  \"ingest_chars_per_sec\": {rate:.1},");
    let _ = writeln!(json, "  \"corpus_chars_per_sec\": {corpus_rate:.1},");
    let _ = writeln!(json, "  \"corpus_bytes\": {CORPUS_BYTES},");
    let _ = writeln!(json, "  \"page_bytes\": {PAGE_BYTES},");
    let _ = writeln!(json, "  \"patterns\": {PATTERNS},");
    let _ = writeln!(json, "  \"shards\": {SHARDS},");
    let _ = writeln!(json, "  \"workers_per_shard\": {WORKERS_PER_SHARD},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\"", simd_level());
    json.push_str("}\n");
    super::write_snapshot(&mut out, json_path, &json);

    writeln!(out, "\n  equal offline oracle: {exact}").unwrap();
    out
}

/// Streams the corpus file once through a fresh router: pages →
/// overlap windows → lane cuts → one routed batch per window.
fn streamed_pass(corpus_path: &Path, patterns: &[Pattern], kmax: usize) -> Pass {
    let router = Router::new(RouterConfig {
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        ..RouterConfig::default()
    });
    let source = PagedCorpus::open(corpus_path, PAGE_BYTES).expect("corpus just written");
    let mut chunker = OverlapChunker::new(source, kmax);
    let mut pass = Pass::default();
    let started = Instant::now();
    while let Some(view) = chunker.next_window().expect("in-memory tmpfs read") {
        pass.windows += 1;
        let mut refs: Vec<JobRef<'_>> = Vec::new();
        let mut meta: Vec<(usize, usize, usize)> = Vec::new();
        for (slice, min_end, base) in view.regions() {
            for (sub, sub_min, off) in lane_cuts(slice, SUBLANES, kmax - 1) {
                // Combine both keep-disciplines: the window's (skip
                // ends the previous window reported) and the cut's
                // (skip ends the previous cut reported).
                let keep_from = sub_min.max(min_end.saturating_sub(off));
                for (id, pattern) in patterns.iter().enumerate() {
                    refs.push(JobRef {
                        id: refs.len() as u64,
                        pattern,
                        text: sub,
                    });
                    meta.push((id, keep_from, base + off));
                }
            }
        }
        let report = router.run_refs(&refs).expect("no fault plan armed");
        pass.jobs += refs.len() as u64;
        pass.chars += report.total_chars();
        pass.plan_micros += report.plan_micros();
        pass.route_micros += report.route_micros;
        pass.wall_micros += report.wall_micros;
        pass.steals += report.steals();
        for (job, &(pattern, min_end, base)) in report.outputs.iter().zip(&meta) {
            for end in job.hits.ending_positions() {
                if end >= min_end {
                    pass.events.push(DictMatch {
                        pattern,
                        end: base + end,
                    });
                }
            }
        }
    }
    pass.elapsed = started.elapsed();
    pass.events.sort_unstable();
    pass
}

#[cfg(test)]
mod tests {
    #[test]
    fn ingest_figure_is_exact() {
        let path = std::env::temp_dir().join("pm_test_ingest.json");
        let text = super::ingest_to(path.to_str().unwrap());
        assert!(text.contains("equal offline oracle: true"), "{text}");
        assert!(text.contains("planner overhead:"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"planner_overhead_frac\":"), "{json}");
        std::fs::remove_file(&path).ok();
    }
}
