//! `scan_10k`: one thread streams a file-backed corpus through a
//! 10,000-pattern literal dictionary, `PagedCorpus::next_chunk` →
//! `DictionaryMatcher::feed`, in 64 KiB pages.
//!
//! The dictionary engine does almost all the work and its compile is
//! real set-up; no sockets or scheduler are on the path.

use crate::gen::{self, BytePattern, Oracle, Rng};
use crate::measure::{
    median, micros, percentile, ratio, timed, timed_if, Digest, Outcome, Region, Spent,
};
use crate::CorpusFile;
use pm_chip::dictionary::{DictionaryMatcher, PatternDictionary};
use pm_chip::ingest::{PagedCorpus, TextSource};
use pm_chip::throughput::SuperWidth;
use pm_systolic::symbol::{Alphabet, Symbol};
use std::time::Duration;

const PATTERNS: usize = 10_000;
/// Patterns share prefixes: each starts with one of this many stems.
const STEMS: usize = 600;
const CORPUS_BYTES: usize = 8 << 20;
const PAGE: usize = 64 << 10;
/// About one planted occurrence per this many bytes.
const PLANT_EVERY: usize = 512;
const SETUP_REPS: usize = 7;
/// Pages the farm and Aho–Corasick are raced over offline.
const RACE_PAGES: usize = 32;

fn generate(seed: u64) -> (Vec<BytePattern>, Vec<u8>) {
    let mut rng = Rng::new(seed, 2);
    let stems: Vec<Vec<u8>> = (0..STEMS)
        .map(|_| {
            let mut stem = vec![0; rng.range(3, 10)];
            rng.fill(&mut stem, 8);
            stem
        })
        .collect();
    let patterns: Vec<BytePattern> = (0..PATTERNS)
        .map(|_| {
            let stem = &stems[rng.below(STEMS)];
            let mut bytes = stem.clone();
            bytes.resize(rng.range(4.max(stem.len() + 1), 32), 0);
            rng.fill(&mut bytes[stem.len()..], 8);
            BytePattern { bytes, wild: None }
        })
        .collect();
    let mut corpus = vec![0u8; CORPUS_BYTES];
    rng.fill(&mut corpus, 8);
    gen::plant(&mut corpus, &patterns, PLANT_EVERY, &mut rng);
    (patterns, corpus)
}

/// One streamed page, kept for the oracle check after the run.
struct Page {
    start: usize,
    len: usize,
    events: Digest,
}

#[derive(Default)]
struct Pass {
    chars: u64,
    pages: u64,
    spent: Spent,
    page_us: Vec<f64>,
    read_secs: f64,
    feed_secs: f64,
}

struct Scan {
    corpus: PagedCorpus,
    matcher: DictionaryMatcher,
    pages: Vec<Page>,
}

impl Scan {
    /// Streams pages until `budget` of wall clock is spent, wrapping
    /// to a fresh stream at the end of the corpus.
    fn pass(&mut self, budget: Duration, traced: bool) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let region = Region::start();
        while region.elapsed() < budget {
            let start = self.corpus.consumed() as usize;
            let (chunk, read) = timed_if(traced, || self.corpus.next_chunk());
            let Some(chunk) = chunk.map_err(|e| format!("scan_10k read: {e}"))? else {
                self.corpus.rewind();
                self.matcher.reset();
                continue;
            };
            let (events, feed) = timed_if(traced, || self.matcher.feed(chunk));
            if traced {
                pass.page_us.push(micros(read + feed));
            }
            pass.pages += 1;
            pass.read_secs += read.as_secs_f64();
            pass.feed_secs += feed.as_secs_f64();
            pass.chars += chunk.len() as u64;
            self.pages.push(Page {
                start,
                len: chunk.len(),
                events: Digest::of(events.iter().map(|m| (m.pattern as u64, m.end as u64))),
            });
        }
        pass.spent = region.finish();
        Ok(pass)
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Result<Outcome, String> {
    let (byte_patterns, corpus_bytes) = generate(seed);
    let patterns: Vec<_> = byte_patterns
        .iter()
        .map(|p| p.pattern(Alphabet::EIGHT_BIT))
        .collect();
    let file = CorpusFile::write("scan_10k", &corpus_bytes)?;
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut compiles = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let ((dict, matcher), compile) = timed(|| {
            let dict = PatternDictionary::new(&patterns, SuperWidth::W8);
            let matcher = dict.matcher();
            (dict, matcher)
        });
        let (corpus, open) = timed(|| PagedCorpus::open(file.path(), PAGE));
        let corpus = corpus.map_err(|e| format!("scan_10k open: {e}"))?;
        setups.push((compile + open).as_secs_f64());
        compiles.push(compile.as_secs_f64());
        kept = Some((dict, matcher, corpus));
    }
    let (dict, matcher, corpus) = kept.expect("at least one set-up");

    let mut scan = Scan {
        corpus,
        matcher,
        pages: Vec::new(),
    };
    let (plain, traced) = if trace {
        let plain = scan.pass(budget / 2, false)?;
        (plain, Some(scan.pass(budget / 2, true)?))
    } else {
        (scan.pass(budget, false)?, None)
    };

    // The oracle check: each page's events equal the oracle's events
    // ending inside the page.
    let ac = Oracle::new(&byte_patterns, Alphabet::EIGHT_BIT);
    let corpus: Vec<Symbol> = gen::symbols(&corpus_bytes);
    let oracle = ac.find_all(&corpus);
    for page in &scan.pages {
        let lo = oracle.partition_point(|m| m.end < page.start);
        let hi = oracle.partition_point(|m| m.end < page.start + page.len);
        let want = Digest::of(
            oracle[lo..hi]
                .iter()
                .map(|m| (m.pattern as u64, m.end as u64)),
        );
        out.check(want == page.events);
    }

    let Some(traced) = traced else {
        out.push("setup_s", median(&setups));
        out.push("mchar_per_cpu_s", plain.spent.mchar_per_cpu_s(plain.chars));
        // CPU time per page, a mean: per-chunk percentiles of a
        // CPU-bound scan flip with the host's speed epochs.
        out.push(
            "feed_p50_us",
            plain.spent.cpu_secs * 1e6 / plain.pages as f64,
        );
        return Ok(out);
    };

    // Farm against Aho–Corasick on the same pages, one after the other.
    let race = &corpus[..RACE_PAGES * PAGE];
    let mut farm = dict.matcher();
    let (_, farm_time) = timed(|| race.chunks(PAGE).map(|p| farm.feed(p).len()).sum::<usize>());
    let (_, ac_time) = timed(|| {
        race.chunks(PAGE)
            .map(|p| ac.find_all(p).len())
            .sum::<usize>()
    });

    let stats = *dict.stats();
    let mib = traced.chars as f64 / (1 << 20) as f64;
    out.push("feed_p99_us", percentile(&traced.page_us, 0.99));
    out.push("wall_mchar_per_s", plain.spent.mchar_per_s(plain.chars));
    out.push("dictionary.compile_s", median(&compiles));
    out.push("dictionary.feed_us_per_mib", traced.feed_secs * 1e6 / mib);
    out.push(
        "dictionary.over_ac",
        ratio(ac_time.as_secs_f64(), farm_time.as_secs_f64()),
    );
    out.push("dictionary.groups", stats.groups as f64);
    out.push("dictionary.occupancy", stats.occupancy());
    out.push("dictionary.dedup_ratio", stats.dedup_ratio());
    out.push("ingest.read_us_per_mib", traced.read_secs * 1e6 / mib);
    out.push(
        "trace_overhead_frac",
        1.0 - ratio(
            traced.spent.mchar_per_cpu_s(traced.chars),
            plain.spent.mchar_per_cpu_s(plain.chars),
        ),
    );
    Ok(out)
}
