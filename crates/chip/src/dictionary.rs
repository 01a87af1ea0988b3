//! Pattern dictionaries: compiling thousands of patterns into the
//! §3.4 chip farm.
//!
//! The paper's composition argument is that special-purpose matcher
//! chips cascade — many chips share one text bus, so a whole
//! *dictionary* of patterns is matched in a single streaming pass.
//! This module is that arrangement over the superplane engine:
//! [`PatternDictionary`] plans 10–10,000 patterns into
//! [`ResidentGroup`]s (the lane-resident "chips" of
//! `pm_systolic::resident`), and [`DictionaryMatcher`] streams text
//! chunks through every group once, merging per-group lane events into
//! a single `(pattern_id, end)` stream.
//!
//! The compilation pipeline:
//!
//! 1. **prefix-dedup trie** — patterns are interned in a trie keyed by
//!    pattern symbols (wild card = its own edge), so exact duplicates
//!    collapse onto one resident lane (their ids fan back out at event
//!    time) and the depth-first walk emits survivors in prefix-adjacent
//!    order;
//! 2. **length buckets** — survivors are stable-sorted by length via
//!    [`plan::bucket_by_len`](crate::plan::bucket_by_len), the same
//!    bucketing the throughput planner applies to pooled batches, so one
//!    long pattern can't inflate the `kmax` (and therefore the
//!    per-character cost) of every group it touches;
//! 3. **superplane groups** — the bucketed order is cut into groups of
//!    `width.lanes()` patterns, each compiled to a `ResidentGroup`
//!    whose acceptance table is built once and reused for every chunk.
//!
//! [`DictionaryStats`] reports what planning achieved — dedup ratio,
//! lane occupancy, prefix sharing — and
//! [`record_plan`](PatternDictionary::record_plan) exports the same
//! numbers as a [`TraceEvent::DictionaryPlanned`] telemetry event.
//! Benchmark E33 races the result against the Aho–Corasick software
//! baseline in `pm_matchers::aho_corasick`.
//!
//! ```
//! use pm_chip::dictionary::PatternDictionary;
//! use pm_chip::throughput::SuperWidth;
//! use pm_systolic::symbol::{text_from_letters, Pattern};
//!
//! let dict = PatternDictionary::new(
//!     &[
//!         Pattern::parse("ABC").unwrap(),
//!         Pattern::parse("BCA").unwrap(),
//!         Pattern::parse("ABC").unwrap(), // duplicate: shares a lane
//!     ],
//!     SuperWidth::W1,
//! );
//! assert_eq!(dict.stats().patterns, 3);
//! assert_eq!(dict.stats().resident, 2);
//!
//! let mut m = dict.matcher();
//! let text = text_from_letters("ABCA").unwrap();
//! let hits: Vec<(usize, usize)> =
//!     m.find_all(&text).iter().map(|h| (h.pattern, h.end)).collect();
//! // Both copies of "ABC" report at end 2; "BCA" at end 3.
//! assert_eq!(hits, vec![(0, 2), (2, 2), (1, 3)]);
//! ```

use crate::throughput::SuperWidth;
use pm_matchers::aho_corasick::DictMatch;
use pm_systolic::resident::ResidentGroup;
use pm_systolic::symbol::{PatSym, Pattern, Symbol};
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::BTreeMap;

/// Trie edge key: a literal symbol value, or this for a wild card.
const WILD_KEY: u16 = u16::MAX;

/// What dictionary compilation achieved, for telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DictionaryStats {
    /// Patterns submitted (distinct ids).
    pub patterns: usize,
    /// Distinct patterns left resident after dedup.
    pub resident: usize,
    /// Superplane groups planned.
    pub groups: usize,
    /// Lane slots across those groups (`groups × width.lanes()`).
    pub lane_slots: usize,
    /// Trie nodes below the root — the symbols actually stored.
    pub trie_nodes: usize,
    /// Symbols summed over all submitted patterns.
    pub pattern_symbols: usize,
}

impl DictionaryStats {
    /// Resident lanes per submitted pattern (1.0 = no duplicates,
    /// lower = the trie collapsed more).
    pub fn dedup_ratio(&self) -> f64 {
        if self.patterns == 0 {
            1.0
        } else {
            self.resident as f64 / self.patterns as f64
        }
    }

    /// Occupied fraction of the planned lane slots.
    pub fn occupancy(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.resident as f64 / self.lane_slots as f64
        }
    }

    /// Fraction of submitted symbols the trie absorbed into shared
    /// storage (0.0 = every symbol stored separately).
    pub fn prefix_sharing(&self) -> f64 {
        if self.pattern_symbols == 0 {
            0.0
        } else {
            1.0 - self.trie_nodes as f64 / self.pattern_symbols as f64
        }
    }
}

/// A planned multi-pattern dictionary: submitted patterns, the
/// deduped resident order, and the group cut — everything needed to
/// build a [`DictionaryMatcher`].
///
/// Pattern *ids* are the indices into the slice given to
/// [`new`](Self::new); match events report those ids, so duplicates
/// are transparent to the caller.
#[derive(Debug, Clone)]
pub struct PatternDictionary {
    width: SuperWidth,
    /// Representative pattern per resident lane, in planned order.
    residents: Vec<Pattern>,
    /// Submitted ids behind each resident lane (first id is the
    /// representative's own).
    ids_of: Vec<Vec<u32>>,
    stats: DictionaryStats,
}

impl PatternDictionary {
    /// Plans `patterns` into resident groups of the given superplane
    /// width. Accepts any count (including zero — an empty dictionary
    /// matches nothing); wild cards are fine, they simply intern as
    /// their own trie edge.
    pub fn new(patterns: &[Pattern], width: SuperWidth) -> Self {
        // 1. Prefix-dedup trie. Nodes are BTreeMaps so the DFS below
        //    is deterministic and prefix-adjacent.
        let mut children: Vec<BTreeMap<u16, usize>> = vec![BTreeMap::new()];
        let mut terminals: Vec<Vec<u32>> = vec![Vec::new()];
        let mut pattern_symbols = 0usize;
        for (id, p) in patterns.iter().enumerate() {
            pattern_symbols += p.len();
            let mut node = 0usize;
            for sym in p.symbols() {
                let key = match sym {
                    PatSym::Wild => WILD_KEY,
                    PatSym::Lit(s) => u16::from(s.value()),
                };
                node = match children[node].get(&key) {
                    Some(&next) => next,
                    None => {
                        let next = children.len();
                        children.push(BTreeMap::new());
                        terminals.push(Vec::new());
                        children[node].insert(key, next);
                        next
                    }
                };
            }
            terminals[node].push(id as u32);
        }

        // 2. DFS emits survivors prefix-adjacent; stable length sort
        //    then buckets them without destroying that adjacency.
        let mut order: Vec<usize> = Vec::new(); // trie node per survivor
        let mut stack = vec![0usize];
        while let Some(node) = stack.pop() {
            if !terminals[node].is_empty() {
                order.push(node);
            }
            // Reverse so the smallest edge is popped (visited) first.
            stack.extend(children[node].values().rev());
        }
        let mut survivors: Vec<(Pattern, Vec<u32>)> = order
            .into_iter()
            .map(|node| {
                let ids = std::mem::take(&mut terminals[node]);
                (patterns[ids[0] as usize].clone(), ids)
            })
            .collect();
        crate::plan::bucket_by_len(&mut survivors, |(p, _)| p.len());

        // 3. The group cut is implicit: resident lane l lives in group
        //    l / width.lanes(). Stats summarise the plan.
        let resident = survivors.len();
        let groups = resident.div_ceil(width.lanes());
        let stats = DictionaryStats {
            patterns: patterns.len(),
            resident,
            groups,
            lane_slots: groups * width.lanes(),
            trie_nodes: children.len() - 1,
            pattern_symbols,
        };
        let (residents, ids_of) = survivors.into_iter().unzip();
        PatternDictionary {
            width,
            residents,
            ids_of,
            stats,
        }
    }

    /// The planned superplane width.
    pub fn width(&self) -> SuperWidth {
        self.width
    }

    /// Submitted pattern count (the id space of match events).
    pub fn pattern_count(&self) -> usize {
        self.stats.patterns
    }

    /// What planning achieved.
    pub fn stats(&self) -> &DictionaryStats {
        &self.stats
    }

    /// Emits the plan as a [`TraceEvent::DictionaryPlanned`] event so a
    /// metrics registry can fold it into the `pm_dict_*` counters.
    pub fn record_plan(&self, sink: &SinkHandle) {
        sink.record(TraceEvent::DictionaryPlanned {
            patterns: self.stats.patterns as u64,
            resident: self.stats.resident as u64,
            groups: self.stats.groups as u32,
            lane_slots: self.stats.lane_slots as u64,
        });
    }

    /// Compiles the plan into a streaming matcher. Group acceptance
    /// tables are built here, once; the matcher reuses them for every
    /// chunk it is fed.
    pub fn matcher(&self) -> DictionaryMatcher {
        let span = self.width.lanes();
        let chunks = self.residents.chunks(span);
        let groups = match self.width {
            SuperWidth::W1 => Farm::W1(chunks.map(compile_group).collect()),
            SuperWidth::W4 => Farm::W4(chunks.map(compile_group).collect()),
            SuperWidth::W8 => Farm::W8(chunks.map(compile_group).collect()),
        };
        let kmax = self.residents.iter().map(|p| p.len()).max().unwrap_or(0);
        DictionaryMatcher {
            groups,
            ids_of: self.ids_of.clone(),
            span,
            kmax,
            tail: Vec::new(),
            seen: 0,
        }
    }
}

/// Builds one resident group; the plan guarantees the chunk fits.
fn compile_group<const W: usize>(chunk: &[Pattern]) -> ResidentGroup<W> {
    ResidentGroup::new(chunk).expect("planned group exceeds its own width")
}

/// The compiled farm: one vector of resident groups at the planned
/// width. A runtime-width wrapper over the const-generic kernel.
#[derive(Debug, Clone)]
enum Farm {
    W1(Vec<ResidentGroup<1>>),
    W4(Vec<ResidentGroup<4>>),
    W8(Vec<ResidentGroup<8>>),
}

/// Streams text through every resident group of a
/// [`PatternDictionary`] and merges the per-group lane events into one
/// ordered `(pattern_id, end)` stream.
///
/// Two modes: [`find_all`](Self::find_all) for a complete text, and
/// [`feed`](Self::feed) for chunked streaming — the matcher carries the
/// `kmax − 1` symbol overlap between chunks itself, so matches that
/// straddle a chunk boundary (or span several chunks) are still
/// reported exactly once, at their global end offset.
///
/// ```
/// use pm_chip::dictionary::PatternDictionary;
/// use pm_chip::throughput::SuperWidth;
/// use pm_systolic::symbol::{text_from_letters, Pattern};
///
/// let dict = PatternDictionary::new(
///     &[Pattern::parse("CAB").unwrap(), Pattern::parse("AB").unwrap()],
///     SuperWidth::W4,
/// );
/// let mut m = dict.matcher();
/// let text = text_from_letters("ABCABA").unwrap();
///
/// // Feeding in 2-symbol chunks still finds "CAB" across the cut:
/// let mut streamed = Vec::new();
/// for chunk in text.chunks(2) {
///     streamed.extend(m.feed(chunk));
/// }
/// assert_eq!(streamed, m.find_all(&text));
/// assert_eq!(
///     streamed.iter().map(|h| (h.pattern, h.end)).collect::<Vec<_>>(),
///     vec![(1, 1), (0, 4), (1, 4)],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DictionaryMatcher {
    groups: Farm,
    /// Submitted ids fanned out per resident lane.
    ids_of: Vec<Vec<u32>>,
    /// Lane slots per group (`width.lanes()`).
    span: usize,
    /// Longest resident pattern; `kmax − 1` symbols of overlap carry
    /// between chunks.
    kmax: usize,
    /// Carried overlap: the last `kmax − 1` symbols already consumed.
    tail: Vec<Symbol>,
    /// Symbols consumed before the next [`feed`](Self::feed) chunk.
    seen: usize,
}

impl DictionaryMatcher {
    /// Matches a complete text in one pass, independent of any
    /// streaming state. Events are ordered by `(end, pattern)`.
    pub fn find_all(&self, text: &[Symbol]) -> Vec<DictMatch> {
        self.scan_window(text, 0, 0)
    }

    /// Consumes the next chunk of a streamed text and returns the
    /// events whose match window *ends* inside it (offsets are global
    /// across all chunks fed so far). Chunks may be any size, including
    /// shorter than the longest pattern.
    ///
    /// Per-chunk allocation is O(`kmax`), not O(chunk): with no carried
    /// tail the caller's slice is scanned in place, and with one only a
    /// boundary window of at most `2·(kmax − 1)` symbols is
    /// materialised before the rest of the chunk is again scanned
    /// borrowed.
    pub fn feed(&mut self, chunk: &[Symbol]) -> Vec<DictMatch> {
        if self.kmax == 0 {
            self.seen += chunk.len();
            return Vec::new();
        }
        let carry = self.tail.len();
        let overlap = self.kmax - 1;
        let events = if carry == 0 {
            self.scan_window(chunk, 0, self.seen)
        } else {
            // Boundary window: the carried tail plus just enough of the
            // chunk to finish any match that straddles the cut.
            let head = chunk.len().min(overlap);
            let mut window = Vec::with_capacity(carry + head);
            window.extend_from_slice(&self.tail);
            window.extend_from_slice(&chunk[..head]);
            let mut events = self.scan_window(&window, carry, self.seen - carry);
            if head < chunk.len() {
                // Matches ending past the overlap lie wholly inside the
                // chunk; scan the slice directly, skipping the prefix
                // the boundary window already reported. Both halves are
                // (end, pattern)-sorted and the end ranges are disjoint
                // and ordered, so extending keeps the merged order.
                events.extend(self.scan_window(chunk, head, self.seen));
            }
            events
        };
        self.seen += chunk.len();
        // Retain the kmax − 1 overlap without copying the whole chunk:
        // either the chunk covers it, or the old tail's suffix tops it
        // up.
        if chunk.len() >= overlap {
            self.tail.clear();
            self.tail.extend_from_slice(&chunk[chunk.len() - overlap..]);
        } else {
            let keep_old = (carry + chunk.len()).min(overlap) - chunk.len();
            self.tail.drain(..carry - keep_old);
            self.tail.extend_from_slice(chunk);
        }
        events
    }

    /// Forgets all streaming state, ready for a fresh text.
    pub fn reset(&mut self) {
        self.tail.clear();
        self.seen = 0;
    }

    /// Total symbols consumed via [`feed`](Self::feed) since the last
    /// [`reset`](Self::reset).
    pub fn consumed(&self) -> usize {
        self.seen
    }

    /// Resident groups in the farm.
    pub fn group_count(&self) -> usize {
        match &self.groups {
            Farm::W1(g) => g.len(),
            Farm::W4(g) => g.len(),
            Farm::W8(g) => g.len(),
        }
    }

    /// Scans `window` through every group, keeping events ending at or
    /// after `min_pos`, reported at `base + position`, merged and
    /// sorted by `(end, pattern)`.
    fn scan_window(&self, window: &[Symbol], min_pos: usize, base: usize) -> Vec<DictMatch> {
        let mut events = Vec::new();
        match &self.groups {
            Farm::W1(g) => scan_farm(g, self, window, min_pos, base, &mut events),
            Farm::W4(g) => scan_farm(g, self, window, min_pos, base, &mut events),
            Farm::W8(g) => scan_farm(g, self, window, min_pos, base, &mut events),
        }
        events.sort_unstable();
        events
    }
}

/// One farm pass at a concrete width: every group scans the same
/// window (the shared text bus of §3.4), lane hits fan back out to
/// submitted pattern ids.
fn scan_farm<const W: usize>(
    groups: &[ResidentGroup<W>],
    m: &DictionaryMatcher,
    window: &[Symbol],
    min_pos: usize,
    base: usize,
    events: &mut Vec<DictMatch>,
) {
    for (g, group) in groups.iter().enumerate() {
        for (pos, lane) in group.scan(window) {
            if pos < min_pos {
                continue; // already reported by the previous chunk
            }
            for &id in &m.ids_of[g * m.span + lane] {
                events.push(DictMatch {
                    pattern: id as usize,
                    end: base + pos,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;
    use pm_systolic::telemetry::MemorySink;
    use std::sync::Arc;

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    fn patterns(specs: &[&str]) -> Vec<Pattern> {
        specs.iter().map(|s| Pattern::parse(s).unwrap()).collect()
    }

    /// Spec-derived `(pattern, end)` events for a dictionary.
    fn spec_events(pats: &[Pattern], text: &[Symbol]) -> Vec<DictMatch> {
        let mut events = Vec::new();
        for (id, p) in pats.iter().enumerate() {
            for (end, hit) in match_spec(text, p).iter().enumerate() {
                if *hit {
                    events.push(DictMatch { pattern: id, end });
                }
            }
        }
        events.sort_unstable();
        events
    }

    #[test]
    fn planning_dedups_and_buckets() {
        let pats = patterns(&["ABCA", "AB", "ABCA", "XX", "ABCB", "AB"]);
        let dict = PatternDictionary::new(&pats, SuperWidth::W1);
        let s = dict.stats();
        assert_eq!(s.patterns, 6);
        assert_eq!(s.resident, 4); // ABCA, AB, XX, ABCB
        assert_eq!(s.groups, 1);
        assert_eq!(s.lane_slots, 64);
        // Shared prefixes: ABCA/ABCB share "ABC", AB is a prefix of it.
        // Trie stores A,B,C,A,B (5) + X,X (2) = 7 of 18 symbols.
        assert_eq!(s.trie_nodes, 7);
        assert_eq!(s.pattern_symbols, 18);
        assert!(s.dedup_ratio() < 0.7);
        assert!(s.prefix_sharing() > 0.6);
    }

    #[test]
    fn duplicate_ids_fan_out_and_buckets_are_stable() {
        let pats = patterns(&["ABCA", "AB", "ABCA"]);
        let dict = PatternDictionary::new(&pats, SuperWidth::W1);
        let text = letters("ABCAB");
        let events = dict.matcher().find_all(&text);
        assert_eq!(events, spec_events(&pats, &text));
        // Both ids 0 and 2 fire at end 3.
        assert!(events.contains(&DictMatch { pattern: 0, end: 3 }));
        assert!(events.contains(&DictMatch { pattern: 2, end: 3 }));
    }

    #[test]
    fn multi_group_dictionary_equals_spec() {
        // 150 distinct patterns on W1: three groups of 64 lanes.
        let pats: Vec<Pattern> = (0..150u32)
            .map(|i| {
                let letters = ["A", "B", "C", "D"];
                let s: String = (0..3 + (i % 4))
                    .map(|j| letters[((i / 4u32.pow(j)) % 4) as usize])
                    .collect();
                Pattern::parse(&s).unwrap()
            })
            .collect();
        let dict = PatternDictionary::new(&pats, SuperWidth::W1);
        assert!(dict.stats().groups >= 2);
        let text = letters("ABCDDCBAABCDABCDDDAABBCCDD");
        assert_eq!(dict.matcher().find_all(&text), spec_events(&pats, &text));
    }

    #[test]
    fn chunked_feed_matches_find_all_at_every_width() {
        let pats = patterns(&["ABCABC", "CAB", "BX", "AAAA"]);
        let text = letters("ABCABCABCAAAABCABBA");
        for width in [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8] {
            let dict = PatternDictionary::new(&pats, width);
            let whole = dict.matcher().find_all(&text);
            assert_eq!(whole, spec_events(&pats, &text), "{}", width.label());
            for chunk_len in [1, 2, 3, 5, 19] {
                let mut m = dict.matcher();
                let mut streamed = Vec::new();
                for chunk in text.chunks(chunk_len) {
                    streamed.extend(m.feed(chunk));
                }
                assert_eq!(streamed, whole, "{} chunk={chunk_len}", width.label());
                assert_eq!(m.consumed(), text.len());
                m.reset();
                assert_eq!(m.consumed(), 0);
                assert_eq!(m.feed(&text), whole, "after reset");
            }
        }
    }

    #[test]
    fn feed_state_stays_bounded_by_kmax() {
        let pats = patterns(&["ABCAB", "BC"]);
        let dict = PatternDictionary::new(&pats, SuperWidth::W1);
        let mut m = dict.matcher();
        let kmax = 5;
        // One huge chunk, then ragged little ones: the carried tail and
        // its backing allocation must stay O(kmax), never O(chunk).
        let big: Vec<Symbol> = letters("ABCAB").repeat(4000);
        m.feed(&big);
        assert_eq!(m.tail.len(), kmax - 1);
        assert!(m.tail.capacity() < 4 * kmax, "tail grew with the chunk");
        for chunk_len in [1, 2, 3, 7] {
            for chunk in big.chunks(chunk_len) {
                m.feed(chunk);
                assert!(m.tail.len() < kmax);
                assert!(m.tail.capacity() < 4 * kmax);
            }
        }
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let dict = PatternDictionary::new(&[], SuperWidth::W4);
        assert_eq!(dict.stats().resident, 0);
        assert_eq!(dict.stats().groups, 0);
        let mut m = dict.matcher();
        assert_eq!(m.group_count(), 0);
        assert!(m.feed(&letters("ABC")).is_empty());
        assert!(m.find_all(&letters("ABC")).is_empty());
    }

    #[test]
    fn record_plan_reaches_the_sink() {
        let sink = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(sink.clone());
        let pats = patterns(&["AB", "AB", "BC"]);
        PatternDictionary::new(&pats, SuperWidth::W8).record_plan(&handle);
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            TraceEvent::DictionaryPlanned {
                patterns: 3,
                resident: 2,
                groups: 1,
                lane_slots: 512,
            }
        ));
    }
}
