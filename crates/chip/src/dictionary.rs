//! Pattern dictionaries: compiling thousands of patterns into the
//! §3.4 chip farm.
//!
//! The paper's composition argument is that special-purpose matcher
//! chips cascade — many chips share one text bus, so a whole
//! *dictionary* of patterns is matched in a single streaming pass.
//! This module is that arrangement over the superplane engine:
//! [`PatternDictionary`] plans 10–10,000 patterns into
//! [`ResidentGroup`]s (the lane-resident "chips" of
//! `pm_systolic::resident`) and compiles them once into an immutable,
//! shared farm. A [`DictionaryMatcher`] is only a stream's carry over
//! that farm — one [`LaneState`], the array's own state, per group — so
//! each chunk streams through every group once, and the per-group lane
//! events merge into a single `(pattern_id, end)` stream.
//!
//! The compilation pipeline, all of it in [`PatternDictionary::new`]:
//!
//! 1. **prefix dedup** — pattern ids are stable-sorted by their symbol
//!    sequences (wild card = a key above every symbol), which is the
//!    depth-first order of a prefix trie: exact duplicates land side by
//!    side and collapse onto one resident lane (their ids fan back out
//!    at event time), and the survivors come out in prefix-adjacent
//!    order;
//! 2. **length buckets** — survivors are stable-sorted by length, as
//!    the throughput planner sorts its pool of small pattern groups, so
//!    one long pattern can't inflate the `kmax` (and therefore the
//!    per-character cost) of every group it touches;
//! 3. **superplane groups** — the bucketed order is cut into groups of
//!    `width.lanes()` patterns; the last (or only) group compiles at the
//!    narrowest width that holds what is left, so the farm has as many
//!    chips as the dictionary needs and no half-empty one. Each group is
//!    compiled to a `ResidentGroup` whose acceptance table every matcher
//!    shares for every chunk.
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
use pm_systolic::resident::{LaneHit, LaneState, ResidentGroup};
use pm_systolic::symbol::{PatSym, Pattern, Symbol};
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::sync::Arc;

/// Planning key of a pattern symbol: a literal's value, or this for a
/// wild card.
const WILD_KEY: u16 = u16::MAX;

/// A pattern's symbols as planning keys.
fn keys(p: &Pattern) -> impl Iterator<Item = u16> + '_ {
    p.symbols().iter().map(|sym| match sym {
        PatSym::Wild => WILD_KEY,
        PatSym::Lit(s) => u16::from(s.value()),
    })
}

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
    /// Lane slots across those groups: the sum of their capacities
    /// (`W × 64` each, the last group as narrow as its lanes allow).
    pub lane_slots: usize,
    /// Prefix-trie nodes below the root — the distinct prefixes of the
    /// resident patterns, i.e. the symbols a trie would store.
    pub trie_nodes: usize,
    /// Symbols summed over all submitted patterns.
    pub pattern_symbols: usize,
}

impl DictionaryStats {
    /// Resident lanes per submitted pattern (1.0 = no duplicates,
    /// lower = dedup collapsed more).
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

    /// Fraction of submitted symbols a prefix trie of the residents
    /// shares (0.0 = every symbol stored separately).
    pub fn prefix_sharing(&self) -> f64 {
        if self.pattern_symbols == 0 {
            0.0
        } else {
            1.0 - self.trie_nodes as f64 / self.pattern_symbols as f64
        }
    }
}

/// A compiled multi-pattern dictionary: the farm of resident groups,
/// built once and shared by every [`DictionaryMatcher`] it hands out.
///
/// Pattern *ids* are the indices into the slice given to
/// [`new`](Self::new); match events report those ids, so duplicates
/// are transparent to the caller.
#[derive(Debug, Clone)]
pub struct PatternDictionary {
    farm: Arc<Farm>,
    stats: DictionaryStats,
}

impl PatternDictionary {
    /// Plans and compiles `patterns` into resident groups no wider than
    /// `width`: every group but the last holds `width.lanes()` patterns,
    /// and the last (or only) one compiles at the narrowest of W1/W4/W8
    /// whose `W × 64` lanes hold the rest. Accepts any count (including
    /// zero — an empty dictionary matches nothing); wild cards are fine,
    /// they simply plan as their own key.
    pub fn new(patterns: &[Pattern], width: SuperWidth) -> Self {
        // 1. Prefix dedup: a stable sort of the ids by key sequence is
        //    the trie's depth-first order, with duplicates adjacent and
        //    in id order.
        let mut order: Vec<usize> = (0..patterns.len()).collect();
        order.sort_by(|&a, &b| keys(&patterns[a]).cmp(keys(&patterns[b])));
        let mut survivors: Vec<(Pattern, Vec<u32>)> = Vec::new();
        let mut trie_nodes = 0;
        for id in order {
            let p = &patterns[id];
            let last = survivors.last_mut();
            // Each key adds the trie nodes below its longest common
            // prefix with the key before it.
            let shared = last.as_ref().map_or(0, |(q, _)| {
                keys(q).zip(keys(p)).take_while(|(a, b)| a == b).count()
            });
            match last {
                Some((q, ids)) if shared == q.len() && shared == p.len() => ids.push(id as u32),
                _ => {
                    trie_nodes += p.len() - shared;
                    survivors.push((p.clone(), vec![id as u32]));
                }
            }
        }

        // 2. Stable length sort: buckets survivors without destroying
        //    their prefix-adjacent order.
        survivors.sort_by_key(|(p, _)| p.len());

        // 3. Resident lane l lives in group l / width.lanes(). Every
        //    group but the last is full, so at `width`; the last is as
        //    narrow as its lanes allow. Each group's acceptance table is
        //    built here, once.
        let span = width.lanes();
        let (residents, ids_of): (Vec<Pattern>, _) = survivors.into_iter().unzip();
        let groups: Vec<Group> = residents.chunks(span).map(Group::new).collect();
        let stats = DictionaryStats {
            patterns: patterns.len(),
            resident: residents.len(),
            groups: groups.len(),
            lane_slots: groups.iter().map(Group::capacity).sum(),
            trie_nodes,
            pattern_symbols: patterns.iter().map(Pattern::len).sum(),
        };
        let farm = Arc::new(Farm {
            groups,
            ids_of,
            span,
        });
        PatternDictionary { farm, stats }
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

    /// A fresh streaming matcher over the compiled farm. O(1): the
    /// matcher shares the farm, and its carry stays empty until the
    /// first [`feed`](DictionaryMatcher::feed).
    pub fn matcher(&self) -> DictionaryMatcher {
        DictionaryMatcher {
            farm: Arc::clone(&self.farm),
            carry: Vec::new(),
            seen: 0,
        }
    }
}

/// The compiled farm, immutable once built: the resident groups and
/// what it takes to turn their lane hits into pattern ids.
#[derive(Debug)]
struct Farm {
    groups: Vec<Group>,
    /// Submitted ids fanned out per resident lane (first id is the
    /// lane's representative).
    ids_of: Vec<Vec<u32>>,
    /// Lanes per group but the last (`width.lanes()`); only the last
    /// group may be narrower, so group `g`'s lanes start at `g × span`.
    span: usize,
}

impl Farm {
    /// One farm pass: every group continues from its state in `carry`
    /// over the same text (the shared text bus of §3.4), and the lane
    /// hits fan out to submitted ids, reported at `base + position` and
    /// sorted by `(end, pattern)`.
    fn pass(&self, carry: &mut Vec<LaneState>, text: &[Symbol], base: usize) -> Vec<DictMatch> {
        carry.resize_with(self.groups.len(), LaneState::default);
        let mut events = Vec::new();
        let mut hits = Vec::new();
        for (g, (group, state)) in self.groups.iter().zip(carry).enumerate() {
            hits.clear();
            group.scan_from(state, text, base, &mut hits);
            for &(end, lane) in &hits {
                for &id in &self.ids_of[g * self.span + lane] {
                    events.push(DictMatch {
                        pattern: id as usize,
                        end,
                    });
                }
            }
        }
        events.sort_unstable();
        events
    }
}

/// One resident group at its planned width: a runtime-width wrapper
/// over the const-generic kernel.
#[derive(Debug)]
enum Group {
    W1(ResidentGroup<1>),
    W4(ResidentGroup<4>),
    W8(ResidentGroup<8>),
}

impl Group {
    /// Compiles `chunk` at the narrowest width whose lanes hold it; the
    /// plan cuts no chunk wider than W8.
    fn new(chunk: &[Pattern]) -> Self {
        fn compile<const W: usize>(chunk: &[Pattern]) -> ResidentGroup<W> {
            ResidentGroup::new(chunk).expect("planned group exceeds its own width")
        }
        match chunk.len() {
            n if n <= SuperWidth::W1.lanes() => Group::W1(compile(chunk)),
            n if n <= SuperWidth::W4.lanes() => Group::W4(compile(chunk)),
            _ => Group::W8(compile(chunk)),
        }
    }

    /// Lane slots this group's width offers.
    fn capacity(&self) -> usize {
        match self {
            Group::W1(r) => r.capacity(),
            Group::W4(r) => r.capacity(),
            Group::W8(r) => r.capacity(),
        }
    }

    fn scan_from(
        &self,
        state: &mut LaneState,
        text: &[Symbol],
        base: usize,
        hits: &mut Vec<LaneHit>,
    ) {
        match self {
            Group::W1(r) => r.scan_from(state, text, base, hits),
            Group::W4(r) => r.scan_from(state, text, base, hits),
            Group::W8(r) => r.scan_from(state, text, base, hits),
        }
    }
}

/// Streams text through every resident group of a
/// [`PatternDictionary`] and merges the per-group lane events into one
/// ordered `(pattern_id, end)` stream.
///
/// A matcher owns only its stream's carry and shares the compiled
/// farm, so a clone copies the carry, not the farm.
///
/// Two modes: [`find_all`](Self::find_all) for a complete text, and
/// [`feed`](Self::feed) for chunked streaming — the matcher carries
/// each group's array state between chunks, so matches that straddle a
/// chunk boundary (or span several chunks) are still reported exactly
/// once, at their global end offset. The carry is one bit per farm cell
/// (lane slot × pattern position): `kmax × W` words per group, with
/// each group's own `kmax` and `W`.
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
    farm: Arc<Farm>,
    /// The array's state after the last chunk: one state per group,
    /// empty before the first [`feed`](Self::feed).
    carry: Vec<LaneState>,
    /// Symbols consumed before the next [`feed`](Self::feed) chunk.
    seen: usize,
}

impl DictionaryMatcher {
    /// Matches a complete text in one pass, independent of any
    /// streaming state. Events are ordered by `(end, pattern)`.
    pub fn find_all(&self, text: &[Symbol]) -> Vec<DictMatch> {
        self.farm.pass(&mut Vec::new(), text, 0)
    }

    /// Consumes the next chunk of a streamed text and returns the
    /// events whose match window *ends* inside it (offsets are global
    /// across all chunks fed so far). Chunks may be any size, including
    /// shorter than the longest pattern.
    ///
    /// This is the same single pass as [`find_all`](Self::find_all),
    /// continued from the carried state: each chunk is scanned once, in
    /// place, and the array state is allocated once, by the first chunk.
    pub fn feed(&mut self, chunk: &[Symbol]) -> Vec<DictMatch> {
        let events = self.farm.pass(&mut self.carry, chunk, self.seen);
        self.seen += chunk.len();
        events
    }

    /// Forgets all streaming state, ready for a fresh text.
    pub fn reset(&mut self) {
        self.carry.clear();
        self.seen = 0;
    }

    /// Total symbols consumed via [`feed`](Self::feed) since the last
    /// [`reset`](Self::reset).
    pub fn consumed(&self) -> usize {
        self.seen
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

    /// `n` patterns of 3–6 letters over `ABCD`, spelled from the digits
    /// of their index.
    fn numbered_patterns(n: u32) -> Vec<Pattern> {
        (0..n)
            .map(|i| {
                let letters = ["A", "B", "C", "D"];
                let s: String = (0..3 + (i % 4))
                    .map(|j| letters[((i / 4u32.pow(j)) % 4) as usize])
                    .collect();
                Pattern::parse(&s).unwrap()
            })
            .collect()
    }

    /// `n ≤ 1024` distinct 5-letter patterns over `ABCD`, spelled from
    /// the base-4 digits of their index.
    fn distinct_patterns(n: u32) -> Vec<Pattern> {
        (0..n)
            .map(|i| {
                let s: String = (0..5)
                    .map(|j| ["A", "B", "C", "D"][((i >> (2 * j)) % 4) as usize])
                    .collect();
                Pattern::parse(&s).unwrap()
            })
            .collect()
    }

    #[test]
    fn the_last_group_is_as_narrow_as_its_lanes_allow() {
        // (patterns, cap) → (groups, lane slots)
        for (n, width, groups, slots) in [
            (0, SuperWidth::W8, 0, 0),
            (1, SuperWidth::W8, 1, 64),
            (64, SuperWidth::W8, 1, 64),
            (65, SuperWidth::W8, 1, 256),
            (256, SuperWidth::W8, 1, 256),
            (257, SuperWidth::W8, 1, 512),
            (600, SuperWidth::W8, 2, 512 + 256),
            (600, SuperWidth::W4, 3, 3 * 256),
            (550, SuperWidth::W4, 3, 256 + 256 + 64),
            (200, SuperWidth::W1, 4, 4 * 64),
        ] {
            let pats = distinct_patterns(n);
            let s = *PatternDictionary::new(&pats, width).stats();
            assert_eq!(s.resident, n as usize);
            assert_eq!(
                (s.groups, s.lane_slots),
                (groups, slots),
                "{n} at {}",
                width.label()
            );
        }
        // A 256-pattern dictionary at the default W8 fills one W4 group.
        let s = *PatternDictionary::new(&distinct_patterns(256), SuperWidth::W8).stats();
        assert_eq!(s.occupancy(), 1.0);
    }

    #[test]
    fn multi_group_dictionary_equals_spec() {
        // 150 distinct patterns on W1: three groups of 64 lanes.
        let pats = numbered_patterns(150);
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
    fn feed_carries_one_state_per_group() {
        let dict = PatternDictionary::new(&numbered_patterns(150), SuperWidth::W1);
        let groups = dict.stats().groups;
        assert!(groups >= 2);
        // Ends in "AB" and starts with "C": "ABC" (pattern 36) spans
        // each seam where the text runs on.
        let text = letters("CDDCBAABCDABCDDDAABBCCDDAB").repeat(800);
        let chunked = |m: &mut DictionaryMatcher| -> Vec<DictMatch> {
            text.chunks(7).flat_map(|c| m.feed(c)).collect()
        };
        let mut m = dict.matcher();
        assert!(m.carry.is_empty(), "a fresh matcher holds no state");
        // One huge chunk, then ragged little ones: the carry is one
        // state per group, however the text is cut (each state's own
        // size is bounded in `pm_systolic::resident`).
        m.feed(&text);
        assert_eq!(m.carry.len(), groups);
        for chunk_len in [1, 2, 3, 7] {
            for chunk in text.chunks(chunk_len) {
                m.feed(chunk);
                assert_eq!(m.carry.len(), groups);
            }
        }
        let fresh = chunked(&mut dict.matcher());
        m.reset();
        assert!(m.carry.is_empty());
        assert_eq!(chunked(&mut m), fresh, "reset matcher vs fresh one");
        // The carry is what a reset forgets: fed on without one, the
        // same text also reports matches across the seam.
        let carried: Vec<DictMatch> = m
            .feed(&text)
            .into_iter()
            .map(|e| DictMatch {
                end: e.end - text.len(),
                ..e
            })
            .collect();
        assert!(carried.len() > fresh.len());
    }

    // One compiled farm may serve matchers on many threads.
    const _: fn() = || {
        fn send_sync<T: Send + Sync>() {}
        fn send<T: Send>() {}
        send_sync::<PatternDictionary>();
        send::<DictionaryMatcher>();
    };

    #[test]
    fn matchers_and_clones_share_one_farm() {
        let pats = patterns(&["ABCABC", "CAB", "BX"]);
        let text = letters("ABCABCABCAAAABCABBA");
        let (head, rest) = text.split_at(7);
        let dict = PatternDictionary::new(&pats, SuperWidth::W8);
        let mut fed = dict.matcher();
        fed.feed(head);
        let mut twin = fed.clone();
        for m in [&dict.matcher(), &dict.matcher(), &fed, &twin] {
            assert!(Arc::ptr_eq(&m.farm, &dict.farm));
        }
        assert_eq!(twin.consumed(), fed.consumed());
        let later = fed.feed(rest);
        assert!(!later.is_empty(), "the rest of the text holds matches");
        assert_eq!(twin.feed(rest), later);
        assert_eq!(twin.consumed(), text.len());
    }

    #[test]
    fn empty_dictionary_matches_nothing() {
        let dict = PatternDictionary::new(&[], SuperWidth::W4);
        assert_eq!(dict.stats().resident, 0);
        assert_eq!(dict.stats().groups, 0);
        let mut m = dict.matcher();
        assert!(m.feed(&letters("ABC")).is_empty());
        assert_eq!(m.carry.len(), dict.stats().groups);
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
                lane_slots: 64,
            }
        ));
    }
}
