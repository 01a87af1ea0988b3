//! The beat engine: the one host schedule, and a driver for a chain of
//! array segments.
//!
//! The paper's host computer feeds the chip two interleaved streams over
//! one bus — "the pattern and the text string arrive alternately over the
//! bus one character at a time" (§3.2.1) — recirculates the pattern so
//! that `p0` follows two beats after `pk`, and reads one result bit per
//! text character. [`Driver`] plays that host role for any number of
//! cascaded [`Segment`]s and any [`MeetSemantics`].
//!
//! This module is the only code that knows that schedule and the
//! synchronous wiring order. Every loop that clocks an array goes
//! through it: [`Driver`] for its own segments, and hosts that model
//! their own chips (the self-healing cascade's faulty pins, the
//! self-test's probed chip, the multi-pass matcher's one chip) through
//! [`text_slot`], a pattern port, a drain length and [`clock`].
//! [`crate::schedule::Schedule`] restates the same contract in closed
//! form, as the theory the tests hold this simulation to.
//!
//! ## Injection schedule
//!
//! Beats are numbered from 0. Pattern items are injected into the left
//! end on every even beat (`p_j` at beat `2j`, recirculating with period
//! `k+1` items, [`pattern_port`]). Text items are injected into the right
//! end every other beat with a phase offset `φ = (N−1) mod 2` (`s_i` at
//! beat `2i+φ`, [`text_slot`]), where `N` is the total cell count. The
//! offset makes `N−1+φ` even, which is the condition for opposing items
//! to *meet* in a cell instead of passing between cells; for the
//! even-sized arrays of the prototype chip it yields exactly the
//! alternating pattern/text bus of Figure 3-1. After the last character
//! the host clocks [`drain_beats`] more beats so every result exits.
//!
//! With this schedule, `p_j` and `s_i` meet in cell `(N−1+φ)/2 + i − j`
//! (mod the recirculation), all `k+1` pairs of one result meet in the
//! *same* cell on consecutive active beats, and `r_i` leaves the left end
//! of the array on the same beat as `s_i` — the invariants the paper
//! walks through in §3.2.1, which the tests here check mechanically.
//!
//! ## Once-through schedule
//!
//! A pattern longer than the array runs "through the system several
//! times" (§3.4), streamed once per pass on the [`once_through_port`]:
//! `p_j` at beat `2(j + ⌊N/2⌋)`, text on its [`text_slot`]. Since
//! `(N−1+φ)/2 = ⌊N/2⌋`, `p_j` meets `s_i` in cell `i − j`, so the array
//! holds exactly the `N` windows ending at positions `k … k+N−1`. After
//! the text the host clocks [`once_through_drain`] more beats.

use crate::error::Error;
use crate::segment::{PatItem, ResItem, Segment, SegmentIo, TxtItem};
use crate::semantics::MeetSemantics;

/// What left the array chain during one beat.
#[derive(Debug, Clone)]
pub struct BeatExit<S: MeetSemantics> {
    /// Beat number just completed.
    pub beat: u64,
    /// Sequence number of the text item injected at the right end this
    /// beat, if any.
    pub injected: Option<u64>,
    /// Text item that left the array's left end, if any.
    pub text: Option<TxtItem<S::Txt>>,
    /// Result item that left the array's left end, if any.
    pub result: Option<ResItem<S::Out>>,
    /// Pattern item that left the array's right end, if any. A lone chip
    /// drops this on the floor; a cascade feeds it to the next chip.
    pub pattern: Option<PatItem<S::Pat>>,
}

/// The pattern item on the left port at beat `t`: `p_j` on beat `2j`,
/// recirculating, with λ on the last item; `None` on odd beats.
pub fn pattern_port<P: Clone>(pattern: &[P], t: u64) -> Option<PatItem<P>> {
    if !t.is_multiple_of(2) {
        return None;
    }
    let idx = (t / 2) as usize % pattern.len();
    Some(PatItem {
        payload: pattern[idx].clone(),
        lambda: idx == pattern.len() - 1,
    })
}

/// The pattern port of a once-through pass over an array of `cells`
/// cells: [`pattern_port`] delayed by `2⌊N/2⌋` beats and not
/// recirculated, so `p_j` enters on beat `2(j + ⌊N/2⌋)`.
pub fn once_through_port<P: Clone>(pattern: &[P], cells: usize, t: u64) -> Option<PatItem<P>> {
    let t = t.checked_sub(2 * (cells as u64 / 2))?;
    (t / 2 < pattern.len() as u64).then(|| pattern_port(pattern, t))?
}

/// Beats a once-through pass clocks after the text's bus cycles: `s_i`
/// enters on beat `2i + φ` and `r_i` leaves with it at most `N` beats
/// later. One beat fewer loses a result at `N = 2`.
pub fn once_through_drain(cells: usize) -> u64 {
    cells as u64
}

/// The text slot of beat `t` on an array of `cells` cells: `Some(i)`
/// when `t = 2i + φ` with `φ = (N−1) mod 2`, `None` otherwise.
pub fn text_slot(cells: usize, t: u64) -> Option<u64> {
    let phase = (cells as u64).saturating_sub(1) % 2;
    (t >= phase && (t - phase).is_multiple_of(2)).then(|| (t - phase) / 2)
}

/// Beats the host clocks after the last character so every in-flight
/// result exits: at most `N` beats of traversal plus the recirculation
/// period as slack for the final λ, doubled — `2·(N + 2(k+1) + 4)`.
pub fn drain_beats(cells: usize, pattern_len: usize) -> u64 {
    2 * (cells + 2 * pattern_len + 4) as u64
}

/// Checks a chain of `segment_cells` against a pattern of `pattern_len`
/// items and returns the total cell count `N`.
///
/// # Errors
///
/// * [`Error::EmptyPattern`] if `pattern_len` is zero.
/// * [`Error::NoSegments`] if `segment_cells` is empty.
/// * [`Error::ArrayTooSmall`] if the cells don't cover the pattern.
/// * [`Error::EmptySegment`] if they do but a segment has no cells.
pub fn check_chain(pattern_len: usize, segment_cells: &[usize]) -> Result<usize, Error> {
    if pattern_len == 0 {
        return Err(Error::EmptyPattern);
    }
    if segment_cells.is_empty() {
        return Err(Error::NoSegments);
    }
    let total: usize = segment_cells.iter().sum();
    if total < pattern_len {
        return Err(Error::ArrayTooSmall {
            cells: total,
            pattern_len,
        });
    }
    if let Some(segment) = segment_cells.iter().position(|&n| n == 0) {
        return Err(Error::EmptySegment { segment });
    }
    Ok(total)
}

/// One synchronous beat of a non-empty chain. `io` holds every chip's
/// boundary outputs read from pre-beat state, left to right. Wires the
/// neighbours in place — pattern flows left→right (chip `i` feeds
/// `i+1`), text and results right→left — with `pattern_in` (the beat's
/// pattern-port item) at the left end and `text_in` at the right end,
/// so that `io` ends up holding each chip's inputs for this beat.
/// Returns what left the chain.
pub fn clock<S: MeetSemantics>(
    beat: u64,
    pattern_in: Option<PatItem<S::Pat>>,
    io: &mut [SegmentIo<S>],
    text_in: Option<TxtItem<S::Txt>>,
) -> BeatExit<S> {
    let n = io.len();
    let exit = BeatExit {
        beat,
        injected: text_in.as_ref().map(|t| t.seq),
        text: io[0].text.take(),
        result: io[0].result.take(),
        pattern: io[n - 1].pattern.take(),
    };
    // Each output moves to the neighbour it feeds.
    for i in (1..n).rev() {
        io[i].pattern = io[i - 1].pattern.take();
    }
    io[0].pattern = pattern_in;
    for i in 0..n - 1 {
        io[i].text = io[i + 1].text.take();
        io[i].result = io[i + 1].result.take();
    }
    io[n - 1].text = text_in;
    exit
}

/// Host-side driver: owns a chain of segments, schedules injection,
/// recirculates the pattern and collects results.
#[derive(Debug, Clone)]
pub struct Driver<S: MeetSemantics> {
    segments: Vec<Segment<S>>,
    /// Per-beat wiring buffer, one entry per segment.
    io: Vec<SegmentIo<S>>,
    pattern: Vec<S::Pat>,
    beat: u64,
    next_seq: u64,
    total_cells: usize,
}

impl<S: MeetSemantics + Clone> Driver<S> {
    /// Builds a driver over a chain of segments with the given cell
    /// counts (one entry per chip, left to right) and the pattern items
    /// to recirculate.
    ///
    /// # Errors
    ///
    /// As [`check_chain`].
    pub fn new(sem: S, pattern: Vec<S::Pat>, segment_cells: &[usize]) -> Result<Self, Error> {
        let total_cells = check_chain(pattern.len(), segment_cells)?;
        let segments = segment_cells
            .iter()
            .map(|&n| Segment::new(sem.clone(), n))
            .collect();
        Ok(Driver {
            segments,
            io: segment_cells.iter().map(|_| SegmentIo::idle()).collect(),
            pattern,
            beat: 0,
            next_seq: 0,
            total_cells,
        })
    }
}

impl<S: MeetSemantics> Driver<S> {
    /// Total number of character cells across all segments.
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Number of chained segments (chips).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The text slot of beat `t` on this array (see [`text_slot`]).
    pub fn text_slot(&self, t: u64) -> Option<u64> {
        text_slot(self.total_cells, t)
    }

    /// The drain length of this array (see [`drain_beats`]).
    pub fn drain_beats(&self) -> u64 {
        drain_beats(self.total_cells, self.pattern.len())
    }

    /// Pattern length `k+1`.
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }

    /// Read-only access to the segments (for tracing).
    pub fn segments(&self) -> &[Segment<S>] {
        &self.segments
    }

    /// Current beat number (the number of beats executed so far).
    pub fn beat(&self) -> u64 {
        self.beat
    }

    /// Clears all array state and restarts the beat counter.
    pub fn reset(&mut self) {
        for seg in &mut self.segments {
            seg.reset();
        }
        self.beat = 0;
        self.next_seq = 0;
    }

    /// Advances the whole chain one beat, injecting `text` at the right
    /// end if this is a text beat and `text` is `Some`, and always
    /// injecting the recirculating pattern on pattern beats.
    ///
    /// **Protocol note:** the host must fill every text slot for the
    /// defining equation to hold — "the data streams move at a steady
    /// rate … with a constant time between data items" (§3.1). A slot
    /// left empty mid-stream contributes *no comparison* to the windows
    /// that span it: for the boolean matcher the hole behaves like a
    /// wild-card text character, for the counter like a mismatch. The
    /// higher-level [`feed`](Driver::feed)/[`run`](Driver::run) APIs
    /// never leave holes.
    ///
    /// Returns everything that left the chain this beat.
    pub fn advance_beat(&mut self, text: Option<S::Txt>) -> BeatExit<S> {
        let t = self.beat;
        let text_in = if self.text_slot(t).is_some() {
            text.map(|payload| {
                let item = TxtItem {
                    payload,
                    seq: self.next_seq,
                };
                self.next_seq += 1;
                item
            })
        } else {
            debug_assert!(text.is_none(), "text offered on a non-text beat");
            None
        };
        for (io, seg) in self.io.iter_mut().zip(&self.segments) {
            *io = seg.outputs();
        }
        let exit = clock(t, pattern_port(&self.pattern, t), &mut self.io, text_in);
        for (seg, input) in self.segments.iter_mut().zip(&mut self.io) {
            seg.step(std::mem::take(input));
        }
        self.beat += 1;
        exit
    }

    /// Feeds one text character and advances two beats (one bus cycle:
    /// a pattern beat and a text beat). Returns any result that left the
    /// array during the cycle, tagged with its text position.
    pub fn feed(&mut self, txt: S::Txt) -> Vec<(u64, S::Out)> {
        let mut done = Vec::new();
        self.feed_observed(txt, |exit| collect_result(exit, &mut done));
        done
    }

    /// Runs the array until every in-flight text item has exited,
    /// returning remaining results.
    pub fn drain(&mut self) -> Vec<(u64, S::Out)> {
        let mut done = Vec::new();
        self.drain_observed(|exit| collect_result(exit, &mut done));
        done
    }

    /// Complete run over a finite text: resets the array, feeds every
    /// character, drains, and returns one output per text position.
    /// Positions `i < k` (incomplete windows) hold `S::Out::default()`.
    pub fn run(&mut self, text: &[S::Txt]) -> Vec<S::Out>
    where
        S::Txt: Clone,
    {
        self.run_observed(text, |_| {})
    }

    /// As [`run`](Self::run), calling `observe` once per beat with what
    /// left the chain, before the beat's result is booked.
    pub fn run_observed(
        &mut self,
        text: &[S::Txt],
        mut observe: impl FnMut(&BeatExit<S>),
    ) -> Vec<S::Out>
    where
        S::Txt: Clone,
    {
        self.reset();
        let k = self.pattern.len() - 1;
        let mut out: Vec<S::Out> = vec![S::Out::default(); text.len()];
        let mut seen = vec![false; text.len()];
        let mut book = |exit: BeatExit<S>| {
            observe(&exit);
            if let Some(res) = exit.result {
                let i = res.seq as usize;
                if i >= k && i < out.len() {
                    out[i] = res.value;
                    seen[i] = true;
                }
            }
        };
        for ch in text {
            self.feed_observed(ch.clone(), &mut book);
        }
        self.drain_observed(&mut book);
        debug_assert!(
            seen.iter().skip(k).all(|&b| b),
            "every complete window must produce a result"
        );
        out
    }

    /// One bus cycle: two beats, `txt` injected on the cycle's text slot.
    fn feed_observed(&mut self, txt: S::Txt, mut observe: impl FnMut(BeatExit<S>)) {
        let mut txt = Some(txt);
        for _ in 0..2 {
            let inject = self.text_slot(self.beat).and_then(|_| txt.take());
            observe(self.advance_beat(inject));
        }
        debug_assert!(
            txt.is_none(),
            "driver failed to find a text slot in one bus cycle"
        );
    }

    /// [`drain_beats`](Self::drain_beats) beats with no text.
    fn drain_observed(&mut self, mut observe: impl FnMut(BeatExit<S>)) {
        for _ in 0..self.drain_beats() {
            observe(self.advance_beat(None));
        }
    }
}

/// Keeps a beat's exiting result, tagged with its text position.
fn collect_result<S: MeetSemantics>(exit: BeatExit<S>, done: &mut Vec<(u64, S::Out)>) {
    if let Some(res) = exit.result {
        done.push((res.seq, res.value));
    }
}

/// The result-bit stream of the boolean matcher, aligned to text
/// positions: `bit(i)` is `r_i`.
///
/// Held sparse: the ascending positions where a match ends inside a
/// text of `len` positions. Matches are rare next to text positions,
/// so the lane-packed kernel emits this form directly and `count`,
/// `any` and `ending_positions` never walk the text. The dense form
/// ([`bits`](Self::bits)) is materialised on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchBits {
    ends: Vec<usize>,
    len: usize,
    k: usize,
}

impl MatchBits {
    /// Wraps a dense result vector; `k` is the index of the last
    /// pattern char.
    pub fn new(bits: Vec<bool>, k: usize) -> Self {
        let ends = (0..bits.len()).filter(|&i| bits[i]).collect();
        MatchBits::from_ends(ends, bits.len(), k)
    }

    /// Wraps match ends inside a text of `len` positions; `ends` must
    /// be strictly ascending and below `len`.
    ///
    /// ```
    /// use pm_systolic::engine::MatchBits;
    /// let m = MatchBits::from_ends(vec![2, 3], 4, 1);
    /// assert_eq!(m, MatchBits::new(vec![false, false, true, true], 1));
    /// ```
    pub fn from_ends(ends: Vec<usize>, len: usize, k: usize) -> Self {
        debug_assert!(
            ends.windows(2).all(|w| w[0] < w[1]),
            "match ends must be strictly ascending"
        );
        debug_assert!(
            ends.last().is_none_or(|&e| e < len),
            "match ends must lie inside the text"
        );
        MatchBits { ends, len, k }
    }

    /// The result bits, one per text position, materialised: O(len).
    /// Meant for differential checks against the dense spec in tests,
    /// not for the hot path.
    pub fn bits(&self) -> Vec<bool> {
        let mut bits = vec![false; self.len];
        for &e in &self.ends {
            bits[e] = true;
        }
        bits
    }

    /// `r_i` for a single position (false out of range).
    pub fn bit(&self, i: usize) -> bool {
        self.ends.binary_search(&i).is_ok()
    }

    /// Text positions where a match ends, in increasing order.
    ///
    /// ```
    /// use pm_systolic::engine::MatchBits;
    /// let m = MatchBits::new(vec![false, false, true, true], 1);
    /// assert_eq!(m.ending_positions(), vec![2, 3]);
    /// ```
    pub fn ending_positions(&self) -> Vec<usize> {
        self.ends.clone()
    }

    /// Text positions where a match *starts* (`end − k`).
    pub fn starting_positions(&self) -> Vec<usize> {
        self.ends.iter().map(|&e| e - self.k).collect()
    }

    /// Number of matches found.
    pub fn count(&self) -> usize {
        self.ends.len()
    }

    /// Whether any match was found.
    pub fn any(&self) -> bool {
        !self.ends.is_empty()
    }

    /// Number of text positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the text had no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inverts `r_i`, which must lie inside the text (fault injection).
    pub fn flip(&mut self, i: usize) {
        assert!(i < self.len, "flipped position must lie inside the text");
        match self.ends.binary_search(&i) {
            Ok(at) => drop(self.ends.remove(at)),
            Err(at) => self.ends.insert(at, i),
        }
    }

    /// Sets every `r_i` to `level`, as a stuck result column would;
    /// returns whether any bit changed (the match count did).
    pub fn fill(&mut self, level: bool) -> bool {
        let before = self.ends.len();
        self.ends.clear();
        if level {
            self.ends.extend(0..self.len);
        }
        self.ends.len() != before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::BooleanMatch;
    use crate::spec::match_spec;
    use crate::symbol::{text_from_letters, Pattern};

    fn run_match(pattern: &str, text: &str, cells: &[usize]) -> Vec<bool> {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let mut d = Driver::new(BooleanMatch, p.symbols().to_vec(), cells).unwrap();
        d.run(&t)
    }

    fn spec(pattern: &str, text: &str) -> Vec<bool> {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        match_spec(&t, &p)
    }

    #[test]
    fn rejects_bad_configs() {
        let p = Pattern::parse("ABC").unwrap();
        assert!(matches!(
            Driver::new(BooleanMatch, p.symbols().to_vec(), &[]),
            Err(Error::NoSegments)
        ));
        assert!(matches!(
            Driver::new(BooleanMatch, p.symbols().to_vec(), &[2]),
            Err(Error::ArrayTooSmall { .. })
        ));
        assert!(matches!(
            Driver::new(BooleanMatch, vec![], &[4]),
            Err(Error::EmptyPattern)
        ));
        assert!(matches!(
            Driver::new(BooleanMatch, p.symbols().to_vec(), &[0, 5]),
            Err(Error::EmptySegment { segment: 0 })
        ));
        assert!(matches!(
            Driver::new(BooleanMatch, p.symbols().to_vec(), &[5, 0]),
            Err(Error::EmptySegment { segment: 1 })
        ));
    }

    #[test]
    fn figure_3_1_on_the_array() {
        // The paper's running example, on an exactly-sized array.
        assert_eq!(
            run_match("AXC", "ABCAACCAB", &[3]),
            spec("AXC", "ABCAACCAB")
        );
    }

    #[test]
    fn oversized_array_matches_spec() {
        // Arrays larger than the pattern redundantly recompute results;
        // outputs must be identical (§3.2.1 says "no more than" k+1 cells
        // are required — more must not hurt).
        for cells in 3..12 {
            assert_eq!(
                run_match("AXC", "ABCAACCAB", &[cells]),
                spec("AXC", "ABCAACCAB"),
                "cells={cells}"
            );
        }
    }

    #[test]
    fn even_and_odd_arrays_work() {
        for cells in 1..10 {
            assert_eq!(
                run_match("A", "ABAACA", &[cells]),
                spec("A", "ABAACA"),
                "cells={cells}"
            );
        }
    }

    #[test]
    fn cascade_equals_monolithic() {
        let text = "ABCAACCABBACACBBAACCBA";
        let mono = run_match("AXCX", text, &[8]);
        let casc = run_match("AXCX", text, &[2, 2, 2, 2]);
        let casc2 = run_match("AXCX", text, &[3, 5]);
        assert_eq!(mono, casc);
        assert_eq!(mono, casc2);
        assert_eq!(mono, spec("AXCX", text));
    }

    #[test]
    fn streaming_feed_yields_results_online() {
        let p = Pattern::parse("AB").unwrap();
        let t = text_from_letters("AABABB").unwrap();
        let mut d = Driver::new(BooleanMatch, p.symbols().to_vec(), &[2]).unwrap();
        let mut got = Vec::new();
        for ch in &t {
            for (seq, v) in d.feed(*ch) {
                got.push((seq, v));
            }
        }
        for (seq, v) in d.drain() {
            got.push((seq, v));
        }
        // Results arrive in text order.
        let seqs: Vec<u64> = got.iter().map(|&(s, _)| s).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        // And agree with the spec for complete windows.
        let spec_bits = spec("AB", "AABABB");
        for (seq, v) in got {
            if seq >= 1 {
                assert_eq!(v, spec_bits[seq as usize], "r_{seq}");
            }
        }
    }

    #[test]
    fn result_exits_with_its_text_char() {
        // The alignment claim of §3.2.1: each match result leaves the
        // array with the last character of its substring.
        let p = Pattern::parse("AA").unwrap();
        let t = text_from_letters("AAAA").unwrap();
        let mut d = Driver::new(BooleanMatch, p.symbols().to_vec(), &[2]).unwrap();
        let mut beats_text: Vec<(u64, u64)> = Vec::new(); // (seq, exit beat)
        let mut beats_res: Vec<(u64, u64)> = Vec::new();
        for i in 0..40 {
            let inject = d
                .text_slot(d.beat())
                .and_then(|i| t.get(i as usize).copied());
            let exit = d.advance_beat(inject);
            if let Some(txt) = exit.text {
                beats_text.push((txt.seq, i));
            }
            if let Some(res) = exit.result {
                beats_res.push((res.seq, i));
            }
        }
        for (seq, beat) in &beats_res {
            let text_beat = beats_text.iter().find(|(s, _)| s == seq).map(|(_, b)| *b);
            assert_eq!(text_beat, Some(*beat), "r_{seq} must exit with s_{seq}");
        }
    }

    #[test]
    fn text_slot_holes_behave_like_wildcard_characters() {
        // Documented protocol hazard: skipping a text beat leaves a
        // hole whose comparisons are silently absent, so the window
        // spanning it matches on the remaining positions only.
        let p = Pattern::parse("AB").unwrap();
        let mut d = Driver::new(BooleanMatch, p.symbols().to_vec(), &[2]).unwrap();
        let text = text_from_letters("AB").unwrap();
        let mut injected = 0usize;
        let mut results = Vec::new();
        for beat in 0..30u64 {
            // Inject A, skip one slot, inject B.
            let inject = match d.text_slot(beat) {
                Some(slot) if slot != 1 && injected < 2 => {
                    injected += 1;
                    Some(text[injected - 1])
                }
                _ => None,
            };
            let exit = d.advance_beat(inject);
            if let Some(res) = exit.result {
                results.push((res.seq, res.value));
            }
        }
        // 'B' carries seq 1; its window spans the hole, so only the
        // (p1='B', s1='B') comparison happened — reported as a match,
        // i.e. the hole acted as a wild card. Hence: don't leave holes.
        assert!(results.contains(&(1, true)), "{results:?}");
    }

    #[test]
    fn once_through_schedule_fits_every_size() {
        // Every array size, pattern length and pass length a multi-pass
        // host can ask for: each complete window's result exits inside
        // the clocked beats with the specified value, and no pass clocks
        // more than `N` beats after its text.
        let mut seed = 0x9e37_79b9_u32;
        let mut letters = |len: usize, choices: &[u8]| -> String {
            (0..len)
                .map(|_| {
                    seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    choices[(seed >> 16) as usize % choices.len()] as char
                })
                .collect()
        };
        for n in 1..=16usize {
            for l in 1..=3 * n + 2 {
                let k = l - 1;
                let pattern = Pattern::parse(&letters(l, b"ABCX")).unwrap();
                for seg in l..=k + n {
                    let text = text_from_letters(&letters(seg, b"ABC")).unwrap();
                    let beats = 2 * seg as u64 + once_through_drain(n);
                    let mut chip = Segment::new(BooleanMatch, n);
                    let mut got = vec![None; seg];
                    for t in 0..beats {
                        let text_in = text_slot(n, t).and_then(|i| {
                            let payload = *text.get(i as usize)?;
                            Some(TxtItem { payload, seq: i })
                        });
                        let pattern_in = once_through_port(pattern.symbols(), n, t);
                        let mut io = [chip.outputs()];
                        let exit = clock(t, pattern_in, &mut io, text_in);
                        let [input] = io;
                        chip.step(input);
                        if let Some(r) = exit.result {
                            got[r.seq as usize] = Some(r.value);
                        }
                    }
                    let want = match_spec(&text, &pattern);
                    for i in k..seg {
                        assert_eq!(got[i], Some(want[i]), "N={n} L={l} seg={seg} r_{i}");
                    }
                    let (seg, n) = (seg as u64, n as u64);
                    assert!(beats <= 2 * seg + n, "N={n} L={l} seg={seg}: {beats} beats");
                }
            }
        }
    }

    #[test]
    fn match_bits_accessors() {
        let m = MatchBits::new(vec![false, true, false, true], 1);
        assert_eq!(m.ending_positions(), vec![1, 3]);
        assert_eq!(m.starting_positions(), vec![0, 2]);
        assert_eq!(m.count(), 2);
        assert!(m.any());
        assert!(m.bit(1));
        assert!(!m.bit(99));
        assert_eq!(m.bits().len(), 4);
    }

    #[test]
    fn match_bits_dense_and_sparse_forms_round_trip() {
        let dense = vec![true, false, false, true, true, false, true];
        let m = MatchBits::new(dense.clone(), 2);
        let s = MatchBits::from_ends(vec![0, 3, 4, 6], dense.len(), 2);
        assert_eq!(m, s);
        assert_eq!(s.bits(), dense);
        assert_eq!(MatchBits::new(s.bits(), 2), s);
        assert_eq!(
            MatchBits::from_ends(m.ending_positions(), m.bits().len(), 2),
            m
        );
        // The text length is part of the value: trailing misses count.
        assert_ne!(
            MatchBits::from_ends(vec![0], 1, 0),
            MatchBits::from_ends(vec![0], 2, 0)
        );
        let empty = MatchBits::new(Vec::new(), 0);
        assert_eq!(empty, MatchBits::from_ends(Vec::new(), 0, 0));
        assert!(empty.bits().is_empty());
    }

    #[test]
    fn match_bits_bit_at_the_edges() {
        let m = MatchBits::from_ends(vec![0, 5], 6, 0);
        assert!(m.bit(0));
        assert!(m.bit(5), "last position");
        assert!(!m.bit(4));
        assert!(!m.bit(6), "one past the end");
        assert!(!m.bit(usize::MAX));
        let none = MatchBits::from_ends(Vec::new(), 6, 0);
        assert!(!none.bit(0) && !none.bit(5));
    }

    #[test]
    fn match_bits_counts_and_starts() {
        let m = MatchBits::from_ends(vec![3, 7, 8], 9, 3);
        assert_eq!(m.count(), 3);
        assert!(m.any());
        assert_eq!(m.starting_positions(), vec![0, 4, 5]);
        assert_eq!(m.ending_positions(), vec![3, 7, 8]);
        let none = MatchBits::new(vec![false; 9], 3);
        assert_eq!(none.count(), 0);
        assert!(!none.any());
        assert!(none.starting_positions().is_empty());
    }

    #[test]
    fn match_bits_flip_and_fill_edit_in_place() {
        let mut m = MatchBits::from_ends(vec![1, 4], 6, 1);
        assert_eq!((m.len(), m.is_empty()), (6, false));
        m.flip(1);
        m.flip(5);
        m.flip(0);
        assert_eq!(
            m,
            MatchBits::new(vec![true, false, false, false, true, true], 1)
        );
        assert!(m.fill(true));
        assert_eq!(m.bits(), vec![true; 6]);
        assert!(!m.fill(true), "already all true");
        assert!(m.fill(false));
        assert!(!m.any() && !m.fill(false));
        let mut empty = MatchBits::from_ends(Vec::new(), 0, 0);
        assert!(empty.is_empty());
        assert!(!empty.fill(true) && !empty.fill(false));
    }

    #[test]
    #[should_panic(expected = "inside the text")]
    fn match_bits_flip_rejects_a_position_past_the_text() {
        MatchBits::from_ends(vec![0], 3, 0).flip(3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "inside the text")]
    fn match_bits_from_ends_rejects_an_end_past_the_text() {
        let _ = MatchBits::from_ends(vec![1, 4], 4, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn match_bits_from_ends_rejects_unsorted_ends() {
        let _ = MatchBits::from_ends(vec![2, 1], 4, 0);
    }
}
