//! Resident pattern groups: the superplane engine turned inside out
//! for dictionaries — many patterns, one text.
//!
//! [`crate::superplane`] scales the *stream* dimension: one pattern
//! broadcast over `W × 64` independent texts. The §3.4 chip farm is
//! the transpose: up to `W × 64` *patterns* sit resident in the lanes
//! (one "chip" per lane, cascaded on a shared text bus) and a single
//! text streams past all of them at once. [`ResidentGroup`] is that
//! arrangement as a data structure, and it buys two things over calling
//! [`match_lanes_wide`](crate::superplane::match_lanes_wide) per chunk:
//!
//! * **merge once, stream forever** — the per-lane control planes are
//!   merged at construction and reused for every text chunk, and the
//!   array's state between chunks is a [`LaneState`] the caller
//!   carries, so a text cut anywhere streams as one pass (the hooks
//!   `pm_chip::dictionary` builds its groups and streams on);
//! * **a cheaper inner loop** — with every lane reading the *same*
//!   text symbol, the comparator `d = ∧_b ¬(p_b ⊕ s_b)` collapses to a
//!   table lookup: for each pattern position `m` and symbol value `v`
//!   the accepting-lane superplane `acc[m][v] = wild[m] ∨ (pat[m] = v)`
//!   is precomputed, and the §3.2.1 recurrence becomes one AND per
//!   pattern position per character — `kmax` vector ops per symbol for
//!   `W × 64` resident patterns, the multi-pattern generalisation of
//!   Shift-Or. The table costs `kmax × |Σ| × W` words (a width-8 group
//!   of 16-long patterns over a 2-bit alphabet: 4 KiB, L1-resident).
//!
//! The kernel is runtime-dispatched exactly like the wide runner:
//! compiled under `#[target_feature]` for AVX2/AVX-512 and selected by
//! [`simd_level`] once per process.
//!
//! ```
//! use pm_systolic::resident::ResidentGroup;
//! use pm_systolic::symbol::{text_from_letters, Pattern};
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! let dict = [Pattern::parse("AXC")?, Pattern::parse("AB")?];
//! let group = ResidentGroup::<4>::new(&dict)?; // up to 256 resident patterns
//! let text = text_from_letters("ABCAACCAB").unwrap();
//! // (end position, lane) events, in text order.
//! assert_eq!(group.scan(&text), vec![(1, 1), (2, 0), (5, 0), (6, 0), (8, 1)]);
//! # Ok(())
//! # }
//! ```

// Same sanctioned exception as `superplane`: calling the
// `#[target_feature]` kernel specialisations after
// `is_x86_feature_detected!` has proven the features present.
#![allow(unsafe_code)]

use crate::engine::MatchBits;
use crate::error::Error;
use crate::superplane::{lanes_of, simd_level, SimdLevel, Superplane, MAX_WIDTH};
use crate::symbol::{PatSym, Pattern, Symbol};

/// One match event from a resident group: `(end, lane)` — the pattern
/// resident in `lane` matched the window ending at text position `end`.
pub type LaneHit = (usize, usize);

/// The array's state between beats (§3.2): the partial-match plane of
/// every pattern position, and the highest position still live.
/// [`ResidentGroup::scan_from`] continues from it, so a text fed in
/// chunks reports exactly what one scan of the whole text reports.
///
/// The default is empty and sizes itself to its group's `kmax × W`
/// words on first use, so one type serves every width. Carry a state
/// only with the group that sized it.
#[derive(Debug, Clone, Default)]
pub struct LaneState {
    /// `kmax` planes of `W` words, position-major.
    words: Vec<u64>,
    /// Highest position whose plane is nonzero; the planes above it
    /// are semantically zero (and physically stale).
    depth: usize,
}

/// Up to `W × 64` patterns held resident in the lanes of one
/// superplane group, matched against a shared text stream.
///
/// Lanes are assigned in pattern order; ragged lengths are fine (each
/// lane's `λ` plane marks its own end position). Construction merges
/// the control planes once; [`scan_from`](Self::scan_from) then streams
/// any number of text chunks through the resident lanes with no
/// per-chunk setup.
#[derive(Debug, Clone)]
pub struct ResidentGroup<const W: usize> {
    /// Occupied lanes (= number of resident patterns).
    lanes: usize,
    /// Longest resident pattern, in characters (`k+1`).
    kmax: usize,
    /// Per-lane `k` (pattern length − 1), for [`MatchBits`] conversion.
    ks: Vec<usize>,
    /// Alphabet columns in the acceptance table (widest lane alphabet).
    size: usize,
    /// `acc[m * size + v]`: lanes whose pattern position `m` accepts
    /// symbol value `v` (wild cards accept every column).
    acc: Vec<Superplane<W>>,
    /// Lanes wild at position `m` — the acceptance column for symbols
    /// outside every lane's alphabet.
    wild: Vec<Superplane<W>>,
    /// `end[m]`: lanes whose pattern ends at position `m`.
    end: Vec<Superplane<W>>,
    /// Positions with a nonzero `end` plane, so the result fold skips
    /// the all-zero majority.
    end_positions: Vec<usize>,
}

impl<const W: usize> ResidentGroup<W> {
    /// Merges `patterns` into resident control planes, one lane each.
    ///
    /// # Errors
    ///
    /// [`Error::TooManyLanes`] for more than `W × 64` patterns.
    pub fn new(patterns: &[Pattern]) -> Result<Self, Error> {
        const { assert!(W >= 1 && W <= MAX_WIDTH) };
        if patterns.len() > lanes_of(W) {
            return Err(Error::TooManyLanes {
                lanes: patterns.len(),
                capacity: lanes_of(W),
            });
        }
        let kmax = patterns.iter().map(|p| p.len()).max().unwrap_or(0);
        let size = patterns
            .iter()
            .map(|p| p.alphabet().size())
            .max()
            .unwrap_or(1);
        let mut group = ResidentGroup {
            lanes: patterns.len(),
            kmax,
            ks: patterns.iter().map(|p| p.k()).collect(),
            size,
            acc: vec![[0u64; W]; kmax * size],
            wild: vec![[0u64; W]; kmax],
            end: vec![[0u64; W]; kmax],
            end_positions: Vec::new(),
        };
        for (l, p) in patterns.iter().enumerate() {
            let (word, bit) = (l / 64, (l % 64) as u32);
            let lane = 1u64 << bit;
            for (m, sym) in p.symbols().iter().enumerate() {
                match sym {
                    PatSym::Wild => {
                        group.wild[m][word] |= lane;
                        for v in 0..size {
                            group.acc[m * size + v][word] |= lane;
                        }
                    }
                    PatSym::Lit(s) => {
                        group.acc[m * size + s.value() as usize][word] |= lane;
                    }
                }
            }
            group.end[p.len() - 1][word] |= lane;
        }
        for (m, e) in group.end.iter().enumerate() {
            if e.iter().any(|&w| w != 0) {
                group.end_positions.push(m);
            }
        }
        Ok(group)
    }

    /// Number of resident patterns (occupied lanes).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lane slots this group's width offers (`W × 64`).
    pub fn capacity(&self) -> usize {
        lanes_of(W)
    }

    /// Longest resident pattern, in characters: a match spans at most
    /// this many text positions, and a [`LaneState`] holds this many
    /// planes of `W` words.
    pub fn kmax(&self) -> usize {
        self.kmax
    }

    /// Bytes held by the precomputed acceptance table (the figure the
    /// "L1-resident" claim in the module docs is about).
    pub fn table_bytes(&self) -> usize {
        (self.acc.len() + self.wild.len() + self.end.len()) * W * 8
    }

    /// Streams `text` past every resident lane once and returns the
    /// match events as `(end, lane)` pairs in text order (ties in lane
    /// order). Symbols outside every lane's alphabet match only wild
    /// cards. Cost per character is `kmax` superplane ANDs however
    /// many lanes are resident.
    pub fn scan(&self, text: &[Symbol]) -> Vec<LaneHit> {
        let mut hits = Vec::new();
        self.scan_from(&mut LaneState::default(), text, 0, &mut hits);
        hits
    }

    /// As [`scan`](Self::scan), but continuing from the carried
    /// `state` (left as the state after `text`) and appending events to
    /// `hits` at `base + position`. Scanning a text in any cut with one
    /// state reports exactly the events of one scan of the whole text.
    /// Panics on a state sized by a group of another `kmax × W`.
    pub fn scan_from(
        &self,
        state: &mut LaneState,
        text: &[Symbol],
        base: usize,
        hits: &mut Vec<LaneHit>,
    ) {
        if self.lanes == 0 {
            return;
        }
        if state.words.is_empty() {
            state.words = vec![0; self.kmax * W];
        }
        assert_eq!(state.words.len(), self.kmax * W, "state of another group");
        match simd_level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: simd_level() returns Avx512 only after
            // is_x86_feature_detected!("avx512f") succeeded.
            SimdLevel::Avx512 => unsafe { scan_avx512(self, state, text, base, hits) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for "avx2".
            SimdLevel::Avx2 => unsafe { scan_avx2(self, state, text, base, hits) },
            _ => scan_generic(self, state, text, base, hits),
        }
    }

    /// As [`scan`](Self::scan), but split into one [`MatchBits`] per
    /// resident lane — the per-pattern form the batch engines return,
    /// for differential tests against them.
    pub fn match_text(&self, text: &[Symbol]) -> Vec<MatchBits> {
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); self.lanes];
        // `scan` reports in text order, so each lane's ends ascend.
        for (end, lane) in self.scan(text) {
            ends[lane].push(end);
        }
        ends.into_iter()
            .zip(&self.ks)
            .map(|(e, &k)| MatchBits::from_ends(e, text.len(), k))
            .collect()
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scan_avx2<const W: usize>(
    group: &ResidentGroup<W>,
    state: &mut LaneState,
    text: &[Symbol],
    base: usize,
    hits: &mut Vec<LaneHit>,
) {
    scan_generic(group, state, text, base, hits)
}

// Only "avx512f", as in `superplane`: the kernel is `u64` word logic,
// so the F subset's 512-bit integer ops suffice.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scan_avx512<const W: usize>(
    group: &ResidentGroup<W>,
    state: &mut LaneState,
    text: &[Symbol],
    base: usize,
    hits: &mut Vec<LaneHit>,
) {
    scan_generic(group, state, text, base, hits)
}

/// The broadcast-text recurrence: for each character, select the
/// acceptance column for its symbol value and run
/// `state[m] ← state[m−1] ∧ acc[m][v]` high positions first (the
/// `(x ∨ d)` of §3.2.1 is folded into the table).
///
/// `depth` tracks the highest position whose state plane is nonzero —
/// everything above it is semantically zero (and physically stale, so
/// reads are clamped to `depth`). Per character the loop touches
/// `min(depth + 1, kmax − 1)` positions, not `kmax`: on texts where
/// few prefixes stay alive (any realistic dictionary over a byte
/// alphabet) the per-character cost collapses to one or two plane
/// ANDs however long the longest pattern is. Matches are the
/// end-masked fold over positions ≤ `depth`. The planes and `depth`
/// live in the caller's [`LaneState`] between calls. `#[inline(always)]`
/// so each `#[target_feature]` wrapper compiles the whole loop under
/// its feature set.
#[inline(always)]
fn scan_generic<const W: usize>(
    group: &ResidentGroup<W>,
    carried: &mut LaneState,
    text: &[Symbol],
    base: usize,
    hits: &mut Vec<LaneHit>,
) {
    let kmax = group.kmax;
    let size = group.size;
    // Exactly `kmax` planes, so the loop's `m ≤ lim < kmax` needs no
    // bounds checks.
    let state = &mut carried.words.as_chunks_mut::<W>().0[..kmax];
    let mut depth = carried.depth;
    for (i, sym) in text.iter().enumerate() {
        let v = sym.value() as usize;
        let col: &[Superplane<W>] = if v < size {
            &group.acc[v..]
        } else {
            &group.wild
        };
        // Column stride: acc is laid out [m][v], so position m's plane
        // for symbol v sits at m*size (+v applied above); the wild
        // fallback is a dense kmax-long column.
        let stride = if v < size { size } else { 1 };
        let lim = (depth + 1).min(kmax - 1);
        let mut newdepth = 0usize;
        for m in (1..=lim).rev() {
            let a = &col[m * stride];
            let mut nz = 0u64;
            for w in 0..W {
                let s = state[m - 1][w] & a[w];
                state[m][w] = s;
                nz |= s;
            }
            if nz != 0 && newdepth == 0 {
                newdepth = m;
            }
        }
        let a0 = &col[0];
        state[0][..W].copy_from_slice(&a0[..W]);
        depth = newdepth;
        let mut out = [0u64; W];
        for &m in &group.end_positions {
            if m > depth {
                break; // end_positions ascend; higher planes are stale
            }
            for w in 0..W {
                out[w] |= state[m][w] & group.end[m][w];
            }
        }
        if out.iter().any(|&w| w != 0) {
            for (word, &bits) in out.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let lane = word * 64 + bits.trailing_zeros() as usize;
                    hits.push((base + i, lane));
                    bits &= bits - 1;
                }
            }
        }
    }
    carried.depth = depth;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::match_spec;
    use crate::symbol::text_from_letters;

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    fn patterns(specs: &[&str]) -> Vec<Pattern> {
        specs.iter().map(|s| Pattern::parse(s).unwrap()).collect()
    }

    /// Spec-derived `(end, lane)` events for a pattern set on a text.
    fn spec_hits(pats: &[Pattern], text: &[Symbol]) -> Vec<LaneHit> {
        let mut hits = Vec::new();
        for (i, _) in text.iter().enumerate() {
            for (l, p) in pats.iter().enumerate() {
                if match_spec(text, p)[i] {
                    hits.push((i, l));
                }
            }
        }
        hits
    }

    #[test]
    fn resident_group_equals_spec_on_ragged_mixed_lanes() {
        let pats = patterns(&["AXC", "AB", "BBBBB", "A", "XX", "CAB"]);
        let text = letters("ABCAACCABBBBBABACCAB");
        for hits in [
            ResidentGroup::<1>::new(&pats).unwrap().scan(&text),
            ResidentGroup::<2>::new(&pats).unwrap().scan(&text),
            ResidentGroup::<8>::new(&pats).unwrap().scan(&text),
        ] {
            assert_eq!(hits, spec_hits(&pats, &text));
        }
    }

    #[test]
    fn resident_group_spills_across_words() {
        // 70 lanes on a W=2 group: crosses the word boundary.
        let pats: Vec<Pattern> = ["AXC", "BBC", "CAB", "ACA", "BA"]
            .iter()
            .cycle()
            .take(70)
            .map(|s| Pattern::parse(s).unwrap())
            .collect();
        let text = letters("ABCAACCABBCABACABBCA");
        let group = ResidentGroup::<2>::new(&pats).unwrap();
        assert_eq!(group.lanes(), 70);
        assert_eq!(group.scan(&text), spec_hits(&pats, &text));
    }

    #[test]
    fn match_text_agrees_with_scan_and_spec() {
        let pats = patterns(&["ABXA", "CC", "AAA"]);
        let text = letters("ABCABBAACBAAACC");
        let group = ResidentGroup::<1>::new(&pats).unwrap();
        let per_lane = group.match_text(&text);
        assert_eq!(per_lane.len(), 3);
        for (l, (hits, p)) in per_lane.iter().zip(&pats).enumerate() {
            assert_eq!(hits.bits(), match_spec(&text, p), "lane {l}");
            // The per-lane k survived: starting positions are ends − k.
            assert_eq!(
                hits.starting_positions(),
                hits.ending_positions()
                    .iter()
                    .map(|e| e - p.k())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn out_of_alphabet_symbols_match_only_wild_cards() {
        let pats = patterns(&["AX", "AB"]);
        // Symbol 9 is outside the 2-bit alphabet: "AX" accepts it via
        // the wild card, "AB" must not.
        let text: Vec<Symbol> = [0u8, 9, 0, 1].iter().map(|&b| Symbol::new(b)).collect();
        let group = ResidentGroup::<1>::new(&pats).unwrap();
        assert_eq!(group.scan(&text), vec![(1, 0), (3, 0), (3, 1)]);
    }

    #[test]
    fn lane_capacity_is_enforced_and_empty_is_fine() {
        let pats: Vec<Pattern> = (0..65).map(|_| Pattern::parse("AB").unwrap()).collect();
        assert!(matches!(
            ResidentGroup::<1>::new(&pats),
            Err(Error::TooManyLanes {
                lanes: 65,
                capacity: 64
            })
        ));
        let empty = ResidentGroup::<1>::new(&[]).unwrap();
        assert_eq!(empty.lanes(), 0);
        assert!(empty.scan(&letters("ABC")).is_empty());
        assert!(empty.match_text(&letters("ABC")).is_empty());
    }

    #[test]
    fn carried_state_stays_kmax_by_w_words() {
        let pats = patterns(&["ABCAB", "BC"]);
        let group = ResidentGroup::<4>::new(&pats).unwrap();
        let words = group.kmax() * 4;
        let mut state = LaneState::default();
        assert!(state.words.is_empty(), "an unused state holds nothing");
        // One huge chunk, then ragged little ones: the state is the
        // array's kmax × W words, never anything per chunk.
        let big = letters("ABCAB").repeat(4000);
        let mut hits = Vec::new();
        group.scan_from(&mut state, &big, 0, &mut hits);
        assert_eq!((state.words.len(), state.words.capacity()), (words, words));
        for chunk_len in [1, 2, 3, 7] {
            for chunk in big.chunks(chunk_len) {
                group.scan_from(&mut state, chunk, 0, &mut hits);
                assert_eq!((state.words.len(), state.words.capacity()), (words, words));
            }
        }
    }

    #[test]
    fn table_footprint_matches_the_docs_claim() {
        // Width-8 group, 16-long patterns, 2-bit alphabet: acc table
        // 16 × 4 superplanes of 64 B = 4 KiB (+ wild/end planes).
        let pats: Vec<Pattern> = (0..512)
            .map(|_| Pattern::parse("ABCABCABCABCABCA").unwrap())
            .collect();
        let group = ResidentGroup::<8>::new(&pats).unwrap();
        assert_eq!(group.capacity(), 512);
        assert_eq!(group.kmax(), 16);
        assert_eq!(group.table_bytes(), (16 * 4 + 16 + 16) * 8 * 8);
    }
}
