//! Bit-plane batching: 64 independent text streams per word.
//!
//! The paper's throughput argument (§1) is that the chip's data rate —
//! one character every 250 ns — comes from doing all `k+1` comparisons
//! of a window concurrently in space. This module makes the transposed
//! observation for software: the per-cell state of the boolean matcher
//! is *one bit* (`t`, `λ`, `x`, the per-bit comparator outputs of
//! Figure 3-4), so 64 **independent** streams can be packed into the 64
//! bit positions of a `u64` and stepped together with branch-free
//! bitwise logic. Each bit position is called a *lane*; a `u64` holding
//! one state bit for every lane is a *plane*.
//!
//! Two things live here:
//!
//! * [`CompiledPattern`] — a pattern compiled once to broadcast
//!   control-bit planes. It is what the `pm-chip` pattern cache stores
//!   and what every batch kernel consumes.
//! * [`PlaneDriver`] runs lane-planes through the **existing** systolic
//!   machinery — [`LaneBoolean`] is a [`MeetSemantics`] instance whose
//!   accumulator is a `u64` plane, so the unmodified
//!   [`Driver`]/[`Segment`](crate::segment::Segment)
//!   choreography (opposing streams, recirculation, `λ` emission)
//!   advances 64 matches per beat. This is the beat-accurate batched
//!   array, golden-tested against the scalar engines.
//!
//! The throughput engine that drops the beat choreography and keeps
//! only the cell algebra — the accumulator recurrence
//! `t ← t ∧ (x ∨ d)` evaluated as plane arithmetic — is
//! [`crate::superplane`]: [`match_lanes_wide`](crate::superplane::match_lanes_wide)
//! runs one lane-packed batch of `W × 64` lanes, where every lane may
//! carry a different pattern of a different length, and
//! [`SuperMatcher<1>`](crate::superplane::SuperMatcher) is its 64-lane,
//! one-pattern form. Both are bit-identical to
//! [`match_spec`](crate::spec::match_spec) on every lane
//! (property-tested in `tests/proptests.rs`).
//!
//! ```
//! use pm_systolic::batch::PlaneDriver;
//! use pm_systolic::symbol::{Pattern, text_from_letters};
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! // Two lanes, two patterns of one length, one beat-accurate array.
//! let mut d = PlaneDriver::new(&[Pattern::parse("AXC")?, Pattern::parse("CCA")?])?;
//! let texts = [
//!     text_from_letters("ABCAACCAB")?, // the paper's Figure 3-1 text
//!     text_from_letters("CCCAAC")?,
//! ];
//! let lanes: Vec<&[_]> = texts.iter().map(|t| t.as_slice()).collect();
//! let hits = d.run(&lanes)?;
//! assert_eq!(hits[0].ending_positions(), vec![2, 5, 6]);
//! assert_eq!(hits[1].ending_positions(), vec![3]);
//! # Ok(())
//! # }
//! ```

use crate::engine::{BeatExit, Driver, MatchBits};
use crate::error::Error;
use crate::semantics::MeetSemantics;
use crate::superplane::eq_superplane;
use crate::symbol::{PatSym, Pattern, Symbol};
use crate::telemetry::{ClockPhase, TraceEvent, TraceSink};

/// Number of independent streams packed into one word of planes — one
/// word's worth, not the engine maximum (see [`crate::superplane`] for
/// the `W × 64`-lane generalisation).
pub const LANES: usize = 64;

/// Maximum alphabet width in bits (mirrors [`crate::symbol::Alphabet`]).
const MAX_BITS: usize = crate::superplane::MAX_BITS;

/// Comparator plane: lanes where the pattern bit planes equal the text
/// bit planes on every alphabet bit. This is the column of Figure 3-4
/// one-bit comparators evaluated 64 lanes at a time:
/// `d = ∧_b ¬(p_b ⊕ s_b)` — the shared superplane kernel at `W = 1`.
#[inline]
fn eq_plane(pat_bits: &[u64; MAX_BITS], txt_bits: &[u64; MAX_BITS], bits: u32) -> u64 {
    let pat = pat_bits.map(|w| [w]);
    let txt = txt_bits.map(|w| [w]);
    eq_superplane::<1>(&pat, &txt, bits)[0]
}

/// A plane driver takes exactly one text per lane it was built with.
pub(crate) fn check_lane_count(texts: usize, lanes: usize) -> Result<(), Error> {
    if texts == lanes {
        Ok(())
    } else {
        Err(Error::LaneCountMismatch {
            lanes: texts,
            expected: lanes,
        })
    }
}

/// A pattern compiled to broadcast control-bit planes: for each pattern
/// position `m`, the `x` (wild card) plane and the literal's bit planes,
/// each either all-zeros or all-ones so the same compilation serves any
/// lane assignment. Compiling walks the pattern once; the `pm-chip`
/// scheduler caches these keyed by pattern so repeated patterns skip it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    pattern: Pattern,
    /// `wild[m]`: all-ones iff `p_m` is the wild card.
    pub(crate) wild: Vec<u64>,
    /// `bits[m][b]`: all-ones iff bit `b` (LSB first) of `p_m` is set.
    pub(crate) bits: Vec<[u64; MAX_BITS]>,
}

impl CompiledPattern {
    /// Compiles a pattern into broadcast control planes.
    pub fn compile(pattern: &Pattern) -> Self {
        let mut wild = Vec::with_capacity(pattern.len());
        let mut bits = Vec::with_capacity(pattern.len());
        for sym in pattern.symbols() {
            match sym {
                PatSym::Wild => {
                    wild.push(!0u64);
                    bits.push([0u64; MAX_BITS]);
                }
                PatSym::Lit(s) => {
                    wild.push(0u64);
                    let v = s.value();
                    let mut planes = [0u64; MAX_BITS];
                    for (b, plane) in planes.iter_mut().enumerate() {
                        if (v >> b) & 1 == 1 {
                            *plane = !0u64;
                        }
                    }
                    bits.push(planes);
                }
            }
        }
        CompiledPattern {
            pattern: pattern.clone(),
            wild,
            bits,
        }
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Pattern length `k+1`.
    pub fn len(&self) -> usize {
        self.wild.len()
    }

    /// Never true: patterns are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.wild.is_empty()
    }
}

// ---------------------------------------------------------------------
// The MeetSemantics integration: lane planes through the real array.
// ---------------------------------------------------------------------

/// Pattern payload for the batched semantics: one pattern position
/// across all lanes — the literal's bit planes and the `x` plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePat {
    /// Bit planes of the literal, LSB first.
    pub bits: [u64; MAX_BITS],
    /// Lanes where this position is the wild card.
    pub wild: u64,
}

/// Text payload for the batched semantics: one text position across
/// all lanes, as bit planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneTxt {
    /// Bit planes of the symbols, LSB first.
    pub bits: [u64; MAX_BITS],
}

/// [`MeetSemantics`] instance whose accumulator is a 64-lane plane:
/// the unmodified systolic [`Driver`] advances
/// 64 boolean matches per beat. All lanes share the pattern *length*
/// (one `λ` bit serves every lane); contents may differ per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBoolean {
    /// Alphabet width in bits (the number of comparator planes).
    pub bits: u32,
}

impl MeetSemantics for LaneBoolean {
    type Pat = LanePat;
    type Txt = LaneTxt;
    type Acc = u64;
    type Out = u64;

    fn fresh(&self) -> u64 {
        !0u64 // t ← TRUE, in every lane at once
    }

    fn absorb(&self, acc: &mut u64, pat: &LanePat, txt: &LaneTxt) {
        // t ← t ∧ (x ∨ d), 64 lanes per word operation.
        *acc &= pat.wild | eq_plane(&pat.bits, &txt.bits, self.bits);
    }

    fn finish(&self, acc: u64) -> u64 {
        acc
    }
}

/// Packs up to 64 equal-length patterns into lane-plane pattern items
/// for [`LaneBoolean`].
///
/// # Errors
///
/// * [`Error::EmptyPattern`] if no patterns are given.
/// * [`Error::TooManyLanes`] for more than 64.
/// * [`Error::RaggedLanePatterns`] if the lengths differ — the shared
///   `λ` bit of the pattern stream cannot serve two lengths at once
///   (use [`match_lanes_wide`](crate::superplane::match_lanes_wide)
///   for ragged batches).
pub fn pack_patterns(patterns: &[Pattern]) -> Result<Vec<LanePat>, Error> {
    let first = patterns.first().ok_or(Error::EmptyPattern)?;
    if patterns.len() > LANES {
        return Err(Error::TooManyLanes {
            lanes: patterns.len(),
            capacity: LANES,
        });
    }
    let k1 = first.len();
    if patterns.iter().any(|p| p.len() != k1) {
        return Err(Error::RaggedLanePatterns);
    }
    let mut items = vec![
        LanePat {
            bits: [0u64; MAX_BITS],
            wild: 0,
        };
        k1
    ];
    for (l, p) in patterns.iter().enumerate() {
        let lane = 1u64 << l;
        for (m, sym) in p.symbols().iter().enumerate() {
            match sym {
                PatSym::Wild => items[m].wild |= lane,
                PatSym::Lit(s) => {
                    let v = s.value();
                    for (b, plane) in items[m].bits.iter_mut().enumerate() {
                        if (v >> b) & 1 == 1 {
                            *plane |= lane;
                        }
                    }
                }
            }
        }
    }
    Ok(items)
}

/// The beat-accurate batched matcher: lane planes flowing through the
/// existing [`Driver`] with [`LaneBoolean`]
/// semantics. One beat of this driver is one beat of the scalar array —
/// in all 64 lanes simultaneously.
#[derive(Debug, Clone)]
pub struct PlaneDriver {
    driver: Driver<LaneBoolean>,
    k: usize,
    lanes: usize,
}

impl PlaneDriver {
    /// Builds a batched driver over `patterns` (up to 64, equal length;
    /// the array gets exactly `k+1` cells as in §3.2.1).
    ///
    /// # Errors
    ///
    /// As [`pack_patterns`].
    pub fn new(patterns: &[Pattern]) -> Result<Self, Error> {
        let items = pack_patterns(patterns)?;
        let bits = patterns
            .iter()
            .map(|p| p.alphabet().bits())
            .max()
            .unwrap_or(1);
        let cells = items.len();
        let k = cells - 1;
        let driver = Driver::new(LaneBoolean { bits }, items, &[cells])?;
        Ok(PlaneDriver {
            driver,
            k,
            lanes: patterns.len(),
        })
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs every lane's text through the array (texts may have
    /// different lengths; shorter lanes idle on zero planes, whose
    /// results are discarded) and returns one [`MatchBits`] per lane.
    ///
    /// This is the un-instrumented path, preserved verbatim so the
    /// telemetry A/B in `pm-bench` (E30) has a true baseline;
    /// [`run_with_sink`](Self::run_with_sink) is the traced twin and is
    /// tested bit-identical to it.
    ///
    /// # Errors
    ///
    /// [`Error::LaneCountMismatch`] unless there is exactly one text per
    /// lane the driver was built with.
    pub fn run(&mut self, texts: &[&[Symbol]]) -> Result<Vec<MatchBits>, Error> {
        check_lane_count(texts.len(), self.lanes)?;
        let stream = self.transpose(texts);
        let planes = self.driver.run(&stream);
        Ok(self.collect(texts, |i| planes[i]))
    }

    /// As [`run`](Self::run), but emits beat-level [`TraceEvent`]s into
    /// `sink`: two [`TraceEvent::Clock`] phases per beat,
    /// [`TraceEvent::TextInjected`] on text beats, and one
    /// [`TraceEvent::ComparatorFire`] per exiting result with the
    /// popcount of matching *occupied* lanes.
    ///
    /// The sink is a generic parameter so a
    /// [`NullSink`](crate::telemetry::NullSink) monomorphises the
    /// emission sites away; `run_with_sink(texts, &NullSink)` compiles
    /// to the same machine loop as [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with_sink<K: TraceSink>(
        &mut self,
        texts: &[&[Symbol]],
        sink: &K,
    ) -> Result<Vec<MatchBits>, Error> {
        check_lane_count(texts.len(), self.lanes)?;
        let stream = self.transpose(texts);
        self.driver.reset();
        // Per-position occupancy: lanes whose text still covers position
        // `i`. Exhausted lanes idle on zero planes and may fire
        // spuriously, so the comparator popcount masks them out. Only
        // emission reads this, so a disabled sink skips the build too.
        let occupancy: Vec<u64> = if !sink.enabled() {
            Vec::new()
        } else {
            (0..stream.len())
                .map(|i| {
                    texts
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| i < t.len())
                        .fold(0u64, |m, (l, _)| m | (1u64 << l))
                })
                .collect()
        };
        let mut planes = vec![0u64; stream.len()];
        // Feed: one bus cycle (two beats) per text plane, injecting on
        // the driver's text beats — the same schedule as Driver::run.
        for (seq, item) in stream.iter().enumerate() {
            let mut item = Some(item.clone());
            for _ in 0..2 {
                let beat = self.driver.beat();
                let phase = self.driver.phase();
                let is_text_beat = beat >= phase && (beat - phase).is_multiple_of(2);
                let inject = if is_text_beat { item.take() } else { None };
                if sink.enabled() && inject.is_some() {
                    sink.record(TraceEvent::TextInjected {
                        beat,
                        seq: seq as u64,
                    });
                }
                let exit = self.driver.advance_beat(inject);
                self.note_exit(exit, &occupancy, &mut planes, sink);
            }
            debug_assert!(item.is_none(), "no text slot in one bus cycle");
        }
        // Drain: same slack bound as Driver::drain.
        let slack = (self.driver.total_cells() + 2 * self.driver.pattern_len() + 4) as u64;
        for _ in 0..(2 * slack) {
            let exit = self.driver.advance_beat(None);
            self.note_exit(exit, &occupancy, &mut planes, sink);
        }
        Ok(self.collect(texts, |i| planes[i]))
    }

    /// Books one beat's exits: stores complete-window result planes and
    /// emits the clock/comparator events for the beat just executed.
    fn note_exit<K: TraceSink>(
        &self,
        exit: BeatExit<LaneBoolean>,
        occupancy: &[u64],
        planes: &mut [u64],
        sink: &K,
    ) {
        if sink.enabled() {
            sink.record(TraceEvent::Clock {
                beat: exit.beat,
                phase: ClockPhase::Phi1,
            });
            sink.record(TraceEvent::Clock {
                beat: exit.beat,
                phase: ClockPhase::Phi2,
            });
        }
        if let Some(res) = exit.result {
            let i = res.seq as usize;
            if i >= self.k && i < planes.len() {
                planes[i] = res.value;
                if sink.enabled() {
                    sink.record(TraceEvent::ComparatorFire {
                        beat: exit.beat,
                        seq: res.seq,
                        lanes: (res.value & occupancy[i]).count_ones(),
                    });
                }
            }
        }
    }

    /// Transposes per-lane texts into the per-position bit-plane stream.
    fn transpose(&self, texts: &[&[Symbol]]) -> Vec<LaneTxt> {
        let tmax = texts.iter().map(|t| t.len()).max().unwrap_or(0);
        (0..tmax)
            .map(|i| {
                let mut bits = [0u64; MAX_BITS];
                for (l, t) in texts.iter().enumerate() {
                    if let Some(sym) = t.get(i) {
                        let v = sym.value();
                        let lane = 1u64 << l;
                        for (b, plane) in bits.iter_mut().enumerate() {
                            if (v >> b) & 1 == 1 {
                                *plane |= lane;
                            }
                        }
                    }
                }
                LaneTxt { bits }
            })
            .collect()
    }

    /// Slices per-position result planes back into per-lane [`MatchBits`].
    fn collect(&self, texts: &[&[Symbol]], plane_at: impl Fn(usize) -> u64) -> Vec<MatchBits> {
        texts
            .iter()
            .enumerate()
            .map(|(l, t)| {
                let bits = (0..t.len()).map(|i| (plane_at(i) >> l) & 1 == 1).collect();
                MatchBits::new(bits, self.k)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::match_spec;
    use crate::symbol::text_from_letters;

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    #[test]
    fn plane_driver_equals_spec_per_lane() {
        let pats = [
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBC").unwrap(),
            Pattern::parse("XXX").unwrap(),
            Pattern::parse("CAB").unwrap(),
        ];
        let texts = [
            letters("ABCAACCAB"),
            letters("BBCBBC"),
            letters("AB"),
            letters("CABCABCAB"),
        ];
        let mut d = PlaneDriver::new(&pats).unwrap();
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let hits = d.run(&lanes).unwrap();
        for ((h, p), t) in hits.iter().zip(&pats).zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, p), "pattern {p}");
        }
    }

    #[test]
    fn plane_driver_traced_run_is_bit_identical() {
        use crate::telemetry::{MemorySink, NullSink, TraceEvent};
        let pats = [
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBC").unwrap(),
            Pattern::parse("CAB").unwrap(),
        ];
        let texts = [letters("ABCAACCAB"), letters("BBC"), letters("CABCABCAB")];
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let mut d = PlaneDriver::new(&pats).unwrap();
        let plain = d.run(&lanes).unwrap();
        let silent = d.run_with_sink(&lanes, &NullSink).unwrap();
        let sink = MemorySink::new();
        let traced = d.run_with_sink(&lanes, &sink).unwrap();
        assert_eq!(plain, silent);
        assert_eq!(plain, traced);
        for ((h, p), t) in plain.iter().zip(&pats).zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, p), "pattern {p}");
        }
        // Two clock phases per beat; beats = 2·tmax feed + 2·slack drain.
        let events = sink.events();
        let clocks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Clock { .. }))
            .count();
        let slack = 3 + 2 * 3 + 4; // total_cells + 2·pattern_len + 4
        assert_eq!(clocks, 2 * (2 * 9 + 2 * slack));
        let injected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TextInjected { .. }))
            .count();
        assert_eq!(injected, 9); // one per text position (tmax)
                                 // Comparator fires carry the ground-truth lane popcount.
        let fired: u32 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ComparatorFire { lanes, .. } => Some(*lanes),
                _ => None,
            })
            .sum();
        let truth: u32 = plain.iter().map(|h| h.count() as u32).sum();
        assert_eq!(fired, truth);
    }

    #[test]
    fn plane_driver_rejects_ragged_patterns() {
        let pats = [
            Pattern::parse("AB").unwrap(),
            Pattern::parse("ABC").unwrap(),
        ];
        assert!(matches!(
            PlaneDriver::new(&pats),
            Err(Error::RaggedLanePatterns)
        ));
        assert!(matches!(PlaneDriver::new(&[]), Err(Error::EmptyPattern)));
    }

    #[test]
    fn plane_driver_rejects_a_wrong_text_count() {
        use crate::telemetry::NullSink;
        let pats = [
            Pattern::parse("AB").unwrap(),
            Pattern::parse("BA").unwrap(),
            Pattern::parse("XA").unwrap(),
        ];
        let t = letters("ABAB");
        let mut d = PlaneDriver::new(&pats).unwrap();
        for n in [2, 4] {
            let texts: Vec<&[Symbol]> = (0..n).map(|_| t.as_slice()).collect();
            let want = Error::LaneCountMismatch {
                lanes: n,
                expected: 3,
            };
            assert_eq!(d.run(&texts), Err(want.clone()));
            assert_eq!(d.run_with_sink(&texts, &NullSink), Err(want));
        }
    }
}
