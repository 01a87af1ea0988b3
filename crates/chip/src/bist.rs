//! Built-in self-test (BIST) for one pattern-matching chip.
//!
//! §4 of the paper, on cell logic: "In designing the circuits,
//! consideration must be given to how the chip will be tested after
//! fabrication." The `pm-nmos` fault machinery does that arithmetic at
//! fabrication time; this module repackages the same production test
//! program so that a *running system* can re-apply it in the field —
//! at attach time and periodically while streaming (scrubbing) — which
//! is the detection half of §5's requirement that "a defective circuit
//! \[be\] replaced by a functioning one".
//!
//! A [`BistProgram`] is a set of [`BistVector`]s: a pattern, a text and
//! the golden result bits from the executable specification. Running
//! the program against a chip ([`BistProgram::run`]) drives the chip's
//! boundary wires exactly as the host driver does and checks *all
//! three* output ports:
//!
//! * the **result** port against the golden bits (catches stuck or
//!   dead result drivers);
//! * the **text echo** — every text item must leave the far end intact
//!   (catches stuck text-bus drivers, which would corrupt *upstream*
//!   chips in a cascade while leaving this chip's own results clean);
//! * the **pattern echo** — the recirculated pattern must leave intact
//!   (catches stuck pattern-bus drivers, which would corrupt
//!   *downstream* chips).
//!
//! The single-port subtlety is why result-only self-test is not enough
//! for a cascade: a chip whose comparators are perfect can still
//! poison its neighbours through a bad boundary driver.
//!
//! # Example
//!
//! The §4 production test for an 8-cell, 2-bit chip, replayed in the
//! field against a healthy behavioural chip model:
//!
//! ```
//! use pm_chip::bist::BistProgram;
//! use pm_systolic::segment::Segment;
//! use pm_systolic::semantics::BooleanMatch;
//!
//! let program = BistProgram::standard(8, 2);
//! let mut chip = Segment::new(BooleanMatch, 8);
//! let outcome = program.run(&mut chip);
//! assert!(outcome.passed);
//! assert_eq!(outcome.beats, program.beats_bound(8));
//! ```

use pm_nmos::chip::PatternChip;
use pm_nmos::faults::{self, CoverageReport};
use pm_systolic::engine::{clock, drain_beats, pattern_port, text_slot};
use pm_systolic::segment::{PatItem, Segment, SegmentIo, TxtItem};
use pm_systolic::semantics::BooleanMatch;
use pm_systolic::spec::match_spec;
use pm_systolic::symbol::{PatSym, Pattern, Symbol};
use std::fmt;

/// One self-test vector: a pattern, a text, and the golden result bits
/// the chip must reproduce.
#[derive(Debug, Clone)]
pub struct BistVector {
    /// Pattern loaded for this vector.
    pub pattern: Pattern,
    /// Text streamed through the chip.
    pub text: Vec<Symbol>,
    /// Expected result bits, from [`match_spec`].
    pub golden: Vec<bool>,
}

/// Which output port of the chip failed a self-test check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BistPort {
    /// A result bit was wrong or never produced.
    Result,
    /// A text item left the chip corrupted or missing.
    TextEcho,
    /// A recirculated pattern item left the chip corrupted or missing.
    PatternEcho,
}

impl fmt::Display for BistPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BistPort::Result => write!(f, "result port"),
            BistPort::TextEcho => write!(f, "text echo port"),
            BistPort::PatternEcho => write!(f, "pattern echo port"),
        }
    }
}

/// The first check a failing chip tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistFailure {
    /// Index of the failing vector within the program.
    pub vector: usize,
    /// The output port that misbehaved.
    pub port: BistPort,
}

/// The outcome of running a whole [`BistProgram`] against one chip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BistOutcome {
    /// True iff every vector passed on every port.
    pub passed: bool,
    /// The first failure observed, if any.
    pub failure: Option<BistFailure>,
    /// Array beats the test occupied (the availability cost of a scrub).
    pub beats: u64,
}

/// Anything a self-test can be applied to: a bare array segment, or a
/// managed chip that models a hardware fault on its output pins (see
/// `recovery`).
pub trait BistTarget {
    /// Number of character cells on the chip.
    fn cells(&self) -> usize;
    /// Boundary wires about to leave the chip this beat.
    fn outputs(&self) -> SegmentIo<BooleanMatch>;
    /// Advances the chip one beat with the given boundary inputs.
    fn step(&mut self, input: SegmentIo<BooleanMatch>);
    /// Power-on reset between vectors.
    fn reset(&mut self);
}

impl BistTarget for Segment<BooleanMatch> {
    fn cells(&self) -> usize {
        Segment::cells(self)
    }
    fn outputs(&self) -> SegmentIo<BooleanMatch> {
        Segment::outputs(self)
    }
    fn step(&mut self, input: SegmentIo<BooleanMatch>) {
        Segment::step(self, input)
    }
    fn reset(&mut self) {
        Segment::reset(self)
    }
}

/// A self-test program: the §4 production test vectors with golden
/// outputs attached.
#[derive(Debug, Clone)]
pub struct BistProgram {
    vectors: Vec<BistVector>,
}

impl BistProgram {
    /// Builds a program from explicit vectors.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty — an empty self-test would pass
    /// every dead chip.
    pub fn new(vectors: Vec<BistVector>) -> Self {
        assert!(!vectors.is_empty(), "a BIST program needs vectors");
        BistProgram { vectors }
    }

    /// The standard field test for a chip of `cells` character cells
    /// over a `bits`-bit alphabet: the production test program of
    /// `pm_nmos::faults::standard_test_program` (a wild-card streaming
    /// vector, an all-match vector and an all-mismatch vector), with
    /// goldens from the executable specification.
    pub fn standard(cells: usize, bits: u32) -> Self {
        let vectors = faults::standard_test_program(cells, bits)
            .into_iter()
            .map(|(pattern, text)| {
                let golden = match_spec(&text, &pattern);
                BistVector {
                    pattern,
                    text,
                    golden,
                }
            })
            .collect();
        BistProgram::new(vectors)
    }

    /// The vectors of this program.
    pub fn vectors(&self) -> &[BistVector] {
        &self.vectors
    }

    /// Exact number of beats [`run`](Self::run) occupies on a chip of
    /// `cells` cells — used to budget scrub time and to bound fault
    /// detection latency.
    pub fn beats_bound(&self, cells: usize) -> u64 {
        self.vectors
            .iter()
            .map(|v| Self::vector_beats(v, cells))
            .sum()
    }

    fn vector_beats(vector: &BistVector, cells: usize) -> u64 {
        // Two beats per text character, then the host driver's drain.
        2 * vector.text.len() as u64 + drain_beats(cells, vector.pattern.len())
    }

    /// Runs the whole program against one chip, driving its boundary
    /// wires beat by beat and checking result, text-echo and
    /// pattern-echo ports. The chip is reset before and after each
    /// vector.
    pub fn run(&self, target: &mut impl BistTarget) -> BistOutcome {
        let mut beats = 0u64;
        for (vi, vector) in self.vectors.iter().enumerate() {
            let verdict = Self::run_vector(vector, target, &mut beats);
            if let Some(port) = verdict {
                target.reset();
                return BistOutcome {
                    passed: false,
                    failure: Some(BistFailure { vector: vi, port }),
                    beats,
                };
            }
        }
        BistOutcome {
            passed: true,
            failure: None,
            beats,
        }
    }

    /// Runs one vector; returns the first failing port, if any.
    fn run_vector(
        vector: &BistVector,
        target: &mut impl BistTarget,
        beats: &mut u64,
    ) -> Option<BistPort> {
        target.reset();
        let cells = target.cells();
        let psyms: &[PatSym] = vector.pattern.symbols();
        let plen = psyms.len();

        let mut results: Vec<Option<bool>> = vec![None; vector.text.len()];
        let mut text_echo: Vec<Option<Symbol>> = vec![None; vector.text.len()];
        let mut pattern_echo: Vec<PatItem<PatSym>> = Vec::new();

        // The host schedule on a one-chip chain; the tester samples the
        // chain's exits, which are this chip's boundary wires.
        for t in 0..Self::vector_beats(vector, cells) {
            let text_in = text_slot(cells, t).and_then(|i| {
                let payload = *vector.text.get(i as usize)?;
                Some(TxtItem { payload, seq: i })
            });
            let mut io = [target.outputs()];
            let exit = clock(t, pattern_port(psyms, t), &mut io, text_in);
            let [input] = io;
            target.step(input);
            *beats += 1;
            if let Some(p) = exit.pattern {
                pattern_echo.push(p);
            }
            if let Some(s) = exit.text {
                if let Some(slot) = text_echo.get_mut(s.seq as usize) {
                    *slot = Some(s.payload);
                }
            }
            if let Some(r) = exit.result {
                if let Some(slot) = results.get_mut(r.seq as usize) {
                    *slot = Some(r.value);
                }
            }
        }
        target.reset();

        // Result port: every complete window must report its golden bit.
        let k = vector.pattern.k();
        for (got, want) in results.iter().zip(&vector.golden).skip(k) {
            if *got != Some(*want) {
                return Some(BistPort::Result);
            }
        }
        // Text echo: every injected character must come back intact.
        for (i, echo) in text_echo.iter().enumerate() {
            if *echo != Some(vector.text[i]) {
                return Some(BistPort::TextEcho);
            }
        }
        // Pattern echo: the recirculated pattern must come back intact,
        // λ bit included, for at least one full recirculation.
        if pattern_echo.len() < plen {
            return Some(BistPort::PatternEcho);
        }
        for (j, item) in pattern_echo.iter().enumerate() {
            let idx = j % plen;
            if item.payload != psyms[idx] || item.lambda != (idx == plen - 1) {
                return Some(BistPort::PatternEcho);
            }
        }
        None
    }

    /// Scores this program against the transistor-level chip model:
    /// enumerates single stuck-at faults over the NMOS netlist (thinned
    /// by `sample_every`) and reports how many the program detects.
    /// This ties field self-test quality back to the §4 fabrication
    /// test machinery it was derived from.
    pub fn fault_coverage(&self, chip: &PatternChip, sample_every: usize) -> CoverageReport {
        let tests: Vec<(Pattern, Vec<Symbol>)> = self
            .vectors
            .iter()
            .map(|v| (v.pattern.clone(), v.text.clone()))
            .collect();
        let fault_list = faults::enumerate_faults(chip, sample_every);
        faults::coverage_multi(chip, &tests, &fault_list)
    }

    /// Cross-checks every vector's golden bits against the NMOS
    /// transistor-level chip — the specification, the gate-level model
    /// and the self-test program must all agree.
    ///
    /// # Errors
    ///
    /// Propagates any simulation error from the netlist.
    ///
    /// # Panics
    ///
    /// Panics if a *successful* simulation disagrees with the golden
    /// bits: that is a model bug, not a runtime fault.
    pub fn golden_against_silicon(
        &self,
        chip: &PatternChip,
    ) -> Result<(), pm_nmos::error::SimError> {
        for v in &self.vectors {
            let silicon = chip.match_pattern(&v.pattern, &v.text)?;
            assert_eq!(
                silicon, v.golden,
                "NMOS chip disagrees with match_spec golden — model bug"
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_program_has_goldens_for_every_vector() {
        let program = BistProgram::standard(8, 2);
        assert_eq!(program.vectors().len(), 3);
        for v in program.vectors() {
            assert_eq!(v.golden.len(), v.text.len());
            assert_eq!(v.golden, match_spec(&v.text, &v.pattern));
        }
        // The program must be able to observe both result polarities,
        // or a stuck result driver could escape.
        let any_true = program
            .vectors()
            .iter()
            .any(|v| v.golden.iter().any(|&b| b));
        let any_false = program
            .vectors()
            .iter()
            .any(|v| v.golden.iter().skip(v.pattern.k()).any(|&b| !b));
        assert!(any_true && any_false);
    }

    #[test]
    fn healthy_chip_passes() {
        let program = BistProgram::standard(8, 2);
        let mut chip = Segment::new(BooleanMatch, 8);
        let outcome = program.run(&mut chip);
        assert!(outcome.passed, "{:?}", outcome.failure);
        assert_eq!(outcome.beats, program.beats_bound(8));
    }

    #[test]
    fn healthy_odd_sized_chip_passes() {
        let program = BistProgram::standard(5, 2);
        let mut chip = Segment::new(BooleanMatch, 5);
        assert!(program.run(&mut chip).passed);
    }

    #[test]
    fn healthy_chips_of_every_size_pass_in_exactly_the_bound() {
        for cells in 1..=16 {
            for bits in 1..=8 {
                let program = BistProgram::standard(cells, bits);
                let mut chip = Segment::new(BooleanMatch, cells);
                let outcome = program.run(&mut chip);
                assert!(outcome.passed, "{cells} cells, {bits} bits: {outcome:?}");
                assert_eq!(outcome.beats, program.beats_bound(cells), "{cells}x{bits}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs vectors")]
    fn empty_program_rejected() {
        let _ = BistProgram::new(vec![]);
    }

    #[test]
    fn beats_bound_is_exact_and_positive() {
        let program = BistProgram::standard(4, 1);
        assert!(program.beats_bound(4) > 0);
        let mut chip = Segment::new(BooleanMatch, 4);
        let outcome = program.run(&mut chip);
        assert!(outcome.passed);
        assert_eq!(outcome.beats, program.beats_bound(4));
    }

    #[test]
    fn goldens_agree_with_silicon() {
        // Small chip: the NMOS netlist simulation is transistor-level.
        let program = BistProgram::standard(2, 1);
        let chip = PatternChip::new(2, 1);
        program.golden_against_silicon(&chip).unwrap();
    }

    #[test]
    fn program_covers_most_netlist_faults() {
        let program = BistProgram::standard(2, 1);
        let chip = PatternChip::new(2, 1);
        let report = program.fault_coverage(&chip, 7);
        assert!(report.total >= 10);
        assert!(
            report.coverage() > 0.6,
            "field BIST coverage only {:.0}%",
            100.0 * report.coverage()
        );
    }
}
