//! The full pattern-matching chip at transistor level (Plate 2).
//!
//! The fabricated prototype handled "patterns containing up to eight
//! two-bit characters": a grid of 8 columns × 2 one-bit comparator rows
//! over an accumulator row. [`PatternChip`] assembles that netlist for
//! any column/bit count from the cells of [`crate::cells`]:
//!
//! * cell `(row v, column c)` is clocked by phase `(v+c) mod 2` — the
//!   two-phase checkerboard of Figure 3-4;
//! * comparator rows alternate polarity twins down the `d` chain, and
//!   accumulator columns alternate twins along the `λ`/`x`/`r` chain.
//!
//! The host drives it with the schedule all four switch-level chips
//! share, its bit rows staggered like the behavioural bit-serial array
//! (`pm_systolic::bitserial`): bit `v` of a character enters row `v`
//! one beat after bit `v−1` (MSB row first), and the `λ`/`x` bits
//! follow their character by `b` beats, where the character-level chip
//! of [`crate::charchip`] needs one.
//!
//! Co-simulation against the behavioural model is the E7 experiment:
//! same streams in, identical result bits out.

use crate::array::{Array, Pinout};
use crate::error::SimError;
use crate::netlist::{Netlist, NodeId};
use pm_systolic::symbol::{Pattern, Symbol};

/// A transistor-level pattern-matching chip.
#[derive(Debug, Clone)]
pub struct PatternChip {
    pub(crate) array: Array,
}

impl PatternChip {
    /// Builds a chip with `columns` character cells for a `bits`-bit
    /// alphabet. The fabricated prototype is `PatternChip::new(8, 2)`.
    ///
    /// # Panics
    ///
    /// Panics if `columns` or `bits` is zero.
    pub fn new(columns: usize, bits: u32) -> Self {
        assert!(
            columns > 0 && bits > 0,
            "chip needs at least one cell and one bit"
        );
        let mut array = Array::new(
            columns,
            Pinout {
                staggered: true,
                bits: bits as usize,
                wild: true,
                result_bus: None,
            },
        );
        let d = array.comparator_grid();
        // An odd number of comparator rows leaves d inverted.
        array.accumulator_row(&d, bits % 2 == 1);
        PatternChip { array }
    }

    /// Number of character-cell columns.
    pub fn columns(&self) -> usize {
        self.array.columns
    }

    /// Alphabet width (comparator rows).
    pub fn bits(&self) -> u32 {
        self.array.p.len() as u32
    }

    /// Total device count of the netlist (transistors + pullups),
    /// excluding pads.
    pub fn device_count(&self) -> usize {
        self.array.nl.device_count()
    }

    /// Matches `text` against `pattern` by simulating the chip beat by
    /// beat from power-on. Returns one result bit per text position
    /// (`false` for incomplete windows, as the host discards those
    /// slots).
    ///
    /// # Errors
    ///
    /// * [`SimError::Oscillation`] if the netlist misbehaves (a bug).
    /// * [`SimError::UnknownOutput`] if a result slot for a complete
    ///   window carries `X`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is longer than the array or its alphabet
    /// is wider than the chip's.
    pub fn match_pattern(&self, pattern: &Pattern, text: &[Symbol]) -> Result<Vec<bool>, SimError> {
        self.match_pattern_with_faults(pattern, text, &[])
    }

    /// The underlying netlist (for fault enumeration and statistics).
    pub fn netlist(&self) -> &Netlist {
        &self.array.nl
    }

    /// Like [`match_pattern`](Self::match_pattern) with stuck-at faults
    /// injected: each `(node, level)` pair shorts a net to a rail for
    /// the whole run. Used by [`crate::faults`] to measure test-vector
    /// coverage.
    ///
    /// # Errors
    ///
    /// As [`match_pattern`](Self::match_pattern); a faulty chip may
    /// additionally yield [`SimError::UnknownOutput`] when the fault
    /// corrupts a result slot into `X`.
    ///
    /// # Panics
    ///
    /// As [`match_pattern`](Self::match_pattern).
    pub fn match_pattern_with_faults(
        &self,
        pattern: &Pattern,
        text: &[Symbol],
        faults: &[(NodeId, crate::level::Level)],
    ) -> Result<Vec<bool>, SimError> {
        let words = self.array.drive_chars(pattern, text, faults)?;
        Ok(words.into_iter().map(|w| w != 0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn co_sim(pattern: &str, text: &str, columns: usize) {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let chip = PatternChip::new(columns, p.alphabet().bits());
        let got = chip.match_pattern(&p, &t).unwrap();
        assert_eq!(got, match_spec(&t, &p), "pattern={pattern} text={text}");
    }

    #[test]
    fn two_cell_chip_matches() {
        co_sim("AB", "ABAB", 2);
    }

    #[test]
    fn figure_3_1_on_silicon() {
        co_sim("AXC", "ABCAACCAB", 3);
    }

    #[test]
    fn prototype_chip_eight_cells_two_bits() {
        // The fabricated configuration of Plate 2.
        co_sim("ABCDABCD", "ABCDABCDABCDABCD", 8);
    }

    #[test]
    fn oversized_array_on_silicon() {
        co_sim("AB", "ABBABA", 5);
    }

    #[test]
    fn wildcards_on_silicon() {
        co_sim("XX", "ABC", 2);
        co_sim("AXA", "ABACADA", 3);
    }

    #[test]
    fn device_count_scales_linearly() {
        let c4 = PatternChip::new(4, 2).device_count();
        let c8 = PatternChip::new(8, 2).device_count();
        let c12 = PatternChip::new(12, 2).device_count();
        assert_eq!(c8 - c4, c12 - c8, "per-column cost must be constant");
        assert!(c8 > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pattern_longer_than_array_panics() {
        let p = Pattern::parse("ABCAB").unwrap();
        let t = text_from_letters("AB").unwrap();
        let chip = PatternChip::new(4, 2);
        let _ = chip.match_pattern(&p, &t);
    }
}
