//! The character-level chip organisation (Figure 3-3).
//!
//! Before dividing the comparators into one-bit cells (Figure 3-4),
//! the paper presents the array as whole-character comparators over
//! accumulators: "Rather than using one large circuit to compare whole
//! characters, we can divide each comparator into modules that can
//! compare single bits." This module builds the *undivided* version,
//! so the two organisations can be compared at transistor level:
//!
//! * a character comparator latches all `b` bits of `p` and `s` at
//!   once and computes full equality in a single ratioed complex gate
//!   (`eq = NOT Σ_v p_v ⊕ s_v`, one pulldown chain pair per bit);
//! * the accumulator below is the same cell as in the bit-serial chip,
//!   receiving `d` one beat after the comparator latches — there is no
//!   descending `d` pipeline and no bit staggering;
//! * the trade-off the paper implies: a shorter pipeline (latency
//!   `1` instead of `b` beats to the accumulator) against a wider,
//!   slower cell — quantified in [`CharChip::device_count`] and the
//!   comparison tests.

use crate::array::{strap_chain, Array, Pinout};
use crate::error::SimError;
use crate::netlist::{Netlist, NodeId};
use pm_systolic::symbol::{Pattern, Symbol};

/// A transistor-level pattern matcher with whole-character comparators.
#[derive(Debug, Clone)]
pub struct CharChip {
    pub(crate) array: Array,
}

/// Outputs of one character comparator column.
struct CharComparator {
    p_out: Vec<NodeId>,
    s_out: Vec<NodeId>,
    /// `eq` — true character equality.
    d_out: NodeId,
}

/// Builds one whole-character comparator.
fn build_char_comparator(
    nl: &mut Netlist,
    name: &str,
    clk: NodeId,
    p_in: &[NodeId],
    s_in: &[NodeId],
) -> CharComparator {
    let bits = p_in.len();
    let mut sp = Vec::with_capacity(bits);
    let mut ss = Vec::with_capacity(bits);
    let mut p_out = Vec::with_capacity(bits);
    let mut s_out = Vec::with_capacity(bits);
    for v in 0..bits {
        let spv = nl.node(format!("{name}.sp{v}"));
        let ssv = nl.node(format!("{name}.ss{v}"));
        nl.pass(clk, p_in[v], spv);
        nl.pass(clk, s_in[v], ssv);
        p_out.push(nl.inverter(&format!("{name}.pq{v}"), spv));
        s_out.push(nl.inverter(&format!("{name}.sq{v}"), ssv));
        sp.push(spv);
        ss.push(ssv);
    }
    // eq = NOT(OR over bits of p XOR s) — one ratioed complex gate
    // with a chain pair per bit computes full-character equality.
    let mut chains: Vec<Vec<NodeId>> = Vec::with_capacity(2 * bits);
    for v in 0..bits {
        chains.push(vec![sp[v], s_out[v]]); // p·s̄
        chains.push(vec![p_out[v], ss[v]]); // p̄·s
    }
    let chain_refs: Vec<&[NodeId]> = chains.iter().map(Vec::as_slice).collect();
    let d_out = nl.complex_gate(&format!("{name}.eq"), &chain_refs);
    CharComparator {
        p_out,
        s_out,
        d_out,
    }
}

impl CharChip {
    /// Builds the Figure 3-3 organisation: `columns` character
    /// comparators over `columns` accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `columns` or `bits` is zero.
    pub fn new(columns: usize, bits: u32) -> Self {
        assert!(
            columns > 0 && bits > 0,
            "chip needs at least one cell and one bit"
        );
        let b = bits as usize;
        let mut array = Array::new(
            columns,
            Pinout {
                staggered: false,
                bits: b,
                wild: true,
                result_bus: None,
            },
        );

        // Comparator row.
        let nl = &mut array.nl;
        let mut p_prev = array.p.clone();
        let mut s_in = Vec::with_capacity(columns * b);
        let mut s_out = Vec::with_capacity(columns * b);
        let mut d = Vec::with_capacity(columns);
        for c in 0..columns {
            let clk = array.phi[c % 2];
            let s: Vec<NodeId> = (0..b).map(|v| nl.node(format!("w.s{v}.{c}"))).collect();
            let cmp = build_char_comparator(nl, &format!("cmp.{c}"), clk, &p_prev, &s);
            s_in.extend(s);
            s_out.extend(&cmp.s_out);
            d.push(cmp.d_out);
            p_prev = cmp.p_out;
        }
        strap_chain(nl, &s_in, &s_out, &array.s);

        // The comparator emits true equality, one beat before the
        // accumulator below reads it.
        array.accumulator_row(&d, false);
        CharChip { array }
    }

    /// Number of character cells.
    pub fn columns(&self) -> usize {
        self.array.columns
    }

    /// Alphabet width.
    pub fn bits(&self) -> u32 {
        self.array.p.len() as u32
    }

    /// Total device count (the organisational comparison with the
    /// bit-serial [`PatternChip`](crate::chip::PatternChip)).
    pub fn device_count(&self) -> usize {
        self.array.nl.device_count()
    }

    /// Matches `text` against `pattern` at transistor level. Same host
    /// protocol as the bit-serial chip, minus the bit staggering: a
    /// whole character is presented per injection beat.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] or [`SimError::UnknownOutput`] on
    /// netlist misbehaviour.
    ///
    /// # Panics
    ///
    /// Panics if the pattern exceeds the array or the alphabet width.
    pub fn match_pattern(&self, pattern: &Pattern, text: &[Symbol]) -> Result<Vec<bool>, SimError> {
        let words = self.array.drive_chars(pattern, text, &[])?;
        Ok(words.into_iter().map(|w| w != 0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::PatternChip;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn co_sim(pattern: &str, text: &str, columns: usize) {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let chip = CharChip::new(columns, p.alphabet().bits());
        let got = chip.match_pattern(&p, &t).unwrap();
        assert_eq!(got, match_spec(&t, &p), "pattern={pattern} text={text}");
    }

    #[test]
    fn char_level_chip_matches_spec() {
        co_sim("AB", "ABAB", 2);
        co_sim("AXC", "ABCAACCAB", 3);
        co_sim("ABCA", "ABCAABCA", 4);
    }

    #[test]
    fn prototype_size_char_level() {
        co_sim("ABCDABCD", "ABCDABCDABCDABCD", 8);
    }

    #[test]
    fn organisations_agree_at_transistor_level() {
        let p = Pattern::parse("AXBA").unwrap();
        let t = text_from_letters("ABBAAXBACBBA".replace('X', "C").as_str()).unwrap();
        let bit_serial = PatternChip::new(4, 2);
        let char_level = CharChip::new(4, 2);
        assert_eq!(
            bit_serial.match_pattern(&p, &t).unwrap(),
            char_level.match_pattern(&p, &t).unwrap()
        );
    }

    #[test]
    fn char_comparator_is_wider_than_bit_serial_column() {
        // The organisational trade-off: per column, the character-level
        // comparator (2b latches + one 2b-chain gate) is a different
        // balance from b one-bit cells; for b=2 the bit-serial column is
        // at least as large because of the duplicated d plumbing.
        let bit_serial = PatternChip::new(8, 2).device_count();
        let char_level = CharChip::new(8, 2).device_count();
        assert_ne!(bit_serial, char_level);
        // Both are in the same few-hundred-device class.
        assert!((300..1200).contains(&bit_serial));
        assert!((300..1200).contains(&char_level));
    }
}
