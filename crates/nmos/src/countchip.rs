//! The match-*counting* chip at transistor level (paper §3.4).
//!
//! "This problem can be solved by replacing the result bit stream by a
//! stream of integers, and replacing the accumulator cell by a counting
//! cell." This module performs exactly that modification on the NMOS
//! design: the comparator grid is untouched, the one-bit accumulator
//! becomes a `W`-bit counting cell —
//!
//! ```text
//! a    = x OR d                      (does this position agree?)
//! inc  = t + a                       (ripple-carry incrementer)
//! IF λ THEN rout ← inc; t ← 0  ELSE rout ← rin; t ← inc
//! ```
//!
//! — and the result stream widens to a `W`-bit bus. The counter `t`
//! lives in `W` two-phase master/slave registers (the same timing
//! discipline as the boolean cell); counts wrap modulo `2^W`, so the
//! host sizes `W` to the pattern length.

use crate::array::{strap_chain, Array, Pinout};
use crate::error::SimError;
use crate::netlist::{Netlist, NodeId};
use pm_systolic::symbol::{Pattern, Symbol};

/// Outputs of one counting-accumulator instance.
#[derive(Debug, Clone)]
pub struct CounterOutputs {
    /// `λ` for the right neighbour (inverted relative to the input).
    pub lambda_out: NodeId,
    /// `x` for the right neighbour (inverted relative to the input).
    pub x_out: NodeId,
    /// Result bus for the left neighbour (each bit inverted relative to
    /// the input bus).
    pub r_out: Vec<NodeId>,
    /// The true-polarity counter bits (LSB first), for testing.
    pub t_bits: Vec<NodeId>,
}

/// Builds a `width`-bit counting cell.
///
/// Polarity conventions as
/// [`build_accumulator`](crate::cells::build_accumulator): `clk` is the
/// cell's own phase, `clk_b` the opposite; `horiz_inverted` if
/// `λ`/`x`/`r` arrive inverted; `d_inverted` if the comparison result
/// arrives inverted.
#[allow(clippy::too_many_arguments)]
pub fn build_counter_accumulator(
    nl: &mut Netlist,
    name: &str,
    clk: NodeId,
    clk_b: NodeId,
    lambda_in: NodeId,
    x_in: NodeId,
    d_in: NodeId,
    r_in: &[NodeId],
    horiz_inverted: bool,
    d_inverted: bool,
) -> CounterOutputs {
    let width = r_in.len();
    // Input storage.
    let sl = nl.node(format!("{name}.sl"));
    let sx = nl.node(format!("{name}.sx"));
    let sd = nl.node(format!("{name}.sd"));
    nl.pass(clk, lambda_in, sl);
    nl.pass(clk, x_in, sx);
    nl.pass(clk, d_in, sd);
    let sr: Vec<NodeId> = (0..width)
        .map(|w| {
            let n = nl.node(format!("{name}.sr{w}"));
            nl.pass(clk, r_in[w], n);
            n
        })
        .collect();

    let lambda_out = nl.inverter(&format!("{name}.lq"), sl);
    let x_out = nl.inverter(&format!("{name}.xq"), sx);
    let (lam_t, lam_f) = if horiz_inverted {
        (lambda_out, sl)
    } else {
        (sl, lambda_out)
    };
    let x_t = if horiz_inverted { x_out } else { sx };
    let d_t = if d_inverted {
        nl.inverter(&format!("{name}.dn"), sd)
    } else {
        sd
    };

    // a = x OR d — the agreement bit to add.
    let a_bar = nl.nor2(&format!("{name}.ab"), x_t, d_t);
    let a = nl.inverter(&format!("{name}.a"), a_bar);

    // Counter bits: slave_w holds t̄_w; t_rail_w is the driven true bit.
    let slaves: Vec<NodeId> = (0..width)
        .map(|w| nl.node(format!("{name}.ts{w}")))
        .collect();
    let t_rails: Vec<NodeId> = slaves
        .iter()
        .enumerate()
        .map(|(w, &s)| nl.inverter(&format!("{name}.tq{w}"), s))
        .collect();

    // Ripple-carry increment: sum_w = t_w XOR c_{w-1}, c_w = t_w AND
    // c_{w-1}, with c_{-1} = a.
    let mut carry = a;
    let mut carry_bar = a_bar;
    let mut r_out = Vec::with_capacity(width);
    let mut t_bits = Vec::with_capacity(width);
    for w in 0..width {
        let t = t_rails[w];
        let t_bar = slaves[w];
        // sum̄ = XNOR(t, c) = NOT(t·c̄ + t̄·c).
        let sum_bar = nl.complex_gate(
            &format!("{name}.snb{w}"),
            &[&[t, carry_bar], &[t_bar, carry]],
        );
        // t_next = λ̄ AND sum = NOR(λ, sum̄).
        let t_next = nl.nor2(&format!("{name}.tn{w}"), lam_t, sum_bar);
        let master = nl.node(format!("{name}.tm{w}"));
        nl.pass(clk, t_next, master);
        let master_bar = nl.inverter(&format!("{name}.tmb{w}"), master);
        nl.pass(clk_b, master_bar, slaves[w]);

        // Result-bit selection: r_sel = λ·sum + λ̄·r = NOT(λ·sum̄ + λ̄·r̄).
        let r_f = if horiz_inverted {
            sr[w]
        } else {
            nl.inverter(&format!("{name}.rn{w}"), sr[w])
        };
        let r_sel = nl.complex_gate(
            &format!("{name}.rs{w}"),
            &[&[lam_t, sum_bar], &[lam_f, r_f]],
        );
        let r_store = nl.node(format!("{name}.rst{w}"));
        nl.pass(clk, r_sel, r_store);
        let r_out_bar = nl.inverter(&format!("{name}.rq{w}"), r_store);
        r_out.push(if horiz_inverted {
            nl.inverter(&format!("{name}.rqq{w}"), r_out_bar)
        } else {
            r_out_bar
        });
        t_bits.push(t_rails[w]);

        // Next carry: c_w = t_w AND c_{w-1}.
        let next_carry_bar = nl.nand2(&format!("{name}.cb{w}"), t, carry);
        let next_carry = nl.inverter(&format!("{name}.c{w}"), next_carry_bar);
        carry = next_carry;
        carry_bar = next_carry_bar;
    }

    CounterOutputs {
        lambda_out,
        x_out,
        r_out,
        t_bits,
    }
}

/// A transistor-level match-counting chip: the bit-serial comparator
/// grid of [`crate::chip`] over a row of counting cells.
#[derive(Debug, Clone)]
pub struct CountChip {
    pub(crate) array: Array,
}

impl CountChip {
    /// Builds a counting chip: `columns` cells, `bits`-bit alphabet,
    /// `width`-bit counters (size `width ≥ ⌈log₂(pattern_len+1)⌉` to
    /// avoid wrap-around).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(columns: usize, bits: u32, width: usize) -> Self {
        assert!(
            columns > 0 && bits > 0 && width > 0,
            "chip needs cells, bits and width"
        );
        let mut array = Array::new(
            columns,
            Pinout {
                staggered: true,
                bits: bits as usize,
                wild: true,
                result_bus: Some(width),
            },
        );
        let d = array.comparator_grid();

        // Counting row.
        let d_inverted = bits % 2 == 1;
        let mut lam_prev = array.lam;
        let mut x_prev = array.x.expect("the counting chip has a wild-card pad");
        let mut r_in = Vec::with_capacity(columns * width);
        let mut r_out = Vec::with_capacity(columns * width);
        for (c, &d) in d.iter().enumerate() {
            let (clk, clk_b) = array.row_clocks(c);
            let r: Vec<NodeId> = (0..width)
                .map(|w| array.nl.node(format!("w.r{w}.{c}")))
                .collect();
            let out = build_counter_accumulator(
                &mut array.nl,
                &format!("cnt.{c}"),
                clk,
                clk_b,
                lam_prev,
                x_prev,
                d,
                &r,
                c % 2 == 1,
                d_inverted,
            );
            lam_prev = out.lambda_out;
            x_prev = out.x_out;
            r_in.extend(r);
            r_out.extend(out.r_out);
        }
        strap_chain(&mut array.nl, &r_in, &r_out, &array.r);
        array.r_out = r_out[..width].to_vec();
        CountChip { array }
    }

    /// Counter width in bits.
    pub fn width(&self) -> usize {
        self.array.r.len()
    }

    /// Total device count.
    pub fn device_count(&self) -> usize {
        self.array.nl.device_count()
    }

    /// Counts per-window agreements at transistor level; behaviour
    /// matches [`pm_systolic::matcher::SystolicCounter`] modulo `2^W`.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] or [`SimError::UnknownOutput`] on
    /// netlist misbehaviour.
    ///
    /// # Panics
    ///
    /// Panics if the pattern exceeds the array or the alphabet width.
    pub fn count(&self, pattern: &Pattern, text: &[Symbol]) -> Result<Vec<u32>, SimError> {
        let words = self.array.drive_chars(pattern, text, &[])?;
        Ok(words.into_iter().map(|w| w as u32).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::count_spec;
    use pm_systolic::symbol::text_from_letters;

    fn co_sim(pattern: &str, text: &str, columns: usize, width: usize) {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let chip = CountChip::new(columns, p.alphabet().bits(), width);
        let got = chip.count(&p, &t).unwrap();
        assert_eq!(got, count_spec(&t, &p), "pattern={pattern} text={text}");
    }

    #[test]
    fn two_cell_counter_matches_spec() {
        co_sim("AB", "ABAB", 2, 2);
    }

    #[test]
    fn counting_with_wildcards() {
        co_sim("AXC", "ABCAACCAB", 3, 2);
    }

    #[test]
    fn four_cell_counter() {
        co_sim("ABCA", "ABCAABCAABDA", 4, 3);
    }

    #[test]
    fn counter_wraps_modulo_width() {
        // A 1-bit counter counting up to 2 agreements wraps: the chip
        // reports counts mod 2 — the host's responsibility to size W.
        let p = Pattern::parse("AA").unwrap();
        let t = text_from_letters("AAA").unwrap();
        let chip = CountChip::new(2, 2, 1);
        let got = chip.count(&p, &t).unwrap();
        let spec: Vec<u32> = count_spec(&t, &p).iter().map(|c| c % 2).collect();
        assert_eq!(got, spec);
    }

    #[test]
    fn device_cost_of_the_extension() {
        // The §3.4 modification is purely in the accumulator row: the
        // counting chip costs more devices than the boolean one, and
        // the increment per counter bit is visible.
        let boolean = crate::chip::PatternChip::new(4, 2).device_count();
        let w2 = CountChip::new(4, 2, 2).device_count();
        let w4 = CountChip::new(4, 2, 4).device_count();
        assert!(w2 > boolean);
        assert!(w4 > w2);
        let per_bit = (w4 - w2) / 2 / 4; // per bit per cell
        assert!(
            (10..40).contains(&per_bit),
            "devices per counter bit: {per_bit}"
        );
    }
}
