//! The correlation chip at transistor level (paper §3.4).
//!
//! "Correlations can be computed by a machine with identical data flow
//! to the string matching chip, except that all streams contain
//! numbers. The comparator is replaced by a difference cell … An adder
//! cell replaces the accumulator." This module performs that
//! replacement in silicon, using the arithmetic library of
//! [`crate::arith`]:
//!
//! * the **difference-square cell** latches `W`-bit two's-complement
//!   `p` and `s` buses and computes `(s−p)²` combinationally (ripple
//!   subtractor → conditional negate → array multiplier);
//! * the **adder cell** below accumulates into an `R`-bit register
//!   under the same two-phase master/slave discipline as the boolean
//!   accumulator, with `λ` emitting the finished sum-of-squared-
//!   differences onto the `R`-bit result bus.
//!
//! The difference path is sign-extended internally, so any pair of
//! `W`-bit samples subtracts exactly; the host's only contract is that
//! each window's `Σ d²` fits the `R`-bit accumulator.

use crate::arith::{adder, mux2, square, subtractor};
use crate::array::{strap_chain, Array, Pinout};
use crate::error::SimError;
use crate::netlist::{Netlist, NodeId};

/// A transistor-level sum-of-squared-differences correlator.
#[derive(Debug, Clone)]
pub struct CorrChip {
    pub(crate) array: Array,
}

/// A latched bus: stored nodes and their regenerating (inverted)
/// outputs.
struct LatchedBus {
    stored: Vec<NodeId>,
    inverted_out: Vec<NodeId>,
}

/// Latches `inputs` through pass transistors on `clk`; returns storage
/// nodes and per-bit output inverters.
fn latch_bus(nl: &mut Netlist, name: &str, clk: NodeId, inputs: &[NodeId]) -> LatchedBus {
    let mut stored = Vec::with_capacity(inputs.len());
    let mut inverted_out = Vec::with_capacity(inputs.len());
    for (w, &i) in inputs.iter().enumerate() {
        let s = nl.node(format!("{name}.s{w}"));
        nl.pass(clk, i, s);
        stored.push(s);
        inverted_out.push(nl.inverter(&format!("{name}.q{w}"), s));
    }
    LatchedBus {
        stored,
        inverted_out,
    }
}

impl LatchedBus {
    /// The true-polarity view of the stored bus.
    fn true_view(&self, arrived_inverted: bool) -> Vec<NodeId> {
        if arrived_inverted {
            self.inverted_out.clone()
        } else {
            self.stored.clone()
        }
    }
}

impl CorrChip {
    /// Builds a correlator: `columns` cells, `width`-bit samples,
    /// `acc_width`-bit accumulators/results.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `acc_width < 2·(width+1)`.
    pub fn new(columns: usize, width: usize, acc_width: usize) -> Self {
        assert!(columns > 0 && width > 0, "chip needs cells and sample bits");
        assert!(
            acc_width >= 2 * (width + 1),
            "accumulator must hold one square"
        );
        let mut array = Array::new(
            columns,
            Pinout {
                staggered: false,
                bits: width,
                wild: false,
                result_bus: Some(acc_width),
            },
        );
        let phi = array.phi;
        let nl = &mut array.nl;
        let gnd = nl.gnd();

        // Difference-square row.
        let mut p_prev = array.p.clone();
        let mut s_in = Vec::with_capacity(columns * width);
        let mut s_out = Vec::with_capacity(columns * width);
        let mut squares = Vec::with_capacity(columns);
        for c in 0..columns {
            let clk = phi[c % 2];
            let inverted = c % 2 == 1;
            let s: Vec<NodeId> = (0..width).map(|w| nl.node(format!("w.s{w}.{c}"))).collect();
            let p_bus = latch_bus(nl, &format!("dc{c}.p"), clk, &p_prev);
            let s_bus = latch_bus(nl, &format!("dc{c}.s"), clk, &s);
            // Sign-extend by one bit so the difference of any two W-bit
            // two's-complement samples is exact.
            let mut p_true = p_bus.true_view(inverted);
            let mut s_true = s_bus.true_view(inverted);
            p_true.push(*p_true.last().expect("non-empty"));
            s_true.push(*s_true.last().expect("non-empty"));
            let d = subtractor(nl, &format!("dc{c}.sub"), &s_true, &p_true);
            squares.push(square(nl, &format!("dc{c}.sq"), &d));
            p_prev = p_bus.inverted_out;
            s_in.extend(s);
            s_out.extend(s_bus.inverted_out);
        }
        strap_chain(nl, &s_in, &s_out, &array.s);

        // Adder row, one beat behind the difference-square row.
        let mut lam_prev = array.lam;
        let mut r_in = Vec::with_capacity(columns * acc_width);
        let mut r_outs = Vec::with_capacity(columns * acc_width);
        for (c, mut sq_in) in squares.into_iter().enumerate() {
            let (clk, clk_b) = array.row_clocks(c);
            let nl = &mut array.nl;
            let inverted = c % 2 == 1;
            let name = format!("ac{c}");

            // λ and r/sq latches.
            let sl = nl.node(format!("{name}.sl"));
            nl.pass(clk, lam_prev, sl);
            let lambda_out = nl.inverter(&format!("{name}.lq"), sl);
            let lam_t = if inverted { lambda_out } else { sl };

            // sq arrives true-polarity (combinational within the column),
            // zero-extended to the accumulator width.
            sq_in.resize(acc_width, gnd);
            let sq_bus = latch_bus(nl, &format!("{name}.sq"), clk, &sq_in);
            let sq_true = sq_bus.true_view(false);

            let r: Vec<NodeId> = (0..acc_width)
                .map(|w| nl.node(format!("w.r{w}.{c}")))
                .collect();
            let r_bus = latch_bus(nl, &format!("{name}.r"), clk, &r);
            let r_true = r_bus.true_view(inverted);

            // t register (slave holds t̄) and incsum = t + sq.
            let slaves: Vec<NodeId> = (0..acc_width)
                .map(|w| nl.node(format!("{name}.ts{w}")))
                .collect();
            let t_true: Vec<NodeId> = slaves
                .iter()
                .enumerate()
                .map(|(w, &s)| nl.inverter(&format!("{name}.tq{w}"), s))
                .collect();
            let (incsum, _) = adder(nl, &format!("{name}.add"), &t_true, &sq_true, gnd);

            for w in 0..acc_width {
                // t_next = λ̄ AND incsum.
                let inc_bar = nl.inverter(&format!("{name}.ib{w}"), incsum[w]);
                let t_next = nl.nor2(&format!("{name}.tn{w}"), lam_t, inc_bar);
                let master = nl.node(format!("{name}.tm{w}"));
                nl.pass(clk, t_next, master);
                let master_bar = nl.inverter(&format!("{name}.tmb{w}"), master);
                nl.pass(clk_b, master_bar, slaves[w]);

                // r_sel = λ ? incsum : r, into an output register.
                let sel = mux2(nl, &format!("{name}.mx{w}"), lam_t, incsum[w], r_true[w]);
                let r_store = nl.node(format!("{name}.rst{w}"));
                nl.pass(clk, sel, r_store);
                let out_bar = nl.inverter(&format!("{name}.rq{w}"), r_store);
                r_outs.push(if inverted {
                    nl.inverter(&format!("{name}.rqq{w}"), out_bar)
                } else {
                    out_bar
                });
            }
            lam_prev = lambda_out;
            r_in.extend(r);
        }
        strap_chain(&mut array.nl, &r_in, &r_outs, &array.r);
        array.r_out = r_outs[..acc_width].to_vec();
        CorrChip { array }
    }

    /// Sample width in bits.
    pub fn width(&self) -> usize {
        self.array.p.len()
    }

    /// Total device count.
    pub fn device_count(&self) -> usize {
        self.array.nl.device_count()
    }

    /// Correlates `signal` against `reference` (the paper's `r_i =
    /// Σ (s−p)²`), at transistor level. A sample is a two's-complement
    /// bus, least significant bit on pad 0.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] or [`SimError::UnknownOutput`] on
    /// netlist misbehaviour.
    ///
    /// # Panics
    ///
    /// Panics if the reference exceeds the array, or any value breaks
    /// the range contract.
    pub fn correlate(&self, reference: &[i64], signal: &[i64]) -> Result<Vec<i64>, SimError> {
        assert!(
            !reference.is_empty() && reference.len() <= self.array.columns,
            "reference must fit the array"
        );
        let half = 1i64 << (self.width() - 1);
        for &v in reference.iter().chain(signal) {
            assert!((-half..half).contains(&v), "sample {v} outside W-bit range");
        }
        let reference: Vec<(u64, bool)> = reference.iter().map(|&v| (v as u64, false)).collect();
        let signal: Vec<u64> = signal.iter().map(|&v| v as u64).collect();
        let words = self.array.drive(&reference, &signal, &[])?;
        Ok(words.into_iter().map(|w| w as i64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::correlation_spec;

    #[test]
    fn two_cell_correlator_matches_spec() {
        let chip = CorrChip::new(2, 3, 8);
        let reference = vec![1, -2];
        let signal = vec![1, -2, 3, 0, -4];
        let got = chip.correlate(&reference, &signal).unwrap();
        assert_eq!(got, correlation_spec(&signal, &reference));
    }

    #[test]
    fn perfect_match_scores_zero() {
        let chip = CorrChip::new(3, 3, 9);
        let reference = vec![3, -1, 2];
        let mut signal = vec![0, 0];
        signal.extend(&reference);
        signal.push(1);
        let got = chip.correlate(&reference, &signal).unwrap();
        assert_eq!(got, correlation_spec(&signal, &reference));
        assert_eq!(got[4], 0, "planted copy must score zero");
    }

    #[test]
    fn single_cell_is_a_squarer() {
        let chip = CorrChip::new(1, 3, 8);
        let got = chip.correlate(&[2], &[-3, 2, 0]).unwrap();
        assert_eq!(got, vec![25, 0, 4]);
    }

    #[test]
    #[should_panic(expected = "outside W-bit range")]
    fn range_contract_enforced() {
        let chip = CorrChip::new(1, 3, 8);
        let _ = chip.correlate(&[1], &[9]);
    }

    #[test]
    fn device_count_reflects_the_arithmetic() {
        // The difference-square cell is an order of magnitude bigger
        // than a boolean comparator — the price of §3.4's "streams of
        // numbers".
        let boolean = crate::chip::PatternChip::new(2, 2).device_count();
        let corr = CorrChip::new(2, 3, 8).device_count();
        assert!(corr > 5 * boolean, "corr {corr} vs boolean {boolean}");
    }
}
