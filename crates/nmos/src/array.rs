//! What the four switch-level chips share: their pins, the bit-serial
//! comparator grid, and the one host schedule that drives them.
//!
//! §3.4 says the correlator has "identical data flow to the string
//! matching chip, except that all streams contain numbers", and the
//! bit-serial organisation (Figure 3-4) differs from the character-level
//! one (Figure 3-3) only in how its bits are staggered. So one [`Array`]
//! holds every chip's netlist and pads, and [`Array::drive`] is the one
//! host loop. A chip supplies only what differs: whether its bit rows
//! are staggered ([`Pinout::staggered`]), how a character or sample
//! becomes a pad word, how a result word becomes its result, and its
//! own cells.
//!
//! The schedule, for an `n`-column array and a `k+1`-character pattern:
//!
//! * pattern character `j` (recirculating, `j mod (k+1)`) enters the
//!   left pads on beat `2j`, and text character `i` the right pads on
//!   beat `2i+φ+2(k+1)`, with `φ = (n−1) mod 2`; on a staggered chip
//!   bit row `v` runs `v` beats behind row 0;
//! * the `2(k+1)`-beat warm-up circulates the pattern once before the
//!   first text character, so every accumulator's dynamic `t` node sees
//!   a `λ` flush before it touches a real window (power-on charge is
//!   undefined; §3.3.3);
//! * the `λ`/`x` control bits of character `j` enter the result row
//!   [`lag`](Array::lag) beats after the character: `b` beats on a
//!   staggered `b`-bit chip, 1 beat otherwise;
//! * a signal entering from the right passes `n−1−c` inverters before
//!   meeting one that entered from the left (`c` inverters), so for even
//!   `n` the host feeds the right-edge streams (text and result pads)
//!   pre-inverted — a constant, per the chip's data sheet;
//! * result `r_i` rides the slot of `s_i` and is sampled at the left
//!   result pads on beat `n−1+φ+2(k+1)+lag+2i`; column 0 receives
//!   true-polarity `λ`/`x`/`r`, so its outputs are inverted and result
//!   bit `w` is `NOT r_out[w]`.

use crate::cells::{build_accumulator, build_comparator};
use crate::error::SimError;
use crate::level::Level;
use crate::netlist::{Netlist, NodeId};
use crate::sim::Sim;
use pm_systolic::symbol::{Pattern, Symbol};

/// The pads a chip type has; fixed per type.
pub(crate) struct Pinout {
    /// Bit row `v` enters `v` beats behind row 0 (the bit-serial chips).
    pub staggered: bool,
    /// Pads in each of the `p` and `s` rows.
    pub bits: usize,
    /// The chip has a wild-card (`x`) pad.
    pub wild: bool,
    /// `None` for a one-bit result (pad `pad.r`), `Some(w)` for a `w`-bit
    /// result bus (pads `pad.r0…`).
    pub result_bus: Option<usize>,
}

/// A chip's netlist and the pins the host drives.
#[derive(Debug, Clone)]
pub(crate) struct Array {
    pub nl: Netlist,
    pub columns: usize,
    pub phi: [NodeId; 2],
    /// Pattern pads, one per bit row (left edge).
    pub p: Vec<NodeId>,
    /// Text pads, one per bit row (right edge).
    pub s: Vec<NodeId>,
    /// End-of-pattern pad (left edge of the result row).
    pub lam: NodeId,
    /// Wild-card pad (left edge of the result row), if the chip has one.
    pub x: Option<NodeId>,
    /// Result input pads (right edge; idle on a lone chip).
    pub r: Vec<NodeId>,
    /// Column 0's result outputs, each inverted; set by the chip once
    /// its result row is built.
    pub r_out: Vec<NodeId>,
    staggered: bool,
    bus: bool,
}

/// Straps a right-to-left chain through always-on pass transistors:
/// cell `c` reads cell `c+1`, and the last cell reads `pads`. `ins` and
/// `outs` hold each cell's bus, column after column.
pub(crate) fn strap_chain(nl: &mut Netlist, ins: &[NodeId], outs: &[NodeId], pads: &[NodeId]) {
    let vdd = nl.vdd();
    let width = pads.len();
    for (i, &to) in ins.iter().enumerate() {
        let from = outs.get(i + width).copied().unwrap_or(pads[i % width]);
        nl.pass(vdd, from, to);
    }
}

impl Array {
    /// A fresh netlist holding the two clocks and the pads of `pinout`.
    pub fn new(columns: usize, pinout: Pinout) -> Self {
        let mut nl = Netlist::new();
        let phi = [nl.node("phi0"), nl.node("phi1")];
        for clk in phi {
            nl.input(clk);
        }
        let mut pad = |name: String| {
            let n = nl.node(name);
            nl.input(n);
            n
        };
        let p = (0..pinout.bits).map(|v| pad(format!("pad.p{v}"))).collect();
        let s = (0..pinout.bits).map(|v| pad(format!("pad.s{v}"))).collect();
        let lam = pad("pad.lam".into());
        let x = pinout.wild.then(|| pad("pad.x".into()));
        let r = match pinout.result_bus {
            None => vec![pad("pad.r".into())],
            Some(width) => (0..width).map(|w| pad(format!("pad.r{w}"))).collect(),
        };
        Array {
            nl,
            columns,
            phi,
            p,
            s,
            lam,
            x,
            r,
            r_out: Vec::new(),
            staggered: pinout.staggered,
            bus: pinout.result_bus.is_some(),
        }
    }

    /// Beats from a pattern character to its `λ`/`x` bits: the depth of
    /// the comparator pipeline above the result row.
    fn lag(&self) -> usize {
        if self.staggered {
            self.p.len()
        } else {
            1
        }
    }

    /// Result-row cell `c`'s clock phase and the opposite one: `lag`
    /// beats behind the comparator above it.
    pub fn row_clocks(&self, c: usize) -> (NodeId, NodeId) {
        let lag = self.lag();
        (self.phi[(lag + c) % 2], self.phi[(lag + c + 1) % 2])
    }

    /// Builds the bit-serial comparator grid of Figure 3-4 and returns
    /// the bottom row's `d` outputs, one per column. Cell `(v, c)` is
    /// clocked by phase `(v+c) mod 2`, the two-phase checkerboard; `p`
    /// runs left to right along a row, `s` right to left and `d` down a
    /// column, and rows alternate polarity twins down the `d` chain.
    pub fn comparator_grid(&mut self) -> Vec<NodeId> {
        let mut d = vec![self.nl.vdd(); self.columns]; // row 0 reads d = TRUE
        for v in 0..self.p.len() {
            let mut p = self.p[v];
            let mut s_in = Vec::with_capacity(self.columns);
            let mut s_out = Vec::with_capacity(self.columns);
            for (c, d) in d.iter_mut().enumerate() {
                let s = self.nl.node(format!("w.s{v}.{c}"));
                let clk = self.phi[(v + c) % 2];
                let cell = format!("cmp{v}.{c}");
                let out = build_comparator(&mut self.nl, &cell, clk, p, s, *d, v % 2 == 1);
                (p, *d) = (out.p_out, out.d_out);
                s_in.push(s);
                s_out.push(out.s_out);
            }
            strap_chain(&mut self.nl, &s_in, &s_out, &self.s[v..=v]);
        }
        d
    }

    /// Builds the boolean accumulator row under the comparators' `d`
    /// outputs (`d_inverted` if they arrive inverted) and takes column
    /// 0's result as the output. `λ`/`x` run left to right, `r` right to
    /// left, and columns alternate polarity twins along the row.
    pub fn accumulator_row(&mut self, d: &[NodeId], d_inverted: bool) {
        let mut lam = self.lam;
        let mut x = self.x.expect("a boolean chip has a wild-card pad");
        let mut r_in = Vec::with_capacity(d.len());
        let mut r_out = Vec::with_capacity(d.len());
        for (c, &d) in d.iter().enumerate() {
            let (clk, clk_b) = self.row_clocks(c);
            let r = self.nl.node(format!("w.r.{c}"));
            let cell = format!("acc.{c}");
            let out = build_accumulator(
                &mut self.nl,
                &cell,
                clk,
                clk_b,
                lam,
                x,
                d,
                r,
                c % 2 == 1,
                d_inverted,
            );
            (lam, x) = (out.lambda_out, out.x_out);
            r_in.push(r);
            r_out.push(out.r_out);
        }
        strap_chain(&mut self.nl, &r_in, &r_out, &self.r);
        self.r_out = vec![r_out[0]];
    }

    /// Runs the chip from power-on, with `pattern` recirculating from
    /// the left and `text` streaming in from the right, and returns one
    /// result word per text position (0 for windows not yet complete,
    /// whose slots the host discards). A pattern entry is a pad word and
    /// its wild-card bit; bit `v` of a pad word drives pad row `v`. Each
    /// `(node, level)` in `faults` is stuck at its level for the run.
    ///
    /// # Errors
    ///
    /// [`SimError::Oscillation`] if the netlist does not settle, and
    /// [`SimError::UnknownOutput`] if a complete window's result carries
    /// `X`.
    pub fn drive(
        &self,
        pattern: &[(u64, bool)],
        text: &[u64],
        faults: &[(NodeId, Level)],
    ) -> Result<Vec<u64>, SimError> {
        let plen = pattern.len();
        let n = self.columns as u64;
        let phi_off = (n - 1) % 2;
        let right_flip = phi_off == 1;
        let lag = self.lag() as u64;
        let first_text = phi_off + 2 * plen as u64;
        let first_result = n - 1 + first_text + lag;
        // Item `m` of a stream that starts `offset` beats in arrives on
        // beat `offset + 2m`.
        let item = |t: u64, offset: u64| {
            t.checked_sub(offset)
                .filter(|d| d % 2 == 0)
                .map(|d| (d / 2) as usize)
        };
        let bit = |word: u64, v: usize| (word >> v) & 1 == 1;

        let mut sim = Sim::new(self.nl.clone());
        for clk in self.phi {
            sim.set(clk, false);
        }
        for &pad in &self.r {
            sim.set(pad, right_flip);
        }
        for &(node, level) in faults {
            sim.force(node, level);
        }

        let mut out = vec![0; text.len()];
        // The run ends on the beat that samples the last result.
        let beats = first_result + 2 * text.len() as u64 - 1;
        for t in 0..beats {
            for (v, (&p, &s)) in self.p.iter().zip(&self.s).enumerate() {
                let row = if self.staggered { v as u64 } else { 0 };
                if let Some(j) = item(t, row) {
                    sim.set(p, bit(pattern[j % plen].0, v));
                }
                if let Some(i) = item(t, first_text + row) {
                    let word = text.get(i).copied().unwrap_or(0);
                    sim.set(s, bit(word, v) ^ right_flip);
                }
            }
            if let Some(j) = item(t, lag) {
                sim.set(self.lam, j % plen == plen - 1);
                if let Some(x) = self.x {
                    sim.set(x, pattern[j % plen].1);
                }
            }

            let phase = self.phi[(t % 2) as usize];
            sim.set(phase, true);
            sim.settle()?;
            sim.set(phase, false);
            sim.settle()?;
            sim.end_beat();

            if let Some(i) = item(t, first_result).filter(|&i| i + 1 >= plen && i < text.len()) {
                out[i] = self.read(&sim, i)?;
            }
        }
        Ok(out)
    }

    /// [`drive`](Self::drive) for the character chips: a character
    /// becomes a pad word of its MSB-first symbol bits, and a wild card
    /// drives zeros.
    ///
    /// # Errors
    ///
    /// As [`drive`](Self::drive).
    ///
    /// # Panics
    ///
    /// Panics if the pattern is longer than the array or its alphabet is
    /// wider than the chip's.
    pub fn drive_chars(
        &self,
        pattern: &Pattern,
        text: &[Symbol],
        faults: &[(NodeId, Level)],
    ) -> Result<Vec<u64>, SimError> {
        assert!(
            pattern.len() <= self.columns,
            "pattern of {} chars exceeds {} cells",
            pattern.len(),
            self.columns
        );
        let bits = self.p.len() as u32;
        assert!(
            pattern.alphabet().bits() <= bits,
            "alphabet too wide for this chip"
        );
        let word = |s: Symbol| {
            (0..bits).fold(0, |word, v| word | u64::from(s.bit_msb_first(v, bits)) << v)
        };
        let pattern: Vec<(u64, bool)> = pattern
            .symbols()
            .iter()
            .map(|p| (p.literal().map_or(0, word), p.is_wild()))
            .collect();
        let text: Vec<u64> = text.iter().map(|&s| word(s)).collect();
        self.drive(&pattern, &text, faults)
    }

    /// Result word `i`, read from column 0's inverted outputs.
    fn read(&self, sim: &Sim, i: usize) -> Result<u64, SimError> {
        let mut word = 0;
        for (w, &node) in self.r_out.iter().enumerate() {
            let raw = sim.get(node).to_bool().ok_or_else(|| {
                let node = if self.bus {
                    format!("r_out[{w}] (result {i})")
                } else {
                    format!("r_out (result {i})")
                };
                SimError::UnknownOutput { node }
            })?;
            word |= u64::from(!raw) << w;
        }
        Ok(word)
    }
}
