//! # pm-nmos — switch-level NMOS simulation of the pattern-matching chip
//!
//! Foster & Kung fabricated their matcher in silicon-gate NMOS (§3.2.2,
//! Plates 1–2). We obviously cannot re-fabricate it, so this crate
//! substitutes the next best thing: a switch-level simulator faithful to
//! the circuit techniques the paper describes, plus the actual cell
//! circuits and full-chip netlist, co-simulated against the behavioural
//! model of `pm-systolic`.
//!
//! The simulator captures exactly the phenomena §3.2.2/§3.3.3 discuss:
//!
//! * **Ratioed logic** — depletion-mode pullups fight enhancement-mode
//!   pulldown paths; a conducting path to ground always wins.
//! * **Pass transistors** — a gate at `Vdd` connects source and drain;
//!   at ground it isolates them.
//! * **Dynamic charge storage** — an isolated node holds its last driven
//!   value, but only for a limited number of beats; stop the clock and
//!   the data rots (the ~1 ms limit of §3.3.3, failure-injected in the
//!   tests).
//! * **Two-phase non-overlapping clocking** — adjacent shift-register
//!   stages are gated by opposite phases, so "there is never a closed
//!   path between inverters that are separated by two transistors".
//!
//! Modules:
//!
//! * [`level`] — ternary signal levels (`Low`, `High`, unknown `X`).
//! * [`netlist`] — nodes, transistors, pullups and a gate-level builder
//!   (inverter, NAND, NOR, and series/parallel *complex gates*).
//! * [`sim`] — the relaxation solver with charge storage and decay.
//! * [`shiftreg`] — the dynamic shift register of Figure 3-5.
//! * [`cells`] — the one-bit comparator of Figure 3-6/Plate 1 (both
//!   polarity twins) and the accumulator cell (both twins).
//! * `array` (private) — what every chip below shares: the clocks and
//!   pads, the bit-serial comparator grid, and the one host schedule
//!   (warm-up, parity correction, injection with or without bit
//!   staggering, sampling, stuck-at faults) that drives them all.
//! * [`chip`] — the full prototype chip (Plate 2): a bit-serial
//!   comparator grid over an accumulator row, which matches text
//!   exactly like the behavioural array.
//! * [`charchip`] — the undivided character-level organisation of
//!   Figure 3-3, for comparing the two comparator structures.
//! * [`faults`] — single-stuck-at fault simulation and test-vector
//!   coverage (§4's "how the chip will be tested after fabrication").
//! * [`clockgen`] — an on-chip two-phase non-overlapping clock
//!   generator, with the non-overlap property proven by simulation.
//! * [`countchip`] — the §3.4 counting extension in silicon: the same
//!   comparator grid over W-bit counting cells.
//! * [`corrchip`] — the §3.4 correlator in silicon: difference-square
//!   cells over adder cells ([`arith`]), on the same data flow with
//!   numbers in every stream.
//! * [`timing`] — static timing analysis deriving the clock-phase
//!   budget (and hence the 250 ns/char rate) from the netlist itself.

//! ```
//! use pm_nmos::prelude::*;
//!
//! // A NAND gate at switch level: ratioed pullup vs a 2-chain pulldown.
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! let b = nl.node("b");
//! let out = nl.nand2("nab", a, b);
//! let mut sim = Sim::new(nl);
//! sim.set(a, true);
//! sim.set(b, true);
//! sim.settle().unwrap();
//! assert_eq!(sim.get(out).to_bool(), Some(false));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
mod array;
pub mod cells;
pub mod charchip;
pub mod chip;
pub mod clockgen;
pub mod corrchip;
pub mod countchip;
pub mod error;
pub mod faults;
pub mod level;
pub mod netlist;
pub mod shiftreg;
pub mod sim;
pub mod timing;

#[cfg(test)]
mod netlist_pins;

pub use error::SimError;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::cells::{AccumulatorCell, ComparatorCell};
    pub use crate::chip::PatternChip;
    pub use crate::error::SimError;
    pub use crate::level::Level;
    pub use crate::netlist::{Netlist, NodeId};
    pub use crate::shiftreg::DynamicShiftRegister;
    pub use crate::sim::Sim;
}
