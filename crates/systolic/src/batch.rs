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
//! [`CompiledPattern`] lives here: a pattern compiled once to broadcast
//! control-bit planes. It is what the `pm-chip` pattern cache stores
//! and what every batch kernel consumes.
//!
//! The engines that consume it are in [`crate::superplane`], which
//! widens the plane from one `u64` to `[u64; W]`:
//!
//! * [`match_lanes_wide`](crate::superplane::match_lanes_wide) keeps
//!   only the cell algebra — the accumulator recurrence
//!   `t ← t ∧ (x ∨ d)` evaluated as plane arithmetic — and runs one
//!   lane-packed batch of `W × 64` lanes, where every lane may carry a
//!   different pattern of a different length;
//!   [`SuperMatcher<1>`](crate::superplane::SuperMatcher) is its
//!   64-lane, one-pattern form.
//! * [`SuperplaneDriver`](crate::superplane::SuperplaneDriver) runs the
//!   planes through the **existing** systolic machinery: the unmodified
//!   [`Driver`](crate::engine::Driver)/[`Segment`](crate::segment::Segment)
//!   choreography (opposing streams, recirculation, `λ` emission)
//!   advances every lane per beat. At `W = 1` it is the beat-accurate
//!   64-lane array, golden-tested against the scalar engines.
//!
//! All of them are bit-identical to
//! [`match_spec`](crate::spec::match_spec) on every lane
//! (property-tested in `tests/proptests.rs`).
//!
//! ```
//! use pm_systolic::superplane::SuperplaneDriver;
//! use pm_systolic::symbol::{Pattern, text_from_letters};
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! // Two lanes, two patterns of one length, one beat-accurate array.
//! let pats = [Pattern::parse("AXC")?, Pattern::parse("CCA")?];
//! let mut d = SuperplaneDriver::<1>::new(&pats)?;
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

use crate::symbol::{PatSym, Pattern};

/// Number of independent streams packed into one word of planes — one
/// word's worth, not the engine maximum (see [`crate::superplane`] for
/// the `W × 64`-lane generalisation).
pub const LANES: usize = 64;

/// Maximum alphabet width in bits (mirrors [`crate::symbol::Alphabet`]).
const MAX_BITS: usize = crate::superplane::MAX_BITS;

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
