//! # pm-systolic — the Foster–Kung systolic pattern-matching array
//!
//! This crate is the core contribution of the reproduction of
//! M. J. Foster and H. T. Kung, *"Design of Special-Purpose VLSI Chips:
//! Example and Opinions"* (ISCA 1980): a beat-accurate behavioural model of
//! the systolic string pattern-matching array described in Section 3.2 of
//! the paper, together with the generic machinery (cells, segments, beats,
//! drivers) that the rest of the workspace builds on.
//!
//! ## The problem (paper §3.1)
//!
//! Given an endless *text* stream `s0 s1 s2 …` over an alphabet Σ and a
//! fixed *pattern* `p0 p1 … pk` over `Σ ∪ {x}` (where `x` is a wild card
//! that matches anything), produce one result bit per text character:
//!
//! ```text
//! r_i = (s_{i-k} = p0) ∧ (s_{i-k+1} = p1) ∧ … ∧ (s_i = pk)
//! ```
//!
//! ## The algorithm (paper §3.2.1)
//!
//! A linear array of *character cells*. The pattern flows left→right, the
//! text right→left, one cell per beat, each stream's items separated by one
//! empty slot so that every pattern/text pair *meets* in a cell instead of
//! passing between cells. Each cell keeps a running partial result `t`;
//! two control bits ride with the pattern through the accumulators: `λ`
//! (end of pattern) and `x` (wild card). When `λ` arrives the completed
//! result is injected into the result stream, which travels leftward with
//! the text so that `r_i` leaves the array in the same beat-slot as `s_i`.
//! The pattern recirculates with its first character following two beats
//! after its last, so an array of `k+1` cells matches an endless text.
//!
//! ## What lives where
//!
//! * [`symbol`] — alphabets, text symbols and pattern symbols (incl. wild
//!   cards).
//! * [`spec`] — the executable specification: a direct, obviously-correct
//!   implementation of the `r_i` definition that every engine is tested
//!   against.
//! * [`semantics`] — the [`MeetSemantics`](semantics::MeetSemantics) trait
//!   abstracting *what happens when a pattern item meets a text item*;
//!   boolean matching, match counting, correlation and convolution are all
//!   instances (the latter two live in the `pm-correlator` crate).
//! * [`segment`] — the port-level systolic array segment: a run of
//!   character cells exposing its boundary wires, so that several segments
//!   can be cascaded exactly like the chips of Figure 3-7.
//! * [`engine`] — the beat engine and host-side driver that feeds streams
//!   into a chain of segments and collects results.
//! * [`matcher`] — the character-level pattern matcher built from the
//!   engine (paper Figure 3-3).
//! * [`bitserial`] — the bit-pipelined comparator array (paper Figure 3-4)
//!   in which characters are compared one bit per beat, high-order bits
//!   first, and comparison results trickle down a column of one-bit
//!   comparators.
//! * [`batch`] — bit-plane batching: because the per-cell state of the
//!   boolean matcher is one bit, 64 independent text streams pack into
//!   the bit positions of a `u64` and advance together with branch-free
//!   word operations through the unmodified [`Driver`](engine::Driver)
//!   (via the [`LaneBoolean`](batch::LaneBoolean) semantics); also the
//!   [`CompiledPattern`](batch::CompiledPattern) every batch kernel
//!   consumes.
//! * [`superplane`] — the throughput engine over `[u64; W]` planes
//!   (64 lanes at `W = 1`, 256 at `W = 4`, 512 at `W = 8`): one
//!   lane-packed batch kernel with runtime-dispatched AVX2/AVX-512
//!   specialisations, and a beat-accurate
//!   [`SuperplaneDriver`](superplane::SuperplaneDriver) telemetry twin.
//! * [`schedule`] — the closed-form injection/meeting algebra of
//!   §3.2.1, machine-checked against the simulator.
//! * [`trace`] — beat-by-beat choreography recording, used to regenerate
//!   Figure 3-2.
//! * [`telemetry`] — the workspace-wide trace-event taxonomy and the
//!   zero-cost-when-disabled [`TraceSink`](telemetry::TraceSink)
//!   contract the hot paths emit into (`pm-chip`'s metrics layer builds
//!   its counters, histograms and exporters on top).
//! * [`selftimed`] — a Monte-Carlo model of the clocked vs. self-timed
//!   data-flow trade-off discussed in §3.3.2, and [`handshake`] — an
//!   actual event-driven self-timed implementation cross-validating it.
//!
//! ## Quick start
//!
//! ```
//! use pm_systolic::prelude::*;
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! let pattern = Pattern::parse("AXC")?; // X is the wild card
//! let mut m = SystolicMatcher::new(&pattern)?;
//! let hits = m.match_letters("ABCAACCAB")?;
//! // AXC matches ABC (ends at 2), AAC (ends at 5), ACC (ends at 6)
//! assert_eq!(hits.ending_positions(), vec![2, 5, 6]);
//! # Ok(())
//! # }
//! ```

// Deny rather than forbid: the one sanctioned exception is
// `superplane`, which opts back in locally to call its
// `#[target_feature]` kernel specialisations after
// `is_x86_feature_detected!` has proven the features present. Every
// data path in the crate remains safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bitserial;
pub mod engine;
pub mod error;
pub mod handshake;
pub mod matcher;
pub mod resident;
pub mod schedule;
pub mod segment;
pub mod selftimed;
pub mod semantics;
pub mod spec;
pub mod stream;
pub mod superplane;
pub mod symbol;
pub mod telemetry;
pub mod trace;

pub use error::Error;

/// Convenient re-exports of the items most users need.
pub mod prelude {
    pub use crate::batch::{CompiledPattern, PlaneDriver};
    pub use crate::bitserial::BitSerialMatcher;
    pub use crate::engine::{Driver, MatchBits};
    pub use crate::error::Error;
    pub use crate::matcher::SystolicMatcher;
    pub use crate::resident::{LaneHit, ResidentGroup};
    pub use crate::segment::{Segment, SegmentIo};
    pub use crate::semantics::{BooleanMatch, CountMatch, MeetSemantics};
    pub use crate::spec::{count_spec, match_spec};
    pub use crate::stream::MatchStream;
    pub use crate::superplane::{
        simd_level, SimdLevel, SuperMatcher, Superplane, SuperplaneDriver,
    };
    pub use crate::symbol::{Alphabet, PatSym, Pattern, Symbol};
    pub use crate::telemetry::{MemorySink, NullSink, SinkHandle, TraceEvent, TraceSink};
    pub use crate::trace::{TraceRecorder, TraceSnapshot};
}
