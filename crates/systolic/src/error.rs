//! Error types for the systolic crate.

use std::fmt;

/// Errors produced while building or driving a systolic array.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The pattern was empty; the array needs at least one character cell.
    EmptyPattern,
    /// A symbol fell outside the configured alphabet.
    ///
    /// Holds the offending byte and the alphabet's bit width.
    SymbolOutOfRange {
        /// The raw byte that could not be encoded.
        byte: u8,
        /// The alphabet width in bits.
        bits: u32,
    },
    /// A pattern string contained a character that is neither an alphabet
    /// symbol nor the wild card.
    BadPatternChar(char),
    /// The array has fewer cells than the pattern has characters.
    ArrayTooSmall {
        /// Number of character cells available.
        cells: usize,
        /// Pattern length (k+1 in the paper's notation).
        pattern_len: usize,
    },
    /// The requested alphabet width is unsupported (must be 1..=8 bits).
    BadAlphabetWidth(u32),
    /// A driver was asked to run with zero segments.
    NoSegments,
    /// A segment of a driver's chain has no cells.
    EmptySegment {
        /// Index of the empty segment in the chain.
        segment: usize,
    },
    /// A segment of the array has been condemned by self-test and no
    /// replacement is wired in; the chain cannot carry a stream.
    ///
    /// Produced by the fault-tolerance runtime in `pm-chip` (§5: a
    /// defective circuit must be "replaced by a functioning one" — this
    /// error is what the driver sees when no functioning one remains).
    SegmentFaulted {
        /// Index of the condemned segment (chip) in the chain.
        segment: usize,
    },
    /// A bit-plane batch was offered more lanes than its planes carry:
    /// `W × 64` for a width-`W` superplane batch
    /// ([`crate::superplane::match_lanes_wide`]) or a width-`W`
    /// [`crate::superplane::SuperplaneDriver`], 64 per word
    /// ([`crate::batch::LANES`]).
    /// A driver that was built and then run with a different number
    /// of lanes reports [`Error::LaneCountMismatch`] instead.
    TooManyLanes {
        /// Number of lanes requested.
        lanes: usize,
        /// Lanes the batch actually carries.
        capacity: usize,
    },
    /// A plane driver ([`crate::superplane::SuperplaneDriver`]) was run
    /// with more or fewer texts than the lanes it was built with; it
    /// takes exactly one text per lane.
    LaneCountMismatch {
        /// Number of texts supplied.
        lanes: usize,
        /// Lanes the driver was built with.
        expected: usize,
    },
    /// A plane-driver batch mixed pattern lengths; the shared `λ` bit
    /// of the pattern stream can only mark one end position, so every
    /// lane of a [`crate::superplane::SuperplaneDriver`] must carry a
    /// pattern of the same length.
    RaggedLanePatterns,
    /// A scheduler worker thread panicked mid-batch. Raised by
    /// `pm-chip`'s throughput engine *after* every worker thread has
    /// been joined (no thread is left detached), when no resilience
    /// policy is installed to contain the panic and retry the batch.
    WorkerPanicked {
        /// Index of the worker whose thread panicked.
        worker: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyPattern => write!(f, "pattern must contain at least one character"),
            Error::SymbolOutOfRange { byte, bits } => write!(
                f,
                "symbol byte {byte:#04x} does not fit in a {bits}-bit alphabet"
            ),
            Error::BadPatternChar(c) => {
                write!(f, "pattern character {c:?} is not a symbol or wild card")
            }
            Error::ArrayTooSmall { cells, pattern_len } => write!(
                f,
                "array of {cells} cells cannot hold a pattern of {pattern_len} characters"
            ),
            Error::BadAlphabetWidth(bits) => {
                write!(f, "alphabet width of {bits} bits is not in 1..=8")
            }
            Error::NoSegments => write!(f, "driver requires at least one array segment"),
            Error::EmptySegment { segment } => write!(f, "array segment {segment} has no cells"),
            Error::SegmentFaulted { segment } => write!(
                f,
                "array segment {segment} is condemned and no spare replaces it"
            ),
            Error::TooManyLanes { lanes, capacity } => write!(
                f,
                "{lanes} lanes exceed the {capacity} lanes of one bit-plane batch"
            ),
            Error::LaneCountMismatch { lanes, expected } => write!(
                f,
                "{lanes} texts given to a plane driver built for {expected} lanes"
            ),
            Error::RaggedLanePatterns => write!(
                f,
                "plane-driver lanes must all carry patterns of one length"
            ),
            Error::WorkerPanicked { worker } => write!(
                f,
                "scheduler worker {worker} panicked mid-batch (all workers were joined)"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_nonempty() {
        let errors = [
            Error::EmptyPattern,
            Error::SymbolOutOfRange {
                byte: 0xff,
                bits: 2,
            },
            Error::BadPatternChar('!'),
            Error::ArrayTooSmall {
                cells: 4,
                pattern_len: 9,
            },
            Error::BadAlphabetWidth(0),
            Error::NoSegments,
            Error::EmptySegment { segment: 1 },
            Error::SegmentFaulted { segment: 3 },
            Error::TooManyLanes {
                lanes: 65,
                capacity: 64,
            },
            Error::LaneCountMismatch {
                lanes: 3,
                expected: 5,
            },
            Error::RaggedLanePatterns,
            Error::WorkerPanicked { worker: 2 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            let first = msg.chars().next().unwrap();
            assert!(first.is_lowercase() || !first.is_alphabetic());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
