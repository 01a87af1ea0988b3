//! Multi-pass matching of patterns longer than the array (paper §3.4).
//!
//! "If the pattern to be matched is longer than the capacity of the
//! available pattern matching system, the pattern can be run through
//! the system several times to match it against the entire string. If
//! the system contains a total of n character cells, each run will
//! match the complete pattern against n substrings. To cover all
//! substrings, all we need do is delay the string by n characters on
//! succeeding runs."
//!
//! In a single pass the pattern does **not** recirculate: it streams
//! through once on the engine's once-through port
//! ([`pm_systolic::engine::once_through_port`]), whose delay puts the
//! window ending at (run-relative) position `i` in cell `i−k`. Exactly
//! the `n` windows ending at positions `k … k+n−1` fit in the array;
//! the next pass advances the text window by `n`. The delay and the
//! drain live in the engine; this module only slices the text.
//!
//! # Example
//!
//! A four-character pattern forced through a three-cell array: more
//! than one pass over the text, same answer as the specification.
//!
//! ```
//! use pm_chip::multipass::MultipassMatcher;
//! use pm_systolic::prelude::*;
//! use pm_systolic::symbol::text_from_letters;
//!
//! # fn main() -> Result<(), Error> {
//! let pattern = Pattern::parse("AXCA")?;
//! let text = text_from_letters("ABCAACCAABCA")?;
//! let m = MultipassMatcher::new(&pattern, 3)?;
//! assert!(m.passes_needed(text.len()) > 1);
//! assert_eq!(m.match_symbols(&text).bits(), match_spec(&text, &pattern));
//! # Ok(())
//! # }
//! ```

use pm_systolic::engine::{
    check_chain, clock, once_through_drain, once_through_port, text_slot, MatchBits,
};
use pm_systolic::error::Error;
use pm_systolic::segment::{Segment, TxtItem};
use pm_systolic::semantics::BooleanMatch;
use pm_systolic::symbol::{Pattern, Symbol};

/// A matcher whose pattern may exceed the array size, at the price of
/// one pass over the text per `cells`-sized block of result positions.
#[derive(Debug, Clone)]
pub struct MultipassMatcher {
    pattern: Pattern,
    cells: usize,
}

impl MultipassMatcher {
    /// Builds a multi-pass matcher over an array of `cells` cells.
    ///
    /// # Errors
    ///
    /// As [`check_chain`] for a one-chip chain, except that the array
    /// may be smaller than the pattern — that is the point.
    pub fn new(pattern: &Pattern, cells: usize) -> Result<Self, Error> {
        // A zero-cell array is no chip at all.
        let chips: &[usize] = if cells == 0 { &[] } else { &[cells] };
        match check_chain(pattern.len(), chips) {
            Ok(_) | Err(Error::ArrayTooSmall { .. }) => Ok(MultipassMatcher {
                pattern: pattern.clone(),
                cells,
            }),
            Err(e) => Err(e),
        }
    }

    /// Array size.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of passes needed over a text of `text_len` characters:
    /// one per `cells` result positions.
    pub fn passes_needed(&self, text_len: usize) -> usize {
        let k = self.pattern.k();
        if text_len <= k {
            0
        } else {
            (text_len - k).div_ceil(self.cells)
        }
    }

    /// Matches the text, running as many passes as needed.
    pub fn match_symbols(&self, text: &[Symbol]) -> MatchBits {
        let k = self.pattern.k();
        let n = self.cells;
        let mut out = vec![false; text.len()];
        let mut chip = Segment::new(BooleanMatch, n);
        let mut base = 0;
        while base + k < text.len() {
            // A pass produces windows ending at relative k..k+n-1; it
            // needs at most k+n characters of text.
            let hi = (base + k + n).min(text.len());
            self.single_pass(&mut chip, &text[base..hi], &mut out[base..hi]);
            base += n;
        }
        MatchBits::new(out, k)
    }

    /// Resets `chip` and runs one once-through pass over `text`,
    /// writing every complete window's result into `out`, which is
    /// indexed like `text`.
    fn single_pass(&self, chip: &mut Segment<BooleanMatch>, text: &[Symbol], out: &mut [bool]) {
        let n = self.cells;
        let k = self.pattern.k();
        let psyms = self.pattern.symbols();
        chip.reset();
        for t in 0..2 * text.len() as u64 + once_through_drain(n) {
            let text_in = text_slot(n, t).and_then(|i| {
                let payload = *text.get(i as usize)?;
                Some(TxtItem { payload, seq: i })
            });
            let mut io = [chip.outputs()];
            let exit = clock(t, once_through_port(psyms, n, t), &mut io, text_in);
            let [input] = io;
            chip.step(input);
            if let Some(r) = exit.result.filter(|r| r.seq as usize >= k) {
                out[r.seq as usize] = r.value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn check(pattern: &str, text: &str, cells: usize) {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let m = MultipassMatcher::new(&p, cells).unwrap();
        assert_eq!(
            m.match_symbols(&t).bits(),
            match_spec(&t, &p),
            "pattern={pattern} text={text} cells={cells}"
        );
    }

    #[test]
    fn pattern_three_times_the_array() {
        // A 9-char pattern on a 3-cell array: three passes per block.
        check("ABCABDABA", &"ABCABDABA".repeat(3), 3);
    }

    #[test]
    fn pattern_longer_than_array_with_wildcards() {
        check("AXCAXC", "ABCAACAACAACABC", 2);
    }

    #[test]
    fn pattern_fits_in_one_cellful() {
        // Degenerate case: the array is big enough; one pass per block
        // still gives the right answer.
        check("AB", "ABABAB", 8);
    }

    #[test]
    fn single_cell_array() {
        check("ABA", "ABABABA", 1);
    }

    #[test]
    fn passes_needed_accounting() {
        let p = Pattern::parse(&"AB".repeat(8)).unwrap(); // 16 chars
        let m = MultipassMatcher::new(&p, 4).unwrap();
        // 100-char text: 85 complete windows, 4 per pass → 22 passes.
        assert_eq!(m.passes_needed(100), 22);
        assert_eq!(m.passes_needed(16), 1);
        assert_eq!(m.passes_needed(15), 0);
    }

    #[test]
    fn rejects_a_zero_cell_array() {
        let p = Pattern::parse("ABC").unwrap();
        assert!(matches!(
            MultipassMatcher::new(&p, 0),
            Err(Error::NoSegments)
        ));
    }

    #[test]
    fn empty_and_short_texts() {
        let p = Pattern::parse("ABC").unwrap();
        let m = MultipassMatcher::new(&p, 2).unwrap();
        assert_eq!(m.match_symbols(&[]).bits(), &[] as &[bool]);
        let t = text_from_letters("AB").unwrap();
        assert_eq!(m.match_symbols(&t).bits(), &[false, false]);
    }
}
