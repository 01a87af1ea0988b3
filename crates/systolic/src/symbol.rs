//! Alphabets, text symbols and pattern symbols.
//!
//! The paper's prototype chip handled "patterns containing up to eight
//! two-bit characters", i.e. a four-symbol alphabet. This module keeps the
//! alphabet width explicit so the bit-serial comparator array
//! ([`crate::bitserial`]) and the NMOS substrate know how many one-bit
//! comparator rows to build.

use crate::error::Error;
use std::fmt;

/// An alphabet of `2^bits` symbols, `1 ≤ bits ≤ 8`.
///
/// The fabricated prototype used [`Alphabet::TWO_BIT`]; ASCII text is
/// conveniently handled with [`Alphabet::EIGHT_BIT`].
///
/// ```
/// use pm_systolic::symbol::Alphabet;
/// let a = Alphabet::new(2).unwrap();
/// assert_eq!(a.size(), 4);
/// assert!(a.contains(3));
/// assert!(!a.contains(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Alphabet {
    bits: u32,
}

impl Alphabet {
    /// The two-bit alphabet of the fabricated prototype chip (Plate 2).
    pub const TWO_BIT: Alphabet = Alphabet { bits: 2 };
    /// An eight-bit alphabet, convenient for byte/ASCII text.
    pub const EIGHT_BIT: Alphabet = Alphabet { bits: 8 };

    /// Creates an alphabet of `2^bits` symbols.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadAlphabetWidth`] unless `1 ≤ bits ≤ 8`.
    pub fn new(bits: u32) -> Result<Self, Error> {
        if (1..=8).contains(&bits) {
            Ok(Alphabet { bits })
        } else {
            Err(Error::BadAlphabetWidth(bits))
        }
    }

    /// Width of one character in bits.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Number of distinct symbols (`2^bits`).
    pub fn size(self) -> usize {
        1usize << self.bits
    }

    /// Whether `byte` encodes a symbol of this alphabet.
    pub fn contains(self, byte: u8) -> bool {
        u32::from(byte) < (1u32 << self.bits)
    }

    /// Wraps `byte` into a checked [`Symbol`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::SymbolOutOfRange`] if `byte` does not fit.
    pub fn symbol(self, byte: u8) -> Result<Symbol, Error> {
        if self.contains(byte) {
            Ok(Symbol(byte))
        } else {
            Err(Error::SymbolOutOfRange {
                byte,
                bits: self.bits,
            })
        }
    }

    /// Iterates over every symbol of the alphabet.
    ///
    /// ```
    /// use pm_systolic::symbol::Alphabet;
    /// let syms: Vec<u8> = Alphabet::TWO_BIT.symbols().map(|s| s.value()).collect();
    /// assert_eq!(syms, vec![0, 1, 2, 3]);
    /// ```
    pub fn symbols(self) -> impl Iterator<Item = Symbol> {
        (0..self.size() as u16).map(|v| Symbol(v as u8))
    }
}

impl Default for Alphabet {
    /// Defaults to the prototype chip's two-bit alphabet.
    fn default() -> Self {
        Alphabet::TWO_BIT
    }
}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Σ({} bits, {} symbols)", self.bits, self.size())
    }
}

/// One character of the text stream (an element of Σ).
///
/// A plain newtype over `u8`; validity with respect to a particular
/// [`Alphabet`] is checked at the stream boundary, not on every beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)]
pub struct Symbol(pub(crate) u8);

impl Symbol {
    /// Creates a symbol from its raw encoding without range checking.
    ///
    /// Prefer [`Alphabet::symbol`] when the alphabet is at hand.
    pub fn new(value: u8) -> Self {
        Symbol(value)
    }

    /// Views raw bytes as symbols without copying; each byte is read as
    /// [`Symbol::new`] would read it.
    #[allow(unsafe_code)]
    pub fn slice_from_bytes(bytes: &[u8]) -> &[Symbol] {
        // SAFETY: `Symbol` is `#[repr(transparent)]` over `u8`, so it has
        // the size, alignment and validity of `u8` (every byte is a valid
        // `Symbol`); the pointer and length come from `bytes`, and the
        // result borrows it for the same lifetime.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<Symbol>(), bytes.len()) }
    }

    /// The raw bit encoding of the symbol.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Bit `v` of the symbol counting from the most significant bit of a
    /// `bits`-wide character (bit 0 = MSB), as fed to the bit-serial
    /// comparator rows of Figure 3-4.
    pub fn bit_msb_first(self, v: u32, bits: u32) -> bool {
        debug_assert!(v < bits);
        (self.0 >> (bits - 1 - v)) & 1 == 1
    }
}

impl From<u8> for Symbol {
    fn from(value: u8) -> Self {
        Symbol(value)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print small symbols as A, B, C, … like the paper's figures.
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0) as char)
        } else {
            write!(f, "#{:02x}", self.0)
        }
    }
}

/// One character of the pattern stream: a symbol of Σ or the wild card `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatSym {
    /// A literal symbol that must match exactly.
    Lit(Symbol),
    /// The wild card character `x`, which matches any symbol.
    Wild,
}

impl PatSym {
    /// Whether this pattern character matches the text symbol `s`.
    ///
    /// ```
    /// use pm_systolic::symbol::{PatSym, Symbol};
    /// assert!(PatSym::Wild.matches(Symbol::new(3)));
    /// assert!(PatSym::Lit(Symbol::new(3)).matches(Symbol::new(3)));
    /// assert!(!PatSym::Lit(Symbol::new(2)).matches(Symbol::new(3)));
    /// ```
    pub fn matches(self, s: Symbol) -> bool {
        match self {
            PatSym::Wild => true,
            PatSym::Lit(p) => p == s,
        }
    }

    /// Whether this is the wild card (the accumulator's `x` control bit).
    pub fn is_wild(self) -> bool {
        matches!(self, PatSym::Wild)
    }

    /// The literal symbol, if any.
    pub fn literal(self) -> Option<Symbol> {
        match self {
            PatSym::Lit(s) => Some(s),
            PatSym::Wild => None,
        }
    }
}

impl From<Symbol> for PatSym {
    fn from(s: Symbol) -> Self {
        PatSym::Lit(s)
    }
}

impl fmt::Display for PatSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatSym::Lit(s) => write!(f, "{s}"),
            PatSym::Wild => write!(f, "X"),
        }
    }
}

/// A complete pattern `p0 p1 … pk` with its alphabet.
///
/// Patterns are immutable once built; the systolic driver recirculates
/// them endlessly through the array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pattern {
    symbols: Vec<PatSym>,
    alphabet: Alphabet,
}

impl Pattern {
    /// Builds a pattern from pattern symbols.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyPattern`] if `symbols` is empty.
    /// * [`Error::SymbolOutOfRange`] if a literal falls outside `alphabet`.
    pub fn new(symbols: Vec<PatSym>, alphabet: Alphabet) -> Result<Self, Error> {
        if symbols.is_empty() {
            return Err(Error::EmptyPattern);
        }
        for sym in &symbols {
            if let PatSym::Lit(s) = sym {
                if !alphabet.contains(s.0) {
                    return Err(Error::SymbolOutOfRange {
                        byte: s.0,
                        bits: alphabet.bits(),
                    });
                }
            }
        }
        Ok(Pattern { symbols, alphabet })
    }

    /// Parses a pattern in the paper's figure notation: letters `A`, `B`,
    /// `C`, … are symbols 0, 1, 2, … and `X` (or `x`) is the wild card.
    /// The alphabet defaults to the smallest power-of-two width that holds
    /// every literal (at least 2 bits, matching the prototype chip).
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyPattern`] for an empty string.
    /// * [`Error::BadPatternChar`] for characters outside `A..=Z`/`x`/`X`.
    ///
    /// ```
    /// use pm_systolic::symbol::Pattern;
    /// let p = Pattern::parse("AXC").unwrap();
    /// assert_eq!(p.len(), 3);
    /// assert!(p.symbols()[1].is_wild());
    /// ```
    pub fn parse(text: &str) -> Result<Self, Error> {
        let mut symbols = Vec::with_capacity(text.len());
        let mut max = 0u8;
        for c in text.chars() {
            match c {
                'x' | 'X' => symbols.push(PatSym::Wild),
                'A'..='W' => {
                    let v = c as u8 - b'A';
                    max = max.max(v);
                    symbols.push(PatSym::Lit(Symbol(v)));
                }
                other => return Err(Error::BadPatternChar(other)),
            }
        }
        let alphabet = Alphabet::new(needed_bits(max).max(2))?;
        Pattern::new(symbols, alphabet)
    }

    /// Parses a pattern over raw bytes where `wild` marks wild cards.
    ///
    /// # Errors
    ///
    /// Same as [`Pattern::new`].
    pub fn from_bytes(bytes: &[u8], wild: Option<u8>, alphabet: Alphabet) -> Result<Self, Error> {
        let symbols = bytes
            .iter()
            .map(|&b| {
                if Some(b) == wild {
                    PatSym::Wild
                } else {
                    PatSym::Lit(Symbol(b))
                }
            })
            .collect();
        Pattern::new(symbols, alphabet)
    }

    /// The pattern symbols `p0 … pk`.
    pub fn symbols(&self) -> &[PatSym] {
        &self.symbols
    }

    /// Pattern length `k + 1`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether the pattern is empty (never true for a constructed pattern).
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The paper's `k`: index of the last pattern character.
    pub fn k(&self) -> usize {
        self.symbols.len() - 1
    }

    /// The alphabet the pattern is drawn from.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// Whether any character is the wild card.
    pub fn has_wildcards(&self) -> bool {
        self.symbols.iter().any(|s| s.is_wild())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Smallest bit width that can encode `max` (at least 1, at most 8).
fn needed_bits(max: u8) -> u32 {
    (32 - u32::from(max).leading_zeros()).clamp(1, 8)
}

/// Converts a byte string into text symbols, checking the alphabet.
///
/// # Errors
///
/// Returns [`Error::SymbolOutOfRange`] on the first out-of-range byte.
pub fn text_from_bytes(bytes: &[u8], alphabet: Alphabet) -> Result<Vec<Symbol>, Error> {
    bytes.iter().map(|&b| alphabet.symbol(b)).collect()
}

/// Parses figure-notation text (`A`, `B`, `C`, …) into symbols.
///
/// # Errors
///
/// Returns [`Error::BadPatternChar`] for anything outside `A..=W`.
pub fn text_from_letters(text: &str) -> Result<Vec<Symbol>, Error> {
    text.chars()
        .map(|c| match c {
            'A'..='W' => Ok(Symbol(c as u8 - b'A')),
            other => Err(Error::BadPatternChar(other)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_bounds() {
        assert!(Alphabet::new(0).is_err());
        assert!(Alphabet::new(9).is_err());
        for bits in 1..=8 {
            let a = Alphabet::new(bits).unwrap();
            assert_eq!(a.size(), 1 << bits);
            assert_eq!(a.symbols().count(), a.size());
        }
    }

    #[test]
    fn alphabet_symbol_range_check() {
        let a = Alphabet::TWO_BIT;
        assert!(a.symbol(3).is_ok());
        assert_eq!(
            a.symbol(4),
            Err(Error::SymbolOutOfRange { byte: 4, bits: 2 })
        );
    }

    #[test]
    fn slice_from_bytes_matches_symbol_new_on_every_byte() {
        let bytes: Vec<u8> = (0..=255).collect();
        let symbols = Symbol::slice_from_bytes(&bytes);
        assert_eq!(symbols.len(), bytes.len());
        for (&b, &s) in bytes.iter().zip(symbols) {
            assert_eq!(s, Symbol::new(b));
        }
    }

    #[test]
    fn symbol_bits_msb_first() {
        let s = Symbol::new(0b10); // two-bit char "C"
        assert!(s.bit_msb_first(0, 2));
        assert!(!s.bit_msb_first(1, 2));
        let t = Symbol::new(0b0110_1001);
        let bits: Vec<bool> = (0..8).map(|v| t.bit_msb_first(v, 8)).collect();
        assert_eq!(
            bits,
            vec![false, true, true, false, true, false, false, true]
        );
    }

    #[test]
    fn pattern_parse_figure_notation() {
        let p = Pattern::parse("AXC").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.k(), 2);
        assert_eq!(p.symbols()[0], PatSym::Lit(Symbol(0)));
        assert_eq!(p.symbols()[1], PatSym::Wild);
        assert_eq!(p.symbols()[2], PatSym::Lit(Symbol(2)));
        assert!(p.has_wildcards());
        assert_eq!(p.to_string(), "AXC");
    }

    #[test]
    fn pattern_parse_rejects_garbage() {
        assert_eq!(Pattern::parse("A!C"), Err(Error::BadPatternChar('!')));
        assert_eq!(Pattern::parse(""), Err(Error::EmptyPattern));
    }

    #[test]
    fn pattern_alphabet_wide_enough() {
        // 'H' = symbol 7 needs 3 bits.
        let p = Pattern::parse("AH").unwrap();
        assert!(p.alphabet().bits() >= 3);
        assert!(p.alphabet().contains(7));
    }

    #[test]
    fn pattern_literal_range_checked() {
        let err = Pattern::from_bytes(&[0, 9], None, Alphabet::TWO_BIT);
        assert_eq!(err, Err(Error::SymbolOutOfRange { byte: 9, bits: 2 }));
    }

    #[test]
    fn wildcard_matches_everything() {
        for v in 0..=255u8 {
            assert!(PatSym::Wild.matches(Symbol(v)));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Symbol::new(0).to_string(), "A");
        assert_eq!(Symbol::new(2).to_string(), "C");
        assert_eq!(Symbol::new(200).to_string(), "#c8");
        assert_eq!(PatSym::Wild.to_string(), "X");
        assert_eq!(Alphabet::TWO_BIT.to_string(), "Σ(2 bits, 4 symbols)");
    }

    #[test]
    fn text_helpers() {
        let t = text_from_letters("ABC").unwrap();
        assert_eq!(t, vec![Symbol(0), Symbol(1), Symbol(2)]);
        assert!(text_from_letters("A1").is_err());
        let t = text_from_bytes(&[0, 1, 3], Alphabet::TWO_BIT).unwrap();
        assert_eq!(t.len(), 3);
        assert!(text_from_bytes(&[4], Alphabet::TWO_BIT).is_err());
    }
}
