//! Adapter exposing the Foster–Kung array through [`PatternMatcher`].
//!
//! This is the chosen design of §3.3.1, wired into the same trait as
//! every rejected alternative so the cross-check tests and scaling
//! benchmarks treat all architectures uniformly.

use crate::{MatchError, PatternMatcher};
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::symbol::{Pattern, Symbol};

/// The bidirectional systolic array as a [`PatternMatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystolicAlgorithm;

impl PatternMatcher for SystolicAlgorithm {
    fn name(&self) -> &'static str {
        "systolic"
    }

    fn find(&self, text: &[Symbol], pattern: &Pattern) -> Result<Vec<bool>, MatchError> {
        let mut m = SystolicMatcher::new(pattern).expect("constructed patterns are never empty");
        Ok(m.match_symbols(text).bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    #[test]
    fn adapter_agrees_with_spec() {
        let p = Pattern::parse("AXCX").unwrap();
        let t = text_from_letters("ABCAACCABCA").unwrap();
        assert_eq!(SystolicAlgorithm.find(&t, &p).unwrap(), match_spec(&t, &p));
    }
}
