//! E7: the transistor-level chip and the behavioural models agree on
//! randomised workloads (kept small — every beat is a full switch-level
//! relaxation of the netlist).

use pm_nmos::prelude::*;
use pm_systolic::bitserial::BitSerialMatcher;
use pm_systolic::prelude::*;
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = (u32, Vec<Option<u8>>, Vec<u8>)> {
    (1u32..=2).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            4 => (0..=max).prop_map(Some),
            1 => Just(None),
        ];
        (
            Just(bits),
            proptest::collection::vec(pat_sym, 1..=5),
            proptest::collection::vec(0..=max, 0..=10),
        )
    })
}

/// Unused cells to the right of the pattern: the host schedule must not
/// depend on the pattern filling the array.
fn spare() -> impl Strategy<Value = usize> {
    0usize..=3
}

/// A reference and a signal of 3-bit samples for a 1–3 cell correlator.
fn correlation_workload() -> impl Strategy<Value = (usize, Vec<i64>, Vec<i64>)> {
    (1usize..=3).prop_flat_map(|cells| {
        (
            Just(cells),
            proptest::collection::vec(-4i64..=3, 1..=cells),
            proptest::collection::vec(-4i64..=3, 0..=8),
        )
    })
}

fn build(bits: u32, pat: &[Option<u8>]) -> Pattern {
    let alphabet = Alphabet::new(bits).unwrap();
    let syms: Vec<PatSym> = pat
        .iter()
        .map(|o| match o {
            Some(v) => PatSym::Lit(Symbol::new(*v)),
            None => PatSym::Wild,
        })
        .collect();
    Pattern::new(syms, alphabet).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn silicon_equals_spec_and_behavioural((bits, pat, text) in workload(), spare in spare()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let chip = PatternChip::new(pattern.len() + spare, bits);
        let silicon = chip.match_pattern(&pattern, &symbols).unwrap();
        prop_assert_eq!(&silicon, &match_spec(&symbols, &pattern));
        let behavioural = BitSerialMatcher::new(&pattern).unwrap();
        let soft = behavioural.match_symbols(&symbols);
        prop_assert_eq!(silicon.as_slice(), soft.bits());
    }

    #[test]
    fn char_level_silicon_equals_spec((bits, pat, text) in workload(), spare in spare()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let chip = pm_nmos::charchip::CharChip::new(pattern.len() + spare, bits);
        let silicon = chip.match_pattern(&pattern, &symbols).unwrap();
        prop_assert_eq!(&silicon, &match_spec(&symbols, &pattern));
    }

    #[test]
    fn counting_silicon_equals_count_spec((bits, pat, text) in workload(), spare in spare()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        // Width large enough to never wrap (patterns here are ≤ 5).
        let chip = pm_nmos::countchip::CountChip::new(pattern.len() + spare, bits, 3);
        let silicon = chip.count(&pattern, &symbols).unwrap();
        prop_assert_eq!(&silicon, &pm_systolic::spec::count_spec(&symbols, &pattern));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn correlator_silicon_equals_correlation_spec(
        (cells, reference, signal) in correlation_workload()
    ) {
        // 3-bit samples differ by at most 7, so three squares fit the
        // 8-bit accumulator.
        let chip = pm_nmos::corrchip::CorrChip::new(cells, 3, 8);
        let silicon = chip.correlate(&reference, &signal).unwrap();
        prop_assert_eq!(silicon, pm_systolic::spec::correlation_spec(&signal, &reference));
    }
}

#[test]
fn prototype_device_budget() {
    // The 1979 prototype fit in a multi-project-chip slot; our netlist
    // for the same 8-cell, 2-bit configuration should be of the same
    // order (hundreds of devices, not thousands).
    let chip = PatternChip::new(8, 2);
    let devices = chip.device_count();
    assert!(
        (200..2000).contains(&devices),
        "8x2 chip uses {devices} devices"
    );
}
