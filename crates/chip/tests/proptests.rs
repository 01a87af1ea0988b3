//! Property tests: cascades and multi-pass runs agree with the spec on
//! arbitrary workloads.

use pm_chip::prelude::*;
use pm_systolic::prelude::*;
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = (Vec<Option<u8>>, Vec<u8>)> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None),
    ];
    (
        proptest::collection::vec(pat_sym, 1..=10),
        proptest::collection::vec(0u8..=3, 0..=40),
    )
}

fn build(pat: &[Option<u8>]) -> Pattern {
    let syms: Vec<PatSym> = pat
        .iter()
        .map(|o| match o {
            Some(v) => PatSym::Lit(Symbol::new(*v)),
            None => PatSym::Wild,
        })
        .collect();
    Pattern::new(syms, Alphabet::TWO_BIT).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn multipass_equals_spec((pat, text) in workload(), cells in 1usize..17) {
        let pattern = build(&pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let m = MultipassMatcher::new(&pattern, cells).unwrap();
        let got = m.match_symbols(&symbols);
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }

    #[test]
    fn cascade_equals_spec((pat, text) in workload(), chips in 1usize..4, per in 1usize..5) {
        let pattern = build(&pat);
        prop_assume!(chips * per >= pattern.len());
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut cascade = ChipCascade::new(&pattern, chips, per).unwrap();
        let got = cascade.match_symbols(&symbols);
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §5 harvest invariants: the serpentine chain threads *only*
    /// working cells, never skips more than the bypass budget inside a
    /// row, and accounts for every working cell as chained or stranded.
    #[test]
    fn harvest_accounts_for_every_working_cell(
        rows in 1usize..5,
        cols in 1usize..8,
        defects in proptest::collection::vec(0u8..=1, 0..40),
        max_bypass in 0usize..4,
    ) {
        let map: Vec<Vec<bool>> = (0..rows)
            .map(|r| (0..cols).map(|c| defects.get(r * cols + c).copied().unwrap_or(0) == 1).collect())
            .collect();
        let wafer = Wafer::from_defects(map);
        let harvest = wafer.harvest(max_bypass);

        for &(r, c) in &harvest.chain {
            prop_assert!(!wafer.is_defective(r, c), "chained a dead cell ({r},{c})");
        }
        let mut seen = std::collections::HashSet::new();
        for cell in &harvest.chain {
            prop_assert!(seen.insert(*cell), "cell {cell:?} chained twice");
        }
        prop_assert_eq!(
            harvest.chain.len() + harvest.stranded,
            wafer.working_cells(),
            "every working cell must be chained or stranded"
        );
        // Bypass budget: consecutive chained cells in one row are at
        // most max_bypass+1 columns apart.
        for pair in harvest.chain.windows(2) {
            let ((r1, c1), (r2, c2)) = (pair[0], pair[1]);
            if r1 == r2 {
                prop_assert!(
                    c1.abs_diff(c2) <= max_bypass + 1,
                    "row {r1}: jump {c1}->{c2} exceeds bypass {max_bypass}"
                );
            }
        }
        // More wiring slack never harvests fewer cells.
        let looser = wafer.harvest(max_bypass + 1);
        prop_assert!(looser.chain.len() >= harvest.chain.len());
    }

    /// Remap equivalence: a cascade that loses an arbitrary chip to an
    /// arbitrary stuck-at fault mid-stream still commits exactly the
    /// specification's result stream (via spare remap or, when the
    /// spare pool is too small, the software fallback).
    #[test]
    fn self_healing_stream_equals_spec(
        (pat, text) in workload(),
        chips in 2usize..4,
        per in 2usize..5,
        spares in 0usize..3,
        victim_seed in 0usize..16,
        kind in 0u8..5,
        cut in 0usize..40,
    ) {
        let pattern = build(&pat);
        prop_assume!(chips * per >= pattern.len());
        prop_assume!(!text.is_empty());
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let policy = RecoveryPolicy {
            scrub_interval_chars: 8,
            ..RecoveryPolicy::default()
        };
        let mut board =
            SelfHealingCascade::new(&pattern, chips, per, spares, policy).unwrap();
        let fault = match kind {
            0 => ChipFault::ResultStuck(true),
            1 => ChipFault::ResultStuck(false),
            2 => ChipFault::ResultDead,
            3 => ChipFault::TextStuck(0),
            _ => ChipFault::PatternStuck(3),
        };
        let cut = cut % symbols.len().max(1);
        let victim = victim_seed % (chips + spares);
        board.write_all(&symbols[..cut]).unwrap();
        board.inject_fault(victim, fault);
        board.write_all(&symbols[cut..]).unwrap();
        let got = board.finish().unwrap();
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }
}
