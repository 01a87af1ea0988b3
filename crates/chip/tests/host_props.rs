//! Property tests for the host-bus peripheral and multi-pass system:
//! driver-visible behaviour equals the specification for arbitrary
//! streams, chunkings, card sizes and both bus backends.

use pm_chip::host::{Backend, HostBus, MatchEvent};
use pm_chip::multipass::MultipassMatcher;
use pm_chip::recovery::RecoveryPolicy;
use pm_systolic::prelude::*;
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = (Vec<Option<u8>>, Vec<u8>)> {
    let pat_sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None),
    ];
    (
        proptest::collection::vec(pat_sym, 1..=6),
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

/// The two backends a host bus drives.
#[derive(Debug, Clone, Copy)]
enum Card {
    /// A bare 8-cell array.
    Bare,
    /// A fault-free self-healing board: 3 chips × 2 cells + 1 spare.
    Board,
}

fn card() -> impl Strategy<Value = Card> {
    prop_oneof![Just(Card::Bare), Just(Card::Board)]
}

/// Loads each `(pattern, text)` in turn on a fresh bus of `card`,
/// writing the text `chunk` bytes at a time and flushing, and returns
/// the events queued after the last flush. A board delivers at scrub
/// time, so the events are read only after the flush.
fn stream(card: Card, streams: &[(&Pattern, &[u8])], chunk: usize) -> Vec<MatchEvent> {
    fn run<B: Backend>(
        mut bus: HostBus<B>,
        streams: &[(&Pattern, &[u8])],
        chunk: usize,
    ) -> Vec<MatchEvent>
    where
        B::Error: std::fmt::Debug,
    {
        for &(pattern, text) in streams {
            bus.load_pattern(pattern).unwrap();
            // Stream in arbitrary chunk sizes — the device must not care.
            for piece in text.chunks(chunk) {
                bus.write(piece).unwrap();
            }
            bus.flush().unwrap();
        }
        std::iter::from_fn(|| bus.read_event()).collect()
    }
    match card {
        Card::Bare => run(HostBus::new(8), streams, chunk),
        Card::Board => run(
            HostBus::resilient(3, 2, 1, RecoveryPolicy::default()),
            streams,
            chunk,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn host_events_equal_spec_under_any_chunking(
        (pat, text) in workload(),
        chunk in 1usize..7,
        card in card(),
    ) {
        let pattern = build(&pat);
        let mut ends = Vec::new();
        for ev in stream(card, &[(&pattern, &text)], chunk) {
            prop_assert_eq!(ev.end - ev.start, pattern.k() as u64);
            ends.push(ev.end as usize);
        }
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let spec: Vec<usize> = match_spec(&symbols, &pattern)
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(ends, spec);
    }

    #[test]
    fn host_reload_isolates_streams(
        (pat_a, text_a) in workload(),
        (pat_b, text_b) in workload(),
        card in card(),
    ) {
        let pa = build(&pat_a);
        let pb = build(&pat_b);
        // First stream, then a reload, then a second stream: the second
        // run's events must be exactly a fresh device's.
        let events = stream(card, &[(&pa, &text_a), (&pb, &text_b)], usize::MAX);
        let got: Vec<usize> = events.iter().map(|ev| ev.end as usize).collect();
        let symbols: Vec<Symbol> = text_b.iter().map(|&b| Symbol::new(b)).collect();
        let spec: Vec<usize> = match_spec(&symbols, &pb)
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, spec);
    }

    #[test]
    fn multipass_segmenting_never_changes_results(
        (pat, text) in workload(),
        cells_a in 1usize..4,
        cells_b in 4usize..9,
    ) {
        let pattern = build(&pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let small = MultipassMatcher::new(&pattern, cells_a).unwrap().match_symbols(&symbols);
        let large = MultipassMatcher::new(&pattern, cells_b).unwrap().match_symbols(&symbols);
        prop_assert_eq!(small.bits(), large.bits());
        let spec = match_spec(&symbols, &pattern);
        prop_assert_eq!(small.bits(), spec.as_slice());
    }
}
