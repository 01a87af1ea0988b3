//! Property-based tests: every systolic engine agrees with the
//! executable specification on arbitrary patterns and texts.

use pm_systolic::prelude::*;
use proptest::prelude::*;

/// Strategy: an alphabet width, a pattern over it (with wild cards), and
/// a text over it.
fn workload() -> impl Strategy<Value = (u32, Vec<Option<u8>>, Vec<u8>)> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            3 => (0..=max).prop_map(Some),
            1 => Just(None), // wild card
        ];
        (
            Just(bits),
            proptest::collection::vec(pat_sym, 1..=9),
            proptest::collection::vec(0..=max, 0..=40),
        )
    })
}

/// Strategy: a shared pattern plus up to 70 independent lane texts —
/// deliberately crossing the 64-lane word boundary so the ragged
/// `N % 64 ≠ 0` chunking path is exercised.
fn lane_workload() -> impl Strategy<Value = (u32, Vec<Option<u8>>, Vec<Vec<u8>>)> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            3 => (0..=max).prop_map(Some),
            1 => Just(None), // wild card
        ];
        (
            Just(bits),
            proptest::collection::vec(pat_sym, 1..=9),
            proptest::collection::vec(proptest::collection::vec(0..=max, 0..=24), 1..=70),
        )
    })
}

/// An alphabet width plus per-lane (pattern, text) pairs.
type LaneJobs = (u32, Vec<(Vec<Option<u8>>, Vec<u8>)>);

/// Strategy: per-lane (pattern, text) pairs with independent pattern
/// lengths, for the mixed-lane plane merger.
fn mixed_lane_workload() -> impl Strategy<Value = LaneJobs> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            3 => (0..=max).prop_map(Some),
            1 => Just(None), // wild card
        ];
        (
            Just(bits),
            proptest::collection::vec(
                (
                    proptest::collection::vec(pat_sym, 1..=9),
                    proptest::collection::vec(0..=max, 0..=24),
                ),
                1..=64,
            ),
        )
    })
}

/// Strategy: equal-length per-lane patterns (the beat-accurate
/// [`SuperplaneDriver`] shares one λ position across lanes) and texts.
fn plane_workload() -> impl Strategy<Value = LaneJobs> {
    (1u32..=4, 1usize..=6).prop_flat_map(|(bits, len)| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            3 => (0..=max).prop_map(Some),
            1 => Just(None), // wild card
        ];
        (
            Just(bits),
            proptest::collection::vec(
                (
                    proptest::collection::vec(pat_sym, len),
                    proptest::collection::vec(0..=max, 0..=20),
                ),
                1..=64,
            ),
        )
    })
}

/// Strategy: a wildcard-heavy pattern (wild cards outnumber literals
/// on average) and up to 140 lane texts, so the superplane engines see
/// both the `N % (W·64) ≠ 0` ragged-tail path and patterns whose wild
/// planes dominate the equality fold.
fn wide_lane_workload() -> impl Strategy<Value = (u32, Vec<Option<u8>>, Vec<Vec<u8>>)> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            1 => (0..=max).prop_map(Some),
            2 => Just(None), // mostly wild cards
        ];
        (
            Just(bits),
            proptest::collection::vec(pat_sym, 1..=9),
            proptest::collection::vec(proptest::collection::vec(0..=max, 0..=24), 1..=140),
        )
    })
}

/// How one segment of a run-merge batch shares its compiled pattern.
#[derive(Debug, Clone, Copy)]
enum Share {
    /// Every lane borrows one compilation: a single run.
    Run,
    /// Every lane gets its own, value-equal compilation: one run each.
    ValueEqual,
}

/// A run-merge batch: an alphabet width; `lead` single lanes (one-lane
/// runs) of one pattern, then a run of `span` lanes of another, placed
/// so that it often straddles a 64-lane word boundary (lanes 60..70,
/// say); then more segments, some of a single lane; and a pool of
/// ragged texts, cycled over the lanes, that mixes in out-of-alphabet
/// symbols.
type RunJobs = (
    u32,
    (Vec<Option<u8>>, usize),
    (Vec<Option<u8>>, usize),
    Vec<(Share, Vec<Option<u8>>, usize)>,
    Vec<Vec<u8>>,
);

fn run_workload() -> impl Strategy<Value = RunJobs> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pattern = || {
            let pat_sym = prop_oneof![
                3 => (0..=max).prop_map(Some),
                1 => Just(None), // wild card
            ];
            proptest::collection::vec(pat_sym, 1..=9)
        };
        let share = prop_oneof![Just(Share::Run), Just(Share::ValueEqual)];
        let text_sym = prop_oneof![6 => 0..=max, 1 => any::<u8>()];
        (
            Just(bits),
            (pattern(), 0usize..64),
            (pattern(), 2usize..=80),
            proptest::collection::vec((share, pattern(), 1usize..=40), 0..=6),
            proptest::collection::vec(proptest::collection::vec(text_sym, 0..=24), 1..=40),
        )
    })
}

/// A resident dictionary job: an alphabet width, ragged patterns, a
/// text and cut points.
type SplitJob = (u32, Vec<Vec<Option<u8>>>, Vec<u8>, Vec<usize>);

/// Strategy: up to 64 ragged patterns (with wild cards) for one
/// resident group, a text that strays past their alphabet (symbols
/// only wild cards accept), and cut points, repeats (empty chunks)
/// and points past the end included.
fn split_workload() -> impl Strategy<Value = SplitJob> {
    (1u32..=4).prop_flat_map(|bits| {
        let max = (1u16 << bits) as u8 - 1;
        let pat_sym = prop_oneof![
            3 => (0..=max).prop_map(Some),
            1 => Just(None), // wild card
        ];
        (
            Just(bits),
            proptest::collection::vec(proptest::collection::vec(pat_sym, 1..=9), 1..=64),
            proptest::collection::vec(0..=max + 2, 0..=48),
            proptest::collection::vec(0usize..=50, 0..=8),
        )
    })
}

/// Scans `text` cut at `cuts` (ascending, ≤ `text.len()`) through one
/// carried state.
fn split_scan<const W: usize>(
    group: &ResidentGroup<W>,
    text: &[Symbol],
    cuts: &[usize],
) -> Vec<LaneHit> {
    let mut state = LaneState::default();
    let mut hits = Vec::new();
    let mut from = 0;
    for &to in cuts.iter().chain([&text.len()]) {
        group.scan_from(&mut state, &text[from..to], from, &mut hits);
        from = to;
    }
    hits
}

/// Runs `jobs` through the lane-packed kernel at width `W`, one
/// `W × 64`-lane batch at a time.
fn lanes_at<const W: usize>(jobs: &[(&CompiledPattern, &[Symbol])]) -> Vec<MatchBits> {
    jobs.chunks(64 * W)
        .flat_map(|chunk| pm_systolic::superplane::match_lanes_wide::<W>(chunk).unwrap())
        .collect()
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn char_level_array_equals_spec((bits, pat, text) in workload()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut m = SystolicMatcher::new(&pattern).unwrap();
        let got = m.match_symbols(&symbols);
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }

    #[test]
    fn oversized_array_equals_spec((bits, pat, text) in workload(), extra in 0usize..6) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut m = SystolicMatcher::with_cells(&pattern, pattern.len() + extra).unwrap();
        let got = m.match_symbols(&symbols);
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }

    #[test]
    fn bit_serial_equals_spec((bits, pat, text) in workload()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let m = BitSerialMatcher::new(&pattern).unwrap();
        let got = m.match_symbols(&symbols);
        prop_assert_eq!(got.bits(), match_spec(&symbols, &pattern));
    }

    #[test]
    fn cascade_equals_monolithic(
        (bits, pat, text) in workload(),
        cuts in proptest::collection::vec(1usize..4, 1..4)
    ) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        // Build a segmentation covering at least the pattern.
        let mut sizes = cuts;
        while sizes.iter().sum::<usize>() < pattern.len() {
            sizes.push(pattern.len());
        }
        let total: usize = sizes.iter().sum();
        let mut mono = SystolicMatcher::with_cells(&pattern, total).unwrap();
        let mut casc = SystolicMatcher::with_cascade(&pattern, &sizes).unwrap();
        let a = mono.match_symbols(&symbols);
        let b = casc.match_symbols(&symbols);
        prop_assert_eq!(a.bits(), b.bits());
    }

    #[test]
    fn counter_equals_count_spec((bits, pat, text) in workload()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut c = pm_systolic::matcher::SystolicCounter::new(&pattern).unwrap();
        prop_assert_eq!(c.count_symbols(&symbols), count_spec(&symbols, &pattern));
    }

    #[test]
    fn self_timed_equals_spec((bits, pat, text) in workload(), seed in 0u64..1000) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let hs = pm_systolic::handshake::HandshakeArray::new(
            &pattern,
            pm_systolic::selftimed::TimingParams::default(),
            seed,
        )
        .unwrap();
        let run = hs.run(&symbols);
        let expected = match_spec(&symbols, &pattern);
        prop_assert_eq!(run.bits.as_slice(), expected.as_slice());
    }

    #[test]
    fn batched_uniform_equals_spec_per_lane((bits, pat, texts) in lane_workload()) {
        let pattern = build(bits, &pat);
        let lanes: Vec<Vec<Symbol>> = texts
            .iter()
            .map(|t| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let refs: Vec<&[Symbol]> = lanes.iter().map(|t| t.as_slice()).collect();
        let got = SuperMatcher::<1>::new(&pattern).match_streams(&refs).unwrap();
        prop_assert_eq!(got.len(), lanes.len());
        for (t, hits) in lanes.iter().zip(&got) {
            prop_assert_eq!(hits.bits(), match_spec(t, &pattern));
        }
    }

    #[test]
    fn batched_mixed_lanes_equal_spec((bits, jobs) in mixed_lane_workload()) {
        let compiled: Vec<(CompiledPattern, Vec<Symbol>)> = jobs
            .iter()
            .map(|(pat, text)| {
                let pattern = build(bits, pat);
                let symbols = text.iter().map(|&b| Symbol::new(b)).collect();
                (CompiledPattern::compile(&pattern), symbols)
            })
            .collect();
        let lanes: Vec<(&CompiledPattern, &[Symbol])> =
            compiled.iter().map(|(c, t)| (c, t.as_slice())).collect();
        let got = pm_systolic::superplane::match_lanes_wide::<1>(&lanes).unwrap();
        prop_assert_eq!(got.len(), compiled.len());
        for ((c, t), hits) in compiled.iter().zip(&got) {
            prop_assert_eq!(hits.bits(), match_spec(t, c.pattern()));
        }
    }

    #[test]
    fn plane_driver_equals_spec_per_lane((bits, jobs) in plane_workload()) {
        let patterns: Vec<Pattern> =
            jobs.iter().map(|(pat, _)| build(bits, pat)).collect();
        let lanes: Vec<Vec<Symbol>> = jobs
            .iter()
            .map(|(_, t)| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let refs: Vec<&[Symbol]> = lanes.iter().map(|t| t.as_slice()).collect();
        let mut driver = SuperplaneDriver::<1>::new(&patterns).unwrap();
        let got = driver.run(&refs).unwrap();
        for ((pattern, t), hits) in patterns.iter().zip(&lanes).zip(&got) {
            prop_assert_eq!(hits.bits(), match_spec(t, pattern));
        }
    }

    #[test]
    fn superplane_uniform_widths_agree_with_spec(
        (bits, pat, texts) in wide_lane_workload()
    ) {
        let pattern = build(bits, &pat);
        let lanes: Vec<Vec<Symbol>> = texts
            .iter()
            .map(|t| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let refs: Vec<&[Symbol]> = lanes.iter().map(|t| t.as_slice()).collect();
        let narrow = SuperMatcher::<1>::new(&pattern).match_streams(&refs).unwrap();
        let w4 = SuperMatcher::<4>::new(&pattern).match_streams(&refs).unwrap();
        let w8 = SuperMatcher::<8>::new(&pattern).match_streams(&refs).unwrap();
        prop_assert_eq!(w4.len(), lanes.len());
        prop_assert_eq!(w8.len(), lanes.len());
        for (((t, n), h4), h8) in lanes.iter().zip(&narrow).zip(&w4).zip(&w8) {
            let spec = match_spec(t, &pattern);
            prop_assert_eq!(n.bits(), spec.clone(), "W=1 superplane vs spec");
            prop_assert_eq!(h4.bits(), spec.clone(), "W=4 superplane vs spec");
            prop_assert_eq!(h8.bits(), spec, "W=8 superplane vs spec");
        }
    }

    #[test]
    fn superplane_mixed_lane_widths_agree_with_spec(
        (bits, jobs) in mixed_lane_workload()
    ) {
        let compiled: Vec<(CompiledPattern, Vec<Symbol>)> = jobs
            .iter()
            .map(|(pat, text)| {
                let pattern = build(bits, pat);
                let symbols = text.iter().map(|&b| Symbol::new(b)).collect();
                (CompiledPattern::compile(&pattern), symbols)
            })
            .collect();
        let lanes: Vec<(&CompiledPattern, &[Symbol])> =
            compiled.iter().map(|(c, t)| (c, t.as_slice())).collect();
        let narrow = lanes_at::<1>(&lanes);
        let w4 = lanes_at::<4>(&lanes);
        let w8 = lanes_at::<8>(&lanes);
        prop_assert_eq!(w4.len(), compiled.len());
        prop_assert_eq!(w8.len(), compiled.len());
        for ((((c, t), n), h4), h8) in compiled.iter().zip(&narrow).zip(&w4).zip(&w8) {
            let spec = match_spec(t, c.pattern());
            prop_assert_eq!(n.bits(), spec.clone(), "W=1 superplane vs spec");
            prop_assert_eq!(h4.bits(), spec.clone(), "W=4 superplane vs spec");
            prop_assert_eq!(h8.bits(), spec, "W=8 superplane vs spec");
        }
    }

    #[test]
    fn run_merged_planes_equal_spec_at_every_width(
        (bits, (lead_pat, lead), (span_pat, span), segments, pool) in run_workload()
    ) {
        // Storage first, then each lane's index into it: lanes of one
        // Run borrow one compilation, every other lane its own.
        let mut store: Vec<CompiledPattern> = Vec::new();
        let mut lane_of: Vec<usize> = Vec::new();
        let mut push = |pat: &[Option<u8>], count: usize, share: Share| {
            let compiled = CompiledPattern::compile(&build(bits, pat));
            match share {
                Share::Run => {
                    store.push(compiled);
                    lane_of.extend(std::iter::repeat_n(store.len() - 1, count));
                }
                Share::ValueEqual => {
                    for _ in 0..count {
                        store.push(compiled.clone());
                        lane_of.push(store.len() - 1);
                    }
                }
            }
        };
        push(&lead_pat, lead, Share::ValueEqual);
        push(&span_pat, span, Share::Run);
        for (share, pat, count) in &segments {
            push(pat, *count, *share);
        }
        let texts: Vec<Vec<Symbol>> = pool
            .iter()
            .map(|t| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let jobs: Vec<(&CompiledPattern, &[Symbol])> = lane_of
            .iter()
            .enumerate()
            .map(|(l, &ix)| (&store[ix], texts[l % texts.len()].as_slice()))
            .collect();
        for (w, hits) in [(1, lanes_at::<1>(&jobs)), (4, lanes_at::<4>(&jobs)), (8, lanes_at::<8>(&jobs))] {
            prop_assert_eq!(hits.len(), jobs.len());
            for (l, ((c, t), h)) in jobs.iter().zip(&hits).enumerate() {
                prop_assert_eq!(h.bits(), match_spec(t, c.pattern()), "W={} lane {}", w, l);
            }
        }
    }

    #[test]
    fn superplane_driver_w1_equals_w2_and_spec((bits, jobs) in plane_workload()) {
        let patterns: Vec<Pattern> =
            jobs.iter().map(|(pat, _)| build(bits, pat)).collect();
        let lanes: Vec<Vec<Symbol>> = jobs
            .iter()
            .map(|(_, t)| t.iter().map(|&b| Symbol::new(b)).collect())
            .collect();
        let refs: Vec<&[Symbol]> = lanes.iter().map(|t| t.as_slice()).collect();
        let narrow = SuperplaneDriver::<1>::new(&patterns)
            .unwrap()
            .run(&refs)
            .unwrap();
        let wide = SuperplaneDriver::<2>::new(&patterns)
            .unwrap()
            .run(&refs)
            .unwrap();
        for (((pattern, t), n), h) in
            patterns.iter().zip(&lanes).zip(&narrow).zip(&wide)
        {
            let spec = match_spec(t, pattern);
            prop_assert_eq!(n.bits(), spec.clone(), "W1 driver vs spec");
            prop_assert_eq!(h.bits(), spec, "W2 driver vs spec");
        }
    }

    #[test]
    fn resident_scans_are_split_invariant_at_every_width(
        (bits, pats, text, cuts) in split_workload()
    ) {
        let patterns: Vec<Pattern> = pats.iter().map(|p| build(bits, p)).collect();
        let text: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(text.len())).collect();
        cuts.sort_unstable();
        let specs: Vec<Vec<bool>> = patterns.iter().map(|p| match_spec(&text, p)).collect();
        let spec: Vec<LaneHit> = (0..text.len())
            .flat_map(|i| (0..patterns.len()).map(move |l| (i, l)))
            .filter(|&(i, l)| specs[l][i])
            .collect();
        let w1 = ResidentGroup::<1>::new(&patterns).unwrap();
        let w4 = ResidentGroup::<4>::new(&patterns).unwrap();
        let w8 = ResidentGroup::<8>::new(&patterns).unwrap();
        prop_assert_eq!(w1.scan(&text), spec.clone(), "W1 scan vs spec");
        prop_assert_eq!(split_scan(&w1, &text, &cuts), spec.clone(), "W1 split");
        prop_assert_eq!(w4.scan(&text), spec.clone(), "W4 scan vs spec");
        prop_assert_eq!(split_scan(&w4, &text, &cuts), spec.clone(), "W4 split");
        prop_assert_eq!(w8.scan(&text), spec.clone(), "W8 scan vs spec");
        prop_assert_eq!(split_scan(&w8, &text, &cuts), spec, "W8 split");
    }

    #[test]
    fn match_count_never_exceeds_windows((bits, pat, text) in workload()) {
        let pattern = build(bits, &pat);
        let symbols: Vec<Symbol> = text.iter().map(|&b| Symbol::new(b)).collect();
        let mut m = SystolicMatcher::new(&pattern).unwrap();
        let hits = m.match_symbols(&symbols);
        let windows = symbols.len().saturating_sub(pattern.k());
        prop_assert!(hits.count() <= windows);
    }
}
