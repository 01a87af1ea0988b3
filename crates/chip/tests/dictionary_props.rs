//! Dictionary properties: the superplane chip farm, the Aho–Corasick
//! software oracle, and the scalar specification must agree event for
//! event on arbitrary dictionaries — overlapping patterns, shared
//! prefixes, duplicates, ragged lane counts, patterns longer than a
//! feed chunk — at every superplane width, including farms whose last
//! group is narrower than the rest, and dictionary workloads
//! must survive the PR 6 fault plan with spec-identical output.

use pm_chip::dictionary::PatternDictionary;
use pm_chip::faults::FaultPlan;
use pm_chip::throughput::{Job, ResiliencePolicy, SuperWidth, ThroughputEngine};
use pm_matchers::aho_corasick::{AhoCorasick, DictMatch};
use pm_systolic::prelude::*;
use proptest::prelude::*;

const WIDTHS: [SuperWidth; 3] = [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8];

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

fn symbols(text: &[u8]) -> Vec<Symbol> {
    text.iter().map(|&b| Symbol::new(b)).collect()
}

/// The scalar ground truth, one pattern at a time.
fn spec_events(pats: &[Pattern], text: &[Symbol]) -> Vec<DictMatch> {
    let mut events = Vec::new();
    for (id, p) in pats.iter().enumerate() {
        for (end, hit) in match_spec(text, p).iter().enumerate() {
            if *hit {
                events.push(DictMatch { pattern: id, end });
            }
        }
    }
    events.sort_unstable();
    events
}

/// Arbitrary literal dictionaries (AC-comparable) + a text.
fn literal_workload() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    (
        proptest::collection::vec(proptest::collection::vec(0u8..=3, 1..=10), 1..=40),
        proptest::collection::vec(0u8..=3, 0..=120),
    )
}

/// Dictionaries with wild cards (spec-comparable only) + a text.
fn wild_workload() -> impl Strategy<Value = (Vec<Vec<Option<u8>>>, Vec<u8>)> {
    let sym = prop_oneof![
        4 => (0u8..=3).prop_map(Some),
        1 => Just(None),
    ];
    (
        proptest::collection::vec(proptest::collection::vec(sym, 1..=10), 1..=30),
        proptest::collection::vec(0u8..=3, 0..=120),
    )
}

/// Deliberately prefix-heavy dictionaries: every pattern is a stem
/// from a pool of four, plus a short suffix — shared prefixes and
/// duplicates are the common case, not the lucky one.
fn stem_workload() -> impl Strategy<Value = (Vec<Vec<u8>>, Vec<u8>)> {
    let stems = proptest::collection::vec(proptest::collection::vec(0u8..=3, 1..=5), 4);
    (
        stems,
        proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0u8..=3, 0..=5)),
            1..=30,
        ),
        proptest::collection::vec(0u8..=3, 0..=120),
    )
        .prop_map(|(stems, picks, text)| {
            let dict = picks
                .into_iter()
                .map(|(s, suffix)| {
                    let mut p = stems[s].clone();
                    p.extend(suffix);
                    p
                })
                .collect();
            (dict, text)
        })
}

/// 1–700 distinct patterns (duplicates of an earlier draw dropped), so
/// the residents cross the 64 / 256 / 512 lane cuts. Half the
/// dictionaries are literal (AC-comparable), half carry wild cards; the
/// text also draws symbols 4 and 5, outside the patterns' alphabet.
fn wide_workload() -> impl Strategy<Value = (bool, Vec<Vec<Option<u8>>>, Vec<u8>)> {
    (any::<bool>(), 1usize..=700).prop_flat_map(|(literal, n)| {
        let sym = (0u8..=3, 0u8..6).prop_map(move |(v, roll)| (literal || roll > 0).then_some(v));
        (
            Just(literal),
            proptest::collection::vec(proptest::collection::vec(sym, 1..=10), n).prop_map(
                |mut dict| {
                    let mut seen = std::collections::HashSet::new();
                    dict.retain(|p| seen.insert(p.clone()));
                    dict
                },
            ),
            proptest::collection::vec(0u8..=5, 0..=160),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Literal dictionaries: farm ≡ Aho–Corasick ≡ spec, whole-text.
    #[test]
    fn farm_equals_aho_corasick_and_spec((dict, text) in literal_workload()) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(&p.iter().map(|&v| Some(v)).collect::<Vec<_>>())).collect();
        let text = symbols(&text);
        let want = spec_events(&pats, &text);
        let oracle = AhoCorasick::new(&pats).unwrap();
        prop_assert_eq!(&oracle.find_all(&text), &want);
        for width in WIDTHS {
            let got = PatternDictionary::new(&pats, width).matcher().find_all(&text);
            prop_assert_eq!(&got, &want, "width {}", width.label());
        }
    }

    /// Prefix-heavy dictionaries: dedup must be loss-free and the
    /// resident count must never exceed the submitted count.
    #[test]
    fn prefix_heavy_dictionaries_are_dedup_safe((dict, text) in stem_workload()) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(&p.iter().map(|&v| Some(v)).collect::<Vec<_>>())).collect();
        let text = symbols(&text);
        let want = spec_events(&pats, &text);
        let oracle = AhoCorasick::new(&pats).unwrap();
        prop_assert_eq!(&oracle.find_all(&text), &want);
        let dictionary = PatternDictionary::new(&pats, SuperWidth::W4);
        prop_assert!(dictionary.stats().resident <= dictionary.stats().patterns);
        prop_assert_eq!(&dictionary.matcher().find_all(&text), &want);
    }

    /// Wild-card dictionaries (outside AC's domain): farm ≡ spec.
    #[test]
    fn wildcard_farm_equals_spec((dict, text) in wild_workload()) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(p)).collect();
        let text = symbols(&text);
        let want = spec_events(&pats, &text);
        for width in WIDTHS {
            let got = PatternDictionary::new(&pats, width).matcher().find_all(&text);
            prop_assert_eq!(&got, &want, "width {}", width.label());
        }
    }

    /// Chunked streaming ≡ whole-text, for any chunk size — including
    /// chunks shorter than the longest pattern, so matches straddle
    /// (or span several) feed calls.
    #[test]
    fn chunked_feed_equals_whole_text(
        (dict, text) in wild_workload(),
        chunk in 1usize..=16,
    ) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(p)).collect();
        let text = symbols(&text);
        let dictionary = PatternDictionary::new(&pats, SuperWidth::W4);
        let whole = dictionary.matcher().find_all(&text);
        let mut m = dictionary.matcher();
        let mut streamed = Vec::new();
        for c in text.chunks(chunk) {
            streamed.extend(m.feed(c));
        }
        prop_assert_eq!(streamed, whole);
    }

    /// Dictionaries wide enough to fill several groups: at every cap the
    /// plan cuts full groups at the cap and sizes the last one to its
    /// lanes, and the farm ≡ spec (≡ Aho–Corasick when literal), whole
    /// and fed in chunks.
    #[test]
    fn mixed_width_farms_equal_spec(
        (literal, dict, text) in wide_workload(),
        chunk in 1usize..=16,
    ) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(p)).collect();
        let text = symbols(&text);
        let want = spec_events(&pats, &text);
        if literal {
            prop_assert_eq!(&AhoCorasick::new(&pats).unwrap().find_all(&text), &want);
        }
        for width in WIDTHS {
            let dictionary = PatternDictionary::new(&pats, width);
            let s = *dictionary.stats();
            prop_assert_eq!(s.resident, pats.len());
            let cap = width.lanes();
            prop_assert_eq!(s.groups, s.resident.div_ceil(cap));
            // Full groups at the cap, then the narrowest that holds the rest.
            let tail = s.resident - (s.groups - 1) * cap;
            let last = WIDTHS.iter().map(|w| w.lanes()).find(|&l| l >= tail).unwrap();
            prop_assert!(last <= cap);
            prop_assert_eq!(s.lane_slots, (s.groups - 1) * cap + last, "width {}", width.label());
            let whole = dictionary.matcher().find_all(&text);
            prop_assert_eq!(&whole, &want, "width {}", width.label());
            let mut m = dictionary.matcher();
            let mut streamed = Vec::new();
            for c in text.chunks(chunk) {
                streamed.extend(m.feed(c));
            }
            prop_assert_eq!(&streamed, &want, "width {} chunk {}", width.label(), chunk);
        }
    }

    /// The chaos interaction: a dictionary fanned out as one job per
    /// pattern survives a seeded fault campaign with output identical
    /// to the spec — and therefore to the farm's own event stream.
    #[test]
    fn dictionary_batches_survive_the_fault_plan(
        (dict, text) in literal_workload(),
        seed in 0u64..1_000_000,
        permille in 0u32..=800,
    ) {
        let pats: Vec<Pattern> = dict.iter().map(|p| build(&p.iter().map(|&v| Some(v)).collect::<Vec<_>>())).collect();
        let text = symbols(&text);
        let jobs: Vec<Job> = pats
            .iter()
            .enumerate()
            .map(|(id, p)| Job::new(id as u64, p.clone(), text.clone()))
            .collect();
        let mut engine = ThroughputEngine::new(2, 8);
        engine.set_width(SuperWidth::W8);
        engine.set_resilience(Some(ResiliencePolicy::default()));
        engine.set_fault_plan(Some(
            FaultPlan::new(seed)
                .with_worker_fault_permille(permille)
                .with_max_onset_batches(2)
                .with_stall_millis(1),
        ));
        let report = engine.run(&jobs).expect("resilient run");
        let farm_events = PatternDictionary::new(&pats, SuperWidth::W8).matcher().find_all(&text);
        prop_assert_eq!(report.outputs.len(), jobs.len());
        for (job, out) in jobs.iter().zip(&report.outputs) {
            prop_assert_eq!(out.id, job.id);
            prop_assert_eq!(
                out.hits.bits(),
                &match_spec(&text, &job.pattern)[..],
                "job {} diverged under seed {}", job.id, seed
            );
            // The scheduler's per-job bits and the farm's merged event
            // stream describe the same matches.
            let from_farm: Vec<usize> = farm_events
                .iter()
                .filter(|e| e.pattern == job.id as usize)
                .map(|e| e.end)
                .collect();
            prop_assert_eq!(out.hits.ending_positions(), from_farm);
        }
    }
}

/// The acceptance-criterion sweep: 10 / 100 / 1k / 10k distinct
/// patterns, farm ≡ Aho–Corasick at every width, ≡ spec throughout.
#[test]
fn size_sweep_farm_equals_oracle_and_spec() {
    // xorshift64 text so the sweep is deterministic without rand.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let text: Vec<Symbol> = (0..1000).map(|_| Symbol::new((step() % 4) as u8)).collect();
    for size in [10usize, 100, 1000, 10_000] {
        // Base-4 digits of the index, length 4..=10: distinct by
        // construction, heavy prefix sharing at the low digits.
        let pats: Vec<Pattern> = (0..size)
            .map(|i| {
                let len = 4 + i % 7;
                let syms: Vec<PatSym> = (0..len)
                    .map(|d| PatSym::Lit(Symbol::new(((i >> (2 * d)) % 4) as u8)))
                    .collect();
                Pattern::new(syms, Alphabet::TWO_BIT).unwrap()
            })
            .collect();
        let want = spec_events(&pats, &text);
        let oracle = AhoCorasick::new(&pats).unwrap();
        assert_eq!(oracle.find_all(&text), want, "AC at size {size}");
        for width in WIDTHS {
            let dictionary = PatternDictionary::new(&pats, width);
            assert_eq!(dictionary.stats().patterns, size);
            assert_eq!(
                dictionary.matcher().find_all(&text),
                want,
                "farm at size {size}, width {}",
                width.label()
            );
        }
    }
}
