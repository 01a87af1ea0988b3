//! E33: dictionary throughput — the superplane chip farm vs. the
//! Aho–Corasick software baseline, across dictionary sizes.
//!
//! §3.4's composition argument is that matcher chips cascade: many
//! chips, one text pass. `pm_chip::dictionary` realises it by holding
//! up to `W × 64` patterns resident per superplane group and streaming
//! the text through every group once. The natural software opponent
//! for that workload is Aho–Corasick — also one text pass, any number
//! of patterns — so this figure races the farm against
//! `pm_matchers::aho_corasick` at dictionary sizes 10 / 100 / 1k / 10k
//! and farm widths capped at W1 / W4 / W8, on one shared random byte
//! text with planted matches. A cap is the widest group: every group
//! but the last is that wide and the last is as narrow as its lanes
//! allow, so the 10-pattern farms plan one W1 group at every cap and
//! the 100-pattern W4 and W8 farms one W4 group.
//!
//! The byte alphabet is the realistic dictionary regime (scanners and
//! filters match byte strings) and also where the architectural
//! difference shows: Aho–Corasick's per-character cost is a dependent
//! walk through a goto/fail table whose footprint grows with the
//! dictionary, while the farm's is a handful of superplane ANDs
//! bounded by the live-prefix depth — the same constant-per-character
//! argument the paper makes for the systolic array itself.
//!
//! Three claims are checked in one run:
//!
//! 1. **crossover** — at the 1k-pattern point, the W≥4 farm sustains
//!    at least the Aho–Corasick character rate. Each size times the
//!    oracle and the three farms together, round by round, and the
//!    claim is judged on the per-round ratios (it must read true under
//!    the same conditions as E31's speedup bar: release build, runtime
//!    dispatch ≥ AVX2, overridable with `PM_ENFORCE_SPEEDUP`);
//! 2. **exactness** — farm events ≡ Aho–Corasick events at every size
//!    and width, and ≡ the scalar spec where the spec is cheap enough
//!    to compute;
//! 3. **planning** — the prefix dedup and length buckets report
//!    sane stats (resident ≤ submitted, occupancy ≤ 1).
//!
//! The figure writes `BENCH_dictionary.json` (override with
//! `PM_DICTIONARY_JSON`) carrying `dictionary_chars_per_sec` (advisory,
//! machine-dependent) and `dict_10k_speedup_over_ac` — a same-run
//! ratio the CI bench gate enforces like `w8_speedup_over_u64`.

use crate::figures::paired::{enforce_speedup, paired, quartiles, verdict, Claim, Verdict};
use crate::workloads;
use pm_chip::dictionary::PatternDictionary;
use pm_chip::throughput::SuperWidth;
use pm_matchers::aho_corasick::{AhoCorasick, DictMatch};
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::simd_level;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use std::fmt::Write;

/// Dictionary sizes swept: the 1k point carries the crossover claim and
/// the 10k point feeds the gated ratio.
const SIZES: [usize; 4] = [10, 100, 1_000, 10_000];
/// Shared text length: long enough that per-chunk setup amortises,
/// short enough that a debug test run stays quick.
const TEXT_LEN: usize = if cfg!(debug_assertions) {
    2_048
} else {
    1 << 16
};
/// Full scalar-spec verification is O(size × text); cap it where it
/// stays cheap. Above the cap the Aho–Corasick oracle (itself
/// spec-checked below the cap and property-tested in `pm-chip`)
/// carries the ground truth.
const SPEC_CAP: usize = 100;

/// Distinct literal byte patterns with deliberate structure: seeded
/// pseudo-random bytes, lengths cycling 8..=15 (ragged buckets), and
/// every 20th pattern a duplicate of an earlier one so the dedup path
/// is exercised, not just available.
fn dictionary(size: usize) -> Vec<Pattern> {
    (0..size)
        .map(|i| {
            let j = if i % 20 == 19 { i / 2 } else { i };
            let len = 8 + j % 8;
            workloads::random_pattern(Alphabet::EIGHT_BIT, len, 0, 33_000 + j as u64)
        })
        .collect()
}

/// Splices occurrences of the first few dictionary patterns into the
/// text at spread offsets, so the sweep measures match *reporting* as
/// well as scanning (random byte text alone would never match).
fn plant(text: &mut [Symbol], pats: &[Pattern]) {
    let plants = 32.min(pats.len());
    for (n, p) in pats.iter().take(plants).enumerate() {
        let at = (n + 1) * text.len() / (plants + 1);
        for (d, sym) in p.symbols().iter().enumerate() {
            if let Some(s) = sym.literal() {
                text[at + d] = s;
            }
        }
    }
}

/// Renders the E33 dictionary sweep and writes `BENCH_dictionary.json`
/// (path overridable via `PM_DICTIONARY_JSON`).
pub fn dictionary_figure() -> String {
    let path = std::env::var("PM_DICTIONARY_JSON")
        .unwrap_or_else(|_| crate::snapshot_path("BENCH_dictionary.json"));
    dictionary_to(&path)
}

/// As [`dictionary_figure`], with the JSON destination passed
/// explicitly so tests can route it to a temp path. Write errors are
/// ignored so read-only checkouts can still render.
pub fn dictionary_to(json_path: &str) -> String {
    let mut out = String::new();
    let mut text = workloads::random_text(Alphabet::EIGHT_BIT, TEXT_LEN, 3301);
    plant(&mut text, &dictionary(32));
    let text = text;
    writeln!(
        out,
        "Dictionary throughput (E33): sizes {SIZES:?} on one {TEXT_LEN}-char byte text \
         with planted matches, chip farm at W1/W4/W8 vs Aho-Corasick, SIMD dispatch: {}",
        simd_level(),
    )
    .unwrap();
    writeln!(
        out,
        "\n  patterns | resident | groups<=W8 | occupancy |  AC Mchar/s |  W1 Mchar/s |  W4 Mchar/s |  W8 Mchar/s | W8/AC"
    )
    .unwrap();
    writeln!(
        out,
        "  ---------+----------+------------+-----------+-------------+-------------+-------------+-------------+------"
    )
    .unwrap();

    let mut agree = true;
    let [_, _, at_1k, at_10k] = SIZES.map(|size| {
        let pats = dictionary(size);
        let oracle = AhoCorasick::new(&pats).expect("literal dictionary");
        let ac_events = oracle.find_all(&text);

        if size <= SPEC_CAP {
            let mut spec_events: Vec<DictMatch> = Vec::new();
            for (id, p) in pats.iter().enumerate() {
                for (end, hit) in match_spec(&text, p).iter().enumerate() {
                    if *hit {
                        spec_events.push(DictMatch { pattern: id, end });
                    }
                }
            }
            spec_events.sort_unstable();
            if ac_events != spec_events {
                agree = false;
            }
        }

        let dicts = [SuperWidth::W1, SuperWidth::W4, SuperWidth::W8]
            .map(|width| PatternDictionary::new(&pats, width));
        let [w1, w4, w8] = dicts.each_ref().map(PatternDictionary::matcher);
        // Side 0 is the oracle; every round's events from every side
        // must equal its untimed run's, checked outside the timed region.
        let timing = paired(
            &mut [
                &mut || oracle.find_all(&text),
                &mut || w1.find_all(&text),
                &mut || w4.find_all(&text),
                &mut || w8.find_all(&text),
            ],
            |events| agree &= events.iter().all(|e| *e == ac_events),
        );
        let stats = *dicts[2].stats();
        if stats.resident > stats.patterns || stats.occupancy() > 1.0 {
            agree = false;
        }
        let rate = |side: usize| TEXT_LEN as f64 / timing.secs(side);
        let w8_ac = quartiles(&timing.speedups(3));
        writeln!(
            out,
            "  {size:>8} | {:>8} | {:>10} | {:>8.0}% | {:>11.2} | {:>11.2} | {:>11.2} | {:>11.2} | {:>5.2}",
            stats.resident,
            stats.groups,
            stats.occupancy() * 100.0,
            rate(0) / 1e6,
            rate(1) / 1e6,
            rate(2) / 1e6,
            rate(3) / 1e6,
            w8_ac[1],
        )
        .unwrap();
        timing
    });

    let enforced = enforce_speedup();
    let [(w4, w4_holds), (w8, w8_holds)] = [2, 3].map(|side| {
        let speedups = at_1k.speedups(side);
        (
            quartiles(&speedups),
            verdict(&speedups, Claim::AtLeast(1.0)),
        )
    });
    let (w4_ac, w8_ac) = (w4[1], w8[1]);
    writeln!(
        out,
        "\n  1k-pattern crossover, {}: W4/AC {w4_ac:.2}x (IQR {:.2}x, >= 1x holds: {w4_holds}), \
         W8/AC {w8_ac:.2}x (IQR {:.2}x, >= 1x holds: {w8_holds}), enforced here: {enforced}",
        at_1k.label(),
        w4[2] - w4[0],
        w8[2] - w8[0],
    )
    .unwrap();
    let [q1, w8_over_ac, q3] = quartiles(&at_10k.speedups(3));
    let w8_rate = TEXT_LEN as f64 / at_10k.secs(3);
    writeln!(
        out,
        "  10k-pattern W8/AC: {w8_over_ac:.2}x (IQR {:.2}x)",
        q3 - q1
    )
    .unwrap();
    if enforced {
        assert!(
            w4_holds == Verdict::True && w8_holds == Verdict::True,
            "the W>=4 farm must sustain at least the Aho-Corasick rate at \
             1k patterns, paired medians W4/AC {w4_ac:.2}x ({w4_holds}), \
             W8/AC {w8_ac:.2}x ({w8_holds})",
        );
    }

    // JSON for the CI gate: the headline rate (advisory) and the
    // same-run ratio at the largest size (enforced off-portable).
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"dictionary_chars_per_sec\": {w8_rate:.1},");
    let _ = writeln!(json, "  \"dict_10k_speedup_over_ac\": {w8_over_ac:.3},");
    let _ = writeln!(json, "  \"dict_1k_w8_over_ac\": {w8_ac:.3},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", simd_level());
    let _ = writeln!(json, "  \"sizes\": [10, 100, 1000, 10000],");
    let _ = writeln!(json, "  \"text_len\": {TEXT_LEN}");
    json.push_str("}\n");
    super::write_snapshot(&mut out, json_path, &json);

    writeln!(out, "\n  dictionary events equal specification: {agree}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn dictionary_figure_is_exact() {
        // Explicit temp path, not the process environment (other tests
        // may read env concurrently).
        let path = std::env::temp_dir().join("pm_test_dictionary.json");
        let text = super::dictionary_to(path.to_str().unwrap());
        assert!(text.contains("equal specification: true"), "{text}");
        assert!(text.contains("dict_10k_speedup_over_ac") || text.contains("JSON snapshot"));
    }
}
