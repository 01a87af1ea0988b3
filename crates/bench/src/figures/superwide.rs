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
//!    512-lane batch; asserted in release builds on hardware whose
//!    runtime dispatch reaches at least AVX2 — on portable/non-x86
//!    hosts, or under `PM_ENFORCE_SPEEDUP=0`, the ratio is reported
//!    but a dip does not abort the figures run);
//! 2. **exactness** — every width is bit-identical to the executable
//!    spec on the same workload (no "fast but wrong" regressions);
//! 3. **free telemetry** — the beat-accurate
//!    [`SuperplaneDriver`]'s traced twin with a [`NullSink`] costs
//!    ≈ 0 % against its un-instrumented baseline, same discipline as
//!    E30.
//!
//! The figure also writes `BENCH_superwide.json` (override the path
//! with `PM_SUPERWIDE_JSON`) carrying `superplane_chars_per_sec` and
//! `u64_chars_per_sec` for the CI bench-regression gate.

use crate::workloads;
use pm_systolic::engine::MatchBits;
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::spec::match_spec;
use pm_systolic::superplane::{simd_level, SimdLevel, SuperMatcher, SuperplaneDriver};
use pm_systolic::symbol::{Alphabet, PatSym, Pattern, Symbol};
use pm_systolic::telemetry::NullSink;
use std::fmt::Write;
use std::time::{Duration, Instant};

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
/// Repetitions per engine; best-of-N rejects scheduler noise (the
/// asserted speedup is a ratio of two best-of-N rates, so N must be
/// large enough that neither side keeps a lucky outlier).
const REPS: usize = 7;
/// Lanes and characters for the SuperplaneDriver NullSink A/B.
const AB_LANES: usize = 192;
const AB_LEN: usize = 1_024;
/// A/B repetitions; minimum over repeats rejects noise.
const AB_REPS: usize = 7;

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

    /// One word batch of up to 64 lanes (lengths may differ).
    fn run(&self, texts: &[&[Symbol]]) -> Vec<MatchBits> {
        let tmax = texts.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut state = vec![0u64; self.wild.len()];
        let mut out: Vec<Vec<bool>> = texts.iter().map(|t| vec![false; t.len()]).collect();
        for i in 0..tmax {
            // Transpose this text position into bit planes. Exhausted
            // lanes contribute zero planes; their state keeps stepping
            // harmlessly because their outputs are no longer recorded.
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
            let r = self.step(eff_bits, &mut state, &txt_bits);
            for (l, o) in out.iter_mut().enumerate() {
                if i < o.len() {
                    o[i] = (r >> l) & 1 == 1;
                }
            }
        }
        out.into_iter()
            .map(|bits| MatchBits::new(bits, self.k))
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

/// Best-of-`REPS` character rate for one engine closure, which must
/// return its results so the caller can golden-check them.
fn best_rate<F: FnMut() -> Vec<MatchBits>>(total_chars: f64, mut f: F) -> (f64, Vec<MatchBits>) {
    let mut best = 0.0f64;
    let mut results = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let r = f();
        let rate = total_chars / t.elapsed().as_secs_f64();
        if rate > best || results.is_empty() {
            best = best.max(rate);
            results = r;
        }
    }
    (best, results)
}

/// Renders the E31 superwide comparison and writes
/// `BENCH_superwide.json` (path overridable via `PM_SUPERWIDE_JSON`).
pub fn superwide() -> String {
    let path = std::env::var("PM_SUPERWIDE_JSON")
        .unwrap_or_else(|_| crate::snapshot_path("BENCH_superwide.json"));
    superwide_to(&path)
}

/// Whether a measured W=8-over-u64 ratio below 2× should abort the run.
///
/// The acceptance bar binds optimised builds on hardware where the wide
/// kernel actually has 256-bit registers to use; a debug build is
/// dominated by bounds checks, and on portable/non-x86 hosts (or a
/// noisy shared runner) the ratio is load- and ISA-dependent, so there
/// it is reported, not enforced. `PM_ENFORCE_SPEEDUP=1` forces the
/// assertion anywhere, `PM_ENFORCE_SPEEDUP=0` disables it anywhere.
fn enforce_speedup() -> bool {
    match std::env::var("PM_ENFORCE_SPEEDUP").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => cfg!(not(debug_assertions)) && simd_level() >= SimdLevel::Avx2,
    }
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

    // One plane width per engine, best of REPS each.
    let narrow = U64Reference::new(&pattern);
    let (u64_rate, narrow_results) = best_rate(total_chars, || narrow.match_streams(&lanes));
    let wide4 = SuperMatcher::<4>::new(&pattern);
    let (w4_rate, w4_results) = best_rate(total_chars, || wide4.match_streams(&lanes).unwrap());
    let wide8 = SuperMatcher::<8>::new(&pattern);
    let (w8_rate, w8_results) = best_rate(total_chars, || wide8.match_streams(&lanes).unwrap());

    // Golden check: every engine, every stream, against the spec.
    let mut agree = true;
    for (i, t) in texts.iter().enumerate() {
        let spec = match_spec(t, &pattern);
        if i < SCALAR_STREAMS && scalar_results[i].bits() != spec {
            agree = false;
        }
        if narrow_results[i].bits() != spec
            || w4_results[i].bits() != spec
            || w8_results[i].bits() != spec
        {
            agree = false;
        }
    }

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
    for (name, rate) in [
        ("scalar beat simulator", scalar_rate),
        ("u64 reference (64)", u64_rate),
        ("superplane W=4 (256)", w4_rate),
        ("superplane W=8 (512)", w8_rate),
    ] {
        writeln!(
            out,
            "  {name:<23}| {:>9.2} | {:>8.1} | {:>6.2}",
            rate / 1e6,
            rate / scalar_rate,
            rate / u64_rate,
        )
        .unwrap();
    }

    let speedup = w8_rate / u64_rate;
    let enforced = enforce_speedup();
    writeln!(
        out,
        "\n  W=8 speedup over u64: {speedup:.2}× (≥ 2× holds: {}, enforced here: {enforced})",
        speedup >= 2.0
    )
    .unwrap();
    if enforced {
        assert!(
            speedup >= 2.0,
            "width-8 superplane must be ≥ 2× the u64 reference on \
             {STREAMS} streams, measured {speedup:.2}×"
        );
    }

    // NullSink A/B on the beat-accurate superplane driver, same
    // discipline as E30's PlaneDriver A/B.
    let ab_pattern = workloads::random_pattern(alphabet, PATTERN_LEN, 10, 32);
    let ab_patterns: Vec<Pattern> = (0..AB_LANES).map(|_| ab_pattern.clone()).collect();
    let ab_texts: Vec<Vec<Symbol>> = (0..AB_LANES)
        .map(|i| workloads::random_text(alphabet, AB_LEN, 3200 + i as u64))
        .collect();
    let ab_lanes: Vec<&[Symbol]> = ab_texts.iter().map(|t| t.as_slice()).collect();
    let mut driver = SuperplaneDriver::<8>::new(&ab_patterns).expect("uniform pattern lengths");
    let mut base = Duration::MAX;
    let mut nulled = Duration::MAX;
    for _ in 0..AB_REPS {
        let t = Instant::now();
        let a = driver.run(&ab_lanes).expect("lane count matches");
        base = base.min(t.elapsed());
        let t = Instant::now();
        let b = driver
            .run_with_sink(&ab_lanes, &NullSink)
            .expect("lane count matches");
        nulled = nulled.min(t.elapsed());
        assert_eq!(a, b, "traced twin must be bit-identical");
    }
    let overhead =
        (nulled.as_secs_f64() - base.as_secs_f64()).max(0.0) / base.as_secs_f64().max(1e-12);
    writeln!(
        out,
        "\n  NullSink A/B (SuperplaneDriver<8>, {AB_LANES} lanes × {AB_LEN} chars, \
         min of {AB_REPS}):"
    )
    .unwrap();
    writeln!(
        out,
        "    baseline run       : {:>8.3} ms",
        base.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        out,
        "    run_with_sink(Null): {:>8.3} ms",
        nulled.as_secs_f64() * 1e3
    )
    .unwrap();
    writeln!(
        out,
        "    disabled-sink overhead: {:.2} % (within 1 %: {})",
        overhead * 100.0,
        overhead < 0.01
    )
    .unwrap();

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
    let wrote = std::fs::write(json_path, &json).is_ok();
    writeln!(
        out,
        "\n  JSON snapshot ({} bytes) {} {json_path}",
        json.len(),
        if wrote {
            "written to"
        } else {
            "NOT written to"
        },
    )
    .unwrap();

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
