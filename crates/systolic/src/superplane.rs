//! Superplanes: the bit-plane engine widened from one `u64` to `[u64; W]`.
//!
//! The paper's replication argument (§2: "the algorithm is the chip")
//! says throughput comes from laying the same tiny comparator down many
//! times. [`crate::batch`] describes the boolean cell replicated 64×
//! into the bit positions of a `u64`; this module replicates the *word*: a
//! [`Superplane<W>`] is `[u64; W]`, carrying `W × 64` lanes, and every
//! plane operation of the recurrence `t ← t ∧ (x ∨ d)` becomes `W`
//! independent word operations — exactly the shape compilers
//! auto-vectorise into 256-bit (`W = 4`) or 512-bit (`W = 8`) SIMD
//! registers. `W = 1` is the same kernel one word wide: 64 lanes.
//!
//! Every batch is lane-packed. [`match_lanes_wide`] takes one
//! `(pattern, text)` job per lane, and consecutive lanes that share a
//! compiled pattern are set up as one *run* — the planes of a run are
//! ORed in through a lane-range mask, so a batch of one repeated
//! pattern ([`SuperMatcher`]) sets up in O(k·W) and a batch of
//! distinct patterns pays O(k) per lane.
//!
//! Three layers live here:
//!
//! * the **generic kernel** (`eq_superplane`, `step_superplanes`,
//!   and the strip-mined text transpose of `run_wide_generic`) —
//!   portable, safe, `#[inline(always)]` so it monomorphises into
//!   whatever vector ISA the surrounding function is compiled for;
//! * **runtime dispatch**: on `x86_64` the kernel is additionally
//!   compiled inside `#[target_feature(enable = "avx2")]` and
//!   `#[target_feature(enable = "avx512f")]` wrappers, and
//!   [`simd_level`] picks the widest level the CPU reports via
//!   `is_x86_feature_detected!` — once per process, overridable with
//!   the `PM_SIMD` environment variable (`portable`, `avx2`,
//!   `avx512`; the override can only narrow, never exceed, what the
//!   CPU supports);
//! * the **beat-accurate driver** [`SuperplaneDriver`], whose
//!   accumulator is a `[u64; W]` plane flowing through the unmodified
//!   [`Driver`] on the engine's one schedule. It has one run loop,
//!   [`Driver::run_observed`]; `run_with_sink` emits occupancy-masked
//!   popcounts summed across all `W` words from its per-beat observer,
//!   and `run` is `run_with_sink` with a
//!   [`NullSink`]. At `W = 1` it is the
//!   64-lane beat-accurate array.
//!
//! Why the transpose is strip-mined: a per-position text transpose
//! (one branchy bit-scatter per lane per character, as in figure E31's
//! `u64` reference loop) dominates the branch-free step. The wide
//! runner instead processes text in blocks of 8 positions, gathering 8
//! bytes per lane with one load, extracting each alphabet bit across
//! the block with a multiply-pack, and rotating 8×8 bit tiles with the
//! classic XOR-delta transpose — amortising the transpose to a few
//! word operations per character so the vectorised step actually shows
//! up in the end-to-end rate (the ≥ 2× claim checked by figure E31).
//!
//! ```
//! use pm_systolic::superplane::SuperMatcher;
//! use pm_systolic::symbol::{Pattern, text_from_letters};
//!
//! # fn main() -> Result<(), pm_systolic::Error> {
//! let m = SuperMatcher::<8>::new(&Pattern::parse("AXC")?); // 512 lanes/batch
//! let t = text_from_letters("ABCAACCAB")?;
//! let hits = m.match_streams(&[t.as_slice()])?;
//! assert_eq!(hits[0].ending_positions(), vec![2, 5, 6]);
//! # Ok(())
//! # }
//! ```

// The only unsafe in this crate: invoking the `#[target_feature]`
// specialisations after `is_x86_feature_detected!` has proven the
// features present. All data paths are safe code.
#![allow(unsafe_code)]

use crate::batch::CompiledPattern;
use crate::engine::{Driver, MatchBits};
use crate::error::Error;
use crate::semantics::MeetSemantics;
use crate::symbol::{PatSym, Pattern, Symbol};
use crate::telemetry::{ClockPhase, NullSink, TraceEvent, TraceSink};
use std::sync::OnceLock;

/// A superplane: `W` machine words holding one state bit for each of
/// `W × 64` lanes. `Superplane<1>` is one `u64` plane, as in
/// [`crate::batch`].
pub type Superplane<const W: usize> = [u64; W];

/// Maximum supported plane width in words (512 lanes). Wider arrays
/// would spill today's vector register files; raise when the hardware
/// does.
pub const MAX_WIDTH: usize = 8;

/// Maximum alphabet width in bits (mirrors [`crate::symbol::Alphabet`]).
pub(crate) const MAX_BITS: usize = 8;

/// Number of lanes carried by a width-`W` superplane.
pub const fn lanes_of(width_words: usize) -> usize {
    width_words * 64
}

// ---------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------

/// The instruction-set level the wide runner executes at, detected once
/// per process (see [`simd_level`]) and recorded in telemetry and in
/// `pm-chip`'s `ThroughputReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// The generic kernel as the portable build compiled it (still
    /// autovectorised to whatever the build target allows).
    Portable,
    /// The kernel monomorphised under `#[target_feature(enable = "avx2")]`.
    Avx2,
    /// The kernel monomorphised under `#[target_feature(enable = "avx512f")]`.
    Avx512,
}

impl SimdLevel {
    /// Stable lowercase name, used in telemetry rows and figure JSON.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The SIMD level every wide run in this process dispatches to.
///
/// Detected once with `is_x86_feature_detected!` and cached; the
/// `PM_SIMD` environment variable (`portable` / `avx2` / `avx512`)
/// caps the choice for A/B experiments, but can never select a level
/// the CPU does not support (the unsafe dispatch relies on that).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = detect_level();
        match std::env::var("PM_SIMD").ok().as_deref() {
            Some("portable") => SimdLevel::Portable,
            Some("avx2") => detected.min(SimdLevel::Avx2),
            _ => detected,
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_level() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_level() -> SimdLevel {
    SimdLevel::Portable
}

// ---------------------------------------------------------------------
// The shared kernel: eq and step over [u64; W].
// ---------------------------------------------------------------------

/// Comparator superplane: lanes where the pattern bit planes equal the
/// text bit planes on every alphabet bit — `d = ∧_b ¬(p_b ⊕ s_b)`,
/// evaluated as `W` word operations per alphabet bit. The Figure 3-4
/// comparator column, `W × 64` lanes at a time.
#[inline(always)]
pub(crate) fn eq_superplane<const W: usize>(
    pat_bits: &[Superplane<W>; MAX_BITS],
    txt_bits: &[Superplane<W>; MAX_BITS],
    bits: u32,
) -> Superplane<W> {
    let mut ne = [0u64; W];
    for b in 0..bits as usize {
        for w in 0..W {
            ne[w] |= pat_bits[b][w] ^ txt_bits[b][w];
        }
    }
    let mut d = [0u64; W];
    for w in 0..W {
        d[w] = !ne[w];
    }
    d
}

/// Advances every lane one text position — the §3.2.1 recurrence
/// `t ← t ∧ (x ∨ d)` over superplanes, high pattern positions first so
/// each prefix extends the previous step's shorter prefix — and returns
/// the result superplane (`∨_m state[m] ∧ end[m]`, folded over the end
/// positions only).
#[inline(always)]
pub(crate) fn step_superplanes<const W: usize>(
    wild: &[Superplane<W>],
    pbits: &[[Superplane<W>; MAX_BITS]],
    end: &[Superplane<W>],
    end_positions: &[usize],
    bits: u32,
    state: &mut [Superplane<W>],
    txt_bits: &[Superplane<W>; MAX_BITS],
) -> Superplane<W> {
    let kmax = wild.len();
    for m in (1..kmax).rev() {
        let d = eq_superplane(&pbits[m], txt_bits, bits);
        for w in 0..W {
            state[m][w] = state[m - 1][w] & (wild[m][w] | d[w]);
        }
    }
    let d0 = eq_superplane(&pbits[0], txt_bits, bits);
    for w in 0..W {
        state[0][w] = wild[0][w] | d0[w];
    }
    let mut out = [0u64; W];
    for &m in end_positions {
        for w in 0..W {
            out[w] |= state[m][w] & end[m][w];
        }
    }
    out
}

/// Per-lane control superplanes for one batch of up to `W × 64` lanes:
/// the merged compiled patterns plus the `λ` planes marking each lane's
/// pattern end.
#[derive(Debug, Clone)]
pub(crate) struct SuperPlanes<const W: usize> {
    /// Longest pattern across the lanes (`k+1` positions).
    pub(crate) kmax: usize,
    /// Widest alphabet across the lanes, in bits.
    pub(crate) bits: u32,
    pub(crate) wild: Vec<Superplane<W>>,
    pub(crate) pbits: Vec<[Superplane<W>; MAX_BITS]>,
    /// `end[m]` bit `l` of word `l / 64`: position `m` is lane `l`'s
    /// last pattern character.
    pub(crate) end: Vec<Superplane<W>>,
    /// Positions `m` with a nonzero `end[m]`, so the result fold skips
    /// the all-zero majority.
    pub(crate) end_positions: Vec<usize>,
}

impl<const W: usize> SuperPlanes<W> {
    /// Lane `l` carries `compiled[l]` (lengths may differ). Consecutive
    /// lanes sharing one compiled pattern (by address) form a *run*,
    /// and each run ORs its broadcast planes through a lane-range mask
    /// into only the words it spans — so a batch of one repeated
    /// pattern costs O(k·W) to set up whatever its lane count, and a
    /// run of one lane costs O(k).
    pub(crate) fn merge(compiled: &[&CompiledPattern]) -> Self {
        debug_assert!(compiled.len() <= lanes_of(W));
        let kmax = compiled.iter().map(|c| c.len()).max().unwrap_or(0);
        let bits = compiled
            .iter()
            .map(|c| c.pattern().alphabet().bits())
            .max()
            .unwrap_or(1);
        let mut planes = SuperPlanes {
            kmax,
            bits,
            wild: vec![[0u64; W]; kmax],
            pbits: vec![[[0u64; W]; MAX_BITS]; kmax],
            end: vec![[0u64; W]; kmax],
            end_positions: Vec::new(),
        };
        let mut l0 = 0;
        while let Some(&c) = compiled.get(l0) {
            let run = compiled[l0..]
                .iter()
                .take_while(|&&d| std::ptr::eq(d, c))
                .count();
            planes.or_run(c, l0, l0 + run);
            l0 += run;
        }
        for (m, e) in planes.end.iter().enumerate() {
            if e.iter().any(|&w| w != 0) {
                planes.end_positions.push(m);
            }
        }
        planes
    }

    /// ORs `c`'s broadcast planes into lanes `l0..l1` (non-empty),
    /// touching only the words that range spans and the bit planes of
    /// `c`'s alphabet (the rest are zero).
    fn or_run(&mut self, c: &CompiledPattern, l0: usize, l1: usize) {
        let bits = c.pattern().alphabet().bits() as usize;
        let words = l0 / 64..l1.div_ceil(64);
        let mut mask = [0u64; W];
        for w in words.clone() {
            let lo = l0.saturating_sub(64 * w);
            let hi = (l1 - 64 * w).min(64);
            mask[w] = (!0u64 >> (64 - (hi - lo))) << lo;
        }
        for m in 0..c.len() {
            for w in words.clone() {
                self.wild[m][w] |= c.wild[m] & mask[w];
                for (plane, &bit) in self.pbits[m].iter_mut().zip(&c.bits[m]).take(bits) {
                    plane[w] |= bit & mask[w];
                }
            }
        }
        for w in words {
            self.end[c.len() - 1][w] |= mask[w];
        }
    }

    /// Runs the wide engine over per-lane texts through the dispatched
    /// kernel (see [`simd_level`]), returning each lane's ascending
    /// match ends.
    pub(crate) fn run(&self, texts: &[&[Symbol]]) -> Vec<Vec<usize>> {
        match simd_level() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: simd_level() returns Avx512 only after
            // is_x86_feature_detected!("avx512f") succeeded.
            SimdLevel::Avx512 => unsafe { run_wide_avx512(self, texts) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for "avx2".
            SimdLevel::Avx2 => unsafe { run_wide_avx2(self, texts) },
            _ => run_wide_generic(self, texts),
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_wide_avx2<const W: usize>(
    planes: &SuperPlanes<W>,
    texts: &[&[Symbol]],
) -> Vec<Vec<usize>> {
    run_wide_generic(planes, texts)
}

// Only "avx512f" — the kernel is plain `u64` word logic, so 512-bit
// integer ops from the F subset suffice, and enabling more would not be
// justified by the `detect_level` check that guards the call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn run_wide_avx512<const W: usize>(
    planes: &SuperPlanes<W>,
    texts: &[&[Symbol]],
) -> Vec<Vec<usize>> {
    run_wide_generic(planes, texts)
}

/// Text positions processed per transpose tile.
const BLOCK: usize = 8;

/// Replicates a byte's LSB column: `y & LSB_BYTES` keeps one chosen bit
/// in the LSB of each byte.
const LSB_BYTES: u64 = 0x0101_0101_0101_0101;

/// Multiply-pack factor: gathers the LSBs of all 8 bytes of a word into
/// the top byte, preserving order (byte `j` → bit `56 + j`; all 64
/// partial-product exponents are distinct, so no carries interfere).
const PACK: u64 = 0x0102_0408_1020_4080;

/// 8×8 bit-matrix transpose (Hacker's Delight §7-3): viewing a `u64`
/// as 8 rows of 8 bits, returns the word with `out[row j].bit i =
/// in[row i].bit j`.
#[inline(always)]
fn transpose8x8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// The strip-mined wide runner. Monomorphised three times on `x86_64`
/// (portable / AVX2 / AVX-512) via the `#[target_feature]` wrappers
/// above; `#[inline(always)]` makes each wrapper compile the whole loop
/// nest — transpose, step and scatter — under its feature set.
#[inline(always)]
fn run_wide_generic<const W: usize>(
    planes: &SuperPlanes<W>,
    texts: &[&[Symbol]],
) -> Vec<Vec<usize>> {
    let lanes = texts.len();
    // Callers pass 1..=W·64 lanes. Stating it here, inside the
    // dispatched function, lets the compiler drop the per-word bounds
    // checks in the gather and scatter loops below.
    assert!(
        (1..=lanes_of(W)).contains(&lanes),
        "{lanes} lanes in a W={W} batch"
    );
    let tmax = texts.iter().map(|t| t.len()).max().unwrap_or(0);
    let mut state = vec![[0u64; W]; planes.kmax];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); lanes];
    let groups = lanes.div_ceil(BLOCK);
    // One tile of text planes (BLOCK positions) and result planes.
    let mut txt = [[[0u64; W]; MAX_BITS]; BLOCK];
    let mut res = [[0u64; W]; BLOCK];
    let bits = planes.bits as usize;

    // Planes dirtied by the previous tile: at least the alphabet's,
    // more when a tile widened the comparison (see below).
    let mut dirty = bits;

    let mut i0 = 0;
    while i0 < tmax {
        let blk = BLOCK.min(tmax - i0);
        for t in txt.iter_mut().take(blk) {
            for plane in t.iter_mut().take(dirty) {
                *plane = [0u64; W];
            }
        }
        // Gather: for each group of 8 lanes, read 8 text bytes per lane
        // (one load-combined word), multiply-pack each alphabet bit
        // across the 8 positions, and rotate the 8×8 tile so bytes
        // become per-position rows. Exhausted lanes contribute zero
        // planes; their outputs are not recorded below.
        //
        // `tile_bits` widens the compared planes when a text symbol in
        // this tile carries bits above the patterns' alphabet: a
        // literal can never equal such a symbol, and comparing only the
        // alphabet planes would alias it onto an in-alphabet value.
        // Groups whose symbols stay in-alphabet skip the extra packing;
        // their high planes are (correctly) zero.
        let mut tile_bits = bits;
        for group in 0..groups {
            let word = group / 8;
            let shift = 8 * (group % 8) as u32;
            let mut xs = [0u64; BLOCK];
            let mut acc = 0u64;
            for (u, x) in xs.iter_mut().enumerate() {
                let l = group * BLOCK + u;
                if l >= lanes {
                    break;
                }
                let t = texts[l];
                *x = if i0 + BLOCK <= t.len() {
                    let tile: &[Symbol; BLOCK] =
                        t[i0..i0 + BLOCK].try_into().expect("tile is 8 symbols");
                    u64::from_le_bytes(tile.map(Symbol::value))
                } else if i0 < t.len() {
                    let mut x = 0u64;
                    for (j, s) in t[i0..].iter().enumerate() {
                        x |= (s.value() as u64) << (8 * j);
                    }
                    x
                } else {
                    continue;
                };
                acc |= *x;
            }
            let vor = {
                let mut v = acc;
                v |= v >> 32;
                v |= v >> 16;
                v |= v >> 8;
                v as u8
            };
            let group_bits = bits.max(8 - vor.leading_zeros() as usize);
            tile_bits = tile_bits.max(group_bits);
            let mut packed = [0u64; MAX_BITS];
            for (b, p) in packed.iter_mut().enumerate().take(group_bits) {
                for (u, &x) in xs.iter().enumerate() {
                    let col = ((x >> b) & LSB_BYTES).wrapping_mul(PACK) >> 56;
                    *p |= col << (8 * u);
                }
            }
            for (b, &p) in packed.iter().enumerate().take(group_bits) {
                let tile = transpose8x8(p);
                for (j, t) in txt.iter_mut().enumerate().take(blk) {
                    t[b][word] |= ((tile >> (8 * j)) & 0xff) << shift;
                }
            }
        }
        // Step: the vectorised recurrence, one call per text position.
        for j in 0..blk {
            res[j] = step_superplanes(
                &planes.wild,
                &planes.pbits,
                &planes.end,
                &planes.end_positions,
                tile_bits as u32,
                &mut state,
                &txt[j],
            );
        }
        dirty = tile_bits;
        // Scatter: matches are rare, so skip every 8-lane group whose
        // result byte is zero across the tile; transpose the rest back
        // and push one end per set bit. Exhausted lanes step on zero
        // planes, which read as value-0 symbols that a pattern of `A`s
        // and wild cards accepts, so ends at or past a lane's text
        // length are phantom hits and are dropped.
        for group in 0..groups {
            let word = group / 8;
            let shift = 8 * (group % 8) as u32;
            let mut tile = 0u64;
            for (j, r) in res.iter().enumerate().take(blk) {
                tile |= ((r[word] >> shift) & 0xff) << (8 * j);
            }
            if tile == 0 {
                continue;
            }
            tile = transpose8x8(tile);
            for u in 0..BLOCK {
                let l = group * BLOCK + u;
                if l >= lanes {
                    break;
                }
                let len = texts[l].len();
                let mut row = (tile >> (8 * u)) & 0xff;
                while row != 0 {
                    let end = i0 + row.trailing_zeros() as usize;
                    if end >= len {
                        break;
                    }
                    out[l].push(end);
                    row &= row - 1;
                }
            }
        }
        i0 += blk;
    }
    out
}

// ---------------------------------------------------------------------
// Public wide matchers.
// ---------------------------------------------------------------------

/// Matches up to `W × 64` independent `(pattern, text)` jobs in one
/// superplane batch; every lane may carry a different pattern of a
/// different length. This is the one batch kernel: a batch of one
/// pattern passes the same `&CompiledPattern` in every lane, and runs
/// of such lanes set up in O(k·W) (see [`SuperMatcher`]).
///
/// # Errors
///
/// [`Error::TooManyLanes`] if more than `W × 64` jobs are supplied.
pub fn match_lanes_wide<const W: usize>(
    jobs: &[(&CompiledPattern, &[Symbol])],
) -> Result<Vec<MatchBits>, Error> {
    const { assert!(W >= 1 && W <= MAX_WIDTH) };
    if jobs.len() > lanes_of(W) {
        return Err(Error::TooManyLanes {
            lanes: jobs.len(),
            capacity: lanes_of(W),
        });
    }
    if jobs.is_empty() {
        return Ok(Vec::new());
    }
    let compiled: Vec<&CompiledPattern> = jobs.iter().map(|(c, _)| *c).collect();
    let texts: Vec<&[Symbol]> = jobs.iter().map(|(_, t)| *t).collect();
    let planes = SuperPlanes::<W>::merge(&compiled);
    Ok(planes
        .run(&texts)
        .into_iter()
        .zip(jobs)
        .map(|(ends, (c, t))| MatchBits::from_ends(ends, t.len(), c.pattern().k()))
        .collect())
}

/// The superplane throughput engine for one pattern: any number of
/// independent text streams, processed `W × 64` per batch through the
/// runtime-dispatched kernel. `SuperMatcher<1>` is the 64-lane,
/// one-word engine; `W = 8` is the 512-lane engine figure E31
/// benchmarks.
#[derive(Debug, Clone)]
pub struct SuperMatcher<const W: usize> {
    compiled: CompiledPattern,
}

impl<const W: usize> SuperMatcher<W> {
    /// Compiles `pattern` into control-bit planes.
    pub fn new(pattern: &Pattern) -> Self {
        const { assert!(W >= 1 && W <= MAX_WIDTH) };
        SuperMatcher {
            compiled: CompiledPattern::compile(pattern),
        }
    }

    /// Wraps an already-compiled pattern (e.g. one from a cache).
    pub fn from_compiled(compiled: CompiledPattern) -> Self {
        const { assert!(W >= 1 && W <= MAX_WIDTH) };
        SuperMatcher { compiled }
    }

    /// The compiled control planes.
    pub fn compiled(&self) -> &CompiledPattern {
        &self.compiled
    }

    /// The pattern this matcher was built for.
    pub fn pattern(&self) -> &Pattern {
        self.compiled.pattern()
    }

    /// Lanes per superplane batch (`W × 64`).
    pub fn lanes_per_batch(&self) -> usize {
        lanes_of(W)
    }

    /// Matches every text stream against the pattern, `W × 64` lanes
    /// per superplane batch; `texts.len()` is unbounded and need not be
    /// a multiple of the batch width (the last chunk runs with idle
    /// lanes).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` mirrors the scalar matcher's
    /// API.
    pub fn match_streams(&self, texts: &[&[Symbol]]) -> Result<Vec<MatchBits>, Error> {
        let jobs: Vec<(&CompiledPattern, &[Symbol])> =
            texts.iter().map(|&t| (&self.compiled, t)).collect();
        let mut out = Vec::with_capacity(texts.len());
        for chunk in jobs.chunks(lanes_of(W)) {
            out.extend(match_lanes_wide::<W>(chunk)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// The beat-accurate superplane twin.
// ---------------------------------------------------------------------

/// Pattern payload for the superplane semantics: one pattern position
/// across all `W × 64` lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperPat<const W: usize> {
    /// Bit superplanes of the literal, LSB first.
    pub bits: [Superplane<W>; MAX_BITS],
    /// Lanes where this position is the wild card.
    pub wild: Superplane<W>,
}

/// Text payload for the superplane semantics: one text position across
/// all `W × 64` lanes, as bit superplanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperTxt<const W: usize> {
    /// Bit superplanes of the symbols, LSB first.
    pub bits: [Superplane<W>; MAX_BITS],
}

/// Result-stream payload for the superplane semantics: the completed
/// result superplane. A newtype because `Default` (required of
/// [`MeetSemantics::Out`] for incomplete-window positions) is not
/// implemented for generic-length arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperOut<const W: usize>(pub Superplane<W>);

impl<const W: usize> Default for SuperOut<W> {
    fn default() -> Self {
        SuperOut([0u64; W])
    }
}

/// [`MeetSemantics`] instance whose accumulator is a `W`-word
/// superplane: the unmodified systolic [`Driver`] advances `W × 64`
/// boolean matches per beat. All lanes share the pattern *length* (one
/// `λ` bit serves every lane); contents may differ per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperBoolean<const W: usize> {
    /// Alphabet width in bits (the number of comparator planes).
    pub bits: u32,
}

impl<const W: usize> MeetSemantics for SuperBoolean<W> {
    type Pat = SuperPat<W>;
    type Txt = SuperTxt<W>;
    type Acc = Superplane<W>;
    type Out = SuperOut<W>;

    fn fresh(&self) -> Superplane<W> {
        [!0u64; W] // t ← TRUE, in every lane at once
    }

    fn absorb(&self, acc: &mut Superplane<W>, pat: &SuperPat<W>, txt: &SuperTxt<W>) {
        // t ← t ∧ (x ∨ d), W × 64 lanes per beat.
        let d = eq_superplane(&pat.bits, &txt.bits, self.bits);
        for w in 0..W {
            acc[w] &= pat.wild[w] | d[w];
        }
    }

    fn finish(&self, acc: Superplane<W>) -> SuperOut<W> {
        SuperOut(acc)
    }
}

/// Packs up to `W × 64` equal-length patterns into superplane pattern
/// items for [`SuperBoolean`].
///
/// # Errors
///
/// * [`Error::EmptyPattern`] if no patterns are given.
/// * [`Error::TooManyLanes`] for more than `W × 64`.
/// * [`Error::RaggedLanePatterns`] if the lengths differ (use
///   [`match_lanes_wide`] for ragged batches).
pub fn pack_patterns_wide<const W: usize>(patterns: &[Pattern]) -> Result<Vec<SuperPat<W>>, Error> {
    const { assert!(W >= 1 && W <= MAX_WIDTH) };
    let first = patterns.first().ok_or(Error::EmptyPattern)?;
    if patterns.len() > lanes_of(W) {
        return Err(Error::TooManyLanes {
            lanes: patterns.len(),
            capacity: lanes_of(W),
        });
    }
    let k1 = first.len();
    if patterns.iter().any(|p| p.len() != k1) {
        return Err(Error::RaggedLanePatterns);
    }
    let mut items = vec![
        SuperPat {
            bits: [[0u64; W]; MAX_BITS],
            wild: [0u64; W],
        };
        k1
    ];
    for (l, p) in patterns.iter().enumerate() {
        let (word, bit) = (l / 64, (l % 64) as u32);
        let lane = 1u64 << bit;
        for (m, sym) in p.symbols().iter().enumerate() {
            match sym {
                PatSym::Wild => items[m].wild[word] |= lane,
                PatSym::Lit(s) => {
                    let v = s.value();
                    for (b, plane) in items[m].bits.iter_mut().enumerate() {
                        if (v >> b) & 1 == 1 {
                            plane[word] |= lane;
                        }
                    }
                }
            }
        }
    }
    Ok(items)
}

/// A plane driver takes exactly one text per lane it was built with.
fn check_lane_count(texts: usize, lanes: usize) -> Result<(), Error> {
    if texts == lanes {
        Ok(())
    } else {
        Err(Error::LaneCountMismatch {
            lanes: texts,
            expected: lanes,
        })
    }
}

/// The beat-accurate superplane matcher: `[u64; W]` planes flowing
/// through the existing [`Driver`] with [`SuperBoolean`] semantics.
/// One beat of this driver is one beat of the scalar array — in all
/// `W × 64` lanes simultaneously. [`run_with_sink`](Self::run_with_sink)
/// is its one run loop and emits beat-level events with
/// occupancy-masked popcounts summed over the `W` words.
#[derive(Debug, Clone)]
pub struct SuperplaneDriver<const W: usize> {
    driver: Driver<SuperBoolean<W>>,
    k: usize,
    lanes: usize,
}

impl<const W: usize> SuperplaneDriver<W> {
    /// Builds a batched driver over `patterns` (up to `W × 64`, equal
    /// length; the array gets exactly `k+1` cells as in §3.2.1).
    ///
    /// # Errors
    ///
    /// As [`pack_patterns_wide`].
    pub fn new(patterns: &[Pattern]) -> Result<Self, Error> {
        let items = pack_patterns_wide::<W>(patterns)?;
        let bits = patterns
            .iter()
            .map(|p| p.alphabet().bits())
            .max()
            .unwrap_or(1);
        let cells = items.len();
        let k = cells - 1;
        let driver = Driver::new(SuperBoolean { bits }, items, &[cells])?;
        Ok(SuperplaneDriver {
            driver,
            k,
            lanes: patterns.len(),
        })
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs every lane's text through the array (texts may have
    /// different lengths; shorter lanes idle on zero planes, whose
    /// results are discarded) and returns one [`MatchBits`] per lane.
    /// This is [`run_with_sink`](Self::run_with_sink) with a
    /// [`NullSink`].
    ///
    /// # Errors
    ///
    /// [`Error::LaneCountMismatch`] unless there is exactly one text per
    /// lane the driver was built with.
    pub fn run(&mut self, texts: &[&[Symbol]]) -> Result<Vec<MatchBits>, Error> {
        self.run_with_sink(texts, &NullSink)
    }

    /// As [`run`](Self::run), emitting beat-level [`TraceEvent`]s into
    /// `sink`. Each beat records, in order, [`TraceEvent::TextInjected`]
    /// on text beats, two [`TraceEvent::Clock`] phases, and one
    /// [`TraceEvent::ComparatorFire`] per exiting complete-window result
    /// with the popcount of matching *occupied* lanes summed across all
    /// `W` words of the superplane.
    ///
    /// There is one run loop, [`Driver::run_observed`]; the sink only
    /// decides what its per-beat observer does. A [`NullSink`] is
    /// disabled at compile time, so the observer is empty; a sink behind
    /// `dyn TraceSink` that reports itself disabled costs one
    /// `enabled()` call per beat.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with_sink<K: TraceSink + ?Sized>(
        &mut self,
        texts: &[&[Symbol]],
        sink: &K,
    ) -> Result<Vec<MatchBits>, Error> {
        check_lane_count(texts.len(), self.lanes)?;
        let stream = self.transpose(texts);
        // Per-position occupancy: lanes whose text still covers
        // position `i`. Exhausted lanes idle on zero planes and may
        // fire spuriously, so the comparator popcount masks them out.
        // Only emission reads this, so a disabled sink skips the build.
        let occupancy: Vec<Superplane<W>> = if !sink.enabled() {
            Vec::new()
        } else {
            (0..stream.len())
                .map(|i| {
                    let mut m = [0u64; W];
                    for (l, t) in texts.iter().enumerate() {
                        if i < t.len() {
                            m[l / 64] |= 1u64 << (l % 64);
                        }
                    }
                    m
                })
                .collect()
        };
        let k = self.k;
        let planes = self.driver.run_observed(&stream, |exit| {
            if !sink.enabled() {
                return;
            }
            let beat = exit.beat;
            if let Some(seq) = exit.injected {
                sink.record(TraceEvent::TextInjected { beat, seq });
            }
            for phase in [ClockPhase::Phi1, ClockPhase::Phi2] {
                sink.record(TraceEvent::Clock { beat, phase });
            }
            if let Some(res) = &exit.result {
                let i = res.seq as usize;
                if i >= k && i < occupancy.len() {
                    let lanes = res
                        .value
                        .0
                        .iter()
                        .zip(&occupancy[i])
                        .map(|(v, o)| (v & o).count_ones())
                        .sum();
                    sink.record(TraceEvent::ComparatorFire {
                        beat,
                        seq: res.seq,
                        lanes,
                    });
                }
            }
        });
        Ok(self.collect(texts, &planes))
    }

    /// Transposes per-lane texts into the per-position superplane stream.
    fn transpose(&self, texts: &[&[Symbol]]) -> Vec<SuperTxt<W>> {
        let tmax = texts.iter().map(|t| t.len()).max().unwrap_or(0);
        (0..tmax)
            .map(|i| {
                let mut bits = [[0u64; W]; MAX_BITS];
                for (l, t) in texts.iter().enumerate() {
                    if let Some(sym) = t.get(i) {
                        let v = sym.value();
                        let (word, bit) = (l / 64, (l % 64) as u32);
                        for (b, plane) in bits.iter_mut().enumerate() {
                            if (v >> b) & 1 == 1 {
                                plane[word] |= 1u64 << bit;
                            }
                        }
                    }
                }
                SuperTxt { bits }
            })
            .collect()
    }

    /// Slices per-position result planes back into per-lane [`MatchBits`].
    fn collect(&self, texts: &[&[Symbol]], planes: &[SuperOut<W>]) -> Vec<MatchBits> {
        texts
            .iter()
            .enumerate()
            .map(|(l, t)| {
                let (word, bit) = (l / 64, (l % 64) as u32);
                let bits = planes[..t.len()]
                    .iter()
                    .map(|p| (p.0[word] >> bit) & 1 == 1)
                    .collect();
                MatchBits::new(bits, self.k)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::LANES;
    use crate::spec::match_spec;
    use crate::symbol::text_from_letters;

    fn letters(s: &str) -> Vec<Symbol> {
        text_from_letters(s).unwrap()
    }

    /// One lane-packed batch with `c` in every lane.
    fn repeated<'a>(
        c: &'a CompiledPattern,
        texts: &[&'a [Symbol]],
    ) -> Vec<(&'a CompiledPattern, &'a [Symbol])> {
        texts.iter().map(|&t| (c, t)).collect()
    }

    #[test]
    fn figure_3_1_in_every_lane() {
        let m = SuperMatcher::<1>::new(&Pattern::parse("AXC").unwrap());
        let t = letters("ABCAACCAB");
        let texts: Vec<&[Symbol]> = (0..LANES + 7).map(|_| t.as_slice()).collect();
        let hits = m.match_streams(&texts).unwrap();
        assert_eq!(hits.len(), LANES + 7);
        for h in hits {
            assert_eq!(h.ending_positions(), vec![2, 5, 6]);
        }
    }

    #[test]
    fn uniform_batch_matches_spec_on_distinct_texts() {
        let p = Pattern::parse("ABXA").unwrap();
        let m = SuperMatcher::<1>::new(&p);
        let texts = [
            letters("ABCABBAACBA"),
            letters("ABBA"),
            letters(""),
            letters("A"),
            letters("ABCAABBAABCAABBA"),
        ];
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let hits = m.match_streams(&lanes).unwrap();
        for (h, t) in hits.iter().zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, &p), "text {t:?}");
        }
    }

    #[test]
    fn literal_never_matches_a_symbol_outside_the_pattern_alphabet() {
        // Pattern "AB" compiles to a 2-bit alphabet; E (100) and F
        // (101) alias to A (00) and B (01) on the low planes. The
        // kernel must widen the comparison for such positions rather
        // than report "EF" as "AB" — regression for the dynamic-width
        // fix in the W = 1 kernel.
        let p = Pattern::parse("AB").unwrap();
        let compiled = CompiledPattern::compile(&p);
        let wide = letters("DEFGDEFGABDEFG");
        let narrow = letters("ABAB");
        let texts: Vec<&[Symbol]> = vec![&narrow, &wide];
        let hits = match_lanes_wide::<1>(&repeated(&compiled, &texts)).unwrap();
        assert_eq!(hits[0].bits(), match_spec(&narrow, &p));
        assert_eq!(hits[1].bits(), match_spec(&wide, &p));
        assert_eq!(hits[1].ending_positions(), vec![9]);
        // Wild cards still match out-of-alphabet symbols.
        let w = Pattern::parse("XB").unwrap();
        let cw = CompiledPattern::compile(&w);
        let hits = match_lanes_wide::<1>(&repeated(&cw, &[&wide])).unwrap();
        assert_eq!(hits[0].bits(), match_spec(&wide, &w));
    }

    #[test]
    fn mixed_lanes_with_ragged_pattern_lengths() {
        let pats = [
            Pattern::parse("A").unwrap(),
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBBBB").unwrap(),
            Pattern::parse("XX").unwrap(),
        ];
        let compiled: Vec<CompiledPattern> = pats.iter().map(CompiledPattern::compile).collect();
        let text = letters("ABCAACCABBBBBAB");
        let jobs: Vec<(&CompiledPattern, &[Symbol])> =
            compiled.iter().map(|c| (c, text.as_slice())).collect();
        let hits = match_lanes_wide::<1>(&jobs).unwrap();
        for (h, p) in hits.iter().zip(&pats) {
            assert_eq!(h.bits(), match_spec(&text, p), "pattern {p}");
        }
    }

    #[test]
    fn lane_limits_are_enforced() {
        let p = Pattern::parse("AB").unwrap();
        let c = CompiledPattern::compile(&p);
        let t = letters("AB");
        let too_many: Vec<&[Symbol]> = (0..LANES + 1).map(|_| t.as_slice()).collect();
        assert!(matches!(
            match_lanes_wide::<1>(&repeated(&c, &too_many)),
            Err(Error::TooManyLanes {
                lanes: 65,
                capacity: 64
            })
        ));
        assert!(SuperMatcher::<1>::from_compiled(c)
            .match_streams(&[])
            .unwrap()
            .is_empty());
        assert!(match_lanes_wide::<1>(&[]).unwrap().is_empty());
    }

    #[test]
    fn eight_bit_alphabet_lanes() {
        use crate::symbol::Alphabet;
        let p = Pattern::from_bytes(b"ab*a", Some(b'*'), Alphabet::EIGHT_BIT).unwrap();
        let m = SuperMatcher::<1>::new(&p);
        let t1: Vec<Symbol> = b"abba abca".iter().map(|&b| Symbol::new(b)).collect();
        let t2: Vec<Symbol> = b"xyz".iter().map(|&b| Symbol::new(b)).collect();
        let hits = m.match_streams(&[&t1, &t2]).unwrap();
        assert_eq!(hits[0].bits(), match_spec(&t1, &p));
        assert_eq!(hits[1].bits(), match_spec(&t2, &p));
        assert_eq!(hits[0].ending_positions(), vec![3, 8]);
    }

    #[test]
    fn transpose8x8_is_an_involution_on_known_tiles() {
        // Row 0 = 0b10000001, all other rows zero → column pattern.
        let x = 0x81u64;
        let t = transpose8x8(x);
        assert_eq!(t, 0x0100_0000_0000_0001, "{t:#018x}");
        assert_eq!(transpose8x8(t), x);
        // A full random-ish tile transposes twice to itself.
        let y = 0xDEAD_BEEF_0123_4567u64;
        assert_eq!(transpose8x8(transpose8x8(y)), y);
    }

    #[test]
    fn multiply_pack_gathers_byte_lsbs_in_order() {
        // Bytes 0,2,5 have their LSB set → packed bits 0,2,5.
        let x = 0x0000_0100_0001_0001u64;
        let col = (x & LSB_BYTES).wrapping_mul(PACK) >> 56;
        assert_eq!(col, 0b0010_0101);
    }

    #[test]
    fn figure_3_1_in_every_wide_lane() {
        let t = letters("ABCAACCAB");
        let p = Pattern::parse("AXC").unwrap();
        let m = SuperMatcher::<4>::new(&p);
        let texts: Vec<&[Symbol]> = (0..lanes_of(4) + 13).map(|_| t.as_slice()).collect();
        let hits = m.match_streams(&texts).unwrap();
        assert_eq!(hits.len(), lanes_of(4) + 13);
        for h in hits {
            assert_eq!(h.ending_positions(), vec![2, 5, 6]);
        }
    }

    #[test]
    fn wide_kernels_never_alias_out_of_alphabet_symbols() {
        // "AB" compiles to a 2-bit alphabet, so E (100) and F (101)
        // alias to A and B on the low planes; the tile gather must
        // widen the comparison for groups whose text carries high
        // bits — regression for the dynamic-width fix in
        // run_wide_generic. Mixing in-alphabet and wide lanes in the
        // same tile exercises the per-group widening.
        let p = Pattern::parse("AB").unwrap();
        let compiled = CompiledPattern::compile(&p);
        let wide = letters("DEFGDEFGABDEFG");
        let narrow = letters("ABAB");
        let lanes: Vec<&[Symbol]> = (0..lanes_of(4) - 7)
            .map(|i| {
                if i % 2 == 0 {
                    narrow.as_slice()
                } else {
                    wide.as_slice()
                }
            })
            .collect();
        let hits = match_lanes_wide::<4>(&repeated(&compiled, &lanes)).unwrap();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.bits(), match_spec(lanes[i], &p), "lane {i}");
        }
        let hits = match_lanes_wide::<8>(&repeated(&compiled, &lanes)).unwrap();
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.bits(), match_spec(lanes[i], &p), "lane {i}");
        }
    }

    #[test]
    fn uniform_widths_agree_with_each_other_and_spec_on_ragged_texts() {
        let p = Pattern::parse("ABXA").unwrap();
        let texts: Vec<Vec<Symbol>> = [
            "ABCABBAACBA",
            "ABBA",
            "",
            "A",
            "ABCAABBAABCAABBA",
            "AAAAAAA",
            "BACABBA",
        ]
        .iter()
        .map(|s| letters(s))
        .collect();
        // Repeat to cross the 64-lane and partial-tile boundaries.
        let lanes: Vec<&[Symbol]> = texts
            .iter()
            .cycle()
            .take(3 * 64 + 17)
            .map(|t| t.as_slice())
            .collect();
        let narrow = SuperMatcher::<1>::new(&p).match_streams(&lanes).unwrap();
        let wide4 = SuperMatcher::<4>::new(&p).match_streams(&lanes).unwrap();
        let wide8 = SuperMatcher::<8>::new(&p).match_streams(&lanes).unwrap();
        for (((n, w4), w8), t) in narrow.iter().zip(&wide4).zip(&wide8).zip(lanes.iter()) {
            assert_eq!(n.bits(), match_spec(t, &p));
            assert_eq!(n, w4);
            assert_eq!(n, w8);
        }
    }

    #[test]
    fn wide_mixed_lanes_agree_with_w1() {
        let pats = [
            Pattern::parse("A").unwrap(),
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBBBB").unwrap(),
            Pattern::parse("XX").unwrap(),
        ];
        let compiled: Vec<CompiledPattern> = pats.iter().map(CompiledPattern::compile).collect();
        let text = letters("ABCAACCABBBBBABACCAB");
        let jobs: Vec<(&CompiledPattern, &[Symbol])> = compiled
            .iter()
            .cycle()
            .take(64 + 9)
            .map(|c| (c, text.as_slice()))
            .collect();
        let wide = match_lanes_wide::<2>(&jobs).unwrap();
        for (chunk, hits) in jobs.chunks(64).zip(wide.chunks(64)) {
            let narrow = match_lanes_wide::<1>(chunk).unwrap();
            assert_eq!(narrow, hits);
        }
        for ((c, t), h) in jobs.iter().zip(&wide) {
            assert_eq!(h.bits(), match_spec(t, c.pattern()));
        }
    }

    #[test]
    fn wide_lane_limits_are_enforced() {
        let p = Pattern::parse("AB").unwrap();
        let c = CompiledPattern::compile(&p);
        let t = letters("AB");
        let too_many: Vec<&[Symbol]> = (0..lanes_of(2) + 1).map(|_| t.as_slice()).collect();
        assert!(matches!(
            match_lanes_wide::<2>(&repeated(&c, &too_many)),
            Err(Error::TooManyLanes {
                lanes: 129,
                capacity: 128
            })
        ));
        assert!(match_lanes_wide::<2>(&[]).unwrap().is_empty());
    }

    #[test]
    fn one_run_equals_one_run_per_lane_at_w1() {
        // One shared compilation merges as a single run; a fresh
        // compilation per lane (value-equal, distinct addresses) merges
        // as 64 one-lane runs. The planes, and so the results, agree.
        let p = Pattern::parse("CXXA").unwrap();
        let texts: Vec<Vec<Symbol>> = (0..64)
            .map(|i| letters(&"CABACCAABCA".repeat(1 + i % 3)))
            .collect();
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let c = CompiledPattern::compile(&p);
        let each: Vec<CompiledPattern> = lanes.iter().map(|_| c.clone()).collect();
        let per_lane: Vec<(&CompiledPattern, &[Symbol])> =
            each.iter().zip(&lanes).map(|(c, &t)| (c, t)).collect();
        assert_eq!(
            match_lanes_wide::<1>(&repeated(&c, &lanes)).unwrap(),
            match_lanes_wide::<1>(&per_lane).unwrap()
        );
    }

    #[test]
    fn superplane_driver_w2_equals_w1_and_spec() {
        let pats: Vec<Pattern> = ["AXC", "BBC", "XXX", "CAB", "ACA"]
            .iter()
            .cycle()
            .take(70) // spills into the second word of a W=2 superplane
            .map(|s| Pattern::parse(s).unwrap())
            .collect();
        let texts: Vec<Vec<Symbol>> = (0..70).map(|i| letters(&"ABCAACCAB"[..(i % 10)])).collect();
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let mut wide = SuperplaneDriver::<2>::new(&pats).unwrap();
        let got = wide.run(&lanes).unwrap();
        for ((h, p), t) in got.iter().zip(&pats).zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, p), "pattern {p}");
        }
        // The first 64 lanes are exactly a one-word batch.
        let mut narrow = SuperplaneDriver::<1>::new(&pats[..64]).unwrap();
        let narrow_hits = narrow.run(&lanes[..64]).unwrap();
        assert_eq!(&got[..64], &narrow_hits[..]);
    }

    #[test]
    fn superplane_driver_traced_run_is_bit_identical() {
        use crate::telemetry::{MemorySink, NullSink, TraceEvent};
        let pats: Vec<Pattern> = ["AXC", "BBC", "CAB"]
            .iter()
            .cycle()
            .take(66)
            .map(|s| Pattern::parse(s).unwrap())
            .collect();
        let texts: Vec<Vec<Symbol>> = (0..66)
            .map(|i| letters(if i % 2 == 0 { "ABCAACCAB" } else { "BBC" }))
            .collect();
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let mut d = SuperplaneDriver::<2>::new(&pats).unwrap();
        let plain = d.run(&lanes).unwrap();
        let silent = d.run_with_sink(&lanes, &NullSink).unwrap();
        let sink = MemorySink::new();
        let traced = d.run_with_sink(&lanes, &sink).unwrap();
        assert_eq!(plain, silent);
        assert_eq!(plain, traced);
        // Comparator fires carry the ground-truth popcount across all
        // W words, occupancy-masked.
        let fired: u32 = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ComparatorFire { lanes, .. } => Some(*lanes),
                _ => None,
            })
            .sum();
        let truth: u32 = plain.iter().map(|h| h.count() as u32).sum();
        assert_eq!(fired, truth);
        let injected = sink
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::TextInjected { .. }))
            .count();
        assert_eq!(injected, 9); // tmax text positions
    }

    #[test]
    fn superplane_driver_rejects_a_wrong_text_count() {
        use crate::telemetry::NullSink;
        let pats: Vec<Pattern> = (0..70).map(|_| Pattern::parse("AXC").unwrap()).collect();
        let t = letters("ABCAACCAB");
        let mut d = SuperplaneDriver::<2>::new(&pats).unwrap();
        for n in [69, 71] {
            let texts: Vec<&[Symbol]> = (0..n).map(|_| t.as_slice()).collect();
            let want = Error::LaneCountMismatch {
                lanes: n,
                expected: 70,
            };
            assert_eq!(d.run(&texts), Err(want.clone()));
            assert_eq!(d.run_with_sink(&texts, &NullSink), Err(want));
        }
    }

    #[test]
    fn w1_driver_equals_spec_per_lane() {
        let pats = [
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBC").unwrap(),
            Pattern::parse("XXX").unwrap(),
            Pattern::parse("CAB").unwrap(),
        ];
        let texts = [
            letters("ABCAACCAB"),
            letters("BBCBBC"),
            letters("AB"),
            letters("CABCABCAB"),
        ];
        let mut d = SuperplaneDriver::<1>::new(&pats).unwrap();
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let hits = d.run(&lanes).unwrap();
        for ((h, p), t) in hits.iter().zip(&pats).zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, p), "pattern {p}");
        }
    }

    #[test]
    fn w1_driver_traced_run_is_bit_identical() {
        use crate::telemetry::{MemorySink, NullSink, TraceEvent};
        let pats = [
            Pattern::parse("AXC").unwrap(),
            Pattern::parse("BBC").unwrap(),
            Pattern::parse("CAB").unwrap(),
        ];
        let texts = [letters("ABCAACCAB"), letters("BBC"), letters("CABCABCAB")];
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        let mut d = SuperplaneDriver::<1>::new(&pats).unwrap();
        let plain = d.run(&lanes).unwrap();
        let silent = d.run_with_sink(&lanes, &NullSink).unwrap();
        let sink = MemorySink::new();
        let traced = d.run_with_sink(&lanes, &sink).unwrap();
        assert_eq!(plain, silent);
        assert_eq!(plain, traced);
        for ((h, p), t) in plain.iter().zip(&pats).zip(&texts) {
            assert_eq!(h.bits(), match_spec(t, p), "pattern {p}");
        }
        // Two clock phases per beat; beats = 2·tmax feed + 2·slack drain.
        let events = sink.events();
        let clocks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Clock { .. }))
            .count();
        let slack = 3 + 2 * 3 + 4; // total_cells + 2·pattern_len + 4
        assert_eq!(clocks, 2 * (2 * 9 + 2 * slack));
        let injected = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::TextInjected { .. }))
            .count();
        assert_eq!(injected, 9); // one per text position (tmax)
                                 // Comparator fires carry the ground-truth lane popcount.
        let fired: u32 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ComparatorFire { lanes, .. } => Some(*lanes),
                _ => None,
            })
            .sum();
        let truth: u32 = plain.iter().map(|h| h.count() as u32).sum();
        assert_eq!(fired, truth);
    }

    #[test]
    fn w1_driver_rejects_ragged_patterns() {
        let pats = [
            Pattern::parse("AB").unwrap(),
            Pattern::parse("ABC").unwrap(),
        ];
        assert!(matches!(
            SuperplaneDriver::<1>::new(&pats),
            Err(Error::RaggedLanePatterns)
        ));
        assert!(matches!(
            SuperplaneDriver::<1>::new(&[]),
            Err(Error::EmptyPattern)
        ));
    }

    #[test]
    fn w1_driver_rejects_a_wrong_text_count() {
        use crate::telemetry::NullSink;
        let pats = [
            Pattern::parse("AB").unwrap(),
            Pattern::parse("BA").unwrap(),
            Pattern::parse("XA").unwrap(),
        ];
        let t = letters("ABAB");
        let mut d = SuperplaneDriver::<1>::new(&pats).unwrap();
        for n in [2, 4] {
            let texts: Vec<&[Symbol]> = (0..n).map(|_| t.as_slice()).collect();
            let want = Error::LaneCountMismatch {
                lanes: n,
                expected: 3,
            };
            assert_eq!(d.run(&texts), Err(want.clone()));
            assert_eq!(d.run_with_sink(&texts, &NullSink), Err(want));
        }
    }

    #[test]
    fn simd_level_is_stable_and_printable() {
        let level = simd_level();
        assert_eq!(level, simd_level(), "detection must be cached");
        assert!(["portable", "avx2", "avx512"].contains(&level.name()));
        assert_eq!(level.to_string(), level.name());
    }

    /// Spec match ends for one lane.
    fn spec_ends(text: &[Symbol], p: &Pattern) -> Vec<usize> {
        MatchBits::new(match_spec(text, p), p.k()).ending_positions()
    }

    /// Ragged lanes against an all-`A` pattern: past a short lane's
    /// end the kernel steps on zero planes, i.e. on value-0 symbols,
    /// so the padded tail "matches" `AAA` in the kernel. Those phantom
    /// ends lie at or past the lane's length and must never surface.
    fn ragged_tails_raise_no_phantom_hits_at<const W: usize>() {
        let p = Pattern::parse("AAA").unwrap();
        let c = CompiledPattern::compile(&p);
        let texts: Vec<Vec<Symbol>> = [
            "",
            "A",
            "BA",
            "BBAA",
            "AAAB",
            "CAAAA",
            "BBBBBBBBBBBBBBBBBBBA",
        ]
        .iter()
        .map(|s| letters(s))
        .collect();
        let lanes: Vec<&[Symbol]> = texts.iter().map(Vec::as_slice).collect();
        let hits = match_lanes_wide::<W>(&repeated(&c, &lanes)).unwrap();
        for (l, (h, t)) in hits.iter().zip(&lanes).enumerate() {
            assert_eq!(h.ending_positions(), spec_ends(t, &p), "W={W} lane {l}");
            assert_eq!(h.bits(), match_spec(t, &p), "W={W} lane {l}");
        }
    }

    #[test]
    fn ragged_tails_raise_no_phantom_hits() {
        ragged_tails_raise_no_phantom_hits_at::<1>();
        ragged_tails_raise_no_phantom_hits_at::<4>();
        ragged_tails_raise_no_phantom_hits_at::<8>();
    }

    /// Every lane of a full batch, lengths ragged around the 8-position
    /// tile, with the longest lane (the last) matching only at its
    /// final position — inside the last, partial tile — and a lone
    /// match in a short lane's partial tile too.
    fn last_partial_tile_hit_at<const W: usize>() {
        let p = Pattern::parse("AXC").unwrap();
        let c = CompiledPattern::compile(&p);
        let n = lanes_of(W);
        let texts: Vec<Vec<Symbol>> = (0..n)
            .map(|l| {
                let len = if l == n - 1 {
                    4 * BLOCK + 5
                } else {
                    3 + l % 13
                };
                let mut t = letters(&"B".repeat(len));
                if l == n - 1 || l % 5 == 0 {
                    let end = len - 1;
                    t[end - 2] = letters("A")[0];
                    t[end] = letters("C")[0];
                }
                t
            })
            .collect();
        let lanes: Vec<&[Symbol]> = texts.iter().map(Vec::as_slice).collect();
        let hits = match_lanes_wide::<W>(&repeated(&c, &lanes)).unwrap();
        let last = hits.last().unwrap();
        assert_eq!(last.ending_positions(), vec![4 * BLOCK + 4], "W={W}");
        for (l, (h, t)) in hits.iter().zip(&lanes).enumerate() {
            assert_eq!(h.ending_positions(), spec_ends(t, &p), "W={W} lane {l}");
        }
    }

    #[test]
    fn a_hit_in_the_last_partial_tile_is_reported() {
        last_partial_tile_hit_at::<1>();
        last_partial_tile_hit_at::<4>();
        last_partial_tile_hit_at::<8>();
    }
}
