//! The unified fault taxonomy and the seeded chaos harness.
//!
//! §4 of the paper argues that a special-purpose array is only a
//! product if the production program *assumes* defective cells:
//! detection and redundancy are designed in, not bolted on. The
//! [`recovery`](crate::recovery) module reproduces that discipline for
//! the single-stream cascade (BIST scrub → condemn → spare-remap); this
//! module extends it to the superplane throughput scheduler, in two
//! parts:
//!
//! * **One fault vocabulary.** Every layer previously named its faults
//!   alone — [`ChipFault`] for stuck output drivers,
//!   [`HostError`] for protocol-visible sickness, and nothing at all
//!   for the scheduler. [`Fault`] unifies them (plus the new
//!   scheduler-level [`PlaneFault`] kinds) behind one enum with one
//!   stable [`label`](Fault::label) per kind, so telemetry counters and
//!   log lines agree on names across layers.
//!
//! * **A deterministic chaos harness.** [`FaultPlan`] is a seeded
//!   description of which scheduler workers are defective, what kind of
//!   sticky datapath fault each carries, and when it first bites.
//!   Everything is derived from the seed with [`XorShift64`] (the
//!   workspace is offline and vendors no RNG crate), so a failing CI
//!   seed reproduces exactly on a laptop. The plan follows §4's
//!   *single-stuck-at* philosophy: faults are **sticky** — once a
//!   worker's fault activates it corrupts every batch that worker
//!   touches from then on, which is precisely what makes the
//!   scheduler's exit known-answer test (see
//!   [`throughput`](crate::throughput)) a sound commit gate.
//!
//! ```
//! use pm_chip::faults::{Fault, FaultPlan, PlaneFault};
//!
//! let plan = FaultPlan::new(42).with_worker_fault_permille(1000);
//! let sticky = plan.worker_fault(0).expect("permille 1000 afflicts everyone");
//! assert_eq!(plan.worker_fault(0), Some(sticky)); // fully deterministic
//! let fault: Fault = sticky.kind.into();
//! assert!(!fault.label().is_empty());
//! ```

use crate::host::HostError;
use crate::recovery::ChipFault;
use pm_systolic::engine::MatchBits;
use std::fmt;

/// A splitmix64-style bit finaliser: spreads a small integer (worker
/// index, batch number) over the whole word so derived seeds are
/// independent streams.
pub const fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator (xorshift64\*): good enough for fault
/// placement and jitter, zero dependencies, `Copy`-cheap. Never yields
/// the all-zero state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is remapped to a fixed
    /// constant (the xorshift state must never be zero).
    pub const fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..=max` (inclusive), without panicking at the
    /// numeric limits.
    pub fn bounded(&mut self, max: u64) -> u64 {
        if max == u64::MAX {
            self.next_u64()
        } else {
            self.next_u64() % (max + 1)
        }
    }

    /// `true` with probability `permille / 1000` (values ≥ 1000 are
    /// always true).
    pub fn chance(&mut self, permille: u32) -> bool {
        if permille >= 1000 {
            return true;
        }
        self.next_u64() % 1000 < u64::from(permille)
    }
}

/// A sticky datapath fault afflicting one scheduler worker — the
/// scheduler-level analogue of §4's single-stuck-at model. The first
/// three corrupt result bits; the last two attack the worker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneFault {
    /// One result bit of one lane flips per batch (a lane upset in the
    /// `Superplane<W>` result planes).
    LaneUpset,
    /// A comparator column is stuck: every result bit of one lane reads
    /// `level` regardless of the text.
    StuckComparator {
        /// The level the comparator is stuck at.
        level: bool,
    },
    /// The worker's compiled-pattern cache is poisoned: batches served
    /// from a cache *hit* use corrupted control planes and come back
    /// wrong; fresh compiles are clean.
    CachePoison,
    /// The worker dawdles: each batch takes an extra fixed wall-clock
    /// stall ([`FaultPlan::stall_millis`]), tripping the scheduler
    /// watchdog. Results are not corrupted.
    WorkerStall,
    /// The worker panics mid-batch.
    WorkerPanic,
}

impl PlaneFault {
    /// Stable snake_case label, shared by telemetry and logs.
    pub const fn label(self) -> &'static str {
        match self {
            PlaneFault::LaneUpset => "lane_upset",
            PlaneFault::StuckComparator { .. } => "stuck_comparator",
            PlaneFault::CachePoison => "cache_poison",
            PlaneFault::WorkerStall => "worker_stall",
            PlaneFault::WorkerPanic => "worker_panic",
        }
    }

    /// Whether this fault corrupts result data (as opposed to timing
    /// or liveness).
    pub const fn corrupts_data(self) -> bool {
        matches!(
            self,
            PlaneFault::LaneUpset | PlaneFault::StuckComparator { .. } | PlaneFault::CachePoison
        )
    }
}

impl fmt::Display for PlaneFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaneFault::LaneUpset => write!(f, "lane upset in the result planes"),
            PlaneFault::StuckComparator { level } => {
                write!(f, "comparator column stuck-at-{level}")
            }
            PlaneFault::CachePoison => write!(f, "compiled-pattern cache poisoned"),
            PlaneFault::WorkerStall => write!(f, "worker stalls past the watchdog"),
            PlaneFault::WorkerPanic => write!(f, "worker panics mid-batch"),
        }
    }
}

/// Every fault the workspace can name, in one enum: chip-level stuck
/// pins ([`ChipFault`]), host-protocol sickness ([`HostError`]) and
/// scheduler-level plane faults ([`PlaneFault`]). `From` conversions
/// exist from all three, so any layer's fault can be logged and
/// counted under one [`label`](Fault::label) vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A stuck-at fault on a cascade chip's output drivers.
    Chip(ChipFault),
    /// A host-protocol error (bad byte, no pattern, stall).
    Host(HostError),
    /// A scheduler-worker datapath fault.
    Plane(PlaneFault),
}

impl Fault {
    /// Stable snake_case label for telemetry counters and log lines.
    /// Labels are unique per fault kind across all three layers.
    pub const fn label(&self) -> &'static str {
        match self {
            Fault::Chip(ChipFault::ResultStuck(_)) => "result_stuck",
            Fault::Chip(ChipFault::ResultDead) => "result_dead",
            Fault::Chip(ChipFault::TextStuck(_)) => "text_stuck",
            Fault::Chip(ChipFault::PatternStuck(_)) => "pattern_stuck",
            Fault::Host(HostError::NoPattern) => "host_no_pattern",
            Fault::Host(HostError::BadByte(_)) => "host_bad_byte",
            Fault::Host(HostError::BadPattern(_)) => "host_bad_pattern",
            Fault::Host(HostError::Stalled { .. }) => "host_stalled",
            Fault::Plane(kind) => kind.label(),
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Chip(e) => write!(f, "chip fault: {e}"),
            Fault::Host(e) => write!(f, "host fault: {e}"),
            Fault::Plane(e) => write!(f, "plane fault: {e}"),
        }
    }
}

impl std::error::Error for Fault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Fault::Host(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ChipFault> for Fault {
    fn from(f: ChipFault) -> Self {
        Fault::Chip(f)
    }
}

impl From<HostError> for Fault {
    fn from(f: HostError) -> Self {
        Fault::Host(f)
    }
}

impl From<PlaneFault> for Fault {
    fn from(f: PlaneFault) -> Self {
        Fault::Plane(f)
    }
}

/// One worker's sticky affliction, as drawn from a [`FaultPlan`]:
/// which fault, from which of the worker's batches onward, and the
/// per-worker salt that steers where the corruption lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StickyFault {
    /// The fault kind.
    pub kind: PlaneFault,
    /// The fault activates once the worker has started this many
    /// batches (0 = defective from the first batch).
    pub onset: u64,
    /// Seed material for the corruption site (mixed with the batch
    /// number, so different batches corrupt different lanes/bits).
    pub salt: u64,
}

/// A deterministic, seeded chaos campaign over the throughput
/// scheduler: which workers are born defective, with what sticky
/// [`PlaneFault`], activating after how many batches — plus whether
/// the recovery ladder's hardware rungs themselves fail (modelling
/// damage wider than a single worker, which is what forces the
/// W8 → W4 → W1 → software descent end to end).
///
/// Everything is a pure function of `(seed, index)`: two engines
/// handed equal plans inject byte-identical faults, and a CI seed
/// matrix entry reproduces anywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    worker_fault_permille: u32,
    max_onset_batches: u64,
    rung_fail_permille: u32,
    stall_millis: u64,
    forced_kind: Option<PlaneFault>,
}

impl FaultPlan {
    /// A plan with moderate default rates: each worker is defective
    /// with probability 0.25, onset within its first 4 batches, each
    /// hardware recovery rung fails with probability 0.1, and a stall
    /// adds 50 ms.
    pub const fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            worker_fault_permille: 250,
            max_onset_batches: 4,
            rung_fail_permille: 100,
            stall_millis: 50,
            forced_kind: None,
        }
    }

    /// The campaign seed.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Probability (per mille) that a worker is born defective.
    pub const fn with_worker_fault_permille(mut self, permille: u32) -> Self {
        self.worker_fault_permille = permille;
        self
    }

    /// Latest onset, counted in batches the worker has started.
    pub const fn with_max_onset_batches(mut self, batches: u64) -> Self {
        self.max_onset_batches = batches;
        self
    }

    /// Probability (per mille) that each hardware recovery rung fails
    /// for a given voided batch.
    pub const fn with_rung_fail_permille(mut self, permille: u32) -> Self {
        self.rung_fail_permille = permille;
        self
    }

    /// Wall-clock milliseconds a [`PlaneFault::WorkerStall`] adds per
    /// batch.
    pub const fn with_stall_millis(mut self, millis: u64) -> Self {
        self.stall_millis = millis;
        self
    }

    /// Forces every defective worker to carry this exact kind instead
    /// of a seed-drawn one (for targeted tests: e.g. all-panic or
    /// all-stall campaigns).
    pub const fn with_forced_kind(mut self, kind: PlaneFault) -> Self {
        self.forced_kind = Some(kind);
        self
    }

    /// The stall length for [`PlaneFault::WorkerStall`].
    pub const fn stall_millis(&self) -> u64 {
        self.stall_millis
    }

    /// The sticky fault afflicting `worker`, if any. Deterministic in
    /// `(seed, worker)`.
    pub fn worker_fault(&self, worker: usize) -> Option<StickyFault> {
        let mut rng = XorShift64::new(self.seed ^ mix(worker as u64 + 1));
        if !rng.chance(self.worker_fault_permille) {
            return None;
        }
        let kind = match self.forced_kind {
            Some(kind) => kind,
            None => match rng.next_u64() % 5 {
                0 => PlaneFault::LaneUpset,
                1 => PlaneFault::StuckComparator {
                    level: rng.next_u64() & 1 == 1,
                },
                2 => PlaneFault::CachePoison,
                3 => PlaneFault::WorkerStall,
                _ => PlaneFault::WorkerPanic,
            },
        };
        let onset = rng.bounded(self.max_onset_batches);
        let salt = rng.next_u64() | 1;
        Some(StickyFault { kind, onset, salt })
    }

    /// Whether hardware recovery rung `rung` (0-based from the widest)
    /// also fails for voided batch `batch`. Deterministic in
    /// `(seed, batch, rung)`.
    pub fn rung_fails(&self, batch: usize, rung: usize) -> bool {
        let key = mix((batch as u64) << 8 | rung as u64) ^ 0x5CA1_AB1E;
        XorShift64::new(self.seed ^ key).chance(self.rung_fail_permille)
    }
}

/// Applies a sticky fault's datapath corruption to one batch's result
/// lanes in place. `salt` should vary per batch (mix the worker salt
/// with the batch number); `cache_hit` reports whether the batch's
/// pattern lookup was served from cache, which is what
/// [`PlaneFault::CachePoison`] keys on. A lane upset (or a poisoned
/// hit) flips position `(salt >> 16) % len` of the first non-empty lane
/// from lane `salt % lanes`; a stuck comparator sets every bit of lane
/// `salt % lanes` to its level. Returns `true` if any bit changed —
/// [`PlaneFault::WorkerStall`] / [`PlaneFault::WorkerPanic`] never
/// corrupt data and always return `false`.
pub fn corrupt_bits(kind: PlaneFault, salt: u64, lanes: &mut [MatchBits], cache_hit: bool) -> bool {
    if lanes.is_empty() {
        return false;
    }
    let start = (salt % lanes.len() as u64) as usize;
    match kind {
        PlaneFault::LaneUpset => flip_one_bit(salt, start, lanes),
        PlaneFault::CachePoison => cache_hit && flip_one_bit(salt, start, lanes),
        PlaneFault::StuckComparator { level } => lanes[start].fill(level),
        PlaneFault::WorkerStall | PlaneFault::WorkerPanic => false,
    }
}

/// Flips one result bit in the first non-empty lane at or after
/// `start`, wrapping. Returns `false` only when every lane is empty.
fn flip_one_bit(salt: u64, start: usize, lanes: &mut [MatchBits]) -> bool {
    let (before, after) = lanes.split_at_mut(start);
    after
        .iter_mut()
        .chain(before)
        .find(|lane| !lane.is_empty())
        .map(|lane| lane.flip(((salt >> 16) % lane.len() as u64) as usize))
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_never_zero() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            let x = a.next_u64();
            assert_eq!(x, b.next_u64());
        }
        // The zero seed is remapped, not propagated.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
        // Bounded draws respect the bound, including the numeric limit.
        let mut r = XorShift64::new(3);
        for _ in 0..50 {
            assert!(r.bounded(9) <= 9);
        }
        let _ = r.bounded(u64::MAX); // must not panic
        assert_eq!(r.bounded(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = XorShift64::new(11);
        assert!(rng.chance(1000));
        assert!(rng.chance(2000));
        for _ in 0..50 {
            assert!(!rng.chance(0));
        }
    }

    #[test]
    fn plan_is_deterministic_per_worker() {
        let plan = FaultPlan::new(99).with_worker_fault_permille(600);
        for w in 0..16 {
            assert_eq!(plan.worker_fault(w), plan.worker_fault(w));
        }
        // And across clones.
        let twin = plan.clone();
        assert_eq!(plan.worker_fault(3), twin.worker_fault(3));
        // Some workers are hit and some spared at 60 %.
        let hit = (0..64).filter(|&w| plan.worker_fault(w).is_some()).count();
        assert!(hit > 0 && hit < 64, "hit {hit} of 64");
    }

    #[test]
    fn forced_kind_and_full_rate_afflict_everyone() {
        let plan = FaultPlan::new(1)
            .with_worker_fault_permille(1000)
            .with_forced_kind(PlaneFault::WorkerPanic)
            .with_max_onset_batches(0);
        for w in 0..8 {
            let f = plan.worker_fault(w).expect("permille 1000");
            assert_eq!(f.kind, PlaneFault::WorkerPanic);
            assert_eq!(f.onset, 0);
        }
    }

    #[test]
    fn rung_failures_are_deterministic_and_rate_bound() {
        let never = FaultPlan::new(5).with_rung_fail_permille(0);
        let always = FaultPlan::new(5).with_rung_fail_permille(1000);
        for b in 0..20 {
            for r in 0..3 {
                assert!(!never.rung_fails(b, r));
                assert!(always.rung_fails(b, r));
            }
        }
        let some = FaultPlan::new(5).with_rung_fail_permille(500);
        assert_eq!(some.rung_fails(7, 1), some.rung_fails(7, 1));
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let faults: Vec<Fault> = vec![
            ChipFault::ResultStuck(true).into(),
            ChipFault::ResultDead.into(),
            ChipFault::TextStuck(1).into(),
            ChipFault::PatternStuck(2).into(),
            HostError::NoPattern.into(),
            HostError::BadByte(9).into(),
            HostError::Stalled { beats: 3 }.into(),
            PlaneFault::LaneUpset.into(),
            PlaneFault::StuckComparator { level: false }.into(),
            PlaneFault::CachePoison.into(),
            PlaneFault::WorkerStall.into(),
            PlaneFault::WorkerPanic.into(),
        ];
        let labels: Vec<&str> = faults.iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels must be unique");
        for (fault, label) in faults.iter().zip(&labels) {
            assert!(!label.is_empty());
            assert!(!fault.to_string().is_empty());
            assert!(
                label.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{label} must be snake_case"
            );
        }
    }

    #[test]
    fn host_fault_chains_its_source() {
        use std::error::Error as _;
        let f: Fault = HostError::Stalled { beats: 4 }.into();
        assert!(f.source().is_some());
        let c: Fault = ChipFault::ResultDead.into();
        assert!(c.source().is_none());
    }

    /// Positions whose bit differs between two batches, as
    /// `(lane, position)`.
    fn changed(before: &[MatchBits], after: &[MatchBits]) -> Vec<(usize, usize)> {
        let mut sites = Vec::new();
        for (lane, (a, b)) in before.iter().zip(after).enumerate() {
            let (a, b) = (a.bits(), b.bits());
            sites.extend((0..a.len()).filter(|&i| a[i] != b[i]).map(|i| (lane, i)));
        }
        sites
    }

    #[test]
    fn corruption_changes_exactly_what_it_claims() {
        let mk = || {
            vec![
                MatchBits::from_ends(vec![0, 2], 3, 0),
                MatchBits::from_ends(Vec::new(), 3, 0),
            ]
        };
        // LaneUpset flips exactly one bit.
        let mut lanes = mk();
        assert!(corrupt_bits(
            PlaneFault::LaneUpset,
            12345,
            &mut lanes,
            false
        ));
        assert_eq!(changed(&mk(), &lanes).len(), 1);
        // Poison only bites on cache hits.
        let mut lanes = mk();
        assert!(!corrupt_bits(PlaneFault::CachePoison, 7, &mut lanes, false));
        assert_eq!(lanes, mk());
        assert!(corrupt_bits(PlaneFault::CachePoison, 7, &mut lanes, true));
        // Stuck comparator forces one whole lane to the level.
        let mut lanes = mk();
        assert!(corrupt_bits(
            PlaneFault::StuckComparator { level: true },
            0,
            &mut lanes,
            false
        ));
        assert!(lanes[0].bits().iter().all(|&b| b));
        // Stall and panic never touch data.
        let mut lanes = mk();
        assert!(!corrupt_bits(PlaneFault::WorkerStall, 1, &mut lanes, true));
        assert!(!corrupt_bits(PlaneFault::WorkerPanic, 1, &mut lanes, true));
        assert_eq!(lanes, mk());
        // Empty batches cannot be corrupted.
        assert!(!corrupt_bits(PlaneFault::LaneUpset, 1, &mut [], true));
        let mut empties = vec![MatchBits::from_ends(Vec::new(), 0, 0); 2];
        assert!(!corrupt_bits(PlaneFault::LaneUpset, 1, &mut empties, true));
    }

    /// The corruption sites each salt draws over a ragged batch with
    /// empty lanes (lengths 0, 5, 0, 7, 3, 0), recorded on the dense
    /// `Vec<bool>` form this function had before it took `MatchBits`:
    /// `(salt, lane and position a LaneUpset or poisoned hit flips,
    /// lane a StuckComparator forces)`. Equal seeds must corrupt the
    /// same bits whatever form the lanes are held in.
    #[test]
    fn fault_draws_are_pinned_across_result_forms() {
        let ragged = || {
            [
                (0, vec![]),
                (5, vec![1, 4]),
                (0, vec![]),
                (7, vec![0, 6]),
                (3, vec![2]),
                (0, vec![]),
            ]
            .map(|(len, ends)| MatchBits::from_ends(ends, len, 0))
        };
        let draws: [(u64, (usize, usize), usize); 8] = [
            (0x1d0b_14e4_db01_8fed, (3, 6), 3),
            (0x6303_3b0c_a389_c35a, (3, 4), 2),
            (0x9e56_51b0_ef95_3636, (4, 1), 4),
            (0xbc40_75f2_ef43_1a44, (1, 2), 0),
            (0x875b_9307_abf5_5005, (1, 1), 5),
            (0xc4ca_37b7_f8ad_8aff, (1, 2), 1),
            (0x3_0001, (1, 3), 1),
            (u64::MAX, (3, 0), 3),
        ];
        for (salt, site, stuck) in draws {
            for (kind, cache_hit) in [
                (PlaneFault::LaneUpset, false),
                (PlaneFault::CachePoison, true),
            ] {
                let mut lanes = ragged();
                assert!(corrupt_bits(kind, salt, &mut lanes, cache_hit));
                assert_eq!(
                    changed(&ragged(), &lanes),
                    vec![site],
                    "{kind} at {salt:#x}"
                );
            }
            for level in [false, true] {
                let mut lanes = ragged();
                let hit = corrupt_bits(
                    PlaneFault::StuckComparator { level },
                    salt,
                    &mut lanes,
                    false,
                );
                let want: Vec<(usize, usize)> = (0..ragged()[stuck].len())
                    .filter(|&i| ragged()[stuck].bit(i) != level)
                    .map(|i| (stuck, i))
                    .collect();
                assert_eq!(
                    changed(&ragged(), &lanes),
                    want,
                    "stuck-at-{level} at {salt:#x}"
                );
                assert_eq!(hit, !want.is_empty());
            }
        }
    }
}
