//! The self-healing cascade: detect → isolate → remap → resume.
//!
//! §5 of the paper argues that regular, modular designs survive
//! defects: "Manufacturing defects make it essential to be able to
//! modify the interconnections so that a defective circuit is replaced
//! by a functioning one … This can be done easily if there are only a
//! few types of circuits with regular interconnections." The wafer
//! module applies that at fabrication time; this module closes the same
//! loop at *run* time, for a board built as the Figure 3-7 cascade plus
//! spare sockets:
//!
//! 1. **Detect** — every socket is self-tested at attach time, and the
//!    stream is periodically quiesced and re-tested (*scrubbing*) with
//!    the [`bist`](crate::bist) program derived from the §4 production
//!    test. A host-side watchdog also catches result-stream stalls (the
//!    driver's view of a dead chip) and forces an early scrub.
//! 2. **Isolate** — a chip that fails its self-test is retried with
//!    exponential backoff (transient upsets pass on retry; §4's
//!    stuck-at defects fail every time) and then condemned.
//! 3. **Remap** — the cascade is rewired around condemned sockets using
//!    the *same* serpentine-harvest logic the wafer module uses for
//!    defective cells ([`Wafer::from_defects`]), at chip granularity:
//!    spare sockets join the chain in physical order, subject to the
//!    board's bypass-wiring limit.
//! 4. **Resume** — results since the last verified checkpoint are
//!    discarded and their text replayed through the healed chain, so
//!    the *committed* result stream is bit-identical to a fault-free
//!    run. When no spare remains, the driver degrades gracefully to the
//!    software matcher of `pm-matchers` (KMP, or the naive scanner for
//!    wild-card patterns), which is golden-checked against the same
//!    specification.
//!
//! ## The commit discipline
//!
//! Results are quarantined until a scrub passes, then committed; a
//! failed scrub discards the quarantine and replays. Under the
//! permanent stuck-at fault model this makes the committed stream
//! provably golden: a fault present while a window was computed is
//! still present at the next scrub, fails self-test, and voids the
//! quarantined results it may have corrupted. The price is delivery
//! latency bounded by the scrub interval — the classic
//! availability-versus-integrity trade a device driver makes.
//!
//! The cascade is one of the host bus's two backends:
//! [`HostBus::resilient`] drives it with the same byte-level protocol
//! as a bare card ([`HostBus::new`]), and delivers a match event once
//! the scrub that commits it has passed, where a bare card delivers it
//! as the pipeline emits it.
//!
//! # Example
//!
//! A two-chip board with one spare socket loses a chip to a stuck
//! result driver mid-stream; the committed stream still equals the
//! fault-free reference and the board stays in hardware mode:
//!
//! ```
//! use pm_chip::prelude::*;
//! use pm_systolic::prelude::*;
//! use pm_systolic::symbol::text_from_letters;
//!
//! let pattern = Pattern::parse("ABCDACBD").unwrap();
//! let text = text_from_letters(&"ABCDACBDAB".repeat(20)).unwrap();
//! let mut board =
//!     SelfHealingCascade::new(&pattern, 2, 4, 1, RecoveryPolicy::default()).unwrap();
//! board.write_all(&text[..100]).unwrap();
//! board.inject_fault(1, ChipFault::ResultStuck(true));
//! board.write_all(&text[100..]).unwrap();
//! let bits = board.finish().unwrap();
//! assert_eq!(bits.bits(), match_spec(&text, &pattern));
//! assert_eq!(board.mode(), Mode::Hardware); // healed onto the spare
//! ```

use crate::bist::{BistPort, BistProgram, BistTarget};
use crate::host::{Backend, HostBus, HostError, RetryPolicy};
use crate::wafer::Wafer;
use pm_matchers::{software_fallback, MatchError};
use pm_nmos::error::SimError;
use pm_systolic::engine::{check_chain, clock, drain_beats, pattern_port, text_slot, MatchBits};
use pm_systolic::error::Error as ArrayError;
use pm_systolic::segment::{Segment, SegmentIo, TxtItem};
use pm_systolic::semantics::BooleanMatch;
use pm_systolic::symbol::{PatSym, Pattern, Symbol};
use pm_systolic::telemetry::{SinkHandle, TraceEvent};
use std::collections::BTreeMap;
use std::fmt;

/// Unified error taxonomy of the fault-tolerance runtime: every layer's
/// error converts into it, so a driver has one type to match on.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// An error from the systolic array layer.
    Array(ArrayError),
    /// A host-protocol error (bad byte, no pattern, stall).
    Host(HostError),
    /// An error from the software fallback matcher.
    Software(MatchError),
    /// An error from the transistor-level simulation layer.
    Sim(SimError),
    /// Every spare is exhausted and software fallback is disabled.
    NoSpares {
        /// Number of sockets condemned so far.
        condemned: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Array(e) => write!(f, "array error: {e}"),
            FaultError::Host(e) => write!(f, "host protocol error: {e}"),
            FaultError::Software(e) => write!(f, "software fallback error: {e}"),
            FaultError::Sim(e) => write!(f, "simulation error: {e}"),
            FaultError::NoSpares { condemned } => write!(
                f,
                "no spare chips remain ({condemned} sockets condemned) and fallback is disabled"
            ),
        }
    }
}

impl std::error::Error for FaultError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaultError::Array(e) => Some(e),
            FaultError::Host(e) => Some(e),
            FaultError::Software(e) => Some(e),
            FaultError::Sim(e) => Some(e),
            FaultError::NoSpares { .. } => None,
        }
    }
}

impl From<ArrayError> for FaultError {
    fn from(e: ArrayError) -> Self {
        FaultError::Array(e)
    }
}

impl From<HostError> for FaultError {
    fn from(e: HostError) -> Self {
        FaultError::Host(e)
    }
}

impl From<MatchError> for FaultError {
    fn from(e: MatchError) -> Self {
        FaultError::Software(e)
    }
}

impl From<SimError> for FaultError {
    fn from(e: SimError) -> Self {
        FaultError::Sim(e)
    }
}

/// A permanent stuck-at fault on one chip's *output drivers* — the
/// chip-level abstraction of the §4 single-stuck-at model. Boundary
/// faults are the interesting class for a cascade: an internal cell
/// fault corrupts this chip's results (caught by the result port of
/// self-test), while a boundary fault can poison *neighbouring* chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipFault {
    /// The result output driver is stuck: every result leaving the chip
    /// reads `level`.
    ResultStuck(bool),
    /// The result presence line is dead: result items are silently
    /// dropped. The host sees this as a stalled stream.
    ResultDead,
    /// The text output bus is stuck: every text character leaving the
    /// chip (toward its upstream neighbour) reads this symbol value.
    TextStuck(u8),
    /// The pattern output bus is stuck: every pattern character
    /// forwarded (toward its downstream neighbour) reads this literal.
    PatternStuck(u8),
}

impl fmt::Display for ChipFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipFault::ResultStuck(level) => write!(f, "result driver stuck-at-{level}"),
            ChipFault::ResultDead => write!(f, "result presence line dead"),
            ChipFault::TextStuck(v) => write!(f, "text bus stuck at symbol {v}"),
            ChipFault::PatternStuck(v) => write!(f, "pattern bus stuck at symbol {v}"),
        }
    }
}

/// One chip socket on the board: the array segment, plus the hardware
/// fault (if any) currently afflicting its output drivers.
#[derive(Debug, Clone)]
struct ManagedChip {
    segment: Segment<BooleanMatch>,
    fault: Option<ChipFault>,
}

impl ManagedChip {
    fn new(cells: usize) -> Self {
        ManagedChip {
            segment: Segment::new(BooleanMatch, cells),
            fault: None,
        }
    }

    /// Boundary outputs with the fault applied — corruption happens at
    /// the pins, after the healthy internals computed whatever they
    /// computed.
    fn faulty_outputs(&self) -> SegmentIo<BooleanMatch> {
        let mut io = self.segment.outputs();
        match self.fault {
            None => {}
            Some(ChipFault::ResultStuck(level)) => {
                if let Some(r) = &mut io.result {
                    r.value = level;
                }
            }
            Some(ChipFault::ResultDead) => {
                io.result = None;
            }
            Some(ChipFault::TextStuck(v)) => {
                if let Some(t) = &mut io.text {
                    t.payload = Symbol::new(v);
                }
            }
            Some(ChipFault::PatternStuck(v)) => {
                if let Some(p) = &mut io.pattern {
                    p.payload = PatSym::Lit(Symbol::new(v));
                }
            }
        }
        io
    }
}

impl BistTarget for ManagedChip {
    fn cells(&self) -> usize {
        self.segment.cells()
    }
    fn outputs(&self) -> SegmentIo<BooleanMatch> {
        // The tester probes the same pins the neighbours see.
        self.faulty_outputs()
    }
    fn step(&mut self, input: SegmentIo<BooleanMatch>) {
        self.segment.step(input);
    }
    fn reset(&mut self) {
        // Reset clears array state; the fault is in the silicon and
        // survives any reset.
        self.segment.reset();
    }
}

/// Operating mode of the self-healing cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Matching on the hardware chain.
    Hardware,
    /// Spares exhausted; matching via the software fallback.
    Degraded,
    /// Spares exhausted and fallback disabled; the device is dead.
    Failed,
}

/// Tuning knobs of the fault-tolerance runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Characters streamed between scrubs (quiesce + self-test +
    /// commit). Smaller = faster detection, more availability lost to
    /// testing.
    pub scrub_interval_chars: u64,
    /// Board bypass-wiring limit: how many consecutive condemned
    /// sockets the chain can jump over (the wafer harvest parameter at
    /// chip granularity).
    pub max_bypass: usize,
    /// Whether to degrade to the software matcher when spares run out
    /// (`false` turns exhaustion into a hard [`FaultError::NoSpares`]).
    pub allow_fallback: bool,
    /// Host retry/timeout/backoff discipline.
    pub retry: RetryPolicy,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            scrub_interval_chars: 64,
            max_bypass: 1,
            allow_fallback: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// An entry in the recovery log: what the runtime observed and did,
/// stamped with the global beat counter so detection latency and
/// recovery time are measurable in array beats.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecoveryEvent {
    /// Attach-time self-test of one socket.
    AttachBist {
        /// Socket index on the board.
        socket: usize,
        /// Whether the socket passed.
        passed: bool,
        /// Beat at which the test finished.
        beat: u64,
    },
    /// The host watchdog saw the result stream stall.
    StallDetected {
        /// First text position whose result is overdue.
        missing_from: u64,
        /// Beat at which the stall was declared.
        beat: u64,
    },
    /// A scrub self-test failed on one socket.
    BistFailed {
        /// Socket index on the board.
        socket: usize,
        /// Failing vector within the program.
        vector: usize,
        /// Output port that misbehaved.
        port: BistPort,
        /// Beat at which the failure was observed.
        beat: u64,
    },
    /// A failing socket was granted a retry after backoff.
    BistRetried {
        /// Socket index on the board.
        socket: usize,
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Idle beats of backoff before this attempt.
        backoff_beats: u64,
        /// Beat at which the retry started.
        beat: u64,
    },
    /// A socket exhausted its retries and was condemned.
    Condemned {
        /// Socket index on the board.
        socket: usize,
        /// Beat of condemnation.
        beat: u64,
    },
    /// The chain was rewired around condemned sockets.
    Remapped {
        /// The new chain, as socket indices in signal order.
        chain: Vec<usize>,
        /// Healthy sockets stranded by the bypass limit.
        stranded: usize,
        /// Characters replayed through the healed chain.
        replayed_chars: u64,
        /// Beat at which streaming resumed.
        beat: u64,
    },
    /// A scrub passed and quarantined results were committed.
    Committed {
        /// Results are now final for positions `< upto`.
        upto: u64,
        /// Beat of the commit.
        beat: u64,
    },
    /// Spares exhausted; the software fallback took over.
    FallbackEngaged {
        /// Name of the fallback algorithm.
        algorithm: &'static str,
        /// Beat at which hardware matching stopped.
        beat: u64,
    },
}

/// A Figure 3-7 cascade with spare sockets and the full
/// detect → isolate → remap → resume loop wrapped around it.
#[derive(Debug, Clone)]
pub struct SelfHealingCascade {
    pattern: Pattern,
    cells_per_chip: usize,
    /// Chips the board was designed to run with (chain length target).
    actives: usize,
    policy: RecoveryPolicy,
    bist: BistProgram,
    /// All sockets, actives first then spares, in physical order.
    pool: Vec<ManagedChip>,
    condemned: Vec<bool>,
    /// Sockets currently wired into the chain, in signal order.
    chain: Vec<usize>,
    mode: Mode,
    /// Beat counter for the injection schedule; reset on every resume.
    sched_beat: u64,
    /// Monotonic global beat counter, including scrub/test/replay
    /// overhead — the clock recovery latency is measured on.
    beat: u64,
    /// Every character ever written, in order.
    history: Vec<Symbol>,
    /// Verified-final result bits for positions `0..committed.len()`.
    committed: Vec<bool>,
    /// Committed positions already handed to a host bus.
    delivered: usize,
    /// Quarantined results awaiting the next passing scrub.
    pending: BTreeMap<u64, bool>,
    /// All positions below this are accounted for (committed, `< k`, or
    /// quarantined) — the watchdog's stall detector.
    watermark: u64,
    chars_since_scrub: u64,
    log: Vec<RecoveryEvent>,
    /// Trace sink mirroring the recovery log as workspace-wide
    /// [`TraceEvent`]s (disabled by default).
    sink: SinkHandle,
}

impl SelfHealingCascade {
    /// Builds a board with `chips` active sockets and `spares` spare
    /// sockets of `cells_per_chip` cells each, self-tests every socket,
    /// and wires the initial chain. Figure 3-7 with two spares is
    /// `SelfHealingCascade::new(&pattern, 5, 8, 2, policy)`.
    ///
    /// # Errors
    ///
    /// [`FaultError::Array`] if the pattern is empty, there are no
    /// sockets, or the active chain cannot hold the pattern;
    /// [`FaultError::NoSpares`] if attach-time testing condemns so many
    /// sockets that no adequate chain exists and fallback is disabled.
    pub fn new(
        pattern: &Pattern,
        chips: usize,
        cells_per_chip: usize,
        spares: usize,
        policy: RecoveryPolicy,
    ) -> Result<Self, FaultError> {
        Self::with_sink(
            pattern,
            chips,
            cells_per_chip,
            spares,
            policy,
            SinkHandle::null(),
        )
    }

    /// As [`new`](Self::new), with a trace sink that mirrors the
    /// recovery log (scrub outcomes, condemnations, remaps, commits) as
    /// workspace-wide [`TraceEvent`]s — attach-time self-tests included.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn with_sink(
        pattern: &Pattern,
        chips: usize,
        cells_per_chip: usize,
        spares: usize,
        policy: RecoveryPolicy,
        sink: SinkHandle,
    ) -> Result<Self, FaultError> {
        check_chain(pattern.len(), &vec![cells_per_chip; chips])?;
        let bist = BistProgram::standard(cells_per_chip, pattern.alphabet().bits());
        let pool: Vec<ManagedChip> = (0..chips + spares)
            .map(|_| ManagedChip::new(cells_per_chip))
            .collect();
        let mut cascade = SelfHealingCascade {
            pattern: pattern.clone(),
            cells_per_chip,
            actives: chips,
            policy,
            bist,
            condemned: vec![false; pool.len()],
            pool,
            chain: Vec::new(),
            mode: Mode::Hardware,
            sched_beat: 0,
            beat: 0,
            history: Vec::new(),
            committed: Vec::new(),
            delivered: 0,
            pending: BTreeMap::new(),
            watermark: 0,
            chars_since_scrub: 0,
            log: Vec::new(),
            sink,
        };
        // Attach-time self-test of every socket: chips can be born bad.
        for socket in 0..cascade.pool.len() {
            let passed = cascade.bist_socket(socket, true);
            if !passed {
                cascade.condemn(socket);
            }
        }
        cascade.remap()?;
        Ok(cascade)
    }

    /// The pattern the board is matching.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The sockets currently wired into the chain, in signal order.
    pub fn chain(&self) -> &[usize] {
        &self.chain
    }

    /// Total sockets on the board (actives + spares).
    pub fn sockets(&self) -> usize {
        self.pool.len()
    }

    /// Whether a socket has been condemned.
    pub fn is_condemned(&self, socket: usize) -> bool {
        self.condemned[socket]
    }

    /// Healthy sockets not currently wired into the chain.
    pub fn spares_remaining(&self) -> usize {
        (0..self.pool.len())
            .filter(|&s| !self.condemned[s] && !self.chain.contains(&s))
            .count()
    }

    /// The global beat counter, including all scrub/test/replay
    /// overhead.
    pub fn beat(&self) -> u64 {
        self.beat
    }

    /// The recovery log.
    pub fn log(&self) -> &[RecoveryEvent] {
        &self.log
    }

    /// Replaces the trace sink (events from now on; the existing log is
    /// not replayed).
    pub fn set_sink(&mut self, sink: SinkHandle) {
        self.sink = sink;
    }

    /// Verified-final result bits (grows at each passing scrub).
    pub fn committed(&self) -> &[bool] {
        &self.committed
    }

    /// Characters written so far.
    pub fn chars_in(&self) -> u64 {
        self.history.len() as u64
    }

    /// Injects a permanent stuck-at fault into one socket's output
    /// drivers — the fault-campaign hook. The fault takes effect
    /// immediately and survives resets, like real broken silicon.
    ///
    /// # Panics
    ///
    /// Panics if `socket` is out of range.
    pub fn inject_fault(&mut self, socket: usize, fault: ChipFault) {
        self.pool[socket].fault = Some(fault);
    }

    /// Upper bound, in beats, between a fault becoming active and the
    /// corresponding [`RecoveryEvent::BistFailed`] entry: the worst
    /// case is a full scrub interval of streaming, a pipeline drain,
    /// and self-test (with all retries and backoff) of every chip ahead
    /// of the faulty one in the chain.
    pub fn detection_bound_beats(&self) -> u64 {
        let drain = drain_beats(self.total_cells(), self.pattern.len());
        let per_chip = self.bist.beats_bound(self.cells_per_chip)
            * u64::from(1 + self.policy.retry.max_retries)
            + (1..=self.policy.retry.max_retries)
                .map(|a| self.policy.retry.backoff_beats(a))
                .sum::<u64>();
        2 * self.policy.scrub_interval_chars + drain + per_chip * self.chain.len().max(1) as u64
    }

    /// Streams one character. May trigger a scrub (periodic or
    /// watchdog-forced), which may in turn condemn chips, remap the
    /// chain, replay text, or degrade to software.
    ///
    /// # Errors
    ///
    /// [`FaultError::NoSpares`] at the exhaustion point when fallback
    /// is disabled, and [`FaultError::Array`] (`SegmentFaulted`) on any
    /// write after that.
    pub fn write(&mut self, sym: Symbol) -> Result<(), FaultError> {
        match self.mode {
            Mode::Failed => {
                let segment = self.condemned.iter().position(|&c| c).unwrap_or(0);
                return Err(ArrayError::SegmentFaulted { segment }.into());
            }
            Mode::Degraded => {
                self.history.push(sym);
                self.chars_since_scrub += 1;
                if self.chars_since_scrub >= self.policy.scrub_interval_chars {
                    self.chars_since_scrub = 0;
                    self.commit_degraded()?;
                }
                return Ok(());
            }
            Mode::Hardware => {}
        }
        let seq = self.history.len() as u64;
        self.history.push(sym);
        self.hw_feed(sym, seq);
        self.chars_since_scrub += 1;

        // Watchdog: results exit in bounded time on healthy hardware; a
        // persistent hole in the quarantine means the stream stalled.
        self.advance_watermark();
        let due = (self.history.len() as u64).saturating_sub(self.stall_latency_chars());
        if self.watermark < due {
            self.log.push(RecoveryEvent::StallDetected {
                missing_from: self.watermark,
                beat: self.beat,
            });
            self.sink.record(TraceEvent::HostStall {
                missing_from: self.watermark,
            });
            self.chars_since_scrub = 0;
            return self.scrub();
        }

        if self.chars_since_scrub >= self.policy.scrub_interval_chars {
            self.chars_since_scrub = 0;
            return self.scrub();
        }
        Ok(())
    }

    /// Streams a whole symbol buffer.
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write); stops at the first error.
    pub fn write_all(&mut self, text: &[Symbol]) -> Result<(), FaultError> {
        for &s in text {
            self.write(s)?;
        }
        Ok(())
    }

    /// Quiesces, self-tests, and commits now, regardless of the scrub
    /// interval — the driver's explicit checkpoint.
    ///
    /// # Errors
    ///
    /// As [`write`](Self::write).
    pub fn checkpoint(&mut self) -> Result<(), FaultError> {
        self.chars_since_scrub = 0;
        match self.mode {
            Mode::Hardware => self.scrub(),
            Mode::Degraded => self.commit_degraded(),
            Mode::Failed => {
                let segment = self.condemned.iter().position(|&c| c).unwrap_or(0);
                Err(ArrayError::SegmentFaulted { segment }.into())
            }
        }
    }

    /// Ends the stream: checkpoints so every written character's result
    /// is committed, and returns the full verified result stream.
    ///
    /// # Errors
    ///
    /// As [`checkpoint`](Self::checkpoint).
    pub fn finish(&mut self) -> Result<MatchBits, FaultError> {
        self.commit_history()?;
        Ok(MatchBits::new(self.committed.clone(), self.pattern.k()))
    }

    /// Checkpoints until the commit covers the whole history or the
    /// board gives up: a scrub can itself condemn chips and remap.
    fn commit_history(&mut self) -> Result<(), FaultError> {
        while self.committed.len() < self.history.len() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The committed results not yet taken, with their positions.
    fn take_delivered(&mut self) -> Vec<(u64, bool)> {
        let from = std::mem::replace(&mut self.delivered, self.committed.len());
        (from..self.committed.len())
            .map(|i| (i as u64, self.committed[i]))
            .collect()
    }

    // ------------------------------------------------------------------
    // The hardware chain, clocked on the engine's schedule with each
    // socket's pin faults applied at its boundary.
    // ------------------------------------------------------------------

    fn total_cells(&self) -> usize {
        self.chain.len() * self.cells_per_chip
    }

    /// Chars of pipeline latency the watchdog tolerates before calling
    /// a stall: full traversal plus a pattern recirculation plus the
    /// incomplete-window prefix, plus the configured slack.
    fn stall_latency_chars(&self) -> u64 {
        (self.total_cells() + 2 * self.pattern.len() + 8) as u64
            + self.pattern.k() as u64
            + self.policy.retry.stall_timeout_chars
    }

    fn advance_watermark(&mut self) {
        let k = self.pattern.k() as u64;
        let total = self.history.len() as u64;
        while self.watermark < total
            && (self.watermark < k
                || self.watermark < self.committed.len() as u64
                || self.pending.contains_key(&self.watermark))
        {
            self.watermark += 1;
        }
    }

    /// One synchronous beat of the whole chain through
    /// [`engine::clock`](clock), reading every socket's (possibly
    /// fault-corrupted) pins, so a fault-free chain is beat-exact with
    /// `ChipCascade`. An exiting result enters the quarantine.
    fn hw_beat(&mut self, text_in: Option<TxtItem<Symbol>>) {
        let mut io: Vec<_> = self
            .chain
            .iter()
            .map(|&s| self.pool[s].faulty_outputs())
            .collect();
        let pattern_in = pattern_port(self.pattern.symbols(), self.sched_beat);
        let exit = clock(self.sched_beat, pattern_in, &mut io, text_in);
        for (&socket, input) in self.chain.iter().zip(io) {
            self.pool[socket].segment.step(input);
        }
        self.sched_beat += 1;
        self.beat += 1;
        if let Some(r) = exit.result {
            if r.seq >= self.committed.len() as u64 {
                self.pending.insert(r.seq, r.value);
            }
        }
    }

    /// Feeds one character (with an explicit absolute position, so
    /// replays keep their original sequence numbers) through one bus
    /// cycle of two beats.
    fn hw_feed(&mut self, sym: Symbol, seq: u64) {
        let mut item = Some(TxtItem { payload: sym, seq });
        for _ in 0..2 {
            let inject = text_slot(self.total_cells(), self.sched_beat).and_then(|_| item.take());
            self.hw_beat(inject);
        }
        debug_assert!(item.is_none(), "no text slot in one bus cycle");
    }

    /// Runs the chain empty so every in-flight result exits.
    fn hw_drain(&mut self) {
        for _ in 0..drain_beats(self.total_cells(), self.pattern.len()) {
            self.hw_beat(None);
        }
    }

    // ------------------------------------------------------------------
    // Scrubbing, isolation, remapping, resumption.
    // ------------------------------------------------------------------

    /// Quiesce → self-test every chained chip → commit or recover.
    fn scrub(&mut self) -> Result<(), FaultError> {
        self.hw_drain();
        let chain = self.chain.clone();
        let mut any_failed = false;
        for socket in chain {
            if !self.bist_socket(socket, false) {
                self.condemn(socket);
                any_failed = true;
            }
        }
        if any_failed {
            // Quarantined results may be poisoned; void them and replay
            // through a healed chain.
            self.pending.clear();
            self.remap()
        } else {
            self.commit_all();
            self.resume();
            Ok(())
        }
    }

    /// Runs the self-test program on one socket, with the retry/backoff
    /// discipline. Logs every failure and retry. Returns the final
    /// verdict.
    fn bist_socket(&mut self, socket: usize, attach: bool) -> bool {
        let mut attempt = 0u32;
        loop {
            let outcome = self.bist.run(&mut self.pool[socket]);
            self.beat += outcome.beats;
            self.sink.record(TraceEvent::ScrubOutcome {
                socket: socket as u32,
                passed: outcome.passed,
                beats: outcome.beats,
            });
            if outcome.passed {
                if attach {
                    self.log.push(RecoveryEvent::AttachBist {
                        socket,
                        passed: true,
                        beat: self.beat,
                    });
                }
                return true;
            }
            let failure = outcome.failure.expect("failed outcome carries a failure");
            self.log.push(RecoveryEvent::BistFailed {
                socket,
                vector: failure.vector,
                port: failure.port,
                beat: self.beat,
            });
            if attempt >= self.policy.retry.max_retries {
                if attach {
                    self.log.push(RecoveryEvent::AttachBist {
                        socket,
                        passed: false,
                        beat: self.beat,
                    });
                }
                return false;
            }
            attempt += 1;
            let backoff = self.policy.retry.backoff_beats(attempt);
            self.beat += backoff;
            self.log.push(RecoveryEvent::BistRetried {
                socket,
                attempt,
                backoff_beats: backoff,
                beat: self.beat,
            });
            self.sink.record(TraceEvent::HostRetry {
                attempt,
                backoff_beats: backoff,
            });
        }
    }

    fn condemn(&mut self, socket: usize) {
        if !self.condemned[socket] {
            self.condemned[socket] = true;
            self.log.push(RecoveryEvent::Condemned {
                socket,
                beat: self.beat,
            });
            self.sink.record(TraceEvent::Condemned {
                socket: socket as u32,
            });
        }
    }

    /// Moves every quarantined result up to the end of history into the
    /// committed stream. Only called after a fully passing scrub.
    fn commit_all(&mut self) {
        let k = self.pattern.k();
        while self.committed.len() < self.history.len() {
            let seq = self.committed.len() as u64;
            let bit = if (seq as usize) < k {
                false
            } else {
                match self.pending.remove(&seq) {
                    Some(b) => b,
                    None => panic!(
                        "scrub passed but result for position {seq} never exited — \
                         unmodeled fault class"
                    ),
                }
            };
            self.committed.push(bit);
        }
        self.pending.clear();
        self.log.push(RecoveryEvent::Committed {
            upto: self.committed.len() as u64,
            beat: self.beat,
        });
        self.sink.record(TraceEvent::Committed {
            upto: self.committed.len() as u64,
        });
    }

    /// Rewires the chain around condemned sockets using the wafer
    /// harvest at chip granularity, self-testing every candidate; then
    /// resumes streaming with a replay of all uncommitted text.
    fn remap(&mut self) -> Result<(), FaultError> {
        loop {
            let harvest =
                Wafer::from_defects(vec![self.condemned.clone()]).harvest(self.policy.max_bypass);
            let stranded = harvest.stranded;
            let mut chain: Vec<usize> = harvest.chain.iter().map(|&(_, c)| c).collect();
            let needed = self.pattern.len().div_ceil(self.cells_per_chip);
            if chain.len() < needed {
                return self.exhaust();
            }
            chain.truncate(self.actives.max(needed).min(chain.len()));

            // A spare may itself be bad (faulted while idle): test
            // every socket about to carry traffic and loop if any fails.
            let mut clean = true;
            for &socket in &chain {
                if !self.bist_socket(socket, false) {
                    self.condemn(socket);
                    clean = false;
                }
            }
            if !clean {
                continue;
            }

            self.chain = chain;
            let replayed = self.resume();
            self.log.push(RecoveryEvent::Remapped {
                chain: self.chain.clone(),
                stranded,
                replayed_chars: replayed,
                beat: self.beat,
            });
            self.sink.record(TraceEvent::Remapped {
                chain_len: self.chain.len() as u32,
                replayed_chars: replayed,
            });
            return Ok(());
        }
    }

    /// Resets the chain and replays from just before the checkpoint:
    /// the last `k` committed characters re-prime the windows that span
    /// the checkpoint boundary (their duplicate results are discarded
    /// by the quarantine's seq filter), and every uncommitted character
    /// is recomputed. Returns the number of characters replayed.
    fn resume(&mut self) -> u64 {
        self.sched_beat = 0;
        let chain = self.chain.clone();
        for socket in chain {
            self.pool[socket].segment.reset();
        }
        let k = self.pattern.k();
        let start = self.committed.len().saturating_sub(k);
        for seq in start..self.history.len() {
            let sym = self.history[seq];
            self.hw_feed(sym, seq as u64);
        }
        // Stall accounting restarts from the healed chain's output.
        self.watermark = self.watermark.min(self.committed.len() as u64);
        (self.history.len() - start) as u64
    }

    /// Out of spares: degrade to software, or die.
    fn exhaust(&mut self) -> Result<(), FaultError> {
        let condemned = self.condemned.iter().filter(|&&c| c).count();
        self.chain.clear();
        if self.policy.allow_fallback {
            self.mode = Mode::Degraded;
            let algorithm = software_fallback(&self.pattern).name();
            self.log.push(RecoveryEvent::FallbackEngaged {
                algorithm,
                beat: self.beat,
            });
            self.sink.record(TraceEvent::FallbackEngaged);
            self.commit_degraded()
        } else {
            self.mode = Mode::Failed;
            Err(FaultError::NoSpares { condemned })
        }
    }

    /// Recomputes and commits the whole stream via the software
    /// fallback. The committed prefix is already golden (it survived a
    /// scrub), and the fallback is golden-checked, so extending with
    /// its bits keeps the commit invariant.
    fn commit_degraded(&mut self) -> Result<(), FaultError> {
        let matcher = software_fallback(&self.pattern);
        let bits = matcher.find(&self.history, &self.pattern)?;
        debug_assert!(bits.len() == self.history.len());
        debug_assert!(
            bits.starts_with(&self.committed),
            "software fallback disagrees with hardware-verified prefix"
        );
        self.committed = bits;
        self.pending.clear();
        self.log.push(RecoveryEvent::Committed {
            upto: self.committed.len() as u64,
            beat: self.beat,
        });
        self.sink.record(TraceEvent::Committed {
            upto: self.committed.len() as u64,
        });
        Ok(())
    }
}

/// What [`HostBus::resilient`] builds each pattern's board from: the
/// arguments of [`SelfHealingCascade::with_sink`] but the pattern.
#[derive(Debug, Clone)]
pub struct Board {
    chips: usize,
    cells_per_chip: usize,
    spares: usize,
    policy: RecoveryPolicy,
    sink: SinkHandle,
}

/// The self-healing board: a result is deliverable once a passing scrub
/// has committed it, so no later fault can retract a delivered event.
impl Backend for SelfHealingCascade {
    type Config = Board;
    type Error = FaultError;

    fn load(board: &Board, pattern: &Pattern) -> Result<Self, FaultError> {
        Self::with_sink(
            pattern,
            board.chips,
            board.cells_per_chip,
            board.spares,
            board.policy,
            board.sink.clone(),
        )
    }

    fn feed(&mut self, sym: Symbol) -> Result<Vec<(u64, bool)>, FaultError> {
        self.write(sym)?;
        Ok(self.take_delivered())
    }

    fn flush(&mut self) -> Result<Vec<(u64, bool)>, FaultError> {
        self.commit_history()?;
        Ok(self.take_delivered())
    }

    fn degraded(&self) -> bool {
        self.mode != Mode::Hardware
    }
}

impl HostBus<SelfHealingCascade> {
    /// Installs a board with `chips` active sockets plus `spares`
    /// spares, `cells_per_chip` cells each; each pattern load builds
    /// and attach-tests the whole board.
    ///
    /// # Panics
    ///
    /// Panics if `chips` or `cells_per_chip` is zero.
    pub fn resilient(
        chips: usize,
        cells_per_chip: usize,
        spares: usize,
        policy: RecoveryPolicy,
    ) -> Self {
        assert!(chips > 0, "a board needs active sockets");
        assert!(cells_per_chip > 0, "a chip needs cells");
        HostBus {
            config: Board {
                chips,
                cells_per_chip,
                spares,
                policy,
                sink: SinkHandle::null(),
            },
            device: None,
        }
    }

    /// Installs a trace sink: future cascades (and the current one, if
    /// a pattern is loaded) emit stall/scrub/recovery events into it.
    pub fn set_sink(&mut self, sink: SinkHandle) {
        if let Some(cascade) = self.cascade_mut() {
            cascade.set_sink(sink.clone());
        }
        self.config.sink = sink;
    }

    /// The underlying cascade, for fault injection and telemetry.
    pub fn cascade(&self) -> Option<&SelfHealingCascade> {
        self.device.as_ref().map(|d| &d.backend)
    }

    /// Mutable access to the cascade (the fault-campaign hook).
    pub fn cascade_mut(&mut self) -> Option<&mut SelfHealingCascade> {
        self.device.as_mut().map(|d| &mut d.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::DeviceState;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn quick_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            scrub_interval_chars: 16,
            max_bypass: 1,
            allow_fallback: true,
            retry: RetryPolicy {
                stall_timeout_chars: 8,
                max_retries: 1,
                backoff_base_beats: 4,
                backoff_factor: 2,
                ..RetryPolicy::default()
            },
        }
    }

    fn cascade(pattern: &str, chips: usize, cells: usize, spares: usize) -> SelfHealingCascade {
        let p = Pattern::parse(pattern).unwrap();
        SelfHealingCascade::new(&p, chips, cells, spares, quick_policy()).unwrap()
    }

    fn golden(pattern: &str, text: &str) -> Vec<bool> {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        match_spec(&t, &p)
    }

    #[test]
    fn fault_free_board_is_golden() {
        let mut board = cascade("ABCA", 3, 2, 1);
        let text = text_from_letters(&"ABCABCA".repeat(10)).unwrap();
        board.write_all(&text).unwrap();
        let bits = board.finish().unwrap();
        assert_eq!(bits.bits(), golden("ABCA", &"ABCABCA".repeat(10)));
        assert_eq!(board.mode(), Mode::Hardware);
        assert_eq!(board.spares_remaining(), 1);
    }

    #[test]
    fn attach_bist_runs_on_every_socket() {
        let board = cascade("AB", 2, 2, 2);
        let attaches = board
            .log()
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::AttachBist { passed: true, .. }))
            .count();
        assert_eq!(attaches, 4);
    }

    #[test]
    fn every_fault_kind_is_detected_and_healed() {
        let text_src = "ABCABCAACBACBBCA".repeat(8);
        for fault in [
            ChipFault::ResultStuck(true),
            ChipFault::ResultStuck(false),
            ChipFault::ResultDead,
            ChipFault::TextStuck(0),
            ChipFault::PatternStuck(1),
        ] {
            let mut board = cascade("ABCA", 3, 2, 2);
            let text = text_from_letters(&text_src).unwrap();
            let mid = text.len() / 2;
            board.write_all(&text[..mid]).unwrap();
            board.inject_fault(1, fault);
            board.write_all(&text[mid..]).unwrap();
            let bits = board.finish().unwrap();
            assert_eq!(
                bits.bits(),
                golden("ABCA", &text_src),
                "fault {fault} corrupted the committed stream"
            );
            assert_eq!(board.mode(), Mode::Hardware, "fault {fault}");
            assert!(board.is_condemned(1), "fault {fault} not condemned");
            assert!(
                board
                    .log()
                    .iter()
                    .any(|e| matches!(e, RecoveryEvent::Remapped { .. })),
                "fault {fault} never remapped"
            );
        }
    }

    #[test]
    fn detection_latency_is_bounded() {
        let mut board = cascade("ABCA", 3, 2, 2);
        let text = text_from_letters(&"ABCA".repeat(20)).unwrap();
        board.write_all(&text[..10]).unwrap();
        let injected_at = board.beat();
        board.inject_fault(0, ChipFault::ResultStuck(true));
        let bound = board.detection_bound_beats();
        board.write_all(&text[10..]).unwrap();
        board.finish().unwrap();
        let detected_at = board
            .log()
            .iter()
            .find_map(|e| match e {
                RecoveryEvent::BistFailed { beat, .. } => Some(*beat),
                _ => None,
            })
            .expect("fault must be detected");
        assert!(
            detected_at - injected_at <= bound,
            "latency {} > bound {bound}",
            detected_at - injected_at
        );
    }

    #[test]
    fn retries_backoff_then_condemn() {
        let mut board = cascade("AB", 2, 2, 1);
        board.inject_fault(0, ChipFault::ResultStuck(true));
        let text = text_from_letters(&"AB".repeat(20)).unwrap();
        board.write_all(&text).unwrap();
        board.finish().unwrap();
        let retries: Vec<_> = board
            .log()
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::BistRetried {
                    socket: 0,
                    backoff_beats,
                    ..
                } => Some(*backoff_beats),
                _ => None,
            })
            .collect();
        assert_eq!(retries, vec![4], "one retry at base backoff");
        assert!(board.is_condemned(0));
    }

    #[test]
    fn spare_exhaustion_degrades_to_golden_software() {
        let mut board = cascade("ABA", 2, 2, 1);
        let text_src = "ABAABABBAABA".repeat(6);
        let text = text_from_letters(&text_src).unwrap();
        board.write_all(&text[..8]).unwrap();
        // Kill chips faster than spares can cover.
        board.inject_fault(0, ChipFault::ResultStuck(true));
        board.inject_fault(1, ChipFault::ResultStuck(false));
        board.inject_fault(2, ChipFault::ResultDead);
        board.write_all(&text[8..]).unwrap();
        let bits = board.finish().unwrap();
        assert_eq!(board.mode(), Mode::Degraded);
        assert_eq!(bits.bits(), golden("ABA", &text_src));
        assert!(board.log().iter().any(|e| matches!(
            e,
            RecoveryEvent::FallbackEngaged {
                algorithm: "kmp",
                ..
            }
        )));
    }

    #[test]
    fn wildcard_pattern_falls_back_to_naive() {
        let mut board = cascade("AXA", 2, 2, 0);
        let text_src = "ABAACAADA".repeat(4);
        let text = text_from_letters(&text_src).unwrap();
        board.write_all(&text[..4]).unwrap();
        board.inject_fault(0, ChipFault::TextStuck(3));
        board.write_all(&text[4..]).unwrap();
        let bits = board.finish().unwrap();
        assert_eq!(board.mode(), Mode::Degraded);
        assert_eq!(bits.bits(), golden("AXA", &text_src));
        assert!(board.log().iter().any(|e| matches!(
            e,
            RecoveryEvent::FallbackEngaged {
                algorithm: "naive",
                ..
            }
        )));
    }

    #[test]
    fn fallback_disabled_reports_no_spares_then_poisons() {
        let p = Pattern::parse("AB").unwrap();
        let policy = RecoveryPolicy {
            allow_fallback: false,
            ..quick_policy()
        };
        let mut board = SelfHealingCascade::new(&p, 2, 2, 0, policy).unwrap();
        board.inject_fault(0, ChipFault::ResultDead);
        board.inject_fault(1, ChipFault::ResultDead);
        let text = text_from_letters(&"AB".repeat(20)).unwrap();
        let err = board.write_all(&text).unwrap_err();
        assert!(
            matches!(err, FaultError::NoSpares { condemned: 2 }),
            "{err}"
        );
        assert_eq!(board.mode(), Mode::Failed);
        let err2 = board.write(Symbol::new(0)).unwrap_err();
        assert!(
            matches!(err2, FaultError::Array(ArrayError::SegmentFaulted { .. })),
            "{err2}"
        );
    }

    #[test]
    fn stall_watchdog_forces_early_scrub() {
        // Scrub interval far beyond the test length: only the watchdog
        // can catch the dead result port.
        let p = Pattern::parse("AB").unwrap();
        let policy = RecoveryPolicy {
            scrub_interval_chars: 100_000,
            ..quick_policy()
        };
        let mut board = SelfHealingCascade::new(&p, 2, 2, 1, policy).unwrap();
        let text_src = "AB".repeat(60);
        let text = text_from_letters(&text_src).unwrap();
        board.write_all(&text[..4]).unwrap();
        board.inject_fault(0, ChipFault::ResultDead);
        board.write_all(&text[4..]).unwrap();
        assert!(
            board
                .log()
                .iter()
                .any(|e| matches!(e, RecoveryEvent::StallDetected { .. })),
            "watchdog never fired: {:?}",
            board.log()
        );
        let bits = board.finish().unwrap();
        assert_eq!(bits.bits(), golden("AB", &text_src));
        assert_eq!(board.mode(), Mode::Hardware);
    }

    #[test]
    fn committed_results_are_never_retracted() {
        let mut board = cascade("ABCA", 3, 2, 2);
        let text = text_from_letters(&"ABCABCA".repeat(10)).unwrap();
        board.write_all(&text[..30]).unwrap();
        board.checkpoint().unwrap();
        let snapshot = board.committed().to_vec();
        board.inject_fault(1, ChipFault::ResultStuck(true));
        board.write_all(&text[30..]).unwrap();
        board.finish().unwrap();
        assert!(board.committed().starts_with(&snapshot));
    }

    #[test]
    fn construction_errors_use_the_taxonomy() {
        let p = Pattern::parse("ABCAB").unwrap();
        let err = SelfHealingCascade::new(&p, 2, 2, 0, quick_policy()).unwrap_err();
        assert!(matches!(
            err,
            FaultError::Array(ArrayError::ArrayTooSmall { cells: 4, .. })
        ));
        assert!(std::error::Error::source(&err).is_some());
        // From conversions across the taxonomy.
        let _: FaultError = HostError::NoPattern.into();
        let _: FaultError = MatchError::WildcardsUnsupported { algorithm: "kmp" }.into();
        let _: FaultError = SimError::Oscillation { iterations: 3 }.into();
        let display = FaultError::NoSpares { condemned: 3 }.to_string();
        assert!(display.contains("3"));
    }

    #[test]
    fn resilient_host_bus_delivers_verified_events() {
        let mut bus = HostBus::resilient(3, 2, 1, quick_policy());
        assert_eq!(bus.state(), DeviceState::Idle);
        assert!(matches!(
            bus.write_byte(0),
            Err(FaultError::Host(HostError::NoPattern))
        ));
        let p = Pattern::parse("ABA").unwrap();
        bus.load_pattern(&p).unwrap();
        assert_eq!(bus.state(), DeviceState::Streaming);
        assert!(matches!(
            bus.write_byte(9),
            Err(FaultError::Host(HostError::BadByte(9)))
        ));
        let text_src = "ABAABABA".repeat(4);
        for ch in text_from_letters(&text_src).unwrap() {
            bus.write_byte(ch.value()).unwrap();
        }
        bus.flush().unwrap();
        let mut ends = Vec::new();
        while let Some(e) = bus.read_event() {
            assert_eq!(e.end - e.start, 2);
            ends.push(e.end as usize);
        }
        let expected: Vec<usize> = golden("ABA", &text_src)
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ends, expected);
        assert_eq!(bus.bytes_streamed(), text_src.len() as u64);
    }

    #[test]
    fn resilient_host_bus_survives_mid_stream_fault() {
        let mut bus = HostBus::resilient(3, 2, 2, quick_policy());
        let p = Pattern::parse("ABA").unwrap();
        bus.load_pattern(&p).unwrap();
        let text_src = "ABAAB".repeat(10);
        let bytes: Vec<u8> = text_from_letters(&text_src)
            .unwrap()
            .iter()
            .map(|s| s.value())
            .collect();
        bus.write(&bytes[..10]).unwrap();
        bus.cascade_mut()
            .unwrap()
            .inject_fault(2, ChipFault::PatternStuck(0));
        bus.write(&bytes[10..]).unwrap();
        bus.flush().unwrap();
        assert_eq!(bus.state(), DeviceState::Streaming);
        let mut ends = Vec::new();
        while let Some(e) = bus.read_event() {
            ends.push(e.end as usize);
        }
        let expected: Vec<usize> = golden("ABA", &text_src)
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ends, expected);
    }

    #[test]
    fn sink_mirrors_the_recovery_log() {
        use crate::telemetry::MetricsRegistry;
        use std::sync::Arc;
        let metrics = Arc::new(MetricsRegistry::new());
        let mut bus = HostBus::resilient(3, 2, 2, quick_policy());
        bus.set_sink(SinkHandle::new(metrics.clone()));
        let p = Pattern::parse("ABA").unwrap();
        bus.load_pattern(&p).unwrap();
        // Attach-time BIST of all 5 sockets (plus the initial remap's
        // re-test of the 3 chained ones) reached the sink.
        assert!(metrics.snapshot().scrubs_passed >= 5);
        let text_src = "ABAAB".repeat(10);
        let bytes: Vec<u8> = text_from_letters(&text_src)
            .unwrap()
            .iter()
            .map(|s| s.value())
            .collect();
        bus.write(&bytes[..10]).unwrap();
        bus.cascade_mut()
            .unwrap()
            .inject_fault(2, ChipFault::ResultDead);
        bus.write(&bytes[10..]).unwrap();
        bus.flush().unwrap();
        let snap = metrics.snapshot();
        let cascade = bus.cascade().unwrap();
        let log = cascade.log();
        let log_count = |f: fn(&RecoveryEvent) -> bool| log.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(
            snap.condemned,
            log_count(|e| matches!(e, RecoveryEvent::Condemned { .. }))
        );
        assert_eq!(
            snap.remaps,
            log_count(|e| matches!(e, RecoveryEvent::Remapped { .. }))
        );
        assert_eq!(
            snap.commits,
            log_count(|e| matches!(e, RecoveryEvent::Committed { .. }))
        );
        assert_eq!(
            snap.host_stalls,
            log_count(|e| matches!(e, RecoveryEvent::StallDetected { .. }))
        );
        assert_eq!(
            snap.host_retries,
            log_count(|e| matches!(e, RecoveryEvent::BistRetried { .. }))
        );
        assert!(snap.condemned >= 1, "the dead chip must be condemned");
        assert!(snap.scrub_beats > 0);
    }

    #[test]
    fn fault_display_is_informative() {
        assert!(ChipFault::ResultStuck(true).to_string().contains("stuck"));
        assert!(ChipFault::ResultDead.to_string().contains("dead"));
        assert!(ChipFault::TextStuck(2).to_string().contains("2"));
        assert!(ChipFault::PatternStuck(1).to_string().contains("1"));
    }
}
