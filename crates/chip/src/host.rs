//! The host-computer attachment of Figure 1-1.
//!
//! "Special-purpose VLSI chips can be used as peripheral devices
//! attached to a conventional host computer. The resulting system can
//! be considered as an efficient general-purpose computer, if many
//! types of chips are attached." [`HostBus`] models the pattern
//! matcher as such a peripheral, the way a device driver sees it:
//! load a pattern, stream text bytes through a FIFO, take a match
//! interrupt, read match positions from the result queue. The paper's
//! on-line property — one result per character at fixed latency, no
//! buffering of the text — is what makes this interface natural.
//!
//! The bus owns that protocol once, over either of two [`Backend`]s:
//!
//! - the bare array, [`Driver<BooleanMatch>`] ([`HostBus::new`]): a
//!   match is delivered as the pipeline emits it, a fixed latency after
//!   its last byte;
//! - the self-healing board of [`recovery`](crate::recovery),
//!   [`SelfHealingCascade`](crate::recovery::SelfHealingCascade)
//!   ([`HostBus::resilient`]): a match is delivered once a passing
//!   scrub has committed it, so no later fault can retract it.
//!
//! # Example
//!
//! The driver's life cycle on Figure 3-1's workload (`AXC` against
//! `ABCAACC`, written as raw symbol values `A=0, B=1, C=2`):
//!
//! ```
//! use pm_chip::host::HostBus;
//! use pm_systolic::symbol::Pattern;
//!
//! let mut bus = HostBus::new(8);
//! bus.load_pattern(&Pattern::parse("AXC").unwrap()).unwrap();
//! bus.write(&[0, 1, 2, 0, 0, 2, 2]).unwrap();
//! bus.flush().unwrap();
//! assert!(bus.irq_pending());
//! let first = bus.read_event().unwrap();
//! assert_eq!((first.start, first.end), (0, 2)); // "ABC" matches A·C
//! ```

use pm_systolic::engine::Driver;
use pm_systolic::error::Error;
use pm_systolic::semantics::BooleanMatch;
use pm_systolic::symbol::{Pattern, Symbol};
use std::collections::VecDeque;

/// A match reported by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchEvent {
    /// Text position (byte index) at which the match *ends*.
    pub end: u64,
    /// Text position at which the match *starts*.
    pub start: u64,
}

/// Device status, as a driver would read it from a status register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceState {
    /// Powered up, no pattern loaded.
    Idle,
    /// Pattern loaded; text may be streamed.
    Streaming,
    /// The hardware array is out of service; a software matcher is
    /// standing in for it (see [`HostBus::resilient`]).
    Degraded,
}

/// Protocol errors a sloppy driver can provoke — or a sick device can
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HostError {
    /// Text written before a pattern was loaded.
    NoPattern,
    /// A text byte outside the device's alphabet.
    BadByte(u8),
    /// The pattern could not be loaded.
    BadPattern(Error),
    /// The device stopped producing results: the host's watchdog saw no
    /// result strobe for `beats` array beats after one was due. This is
    /// the host-observed face of a hardware fault (e.g. a dead result
    /// driver pin) and what triggers the recovery cascade's emergency
    /// scrub.
    Stalled {
        /// Beats the watchdog waited past the device's fixed latency.
        beats: u64,
    },
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::NoPattern => write!(f, "text written with no pattern loaded"),
            HostError::BadByte(b) => write!(f, "text byte {b:#04x} outside the alphabet"),
            HostError::BadPattern(e) => write!(f, "pattern rejected: {e}"),
            HostError::Stalled { beats } => {
                write!(f, "device produced no result for {beats} beats past due")
            }
        }
    }
}

impl std::error::Error for HostError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HostError::BadPattern(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Error> for HostError {
    fn from(e: Error) -> Self {
        HostError::BadPattern(e)
    }
}

/// Retry discipline for a driver talking to possibly-sick hardware:
/// how long to wait for a result, how many times to re-test a chip
/// before condemning it, and how the wait grows between attempts.
///
/// Exponential backoff between built-in-self-test retries separates
/// transient upsets (a supply glitch — passes on retry) from hard
/// stuck-at faults (§4's fabrication defects — fail every retry and
/// get the chip condemned). Optional deterministic jitter
/// ([`jitter_permille`](Self::jitter_permille)) decorrelates many
/// retriers sharing one sick resource without sacrificing
/// reproducibility, and
/// [`backoff_cap_beats`](Self::backoff_cap_beats) is the documented
/// saturation cap: no attempt number or jitter draw ever waits longer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Characters the watchdog waits past the device's fixed latency
    /// before declaring [`HostError::Stalled`].
    pub stall_timeout_chars: u64,
    /// BIST re-runs granted to a failing chip before it is condemned.
    pub max_retries: u32,
    /// Beats of idle backoff before the first retry.
    pub backoff_base_beats: u64,
    /// Multiplier applied to the backoff per further retry.
    pub backoff_factor: u64,
    /// Maximum extra jitter as a fraction of the un-jittered backoff,
    /// in per mille (250 = up to +25 %). 0 (the default) disables
    /// jitter, making the schedule exactly geometric. The jitter is
    /// drawn from a seeded xorshift keyed by
    /// ([`jitter_seed`](Self::jitter_seed), attempt), so equal
    /// policies always produce equal schedules.
    pub jitter_permille: u32,
    /// Seed for the deterministic jitter stream; irrelevant while
    /// [`jitter_permille`](Self::jitter_permille) is 0.
    pub jitter_seed: u64,
    /// Saturation cap in beats: the computed backoff (growth *and*
    /// jitter included) is clamped to this value, so a runaway attempt
    /// counter cannot schedule an unbounded wait. Defaults to
    /// `u64::MAX`, i.e. saturate only at the numeric limit.
    pub backoff_cap_beats: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            stall_timeout_chars: 16,
            max_retries: 2,
            backoff_base_beats: 8,
            backoff_factor: 4,
            jitter_permille: 0,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
            backoff_cap_beats: u64::MAX,
        }
    }
}

impl RetryPolicy {
    /// Backoff in beats before retry number `attempt` (1-based):
    /// `base × factor^(attempt−1)`, plus up to
    /// [`jitter_permille`](Self::jitter_permille)‰ of deterministic
    /// jitter, clamped to
    /// [`backoff_cap_beats`](Self::backoff_cap_beats). Computed in
    /// closed form (overflow saturates), so an overflowing attempt
    /// counter costs O(log attempt), not 2³² multiplications.
    pub fn backoff_beats(&self, attempt: u32) -> u64 {
        let growth = attempt.saturating_sub(1);
        let beats = match self.backoff_factor.checked_pow(growth) {
            Some(f) => self.backoff_base_beats.saturating_mul(f),
            None if self.backoff_base_beats == 0 => 0,
            None => u64::MAX,
        };
        let jittered = if self.jitter_permille == 0 || beats == 0 {
            beats
        } else {
            let span = ((u128::from(beats) * u128::from(self.jitter_permille)) / 1000)
                .min(u128::from(u64::MAX)) as u64;
            let mut rng = crate::faults::XorShift64::new(
                self.jitter_seed ^ crate::faults::mix(attempt.into()),
            );
            beats.saturating_add(rng.bounded(span))
        };
        jittered.min(self.backoff_cap_beats)
    }
}

/// What a [`HostBus`] drives. The bus owns the driver protocol and the
/// event queue; a backend owns only what differs between devices.
pub trait Backend: Sized {
    /// What a device is built from: a card's cells or a board's shape.
    type Config;
    /// What a call reports; protocol misuse arrives as a [`HostError`].
    type Error: From<HostError>;
    /// Builds a device with `pattern` loaded and an empty stream.
    fn load(config: &Self::Config, pattern: &Pattern) -> Result<Self, Self::Error>;
    /// Feeds one in-alphabet symbol; returns the `(position, match)`
    /// results this made deliverable, in position order.
    fn feed(&mut self, sym: Symbol) -> Result<Vec<(u64, bool)>, Self::Error>;
    /// Makes the result of every symbol fed so far deliverable, and
    /// returns the results as [`feed`](Self::feed) does.
    fn flush(&mut self) -> Result<Vec<(u64, bool)>, Self::Error>;
    /// Whether the hardware array is out of service.
    fn degraded(&self) -> bool {
        false
    }
}

/// The bare card: a result is deliverable as the pipeline emits it.
impl Backend for Driver<BooleanMatch> {
    type Config = usize;
    type Error = HostError;

    fn load(cells: &usize, pattern: &Pattern) -> Result<Self, HostError> {
        Ok(Driver::new(
            BooleanMatch,
            pattern.symbols().to_vec(),
            &[*cells],
        )?)
    }

    fn feed(&mut self, sym: Symbol) -> Result<Vec<(u64, bool)>, HostError> {
        // The inherent `Driver::feed`: one bus cycle.
        Ok(Driver::feed(self, sym))
    }

    fn flush(&mut self) -> Result<Vec<(u64, bool)>, HostError> {
        Ok(self.drain())
    }
}

/// The pattern matcher as a bus peripheral, over either [`Backend`]:
/// [`HostBus::new`] installs a bare card, whose events surface after
/// the array's fixed latency, and [`HostBus::resilient`] a self-healing
/// board, whose events surface once a passing scrub has verified them.
#[derive(Debug, Clone)]
pub struct HostBus<B: Backend = Driver<BooleanMatch>> {
    pub(crate) config: B::Config,
    pub(crate) device: Option<Device<B>>,
}

#[derive(Debug, Clone)]
pub(crate) struct Device<B> {
    pub(crate) backend: B,
    pattern: Pattern,
    events: VecDeque<MatchEvent>,
    chars_in: u64,
}

impl<B> Device<B> {
    /// Queues an event for every match that closes a whole window.
    fn deliver(&mut self, results: Vec<(u64, bool)>) {
        let k = self.pattern.k() as u64;
        for (end, hit) in results {
            if hit && end >= k {
                self.events.push_back(MatchEvent {
                    end,
                    start: end - k,
                });
            }
        }
    }
}

impl HostBus {
    /// Installs a matcher card with `cells` character cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    pub fn new(cells: usize) -> Self {
        assert!(cells > 0, "a matcher card needs cells");
        HostBus {
            config: cells,
            device: None,
        }
    }
}

impl<B: Backend> HostBus<B> {
    /// Device state: `Idle` before a pattern is loaded, `Degraded` once
    /// the backend has taken the array out of service, else
    /// `Streaming`.
    pub fn state(&self) -> DeviceState {
        match &self.device {
            None => DeviceState::Idle,
            Some(d) if d.backend.degraded() => DeviceState::Degraded,
            Some(_) => DeviceState::Streaming,
        }
    }

    /// Loads (or replaces) the pattern; resets the stream and clears
    /// pending events.
    ///
    /// # Errors
    ///
    /// Whatever the backend reports when it cannot load the pattern:
    /// [`HostError::BadPattern`] if it doesn't fit a bare card.
    pub fn load_pattern(&mut self, pattern: &Pattern) -> Result<(), B::Error> {
        let backend = B::load(&self.config, pattern)?;
        self.device = Some(Device {
            backend,
            pattern: pattern.clone(),
            events: VecDeque::new(),
            chars_in: 0,
        });
        Ok(())
    }

    /// Streams one text byte through the device. Matches surface in
    /// the event queue when the backend makes them deliverable.
    ///
    /// # Errors
    ///
    /// [`HostError::NoPattern`] or [`HostError::BadByte`], plus
    /// whatever the backend reports.
    pub fn write_byte(&mut self, byte: u8) -> Result<(), B::Error> {
        let dev = self.device.as_mut().ok_or(HostError::NoPattern)?;
        if !dev.pattern.alphabet().contains(byte) {
            return Err(HostError::BadByte(byte).into());
        }
        dev.chars_in += 1;
        let results = dev.backend.feed(Symbol::new(byte))?;
        dev.deliver(results);
        Ok(())
    }

    /// Streams a whole buffer.
    ///
    /// # Errors
    ///
    /// As [`write_byte`](Self::write_byte); stops at the first error.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), B::Error> {
        for &b in bytes {
            self.write_byte(b)?;
        }
        Ok(())
    }

    /// Flushes at end of stream so that every match for bytes already
    /// written becomes a delivered event.
    ///
    /// # Errors
    ///
    /// [`HostError::NoPattern`] if no pattern is loaded, plus whatever
    /// the backend reports.
    pub fn flush(&mut self) -> Result<(), B::Error> {
        let dev = self.device.as_mut().ok_or(HostError::NoPattern)?;
        let results = dev.backend.flush()?;
        dev.deliver(results);
        Ok(())
    }

    /// The interrupt line: asserted while events are queued.
    pub fn irq_pending(&self) -> bool {
        self.device.as_ref().is_some_and(|d| !d.events.is_empty())
    }

    /// Pops the oldest match event (the driver's interrupt handler).
    pub fn read_event(&mut self) -> Option<MatchEvent> {
        self.device.as_mut()?.events.pop_front()
    }

    /// Bytes accepted since the pattern was loaded.
    pub fn bytes_streamed(&self) -> u64 {
        self.device.as_ref().map_or(0, |d| d.chars_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_systolic::spec::match_spec;
    use pm_systolic::symbol::text_from_letters;

    fn device_with(pattern: &str) -> HostBus {
        let p = Pattern::parse(pattern).unwrap();
        let mut bus = HostBus::new(8);
        bus.load_pattern(&p).unwrap();
        bus
    }

    #[test]
    fn protocol_requires_a_pattern_first() {
        let mut bus = HostBus::new(8);
        assert_eq!(bus.state(), DeviceState::Idle);
        assert_eq!(bus.write_byte(0), Err(HostError::NoPattern));
        assert_eq!(bus.flush(), Err(HostError::NoPattern));
    }

    #[test]
    fn bad_bytes_rejected() {
        let mut bus = device_with("AB"); // 2-bit alphabet
        assert_eq!(bus.write_byte(9), Err(HostError::BadByte(9)));
    }

    #[test]
    fn events_match_specification() {
        let mut bus = device_with("AXC");
        let text = text_from_letters("ABCAACCAB").unwrap();
        for s in &text {
            bus.write_byte(s.value()).unwrap();
        }
        bus.flush().unwrap();
        let mut ends = Vec::new();
        while let Some(e) = bus.read_event() {
            assert_eq!(e.end - e.start, 2, "span equals pattern length - 1");
            ends.push(e.end as usize);
        }
        let p = Pattern::parse("AXC").unwrap();
        let spec: Vec<usize> = match_spec(&text, &p)
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ends, spec);
    }

    #[test]
    fn irq_asserts_and_clears() {
        let mut bus = device_with("AA");
        bus.write(&[0, 0, 0]).unwrap();
        bus.flush().unwrap();
        assert!(bus.irq_pending());
        while bus.read_event().is_some() {}
        assert!(!bus.irq_pending());
    }

    #[test]
    fn reloading_pattern_resets_the_stream() {
        let mut bus = device_with("AA");
        bus.write(&[0, 0]).unwrap();
        assert_eq!(bus.bytes_streamed(), 2);
        let p2 = Pattern::parse("BB").unwrap();
        bus.load_pattern(&p2).unwrap();
        assert_eq!(bus.bytes_streamed(), 0);
        assert!(!bus.irq_pending());
        // New pattern matches immediately on fresh text.
        bus.write(&[1, 1]).unwrap();
        bus.flush().unwrap();
        assert_eq!(bus.read_event(), Some(MatchEvent { start: 0, end: 1 }));
    }

    #[test]
    fn oversized_pattern_rejected() {
        let mut bus = HostBus::new(4);
        let p = Pattern::parse("AAAAA").unwrap();
        assert!(matches!(
            bus.load_pattern(&p),
            Err(HostError::BadPattern(_))
        ));
    }

    #[test]
    fn error_display() {
        assert!(HostError::NoPattern.to_string().contains("no pattern"));
        assert!(HostError::BadByte(0xff).to_string().contains("0xff"));
        assert!(HostError::Stalled { beats: 12 }.to_string().contains("12"));
    }

    #[test]
    fn bad_pattern_exposes_its_cause() {
        use std::error::Error as _;
        let cause = Error::EmptyPattern;
        let e: HostError = cause.clone().into();
        assert_eq!(e, HostError::BadPattern(cause));
        assert!(e.source().is_some(), "BadPattern must chain its cause");
        assert!(HostError::NoPattern.source().is_none());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy {
            stall_timeout_chars: 4,
            max_retries: 3,
            backoff_base_beats: 8,
            backoff_factor: 4,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_beats(1), 8);
        assert_eq!(p.backoff_beats(2), 32);
        assert_eq!(p.backoff_beats(3), 128);
        // Saturates instead of overflowing.
        let huge = RetryPolicy {
            backoff_base_beats: u64::MAX / 2,
            backoff_factor: 100,
            ..p
        };
        assert_eq!(huge.backoff_beats(5), u64::MAX);
    }

    #[test]
    fn backoff_attempt_overflow_saturates_without_looping() {
        // The closed form must saturate instantly even for an attempt
        // counter near u32::MAX (the old loop would multiply ~4 billion
        // times); with a zero base the schedule stays at zero.
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_beats(u32::MAX), u64::MAX);
        let idle = RetryPolicy {
            backoff_base_beats: 0,
            ..p
        };
        assert_eq!(idle.backoff_beats(u32::MAX), 0);
        // factor 1 never overflows: base forever.
        let flat = RetryPolicy {
            backoff_factor: 1,
            ..p
        };
        assert_eq!(flat.backoff_beats(u32::MAX), flat.backoff_base_beats);
    }

    #[test]
    fn backoff_cap_clamps_growth_and_jitter() {
        let p = RetryPolicy {
            backoff_base_beats: 8,
            backoff_factor: 4,
            backoff_cap_beats: 100,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_beats(1), 8);
        assert_eq!(p.backoff_beats(2), 32);
        assert_eq!(p.backoff_beats(3), 100); // 128 clamped
        assert_eq!(p.backoff_beats(u32::MAX), 100); // saturated then clamped
        let jittery = RetryPolicy {
            jitter_permille: 1000,
            ..p
        };
        for attempt in 1..=8 {
            assert!(jittery.backoff_beats(attempt) <= 100);
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let base = RetryPolicy {
            backoff_base_beats: 1000,
            backoff_factor: 2,
            jitter_permille: 250,
            ..RetryPolicy::default()
        };
        let twin = base;
        let mut saw_jitter = false;
        for attempt in 1..=10 {
            let plain = RetryPolicy {
                jitter_permille: 0,
                ..base
            }
            .backoff_beats(attempt);
            let jittered = base.backoff_beats(attempt);
            // Equal policies agree beat-for-beat (seeded stream).
            assert_eq!(jittered, twin.backoff_beats(attempt));
            // Jitter only ever adds, and at most 25 % here.
            assert!(jittered >= plain);
            assert!(jittered <= plain + plain / 4);
            saw_jitter |= jittered != plain;
        }
        assert!(saw_jitter, "250‰ jitter never fired across 10 attempts");
        // A different seed reshuffles the schedule.
        let reseeded = RetryPolicy {
            jitter_seed: 0xDEAD_BEEF,
            ..base
        };
        let differs = (1..=10).any(|a| reseeded.backoff_beats(a) != base.backoff_beats(a));
        assert!(differs, "independent seeds produced identical jitter");
    }
}
