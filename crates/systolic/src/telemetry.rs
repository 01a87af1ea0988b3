//! Beat-level trace events and the zero-cost-when-disabled sink trait.
//!
//! The paper's only quantitative claim — one character every 250 ns
//! (§1) — is a *rate*, and rates regress silently unless something is
//! watching. This module defines the observability contract the whole
//! workspace shares: a flat [`TraceEvent`] taxonomy spanning every
//! layer (array beats and clock phases here; host-bus stalls, BIST
//! scrubs and scheduler job lifecycle in `pm-chip`), and a
//! [`TraceSink`] trait the hot paths emit into.
//!
//! The taxonomy lives in this bottom crate so that the beat engines can
//! emit without depending upward; each layer emits only its own
//! variants. Two disciplines keep the disabled path free:
//!
//! * **Monomorphised paths** (e.g.
//!   [`SuperplaneDriver::run_with_sink`](crate::superplane::SuperplaneDriver::run_with_sink))
//!   take `&S where S: TraceSink`. With [`NullSink`] the
//!   `enabled() == false` constant folds and every emission compiles
//!   away. `SuperplaneDriver::run` is `run_with_sink(&NullSink)`, so
//!   there is no separate un-instrumented loop; `pm-bench`'s E30 A/B
//!   times that loop against the same loop with a disabled
//!   `dyn TraceSink`, which still pays one `enabled()` call per beat.
//! * **Dynamic paths** (the `pm-chip` scheduler and recovery cascade)
//!   hold a [`SinkHandle`] and guard each emission with one virtual
//!   `enabled()` call; events there are per-batch or per-scrub, never
//!   per-character, so the guard is invisible next to the work.
//!
//! ```
//! use pm_systolic::telemetry::{MemorySink, TraceEvent, TraceSink};
//!
//! let sink = MemorySink::new();
//! sink.record(TraceEvent::CacheLookup { hit: true });
//! assert_eq!(sink.events().len(), 1);
//! ```

use std::fmt;
use std::sync::{Arc, Mutex};

/// The two phases of the paper's two-phase non-overlapping clock (§4:
/// "two-phase clocks are used to move data through the chip").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockPhase {
    /// φ1: precharge / transfer into the cell.
    Phi1,
    /// φ2: evaluate / transfer out of the cell.
    Phi2,
}

impl fmt::Display for ClockPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClockPhase::Phi1 => write!(f, "φ1"),
            ClockPhase::Phi2 => write!(f, "φ2"),
        }
    }
}

/// One observable event. Variants are flat `Copy` data so recording is
/// a store, never an allocation; each layer emits only its own rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// One clock phase of one array beat (emitted by beat-accurate
    /// engines; two per beat).
    Clock {
        /// Beat number within the run.
        beat: u64,
        /// Which phase of the beat.
        phase: ClockPhase,
    },
    /// A text item entered the array.
    TextInjected {
        /// Beat of injection.
        beat: u64,
        /// Text position carried by the item.
        seq: u64,
    },
    /// A result left the array with at least the possibility of a
    /// match: the comparator column's verdict for one text position.
    ComparatorFire {
        /// Beat the result exited on.
        beat: u64,
        /// Text position of the result.
        seq: u64,
        /// Number of lanes whose window matched (1 for scalar engines,
        /// up to 64 for the bit-plane engines, 0 for a miss).
        lanes: u32,
    },
    /// The host watchdog declared the result stream stalled.
    HostStall {
        /// First text position whose result is overdue.
        missing_from: u64,
    },
    /// The host retried an operation after backoff (BIST re-run).
    HostRetry {
        /// Retry attempt number (1-based).
        attempt: u32,
        /// Idle beats of backoff before this attempt.
        backoff_beats: u64,
    },
    /// A BIST self-test finished on one socket (attach-time or scrub).
    ScrubOutcome {
        /// Socket index on the board.
        socket: u32,
        /// Whether the socket passed every vector on every port.
        passed: bool,
        /// Array beats the test occupied.
        beats: u64,
    },
    /// A socket exhausted its retries and was condemned.
    Condemned {
        /// Socket index on the board.
        socket: u32,
    },
    /// The chain was rewired around condemned sockets.
    Remapped {
        /// Sockets in the healed chain.
        chain_len: u32,
        /// Characters replayed through it.
        replayed_chars: u64,
    },
    /// Results up to a watermark became final.
    Committed {
        /// Results are final for positions `< upto`.
        upto: u64,
    },
    /// Spares exhausted; the software fallback took over.
    FallbackEngaged,
    /// The scheduler handed a job to a worker.
    JobStarted {
        /// Caller-chosen job id.
        job: u64,
        /// Worker index.
        worker: u32,
    },
    /// A job's results were recorded.
    JobCompleted {
        /// Caller-chosen job id.
        job: u64,
        /// Worker index.
        worker: u32,
        /// Text characters the job streamed.
        chars: u64,
        /// Matches found in the job's text.
        matches: u64,
    },
    /// One bit-plane batch executed to completion.
    BatchExecuted {
        /// Worker index.
        worker: u32,
        /// Lane slots that carried a stream (≤ `slots`).
        lanes: u32,
        /// Lane slots the batch offered (64 for the `u64` engine,
        /// `W × 64` for a width-`W` superplane batch).
        slots: u32,
        /// Engine steps (text positions) the batch advanced.
        steps: u64,
        /// Wall-clock microseconds the batch took (0 when the caller
        /// does not time batches).
        micros: u64,
    },
    /// A compiled-pattern cache lookup.
    CacheLookup {
        /// Whether the lookup hit.
        hit: bool,
    },
    /// The scheduler chose its superplane width and SIMD kernel for a
    /// run (emitted once per `ThroughputEngine::run` in `pm-chip`; the
    /// level is process-wide, see
    /// [`simd_level`](crate::superplane::simd_level)).
    DispatchSelected {
        /// Superplane width in words (1, 4 or 8).
        words: u32,
        /// The instruction-set level the kernel dispatches to.
        level: crate::superplane::SimdLevel,
    },
    /// A chaos-harness fault fired in a scheduler worker's datapath
    /// (`pm-chip`'s seeded fault-injection campaigns).
    FaultInjected {
        /// Worker index.
        worker: u32,
        /// Stable snake_case fault label (shared with logs).
        label: &'static str,
    },
    /// A sampled-lane scrub re-ran one lane of a batch through the
    /// scalar specification and the results disagreed.
    ScrubMismatch {
        /// Worker index.
        worker: u32,
        /// Batch index within the run's plan.
        batch: u64,
    },
    /// A scheduler worker was quarantined: its uncommitted outputs
    /// were voided and its batches requeued for verified recovery.
    WorkerQuarantined {
        /// Worker index.
        worker: u32,
        /// Stable snake_case label of the detected fault.
        label: &'static str,
    },
    /// The degradation ladder moved: down a rung on a detected fault,
    /// up a rung after enough clean batches.
    LadderMoved {
        /// The new rung's superplane width in words; 0 means the
        /// software-fallback rung.
        words: u32,
        /// `true` for a demotion (down), `false` for a re-promotion.
        down: bool,
    },
    /// A voided batch was re-executed on a recovery rung.
    BatchRetried {
        /// Batch index within the run's plan.
        batch: u64,
        /// Retry attempt on the current rung (1-based).
        attempt: u32,
        /// The rung's superplane width in words.
        words: u32,
    },
    /// A pattern dictionary was compiled into resident groups (§3.4
    /// chip farm): `resident / patterns` is the dedup ratio,
    /// `resident / lane_slots` the lane occupancy.
    DictionaryPlanned {
        /// Patterns submitted to the compiler.
        patterns: u64,
        /// Distinct patterns left resident after prefix/duplicate dedup.
        resident: u64,
        /// Superplane groups planned.
        groups: u32,
        /// Total lane slots across those groups: the sum of their
        /// `W × 64` capacities.
        lane_slots: u64,
    },
    /// A front-door client session was admitted (`pm-serve`).
    SessionOpened {
        /// Server-assigned session id.
        session: u64,
    },
    /// A front-door session closed normally.
    SessionClosed {
        /// Server-assigned session id.
        session: u64,
        /// Text characters the session streamed.
        chars: u64,
        /// Match events the session was delivered.
        events: u64,
    },
    /// Admission control turned a client away: a session open over the
    /// session cap, or a feed over a byte budget.
    SessionRejected {
        /// `true` when the client was told to retry after backoff
        /// (SERVER_BUSY), `false` for a hard protocol rejection.
        retriable: bool,
    },
    /// One protocol frame arrived on a front-door connection.
    FrameReceived {
        /// Wire kind byte of the frame.
        kind: u8,
        /// Payload bytes carried (text chunk length for FEED frames).
        bytes: u64,
    },
    /// Match events were delivered to a front-door client.
    EventsDelivered {
        /// Server-assigned session id.
        session: u64,
        /// Events in the delivered batch.
        events: u64,
    },
    /// The server signalled backpressure: the client was handed a
    /// retry-after hint paced by the host `RetryPolicy`.
    BackpressureSignalled {
        /// Server-assigned session id (0 when rejecting an open).
        session: u64,
        /// Milliseconds the client was asked to back off.
        backoff_ms: u64,
    },
    /// A front-door connection's unsent replies reached a new high for
    /// that connection (`pm_serve`'s outbox high-water mark bounds it).
    OutboxBacklog {
        /// Reply bytes held unsent.
        bytes: u64,
    },
    /// A worker's own deque was empty, so it stole a batch from a
    /// sibling (`pm_chip`'s work-stealing scheduler).
    BatchStolen {
        /// The thief worker.
        worker: u32,
        /// The worker whose deque lost the batch.
        victim: u32,
    },
    /// The router planned one run: jobs were grouped by pattern and
    /// spread across shards by load and pattern affinity.
    RouterPlanned {
        /// Shards the plan spread work over.
        shards: u32,
        /// Jobs admitted to the run.
        jobs: u64,
        /// Distinct pattern groups the jobs collapsed into.
        groups: u64,
        /// Groups moved off their affinity shard for load balance.
        moves: u64,
        /// Wall-clock microseconds routing took (admission overhead,
        /// excluding the per-shard batch planners).
        micros: u64,
    },
    /// One shard of the router memory system accepted its slice of a
    /// run.
    ShardAdmitted {
        /// Shard index within the router.
        shard: u32,
        /// Jobs assigned to this shard for the run.
        jobs: u64,
        /// Jobs queued on the shard when admission finished (this
        /// run's assignment, gauged before execution drains it).
        depth: u64,
    },
}

/// Where trace events go. Implementations must be cheap and
/// thread-safe; hot paths call [`enabled`](TraceSink::enabled) first
/// and skip event construction entirely when it returns `false`.
pub trait TraceSink: Send + Sync {
    /// Whether this sink wants events at all. Hot paths guard on this;
    /// a constant `false` (as in [`NullSink`]) lets the optimiser
    /// delete the emission sites.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&self, event: TraceEvent);
}

/// The disabled sink: reports `enabled() == false` and ignores events.
/// Monomorphised call sites compile to the un-instrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// A sink that buffers every event in memory, for tests and trace
/// dumps. Unbounded; not for production streams.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("sink poisoned").push(event);
    }
}

/// A shareable, `Debug`/`Clone`-friendly handle to a dynamic sink.
/// Structures that `derive(Debug, Clone)` (the scheduler, the recovery
/// cascade) store one of these instead of a bare trait object.
#[derive(Clone)]
pub struct SinkHandle(Arc<dyn TraceSink>);

impl SinkHandle {
    /// Wraps a shared sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        SinkHandle(sink)
    }

    /// The disabled handle (wraps [`NullSink`]).
    pub fn null() -> Self {
        SinkHandle(Arc::new(NullSink))
    }

    /// Whether the underlying sink wants events.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }

    /// Records one event if the sink is enabled.
    pub fn record(&self, event: TraceEvent) {
        if self.0.enabled() {
            self.0.record(event);
        }
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::null()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.0.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(TraceEvent::FallbackEngaged); // must be a no-op
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::CacheLookup { hit: false });
        sink.record(TraceEvent::Committed { upto: 9 });
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1], TraceEvent::Committed { upto: 9 });
    }

    #[test]
    fn handle_guards_on_enabled() {
        let mem = Arc::new(MemorySink::new());
        let handle = SinkHandle::new(mem.clone());
        assert!(handle.enabled());
        handle.record(TraceEvent::Condemned { socket: 3 });
        assert_eq!(mem.len(), 1);
        let off = SinkHandle::null();
        assert!(!off.enabled());
        off.record(TraceEvent::Condemned { socket: 3 });
        let debug = format!("{off:?}");
        assert!(debug.contains("enabled: false"), "{debug}");
    }

    #[test]
    fn clock_phase_display() {
        assert_eq!(ClockPhase::Phi1.to_string(), "φ1");
        assert_eq!(ClockPhase::Phi2.to_string(), "φ2");
    }
}
