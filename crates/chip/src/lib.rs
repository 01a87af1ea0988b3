//! # pm-chip — the pattern matcher as a packaged part
//!
//! `pm-systolic` models the algorithm; this crate models the *chip*:
//!
//! * [`timing`] — the two-phase clock budget behind the paper's headline
//!   measurement, "the chip can achieve a data rate of one character
//!   every 250 ns, which is higher than the memory bandwidth of most
//!   conventional computers" (§1), and the corollary that the rate is
//!   independent of pattern length;
//! * [`pins`] — the pin budget that §3.4's extensibility argument
//!   implies ("more inputs and outputs must be provided"), checked
//!   against period packages;
//! * [`cascade`] — the five-chip matcher of Figure 3-7: `k` chips of
//!   `n` cells each matching patterns up to `kn` characters;
//! * [`multipass`] — matching patterns *longer* than the whole system
//!   by running the pattern through several times with the text delayed
//!   by `n` characters per run (§3.4);
//! * [`host`] — the peripheral-attachment model of Figure 1-1: a
//!   memory-mapped device with FIFOs and a match interrupt, as a host
//!   computer's driver would see it;
//! * [`wafer`] — §5's wafer-scale integration: defect maps,
//!   interconnect harvesting and the modularity yield dividend;
//! * [`bist`] — built-in self-test: the §4 production test program
//!   repackaged so a running system can re-verify a chip in the field;
//! * [`recovery`] — the self-healing cascade closing the
//!   detect → isolate → remap → resume loop over [`bist`], the
//!   [`wafer`] rewiring logic and a software fallback matcher;
//! * [`faults`] — the unified fault taxonomy and the seeded
//!   fault-injection plans ([`faults::FaultPlan`]) the chaos harness
//!   replays deterministically against the scheduler;
//! * [`throughput`] — the multi-stream job scheduler: N `(pattern,
//!   text)` jobs sharded across worker threads driving the lane-packed
//!   bit-plane kernel of `pm_systolic::superplane`, with an LRU compiled-pattern
//!   cache, reporting through the [`counters`] module;
//! * [`shard`] — the memory system over [`throughput`]: each
//!   [`shard::Shard`] owns workers, caches and a resilience ladder
//!   over its slice of the lane budget, and the [`shard::Router`]
//!   admits jobs, spreads them across shards by load and pattern
//!   affinity, and merges results;
//! * [`ingest`] — zero-copy corpus ingestion: a paged `File` reader
//!   and a borrowed [`ingest::TextSource`] abstraction so batch
//!   drivers scan `&[Symbol]` slices instead of owned buffers, plus a
//!   streaming chunker carrying only the `kmax − 1` overlap tail;
//! * [`plan`] — the length-bucketing discipline shared by the batch,
//!   dictionary and router planners;
//! * [`telemetry`] — counters, fixed-bucket histograms and the
//!   Prometheus/JSON exporters built over the
//!   `pm_systolic::telemetry` trace-event taxonomy; the scheduler,
//!   host bus and recovery cascade all emit into it.

//! ```
//! use pm_chip::prelude::*;
//!
//! let clock = ClockModel::prototype();
//! assert!((clock.char_period_ns() - 250.0).abs() < 5.0);
//! let sheet = DataSheet::compile(8, 2);
//! assert_eq!(sheet.cascade_capacity(5), 40); // Figure 3-7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bist;
pub mod cascade;
pub mod counters;
pub mod datasheet;
pub mod dictionary;
pub mod faults;
pub mod host;
pub mod ingest;
pub mod multipass;
pub mod pins;
pub mod plan;
pub mod recovery;
pub mod shard;
pub mod telemetry;
pub mod throughput;
pub mod timing;
pub mod wafer;

/// Convenient re-exports.
pub mod prelude {
    pub use crate::bist::{BistFailure, BistOutcome, BistPort, BistProgram, BistVector};
    pub use crate::cascade::ChipCascade;
    pub use crate::counters::{CounterSnapshot, RateWindow, ThroughputCounters};
    pub use crate::datasheet::DataSheet;
    pub use crate::dictionary::{DictionaryMatcher, DictionaryStats, PatternDictionary};
    pub use crate::faults::{Fault, FaultPlan, PlaneFault, StickyFault, XorShift64};
    pub use crate::host::{DeviceState, HostBus, HostError, MatchEvent, RetryPolicy};
    pub use crate::ingest::{OverlapChunker, PagedCorpus, SliceSource, TextSource};
    pub use crate::multipass::MultipassMatcher;
    pub use crate::pins::{Package, PinBudget};
    pub use crate::recovery::{
        ChipFault, FaultError, Mode, RecoveryEvent, RecoveryPolicy, ResilientHostBus,
        SelfHealingCascade,
    };
    pub use crate::shard::{Router, RouterConfig, RouterReport, Shard, SlotLease, SlotPool};
    pub use crate::telemetry::{Histogram, HistogramSnapshot, MetricsRegistry, TelemetrySnapshot};
    pub use crate::throughput::{
        Job, JobOutput, JobRef, PatternCache, PatternIndex, ResiliencePolicy, ResilienceReport,
        SuperWidth, ThroughputEngine, WorkerStats,
    };
    pub use crate::timing::{ClockModel, GateDelays};
    pub use crate::wafer::{Wafer, YieldPoint};
}
