//! Golden test for the two telemetry exporters: a registry fed every
//! `TraceEvent` variant must render Prometheus text and JSON that are
//! byte-identical to the committed goldens, and every metric it exports
//! must have moved. The first half pins the exposition format (which
//! scrapers and the CI `bench_gate` parse); the second catches a fold
//! arm that names its event but records nothing.

use systolic_pm::chip::telemetry::{MetricsRegistry, TelemetrySnapshot};
use systolic_pm::systolic::superplane::SimdLevel;
use systolic_pm::systolic::telemetry::{ClockPhase, TraceEvent, TraceSink};

const PROM_GOLDEN: &str = include_str!("golden/telemetry.prom");
const JSON_GOLDEN: &str = include_str!("golden/telemetry.json");

/// Rate passed to `to_json`; any fixed value will do.
const CHARS_PER_SEC: f64 = 1234.5;

/// Every variant of the taxonomy at least once, both values of every
/// boolean field, all three SIMD levels, one untimed and one timed
/// batch.
fn events() -> Vec<TraceEvent> {
    use TraceEvent::*;
    vec![
        // Five phases: beats are derived as phases / 2, rounding down.
        Clock {
            beat: 0,
            phase: ClockPhase::Phi1,
        },
        Clock {
            beat: 0,
            phase: ClockPhase::Phi2,
        },
        Clock {
            beat: 1,
            phase: ClockPhase::Phi1,
        },
        Clock {
            beat: 1,
            phase: ClockPhase::Phi2,
        },
        Clock {
            beat: 2,
            phase: ClockPhase::Phi1,
        },
        TextInjected { beat: 0, seq: 0 },
        ComparatorFire {
            beat: 5,
            seq: 2,
            lanes: 3,
        },
        HostStall { missing_from: 7 },
        HostRetry {
            attempt: 1,
            backoff_beats: 4,
        },
        ScrubOutcome {
            socket: 1,
            passed: true,
            beats: 30,
        },
        ScrubOutcome {
            socket: 2,
            passed: false,
            beats: 12,
        },
        Condemned { socket: 2 },
        Remapped {
            chain_len: 5,
            replayed_chars: 64,
        },
        Committed { upto: 100 },
        FallbackEngaged,
        JobStarted { job: 0, worker: 0 },
        JobCompleted {
            job: 0,
            worker: 0,
            chars: 4096,
            matches: 3,
        },
        BatchExecuted {
            worker: 0,
            lanes: 48,
            slots: 64,
            steps: 4096,
            micros: 0,
        },
        BatchExecuted {
            worker: 1,
            lanes: 200,
            slots: 512,
            steps: 100,
            micros: 120,
        },
        CacheLookup { hit: true },
        CacheLookup { hit: false },
        DispatchSelected {
            words: 1,
            level: SimdLevel::Portable,
        },
        DispatchSelected {
            words: 4,
            level: SimdLevel::Avx2,
        },
        DispatchSelected {
            words: 8,
            level: SimdLevel::Avx512,
        },
        FaultInjected {
            worker: 1,
            label: "lane_upset",
        },
        ScrubMismatch {
            worker: 1,
            batch: 3,
        },
        WorkerQuarantined {
            worker: 1,
            label: "lane_upset",
        },
        LadderMoved {
            words: 4,
            down: true,
        },
        LadderMoved {
            words: 8,
            down: false,
        },
        BatchRetried {
            batch: 3,
            attempt: 1,
            words: 4,
        },
        DictionaryPlanned {
            patterns: 100,
            resident: 90,
            groups: 2,
            lane_slots: 128,
        },
        SessionOpened { session: 1 },
        SessionClosed {
            session: 1,
            chars: 512,
            events: 3,
        },
        SessionRejected { retriable: true },
        SessionRejected { retriable: false },
        FrameReceived { kind: 3, bytes: 24 },
        EventsDelivered {
            session: 1,
            events: 3,
        },
        BackpressureSignalled {
            session: 1,
            backoff_ms: 10,
        },
        OutboxBacklog { bytes: 4096 },
        OutboxBacklog { bytes: 1024 },
        BatchStolen {
            worker: 0,
            victim: 1,
        },
        RouterPlanned {
            shards: 2,
            jobs: 64,
            groups: 4,
            moves: 1,
            micros: 15,
        },
        ShardAdmitted {
            shard: 0,
            jobs: 32,
            depth: 32,
        },
        ShardAdmitted {
            shard: 1,
            jobs: 32,
            depth: 20,
        },
    ]
}

fn snapshot() -> TelemetrySnapshot {
    let registry = MetricsRegistry::new();
    for event in events() {
        registry.record(event);
    }
    registry.snapshot()
}

#[test]
fn prometheus_matches_the_golden() {
    assert_eq!(snapshot().to_prometheus(), PROM_GOLDEN);
}

#[test]
fn json_matches_the_golden() {
    assert_eq!(snapshot().to_json(CHARS_PER_SEC), JSON_GOLDEN);
}

#[test]
fn beats_stay_derived_from_clock_phases() {
    let snap = snapshot();
    assert_eq!(snap.clock_phases, 5);
    assert_eq!(snap.beats, 2);
}

/// Every counter and gauge sample, and every histogram's `_count`, is
/// non-zero. Read off the exposition itself, so a new metric is covered
/// the moment it is exported.
#[test]
fn every_exported_metric_moved() {
    let text = snapshot().to_prometheus();
    let mut kinds = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a kind");
            kinds.push((name.to_string(), kind.to_string()));
        }
    }
    assert!(kinds.len() > 50, "{kinds:?}");
    for (name, kind) in &kinds {
        let sample = match kind.as_str() {
            "counter" | "gauge" => name.clone(),
            "histogram" => format!("{name}_count"),
            other => panic!("{name}: unexpected metric type {other}"),
        };
        let value: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{sample} ")))
            .unwrap_or_else(|| panic!("no sample line for {sample}"))
            .parse()
            .expect("integer sample");
        assert!(value > 0, "{sample} is zero: its fold arm records nothing");
    }
}
