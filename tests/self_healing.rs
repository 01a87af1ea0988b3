//! End-to-end self-healing: the Figure 3-7 five-chip cascade loses a
//! chip to a stuck-at fault mid-stream, detects it by scrubbing,
//! remaps onto a spare within its advertised beat bound, and the
//! committed match stream is bit-identical to a fault-free run — §5's
//! replacement argument closed as a running system.

use systolic_pm::chip::prelude::*;
use systolic_pm::systolic::prelude::*;
use systolic_pm::systolic::symbol::text_from_letters;

/// A 33-character pattern on 5×8 cells, as in Figure 3-7.
fn figure_3_7_pattern() -> Pattern {
    Pattern::parse("ABCDACBDABCDDCBAABCDACBDABCDDCBAB").unwrap()
}

fn long_text() -> Vec<Symbol> {
    let base = "ABCDACBDABCDDCBAABCDACBDABCDDCBABDAC";
    text_from_letters(&base.repeat(12)).unwrap()
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        scrub_interval_chars: 64,
        ..RecoveryPolicy::default()
    }
}

#[test]
fn five_chip_cascade_heals_a_mid_stream_stuck_at_fault() {
    let pattern = figure_3_7_pattern();
    assert_eq!(pattern.len(), 33);
    let text = long_text();
    let golden = match_spec(&text, &pattern);

    let mut board = SelfHealingCascade::new(&pattern, 5, 8, 2, policy()).unwrap();
    assert_eq!(board.chain().len(), 5, "Figure 3-7 geometry");

    let mid = text.len() / 2;
    board.write_all(&text[..mid]).unwrap();
    let injected_at = board.beat();
    let bound = board.detection_bound_beats();
    board.inject_fault(2, ChipFault::ResultStuck(true));
    board.write_all(&text[mid..]).unwrap();
    let bits = board.finish().unwrap();

    // Correctness: committed stream equals the fault-free reference.
    assert_eq!(bits.bits(), golden);
    assert_eq!(board.mode(), Mode::Hardware, "healed, not degraded");

    // Detection within the advertised bound, chip condemned, chain
    // rewired around it onto a spare.
    let detected_at = board
        .log()
        .iter()
        .find_map(|e| match e {
            RecoveryEvent::BistFailed { beat, socket, .. } => Some((*beat, *socket)),
            _ => None,
        })
        .expect("the fault must be detected");
    assert_eq!(detected_at.1, 2, "the faulty socket fails self-test");
    assert!(
        detected_at.0 - injected_at <= bound,
        "detection latency {} beats exceeds bound {bound}",
        detected_at.0 - injected_at
    );
    assert!(board.is_condemned(2));
    assert_eq!(board.chain().len(), 5, "still five chips after remap");
    assert!(!board.chain().contains(&2), "condemned socket bypassed");
    assert_eq!(board.spares_remaining(), 1, "one spare consumed");
}

#[test]
fn spare_exhaustion_matches_software_fallback_exactly() {
    let pattern = figure_3_7_pattern();
    let text = long_text();

    let mut board = SelfHealingCascade::new(&pattern, 5, 8, 1, policy()).unwrap();
    let mid = text.len() / 2;
    board.write_all(&text[..mid]).unwrap();
    // Two failures against one spare: exhaustion is forced.
    board.inject_fault(1, ChipFault::TextStuck(0));
    board.inject_fault(3, ChipFault::ResultDead);
    board.write_all(&text[mid..]).unwrap();
    let bits = board.finish().unwrap();

    assert_eq!(board.mode(), Mode::Degraded);
    assert!(board
        .log()
        .iter()
        .any(|e| matches!(e, RecoveryEvent::FallbackEngaged { .. })));

    // The committed stream equals both the spec and a direct run of the
    // software fallback the board degraded to.
    let fallback = systolic_pm::matchers::prelude::software_fallback(&pattern);
    assert_eq!(bits.bits(), fallback.find(&text, &pattern).unwrap());
    assert_eq!(bits.bits(), match_spec(&text, &pattern));
}

#[test]
fn resilient_host_bus_end_to_end_events_survive_a_fault() {
    let pattern = figure_3_7_pattern();
    let text = long_text();
    let golden = match_spec(&text, &pattern);
    let k = pattern.k();

    let mut bus = HostBus::resilient(5, 8, 2, policy());
    bus.load_pattern(&pattern).unwrap();
    let bytes: Vec<u8> = text.iter().map(|s| s.value()).collect();
    let mid = bytes.len() / 2;
    bus.write(&bytes[..mid]).unwrap();
    bus.cascade_mut()
        .unwrap()
        .inject_fault(4, ChipFault::PatternStuck(2));
    bus.write(&bytes[mid..]).unwrap();
    bus.flush().unwrap();
    assert_eq!(bus.state(), DeviceState::Streaming, "healed on hardware");

    let mut got = Vec::new();
    while let Some(e) = bus.read_event() {
        assert_eq!(e.end - e.start, k as u64);
        got.push(e.end as usize);
    }
    let expected: Vec<usize> = golden
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| i)
        .collect();
    assert!(!expected.is_empty(), "workload must contain matches");
    assert_eq!(got, expected, "verified events equal the reference");
}
