//! Beat-level goldens: the figures that print the array's state beat by
//! beat, or count beats, must keep their text exactly. The goldens were
//! captured from the `figures` binary; any change to the injection
//! schedule, the wiring order or the drain length shows up here as a
//! diff. The switch-level figures are pinned the same way, so a change
//! to a chip's host schedule or netlist shows up in their device
//! counts, result bits and fault coverage.

use super::{algorithm, engineering, extensions, hardware, inventory, resilience};

#[test]
fn fig3_2_flow_of_characters_is_beat_exact() {
    assert_eq!(algorithm::fig3_2(), include_str!("goldens/fig3_2.txt"));
}

#[test]
fn fig3_3_comparators_and_accumulators_are_beat_exact() {
    assert_eq!(algorithm::fig3_3(), include_str!("goldens/fig3_3.txt"));
}

#[test]
fn healing_table_is_beat_exact() {
    // Detect 1028 and recover 2592 beats for every fault; the
    // exhaustion leg runs out of spares at beat 13148.
    assert_eq!(resilience::healing(), include_str!("goldens/healing.txt"));
}

#[test]
fn multipass_figure_is_exact() {
    // 28 passes of a 24-char pattern over 8 cells find all three
    // planted matches.
    assert_eq!(
        extensions::multipass(),
        include_str!("goldens/multipass.txt")
    );
}

#[test]
fn fault_coverage_is_exact() {
    // Every sampled stuck-at fault is simulated through the whole
    // standard test program, so the counts pin the schedule too.
    assert_eq!(
        engineering::fault_coverage(),
        include_str!("goldens/faults.txt")
    );
}

#[test]
fn organisations_device_counts_are_exact() {
    assert_eq!(
        engineering::organisations(),
        include_str!("goldens/organisations.txt")
    );
}

#[test]
fn inventory_is_exact() {
    assert_eq!(
        inventory::inventory(),
        include_str!("goldens/inventory.txt")
    );
}

#[test]
fn counting_chip_figure_is_exact() {
    assert_eq!(extensions::counting(), include_str!("goldens/counting.txt"));
}

#[test]
fn plate2_figure_is_exact() {
    assert_eq!(hardware::plate2(), include_str!("goldens/plate2.txt"));
}
