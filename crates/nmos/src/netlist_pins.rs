//! Netlist pins: every chip's netlist, hashed node by node and device by
//! device, over a table of sizes. Node order matters beyond the hash:
//! [`crate::faults::enumerate_faults`] samples nets by index, so a
//! builder that creates the same nets in another order changes which
//! faults a sampled campaign simulates.

use crate::charchip::CharChip;
use crate::chip::PatternChip;
use crate::corrchip::CorrChip;
use crate::countchip::CountChip;
use crate::netlist::{Netlist, NodeId};

/// FNV-1a over the node names in id order, then the transistors, the
/// pullups and the inputs.
fn fingerprint(nl: &Netlist) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..nl.node_count() {
        eat(nl.name(NodeId(i as u32)).as_bytes());
        eat(&[0xff]); // names cannot run into each other
    }
    for f in nl.fets() {
        for n in [f.gate, f.a, f.b] {
            eat(&n.0.to_le_bytes());
        }
    }
    eat(&[0xfe]);
    for n in nl.pullups() {
        eat(&n.0.to_le_bytes());
    }
    eat(&[0xfd]);
    for n in nl.inputs() {
        eat(&n.0.to_le_bytes());
    }
    h
}

/// `(chip, fingerprint, node_count, device_count)`.
fn pin(name: String, nl: &Netlist) -> (String, u64, usize, usize) {
    (name, fingerprint(nl), nl.node_count(), nl.device_count())
}

#[test]
fn every_chip_netlist_is_pinned() {
    let mut got = Vec::new();
    for (columns, bits) in [(1, 1), (2, 1), (3, 2), (8, 2), (4, 4)] {
        let chip = PatternChip::new(columns, bits);
        got.push(pin(
            format!("PatternChip({columns},{bits})"),
            &chip.array.nl,
        ));
    }
    for (columns, bits) in [(8, 1), (8, 2), (3, 4)] {
        let chip = CharChip::new(columns, bits);
        got.push(pin(format!("CharChip({columns},{bits})"), &chip.array.nl));
    }
    for (columns, bits, width) in [(3, 2, 3), (8, 2, 4)] {
        let chip = CountChip::new(columns, bits, width);
        got.push(pin(
            format!("CountChip({columns},{bits},{width})"),
            &chip.array.nl,
        ));
    }
    for (columns, width, acc) in [(2, 3, 8), (4, 4, 12)] {
        let chip = CorrChip::new(columns, width, acc);
        got.push(pin(
            format!("CorrChip({columns},{width},{acc})"),
            &chip.array.nl,
        ));
    }
    let want: &[(&str, u64, usize, usize)] = &[
        ("PatternChip(1,1)", 0x3584_0420_82f5_4902, 44, 55),
        ("PatternChip(2,1)", 0x9437_73a0_6df7_6675, 79, 110),
        ("PatternChip(3,2)", 0x155b_79c3_1857_2857, 143, 207),
        ("PatternChip(8,2)", 0xcc41_4655_de76_8a08, 363, 552),
        ("PatternChip(4,4)", 0x0e0d_ffca_e36b_4656, 275, 404),
        ("CharChip(8,1)", 0x8919_bf3a_0fbd_ec3e, 257, 392),
        ("CharChip(8,2)", 0xad84_5649_d8cc_9bfa, 315, 480),
        ("CharChip(3,4)", 0x7f51_8c18_6a75_257f, 171, 246),
        ("CountChip(3,2,3)", 0xf8c5_0dcb_17ce_c5d6, 268, 411),
        ("CountChip(8,2,4)", 0x4567_8bcb_3ad3_2f79, 846, 1344),
        ("CorrChip(2,3,8)", 0x9850_1b65_fbad_ea79, 1965, 3448),
        ("CorrChip(4,4,12)", 0x79aa_360c_4f20_7bfd, 5829, 10284),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, hash, nodes, devices), &want) in got.iter().zip(want) {
        assert_eq!((name.as_str(), *hash, *nodes, *devices), want);
    }
}
