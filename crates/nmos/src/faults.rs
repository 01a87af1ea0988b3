//! Stuck-at fault simulation and test-vector coverage.
//!
//! §4, on the cell-logic task: "In designing the circuits,
//! consideration must be given to how the chip will be tested after
//! fabrication." This module does that consideration's arithmetic:
//! enumerate single stuck-at faults over the netlist, run a candidate
//! test (a pattern and a text) against each faulty chip, and report
//! which faults the test detects — the classic single-stuck-at
//! coverage metric.
//!
//! The regularity argument of §2 shows up concretely: because every
//! cell is a copy, one test sequence that exercises a cell's full
//! behaviour tends to cover the corresponding faults in *all* cells as
//! the data streams through.

use crate::chip::PatternChip;
use crate::level::Level;
use crate::netlist::NodeId;
use pm_systolic::symbol::{Pattern, Symbol};
use std::collections::HashSet;
use std::fmt;

/// One single-stuck-at fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The shorted net.
    pub node: NodeId,
    /// The level it is stuck at.
    pub level: Level,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node #{} stuck-at-{}", self.node.index(), self.level)
    }
}

/// Enumerates both stuck-at faults for every internal net of the chip
/// (rails and pads excluded — shorting an input is a different failure
/// class). `sample_every` thins the list for tractable simulation:
/// 1 = exhaustive.
///
/// ```
/// use pm_nmos::chip::PatternChip;
/// use pm_nmos::faults::enumerate_faults;
///
/// let chip = PatternChip::new(2, 1);
/// let all = enumerate_faults(&chip, 1); // exhaustive
/// assert!(all.len() % 2 == 0); // stuck-at-0 and stuck-at-1 per net
/// let sampled = enumerate_faults(&chip, 10); // every tenth, for speed
/// assert!(sampled.len() <= all.len() / 10 + 1);
/// ```
///
/// # Panics
///
/// Panics if `sample_every` is zero.
pub fn enumerate_faults(chip: &PatternChip, sample_every: usize) -> Vec<Fault> {
    assert!(sample_every > 0, "sampling step must be positive");
    let nl = chip.netlist();
    // HashSet rather than a Vec skip-list: the pad count grows with the
    // chip's pin-out, and the membership probe runs once per net.
    let skip: HashSet<usize> = nl
        .inputs()
        .iter()
        .map(|n| n.index())
        .chain([nl.vdd().index(), nl.gnd().index()])
        .collect();
    let mut faults = Vec::new();
    for i in 0..nl.node_count() {
        if skip.contains(&i) {
            continue;
        }
        faults.push(Fault {
            node: NodeId(i as u32),
            level: Level::Low,
        });
        faults.push(Fault {
            node: NodeId(i as u32),
            level: Level::High,
        });
    }
    faults.into_iter().step_by(sample_every).collect()
}

/// The outcome of running one test against a fault list.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Faults simulated.
    pub total: usize,
    /// Faults whose output differed from the fault-free chip (or that
    /// drove a result slot to `X`, equally observable on a tester).
    pub detected: usize,
    /// The faults the test missed.
    pub escapes: Vec<Fault>,
}

impl CoverageReport {
    /// Detected / total, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

impl fmt::Display for CoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} single-stuck-at faults detected ({:.0}%)",
            self.detected,
            self.total,
            100.0 * self.coverage()
        )
    }
}

/// Runs `(pattern, text)` as a production test: simulates the fault-free
/// chip, then every chip in `faults`, and compares outputs.
///
/// # Panics
///
/// Panics if the fault-free simulation itself fails (a harness bug, not
/// a detected fault).
pub fn coverage(
    chip: &PatternChip,
    pattern: &Pattern,
    text: &[Symbol],
    faults: &[Fault],
) -> CoverageReport {
    coverage_multi(chip, &[(pattern.clone(), text.to_vec())], faults)
}

/// Runs a whole test *program* — several (pattern, text) vectors — and
/// credits a fault as detected if any vector catches it, the way a
/// production tester applies its full sequence.
///
/// # Panics
///
/// Panics if a fault-free simulation fails (a harness bug, not a
/// detected fault).
pub fn coverage_multi(
    chip: &PatternChip,
    tests: &[(Pattern, Vec<Symbol>)],
    faults: &[Fault],
) -> CoverageReport {
    let goldens: Vec<Vec<bool>> = tests
        .iter()
        .map(|(p, t)| {
            chip.match_pattern(p, t)
                .expect("fault-free chip must simulate cleanly")
        })
        .collect();

    // Fault campaigns are embarrassingly parallel: each faulty chip is
    // an independent simulation.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let chunk = faults.len().div_ceil(workers.max(1)).max(1);
    let verdicts: Vec<(Fault, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = faults
            .chunks(chunk)
            .map(|batch| {
                let goldens = &goldens;
                scope.spawn(move || {
                    batch
                        .iter()
                        .map(|&fault| {
                            let caught = tests.iter().zip(goldens).any(|((p, t), golden)| {
                                match chip.match_pattern_with_faults(
                                    p,
                                    t,
                                    &[(fault.node, fault.level)],
                                ) {
                                    Ok(bits) => &bits != golden,
                                    // An X reaching a result slot or an
                                    // oscillating (shorted-loop) netlist:
                                    // equally observable.
                                    Err(_) => true,
                                }
                            });
                            (fault, caught)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let detected = verdicts.iter().filter(|(_, caught)| *caught).count();
    let escapes = verdicts
        .iter()
        .filter(|(_, c)| !c)
        .map(|&(f, _)| f)
        .collect();
    CoverageReport {
        total: faults.len(),
        detected,
        escapes,
    }
}

/// A compact production test for an `n`-cell, `b`-bit chip: a pattern
/// with a wild card and a text that exercises match, mismatch and the
/// wild card in every cell as the streams slide past each other.
pub fn standard_test(columns: usize, bits: u32) -> (Pattern, Vec<Symbol>) {
    use pm_systolic::symbol::{Alphabet, PatSym};
    let alphabet = Alphabet::new(bits).expect("valid width");
    let m = alphabet.size();
    // Pattern: 0, 1, …, wild, …, cycling through the alphabet.
    let symbols: Vec<PatSym> = (0..columns)
        .map(|j| {
            if j == columns / 2 {
                PatSym::Wild
            } else {
                PatSym::Lit(Symbol::new((j % m) as u8))
            }
        })
        .collect();
    let pattern = Pattern::new(symbols, alphabet).expect("non-empty");
    // Text: two pattern images separated by deliberate mismatches.
    let mut text = Vec::new();
    for rep in 0..3 {
        for j in 0..columns {
            let v = if rep == 1 {
                ((j + 1) % m) as u8
            } else {
                (j % m) as u8
            };
            text.push(Symbol::new(v));
        }
    }
    (pattern, text)
}

/// A fuller test program: the [`standard_test`] plus a literal-only
/// vector (no wild card: exercises the x=0 accumulator path), an
/// all-match vector and an all-mismatch vector, together toggling every
/// data path both ways.
pub fn standard_test_program(columns: usize, bits: u32) -> Vec<(Pattern, Vec<Symbol>)> {
    use pm_systolic::symbol::{Alphabet, PatSym};
    let alphabet = Alphabet::new(bits).expect("valid width");
    let m = alphabet.size();
    let mut program = vec![standard_test(columns, bits)];

    // Literal alternating pattern over text that matches everywhere,
    // then nowhere.
    let lit: Vec<PatSym> = (0..columns)
        .map(|j| PatSym::Lit(Symbol::new((j % 2 % m) as u8)))
        .collect();
    let pattern = Pattern::new(lit, alphabet).expect("non-empty");
    let all_match: Vec<Symbol> = (0..3 * columns)
        .map(|j| Symbol::new((j % 2 % m) as u8))
        .collect();
    let inverted: Vec<Symbol> = all_match
        .iter()
        .map(|s| Symbol::new(((usize::from(s.value()) + 1) % m) as u8))
        .collect();
    program.push((pattern.clone(), all_match));
    program.push((pattern, inverted));
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_skips_rails_and_pads() {
        let chip = PatternChip::new(2, 1);
        let faults = enumerate_faults(&chip, 1);
        let nl = chip.netlist();
        for f in &faults {
            assert_ne!(f.node, nl.vdd());
            assert_ne!(f.node, nl.gnd());
            assert!(!nl.inputs().contains(&f.node));
        }
        // Two faults per eligible node.
        assert!(faults.len() > 2 * 10);
    }

    #[test]
    fn enumeration_never_touches_rails_or_pads_at_any_size_or_stride() {
        for (columns, bits) in [(1, 1), (2, 1), (2, 2), (3, 2)] {
            let chip = PatternChip::new(columns, bits);
            let nl = chip.netlist();
            let pads: Vec<_> = nl.inputs().to_vec();
            for stride in [1usize, 2, 3, 7] {
                for f in enumerate_faults(&chip, stride) {
                    assert_ne!(f.node, nl.vdd(), "{columns}x{bits}b stride {stride}");
                    assert_ne!(f.node, nl.gnd(), "{columns}x{bits}b stride {stride}");
                    assert!(
                        !pads.contains(&f.node),
                        "{columns}x{bits}b stride {stride}: pad {f}"
                    );
                }
            }
            // Exhaustive enumeration is exactly two faults per
            // non-rail, non-pad net — nothing dropped, nothing extra.
            let eligible = nl.node_count() - pads.len() - 2;
            assert_eq!(enumerate_faults(&chip, 1).len(), 2 * eligible);
        }
    }

    #[test]
    fn standard_test_detects_most_sampled_faults() {
        // A 2-cell, 1-bit chip, every 5th fault: the streaming test
        // should catch the clear majority of stuck-ats.
        let chip = PatternChip::new(2, 1);
        let (pattern, text) = standard_test(2, 1);
        let faults = enumerate_faults(&chip, 5);
        let report = coverage(&chip, &pattern, &text, &faults);
        assert!(
            report.total >= 10,
            "need a meaningful sample: {}",
            report.total
        );
        assert!(
            report.coverage() > 0.6,
            "coverage only {:.0}% — escapes: {:?}",
            100.0 * report.coverage(),
            report.escapes
        );
    }

    #[test]
    fn known_fault_is_detected() {
        // Stick the result output low: every match disappears.
        let chip = PatternChip::new(2, 1);
        let (pattern, text) = standard_test(2, 1);
        let golden = chip.match_pattern(&pattern, &text).unwrap();
        assert!(golden.iter().any(|&b| b), "test must produce matches");
        // Find a net whose forcing kills the output: force each result
        // wire until the output changes. (The r_out node is private, so
        // probe by effect.)
        let faults = enumerate_faults(&chip, 1);
        let detected_somewhere = faults.iter().any(|f| {
            chip.match_pattern_with_faults(&pattern, &text, &[(f.node, f.level)])
                .map(|bits| bits != golden)
                .unwrap_or(true)
        });
        assert!(detected_somewhere);
    }

    #[test]
    fn report_display() {
        let r = CoverageReport {
            total: 10,
            detected: 9,
            escapes: vec![],
        };
        assert!(r.to_string().contains("9/10"));
        assert!((r.coverage() - 0.9).abs() < 1e-12);
    }
}
