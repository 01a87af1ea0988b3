//! The closed-form choreography of §3.2.1, as executable theory.
//!
//! The paper derives the array's behaviour by following characters
//! through the cells ("let us follow the history of the character cell
//! indicated by the arrowhead…"). This module states that derivation
//! as formulas and the test suite checks the *simulation* against the
//! *theory* — every meeting happens exactly when and where the algebra
//! says it must:
//!
//! * `p_j` is injected at beat `2j` and occupies cell `t − 2j`;
//! * `s_i` is injected at beat `2i + φ`, `φ = (N−1) mod 2`, and
//!   occupies cell `N−1−(t−2i−φ)`;
//! * they meet at beat `(N−1+φ)/2 + i + j` in cell
//!   `(N−1+φ)/2 + i − j` (plus the recirculation period);
//! * all `k+1` pairs of the window ending at `i` meet in the *same*
//!   cell, on consecutive active beats;
//! * `r_i` leaves the left edge on the same beat as `s_i`, namely
//!   `N − 1 + φ + 2i` (one beat later through the exit register).
//!
//! These identities are what make the design work; having them
//! machine-checked pins the simulator to the paper.

/// The injection/meeting schedule of an `n`-cell array recirculating a
/// pattern of `plen` characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Number of character cells `N`.
    pub cells: usize,
    /// Pattern length `k+1`.
    pub pattern_len: usize,
}

impl Schedule {
    /// Creates a schedule for an array of `cells` cells and a pattern
    /// of `pattern_len` characters.
    ///
    /// # Panics
    ///
    /// Panics if either is zero or the pattern exceeds the array.
    pub fn new(cells: usize, pattern_len: usize) -> Self {
        assert!(
            cells > 0 && pattern_len > 0,
            "schedule needs cells and a pattern"
        );
        assert!(pattern_len <= cells, "pattern must fit the array");
        Schedule { cells, pattern_len }
    }

    /// The text phase offset `φ = (N−1) mod 2` that makes opposing
    /// items meet instead of pass.
    pub fn phi(&self) -> u64 {
        ((self.cells - 1) % 2) as u64
    }

    /// Beat at which pattern item of stream index `j` (counting
    /// recirculations: `p_{j mod (k+1)}`) enters cell 0.
    pub fn pattern_injection_beat(&self, j: u64) -> u64 {
        2 * j
    }

    /// Beat at which text item `s_i` enters cell `N−1`.
    pub fn text_injection_beat(&self, i: u64) -> u64 {
        2 * i + self.phi()
    }

    /// Cell occupied by pattern stream item `j` at beat `t`, if it is
    /// inside the array.
    pub fn pattern_cell_at(&self, j: u64, t: u64) -> Option<usize> {
        let start = self.pattern_injection_beat(j);
        t.checked_sub(start)
            .map(|d| d as usize)
            .filter(|&c| c < self.cells)
    }

    /// Cell occupied by text item `i` at beat `t`, if inside the array.
    pub fn text_cell_at(&self, i: u64, t: u64) -> Option<usize> {
        let start = self.text_injection_beat(i);
        t.checked_sub(start)
            .map(|d| d as usize)
            .filter(|&d| d < self.cells)
            .map(|d| self.cells - 1 - d)
    }

    /// The meeting of text item `i` with pattern *stream* item `j`
    /// (i.e. the `j`-th character put on the bus): `(beat, cell)`, if
    /// the meeting falls inside the array.
    pub fn meeting(&self, i: u64, j: u64) -> Option<(u64, usize)> {
        let half = (self.cells as u64 - 1 + self.phi()) / 2;
        let beat = half + i + j;
        let cell = (half + i) as i64 - j as i64;
        if (0..self.cells as i64).contains(&cell) {
            Some((beat, cell as usize))
        } else {
            None
        }
    }

    /// The pattern stream index carrying `p_m` on recirculation cycle
    /// `q`.
    pub fn stream_index(&self, m: usize, q: u64) -> u64 {
        q * self.pattern_len as u64 + m as u64
    }

    /// The accumulation cell of the window ending at `i`, for
    /// recirculation cycle `q` — every pair `(p_m, s_{i−k+m})` of that
    /// window meets here.
    pub fn window_cell(&self, i: u64, q: u64) -> Option<usize> {
        let k = (self.pattern_len - 1) as u64;
        if i < k {
            return None;
        }
        // Pair m = k: text index i, stream index q(k+1)+k.
        self.meeting(i, self.stream_index(self.pattern_len - 1, q))
            .map(|(_, c)| c)
    }

    /// The recirculation cycles `q` for which the window ending at `i`
    /// is computed inside the array (several, if the array is
    /// oversized — the redundant recomputation of §3.2.1).
    pub fn window_cycles(&self, i: u64) -> Vec<u64> {
        (0..=(i / self.pattern_len as u64 + self.cells as u64))
            .filter(|&q| self.window_cell(i, q).is_some())
            .collect()
    }

    /// Beat at which `r_i`'s last pair (`λ` beat) fires, for cycle `q`.
    pub fn lambda_beat(&self, i: u64, q: u64) -> Option<u64> {
        self.meeting(i, self.stream_index(self.pattern_len - 1, q))
            .map(|(t, _)| t)
    }

    /// Beat at which `s_i` (and `r_i` with it) exits the left edge of
    /// the array.
    pub fn exit_beat(&self, i: u64) -> u64 {
        self.text_injection_beat(i) + self.cells as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Driver;
    use crate::semantics::BooleanMatch;
    use crate::symbol::{Pattern, Symbol};

    #[test]
    fn meetings_are_inside_and_consistent() {
        for cells in 1..10usize {
            let s = Schedule::new(cells, cells.min(3));
            for i in 0..20u64 {
                for j in 0..20u64 {
                    if let Some((beat, cell)) = s.meeting(i, j) {
                        // Both items really are in that cell then.
                        assert_eq!(
                            s.pattern_cell_at(j, beat),
                            Some(cell),
                            "p cells={cells} i={i} j={j}"
                        );
                        assert_eq!(
                            s.text_cell_at(i, beat),
                            Some(cell),
                            "s cells={cells} i={i} j={j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn all_pairs_of_a_window_share_a_cell() {
        // The paper's central claim: "we can therefore keep the partial
        // match results in this cell".
        let s = Schedule::new(7, 4);
        let k = 3u64;
        for i in k..20 {
            for q in s.window_cycles(i) {
                let cell = s.window_cell(i, q).unwrap();
                let mut beats = Vec::new();
                for m in 0..4usize {
                    let (beat, c) = s
                        .meeting(i - k + m as u64, s.stream_index(m, q))
                        .expect("window pairs meet in range");
                    assert_eq!(c, cell, "pair m={m} of window {i} strays");
                    beats.push(beat);
                }
                // Consecutive active beats: spaced exactly 2.
                for w in beats.windows(2) {
                    assert_eq!(w[1] - w[0], 2, "window {i} pairs not consecutive");
                }
            }
        }
    }

    #[test]
    fn windows_tile_contiguously_per_cell() {
        // After r_i completes in a cell, the next window there is
        // r_{i+k+1}, starting exactly two beats later.
        let s = Schedule::new(4, 4);
        let k = 3u64;
        for i in k..12 {
            for q in s.window_cycles(i) {
                let end = s.lambda_beat(i, q).unwrap();
                let next_i = i + 4;
                if let Some(q2) = s
                    .window_cycles(next_i)
                    .into_iter()
                    .find(|&q2| s.window_cell(next_i, q2) == s.window_cell(i, q))
                {
                    let start = s
                        .meeting(next_i - k, s.stream_index(0, q2))
                        .expect("next window's first pair")
                        .0;
                    assert_eq!(start, end + 2, "window {next_i} not contiguous after {i}");
                }
            }
        }
    }

    #[test]
    fn theory_matches_simulation_exit_beats() {
        // Run the real engine and check r_i exits exactly at the
        // theoretical beat (+1 for the exit register's hand-off).
        let pattern = Pattern::parse("ABA").unwrap();
        let text: Vec<Symbol> = (0..10u8).map(|v| Symbol::new(v % 4)).collect();
        for cells in [3usize, 4, 6] {
            let s = Schedule::new(cells, 3);
            let mut d = Driver::new(BooleanMatch, pattern.symbols().to_vec(), &[cells]).unwrap();
            let mut exits: Vec<(u64, u64)> = Vec::new(); // (i, beat)
            for _ in 0..60 {
                let inject = d
                    .text_slot(d.beat())
                    .and_then(|i| text.get(i as usize).copied());
                let beat = d.beat();
                let exit = d.advance_beat(inject);
                if let Some(res) = exit.result {
                    exits.push((res.seq, beat));
                }
            }
            for (i, beat) in exits {
                assert_eq!(beat, s.exit_beat(i), "cells={cells} r_{i}");
            }
        }
    }

    #[test]
    fn oversized_arrays_recompute_windows() {
        // N = 2(k+1): every window is computed twice (harmless
        // redundancy, §3.2.1).
        let s = Schedule::new(8, 4);
        for i in 3..12u64 {
            assert!(
                s.window_cycles(i).len() >= 2,
                "window {i}: {:?}",
                s.window_cycles(i)
            );
        }
        // N = k+1: exactly once.
        let tight = Schedule::new(4, 4);
        for i in 3..12u64 {
            assert_eq!(tight.window_cycles(i).len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_pattern_panics() {
        let _ = Schedule::new(3, 4);
    }
}
