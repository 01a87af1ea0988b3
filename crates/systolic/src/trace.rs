//! Beat-by-beat choreography recording (paper Figure 3-2).
//!
//! Figure 3-2 of the paper traces the flow of pattern and string
//! characters through the array for several beats, showing the two
//! streams marching through each other with alternate cells idle.
//! [`TraceRecorder`] captures the same information from a live
//! [`crate::engine::Driver`] array and renders a text diagram.

use crate::engine::Driver;
use crate::semantics::MeetSemantics;
use std::fmt::Display;

/// The contents of one character cell at one beat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellSnapshot {
    /// Rendered pattern item in the cell, if any.
    pub pattern: Option<String>,
    /// Rendered text item in the cell, if any.
    pub text: Option<String>,
    /// Rendered result item riding through the cell, if any.
    pub result: Option<String>,
    /// Whether the cell computed this beat (a meeting happened).
    pub active: bool,
    /// Whether the pattern item carries the `λ` end-of-pattern bit.
    pub lambda: bool,
}

/// The whole array at one beat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Beat number (0-based).
    pub beat: u64,
    /// One entry per character cell, leftmost first. Cell boundaries
    /// between cascaded segments are invisible here, as on the chip.
    pub cells: Vec<CellSnapshot>,
}

/// Records snapshots of a driver's array, one per beat.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    snapshots: Vec<TraceSnapshot>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Captures the current state of `driver`'s array. Call this after
    /// each [`advance_beat`](crate::engine::Driver::advance_beat).
    pub fn capture<S>(&mut self, driver: &Driver<S>)
    where
        S: MeetSemantics,
        S::Pat: Display,
        S::Txt: Display,
        S::Out: Display,
    {
        let mut cells = Vec::with_capacity(driver.total_cells());
        for seg in driver.segments() {
            for c in 0..seg.cells() {
                let p = seg.pattern_slot(c);
                let s = seg.text_slot(c);
                cells.push(CellSnapshot {
                    pattern: p.map(|i| i.payload.to_string()),
                    text: s.map(|i| i.payload.to_string()),
                    result: seg.result_slot(c).map(|i| i.value.to_string()),
                    active: p.is_some() && s.is_some(),
                    lambda: p.map(|i| i.lambda).unwrap_or(false),
                });
            }
        }
        self.snapshots.push(TraceSnapshot {
            beat: driver.beat().saturating_sub(1),
            cells,
        });
    }

    /// The captured snapshots in beat order.
    pub fn snapshots(&self) -> &[TraceSnapshot] {
        &self.snapshots
    }

    /// Renders the trace in the style of Figure 3-2: one block per beat,
    /// a `p:` row for the pattern stream (`*` marks the `λ` character),
    /// an `s:` row for the text stream, and `^` marks under the cells
    /// that computed this beat.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for snap in &self.snapshots {
            out.push_str(&format!("beat {:>3}  ", snap.beat));
            out.push_str("p: ");
            for cell in &snap.cells {
                let sym = cell.pattern.as_deref().unwrap_or(".");
                let mark = if cell.lambda { "*" } else { " " };
                out.push_str(&format!("{sym:>2}{mark}"));
            }
            out.push('\n');
            out.push_str("          s: ");
            for cell in &snap.cells {
                out.push_str(&format!("{:>2} ", cell.text.as_deref().unwrap_or(".")));
            }
            out.push('\n');
            out.push_str("             ");
            for cell in &snap.cells {
                out.push_str(if cell.active { " ^ " } else { "   " });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Driver;
    use crate::semantics::BooleanMatch;
    use crate::symbol::{text_from_letters, Pattern};

    fn traced(pattern: &str, text: &str, cells: usize, beats: u64) -> TraceRecorder {
        let p = Pattern::parse(pattern).unwrap();
        let t = text_from_letters(text).unwrap();
        let mut d = Driver::new(BooleanMatch, p.symbols().to_vec(), &[cells]).unwrap();
        let mut rec = TraceRecorder::new();
        for _ in 0..beats {
            let inject = d
                .text_slot(d.beat())
                .and_then(|i| t.get(i as usize).copied());
            d.advance_beat(inject);
            rec.capture(&d);
        }
        rec
    }

    #[test]
    fn streams_move_in_opposite_directions() {
        let rec = traced("ABCD", "ABCDABCD", 4, 8);
        let snaps = rec.snapshots();
        // Find a pattern item and check it moved right on the next beat.
        let mut verified_p = false;
        let mut verified_s = false;
        for w in snaps.windows(2) {
            for c in 0..3 {
                if let Some(p) = &w[0].cells[c].pattern {
                    if w[1].cells[c + 1].pattern.as_ref() == Some(p) {
                        verified_p = true;
                    }
                }
                if let Some(s) = &w[0].cells[c + 1].text {
                    if w[1].cells[c].text.as_ref() == Some(s) {
                        verified_s = true;
                    }
                }
            }
        }
        assert!(verified_p, "pattern must move rightward");
        assert!(verified_s, "text must move leftward");
    }

    #[test]
    fn alternate_cells_idle() {
        // On any beat, two horizontally adjacent cells are never both
        // active (the paper's "alternate cells are idle").
        let rec = traced("ABC", "ABCABCABC", 3, 20);
        for snap in rec.snapshots() {
            for pair in snap.cells.windows(2) {
                assert!(
                    !(pair[0].active && pair[1].active),
                    "adjacent active cells at beat {}",
                    snap.beat
                );
            }
        }
    }

    #[test]
    fn render_contains_markers() {
        let rec = traced("AB", "ABAB", 2, 10);
        let text = rec.render();
        assert!(text.contains("beat"));
        assert!(text.contains("p: "));
        assert!(text.contains("s: "));
        assert!(
            text.contains('^'),
            "some cell must have been active:\n{text}"
        );
        assert!(text.contains('*'), "λ marker must appear:\n{text}");
    }

    #[test]
    fn snapshot_count_matches_beats() {
        let rec = traced("AB", "ABAB", 2, 7);
        assert_eq!(rec.snapshots().len(), 7);
        assert_eq!(rec.snapshots()[0].beat, 0);
        assert_eq!(rec.snapshots()[6].beat, 6);
    }
}
