//! Figures 3-1 … 3-4: the algorithm-level views.

use pm_systolic::bitserial::BitSerialMatcher;
use pm_systolic::engine::Driver;
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::semantics::BooleanMatch;
use pm_systolic::symbol::{text_from_letters, Pattern};
use pm_systolic::trace::TraceRecorder;
use std::fmt::Write;

/// Figure 3-1: the data streams to and from the pattern matcher — the
/// pattern `AXC` against the text of the figure, with the result bits
/// the paper calls out (`r2`, `r5`, `r6`).
pub fn fig3_1() -> String {
    let pattern = Pattern::parse("AXC").expect("valid pattern");
    let text = "ABCAACCAB";
    let symbols = text_from_letters(text).expect("valid text");
    let mut m = SystolicMatcher::new(&pattern).expect("valid matcher");
    let bits = m.match_symbols(&symbols);

    let mut out = String::new();
    writeln!(out, "Figure 3-1: data to and from the pattern matcher").unwrap();
    writeln!(out, "  pattern : {pattern}").unwrap();
    writeln!(
        out,
        "  text    : {}",
        text.chars().map(|c| format!("{c} ")).collect::<String>()
    )
    .unwrap();
    write!(out, "  results : ").unwrap();
    for i in 0..symbols.len() {
        write!(out, "{} ", u8::from(bits.bit(i))).unwrap();
    }
    writeln!(out).unwrap();
    writeln!(
        out,
        "  matches end at {:?} (paper: r2, r5, r6)",
        bits.ending_positions()
    )
    .unwrap();
    out
}

/// Figure 3-2: the flow of characters — a beat-by-beat trace of the
/// pattern marching right and the text marching left with alternate
/// cells idle.
pub fn fig3_2() -> String {
    let pattern = Pattern::parse("ABCA").expect("valid pattern");
    let text = text_from_letters("ABCAABCA").expect("valid text");
    let mut driver =
        Driver::new(BooleanMatch, pattern.symbols().to_vec(), &[4]).expect("valid driver");
    let mut rec = TraceRecorder::new();
    for _ in 0..14 {
        let inject = driver
            .text_slot(driver.beat())
            .and_then(|i| text.get(i as usize).copied());
        driver.advance_beat(inject);
        rec.capture(&driver);
    }
    format!(
        "Figure 3-2: the flow of characters (pattern {pattern} rightward, text leftward,\n\
         `*` marks the λ character, `^` marks cells that computed this beat)\n\n{}",
        rec.render()
    )
}

/// Figure 3-3: comparators over accumulators — the same match run at
/// character level, showing the `λ`/`x` control bits riding with the
/// pattern and the per-cell temporary results.
pub fn fig3_3() -> String {
    let pattern = Pattern::parse("AXC").expect("valid pattern");
    let text = text_from_letters("ABCAACCAB").expect("valid text");
    let mut driver =
        Driver::new(BooleanMatch, pattern.symbols().to_vec(), &[3]).expect("valid driver");

    let mut out = String::new();
    writeln!(
        out,
        "Figure 3-3: comparators (top) and accumulators (bottom)"
    )
    .unwrap();
    writeln!(
        out,
        "  pattern {pattern}: λ rides with 'C', x with the wild card\n"
    )
    .unwrap();
    writeln!(out, "  beat | cell: p(λ,x)         | acc t").unwrap();
    for beat in 0..16u64 {
        let inject = driver
            .text_slot(driver.beat())
            .and_then(|i| text.get(i as usize).copied());
        driver.advance_beat(inject);
        let seg = &driver.segments()[0];
        let mut row = String::new();
        let mut accs = String::new();
        for c in 0..seg.cells() {
            match seg.pattern_slot(c) {
                Some(item) => {
                    let lam = if item.lambda { "λ" } else { " " };
                    let x = if item.payload.is_wild() { "x" } else { " " };
                    write!(row, " {}{}{} ", item.payload, lam, x).unwrap();
                }
                None => row.push_str("  .  "),
            }
            write!(accs, "  {}  ", u8::from(*seg.acc(c))).unwrap();
        }
        writeln!(out, "  {beat:>4} | {row} | {accs}").unwrap();
    }
    out
}

/// Figure 3-4: comparators for single bits — the checkerboard of
/// active one-bit comparator cells over several beats.
pub fn fig3_4() -> String {
    let pattern = Pattern::parse("ABCA").expect("valid pattern");
    let text = text_from_letters("ABCAABCAABCA").expect("valid text");
    let m = BitSerialMatcher::new(&pattern).expect("valid matcher");

    let mut out = String::new();
    writeln!(
        out,
        "Figure 3-4: one-bit comparators, {} rows x {} columns; '#' = active cell",
        m.rows(),
        m.cells()
    )
    .unwrap();
    let rows = m.rows() as usize;
    let cols = m.cells();
    let mut boards: Vec<String> = Vec::new();
    m.match_symbols_observed(&text, |view| {
        if (6..12).contains(&view.beat) {
            let mut board = format!("  beat {:>2}:\n", view.beat);
            for v in 0..rows {
                board.push_str("    ");
                for c in 0..cols {
                    board.push(if view.active.contains(&(v, c)) {
                        '#'
                    } else {
                        '.'
                    });
                }
                board.push('\n');
            }
            boards.push(board);
        }
    });
    for b in boards {
        out.push_str(&b);
    }
    out.push_str("  (active cells form a checkerboard: no two adjacent)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_1_reports_the_papers_positions() {
        let text = fig3_1();
        assert!(text.contains("[2, 5, 6]"), "{text}");
    }

    #[test]
    fn fig3_2_shows_lambda_and_activity() {
        let text = fig3_2();
        assert!(text.contains('*'));
        assert!(text.contains('^'));
    }

    #[test]
    fn fig3_4_has_active_cells() {
        let text = fig3_4();
        assert!(text.contains('#'), "{text}");
    }
}
