//! Full-text search for the "electronic file cabinet" (§3.1).
//!
//! The paper cites a proposal to use string-matching hardware in office
//! automation systems. This example plays that role: ASCII documents
//! (8-bit characters, so an 8-row bit-serial chip), a query with wild
//! cards, the chip mounted as a host peripheral (a bare card on the
//! host bus, [`HostBus::new`]), and a pattern longer than one card
//! handled by §3.4's multi-pass protocol.
//!
//! ```text
//! cargo run --example office_search
//! ```

use systolic_pm::chip::host::HostBus;
use systolic_pm::chip::multipass::MultipassMatcher;
use systolic_pm::systolic::prelude::*;

const MEMO: &str = "TO ALL STAFF: THE PATTERN MATCHING MACHINE IN ROOM 101 \
IS NOW OPERATIONAL. PLEASE FILE MATCHING REQUESTS WITH THE OPERATOR. \
MATCHING TIME IS BILLED PER CHARACTER. THE MACHINE MATCHES ON LINE.";

/// An ASCII query where `?` matches any character.
fn query(q: &str) -> Pattern {
    Pattern::from_bytes(q.as_bytes(), Some(b'?'), Alphabet::EIGHT_BIT).expect("non-empty query")
}

fn show_hits(label: &str, memo: &str, starts: &[usize], len: usize) {
    println!("{label}: {} hit(s)", starts.len());
    for &s in starts {
        println!(
            "  …{}…",
            &memo[s.saturating_sub(8)..(s + len + 8).min(memo.len())]
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("document: {} ASCII characters\n", MEMO.len());

    // --- 1. The chip as a file-cabinet peripheral (Figure 1-1).
    let q1 = query("MATCH???");
    let mut bus = HostBus::new(q1.len());
    bus.load_pattern(&q1)?;
    bus.write(MEMO.as_bytes())?;
    bus.flush()?;
    let mut starts = Vec::new();
    while let Some(ev) = bus.read_event() {
        starts.push(ev.start as usize);
    }
    show_hits("query \"MATCH???\" via the host bus", MEMO, &starts, 8);

    // --- 2. A long query on a small card: multi-pass operation (§3.4).
    let q2 = query("PATTERN MATCHING");
    let card_cells = 8; // the prototype's size — half the query!
    let matcher = MultipassMatcher::new(&q2, card_cells)?;
    let text: Vec<Symbol> = MEMO.bytes().map(Symbol::new).collect();
    let hits = matcher.match_symbols(&text);
    let starts2 = hits.starting_positions();
    println!(
        "\nquery \"PATTERN MATCHING\" ({} chars) on an {}-cell card: {} passes",
        q2.len(),
        card_cells,
        matcher.passes_needed(text.len())
    );
    show_hits("multi-pass result", MEMO, &starts2, q2.len());

    // --- 3. Cross-check against the specification.
    assert_eq!(hits.bits(), match_spec(&text, &q2));
    let spec1 = match_spec(&text, &q1);
    let spec_starts: Vec<usize> = spec1
        .iter()
        .enumerate()
        .filter(|(_, &b)| b)
        .map(|(i, _)| i + 1 - q1.len())
        .collect();
    assert_eq!(starts, spec_starts);
    println!("\nboth queries verified against the executable specification.");
    Ok(())
}
