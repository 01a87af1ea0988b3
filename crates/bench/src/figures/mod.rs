//! One renderer per paper figure / claim. Each function returns the
//! reproduction as printable text; the `figures` binary prints them.

pub mod algorithm;
pub mod chaos;
pub mod dictionary;
pub mod engineering;
pub mod evaluation;
pub mod extensions;
pub mod hardware;
pub mod ingest;
pub mod inventory;
pub mod methodology;
mod paired;
pub mod resilience;
pub mod serve;
pub mod superwide;
pub mod telemetry;
pub mod throughput;

use std::fmt::Write;

/// A named figure renderer.
pub type FigureEntry = (&'static str, fn() -> String);

/// The full registry of figure renderers, in paper order: the name
/// accepted on the `figures` binary's command line, and the renderer.
pub fn all() -> Vec<FigureEntry> {
    vec![
        ("fig3_1", algorithm::fig3_1 as fn() -> String),
        ("fig3_2", algorithm::fig3_2),
        ("fig3_3", algorithm::fig3_3),
        ("fig3_4", algorithm::fig3_4),
        ("fig3_5", hardware::fig3_5),
        ("fig3_6", hardware::fig3_6),
        ("plate1", hardware::plate1),
        ("plate2", hardware::plate2),
        ("rate", evaluation::data_rate),
        ("throughput", throughput::throughput),
        ("telemetry", telemetry::telemetry),
        ("superwide", superwide::superwide),
        ("chaos", chaos::chaos),
        ("dictionary", dictionary::dictionary_figure),
        ("ingest", ingest::ingest_figure),
        ("serve", serve::serve_figure),
        ("fig3_7", extensions::fig3_7),
        ("multipass", extensions::multipass),
        ("counting", extensions::counting),
        ("correlation", extensions::correlation),
        ("fir", extensions::fir),
        ("alternatives", evaluation::alternatives),
        ("wildcards", evaluation::wildcard_scaling),
        ("area", evaluation::area_scaling),
        ("selftimed", evaluation::selftimed),
        ("fig4_1", evaluation::fig4_1),
        ("faults", engineering::fault_coverage),
        ("wafer", engineering::wafer_yield),
        ("healing", resilience::healing),
        ("organisations", engineering::organisations),
        ("fig1_1", engineering::host_interface),
        ("inventory", inventory::inventory),
        ("products", methodology::products),
        ("clockgen", methodology::clock_generator),
        ("rework", methodology::rework),
        ("hierarchy", methodology::hierarchy),
    ]
}

/// Renders one figure by name.
pub fn render(name: &str) -> Option<String> {
    all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f())
}

/// Writes a figure's JSON snapshot to `path` and reports the write in
/// `out`; a failed write is not an error, so read-only checkouts render.
fn write_snapshot(out: &mut String, path: &str, json: &str) {
    let wrote = if std::fs::write(path, json).is_ok() {
        "written to"
    } else {
        "NOT written to"
    };
    let len = json.len();
    writeln!(out, "\n  JSON snapshot ({len} bytes) {wrote} {path}").unwrap();
}

#[cfg(test)]
mod beat_goldens;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders_nonempty() {
        for (name, f) in all() {
            let out = f();
            assert!(out.len() > 40, "{name} rendered almost nothing:\n{out}");
        }
    }

    #[test]
    fn render_by_name() {
        assert!(render("fig3_1").is_some());
        assert!(render("nope").is_none());
    }
}
