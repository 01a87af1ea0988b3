//! CI bench-regression gate: compares the throughput metrics in one or
//! more freshly generated snapshots (`BENCH_telemetry.json`,
//! `BENCH_superwide.json`, `BENCH_serve.json`, …) against the committed
//! baseline and fails if any shared metric regressed by more than the
//! allowed fraction.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [max_regression]
//! bench_gate <baseline.json> --gate <current.json>[=slack] ...
//! ```
//!
//! The second form gates several snapshots in one invocation, each with
//! its own slack (`BENCH_superwide.json=0.15 BENCH_chaos.json=0.25`);
//! a snapshot without `=slack` uses the 0.15 default. The exit code is
//! the worst outcome across all snapshots, so one CI step can replace a
//! copy-pasted step per snapshot.
//!
//! `max_regression`/slack defaults to 0.15 (15 %): CI runners are
//! noisy, so the gate is deliberately loose — it exists to catch
//! "someone put a mutex in the hot loop", not 2 % jitter. Improvements
//! always pass and are reported so the baseline can be refreshed.
//!
//! Absolute character rates are machine-dependent: a baseline captured
//! on an AVX-512 box says nothing about what an AVX2 or portable
//! runner should sustain, and even same-ISA machines differ by integer
//! factors in core count and clock. By default absolute rates are
//! therefore *advisory* — printed with their change, never a failure.
//! Setting `PM_GATE_RATES=1` (for a dedicated, hardware-stable runner
//! whose baseline was captured on the same class of machine) enforces
//! them, and then only when both snapshots report the same SIMD
//! dispatch level (an explicit `"simd_level"` field, or the
//! `pm_dispatch_*_total` counters). What *is* enforced everywhere is
//! the same-run ratios (`w8_speedup_over_u64`,
//! `serve_delivery_ratio`, …): each compares two measurements from the
//! same process on identical hardware, immune to the machine's
//! absolute speed (skipped only on portable hosts, where the wide
//! kernel has no vector registers to earn its ratios with).
//!
//! Every metric key known to the gate that appears in *both* files is
//! compared (so one baseline schema can gate many snapshot documents);
//! it is an error for a snapshot to share none with the baseline. The
//! JSON is scanned with plain string matching (the repo vendors no
//! JSON parser); the `"` in the search key prevents one metric's name
//! matching inside another's (`"chars_per_sec"` must not match
//! `"superplane_chars_per_sec"`).

use std::process::ExitCode;

/// Absolute rate metrics (chars/sec): advisory unless `PM_GATE_RATES=1`
/// *and* baseline and current snapshots dispatched at the same SIMD
/// level.
const RATE_METRICS: &[&str] = &[
    "chars_per_sec",
    "superplane_chars_per_sec",
    "u64_chars_per_sec",
    "dictionary_chars_per_sec",
    "serve_chars_per_sec",
    "ingest_chars_per_sec",
];

/// Dimensionless same-run ratios: hardware-independent by construction
/// (both sides of the ratio ran on the same machine in the same
/// process), enforced whenever the current run reaches AVX2 or wider.
/// `serve_delivery_ratio` is events-delivered over oracle events
/// (exactness, must hold 1.0); `serve_mean_over_p99` is mean feed
/// latency over the p99 (collapses toward 0 when the tail degrades,
/// so "higher is better" matches the gate's direction).
const RATIO_METRICS: &[&str] = &[
    "w8_speedup_over_u64",
    "chaos_zero_fault_ratio",
    "dict_10k_speedup_over_ac",
    "serve_delivery_ratio",
    "serve_mean_over_p99",
];

/// Absolute ceilings: metrics where the current snapshot must stay at
/// or below a fixed bound, regardless of the baseline or the slack.
/// These are same-run fractions (cost over wall-clock from one
/// process), so like the ratios they are hardware-independent — but
/// unlike the ratios the acceptance bar is a constant, not a
/// comparison: `planner_overhead_frac` is the E36 bound that routing
/// and batch planning together stay under 5 % of batch wall-clock.
const CEILING_METRICS: &[(&str, f64)] = &[("planner_overhead_frac", 0.05)];

/// Default allowed regression fraction.
const DEFAULT_SLACK: f64 = 0.15;

/// Extracts the number following `"{key}":` from a snapshot document.
fn metric(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The SIMD level a snapshot was captured at: the explicit
/// `"simd_level"` string if present, else the nonzero
/// `pm_dispatch_*_total` counter, else unknown.
fn dispatch_level(json: &str) -> Option<&'static str> {
    for level in ["portable", "avx2", "avx512"] {
        let needle = format!("\"simd_level\": \"{level}\"");
        if json.contains(&needle) {
            return Some(level);
        }
    }
    for level in ["portable", "avx2", "avx512"] {
        if metric(json, &format!("pm_dispatch_{level}_total")).is_some_and(|v| v > 0.0) {
            return Some(level);
        }
    }
    None
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// One snapshot to gate: its path and the allowed regression fraction.
struct GateSpec {
    path: String,
    slack: f64,
}

impl GateSpec {
    /// Parses `path` or `path=slack`.
    fn parse(arg: &str) -> Result<Self, String> {
        match arg.rsplit_once('=') {
            Some((path, slack)) => Ok(GateSpec {
                path: path.to_string(),
                slack: slack
                    .parse()
                    .map_err(|_| format!("bad slack in {arg:?}: {slack:?} is not a number"))?,
            }),
            None => Ok(GateSpec {
                path: arg.to_string(),
                slack: DEFAULT_SLACK,
            }),
        }
    }
}

/// Gates one snapshot against the baseline. Returns the number of
/// metrics compared (0 means the files share none — the caller treats
/// that as a usage error) and whether any enforced metric regressed.
fn gate_one(
    baseline_doc: &str,
    current_path: &str,
    current_doc: &str,
    slack: f64,
) -> (usize, bool) {
    let baseline_level = dispatch_level(baseline_doc);
    let current_level = dispatch_level(current_doc);
    // Unknown levels count as matching, preserving the pre-dispatch
    // behaviour for snapshots that predate the level markers.
    let levels_match = match (baseline_level, current_level) {
        (Some(b), Some(c)) => b == c,
        _ => true,
    };
    let gate_rates = std::env::var("PM_GATE_RATES").ok().as_deref() == Some("1");
    if gate_rates && !levels_match {
        println!(
            "bench_gate: PM_GATE_RATES=1, but baseline was captured at SIMD level {} \
             and {current_path} dispatched to {} — absolute chars/sec stay advisory",
            baseline_level.unwrap_or("unknown"),
            current_level.unwrap_or("unknown"),
        );
    }

    let mut compared = 0usize;
    let mut failed = false;
    for (kind, keys) in [("rate", RATE_METRICS), ("ratio", RATIO_METRICS)] {
        for key in keys {
            let (baseline, current) = match (metric(baseline_doc, key), metric(current_doc, key)) {
                (Some(b), Some(c)) => (b, c),
                _ => continue, // metric absent from one side: not gated
            };
            compared += 1;
            let enforced = if kind == "rate" {
                gate_rates && levels_match
            } else {
                current_level != Some("portable")
            };
            let change = if baseline > 0.0 {
                (current - baseline) / baseline
            } else {
                0.0
            };
            let (scale, unit) = if kind == "rate" {
                (1e6, " Mchar/s")
            } else {
                (1.0, "×")
            };
            println!(
                "bench_gate: {current_path}: {key}: baseline {:.2}{unit}, current {:.2}{unit}, \
                 change {:+.1} % ({}: -{:.0} %)",
                baseline / scale,
                current / scale,
                change * 100.0,
                if enforced { "gate" } else { "advisory" },
                slack * 100.0
            );
            if change < -slack && enforced {
                eprintln!(
                    "bench_gate: FAIL — {current_path}: {key} regressed {:.1} % (> {:.0} % allowed)",
                    -change * 100.0,
                    slack * 100.0
                );
                failed = true;
            } else if change > slack && enforced {
                println!(
                    "bench_gate: note — {key} improved {:.1} %; consider refreshing \
                     the committed baseline",
                    change * 100.0
                );
            }
        }
    }
    for &(key, ceiling) in CEILING_METRICS {
        let Some(current) = metric(current_doc, key) else {
            continue; // metric absent: not gated
        };
        compared += 1;
        println!(
            "bench_gate: {current_path}: {key}: current {current:.4}, \
             ceiling {ceiling:.4} (gate: absolute)"
        );
        if current > ceiling {
            eprintln!(
                "bench_gate: FAIL — {current_path}: {key} is {current:.4}, \
                 above the {ceiling:.4} ceiling"
            );
            failed = true;
        }
    }
    (compared, failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: bench_gate <baseline.json> <current.json> [max_regression]\n\
                 \x20      bench_gate <baseline.json> --gate <current.json>[=slack] ...";
    if args.len() < 2 {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }

    // Both CLI forms normalise to a list of (snapshot, slack) specs.
    let specs: Vec<GateSpec> = if args[1] == "--gate" {
        let parsed: Result<Vec<_>, _> = args[2..]
            .iter()
            .filter(|a| *a != "--gate") // a repeated flag is tolerated
            .map(|a| GateSpec::parse(a))
            .collect();
        match parsed {
            Ok(specs) if !specs.is_empty() => specs,
            Ok(_) => {
                eprintln!("bench_gate: --gate needs at least one snapshot\n{usage}");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let slack: f64 = match args.get(2) {
            Some(s) => match s.parse() {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("bench_gate: max_regression must be a number, got {s:?}");
                    return ExitCode::from(2);
                }
            },
            None => DEFAULT_SLACK,
        };
        vec![GateSpec {
            path: args[1].clone(),
            slack,
        }]
    };

    let baseline_doc = match read(&args[0]) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::from(2);
        }
    };

    let mut total_compared = 0usize;
    let mut failed = false;
    for spec in &specs {
        let current_doc = match read(&spec.path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("bench_gate: {e}");
                return ExitCode::from(2);
            }
        };
        let (compared, snapshot_failed) =
            gate_one(&baseline_doc, &spec.path, &current_doc, spec.slack);
        if compared == 0 {
            eprintln!(
                "bench_gate: no known metric ({}) present in both {} and {}",
                RATE_METRICS
                    .iter()
                    .chain(RATIO_METRICS)
                    .copied()
                    .collect::<Vec<_>>()
                    .join(", "),
                args[0],
                spec.path
            );
            return ExitCode::from(2);
        }
        total_compared += compared;
        failed |= snapshot_failed;
    }

    if failed {
        return ExitCode::FAILURE;
    }
    println!(
        "bench_gate: PASS ({total_compared} metric(s) compared across {} snapshot(s))",
        specs.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{dispatch_level, gate_one, metric, GateSpec, DEFAULT_SLACK};

    #[test]
    fn extracts_the_rate() {
        let json = "{\n  \"chars_per_sec\": 108625454.9,\n  \"counters\": {}\n}";
        assert_eq!(metric(json, "chars_per_sec"), Some(108625454.9));
        assert_eq!(metric("{}", "chars_per_sec"), None);
        assert_eq!(
            metric("{\"chars_per_sec\": 0.0}", "chars_per_sec"),
            Some(0.0)
        );
    }

    #[test]
    fn superplane_key_does_not_satisfy_the_plain_key() {
        // The quote in the needle stops "chars_per_sec" matching inside
        // "superplane_chars_per_sec".
        let json = "{\n  \"superplane_chars_per_sec\": 500000000.0\n}";
        assert_eq!(metric(json, "chars_per_sec"), None);
        assert_eq!(metric(json, "superplane_chars_per_sec"), Some(500000000.0));
    }

    #[test]
    fn negative_and_exponent_forms_parse() {
        let json = "{\"u64_chars_per_sec\": 1.25e8}";
        assert_eq!(metric(json, "u64_chars_per_sec"), Some(1.25e8));
    }

    #[test]
    fn dispatch_level_reads_field_then_counters() {
        assert_eq!(dispatch_level("{\"simd_level\": \"avx2\"}"), Some("avx2"));
        let counters = "{\"pm_dispatch_portable_total\": 0,\n\
                        \"pm_dispatch_avx2_total\": 0,\n\
                        \"pm_dispatch_avx512_total\": 3}";
        assert_eq!(dispatch_level(counters), Some("avx512"));
        assert_eq!(dispatch_level("{\"chars_per_sec\": 1.0}"), None);
    }

    /// The gate parses what the telemetry exporter actually writes, so
    /// an exporter format change the gate cannot read fails here.
    #[test]
    fn reads_the_real_telemetry_exporter() {
        use pm_chip::telemetry::MetricsRegistry;
        use pm_systolic::superplane::SimdLevel;
        use pm_systolic::telemetry::{TraceEvent, TraceSink};

        let registry = MetricsRegistry::new();
        assert_eq!(dispatch_level(&registry.snapshot().to_json(0.0)), None);
        registry.record(TraceEvent::JobCompleted {
            job: 0,
            worker: 0,
            chars: 4096,
            matches: 3,
        });
        registry.record(TraceEvent::DispatchSelected {
            words: 8,
            level: SimdLevel::Avx2,
        });
        let json = registry.snapshot().to_json(108625454.9);
        assert_eq!(metric(&json, "chars_per_sec"), Some(108625454.9));
        assert_eq!(metric(&json, "pm_chars_total"), Some(4096.0));
        assert_eq!(metric(&json, "pm_superplane_words"), Some(8.0));
        assert_eq!(dispatch_level(&json), Some("avx2"));
    }

    #[test]
    fn gate_spec_parses_slack_and_defaults() {
        let spec = GateSpec::parse("BENCH_chaos.json=0.25").unwrap();
        assert_eq!(spec.path, "BENCH_chaos.json");
        assert_eq!(spec.slack, 0.25);
        let spec = GateSpec::parse("BENCH_serve.json").unwrap();
        assert_eq!(spec.slack, DEFAULT_SLACK);
        assert!(GateSpec::parse("x.json=wide").is_err());
    }

    #[test]
    fn ratio_regression_fails_only_within_slack() {
        let baseline = "{\"w8_speedup_over_u64\": 2.0, \"simd_level\": \"avx2\"}";
        let ok = "{\"w8_speedup_over_u64\": 1.8, \"simd_level\": \"avx2\"}";
        let bad = "{\"w8_speedup_over_u64\": 1.0, \"simd_level\": \"avx2\"}";
        let (compared, failed) = gate_one(baseline, "ok.json", ok, 0.15);
        assert_eq!((compared, failed), (1, false));
        let (compared, failed) = gate_one(baseline, "bad.json", bad, 0.15);
        assert_eq!((compared, failed), (1, true));
        // Portable hosts don't enforce ratios.
        let portable = "{\"w8_speedup_over_u64\": 1.0, \"simd_level\": \"portable\"}";
        let (_, failed) = gate_one(baseline, "p.json", portable, 0.15);
        assert!(!failed);
    }

    #[test]
    fn planner_overhead_ceiling_is_absolute() {
        // The ceiling binds the *current* snapshot against a constant:
        // the baseline value is irrelevant and no SIMD level exempts it.
        let baseline = "{\"planner_overhead_frac\": 0.2}";
        let under = "{\"planner_overhead_frac\": 0.049, \"simd_level\": \"portable\"}";
        let over = "{\"planner_overhead_frac\": 0.051, \"simd_level\": \"portable\"}";
        let (compared, failed) = gate_one(baseline, "u.json", under, 0.15);
        assert_eq!((compared, failed), (1, false));
        let (compared, failed) = gate_one(baseline, "o.json", over, 0.15);
        assert_eq!((compared, failed), (1, true));
        // Absent from the snapshot: not gated, not counted.
        let (compared, _) = gate_one(
            "{\"chars_per_sec\": 1.0}",
            "n.json",
            "{\"chars_per_sec\": 1.0}",
            0.15,
        );
        assert_eq!(compared, 1, "only the advisory rate");
    }

    #[test]
    fn serve_ratios_are_known_to_the_gate() {
        let baseline = "{\"serve_delivery_ratio\": 1.0, \"serve_mean_over_p99\": 0.2,\n\
                        \"simd_level\": \"avx2\"}";
        let dropped_events = "{\"serve_delivery_ratio\": 0.5, \"serve_mean_over_p99\": 0.2,\n\
                              \"simd_level\": \"avx2\"}";
        let (compared, failed) = gate_one(baseline, "s.json", dropped_events, 0.15);
        assert_eq!((compared, failed), (2, true));
        let (_, failed) = gate_one(baseline, "s.json", baseline, 0.15);
        assert!(!failed);
    }
}
