//! The repository benchmark.
//!
//! ```text
//! repobench --workload <serve_stream|scan_10k|batch_router> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in its own process, generates its inputs from the
//! seed, sets up (timed, several times, median reported), measures for
//! `--seconds` seconds, checks every event it received against the
//! Aho–Corasick oracle after the timed region, and prints one JSON object
//! as the last line of standard output.
//!
//! With `--trace 0` the object carries the end-to-end metrics. With
//! `--trace 1` the run measures an untraced and a traced pass of half
//! the time each and reports the per-layer metrics: times of the
//! benchmark's own calls into each module's public functions, plus the
//! program's own public reports and counters. A layer the workload
//! does not reach reports 0. `README.md` lists which end-to-end metric
//! each per-layer metric should move, and on which workload.

mod batch_router;
mod gen;
mod measure;
mod scan_10k;
mod serve_stream;

use measure::Outcome;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mchar_per_cpu_s", "Mchar/cpu-s"),
    ("feed_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("feed_p99_us", "us"),
    ("wall_mchar_per_s", "Mchar/s"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("server.residual_us", "us"),
    ("session.open_us", "us"),
    ("server.busy_replies", "count"),
    ("server.sessions_opened", "count"),
    ("server.sessions_closed", "count"),
    ("server.sessions_rejected", "count"),
    ("server.frames", "count"),
    ("serve_over_offline", "ratio"),
    ("dictionary.compile_s", "s"),
    ("dictionary.feed_us_per_mib", "us/MiB"),
    ("dictionary.over_ac", "ratio"),
    ("dictionary.groups", "count"),
    ("dictionary.occupancy", "frac"),
    ("dictionary.dedup_ratio", "ratio"),
    ("ingest.read_us_per_mib", "us/MiB"),
    ("router.call_p50_us", "us"),
    ("router.call_p99_us", "us"),
    ("router.route_us", "us"),
    ("router.plan_us", "us"),
    ("router.planner_overhead_frac", "frac"),
    ("router.affinity_moves", "count"),
    ("throughput.lane_occupancy", "frac"),
    ("throughput.cache_hit_frac", "frac"),
    ("throughput.worker_busy_frac", "frac"),
    ("throughput.steals", "count"),
    ("superplane.mchar_per_s", "Mchar/s"),
    ("trace_overhead_frac", "frac"),
    ("host.spin_mops_before", "Mop/s"),
    ("host.spin_mops_after", "Mop/s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The host-speed canary: a fixed dependent xorshift chain in the
/// benchmark's own code, in millions of steps per second. Recorded
/// next to every traced run so a host epoch is visible beside any
/// regression; never gated.
fn spin_mops() -> f64 {
    const STEPS: u64 = 40_000_000;
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// A generated corpus file, written next to the benchmark executable
/// (inside the build directory) and removed on drop.
pub struct CorpusFile(PathBuf);

impl CorpusFile {
    pub fn write(name: &str, bytes: &[u8]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe.parent().ok_or("the executable has no directory")?;
        let path = dir.join(format!("{name}-{}.corpus", std::process::id()));
        std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))?;
        Ok(CorpusFile(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for CorpusFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let spin_before = spin_mops();
    let mut outcome = match args.workload.as_str() {
        "serve_stream" => serve_stream::run(args.seed, budget, args.trace),
        "scan_10k" => scan_10k::run(args.seed, budget, args.trace),
        "batch_router" => batch_router::run(args.seed, budget, args.trace),
        other => Err(format!("unknown workload {other}")),
    }?;
    let spin_after = spin_mops();
    eprintln!("host canary: {spin_before:.1} Mop/s before, {spin_after:.1} Mop/s after");
    if args.trace {
        outcome.push("host.spin_mops_before", spin_before);
        outcome.push("host.spin_mops_after", spin_after);
    } else {
        outcome.push("peak_rss_mb", peak_rss_mb()?);
        let failed_frac = measure::ratio(outcome.failed as f64, outcome.attempted as f64);
        outcome.push("ok_frac", 1.0 - failed_frac);
    }
    Ok(outcome)
}

/// The result line: exactly the metrics of the run's table, in table
/// order. Layers the workload did not reach report 0.
fn result_json(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    for m in &outcome.metrics {
        if !table.iter().any(|(name, _)| *name == m.name) {
            return Err(format!("metric {} is not in the run's table", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let found = outcome.metrics.iter().find(|m| m.name == *name);
        if found.is_none() && !trace {
            return Err(format!("end-to-end metric {name} was not measured"));
        }
        let value = found.map_or(0.0, |m| m.value);
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatched == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| result_json(&o, args.trace)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}
