//! # pm-bench — regenerating every figure and claim of the paper
//!
//! The ISCA 1980 paper has no numeric tables; its evaluation is the
//! worked figures 3-1 … 3-7 and 4-1, the plates, and the measured
//! 250 ns/character data rate. This crate regenerates all of them:
//!
//! * the [`figures`] module renders each figure from the live models
//!   (run `cargo run -p pm-bench --bin figures` for all of them, or
//!   pass figure names);
//! * the Criterion benches (`cargo bench`) measure the quantitative
//!   claims: throughput scaling (E8/E15), the rejected-alternative
//!   costs (E14), layout area scaling (E17), the clocked/self-timed
//!   crossover (E18) and the switch-level simulator itself.
//!
//! [`workloads`] supplies the deterministic random texts and patterns
//! every experiment shares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod workloads;

/// Canonical location for a `BENCH_*.json` snapshot: the repository
/// root, regardless of the working directory the figure runs from.
/// (Figures used to write cwd-relative paths, which left duplicate
/// snapshots behind when run from `crates/bench`.) The per-figure
/// `PM_*_JSON` environment overrides still win over this default.
///
/// Under `cfg(test)` the path resolves into [`std::env::temp_dir`]
/// instead, so the figure tests never rewrite the committed snapshots.
pub fn snapshot_path(file_name: &str) -> String {
    if cfg!(test) {
        return std::env::temp_dir()
            .join(file_name)
            .to_string_lossy()
            .into_owned();
    }
    format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"))
}
