//! End-to-end and per-layer benchmark of the Siloz reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper_grid|fleet_churn|cluster_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a closed loop runs the workload for about
//! `--seconds` of host time and reports the end-to-end metrics; with
//! `--trace 1` it runs a fixed amount of the workload untraced, then with
//! spans timed around every call into a layer, then untraced again, and
//! reports the per-layer breakdown. Either way every simulated output is checked, a
//! deterministic digest of it is printed, and the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! check prints `correct: false` with every operation counted failed and
//! exits non-zero. See `README.md` for the workloads and metrics.

mod cluster_churn;
mod fleet_churn;
mod paper_grid;
mod report;

use report::Outcome;

/// Worker threads the parallel workloads use (the evaluation host has
/// two cores; results are bit-identical at any count).
pub const WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    // The fleet engine and the traced grid replay run on one thread.
    let workers = match (args.workload.as_str(), args.trace) {
        ("fleet_churn", _) | ("paper_grid", true) => 1,
        _ => WORKERS,
    };
    report::print_fingerprint(&args.workload, workers);
    let outcome: Outcome = match (args.workload.as_str(), args.trace) {
        ("paper_grid", false) => paper_grid::run(args.seed, args.seconds),
        ("paper_grid", true) => paper_grid::trace(args.seed),
        ("fleet_churn", false) => fleet_churn::run(args.seed, args.seconds),
        ("fleet_churn", true) => fleet_churn::trace(args.seed),
        ("cluster_churn", false) => cluster_churn::run(args.seed, args.seconds),
        ("cluster_churn", true) => cluster_churn::trace(args.seed),
        (other, _) => {
            eprintln!("e2ebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    std::process::exit(outcome.finish(args.trace));
}
