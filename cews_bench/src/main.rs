//! `cews_bench`: the DRL-CEWS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path cews_bench/Cargo.toml -- \
//!     --workload <train_paper|fleet_rollout|serve_open> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process. `--trace 0` measures the end-to-end metrics
//! with tracing off; `--trace 1` runs the same workload again with timers
//! around every call into a workspace crate and prints the per-layer
//! ledger. Every input derives from `--seed`. Human-readable lines come
//! first; the last line of standard output is the JSON result. The exit
//! code is 1 when an output check fails and 2 when the run cannot start.
//! See `cews_bench/README.md` for the workloads and the metric table.

mod fleet;
mod report;
mod serve;
mod stats;
mod train;

use report::{fingerprint, json_object, result_json, Outcome};
use std::process::ExitCode;

/// Parsed command line.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
}

/// A file for intermediate output (telemetry event logs), under the build
/// directory so the run writes nothing outside its checkout and nothing
/// git would commit.
pub fn scratch_path(name: &str) -> Result<std::path::PathBuf, String> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("target"), std::path::PathBuf::from)
        .join("cews_bench_scratch");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-{name}", std::process::id())))
}

const USAGE: &str =
    "usage: cews_bench --workload <train_paper|fleet_rollout|serve_open> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run { seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                run.seconds =
                    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cews_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match workload.as_str() {
        "train_paper" => train::run(run),
        "fleet_rollout" => fleet::run(run),
        "serve_open" => serve::run(run),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let outcome: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cews_bench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let mode = if run.trace { "traced" } else { "untraced" };
    println!("workload {workload} ({mode}, seed {}, {} s)", run.seed, run.seconds);
    for m in &outcome.metrics {
        println!("  {:<28} {:>14.6} {:<9} n={:<7} {}", m.name, m.value, m.unit, m.samples, m.what);
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("fingerprint {}", json_object(&fingerprint(run.seed)));
    println!("{}", result_json(&outcome));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, r) =
            parse(&args("--workload serve_open --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(w, "serve_open");
        assert_eq!((r.seed, r.seconds, r.trace), (7, 10.0, true));
        assert!(parse(&args("--workload x --trace 2")).is_err());
        assert!(parse(&args("--seed 1")).is_err(), "workload is required");
        assert!(parse(&args("--workload x --seconds 0")).is_err());
        assert!(parse(&args("--workload x --seed")).is_err());
    }
}
