//! The simulator's benchmark.
//!
//! One process runs one named workload (`--workload`, inputs from
//! `--seed`) for `--seconds`, checks that the simulation's outputs are
//! correct, and prints every end-to-end metric as `name value unit` lines,
//! a `sim_digest` line, and a JSON result object as the last line. With
//! `--trace 1` it prints the per-layer metrics of a traced run instead.
//! `--runs N` is the stability mode (see `stability.rs`). The workloads,
//! metrics and layer map are described in this directory's README.md.

mod layers;
mod metrics;
mod stability;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage: benchmark --workload <fleet|burst|hedged|campaign> [--seed N] \
                     [--seconds S] [--trace [0|1]]\n       benchmark --runs N [--seed N] [--seconds S]";

/// Measured-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    /// `--seed`; a single run defaults to 1, the stability mode to seeds
    /// 1..=N.
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    runs: Option<u32>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: None, seed: None, seconds: DEFAULT_SECONDS, trace: false, runs: None };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if flag == "--trace" {
            // `--trace` alone, or with an explicit 0/1.
            parsed.trace = it.next_if(|s| *s == "0" || *s == "1").is_none_or(|s| s == "1");
            continue;
        }
        if !["--workload", "--seed", "--seconds", "--runs"].contains(&flag) {
            return Err(format!("unknown argument {flag}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                let workload = Workload::parse(value);
                parsed.workload =
                    Some(workload.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => parsed.seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                parsed.seconds = s;
            }
            "--runs" => {
                let n: u32 = value.parse().map_err(|e| format!("--runs: {e}"))?;
                if n == 0 {
                    return Err("--runs must be positive".to_string());
                }
                parsed.runs = Some(n);
            }
            _ => unreachable!("flag checked above"),
        }
    }
    if parsed.workload.is_none() && parsed.runs.is_none() {
        return Err("--workload or --runs is required".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.runs, args.workload) {
        (Some(runs), _) => stability::run(runs, args.seed, args.seconds),
        (None, Some(workload)) => {
            let seed = args.seed.unwrap_or(1);
            println!(
                "benchmark workload {} seed {} seconds {} trace {}",
                workload.name(),
                seed,
                args.seconds,
                u8::from(args.trace)
            );
            let report = if args.trace {
                layers::trace(workload, seed, args.seconds, 1.0)
            } else {
                workloads::measure(workload, seed, args.seconds, 1.0)
            };
            report.print()
        }
        (None, None) => unreachable!("parse_args requires --workload or --runs"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
