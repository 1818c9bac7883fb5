//! `--runs N`: runs every workload N times as child processes, rotating
//! the workload order each round, and prints per metric × workload the
//! median, quartiles and spread (IQR / median) against the metric's bound.
//!
//! Without `--seed` the rounds use seeds 1..=N, so the spread holds both
//! the inputs' seed-to-seed variation and the host's run-to-run noise;
//! with `--seed S` every round uses S, so it holds the host's noise alone.
//!
//! A spread above the bound is flagged `WIDE`, one above a third of it
//! `noisy`: the fix for either is a longer run (more work per run), not a
//! wider bound. `setup_s` is flagged too but only its median is compared
//! between commits.

use std::collections::BTreeMap;
use std::process::Command;

use crate::metrics::{median, END_TO_END};
use crate::workloads::Workload;

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method) computes them.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Runs the stability mode; returns whether every child run passed.
pub fn run(runs: u32, seed: Option<u64>, seconds: f64) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return false;
        }
    };
    let mut values: BTreeMap<(Workload, &str), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<Workload, Vec<(u64, String)>> = BTreeMap::new();
    let mut failed = 0;
    match seed {
        Some(seed) => println!("{runs} runs per workload, seed {seed} in every run"),
        None => println!("{runs} runs per workload, seeds 1..={runs}"),
    }
    for round in 0..runs {
        let seed = seed.unwrap_or(u64::from(round) + 1);
        for k in 0..Workload::ALL.len() {
            let workload = Workload::ALL[(round as usize + k) % Workload::ALL.len()];
            let child = Command::new(&exe)
                .args(["--workload", workload.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output();
            let out = match child {
                Ok(out) if out.status.success() => out,
                Ok(out) => {
                    failed += 1;
                    eprintln!(
                        "{} seed {seed}: exit {}\n{}",
                        workload.name(),
                        out.status,
                        String::from_utf8_lossy(&out.stderr)
                    );
                    continue;
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("{} seed {seed}: {e}", workload.name());
                    continue;
                }
            };
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                match fields.as_slice() {
                    ["sim_digest", digest] => {
                        digests.entry(workload).or_default().push((seed, digest.to_string()))
                    }
                    [name, value, _unit] => {
                        let def = END_TO_END.iter().find(|d| d.name == *name);
                        if let (Some(def), Ok(value)) = (def, value.parse::<f64>()) {
                            values.entry((workload, def.name)).or_default().push(value);
                        }
                    }
                    _ => {}
                }
            }
            eprintln!("done {} seed {seed}", workload.name());
        }
    }

    println!(
        "{:<9} {:<14} {:<6} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "median", "q1", "q3", "spread", "bound"
    );
    for ((workload, name), xs) in &values {
        let def = END_TO_END.iter().find(|d| d.name == *name).expect("parsed from END_TO_END");
        let bound = def.bound.expect("end-to-end metrics have bounds");
        let mid = median(xs);
        let (q1, q3) = quartiles(xs);
        let spread = if mid != 0.0 { (q3 - q1) / mid.abs() } else { 0.0 };
        let flag = if spread > bound {
            "WIDE"
        } else if spread > bound / 3.0 {
            "noisy"
        } else {
            ""
        };
        println!(
            "{:<9} {:<14} {:<6} {:>14.6e} {:>14.6e} {:>14.6e} {:>7.2}% {:>5.0}% {flag}",
            workload.name(),
            name,
            def.better,
            mid,
            q1,
            q3,
            spread * 100.0,
            bound * 100.0
        );
    }
    for (workload, list) in &digests {
        let list: Vec<String> = list.iter().map(|(seed, d)| format!("{seed}:{d}")).collect();
        println!("sim_digest {} {}", workload.name(), list.join(" "));
    }
    println!("failed runs: {failed}");
    failed == 0
}
