//! `--repeat N`: run a workload N times, a fresh process and another
//! seed each time, and report how far the runs agree — the procedure
//! the benchmark's own acceptance is written in: per metric, the
//! distance between the first and third quartile of the runs as a share
//! of their median, held against the metric's bound.

use crate::report::RunResult;
use crate::spec::Spec;
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

pub struct RepeatOpts<'a> {
    /// One workload, or `all`.
    pub workload: &'a str,
    pub first_seed: u64,
    pub runs: usize,
    /// Arguments handed to every child as they are (`--seconds`,
    /// `--trace`, `--smoke`, ...).
    pub pass_through: Vec<String>,
    pub spec: Option<Spec>,
    pub save: Option<&'a Path>,
}

fn run_child(workload: &str, seed: u64, pass_through: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(pass_through)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    RunResult::from_json_line(last)
}

/// Runs the set, prints the agreement table, saves the raw runs if
/// asked. Returns whether every end-to-end spread held its bound.
pub fn run(opts: &RepeatOpts) -> Result<bool, String> {
    let workloads: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload]
    };
    let mut all_within = true;
    let mut saved = String::from("{\"sets\": [");
    for (wi, workload) in workloads.iter().enumerate() {
        let mut runs = Vec::new();
        for k in 0..opts.runs {
            let seed = opts.first_seed + k as u64;
            let r = run_child(workload, seed, &opts.pass_through)?;
            eprintln!(
                "{workload} seed {seed}: done ({} failed of {})",
                r.failed, r.attempted
            );
            runs.push((seed, r));
        }
        println!(
            "\n{workload}: {} runs, seeds {}..={}",
            runs.len(),
            opts.first_seed,
            opts.first_seed + opts.runs as u64 - 1
        );
        println!(
            "{:<30} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}",
            "metric", "q1", "median", "q3", "iqr/med", "max-min", "bound"
        );
        let names: Vec<String> = runs[0].1.metrics.iter().map(|m| m.name.clone()).collect();
        for name in &names {
            let values: Vec<f64> = runs.iter().filter_map(|(_, r)| r.get(name)).collect();
            if values.len() < 2 {
                continue;
            }
            let [q1, _, q3] = quartiles(&values);
            let med = median(&values);
            let spread = iqr_share(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            let bound = opts
                .spec
                .as_ref()
                .and_then(|s| s.end_to_end.iter().find(|m| &m.name == name))
                .and_then(|m| m.bound);
            let verdict = match bound {
                Some(b) if spread > b => {
                    all_within = false;
                    format!("{b:>6.3} BEYOND")
                }
                Some(b) if spread > b / 3.0 => format!("{b:>6.3} >1/3"),
                Some(b) => format!("{b:>6.3}"),
                None => String::new(),
            };
            println!(
                "{name:<30} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4} {:>8.4} {verdict}",
                if med == 0.0 {
                    0.0
                } else {
                    (hi - lo) / med.abs()
                }
            );
        }
        let failed: u64 = runs.iter().map(|(_, r)| r.failed).sum();
        println!("failed operations over the set: {failed}");
        all_within &= failed == 0;

        if wi > 0 {
            saved.push(',');
        }
        let _ = write!(saved, "\n{{\"workload\": \"{workload}\", \"runs\": [");
        for (k, (seed, r)) in runs.iter().enumerate() {
            let sep = if k > 0 { "," } else { "" };
            let _ = write!(
                saved,
                "{sep}\n{{\"seed\": {seed}, \"result\": {}}}",
                r.to_json_line()
            );
        }
        saved.push_str("]}");
    }
    saved.push_str("]}\n");
    if let Some(path) = opts.save {
        std::fs::write(path, saved).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_within)
}
