//! `perfbench` — run the tracked perf suites and write
//! `BENCH_build.json` / `BENCH_query.json`.
//!
//! ```text
//! perfbench                    # full scale, write BENCH_*.json to .
//! perfbench --fast             # CI-smoke scale
//! perfbench --fast --check     # also fail (exit 1) if any median
//!                              # regressed >2x vs the committed files
//!                              # or a committed row is no longer produced
//! perfbench --out target/perf  # write elsewhere
//! ```
//!
//! The committed `BENCH_*.json` at the repo root are the baseline; CI's
//! `bench-smoke` job runs `perfbench --fast --check` on every push.

use bench::perf::{run_build_suite, run_query_suite, PerfReport};

const USAGE: &str = "usage: perfbench [--fast] [--check] [--out DIR] [--reps N]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut check = false;
    let mut out_dir = String::from(".");
    let mut reps = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--check" => check = true,
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs an integer"));
            }
            other => die(&format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if reps == 0 {
        reps = if fast { 5 } else { 9 };
    }

    let mut failed = false;
    for (file, report) in [
        ("BENCH_build.json", run_build_suite(fast, reps)),
        ("BENCH_query.json", run_query_suite(fast, reps)),
    ] {
        println!(
            "== {} suite ({} reps{}) ==",
            report.suite,
            reps,
            if fast { ", --fast" } else { "" }
        );
        for e in &report.entries {
            println!(
                "  {:<28} median {:>9.3} ms   p95 {:>9.3} ms",
                e.name, e.median_ms, e.p95_ms
            );
        }
        if let Some(gflops) = report.median_of("train_leaf_gflops") {
            println!("  leaf training: {gflops:.1} GFLOP/s over the whole step");
        }
        if let (Some(fused), Some(per_example), Some(gflops)) = (
            report.median_of("serve_forward_fused"),
            report.median_of("serve_forward_per_example"),
            report.median_of("serve_forward_fused_gflops"),
        ) {
            println!(
                "  fused serving forward: {gflops:.1} GFLOP/s, {:.2}x the per-example loop",
                per_example / fused
            );
        }
        if let (Some(ranked), Some(generic)) = (
            report.median_of("exact_scan_two_attr"),
            report.median_of("exact_scan_two_attr_generic"),
        ) {
            println!(
                "  exact two-attribute scan: rank-verified {:.2}x the predicate-verified scan",
                generic / ranked
            );
        }
        if let (Some(f32b), Some(f16b), Some(i8b)) = (
            report.median_of("artifact_bytes_f32"),
            report.median_of("artifact_bytes_f16"),
            report.median_of("artifact_bytes_i8"),
        ) {
            println!(
                "  artifact bytes: f32 {:.0}, f16 {:.0} ({:.2}x), i8 {:.0} ({:.2}x)",
                f32b,
                f16b,
                f16b / f32b,
                i8b,
                i8b / f32b
            );
        }

        let path = format!("{out_dir}/{file}");
        if check {
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|s| PerfReport::from_json(&s))
            {
                Ok(baseline) if report.comparable_to(&baseline) => {
                    let regressions = report.regressions_vs(&baseline, 2.0);
                    for r in &regressions {
                        eprintln!("REGRESSION {r}");
                    }
                    failed |= !regressions.is_empty();
                    for e in &report.entries {
                        if baseline.median_of(&e.name).is_none() {
                            eprintln!("NEW {}: no baseline row at {path}", e.name);
                        }
                    }
                }
                Ok(baseline) => {
                    eprintln!(
                        "baseline at {path} was written at {} scale but this run is {} scale; \
                         skipping the comparison and rewriting",
                        if baseline.fast { "--fast" } else { "full" },
                        if fast { "--fast" } else { "full" },
                    );
                }
                Err(e) => {
                    eprintln!("no usable baseline at {path} ({e}); writing a fresh one");
                }
            }
        }
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("  wrote {path}");
    }
    if failed {
        eprintln!("perfbench: median regression(s) beyond 2x or stale baseline rows — failing");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
