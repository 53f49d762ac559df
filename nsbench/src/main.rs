//! `nsbench`: the end-to-end and per-layer benchmark of this
//! repository. See `README.md` beside `Cargo.toml`.

mod adapter;
mod gen;
mod probes;
mod repeat;
mod replay;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::path::PathBuf;
use workloads::Opts;

const USAGE: &str = "usage: nsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--allow-failures] [--out DIR]\n       nsbench --workload <name|all> --repeat N \
[--save FILE] [--spec BENCHMARK.json] [the flags above]";

struct Cli {
    opts: Opts,
    smoke: bool,
    trace: bool,
    repeat: usize,
    allow_failures: bool,
    save: Option<PathBuf>,
    spec: PathBuf,
    /// The flags a `--repeat` parent hands on to its children.
    pass_through: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (1u64, 10.0f64, false, 0usize);
    let (mut smoke, mut allow_failures) = (false, false);
    let mut out_dir = PathBuf::from(".bench_out");
    let (mut save, mut spec) = (None, PathBuf::from("BENCHMARK.json"));
    let mut pass_through = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let v = value()?;
                seconds = v.parse().map_err(|e| format!("--seconds: {e}"))?;
                pass_through.extend([flag.clone(), v.clone()]);
            }
            "--trace" => {
                let v = value()?;
                trace = v != "0";
                pass_through.extend([flag.clone(), v.clone()]);
            }
            "--out" => {
                let v = value()?;
                out_dir = PathBuf::from(v);
                pass_through.extend([flag.clone(), v.clone()]);
            }
            "--repeat" => repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--save" => save = Some(PathBuf::from(value()?)),
            "--spec" => spec = PathBuf::from(value()?),
            "--smoke" => {
                smoke = true;
                pass_through.push(flag.clone());
            }
            "--allow-failures" => {
                allow_failures = true;
                pass_through.push(flag.clone());
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let known = workloads::WORKLOADS.contains(&workload.as_str());
    if !(known || repeat > 0 && workload == "all") {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            workloads::WORKLOADS
        ));
    }
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Cli {
        smoke,
        opts: Opts {
            workload,
            seed,
            seconds,
            scale: if smoke {
                adapter::Scale::SMOKE
            } else {
                adapter::Scale::FULL
            },
            out_dir,
        },
        trace,
        repeat,
        allow_failures,
        save,
        spec,
        pass_through,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "rig: nproc {} | 1 serve thread, 1 build thread, 1 load-generator thread | scale {}",
        stats::nproc(),
        if cli.smoke {
            "smoke (tests only)"
        } else {
            "full"
        }
    );
    if cli.repeat > 0 {
        let within = repeat::run(&repeat::RepeatOpts {
            workload: &cli.opts.workload,
            first_seed: cli.opts.seed,
            runs: cli.repeat,
            pass_through: cli.pass_through,
            spec: spec::Spec::load(&cli.spec).ok(),
            save: cli.save.as_deref(),
        });
        match within {
            Ok(true) => return,
            Ok(false) => std::process::exit(4),
            Err(e) => {
                eprintln!("nsbench: {e}");
                std::process::exit(1);
            }
        }
    }
    stats::pin_thread(false);
    let run = if cli.trace {
        probes::run_traced(&cli.opts)
    } else {
        workloads::run(&cli.opts)
    };
    let result = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nsbench: {e}");
            std::process::exit(1);
        }
    };
    for m in &result.metrics {
        println!("{:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json_line());
    if result.failed > 0 && !cli.allow_failures {
        std::process::exit(3);
    }
}
