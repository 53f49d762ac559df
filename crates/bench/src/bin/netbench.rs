//! `netbench` — load generator for the NSKW protocol server.
//!
//! Self-contained mode (default): build the query-suite sketch, stand
//! up a loopback [`neurosketch::net::NetServer`] over a
//! `LiveDeployment`, and drive it with pipelined clients:
//!
//! ```text
//! netbench --fast                      # CI-smoke scale
//! netbench --clients 8 --window 128    # heavier concurrency
//! netbench --fast --serial             # also run the 1-client,
//!                                      # window-1 baseline + ratio
//! ```
//!
//! Remote mode: point it at an already-running server; the target's
//! query dimensionality is discovered over the wire with an info
//! frame, and uniform random queries of that dimensionality are sent:
//!
//! ```text
//! netbench --addr 127.0.0.1:7878 --queries 10000
//! ```
//!
//! Remote targets trained on non-unit domains take `--range LO:HI` —
//! once to scale every dimension, or repeated to give each dimension
//! its own interval (without it, queries land in the unit cube and a
//! target trained elsewhere serves nothing but empty ranges).

use bench::netload;
use bench::perf::scenarios;
use neurosketch::cache::{AnswerCache, CachedDeployment};
use neurosketch::deploy::LiveDeployment;
use neurosketch::net::{NetClient, NetOptions};
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::serve::{ServeOptions, SketchServer};
use neurosketch::NeuroSketchConfig;
use std::sync::Arc;

const USAGE: &str = "usage: netbench [--fast] [--serial] [--clients N] [--window N] \
     [--queries N] [--addr HOST:PORT] [--range LO:HI]...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut serial = false;
    let mut clients = 4usize;
    let mut window = 64usize;
    let mut queries = 0usize;
    let mut addr: Option<String> = None;
    let mut ranges: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => fast = true,
            "--serial" => serial = true,
            "--clients" => {
                i += 1;
                clients = parse(&args, i, "--clients");
            }
            "--window" => {
                i += 1;
                window = parse(&args, i, "--window");
            }
            "--queries" => {
                i += 1;
                queries = parse(&args, i, "--queries");
            }
            "--addr" => {
                i += 1;
                addr = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--addr needs HOST:PORT")),
                );
            }
            "--range" => {
                i += 1;
                ranges.push(parse_range(args.get(i).map(String::as_str)));
            }
            other => die(&format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if queries == 0 {
        queries = if fast { 4_000 } else { 20_000 };
    }

    if addr.is_none() && !ranges.is_empty() {
        die("--range only applies to --addr mode (the local suite carries its own domain)");
    }
    match addr {
        Some(addr) => remote(&addr, clients, window, queries, &ranges),
        None => local(fast, serial, clients, window, queries),
    }
}

/// Build the tracked query-suite deployment, serve it on loopback, and
/// load it.
fn local(fast: bool, serial: bool, clients: usize, window: usize, queries: usize) {
    println!(
        "building query-suite sketch ({} scale)...",
        if fast { "--fast" } else { "full" }
    );
    let sc = scenarios::query_scenario(fast);
    let mut ns_cfg = NeuroSketchConfig::default();
    ns_cfg.train.epochs = if fast { 20 } else { 60 };
    let (sketch, build_report) =
        neurosketch::NeuroSketch::build_from_labeled(&sc.train, &sc.labels, &ns_cfg)
            .expect("sketch build");
    let router = DqdRouter::new(sketch, build_report.leaf_aqcs, RoutingPolicy::default());
    let server = SketchServer::new(
        router,
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    );
    // The stream below cycles the workload: the front answers the
    // repeats, the tallies at the end say how.
    let cache = Arc::new(AnswerCache::new(256 << 10, 8));
    let live = Arc::new(LiveDeployment::new(
        CachedDeployment::new(server, cache, 0),
        0,
    ));
    let stream: Vec<Vec<f64>> = sc
        .wl
        .queries
        .iter()
        .cycle()
        .take(queries)
        .cloned()
        .collect();
    let under_test = netload::spawn_server(live, stream[0].len(), NetOptions::default());
    println!("serving on {}", under_test.addr);
    let load = netload::run_load(under_test.addr, &stream, clients, window);
    print_report(
        &format!("{clients} clients, window {window}"),
        &load,
        queries,
    );
    if serial {
        let base = netload::run_load(under_test.addr, &stream, 1, 1);
        print_report("serial baseline (1 client, window 1)", &base, queries);
        println!(
            "coalesced micro-batching: {:.2}x the serial loop",
            base.elapsed_ms / load.elapsed_ms
        );
    }

    let server = under_test.stop();
    let stats = server.stats();
    println!(
        "server: {} batches, largest {} queries, {} answered, {} rejected, {} protocol errors, \
         {} stalled reads",
        stats.batches,
        stats.largest_batch,
        stats.answered,
        stats.rejected,
        stats.protocol_errors,
        stats.stalled_reads
    );
    let front = stats.deploy;
    println!(
        "server front: {} cache hits, {} cache misses, {} deduped in-batch",
        front.cache_hits, front.cache_misses, front.dedup_hits
    );
}

/// Load an external server, discovering its dimensionality on the wire.
fn remote(addr: &str, clients: usize, window: usize, queries: usize, ranges: &[(f64, f64)]) {
    let sock = std::net::ToSocketAddrs::to_socket_addrs(addr)
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| die("cannot resolve --addr"));
    let mut probe = NetClient::connect(sock).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let info = probe.info().unwrap_or_else(|e| die(&format!("info: {e}")));
    println!(
        "target {addr}: dims {}, generation {}, queue_cap {}, max_batch {}",
        info.dims, info.generation, info.queue_cap, info.max_batch
    );
    // Validate the flag count eagerly, the moment the target's
    // dimensionality is known — a lazy check inside the span lookup
    // would silently ignore extra --range flags (span never indexes
    // past dims), letting a typo go unnoticed.
    if ranges.len() > 1 && ranges.len() != info.dims {
        die(&format!(
            "{} --range flags for {} target dimensions (give one, or one per dimension)",
            ranges.len(),
            info.dims
        ));
    }
    // Deterministic uniform queries, scaled per dimension by --range
    // (default: the unit cube) — the target's accuracy is not under
    // test here, only its serving path.
    let span = |d: usize| -> (f64, f64) {
        match ranges {
            [] => (0.0, 1.0),
            [one] => *one,
            many => many[d],
        }
    };
    let stream: Vec<Vec<f64>> = (0..queries)
        .map(|i| {
            (0..info.dims)
                .map(|d| {
                    let (lo, hi) = span(d);
                    let u = ((i * (d + 3) * 2_654_435_761usize) % 1_000_000) as f64 / 1e6;
                    lo + u * (hi - lo)
                })
                .collect()
        })
        .collect();
    let load = netload::run_load(sock, &stream, clients, window);
    print_report(
        &format!("{clients} clients, window {window}"),
        &load,
        queries,
    );
}

fn print_report(label: &str, load: &netload::NetLoadReport, queries: usize) {
    println!(
        "{label}: {} of {queries} answered, {} rejected, {:.1} ms wall, {:.0} qps, \
         p50 {:.3} ms, p99 {:.3} ms",
        load.answered, load.rejected, load.elapsed_ms, load.qps, load.p50_ms, load.p99_ms
    );
}

/// Parse a `LO:HI` interval (both finite, `LO < HI`).
fn parse_range(arg: Option<&str>) -> (f64, f64) {
    fn bad() -> ! {
        die("--range needs LO:HI with finite LO < HI")
    }
    let arg = arg.unwrap_or_else(|| bad());
    let (lo, hi) = arg.split_once(':').unwrap_or_else(|| bad());
    let (lo, hi): (f64, f64) = match (lo.parse(), hi.parse()) {
        (Ok(lo), Ok(hi)) => (lo, hi),
        _ => bad(),
    };
    if !lo.is_finite() || !hi.is_finite() || lo >= hi {
        bad();
    }
    (lo, hi)
}

fn parse(args: &[String], i: usize, flag: &str) -> usize {
    args.get(i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{flag} needs a positive integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
