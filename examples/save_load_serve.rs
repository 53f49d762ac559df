//! End-to-end serving lifecycle: **build → save (NSK2) → load → serve**.
//!
//! The paper's deployment model (Sec. 5.1) trains once, persists the
//! sketch, and serves queries at data-size-independent cost. This
//! example drives that pipeline with the repo's production pieces:
//!
//! 1. build a sketch + DQD router on a synthetic workload; the build
//!    stores its models at `NeuroSketch::BUILD_MODE` (F16),
//! 2. save it as an NSK2 artifact (`neurosketch::persist`), which
//!    stores the mode the sketch carries: the build's own, or with
//!    `--quant f32|f16|i8` the sketch quantized to that encoding,
//! 3. load it back and verify the loaded sketch answers **bitwise
//!    identically** to the in-memory sketch it was saved from on the
//!    full workload,
//! 4. serve the workload through the batched, multi-threaded
//!    [`SketchServer`] and verify batched serving matches the loaded
//!    sketch's single-query answers bitwise.
//!
//! ```text
//! cargo run --release --example save_load_serve            # full scale
//! cargo run --release --example save_load_serve -- --fast  # CI smoke
//! cargo run --release --example save_load_serve -- --fast --quant i8
//! cargo run --release --example save_load_serve -- --fast --quant f32
//! ```

use bench::perf::scenarios::query_scenario;
use neurosketch::deploy::Deployment;
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::serve::{ServeOptions, SketchServer};
use neurosketch::{persist, NeuroSketch, NeuroSketchConfig};
use nn::QuantMode;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let requested = args.iter().position(|a| a == "--quant").map(|i| {
        let name = args.get(i + 1).map(String::as_str).unwrap_or("");
        QuantMode::parse(name).unwrap_or_else(|| {
            eprintln!("--quant needs one of: f32, f16, i8");
            std::process::exit(2);
        })
    });

    // 1. Build. Same scenario the tracked query-perf suite uses.
    let sc = query_scenario(fast);
    let mut cfg = NeuroSketchConfig::default();
    cfg.train.epochs = if fast { 20 } else { 60 };
    let t0 = Instant::now();
    let (sketch, report) =
        NeuroSketch::build_from_labeled(&sc.train, &sc.labels, &cfg).expect("sketch build");
    println!(
        "built: {} partitions, {} parameters, {:?}",
        sketch.partitions(),
        sketch.param_count(),
        t0.elapsed()
    );

    // 2. Save the routed sketch as one NSK2 artifact in the chosen
    // parameter encoding (the build's own without `--quant`): the
    // sketch carries the mode it is saved in.
    let quant = requested.unwrap_or(sketch.quant_mode());
    let quantized = sketch.quantized_to(quant);
    let router = DqdRouter::new(
        quantized.clone(),
        report.leaf_aqcs,
        RoutingPolicy::default(),
    );
    let path = std::env::temp_dir().join("neurosketch_demo.nsk2");
    persist::save_router(&path, &router).expect("save");
    let on_disk = std::fs::metadata(&path).expect("stat").len() as usize;
    println!(
        "saved [{}]: {} bytes on disk ({} at f32) vs {} paper-accounted (4 B/param + tree)",
        quant.name(),
        on_disk,
        persist::encoded_len(&sketch.quantized_to(QuantMode::F32)),
        sketch.storage_bytes()
    );
    // The sketch's own bytes plus the router section: the policy's two
    // f64s, the AQC count and one f64 AQC per partition.
    let router_section = 20 + 8 * quantized.partitions();
    assert_eq!(
        on_disk,
        persist::encoded_len(&quantized) + router_section,
        "artifact size"
    );

    // 3. Load and verify: each encoding rounds exactly once, so the
    // loaded sketch must equal the in-memory sketch it was saved from
    // bitwise on every workload query.
    let artifact = persist::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    if requested.is_none() {
        assert_eq!(
            artifact.sketch.quant_mode(),
            QuantMode::F16,
            "the build's mode"
        );
    }
    assert_eq!(
        artifact.sketch.quant_mode(),
        quant,
        "mode survives the round trip"
    );
    for q in &sc.wl.queries {
        assert_eq!(
            artifact.sketch.answer(q),
            quantized.answer(q),
            "loaded sketch diverged from the in-memory sketch at {q:?}"
        );
    }
    println!(
        "loaded: answers bitwise-identical to the in-memory sketch on all {} queries",
        sc.wl.queries.len()
    );

    // 4. Serve. Batched multi-threaded serving must agree bitwise with
    // the loaded sketch's own single-query path (sharding, leaf grouping
    // and the tiled forward pass change scheduling, not arithmetic).
    let expected: Vec<f64> = sc
        .wl
        .queries
        .iter()
        .map(|q| artifact.sketch.answer(q))
        .collect();
    let server = SketchServer::new(
        artifact.into_router(),
        ServeOptions {
            threads: 2,
            ..ServeOptions::default()
        },
    );
    // Serve through the unified `Deployment` trait — the surface every
    // batch consumer (monitor, benches, front ends) is written against.
    let serving: &dyn Deployment = &server;
    let t1 = Instant::now();
    let (answers, stats) = serving.answer_batch(&sc.wl.queries);
    let elapsed = t1.elapsed();
    assert_eq!(answers, expected, "batched serving diverged");
    println!(
        "served [{}]: {} queries in {:?} ({:.0} queries/sec, {} via sketch)",
        serving.describe(),
        stats.queries,
        elapsed,
        stats.queries as f64 / elapsed.as_secs_f64(),
        stats.sketch
    );
    println!("save -> load -> serve round trip verified");
}
