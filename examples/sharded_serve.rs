//! Sharded scale-out lifecycle: **plan → parallel per-shard build →
//! save (NSKM) → load → scatter/gather serve**.
//!
//! The single-artifact lifecycle (`save_load_serve`) deploys one sketch
//! over the whole table; this example drives the horizontal-scale-out
//! path from `docs/scaling.md` with the repo's production pieces:
//!
//! 1. split a synthetic table into K data shards with a [`ShardPlan`],
//! 2. build one sketch per (shard, moment component) in parallel
//!    (`neurosketch::shard::build_sharded`), each with the partition
//!    count `shard::component_partitions` gives its training queries,
//! 3. save the whole deployment as one loadable unit — per-shard NSK2
//!    artifacts plus the NSKM manifest (`persist::save_sharded`),
//! 4. load it back and verify the loaded deployment answers **bitwise
//!    identically** to the in-memory one, whose models the build
//!    already stored at F16,
//! 5. serve the workload through the scatter/gather [`ShardedServer`]
//!    and verify the gather math: per-shard **exact** moments merged in
//!    shard order equal the monolithic exact backend on COUNT, SUM, AVG
//!    and STD (bitwise for COUNT, ulp-bounded otherwise; AVG and STD
//!    pass through the same mean-slot transform their models are
//!    trained and served through), and the served sketch answers track
//!    the exact answers.
//!
//! ```text
//! cargo run --release --example sharded_serve            # full scale
//! cargo run --release --example sharded_serve -- --fast  # CI smoke
//! ```

use datagen::simple::uniform;
use neurosketch::deploy::Deployment;
use neurosketch::serve::ServeOptions;
use neurosketch::shard::{
    build_sharded, component_partitions, mean_slots, weighted_moments, ShardPlan, ShardedServer,
};
use neurosketch::{persist, NeuroSketch, NeuroSketchConfig};
use query::aggregate::{Aggregate, MomentKind, Moments};
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::time::Instant;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (rows, n_queries) = if fast { (4_000, 400) } else { (20_000, 1_200) };
    let shards = 4;

    // A table, a 1-active-attribute workload, and the exact oracle.
    let data = uniform(rows, 2, 17);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: n_queries,
        seed: 6,
    })
    .expect("workload");
    let engine = QueryEngine::new(&data, 1);

    // 1. + 2. Plan and build: K shards, one sketch per moment component.
    let plan = ShardPlan::RoundRobin { shards };
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 2;
    cfg.target_partitions = 4;
    cfg.train.epochs = if fast { 80 } else { 150 };
    cfg.threads = 4;
    for agg in [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Std,
    ] {
        let t0 = Instant::now();
        let (sharded, report) =
            build_sharded(&data, 1, &plan, &wl.predicate, agg, &wl.queries, &cfg)
                .expect("sharded build");
        println!(
            "[{}] built {} shards x {} model(s): rows/shard {:?}, {} params, {:?}",
            agg.name(),
            sharded.shard_count(),
            report.models_trained / sharded.shard_count(),
            report.shard_rows,
            sharded.param_count(),
            t0.elapsed()
        );
        // Every component model is sized to its samples, not to the
        // configured target: one partition per 500 training queries, at
        // least one, at most `target_partitions`. Every build stores its
        // models at `NeuroSketch::BUILD_MODE`.
        let partitions = component_partitions(cfg.target_partitions, wl.queries.len());
        for (i, shard) in sharded.shards().iter().enumerate() {
            let counts: Vec<(&str, usize, &str)> = MomentKind::ALL
                .into_iter()
                .filter_map(|kind| {
                    let model = shard.model(kind)?;
                    Some((kind.name(), model.partitions(), model.quant_mode().name()))
                })
                .collect();
            println!(
                "[{}] shard {i} (component, partitions, mode): {counts:?}",
                agg.name()
            );
            assert!(
                counts.iter().all(|&(_, p, _)| p == partitions),
                "shard {i}: component partitions {counts:?}, the rule gives {partitions}"
            );
            assert!(
                counts
                    .iter()
                    .all(|&(_, _, mode)| mode == NeuroSketch::BUILD_MODE.name()),
                "shard {i}: component modes {counts:?}"
            );
        }

        // 3. Save as one loadable unit: NSK2 per shard + NSKM manifest.
        let dir = std::env::temp_dir().join(format!(
            "neurosketch_sharded_demo_{}",
            agg.name().to_lowercase()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = persist::save_sharded(&dir, &sharded).expect("save_sharded");
        let artifact_bytes = sharded.artifact_bytes();
        println!(
            "[{}] saved: {} artifacts + manifest at {} ({} artifact bytes, {} per shard)",
            agg.name(),
            sharded.shard_count(),
            manifest_path.display(),
            artifact_bytes,
            artifact_bytes / sharded.shard_count(),
        );

        // 4. Load and verify: the build rounded its models through their
        // storage mode already, so the loaded deployment equals the
        // in-memory one bitwise. Both sides answer through the batched
        // server (answers are thread-count-independent, so the
        // comparison is exact).
        let loaded = persist::load_sharded(&manifest_path).expect("load_sharded");
        std::fs::remove_dir_all(&dir).ok();
        let server = ShardedServer::new(
            loaded,
            ServeOptions {
                threads: 4,
                ..ServeOptions::default()
            },
        );
        // Both sides answer through the unified `Deployment` trait —
        // the same surface the monolithic server exposes.
        let serving: &dyn Deployment = &server;
        let loaded_answers = serving.answer_batch(&wl.queries).0;
        let in_memory = ShardedServer::new(sharded, ServeOptions::default());
        assert_eq!(
            loaded_answers,
            Deployment::answer_batch(&in_memory, &wl.queries).0,
            "loaded deployment diverged from the in-memory one"
        );
        println!(
            "[{}] loaded: bitwise-identical to the in-memory deployment on all {} queries",
            agg.name(),
            wl.queries.len()
        );

        // 5a. The gather math itself, on exact per-shard backends:
        // merging each shard's exact (n, Σ, Σ²) must reproduce the
        // monolithic exact backend — bitwise for COUNT, ulp-bounded for
        // SUM (pure reassociation of f64 adds). AVG and STD shards hold
        // (n, Σ/n, Σ²/n), so their exact moments go through the same
        // label-side and serve-side transform as the models' outputs:
        // n·(Σ/n) = Σ up to rounding.
        let shard_tables = plan.split(&data);
        let shard_engines: Vec<QueryEngine<'_>> = shard_tables
            .iter()
            .map(|t| QueryEngine::new(t, 1))
            .collect();
        let holds_means = matches!(agg, Aggregate::Avg | Aggregate::Std);
        for q in wl.queries.iter().take(200) {
            let gathered = shard_engines
                .iter()
                .map(|e| e.moments(&wl.predicate, q))
                .map(|m| {
                    if holds_means {
                        weighted_moments(mean_slots(m))
                    } else {
                        m
                    }
                })
                .fold(Moments::ZERO, Moments::merge)
                .finish(agg)
                .unwrap();
            let exact = engine.answer(&wl.predicate, agg, q);
            match agg {
                Aggregate::Count => assert_eq!(
                    gathered, exact,
                    "gathered exact COUNT must be bitwise-equal to the monolithic backend"
                ),
                _ => assert!(
                    (gathered - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
                    "gathered exact {} diverged: {gathered} vs {exact}",
                    agg.name()
                ),
            }
        }
        println!(
            "[{}] gather = monolithic exact backend on {} probe queries",
            agg.name(),
            200.min(wl.queries.len())
        );

        // 5b. Scatter/gather serving over the loaded artifacts.
        let t1 = Instant::now();
        let (answers, stats) = serving.answer_batch(&wl.queries);
        let elapsed = t1.elapsed();
        let truths: Vec<f64> = wl
            .queries
            .iter()
            .map(|q| engine.answer(&wl.predicate, agg, q))
            .collect();
        // Coarse rail against gross regressions only — the tight
        // sharded-vs-monolithic error pin lives in the shard module's
        // regression test.
        let nmae = normalized_mae(&truths, &answers);
        assert!(
            nmae < 0.35,
            "served {} error off the rails: NMAE {nmae}",
            agg.name()
        );
        println!(
            "[{}] served: {} queries x {} shards in {:?} ({:.0} queries/sec, NMAE {:.4})",
            agg.name(),
            stats.queries,
            serving.describe().units,
            elapsed,
            stats.queries as f64 / elapsed.as_secs_f64(),
            nmae
        );
    }
    println!("plan -> build -> save -> load -> scatter/gather round trip verified");
}
