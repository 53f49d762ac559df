//! Live maintenance lifecycle: **ingest → drift check → partial
//! refresh → atomic hot-swap**.
//!
//! The paper's Sec. 7 proposal — "frequently test NeuroSketch, and
//! re-train the neural networks whose accuracy falls below a certain
//! threshold" — as an operational loop, in two acts:
//!
//! **Act 1 (monolithic, per-partition).** A localized delta (a blob of
//! new rows at x ≈ 0.2) is appended with [`datagen::Dataset::append`]
//! and the exact oracle follows *incrementally*
//! ([`query::exec::QueryEngine::resume`] merges the delta into its
//! sorted-column index instead of re-sorting). The
//! [`MaintenancePlan`] then scores every kd-tree partition on the probe
//! workload: only partitions whose queries cover the blob go stale,
//! only those retrain, and every fresh partition's answers are verified
//! **bitwise unchanged**.
//!
//! **Act 2 (sharded, hot-swap).** A 4-shard deployment is persisted
//! (NSKM generation 0) and served behind a [`LiveDeployment`] handle.
//! More drift arrives; the per-shard check finds all shards stale, and
//! a refresh *budget* of one retrains only the worst shard this cycle
//! (the rolling-refresh pattern). [`persist::save_refreshed`] lands the
//! rebuilt shard's artifacts under generation-1 names plus a new
//! manifest by atomic rename — generation 0's bytes are never touched —
//! and `reload_sharded` swaps the serving handle to generation 1
//! without dropping a batch.
//!
//! ```text
//! cargo run --release --example live_refresh            # full scale
//! cargo run --release --example live_refresh -- --fast  # CI smoke
//! ```

use datagen::simple::{drift_batch, uniform};
use neurosketch::deploy::Deployment;
use neurosketch::maintenance::{DriftMonitor, MaintenancePlan};
use neurosketch::serve::ServeOptions;
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer};
use neurosketch::{persist, LiveDeployment, NeuroSketch, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::time::Instant;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (rows, delta_rows) = if fast {
        (4_000, 2_000)
    } else {
        (16_000, 8_000)
    };

    // ---- Act 1: monolithic, per-partition partial refresh ----------
    let mut data = uniform(rows, 1, 1);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 1,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::WidthBetween(0.2, 0.6),
        count: 400,
        seed: 5,
    })
    .expect("workload");
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 2;
    cfg.target_partitions = 4;
    cfg.train.epochs = 120;
    let engine = QueryEngine::new(&data, 0);
    let (mut sketch, _) =
        NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg)
            .expect("build");
    println!("[mono] built: {}", Deployment::describe(&sketch));

    // Ingest: append a localized blob, reindex incrementally.
    let t0 = Instant::now();
    let snapshot = engine.into_snapshot();
    data.append(&drift_batch(delta_rows, 1, 1.0, 0.2, 7))
        .expect("append");
    let engine = QueryEngine::resume(snapshot, &data).expect("incremental reindex");
    println!(
        "[mono] ingested {delta_rows} drifted rows (blob at x=0.2), reindexed incrementally in {:?}",
        t0.elapsed()
    );

    // Detect per partition + retrain only the stale ones.
    let monitor = DriftMonitor::new(wl.queries[..200].to_vec(), 0.15).expect("monitor");
    let plan = MaintenancePlan::new(monitor, cfg.clone());
    let before: Vec<f64> = wl.queries.iter().map(|q| sketch.answer(q)).collect();
    let report = plan
        .refresh_monolithic(
            &mut sketch,
            &engine,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
        )
        .expect("refresh");
    for u in &report.units {
        println!(
            "[mono]   partition {}: {} probes, NMAE {:.3} -> {}",
            u.unit,
            u.probes,
            u.nmae,
            if u.stale { "STALE, retrained" } else { "fresh" }
        );
    }
    assert!(
        !report.retrained.is_empty() && report.retrained.len() < sketch.partitions(),
        "localized drift should stale some but not all partitions: {:?}",
        report.units
    );
    // Fresh partitions answer bitwise as before the refresh.
    let mut fresh_checked = 0;
    for (q, b) in wl.queries.iter().zip(&before) {
        if !report.retrained.contains(&sketch.leaf_index_of(q)) {
            assert_eq!(sketch.answer(q), *b, "fresh partition drifted at {q:?}");
            fresh_checked += 1;
        }
    }
    println!(
        "[mono] partial refresh: {}/{} partitions retrained (check {:?}, retrain {:?}); \
         {fresh_checked} fresh-partition answers verified bitwise unchanged",
        report.retrained.len(),
        sketch.partitions(),
        report.check,
        report.retrain
    );

    // ---- Act 2: sharded, budgeted refresh + atomic hot-swap --------
    let wl2 = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 300,
        seed: 6,
    })
    .expect("workload");
    let mut table = uniform(rows, 2, 17);
    let mut shard_cfg = NeuroSketchConfig::small();
    shard_cfg.tree_height = 2;
    shard_cfg.target_partitions = 4;
    shard_cfg.train.epochs = if fast { 100 } else { 150 };
    let shard_plan = ShardPlan::RoundRobin { shards: 4 };
    let (sharded, _) = build_sharded(
        &table,
        1,
        &shard_plan,
        &wl2.predicate,
        Aggregate::Count,
        &wl2.queries,
        &shard_cfg,
    )
    .expect("sharded build");

    // Persist generation 0 and serve it behind a live handle.
    let dir = std::env::temp_dir().join("neurosketch_live_refresh_demo");
    std::fs::remove_dir_all(&dir).ok();
    let manifest = persist::save_sharded(&dir, &sharded).expect("save gen 0");
    let live = LiveDeployment::new(
        ShardedServer::new(
            persist::load_sharded(&manifest).expect("load gen 0"),
            ServeOptions::default(),
        ),
        0,
    );
    println!("[shard] serving {}", live.describe());

    // Drift arrives across the whole table (data sharding spreads an
    // i.i.d. delta over every shard).
    table
        .append(&drift_batch(delta_rows, 2, 1.0, 0.7, 23))
        .expect("append");
    let engine2 = QueryEngine::new(&table, 1);
    let monitor = DriftMonitor::new(wl2.queries[..150].to_vec(), 0.08).expect("monitor");
    let drifted = monitor.check(&live, &engine2, &wl2.predicate, Aggregate::Count);
    println!(
        "[shard] drift check on the live handle: NMAE {:.3} ({})",
        drifted.nmae,
        if drifted.stale { "stale" } else { "healthy" }
    );

    // Budgeted refresh: all four shards drifted, but this cycle's
    // budget rebuilds only the worst one (rolling refresh).
    let mut refreshed = persist::load_sharded(&manifest).expect("load for refresh");
    let mut plan = MaintenancePlan::new(monitor, shard_cfg.clone());
    plan.max_retrain = Some(1);
    let report = plan
        .refresh_sharded(&mut refreshed, &table, 1, &wl2.predicate, &wl2.queries)
        .expect("sharded refresh");
    for u in &report.units {
        println!(
            "[shard]   shard {}: NMAE {:.3} -> {}",
            u.unit,
            u.nmae,
            if report.retrained.contains(&u.unit) {
                "STALE, rebuilt this cycle"
            } else if u.stale {
                "stale, deferred (budget)"
            } else {
                "fresh"
            }
        );
    }
    assert_eq!(
        report.retrained.len(),
        1,
        "budget of 1 must rebuild 1 shard"
    );

    // Land generation 1 (only the rebuilt shard's artifacts are
    // written; generation 0 stays intact on disk) and hot-swap.
    let t1 = Instant::now();
    persist::save_refreshed(&manifest, &refreshed, &report.retrained).expect("save gen 1");
    let now_live = live
        .reload_sharded(&manifest, ServeOptions::default())
        .expect("reload");
    println!(
        "[shard] refreshed shard {:?} -> generation {now_live}, swapped in {:?}; now {}",
        report.retrained,
        t1.elapsed(),
        live.describe()
    );
    assert_eq!(now_live, 1);
    assert_eq!(live.describe().generation, Some(1));

    // The swapped-in generation answers exactly like the refreshed
    // deployment (its models are stored at their mode already), and the
    // drift error improved even under the one-shard budget.
    let (live_answers, _) = live.answer_batch(&wl2.queries);
    let expect = ShardedServer::new(refreshed, ServeOptions::default());
    assert_eq!(
        live_answers,
        Deployment::answer_batch(&expect, &wl2.queries).0,
        "live handle diverged from the refreshed deployment"
    );
    let after = plan
        .monitor
        .check(&live, &engine2, &wl2.predicate, Aggregate::Count);
    assert!(
        after.nmae < drifted.nmae,
        "refreshing the worst shard did not reduce drift: {} -> {}",
        drifted.nmae,
        after.nmae
    );
    println!(
        "[shard] drift after one-shard refresh: NMAE {:.3} -> {:.3} \
         ({} shards deferred to the next cycle)",
        drifted.nmae,
        after.nmae,
        report.deferred.len()
    );
    std::fs::remove_dir_all(&dir).ok();
    println!("ingest -> detect -> partial refresh -> hot-swap lifecycle verified");
}
