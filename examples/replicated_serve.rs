//! Replicated cluster lifecycle: **build → replicate → route →
//! fault-inject → rolling upgrade → rebalance**.
//!
//! `sharded_serve` scales one box to K shards; this example drives the
//! simulated-cluster path from `docs/scaling.md` where every shard
//! group has N replicas, routed round-robin, and the failure modes are
//! *injected on purpose*: a replayable replica kill, and a damaged
//! artifact on one replica's disk:
//!
//! 1. build a K=2 round-robin AVG deployment and publish it as an NSKM
//!    manifest, then lay it out as two replica directories,
//! 2. [`Cluster::load`] the replicas and verify a healthy cluster
//!    answers **bitwise identically** to the single-box
//!    [`ShardedServer`],
//! 3. kill a replica mid-batch with an armed [`Fault`]: the router
//!    fails over, the event log says so, and answers do not move,
//! 4. retrain against drifted data, publish a generation-1 refresh
//!    into both replica directories — group 1's new artifact damaged
//!    on replica 0's disk — and roll it out replica by replica from
//!    each replica's own manifest: mid-roll batches serve generation 0
//!    *flagged stale* (never a blend), the damaged slot fails its
//!    checksum and is rolled around, then repaired from the publish
//!    manifest, and [`DriftMonitor::check_many`] scores every replica
//!    column against one probe labeling,
//! 5. rebalance the round-robin plan 2 → 4 **row-stably**: answers stay
//!    bitwise unchanged, then materializing the coarse groups yields
//!    bitwise the models a fresh 4-shard build would train.
//!
//! ```text
//! cargo run --release --example replicated_serve            # full scale
//! cargo run --release --example replicated_serve -- --fast  # CI smoke
//! ```

use datagen::simple::{drift_batch, uniform};
use neurosketch::cluster::{Cluster, ClusterEvent, ClusterOptions, Fault, RoutePolicy};
use neurosketch::maintenance::{retrain_shards, DriftMonitor};
use neurosketch::serve::ServeOptions;
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer};
use neurosketch::{persist, Deployment, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::path::{Path, PathBuf};

/// Copy the deployment in `publish` into `dir`: artifacts first, the
/// manifest last, so a copy cut short leaves the old manifest over
/// intact artifacts.
fn publish_into(publish: &Path, dir: &Path) {
    let manifest = persist::MANIFEST_NAME;
    for entry in std::fs::read_dir(publish).expect("read publish dir") {
        let name = entry.expect("dir entry").file_name();
        if name != manifest {
            std::fs::copy(publish.join(&name), dir.join(&name)).expect("copy artifact");
        }
    }
    std::fs::copy(publish.join(manifest), dir.join(manifest)).expect("copy manifest");
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (rows, n_queries) = if fast { (2_000, 200) } else { (12_000, 800) };
    let shards = 2;
    let replicas = 2;

    let mut data = uniform(rows, 2, 23);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: n_queries,
        seed: 8,
    })
    .expect("workload");
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 2;
    cfg.target_partitions = 4;
    cfg.train.epochs = if fast { 40 } else { 120 };
    cfg.threads = 4;

    // 1. Build and publish generation 0, then fan it out to two
    // replica directories — "each replica has its own disk".
    let (sharded, _) = build_sharded(
        &data,
        1,
        &ShardPlan::RoundRobin { shards },
        &wl.predicate,
        Aggregate::Avg,
        &wl.queries,
        &cfg,
    )
    .expect("sharded build");
    let publish = std::env::temp_dir().join("neurosketch_replicated_demo_publish");
    std::fs::remove_dir_all(&publish).ok();
    let manifest = persist::save_sharded(&publish, &sharded).expect("save_sharded");
    let replica_dirs: Vec<PathBuf> = (0..replicas)
        .map(|r| {
            let dir = std::env::temp_dir().join(format!("neurosketch_replicated_demo_r{r}"));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("replica dir");
            publish_into(&publish, &dir);
            dir
        })
        .collect();
    let replica_manifests: Vec<PathBuf> = replica_dirs
        .iter()
        .map(|d| d.join(persist::MANIFEST_NAME))
        .collect();
    println!(
        "published gen 0: {shards} shard groups x {replicas} replicas ({} bytes/replica)",
        sharded.artifact_bytes()
    );

    // 2. Load the cluster and pin it against the single box.
    let single = ShardedServer::new(
        persist::load_sharded(&manifest).expect("load_sharded"),
        ServeOptions::default(),
    );
    let gen0_expect = single.answer_batch(&wl.queries).0;
    let mut cluster = Cluster::load(
        &replica_manifests,
        RoutePolicy::RoundRobin,
        ClusterOptions::default(),
    )
    .expect("cluster load");
    let (answers, report) = cluster.answer_batch(&wl.queries).expect("healthy batch");
    assert_eq!(
        answers, gen0_expect,
        "a healthy cluster must be bitwise the single-box deployment"
    );
    println!(
        "healthy serve: {} queries over {} groups, gen {}, bitwise = single box",
        report.queries, report.groups, report.generation
    );

    // 3. Kill a replica mid-batch; the router fails over and answers
    // do not move. The kill is plain data — serialize it, keep it, and
    // any later run replays the same failure sequence.
    let faults = vec![Fault::Kill {
        batch: 0,
        group: 0,
        replica: 0,
    }];
    println!(
        "armed faults: {}",
        serde_json::to_string(&faults).expect("serialize faults")
    );
    let mut cluster = Cluster::load(
        &replica_manifests,
        RoutePolicy::RoundRobin,
        ClusterOptions::default(),
    )
    .expect("cluster reload")
    .with_faults(faults);
    let (answers, report) = cluster.answer_batch(&wl.queries).expect("kill batch");
    assert_eq!(answers, gen0_expect, "failover must not move answers");
    assert!(report.failovers >= 1, "the routed replica died mid-batch");
    let killed = cluster
        .events()
        .iter()
        .any(|e| matches!(e, ClusterEvent::ReplicaKilled { .. }));
    assert!(killed, "the injected kill must land, typed");
    println!(
        "injected kill: {} failover(s), coverage {}/{}, answers bitwise unchanged",
        report.failovers, report.covered, report.groups
    );
    // Repair it from its own replica disk (still generation 0) so the
    // upcoming roll has full redundancy to walk through.
    cluster
        .repair_replica(0, 0, &replica_manifests[0])
        .expect("repair killed replica");
    println!("killed replica repaired from its replica disk, back at gen 0");

    // 4. Drift, refresh, publish generation 1 into every replica's
    // directory and roll it, each replica from its own disk; mid-roll
    // batches are flagged stale and still single-generation.
    data.append(&drift_batch(rows / 2, 2, 1.0, 0.3, 29))
        .expect("append drift");
    let mut refreshed = sharded.clone();
    retrain_shards(
        &mut refreshed,
        &data,
        1,
        &wl.predicate,
        &wl.queries,
        &cfg,
        &[0, 1],
    )
    .expect("retrain");
    persist::save_refreshed(&manifest, &refreshed, &[0, 1]).expect("save gen 1");
    let gen1_expect = ShardedServer::new(
        persist::load_sharded(&manifest).expect("load gen 1"),
        ServeOptions::default(),
    )
    .answer_batch(&wl.queries)
    .0;
    for dir in &replica_dirs {
        publish_into(&publish, dir);
    }
    // Replica 0's copy of group 1's new artifact rots on its disk.
    let gen1 = persist::read_manifest(&manifest).expect("read gen 1");
    let rotten = replica_dirs[0].join(&gen1.shards[1][0].path);
    let mut bytes = std::fs::read(&rotten).expect("read artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&rotten, bytes).expect("damage artifact");

    let step = (cluster.rolling_upgrade_step(&replica_manifests)).expect("first step");
    assert!(matches!(
        step,
        Some(ClusterEvent::UpgradeApplied { from: 0, to: 1, .. })
    ));
    let (mid, mid_report) = cluster.answer_batch(&wl.queries).expect("mid-roll batch");
    assert_eq!(
        mid, gen0_expect,
        "mid-roll batches must not blend generations"
    );
    assert!(mid_report.stale, "serving behind the roll must be flagged");
    println!(
        "mid-roll: serving gen {} while gen {} lands — stale flag set, answers bitwise gen 0",
        mid_report.generation, mid_report.latest
    );
    let steps = cluster
        .rolling_upgrade(&replica_manifests)
        .expect("finish roll");
    assert!(matches!(
        steps.last(),
        Some(ClusterEvent::UpgradeApplied { to: 1, .. })
    ));
    let rotted = steps.iter().any(|e| {
        matches!(e, ClusterEvent::ReplicaLoadFailed { group: 1, replica: 0, error }
            if error.contains("checksum"))
    });
    assert!(rotted, "the damaged artifact must fail its checksum, typed");
    assert_eq!(
        (cluster.rolling_upgrade_step(&replica_manifests)).expect("converged"),
        None,
        "a finished roll has nothing left to upgrade"
    );
    let (post, post_report) = cluster.answer_batch(&wl.queries).expect("post-roll batch");
    assert_eq!(post, gen1_expect, "post-roll answers must be gen 1");
    assert!(!post_report.stale);
    println!(
        "rolled to gen {} in {} steps around the damaged slot, stale flag cleared",
        post_report.generation,
        steps.len()
    );
    // The roll went around the damaged slot; repair it from the publish
    // manifest so every replica column serves generation 1.
    let repaired = cluster.repair_replica(1, 0, &manifest);
    assert_eq!(repaired.expect("repair damaged slot"), 1);
    println!("damaged slot repaired from the gen-1 publish manifest");

    // Per-replica drift scoring: one exact probe labeling, one report
    // per replica column through the shared `Deployment` trait.
    let engine = QueryEngine::new(&data, 1);
    let monitor = DriftMonitor::new(wl.queries[..wl.queries.len().min(64)].to_vec(), 0.5)
        .expect("monitor")
        .with_threads(2);
    let views: Vec<_> = (0..replicas)
        .map(|r| cluster.replica_view(r).expect("replica view"))
        .collect();
    let deployments: Vec<&dyn Deployment> = views.iter().map(|v| v as &dyn Deployment).collect();
    let reports = monitor.check_many(&deployments, &engine, &wl.predicate, Aggregate::Avg);
    for (r, rep) in reports.iter().enumerate() {
        println!(
            "replica column {r}: NMAE {:.4} ({})",
            rep.nmae,
            if rep.stale { "stale" } else { "fresh" }
        );
    }

    // 5. Row-stable rebalance 2 → 4: answers bitwise unchanged with no
    // rebuild; materializing then matches a fresh 4-shard build.
    let refined = cluster.rebalance(2).expect("rebalance");
    let (rebalanced, _) = cluster.answer_batch(&wl.queries).expect("rebalanced batch");
    assert_eq!(
        rebalanced, gen1_expect,
        "a row-stable rebalance must not move answers"
    );
    println!(
        "rebalanced {:?} -> {:?}: answers bitwise unchanged, no rebuild",
        ShardPlan::RoundRobin { shards },
        refined
    );
    while let Some(i) = cluster.groups().iter().position(|g| g.logical().len() > 1) {
        cluster
            .materialize_group(i, &data, 1, &wl.predicate, &wl.queries, &cfg)
            .expect("materialize");
    }
    let (fine, _) = build_sharded(
        &data,
        1,
        &ShardPlan::RoundRobin { shards: 4 },
        &wl.predicate,
        Aggregate::Avg,
        &wl.queries,
        &cfg,
    )
    .expect("fresh fine build");
    let fine_expect = ShardedServer::new(fine, ServeOptions::default())
        .answer_batch(&wl.queries)
        .0;
    let (materialized, _) = cluster
        .answer_batch(&wl.queries)
        .expect("materialized batch");
    assert_eq!(
        materialized, fine_expect,
        "materialized groups must be bitwise a fresh fine-grained build"
    );
    println!("materialized 4 groups: bitwise = fresh 4-shard build");

    std::fs::remove_dir_all(&publish).ok();
    for dir in &replica_dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    println!("build -> replicate -> fault-inject -> roll -> rebalance round trip verified");
}
