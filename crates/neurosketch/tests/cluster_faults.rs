//! The cluster fault-injection tier: every injected fault — replica
//! kill, stale generation, torn manifest, checksum-corrupt artifact —
//! must produce a **typed** outcome (a degraded report or a
//! [`ClusterError`], never a panic), every scenario must replay
//! bitwise-identically from its seed at any thread count, and the
//! cluster's happy path must stay bitwise a single-box
//! [`ShardedServer`]: through failover, through a rolling upgrade
//! (one generation per batch, never blended), and through a row-stable
//! K→2K rebalance.

use neurosketch::cluster::{
    Cluster, ClusterError, ClusterEvent, ClusterOptions, Fault, FaultPlan, RoutePolicy,
};
use neurosketch::deploy::{Deployment, QueryBatch};
use neurosketch::maintenance::retrain_shards;
use neurosketch::persist;
use neurosketch::serve::ServeOptions;
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer, ShardedSketch};
use neurosketch::{BatchScratch, NeuroSketchConfig};
use proptest::prelude::*;
use query::aggregate::{Aggregate, Moments};
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::path::PathBuf;
use std::sync::OnceLock;

const SHARDS: usize = 3;

fn cfg() -> NeuroSketchConfig {
    let mut cfg = NeuroSketchConfig::small();
    cfg.train.epochs = 6;
    cfg
}

/// One 3-shard AVG deployment plus the drifted table a refresh
/// retrains against. Built once, shared by every test.
struct Base {
    wl: Workload,
    sharded: ShardedSketch,
    grown: datagen::Dataset,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut data = datagen::simple::uniform(600, 2, 7);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 80,
            seed: 11,
        })
        .unwrap();
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: SHARDS },
            &wl.predicate,
            Aggregate::Avg,
            &wl.queries,
            &cfg(),
        )
        .unwrap();
        data.append(&datagen::simple::drift_batch(300, 2, 1.0, 0.3, 19))
            .unwrap();
        Base {
            wl,
            sharded,
            grown: data,
        }
    })
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts(quorum: f64) -> ClusterOptions {
    ClusterOptions { threads: 4, quorum }
}

fn single_box(sketch: &ShardedSketch) -> Vec<f64> {
    ShardedServer::new(sketch.clone(), ServeOptions::default())
        .answer_batch(&base().wl.queries)
        .0
}

#[test]
fn healthy_cluster_is_bitwise_a_single_box() {
    let b = base();
    let expect = single_box(&b.sharded);
    for policy in [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastLoaded,
        RoutePolicy::GenerationAware,
    ] {
        let mut cluster = Cluster::new(&b.sharded, 2, 0, policy, opts(1.0)).unwrap();
        let (answers, report) = cluster.answer_batch(&b.wl.queries).unwrap();
        assert_eq!(answers, expect, "policy {policy:?} drifted from single-box");
        assert!(!report.stale);
        assert_eq!(report.covered, SHARDS);
        assert_eq!(report.failovers, 0);
    }
}

/// Most queries one model's GEMM call takes in a scatter/gather (the
/// serving layer's sub-batch bound).
const SUB_BATCH: usize = 1024;

/// Every replica scatters through its sketches' own serving layouts
/// (derived with the models, never configured): at every thread count,
/// and on a batch long enough to cross the sub-batch bound twice, the
/// cluster is bitwise the per-query oracle — `ShardedSketch::answer`,
/// one `NeuroSketch::answer` per component.
#[test]
fn replica_serving_layout_is_bitwise_invisible() {
    let b = base();
    let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let oracle: Vec<f64> = b.wl.queries.iter().map(|q| b.sharded.answer(q)).collect();
    assert_eq!(bits(&single_box(&b.sharded)), bits(&oracle));
    let reps = (2 * SUB_BATCH + 1) / b.wl.queries.len() + 1;
    let long = vec![&b.wl.queries[..]; reps].concat();
    let long_oracle = oracle.repeat(reps);
    assert!(long.len() > 2 * SUB_BATCH + 1);
    for threads in [1, 2, 3, 4, 7] {
        let mut cluster = Cluster::new(
            &b.sharded,
            2,
            0,
            RoutePolicy::RoundRobin,
            ClusterOptions {
                threads,
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        for (batch, expect) in [(&b.wl.queries, &oracle), (&long, &long_oracle)] {
            let answers = cluster.answer_batch(batch).unwrap().0;
            assert_eq!(
                bits(&answers),
                bits(expect),
                "drifted from the per-query oracle at {threads} threads, {} queries",
                batch.len()
            );
        }
    }
}

#[test]
fn mid_batch_kill_fails_over_bitwise_transparently() {
    let b = base();
    let expect = single_box(&b.sharded);
    let plan = FaultPlan {
        seed: 0,
        faults: vec![Fault::Kill {
            batch: 0,
            group: 0,
            replica: 0,
        }],
    };
    let mut cluster = Cluster::new(&b.sharded, 2, 0, RoutePolicy::LeastLoaded, opts(1.0))
        .unwrap()
        .with_faults(plan);
    for batch in 0..3u64 {
        let (answers, report) = cluster.answer_batch(&b.wl.queries).unwrap();
        assert_eq!(answers, expect, "batch {batch} drifted through the kill");
        assert_eq!(report.covered, SHARDS, "batch {batch} lost coverage");
        if batch == 0 {
            assert_eq!(report.failovers, 1, "the mid-batch kill must fail over");
        }
    }
    let events = cluster.take_events();
    assert!(events.contains(&ClusterEvent::ReplicaKilled {
        batch: 0,
        group: 0,
        replica: 0,
    }));
    // LeastLoaded had routed group 0 to replica 0 (fewest served, lowest
    // index) when the kill landed mid-batch — so batch 0 failed over.
    assert!(
        events.iter().any(|e| matches!(
            e,
            ClusterEvent::Failover {
                batch: 0,
                group: 0,
                from: 0,
                to: 1
            }
        )),
        "expected a failover at the kill batch, got {events:?}"
    );
}

#[test]
fn losing_every_replica_of_a_group_is_typed_quorum_loss() {
    let b = base();
    let kill_group0 = FaultPlan {
        seed: 0,
        faults: vec![
            Fault::Kill {
                batch: 0,
                group: 0,
                replica: 0,
            },
            Fault::Kill {
                batch: 0,
                group: 0,
                replica: 1,
            },
        ],
    };

    // Full quorum: the batch must fail typed, not panic or half-answer.
    let mut strict = Cluster::new(&b.sharded, 2, 0, RoutePolicy::RoundRobin, opts(1.0))
        .unwrap()
        .with_faults(kill_group0.clone());
    match strict.answer_batch(&b.wl.queries) {
        Err(ClusterError::QuorumLost {
            covered,
            needed,
            groups,
        }) => {
            assert_eq!((covered, needed, groups), (SHARDS - 1, SHARDS, SHARDS));
        }
        other => panic!("expected QuorumLost, got {other:?}"),
    }

    // Relaxed quorum: a partial answer, with the gap visible in the
    // report and the uncovered group logged.
    let mut relaxed = Cluster::new(&b.sharded, 2, 0, RoutePolicy::RoundRobin, opts(0.5))
        .unwrap()
        .with_faults(kill_group0);
    let (answers, report) = relaxed.answer_batch(&b.wl.queries).unwrap();
    assert_eq!(report.covered, SHARDS - 1);
    assert_eq!(report.chosen[0], None);
    assert!(answers.iter().all(|a| a.is_finite()));
    assert!(relaxed
        .events()
        .iter()
        .any(|e| matches!(e, ClusterEvent::GroupUncovered { group: 0, .. })));
}

/// Land a generation-1 refresh of every shard at `dir` and return
/// `(manifest path, gen-0 loaded sketch, gen-1 loaded sketch)`.
fn two_generations(dir: &PathBuf) -> (PathBuf, ShardedSketch, ShardedSketch) {
    let b = base();
    let manifest = persist::save_sharded(dir, &b.sharded).unwrap();
    let gen0 = persist::load_sharded(&manifest).unwrap();
    let mut refreshed = b.sharded.clone();
    retrain_shards(
        &mut refreshed,
        &b.grown,
        1,
        &b.wl.predicate,
        &b.wl.queries,
        &cfg(),
        &[0, 1, 2],
    )
    .unwrap();
    persist::save_refreshed(&manifest, &refreshed, &[0, 1, 2]).unwrap();
    let gen1 = persist::load_sharded(&manifest).unwrap();
    (manifest, gen0, gen1)
}

#[test]
fn rolling_upgrade_serves_one_generation_at_a_time_with_stale_flag() {
    let b = base();
    let dir = fresh_dir("cluster_rolling_upgrade_test");
    let (manifest, gen0, gen1) = two_generations(&dir);
    let gen0_expect = single_box(&gen0);
    let gen1_expect = single_box(&gen1);
    assert_ne!(gen0_expect, gen1_expect, "refresh changed nothing");

    let mut cluster = Cluster::new(&gen0, 2, 0, RoutePolicy::GenerationAware, opts(1.0)).unwrap();

    // One replica upgraded: generation 1 cannot cover quorum yet, so
    // the batch serves generation 0 — flagged stale, bitwise gen-0,
    // never a blend.
    let step = cluster.rolling_upgrade_step(&manifest).unwrap();
    assert!(
        matches!(
            step,
            Some(ClusterEvent::UpgradeApplied { from: 0, to: 1, .. })
        ),
        "got {step:?}"
    );
    // The step returns exactly what it logged.
    assert_eq!(cluster.events().last(), step.as_ref());
    let (mid_answers, mid_report) = cluster.answer_batch(&b.wl.queries).unwrap();
    assert_eq!(
        mid_answers, gen0_expect,
        "mid-roll batch blended generations"
    );
    assert!(mid_report.stale);
    assert_eq!((mid_report.generation, mid_report.latest), (0, 1));
    assert!(cluster.events().iter().any(|e| matches!(
        e,
        ClusterEvent::ServedStale {
            served: 0,
            latest: 1,
            ..
        }
    )));

    // Roll to completion: every replica lands on generation 1 and the
    // staleness flag clears.
    let steps = cluster.rolling_upgrade(&manifest).unwrap();
    assert_eq!(
        steps.len(),
        2 * SHARDS - 1,
        "one step per remaining replica"
    );
    assert!(steps
        .iter()
        .all(|s| matches!(s, ClusterEvent::UpgradeApplied { from: 0, to: 1, .. })));
    // Converged on generation 1: a further step finds nothing to do
    // and logs nothing.
    let logged = cluster.events().len();
    assert_eq!(cluster.rolling_upgrade_step(&manifest).unwrap(), None);
    assert_eq!(cluster.events().len(), logged);
    let (answers, report) = cluster.answer_batch(&b.wl.queries).unwrap();
    assert_eq!(answers, gen1_expect);
    assert!(!report.stale);
    assert_eq!(report.generation, 1);
    for group in cluster.groups() {
        for replica in group.replicas() {
            assert_eq!(replica.generation(), 1);
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn upgrade_faults_are_typed_and_repairable() {
    let b = base();
    let dir = fresh_dir("cluster_upgrade_faults_test");
    let (manifest, gen0, gen1) = two_generations(&dir);
    let gen1_expect = single_box(&gen1);

    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            Fault::StaleGeneration {
                group: 0,
                replica: 0,
            },
            Fault::TornManifest {
                group: 1,
                replica: 0,
            },
            Fault::CorruptArtifact {
                group: 2,
                replica: 0,
            },
        ],
    };
    let mut cluster = Cluster::new(&gen0, 2, 0, RoutePolicy::GenerationAware, opts(1.0))
        .unwrap()
        .with_faults(plan);
    let steps = cluster.rolling_upgrade(&manifest).unwrap();
    assert!(steps.contains(&ClusterEvent::UpgradePinnedStale {
        group: 0,
        replica: 0,
        generation: 0,
    }));
    assert!(steps.contains(&ClusterEvent::UpgradeTorn {
        group: 1,
        replica: 0,
        generation: 0,
    }));
    assert!(steps.contains(&ClusterEvent::UpgradeCorrupt {
        group: 2,
        replica: 0,
    }));
    // The roll's return value is the slice of the event log it wrote,
    // and it converged on generation 1 around the faulted replicas.
    assert_eq!(cluster.events(), &steps[..]);
    assert_eq!(cluster.rolling_upgrade_step(&manifest).unwrap(), None);
    for group in cluster.groups() {
        assert_eq!(group.replicas()[1].generation(), 1);
    }

    // Each group still has its replica-1 at generation 1, so serving
    // converged — around the faulted replicas, never through them.
    let (answers, report) = cluster.answer_batch(&b.wl.queries).unwrap();
    assert_eq!(answers, gen1_expect);
    assert!(!report.stale);
    assert_eq!(report.chosen, vec![Some(1), Some(1), Some(1)]);

    // Operator repair brings all three back to generation 1.
    for group in 0..SHARDS {
        let gen = cluster.repair_replica(group, 0, &manifest).unwrap();
        assert_eq!(gen, 1);
    }
    for group in cluster.groups() {
        for replica in group.replicas() {
            assert_eq!(replica.generation(), 1);
            assert!(!replica.pinned());
        }
    }
    let (answers, _) = cluster.answer_batch(&b.wl.queries).unwrap();
    assert_eq!(answers, gen1_expect);

    std::fs::remove_dir_all(&dir).ok();
}

/// A fault plan serialized into this test file. Parsing it back and
/// replaying it must reproduce the exact same failure sequence — same
/// events, same answers — at any thread count.
const EMBEDDED_PLAN: &str = r#"{
  "seed": 99,
  "faults": [
    { "Kill": { "batch": 1, "group": 0, "replica": 0 } },
    { "StaleGeneration": { "group": 1, "replica": 0 } },
    { "CorruptArtifact": { "group": 2, "replica": 1 } },
    { "Kill": { "batch": 3, "group": 2, "replica": 0 } }
  ]
}"#;

/// Drive one full scenario — serve, roll, serve — under `threads` and
/// return everything observable.
fn run_embedded_scenario(
    threads: usize,
    manifest: &PathBuf,
    gen0: &ShardedSketch,
) -> (Vec<Vec<f64>>, Vec<ClusterEvent>, Vec<ClusterEvent>) {
    let b = base();
    let plan: FaultPlan = serde_json::from_str(EMBEDDED_PLAN).unwrap();
    let mut cluster = Cluster::new(
        gen0,
        2,
        0,
        RoutePolicy::RoundRobin,
        ClusterOptions {
            threads,
            quorum: 0.5,
        },
    )
    .unwrap()
    .with_faults(plan);
    let mut answers = Vec::new();
    for _ in 0..2 {
        answers.push(cluster.answer_batch(&b.wl.queries).unwrap().0);
    }
    let steps = cluster.rolling_upgrade(manifest).unwrap();
    for _ in 0..2 {
        answers.push(cluster.answer_batch(&b.wl.queries).unwrap().0);
    }
    (answers, cluster.take_events(), steps)
}

#[test]
fn embedded_fault_plan_replays_identically_at_any_thread_count() {
    let dir = fresh_dir("cluster_embedded_replay_test");
    let (manifest, gen0, _) = two_generations(&dir);

    let plan: FaultPlan = serde_json::from_str(EMBEDDED_PLAN).unwrap();
    assert_eq!(plan.seed, 99);
    assert_eq!(plan.faults.len(), 4);
    assert_eq!(
        serde_json::from_str::<FaultPlan>(&serde_json::to_string(&plan).unwrap()).unwrap(),
        plan,
        "the embedded plan must roundtrip through serde unchanged"
    );

    let (answers_t1, events_t1, steps_t1) = run_embedded_scenario(1, &manifest, &gen0);
    let (answers_t4, events_t4, steps_t4) = run_embedded_scenario(4, &manifest, &gen0);
    assert_eq!(answers_t1, answers_t4, "answers depend on thread count");
    assert_eq!(events_t1, events_t4, "event log depends on thread count");
    assert_eq!(steps_t1, steps_t4, "upgrade steps depend on thread count");

    // The exact failure sequence the plan encodes, replayed: the batch-1
    // kill lands, the stale pin and the corrupt artifact intercept the
    // roll, and the batch-3 kill fires in the post-upgrade serving.
    assert!(events_t1.contains(&ClusterEvent::ReplicaKilled {
        batch: 1,
        group: 0,
        replica: 0,
    }));
    assert!(events_t1.contains(&ClusterEvent::ReplicaKilled {
        batch: 3,
        group: 2,
        replica: 0,
    }));
    assert!(events_t1.iter().any(|e| matches!(
        e,
        ClusterEvent::UpgradePinnedStale {
            group: 1,
            replica: 0,
            ..
        }
    )));
    assert!(steps_t1.contains(&ClusterEvent::UpgradeCorrupt {
        group: 2,
        replica: 1,
    }));

    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded plans replay identically at 1 and 4 threads, and every batch
/// the cluster answers is bitwise the dumbest oracle over exactly the
/// groups its report says were covered: per query, each covered group's
/// source shard evaluated alone, merged in group order, finished once.
#[test]
fn generated_plans_replay_identically_from_their_seed() {
    let b = base();
    let oracle = |chosen: &[Option<usize>]| -> Vec<f64> {
        let mut scratch = BatchScratch::default();
        b.wl.queries
            .iter()
            .map(|q| {
                let total = b
                    .sharded
                    .shards()
                    .iter()
                    .zip(chosen)
                    .filter(|(_, c)| c.is_some())
                    .map(|(s, _)| {
                        s.moments_batch_with(&mut scratch, QueryBatch::new(q, q.len()))[0]
                    })
                    .fold(Moments::ZERO, Moments::merge);
                b.sharded.finish_guarded(total)
            })
            .collect()
    };
    // Two replicas per group fail over; one replica per group makes
    // every kill an uncovered group (a degraded answer, or typed quorum
    // loss), so the oracle is also checked on partial merges.
    let (mut degraded, mut lost) = (0usize, 0usize);
    for (seed, replicas) in (1u64..=8).flat_map(|s| [(s, 2usize), (s, 1)]) {
        for policy in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastLoaded,
            RoutePolicy::GenerationAware,
        ] {
            let run = |threads: usize| {
                let plan = FaultPlan::generate(seed, SHARDS, replicas, 4, 6);
                let mut cluster = Cluster::new(
                    &b.sharded,
                    replicas,
                    0,
                    policy,
                    ClusterOptions {
                        threads,
                        quorum: 0.5,
                    },
                )
                .unwrap()
                .with_faults(plan);
                let mut out = Vec::new();
                for _ in 0..4 {
                    // Quorum may be typed-lost under an aggressive plan;
                    // capture either outcome — both must replay.
                    match cluster.answer_batch(&b.wl.queries) {
                        Ok((answers, report)) => out.push(Ok((answers, report))),
                        Err(e) => out.push(Err(format!("{e}"))),
                    }
                }
                (out, cluster.take_events())
            };
            let replay = run(1);
            let case = format!("seed {seed}, {replicas} replicas, {policy:?}");
            assert_eq!(replay, run(4), "{case}: replay diverged across threads");
            let (batches, _) = replay;
            lost += batches.iter().filter(|b| b.is_err()).count();
            for (i, (answers, report)) in batches.iter().flatten().enumerate() {
                assert_eq!(
                    report.covered,
                    report.chosen.iter().flatten().count(),
                    "{case}: batch {i}"
                );
                assert_eq!(
                    answers,
                    &oracle(&report.chosen),
                    "{case}: batch {i} drifted from the per-query oracle"
                );
                degraded += usize::from(report.covered < SHARDS);
            }
        }
    }
    assert!(
        degraded > 0 && lost > 0,
        "the sweep must reach partial merges ({degraded}) and quorum loss ({lost})"
    );
}

/// Satellite: K→2K rebalance is bitwise invariant for every
/// moment-composable aggregate, and a fully materialized rebalance is
/// bitwise a fresh fine-grained build.
#[test]
fn rebalance_is_bitwise_invariant_for_all_aggregates() {
    let data = datagen::simple::uniform(240, 2, 5);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 40,
        seed: 9,
    })
    .unwrap();
    let mut small = NeuroSketchConfig::small();
    small.train.epochs = 4;
    for agg in [
        Aggregate::Count,
        Aggregate::Sum,
        Aggregate::Avg,
        Aggregate::Std,
    ] {
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            agg,
            &wl.queries,
            &small,
        )
        .unwrap();
        let expect = ShardedServer::new(sharded.clone(), ServeOptions::default())
            .answer_batch(&wl.queries)
            .0;
        let mut cluster = Cluster::new(&sharded, 2, 0, RoutePolicy::RoundRobin, opts(1.0)).unwrap();
        let (before, _) = cluster.answer_batch(&wl.queries).unwrap();
        assert_eq!(
            before,
            expect,
            "{} cluster drifted pre-rebalance",
            agg.name()
        );

        let refined = cluster.rebalance(2).unwrap();
        assert_eq!(refined, ShardPlan::RoundRobin { shards: 4 });
        assert_eq!(cluster.groups()[0].logical(), &[0, 2]);
        assert_eq!(cluster.groups()[1].logical(), &[1, 3]);
        let (after, _) = cluster.answer_batch(&wl.queries).unwrap();
        assert_eq!(after, expect, "{} rebalance changed answers", agg.name());
    }
}

#[test]
fn materialized_rebalance_is_bitwise_a_fresh_fine_build() {
    let data = datagen::simple::uniform(240, 2, 5);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 40,
        seed: 9,
    })
    .unwrap();
    let mut small = NeuroSketchConfig::small();
    small.train.epochs = 4;
    let (coarse, _) = build_sharded(
        &data,
        1,
        &ShardPlan::RoundRobin { shards: 2 },
        &wl.predicate,
        Aggregate::Avg,
        &wl.queries,
        &small,
    )
    .unwrap();
    let mut cluster = Cluster::new(&coarse, 2, 0, RoutePolicy::RoundRobin, opts(1.0)).unwrap();
    cluster.rebalance(2).unwrap();
    while let Some(i) = cluster.groups().iter().position(|g| g.logical().len() > 1) {
        cluster
            .materialize_group(i, &data, 1, &wl.predicate, &wl.queries, &small)
            .unwrap();
    }
    assert_eq!(cluster.groups().len(), 4);
    for (i, group) in cluster.groups().iter().enumerate() {
        assert_eq!(group.logical(), &[i], "groups out of gather order");
    }

    let (fine, _) = build_sharded(
        &data,
        1,
        &ShardPlan::RoundRobin { shards: 4 },
        &wl.predicate,
        Aggregate::Avg,
        &wl.queries,
        &small,
    )
    .unwrap();
    let expect = ShardedServer::new(fine, ServeOptions::default())
        .answer_batch(&wl.queries)
        .0;
    let (answers, _) = cluster.answer_batch(&wl.queries).unwrap();
    assert_eq!(
        answers, expect,
        "materialized 2→4 cluster is not bitwise a fresh 4-shard build"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plan refinement is row-stable for any round-robin K, factor, and
    /// table size: every refined shard's rows are a subset of the
    /// coarse shard they came from.
    #[test]
    fn refinement_is_row_stable(k in 1usize..6, factor in 1usize..5, rows in 1usize..500) {
        let coarse = ShardPlan::RoundRobin { shards: k };
        let fine = coarse.refine(factor).unwrap();
        prop_assert_eq!(fine.shards(), k * factor);
        for row in 0..rows {
            prop_assert_eq!(
                fine.assign(row, rows) % k,
                coarse.assign(row, rows),
                "row {} escaped its coarse shard", row
            );
        }
    }

    /// Non-round-robin plans refuse to refine, typed.
    #[test]
    fn non_round_robin_refinement_is_typed(k in 1usize..6, seed in 0u64..32) {
        prop_assert!(ShardPlan::Blocks { shards: k }.refine(2).is_err());
        prop_assert!(ShardPlan::Hash { shards: k, seed }.refine(2).is_err());
    }
}
