//! Live-refresh invariants over the persisted NSKM lifecycle:
//!
//! * a **partial refresh** leaves every non-stale unit's answers
//!   bitwise unchanged (property-tested over all stale subsets);
//! * a refreshed deployment's NSKM **generation round-trips**
//!   quantized-bitwise, untouched shards keep their generation-0
//!   artifacts, and a [`neurosketch::deploy::LiveDeployment`] adopts
//!   the new generation atomically via `reload_sharded`;
//! * a refresh keeps the **storage mode** of the models it replaces: an
//!   `i8` deployment stays `i8` through retrain, save and load;
//! * a **torn refresh** — new artifacts written, manifest rename never
//!   landed — still loads generation `G` cleanly.

use bytes::Bytes;
use datagen::simple::{drift_batch, uniform};
use datagen::Dataset;
use neurosketch::deploy::Deployment;
use neurosketch::maintenance::retrain_shards;
use neurosketch::persist;
use neurosketch::serve::ServeOptions;
use neurosketch::shard::{build_sharded, ShardPlan, ShardSketch, ShardedServer, ShardedSketch};
use neurosketch::{LiveDeployment, NeuroSketchConfig};
use nn::QuantMode;
use proptest::prelude::*;
use query::aggregate::{Aggregate, MomentKind};
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::sync::OnceLock;

const SHARDS: usize = 4;

fn cfg() -> NeuroSketchConfig {
    let mut cfg = NeuroSketchConfig::small();
    cfg.train.epochs = 8;
    cfg
}

/// One 4-shard COUNT deployment over a uniform table, plus the grown
/// (drifted) table a refresh retrains against. Built once, shared by
/// every test and property case.
struct Base {
    wl: Workload,
    sharded: ShardedSketch,
    grown: Dataset,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let mut data = uniform(600, 2, 21);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 100,
            seed: 3,
        })
        .unwrap();
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: SHARDS },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg(),
        )
        .unwrap();
        data.append(&drift_batch(300, 2, 1.0, 0.3, 33)).unwrap();
        Base {
            wl,
            sharded,
            grown: data,
        }
    })
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn generation_roundtrips_quantized_bitwise_and_swaps_live() {
    let b = base();
    let dir = fresh_dir("nskm_generation_roundtrip_test");
    let manifest = persist::save_sharded(&dir, &b.sharded).unwrap();

    // Serve generation 0 behind a live handle.
    let live = LiveDeployment::new(
        ShardedServer::new(
            persist::load_sharded(&manifest).unwrap(),
            ServeOptions::default(),
        ),
        0,
    );
    let (gen0_answers, _) = live.answer_batch(&b.wl.queries);
    assert_eq!(live.describe().generation, Some(0));
    let per_query = |sketch: &ShardedSketch| -> Vec<f64> {
        b.wl.queries.iter().map(|q| sketch.answer(q)).collect()
    };
    assert_eq!(gen0_answers, per_query(&b.sharded));

    // Refresh shards 1 and 2 against the drifted table and land gen 1.
    let mut refreshed = b.sharded.clone();
    retrain_shards(
        &mut refreshed,
        &b.grown,
        1,
        &b.wl.predicate,
        &b.wl.queries,
        &cfg(),
        &[1, 2],
    )
    .unwrap();
    let landed = persist::save_refreshed(&manifest, &refreshed, &[1, 2]).unwrap();
    assert_eq!(landed, manifest, "refresh lands at the same manifest path");

    // The manifest bumped its generation; untouched shards still point
    // at their generation-0 artifacts, replaced ones at gen-1 names.
    let decoded = persist::decode_manifest(Bytes::from(std::fs::read(&manifest).unwrap())).unwrap();
    assert_eq!(decoded.generation, 1);
    assert_eq!(
        decoded.shards[0][0].path,
        persist::shard_artifact_name(0, MomentKind::Count)
    );
    assert_eq!(
        decoded.shards[1][0].path,
        persist::shard_artifact_name_gen(1, MomentKind::Count, 1)
    );

    // The reloaded generation answers bitwise like the refreshed
    // deployment: its models are already at their storage mode.
    let loaded = persist::load_sharded(&manifest).unwrap();
    for q in b.wl.queries.iter().take(30) {
        assert_eq!(loaded.answer(q), refreshed.answer(q));
    }

    // And the live handle hot-swaps to it: generation bumps, answers
    // flip wholesale to the new generation's.
    let now_live = live
        .reload_sharded(&manifest, ServeOptions::default())
        .unwrap();
    assert_eq!(now_live, 1);
    assert_eq!(live.describe().generation, Some(1));
    let (gen1_answers, _) = live.answer_batch(&b.wl.queries);
    // The batched path answers through the reloaded weights: bitwise
    // the per-query oracle of the new generation, not a serving copy
    // left over from the old one.
    assert_eq!(gen1_answers, per_query(&refreshed));
    let expect = ShardedServer::new(refreshed, ServeOptions::default()).answer_batch(&b.wl.queries);
    assert_eq!(gen1_answers, expect.0);
    assert_ne!(gen0_answers, gen1_answers, "refresh changed nothing");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn i8_refresh_keeps_its_storage_mode_through_save_and_load() {
    let b = base();
    let dir = fresh_dir("nskm_i8_refresh_test");
    let i8 = b.sharded.quantized_to(QuantMode::I8);
    let manifest = persist::save_sharded(&dir, &i8).unwrap();
    let mut refreshed = persist::load_sharded(&manifest).unwrap();
    retrain_shards(
        &mut refreshed,
        &b.grown,
        1,
        &b.wl.predicate,
        &b.wl.queries,
        &cfg(),
        &[1],
    )
    .unwrap();
    persist::save_refreshed(&manifest, &refreshed, &[1]).unwrap();
    let loaded = persist::load_sharded(&manifest).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let bits = |s: &ShardedSketch| -> Vec<u64> {
        b.wl.queries.iter().map(|q| s.answer(q).to_bits()).collect()
    };
    assert_eq!(bits(&loaded), bits(&refreshed));
    assert_ne!(bits(&refreshed), bits(&i8), "refresh changed nothing");
    // The retrained shard was stored at i8 again, not at f32.
    let sizes = |s: &ShardedSketch| -> Vec<usize> {
        s.shards().iter().map(ShardSketch::artifact_bytes).collect()
    };
    assert_eq!(sizes(&refreshed), sizes(&i8));
    assert_eq!(sizes(&loaded), sizes(&i8));
}

#[test]
fn torn_refresh_still_loads_generation_zero_cleanly() {
    let b = base();
    let dir = fresh_dir("nskm_torn_refresh_test");
    let manifest = persist::save_sharded(&dir, &b.sharded).unwrap();
    let gen0_manifest_bytes = std::fs::read(&manifest).unwrap();

    let mut refreshed = b.sharded.clone();
    retrain_shards(
        &mut refreshed,
        &b.grown,
        1,
        &b.wl.predicate,
        &b.wl.queries,
        &cfg(),
        &[0],
    )
    .unwrap();
    persist::save_refreshed(&manifest, &refreshed, &[0]).unwrap();

    // Tear the refresh: the gen-1 artifacts are on disk, but the
    // manifest rename "never landed" — the directory still holds the
    // gen-0 manifest. Loading must come up on generation 0 with the
    // original answers; no gen-0 byte was overwritten by the refresh.
    std::fs::write(&manifest, &gen0_manifest_bytes).unwrap();
    let decoded = persist::decode_manifest(Bytes::from(std::fs::read(&manifest).unwrap())).unwrap();
    assert_eq!(decoded.generation, 0);
    let loaded = persist::load_sharded(&manifest).unwrap();
    for q in b.wl.queries.iter().take(30) {
        assert_eq!(loaded.answer(q), b.sharded.answer(q));
    }

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every subset of stale shards, a partial refresh rebuilds
    /// exactly that subset: every other shard's model answers bitwise
    /// as before the refresh.
    #[test]
    fn partial_refresh_preserves_non_stale_units_bitwise(mask in 0usize..(1 << SHARDS)) {
        let b = base();
        let stale: Vec<usize> = (0..SHARDS).filter(|k| mask & (1 << k) != 0).collect();
        let mut refreshed = b.sharded.clone();
        retrain_shards(
            &mut refreshed,
            &b.grown,
            1,
            &b.wl.predicate,
            &b.wl.queries,
            &cfg(),
            &stale,
        )
        .unwrap();
        for k in 0..SHARDS {
            if stale.contains(&k) {
                continue;
            }
            let before = b.sharded.shards()[k].model(MomentKind::Count).unwrap();
            let after = refreshed.shards()[k].model(MomentKind::Count).unwrap();
            for q in b.wl.queries.iter().take(15) {
                prop_assert_eq!(after.answer(q), before.answer(q), "shard {} drifted", k);
            }
        }
    }
}
