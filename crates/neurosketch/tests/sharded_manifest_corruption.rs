//! Adversarial tests for the NSKM sharded-deployment manifest,
//! mirroring `persist_corruption.rs` for NSK2: every corruption of a
//! valid deployment — manifest truncation, bad magic/version, arbitrary
//! byte damage, a wrong artifact checksum, a missing shard file — must
//! come back as a typed [`PersistError`], never a panic, and successful
//! loads must always yield a servable deployment.
//!
//! The same damage on replica directories under a `Cluster` is the
//! composition harness's (`tests/composition.rs`, its `Reload` steps).

use bytes::Bytes;
use neurosketch::persist::{self, PersistError};
use neurosketch::shard::{build_sharded, ShardPlan};
use neurosketch::NeuroSketchConfig;
use proptest::prelude::*;
use query::aggregate::{Aggregate, MomentKind};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Manifest bytes plus every `(file name, bytes)` artifact of the
/// cached deployment.
type DeploymentBytes = (Vec<u8>, Vec<(String, Vec<u8>)>);

/// A small sharded AVG deployment (2 shards × {count, sum}), built once
/// and shared: its manifest bytes plus a factory that lays the
/// deployment out in a fresh temp directory per test.
fn deployment_bytes() -> &'static DeploymentBytes {
    static CACHE: OnceLock<DeploymentBytes> = OnceLock::new();
    CACHE.get_or_init(|| {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
            .collect();
        let data = datagen::Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap();
        let pred = query::predicate::Range::new(vec![0], 2).unwrap();
        let queries: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![(i as f64 * 0.317) % 0.8, 0.1 + (i as f64 * 0.119) % 0.15])
            .collect();
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 4;
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &pred,
            Aggregate::Avg,
            &queries,
            &cfg,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("nskm_corruption_seed");
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = persist::save_sharded(&dir, &sharded).unwrap();
        let manifest = std::fs::read(&manifest_path).unwrap();
        let mut artifacts = Vec::new();
        for shard in 0..2 {
            for kind in [MomentKind::Count, MomentKind::Sum] {
                let name = persist::shard_artifact_name(shard, kind);
                artifacts.push((name.clone(), std::fs::read(dir.join(&name)).unwrap()));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        (manifest, artifacts)
    })
}

/// Materialize the cached deployment in a fresh directory; the closure
/// may damage it before `load_sharded` runs.
fn with_deployment(
    tag: &str,
    damage: impl FnOnce(&PathBuf),
) -> Result<neurosketch::ShardedSketch, PersistError> {
    let (manifest, artifacts) = deployment_bytes();
    let dir = std::env::temp_dir().join(format!("nskm_corruption_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(persist::MANIFEST_NAME), manifest).unwrap();
    for (name, bytes) in artifacts {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    damage(&dir);
    let out = persist::load_sharded(dir.join(persist::MANIFEST_NAME));
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn intact_deployment_loads_and_serves() {
    let loaded = with_deployment("intact", |_| {}).unwrap();
    assert_eq!(loaded.shard_count(), 2);
    assert_eq!(loaded.aggregate(), Aggregate::Avg);
    let v = loaded.answer(&[0.2, 0.3]);
    assert!(v.is_finite());
}

#[test]
fn missing_shard_artifact_is_typed() {
    let err = with_deployment("missing", |dir| {
        std::fs::remove_file(dir.join(persist::shard_artifact_name(1, MomentKind::Sum))).unwrap();
    })
    .unwrap_err();
    match err {
        PersistError::MissingShard { path } => {
            assert_eq!(path, persist::shard_artifact_name(1, MomentKind::Sum));
        }
        other => panic!("expected MissingShard, got {other}"),
    }
}

#[test]
fn flipped_artifact_byte_is_a_checksum_mismatch() {
    let name = persist::shard_artifact_name(0, MomentKind::Count);
    let err = with_deployment("checksum", |dir| {
        let path = dir.join(&name);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
    })
    .unwrap_err();
    match err {
        PersistError::ChecksumMismatch {
            path,
            expected,
            found,
        } => {
            assert_eq!(path, name);
            assert_ne!(expected, found);
        }
        other => panic!("expected ChecksumMismatch, got {other}"),
    }
}

#[test]
fn swapped_artifacts_are_a_checksum_mismatch() {
    // Two structurally valid artifacts in each other's places: only the
    // checksum can tell — exactly the file-swap failure mode the
    // manifest exists to catch.
    let a = persist::shard_artifact_name(0, MomentKind::Count);
    let b = persist::shard_artifact_name(1, MomentKind::Count);
    let err = with_deployment("swap", |dir| {
        let bytes_a = std::fs::read(dir.join(&a)).unwrap();
        let bytes_b = std::fs::read(dir.join(&b)).unwrap();
        std::fs::write(dir.join(&a), bytes_b).unwrap();
        std::fs::write(dir.join(&b), bytes_a).unwrap();
    })
    .unwrap_err();
    assert!(
        matches!(err, PersistError::ChecksumMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn manifest_bad_magic_and_version_are_typed() {
    let (manifest, _) = deployment_bytes();

    let mut bad_magic = manifest.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        persist::decode_manifest(Bytes::from(bad_magic)),
        Err(PersistError::BadMagic { .. })
    ));

    let mut future = manifest.clone();
    future[4..8].copy_from_slice(&9u32.to_le_bytes());
    match persist::decode_manifest(Bytes::from(future)).unwrap_err() {
        PersistError::UnsupportedVersion { found } => assert_eq!(found, 9),
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

#[test]
fn manifest_shard_count_mismatch_is_corrupt() {
    // Plan says 2 shards (offset 18: aggregate u8 + plan tag u8 after
    // the 8-byte header and 8-byte generation, then shards u32); the
    // shard table count sits right after. Bump the plan's count only.
    let (manifest, _) = deployment_bytes();
    let mut bad = manifest.clone();
    bad[18..22].copy_from_slice(&3u32.to_le_bytes());
    assert!(matches!(
        persist::decode_manifest(Bytes::from(bad)),
        Err(PersistError::Corrupt(m)) if m.contains("shards")
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a valid manifest fails with a typed error
    /// (and never bad-magic once the magic survived the cut).
    #[test]
    fn manifest_truncation_always_yields_typed_error(frac in 0.0f64..1.0) {
        let (manifest, _) = deployment_bytes();
        let cut = ((manifest.len() - 1) as f64 * frac) as usize;
        let err = persist::decode_manifest(Bytes::from(manifest[..cut].to_vec())).unwrap_err();
        if cut >= 8 {
            prop_assert!(
                !matches!(err, PersistError::BadMagic { .. }),
                "magic was intact at cut {cut}: {err}"
            );
        }
    }

    /// Arbitrary single-byte manifest damage never panics: either a
    /// typed decode error, or a decode whose artifact references no
    /// longer resolve/checksum (caught at load), or — when the flip
    /// landed in a checksum that decode does not verify — a manifest
    /// that still lists the right artifacts.
    #[test]
    fn manifest_byte_flips_never_panic(pos_frac in 0.0f64..1.0, flip in 1u32..256) {
        let (manifest, _) = deployment_bytes();
        let mut bad = manifest.clone();
        let pos = ((bad.len() - 1) as f64 * pos_frac) as usize;
        bad[pos] ^= flip as u8;
        if let Ok(m) = persist::decode_manifest(Bytes::from(bad)) {
            prop_assert_eq!(m.shards.len(), 2);
            for shard in &m.shards {
                prop_assert_eq!(shard.len(), 2);
            }
        }
    }

    /// Random garbage is rejected, not mis-parsed into a panic.
    #[test]
    fn manifest_garbage_is_rejected(bytes in prop::collection::vec(0u32..256, 0..192)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        prop_assert!(persist::decode_manifest(Bytes::from(raw)).is_err());
    }
}
