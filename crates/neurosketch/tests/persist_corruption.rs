//! Adversarial tests for the NSK2 persistent sketch format: every
//! corruption of a valid artifact — truncation anywhere, arbitrary byte
//! damage, implausible embedded dimensions — must come back as a typed
//! [`PersistError`], never a panic, and successful decodes must always
//! yield a servable sketch.
//!
//! Since container version 3 every artifact ends in an FNV-1a-64
//! trailer over the whole body, so arbitrary byte damage splits into
//! two regimes, both covered here: without repair the trailer catches
//! *every* flip ([`PersistError::TrailerMismatch`]); with the trailer
//! re-patched the damage reaches the section parsers — including the
//! f16/i8 quantized parameter payloads and their scale fields — which
//! must still fail typed or decode to a servable sketch.

use bytes::Bytes;
use neurosketch::persist::{self, PersistError};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use nn::QuantMode;
use proptest::prelude::*;

/// A small trained sketch and its NSK2 encoding in the given parameter
/// mode (built once per `(partitions, mode)`, shared across all
/// property cases).
fn artifact_bytes_mode(partitions: usize, mode: QuantMode) -> Vec<u8> {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type ArtifactCache = Mutex<HashMap<(usize, u8), Vec<u8>>>;
    static CACHE: OnceLock<ArtifactCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut cache = cache.lock().unwrap();
    cache
        .entry((partitions, mode.tag()))
        .or_insert_with(|| {
            let qs: Vec<Vec<f64>> = (0..160)
                .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
                .collect();
            let labels: Vec<f64> = qs.iter().map(|q| 7.0 * q[0] - 3.0 * q[1]).collect();
            let mut cfg = NeuroSketchConfig::small();
            cfg.tree_height = 2;
            cfg.target_partitions = partitions;
            cfg.train.epochs = 5;
            let (sketch, _) = NeuroSketch::build_from_labeled(&qs, &labels, &cfg).unwrap();
            persist::encode_sketch(&sketch.quantized_to(mode)).to_vec()
        })
        .clone()
}

fn artifact_bytes(partitions: usize) -> Vec<u8> {
    artifact_bytes_mode(partitions, QuantMode::F32)
}

/// Recompute the trailing checksum after deliberate body damage, so the
/// corruption reaches the section parsers instead of the trailer.
fn patch_trailer(blob: &mut [u8]) {
    let body = blob.len() - 8;
    let sum = query::exec::fnv1a_64(blob[..body].iter().copied());
    blob[body..].copy_from_slice(&sum.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any strict prefix of a valid artifact is missing *something*, in
    /// every parameter mode; decode must report a typed error (and
    /// never a bad-magic error once the magic survived the cut).
    #[test]
    fn truncation_always_yields_typed_error(mode_idx in 0usize..3, frac in 0.0f64..1.0) {
        let blob = artifact_bytes_mode(4, QuantMode::ALL[mode_idx]);
        let cut = ((blob.len() - 1) as f64 * frac) as usize;
        let err = persist::decode(Bytes::from(blob[..cut].to_vec())).unwrap_err();
        if cut >= 12 {
            prop_assert!(
                !matches!(err, PersistError::BadMagic { .. }),
                "magic was intact at cut {cut}: {err}"
            );
        }
    }

    /// With the v3 trailer in place, *every* single-byte flip is caught:
    /// past the 8-byte magic/version prologue the error is specifically
    /// the integrity mismatch, and damage to the prologue itself is
    /// still a typed refusal — never a panic, never a silent decode.
    #[test]
    fn byte_flips_never_panic(
        mode_idx in 0usize..3,
        pos_frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        let mut blob = artifact_bytes_mode(2, QuantMode::ALL[mode_idx]);
        let pos = ((blob.len() - 1) as f64 * pos_frac) as usize;
        blob[pos] ^= flip as u8;
        let err = persist::decode(Bytes::from(blob)).unwrap_err();
        if pos >= 8 {
            prop_assert!(
                matches!(err, PersistError::TrailerMismatch { .. }),
                "flip at {pos} slipped past the trailer: {err}"
            );
        }
    }

    /// Byte damage that *repairs the trailer* reaches the section
    /// parsers — including the f16/i8 parameter payloads and their
    /// per-tensor scale fields. The parsers must fail typed or produce
    /// a sketch that still serves; flips that only moved a stored
    /// parameter may survive, silently-wrong structure may not.
    #[test]
    fn patched_body_damage_never_panics(
        mode_idx in 0usize..3,
        pos_frac in 0.0f64..1.0,
        flip in 1u32..256,
    ) {
        let mut blob = artifact_bytes_mode(2, QuantMode::ALL[mode_idx]);
        // Damage lands anywhere in the body past the header; the trailer
        // is then recomputed so the checksum no longer shields the parse.
        let lo = 12;
        let hi = blob.len() - 9;
        let pos = lo + ((hi - lo) as f64 * pos_frac) as usize;
        blob[pos] ^= flip as u8;
        patch_trailer(&mut blob);
        if let Ok(artifact) = persist::decode(Bytes::from(blob)) {
            prop_assert!(artifact.sketch.partitions() > 0);
            let _ = artifact.sketch.answer(&[0.25, 0.75]);
        }
    }

    /// Garbage of any length is rejected, not mis-parsed into a panic.
    #[test]
    fn random_garbage_is_rejected(bytes in prop::collection::vec(0u32..256, 0..256)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        // Random garbage virtually never carries the NSK2 magic; if it
        // does, decode must still fail somewhere later — a 4-leaf model
        // section cannot appear by chance.
        prop_assert!(persist::decode(Bytes::from(raw)).is_err());
    }
}

/// The embedded NSK1 model blob declaring absurd layer dimensions is a
/// typed model error (checked size math), not an allocation attempt.
#[test]
fn embedded_layer_dim_overflow_is_typed() {
    // A single-partition sketch has the simplest layout: the first model
    // blob starts right after one leaf node and the model header.
    let qs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0, 0.5]).collect();
    let labels: Vec<f64> = qs.iter().map(|q| q[0]).collect();
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 0;
    cfg.target_partitions = 1;
    cfg.train.epochs = 2;
    let (sketch, _) = NeuroSketch::build_from_labeled(&qs, &labels, &cfg).unwrap();
    let mut blob = persist::encode_sketch(&sketch).to_vec();
    // Layout: header 12 + node_count 4 + leaf tag 1 + model_count 4 +
    // leaf u32 4 + y_mean 8 + y_std 8 + quant u8 1 + blob_len 4 =
    // offset 46; the NSK1 blob's layer table (out, in) sits 8 bytes
    // further.
    let first_dims = 46 + 8;
    blob[first_dims..first_dims + 8].copy_from_slice(&[0xFF; 8]);
    patch_trailer(&mut blob);
    let err = persist::decode(Bytes::from(blob)).unwrap_err();
    match err {
        PersistError::Model(msg) => {
            assert!(
                msg.contains("overflow") || msg.contains("truncated"),
                "unexpected model error: {msg}"
            );
        }
        other => panic!("expected a model error, got {other}"),
    }
}

/// A version bump is refused up front with the found version reported
/// (before the trailer check — an unknown future version may not even
/// have one).
#[test]
fn future_version_reports_found_version() {
    let mut blob = artifact_bytes(2);
    blob[4..8].copy_from_slice(&7u32.to_le_bytes());
    match persist::decode(Bytes::from(blob)).unwrap_err() {
        PersistError::UnsupportedVersion { found } => assert_eq!(found, 7),
        other => panic!("expected UnsupportedVersion, got {other}"),
    }
}

/// Flipping the quant tag of a model record to a different *valid* mode
/// (with the trailer repaired) must not silently misread the payload:
/// the embedded blob's own magic disagrees with the declared mode.
#[test]
fn mode_tag_mismatch_is_structural_corruption() {
    // Single leaf, so the record layout is fixed: the first record's
    // quant byte sits at offset 41 (12 + 4 + 1 + 4 + 4 + 8 + 8).
    let qs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0, 0.5]).collect();
    let labels: Vec<f64> = qs.iter().map(|q| q[0]).collect();
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 0;
    cfg.target_partitions = 1;
    cfg.train.epochs = 2;
    let (sketch, _) = NeuroSketch::build_from_labeled(&qs, &labels, &cfg).unwrap();
    let mut blob = persist::encode_sketch(&sketch.quantized_to(QuantMode::I8)).to_vec();
    let quant_at = 41;
    assert_eq!(blob[quant_at], QuantMode::I8.tag());
    blob[quant_at] = QuantMode::F16.tag();
    patch_trailer(&mut blob);
    match persist::decode(Bytes::from(blob)).unwrap_err() {
        PersistError::Corrupt(msg) => {
            assert!(msg.contains("f16") && msg.contains("i8"), "{msg}");
        }
        other => panic!("expected Corrupt, got {other}"),
    }
}
