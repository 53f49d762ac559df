//! The NSK2 persistent sketch format ("models are saved after
//! training", Sec. 5.1).
//!
//! [`nn::binary`] ships a *single* MLP (NSK1). A deployed NeuroSketch is
//! more than one model: a kd-tree routing structure, one compact MLP per
//! partition, the per-leaf output scalers, and — when it is served
//! behind a [`DqdRouter`] — the per-partition AQC estimates and routing
//! thresholds. NSK2 is the whole-sketch container: everything a serving
//! process ([`crate::serve`]) needs, in one versioned blob whose size
//! matches the paper's 4-bytes-per-parameter model-size accounting
//! (parameters dominate; the tree and headers are a few dozen bytes per
//! partition).
//!
//! Layout (little-endian, container version 3 — the only version this
//! build reads or writes):
//!
//! ```text
//! magic      u32 = 0x4E53_4B32 ("NSK2")
//! version    u32 = 3
//! query_dim  u32
//! node_count u32
//! per node, preorder (root = 0):
//!   tag u8: 0 = internal, 1 = leaf
//!   internal only: dim u32, val f64, left u32, right u32
//! model_count u32               (one per leaf, ascending node index)
//! per model:
//!   leaf u32                    (node-table index of its leaf)
//!   y_mean f64, y_std f64       (output de-standardization)
//!   quant u8                    (QuantMode tag — 0 f32, 1 f16, 2 i8)
//!   blob_len u32, blob          (the MLP via nn::binary, in that mode)
//! router u8: 0 = absent, 1 = present
//! router only:
//!   min_range_volume f64, max_leaf_aqc f64
//!   aqc_count u32, aqc f64 per leaf (sketch leaf order)
//! checksum u64                  (FNV-1a-64 of every preceding byte)
//! ```
//!
//! ## Quantized parameter sections and the accuracy contract
//!
//! A sketch is saved in the [`NeuroSketch::quant_mode`] it carries:
//! [`QuantMode::F16`] (2 B/param) for a fresh build
//! ([`NeuroSketch::BUILD_MODE`]), or `f32` (the paper's 4 B/param
//! storage model) and [`QuantMode::I8`] (1 B/param + one `f32`
//! power-of-two scale per tensor) for the sketch
//! [`NeuroSketch::quantized_to`] returns — the one way another mode
//! reaches an encoder. The per-mode encoding itself is [`nn::binary`]'s alone,
//! and `quantized_to` is its round trip, so for **every** mode a
//! decoded sketch answers **bitwise identically** to the sketch it was
//! saved from, re-encoding it reproduces the byte stream exactly (it
//! carries the artifact's mode), and a second load answers bitwise
//! identically to the first.
//! What f16/i8 trade away is accuracy *against the data*, not
//! reproducibility — `docs/serving.md` quantifies the NMAE curve.
//!
//! The trailing checksum ([`artifact_checksum`], same FNV-1a as NSKM)
//! is verified before any section is parsed, closing the
//! single-artifact integrity gap: flipped bits anywhere in the
//! container are [`PersistError::TrailerMismatch`], not a
//! silently-wrong weight. Corrupt input — truncation, bad magic,
//! structural tree damage, implausible layer dimensions, non-finite
//! f16 bits, or a non-power-of-two i8 scale — yields a typed
//! [`PersistError`], never a panic. Any version other than
//! [`NSK2_VERSION`] (NSKM: [`NSKM_VERSION`]) is refused as
//! [`PersistError::UnsupportedVersion`] before anything else is read:
//! the version field cannot select a layout without the trailer, so no
//! artifact is ever parsed unverified.
//!
//! ## NSKM: the sharded-deployment manifest
//!
//! A sharded deployment ([`crate::shard`]) is *several* NSK2 artifacts —
//! one per (data shard, moment component) — plus the [`ShardPlan`] that
//! assigns rows and the aggregate being served. The **NSKM** manifest
//! makes that one loadable unit: [`save_sharded`] writes every
//! component sketch as `shard-NNN.<component>.nsk2` next to a
//! `manifest.nskm` that records the plan, the aggregate, and each
//! artifact's relative path + FNV-1a checksum; [`load_sharded`]
//! verifies and reassembles the whole deployment. Layout
//! (little-endian):
//!
//! ```text
//! magic       u32 = 0x4D4B_534E ("NSKM")
//! version     u32 = 3
//! generation  u64
//! aggregate   u8: 0 = COUNT, 1 = SUM, 2 = AVG, 3 = STD
//! plan tag    u8: 0 = round-robin, 1 = blocks, 2 = hash
//! plan shards u32;  hash only: seed u64
//! shard_count u32                (must equal plan shards)
//! per shard, per moment slot (n, Σ, Σ²):
//!   present u8: 0 | 1
//!   present only: checksum u64, path_len u16, path (utf-8, relative)
//! ```
//!
//! **Generations** are what make live maintenance's partial refresh
//! atomic: [`save_refreshed`] writes fresh artifacts *only* for the
//! replaced shards, under names suffixed with the new generation
//! (`shard-NNN.<component>.gG.nsk2`), reuses the previous manifest's
//! entries for every untouched shard verbatim, and lands a new
//! `manifest.nskm` with the generation bumped — by the same
//! write-fsync-rename dance as [`save_sharded`]. Generation `G`'s bytes
//! are never touched, so a refresh torn at any point (new artifacts on
//! disk, manifest rename never landed) leaves generation `G` fully
//! loadable; once the rename lands, every load is `G + 1`.
//! `docs/maintenance.md` covers the operator side (old-generation
//! garbage collection, rollback).
//!
//! Failure modes are typed like NSK2's: a manifest entry whose file is
//! gone is [`PersistError::MissingShard`], an artifact whose bytes
//! changed since the manifest was written is
//! [`PersistError::ChecksumMismatch`], and structural damage —
//! unknown aggregate/plan tags, shard-count mismatch, moment slots that
//! do not match the aggregate, absolute or traversing paths — is
//! [`PersistError::Corrupt`]. `docs/scaling.md` walks the operator-side
//! handling of each.

use crate::router::{DqdRouter, RoutingPolicy};
use crate::shard::{ShardPlan, ShardSketch, ShardedSketch};
use crate::sketch::{LeafModel, NeuroSketch};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use nn::QuantMode;
use query::aggregate::{Aggregate, MomentKind};
use spatial::kdtree::{FlatNode, FlatTreeError};
use spatial::KdTree;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// NSK2 container magic ("NSK2" little-endian).
pub const NSK2_MAGIC: u32 = 0x4E53_4B32;

/// The container version this build reads and writes; every other
/// version is [`PersistError::UnsupportedVersion`].
pub const NSK2_VERSION: u32 = 3;

/// Why a persisted sketch could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The buffer ended before the named section was complete.
    Truncated(&'static str),
    /// The first four bytes were not the NSK2 magic.
    BadMagic {
        /// The magic actually found.
        found: u32,
    },
    /// The container version is not the one this build reads.
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The kd-tree section failed structural validation.
    Tree(FlatTreeError),
    /// An embedded NSK1 model blob failed to decode.
    Model(String),
    /// A cross-section invariant was violated (model/leaf mismatch,
    /// non-finite scaler, wrong input dimensionality, ...).
    Corrupt(String),
    /// An NSKM manifest references a shard artifact that does not exist
    /// on disk.
    MissingShard {
        /// The manifest-relative path of the missing artifact.
        path: String,
    },
    /// An NSK2 container's trailing end-to-end checksum does
    /// not match its bytes (partial write, bit rot, or tampering) —
    /// detected before any section is parsed.
    TrailerMismatch {
        /// Checksum the trailer records.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// A shard artifact's bytes do not hash to the checksum its NSKM
    /// manifest recorded (partial write, bit rot, or a swapped file).
    ChecksumMismatch {
        /// The manifest-relative path of the damaged artifact.
        path: String,
        /// Checksum the manifest expects.
        expected: u64,
        /// Checksum of the bytes actually on disk.
        found: u64,
    },
    /// Reading or writing the backing file failed.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated(section) => write!(f, "truncated {section}"),
            PersistError::BadMagic { found } => {
                write!(f, "bad magic {found:#010x} (want {NSK2_MAGIC:#010x})")
            }
            PersistError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported NSK2 version {found} (this build reads {NSK2_VERSION})"
                )
            }
            PersistError::Tree(e) => write!(f, "corrupt kd-tree section: {e}"),
            PersistError::Model(e) => write!(f, "corrupt model blob: {e}"),
            PersistError::Corrupt(e) => write!(f, "corrupt container: {e}"),
            PersistError::MissingShard { path } => {
                write!(f, "missing shard artifact `{path}`")
            }
            PersistError::TrailerMismatch { expected, found } => write!(
                f,
                "NSK2 trailing checksum mismatch: trailer says {expected:#018x}, bytes hash to {found:#018x}"
            ),
            PersistError::ChecksumMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch on `{path}`: manifest says {expected:#018x}, file hashes to {found:#018x}"
            ),
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<FlatTreeError> for PersistError {
    fn from(e: FlatTreeError) -> Self {
        PersistError::Tree(e)
    }
}

/// A decoded NSK2 container: the sketch, plus the router metadata when
/// the artifact was saved from a [`DqdRouter`].
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The sketch, ready to answer queries.
    pub sketch: NeuroSketch,
    /// Per-partition AQCs + routing thresholds, if persisted.
    pub router: Option<RouterMeta>,
}

/// Router metadata persisted alongside a sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterMeta {
    /// AQC per partition, in the sketch's leaf order.
    pub leaf_aqcs: Vec<f64>,
    /// The routing thresholds the sketch was deployed with.
    pub policy: RoutingPolicy,
}

impl Artifact {
    /// Reassemble a [`DqdRouter`]. Without persisted router metadata the
    /// router is fully permissive (every query routes to the sketch).
    pub fn into_router(self) -> DqdRouter {
        match self.router {
            Some(meta) => DqdRouter::new(self.sketch, meta.leaf_aqcs, meta.policy),
            None => {
                let aqcs = vec![0.0; self.sketch.partitions()];
                DqdRouter::new(self.sketch, aqcs, RoutingPolicy::default())
            }
        }
    }
}

/// Exact byte size [`encode_sketch`] produces for this sketch, in its
/// carried [`NeuroSketch::quant_mode`] — the figure to compare against
/// [`NeuroSketch::storage_bytes`] (the paper's accounting) and the
/// capacity-planning primitive (`docs/scaling.md`): for another mode,
/// size `sketch.quantized_to(mode)`. Parameters dominate: the fixed
/// overhead is 25 bytes of header/trailer, 21 bytes per internal node,
/// 1 per leaf, and 29 bytes + the model-blob header per model.
pub fn encoded_len(sketch: &NeuroSketch) -> usize {
    let leaves = sketch.partitions();
    let internals = leaves.saturating_sub(1);
    let models: usize = sketch
        .models()
        .iter()
        .map(|m| 25 + nn::binary::encoded_len_with(&m.mlp, sketch.quant_mode()))
        .sum();
    12 + 4 + internals * 21 + leaves + 4 + models + 1 + 8
}

/// Encode a sketch (no router section) into an NSK2 container, in the
/// sketch's carried [`NeuroSketch::quant_mode`] —
/// [`NeuroSketch::BUILD_MODE`] for freshly built sketches, the
/// artifact's recorded mode for loaded ones (which is what makes load →
/// re-encode byte-idempotent for every mode). To store in another mode,
/// encode `sketch.quantized_to(mode)`.
pub fn encode_sketch(sketch: &NeuroSketch) -> Bytes {
    encode(sketch, None)
}

/// Encode a router — sketch + AQCs + policy — into an NSK2 container,
/// in the sketch's carried quant mode.
pub fn encode_router(router: &DqdRouter) -> Bytes {
    encode(
        router.sketch(),
        Some(&RouterMeta {
            leaf_aqcs: router.leaf_aqcs().to_vec(),
            policy: router.policy(),
        }),
    )
}

fn encode(sketch: &NeuroSketch, router: Option<&RouterMeta>) -> Bytes {
    let mode = sketch.quant_mode();
    let flat = sketch.tree().to_flat();
    let mut buf = BytesMut::with_capacity(
        encoded_len(sketch) + router.map_or(0, |m| 20 + 8 * m.leaf_aqcs.len()),
    );
    buf.put_u32_le(NSK2_MAGIC);
    buf.put_u32_le(NSK2_VERSION);
    buf.put_u32_le(sketch.query_dim() as u32);

    buf.put_u32_le(flat.len() as u32);
    for node in &flat {
        match *node {
            FlatNode::Internal {
                dim,
                val,
                left,
                right,
            } => {
                buf.put_u8(0);
                buf.put_u32_le(dim as u32);
                buf.put_f64_le(val);
                buf.put_u32_le(left as u32);
                buf.put_u32_le(right as u32);
            }
            FlatNode::Leaf => buf.put_u8(1),
        }
    }

    // The k-th leaf of the arena tree (leaf order) is the k-th Leaf slot
    // of the preorder flat table: both walks are depth-first, left child
    // first. Models are written in that shared order.
    let flat_leaves: Vec<usize> = flat
        .iter()
        .enumerate()
        .filter_map(|(i, n)| matches!(n, FlatNode::Leaf).then_some(i))
        .collect();
    debug_assert_eq!(flat_leaves.len(), sketch.models().len());
    buf.put_u32_le(flat_leaves.len() as u32);
    for (&flat_leaf, model) in flat_leaves.iter().zip(sketch.models()) {
        buf.put_u32_le(flat_leaf as u32);
        buf.put_f64_le(model.y_mean);
        buf.put_f64_le(model.y_std);
        buf.put_u8(mode.tag());
        let blob = nn::binary::encode_with(&model.mlp, mode);
        buf.put_u32_le(blob.len() as u32);
        buf.put_slice(&blob);
    }

    match router {
        None => buf.put_u8(0),
        Some(meta) => {
            buf.put_u8(1);
            buf.put_f64_le(meta.policy.min_range_volume);
            buf.put_f64_le(meta.policy.max_leaf_aqc);
            buf.put_u32_le(meta.leaf_aqcs.len() as u32);
            for &a in &meta.leaf_aqcs {
                buf.put_f64_le(a);
            }
        }
    }
    // End-to-end trailer: FNV-1a over every byte written so far, NSKM
    // parity for single artifacts.
    let checksum = artifact_checksum(buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Decode an NSK2 container produced by [`encode_sketch`] /
/// [`encode_router`].
pub fn decode(mut data: Bytes) -> Result<Artifact, PersistError> {
    if data.remaining() < 12 {
        return Err(PersistError::Truncated("header"));
    }
    let magic = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
    if magic != NSK2_MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != NSK2_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    // Verify the end-to-end trailer before parsing anything: a flipped
    // bit anywhere in the container must surface as the integrity
    // error, not as whatever section-level symptom it happens to cause
    // (or worse, a silently-wrong weight).
    if data.remaining() < 12 + 8 {
        return Err(PersistError::Truncated("checksum trailer"));
    }
    let body = data.remaining() - 8;
    let expected = u64::from_le_bytes(data[body..].try_into().expect("8 bytes"));
    let found = artifact_checksum(&data[..body]);
    if found != expected {
        return Err(PersistError::TrailerMismatch { expected, found });
    }
    data = data.split_to(body);
    data.advance(8); // magic + version, validated above
    let query_dim = data.get_u32_le() as usize;

    // kd-tree section.
    if data.remaining() < 4 {
        return Err(PersistError::Truncated("kd-tree section"));
    }
    let node_count = data.get_u32_le() as usize;
    // Each node costs at least 1 byte; an implausible count is caught
    // before any allocation is sized by it.
    if node_count == 0 || node_count > data.remaining() {
        return Err(PersistError::Corrupt(format!(
            "implausible node count {node_count}"
        )));
    }
    let mut flat = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        if data.remaining() < 1 {
            return Err(PersistError::Truncated("kd-tree section"));
        }
        match data.get_u8() {
            0 => {
                if data.remaining() < 20 {
                    return Err(PersistError::Truncated("kd-tree section"));
                }
                let dim = data.get_u32_le() as usize;
                let val = data.get_f64_le();
                let left = data.get_u32_le() as usize;
                let right = data.get_u32_le() as usize;
                flat.push(FlatNode::Internal {
                    dim,
                    val,
                    left,
                    right,
                });
            }
            1 => flat.push(FlatNode::Leaf),
            t => {
                return Err(PersistError::Corrupt(format!("unknown node tag {t}")));
            }
        }
    }
    let tree = KdTree::from_flat(&flat, query_dim)?;
    let leaves = tree.leaf_ids();

    // Model section.
    if data.remaining() < 4 {
        return Err(PersistError::Truncated("model section"));
    }
    let model_count = data.get_u32_le() as usize;
    if model_count != leaves.len() {
        return Err(PersistError::Corrupt(format!(
            "{model_count} models for {} leaves",
            leaves.len()
        )));
    }
    let mut container_mode: Option<QuantMode> = None;
    let mut models = BTreeMap::new();
    for _ in 0..model_count {
        // leaf + y_mean + y_std + quant + blob_len
        if data.remaining() < 25 {
            return Err(PersistError::Truncated("model section"));
        }
        let leaf = data.get_u32_le() as usize;
        let y_mean = data.get_f64_le();
        let y_std = data.get_f64_le();
        if !y_mean.is_finite() || !y_std.is_finite() || y_std <= 0.0 {
            return Err(PersistError::Corrupt(format!(
                "implausible output scaler (mean {y_mean}, std {y_std})"
            )));
        }
        // from_flat keeps flat indices as node ids, so the stored index
        // addresses the rebuilt arena directly; leaf_ids() of a preorder
        // table is ascending, so membership is a binary search.
        if leaves.binary_search(&leaf).is_err() {
            return Err(PersistError::Corrupt(format!(
                "model attached to non-leaf node {leaf}"
            )));
        }
        let tag = data.get_u8();
        let mode = QuantMode::from_tag(tag)
            .ok_or_else(|| PersistError::Corrupt(format!("unknown quant mode tag {tag}")))?;
        // The save API writes one mode for the whole container; a mixed
        // container could not re-encode byte-idempotently, so it is
        // structural corruption, not a feature.
        if *container_mode.get_or_insert(mode) != mode {
            return Err(PersistError::Corrupt(format!(
                "mixed quant modes in one container ({} then {})",
                container_mode.expect("just inserted").name(),
                mode.name()
            )));
        }
        let blob_len = data.get_u32_le() as usize;
        if data.remaining() < blob_len {
            return Err(PersistError::Truncated("model blob"));
        }
        let blob = data.split_to(blob_len);
        let (mlp, blob_mode) =
            nn::binary::decode_any(blob).map_err(|e| PersistError::Model(e.to_string()))?;
        if blob_mode != mode {
            return Err(PersistError::Corrupt(format!(
                "model blob stored as {} but the record declares {}",
                blob_mode.name(),
                mode.name()
            )));
        }
        if mlp.input_dim() != query_dim || mlp.output_dim() != 1 {
            return Err(PersistError::Corrupt(format!(
                "model shape {}→{} does not fit a {query_dim}-dim sketch",
                mlp.input_dim(),
                mlp.output_dim()
            )));
        }
        if models
            .insert(leaf, LeafModel::new(mlp, y_mean, y_std))
            .is_some()
        {
            return Err(PersistError::Corrupt(format!("two models for leaf {leaf}")));
        }
    }

    // Router section.
    if data.remaining() < 1 {
        return Err(PersistError::Truncated("router section"));
    }
    let router = match data.get_u8() {
        0 => None,
        1 => {
            if data.remaining() < 20 {
                return Err(PersistError::Truncated("router section"));
            }
            let min_range_volume = data.get_f64_le();
            let max_leaf_aqc = data.get_f64_le();
            // `+inf` is legitimate (the default "rule disabled" policy
            // and unboundedly hard leaves), but NaN would make the
            // router's threshold comparisons silently always-false.
            if min_range_volume.is_nan() || max_leaf_aqc.is_nan() {
                return Err(PersistError::Corrupt("NaN routing threshold".to_string()));
            }
            let aqc_count = data.get_u32_le() as usize;
            if aqc_count != leaves.len() {
                return Err(PersistError::Corrupt(format!(
                    "{aqc_count} AQCs for {} leaves",
                    leaves.len()
                )));
            }
            if data.remaining() < aqc_count * 8 {
                return Err(PersistError::Truncated("router section"));
            }
            let leaf_aqcs: Vec<f64> = (0..aqc_count).map(|_| data.get_f64_le()).collect();
            if leaf_aqcs.iter().any(|a| a.is_nan()) {
                return Err(PersistError::Corrupt("NaN leaf AQC".to_string()));
            }
            Some(RouterMeta {
                leaf_aqcs,
                policy: RoutingPolicy {
                    min_range_volume,
                    max_leaf_aqc,
                },
            })
        }
        t => {
            return Err(PersistError::Corrupt(format!("unknown router tag {t}")));
        }
    };

    // A well-formed container ends exactly here; trailing bytes mean a
    // concatenated/partially-overwritten artifact and must not be
    // silently ignored (re-encoding would not reproduce the input).
    if data.remaining() != 0 {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after the router section",
            data.remaining()
        )));
    }

    Ok(Artifact {
        // One model per leaf, no duplicates (checked above): the map
        // holds exactly the leaves, and ascending flat index is leaf
        // order for a preorder table.
        sketch: NeuroSketch::from_parts(
            tree,
            models.into_values().collect(),
            query_dim,
            container_mode.unwrap_or(QuantMode::F32),
        ),
        router,
    })
}

/// Write a router (sketch + AQCs + policy) to `path` in NSK2 form, in
/// its sketch's carried quant mode.
pub fn save_router(path: impl AsRef<Path>, router: &DqdRouter) -> Result<(), PersistError> {
    std::fs::write(path, encode_router(router)).map_err(|e| PersistError::Io(e.to_string()))
}

/// Read an NSK2 container from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<Artifact, PersistError> {
    let raw = std::fs::read(path).map_err(|e| PersistError::Io(e.to_string()))?;
    decode(Bytes::from(raw))
}

// ---------------------------------------------------------------------
// NSKM: the sharded-deployment manifest.
// ---------------------------------------------------------------------

/// NSKM manifest magic ("NSKM" little-endian).
pub const NSKM_MAGIC: u32 = 0x4D4B_534E;

/// The manifest version this build reads and writes; every other
/// version is [`PersistError::UnsupportedVersion`]. Version 3 is where
/// an AVG or STD shard's Σ / Σ² slots came to hold per-row means
/// ([`crate::shard::mean_slots`]); a version-2 manifest's slots hold
/// raw sums, so reading one would answer wrongly without a sign.
pub const NSKM_VERSION: u32 = 3;

/// FNV-1a 64-bit hash of an artifact's bytes — the checksum the NSKM
/// manifest records per shard artifact (the workspace-shared
/// [`query::exec::fnv1a_64`]). Not cryptographic: it detects
/// truncation, bit rot and file swaps, which is the integrity model a
/// trusted deployment directory needs.
pub fn artifact_checksum(bytes: &[u8]) -> u64 {
    query::exec::fnv1a_64(bytes.iter().copied())
}

/// One shard artifact the manifest references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardArtifactRef {
    /// Moment component the artifact's sketch predicts.
    pub kind: MomentKind,
    /// Path relative to the manifest file.
    pub path: String,
    /// [`artifact_checksum`] of the artifact's bytes.
    pub checksum: u64,
}

/// A decoded NSKM manifest: everything needed to reassemble a sharded
/// deployment from its per-shard NSK2 artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The aggregate the deployment serves.
    pub aggregate: Aggregate,
    /// The row-assignment plan.
    pub plan: ShardPlan,
    /// Deployment generation: 0 for a fresh [`save_sharded`], bumped by
    /// one per [`save_refreshed`].
    pub generation: u64,
    /// Per shard (in shard order), the artifact references in moment
    /// slot order.
    pub shards: Vec<Vec<ShardArtifactRef>>,
}

/// Encode a manifest into NSKM bytes. Fails (typed, no truncation) if
/// an artifact path exceeds the format's `u16` length field.
pub fn encode_manifest(manifest: &ShardManifest) -> Result<Bytes, PersistError> {
    let mut buf = BytesMut::with_capacity(64 + 64 * manifest.shards.len());
    buf.put_u32_le(NSKM_MAGIC);
    buf.put_u32_le(NSKM_VERSION);
    buf.put_u64_le(manifest.generation);
    // build_sharded refuses MEDIAN, but ShardManifest is plain public
    // data — a hand-built one must get the typed error the module
    // contract promises, not a panic.
    if manifest.aggregate.required_moments().is_none() {
        return Err(PersistError::Corrupt(format!(
            "{} is not moment-composable and has no NSKM encoding",
            manifest.aggregate.name()
        )));
    }
    buf.put_u8(manifest.aggregate.tag());
    // Same uniform hardening as the path length below: counts that do
    // not fit the format's fields are a typed refusal, never a
    // silently-truncating cast.
    let as_u32 = |n: usize, what: &str| -> Result<u32, PersistError> {
        n.try_into().map_err(|_| {
            PersistError::Corrupt(format!("{what} {n} exceeds the format's u32 field"))
        })
    };
    match manifest.plan {
        ShardPlan::RoundRobin { shards } => {
            buf.put_u8(0);
            buf.put_u32_le(as_u32(shards, "plan shard count")?);
        }
        ShardPlan::Blocks { shards } => {
            buf.put_u8(1);
            buf.put_u32_le(as_u32(shards, "plan shard count")?);
        }
        ShardPlan::Hash { shards, seed } => {
            buf.put_u8(2);
            buf.put_u32_le(as_u32(shards, "plan shard count")?);
            buf.put_u64_le(seed);
        }
    }
    // The same consistency decode enforces: catching a malformed
    // hand-built manifest here keeps the error at encode time, not on
    // the deployed artifact at load time.
    if manifest.shards.len() != manifest.plan.shards() {
        return Err(PersistError::Corrupt(format!(
            "manifest lists {} shards but the plan has {}",
            manifest.shards.len(),
            manifest.plan.shards()
        )));
    }
    buf.put_u32_le(as_u32(manifest.shards.len(), "manifest shard count")?);
    for shard in &manifest.shards {
        for kind in MomentKind::ALL {
            match shard.iter().find(|a| a.kind == kind) {
                None => buf.put_u8(0),
                Some(a) => {
                    let len: u16 = a.path.len().try_into().map_err(|_| {
                        PersistError::Corrupt(format!(
                            "artifact path of {} bytes exceeds the format's u16 length field",
                            a.path.len()
                        ))
                    })?;
                    buf.put_u8(1);
                    buf.put_u64_le(a.checksum);
                    buf.put_u16_le(len);
                    buf.put_slice(a.path.as_bytes());
                }
            }
        }
    }
    Ok(buf.freeze())
}

/// Decode and structurally validate an NSKM manifest produced by
/// [`encode_manifest`]. Artifact files are *not* touched here —
/// existence and checksums are verified by [`load_sharded`].
pub fn decode_manifest(mut data: Bytes) -> Result<ShardManifest, PersistError> {
    if data.remaining() < 8 {
        return Err(PersistError::Truncated("manifest header"));
    }
    let magic = data.get_u32_le();
    if magic != NSKM_MAGIC {
        return Err(PersistError::BadMagic { found: magic });
    }
    let version = data.get_u32_le();
    if version != NSKM_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version });
    }
    if data.remaining() < 8 {
        return Err(PersistError::Truncated("manifest generation"));
    }
    let generation = data.get_u64_le();
    if data.remaining() < 6 {
        return Err(PersistError::Truncated("manifest plan"));
    }
    let agg_tag = data.get_u8();
    let aggregate = Aggregate::from_tag(agg_tag)
        .ok_or_else(|| PersistError::Corrupt(format!("unknown aggregate tag {agg_tag}")))?;
    let required = aggregate.required_moments().ok_or_else(|| {
        PersistError::Corrupt(format!("{} has no NSKM encoding", aggregate.name()))
    })?;
    let plan_tag = data.get_u8();
    let shards = data.get_u32_le() as usize;
    let plan = match plan_tag {
        0 => ShardPlan::RoundRobin { shards },
        1 => ShardPlan::Blocks { shards },
        2 => {
            if data.remaining() < 8 {
                return Err(PersistError::Truncated("manifest plan"));
            }
            ShardPlan::Hash {
                shards,
                seed: data.get_u64_le(),
            }
        }
        t => {
            return Err(PersistError::Corrupt(format!("unknown plan tag {t}")));
        }
    };
    if shards == 0 {
        return Err(PersistError::Corrupt("plan with zero shards".to_string()));
    }
    if data.remaining() < 4 {
        return Err(PersistError::Truncated("manifest shard table"));
    }
    let shard_count = data.get_u32_le() as usize;
    if shard_count != shards {
        return Err(PersistError::Corrupt(format!(
            "manifest lists {shard_count} shards but the plan has {shards}"
        )));
    }
    // Each shard costs at least 3 presence bytes; an implausible count
    // is caught before any allocation is sized by it (mirrors the NSK2
    // node-count guard).
    if shard_count * MomentKind::ALL.len() > data.remaining() {
        return Err(PersistError::Corrupt(format!(
            "implausible shard count {shard_count}"
        )));
    }
    let mut table = Vec::with_capacity(shard_count);
    for shard_idx in 0..shard_count {
        let mut artifacts = Vec::with_capacity(required.len());
        for kind in MomentKind::ALL {
            if data.remaining() < 1 {
                return Err(PersistError::Truncated("manifest shard table"));
            }
            match data.get_u8() {
                0 => {}
                1 => {
                    if data.remaining() < 10 {
                        return Err(PersistError::Truncated("manifest artifact entry"));
                    }
                    let checksum = data.get_u64_le();
                    let path_len = data.get_u16_le() as usize;
                    if data.remaining() < path_len {
                        return Err(PersistError::Truncated("manifest artifact path"));
                    }
                    let raw = data.split_to(path_len);
                    let path = std::str::from_utf8(&raw)
                        .map_err(|_| {
                            PersistError::Corrupt("artifact path is not utf-8".to_string())
                        })?
                        .to_string();
                    // Paths are manifest-relative by contract; an
                    // absolute or parent-escaping path would let a
                    // tampered manifest read outside its directory.
                    // Backslashes and colons are rejected outright so
                    // Windows-style escapes (`..\\x`, `C:\\x`) cannot
                    // slip past the '/'-based checks; save_sharded only
                    // ever writes flat `shard-NNN.<component>.nsk2`
                    // names, so no legitimate manifest loses anything.
                    if path.is_empty()
                        || path.starts_with('/')
                        || path.contains('\\')
                        || path.contains(':')
                        || path.split('/').any(|seg| seg == "..")
                    {
                        return Err(PersistError::Corrupt(format!(
                            "implausible artifact path `{path}`"
                        )));
                    }
                    artifacts.push(ShardArtifactRef {
                        kind,
                        path,
                        checksum,
                    });
                }
                t => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown artifact presence tag {t}"
                    )));
                }
            }
        }
        let present: Vec<MomentKind> = artifacts.iter().map(|a| a.kind).collect();
        if present != required {
            return Err(PersistError::Corrupt(format!(
                "shard {shard_idx} stores components {present:?} but {} needs {required:?}",
                aggregate.name()
            )));
        }
        table.push(artifacts);
    }
    if data.remaining() != 0 {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after the manifest shard table",
            data.remaining()
        )));
    }
    Ok(ShardManifest {
        aggregate,
        plan,
        generation,
        shards: table,
    })
}

/// File name of one shard's component artifact inside a deployment
/// directory: `shard-NNN.<component>.nsk2`.
pub fn shard_artifact_name(shard: usize, kind: MomentKind) -> String {
    format!("shard-{shard:03}.{}.nsk2", kind.name())
}

/// Generation-qualified artifact name: generation 0 keeps the plain
/// [`shard_artifact_name`]; later generations append `.gG` before the
/// extension (`shard-NNN.<component>.gG.nsk2`), so a refresh never
/// writes over a byte the previous generation's manifest checksums.
pub fn shard_artifact_name_gen(shard: usize, kind: MomentKind, generation: u64) -> String {
    if generation == 0 {
        shard_artifact_name(shard, kind)
    } else {
        format!("shard-{shard:03}.{}.g{generation}.nsk2", kind.name())
    }
}

/// File name of the manifest inside a deployment directory.
pub const MANIFEST_NAME: &str = "manifest.nskm";

/// Write a sharded deployment into `dir` as one loadable unit: every
/// component sketch as an NSK2 artifact plus the NSKM manifest tying
/// them together. Returns the manifest path (hand it to
/// [`load_sharded`]).
pub fn save_sharded(
    dir: impl AsRef<Path>,
    sketch: &ShardedSketch,
) -> Result<PathBuf, PersistError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| PersistError::Io(e.to_string()))?;
    let table = sketch
        .shards()
        .iter()
        .enumerate()
        .map(|(shard_idx, shard)| write_shard_artifacts(dir, shard_idx, shard, 0))
        .collect::<Result<_, _>>()?;
    let manifest = ShardManifest {
        aggregate: sketch.aggregate(),
        plan: sketch.plan(),
        generation: 0,
        shards: table,
    };
    // Artifacts first, manifest last. Note the fresh-save path writes
    // artifacts under fixed generation-0 names, so re-running it into a
    // live deployment directory overwrites bytes the old manifest
    // checksums — save each *initial* build into its own directory.
    // In-place evolution of a live directory is what [`save_refreshed`]
    // (generation-suffixed names) is for.
    land_manifest(dir, &manifest)
}

/// Land a **partial refresh** of an on-disk sharded deployment: write
/// fresh NSK2 artifacts only for the shards in `replaced` (taken from
/// `sketch`, which holds the refreshed deployment), reuse the existing
/// manifest's entries verbatim for every other shard, and land a new
/// manifest with the generation bumped by one. Returns the manifest
/// path.
///
/// Atomicity: replaced shards' artifacts are written under
/// generation-suffixed names ([`shard_artifact_name_gen`]) and fsynced
/// *before* the manifest lands by the same write-fsync-rename dance as
/// [`save_sharded`] — no byte of generation `G` is ever overwritten. A
/// refresh torn anywhere before the rename leaves the gen-`G` manifest
/// pointing at intact gen-`G` artifacts; after the rename every load
/// sees `G + 1`. Superseded artifacts are *not* deleted (a serving
/// process may still be draining batches on `G`): garbage-collect them
/// once the swap is confirmed, as `docs/maintenance.md` describes.
///
/// Errors: a manifest whose plan or aggregate disagrees with `sketch`,
/// a `replaced` index out of range, an *untouched* shard whose
/// in-memory models do not checksum-match the artifacts the old
/// manifest would be reused for (the caller's deployment disagrees
/// with the directory — pass the shard in `replaced` or reload before
/// refreshing), and every I/O or decode failure the manifest round
/// trip can produce.
pub fn save_refreshed(
    manifest_path: impl AsRef<Path>,
    sketch: &ShardedSketch,
    replaced: &[usize],
) -> Result<PathBuf, PersistError> {
    let manifest_path = manifest_path.as_ref();
    let old = read_manifest(manifest_path)?;
    if old.plan != sketch.plan() || old.aggregate != sketch.aggregate() {
        return Err(PersistError::Corrupt(format!(
            "refresh of a {:?}/{} deployment with a {:?}/{} sketch",
            old.plan,
            old.aggregate.name(),
            sketch.plan(),
            sketch.aggregate().name()
        )));
    }
    if old.shards.len() != sketch.shard_count() {
        return Err(PersistError::Corrupt(format!(
            "manifest lists {} shards but the sketch has {}",
            old.shards.len(),
            sketch.shard_count()
        )));
    }
    let generation = old
        .generation
        .checked_add(1)
        .ok_or_else(|| PersistError::Corrupt("generation counter overflowed u64".to_string()))?;
    // Before touching the disk: every shard the caller claims is
    // untouched must actually encode to the artifacts whose manifest
    // entries are about to be reused. Without this, a caller holding a
    // deployment that diverged from the directory (rebuilt in memory,
    // wrong directory, ...) would land a manifest that silently
    // disagrees with what they think they saved. Encoding is CPU-only
    // (no reads), and encode-after-quantize is byte-idempotent, so a
    // loaded-then-refreshed deployment always passes. Deliberate cost:
    // this serializes every untouched shard's models — linear in
    // deployment size, milliseconds of memcpy-and-cast per refresh —
    // which is noise next to retraining even one shard; what partial
    // refresh avoids is the *retraining*, and that stays O(stale).
    for (idx, artifacts) in old.shards.iter().enumerate() {
        if replaced.contains(&idx) {
            continue;
        }
        let shard = &sketch.shards()[idx];
        for a in artifacts {
            let matches = shard
                .model(a.kind)
                .is_some_and(|m| artifact_checksum(&encode_sketch(m)) == a.checksum);
            if !matches {
                return Err(PersistError::Corrupt(format!(
                    "shard {idx} is not listed as replaced but its in-memory {} model does not \
                     match the on-disk artifact `{}` — pass it in `replaced`, or reload the \
                     deployment from this manifest before refreshing",
                    a.kind.name(),
                    a.path
                )));
            }
        }
    }
    let dir = manifest_dir(manifest_path);
    let mut table = old.shards;
    for &idx in replaced {
        let Some(shard) = sketch.shards().get(idx) else {
            return Err(PersistError::Corrupt(format!(
                "replaced shard {idx} out of range for {} shards",
                sketch.shard_count()
            )));
        };
        table[idx] = write_shard_artifacts(dir, idx, shard, generation)?;
    }
    let manifest = ShardManifest {
        aggregate: old.aggregate,
        plan: old.plan,
        generation,
        shards: table,
    };
    land_manifest(dir, &manifest)
}

/// Encode, write, fsync and checksum every component model of one shard
/// into `dir` under generation `generation`'s names
/// ([`shard_artifact_name_gen`]), returning the manifest entries that
/// reference them. The one artifact-writing loop under [`save_sharded`]
/// (every shard, generation 0) and [`save_refreshed`] (the replaced
/// shards, the bumped generation).
fn write_shard_artifacts(
    dir: &Path,
    shard_idx: usize,
    shard: &ShardSketch,
    generation: u64,
) -> Result<Vec<ShardArtifactRef>, PersistError> {
    let mut artifacts = Vec::new();
    for kind in MomentKind::ALL {
        let Some(model) = shard.model(kind) else {
            continue;
        };
        let bytes = encode_sketch(model);
        let name = shard_artifact_name_gen(shard_idx, kind, generation);
        write_synced(&dir.join(&name), &bytes)?;
        artifacts.push(ShardArtifactRef {
            kind,
            path: name,
            checksum: artifact_checksum(&bytes),
        });
    }
    Ok(artifacts)
}

/// Write `manifest` into `dir` as `manifest.nskm`, fsynced via a
/// same-directory rename so a crash mid-save never leaves a truncated
/// or half-old manifest. Shared tail of [`save_sharded`] and
/// [`save_refreshed`].
fn land_manifest(dir: &Path, manifest: &ShardManifest) -> Result<PathBuf, PersistError> {
    let path = dir.join(MANIFEST_NAME);
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
    write_synced(&tmp, &encode_manifest(manifest)?)?;
    std::fs::rename(&tmp, &path).map_err(|e| PersistError::Io(e.to_string()))?;
    // Make the rename itself durable where the platform allows opening
    // a directory handle (POSIX); elsewhere the data is still synced
    // and a torn save remains typed-detectable at load. Failures
    // propagate like every other I/O error here — a silently skipped
    // sync would quietly downgrade the durability contract.
    #[cfg(unix)]
    {
        let d = std::fs::File::open(dir).map_err(|e| PersistError::Io(e.to_string()))?;
        d.sync_all().map_err(|e| PersistError::Io(e.to_string()))?;
    }
    Ok(path)
}

/// Write bytes and fsync before returning: every artifact must be
/// durable before the manifest that checksums it lands, or a power loss
/// could persist the fsynced manifest while artifact data blocks are
/// still unflushed — a durable manifest over truncated shards.
fn write_synced(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    use std::io::Write;
    let mut f = std::fs::File::create(path).map_err(|e| PersistError::Io(e.to_string()))?;
    f.write_all(bytes)
        .map_err(|e| PersistError::Io(e.to_string()))?;
    f.sync_all().map_err(|e| PersistError::Io(e.to_string()))?;
    Ok(())
}

/// Read and decode the NSKM manifest at `manifest_path` — the one place
/// a manifest file becomes a [`ShardManifest`]. Every operation here and
/// in [`crate::cluster`] reads its manifest through this **once** and
/// resolves everything else (generation, plan, artifact names) against
/// that value, so a [`save_refreshed`] landing concurrently can never
/// make one operation see two generations.
pub fn read_manifest(manifest_path: impl AsRef<Path>) -> Result<ShardManifest, PersistError> {
    let raw = std::fs::read(manifest_path).map_err(|e| PersistError::Io(e.to_string()))?;
    decode_manifest(Bytes::from(raw))
}

/// The directory a manifest's relative artifact paths resolve against.
fn manifest_dir(manifest_path: &Path) -> &Path {
    manifest_path.parent().unwrap_or(Path::new("."))
}

/// Load a sharded deployment from its NSKM manifest: decode and
/// validate the manifest, then read every referenced artifact
/// (manifest-relative), verify its checksum, and decode it. The result
/// answers bitwise identically to
/// [`ShardedSketch::quantized`][crate::shard::ShardedSketch::quantized]
/// of the deployment that was saved.
pub fn load_sharded(manifest_path: impl AsRef<Path>) -> Result<ShardedSketch, PersistError> {
    load_sharded_with_manifest(manifest_path).map(|(sketch, _)| sketch)
}

/// [`load_sharded`], also returning the decoded manifest the artifacts
/// were resolved against ([`read_manifest`]'s one-read contract), so the
/// (deployment, generation) pair is guaranteed consistent — the property
/// [`crate::deploy::LiveDeployment::reload_sharded`] relies on to
/// report the generation it actually serves.
pub fn load_sharded_with_manifest(
    manifest_path: impl AsRef<Path>,
) -> Result<(ShardedSketch, ShardManifest), PersistError> {
    let manifest_path = manifest_path.as_ref();
    let manifest = read_manifest(manifest_path)?;
    let dir = manifest_dir(manifest_path);
    let mut shards = Vec::with_capacity(manifest.shards.len());
    let mut query_dim: Option<usize> = None;
    for artifacts in &manifest.shards {
        shards.push(load_shard_models(dir, artifacts, &mut query_dim)?);
    }
    let sketch = ShardedSketch::from_parts(manifest.plan, manifest.aggregate, shards);
    Ok((sketch, manifest))
}

/// Load **one** shard of a manifested deployment: read,
/// checksum-verify and decode only shard `shard`'s artifacts, as listed
/// by the already-decoded `manifest` that [`read_manifest`] returned for
/// `manifest_path`. The shard therefore belongs to
/// `manifest.generation` whatever has landed on disk since (a refresh
/// never overwrites a generation's artifacts). This is the per-replica
/// loading unit [`crate::cluster`]'s rolling upgrades use — a cluster of
/// `K × N` replicas never has to read `K × N × K` artifacts to bring
/// one replica to a new generation.
pub fn load_shard(
    manifest: &ShardManifest,
    manifest_path: impl AsRef<Path>,
    shard: usize,
) -> Result<ShardSketch, PersistError> {
    let Some(artifacts) = manifest.shards.get(shard) else {
        return Err(PersistError::Corrupt(format!(
            "shard {shard} out of range for a {}-shard manifest",
            manifest.shards.len()
        )));
    };
    load_shard_models(manifest_dir(manifest_path.as_ref()), artifacts, &mut None)
}

/// Read, checksum-verify and decode one shard's artifact set — the
/// per-shard unit shared by [`load_sharded_with_manifest`] (which
/// threads `query_dim` across shards to enforce cross-shard dimension
/// agreement) and [`load_shard`].
fn load_shard_models(
    dir: &Path,
    artifacts: &[ShardArtifactRef],
    query_dim: &mut Option<usize>,
) -> Result<ShardSketch, PersistError> {
    let mut models: [Option<NeuroSketch>; 3] = [None, None, None];
    for a in artifacts {
        let path = dir.join(&a.path);
        // Read first and classify by error kind — an exists()
        // pre-check would race with concurrent deletion and
        // misreport unreadable-but-present files as missing.
        let bytes = std::fs::read(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                PersistError::MissingShard {
                    path: a.path.clone(),
                }
            } else {
                PersistError::Io(e.to_string())
            }
        })?;
        let found = artifact_checksum(&bytes);
        if found != a.checksum {
            return Err(PersistError::ChecksumMismatch {
                path: a.path.clone(),
                expected: a.checksum,
                found,
            });
        }
        let artifact = decode(Bytes::from(bytes))?;
        let dim = artifact.sketch.query_dim();
        if *query_dim.get_or_insert(dim) != dim {
            return Err(PersistError::Corrupt(format!(
                "shard artifact `{}` expects {dim}-dim queries, others disagree",
                a.path
            )));
        }
        models[a.kind.slot()] = Some(artifact.sketch);
    }
    Ok(ShardSketch::from_models(models))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::NeuroSketchConfig;

    fn trained_sketch() -> (NeuroSketch, Vec<f64>) {
        let qs: Vec<Vec<f64>> = (0..240)
            .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
            .collect();
        let labels: Vec<f64> = qs.iter().map(|q| 40.0 * q[0] + 11.0 * q[1]).collect();
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 3;
        cfg.target_partitions = 5;
        cfg.train.epochs = 15;
        let (s, r) = NeuroSketch::build_from_labeled(&qs, &labels, &cfg).unwrap();
        (s, r.leaf_aqcs)
    }

    /// Recompute a v3 blob's trailing checksum after test corruption of
    /// its body, so the corruption under test — not the trailer — is
    /// what the decoder trips on.
    fn patch_trailer(blob: &mut [u8]) {
        let body = blob.len() - 8;
        let c = artifact_checksum(&blob[..body]);
        blob[body..].copy_from_slice(&c.to_le_bytes());
    }

    /// A two-leaf sketch written out by hand — no training, so its bytes
    /// are the same on every build (FMA or not).
    fn hand_built_router() -> DqdRouter {
        use nn::mlp::Dense;
        use nn::{Activation, Matrix, Mlp};
        let tree = KdTree::from_flat(
            &[
                FlatNode::Internal {
                    dim: 1,
                    val: 0.375,
                    left: 1,
                    right: 2,
                },
                FlatNode::Leaf,
                FlatNode::Leaf,
            ],
            2,
        )
        .unwrap();
        let mlp = |w0: [f64; 4], b0: [f64; 2], w1: [f64; 2], b1: f64| {
            Mlp::from_layers(vec![
                Dense {
                    weights: Matrix::from_vec(2, 2, w0.to_vec()),
                    biases: b0.to_vec(),
                    activation: Activation::Relu,
                },
                Dense {
                    weights: Matrix::from_vec(1, 2, w1.to_vec()),
                    biases: vec![b1],
                    activation: Activation::Identity,
                },
            ])
            .unwrap()
        };
        let models = vec![
            LeafModel::new(
                mlp([0.5, -1.25, 0.1, 3.0], [0.0, -0.7], [2.0, -0.333], 0.25),
                12.5,
                3.75,
            ),
            LeafModel::new(
                mlp([-0.8, 0.015625, 1e-3, 0.6], [1.5, 0.2], [-0.45, 1.0], -2.0),
                -4.0,
                0.5,
            ),
        ];
        DqdRouter::new(
            NeuroSketch::from_parts(tree, models, 2, QuantMode::F32),
            vec![0.125, 7.5],
            RoutingPolicy {
                min_range_volume: 0.015,
                max_leaf_aqc: 42.5,
            },
        )
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// The NSK2 / NSKM counterpart of the wire's frozen-bytes test:
    /// deployed artifacts are these bytes, so no edit may move one
    /// without a new format version.
    #[test]
    fn artifact_bytes_of_every_mode_and_the_manifest_are_frozen() {
        let router = hand_built_router();
        for (mode, hex) in [
            (
                QuantMode::F32,
                "324b534e 03000000 02000000 03000000 00010000 00000000 000000d8 3f010000 \
                 00020000 00010102 00000001 00000000 00000000 00294000 00000000 000e4000 \
                 3e000000 314b534e 02000000 02000000 02000000 00010000 00020000 00010000 \
                 003f0000 a0bfcdcc cc3d0000 40400000 00003333 33bf0000 0040fa7e aabe0000 \
                 803e0200 00000000 00000000 10c00000 00000000 e03f003e 00000031 4b534e02 \
                 00000002 00000002 00000000 01000000 02000000 01cdcc4c bf000080 3c6f1283 \
                 3a9a9919 3f0000c0 3fcdcc4c 3e6666e6 be000080 3f000000 c001b81e 85eb51b8 \
                 8e3f0000 00000040 45400200 00000000 00000000 c03f0000 00000000 1e40628f \
                 1033bb5d 5fe8",
            ),
            (
                QuantMode::F16,
                "324b534e 03000000 02000000 03000000 00010000 00000000 000000d8 3f010000 \
                 00020000 00010102 00000001 00000000 00000000 00294000 00000000 000e4001 \
                 2c000000 664b534e 02000000 02000000 02000000 00010000 00020000 00010038 \
                 00bd662e 00420000 9ab90040 54b50034 02000000 00000000 000010c0 00000000 \
                 0000e03f 012c0000 00664b53 4e020000 00020000 00020000 00000100 00000200 \
                 00000166 ba002419 14cd3800 3e663233 b7003c00 c001b81e 85eb51b8 8e3f0000 \
                 00000040 45400200 00000000 00000000 c03f0000 00000000 1e40eb08 8cad7e6b \
                 12a5",
            ),
            (
                QuantMode::I8,
                "324b534e 03000000 02000000 03000000 00010000 00000000 000000d8 3f010000 \
                 00020000 00010102 00000001 00000000 00000000 00294000 00000000 000e4002 \
                 33000000 714b534e 02000000 02000000 02000000 00010000 00020000 00010000 \
                 003d10d8 03600000 003c00a6 0000003d 40f50000 803b4002 00000000 00000000 \
                 0010c000 00000000 00e03f02 33000000 714b534e 02000000 02000000 02000000 \
                 00010000 00020000 00010000 003c9a02 004d0000 803c600d 0000803c e3400000 \
                 003dc001 b81e85eb 51b88e3f 00000000 00404540 02000000 00000000 0000c03f \
                 00000000 00001e40 6bf2edcb 5c80fd75",
            ),
        ] {
            let golden = unhex(hex);
            let stored = DqdRouter::new(
                router.sketch().quantized_to(mode),
                router.leaf_aqcs().to_vec(),
                router.policy(),
            );
            assert_eq!(&encode_router(&stored)[..], &golden[..], "{mode:?}");
            let artifact = decode(Bytes::from(golden.clone())).unwrap();
            assert_eq!(artifact.sketch.quant_mode(), mode);
            assert_eq!(&encode_router(&artifact.into_router())[..], &golden[..]);
        }
        // Version 3: an AVG / STD shard's Σ / Σ² slots hold per-row
        // means ([`crate::shard::mean_slots`]).
        let golden = unhex(
            "4e534b4d 03000000 07000000 00000000 02020200 00000900 00000000 00000200 \
             00000134 12000000 00000014 00736861 72642d30 30302e63 6f756e74 2e6e736b \
             32017698 00000000 00001200 73686172 642d3030 302e7375 6d2e6e73 6b320001 \
             35120000 00000000 14007368 6172642d 3030312e 636f756e 742e6e73 6b320175 \
             98000000 00000012 00736861 72642d30 30312e73 756d2e6e 736b3200",
        );
        let manifest = literal_manifest();
        assert_eq!(&encode_manifest(&manifest).unwrap()[..], &golden[..]);
        assert_eq!(decode_manifest(Bytes::from(golden)).unwrap(), manifest);
    }

    #[test]
    fn roundtrip_matches_quantized_sketch_bitwise() {
        let (sketch, _) = trained_sketch();
        let blob = encode_sketch(&sketch);
        assert_eq!(blob.len(), encoded_len(&sketch));
        let loaded = decode(blob).unwrap();
        assert!(loaded.router.is_none());
        let q = sketch.quantized_to(QuantMode::F32);
        assert_eq!(loaded.sketch.partitions(), sketch.partitions());
        for i in 0..50 {
            let query = vec![(i as f64 * 0.137) % 1.0, (i as f64 * 0.311) % 1.0];
            assert_eq!(loaded.sketch.answer(&query), q.answer(&query));
        }
    }

    /// Serving precision is storage precision: a fresh build holds its
    /// models at F16, the mode it saves under, so it and its save/load
    /// round trip answer with the same bits — saving changes no served
    /// answer. Widening to F32 is exact (every half is an `f32`); I8
    /// moves answers, exactly once.
    #[test]
    fn fresh_quantized_and_decoded_sketches_serve_the_same_bits() {
        let (sketch, _) = trained_sketch();
        assert_eq!(sketch.quant_mode(), QuantMode::F16);
        let queries: Vec<Vec<f64>> = (0..97)
            .map(|i| vec![(i as f64 * 0.137) % 1.0, (i as f64 * 0.311) % 1.0])
            .collect();
        let bits = |s: &NeuroSketch| -> Vec<u64> {
            (s.answer_batch(&queries).iter())
                .map(|v| v.to_bits())
                .collect()
        };
        let fresh = bits(&sketch);
        assert_eq!(bits(&decode(encode_sketch(&sketch)).unwrap().sketch), fresh);
        for mode in [QuantMode::F32, QuantMode::I8] {
            let q = sketch.quantized_to(mode);
            let loaded = decode(encode_sketch(&q)).unwrap().sketch;
            assert_eq!(bits(&loaded), bits(&q), "{mode:?}");
            if mode == QuantMode::F32 {
                assert_eq!(bits(&loaded), fresh, "widening moved an answer");
            } else {
                assert_ne!(bits(&loaded), fresh, "{mode:?} rounding must be visible");
            }
        }
    }

    #[test]
    fn second_roundtrip_is_byte_identical() {
        let (sketch, _) = trained_sketch();
        let once = encode_sketch(&sketch);
        let decoded = decode(once.clone()).unwrap();
        let twice = encode_sketch(&decoded.sketch);
        assert_eq!(&once[..], &twice[..]);
    }

    #[test]
    fn router_metadata_roundtrips() {
        let (sketch, aqcs) = trained_sketch();
        let policy = RoutingPolicy {
            min_range_volume: 0.015,
            max_leaf_aqc: 42.5,
        };
        let router = DqdRouter::new(sketch, aqcs.clone(), policy);
        let artifact = decode(encode_router(&router)).unwrap();
        let meta = artifact.router.clone().expect("router section present");
        assert_eq!(meta.leaf_aqcs, aqcs);
        assert_eq!(meta.policy, policy);
        let rebuilt = artifact.into_router();
        assert_eq!(rebuilt.policy(), policy);
        assert_eq!(rebuilt.leaf_aqcs(), &aqcs[..]);
    }

    #[test]
    fn size_accounting_tracks_the_paper_model() {
        let (sketch, _) = trained_sketch();
        let len = encode_sketch(&sketch).len();
        let params = sketch.param_count();
        // Dominated by 2 bytes per parameter at the build's F16...
        assert!(len >= params * 2);
        // ...with overhead well under the paper-accounted figure (4
        // bytes per parameter) less the 2 saved, + a small per-partition
        // constant.
        assert!(
            len <= sketch.storage_bytes() - 2 * params + 80 * sketch.partitions() + 64,
            "len {len} vs accounted {}",
            sketch.storage_bytes()
        );
        // Widening to F32 costs exactly the other 2 bytes per parameter.
        assert_eq!(
            encoded_len(&sketch.quantized_to(QuantMode::F32)),
            len + 2 * params
        );
    }

    #[test]
    fn file_roundtrip() {
        let (sketch, aqcs) = trained_sketch();
        let router = DqdRouter::new(sketch, aqcs, RoutingPolicy::default());
        let path = std::env::temp_dir().join("nsk2_file_roundtrip_test.nsk2");
        save_router(&path, &router).unwrap();
        let artifact = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let query = [0.3, 0.8];
        assert_eq!(
            artifact.sketch.answer(&query),
            router.sketch().quantized_to(QuantMode::F32).answer(&query)
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load("/definitely/not/a/real/path.nsk2").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn rejects_bad_magic_version_and_truncation() {
        let (sketch, _) = trained_sketch();
        let blob = encode_sketch(&sketch);

        assert!(matches!(
            decode(Bytes::from_static(b"shrt")),
            Err(PersistError::Truncated(_))
        ));

        let mut bad_magic = blob.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode(Bytes::from(bad_magic)),
            Err(PersistError::BadMagic { .. })
        ));

        let mut future = blob.to_vec();
        future[4] = 0xEE; // version 0x..EE
        assert!(matches!(
            decode(Bytes::from(future)),
            Err(PersistError::UnsupportedVersion { .. })
        ));

        // Every strict prefix must fail with a typed error, never panic.
        for cut in [12, 13, 20, blob.len() / 2, blob.len() - 1] {
            let err = decode(blob.slice(0..cut)).unwrap_err();
            assert!(
                !matches!(err, PersistError::BadMagic { .. }),
                "prefix of a valid blob keeps its magic"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let (sketch, _) = trained_sketch();
        // Appended bytes shift the trailer window, so the end-to-end
        // checksum is what trips.
        let mut blob = encode_sketch(&sketch).to_vec();
        blob.extend_from_slice(b"leftover");
        let err = decode(Bytes::from(blob.clone())).unwrap_err();
        assert!(
            matches!(err, PersistError::TrailerMismatch { .. }),
            "expected trailer mismatch, got {err}"
        );
        // With the last eight bytes re-patched into a trailer that
        // matches, the original trailer is left over after the router
        // section and the structural check catches it.
        patch_trailer(&mut blob);
        let err = decode(Bytes::from(blob)).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt(m) if m.contains("trailing")),
            "expected trailing-bytes error, got {err}"
        );
    }

    #[test]
    fn rejects_nan_router_metadata() {
        let (sketch, aqcs) = trained_sketch();
        let router = DqdRouter::new(sketch, aqcs, RoutingPolicy::default());
        let blob = encode_router(&router).to_vec();
        // The router section sits just before the 8-byte trailer: tag
        // byte, two policy f64s, count u32, then the AQC array.
        let n_aqcs = router.leaf_aqcs().len();
        let aqc_array = blob.len() - 8 - 8 * n_aqcs;
        let policy_floats = aqc_array - 4 - 16;
        for offset in [policy_floats, policy_floats + 8, aqc_array] {
            let mut bad = blob.clone();
            bad[offset..offset + 8].copy_from_slice(&f64::NAN.to_le_bytes());
            patch_trailer(&mut bad);
            let err = decode(Bytes::from(bad)).unwrap_err();
            assert!(
                matches!(&err, PersistError::Corrupt(m) if m.contains("NaN")),
                "offset {offset}: expected NaN rejection, got {err}"
            );
        }
    }

    /// A 2-shard AVG deployment over 240 rows and its training
    /// workload; `salt` moves the build seed, and with it every model.
    fn small_sharded(salt: u64) -> (ShardedSketch, Vec<Vec<f64>>) {
        use crate::shard::build_sharded;
        use datagen::Dataset;
        use query::predicate::Range;

        let rows: Vec<Vec<f64>> = (0..240)
            .map(|i| vec![(i as f64 * 0.377) % 1.0, (i as f64 * 0.713) % 1.0])
            .collect();
        let data = Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap();
        let pred = Range::new(vec![0], 2).unwrap();
        let queries: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i as f64 * 0.549) % 0.8, 0.1 + (i as f64 * 0.211) % 0.2])
            .collect();
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 6;
        cfg.seed = cfg.seed.wrapping_add(salt);
        let plan = ShardPlan::Hash { shards: 2, seed: 3 };
        let (sharded, _) =
            build_sharded(&data, 1, &plan, &pred, Aggregate::Avg, &queries, &cfg).unwrap();
        (sharded, queries)
    }

    #[test]
    fn sharded_deployment_roundtrips_through_manifest() {
        let (sharded, queries) = small_sharded(0);
        let dir = std::env::temp_dir().join("nskm_roundtrip_test");
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = save_sharded(&dir, &sharded).unwrap();
        assert_eq!(manifest_path.file_name().unwrap(), MANIFEST_NAME);
        let loaded = load_sharded(&manifest_path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.plan(), ShardPlan::Hash { shards: 2, seed: 3 });
        assert_eq!(loaded.aggregate(), Aggregate::Avg);
        assert_eq!(loaded.shard_count(), 2);
        // Save is lossy exactly once (f32 storage): the loaded
        // deployment answers bitwise like the quantized source.
        let quantized = sharded.quantized_to(QuantMode::F32);
        for q in queries.iter().take(20) {
            assert_eq!(loaded.answer(q), quantized.answer(q));
        }
    }

    /// The default build needs no quantizing step before it is saved:
    /// its NSK2 and NSKM artifacts carry F16, re-encode to the same
    /// bytes once loaded, and answer bitwise like the in-memory build.
    #[test]
    fn default_build_artifacts_are_f16_idempotent_and_answer_like_the_build() {
        let (sketch, aqcs) = trained_sketch();
        let router = DqdRouter::new(sketch, aqcs, RoutingPolicy::default());
        let blob = encode_router(&router);
        assert_eq!(
            blob.len(),
            encoded_len(router.sketch()) + 20 + 8 * router.leaf_aqcs().len()
        );
        let loaded = decode(blob.clone()).unwrap().into_router();
        assert_eq!(loaded.sketch().quant_mode(), QuantMode::F16);
        assert_eq!(&encode_router(&loaded)[..], &blob[..]);
        let queries: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i as f64 * 0.173) % 1.0, (i as f64 * 0.419) % 1.0])
            .collect();
        let bits = |v: Vec<f64>| -> Vec<u64> { v.iter().map(|a| a.to_bits()).collect() };
        assert_eq!(
            bits(loaded.sketch().answer_batch(&queries)),
            bits(router.sketch().answer_batch(&queries))
        );

        let (sharded, queries) = small_sharded(0);
        let dir = std::env::temp_dir().join("nskm_default_build_test");
        let again = dir.join("again");
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = save_sharded(&dir, &sharded).unwrap();
        let loaded = load_sharded(&manifest_path).unwrap();
        let again_path = save_sharded(&again, &loaded).unwrap();
        let files = |d: &Path| -> Vec<(std::ffi::OsString, Vec<u8>)> {
            let mut out: Vec<_> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.is_file())
                .map(|p| {
                    (
                        p.file_name().unwrap().to_owned(),
                        std::fs::read(&p).unwrap(),
                    )
                })
                .collect();
            out.sort();
            out
        };
        let (first, second) = (files(&dir), files(&again));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(again_path.file_name(), manifest_path.file_name());
        assert_eq!(
            first.len(),
            1 + 2 * 2,
            "a manifest and two models per shard"
        );
        assert_eq!(first, second, "load → save moved a byte");
        for (built, decoded) in sharded.shards().iter().zip(loaded.shards()) {
            for kind in [MomentKind::Count, MomentKind::Sum] {
                assert_eq!(built.model(kind).unwrap().quant_mode(), QuantMode::F16);
                assert_eq!(decoded.model(kind).unwrap().quant_mode(), QuantMode::F16);
            }
        }
        for q in &queries {
            assert_eq!(loaded.answer(q).to_bits(), sharded.answer(q).to_bits());
        }
    }

    /// A version-2 manifest — the layout of version 3, but with an AVG
    /// or STD deployment's Σ / Σ² slots holding raw sums, not per-row
    /// means — is refused by name, decoded or loaded from disk, never
    /// served as if its slots held means.
    #[test]
    fn version_2_manifest_is_refused() {
        let (sharded, _) = small_sharded(0);
        let dir = std::env::temp_dir().join("nskm_version_2_test");
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = save_sharded(&dir, &sharded).unwrap();
        let mut v2 = std::fs::read(&manifest_path).unwrap();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&manifest_path, &v2).unwrap();
        let loaded = load_sharded(&manifest_path);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            decode_manifest(Bytes::from(v2)),
            Err(PersistError::UnsupportedVersion { found: 2 })
        );
        assert!(matches!(
            loaded,
            Err(PersistError::UnsupportedVersion { found: 2 })
        ));
    }

    /// A shard loaded against a decoded manifest belongs to *that*
    /// manifest's generation even when a refresh lands in between: the
    /// rolling upgrade validates generation G's manifest and must
    /// install G's shard, not whatever a second read of the file finds.
    #[test]
    fn load_shard_resolves_against_the_manifest_it_was_given() {
        let (gen0, queries) = small_sharded(0);
        let dir = std::env::temp_dir().join("nskm_load_shard_generation_test");
        std::fs::remove_dir_all(&dir).ok();
        let manifest_path = save_sharded(&dir, &gen0).unwrap();
        let validated = read_manifest(&manifest_path).unwrap();
        assert_eq!(validated.generation, 0);

        // Generation 1 lands with a different shard 0.
        let reseeded = small_sharded(1).0.shards()[0].clone();
        let mut gen1 = load_sharded(&manifest_path).unwrap();
        gen1.replace_shards(vec![(0, reseeded.clone())]);
        save_refreshed(&manifest_path, &gen1, &[0]).unwrap();
        let landed = read_manifest(&manifest_path).unwrap();
        assert_eq!(landed.generation, 1);

        let bits = |shard: &ShardSketch| -> Vec<u64> {
            let mut scratch = crate::sketch::BatchScratch::default();
            let flat = queries.concat();
            let batch = crate::deploy::QueryBatch::new(&flat, 2);
            let moments = shard.moments_batch_with(&mut scratch, batch);
            moments.iter().map(|m| m.s.to_bits()).collect()
        };
        let old = load_shard(&validated, &manifest_path, 0).unwrap();
        let new = load_shard(&landed, &manifest_path, 0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            bits(&old),
            bits(&gen0.shards()[0].quantized_to(QuantMode::F32))
        );
        assert_eq!(bits(&new), bits(&reseeded.quantized_to(QuantMode::F32)));
        assert_ne!(bits(&old), bits(&new), "the refresh changed nothing");
    }

    fn literal_manifest() -> ShardManifest {
        ShardManifest {
            aggregate: Aggregate::Avg,
            plan: ShardPlan::Hash { shards: 2, seed: 9 },
            generation: 7,
            shards: (0..2)
                .map(|s| {
                    vec![
                        ShardArtifactRef {
                            kind: MomentKind::Count,
                            path: shard_artifact_name(s, MomentKind::Count),
                            checksum: 0x1234 + s as u64,
                        },
                        ShardArtifactRef {
                            kind: MomentKind::Sum,
                            path: shard_artifact_name(s, MomentKind::Sum),
                            checksum: 0x9876 - s as u64,
                        },
                    ]
                })
                .collect(),
        }
    }

    #[test]
    fn manifest_encoding_roundtrips_and_validates() {
        let manifest = literal_manifest();
        let blob = encode_manifest(&manifest).unwrap();
        assert_eq!(decode_manifest(blob.clone()).unwrap(), manifest);

        // Any other version is a typed refusal — including a genuine
        // version-1 manifest (same bytes minus the generation field).
        let mut v1 = blob.to_vec();
        v1.drain(8..16);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_manifest(Bytes::from(v1)),
            Err(PersistError::UnsupportedVersion { found: 1 })
        );
        for found in [0u32, 1, 9] {
            let mut other = blob.to_vec();
            other[4..8].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                decode_manifest(Bytes::from(other)),
                Err(PersistError::UnsupportedVersion { found })
            );
        }

        // Wrong component set for the aggregate is structural corruption.
        let mut wrong = manifest.clone();
        wrong.shards[1].pop();
        assert!(matches!(
            decode_manifest(encode_manifest(&wrong).unwrap()),
            Err(PersistError::Corrupt(m)) if m.contains("components")
        ));

        // A path longer than the u16 length field refuses to encode
        // (typed), never truncates into a misaligned manifest.
        let mut long = manifest.clone();
        long.shards[0][0].path = "x".repeat(u16::MAX as usize + 1);
        assert!(matches!(
            encode_manifest(&long),
            Err(PersistError::Corrupt(m)) if m.contains("u16")
        ));

        // A hand-built MEDIAN manifest is a typed refusal, not a panic.
        let mut median = manifest.clone();
        median.aggregate = Aggregate::Median;
        assert!(matches!(
            encode_manifest(&median),
            Err(PersistError::Corrupt(m)) if m.contains("MEDIAN")
        ));
        // So is MEDIAN's tag (4) in the aggregate byte, which follows
        // magic, version and generation; so is a tag past the enum.
        for (tag, msg) in [(4u8, "MEDIAN"), (5, "unknown aggregate tag")] {
            let mut bad = blob.to_vec();
            bad[16] = tag;
            assert!(matches!(
                decode_manifest(Bytes::from(bad)),
                Err(PersistError::Corrupt(m)) if m.contains(msg)
            ));
        }

        // Every strict prefix fails typed, never panics.
        for cut in 0..blob.len() {
            assert!(decode_manifest(blob.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn manifest_rejects_implausible_shard_count_before_allocating() {
        // Valid header, COUNT, round-robin, plan shards = table count =
        // u32::MAX: consistent, but the buffer can't possibly hold that
        // many shard entries — must be a typed error, not a ~100 GB
        // Vec::with_capacity abort.
        let mut blob = Vec::new();
        blob.extend_from_slice(&NSKM_MAGIC.to_le_bytes());
        blob.extend_from_slice(&NSKM_VERSION.to_le_bytes());
        blob.extend_from_slice(&0u64.to_le_bytes()); // generation
        blob.push(0); // COUNT
        blob.push(0); // round-robin
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_manifest(Bytes::from(blob)),
            Err(PersistError::Corrupt(m)) if m.contains("implausible shard count")
        ));
    }

    #[test]
    fn manifest_rejects_escaping_paths() {
        use crate::shard::ShardPlan;
        use query::aggregate::{Aggregate, MomentKind};
        for bad in [
            "/etc/passwd",
            "../outside.nsk2",
            "a/../../b.nsk2",
            "",
            "..\\outside.nsk2",
            "C:\\other\\x.nsk2",
        ] {
            let manifest = ShardManifest {
                aggregate: Aggregate::Count,
                plan: ShardPlan::RoundRobin { shards: 1 },
                generation: 0,
                shards: vec![vec![ShardArtifactRef {
                    kind: MomentKind::Count,
                    path: bad.to_string(),
                    checksum: 1,
                }]],
            };
            assert!(
                matches!(
                    decode_manifest(encode_manifest(&manifest).unwrap()),
                    Err(PersistError::Corrupt(m)) if m.contains("path")
                ),
                "path `{bad}` was accepted"
            );
        }
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        assert_eq!(artifact_checksum(b""), 0xcbf2_9ce4_8422_2325);
        let a = artifact_checksum(b"neurosketch");
        let mut flipped = b"neurosketch".to_vec();
        flipped[3] ^= 1;
        assert_ne!(a, artifact_checksum(&flipped));
        assert_eq!(a, artifact_checksum(b"neurosketch"));
    }

    #[test]
    fn rejects_cross_section_corruption() {
        let (sketch, _) = trained_sketch();
        let blob = encode_sketch(&sketch).to_vec();

        // Zero the node count: structurally empty tree.
        let mut no_nodes = blob.clone();
        no_nodes[12..16].copy_from_slice(&0u32.to_le_bytes());
        patch_trailer(&mut no_nodes);
        assert!(decode(Bytes::from(no_nodes)).is_err());

        // Corrupt the first internal node's left-child pointer.
        let mut bad_child = blob.clone();
        // header(12) + node_count(4) + tag(1) + dim(4) + val(8) = 29.
        bad_child[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
        patch_trailer(&mut bad_child);
        assert!(matches!(
            decode(Bytes::from(bad_child)),
            Err(PersistError::Tree(_))
        ));
    }

    #[test]
    fn quantized_modes_roundtrip_and_reencode_byte_idempotently() {
        let (sketch, _) = trained_sketch();
        let len = |mode| encoded_len(&sketch.quantized_to(mode));
        for mode in QuantMode::ALL {
            let q = sketch.quantized_to(mode);
            let blob = encode_sketch(&q);
            assert_eq!(blob.len(), len(mode), "{mode:?}");
            let loaded = decode(blob.clone()).unwrap().sketch;
            assert_eq!(loaded.quant_mode(), mode);
            // The artifact answers exactly like the quantized sketch it
            // was saved from...
            for i in 0..40 {
                let query = vec![(i as f64 * 0.173) % 1.0, (i as f64 * 0.419) % 1.0];
                assert_eq!(loaded.answer(&query), q.answer(&query), "{mode:?}");
            }
            // ...re-encodes to the same bytes without the caller naming
            // the mode (the sketch carries it)...
            assert_eq!(&encode_sketch(&loaded)[..], &blob[..], "{mode:?}");
            // ...and a second load is bitwise-reproducible.
            let again = decode(blob).unwrap().sketch;
            let query = [0.31, 0.77];
            assert_eq!(loaded.answer(&query), again.answer(&query));
        }
        // The size ordering that motivates the whole feature.
        assert!(len(QuantMode::I8) < len(QuantMode::F16));
        assert!(len(QuantMode::F16) < len(QuantMode::F32));
    }

    /// The version field cannot opt out of verification: a valid
    /// container whose header claims an older (or any other) version is
    /// refused by name, with or without a matching trailer — never
    /// parsed as a trailer-less layout.
    #[test]
    fn version_field_cannot_opt_out_of_verification() {
        let blob = encode_router(&hand_built_router()).to_vec();
        for found in [0u32, 1, 2, 9] {
            let mut other = blob.clone();
            other[4..8].copy_from_slice(&found.to_le_bytes());
            for repatched in [false, true] {
                if repatched {
                    patch_trailer(&mut other);
                }
                assert_eq!(
                    decode(Bytes::from(other.clone())).unwrap_err(),
                    PersistError::UnsupportedVersion { found },
                    "repatched trailer: {repatched}"
                );
            }
        }
    }

    #[test]
    fn trailer_catches_every_single_byte_flip() {
        let (sketch, _) = trained_sketch();
        let blob = encode_sketch(&sketch.quantized_to(QuantMode::I8)).to_vec();
        let body = blob.len() - 8;
        // Stride through the body; every flip must be the integrity
        // error specifically — the trailer runs before section parsing.
        for offset in (0..body).step_by(37) {
            let mut bad = blob.clone();
            bad[offset] ^= 0x40;
            let err = decode(Bytes::from(bad)).unwrap_err();
            if offset < 8 {
                // Magic/version damage is classified before the trailer.
                assert!(
                    matches!(
                        err,
                        PersistError::BadMagic { .. } | PersistError::UnsupportedVersion { .. }
                    ),
                    "offset {offset}: got {err}"
                );
            } else {
                assert!(
                    matches!(err, PersistError::TrailerMismatch { .. }),
                    "offset {offset}: got {err}"
                );
            }
        }
    }
}
