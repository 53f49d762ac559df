//! Sharded sketch scale-out: scatter/gather build and serve over
//! per-shard sketches.
//!
//! The kd-tree inside every [`NeuroSketch`] partitions the *query
//! space*; this module adds the second partitioning the ROADMAP's
//! scale-out story needs — over the *data*. A [`ShardPlan`] splits the
//! table's rows into `K` shards, [`build_sharded`] trains an
//! independent sketch per shard on the **same** workload (fanned out on
//! the [`par`] pool), and a [`ShardedServer`] answers query batches by
//! scattering every batch to all shards and gathering per-shard answers
//! into one.
//!
//! The gather step is exact because it merges **sufficient statistics**,
//! not finished answers: each shard yields the `(n, Σ, Σ²)` components
//! its aggregate needs ([`query::aggregate::MomentKind`]), and moments
//! of a disjoint row union are the component-wise sums of the parts'
//! moments ([`query::aggregate::Moments::merge`]). COUNT and SUM shards
//! predict `n` or `Σ` and simply add across shards. AVG and STD shards
//! predict their count `nᵢ` beside per-row means — the mean `mᵢ = Σᵢ/nᵢ`
//! and, for STD, the mean of squares `qᵢ = Σ²ᵢ/nᵢ` ([`mean_slots`]) —
//! and each shard contributes `(nᵢ⁺, nᵢ⁺·mᵢ, nᵢ⁺·qᵢ)` with
//! `nᵢ⁺ = max(nᵢ, 0)` ([`weighted_moments`]), so AVG gathers as the
//! count-weighted mean `Σ nᵢ⁺·mᵢ / Σ nᵢ⁺` and STD from the weighted mean
//! and mean of squares. This is the pairwise merge of per-part
//! `(n, mean, …)` of Chan, Golub & LeVeque ("Algorithms for computing
//! the sample variance", The American Statistician, 1983): a small
//! error in one predicted count now moves one weight, not the
//! denominator of a ratio of two predicted sums. On exact moments the
//! gathered answer is the whole-table answer up to rounding, because
//! `nᵢ·(Σᵢ/nᵢ) = Σᵢ`; on predictions it is an *exact* composition of
//! the per-shard moments (bitwise for COUNT, ulp-exact for the
//! SUM/AVG/STD recombination). MEDIAN is not a function of moments and
//! is rejected at build time.
//!
//! The server computes every query it is sent and reports the
//! [`DeployStats`] every layer reports — the one count of where answers
//! came from, whose cache counts stay 0 here; to cache or deduplicate,
//! wrap it in a [`CachedDeployment`](crate::cache::CachedDeployment).
//! How many shards a deployment scatters to is a property of the
//! deployment, not of a batch: [`Deployment::describe`]'s `units`.
//!
//! What sharding buys, per the paper's constant-cost story: per-shard
//! artifacts have bounded size regardless of total data volume, shards
//! build in parallel (each labels only its own rows), and serve-side
//! throughput scales by adding shard servers. A whole deployment
//! persists as one loadable unit via the NSKM manifest
//! ([`crate::persist::save_sharded`] / [`crate::persist::load_sharded`]);
//! [`crate::serve`] documents the single-artifact serving engine each
//! shard reuses, and `docs/scaling.md` is the operator's handbook.
//!
//! ```
//! use datagen::Dataset;
//! use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer};
//! use neurosketch::serve::ServeOptions;
//! use neurosketch::{Deployment, NeuroSketchConfig};
//! use query::aggregate::{Aggregate, Moments};
//! use query::exec::QueryEngine;
//! use query::predicate::Range;
//!
//! // A small table and a 1-active-attribute COUNT workload.
//! let rows: Vec<Vec<f64>> = (0..400)
//!     .map(|i| vec![(i as f64 * 0.377) % 1.0, (i as f64 * 0.713) % 1.0])
//!     .collect();
//! let data = Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap();
//! let pred = Range::new(vec![0], 2).unwrap();
//! let queries: Vec<Vec<f64>> = (0..80)
//!     .map(|i| vec![(i as f64 * 0.549) % 0.8, 0.2 + (i as f64 * 0.211) % 0.2])
//!     .collect();
//!
//! // Plan → parallel per-shard build → scatter/gather serving.
//! let plan = ShardPlan::RoundRobin { shards: 2 };
//! let mut cfg = NeuroSketchConfig::small();
//! cfg.train.epochs = 10;
//! let (sharded, report) =
//!     build_sharded(&data, 1, &plan, &pred, Aggregate::Count, &queries, &cfg).unwrap();
//! assert_eq!(report.shard_rows, vec![200, 200]);
//!
//! let server = ShardedServer::new(sharded, ServeOptions::default());
//! let (answers, stats) = server.answer_batch(&queries);
//! assert_eq!(answers.len(), queries.len());
//! assert_eq!(stats.sketch, queries.len());
//! assert_eq!(server.describe().units, 2);
//!
//! // The gathered answer IS the sum of the per-shard sketch answers
//! // (COUNT adds across a disjoint row split) ...
//! let manual: f64 = server
//!     .sketch()
//!     .shards()
//!     .iter()
//!     .map(|s| s.model(query::aggregate::MomentKind::Count).unwrap().answer(&queries[0]))
//!     .sum();
//! assert_eq!(answers[0], manual);
//!
//! // ... and tracks the exact whole-table answer about as well as the
//! // per-shard sketches track their shards.
//! let engine = QueryEngine::new(&data, 1);
//! let exact = engine.answer(&pred, Aggregate::Count, &queries[0]);
//! assert!((answers[0] - exact).abs() < 0.25 * data.rows() as f64);
//! ```

use crate::deploy::{DeployKind, DeployStats, Deployment, DeploymentInfo, QueryBatch};
use crate::serve::{ServeOptions, MAX_SUB_BATCH};
use crate::sketch::{BatchScratch, NeuroSketch, NeuroSketchConfig};
use crate::SketchError;
use datagen::Dataset;
use nn::QuantMode;
use query::aggregate::{Aggregate, MomentKind, Moments};
use query::exec::QueryEngine;
use query::predicate::PredicateFn;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How the table's rows are assigned to shards. Serializable (JSON via
/// serde, binary via the NSKM manifest in [`crate::persist`]) so a
/// deployment can re-derive its row-to-shard mapping.
///
/// Row-count stability differs by variant: `RoundRobin` and `Hash`
/// assign each row index independently of the total, so appending rows
/// never moves existing ones; `Blocks` assignment depends on the total
/// row count (`⌊i·K/n⌋`), so growing the table reassigns rows near
/// every block boundary — rebuild, don't ingest, under a `Blocks` plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardPlan {
    /// Row `i` goes to shard `i mod shards` — perfectly balanced,
    /// interleaved; the default for i.i.d. rows.
    RoundRobin {
        /// Number of shards `K`.
        shards: usize,
    },
    /// Contiguous row ranges (shard `⌊i·K/n⌋`) — preserves row locality,
    /// e.g. time-ordered ingestion where each shard owns an era.
    Blocks {
        /// Number of shards `K`.
        shards: usize,
    },
    /// Row `i` goes to `splitmix64(seed ⊕ i) mod shards` — stateless
    /// pseudo-random placement, balanced in expectation.
    Hash {
        /// Number of shards `K`.
        shards: usize,
        /// Hash seed; two plans with different seeds place rows
        /// differently.
        seed: u64,
    },
}

/// Training queries per partition of a shard component model (see
/// [`component_partitions`]). Measured with the count-weighted gather
/// on nsbench's sharded fixture (PM, 4 round-robin shards, AVG, 1 000
/// training queries, 100 epochs): held-out `nmae` 0.251 at 8 partitions
/// (125 queries a leaf), 0.190 at 2 and 0.176 at 1; over seven more
/// fixtures 2 beat 8 on every one (mean 0.257 → 0.204). Sharded STD
/// went the other way (mean 0.340 → 0.360). 500 gives 2 partitions at
/// 1 000 queries and still 8 at 5 000.
const QUERIES_PER_PARTITION: usize = 500;

/// The partition count of every shard component model: at most one
/// partition per `QUERIES_PER_PARTITION` (500) training queries, at least
/// one, and never more than `target` (`cfg.target_partitions`).
/// Theorem 3.4 sizes a network by its partition's function; a leaf
/// with too few samples to learn that function costs bytes and
/// accuracy. The monolithic build keeps its configured count.
pub fn component_partitions(target: usize, queries: usize) -> usize {
    target.min((queries / QUERIES_PER_PARTITION).max(1))
}

/// The splitmix64 finalizer, used by [`ShardPlan::Hash`] placement and
/// the per-shard seed derivation of the build.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardPlan {
    /// Number of shards this plan produces.
    pub fn shards(&self) -> usize {
        match *self {
            ShardPlan::RoundRobin { shards }
            | ShardPlan::Blocks { shards }
            | ShardPlan::Hash { shards, .. } => shards,
        }
    }

    /// Shard index of row `row` in a table of `rows` rows.
    ///
    /// # Panics
    /// Panics if `row >= rows` or the plan has zero shards; validate
    /// with [`ShardPlan::validate`] first.
    pub fn assign(&self, row: usize, rows: usize) -> usize {
        assert!(row < rows, "row {row} out of range for {rows} rows");
        match *self {
            ShardPlan::RoundRobin { shards } => row % shards,
            ShardPlan::Blocks { shards } => row * shards / rows,
            ShardPlan::Hash { shards, seed } => {
                (splitmix64(seed ^ row as u64) % shards as u64) as usize
            }
        }
    }

    /// Check the plan against a table size: at least one shard, and no
    /// more shards than rows (an empty shard would train a sketch of a
    /// constant-zero function — almost certainly a configuration error).
    pub fn validate(&self, rows: usize) -> Result<(), SketchError> {
        let k = self.shards();
        if k == 0 {
            return Err(SketchError::BadConfig(
                "shard plan must have at least one shard".into(),
            ));
        }
        if k > rows {
            return Err(SketchError::BadConfig(format!(
                "{k} shards for {rows} rows: every shard needs data"
            )));
        }
        Ok(())
    }

    /// Whether appending rows to the table leaves every *existing* row's
    /// shard assignment unchanged. `RoundRobin` and `Hash` place each
    /// row index independently of the total, so they are row-stable;
    /// `Blocks` assignment (`⌊i·K/n⌋`) depends on the total row count,
    /// so appends reshuffle rows near every block boundary. Partial
    /// refresh ([`crate::maintenance`]) requires a row-stable plan —
    /// under `Blocks`, only a full rebuild is sound after ingestion.
    pub fn row_stable(&self) -> bool {
        !matches!(self, ShardPlan::Blocks { .. })
    }

    /// Refine a round-robin plan in place: `K` shards become
    /// `K × factor`, and every new shard's rows are a **subset** of one
    /// old shard's rows — new shard `j` (under `K × factor`) owns
    /// exactly the rows of old shard `j mod K` with
    /// `i mod (K × factor) == j`, because
    /// `(i mod K·f) mod K == i mod K`. That row-stability is what lets
    /// [`crate::cluster::Cluster::rebalance`] split serving topology
    /// without retraining a single model: each old shard's sketch keeps
    /// answering for the union of its children until a child is
    /// materialized.
    ///
    /// Only `RoundRobin` refines this way: `Blocks` boundaries move with
    /// the shard count, and `Hash` placement under `K × factor` shards
    /// is unrelated to placement under `K` — both are typed refusals.
    /// `factor` 0 is a typed refusal; `factor` 1 is the identity.
    pub fn refine(&self, factor: usize) -> Result<ShardPlan, SketchError> {
        if factor == 0 {
            return Err(SketchError::BadConfig(
                "refinement factor must be at least 1".into(),
            ));
        }
        match *self {
            ShardPlan::RoundRobin { shards } => {
                let refined = shards.checked_mul(factor).ok_or_else(|| {
                    SketchError::BadConfig(format!(
                        "{shards} shards × factor {factor} overflows the shard count"
                    ))
                })?;
                Ok(ShardPlan::RoundRobin { shards: refined })
            }
            other => Err(SketchError::BadConfig(format!(
                "{other:?} does not refine row-stably: only round-robin plans guarantee every \
                 refined shard's rows are a subset of one coarse shard's rows"
            ))),
        }
    }

    /// Materialize the per-shard row-index assignment, shard by shard.
    /// Within a shard, rows keep their original order.
    pub fn assignment(&self, rows: usize) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.shards()];
        for row in 0..rows {
            out[self.assign(row, rows)].push(row);
        }
        out
    }

    /// Split a dataset into the plan's per-shard tables.
    pub fn split(&self, data: &Dataset) -> Vec<Dataset> {
        self.assignment(data.rows())
            .iter()
            .map(|rows| data.select_rows(rows))
            .collect()
    }
}

/// Whether a shard whose component models are `has` holds per-row
/// means in its Σ / Σ² slots: exactly when it trains the count beside
/// one of them (AVG and STD). COUNT-only and SUM-only shards hold the
/// raw component. The rule is structural, so the builder and every
/// reader of a shard apply it the same way with no stored flag.
fn holds_means(has: impl Fn(MomentKind) -> bool) -> bool {
    has(MomentKind::Count) && (has(MomentKind::Sum) || has(MomentKind::SumSq))
}

/// The label side of the mean slots: what an AVG or STD shard's
/// models train on for a query whose exact shard-local moments are `m`
/// — the count `n`, the mean `Σ/n` and the mean of squares `Σ²/n`, all
/// 0 on a range empty on this shard. [`weighted_moments`] is the serve
/// side.
pub fn mean_slots(m: Moments) -> Moments {
    if m.n == 0.0 {
        return Moments::ZERO;
    }
    Moments {
        n: m.n,
        s: m.s / m.n,
        s2: m.s2 / m.n,
    }
}

/// The serve side of the mean slots: the moments a shard's predicted
/// `(n̂, m̂, q̂)` stand for, `(n⁺, n⁺·m̂, n⁺·q̂)` with `n⁺ = max(n̂, 0)`.
/// Merging these across shards is the count-weighted combination of
/// per-part means of Chan, Golub & LeVeque ("Algorithms for computing
/// the sample variance", The American Statistician, 1983). On exact
/// moments, `weighted_moments(mean_slots(m))` is `m` up to rounding,
/// because `n·(Σ/n) = Σ`.
pub fn weighted_moments(slots: Moments) -> Moments {
    let n = slots.n.max(0.0);
    Moments {
        n,
        s: n * slots.s,
        s2: n * slots.s2,
    }
}

/// One data shard's trained models: up to one sketch per moment
/// component ([`MomentKind`]). Which slots are populated is decided by
/// the deployment's aggregate ([`Aggregate::required_moments`]), and so
/// is what each slot predicts: a lone count or Σ model (COUNT, SUM)
/// predicts the shard-local `n` or `Σ` itself; a count model beside Σ
/// or Σ² models (AVG, STD) predicts `n` while the others predict the
/// shard's per-row mean `Σ/n` and mean of squares `Σ²/n`
/// ([`mean_slots`]). [`ShardSketch::moments_batch_with`] turns either
/// into the shard's `(n, Σ, Σ²)`.
#[derive(Debug, Clone)]
pub struct ShardSketch {
    models: [Option<NeuroSketch>; 3],
}

impl ShardSketch {
    /// Assemble from per-component models (crate-internal: used by the
    /// builder and the NSKM loader after validation).
    pub(crate) fn from_models(models: [Option<NeuroSketch>; 3]) -> ShardSketch {
        ShardSketch { models }
    }

    /// The model predicting one moment component, if this deployment
    /// trains it.
    pub fn model(&self, kind: MomentKind) -> Option<&NeuroSketch> {
        self.models[kind.slot()].as_ref()
    }

    /// Predict this shard's moments `(n, Σ, Σ²)` for every query in the
    /// batch. Components without a model stay 0 (their aggregate never
    /// reads them). A shard that holds means returns
    /// [`weighted_moments`] of its predicted `(n̂, m̂, q̂)`, so the merge
    /// across shards weights each shard's mean by its clamped count;
    /// any other shard returns its predictions as they are. Uses the
    /// batched leaf-grouped forward pass per component.
    pub fn moments_batch_with(
        &self,
        scratch: &mut BatchScratch,
        batch: QueryBatch<'_>,
    ) -> Vec<Moments> {
        let mut out = vec![Moments::ZERO; batch.len()];
        for kind in MomentKind::ALL {
            if let Some(model) = &self.models[kind.slot()] {
                let component = model.answer_batch_with(scratch, batch);
                for (m, v) in out.iter_mut().zip(component) {
                    m.set_component(kind, v);
                }
            }
        }
        if holds_means(|kind| self.model(kind).is_some()) {
            for m in &mut out {
                *m = weighted_moments(*m);
            }
        }
        out
    }

    /// Every component model saved and loaded through `mode`: what
    /// this shard's artifacts decode to when stored at that
    /// [`QuantMode`]. See [`NeuroSketch::quantized_to`].
    pub fn quantized_to(&self, mode: QuantMode) -> ShardSketch {
        ShardSketch {
            models: self
                .models
                .each_ref()
                .map(|m| m.as_ref().map(|m| m.quantized_to(mode))),
        }
    }

    /// This shard with each component model rounded through the storage
    /// mode of the same component of `old`, the shard it replaces — how
    /// a refresh keeps the storage mode of the models it swaps out. A
    /// component `old` lacks is kept as it is.
    pub(crate) fn stored_like(self, old: &ShardSketch) -> ShardSketch {
        let mut models = self.models;
        for (new, old) in models.iter_mut().zip(&old.models) {
            if let (Some(n), Some(o)) = (new.as_mut(), old) {
                *n = n.quantized_to(o.quant_mode());
            }
        }
        ShardSketch { models }
    }

    /// Total trainable parameters across this shard's component models.
    pub fn param_count(&self) -> usize {
        self.models
            .iter()
            .flatten()
            .map(NeuroSketch::param_count)
            .sum()
    }

    /// Exact on-disk bytes of this shard's NSK2 artifacts
    /// ([`crate::persist::encoded_len`] per component model).
    pub fn artifact_bytes(&self) -> usize {
        self.models
            .iter()
            .flatten()
            .map(crate::persist::encoded_len)
            .sum()
    }
}

/// A complete sharded deployment: the row plan, the aggregate it serves,
/// and one [`ShardSketch`] per shard. Build with [`build_sharded`],
/// persist with [`crate::persist::save_sharded`], serve with
/// [`ShardedServer`].
#[derive(Debug, Clone)]
pub struct ShardedSketch {
    plan: ShardPlan,
    aggregate: Aggregate,
    shards: Vec<ShardSketch>,
}

impl ShardedSketch {
    /// Assemble from parts (crate-internal: the builder and the NSKM
    /// loader validate the invariants — one entry per plan shard, the
    /// aggregate's required components present on every shard).
    pub(crate) fn from_parts(
        plan: ShardPlan,
        aggregate: Aggregate,
        shards: Vec<ShardSketch>,
    ) -> ShardedSketch {
        debug_assert_eq!(plan.shards(), shards.len());
        ShardedSketch {
            plan,
            aggregate,
            shards,
        }
    }

    /// The row-assignment plan.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// The aggregate this deployment serves.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// The per-shard sketches, in shard order.
    pub fn shards(&self) -> &[ShardSketch] {
        &self.shards
    }

    /// Number of data shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Swap in rebuilt shards (crate-internal: the partial-refresh path
    /// in [`crate::maintenance`] retrains stale shards in place; the
    /// caller guarantees the replacements were trained for the same
    /// aggregate's components, as [`ShardTables::build`] output is).
    /// Each component keeps the storage mode of the model it replaces
    /// ([`ShardSketch::stored_like`]).
    pub(crate) fn replace_shards(&mut self, rebuilt: Vec<(usize, ShardSketch)>) {
        for (idx, shard) in rebuilt {
            self.shards[idx] = shard.stored_like(&self.shards[idx]);
        }
    }

    /// Finish one set of (possibly predicted) moments into this
    /// deployment's aggregate, with the near-empty guard of the free
    /// [`finish_guarded`].
    pub fn finish_guarded(&self, total: Moments) -> f64 {
        finish_guarded(self.aggregate, total)
    }

    /// Answer one query through the full scatter/gather path (a batch of
    /// one on the calling thread; see [`ShardedServer`] for the batched,
    /// parallel front).
    pub fn answer(&self, q: &[f64]) -> f64 {
        let shards: Vec<&ShardSketch> = self.shards.iter().collect();
        let one = QueryBatch::new(q, q.len());
        scatter_gather(&shards, one, 1, |m| self.finish_guarded(m)).0[0]
    }

    /// Every component model rounded through its own
    /// [`NeuroSketch::quant_mode`] — what a save/load round trip through
    /// the NSKM manifest yields, and the identity for any built or
    /// loaded deployment. See [`NeuroSketch::quantized`].
    pub fn quantized(&self) -> ShardedSketch {
        ShardedSketch {
            plan: self.plan,
            aggregate: self.aggregate,
            shards: self
                .shards
                .iter()
                .map(|s| s.clone().stored_like(s))
                .collect(),
        }
    }

    /// The deployment with every model quantized through `mode` — what
    /// saving the manifest with that [`QuantMode`] and loading it back
    /// yields. See [`NeuroSketch::quantized_to`].
    pub fn quantized_to(&self, mode: QuantMode) -> ShardedSketch {
        ShardedSketch {
            plan: self.plan,
            aggregate: self.aggregate,
            shards: self.shards.iter().map(|s| s.quantized_to(mode)).collect(),
        }
    }

    /// Total trainable parameters across all shards and components.
    pub fn param_count(&self) -> usize {
        self.shards.iter().map(ShardSketch::param_count).sum()
    }

    /// Exact total on-disk bytes of the per-shard NSK2 artifacts
    /// (manifest overhead excluded — a few dozen bytes per shard).
    pub fn artifact_bytes(&self) -> usize {
        self.shards.iter().map(ShardSketch::artifact_bytes).sum()
    }
}

/// Finish one set of (possibly predicted) moments into `agg` with the
/// near-empty guard every gather path in this crate applies: AVG and
/// STD divide by the gathered count `Σ nᵢ⁺` — the sum of the shards'
/// predicted counts, each clamped at 0 by [`weighted_moments`] — which
/// on an empty-selectivity query is model noise near zero, so a count
/// below half a row takes the empty-range convention (`0.0`) instead
/// of amplifying the noise into an arbitrary ratio. Every serving path
/// hands this to the one scatter/gather as its finisher, so a cluster's
/// answers are bitwise the single-box answers whenever the same
/// sketches are merged in the same order.
///
/// # Panics
/// Panics on an aggregate that is not moment-composable (MEDIAN);
/// every constructor in this crate rejects those up front.
pub fn finish_guarded(agg: Aggregate, total: Moments) -> f64 {
    if matches!(agg, Aggregate::Avg | Aggregate::Std) && total.n < 0.5 {
        return 0.0;
    }
    total
        .finish(agg)
        .expect("sharded aggregates are moment-composable by construction")
}

/// Timings and diagnostics from a sharded build.
#[derive(Debug, Clone)]
pub struct ShardedBuildReport {
    /// Rows each shard owns, in shard order.
    pub shard_rows: Vec<usize>,
    /// Moment-labeling wall-clock, summed across shards (shards label
    /// concurrently, so the elapsed wall-clock is lower).
    pub labeling: Duration,
    /// Training wall-clock, summed across shards.
    pub training: Duration,
    /// Total component models trained (`shards × required components`).
    pub models_trained: usize,
}

/// Build a sharded deployment: split `data`'s rows by `plan`, then — in
/// parallel across shards on the [`par`] pool — label the workload with
/// each shard's exact per-shard moments
/// ([`QueryEngine::label_moments_batch`]) and train one [`NeuroSketch`]
/// per required moment component — on the raw `n` or `Σ` for COUNT and
/// SUM, on `n` and the per-row means [`mean_slots`] for AVG and STD.
///
/// Every shard trains on the **same** `queries`; only the labels differ
/// (each shard's engine sees only its own rows). `cfg.threads` bounds
/// the cross-shard fan-out; within a shard the build runs
/// single-threaded so the pool is not oversubscribed. Per-(shard,
/// component) seeds derive from `cfg.seed`, so builds are deterministic
/// at any thread count.
///
/// Errors: everything the shared validation step refuses (MEDIAN, a
/// plan with zero shards or more shards than rows, a shard left without
/// rows) and every error [`NeuroSketch::build_from_labeled`] itself
/// produces.
pub fn build_sharded(
    data: &Dataset,
    measure: usize,
    plan: &ShardPlan,
    predicate: &dyn PredicateFn,
    agg: Aggregate,
    queries: &[Vec<f64>],
    cfg: &NeuroSketchConfig,
) -> Result<(ShardedSketch, ShardedBuildReport), SketchError> {
    let all: Vec<usize> = (0..plan.shards()).collect();
    let tables = ShardTables::new(plan, agg, data, &all, false)?;
    let (built, report) = tables.build(measure, predicate, queries, cfg)?;
    let shards = built.into_iter().map(|(_, shard)| shard).collect();
    Ok((ShardedSketch::from_parts(*plan, agg, shards), report))
}

/// The input of every shard build: the moment components the aggregate
/// needs and a non-empty table per shard to build, which only
/// [`ShardTables::new`] — the one validation step — hands out.
/// [`build_sharded`], both partial-refresh entry points in
/// [`crate::maintenance`] and
/// [`crate::cluster::Cluster::materialize_group`] all validate there and
/// train through [`ShardTables::build`].
pub(crate) struct ShardTables {
    kinds: &'static [MomentKind],
    /// `(shard id, that shard's rows)`, ascending by id. A caller may
    /// drop entries it decides not to build.
    pub(crate) per_shard: Vec<(usize, Dataset)>,
}

impl ShardTables {
    /// Validate a build of shards `units` (ascending ids under `plan`)
    /// against `data` and materialize their tables — only the requested
    /// shards' rows are read or copied. Each refusal exists once, here:
    ///
    /// * an aggregate that is not a function of `(n, Σ, Σ²)` (MEDIAN);
    /// * `partial` — the caller will leave some of the plan's shards as
    ///   they are — under a plan that is not row-stable
    ///   ([`ShardPlan::row_stable`]);
    /// * a plan [`ShardPlan::validate`] rejects for this table;
    /// * a requested shard the assignment leaves without rows.
    pub(crate) fn new(
        plan: &ShardPlan,
        agg: Aggregate,
        data: &Dataset,
        units: &[usize],
        partial: bool,
    ) -> Result<ShardTables, SketchError> {
        let Some(kinds) = agg.required_moments() else {
            return Err(SketchError::BadConfig(format!(
                "{} is not a function of (n, Σ, Σ²) and cannot be sharded by moment composition",
                agg.name()
            )));
        };
        if partial && !plan.row_stable() {
            return Err(SketchError::BadConfig(format!(
                "{plan:?} is not row-stable: appends reassign rows across shards, so a partial \
                 refresh would leave untouched shards serving rows they never saw — rebuild all \
                 shards (or the whole deployment) instead"
            )));
        }
        plan.validate(data.rows())?;
        let assignment = plan.assignment(data.rows());
        // validate() is a cheap pigeonhole pre-check; only the
        // materialized assignment can prove a shard non-empty (a Hash
        // plan over a small table may leave one dry even with K ≤ rows).
        let tables = units.iter().map(|&unit| match assignment.get(unit) {
            Some(rows) if !rows.is_empty() => Ok((unit, data.select_rows(rows))),
            _ => Err(SketchError::BadConfig(format!(
                "{plan:?} leaves shard {unit} with no rows: every shard needs data"
            ))),
        });
        Ok(ShardTables {
            kinds,
            per_shard: tables.collect::<Result<_, _>>()?,
        })
    }

    /// The one fan-out that trains shard models: every table becomes
    /// its shard's [`ShardSketch`], one task per shard on the [`par`]
    /// pool (`cfg.threads` wide; the inner builds run single-threaded so
    /// K shards use K workers, not K × `cfg.threads`). All-or-nothing:
    /// any shard's error is returned before a caller can install
    /// anything, so a failed build leaves a deployment exactly as it
    /// was.
    pub(crate) fn build(
        &self,
        measure: usize,
        predicate: &dyn PredicateFn,
        queries: &[Vec<f64>],
        cfg: &NeuroSketchConfig,
    ) -> Result<(Vec<(usize, ShardSketch)>, ShardedBuildReport), SketchError> {
        let built = par::par_map(&self.per_shard, cfg.threads, |_, (unit, table)| {
            build_shard_sketch(*unit, table, measure, predicate, self.kinds, queries, cfg)
        });
        let mut shards = Vec::with_capacity(built.len());
        let mut report = ShardedBuildReport {
            shard_rows: self.per_shard.iter().map(|(_, t)| t.rows()).collect(),
            labeling: Duration::ZERO,
            training: Duration::ZERO,
            models_trained: self.per_shard.len() * self.kinds.len(),
        };
        for ((unit, _), b) in self.per_shard.iter().zip(built) {
            let (shard, labeling, training) = b?;
            report.labeling += labeling;
            report.training += training;
            shards.push((*unit, shard));
        }
        Ok((shards, report))
    }
}

/// Build one shard's per-component sketches against its own rows — the
/// unit of work inside [`ShardTables::build`]. Per-(shard, component) seeds
/// derive from (`cfg.seed`, `shard_idx`, slot) via splitmix64, and the
/// inner build runs single-threaded, so rebuilding shard `i` alone yields
/// **bitwise** the models a full [`build_sharded`] over the same data
/// would give that shard. This is the one place shard labels are made:
/// a shard that trains the count beside Σ or Σ² learns [`mean_slots`]
/// of its exact moments, any other the raw component. Every component
/// model has [`component_partitions`] partitions. Returns the sketch
/// plus (labeling, training) wall-clock.
fn build_shard_sketch(
    shard_idx: usize,
    shard: &Dataset,
    measure: usize,
    predicate: &dyn PredicateFn,
    kinds: &[MomentKind],
    queries: &[Vec<f64>],
    cfg: &NeuroSketchConfig,
) -> Result<(ShardSketch, Duration, Duration), SketchError> {
    let engine = QueryEngine::new(shard, measure);
    let t0 = Instant::now();
    let mut moments = engine.label_moments_batch(predicate, queries, 1);
    if holds_means(|kind| kinds.contains(&kind)) {
        for m in &mut moments {
            *m = mean_slots(*m);
        }
    }
    let labeling = t0.elapsed();
    let t1 = Instant::now();
    let mut models: [Option<NeuroSketch>; 3] = [None, None, None];
    for kind in kinds {
        let labels: Vec<f64> = moments.iter().map(|m| m.component(*kind)).collect();
        let mut component_cfg = cfg.clone();
        component_cfg.threads = 1;
        component_cfg.target_partitions =
            component_partitions(cfg.target_partitions, queries.len());
        // Decorrelate initializations across (shard, component) pairs;
        // splitmix64 keeps the derivation stateless.
        component_cfg.seed = cfg
            .seed
            .wrapping_add(splitmix64((shard_idx * 3 + kind.slot()) as u64 + 1));
        let sketch = NeuroSketch::build_sketch_only(queries, &labels, &component_cfg)?;
        models[kind.slot()] = Some(sketch);
    }
    Ok((ShardSketch::from_models(models), labeling, t1.elapsed()))
}

/// The one scatter/gather: evaluate every sketch in `shards` on the
/// whole batch — one task per sketch on the [`par`] pool, at most
/// [`MAX_SUB_BATCH`] queries per GEMM call, a reusable [`BatchScratch`]
/// per worker — then merge each query's moments **in slice order** and
/// hand the total to `finish`. [`ShardedServer`], [`ShardedSketch::answer`] and every
/// serving path of [`crate::cluster`] go through here, so the same
/// sketches in the same order give bitwise the same output whoever
/// asks, at any thread count: the merge order is the slice's, fixed
/// before a thread runs.
pub(crate) fn scatter_gather<T>(
    shards: &[&ShardSketch],
    batch: QueryBatch<'_>,
    threads: usize,
    finish: impl Fn(Moments) -> T,
) -> (Vec<T>, DeployStats) {
    let stats = DeployStats {
        queries: batch.len(),
        sketch: batch.len(),
        ..DeployStats::default()
    };
    if batch.is_empty() {
        return (Vec::new(), stats);
    }
    let per_shard: Vec<Vec<Moments>> = par::par_map_init(
        shards,
        threads.max(1),
        BatchScratch::default,
        |scratch, _, shard| {
            let mut moments = Vec::with_capacity(batch.len());
            for chunk in batch.chunks(MAX_SUB_BATCH) {
                moments.extend(shard.moments_batch_with(scratch, chunk));
            }
            moments
        },
    );
    let gathered = (0..batch.len())
        .map(|i| {
            let total = per_shard
                .iter()
                .map(|s| s[i])
                .fold(Moments::ZERO, Moments::merge);
            finish(total)
        })
        .collect();
    (gathered, stats)
}

/// A sharded deployment behind a concurrent scatter/gather serving
/// front.
///
/// Unlike [`crate::serve::SketchServer`] — which *splits* a batch
/// because one sketch holds the whole answer — a data-sharded
/// deployment must send **every query to every shard** (any shard's
/// rows may match any query) and gather: the one scatter/gather over the
/// deployment's shards in shard order, finished once per query. Answers
/// are in input order and independent of the thread count.
pub struct ShardedServer {
    sketch: ShardedSketch,
    opts: ServeOptions,
}

impl ShardedServer {
    /// Serve a sharded deployment. `opts.threads` bounds the cross-shard
    /// fan-out; `opts.active_attrs` is ignored
    /// (scatter/gather has no DQD routing — shard sketches answer
    /// everything).
    pub fn new(sketch: ShardedSketch, opts: ServeOptions) -> ShardedServer {
        ShardedServer { sketch, opts }
    }

    /// The served deployment.
    pub fn sketch(&self) -> &ShardedSketch {
        &self.sketch
    }

    fn scatter<T>(
        &self,
        batch: QueryBatch<'_>,
        finish: impl Fn(Moments) -> T,
    ) -> (Vec<T>, DeployStats) {
        let shards: Vec<&ShardSketch> = self.sketch.shards().iter().collect();
        scatter_gather(&shards, batch, self.opts.threads, finish)
    }
}

impl Deployment for ShardedServer {
    /// Scatter to all shards, gather exact moment compositions. Returns
    /// answers in input order plus the tally.
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        self.scatter(batch, |m| self.sketch.finish_guarded(m))
    }

    /// The gathered `(n, Σ, Σ²)` prediction per query — the same scatter
    /// with per-shard moments merged in shard order but not yet finished
    /// into the aggregate; `finish_guarded` of each entry is exactly the
    /// corresponding answer.
    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        Some(self.scatter(batch, |m| m).0)
    }

    fn describe(&self) -> DeploymentInfo {
        DeploymentInfo {
            kind: DeployKind::Sharded,
            units: self.sketch.shard_count(),
            param_count: self.sketch.param_count(),
            generation: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::simple::uniform;
    use proptest::prelude::*;
    use query::error::normalized_mae;
    use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

    fn small_cfg() -> NeuroSketchConfig {
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 12;
        cfg
    }

    fn setup(rows: usize, queries: usize) -> (Dataset, Workload) {
        let data = uniform(rows, 2, 11);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: queries,
            seed: 4,
        })
        .unwrap();
        (data, wl)
    }

    #[test]
    fn plans_partition_every_row_exactly_once() {
        let rows = 97;
        for plan in [
            ShardPlan::RoundRobin { shards: 4 },
            ShardPlan::Blocks { shards: 4 },
            ShardPlan::Hash { shards: 4, seed: 7 },
        ] {
            let assignment = plan.assignment(rows);
            assert_eq!(assignment.len(), 4);
            let mut seen = vec![false; rows];
            for (shard, owned) in assignment.iter().enumerate() {
                for &r in owned {
                    assert!(!seen[r], "row {r} assigned twice by {plan:?}");
                    seen[r] = true;
                    assert_eq!(plan.assign(r, rows), shard);
                }
            }
            assert!(seen.iter().all(|s| *s), "{plan:?} dropped a row");
        }
        // Round-robin and blocks are balanced within one row.
        for plan in [
            ShardPlan::RoundRobin { shards: 4 },
            ShardPlan::Blocks { shards: 4 },
        ] {
            let sizes: Vec<usize> = plan.assignment(rows).iter().map(Vec::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    /// Row stability is what partial refresh relies on: appending rows
    /// must not move existing ones between shards.
    #[test]
    fn row_stability_matches_assignment_behavior() {
        for (plan, stable) in [
            (ShardPlan::RoundRobin { shards: 3 }, true),
            (ShardPlan::Hash { shards: 3, seed: 5 }, true),
            (ShardPlan::Blocks { shards: 3 }, false),
        ] {
            assert_eq!(plan.row_stable(), stable, "{plan:?}");
            let before: Vec<usize> = (0..60).map(|r| plan.assign(r, 60)).collect();
            let after: Vec<usize> = (0..60).map(|r| plan.assign(r, 90)).collect();
            if stable {
                assert_eq!(before, after, "{plan:?} moved a row on append");
            } else {
                assert_ne!(before, after, "{plan:?} unexpectedly stable");
            }
        }
    }

    /// `moments_batch` is the un-finished half of `answer_batch`:
    /// finishing each gathered moment reproduces the served answers
    /// bitwise.
    #[test]
    fn moments_batch_finishes_to_answers() {
        let (data, wl) = setup(400, 90);
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Avg,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        let server = ShardedServer::new(sharded, ServeOptions::default());
        let (answers, _) = server.answer_batch(&wl.queries);
        let moments = server
            .moments_batch(&wl.queries)
            .expect("sharded has moments");
        assert_eq!(moments.len(), answers.len());
        for (m, a) in moments.iter().zip(&answers) {
            assert_eq!(server.sketch().finish_guarded(*m), *a);
        }
    }

    /// Refinement composes, and non-round-robin plans and factor 0 are
    /// typed refusals. Row-stability is [`refinement_is_row_stable`]'s.
    #[test]
    fn refine_is_row_stable_and_typed() {
        for (k, factor) in [(1, 1), (2, 3), (3, 2)] {
            // (K → K·a) → K·a·b is K → K·a·b.
            let fine = ShardPlan::RoundRobin { shards: k }.refine(factor).unwrap();
            assert_eq!(fine.refine(2).unwrap().shards(), k * factor * 2);
        }
        assert!(matches!(
            ShardPlan::RoundRobin { shards: 2 }.refine(0),
            Err(SketchError::BadConfig(_))
        ));
        assert!(matches!(
            ShardPlan::Blocks { shards: 2 }.refine(2),
            Err(SketchError::BadConfig(_))
        ));
        assert!(matches!(
            ShardPlan::Hash { shards: 2, seed: 1 }.refine(2),
            Err(SketchError::BadConfig(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The slot transform pair is exact on exact moments: each
        /// shard's exact `(n, Σ, Σ²)` through [`mean_slots`] then
        /// [`weighted_moments`], merged in shard order and finished,
        /// is the whole-table AVG and STD to 1e-9 relative under every
        /// plan — including on ranges empty on some shards, which a
        /// one-row range is whenever K ≥ 2.
        #[test]
        fn mean_slots_recombine_exact_moments_under_every_plan(
            rows in 2usize..150,
            data_seed in 0u64..1_000,
            shards in 1usize..6,
            plan_tag in 0usize..3,
            ranges in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.6), 1..12),
            pick in 0usize..1_000,
        ) {
            let data = uniform(rows, 3, data_seed);
            let shards = shards.min(rows);
            let plan = match plan_tag {
                0 => ShardPlan::RoundRobin { shards },
                1 => ShardPlan::Blocks { shards },
                _ => ShardPlan::Hash { shards, seed: data_seed },
            };
            let tables = plan.split(&data);
            let engines: Vec<QueryEngine<'_>> = tables
                .iter()
                .filter(|t| t.rows() > 0)
                .map(|t| QueryEngine::new(t, 2))
                .collect();
            let whole = QueryEngine::new(&data, 2);
            let pred = query::predicate::Range::new(vec![0, 1], 3).unwrap();
            let row = data.row(pick % rows);
            let mut queries: Vec<Vec<f64>> =
                ranges.iter().map(|&(c0, c1, r0, r1)| vec![c0, c1, r0, r1]).collect();
            queries.push(vec![row[0], row[1], 1e-9, 1e-9]);
            let mut partly_empty = 0;
            for q in &queries {
                let per_shard: Vec<Moments> = engines.iter().map(|e| e.moments(&pred, q)).collect();
                if per_shard.iter().any(|m| m.n == 0.0) && per_shard.iter().any(|m| m.n > 0.0) {
                    partly_empty += 1;
                }
                let gathered = per_shard
                    .iter()
                    .map(|m| weighted_moments(mean_slots(*m)))
                    .fold(Moments::ZERO, Moments::merge);
                for agg in [Aggregate::Avg, Aggregate::Std] {
                    let got = finish_guarded(agg, gathered);
                    let exact = whole.answer(&pred, agg, q);
                    prop_assert!(
                        (got - exact).abs() <= 1e-9 * exact.abs(),
                        "{} under {:?}, query {:?}: gathered {} vs exact {}",
                        agg.name(), plan, q, got, exact
                    );
                }
            }
            prop_assert!(engines.len() < 2 || partly_empty > 0, "no range was empty on a shard");
        }

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

    #[test]
    fn plan_validation_rejects_degenerate_configs() {
        assert!(ShardPlan::RoundRobin { shards: 0 }.validate(10).is_err());
        assert!(ShardPlan::RoundRobin { shards: 11 }.validate(10).is_err());
        assert!(ShardPlan::RoundRobin { shards: 10 }.validate(10).is_ok());
    }

    /// A hash plan can pass the pigeonhole pre-check yet leave a shard
    /// dry on a small table; the build must refuse rather than train a
    /// constant-zero sketch for the empty shard.
    #[test]
    fn build_rejects_hash_plan_with_an_empty_shard() {
        let (data, wl) = setup(6, 20);
        // Find a seed whose placement leaves some shard empty (common
        // for 6 rows into 4 shards); deterministic once found.
        let seed = (0..u64::MAX)
            .find(|&seed| {
                ShardPlan::Hash { shards: 4, seed }
                    .assignment(6)
                    .iter()
                    .any(Vec::is_empty)
            })
            .expect("some seed leaves a shard empty");
        let plan = ShardPlan::Hash { shards: 4, seed };
        assert!(plan.validate(6).is_ok(), "pre-check alone cannot see it");
        let err = build_sharded(
            &data,
            1,
            &plan,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, SketchError::BadConfig(m) if m.contains("no rows")),
            "got {err:?}"
        );
    }

    #[test]
    fn split_preserves_rows_and_order() {
        let (data, _) = setup(50, 40);
        let plan = ShardPlan::Blocks { shards: 3 };
        let parts = plan.split(&data);
        assert_eq!(parts.iter().map(Dataset::rows).sum::<usize>(), 50);
        // Blocks keeps original order: first shard's first row is row 0.
        assert_eq!(parts[0].row(0), data.row(0));
    }

    #[test]
    fn median_is_rejected() {
        let (data, wl) = setup(60, 30);
        let err = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Median,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, SketchError::BadConfig(_)));
    }

    /// Gathered COUNT is bitwise the shard-order sum of the per-shard
    /// sketch answers; the batched scatter path, the single-query path,
    /// and a manual fold all agree exactly.
    #[test]
    fn gathered_count_is_bitwise_sum_of_shard_answers() {
        let (data, wl) = setup(600, 160);
        let plan = ShardPlan::Hash { shards: 3, seed: 1 };
        let (sharded, report) = build_sharded(
            &data,
            1,
            &plan,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        assert_eq!(report.models_trained, 3);
        assert_eq!(report.shard_rows.iter().sum::<usize>(), 600);
        // The scatter path must recombine bitwise like the per-query
        // oracle at any thread count, on the workload and on one batch
        // long enough to cross the per-model sub-batch bound twice.
        let reps = (2 * MAX_SUB_BATCH + 1) / wl.queries.len() + 1;
        let long = vec![&wl.queries[..]; reps].concat();
        assert!(long.len() > 2 * MAX_SUB_BATCH + 1);
        let oracle: Vec<f64> = wl.queries.iter().map(|q| sharded.answer(q)).collect();
        for (q, a) in wl.queries.iter().zip(&oracle) {
            let manual: f64 = sharded
                .shards()
                .iter()
                .map(|s| s.model(MomentKind::Count).unwrap().answer(q))
                .fold(0.0, |acc, v| acc + v);
            assert_eq!(a.to_bits(), manual.to_bits());
        }
        for threads in [1, 2, 3, 4, 7] {
            let server = ShardedServer::new(
                sharded.clone(),
                ServeOptions {
                    threads,
                    active_attrs: None,
                },
            );
            for batch in [&wl.queries, &long] {
                let (answers, stats) = server.answer_batch(batch);
                assert_eq!(stats.queries, batch.len());
                for (i, a) in answers.iter().enumerate() {
                    let expect = oracle[i % wl.queries.len()];
                    assert_eq!(a.to_bits(), expect.to_bits(), "threads={threads} query {i}");
                }
            }
        }
    }

    /// SUM/AVG/STD gather is an ulp-exact recombination of the per-shard
    /// moment predictions via (n, Σ, Σ²).
    #[test]
    fn gathered_moment_aggregates_recombine_exactly() {
        let (data, wl) = setup(500, 120);
        let plan = ShardPlan::RoundRobin { shards: 2 };
        for agg in [Aggregate::Sum, Aggregate::Avg, Aggregate::Std] {
            let (sharded, _) = build_sharded(
                &data,
                1,
                &plan,
                &wl.predicate,
                agg,
                &wl.queries,
                &small_cfg(),
            )
            .unwrap();
            let server = ShardedServer::new(sharded.clone(), ServeOptions::default());
            let (answers, _) = server.answer_batch(&wl.queries);
            for (q, a) in wl.queries.iter().zip(&answers) {
                // Manual recombination from the per-shard component
                // models, merged in shard order exactly as gather does.
                let mut scratch = BatchScratch::default();
                let total = sharded
                    .shards()
                    .iter()
                    .map(|s| s.moments_batch_with(&mut scratch, QueryBatch::new(q, 2))[0])
                    .fold(Moments::ZERO, Moments::merge);
                // Mirror finish_guarded's documented near-empty guard.
                let manual = if matches!(agg, Aggregate::Avg | Aggregate::Std) && total.n < 0.5 {
                    0.0
                } else {
                    total.finish(agg).unwrap()
                };
                let ulps = 4.0 * f64::EPSILON * (1.0 + manual.abs());
                assert!(
                    (*a - manual).abs() <= ulps,
                    "{}: {a} vs {manual}",
                    agg.name()
                );
            }
        }
    }

    /// A single-shard deployment is the monolithic build at the
    /// partition count of [`component_partitions`]: same data, same
    /// labels, same seed — bitwise-identical answers.
    #[test]
    fn k1_matches_monolithic_build_bitwise() {
        let (data, wl) = setup(400, 100);
        let cfg = small_cfg();
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 1 },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .unwrap();
        let engine = QueryEngine::new(&data, 1);
        let labels = engine.label_batch(&wl.predicate, Aggregate::Count, &wl.queries, 1);
        let mut mono_cfg = cfg.clone();
        mono_cfg.seed = cfg.seed.wrapping_add(super::splitmix64(1));
        mono_cfg.target_partitions = component_partitions(cfg.target_partitions, wl.queries.len());
        let (mono, _) = NeuroSketch::build_from_labeled(&wl.queries, &labels, &mono_cfg).unwrap();
        for q in wl.queries.iter().take(25) {
            assert_eq!(sharded.answer(q), mono.answer(q));
        }
        // The equivalence survives quantization: a k=1 i8 deployment
        // answers bitwise like the i8-quantized monolithic sketch, both
        // directly and through the serving front.
        let sharded_i8 = sharded.quantized_to(QuantMode::I8);
        let mono_i8 = mono.quantized_to(QuantMode::I8);
        let server = ShardedServer::new(sharded_i8.clone(), ServeOptions::default());
        let (served, _) = server.answer_batch(&wl.queries);
        for (q, s) in wl.queries.iter().zip(&served).take(25) {
            assert_eq!(sharded_i8.answer(q), mono_i8.answer(q));
            assert_eq!(*s, mono_i8.answer(q));
        }
    }

    /// Regression pin: on the paper's uniform workload, scatter/gather
    /// over 4 shards answers about as accurately as the monolithic
    /// sketch (deterministic builds, so the bounds cannot flake).
    /// Measured sharded / monolithic nmae, the shard components at the
    /// one partition [`component_partitions`] gives 300 queries and the
    /// monolithic sketch at its configured 2: COUNT 0.1852 / 0.2280;
    /// AVG 0.0382 / 0.0427 and STD 0.0401 / 0.0310 with the
    /// count-weighted mean slots. Dividing merged predicted sums instead
    /// scored AVG 0.1259 and STD 0.2610 at 2 partitions, which both
    /// bounds refuse.
    #[test]
    fn sharded_error_tracks_monolithic_on_paper_workload() {
        let (data, wl) = setup(2_000, 300);
        let engine = QueryEngine::new(&data, 1);
        let cfg = small_cfg();
        for agg in [Aggregate::Count, Aggregate::Avg, Aggregate::Std] {
            let truths: Vec<f64> = wl
                .queries
                .iter()
                .map(|q| engine.answer(&wl.predicate, agg, q))
                .collect();
            let labels = engine.label_batch(&wl.predicate, agg, &wl.queries, 2);
            let (mono, _) = NeuroSketch::build_from_labeled(&wl.queries, &labels, &cfg).unwrap();
            let mono_preds: Vec<f64> = wl.queries.iter().map(|q| mono.answer(q)).collect();
            let mono_err = normalized_mae(&truths, &mono_preds);

            let (sharded, _) = build_sharded(
                &data,
                1,
                &ShardPlan::RoundRobin { shards: 4 },
                &wl.predicate,
                agg,
                &wl.queries,
                &cfg,
            )
            .unwrap();
            let server = ShardedServer::new(sharded, ServeOptions::default());
            let (preds, _) = server.answer_batch(&wl.queries);
            let sharded_err = normalized_mae(&truths, &preds);
            let bound = match agg {
                Aggregate::Count => (3.0 * mono_err).max(0.25),
                Aggregate::Avg => 1.25 * mono_err,
                _ => 2.0 * mono_err,
            };
            assert!(
                sharded_err <= bound,
                "{}: sharded NMAE {sharded_err} vs monolithic {mono_err}",
                agg.name()
            );
        }
    }

    #[test]
    fn component_partitions_follow_the_sample_budget() {
        assert_eq!(component_partitions(8, 100), 1);
        assert_eq!(component_partitions(8, 999), 1);
        assert_eq!(component_partitions(8, 1_000), 2);
        assert_eq!(component_partitions(8, 5_000), 8);
        assert_eq!(component_partitions(8, 50_000), 8);
        assert_eq!(component_partitions(2, 5_000), 2);
    }

    /// The accuracy gate of [`component_partitions`]: sharded AVG over
    /// `Pm`'s columns 1 and 2 (the benchmark's fixture at a tenth of its
    /// rows, 2 shards), 1 000 training queries, scored on 1 000 it never
    /// saw. The rule's 2 partitions a component against the 8 every
    /// component had before — built here the way `build_shard_sketch`
    /// built them then, seeds and labels included.
    #[test]
    fn sized_partitions_beat_eight_on_held_out_sharded_avg() {
        let (data, _) = datagen::PaperDataset::Pm.generate(0.1, 3).normalized();
        let measure = datagen::PaperDataset::Pm.measure_column();
        let queries = |count, seed| {
            let wl = Workload::generate(&WorkloadConfig {
                dims: 4,
                active: ActiveMode::Fixed(vec![1, 2]),
                range: RangeMode::Uniform,
                count,
                seed,
            });
            wl.unwrap()
        };
        let (train, held_out) = (queries(1_000, 4), queries(1_000, 5));
        let pred = &train.predicate;
        let truths = QueryEngine::new(&data, measure).label_batch(
            pred,
            Aggregate::Avg,
            &held_out.queries,
            1,
        );
        let plan = ShardPlan::RoundRobin { shards: 2 };
        let mut cfg = NeuroSketchConfig {
            threads: 2,
            ..NeuroSketchConfig::default()
        };
        cfg.train.epochs = 40;
        cfg.train.patience = 0;
        assert_eq!(component_partitions(cfg.target_partitions, 1_000), 2);
        let nmae = |sketch: ShardedSketch| {
            let server = ShardedServer::new(sketch, ServeOptions::default());
            normalized_mae(&truths, &server.answer_batch(&held_out.queries).0)
        };

        let (ruled, _) = build_sharded(
            &data,
            measure,
            &plan,
            pred,
            Aggregate::Avg,
            &train.queries,
            &cfg,
        )
        .unwrap();
        assert!(ruled.shards().iter().all(|s| {
            let model = |kind| s.model(kind).unwrap().partitions();
            model(MomentKind::Count) == 2 && model(MomentKind::Sum) == 2
        }));
        let eight = plan
            .split(&data)
            .iter()
            .enumerate()
            .map(|(shard, table)| {
                let engine = QueryEngine::new(table, measure);
                let moments = engine.label_moments_batch(pred, &train.queries, 1);
                let mut models: [Option<NeuroSketch>; 3] = [None, None, None];
                for kind in Aggregate::Avg.required_moments().unwrap() {
                    let labels: Vec<f64> = moments
                        .iter()
                        .map(|m| mean_slots(*m).component(*kind))
                        .collect();
                    let mut component_cfg = cfg.clone();
                    component_cfg.threads = 1;
                    component_cfg.seed = cfg
                        .seed
                        .wrapping_add(splitmix64((shard * 3 + kind.slot()) as u64 + 1));
                    let (sketch, _) =
                        NeuroSketch::build_from_labeled(&train.queries, &labels, &component_cfg)
                            .unwrap();
                    assert_eq!(sketch.partitions(), 8);
                    models[kind.slot()] = Some(sketch);
                }
                ShardSketch::from_models(models)
            })
            .collect();
        let eight = ShardedSketch::from_parts(plan, Aggregate::Avg, eight);

        let (new, old) = (nmae(ruled), nmae(eight));
        // Measured: rule 0.2357, 8 partitions 0.2546.
        assert!(
            new < old,
            "held-out sharded AVG nMAE: rule {new}, 8 partitions {old}"
        );
    }

    #[test]
    fn empty_batch_and_single_query() {
        let (data, wl) = setup(200, 60);
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::Blocks { shards: 2 },
            &wl.predicate,
            Aggregate::Sum,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        let server = ShardedServer::new(sharded, ServeOptions::default());
        let (answers, stats) = server.answer_batch(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.queries, 0);
        let one = server.sketch().answer(&wl.queries[0]);
        assert_eq!(one, server.answer_batch(&wl.queries[..1]).0[0]);
    }

    /// AVG/STD gather must not divide by a near-zero *predicted* count:
    /// below half a row the empty-range convention wins, so noise like
    /// n̂ = 0.004 cannot explode into an arbitrary ratio, and a shard's
    /// negative n̂ is clamped to 0 before it weighs that shard's means.
    #[test]
    fn gather_clamps_near_empty_predicted_counts() {
        let (data, wl) = setup(200, 60);
        for agg in [Aggregate::Avg, Aggregate::Std] {
            let (sharded, _) = build_sharded(
                &data,
                1,
                &ShardPlan::RoundRobin { shards: 2 },
                &wl.predicate,
                agg,
                &wl.queries,
                &small_cfg(),
            )
            .unwrap();
            let tiny = Moments {
                n: 0.004,
                s: 0.02,
                s2: 0.01,
            };
            assert_eq!(sharded.finish_guarded(tiny), 0.0, "{}", agg.name());
            let negative = Moments {
                n: -0.02,
                s: 0.5,
                s2: 0.2,
            };
            assert_eq!(sharded.finish_guarded(negative), 0.0);
            // A shard's negative predicted count weighs its means by 0.
            assert_eq!(weighted_moments(negative), Moments::ZERO);
            // Above the threshold the ratio is served untouched.
            let real = Moments {
                n: 3.0,
                s: 6.0,
                s2: 14.0,
            };
            assert_eq!(sharded.finish_guarded(real), real.finish(agg).unwrap());
        }
        // COUNT/SUM never divide, so they pass through unclamped.
        let (counted, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        let tiny = Moments {
            n: 0.004,
            s: 0.0,
            s2: 0.0,
        };
        assert_eq!(counted.finish_guarded(tiny), 0.004);
    }

    #[test]
    fn quantized_deployment_is_idempotent_and_close() {
        let (data, wl) = setup(300, 80);
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Avg,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        let q1 = sharded.quantized();
        assert_eq!(q1.param_count(), sharded.param_count());
        // 2 bytes per parameter: every component is stored at F16.
        assert!(sharded.artifact_bytes() >= sharded.param_count() * 2);
        assert!(sharded.artifact_bytes() < sharded.param_count() * 4);
        for q in wl.queries.iter().take(10) {
            let (a, b) = (sharded.answer(q), q1.answer(q));
            assert!((a - b).abs() <= 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
            assert_eq!(q1.answer(q), q1.quantized().answer(q));
        }
    }
}
