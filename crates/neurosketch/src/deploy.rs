//! One serving surface for every deployment shape.
//!
//! *Anything that answers query batches* — a bare [`NeuroSketch`], the
//! monolithic [`SketchServer`](crate::serve::SketchServer), the
//! scatter/gather [`ShardedServer`], the answer front
//! ([`crate::cache::CachedDeployment`]) over any of them, or the
//! hot-swappable [`LiveDeployment`] handle — is a [`Deployment`]: it
//! exposes the same methods and reports the same per-batch tally
//! ([`DeployStats`], the one count of where answers came from, cache
//! hits and misses included), so routers, benches, examples and
//! [`crate::maintenance`] are written once, against the trait.
//!
//! A batch crosses every layer in one shape, [`QueryBatch`]: the
//! coordinates laid end to end, `dims` per query. Row-form callers
//! (`&[Vec<f64>]`) go through [`Deployment::answer_batch`] /
//! [`Deployment::moments_batch`], which flatten once at the top.
//!
//! [`LiveDeployment`] adds the piece live maintenance needs: an owning
//! handle whose inner deployment can be **atomically swapped** (or
//! reloaded from a refreshed NSKM manifest) while batches are in
//! flight. Every trait call takes one snapshot of the current
//! (deployment, generation) pair and serves the whole batch from it, so
//! answers before a swap come from generation `G`, answers after from
//! `G + 1`, and no batch ever blends the two.
//!
//! ```
//! use neurosketch::deploy::{Deployment, LiveDeployment};
//! use neurosketch::{NeuroSketch, NeuroSketchConfig};
//!
//! let queries: Vec<Vec<f64>> = (0..120)
//!     .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
//!     .collect();
//! let labels: Vec<f64> = queries.iter().map(|q| 3.0 * q[0] + q[1]).collect();
//! let mut cfg = NeuroSketchConfig::small();
//! cfg.train.epochs = 10;
//! let (sketch, _) = NeuroSketch::build_from_labeled(&queries, &labels, &cfg).unwrap();
//!
//! // A bare sketch is already a Deployment...
//! let (answers, stats) = Deployment::answer_batch(&sketch, &queries);
//! assert_eq!(stats.queries, queries.len());
//!
//! // ...and a LiveDeployment serves it behind a swappable handle.
//! let live = LiveDeployment::new(sketch, 0);
//! assert_eq!(live.answer_batch(&queries).0, answers);
//! assert_eq!(live.describe().generation, Some(0));
//! ```

use crate::shard::ShardedServer;
use crate::sketch::NeuroSketch;
use query::aggregate::Moments;
use std::sync::{Arc, RwLock};

/// A borrowed batch of queries, flat: query `i` is
/// `data[i * dims..(i + 1) * dims]`. The input of every serving layer
/// from the wire server's drained queues down to the GEMM gather; its
/// shape is checked once, when it is built.
#[derive(Debug, Clone, Copy)]
pub struct QueryBatch<'a> {
    data: &'a [f64],
    dims: usize,
}

impl<'a> QueryBatch<'a> {
    /// `data` read as consecutive queries of `dims` coordinates.
    ///
    /// # Panics
    /// Panics if `data` is not a whole number of `dims`-wide rows (with
    /// `dims == 0`, only an empty `data` is).
    pub fn new(data: &'a [f64], dims: usize) -> QueryBatch<'a> {
        assert!(
            data.len().checked_rem(dims).unwrap_or(data.len()) == 0,
            "{} coordinates are not a whole number of {dims}-wide queries",
            data.len()
        );
        QueryBatch { data, dims }
    }

    /// Queries in the batch.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dims).unwrap_or(0)
    }

    /// Whether the batch holds no query.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Coordinates per query.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Query `i`.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// The queries, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'a, f64> {
        self.data.chunks_exact(self.dims.max(1))
    }

    /// Consecutive sub-batches of at most `rows` queries.
    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = QueryBatch<'a>> {
        let dims = self.dims;
        let step = rows.max(1) * dims.max(1);
        self.data
            .chunks(step)
            .map(move |data| QueryBatch { data, dims })
    }
}

/// The two forms a batch arrives in — flat, or one `Vec` per query — for
/// the entry points that take either.
pub trait Queries {
    /// Hand the batch to `f` as a [`QueryBatch`]. Row form is flattened
    /// here: the one place a serving path converts rows.
    ///
    /// # Panics
    /// Panics on ragged rows, naming the first row whose width differs
    /// from row 0's, and on rows without coordinates.
    fn with_flat<R>(self, f: impl FnOnce(QueryBatch<'_>) -> R) -> R;
}

impl Queries for QueryBatch<'_> {
    fn with_flat<R>(self, f: impl FnOnce(QueryBatch<'_>) -> R) -> R {
        f(self)
    }
}

impl Queries for &[Vec<f64>] {
    fn with_flat<R>(self, f: impl FnOnce(QueryBatch<'_>) -> R) -> R {
        let dims = self.first().map_or(0, Vec::len);
        assert!(
            dims > 0 || self.is_empty(),
            "query rows have no coordinates"
        );
        let mut data = Vec::with_capacity(self.len() * dims);
        for (i, q) in self.iter().enumerate() {
            assert!(
                q.len() == dims,
                "ragged query batch: row {i} has {} coordinates, row 0 has {dims}",
                q.len()
            );
            data.extend_from_slice(q);
        }
        f(QueryBatch::new(&data, dims))
    }
}

/// The one per-batch tally, and the one count of where answers came
/// from: every serving layer — both servers, the cache front, the live
/// handle, the wire server's [`crate::net::NetBatch`] and its cumulative
/// [`crate::net::NetStats::deploy`] — fills and returns this type, and
/// no layer keeps a second count of the same events (the cache's own
/// [`crate::cache::CacheStats`] is occupancy and eviction only). Every
/// query is counted exactly once by where its answer came from:
/// `queries == sketch + exact_small_range + exact_hard_leaf +
/// cache_hits + dedup_hits`; behind a front, every miss was computed:
/// `cache_misses == sketch + exact_small_range + exact_hard_leaf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeployStats {
    /// Queries answered.
    pub queries: usize,
    /// Queries answered by a sketch forward pass.
    pub sketch: usize,
    /// Queries sent to the exact engine by the DQD range rule.
    pub exact_small_range: usize,
    /// Queries sent to the exact engine by the DQD complexity rule.
    pub exact_hard_leaf: usize,
    /// Queries answered from the generation-keyed answer cache
    /// ([`crate::cache`]); 0 when the serving path has no front.
    pub cache_hits: usize,
    /// Cache lookups that fell through to compute (these queries are
    /// also tallied under `sketch` / `exact_*` by where they were then
    /// computed); 0 when the serving path has no front.
    pub cache_misses: usize,
    /// Queries collapsed onto a bitwise-identical query in the same
    /// batch by the front; they inherit their representative's bits.
    pub dedup_hits: usize,
}

/// Fold another batch's tally in: every count adds.
impl std::ops::AddAssign for DeployStats {
    fn add_assign(&mut self, other: DeployStats) {
        self.queries += other.queries;
        self.sketch += other.sketch;
        self.exact_small_range += other.exact_small_range;
        self.exact_hard_leaf += other.exact_hard_leaf;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.dedup_hits += other.dedup_hits;
    }
}

/// Which serving stack a [`Deployment`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeployKind {
    /// One sketch over the whole table; units are kd-tree partitions.
    Monolithic,
    /// Scatter/gather over data shards; units are shards.
    Sharded,
    /// Replicated scatter/gather over shard groups
    /// ([`crate::cluster::Cluster`]); units are shard groups.
    Replicated,
}

/// What a [`Deployment`] is serving — the `describe` surface monitoring
/// and operator tooling read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentInfo {
    /// The serving stack.
    pub kind: DeployKind,
    /// Refreshable units: kd-tree partitions (monolithic) or data
    /// shards (sharded) — the granularity [`crate::maintenance`]'s
    /// partial refresh operates at.
    pub units: usize,
    /// Total trainable parameters across the deployed models.
    pub param_count: usize,
    /// NSKM manifest generation, when served behind a
    /// [`LiveDeployment`] handle or a cache front keyed to one (the
    /// handle refuses a front keyed to another); `None` for a bare
    /// deployment.
    pub generation: Option<u64>,
}

impl std::fmt::Display for DeploymentInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DeployKind::Monolithic => "monolithic",
            DeployKind::Sharded => "sharded",
            DeployKind::Replicated => "replicated",
        };
        let unit = match self.kind {
            DeployKind::Monolithic => "partition",
            DeployKind::Sharded => "shard",
            DeployKind::Replicated => "shard group",
        };
        write!(
            f,
            "{kind} ({} {unit}{}, {} params",
            self.units,
            if self.units == 1 { "" } else { "s" },
            self.param_count
        )?;
        if let Some(g) = self.generation {
            write!(f, ", gen {g}")?;
        }
        write!(f, ")")
    }
}

/// A deployed NeuroSketch of any shape, behind one batched serving
/// surface.
///
/// Implementations: a bare [`NeuroSketch`] (every query takes the
/// forward pass), a routed [`crate::serve::SketchServer`] (DQD rules may
/// divert queries to its exact backend), a scatter/gather
/// [`ShardedServer`], a cluster's [`crate::cluster::ClusterReplicaView`],
/// the answer front [`crate::cache::CachedDeployment`] and the
/// hot-swappable [`LiveDeployment`] handle over any of them. Write batch
/// consumers — benches, examples, drift checks — against
/// `&dyn Deployment`, not a concrete server.
pub trait Deployment: Send + Sync {
    /// Answer a batch of queries. Answers come back in input order; the
    /// tally says where they came from.
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats);

    /// The predicted `(n, Σ, Σ²)` per query, for deployments that model
    /// moment components (sharded: the gathered cross-shard merge).
    /// `None` when the deployment predicts the aggregate directly and
    /// has no moment decomposition to offer (monolithic sketches).
    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>>;

    /// What is deployed: stack, refreshable units, parameter count, and
    /// (behind a live handle) the manifest generation.
    fn describe(&self) -> DeploymentInfo;

    /// [`Deployment::answer_flat`] of row-form queries, flattened once
    /// ([`Queries::with_flat`], which panics on a ragged batch).
    fn answer_batch(&self, queries: &[Vec<f64>]) -> (Vec<f64>, DeployStats) {
        queries.with_flat(|batch| self.answer_flat(batch))
    }

    /// [`Deployment::moments_flat`] of row-form queries, flattened once
    /// ([`Queries::with_flat`], which panics on a ragged batch).
    fn moments_batch(&self, queries: &[Vec<f64>]) -> Option<Vec<Moments>> {
        queries.with_flat(|batch| self.moments_flat(batch))
    }
}

/// A shared handle serves exactly like the deployment it points to —
/// lets one server sit behind several wrappers at once (e.g. a
/// [`crate::cache::CachedDeployment`] per generation over one compute
/// engine).
impl<T: Deployment + ?Sized> Deployment for Arc<T> {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        (**self).answer_flat(batch)
    }

    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        (**self).moments_flat(batch)
    }

    fn describe(&self) -> DeploymentInfo {
        (**self).describe()
    }
}

impl Deployment for NeuroSketch {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        let answers = self.answer_batch_with(&mut Default::default(), batch);
        let stats = DeployStats {
            queries: batch.len(),
            sketch: batch.len(),
            ..DeployStats::default()
        };
        (answers, stats)
    }

    fn moments_flat(&self, _batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        None
    }

    fn describe(&self) -> DeploymentInfo {
        DeploymentInfo {
            kind: DeployKind::Monolithic,
            units: self.partitions(),
            param_count: self.param_count(),
            generation: None,
        }
    }
}

/// One immutable (deployment, generation) pair — the unit a
/// [`LiveDeployment`] snapshot hands out.
struct LiveState {
    deployment: Box<dyn Deployment>,
    generation: u64,
}

/// An owning, hot-swappable [`Deployment`] handle.
///
/// Serving processes hold the `LiveDeployment`; maintenance swaps what
/// is behind it. Each trait call clones an [`Arc`] snapshot of the
/// current state under a brief read lock and serves the **whole batch**
/// from that snapshot, so:
///
/// * [`LiveDeployment::swap`] never blocks in-flight batches — they
///   finish on the generation they started on;
/// * a batch is always answered by exactly one generation, never a
///   blend of pre- and post-swap models;
/// * [`Deployment::describe`] reports the generation the *next* batch
///   will be served by.
///
/// [`LiveDeployment::reload_sharded`] is the artifact-side entry point:
/// point it at a (possibly partially) refreshed NSKM manifest and the
/// handle atomically becomes that generation.
pub struct LiveDeployment {
    state: RwLock<Arc<LiveState>>,
}

impl LiveState {
    fn new(deployment: impl Deployment + 'static, generation: u64) -> Arc<LiveState> {
        if let Some(own) = deployment.describe().generation {
            assert!(
                own == generation,
                "deployment states generation {own} but is stamped generation {generation}"
            );
        }
        Arc::new(LiveState {
            deployment: Box::new(deployment),
            generation,
        })
    }
}

impl LiveDeployment {
    /// Serve `deployment` as generation `generation`.
    ///
    /// # Panics
    /// Panics if `deployment` states another generation of its own: a
    /// [`crate::cache::CachedDeployment`] keyed to generation `G` would
    /// serve `G`'s cached answers under this stamp.
    pub fn new(deployment: impl Deployment + 'static, generation: u64) -> LiveDeployment {
        LiveDeployment {
            state: RwLock::new(LiveState::new(deployment, generation)),
        }
    }

    /// Atomically replace the served deployment. Batches already in
    /// flight finish on the old generation; every batch started after
    /// the swap sees the new one. Returns the generation that was
    /// replaced. Panics as [`LiveDeployment::new`] does.
    pub fn swap(&self, deployment: impl Deployment + 'static, generation: u64) -> u64 {
        let next = LiveState::new(deployment, generation);
        let mut guard = self.state.write().expect("live deployment lock");
        std::mem::replace(&mut *guard, next).generation
    }

    /// Load a sharded deployment from its NSKM manifest and swap it in,
    /// serving it with `opts`. The new generation is the manifest's —
    /// after a partial refresh ([`crate::persist::save_refreshed`])
    /// that is the old generation + 1. Returns the now-live generation.
    pub fn reload_sharded(
        &self,
        manifest_path: impl AsRef<std::path::Path>,
        opts: crate::serve::ServeOptions,
    ) -> Result<u64, crate::persist::PersistError> {
        // One read, one decode: the loaded shards and the generation
        // come from the *same* manifest bytes, so a refresh landing
        // concurrently can never make the handle serve one generation's
        // models under another's number.
        let (sketch, manifest) = crate::persist::load_sharded_with_manifest(manifest_path)?;
        self.swap(ShardedServer::new(sketch, opts), manifest.generation);
        Ok(manifest.generation)
    }

    /// The generation the next batch will be served by.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// [`Deployment::answer_batch`] plus the generation that answered:
    /// the answers and the stamp come from **one** snapshot, so a swap
    /// landing concurrently can never tag generation `G`'s answers with
    /// `G + 1` (or vice versa). This is the serving surface
    /// [`crate::net`] stamps every response frame from — the
    /// batch-level guarantee behind its never-blend-generations
    /// contract. Takes the batch in either form ([`Queries`]).
    pub fn answer_batch_tagged(&self, queries: impl Queries) -> (Vec<f64>, DeployStats, u64) {
        let state = self.snapshot();
        let (answers, stats) = queries.with_flat(|batch| state.deployment.answer_flat(batch));
        (answers, stats, state.generation)
    }

    /// Clone the current state under a brief read lock; the caller then
    /// works lock-free on the snapshot.
    fn snapshot(&self) -> Arc<LiveState> {
        self.state.read().expect("live deployment lock").clone()
    }
}

impl Deployment for LiveDeployment {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        self.snapshot().deployment.answer_flat(batch)
    }

    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        self.snapshot().deployment.moments_flat(batch)
    }

    fn describe(&self) -> DeploymentInfo {
        let state = self.snapshot();
        DeploymentInfo {
            generation: Some(state.generation),
            ..state.deployment.describe()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{DqdRouter, RoutingPolicy};
    use crate::serve::{ExactBackend, ServeOptions, SketchServer};
    use crate::shard::{build_sharded, ShardPlan};
    use crate::sketch::NeuroSketchConfig;
    use datagen::simple::uniform;
    use query::aggregate::Aggregate;
    use query::exec::QueryEngine;
    use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

    fn setup() -> (datagen::Dataset, Workload) {
        let data = uniform(800, 2, 3);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 160,
            seed: 7,
        })
        .unwrap();
        (data, wl)
    }

    fn cfg() -> NeuroSketchConfig {
        let mut cfg = NeuroSketchConfig::small();
        cfg.train.epochs = 10;
        cfg
    }

    /// The tally counts every query once, by where its answer came
    /// from, and without a front no front count moves.
    fn assert_tally_adds_up(d: &dyn Deployment, queries: &[Vec<f64>]) {
        // The same batch twice, a batch of in-batch repeats, and the
        // empty batch.
        let doubled: Vec<Vec<f64>> = queries.iter().chain(queries).cloned().collect();
        for batch in [queries, queries, &doubled[..], &[]] {
            let (answers, s) = d.answer_batch(batch);
            assert_eq!(answers.len(), batch.len());
            assert_eq!(s.queries, batch.len());
            let computed = s.sketch + s.exact_small_range + s.exact_hard_leaf;
            assert_eq!(s.queries, computed + s.cache_hits + s.dedup_hits, "{s:?}");
            assert_eq!((s.cache_hits, s.cache_misses, s.dedup_hits), (0, 0, 0));
        }
    }

    /// Every implementation's row-form shims must agree bitwise with its
    /// flat methods on a batch flattened by hand (`concat`), the bare
    /// sketch's with its inherent batch path, and every tally must add
    /// up.
    #[test]
    fn trait_paths_match_inherent_paths() {
        let (data, wl) = setup();
        let engine = QueryEngine::new(&data, 1);
        let (sketch, report) = crate::NeuroSketch::build(
            &engine,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg(),
        )
        .unwrap();

        // Bare sketch.
        let inherent = sketch.answer_batch(&wl.queries);
        let (via_trait, stats) = Deployment::answer_batch(&sketch, &wl.queries);
        assert_eq!(via_trait, inherent);
        assert_eq!(stats.queries, wl.queries.len());
        assert_eq!(stats.sketch, wl.queries.len());
        assert!(Deployment::moments_batch(&sketch, &wl.queries).is_none());
        let info = Deployment::describe(&sketch);
        assert_eq!(info.kind, DeployKind::Monolithic);
        assert_eq!(info.units, sketch.partitions());
        assert_eq!(info.generation, None);
        let flat = wl.queries.concat();
        let batch = QueryBatch::new(&flat, 2);
        assert_eq!(batch.len(), wl.queries.len());
        assert_eq!(Deployment::answer_flat(&sketch, batch).0, inherent);
        assert_tally_adds_up(&sketch, &wl.queries);

        // Routed server.
        let router = DqdRouter::new(sketch.clone(), report.leaf_aqcs, RoutingPolicy::default());
        let server = SketchServer::new(router, ServeOptions::default());
        let flat_path = server.answer_flat(batch);
        let (via_trait, stats) = Deployment::answer_batch(&server, &wl.queries);
        assert_eq!(via_trait, flat_path.0);
        assert_eq!(
            via_trait, inherent,
            "no fallback: every query is the sketch's"
        );
        assert_eq!(stats, flat_path.1);
        assert_eq!(Deployment::describe(&server).kind, DeployKind::Monolithic);
        assert_tally_adds_up(&server, &wl.queries);

        // Routed server with the exact fallback live.
        let policy = RoutingPolicy {
            min_range_volume: 0.3,
            max_leaf_aqc: f64::INFINITY,
        };
        let routed = SketchServer::with_fallback(
            DqdRouter::new(sketch.clone(), server.router().leaf_aqcs().to_vec(), policy),
            ExactBackend {
                engine: &engine,
                predicate: &wl.predicate,
                aggregate: Aggregate::Count,
            },
            ServeOptions {
                active_attrs: Some(1),
                ..ServeOptions::default()
            },
        );
        assert!(routed.answer_batch(&wl.queries).1.exact_small_range > 0);
        assert_tally_adds_up(&routed, &wl.queries);

        // Sharded server.
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Avg,
            &wl.queries,
            &cfg(),
        )
        .unwrap();
        let server = crate::shard::ShardedServer::new(sharded, ServeOptions::default());
        let flat_path = server.answer_flat(batch);
        let (via_trait, stats) = Deployment::answer_batch(&server, &wl.queries);
        assert_eq!(via_trait, flat_path.0);
        assert_eq!(stats, flat_path.1);
        let moments = Deployment::moments_batch(&server, &wl.queries).expect("sharded has moments");
        let flat_moments = server.moments_flat(batch).expect("sharded has moments");
        assert_eq!(moments, flat_moments);
        for (m, a) in moments.iter().zip(&via_trait) {
            assert_eq!(server.sketch().finish_guarded(*m), *a);
        }
        let info = Deployment::describe(&server);
        assert_eq!((info.kind, info.units), (DeployKind::Sharded, 2));
        assert_tally_adds_up(&server, &wl.queries);

        // One replica column of a cluster over the same shards.
        let cluster = crate::cluster::Cluster::new(
            server.sketch(),
            1,
            0,
            crate::cluster::RoutePolicy::RoundRobin,
            crate::cluster::ClusterOptions::default(),
        )
        .unwrap();
        assert_tally_adds_up(&cluster.replica_view(0).unwrap(), &wl.queries);
    }

    /// A deployment that must never be reached: the shims' conversion
    /// refuses a malformed batch before any layer sees it.
    struct Unreachable;

    impl Deployment for Unreachable {
        fn answer_flat(&self, _: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
            unreachable!("a ragged batch reached the deployment")
        }

        fn moments_flat(&self, _: QueryBatch<'_>) -> Option<Vec<Moments>> {
            unreachable!("a ragged batch reached the deployment")
        }

        fn describe(&self) -> DeploymentInfo {
            unreachable!()
        }
    }

    fn ragged() -> Vec<Vec<f64>> {
        vec![vec![0.1, 0.2], vec![0.3, 0.4], vec![0.5], vec![0.6, 0.7]]
    }

    #[test]
    #[should_panic(expected = "ragged query batch: row 2 has 1 coordinates, row 0 has 2")]
    fn ragged_rows_panic_at_the_answer_shim() {
        Unreachable.answer_batch(&ragged());
    }

    #[test]
    #[should_panic(expected = "ragged query batch: row 2 has 1 coordinates, row 0 has 2")]
    fn ragged_rows_panic_at_the_moments_shim() {
        Unreachable.moments_batch(&ragged());
    }

    #[test]
    fn query_batch_shapes() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let batch = QueryBatch::new(&data, 2);
        assert_eq!((batch.len(), batch.dims()), (3, 2));
        assert_eq!(batch.row(1), &[3.0, 4.0]);
        let rows: Vec<&[f64]> = batch.rows().collect();
        assert_eq!(rows, [&data[..2], &data[2..4], &data[4..]]);
        let subs: Vec<usize> = batch.chunks(2).map(|b| b.len()).collect();
        assert_eq!(subs, [2, 1]);
        let empty = QueryBatch::new(&[], 0);
        assert_eq!((empty.len(), empty.rows().count()), (0, 0));
        assert!(empty.is_empty());
        assert_eq!(empty.chunks(4).count(), 0);
        let none: &[Vec<f64>] = &[];
        assert!(none.with_flat(|b| b.is_empty()));
        let result = std::panic::catch_unwind(|| QueryBatch::new(&data[..5], 2));
        assert!(result.is_err(), "a partial row must be refused");
    }

    #[test]
    fn tallies_add_field_by_field() {
        let mut total = DeployStats {
            queries: 3,
            sketch: 2,
            exact_hard_leaf: 1,
            ..DeployStats::default()
        };
        total += DeployStats {
            queries: 5,
            sketch: 1,
            exact_small_range: 1,
            cache_hits: 2,
            cache_misses: 2,
            dedup_hits: 1,
            ..DeployStats::default()
        };
        assert_eq!(
            total,
            DeployStats {
                queries: 8,
                sketch: 3,
                exact_small_range: 1,
                exact_hard_leaf: 1,
                cache_hits: 2,
                cache_misses: 2,
                dedup_hits: 1,
            }
        );
    }

    #[test]
    fn info_display_is_operator_readable() {
        let info = DeploymentInfo {
            kind: DeployKind::Sharded,
            units: 4,
            param_count: 1234,
            generation: Some(7),
        };
        assert_eq!(info.to_string(), "sharded (4 shards, 1234 params, gen 7)");
        let info = DeploymentInfo {
            kind: DeployKind::Monolithic,
            units: 1,
            param_count: 10,
            generation: None,
        };
        assert_eq!(info.to_string(), "monolithic (1 partition, 10 params)");
    }
}
