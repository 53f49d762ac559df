//! Throughput-oriented query serving.
//!
//! The paper's query-time story is a single forward pass; a production
//! deployment answers *streams* of queries. [`SketchServer`] turns a
//! loaded sketch (usually from an NSK2 artifact, [`crate::persist`])
//! into a batch-serving engine:
//!
//! * each incoming batch is sharded across the `par` worker pool, one
//!   reusable [`BatchScratch`]/exact-engine scratch per worker, so
//!   steady-state serving performs no per-query allocation and
//!   throughput scales with threads;
//! * within a shard every query is located **once** (one kd-tree
//!   descent into a dense partition id); that id feeds the wrapped
//!   [`DqdRouter`]'s DQD rules (Sec. 4.3) — too-small ranges and
//!   too-complex partitions go to the configured exact engine — and
//!   then a counting sort that groups the sketch-routed queries by
//!   partition;
//! * each group runs through its model's serving layout
//!   ([`nn::fused`]): a register-tiled `f32` forward pass — the
//!   precision the artifact stores — with bias and ReLU fused into the
//!   tile store, so batching pays even on a single core. There is one
//!   compute path, the one [`NeuroSketch::answer`](crate::NeuroSketch::answer)
//!   runs on a tile of one row; docs/serving.md describes it.
//!
//! Answers are **bitwise identical** to calling
//! [`NeuroSketch::answer`](crate::NeuroSketch::answer) (or the exact
//! engine) query-by-query, in input order, at any thread count — the
//! sharding and leaf-grouping change scheduling, not arithmetic. They
//! are the bits of the `f32` forward, not of the `f64` `Mlp::predict`
//! (docs/serving.md, "Determinism contract").
//!
//! A server computes what it is sent: caching and in-batch
//! deduplication live in exactly one place, the
//! [`CachedDeployment`](crate::cache::CachedDeployment) wrapper, and the
//! per-batch tally is the [`DeployStats`] every layer returns — the one
//! count of where answers came from (a server's cache counts stay 0).
//!
//! `SketchServer` fronts **one** sketch over the whole table; when the
//! data itself is partitioned across shards, [`crate::shard`] layers a
//! scatter/gather [`ShardedServer`](crate::shard::ShardedServer) over
//! per-shard deployments (persisted together via
//! [`crate::persist::save_sharded`]).
//!
//! ```
//! use neurosketch::serve::{ServeOptions, SketchServer};
//! use neurosketch::router::{DqdRouter, RoutingPolicy};
//! use neurosketch::{Deployment, NeuroSketch, NeuroSketchConfig};
//!
//! let queries: Vec<Vec<f64>> = (0..160)
//!     .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
//!     .collect();
//! let labels: Vec<f64> = queries.iter().map(|q| q[0] + q[1]).collect();
//! let mut cfg = NeuroSketchConfig::small();
//! cfg.train.epochs = 10;
//! let (sketch, report) = NeuroSketch::build_from_labeled(&queries, &labels, &cfg).unwrap();
//! let router = DqdRouter::new(sketch, report.leaf_aqcs, RoutingPolicy::default());
//! let server = SketchServer::new(router, ServeOptions::default());
//! let (answers, stats) = server.answer_batch(&queries);
//! assert_eq!(answers.len(), queries.len());
//! assert_eq!(stats.sketch, queries.len());
//! ```

use crate::deploy::{DeployStats, Deployment, DeploymentInfo, QueryBatch};
use crate::router::{range_volume, DqdRouter, Route};
use crate::sketch::{BatchScratch, NeuroSketch, NO_LEAF};
use query::aggregate::{Aggregate, Moments};
use query::exec::QueryEngine;
use query::predicate::PredicateFn;

/// Tuning knobs for a [`SketchServer`] — how a batch is *scheduled*
/// (threads) and which DQD rule inputs it has. None of them
/// selects a compute path: there is one (see the module docs), and
/// answers are bitwise identical under every setting. A server computes
/// what it is sent; caching and deduplication are
/// [`crate::cache::CachedDeployment`]'s job.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads a batch fans out across.
    pub threads: usize,
    /// Number of active attributes `k` whose `[c..., r...]` widths define
    /// the range volume for the router's range rule (Lemma 3.6). `None`
    /// skips the range rule (predicates without a meaningful volume).
    pub active_attrs: Option<usize>,
}

impl Default for ServeOptions {
    /// Four workers, range rule off.
    fn default() -> Self {
        ServeOptions {
            threads: 4,
            active_attrs: None,
        }
    }
}

/// Most queries one worker serves at once, and one model's GEMM call in
/// [`crate::shard`]'s scatter/gather: bounds per-worker scratch memory
/// on huge batches. Scheduling only — answers do not depend on it.
pub(crate) const MAX_SUB_BATCH: usize = 1024;

/// Where sketch-refused queries go: the exact engine plus the predicate
/// and aggregate it should evaluate (the same triple that labeled the
/// training workload).
pub struct ExactBackend<'a> {
    /// The exact oracle over the *current* data.
    pub engine: &'a QueryEngine<'a>,
    /// Predicate the served query vectors parameterize.
    pub predicate: &'a dyn PredicateFn,
    /// Aggregate function being served.
    pub aggregate: Aggregate,
}

/// A loaded sketch behind a concurrent, batch-oriented serving front.
pub struct SketchServer<'a> {
    router: DqdRouter,
    fallback: Option<ExactBackend<'a>>,
    opts: ServeOptions,
}

impl<'a> SketchServer<'a> {
    /// Serve a routed sketch with no exact backend. The router's policy
    /// is ignored (there is nowhere to fall back to): every query goes
    /// to the sketch.
    pub fn new(router: DqdRouter, opts: ServeOptions) -> SketchServer<'static> {
        SketchServer {
            router,
            fallback: None,
            opts,
        }
    }

    /// Serve with DQD routing live: queries the policy refuses are
    /// answered by `fallback` instead of the sketch.
    ///
    /// # Panics
    /// Panics if the fallback's predicate reads query vectors of another
    /// length than the sketch does — it would answer a different
    /// question, or index past the vector — or if
    /// [`ServeOptions::active_attrs`] asks the range rule for more
    /// `[c..., r...]` pairs than a query vector holds.
    pub fn with_fallback(
        router: DqdRouter,
        fallback: ExactBackend<'a>,
        opts: ServeOptions,
    ) -> SketchServer<'a> {
        let dim = router.sketch().query_dim();
        assert_eq!(
            fallback.predicate.query_dim(),
            dim,
            "fallback predicate and sketch disagree on the query dimension"
        );
        if let Some(k) = opts.active_attrs {
            assert!(
                2 * k <= dim,
                "active_attrs = {k} needs {} query dimensions, the sketch has {dim}",
                2 * k
            );
        }
        SketchServer {
            router,
            fallback: Some(fallback),
            opts,
        }
    }

    /// The served sketch.
    pub fn sketch(&self) -> &NeuroSketch {
        self.router.sketch()
    }

    /// The wrapped router.
    pub fn router(&self) -> &DqdRouter {
        &self.router
    }

    /// Serve one chunk with this worker's scratch state: locate every
    /// query once, let the DQD rules pull the refused ones out to the
    /// exact engine (marking them [`NO_LEAF`]), and hand the rest —
    /// still carrying their leaf ids — to the sketch's grouped forward.
    /// Returns the answers and how many queries the range rule and the
    /// complexity rule refused.
    fn serve_chunk(
        &self,
        scratch: &mut BatchScratch,
        exact_scratch: &mut Vec<f64>,
        leaves: &mut Vec<u32>,
        chunk: QueryBatch<'_>,
    ) -> (Vec<f64>, usize, usize) {
        let mut out = vec![0.0; chunk.len()];
        let (mut small_range, mut hard_leaf) = (0, 0);
        self.sketch().locate_batch(chunk, leaves);
        // No fallback: routing is moot, everything goes to the sketch.
        if let Some(fb) = &self.fallback {
            for ((leaf, slot), q) in leaves.iter_mut().zip(&mut out).zip(chunk.rows()) {
                let volume = self.opts.active_attrs.map(|k| range_volume(q, k));
                match self.router.route_located(*leaf as usize, volume) {
                    Route::Sketch => continue,
                    Route::ExactSmallRange => small_range += 1,
                    Route::ExactHardLeaf => hard_leaf += 1,
                }
                *leaf = NO_LEAF;
                *slot = fb
                    .engine
                    .answer_with(exact_scratch, fb.predicate, fb.aggregate, q);
            }
        }
        self.sketch()
            .answer_located(scratch, chunk, leaves, &mut out);
        (out, small_range, hard_leaf)
    }
}

impl Deployment for SketchServer<'_> {
    /// Answer a batch of queries. Returns the answers in input order and
    /// the routing tally.
    ///
    /// The batch is split into up to `opts.threads` shards (each at most
    /// 1 024 queries) and served on the shared worker pool;
    /// each worker locates and routes its shard, answers the
    /// sketch-routed queries with leaf-grouped forward passes, and the
    /// rest through the exact backend.
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        let threads = self.opts.threads.max(1);
        let shard = batch.len().div_ceil(threads).clamp(1, MAX_SUB_BATCH);
        let chunks: Vec<QueryBatch<'_>> = batch.chunks(shard).collect();
        let parts = par::par_map_init(
            &chunks,
            threads,
            || (BatchScratch::default(), Vec::new(), Vec::new()),
            |(scratch, exact_scratch, leaves), _, chunk| {
                self.serve_chunk(scratch, exact_scratch, leaves, *chunk)
            },
        );
        let mut answers = Vec::with_capacity(batch.len());
        let mut stats = DeployStats {
            queries: batch.len(),
            ..DeployStats::default()
        };
        for (part, small_range, hard_leaf) in parts {
            answers.extend(part);
            stats.exact_small_range += small_range;
            stats.exact_hard_leaf += hard_leaf;
        }
        stats.sketch = batch.len() - stats.exact_small_range - stats.exact_hard_leaf;
        (answers, stats)
    }

    fn moments_flat(&self, _batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        None
    }

    fn describe(&self) -> DeploymentInfo {
        self.sketch().describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::RoutingPolicy;
    use crate::sketch::NeuroSketchConfig;
    use datagen::simple::uniform;
    use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

    fn served_setup() -> (datagen::Dataset, Workload, DqdRouter) {
        let data = uniform(2_000, 2, 0);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 500,
            seed: 5,
        })
        .unwrap();
        let engine = QueryEngine::new(&data, 1);
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 2;
        cfg.target_partitions = 4;
        cfg.train.epochs = 15;
        let (sketch, report) =
            NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg)
                .unwrap();
        let router = DqdRouter::new(sketch, report.leaf_aqcs, RoutingPolicy::default());
        (data, wl, router)
    }

    #[test]
    fn batch_serving_is_bitwise_identical_to_single_query_loop() {
        let (_data, wl, router) = served_setup();
        let expected: Vec<f64> = wl
            .queries
            .iter()
            .map(|q| router.sketch().answer(q))
            .collect();
        let bits = |a: &[f64]| a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        // One batch long enough to cross the sub-batch bound twice.
        let reps = (2 * MAX_SUB_BATCH + 1) / wl.queries.len() + 1;
        let long = vec![&wl.queries[..]; reps].concat();
        let long_expected = expected.repeat(reps);
        assert!(long.len() > 2 * MAX_SUB_BATCH + 1);
        // Whatever the scheduling (thread counts that split the batch
        // unevenly and leave partial tiles, sub-batch boundaries), the
        // batch is bitwise the scalar loop.
        for threads in [1, 2, 3, 4, 7] {
            let server = SketchServer::new(
                DqdRouter::new(
                    router.sketch().clone(),
                    router.leaf_aqcs().to_vec(),
                    router.policy(),
                ),
                ServeOptions {
                    threads,
                    active_attrs: None,
                },
            );
            for (batch, expected) in [(&wl.queries, &expected), (&long, &long_expected)] {
                let (answers, stats) = server.answer_batch(batch);
                let n = batch.len();
                assert_eq!(bits(&answers), bits(expected), "threads={threads} n={n}");
                assert_eq!((stats.sketch, stats.queries), (n, n));
            }
        }
    }

    #[test]
    fn routing_splits_between_sketch_and_exact() {
        let (data, wl, router) = served_setup();
        let engine = QueryEngine::new(&data, 1);
        // Reconstruct with a restrictive range rule.
        let policy = RoutingPolicy {
            min_range_volume: 0.3,
            max_leaf_aqc: f64::INFINITY,
        };
        let router = DqdRouter::new(router.sketch().clone(), router.leaf_aqcs().to_vec(), policy);
        let reference = router.clone_reference_answers(&engine, &wl);
        let server = SketchServer::with_fallback(
            router,
            ExactBackend {
                engine: &engine,
                predicate: &wl.predicate,
                aggregate: Aggregate::Count,
            },
            ServeOptions {
                threads: 2,
                active_attrs: Some(1),
            },
        );
        let (answers, stats) = server.answer_batch(&wl.queries);
        assert_eq!(answers, reference.0);
        assert_eq!(stats.exact_small_range, reference.1);
        assert!(stats.exact_small_range > 0, "range rule never fired");
        assert!(stats.sketch > 0, "sketch never answered");
        assert_eq!(
            stats.sketch + stats.exact_small_range + stats.exact_hard_leaf,
            wl.queries.len()
        );
    }

    impl DqdRouter {
        /// Test helper: the per-query reference answers and the count of
        /// range-rule fallbacks, via the router's own scalar path.
        fn clone_reference_answers(
            &self,
            engine: &QueryEngine<'_>,
            wl: &Workload,
        ) -> (Vec<f64>, usize) {
            let mut small = 0;
            let answers = wl
                .queries
                .iter()
                .map(|q| {
                    let vol = range_volume(q, 1);
                    let (v, route) = self.answer(q, Some(vol), |q| {
                        engine.answer(&wl.predicate, Aggregate::Count, q)
                    });
                    if route == Route::ExactSmallRange {
                        small += 1;
                    }
                    v
                })
                .collect();
            (answers, small)
        }
    }

    /// The served sketch reads 2-d `[c, r]` queries of one active
    /// attribute; `with_fallback` wired to `predicate` and
    /// `active_attrs`.
    fn miswired(predicate: &dyn PredicateFn, active_attrs: Option<usize>) {
        let (data, _wl, router) = served_setup();
        let engine = QueryEngine::new(&data, 1);
        let backend = ExactBackend {
            engine: &engine,
            predicate,
            aggregate: Aggregate::Count,
        };
        let opts = ServeOptions {
            active_attrs,
            ..ServeOptions::default()
        };
        SketchServer::with_fallback(router, backend, opts);
    }

    #[test]
    #[should_panic(expected = "disagree on the query dimension")]
    fn fallback_predicate_wider_than_the_sketch_is_refused() {
        miswired(&query::predicate::Range::all(2), Some(1));
    }

    #[test]
    #[should_panic(expected = "disagree on the query dimension")]
    fn fallback_predicate_narrower_than_the_sketch_is_refused() {
        let corner_only = query::predicate::FixedWidthRange::new(vec![0], vec![0.1], 2);
        miswired(&corner_only.unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "active_attrs = 2 needs 4 query dimensions")]
    fn more_active_attrs_than_the_query_holds_is_refused() {
        miswired(&query::predicate::Range::new(vec![0], 2).unwrap(), Some(2));
    }

    #[test]
    fn empty_batch_and_single_query() {
        let (_data, wl, router) = served_setup();
        let expect = router.sketch().answer(&wl.queries[0]);
        let server = SketchServer::new(router, ServeOptions::default());
        let (answers, stats) = server.answer_batch(&[]);
        assert!(answers.is_empty());
        assert_eq!(stats.queries, 0);
        let one = QueryBatch::new(&wl.queries[0], 2);
        assert_eq!(server.answer_flat(one).0, [expect]);
    }

    #[test]
    fn loaded_artifact_serves_identically_to_quantized_source() {
        // The build is its own quantized form: no rounding step between.
        let (_data, wl, router) = served_setup();
        let artifact = crate::persist::decode(crate::persist::encode_router(&router)).unwrap();
        let server = SketchServer::new(artifact.into_router(), ServeOptions::default());
        let (answers, _) = server.answer_batch(&wl.queries);
        for (q, a) in wl.queries.iter().zip(&answers) {
            assert_eq!(*a, router.sketch().answer(q));
        }
    }
}
