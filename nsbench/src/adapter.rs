//! The only file of the benchmark that names items of the library
//! crates (`neurosketch`, `nn`, `query`, `spatial`, `datagen`, `par`).
//! Everything else drives the stack through the wrappers below, so a
//! later change to the library's surface is absorbed here. The README
//! lists every library item used; nothing here touches what ROADMAP
//! item 2 plans to delete (`layout` fields, the option-embedded cache
//! fronts, `NetOptions::dedup`, JSON model I/O, `train_per_example`,
//! the `*_with_layout` / `answer_subset_*` entry points). Option
//! structs are built as `{ threads: 1, ..Default::default() }`.

use bytes::Bytes;
use datagen::simple::drift_batch;
use datagen::{Dataset, PaperDataset};
use neurosketch::aqc::aqc_sampled;
use neurosketch::cache::{AnswerCache, CachedDeployment};
use neurosketch::cluster::{Cluster, ClusterOptions, RoutePolicy};
use neurosketch::deploy::{DeployStats, Deployment, LiveDeployment};
use neurosketch::maintenance::{retrain_shards, DriftMonitor};
use neurosketch::net::{decode_frame, encode_frame, Frame, NetClient, NetOptions, NetServer};
use neurosketch::persist;
use neurosketch::router::{DqdRouter, Route, RoutingPolicy};
use neurosketch::serve::{ExactBackend, ServeOptions, SketchServer};
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer, ShardedSketch};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use nn::linalg::{matmul, Matrix};
use nn::mlp::BatchWorkspace;
use nn::train::{train, TrainConfig};
use nn::Mlp;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::Range;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use spatial::KdTree;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The two active attributes of every query (`Pm` columns 1 and 2);
/// column 0, the PM2.5 concentration, is the measure.
const ACTIVE: [usize; 2] = [1, 2];
/// Seeds of the fixed parts of the fixture: the table, the training
/// workload and the model initialisation do not depend on `--seed`,
/// which drives the traffic. Accuracy and artifact size are then exact
/// functions of the code under test.
const DATA_SEED: u64 = 7;
const TRAIN_SEED: u64 = 11;
const MODEL_SEED: u64 = 0;
/// Answer-cache budget of the cached workloads (~21 k entries at four
/// query dimensions).
pub const CACHE_BYTES: usize = 2 << 20;
const CACHE_STRIPES: usize = 8;
pub const SHARDS: usize = 4;
/// Hidden-layer shape of every model (`NeuroSketchConfig::default()`).
pub const LAYER_SIZES: [usize; 5] = [4, 60, 30, 30, 1];

/// How much work the fixture does. `SMOKE` exists for the unit tests
/// only and is never a source of numbers.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on the 20 000-row `Pm` table.
    pub rows: f64,
    pub train_queries: usize,
    pub epochs: usize,
    /// Training set and epoch budget of each per-shard component model
    /// (a K = 4 AVG deployment trains eight of them per build).
    pub shard_train_queries: usize,
    pub shard_epochs: usize,
    pub zipf_universe: usize,
    pub audit_queries: usize,
    /// Queries per in-process call, and per chunk the output check
    /// recomputes.
    pub batch: usize,
    /// Requests per `wire_saturate` segment (about an eighth of a
    /// second).
    pub saturate_segment: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        rows: 1.0,
        train_queries: 5_000,
        epochs: 200,
        shard_train_queries: 1_000,
        shard_epochs: 100,
        zipf_universe: 200_000,
        audit_queries: 4_096,
        batch: 4_096,
        saturate_segment: 131_072,
    };
    pub const SMOKE: Scale = Scale {
        rows: 0.1,
        train_queries: 400,
        epochs: 4,
        shard_train_queries: 200,
        shard_epochs: 2,
        zipf_universe: 2_000,
        audit_queries: 256,
        batch: 256,
        saturate_segment: 2_048,
    };
}

fn serve_options() -> ServeOptions {
    ServeOptions {
        threads: 1,
        ..Default::default()
    }
}

fn sketch_config(train_epochs: usize) -> NeuroSketchConfig {
    NeuroSketchConfig {
        threads: 1,
        seed: MODEL_SEED,
        train: TrainConfig {
            epochs: train_epochs,
            // No early stopping: the amount of training work must not
            // depend on how a particular run's loss curve wiggles.
            patience: 0,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Avg,
    Count,
}

impl Agg {
    fn lib(self) -> Aggregate {
        match self {
            Agg::Avg => Aggregate::Avg,
            Agg::Count => Aggregate::Count,
        }
    }
}

// ---------------------------------------------------------------- data

/// The table under the models.
#[derive(Clone)]
pub struct Table {
    data: Dataset,
}

impl Table {
    pub fn generate(scale: &Scale) -> Table {
        let (data, _) = PaperDataset::Pm
            .generate(scale.rows, DATA_SEED)
            .normalized();
        Table { data }
    }

    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Append `rows` drifted rows (a blob around 0.3 on every column).
    pub fn append_drift(&mut self, rows: usize, seed: u64) {
        let blob = drift_batch(rows, self.data.dims(), 1.0, 0.3, seed);
        let delta = Dataset::new(self.data.column_names().to_vec(), blob.raw().to_vec())
            .expect("delta has the table's shape");
        self.data.append(&delta).expect("same schema");
    }
}

/// The exact engine over a table plus the predicate every query vector
/// is read against.
pub struct Index<'a> {
    engine: QueryEngine<'a>,
    predicate: Range,
}

impl<'a> Index<'a> {
    pub fn build(table: &'a Table) -> Index<'a> {
        Index {
            engine: QueryEngine::new(&table.data, PaperDataset::Pm.measure_column()),
            predicate: Range::new(ACTIVE.to_vec(), table.data.dims()).expect("active attrs"),
        }
    }

    /// Exact answers for a batch (`label_batch`, one thread).
    pub fn label(&self, queries: &[Vec<f64>], agg: Agg) -> Vec<f64> {
        self.engine
            .label_batch(&self.predicate, agg.lib(), queries, 1)
    }

    /// One exact AVG answer with reused scratch — what the DQD
    /// fallback pays per refused query.
    pub fn answer_one(&self, scratch: &mut Vec<f64>, q: &[f64]) -> f64 {
        self.engine
            .answer_with(scratch, &self.predicate, Aggregate::Avg, q)
    }
}

/// Table and index with program lifetime: a server with an exact
/// fallback borrows both, and the deployment wrappers want `'static`.
pub struct Base {
    pub table: &'static Table,
    pub index: &'static Index<'static>,
}

impl Base {
    pub fn new(scale: &Scale) -> Base {
        let table: &'static Table = Box::leak(Box::new(Table::generate(scale)));
        let index: &'static Index<'static> = Box::leak(Box::new(Index::build(table)));
        Base { table, index }
    }
}

/// The fixed training workload: uniform corners, uniform widths.
pub fn training_queries(count: usize) -> Vec<Vec<f64>> {
    Workload::generate(&WorkloadConfig {
        dims: 4,
        active: ActiveMode::Fixed(ACTIVE.to_vec()),
        range: RangeMode::Uniform,
        count,
        seed: TRAIN_SEED,
    })
    .expect("training workload")
    .queries
}

pub fn nmae(truth: &[f64], predicted: &[f64]) -> f64 {
    normalized_mae(truth, predicted)
}

// --------------------------------------------------------------- model

/// A built monolithic sketch with its routing metadata.
pub struct Model {
    router: DqdRouter,
    /// Library-reported phases of the build, seconds.
    pub partition_s: f64,
    pub train_s: f64,
    pub epochs_run: usize,
}

impl Model {
    pub fn build(queries: &[Vec<f64>], labels: &[f64], scale: &Scale) -> Model {
        let cfg = sketch_config(scale.epochs);
        let (sketch, report) =
            NeuroSketch::build_from_labeled(queries, labels, &cfg).expect("sketch build");
        Model {
            router: DqdRouter::new(sketch, report.leaf_aqcs, RoutingPolicy::default()),
            partition_s: report.partitioning.as_secs_f64(),
            train_s: report.training.as_secs_f64(),
            epochs_run: report.train_reports.iter().map(|r| r.epochs_run).sum(),
        }
    }

    fn sketch(&self) -> &NeuroSketch {
        self.router.sketch()
    }

    /// A router over a copy of the sketch that refuses exactly the
    /// highest-AQC partition (or nothing, with `refuse_hardest` off).
    fn router(&self, refuse_hardest: bool) -> DqdRouter {
        let aqcs = self.router.leaf_aqcs().to_vec();
        let mut policy = RoutingPolicy::default();
        if refuse_hardest {
            let mut sorted = aqcs.clone();
            sorted.sort_by(f64::total_cmp);
            if let [.., second, top] = sorted[..] {
                policy.max_leaf_aqc = (second + top) / 2.0;
            }
        }
        DqdRouter::new(self.sketch().clone(), aqcs, policy)
    }

    pub fn params(&self) -> usize {
        self.sketch().param_count()
    }

    pub fn partitions(&self) -> usize {
        self.sketch().partitions()
    }

    /// NSK2 (f32) bytes of the router artifact.
    pub fn encode(&self) -> Artifact {
        Artifact(persist::encode_router(&self.router))
    }

    /// The model as it answers after a save/load round trip.
    pub fn quantized(&self) -> Model {
        Model {
            router: DqdRouter::new(
                self.sketch().quantized(),
                self.router.leaf_aqcs().to_vec(),
                self.router.policy(),
            ),
            partition_s: self.partition_s,
            train_s: self.train_s,
            epochs_run: self.epochs_run,
        }
    }

    /// Bare batched forward passes, no routing.
    pub fn answer_batch(&self, queries: &[Vec<f64>]) -> Vec<f64> {
        self.sketch().answer_batch(queries)
    }

    /// The paper's Alg. 5: locate the leaf, one forward pass.
    pub fn answer_one(&self, q: &[f64]) -> f64 {
        self.sketch().answer(q)
    }

    pub fn locate(&self, q: &[f64]) -> usize {
        self.sketch().leaf_index_of(q)
    }

    pub fn hard_router(&self) -> HardRouter {
        HardRouter(self.router(true))
    }
}

/// The router of the fallback stack, kept for `DqdRouter::route`
/// probes and for splitting a batch the way the server will.
pub struct HardRouter(DqdRouter);

impl HardRouter {
    /// Whether `DqdRouter::route` sends `q` to the exact engine.
    pub fn routes_exact(&self, q: &[f64]) -> bool {
        self.0.route(q, None) != Route::Sketch
    }
}

pub struct Artifact(Bytes);

impl Artifact {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn decode(&self) -> Result<Model, String> {
        let artifact = persist::decode(self.0.clone()).map_err(|e| e.to_string())?;
        Ok(Model {
            router: artifact.into_router(),
            partition_s: 0.0,
            train_s: 0.0,
            epochs_run: 0,
        })
    }
}

// -------------------------------------------------------------- stacks

/// Where a batch's answers came from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub queries: usize,
    pub exact: usize,
    pub cache_hits: usize,
    pub dedup_hits: usize,
}

impl From<DeployStats> for Tally {
    fn from(s: DeployStats) -> Tally {
        Tally {
            queries: s.queries,
            exact: s.exact_small_range + s.exact_hard_leaf,
            cache_hits: s.cache_hits,
            dedup_hits: s.dedup_hits,
        }
    }
}

/// A serving stack: the deployment a workload drives (`front`) and the
/// same deployment without its cache front (`inner`), which is both
/// the reference the output check recomputes against and the child the
/// traced run replays.
pub struct Stack {
    front: Arc<dyn Deployment>,
    inner: Arc<dyn Deployment>,
    cache: Option<Arc<AnswerCache>>,
}

impl Stack {
    fn cached(inner: Arc<dyn Deployment>) -> Stack {
        let cache = Arc::new(AnswerCache::new(CACHE_BYTES, CACHE_STRIPES));
        Stack {
            front: Arc::new(CachedDeployment::new(inner.clone(), cache.clone(), 0)),
            inner,
            cache: Some(cache),
        }
    }

    fn uncached(server: Arc<dyn Deployment>) -> Stack {
        Stack {
            front: server.clone(),
            inner: server,
            cache: None,
        }
    }

    /// `SketchServer` over the model, no fallback, no cache.
    pub fn plain(model: &Model) -> Stack {
        Stack::uncached(Arc::new(SketchServer::new(
            model.router(false),
            serve_options(),
        )))
    }

    /// Cache front over a `SketchServer` whose router sends the
    /// highest-AQC partition to the exact engine.
    pub fn fallback(base: &Base, model: &Model) -> Stack {
        let server = SketchServer::with_fallback(
            model.router(true),
            ExactBackend {
                engine: &base.index.engine,
                predicate: &base.index.predicate,
                aggregate: Aggregate::Avg,
            },
            serve_options(),
        );
        Stack::cached(Arc::new(server))
    }

    /// `ShardedServer` with no cache front.
    pub fn sharded_plain(sharded: &Sharded) -> Stack {
        Stack::uncached(Arc::new(ShardedServer::new(
            sharded.0.clone(),
            serve_options(),
        )))
    }

    /// Cache front over a `ShardedServer`.
    pub fn sharded(sharded: &Sharded) -> Stack {
        Stack::cached(Arc::new(ShardedServer::new(
            sharded.0.clone(),
            serve_options(),
        )))
    }

    pub fn answer(&self, queries: &[Vec<f64>]) -> (Vec<f64>, Tally) {
        let (answers, stats) = self.front.answer_batch(queries);
        (answers, stats.into())
    }

    pub fn inner_answer(&self, queries: &[Vec<f64>]) -> (Vec<f64>, Tally) {
        let (answers, stats) = self.inner.answer_batch(queries);
        (answers, stats.into())
    }

    /// Gathered moments per query; 0 for deployments without a moment
    /// surface.
    pub fn inner_moments(&self, queries: &[Vec<f64>]) -> usize {
        self.inner.moments_batch(queries).map_or(0, |m| m.len())
    }

    /// Entries the stack's cache has evicted so far (0 without one).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.as_ref().map_or(0, |c| c.stats().evictions)
    }
}

/// Direct access to an `AnswerCache` for the per-call probes.
pub struct CacheProbe(AnswerCache);

impl CacheProbe {
    pub fn new() -> CacheProbe {
        CacheProbe(AnswerCache::new(CACHE_BYTES, CACHE_STRIPES))
    }

    pub fn get(&self, q: &[f64]) -> Option<f64> {
        self.0.get(0, 0, q)
    }

    pub fn insert(&self, q: &[f64], value: f64) {
        self.0.insert(0, 0, q, value);
    }
}

// ------------------------------------------------------------- sharded

/// A K = 4 round-robin sharded sketch.
#[derive(Clone)]
pub struct Sharded(ShardedSketch);

impl Sharded {
    pub fn build(table: &Table, queries: &[Vec<f64>], agg: Agg, scale: &Scale) -> Sharded {
        let index = Index::build(table);
        let (sketch, _) = build_sharded(
            &table.data,
            PaperDataset::Pm.measure_column(),
            &ShardPlan::RoundRobin { shards: SHARDS },
            &index.predicate,
            agg.lib(),
            queries,
            &sketch_config(scale.shard_epochs),
        )
        .expect("sharded build");
        Sharded(sketch)
    }

    /// Rebuild one shard against the current table.
    pub fn retrain_shard(
        &mut self,
        table: &Table,
        queries: &[Vec<f64>],
        shard: usize,
        scale: &Scale,
    ) -> Result<(), String> {
        let index = Index::build(table);
        retrain_shards(
            &mut self.0,
            &table.data,
            PaperDataset::Pm.measure_column(),
            &index.predicate,
            queries,
            &sketch_config(scale.shard_epochs),
            &[shard],
        )
        .map_err(|e| e.to_string())
    }

    pub fn artifact_bytes(&self) -> usize {
        self.0.artifact_bytes()
    }

    pub fn quantized(&self) -> Sharded {
        Sharded(self.0.quantized())
    }

    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        persist::save_sharded(dir, &self.0).map_err(|e| e.to_string())
    }

    pub fn load(manifest: &Path) -> Result<Sharded, String> {
        persist::load_sharded(manifest)
            .map(Sharded)
            .map_err(|e| e.to_string())
    }

    /// Land this sketch's `shard` as the next manifest generation.
    pub fn save_refreshed(&self, manifest: &Path, shard: usize) -> Result<(), String> {
        persist::save_refreshed(manifest, &self.0, &[shard])
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// `Cluster` of 4 shard groups x 2 replicas, round-robin routing.
pub struct ClusterProbe(Cluster);

impl ClusterProbe {
    pub fn new(sharded: &Sharded) -> ClusterProbe {
        let opts = ClusterOptions {
            threads: 1,
            ..Default::default()
        };
        ClusterProbe(
            Cluster::new(&sharded.0, 2, 0, RoutePolicy::RoundRobin, opts).expect("healthy cluster"),
        )
    }

    pub fn answer(&mut self, queries: &[Vec<f64>]) -> Vec<f64> {
        self.0.answer_batch(queries).expect("healthy batch").0
    }
}

// ---------------------------------------------------------- live + wire

/// The hot-swappable handle the wire server and the refresh path share.
#[derive(Clone)]
pub struct Live(Arc<LiveDeployment>);

impl Live {
    pub fn new(stack: &Stack, generation: u64) -> Live {
        Live(Arc::new(LiveDeployment::new(
            stack.front.clone(),
            generation,
        )))
    }

    pub fn answer(&self, queries: &[Vec<f64>]) -> Vec<f64> {
        self.0.answer_batch(queries).0
    }

    /// What the wire server calls per micro-batch: answers plus the
    /// generation of the snapshot that produced them.
    pub fn answer_tagged(&self, queries: &[Vec<f64>]) -> (Vec<f64>, u64) {
        let (answers, _, generation) = self.0.answer_batch_tagged(queries);
        (answers, generation)
    }

    pub fn generation(&self) -> u64 {
        self.0.generation()
    }

    /// Swap another stack in; returns the generation replaced.
    pub fn swap(&self, stack: &Stack, generation: u64) -> u64 {
        self.0.swap(stack.front.clone(), generation)
    }

    pub fn reload_sharded(&self, manifest: &Path) -> Result<u64, String> {
        self.0
            .reload_sharded(manifest, serve_options())
            .map_err(|e| e.to_string())
    }
}

/// Tallies of a wire server, read when it stops.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    pub queries: u64,
    pub answered: u64,
    pub rejected: u64,
    pub protocol_errors: u64,
    pub batches: u64,
}

fn wire_stats(server: &NetServer) -> WireStats {
    let s = server.stats();
    WireStats {
        queries: s.queries,
        answered: s.answered,
        rejected: s.rejected,
        protocol_errors: s.protocol_errors,
        batches: s.batches,
    }
}

fn bind(live: &Live) -> NetServer {
    NetServer::bind("127.0.0.1:0", live.0.clone(), 4, NetOptions::default())
        .expect("bind a loopback port")
}

/// `NetServer::serve` on one background thread.
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<NetServer>,
}

impl WireServer {
    pub fn spawn(live: &Live) -> WireServer {
        let mut server = bind(live);
        let addr = server.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || {
            crate::stats::pin_thread(true);
            server.serve(&flag);
            server
        });
        WireServer {
            addr,
            shutdown,
            handle,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the loop, join the thread; returns the tallies.
    pub fn stop(self) -> WireStats {
        self.shutdown.store(true, Ordering::Relaxed);
        wire_stats(&self.handle.join().expect("server thread"))
    }
}

/// A `NetServer` stepped by the caller, one phase at a time.
pub struct SteppedServer(NetServer);

impl SteppedServer {
    pub fn bind(live: &Live) -> SteppedServer {
        SteppedServer(bind(live))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Accept, read and parse, flush.
    pub fn pump(&mut self) -> bool {
        self.0.pump_io()
    }

    /// Serve one micro-batch; its size, or `None` if nothing was
    /// pending.
    pub fn serve_batch(&mut self) -> Option<usize> {
        self.0.serve_pending_batch().map(|b| b.size)
    }

    pub fn pending(&self) -> usize {
        self.0.pending()
    }

    pub fn stats(&self) -> WireStats {
        wire_stats(&self.0)
    }
}

pub enum Reply {
    Answer {
        id: u64,
        generation: u64,
        value: f64,
    },
    /// Backpressure: the server refused the request.
    Reject,
    /// Any other frame; a protocol failure as far as a load run goes.
    Other,
}

/// A blocking NSKW client over one connection. Requests are framed
/// here and written with one `write` per call, so a pipelining caller
/// pays one system call per window instead of one per query (which
/// would make the load generator, not the server, the bottleneck).
pub struct Client {
    net: NetClient,
    next_id: u64,
    wire: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let mut net = NetClient::connect(addr).map_err(|e| e.to_string())?;
        // A lost response must end the run as a failure, not hang it.
        net.set_timeout(Some(Duration::from_secs(20)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            net,
            next_id: 0,
            wire: Vec::new(),
        })
    }

    /// Send one query frame per element, in one write; the request id
    /// of the first (the rest follow consecutively).
    pub fn send(&mut self, queries: &[Vec<f64>]) -> Result<u64, String> {
        let first = self.next_id;
        self.wire.clear();
        for q in queries {
            self.wire
                .extend_from_slice(&encode_query_frame(self.next_id, q));
            self.next_id += 1;
        }
        self.net.send_raw(&self.wire).map_err(|e| e.to_string())?;
        Ok(first)
    }

    pub fn recv(&mut self) -> Result<Reply, String> {
        match self.net.recv().map_err(|e| e.to_string())? {
            Frame::Answer {
                id,
                generation,
                value,
            } => Ok(Reply::Answer {
                id,
                generation,
                value,
            }),
            Frame::Reject { .. } => Ok(Reply::Reject),
            _ => Ok(Reply::Other),
        }
    }
}

pub fn encode_query_frame(id: u64, q: &[f64]) -> Vec<u8> {
    encode_frame(&Frame::Query {
        id,
        query: q.to_vec(),
    })
}

pub fn encode_answer_frame(id: u64, generation: u64, value: f64) -> Vec<u8> {
    encode_frame(&Frame::Answer {
        id,
        generation,
        value,
    })
}

/// Decode one frame; the bytes it used.
pub fn decode_one_frame(bytes: &[u8]) -> usize {
    decode_frame(bytes, u32::MAX)
        .expect("well-formed frame")
        .expect("complete frame")
        .1
}

// --------------------------------------------------------- maintenance

pub struct Monitor(DriftMonitor);

impl Monitor {
    pub fn new(probe: Vec<Vec<f64>>) -> Monitor {
        Monitor(
            DriftMonitor::new(probe, 0.05)
                .expect("non-empty probe")
                .with_threads(1),
        )
    }

    /// NMAE of the live deployment against the current table.
    pub fn check(&self, live: &Live, index: &Index<'_>, agg: Agg) -> f64 {
        self.0
            .check(&*live.0, &index.engine, &index.predicate, agg.lib())
            .nmae
    }
}

// ------------------------------------------------------ kernel probes

/// One leaf-shaped network plus the operands of the two kernels the
/// batched serve path spends its compute in.
pub struct NnProbe {
    mlp: Mlp,
    ws: BatchWorkspace,
    x: Matrix,
    a: Matrix,
    b: Matrix,
    c: Matrix,
}

impl NnProbe {
    pub fn new(rows: usize) -> NnProbe {
        let fill = |rows: usize, cols: usize| {
            let data = (0..rows * cols)
                .map(|i| ((i * 37 % 101) as f64) / 101.0)
                .collect();
            Matrix::from_vec(rows, cols, data)
        };
        NnProbe {
            mlp: Mlp::new(&LAYER_SIZES, MODEL_SEED),
            ws: BatchWorkspace::default(),
            x: fill(rows, LAYER_SIZES[0]),
            a: fill(rows, LAYER_SIZES[1]),
            b: fill(LAYER_SIZES[1], LAYER_SIZES[2]),
            c: Matrix::zeros(rows, LAYER_SIZES[2]),
        }
    }

    /// `Mlp::forward_batch` over the whole input.
    pub fn forward_batch(&mut self) -> f64 {
        self.mlp.forward_batch(&mut self.ws, &self.x).get(0, 0)
    }

    /// `linalg::matmul` at rows x 60 x 30.
    pub fn gemm(&mut self) -> f64 {
        matmul(&mut self.c, &self.a, &self.b);
        self.c.get(0, 0)
    }

    /// Floating-point operations of one [`NnProbe::gemm`], from the
    /// shapes.
    pub fn gemm_flops(&self) -> f64 {
        2.0 * self.a.rows() as f64 * self.a.cols() as f64 * self.b.cols() as f64
    }
}

/// `nn::train::train` on one leaf's worth of examples; epochs run.
pub fn train_leaf(xs: &[Vec<f64>], ys: &[f64], epochs: usize) -> usize {
    let mut mlp = Mlp::new(&LAYER_SIZES, MODEL_SEED);
    let cfg = sketch_config(epochs).train;
    train(&mut mlp, xs, ys, &cfg).epochs_run
}

/// `par_map_init` over `workers` empty items: what a batch pays to fan
/// out before any work is done.
pub fn par_fanout(workers: usize) -> usize {
    let items = vec![(); workers];
    par::par_map_init(&items, workers, || (), |_, i, _| i).len()
}

/// `KdTree::build` at the default height; the leaf count.
pub fn kdtree_build(queries: &[Vec<f64>]) -> usize {
    KdTree::build(queries, NeuroSketchConfig::default().tree_height).leaf_count()
}

/// `KdTree::merge_leaves` down to the default partition count with
/// the build's own AQC scorer.
pub fn kdtree_merge(queries: &[Vec<f64>], labels: &[f64]) -> usize {
    let cfg = NeuroSketchConfig::default();
    let mut tree = KdTree::build(queries, cfg.tree_height);
    tree.merge_leaves(
        |ids| {
            let qs: Vec<Vec<f64>> = ids.iter().map(|&i| queries[i].clone()).collect();
            let vs: Vec<f64> = ids.iter().map(|&i| labels[i]).collect();
            aqc_sampled(&qs, &vs, cfg.aqc_max_pairs)
        },
        cfg.target_partitions,
        1,
    );
    tree.leaf_count()
}
