//! The answer front composed end to end under seeded schedules:
//! [`LiveDeployment`] → [`CachedDeployment`] → a DQD-routed
//! [`SketchServer`] with the exact fallback, or a 2-shard
//! [`ShardedServer`]; on about half the seeds with a stepped
//! [`NetServer`] in front.
//!
//! A seed is a pure function to a [`Schedule`]: the inner deployment,
//! aggregate, thread count and cache budget, then batches (0, 1, many
//! and over 65 534 rows, from a small pool with `f64`-ulp twins and a
//! `±0.0` pair, in row and flat form, with in-batch repeats), repeats,
//! swaps and refreshes at F16 or I8. On a wire seed every batch shorter
//! than a sub-batch is sent instead, as `Query` frames over 1–3
//! connections written 1, 7 or 43 bytes at a time or whole, and served
//! by separate steps, so swaps and refreshes land while queries wait;
//! an info request, a violator, a connection past the cap and a peer
//! that does not read come along. After every step the run checks:
//!
//! 1. each answer is bitwise the per-query oracle at the stamped generation;
//! 2. the stamp, `generation()` and `describe()` name the schedule's
//!    generation, and `swap` returns the one it replaced;
//! 3. `queries == sketch + exact_* + cache_hits + dedup_hits` and
//!    `cache_misses == sketch + exact_*`;
//! 4. `dedup_hits` sums, per 65 534-row sub-batch, rows minus distinct rows;
//! 5. a generation's first batch hits only what its own earlier
//!    sub-batches stored;
//! 6. `bytes <= capacity_bytes`; on an ample budget, no eviction, one
//!    entry per (generation, query) served, and a miss exactly for each
//!    query not served before at the generation;
//! 7. a refresh keeps the storage mode and answers the pool bitwise like
//!    its own decoded NSK2 artifact;
//!
//! and on the wire, where (1)–(6) hold per micro-batch:
//!
//! 8. each connection reads, byte for byte, the frames it is owed: per
//!    query an `Answer` stamped with its micro-batch's generation, the
//!    current one even for a query sent before a swap, with that
//!    generation's oracle bits, or a `QueueFull` reject if it came past
//!    `queue_cap`; per info request the live generation;
//! 9. the server's counters are the schedule's: `queries == answered +
//!    rejected + dropped + pending` and `accepted == closed +
//!    connections()`;
//! 10. a micro-batch takes `min(max_batch, waiting)` queries, and the
//!     connections that had queries waiting take shares within 1 of
//!     each other;
//! 11. `buffer_bytes() <= conn_buffer_bound() × connections()` after
//!     every server pass, and `stalled_reads` moves only under a peer
//!     that does not read;
//! 12. a violator reads one `Error` frame with its violation's code and
//!     is closed, its queries dropped; a connection past `max_clients`
//!     reads one `ServerFull` error and is not counted.
//!
//! A [`ClusterSchedule`] drives a replicated [`Cluster`] of 1–3 replicas
//! per group, each replica column on a directory of its own, through
//! kills, publishes that skip columns, artifacts damaged on disk,
//! reloads over torn, garbage, foreign or damaged directories, upgrade
//! steps, rolls, repairs and foreign manifests, on its threads and on
//! one, against a [`ClusterModel`]:
//!
//! 13. both thread counts hold (14)–(18), so they agree bitwise;
//! 14. each answer is bitwise the covered groups' source shards at the
//!     served generation, merged in group order and finished once;
//! 15. every report, outcome and event is the model's (a load error by
//!     kind), every pick up and at the report's generation;
//! 16. `QuorumLost` exactly when the model has no quorum;
//! 17. a finished roll leaves every up replica at or past its own
//!     column's generation;
//! 18. a foreign manifest or column is refused; the plan, groups and
//!     generations are the model's after every step.
//!
//! A failing run prints its schedule as JSON; paste it into
//! [`REGRESSIONS`] to replay it on every run.

use neurosketch::cache::{entry_bytes, AnswerCache, CachedDeployment};
use neurosketch::cluster::*;
use neurosketch::deploy::{DeployStats, Deployment, LiveDeployment, QueryBatch};
use neurosketch::maintenance::{retrain_shards, DriftMonitor, MaintenancePlan};
use neurosketch::net::{
    encode_frame, encode_frame_into, Frame, NetClient, NetError, NetOptions, NetServer, NetStats,
    RejectCode, ServerInfo,
};
use neurosketch::router::{range_volume, DqdRouter, RoutingPolicy};
use neurosketch::serve::{ExactBackend, ServeOptions, SketchServer};
use neurosketch::shard::{
    build_sharded, finish_guarded, ShardPlan, ShardSketch, ShardedServer, ShardedSketch,
};
use neurosketch::{persist, BatchScratch, NeuroSketch, NeuroSketchConfig};
use nn::QuantMode;
use query::aggregate::{Aggregate, MomentKind, Moments};
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Queries in the pool every batch draws from.
const POOL: usize = 32;
/// Longest sub-batch the front's dedup table addresses.
const SUB_BATCH: usize = 65_534;
/// A cache budget no schedule fills.
const AMPLE: usize = 1 << 20;
/// Seeds of the tier-1 run; the ignored sweep runs the next 1 024.
const TIER1_SEEDS: u64 = 32;
/// Kinds of damage a violator can send ([`damaged`]).
const DAMAGES: usize = 7;
/// How long the harness steps a server for something it must do.
const PATIENCE: Duration = Duration::from_secs(10);
/// Bytes a peer that never reads may send before the server must have
/// stopped reading it.
const FLOOD_CAP: usize = 64 << 20;

/// What the tier-1 seeds must make happen beyond every schedule's
/// minimum ([`Schedule::covers_the_minimum`]).
const TIER1_EVENTS: [&str; 11] = [
    "a batch longer than a sub-batch",
    "a swap with queries waiting",
    "a QueueFull reject",
    "1-byte writes",
    "a violator",
    "a connect past max_clients",
    "an info request",
    "a micro-batch with an in-batch duplicate",
    "a micro-batch with a cache hit",
    "a peer that never reads",
    "a peer gone with output unsent",
];

/// Schedules replayed on every run: failures once printed, and past
/// bugs written as schedules.
const REGRESSIONS: &[&str] = &[
    // A partition retrained under I8 storage serves the I8 model, not
    // the unrounded one its artifact cannot hold.
    r#"{"seed": 0, "sharded": false, "aggregate": "Avg", "threads": 1, "budget": 1048576,
        "steps": [{"Refresh": {"mode": "I8", "unit": 0, "plan": false}},
                  {"Batch": {"rows": [0, 1, 2, 3, 0, 16, 24], "flat": false}}]}"#,
    // A micro-batch drains one query per connection per turn: three
    // queues 112 deep share 256 slots 86/85/85, where two per turn
    // gives 86/86/84. No tier-1 seed queues that deep on three
    // connections.
    r#"{"seed": 0, "sharded": false, "aggregate": "Count", "threads": 1, "budget": 1048576,
        "wire": {"clients": 3, "max_batch": 256, "queue_cap": 1024},
        "steps": [{"Send": {"chunk": 0,
                            "rows": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                     14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
                                     26, 27, 28, 29, 30, 31, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
                            "conns": [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1,
                                      2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
                                      1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]}},
                  "Repeat", "Repeat", "Repeat", "Repeat", "Repeat", "Repeat", "Repeat", "Serve"]}"#,
    // A repair or an upgrade from a manifest of another aggregate or plan
    // is refused: unchecked, it served the other deployment's models.
    r#"{"seed": 0, "aggregate": "Avg", "mode": "F32", "replicas": 2, "quorum": 1.0,
        "threads": 2, "steps": [{"Foreign": {"repair": true, "plan": false}},
        {"Foreign": {"repair": true, "plan": true}}, {"Foreign": {"repair": false, "plan": true}},
        {"Serve": {"rows": [0, 1, 2, 3, 16, 24]}}]}"#,
    // A kill before a roll, which rolls around it; in group 1 a column
    // that missed the publish and an artifact that fails its checksum,
    // and a kill of its last replica at the new generation before the
    // last batch: that batch answers from group 0 alone.
    r#"{"seed": 99, "aggregate": "Avg", "mode": "F32", "replicas": 3, "quorum": 0.5,
        "threads": 4,
        "steps": [{"Serve": {"rows": [0, 1, 2, 3]}}, {"Kill": {"group": 0, "replica": 0}},
        {"Serve": {"rows": [4, 5, 6, 7]}}, {"Publish": {"skip": [0]}},
        {"Damage": {"column": 1, "shard": 1}}, "Roll", {"Serve": {"rows": [8, 9, 10]}},
        {"Kill": {"group": 1, "replica": 2}}, {"Serve": {"rows": [11, 12]}}]}"#,
    // Readable column manifests that disagree are refused: column 0's
    // COUNT manifest outvoted the two AVG columns and served COUNT.
    r#"{"seed": 0, "aggregate": "Avg", "mode": "F32", "replicas": 3, "quorum": 1.0,
        "threads": 2, "steps": [{"Reload": {"damage": "Foreign", "rows": [0, 1, 2, 3]}}]}"#,
];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Schedule {
    seed: u64,
    sharded: bool,
    aggregate: Aggregate,
    threads: usize,
    /// Cache budget in bytes.
    budget: usize,
    steps: Vec<Step>,
    /// The server in front, on a wire seed.
    #[serde(default)]
    wire: Option<Wire>,
}

/// A stepped [`NetServer`] in front of the run's [`LiveDeployment`]:
/// its client connections, opened first (so their ids are
/// `0..clients`), and its limits. `max_clients` is `clients + 1`, room
/// for one passing peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wire {
    clients: usize,
    max_batch: usize,
    queue_cap: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Step {
    /// Pool queries by index, served in flat or row form.
    Batch { rows: Vec<usize>, flat: bool },
    /// `len` rows cycling through the pool, served flat.
    Long { len: usize },
    /// The previous batch or send again (the empty batch if there was
    /// none).
    Repeat,
    /// The other build of the deployment, as the next generation.
    Swap,
    /// The model stored at `mode` and retrained, as the next generation:
    /// partition or shard `unit`, or (monolithic, with `plan`) the worst
    /// partition a drift plan finds.
    Refresh {
        mode: QuantMode,
        unit: usize,
        plan: bool,
    },
    /// Pool queries as `Query` frames, row `k` on client `conns[k]`, each
    /// client's frames written `chunk` bytes at a time (0: at once) with
    /// a server pass between writes. Parsed, not served.
    Send {
        rows: Vec<usize>,
        conns: Vec<usize>,
        chunk: usize,
    },
    /// Every waiting query served, micro-batch by micro-batch.
    Serve,
    /// An info request on client `conn`.
    Info { conn: usize },
    /// A passing connection sends `prefix` queries, then damage number
    /// `damage` ([`damaged`]).
    Violate { prefix: usize, damage: usize },
    /// A passing connection takes the last slot, and one more connects.
    OverCap,
    /// A passing peer sends info requests without reading until the
    /// server stops reading it; then it reads them all, or hangs up.
    Silent { hang_up: bool },
}

impl Step {
    /// The pool rows of a batch or a send.
    fn rows(&self) -> Option<&[usize]> {
        match self {
            Step::Batch { rows, .. } | Step::Send { rows, .. } => Some(rows),
            _ => None,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Schedule {
    /// The schedule of `seed`: random steps plus, at random places, an
    /// empty batch, a batch with a duplicate, a swap and a refresh; on
    /// a wire seed, batches sent, and two serves, an info request, a
    /// violator, an over-cap connect and on half of them a silent peer
    /// placed at random before a last serve.
    fn generate(seed: u64) -> Schedule {
        let mut state = seed;
        let mut pick = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        let batch = |rows, pick: &mut dyn FnMut(usize) -> usize| Step::Batch {
            rows,
            flat: pick(2) == 1,
        };
        let refresh = |pick: &mut dyn FnMut(usize) -> usize| Step::Refresh {
            mode: [QuantMode::F16, QuantMode::I8][pick(2)],
            unit: pick(4),
            plan: pick(2) == 1,
        };
        let mut steps = Vec::new();
        for _ in 0..4 + pick(8) {
            steps.push(match pick(20) {
                0..=6 => batch((0..2 + pick(40)).map(|_| pick(POOL)).collect(), &mut pick),
                7 => batch(vec![pick(POOL)], &mut pick),
                8..=11 => Step::Repeat,
                12..=14 => Step::Swap,
                15..=18 => refresh(&mut pick),
                _ => Step::Long {
                    len: SUB_BATCH + 1 + pick(8_000),
                },
            });
        }
        let (twice, other) = (pick(POOL), pick(POOL));
        let required = [
            batch(vec![], &mut pick),
            batch(vec![twice, other, twice], &mut pick),
            Step::Swap,
            refresh(&mut pick),
        ];
        for step in required {
            steps.insert(pick(steps.len() + 1), step);
        }
        let (sharded, aggregate) = (pick(2) == 1, Aggregate::ALL[pick(4)]);
        let (threads, budget) = ([1, 2, 4][pick(3)], [0, 6 * entry_bytes(2), AMPLE][pick(3)]);
        let wire = (pick(2) == 1).then(|| Wire {
            clients: 1 + pick(3),
            max_batch: [1, 5, 256][pick(3)],
            queue_cap: [4, 1024][pick(2)],
        });
        if let Some(Wire { clients, .. }) = wire {
            for step in &mut steps {
                if let Step::Batch { rows, .. } = step {
                    let rows = std::mem::take(rows);
                    let conns = rows.iter().map(|_| pick(clients)).collect();
                    let chunk = [1, 7, 43, 0][pick(4)];
                    *step = Step::Send { rows, conns, chunk };
                }
            }
            let mut passing = vec![
                Step::Serve,
                Step::Serve,
                Step::Info {
                    conn: pick(clients),
                },
                Step::Violate {
                    prefix: pick(3),
                    damage: pick(DAMAGES),
                },
                Step::OverCap,
            ];
            // A silent peer costs a flood of ~4 MB of responses.
            if pick(2) == 0 {
                passing.push(Step::Silent {
                    hang_up: pick(2) == 1,
                });
            }
            for step in passing {
                steps.insert(pick(steps.len() + 1), step);
            }
            steps.push(Step::Serve);
        }
        Schedule {
            seed,
            sharded,
            aggregate,
            threads,
            budget,
            steps,
            wire,
        }
    }

    /// Whether the schedule serves an empty batch, a batch with an
    /// in-batch duplicate, a swap and a refresh.
    fn covers_the_minimum(&self) -> bool {
        let has = |f: &dyn Fn(&Step) -> bool| self.steps.iter().any(f);
        let repeats = |rows: &[usize]| rows.iter().collect::<HashSet<_>>().len() < rows.len();
        has(&|s| s.rows().is_some_and(|rows| rows.is_empty()))
            && has(&|s| s.rows().is_some_and(repeats))
            && has(&|s| matches!(s, Step::Swap))
            && has(&|s| matches!(s, Step::Refresh { .. }))
    }
}

struct Fixture {
    /// The exact engine over the table every deployment is built on.
    engine: QueryEngine<'static>,
    wl: Workload,
    pool: Vec<Vec<f64>>,
    /// Per aggregate, two builds (seeds 0 and 1) of the monolithic
    /// (`[0]`) and of the sharded (`[1]`) deployment.
    builds: HashMap<Aggregate, [[Model; 2]; 2]>,
    /// Per aggregate, the cluster leg's generations 0–2 (sharded builds
    /// at seeds 0–2) and a `2 × SHARDS`-shard build: a re-sharded
    /// deployment, which a running cluster must refuse.
    cluster: HashMap<Aggregate, ([ShardedSketch; 3], ShardedSketch)>,
}

fn cfg(seed: u64, epochs: usize) -> NeuroSketchConfig {
    let mut cfg = NeuroSketchConfig::small();
    (cfg.tree_height, cfg.target_partitions) = (2, 4);
    (cfg.train.epochs, cfg.seed) = (epochs, seed);
    cfg
}

/// Build `which` (0 or 1) of the schedule's deployment.
fn model_of(s: &Schedule, which: usize) -> &'static Model {
    &fixture().builds[&s.aggregate][s.sharded as usize][which]
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = Box::leak(Box::new(datagen::simple::uniform(400, 2, 11)));
        let mut wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 68,
            seed: 7,
        })
        .unwrap();
        // 16 training queries, 8 unseen ones, twins of 6 of them one
        // f64 ulp up (the same row to the f32 kernel, two cache keys),
        // and a centre at +0.0 and at -0.0.
        let unseen = wl.queries.split_off(60);
        let mut pool: Vec<Vec<f64>> = wl.queries[..16].iter().chain(&unseen).cloned().collect();
        for i in 0..6 {
            let mut twin = pool[i].clone();
            twin[0] = f64::from_bits(twin[0].to_bits() + 1);
            pool.push(twin);
        }
        pool.extend([vec![0.0, 0.5], vec![-0.0, 0.5]]);
        assert_eq!(pool.len(), POOL);

        let engine = QueryEngine::new(data, 1);
        let builds_of = |&agg: &Aggregate| {
            let (queries, pred) = (&wl.queries, &wl.predicate);
            let labels = engine.label_batch(pred, agg, queries, 2);
            let mono = [0, 1].map(|seed| {
                let built = NeuroSketch::build_from_labeled(queries, &labels, &cfg(seed, 6));
                let (sketch, report) = built.unwrap();
                Model::Mono(sketch, report.leaf_aqcs)
            });
            let build = |shards, seed, epochs| {
                let plan = ShardPlan::RoundRobin { shards };
                let built = build_sharded(data, 1, &plan, pred, agg, queries, &cfg(seed, epochs));
                built.unwrap().0
            };
            let generations = [0, 1, 2].map(|seed| build(SHARDS, seed, 6));
            let sharded = [0, 1].map(|seed| Model::Sharded(generations[seed].clone()));
            let fine = build(2 * SHARDS, 0, FINE_EPOCHS);
            ((agg, [mono, sharded]), (agg, (generations, fine)))
        };
        let (builds, cluster) = Aggregate::ALL[..4].iter().map(builds_of).unzip();
        Fixture {
            engine,
            wl,
            pool,
            builds,
            cluster,
        }
    })
}

#[derive(Clone)]
enum Model {
    /// A monolithic sketch and its leaf AQCs.
    Mono(NeuroSketch, Vec<f64>),
    Sharded(ShardedSketch),
}

impl Model {
    /// The router of a monolithic model: ranges narrower than 0.05 and
    /// the highest-AQC partition go to the exact engine.
    fn router(sketch: &NeuroSketch, aqcs: &[f64]) -> DqdRouter {
        let mut sorted = aqcs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mut policy = RoutingPolicy::default();
        (policy.min_range_volume, policy.max_leaf_aqc) = (0.05, sorted[sorted.len() - 2]);
        DqdRouter::new(sketch.clone(), aqcs.to_vec(), policy)
    }

    /// This model served as the schedule says, behind a front keyed to
    /// `generation` of `cache`.
    fn front(&self, s: &Schedule, cache: &Arc<AnswerCache>, generation: u64) -> CachedDeployment {
        let (fx, aggregate) = (fixture(), s.aggregate);
        let mut opts = ServeOptions::default();
        (opts.threads, opts.active_attrs) = (s.threads, Some(1));
        let server: Arc<dyn Deployment> = match self {
            Model::Mono(sketch, aqcs) => {
                let (engine, predicate) = (&fx.engine, &fx.wl.predicate);
                let fallback = ExactBackend {
                    engine,
                    predicate,
                    aggregate,
                };
                let router = Model::router(sketch, aqcs);
                Arc::new(SketchServer::with_fallback(router, fallback, opts))
            }
            Model::Sharded(sharded) => Arc::new(ShardedServer::new(sharded.clone(), opts)),
        };
        CachedDeployment::with_aggregate(server, cache.clone(), generation, aggregate)
    }

    /// The per-query oracle's answer bits, per pool query.
    fn oracle(&self, aggregate: Aggregate) -> Vec<u64> {
        let fx = fixture();
        let exact = |q: &[f64]| fx.engine.answer(&fx.wl.predicate, aggregate, q);
        let answers: Vec<f64> = match self {
            Model::Mono(sketch, aqcs) => {
                let router = Model::router(sketch, aqcs);
                let answer = |q: &Vec<f64>| router.answer(q, Some(range_volume(q, 1)), exact).0;
                fx.pool.iter().map(answer).collect()
            }
            Model::Sharded(sharded) => fx.pool.iter().map(|q| sharded.answer(q)).collect(),
        };
        answers.iter().map(|v| v.to_bits()).collect()
    }

    /// Every sketch that answers: the monolithic one, or each shard's
    /// component models.
    fn sketches(&self) -> Vec<&NeuroSketch> {
        match self {
            Model::Mono(sketch, _) => vec![sketch],
            Model::Sharded(sharded) => (sharded.shards().iter())
                .flat_map(|shard| MomentKind::ALL.map(|k| shard.model(k)))
                .flatten()
                .collect(),
        }
    }
}

/// One schedule in flight, with the oracle's view of it.
struct Run<'s> {
    schedule: &'s Schedule,
    cache: Arc<AnswerCache>,
    live: Arc<LiveDeployment>,
    /// Which of the two builds the model descends from.
    build: usize,
    model: Model,
    generation: u64,
    /// Oracle answer bits per pool query at the current generation.
    oracle: Vec<u64>,
    /// (generation, pool index) pairs served so far.
    served: HashSet<(u64, usize)>,
    /// No row served yet at the current generation.
    fresh: bool,
    /// The last batch or send, for `Repeat`.
    last: Step,
    /// Every batch's tally, summed.
    total: DeployStats,
    /// The wire leg, on a wire seed.
    net: Option<Net>,
    /// Which of [`TIER1_EVENTS`] the schedule made happen.
    seen: HashSet<&'static str>,
}

impl Run<'_> {
    /// Serve `model` as the next generation.
    fn install(&mut self, model: Model) {
        if self.net.as_ref().is_some_and(|net| net.waiting() > 0) {
            self.seen.insert("a swap with queries waiting");
        }
        self.generation += 1;
        let front = model.front(self.schedule, &self.cache, self.generation);
        let replaced = self.live.swap(front, self.generation);
        assert_eq!(replaced + 1, self.generation, "(2) swap");
        self.oracle = model.oracle(self.schedule.aggregate);
        self.model = model;
        self.fresh = true;
    }

    fn serve(&mut self, rows: &[usize], flat: bool) {
        let pool = &fixture().pool;
        let (answers, stats, stamped) = if flat {
            let data: Vec<f64> = rows.iter().flat_map(|&i| pool[i].clone()).collect();
            self.live.answer_batch_tagged(QueryBatch::new(&data, 2))
        } else {
            let queries: Vec<Vec<f64>> = rows.iter().map(|&i| pool[i].clone()).collect();
            self.live.answer_batch_tagged(&queries[..])
        };
        let generation = self.generation;
        assert_eq!([stamped, self.live.generation()], [generation; 2], "(2)");
        assert_eq!(self.live.describe().generation, Some(generation), "(2)");

        assert_eq!(answers.len(), rows.len());
        for (k, (&i, got)) in rows.iter().zip(&answers).enumerate() {
            let (got, want) = (got.to_bits(), self.oracle[i]);
            assert_eq!(got, want, "(1) row {k}, pool query {i}");
        }
        self.tally(rows, stats);
    }

    /// Invariants (3)–(6) for a batch of pool rows served at the current
    /// generation.
    fn tally(&mut self, rows: &[usize], stats: DeployStats) {
        let computed = stats.sketch + stats.exact_small_range + stats.exact_hard_leaf;
        let answered = computed + stats.cache_hits + stats.dedup_hits;
        assert_eq!([stats.queries, answered], [rows.len(); 2], "(3) {stats:?}");
        assert_eq!(stats.cache_misses, computed, "(3) {stats:?}");

        // Per sub-batch: duplicates, and distinct rows an earlier one carried.
        let (mut duplicates, mut carried, mut seen) = (0, 0, HashSet::new());
        for sub in rows.chunks(SUB_BATCH) {
            let distinct: HashSet<usize> = sub.iter().copied().collect();
            duplicates += sub.len() - distinct.len();
            carried += distinct.iter().filter(|i| seen.contains(*i)).count();
            seen.extend(distinct);
        }
        assert_eq!(stats.dedup_hits, duplicates, "(4) {stats:?}");
        assert!(!self.fresh || stats.cache_hits <= carried, "(5) {stats:?}");
        self.fresh &= rows.is_empty();

        let cache = self.cache.stats();
        assert!(cache.bytes <= cache.capacity_bytes, "(6) {cache:?}");
        let generation = self.generation;
        let new = seen
            .iter()
            .filter(|&&i| !self.served.contains(&(generation, i)))
            .count();
        self.served.extend(rows.iter().map(|&i| (generation, i)));
        if self.schedule.budget >= AMPLE {
            let resident = cache.evictions == 0 && cache.entries == self.served.len();
            assert!(resident, "(6) {cache:?}");
            assert_eq!(stats.cache_misses, new, "(6) misses: {stats:?}");
        }
        self.total += stats;
    }

    fn refresh(&mut self, mode: QuantMode, unit: usize, plan: bool) {
        let fx = fixture();
        let (pred, train, agg) = (&fx.wl.predicate, &fx.wl.queries, self.schedule.aggregate);
        let retrain = cfg(0, 3);
        let model = match &self.model {
            Model::Mono(sketch, aqcs) => {
                let mut sketch = sketch.quantized_to(mode);
                if plan {
                    let monitor = DriftMonitor::new(fx.pool.clone(), 1e-9).unwrap();
                    let mut drift = MaintenancePlan::new(monitor, retrain);
                    drift.max_retrain = Some(1);
                    let report =
                        drift.refresh_monolithic(&mut sketch, &fx.engine, pred, agg, train);
                    report.unwrap();
                } else {
                    let unit = unit % sketch.partitions();
                    let in_unit = |q: &&Vec<f64>| sketch.leaf_index_of(q) == unit;
                    let queries: Vec<Vec<f64>> = train.iter().filter(in_unit).cloned().collect();
                    let labels = fx.engine.label_batch(pred, agg, &queries, 1);
                    let report = sketch.retrain_partition(unit, &queries, &labels, &retrain);
                    report.unwrap();
                }
                Model::Mono(sketch, aqcs.clone())
            }
            Model::Sharded(sharded) => {
                let mut sharded = sharded.quantized_to(mode);
                let (data, stale) = (fx.engine.dataset(), [unit % 2]);
                retrain_shards(&mut sharded, data, 1, pred, train, &retrain, &stale).unwrap();
                Model::Sharded(sharded)
            }
        };
        for sketch in model.sketches() {
            assert_eq!(sketch.quant_mode(), mode, "(7) storage mode");
            let stored = persist::decode(persist::encode_sketch(sketch)).unwrap();
            for q in &fx.pool {
                let (got, want) = (sketch.answer(q), stored.sketch.answer(q));
                assert_eq!(got.to_bits(), want.to_bits(), "(7) {mode:?} at {q:?}");
            }
        }
        self.install(model);
    }

    /// Serve every waiting query, micro-batch by micro-batch, checking
    /// (8), (10) and (1)–(6) on each; then every client reads its answers.
    fn serve_wire(&mut self) {
        loop {
            let net = self.net.as_mut().expect("a wire step on a wire seed");
            let had: Vec<usize> = net.clients.iter().map(|c| c.waiting.len()).collect();
            let Some(batch) = net.server.serve_pending_batch() else {
                break;
            };
            let generation = self.generation;
            assert_eq!(batch.generation, generation, "(8) micro-batch stamp");
            let most = batch.per_client.iter().map(|&(_, n)| n).max().unwrap_or(0);
            let mut rows = Vec::new();
            for &(conn, n) in &batch.per_client {
                let client = &mut net.clients[conn as usize];
                for (id, i) in client.waiting.drain(..n) {
                    let value = f64::from_bits(self.oracle[i]);
                    client.owed.push_back(Frame::Answer {
                        id,
                        generation,
                        value,
                    });
                    rows.push(i);
                }
            }
            for (c, &had) in had.iter().enumerate() {
                let took = had - net.clients[c].waiting.len();
                let fair = took >= had.min(most.saturating_sub(1));
                assert!(fair, "(10) client {c} took {took} of {had}: {batch:?}");
            }
            let waiting = had.iter().sum::<usize>().min(net.wire.max_batch);
            assert_eq!([batch.size, rows.len()], [waiting; 2], "(10) {batch:?}");
            net.want.batches += 1;
            net.want.answered += batch.size as u64;
            net.want.largest_batch = net.want.largest_batch.max(batch.size);
            net.want.deploy += batch.stats;
            if batch.stats.dedup_hits > 0 {
                self.seen.insert("a micro-batch with an in-batch duplicate");
            }
            if batch.stats.cache_hits > 0 {
                self.seen.insert("a micro-batch with a cache hit");
            }
            self.tally(&rows, batch.stats);
        }
        self.net().collect();
    }

    fn net(&mut self) -> &mut Net {
        self.net.as_mut().expect("a wire step on a wire seed")
    }

    fn step(&mut self, step: &Step) {
        let generation = self.generation;
        match step {
            Step::Batch { rows, flat } => self.serve(rows, *flat),
            Step::Long { len } => {
                self.seen.insert("a batch longer than a sub-batch");
                self.serve(&(0..*len).map(|i| i % POOL).collect::<Vec<_>>(), true);
            }
            Step::Repeat => self.step(&self.last.clone()),
            Step::Swap => {
                self.build ^= 1;
                self.install(model_of(self.schedule, self.build).clone());
            }
            Step::Refresh { mode, unit, plan } => self.refresh(*mode, *unit, *plan),
            Step::Send { rows, conns, chunk } => {
                if *chunk == 1 && !rows.is_empty() {
                    self.seen.insert("1-byte writes");
                }
                self.net().send(rows, conns, *chunk);
            }
            Step::Serve => self.serve_wire(),
            Step::Info { conn } => {
                self.seen.insert("an info request");
                self.net().info_request(*conn, generation);
            }
            Step::Violate { prefix, damage } => {
                self.seen.insert("a violator");
                self.net().violate(*prefix, *damage);
            }
            Step::OverCap => {
                self.seen.insert("a connect past max_clients");
                self.net().over_cap();
            }
            Step::Silent { hang_up } => {
                self.seen.insert("a peer that never reads");
                if *hang_up {
                    self.seen.insert("a peer gone with output unsent");
                }
                self.net().silent(*hang_up, generation);
            }
        }
        if matches!(
            step,
            Step::Batch { .. } | Step::Long { .. } | Step::Send { .. }
        ) {
            self.last = step.clone();
        }
        if let Some(net) = &self.net {
            if net.want.rejected > 0 {
                self.seen.insert("a QueueFull reject");
            }
            net.check();
        }
    }
}

/// The wire leg in flight: the stepped server, its clients, and the
/// server's counters as the schedule predicts them.
struct Net {
    server: NetServer,
    wire: Wire,
    /// [`NetOptions::conn_buffer_bound`] of the server's options.
    bound: usize,
    clients: Vec<Client>,
    want: NetStats,
    /// Queries discarded with a violator's connection.
    dropped: u64,
}

struct Client {
    conn: NetClient,
    next_id: u64,
    /// Queries waiting for a micro-batch: request id and pool index.
    waiting: VecDeque<(u64, usize)>,
    /// Frames the server owes this client, in order.
    owed: VecDeque<Frame>,
}

/// One server pass, then (11)'s buffer bound.
fn pass(server: &mut NetServer, bound: usize) {
    server.pump_io();
    let (held, live) = (server.buffer_bytes(), server.connections());
    assert!(
        held <= bound * live,
        "(11) {live} connections hold {held} B"
    );
}

/// The next frame `peer` reads, passing the server until one arrives.
fn recv(server: &mut NetServer, bound: usize, peer: &mut NetClient) -> Result<Frame, NetError> {
    let deadline = Instant::now() + PATIENCE;
    loop {
        match peer.recv() {
            Err(NetError::Io(_)) if Instant::now() < deadline => pass(server, bound),
            read => return read,
        }
    }
}

/// Damage number `damage`, the [`NetError`] code the server answers it
/// with, and the queries the server decodes from it.
fn damaged(damage: usize) -> (Vec<u8>, u8, u64) {
    let query = |dims| {
        encode_frame(&Frame::Query {
            id: 9,
            query: vec![0.5; dims],
        })
    };
    let mut frame = query(2);
    let last = frame.len() - 1;
    let (at, byte, code) = match damage {
        0 => (last, !frame[last], 5), // checksum mismatch
        1 => (0, b'J', 1),            // bad magic
        2 => (4, 9, 2),               // bad version
        3 => (5, 99, 3),              // bad kind
        4 => return ([&frame[..6], &[0xFF; 4]].concat(), 4, 0), // oversized header
        5 => {
            let answer = Frame::Answer {
                id: 9,
                generation: 0,
                value: 1.0,
            };
            return (encode_frame(&answer), 11, 0); // a server-to-client kind
        }
        _ => return (query(3), 7, 1), // a well-formed query of 3 dims
    };
    frame[at] = byte;
    (frame, code, 0)
}

impl Net {
    fn open(wire: &Wire, live: Arc<LiveDeployment>) -> Net {
        let opts = NetOptions {
            max_batch: wire.max_batch,
            queue_cap: wire.queue_cap,
            max_clients: wire.clients + 1,
            ..NetOptions::default()
        };
        let mut net = Net {
            server: NetServer::bind("127.0.0.1:0", live, 2, opts).unwrap(),
            wire: wire.clone(),
            bound: opts.conn_buffer_bound(),
            clients: Vec::new(),
            want: NetStats::default(),
            dropped: 0,
        };
        for _ in 0..wire.clients {
            let client = Client {
                conn: net.connect(),
                next_id: 0,
                waiting: VecDeque::new(),
                owed: VecDeque::new(),
            };
            net.clients.push(client);
        }
        net
    }

    /// A new connection, once the server has accepted it.
    fn connect(&mut self) -> NetClient {
        let mut conn = NetClient::connect(self.server.local_addr()).unwrap();
        conn.set_timeout(Some(Duration::from_millis(1))).unwrap();
        self.admit();
        conn
    }

    /// Pass the server until it accepts one more connection.
    fn admit(&mut self) {
        self.want.accepted += 1;
        let accepted = self.want.accepted;
        self.settle("(9) a connection is accepted", |s| {
            s.stats().accepted == accepted
        });
    }

    /// Pass the server until `done`.
    fn settle(&mut self, what: &str, done: impl Fn(&NetServer) -> bool) {
        let deadline = Instant::now() + PATIENCE;
        while !done(&self.server) {
            assert!(Instant::now() < deadline, "{what}: not within {PATIENCE:?}");
            pass(&mut self.server, self.bound);
        }
    }

    /// Count one more connection closed, and pass the server until it
    /// has closed it.
    fn close(&mut self, what: &str) {
        self.want.closed += 1;
        let closed = self.want.closed;
        self.settle(what, |s| s.stats().closed == closed);
    }

    fn waiting(&self) -> usize {
        self.clients.iter().map(|c| c.waiting.len()).sum()
    }

    /// The `InfoResponse` payload at `generation`.
    fn info(&self, generation: u64) -> ServerInfo {
        let (queue_cap, max_batch) = (self.wire.queue_cap as u32, self.wire.max_batch as u32);
        ServerInfo {
            dims: 2,
            generation,
            queue_cap,
            max_batch,
        }
    }

    /// Pass the server, then let each client read every frame it is
    /// owed: byte for byte the owed one (8).
    fn collect(&mut self) {
        pass(&mut self.server, self.bound);
        for (c, client) in self.clients.iter_mut().enumerate() {
            while let Some(owed) = client.owed.pop_front() {
                let got = recv(&mut self.server, self.bound, &mut client.conn).unwrap();
                let same = encode_frame(&got) == encode_frame(&owed);
                assert!(same, "(8) client {c} read {got:?}, owed {owed:?}");
            }
        }
    }

    fn send(&mut self, rows: &[usize], conns: &[usize], chunk: usize) {
        let mut bytes = vec![Vec::new(); self.clients.len()];
        for (&i, &c) in rows.iter().zip(conns) {
            let client = &mut self.clients[c];
            let id = client.next_id;
            client.next_id += 1;
            let query = fixture().pool[i].clone();
            encode_frame_into(&Frame::Query { id, query }, &mut bytes[c]);
            if client.waiting.len() < self.wire.queue_cap {
                client.waiting.push_back((id, i));
            } else {
                let code = RejectCode::QueueFull;
                client.owed.push_back(Frame::Reject { id, code });
                self.want.rejected += 1;
            }
        }
        self.want.queries += rows.len() as u64;
        let mut pieces: Vec<_> = (bytes.iter())
            .map(|b| b.chunks(if chunk == 0 { b.len().max(1) } else { chunk }))
            .collect();
        let mut wrote = true;
        while wrote {
            wrote = false;
            for (client, pieces) in self.clients.iter_mut().zip(&mut pieces) {
                if let Some(piece) = pieces.next() {
                    client.conn.send_raw(piece).unwrap();
                    pass(&mut self.server, self.bound);
                    wrote = true;
                }
            }
        }
        let queries = self.want.queries;
        self.settle("(9) every query sent is parsed", |s| {
            s.stats().queries == queries
        });
        self.collect();
    }

    fn info_request(&mut self, conn: usize, generation: u64) {
        let (request, owed) = (
            Frame::InfoRequest,
            Frame::InfoResponse(self.info(generation)),
        );
        let client = &mut self.clients[conn];
        client.conn.send_raw(&encode_frame(&request)).unwrap();
        client.owed.push_back(owed);
        self.want.info_requests += 1;
        self.collect();
    }

    /// A passing connection sends `prefix` queries and damage `damage`
    /// in one write; it reads one `Error` frame with the damage's code,
    /// then the end of the stream, and its queries are dropped (12).
    fn violate(&mut self, prefix: usize, damage: usize) {
        let mut peer = self.connect();
        let mut bytes = Vec::new();
        for (id, query) in fixture().pool[..prefix].iter().enumerate() {
            let (id, query) = (id as u64, query.clone());
            encode_frame_into(&Frame::Query { id, query }, &mut bytes);
        }
        let (damage, code, decoded) = damaged(damage);
        bytes.extend(damage);
        peer.send_raw(&bytes).unwrap();
        self.want.queries += prefix as u64 + decoded;
        self.dropped += prefix as u64 + decoded;
        self.want.protocol_errors += 1;
        self.want.closed += 1;
        let got = recv(&mut self.server, self.bound, &mut peer);
        assert!(
            matches!(got, Ok(Frame::Error { code: c, .. }) if c == code),
            "(12) the violator read {got:?}"
        );
        let end = recv(&mut self.server, self.bound, &mut peer);
        let closed = matches!(end, Err(NetError::Truncated { have: 0, .. }));
        assert!(closed, "(12) after its farewell the violator read {end:?}");
    }

    /// A passing connection takes the last slot; one more is turned
    /// away with a `ServerFull` error, uncounted (12); the first leaves.
    fn over_cap(&mut self) {
        let filler = self.connect();
        let mut over = NetClient::connect(self.server.local_addr()).unwrap();
        over.set_timeout(Some(Duration::from_millis(1))).unwrap();
        let full = NetError::ServerFull {
            max: self.wire.clients + 1,
        };
        let (code, message) = (full.code(), full.to_string());
        let owed = encode_frame(&Frame::Error { code, message });
        let got = recv(&mut self.server, self.bound, &mut over).unwrap();
        assert!(encode_frame(&got) == owed, "(12) past the cap: {got:?}");
        let end = recv(&mut self.server, self.bound, &mut over);
        let closed = matches!(end, Err(NetError::Truncated { have: 0, .. }));
        assert!(closed, "(12) after ServerFull: {end:?}");
        let accepted = self.server.stats().accepted;
        assert_eq!(
            accepted, self.want.accepted,
            "(12) the turned-away peer was counted"
        );
        drop(filler);
        self.close("(9) a peer that left is reaped");
    }

    /// A passing peer sends info requests, reading nothing, until the
    /// server stops reading it (11). Then it reads a response per
    /// request and leaves, or hangs up with responses unsent and must
    /// be reaped.
    fn silent(&mut self, hang_up: bool, generation: u64) {
        let mut peer = TcpStream::connect(self.server.local_addr()).unwrap();
        peer.set_nodelay(true).unwrap();
        peer.set_nonblocking(true).unwrap();
        self.admit();
        let request = encode_frame(&Frame::InfoRequest);
        let block = request.repeat(1024);
        let mut sent = 0;
        while self.server.stats().stalled_reads == self.want.stalled_reads {
            assert!(
                sent < FLOOD_CAP,
                "(11) a peer that never reads is still read"
            );
            match peer.write(&block[sent % block.len()..]) {
                Ok(n) => sent += n,
                Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
            }
            pass(&mut self.server, self.bound);
        }
        if hang_up {
            drop(peer);
            self.close("(9) a peer gone with output unsent is reaped");
            let parsed = self.server.stats().info_requests - self.want.info_requests;
            assert!(parsed > 0 && parsed as usize <= sent / request.len());
            self.want.info_requests += parsed;
        } else {
            let torn = sent % request.len();
            let mut tail = if torn == 0 { &[][..] } else { &request[torn..] };
            let frames = sent.div_ceil(request.len());
            let owed = encode_frame(&Frame::InfoResponse(self.info(generation))).repeat(frames);
            let (mut got, mut buf) = (Vec::new(), vec![0; 64 << 10]);
            let deadline = Instant::now() + PATIENCE;
            while got.len() < owed.len() {
                assert!(
                    Instant::now() < deadline,
                    "(11) the silent peer's answers stopped"
                );
                if let Ok(n) = peer.write(tail) {
                    tail = &tail[n..];
                }
                match peer.read(&mut buf) {
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
                }
                pass(&mut self.server, self.bound);
            }
            assert!(got == owed, "(8) the silent peer's responses");
            drop(peer);
            self.want.info_requests += frames as u64;
            self.close("(9) a peer that left is reaped");
        }
        self.want.stalled_reads = self.server.stats().stalled_reads;
    }

    /// (9), and (11)'s `stalled_reads`, between steps, once every client
    /// has read all it is owed and every passing peer is gone.
    fn check(&self) {
        let (server, stats) = (&self.server, self.server.stats());
        assert_eq!(stats, self.want, "(9), (11) the server's counters");
        let waiting = self.waiting();
        assert_eq!(server.pending(), waiting, "(9) queries waiting");
        let settled = stats.answered + stats.rejected + self.dropped + waiting as u64;
        assert_eq!(stats.queries, settled, "(9) {} dropped", self.dropped);
        let open = server.connections();
        assert_eq!(stats.accepted, stats.closed + open as u64, "(9) {stats:?}");
        assert_eq!(open, self.clients.len(), "(9) a passing peer is still open");
    }
}

/// Shards of the cluster leg's deployment.
const SHARDS: usize = 2;
/// Epochs of the `2 × SHARDS`-shard build.
const FINE_EPOCHS: usize = 2;
/// Most queries one model's GEMM call takes in the cluster's scatter.
const SCATTER_SUB_BATCH: usize = 1_024;
/// Seeds of the cluster leg's tier-1 run; its ignored sweep runs 256.
const CLUSTER_TIER1_SEEDS: u64 = 24;
/// How `BadTopology` and `Persist` outcomes compare: by kind.
const BAD_TOPOLOGY: &str = "BadTopology";
const PERSIST: &str = "Persist";
/// What the tier-1 cluster seeds must make happen.
const CLUSTER_EVENTS: [&str; 18] = [
    "a batch routed around a killed replica",
    "a stale batch",
    "a kill of a replica already down",
    "a kill refused for a slot that does not exist",
    "ReplicaRepaired",
    "a partial-quorum answer",
    "a typed quorum loss",
    "a refused foreign manifest",
    "a batch crossing the sub-batch bound",
    "a column behind after a finished roll",
    "an upgrade failing its checksum",
    // A torn column is `ManifestRejected`, a flipped byte a
    // `ReplicaLoadFailed`, a removed artifact a group lost everywhere.
    "Ok(\"()\") from a reload after Torn",
    "Ok(\"()\") from a reload after Flipped",
    "Err(\"Persist\") from a reload after Garbage",
    "Err(\"BadTopology\") from a reload after Foreign",
    "after a reload with mixed generations: a stale batch",
    "after a reload with a lost group: QuorumLost",
    "after a reload with a lost group: a partial answer",
];

/// A [`SHARDS`]-shard round-robin deployment of `aggregate` stored at
/// `mode`, published into one directory per replica column, behind a
/// [`Cluster`] of `replicas` replicas per group that serves at `quorum`
/// on `threads` threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ClusterSchedule {
    seed: u64,
    aggregate: Aggregate,
    mode: QuantMode,
    replicas: usize,
    quorum: f64,
    threads: usize,
    steps: Vec<ClusterStep>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum ClusterStep {
    /// Pool queries by index, as one batch.
    Serve { rows: Vec<usize> },
    /// `len` rows cycling through the pool.
    Long { len: usize },
    /// The next generation saved into the publish directory, every
    /// shard replaced, then copied into every column but those in `skip`.
    Publish { skip: Vec<usize> },
    /// `rolling_upgrade_step` over the column manifests.
    Upgrade,
    /// `rolling_upgrade` over the column manifests.
    Roll,
    /// `repair_replica` from the publish manifest.
    Repair { group: usize, replica: usize },
    /// `kill_replica`.
    Kill { group: usize, replica: usize },
    /// A repair of group 0's replica 0 from, or an upgrade step with
    /// column 0 on, a manifest of another aggregate or (`plan`) of the
    /// same aggregate re-sharded to `2 × SHARDS` shards, which only a
    /// `Cluster::load` may take up.
    Foreign { repair: bool, plan: bool },
    /// [`Disk::Flipped`], left on disk.
    Damage { column: usize, shard: usize },
    /// `Cluster::load` over a copy of the columns with `damage` on it,
    /// then a batch; a failed load keeps the cluster.
    Reload { damage: Disk, rows: Vec<usize> },
}

/// Damage on the replica columns' directories: a column's manifest cut
/// in half, one byte changed in `(column, shard)`'s newest artifact, a
/// shard's newest artifact removed from every column, garbage for every
/// manifest, or column 0 a deployment of another aggregate (which needs
/// a second column to disagree with).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Disk {
    Intact,
    Torn(usize),
    Flipped(usize, usize),
    Removed(usize),
    Garbage,
    Foreign,
}

impl ClusterSchedule {
    /// The schedule of `seed`: random steps, among them in this order a
    /// publish, an upgrade step, a batch, a roll, a second publish, a
    /// damaged artifact (which no later publish overwrites, so a reload
    /// can meet it beside a column behind), an upgrade step and an
    /// intact reload; a repair, a foreign manifest, a long batch, two
    /// reloads and 1–4 kills, on groups 0–2 (group 2 does not exist),
    /// anywhere; a last batch. At quorum 1.0 over two or more columns
    /// the second publish reaches the last column alone and the damage
    /// is there, so the intact reload serves a stale batch: the newest
    /// generation lost a group, an older one covers every group.
    fn generate(seed: u64) -> ClusterSchedule {
        let mut state = seed;
        let mut pick = |n: usize| (splitmix64(&mut state) % n as u64) as usize;
        let rows =
            |pick: &mut dyn FnMut(usize) -> usize| (0..pick(41)).map(|_| pick(POOL)).collect();
        let serve = |pick: &mut dyn FnMut(usize) -> usize| ClusterStep::Serve { rows: rows(pick) };
        let replicas = 1 + pick(3);
        let quorum = [1.0, 0.5][pick(2)];
        let stale_reload = quorum == 1.0 && replicas > 1;
        let publish = |pick: &mut dyn FnMut(usize) -> usize| ClusterStep::Publish {
            skip: (0..replicas).filter(|_| pick(3) == 0).collect(),
        };
        let mut steps = Vec::new();
        for _ in 0..2 + pick(6) {
            let (group, replica) = (pick(2 * SHARDS), pick(replicas));
            steps.push(match pick(7) {
                0..=2 => serve(&mut pick),
                3 | 4 => ClusterStep::Upgrade,
                5 => ClusterStep::Roll,
                _ => ClusterStep::Repair { group, replica },
            });
        }
        let (mut column, shard) = (pick(replicas), pick(SHARDS));
        let mut second = publish(&mut pick);
        if stale_reload {
            let skip = (0..replicas - 1).collect();
            (second, column) = (ClusterStep::Publish { skip }, replicas - 1);
        }
        let ordered = [
            publish(&mut pick),
            ClusterStep::Upgrade,
            serve(&mut pick),
            ClusterStep::Roll,
            second,
            ClusterStep::Damage { column, shard },
            ClusterStep::Upgrade,
            ClusterStep::Reload {
                damage: Disk::Intact,
                rows: rows(&mut pick),
            },
        ];
        let mut at = 0;
        for step in ordered {
            at += pick(steps.len() - at + 1);
            steps.insert(at, step);
            at += 1;
        }
        let (group, replica) = (pick(SHARDS), pick(replicas));
        let (repair, plan) = (pick(2) == 1, pick(2) == 1);
        let len = 2 * SCATTER_SUB_BATCH + 1 + pick(1_000);
        let reload = |pick: &mut dyn FnMut(usize) -> usize| {
            let (column, shard) = (pick(replicas), pick(SHARDS));
            let damage = match pick(6) {
                1 => Disk::Torn(column),
                2 => Disk::Flipped(column, shard),
                3 => Disk::Removed(shard),
                4 => Disk::Garbage,
                5 if replicas > 1 => Disk::Foreign,
                _ => Disk::Intact,
            };
            let rows = rows(pick);
            ClusterStep::Reload { damage, rows }
        };
        let mut anywhere = vec![
            ClusterStep::Repair { group, replica },
            ClusterStep::Foreign { repair, plan },
            ClusterStep::Long { len },
            reload(&mut pick),
            reload(&mut pick),
        ];
        for _ in 0..1 + pick(4) {
            let (group, replica) = (pick(SHARDS + 1), pick(replicas));
            anywhere.push(ClusterStep::Kill { group, replica });
        }
        for step in anywhere {
            steps.insert(pick(steps.len() + 1), step);
        }
        steps.push(serve(&mut pick));
        ClusterSchedule {
            seed,
            aggregate: Aggregate::ALL[pick(4)],
            mode: [QuantMode::F32, QuantMode::F16, QuantMode::I8][pick(3)],
            replicas,
            quorum,
            threads: [1, 2, 3, 4, 7][pick(5)],
            steps,
        }
    }
}

/// Per shard, its moments for each pool query computed alone.
fn pool_moments(sharded: &ShardedSketch) -> Vec<Vec<Moments>> {
    let mut scratch = BatchScratch::default();
    let mut alone = |shard: &ShardSketch, q: &Vec<f64>| {
        shard.moments_batch_with(&mut scratch, QueryBatch::new(q, 2))[0]
    };
    let per_shard = |shard| fixture().pool.iter().map(|q| alone(shard, q)).collect();
    sharded.shards().iter().map(per_shard).collect()
}

/// A control-plane outcome, comparable: an error by kind, the events
/// of an upgrade step or roll by [`coarse`].
fn shown<T: std::fmt::Debug>(result: Result<T, ClusterError>) -> Result<String, String> {
    match result {
        Ok(value) => Ok(format!("{value:?}")),
        Err(ClusterError::BadTopology(_)) => Err(BAD_TOPOLOGY.into()),
        Err(ClusterError::Persist(_)) => Err(PERSIST.into()),
        Err(e) => Err(e.to_string()),
    }
}

/// `event` with a load error cut to its kind — `checksum`, `missing` or
/// `unreadable` — which is what the model predicts.
fn coarse(mut event: ClusterEvent) -> ClusterEvent {
    use ClusterEvent::{ManifestRejected, ReplicaLoadFailed};
    if let ReplicaLoadFailed { error, .. } | ManifestRejected { error, .. } = &mut event {
        let kinds = ["checksum", "missing"];
        let kind = kinds.into_iter().find(|k| error.contains(k));
        *error = kind.unwrap_or("unreadable").into();
    }
    event
}

/// Copy the deployment whose manifest is `from` into `dir`, the
/// artifacts it names first and the manifest last; returns the copy's
/// manifest.
fn publish_into(from: &Path, dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let manifest = persist::read_manifest(from).unwrap();
    for name in manifest.shards.iter().flatten().map(|a| &a.path) {
        std::fs::copy(from.with_file_name(name), dir.join(name)).unwrap();
    }
    let to = dir.join(persist::MANIFEST_NAME);
    std::fs::copy(from, &to).unwrap();
    to
}

/// Put `damage` on the replica columns whose manifests are `columns`.
fn damage_columns(columns: &[PathBuf], damage: Disk) {
    let newest = |c: usize, shard: usize| {
        let manifest = persist::read_manifest(&columns[c]).unwrap();
        columns[c].with_file_name(&manifest.shards[shard][0].path)
    };
    let edit = |path: &PathBuf, change: &dyn Fn(&mut Vec<u8>)| {
        let mut bytes = std::fs::read(path).unwrap();
        change(&mut bytes);
        std::fs::write(path, bytes).unwrap();
    };
    match damage {
        Disk::Torn(c) => edit(&columns[c], &|b| b.truncate(b.len() / 2)),
        // A second flip changes the byte again; none undoes one.
        Disk::Flipped(c, shard) => edit(&newest(c, shard), &|b| {
            let mid = b.len() / 2;
            b[mid] = b[mid].wrapping_add(1);
        }),
        Disk::Removed(shard) => {
            let newest = (0..columns.len()).map(|c| newest(c, shard));
            newest.for_each(|path| std::fs::remove_file(path).unwrap());
        }
        Disk::Garbage => columns
            .iter()
            .for_each(|m| std::fs::write(m, "garbage").unwrap()),
        Disk::Intact | Disk::Foreign => {}
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ReplicaState {
    generation: u64,
    down: bool,
    /// Down since a kill.
    killed: bool,
}

impl ReplicaState {
    fn serves(&self, generation: u64) -> bool {
        !self.down && self.generation == generation
    }
}

#[derive(Debug, Clone)]
struct GroupState {
    cursor: usize,
    replicas: Vec<ReplicaState>,
}

impl GroupState {
    /// The round-robin pick among the replicas up at `generation`.
    fn pick(&mut self, generation: u64) -> Option<usize> {
        let serves = |&r: &usize| self.replicas[r].serves(generation);
        let eligible: Vec<usize> = (0..self.replicas.len()).filter(serves).collect();
        let chosen = *eligible.get(self.cursor % eligible.len().max(1))?;
        self.cursor += 1;
        Some(chosen)
    }
}

/// A replica column's directory: its manifest's generation, and the
/// shards whose newest artifact there fails to load, with the kind.
#[derive(Debug, Clone, Default)]
struct ColumnState {
    generation: u64,
    damaged: BTreeMap<usize, &'static str>,
}

impl ColumnState {
    /// `group`'s replica `replica` loading its shard from here: the
    /// generation it installs, or the event of its failure.
    fn load(&self, group: usize, replica: usize) -> Result<u64, ClusterEvent> {
        let Some(&error) = self.damaged.get(&group) else {
            return Ok(self.generation);
        };
        let error = error.into();
        Err(ClusterEvent::ReplicaLoadFailed {
            group,
            replica,
            error,
        })
    }
}

/// The harness's own account of a cluster and its directories.
#[derive(Default)]
struct ClusterModel {
    groups: Vec<GroupState>,
    columns: Vec<ColumnState>,
    /// Events predicted since the last step.
    events: Vec<ClusterEvent>,
}

impl ClusterModel {
    /// Loaded from `replicas` columns at generation 0.
    fn new(replicas: usize) -> ClusterModel {
        let mut model = ClusterModel {
            columns: vec![ColumnState::default(); replicas],
            ..ClusterModel::default()
        };
        assert_eq!(model.reload(Disk::Intact), Ok("()".into()));
        model
    }

    /// The generations up replicas hold.
    fn held(&self) -> BTreeSet<u64> {
        let replicas = self.groups.iter().flat_map(|g| &g.replicas);
        replicas.filter(|r| !r.down).map(|r| r.generation).collect()
    }

    /// A batch: at the newest generation up replicas cover a quorum of
    /// groups at, one round-robin pick per group.
    fn serve(&mut self, quorum: f64) -> Result<ClusterBatchReport, String> {
        let groups = self.groups.len();
        let needed = ((quorum * groups as f64).ceil() as usize).clamp(1, groups);
        let held = self.held();
        let coverage = |gen: u64| {
            let at = |g: &&GroupState| g.replicas.iter().any(|r| r.serves(gen));
            self.groups.iter().filter(at).count()
        };
        let Some(&generation) = held.iter().rev().find(|&&g| coverage(g) >= needed) else {
            let covered = held.iter().map(|&g| coverage(g)).max().unwrap_or(0);
            let lost = ClusterError::QuorumLost {
                covered,
                needed,
                groups,
            };
            return Err(lost.to_string());
        };
        let latest = *held.last().unwrap();
        let chosen = self.groups.iter_mut().map(|g| g.pick(generation)).collect();
        Ok(ClusterBatchReport {
            generation,
            latest,
            chosen,
        })
    }

    /// The first up replica behind its column's generation loads its
    /// shard from the column.
    fn upgrade_step(&mut self) -> Result<Option<ClusterEvent>, String> {
        for (group, g) in self.groups.iter_mut().enumerate() {
            for (replica, state) in g.replicas.iter_mut().enumerate() {
                let column = &self.columns[replica];
                if state.down || state.generation >= column.generation {
                    continue;
                }
                let event = match column.load(group, replica) {
                    Ok(to) => {
                        let from = std::mem::replace(&mut state.generation, to);
                        ClusterEvent::UpgradeApplied {
                            group,
                            replica,
                            from,
                            to,
                        }
                    }
                    Err(failed) => {
                        state.down = true;
                        failed
                    }
                };
                self.events.push(event.clone());
                return Ok(Some(event));
            }
        }
        Ok(None)
    }

    /// The outcome ([`shown`]) of a control-plane step.
    fn control(&mut self, step: &ClusterStep, published: u64) -> Result<String, String> {
        let shown = |value: &dyn std::fmt::Debug| Ok(format!("{value:?}"));
        let refused = Err(BAD_TOPOLOGY.to_string());
        match *step {
            ClusterStep::Upgrade => shown(&self.upgrade_step()?),
            ClusterStep::Roll => {
                let mut events = Vec::new();
                while let Some(event) = self.upgrade_step()? {
                    events.push(event);
                }
                shown(&events)
            }
            ClusterStep::Repair { group, replica } => {
                let slot = self.groups.get_mut(group).map(|g| &mut g.replicas);
                let Some(state) = slot.and_then(|r| r.get_mut(replica)) else {
                    return refused;
                };
                let generation = published;
                *state = ReplicaState::default();
                state.generation = generation;
                self.events.push(ClusterEvent::ReplicaRepaired {
                    group,
                    replica,
                    generation,
                });
                shown(&generation)
            }
            ClusterStep::Kill { group, replica } => {
                let slot = self.groups.get_mut(group).map(|g| &mut g.replicas);
                let Some(state) = slot.and_then(|r| r.get_mut(replica)) else {
                    return refused;
                };
                if !state.down {
                    (state.down, state.killed) = (true, true);
                    self.events
                        .push(ClusterEvent::ReplicaKilled { group, replica });
                }
                shown(&())
            }
            _ => refused,
        }
    }

    /// A load over the columns with `damage` on them: a `Persist` error
    /// if none is readable, refused if readable ones disagree or no slot
    /// loads; else each slot at its column's generation, or down.
    fn reload(&mut self, damage: Disk) -> Result<String, String> {
        let (mut columns, mut readable) = (self.columns.clone(), vec![true; self.columns.len()]);
        match damage {
            Disk::Intact => {}
            Disk::Torn(c) => readable[c] = false,
            Disk::Flipped(c, shard) => drop(columns[c].damaged.insert(shard, "checksum")),
            Disk::Removed(shard) => {
                (columns.iter_mut()).for_each(|c| c.damaged.extend([(shard, "missing")]))
            }
            Disk::Garbage => readable.fill(false),
            Disk::Foreign => return Err(BAD_TOPOLOGY.into()),
        }
        let loads = |r: usize| (0..SHARDS).any(|g| !columns[r].damaged.contains_key(&g));
        if !readable.contains(&true) {
            return Err(PERSIST.into());
        } else if !(0..readable.len()).any(|r| readable[r] && loads(r)) {
            return Err(BAD_TOPOLOGY.into());
        }
        for replica in (0..readable.len()).filter(|&r| !readable[r]) {
            let error = "unreadable".into();
            self.events
                .push(ClusterEvent::ManifestRejected { replica, error });
        }
        let group = GroupState {
            cursor: 0,
            replicas: vec![ReplicaState::default(); readable.len()],
        };
        self.groups = vec![group; SHARDS];
        for (g, group) in self.groups.iter_mut().enumerate() {
            for (r, state) in group.replicas.iter_mut().enumerate() {
                match readable[r].then(|| columns[r].load(g, r)) {
                    Some(Ok(generation)) => state.generation = generation,
                    failed => {
                        state.down = true;
                        self.events.extend(failed.and_then(Result::err));
                    }
                }
            }
        }
        Ok("()".into())
    }
}

/// One cluster schedule in flight, with the model's view of it.
struct ClusterRun<'s> {
    schedule: &'s ClusterSchedule,
    /// The run's directory; the publish directory's manifest; one
    /// manifest per replica column, each in a directory of its own; and
    /// manifests of another aggregate and of the `2 × SHARDS`-shard
    /// build.
    dir: PathBuf,
    publish: PathBuf,
    columns: Vec<PathBuf>,
    foreign: [PathBuf; 2],
    opts: ClusterOptions,
    cluster: Cluster,
    /// The newest generation published.
    published: u64,
    /// [`pool_moments`] of generations 0–2.
    moments: Vec<Vec<Vec<Moments>>>,
    model: ClusterModel,
    /// Every event, and which other [`CLUSTER_EVENTS`] happened.
    seen: HashSet<String>,
}

impl ClusterRun<'_> {
    /// `op` on the cluster, whose events must be the model's (15).
    fn apply<T>(&mut self, op: impl FnOnce(&mut Cluster) -> T) -> T {
        let got = op(&mut self.cluster);
        let events: Vec<_> = self.cluster.take_events().into_iter().map(coarse).collect();
        let want = std::mem::take(&mut self.model.events);
        assert_eq!(events, want, "(15) the events");
        self.seen.extend(events.iter().map(|e| format!("{e:?}")));
        got
    }

    /// Pool query `i`'s answer: `sources`' moments merged, finished once.
    fn answer<'a>(&self, sources: impl Iterator<Item = &'a Vec<Moments>>, i: usize) -> u64 {
        let total = sources.map(|m| m[i]).fold(Moments::ZERO, Moments::merge);
        finish_guarded(self.schedule.aggregate, total).to_bits()
    }

    /// A batch, held to the model (15), (16) and the oracle (14).
    fn serve(&mut self, rows: &[usize]) -> Result<ClusterBatchReport, String> {
        let queries: Vec<Vec<f64>> = rows.iter().map(|&i| fixture().pool[i].clone()).collect();
        let want = self.model.serve(self.schedule.quorum);
        let got = self.apply(|c| {
            let answered = c.answer_batch(&queries).map_err(|e| e.to_string());
            let bits = |answers: Vec<f64>| answers.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            answered.map(|(answers, report)| (bits(answers), report))
        });
        let report = got.as_ref().map(|(_, report)| report);
        assert_eq!(report, want.as_ref(), "(15), (16) the batch");
        let Ok((answers, report)) = got else {
            self.seen.insert("a typed quorum loss".into());
            return want;
        };
        // (14): per row, each covered group's source shard at the served
        // generation, merged in group order and finished once.
        let moments = &self.moments[report.generation as usize];
        let mut sources = Vec::new();
        let chosen = self.model.groups.iter().zip(&report.chosen).enumerate();
        for (group, state) in chosen.filter_map(|(i, (g, r))| Some((i, g.replicas[(*r)?]))) {
            assert!(state.serves(report.generation), "(15) chose {state:?}");
            sources.push(&moments[group]);
        }
        assert_eq!(answers.len(), rows.len());
        for (k, (&i, got)) in rows.iter().zip(&answers).enumerate() {
            let want = self.answer(sources.iter().copied(), i);
            assert_eq!(*got, want, "(14) row {k}, pool query {i}: {report:?}");
        }
        if report.covered() < report.chosen.len() {
            self.seen.insert("a partial-quorum answer".into());
        }
        if report.stale() {
            self.seen.insert("a stale batch".into());
        }
        let killed_at = |g: &GroupState| {
            (g.replicas.iter()).any(|r| r.killed && r.generation == report.generation)
        };
        let mut groups = self.model.groups.iter().zip(&report.chosen);
        if groups.any(|(g, r)| r.is_some() && killed_at(g)) {
            let around = "a batch routed around a killed replica";
            self.seen.insert(around.into());
        }
        if rows.len() > 2 * SCATTER_SUB_BATCH {
            let crossing = "a batch crossing the sub-batch bound";
            self.seen.insert(crossing.into());
        }
        Ok(report)
    }

    fn step(&mut self, step: &ClusterStep) {
        match step {
            ClusterStep::Serve { rows } => drop(self.serve(rows)),
            ClusterStep::Long { len } => {
                drop(self.serve(&Vec::from_iter((0..*len).map(|i| i % POOL))))
            }
            ClusterStep::Publish { skip } => {
                self.published += 1;
                let (generations, _) = &fixture().cluster[&self.schedule.aggregate];
                let next = generations.get(self.published as usize);
                let next = next.expect("a schedule publishes two generations at most");
                let next = next.quantized_to(self.schedule.mode);
                let every_shard: Vec<usize> = (0..SHARDS).collect();
                persist::save_refreshed(&self.publish, &next, &every_shard).unwrap();
                for r in (0..self.columns.len()).filter(|r| !skip.contains(r)) {
                    publish_into(&self.publish, self.columns[r].parent().unwrap());
                    let column = &mut self.model.columns[r];
                    (column.generation, column.damaged) = (self.published, BTreeMap::new());
                }
            }
            &ClusterStep::Damage { column, shard } => {
                damage_columns(&self.columns, Disk::Flipped(column, shard));
                self.model.columns[column].damaged.insert(shard, "checksum");
            }
            ClusterStep::Reload { damage, rows } => self.reload(*damage, rows),
            _ => self.control(step),
        }
        // (18) The plan, groups and generations are the model's.
        let shards = self.model.groups.len();
        assert_eq!(
            self.cluster.plan(),
            ShardPlan::RoundRobin { shards },
            "(18)"
        );
        let groups = self.cluster.groups();
        assert_eq!(groups.len(), shards, "(18) the groups");
        for (got, want) in groups.iter().zip(&self.model.groups) {
            let replicas = got.replicas().iter().map(|r| r.generation());
            let model = want.replicas.iter().map(|r| r.generation);
            assert!(replicas.eq(model), "(18) {want:?}");
        }
    }

    /// `Cluster::load` over a copy of the columns with `damage` on it:
    /// on success the loaded cluster replaces the run's. Then a batch of
    /// `rows`.
    fn reload(&mut self, damage: Disk, rows: &[usize]) {
        let copy = |(c, m): (usize, &PathBuf)| publish_into(m, &self.dir.join(format!("load/{c}")));
        let mut columns: Vec<PathBuf> = self.columns.iter().enumerate().map(copy).collect();
        damage_columns(&columns, damage);
        if damage == Disk::Foreign {
            columns[0] = self.foreign[0].clone();
        }
        let want = self.model.reload(damage);
        let opts = self.opts;
        let got = self.apply(|c| {
            let loaded = Cluster::load(&columns, RoutePolicy::RoundRobin, opts);
            shown(loaded.map(|loaded| *c = loaded))
        });
        std::fs::remove_dir_all(self.dir.join("load")).unwrap();
        assert_eq!(got, want, "(15), (18) a reload after {damage:?}");
        self.seen
            .insert(format!("{got:?} from a reload after {damage:?}"));
        let groups = &self.model.groups;
        let lost = got.is_ok() && groups.iter().any(|g| g.replicas.iter().all(|r| r.down));
        let mixed = got.is_ok() && self.model.held().len() > 1;
        let after = match self.serve(rows) {
            Err(_) if lost => "a lost group: QuorumLost",
            Ok(r) if lost && r.covered() < r.chosen.len() => "a lost group: a partial answer",
            Ok(r) if mixed && r.stale() => "mixed generations: a stale batch",
            _ => "nothing",
        };
        self.seen.insert(format!("after a reload with {after}"));
    }

    /// A control-plane step: its outcome is the model's (15); then (17)
    /// a roll has finished, and (18) a foreign manifest was refused.
    fn control(&mut self, step: &ClusterStep) {
        let (columns, published) = (self.columns.clone(), self.published);
        let down = match *step {
            ClusterStep::Kill { group, replica } => {
                let group = self.model.groups.get(group);
                group.and_then(|g| g.replicas.get(replica)).map(|r| r.down)
            }
            _ => None,
        };
        let foreign = match *step {
            ClusterStep::Foreign { plan, .. } => self.foreign[usize::from(plan)].clone(),
            _ => self.publish.clone(),
        };
        let want = self.model.control(step, published);
        let coarse_all =
            |events: Vec<ClusterEvent>| events.into_iter().map(coarse).collect::<Vec<_>>();
        let got = self.apply(|c| match *step {
            ClusterStep::Upgrade => shown(c.rolling_upgrade_step(&columns).map(|e| e.map(coarse))),
            ClusterStep::Roll => shown(c.rolling_upgrade(&columns).map(coarse_all)),
            ClusterStep::Repair { group, replica } => {
                shown(c.repair_replica(group, replica, &foreign))
            }
            ClusterStep::Kill { group, replica } => shown(c.kill_replica(group, replica)),
            ClusterStep::Foreign { repair: true, .. } => shown(c.repair_replica(0, 0, &foreign)),
            _ => {
                let mut columns = columns.clone();
                columns[0] = foreign;
                shown(c.rolling_upgrade_step(&columns))
            }
        });
        assert_eq!(got, want, "(15), (18) {step:?}");
        let rolled = matches!(step, ClusterStep::Upgrade | ClusterStep::Roll);
        if rolled && got.as_ref().is_ok_and(|e| e.contains("checksum")) {
            self.seen.insert("an upgrade failing its checksum".into());
        }
        match *step {
            ClusterStep::Roll => {
                for g in &self.model.groups {
                    for (r, state) in g.replicas.iter().enumerate() {
                        let at = self.model.columns[r].generation;
                        assert!(state.down || state.generation >= at, "(17) {state:?}");
                        if !state.down && at < published {
                            let behind = "a column behind after a finished roll";
                            self.seen.insert(behind.into());
                        }
                    }
                }
                let again = self.apply(|c| shown(c.rolling_upgrade_step(&columns)));
                assert_eq!(again, Ok("None".into()), "(17) a finished roll");
            }
            ClusterStep::Foreign { .. } => {
                self.seen.insert("a refused foreign manifest".into());
            }
            ClusterStep::Kill { .. } => {
                let kill = match down {
                    None => "a kill refused for a slot that does not exist",
                    Some(true) => "a kill of a replica already down",
                    Some(false) => "a kill",
                };
                self.seen.insert(kill.into());
            }
            _ => {}
        }
    }
}

/// Run `schedule` on its threads and on one, each held to the model
/// and oracle after every step, so the two agree bitwise (13).
fn run_cluster(schedule: &ClusterSchedule) -> HashSet<String> {
    let _print = PrintOnPanic(schedule);
    let at = |threads| run_cluster_at(schedule, threads);
    [schedule.threads, 1].into_iter().flat_map(at).collect()
}

fn run_cluster_at(schedule: &ClusterSchedule, threads: usize) -> HashSet<String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let (builds, fine) = &fixture().cluster[&schedule.aggregate];
    let stored = |b: &ShardedSketch| b.quantized_to(schedule.mode);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let name = format!("composition-cluster-{}-{run}", std::process::id());
    let dir = std::env::temp_dir().join(name);
    let publish = persist::save_sharded(dir.join("publish"), &stored(&builds[0])).unwrap();
    let column = |r: usize| publish_into(&publish, &dir.join(format!("r{r}")));
    let columns: Vec<PathBuf> = (0..schedule.replicas).map(column).collect();
    let other = Aggregate::ALL
        .into_iter()
        .find(|&a| a != schedule.aggregate);
    let other = persist::save_sharded(dir.join("other"), &fixture().cluster[&other.unwrap()].0[0]);
    let resharded = persist::save_sharded(dir.join("resharded"), fine);
    let foreign = [other.unwrap(), resharded.unwrap()];
    let opts = ClusterOptions {
        threads,
        quorum: schedule.quorum,
    };
    let mut cluster = Cluster::load(&columns, RoutePolicy::RoundRobin, opts).unwrap();
    assert_eq!(cluster.take_events(), [], "a clean load logs nothing");
    let mut run = ClusterRun {
        schedule,
        dir,
        publish,
        columns,
        foreign,
        opts,
        cluster,
        published: 0,
        moments: builds.iter().map(|b| pool_moments(&stored(b))).collect(),
        model: ClusterModel::new(schedule.replicas),
        seen: HashSet::new(),
    };
    for step in &schedule.steps {
        run.step(step);
    }
    std::fs::remove_dir_all(&run.dir).ok();
    run.seen
}

/// Prints the schedule of a run that panics.
struct PrintOnPanic<'s, T: Serialize>(&'s T);

impl<T: Serialize> Drop for PrintOnPanic<'_, T> {
    fn drop(&mut self) {
        if let (true, Ok(json)) = (std::thread::panicking(), serde_json::to_string(self.0)) {
            eprintln!("failing schedule (paste into REGRESSIONS to replay):\n{json}");
        }
    }
}

/// Run `schedule` from generation 0, checking every invariant after
/// every step. Returns every batch's tally, summed, and which of
/// [`TIER1_EVENTS`] it made happen.
fn run(schedule: &Schedule) -> (DeployStats, HashSet<&'static str>) {
    let _print = PrintOnPanic(schedule);
    let model = model_of(schedule, 0);
    let cache = Arc::new(AnswerCache::new(schedule.budget, 2));
    let live = Arc::new(LiveDeployment::new(model.front(schedule, &cache, 0), 0));
    let mut run = Run {
        schedule,
        net: (schedule.wire.as_ref()).map(|wire| Net::open(wire, live.clone())),
        live,
        cache,
        build: 0,
        oracle: model.oracle(schedule.aggregate),
        model: model.clone(),
        generation: 0,
        served: HashSet::new(),
        fresh: true,
        last: Step::Batch {
            rows: Vec::new(),
            flat: false,
        },
        total: DeployStats::default(),
        seen: HashSet::new(),
    };
    for step in &schedule.steps {
        run.step(step);
    }
    (run.total, run.seen)
}

/// Run the schedules of `seeds`, each covering the minimum. Returns
/// every tally, summed, and which of [`TIER1_EVENTS`] they made happen.
fn sweep(seeds: std::ops::Range<u64>) -> (DeployStats, HashSet<&'static str>) {
    let (mut total, mut seen) = (DeployStats::default(), HashSet::new());
    for seed in seeds {
        let schedule = Schedule::generate(seed);
        assert!(schedule.covers_the_minimum(), "{schedule:?}");
        let (tally, events) = run(&schedule);
        total += tally;
        seen.extend(events);
    }
    (total, seen)
}

#[test]
fn tier1_seeds_hold_every_invariant() {
    let (total, seen) = sweep(0..TIER1_SEEDS);
    for event in TIER1_EVENTS {
        assert!(seen.contains(event), "no tier-1 seed has {event}");
    }
    let both_exact_routes = total.exact_small_range > 0 && total.exact_hard_leaf > 0;
    assert!(both_exact_routes, "{total:?}");
}

#[test]
fn cluster_tier1_seeds_hold_every_invariant() {
    let run = |seed| run_cluster(&ClusterSchedule::generate(seed));
    let seen: HashSet<String> = (0..CLUSTER_TIER1_SEEDS).flat_map(run).collect();
    let happened = |event: &&str| seen.iter().any(|s| s.starts_with(event));
    let missing: Vec<_> = CLUSTER_EVENTS.iter().filter(|e| !happened(e)).collect();
    assert!(missing.is_empty(), "no tier-1 cluster seed has {missing:?}");
}

/// An entry replays as the leg whose (disjoint) required fields it has.
#[test]
fn regression_schedules_replay() {
    fn round_trips<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(s: &T) {
        let again = serde_json::to_string(s).unwrap();
        assert_eq!(&serde_json::from_str::<T>(&again).unwrap(), s);
    }
    for json in REGRESSIONS {
        if let Ok(schedule) = serde_json::from_str::<Schedule>(json) {
            round_trips(&schedule);
            run(&schedule);
        } else {
            let schedule: ClusterSchedule = serde_json::from_str(json).unwrap();
            round_trips(&schedule);
            run_cluster(&schedule);
        }
    }
}

/// The long sweeps, of both legs:
/// `cargo test --release --test composition -- --ignored`.
#[test]
#[ignore]
fn long_sweep_holds_every_invariant() {
    sweep(TIER1_SEEDS..TIER1_SEEDS + 1_024);
    let cluster = CLUSTER_TIER1_SEEDS..CLUSTER_TIER1_SEEDS + 256;
    cluster.for_each(|seed| drop(run_cluster(&ClusterSchedule::generate(seed))));
}

/// A front keyed to generation 0 stamped generation 1 would serve
/// generation 0's cached answers as generation 1's.
#[test]
#[should_panic(expected = "deployment states generation 0 but is stamped generation 1")]
fn a_front_keyed_to_another_generation_is_refused() {
    let schedule = Schedule::generate(0);
    let cache = Arc::new(AnswerCache::new(AMPLE, 2));
    let live = LiveDeployment::new(model_of(&schedule, 0).front(&schedule, &cache, 0), 0);
    live.swap(model_of(&schedule, 1).front(&schedule, &cache, 0), 1);
}
