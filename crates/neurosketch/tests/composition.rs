//! The answer front composed end to end under seeded schedules:
//! [`LiveDeployment`] → [`CachedDeployment`] → a DQD-routed
//! [`SketchServer`] with the exact fallback, or a 2-shard
//! [`ShardedServer`].
//!
//! A seed is a pure function to a [`Schedule`]: the inner deployment,
//! aggregate, thread count and cache budget, then batches (0, 1, many
//! and over 65 534 rows, from a small pool with `f64`-ulp twins and a
//! `±0.0` pair, in row and flat form, with in-batch repeats), repeats,
//! swaps and refreshes at F16 or I8. After every step the run checks:
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
//!    entry per (generation, query) served, and a repeat is all warm;
//! 7. a refresh keeps the storage mode and answers the pool bitwise like
//!    its own decoded NSK2 artifact.
//!
//! A failing run prints its schedule as JSON; paste it into
//! [`REGRESSIONS`] to replay it on every run.

use neurosketch::cache::{entry_bytes, AnswerCache, CachedDeployment};
use neurosketch::deploy::{DeployStats, Deployment, LiveDeployment, QueryBatch};
use neurosketch::maintenance::{retrain_shards, DriftMonitor, MaintenancePlan};
use neurosketch::router::{range_volume, DqdRouter, RoutingPolicy};
use neurosketch::serve::{ExactBackend, ServeOptions, SketchServer};
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer, ShardedSketch};
use neurosketch::{persist, NeuroSketch, NeuroSketchConfig};
use nn::QuantMode;
use query::aggregate::{Aggregate, MomentKind};
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Queries in the pool every batch draws from.
const POOL: usize = 32;
/// Longest sub-batch the front's dedup table addresses.
const SUB_BATCH: usize = 65_534;
/// A cache budget no schedule fills.
const AMPLE: usize = 1 << 20;
/// Seeds of the tier-1 run; the ignored sweep runs the next 1 024.
const TIER1_SEEDS: u64 = 32;

/// Schedules replayed on every run: failures once printed, and past
/// bugs written as schedules.
const REGRESSIONS: &[&str] = &[
    // A partition retrained under I8 storage serves the I8 model, not
    // the unrounded one its artifact cannot hold.
    r#"{"seed": 0, "sharded": false, "aggregate": "Avg", "threads": 1, "budget": 1048576,
        "steps": [{"Refresh": {"mode": "I8", "unit": 0, "plan": false}},
                  {"Batch": {"rows": [0, 1, 2, 3, 0, 16, 24], "flat": false}}]}"#,
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
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Step {
    /// Pool queries by index, served in flat or row form.
    Batch { rows: Vec<usize>, flat: bool },
    /// `len` rows cycling through the pool, served flat.
    Long { len: usize },
    /// The previous batch again (the empty batch if there was none).
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
    /// empty batch, a batch with a duplicate, a swap and a refresh.
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
        Schedule {
            seed,
            sharded: pick(2) == 1,
            aggregate: Aggregate::ALL[pick(4)],
            threads: [1, 2, 4][pick(3)],
            budget: [0, 6 * entry_bytes(2), AMPLE][pick(3)],
            steps,
        }
    }

    /// Whether the schedule serves an empty batch, a batch with an
    /// in-batch duplicate, a swap and a refresh.
    fn covers_the_minimum(&self) -> bool {
        let has = |f: &dyn Fn(&Step) -> bool| self.steps.iter().any(f);
        let repeats = |rows: &Vec<usize>| rows.iter().collect::<HashSet<_>>().len() < rows.len();
        has(&|s| matches!(s, Step::Batch { rows, .. } if rows.is_empty()))
            && has(&|s| matches!(s, Step::Batch { rows, .. } if repeats(rows)))
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
            let sharded = [0, 1].map(|seed| {
                let plan = ShardPlan::RoundRobin { shards: 2 };
                let built = build_sharded(data, 1, &plan, pred, agg, queries, &cfg(seed, 6));
                Model::Sharded(built.unwrap().0)
            });
            (agg, [mono, sharded])
        };
        let builds = Aggregate::ALL[..4].iter().map(builds_of).collect();
        Fixture {
            engine,
            wl,
            pool,
            builds,
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
    live: LiveDeployment,
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
    last: (Vec<usize>, bool, u64),
    /// Every batch's tally, summed.
    total: DeployStats,
}

impl Run<'_> {
    /// Serve `model` as the next generation.
    fn install(&mut self, model: Model) {
        self.generation += 1;
        let front = model.front(self.schedule, &self.cache, self.generation);
        let replaced = self.live.swap(front, self.generation);
        assert_eq!(replaced + 1, self.generation, "(2) swap");
        self.oracle = model.oracle(self.schedule.aggregate);
        self.model = model;
        self.fresh = true;
    }

    fn serve(&mut self, rows: Vec<usize>, flat: bool, repeat: bool) {
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
        self.served.extend(rows.iter().map(|&i| (generation, i)));
        if self.schedule.budget >= AMPLE {
            let resident = cache.evictions == 0 && cache.entries == self.served.len();
            assert!(resident, "(6) {cache:?}");
            let warm = stats.cache_hits + stats.dedup_hits;
            assert!(!repeat || warm == rows.len(), "(6) repeat: {stats:?}");
        }
        self.total += stats;
        self.last = (rows, flat, generation);
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

    fn step(&mut self, step: &Step) {
        match step {
            Step::Batch { rows, flat } => self.serve(rows.clone(), *flat, false),
            Step::Long { len } => self.serve((0..*len).map(|i| i % POOL).collect(), true, false),
            Step::Repeat => {
                let (rows, flat, generation) = self.last.clone();
                self.serve(rows, flat, generation == self.generation);
            }
            Step::Swap => {
                self.build ^= 1;
                self.install(model_of(self.schedule, self.build).clone());
            }
            Step::Refresh { mode, unit, plan } => self.refresh(*mode, *unit, *plan),
        }
    }
}

/// Prints the schedule of a run that panics.
struct PrintOnPanic<'s>(&'s Schedule);

impl Drop for PrintOnPanic<'_> {
    fn drop(&mut self) {
        if let (true, Ok(json)) = (std::thread::panicking(), serde_json::to_string(self.0)) {
            eprintln!("failing schedule (paste into REGRESSIONS to replay):\n{json}");
        }
    }
}

/// Run `schedule` from generation 0, checking every invariant after
/// every step. Returns every batch's tally, summed.
fn run(schedule: &Schedule) -> DeployStats {
    let _print = PrintOnPanic(schedule);
    let model = model_of(schedule, 0);
    let cache = Arc::new(AnswerCache::new(schedule.budget, 2));
    let mut run = Run {
        schedule,
        live: LiveDeployment::new(model.front(schedule, &cache, 0), 0),
        cache,
        build: 0,
        oracle: model.oracle(schedule.aggregate),
        model: model.clone(),
        generation: 0,
        served: HashSet::new(),
        fresh: true,
        last: (Vec::new(), false, 0),
        total: DeployStats::default(),
    };
    for step in &schedule.steps {
        run.step(step);
    }
    run.total
}

/// Run the schedules of `seeds`, each covering the minimum. Returns
/// whether any has a batch longer than a sub-batch, and every tally.
fn sweep(seeds: std::ops::Range<u64>) -> (bool, DeployStats) {
    let (mut long, mut total) = (false, DeployStats::default());
    for seed in seeds {
        let schedule = Schedule::generate(seed);
        assert!(schedule.covers_the_minimum(), "{schedule:?}");
        long |= (schedule.steps.iter()).any(|s| matches!(s, Step::Long { .. }));
        total += run(&schedule);
    }
    (long, total)
}

#[test]
fn tier1_seeds_hold_every_invariant() {
    let (long, total) = sweep(0..TIER1_SEEDS);
    assert!(long, "no batch is longer than {SUB_BATCH} rows");
    let both_exact_routes = total.exact_small_range > 0 && total.exact_hard_leaf > 0;
    assert!(both_exact_routes, "{total:?}");
}

#[test]
fn regression_schedules_replay() {
    for json in REGRESSIONS {
        let schedule: Schedule = serde_json::from_str(json).unwrap();
        let again = serde_json::to_string(&schedule).unwrap();
        assert_eq!(serde_json::from_str::<Schedule>(&again).unwrap(), schedule);
        run(&schedule);
    }
}

/// The long sweep: `cargo test --release --test composition -- --ignored`.
#[test]
#[ignore]
fn long_sweep_holds_every_invariant() {
    sweep(TIER1_SEEDS..TIER1_SEEDS + 1_024);
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
