//! The answer-cache contract, property-tested: a deployment behind the
//! one answer front ([`CachedDeployment`]) returns **bitwise identical**
//! answers to the bare one, at any thread count, for every aggregate, through evictions,
//! and across hot swaps — where generation keying must also mean **zero
//! cross-generation hits** by construction.
//!
//! Every case serves the same duplicated stream twice (a cold pass that
//! fills the cache, a warm pass that hits it) and compares both passes
//! against the uncached baseline, so the hit path — not just the
//! fill path — is what the bitwise assertions pin down.

use neurosketch::cache::{entry_bytes, AnswerCache, CachedDeployment};
use neurosketch::deploy::{Deployment, LiveDeployment};
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::serve::{ServeOptions, SketchServer};
use neurosketch::shard::{build_sharded, ShardPlan, ShardedServer, ShardedSketch};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use proptest::prelude::*;
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::sync::{Arc, OnceLock};

const AGGREGATES: [Aggregate; 4] = [
    Aggregate::Count,
    Aggregate::Sum,
    Aggregate::Avg,
    Aggregate::Std,
];

fn cfg() -> NeuroSketchConfig {
    let mut cfg = NeuroSketchConfig::small();
    cfg.train.epochs = 6;
    cfg
}

/// One small sketch per aggregate (trained on that aggregate's labels)
/// plus a 2-shard COUNT deployment — built once, shared by every test
/// and property case.
struct Base {
    wl: Workload,
    /// `(sketch, leaf AQCs)` per entry of [`AGGREGATES`].
    by_agg: Vec<(NeuroSketch, Vec<f64>)>,
    sharded: ShardedSketch,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let data = datagen::simple::uniform(400, 2, 11);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 60,
            seed: 7,
        })
        .unwrap();
        let engine = QueryEngine::new(&data, 1);
        let by_agg = AGGREGATES
            .iter()
            .map(|&agg| {
                let labels = engine.label_batch(&wl.predicate, agg, &wl.queries, 2);
                let (sketch, report) =
                    NeuroSketch::build_from_labeled(&wl.queries, &labels, &cfg()).unwrap();
                (sketch, report.leaf_aqcs)
            })
            .collect();
        let (sharded, _) = build_sharded(
            &data,
            1,
            &ShardPlan::RoundRobin { shards: 2 },
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg(),
        )
        .unwrap();
        Base {
            wl,
            by_agg,
            sharded,
        }
    })
}

fn opts(threads: usize) -> ServeOptions {
    ServeOptions {
        threads,
        ..ServeOptions::default()
    }
}

fn server(agg_idx: usize, threads: usize) -> SketchServer<'static> {
    let (sketch, aqcs) = &base().by_agg[agg_idx];
    SketchServer::new(
        DqdRouter::new(sketch.clone(), aqcs.clone(), RoutingPolicy::default()),
        opts(threads),
    )
}

/// `inner` behind the front, keyed at generation 0 with `agg`'s tag.
fn fronted(
    inner: impl Deployment + 'static,
    cache: AnswerCache,
    agg: Aggregate,
) -> CachedDeployment {
    CachedDeployment::with_aggregate(inner, Arc::new(cache), 0, agg)
}

/// A repeat-heavy stream: the workload queries selected by `picks`,
/// so arbitrary duplication patterns (including within-batch runs of
/// the same query) come straight from the proptest strategy.
fn stream_of(picks: &[usize]) -> (Vec<Vec<f64>>, Vec<usize>) {
    let wl = &base().wl;
    let stream = picks
        .iter()
        .map(|&p| wl.queries[p % wl.queries.len()].clone())
        .collect();
    let idx = picks.iter().map(|&p| p % wl.queries.len()).collect();
    (stream, idx)
}

fn assert_bitwise(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: answer {i} drifted ({g} vs {w})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached + deduplicated serving is bitwise identical to the
    /// uncached path for every aggregate, at 1 and 4 threads, over
    /// arbitrary duplication patterns — cold pass and warm (hitting)
    /// pass alike.
    #[test]
    fn cached_serving_is_bitwise_identical(
        picks in prop::collection::vec(0usize..60, 1..70),
        agg_idx in 0usize..AGGREGATES.len(),
        threads in (0usize..2).prop_map(|b| if b == 0 { 1 } else { 4 }),
    ) {
        let (stream, idx) = stream_of(&picks);
        let baseline = server(agg_idx, 1);
        let (direct, _) = baseline.answer_batch(&base().wl.queries);
        let want: Vec<f64> = idx.iter().map(|&i| direct[i]).collect();

        let cached = fronted(
            server(agg_idx, threads),
            AnswerCache::new(64 << 10, 8),
            AGGREGATES[agg_idx],
        );
        let (cold, _) = cached.answer_batch(&stream);
        assert_bitwise("cold pass", &cold, &want);
        let (warm, warm_stats) = cached.answer_batch(&stream);
        assert_bitwise("warm pass", &warm, &want);
        prop_assert_eq!(
            warm_stats.cache_hits + warm_stats.dedup_hits,
            stream.len(),
            "second pass of an identical stream must be all hits"
        );
    }

    /// A cache so small it is evicting constantly still never changes
    /// an answer — the budget bounds memory, not correctness.
    #[test]
    fn tiny_budget_eviction_never_changes_answers(
        picks in prop::collection::vec(0usize..60, 20..70),
        threads in (0usize..2).prop_map(|b| if b == 0 { 1 } else { 4 }),
    ) {
        let (stream, idx) = stream_of(&picks);
        let baseline = server(0, 1);
        let (direct, _) = baseline.answer_batch(&base().wl.queries);
        let want: Vec<f64> = idx.iter().map(|&i| direct[i]).collect();

        // Room for ~3 entries across 2 stripes: almost every insert
        // evicts, and the doorkeeper gates almost every admission.
        let tiny = AnswerCache::new(3 * entry_bytes(base().wl.queries[0].len()), 2);
        let cached = fronted(server(0, threads), tiny, AGGREGATES[0]);
        for pass in 0..3 {
            let (got, _) = cached.answer_batch(&stream);
            assert_bitwise(&format!("tiny-budget pass {pass}"), &got, &want);
        }
    }
}

/// The cache key is the query's `f64` bits, the model's input is its
/// `f32` rounding: two queries one `f64` ulp apart are the same row to
/// the kernel and must still be two keys — neither collapsed by the
/// in-batch dedup nor answered from the other's entry — with equal
/// answers, cold and warm.
#[test]
fn queries_closer_than_f32_resolution_keep_their_own_entries() {
    let (sketch, _) = &base().by_agg[0];
    let twin = |q: &Vec<f64>| {
        let mut t = q.clone();
        t[0] = f64::from_bits(t[0].to_bits() + 1);
        assert_eq!(t[0] as f32, q[0] as f32, "twin must round to the same f32");
        t
    };
    // The kd-tree reads the f64 query: a training query sitting exactly
    // on a split value has its twin in the neighbouring leaf, under
    // another model. Those pairs are not the subject here.
    let originals: Vec<Vec<f64>> = (base().wl.queries.iter())
        .filter(|q| sketch.leaf_index_of(&twin(q)) == sketch.leaf_index_of(q))
        .cloned()
        .collect();
    assert!(originals.len() + 4 > base().wl.queries.len());
    let twins: Vec<Vec<f64>> = originals.iter().map(twin).collect();
    let n = originals.len();
    let batch: Vec<Vec<f64>> = originals.iter().chain(&twins).cloned().collect();
    let cached = fronted(
        server(0, 1),
        AnswerCache::new(256 << 10, 8),
        Aggregate::Count,
    );
    let (want, _) = server(0, 1).answer_batch(&batch);
    assert_bitwise("twins answer alike", &want[n..], &want[..n]);
    let (cold, cold_stats) = cached.answer_batch(&batch);
    assert_bitwise("cold", &cold, &want);
    assert_eq!((cold_stats.dedup_hits, cold_stats.cache_hits), (0, 0));
    assert_eq!(cached.cache().stats().entries, 2 * n);
    let (warm, warm_stats) = cached.answer_batch(&batch);
    assert_bitwise("warm", &warm, &want);
    assert_eq!(warm_stats.cache_hits, 2 * n);
}

/// The sharded scatter/gather layer behind the front: bitwise parity
/// against the bare sharded path, cold and warm, at 1 and 4 threads.
#[test]
fn sharded_cached_serving_is_bitwise_identical() {
    let b = base();
    let baseline = ShardedServer::new(b.sharded.clone(), opts(1));
    let (want, _) = baseline.answer_batch(&b.wl.queries);
    for threads in [1usize, 4] {
        let cached = fronted(
            ShardedServer::new(b.sharded.clone(), opts(threads)),
            AnswerCache::new(64 << 10, 8),
            Aggregate::Count,
        );
        let (cold, _) = cached.answer_batch(&b.wl.queries);
        assert_bitwise("sharded cold", &cold, &want);
        let (warm, stats) = cached.answer_batch(&b.wl.queries);
        assert_bitwise("sharded warm", &warm, &want);
        assert_eq!(
            stats.cache_hits,
            b.wl.queries.len(),
            "second identical batch must be all cache hits"
        );
    }
}

/// Hot swap mid-stream over one shared cache: after the generation
/// bump, not a single answer may come from the old generation's
/// entries — zero stale hits, by construction of the key, verified
/// bitwise and on the counters.
#[test]
fn hot_swap_has_zero_cross_generation_hits() {
    let b = base();
    // Two genuinely different deployments (different aggregates), so a
    // stale hit would be visible in the bits, not just the counters.
    let inner0 = Arc::new(server(0, 2));
    let inner1 = Arc::new(server(1, 2));
    let (want0, _) = inner0.answer_batch(&b.wl.queries);
    let (want1, _) = inner1.answer_batch(&b.wl.queries);
    assert_ne!(
        want0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "test must distinguish generations"
    );

    let cache = Arc::new(AnswerCache::new(256 << 10, 8));
    let live = LiveDeployment::new(CachedDeployment::new(inner0.clone(), cache.clone(), 0), 0);
    // Warm generation 0: second pass is all hits.
    live.answer_batch(&b.wl.queries);
    let (got0, stats0) = live.answer_batch(&b.wl.queries);
    assert_bitwise("generation 0 warm", &got0, &want0);
    assert_eq!(stats0.cache_hits, b.wl.queries.len());

    // Swap generations mid-stream; the same shared cache still holds
    // every generation-0 entry, and none of them may answer.
    live.swap(CachedDeployment::new(inner1.clone(), cache.clone(), 1), 1);
    let (got1, stats1) = live.answer_batch(&b.wl.queries);
    assert_bitwise("first post-swap batch", &got1, &want1);
    assert_eq!(
        stats1.cache_hits, 0,
        "a hit across the swap would be a stale answer"
    );

    // The new generation earns its way in: repeats become hits while
    // staying bitwise generation 1.
    live.answer_batch(&b.wl.queries);
    let (got1b, stats1b) = live.answer_batch(&b.wl.queries);
    assert_bitwise("generation 1 warm", &got1b, &want1);
    assert_eq!(stats1b.cache_hits, b.wl.queries.len());
}

/// A batch longer than the front's dedup table addresses (65 534
/// queries) is served as consecutive sub-batches: the answers are
/// bitwise the inner deployment's, a duplicate collapses only onto a
/// representative in its own sub-batch, and the tally still counts every
/// query exactly once.
#[test]
fn batches_longer_than_the_dedup_table_are_served_in_sub_batches() {
    const SPLIT: usize = 65_534;
    const N: usize = 70_000;
    let wl = &base().wl;
    // Distinct queries (a workload query nudged by its position), except
    // a run of one query straddling the split and a second query
    // repeated every 1 000 positions on both sides of it.
    let batch: Vec<Vec<f64>> = (0..N)
        .map(|i| {
            if (SPLIT - 5..SPLIT + 5).contains(&i) {
                wl.queries[0].clone()
            } else if i % 1_000 == 7 {
                wl.queries[1].clone()
            } else {
                let mut q = wl.queries[i % wl.queries.len()].clone();
                q[0] += i as f64 * 1e-9;
                q
            }
        })
        .collect();
    let duplicates = |rows: &[Vec<f64>]| {
        let distinct: std::collections::HashSet<Vec<u64>> = rows
            .iter()
            .map(|q| q.iter().map(|v| v.to_bits()).collect())
            .collect();
        rows.len() - distinct.len()
    };
    let within_sub_batches = duplicates(&batch[..SPLIT]) + duplicates(&batch[SPLIT..]);
    assert!(
        within_sub_batches < duplicates(&batch),
        "no duplicate straddles the split"
    );

    let (want, _) = server(0, 1).answer_batch(&batch);
    let cached = fronted(server(0, 1), AnswerCache::new(8 << 20, 8), Aggregate::Count);
    let (got, stats) = cached.answer_batch(&batch);
    assert_bitwise("sub-batched", &got, &want);
    assert_eq!(stats.queries, N);
    assert_eq!(stats.dedup_hits, within_sub_batches);
    assert_eq!(
        stats.sketch + stats.exact_small_range + stats.exact_hard_leaf,
        stats.cache_misses
    );
    assert_eq!(
        stats.sketch
            + stats.exact_small_range
            + stats.exact_hard_leaf
            + stats.cache_hits
            + stats.dedup_hits,
        N,
        "{stats:?}"
    );
    assert!(
        stats.cache_hits > 0,
        "the second sub-batch hits what the first stored"
    );
}
