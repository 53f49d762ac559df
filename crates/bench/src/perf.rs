//! Machine-readable performance tracking: `BENCH_build.json` /
//! `BENCH_query.json`.
//!
//! Every entry is a named scenario timed over `reps` repetitions with
//! median and p95 wall-clock recorded. The committed files in the repo
//! root are the baseline; the `perfbench` binary re-runs the suites and
//! (with `--check`) fails when any median regresses more than 2x, so the
//! perf trajectory of the build and query paths is tracked from PR to PR.
//!
//! This is the micro-kernel tier. End-to-end serving, sharded,
//! replicated, wire and refresh timings are `nsbench`'s (the gated
//! benchmark of record, with an output check); the suites here keep
//! only what it cannot see: kernel-shape pins timed rep for rep against
//! their reference (`serve_forward_fused` vs
//! `serve_forward_per_example` with `serve_forward_fused_gflops`,
//! `exact_scan_two_attr` vs `exact_scan_two_attr_generic`), the build
//! steps on their own (`label_queries_exact`, `partition_merge_aqc`,
//! `train_leaf_batched` with `train_leaf_gflops`, `build_sketch_h2`),
//! the Alg. 5 per-query path (`serve_single_query_loop`),
//! `route_batch_4096`, the quantized serving entries
//! (`serve_batched_{f16,i8}`) and the `artifact_bytes_{f32,f16,i8}`
//! size curve.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Scenario name, stable across PRs.
    pub name: String,
    /// Median wall-clock per repetition, milliseconds. One repetition
    /// executes the scenario `iters` times, so fast scenarios still
    /// produce medians comfortably above timer noise.
    pub median_ms: f64,
    /// 95th-percentile wall-clock per repetition, milliseconds.
    pub p95_ms: f64,
    /// Repetitions timed.
    pub reps: usize,
    /// Scenario executions per repetition.
    pub iters: usize,
}

/// A suite of timed scenarios, serialized as `BENCH_<suite>.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Suite name ("build" or "query").
    pub suite: String,
    /// Whether the suite ran at `--fast` scale.
    pub fast: bool,
    /// The timed scenarios.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Parse a report written by [`PerfReport::to_json`].
    pub fn from_json(s: &str) -> Result<PerfReport, String> {
        serde_json::from_str(s).map_err(|e| format!("bad perf report: {e}"))
    }

    /// Median of the named entry, if present.
    pub fn median_of(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.median_ms)
    }

    /// Whether `baseline` was produced at the same scale: comparing a
    /// `--fast` run against a full-scale baseline (or vice versa)
    /// measures the scale difference, not the code.
    pub fn comparable_to(&self, baseline: &PerfReport) -> bool {
        self.suite == baseline.suite && self.fast == baseline.fast
    }

    /// Compare against a baseline: every scenario whose median regressed
    /// by more than `factor` is reported, and so is every baseline row
    /// this run no longer produces (a stale row is how a baseline rots;
    /// a produced entry without a row is not a finding — the rewritten
    /// file carries it). Skipped as incomparable: sub-millisecond
    /// baseline medians (at that scale the comparison measures timer
    /// noise, not the code — the suites size `iters` so no tracked
    /// scenario lands under the floor in practice), `*_gflops` entries
    /// (rates riding the report: higher is better) and entries whose
    /// per-repetition `iters` changed (the medians then measure
    /// different amounts of work).
    pub fn regressions_vs(&self, baseline: &PerfReport, factor: f64) -> Vec<String> {
        let mut out = Vec::new();
        for base in &baseline.entries {
            let Some(cur) = self.entries.iter().find(|e| e.name == base.name) else {
                out.push(format!(
                    "{}: in the baseline, not produced by this run",
                    base.name
                ));
                continue;
            };
            // Sub-ms: noise. `*_gflops`: a rate, higher is better.
            if base.median_ms < 1.0 || base.name.ends_with("_gflops") || cur.iters != base.iters {
                continue;
            }
            if cur.median_ms > base.median_ms * factor {
                out.push(format!(
                    "{}: {:.2} ms vs baseline {:.2} ms ({:.1}x)",
                    base.name,
                    cur.median_ms,
                    base.median_ms,
                    cur.median_ms / base.median_ms
                ));
            }
        }
        out
    }
}

/// Queries per pass of the streamed serving entries of
/// [`run_query_suite`].
const SERVE_STREAM_LEN: usize = 2_000;

/// Time `f` over `reps` repetitions; returns `(median_ms, p95_ms)`.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    let reps = reps.max(1);
    let mut samples = Vec::with_capacity(reps);
    // One untimed warm-up so first-touch effects (page faults, lazy
    // allocations) don't land in the median.
    f();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    sample_stats(samples)
}

/// Time two closures over `reps` *interleaved* repetitions (`a` then
/// `b`, each rep, after one untimed warm-up of each); returns each
/// closure's `(median_ms, p95_ms)`.
///
/// Interleaving makes both sample the same drift profile (frequency
/// scaling, co-tenancy), so the **ratio** of the two medians is far
/// more stable than timing one after the other — use it for entry
/// pairs whose tracked number is their comparison.
pub fn time_paired(
    reps: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> ((f64, f64), (f64, f64)) {
    let reps = reps.max(1);
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    a();
    b();
    for _ in 0..reps {
        let t = Instant::now();
        a();
        sa.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        b();
        sb.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (sample_stats(sa), sample_stats(sb))
}

fn sample_stats(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = samples[samples.len() / 2];
    let p95 = samples[((samples.len() as f64 * 0.95).ceil() as usize - 1).min(samples.len() - 1)];
    (median, p95)
}

/// The fixed workloads the perf suites, `netbench` and the examples share.
pub mod scenarios {
    use datagen::simple::uniform;
    use datagen::Dataset;
    use query::aggregate::Aggregate;
    use query::exec::QueryEngine;
    use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

    /// The build-side scenario: a 2-d uniform table, an AVG workload,
    /// and its exact labels.
    pub struct BuildScenario {
        /// The dataset (measure = column 1).
        pub data: Dataset,
        /// The training workload.
        pub wl: Workload,
        /// Exact labels for `wl.queries`.
        pub labels: Vec<f64>,
    }

    /// Build the scenario behind `BENCH_build.json`. `fast` shrinks it
    /// to CI-smoke size.
    pub fn build_scenario(fast: bool) -> BuildScenario {
        let (rows, queries) = if fast { (2_000, 300) } else { (5_000, 600) };
        let data = uniform(rows, 2, 3);
        let engine = QueryEngine::new(&data, 1);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: queries,
            seed: 2,
        })
        .expect("workload");
        let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &wl.queries, 4);
        BuildScenario { data, wl, labels }
    }

    /// The query-side scenario: a 3-d uniform table and an AVG workload
    /// split into train/test.
    pub struct QueryScenario {
        /// The dataset.
        pub data: Dataset,
        /// Measure column.
        pub measure: usize,
        /// The workload.
        pub wl: Workload,
        /// Train split.
        pub train: Vec<Vec<f64>>,
        /// Labels for the train split.
        pub labels: Vec<f64>,
        /// Test split.
        pub test: Vec<Vec<f64>>,
    }

    /// Build the scenario behind `BENCH_query.json`.
    pub fn query_scenario(fast: bool) -> QueryScenario {
        let (rows, queries) = if fast { (5_000, 500) } else { (20_000, 1_200) };
        let data = uniform(rows, 3, 7);
        let measure = 2;
        let engine = QueryEngine::new(&data, measure);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 3,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: queries,
            seed: 1,
        })
        .expect("workload");
        let (train, test) = wl.split(queries / 6);
        let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &train, 4);
        QueryScenario {
            data,
            measure,
            wl,
            train,
            labels,
            test,
        }
    }
}

/// Run the build-side suite: labeling, partitioning+merging, per-leaf
/// training, and the full sketch build.
pub fn run_build_suite(fast: bool, reps: usize) -> PerfReport {
    use neurosketch::aqc::aqc_sampled;
    use neurosketch::{NeuroSketch, NeuroSketchConfig};
    use nn::train::{train, TrainConfig};
    use nn::Mlp;
    use query::aggregate::Aggregate;
    use query::exec::QueryEngine;
    use spatial::KdTree;

    let sc = scenarios::build_scenario(fast);
    let engine = QueryEngine::new(&sc.data, 1);
    let mut entries = Vec::new();
    let mut push = |name: &str, iters: usize, (median_ms, p95_ms): (f64, f64)| {
        entries.push(PerfEntry {
            name: name.into(),
            median_ms,
            p95_ms,
            reps,
            iters,
        });
    };

    // Fast scenarios run many iterations per repetition so every tracked
    // median lands in the 5-15 ms range — far above both the regression
    // check's 1 ms noise floor and CI-runner scheduling jitter.
    let iters = 60;
    push(
        "label_queries_exact",
        iters,
        time_reps(reps, || {
            for _ in 0..iters {
                std::hint::black_box(engine.label_batch(
                    &sc.wl.predicate,
                    Aggregate::Avg,
                    &sc.wl.queries,
                    4,
                ));
            }
        }),
    );

    let iters = 24;
    push(
        "partition_merge_aqc",
        iters,
        time_reps(reps, || {
            for _ in 0..iters {
                let mut tree = KdTree::build(&sc.wl.queries, 4);
                tree.merge_leaves(
                    |qids| {
                        let qs: Vec<Vec<f64>> =
                            qids.iter().map(|&i| sc.wl.queries[i].clone()).collect();
                        let vs: Vec<f64> = qids.iter().map(|&i| sc.labels[i]).collect();
                        aqc_sampled(&qs, &vs, 2_000)
                    },
                    8,
                    4,
                );
                std::hint::black_box(tree.leaf_count());
            }
        }),
    );

    // Per-leaf training at the paper's architecture through the tiled
    // GEMM step. `train_leaf_gflops` is computed from the shapes (real
    // multiply-adds of the forward, `dW` and `dX` products, padding
    // excluded), so it also carries the step's non-GEMM share (Adam,
    // the batch gather, the loss pass).
    let train_cfg = TrainConfig {
        epochs: if fast { 15 } else { 40 },
        patience: 0,
        ..TrainConfig::default()
    };
    let sizes = [2usize, 60, 30, 30, 1];
    let trained = time_reps(reps, || {
        let mut mlp = Mlp::new(&sizes, 9);
        std::hint::black_box(train(&mut mlp, &sc.wl.queries, &sc.labels, &train_cfg));
    });
    push("train_leaf_batched", 1, trained);
    let weights: usize = sizes.windows(2).map(|w| w[0] * w[1]).sum();
    let flops = 2 * (3 * weights - sizes[0] * sizes[1]) * sc.wl.queries.len() * train_cfg.epochs;
    let gflops = flops as f64 / (trained.0 * 1e6);
    push("train_leaf_gflops", 1, (gflops, gflops));

    let iters = 6;
    push(
        "build_sketch_h2",
        iters,
        time_reps(reps, || {
            for _ in 0..iters {
                let mut cfg = NeuroSketchConfig::small();
                cfg.tree_height = 2;
                cfg.target_partitions = 4;
                cfg.train.epochs = 15;
                std::hint::black_box(
                    NeuroSketch::build_from_labeled(&sc.wl.queries, &sc.labels, &cfg).unwrap(),
                );
            }
        }),
    );

    PerfReport {
        suite: "build".into(),
        fast,
        entries,
    }
}

/// Run the query-side suite: per-query latency of the sketch's hot path
/// and of the exact engine it is sketching.
pub fn run_query_suite(fast: bool, reps: usize) -> PerfReport {
    use neurosketch::deploy::Deployment;
    use neurosketch::router::{DqdRouter, RoutingPolicy};
    use neurosketch::serve::{ServeOptions, SketchServer};
    use neurosketch::{NeuroSketch, NeuroSketchConfig};
    use query::aggregate::Aggregate;
    use query::exec::QueryEngine;

    let sc = scenarios::query_scenario(fast);
    let engine = QueryEngine::new(&sc.data, sc.measure);
    let mut ns_cfg = NeuroSketchConfig::default();
    ns_cfg.train.epochs = if fast { 20 } else { 60 };
    let (sketch, build_report) = NeuroSketch::build_from_labeled(&sc.train, &sc.labels, &ns_cfg)
        .expect("sketch build for query suite");

    let mut entries = Vec::new();
    let mut push = |name: &str, iters: usize, (median_ms, p95_ms): (f64, f64)| {
        entries.push(PerfEntry {
            name: name.into(),
            median_ms,
            p95_ms,
            reps,
            iters,
        });
    };

    let mut ws = neurosketch::BatchScratch::default();
    // A fixed [`SERVE_STREAM_LEN`]-query stream answered one query at a
    // time — Alg. 5's path — and, further down, through the batched
    // `SketchServer` on one worker thread per quantized model
    // (`serve_batched_{f16,i8}`). The entries time the *same* total
    // work, so a throughput ratio is the inverse median ratio.
    let serve_queries: Vec<Vec<f64>> = sc
        .wl
        .queries
        .iter()
        .cycle()
        .take(SERVE_STREAM_LEN)
        .cloned()
        .collect();
    // Eight passes per repetition: the f32 forward halved every entry
    // of this group, and at four the batched ones sat under `--check`'s
    // 1 ms noise floor.
    let iters = 8;
    push(
        "serve_single_query_loop",
        iters,
        time_reps(reps, || {
            for _ in 0..iters {
                for q in &serve_queries {
                    std::hint::black_box(sketch.answer_with(&mut ws, q));
                }
            }
        }),
    );

    // The serving kernel on its own (`serve_forward_fused`): 4 096 rows
    // through one paper-shaped model's `ServingLayout`, timed rep for
    // rep against the scalar f32 oracle `nn::fused::forward_per_example`
    // over the same rows (`serve_forward_per_example`) — asserted
    // bit-equal first; the ratio is what the tiled kernel buys per
    // forward pass, and the fused median pins the `nn::fused` tile
    // shape: a shape the autovectoriser stops handling shows up here as
    // a multiple, not a percentage. `serve_forward_fused_gflops` is
    // computed from the shapes (real multiply-adds, padding excluded).
    {
        const ROWS: usize = 4_096;
        let sizes = [4usize, 60, 30, 30, 1];
        let mlp = nn::Mlp::new(&sizes, 0);
        let layout = mlp.serving_layout();
        let x: Vec<f32> = (0..ROWS * sizes[0])
            .map(|i| ((i * 37 % 101) as f32) / 101.0 - 0.3)
            .collect();
        let mut out = vec![0.0; ROWS];
        let mut sws = nn::fused::ServingWorkspace::default();
        layout.forward_into(&mut sws, &x, &mut out);
        for (row, got) in x.chunks_exact(sizes[0]).zip(&out) {
            let want = nn::fused::forward_per_example(&mlp, row)[0];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "fused forward left its oracle"
            );
        }
        let (fused, per_example) = time_paired(
            reps,
            || {
                for _ in 0..iters {
                    layout.forward_into(&mut sws, std::hint::black_box(&x), &mut out);
                    std::hint::black_box(out[0]);
                }
            },
            || {
                for _ in 0..iters {
                    for row in x.chunks_exact(sizes[0]) {
                        std::hint::black_box(nn::fused::forward_per_example(&mlp, row)[0]);
                    }
                }
            },
        );
        push("serve_forward_fused", iters, fused);
        push("serve_forward_per_example", iters, per_example);
        let flops: usize = sizes.windows(2).map(|w| 2 * w[0] * w[1]).sum();
        let gflops = (ROWS * iters * flops) as f64 / (fused.0 * 1e6);
        push("serve_forward_fused_gflops", 1, (gflops, gflops));
    }

    // Routing on its own (`route_batch_4096`): `DqdRouter::route` over
    // 4 096 queries — one kd-tree descent, one leaf-table lookup and one
    // precomputed flag per query, no allocation.
    {
        let router = DqdRouter::new(
            sketch.clone(),
            build_report.leaf_aqcs.clone(),
            RoutingPolicy::default(),
        );
        let queries: Vec<&Vec<f64>> = sc.wl.queries.iter().cycle().take(4_096).collect();
        let iters = 100;
        push(
            "route_batch_4096",
            iters,
            time_reps(reps, || {
                for _ in 0..iters {
                    for q in &queries {
                        std::hint::black_box(router.route(q, None));
                    }
                }
            }),
        );
    }

    // `serve_batched_{f16,i8}` serve the quantized sketches through a
    // one-thread `SketchServer`, so the two medians read against each
    // other document that quantization changes artifact size, not
    // serving cost (every mode's parameters are served from the same
    // f32 layout).
    {
        use nn::QuantMode;
        for (name, model) in [
            ("serve_batched_f16", sketch.quantized_to(QuantMode::F16)),
            ("serve_batched_i8", sketch.quantized_to(QuantMode::I8)),
        ] {
            let router = DqdRouter::new(
                model,
                build_report.leaf_aqcs.clone(),
                RoutingPolicy::default(),
            );
            let server = SketchServer::new(
                router,
                ServeOptions {
                    threads: 1,
                    active_attrs: None,
                },
            );
            let server: &dyn Deployment = &server;
            push(
                name,
                iters,
                time_reps(reps, || {
                    for _ in 0..iters {
                        std::hint::black_box(server.answer_batch(&serve_queries));
                    }
                }),
            );
        }
    }

    // Artifact size report (`artifact_bytes_{f32,f16,i8}`): exact NSK2
    // bytes of this suite's sketch per parameter mode, recorded as
    // "median" so the size curve rides the same tracked report as the
    // timings. Deterministic — byte-stable across runs and machines.
    for mode in nn::QuantMode::ALL {
        let bytes = neurosketch::persist::encoded_len(&sketch.quantized_to(mode)) as f64;
        push(
            &format!("artifact_bytes_{}", mode.name()),
            1,
            (bytes, bytes),
        );
    }

    let mut scratch = Vec::new();
    let iters = 1200;
    push(
        "exact_answer_testset",
        iters,
        time_reps(reps, || {
            for _ in 0..iters {
                for q in &sc.test {
                    std::hint::black_box(engine.answer_with(
                        &mut scratch,
                        &sc.wl.predicate,
                        Aggregate::Avg,
                        q,
                    ));
                }
            }
        }),
    );

    // The rank-verified scan (`exact_scan_two_attr`): two active
    // attributes, so neither entry above reaches it — they run one
    // active attribute, i.e. two binary searches into prefix sums. Timed
    // rep for rep against the same predicate with the exactness of its
    // bounds hidden (`exact_scan_two_attr_generic`): the engine then
    // picks the same scan attribute and calls `matches` on every
    // candidate row, which is what a range query cost before the scan
    // existed and what a bounding-box predicate still costs. The ratio
    // is the tracked number; the answers are the same bits.
    {
        use query::predicate::PredicateFn;
        use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

        struct BoundsHidden<'p>(&'p dyn PredicateFn);
        impl PredicateFn for BoundsHidden<'_> {
            fn query_dim(&self) -> usize {
                self.0.query_dim()
            }
            fn matches(&self, q: &[f64], x: &[f64]) -> bool {
                self.0.matches(q, x)
            }
            fn axis_bounds(&self, q: &[f64]) -> Option<Vec<(usize, f64, f64)>> {
                self.0.axis_bounds(q)
            }
        }

        let wl = Workload::generate(&WorkloadConfig {
            dims: 3,
            active: ActiveMode::Fixed(vec![0, 1]),
            range: RangeMode::Uniform,
            count: 200,
            seed: 3,
        })
        .expect("two-attribute workload");
        let generic = BoundsHidden(&wl.predicate);
        let label =
            |pred: &dyn PredicateFn| engine.label_batch(pred, Aggregate::Avg, &wl.queries, 1);
        let (ranked, verified) = (label(&wl.predicate), label(&generic));
        assert!(
            ranked
                .iter()
                .zip(&verified)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "rank-verified and predicate-verified scans disagree"
        );
        let iters = 20;
        let (ranked, verified) = time_paired(
            reps,
            || {
                for _ in 0..iters {
                    std::hint::black_box(label(&wl.predicate));
                }
            },
            || {
                for _ in 0..iters {
                    std::hint::black_box(label(&generic));
                }
            },
        );
        push("exact_scan_two_attr", iters, ranked);
        push("exact_scan_two_attr_generic", iters, verified);
    }

    PerfReport {
        suite: "query".into(),
        fast,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_json() {
        let r = PerfReport {
            suite: "build".into(),
            fast: true,
            entries: vec![PerfEntry {
                name: "x".into(),
                median_ms: 1.5,
                p95_ms: 2.0,
                reps: 5,
                iters: 1,
            }],
        };
        let r2 = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r2.suite, "build");
        assert_eq!(r2.entries.len(), 1);
        assert_eq!(r2.median_of("x"), Some(1.5));
        assert_eq!(r2.median_of("y"), None);
    }

    #[test]
    fn regressions_flag_slowdowns_only() {
        let base = PerfReport {
            suite: "build".into(),
            fast: true,
            entries: vec![
                PerfEntry {
                    name: "a".into(),
                    median_ms: 10.0,
                    p95_ms: 12.0,
                    reps: 5,
                    iters: 1,
                },
                PerfEntry {
                    name: "tiny".into(),
                    median_ms: 0.01,
                    p95_ms: 0.02,
                    reps: 5,
                    iters: 1,
                },
            ],
        };
        let mut cur = base.clone();
        cur.entries[0].median_ms = 15.0; // 1.5x: fine
        assert!(cur.regressions_vs(&base, 2.0).is_empty());
        cur.entries[0].median_ms = 25.0; // 2.5x: flagged
        assert_eq!(cur.regressions_vs(&base, 2.0).len(), 1);
        // Sub-ms baselines are never flagged (noise).
        cur.entries[1].median_ms = 9.0;
        assert_eq!(cur.regressions_vs(&base, 2.0).len(), 1);
        // A retuned iters count makes the medians incomparable.
        cur.entries[0].iters = 2;
        assert!(cur.regressions_vs(&base, 2.0).is_empty());
        // An entry the baseline has no row for is not a finding...
        cur.entries.push(PerfEntry {
            name: "new".into(),
            ..cur.entries[0].clone()
        });
        assert!(cur.regressions_vs(&base, 2.0).is_empty());
        // ...a baseline row the run no longer produces is, even a sub-ms one.
        cur.entries.remove(1);
        let stale = cur.regressions_vs(&base, 2.0);
        assert_eq!(stale.len(), 1);
        assert!(stale[0].starts_with("tiny:"), "{stale:?}");
    }

    #[test]
    fn comparability_requires_matching_suite_and_scale() {
        let mk = |suite: &str, fast: bool| PerfReport {
            suite: suite.into(),
            fast,
            entries: vec![],
        };
        assert!(mk("build", true).comparable_to(&mk("build", true)));
        assert!(!mk("build", true).comparable_to(&mk("build", false)));
        assert!(!mk("build", true).comparable_to(&mk("query", true)));
    }

    #[test]
    fn time_reps_returns_ordered_stats() {
        let (median, p95) = time_reps(9, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(median >= 0.0 && p95 >= median);
    }
}
