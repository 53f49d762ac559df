//! Criterion benchmark behind Fig. 13: preprocessing costs — training-set
//! labeling, kd-tree partitioning + AQC merging, per-leaf model training,
//! and the forward-pass cost of the theoretical construction (Sec. A.5).
//!
//! The workload is [`bench::perf::scenarios::build_scenario`] — the same
//! fixture `perfbench` times into `BENCH_build.json`, so criterion runs
//! and the tracked JSON trajectory measure the same thing.

use bench::perf::scenarios::build_scenario;
use criterion::{criterion_group, criterion_main, Criterion};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use nn::construction::{GridNet, SlopeMode};
use nn::train::{train, TrainConfig};
use nn::Mlp;
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let sc = build_scenario(false);
    let engine = QueryEngine::new(&sc.data, 1);

    let mut group = c.benchmark_group("fig13_preprocessing");
    group.sample_size(10);

    group.bench_function("label_600_queries_exact", |b| {
        b.iter(|| {
            black_box(engine.label_batch(&sc.wl.predicate, Aggregate::Avg, &sc.wl.queries, 4))
        })
    });

    group.bench_function("build_sketch_h2_small", |b| {
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 2;
        cfg.target_partitions = 4;
        cfg.train.epochs = 15;
        b.iter(|| {
            black_box(NeuroSketch::build_from_labeled(&sc.wl.queries, &sc.labels, &cfg).unwrap())
        })
    });

    let train_cfg = TrainConfig {
        epochs: 40,
        patience: 0,
        ..TrainConfig::default()
    };
    group.bench_function("train_leaf_batched", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(&[2, 60, 30, 30, 1], 9);
            black_box(train(&mut mlp, &sc.wl.queries, &sc.labels, &train_cfg))
        })
    });
    group.bench_function("construction_t8_d2", |b| {
        let f = |x: &[f64]| x[0] * 0.5 + x[1] * 0.25;
        b.iter(|| black_box(GridNet::construct(&f, 2, 8, SlopeMode::LemmaA3).unwrap()))
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_build
}
criterion_main!(benches);
