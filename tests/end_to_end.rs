//! Cross-crate integration tests: the full NeuroSketch pipeline from
//! data generation through query answering, plus engine interop.

use baselines::tree_agg::TreeAgg;
use baselines::AqpEngine;
use datagen::PaperDataset;
use neurosketch::{persist, NeuroSketch, NeuroSketchConfig};
use nn::train::TrainConfig;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

fn small_cfg() -> NeuroSketchConfig {
    NeuroSketchConfig {
        tree_height: 2,
        target_partitions: 3,
        depth: 4,
        l_first: 32,
        l_rest: 16,
        train: TrainConfig {
            epochs: 80,
            patience: 10,
            ..TrainConfig::default()
        },
        threads: 2,
        seed: 7,
        aqc_max_pairs: 3_000,
    }
}

/// Full pipeline on a paper dataset: generate, normalize, label, build,
/// answer, serialize, reload — answers must survive the round trip and
/// beat a trivial constant predictor.
#[test]
fn pipeline_on_pm_dataset() {
    let raw = PaperDataset::Pm.generate(0.1, 3);
    let (data, _) = raw.normalized();
    let measure = PaperDataset::Pm.measure_column();
    let engine = QueryEngine::new(&data, measure);
    let wl = Workload::generate(&WorkloadConfig {
        dims: data.dims(),
        active: ActiveMode::Fixed(vec![1]), // temperature ranges
        range: RangeMode::Uniform,
        count: 900,
        seed: 5,
    })
    .unwrap();
    let (train, test) = wl.split(150);
    let (sketch, report) =
        NeuroSketch::build(&engine, &wl.predicate, Aggregate::Avg, &train, &small_cfg()).unwrap();
    assert_eq!(sketch.partitions(), 3);
    assert_eq!(report.leaf_sizes.iter().sum::<usize>(), train.len());

    let truth: Vec<f64> = test
        .iter()
        .map(|q| engine.answer(&wl.predicate, Aggregate::Avg, q))
        .collect();
    let preds: Vec<f64> = test.iter().map(|q| sketch.answer(q)).collect();
    let err = normalized_mae(&truth, &preds);

    // Constant predictor baseline (mean of training labels).
    let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &train, 2);
    let mean = labels.iter().sum::<f64>() / labels.len() as f64;
    let const_preds = vec![mean; test.len()];
    let const_err = normalized_mae(&truth, &const_preds);
    assert!(
        err < const_err,
        "sketch {err} must beat constant {const_err}"
    );

    // Serialization round trip: the build holds its models at the
    // mode it saves under, so the loaded sketch answers exactly like it.
    let loaded = persist::decode(persist::encode_sketch(&sketch))
        .unwrap()
        .sketch;
    for q in test.iter().take(10) {
        assert_eq!(sketch.answer(q), loaded.answer(q));
    }
}

/// NeuroSketch and TREE-AGG must agree (within sampling noise) with the
/// exact engine on easy COUNT workloads.
#[test]
fn engines_agree_on_easy_count() {
    let data = datagen::simple::uniform(8_000, 2, 1);
    let engine = QueryEngine::new(&data, 1);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::WidthBetween(0.2, 0.5),
        count: 700,
        seed: 2,
    })
    .unwrap();
    let (train, test) = wl.split(100);
    let (sketch, _) = NeuroSketch::build(
        &engine,
        &wl.predicate,
        Aggregate::Count,
        &train,
        &small_cfg(),
    )
    .unwrap();
    let ta = TreeAgg::build(&data, 1, 2_000, 3);

    for q in test.iter().take(30) {
        let exact = engine.answer(&wl.predicate, Aggregate::Count, q);
        let ns = sketch.answer(q);
        let tree = ta.answer(&wl.predicate, Aggregate::Count, q).unwrap();
        // Wide uniform ranges match thousands of rows: both engines must
        // land within 10% of data size of the exact count.
        assert!(
            (ns - exact).abs() / (data.rows() as f64) < 0.10,
            "sketch {ns} vs exact {exact}"
        );
        assert!(
            (tree - exact).abs() / (data.rows() as f64) < 0.10,
            "tree-agg {tree} vs exact {exact}"
        );
    }
}

/// Merging with a real AQC score changes partition structure but keeps
/// every training query answerable.
#[test]
fn merge_preserves_query_coverage() {
    let data = datagen::simple::gmm2(4_000, 0.25, 0.75, 0.05, 9);
    let engine = QueryEngine::new(&data, 0);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 1,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 600,
        seed: 11,
    })
    .unwrap();
    let mut cfg = small_cfg();
    cfg.tree_height = 4;
    cfg.target_partitions = 5;
    let (sketch, report) =
        NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg).unwrap();
    assert_eq!(sketch.partitions(), 5);
    assert_eq!(report.leaf_aqcs.len(), 5);
    // Every query (train or new) must route to some model without panic.
    for q in &wl.queries {
        let _ = sketch.answer(q);
    }
    let _ = sketch.answer(&[0.0, 1.0]);
    let _ = sketch.answer(&[0.999, 0.001]);
}

/// Query specialization (Sec. 4.2): with a skewed workload, the median-
/// split kd-tree makes partitions equally *probable*, so leaves near the
/// hotspot are spatially narrower — more model capacity where queries are.
#[test]
fn kdtree_adapts_to_hotspot_workloads() {
    let wl = Workload::generate(&WorkloadConfig {
        dims: 1,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Hotspot {
            width: 0.05,
            center: 0.25,
            sigma: 0.04,
        },
        count: 1024,
        seed: 8,
    })
    .unwrap();
    let tree = spatial::KdTree::build(&wl.queries, 3);
    // Every leaf holds ~1/8 of the queries despite the position skew.
    for leaf in tree.leaf_ids() {
        let n = tree.leaf_queries(leaf).len();
        assert!((100..=160).contains(&n), "leaf size {n} far from 128");
    }
    // Leaves covering the hotspot span a narrower slice of position
    // space than the leaf containing the far tail.
    let width_of = |leaf: usize| {
        let qs = tree.leaf_queries(leaf);
        let lo = qs
            .iter()
            .map(|&i| wl.queries[i][0])
            .fold(f64::INFINITY, f64::min);
        let hi = qs
            .iter()
            .map(|&i| wl.queries[i][0])
            .fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    let hot_leaf = tree.locate(&[0.25, 0.05]);
    let cold_leaf = tree.locate(&[0.9, 0.05]);
    assert!(
        width_of(hot_leaf) < width_of(cold_leaf),
        "hot {} vs cold {}",
        width_of(hot_leaf),
        width_of(cold_leaf)
    );
}

/// The same seed produces byte-identical serialized sketches.
#[test]
fn deterministic_end_to_end() {
    let data = datagen::simple::uniform(1_000, 2, 4);
    let engine = QueryEngine::new(&data, 1);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 300,
        seed: 6,
    })
    .unwrap();
    let build = || {
        let (s, _) = NeuroSketch::build(
            &engine,
            &wl.predicate,
            Aggregate::Sum,
            &wl.queries,
            &small_cfg(),
        )
        .unwrap();
        persist::encode_sketch(&s).to_vec()
    };
    assert_eq!(build(), build());
}
