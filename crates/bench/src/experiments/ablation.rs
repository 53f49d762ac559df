//! Ablations of NeuroSketch's design choices (beyond the paper's
//! Table 3): what the AQC merge score buys over alternatives, and what
//! magnitude pruning does to the accuracy/size trade-off.
//!
//! * **Merge score**: Alg. 3 merges the lowest-AQC leaves first. We
//!   compare against merging the *smallest* leaves first (size score) and
//!   a fixed arbitrary order (constant score), at identical partition
//!   budgets.
//! * **Pruning** (Sec. 7 future work): sweep the pruned-weight fraction
//!   and report error vs. sparse storage.

use crate::common::{default_workload, ExperimentContext};
use datagen::PaperDataset;
use neurosketch::NeuroSketch;
use nn::prune::{prune_magnitude, sparse_storage_bytes};
use nn::train::{train, LrSchedule, TrainConfig};
use nn::Mlp;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use spatial::KdTree;

/// A boxed leaf-scoring closure used by the merge ablation.
type ScoreFn = Box<dyn Fn(&[usize]) -> f64 + Sync>;

/// One merge-strategy measurement.
#[derive(Debug, Clone)]
pub struct MergeRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Test normalized MAE.
    pub nmae: f64,
}

/// One pruning measurement.
#[derive(Debug, Clone)]
pub struct PruneRow {
    /// Fraction of weights zeroed.
    pub fraction: f64,
    /// Test normalized MAE after pruning.
    pub nmae: f64,
    /// Sparse storage estimate (KiB).
    pub storage_kib: f64,
}

/// Combined ablation results.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Merge-score comparison.
    pub merge: Vec<MergeRow>,
    /// Pruning sweep.
    pub prune: Vec<PruneRow>,
}

/// Run both ablations on VS.
pub fn run(ctx: &ExperimentContext) -> AblationResult {
    let (data, measure) = ctx.dataset(PaperDataset::Vs);
    let engine = QueryEngine::new(&data, measure);
    let wl = default_workload(
        PaperDataset::Vs,
        data.dims(),
        ctx.train_queries() + ctx.test_queries(),
        ctx.seed,
    );
    let (train_q, test_q) = wl.split(ctx.test_queries());
    let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &train_q, 4);
    let truth = engine.label_batch(&wl.predicate, Aggregate::Avg, &test_q, 4);

    // --- Merge-score ablation -------------------------------------------
    // Build the same height-4 tree, merge 16 -> 6 leaves with three
    // different scores, train identical models on the resulting
    // partitions by re-using NeuroSketch with target = leaves (no
    // internal merging), but where we pre-merge the tree ourselves we
    // emulate strategies through the score closure.
    let mut merge = Vec::new();
    let strategies: [(&'static str, ScoreFn); 3] = [
        (
            "AQC (paper)",
            Box::new({
                let qs = train_q.clone();
                let ls = labels.clone();
                move |ids: &[usize]| {
                    let sub_q: Vec<Vec<f64>> = ids.iter().map(|&i| qs[i].clone()).collect();
                    let sub_l: Vec<f64> = ids.iter().map(|&i| ls[i]).collect();
                    neurosketch::aqc::aqc_sampled(&sub_q, &sub_l, 5_000)
                }
            }),
        ),
        ("leaf size", Box::new(|ids: &[usize]| ids.len() as f64)),
        ("constant", Box::new(|_: &[usize]| 1.0)),
    ];
    for (name, score) in strategies {
        // Merge a fresh tree with this score.
        let mut tree = KdTree::build(&train_q, 4);
        tree.merge_leaves(&score, 6, ctx.ns_config().threads);
        // Train one model per merged leaf via build_from_labeled on each
        // leaf's queries, emulating the per-partition training.
        let mut cfg = ctx.ns_config();
        cfg.tree_height = 0;
        cfg.target_partitions = 1;
        let mut leaf_models = Vec::new();
        for leaf in tree.leaf_ids() {
            let ids = tree.leaf_queries(leaf);
            let qs: Vec<Vec<f64>> = ids.iter().map(|&i| train_q[i].clone()).collect();
            let ls: Vec<f64> = ids.iter().map(|&i| labels[i]).collect();
            let (m, _) = NeuroSketch::build_from_labeled(&qs, &ls, &cfg).expect("leaf build");
            leaf_models.push((leaf, m));
        }
        let preds: Vec<f64> = test_q
            .iter()
            .map(|q| {
                let leaf = tree.locate(q);
                leaf_models
                    .iter()
                    .find(|(l, _)| *l == leaf)
                    .map(|(_, m)| m.answer(q))
                    .expect("every leaf has a model")
            })
            .collect();
        merge.push(MergeRow {
            strategy: name,
            nmae: normalized_mae(&truth, &preds),
        });
    }

    // --- Pruning ablation ------------------------------------------------
    // A single model trained on the full workload, pruned progressively.
    let n = labels.len() as f64;
    let y_mean = labels.iter().sum::<f64>() / n;
    let y_std = (labels.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n)
        .sqrt()
        .max(1e-12);
    let ys: Vec<f64> = labels.iter().map(|y| (y - y_mean) / y_std).collect();
    let cfg = ctx.ns_config();
    let mut base = Mlp::new(&cfg.layer_sizes(train_q[0].len()), ctx.seed);
    let tcfg = TrainConfig {
        epochs: if ctx.fast { 40 } else { 200 },
        lr: 1e-3,
        schedule: LrSchedule::Constant,
        seed: ctx.seed,
        ..TrainConfig::default()
    };
    train(&mut base, &train_q, &ys, &tcfg);
    let mut prune = Vec::new();
    for fraction in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let mut pruned = base.clone();
        prune_magnitude(&mut pruned, fraction);
        let preds: Vec<f64> = test_q
            .iter()
            .map(|q| pruned.predict(q) * y_std + y_mean)
            .collect();
        prune.push(PruneRow {
            fraction,
            nmae: normalized_mae(&truth, &preds),
            storage_kib: sparse_storage_bytes(&pruned) as f64 / 1024.0,
        });
    }

    AblationResult { merge, prune }
}

/// Print both ablations.
pub fn print(res: &AblationResult) {
    println!("\n==== Ablation: merge score and pruning (VS, AVG) ====");
    println!("\nmerge score (16 -> 6 partitions):");
    for r in &res.merge {
        println!("  {:<12} nMAE {:.4}", r.strategy, r.nmae);
    }
    println!("\nmagnitude pruning of a single default-architecture model:");
    println!("  {:<10} {:>10} {:>12}", "pruned", "nMAE", "storage");
    for r in &res.prune {
        println!(
            "  {:<10.2} {:>10.4} {:>8.1} KiB",
            r.fraction, r.nmae, r.storage_kib
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_trades_error_for_space_monotonically_in_storage() {
        let ctx = ExperimentContext::fast();
        let res = run(&ctx);
        assert_eq!(res.merge.len(), 3);
        assert_eq!(res.prune.len(), 5);
        // Storage shrinks as the pruned fraction grows.
        for w in res.prune.windows(2) {
            assert!(w[1].storage_kib <= w[0].storage_kib + 1e-9);
        }
        // Unpruned model is at least as accurate as the 90%-pruned one.
        let first = res.prune.first().unwrap();
        let last = res.prune.last().unwrap();
        assert!(first.nmae <= last.nmae * 1.05 + 1e-9);
        // All merge strategies produce finite errors.
        for m in &res.merge {
            assert!(m.nmae.is_finite(), "{}", m.strategy);
        }
    }
}
