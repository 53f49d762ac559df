//! Table 2: median visit duration for a *general rectangle* on VS.
//!
//! The query instance is `q = (p, p′, φ)`: two opposite rectangle
//! vertices plus the rectangle's angle with the x-axis. Neither DeepDB
//! nor DBEst can express this predicate, and VerdictDB's implementation
//! lacks the MEDIAN aggregate — so, as in the paper, only NeuroSketch and
//! TREE-AGG produce numbers.

use crate::common::{eval_engine, print_rows, time_queries, EngineRow, ExperimentContext};
use baselines::dbest::{DbEstConfig, DbEstEnsemble};
use baselines::deepdb::{Spn, SpnConfig};
use baselines::tree_agg::TreeAgg;
use baselines::verdict::StratifiedSampler;
use baselines::AqpEngine;
use datagen::PaperDataset;
use neurosketch::NeuroSketch;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::RotatedRect;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generate rotated-rectangle query instances over normalized VS space.
pub fn rect_queries(count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let px = rng.random_range(0.1..0.7);
            let py = rng.random_range(0.1..0.7);
            let dx = rng.random_range(0.08..0.35);
            let dy = rng.random_range(0.08..0.35);
            let phi = rng.random_range(0.0..std::f64::consts::FRAC_PI_2);
            // p' = p + R(phi) (dx, dy)
            let qx = px + dx * phi.cos() - dy * phi.sin();
            let qy = py + dx * phi.sin() + dy * phi.cos();
            vec![px, py, qx, qy, phi]
        })
        .collect()
}

/// Run Table 2.
pub fn run(ctx: &ExperimentContext) -> Vec<EngineRow> {
    let (data, measure) = ctx.dataset(PaperDataset::Vs);
    let engine = QueryEngine::new(&data, measure);
    let pred = RotatedRect::new(0, 1, data.dims()).expect("lat/lon exist");
    let agg = Aggregate::Median;

    let all = rect_queries(ctx.train_queries() + ctx.test_queries(), ctx.seed);
    let (train, test) = all.split_at(ctx.train_queries());
    let labels = engine.label_batch(&pred, agg, train, 4);
    let truth = engine.label_batch(&pred, agg, test, 4);

    let (sketch, _) =
        NeuroSketch::build_from_labeled(train, &labels, &ctx.ns_config()).expect("sketch build");
    let sample_k = (data.rows() / 10).max(100);
    let tree_agg = TreeAgg::build(&data, measure, sample_k, ctx.seed);
    let verdict = StratifiedSampler::build(&data, measure, sample_k, 32, ctx.seed);
    let deepdb = Spn::build(
        &data,
        measure,
        &SpnConfig {
            seed: ctx.seed,
            ..SpnConfig::default()
        },
    );
    let dbest = DbEstEnsemble::build(
        &data,
        measure,
        &DbEstConfig {
            seed: ctx.seed,
            reg_samples: 500,
            ..DbEstConfig::default()
        },
    );

    let mut rows = Vec::new();
    let mut ws = neurosketch::BatchScratch::default();
    let test_v: Vec<Vec<f64>> = test.to_vec();
    let (preds, us) = time_queries(&test_v, |q| sketch.answer_with(&mut ws, q));
    rows.push(EngineRow {
        engine: "NeuroSketch",
        nmae: normalized_mae(&truth, &preds),
        query_us: us,
        storage_kib: sketch.storage_bytes() as f64 / 1024.0,
        support: 1.0,
    });
    rows.push(eval_engine(
        &tree_agg,
        "TREE-AGG",
        &pred,
        agg,
        &test_v,
        &truth,
        tree_agg.storage_bytes(),
    ));
    rows.push(eval_engine(
        &verdict,
        "VerdictDB",
        &pred,
        agg,
        &test_v,
        &truth,
        verdict.storage_bytes(),
    ));
    rows.push(eval_engine(
        &deepdb,
        "DeepDB",
        &pred,
        agg,
        &test_v,
        &truth,
        deepdb.storage_bytes(),
    ));
    rows.push(eval_engine(
        &dbest,
        "DBEst",
        &pred,
        agg,
        &test_v,
        &truth,
        dbest.storage_bytes(),
    ));
    rows
}

/// Print the table.
pub fn print(rows: &[EngineRow]) {
    print_rows(
        "Table 2: MEDIAN visit duration, general rectangle (VS)",
        rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_neurosketch_and_tree_agg_answer() {
        let ctx = ExperimentContext::fast();
        let rows = run(&ctx);
        let by = |n: &str| rows.iter().find(|r| r.engine == n).unwrap();
        assert_eq!(by("NeuroSketch").support, 1.0);
        assert_eq!(by("TREE-AGG").support, 1.0);
        assert_eq!(by("VerdictDB").support, 0.0);
        assert_eq!(by("DeepDB").support, 0.0);
        assert_eq!(by("DBEst").support, 0.0);
        assert!(by("NeuroSketch").nmae.is_finite());
    }

    #[test]
    fn rect_queries_are_valid_instances() {
        let qs = rect_queries(50, 1);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert_eq!(q.len(), 5);
            assert!(q[4] >= 0.0 && q[4] < std::f64::consts::FRAC_PI_2);
        }
    }
}
