//! Fig. 10: time/space/accuracy trade-offs across model architectures.
//!
//! Sweeps NeuroSketch's kd-tree height, width and depth (lines labelled
//! `(h, w, d)` as in the paper) against the baselines at several sampling
//! rates / RDC thresholds. Shapes to check: accuracy improves with width,
//! depth and height up to a plateau; partitioning (height) improves
//! accuracy at almost no query-time cost; over-deep narrow networks get
//! *worse* (the paper's red line); TREE-AGG wins only when near-exact
//! answers are required.

use crate::common::ExperimentContext;
use baselines::deepdb::{Spn, SpnConfig};
use baselines::tree_agg::TreeAgg;
use baselines::verdict::StratifiedSampler;
use baselines::AqpEngine;
use datagen::PaperDataset;
use neurosketch::NeuroSketch;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use std::time::Instant;

/// One configuration's position in the trade-off space.
#[derive(Debug, Clone)]
pub struct TradeoffPoint {
    /// Line label, e.g. `(h,60,5)` or `TREE-AGG 20%`.
    pub label: String,
    /// Varied hyperparameter value.
    pub x: f64,
    /// Mean query latency (µs).
    pub query_us: f64,
    /// Storage as a fraction of the (normalized f64) data size.
    pub space_frac: f64,
    /// Normalized MAE.
    pub nmae: f64,
}

/// Run the sweep on VS.
pub fn run(ctx: &ExperimentContext) -> Vec<TradeoffPoint> {
    let (data, measure) = ctx.dataset(PaperDataset::Vs);
    let engine = QueryEngine::new(&data, measure);
    let wl = crate::common::default_workload(
        PaperDataset::Vs,
        data.dims(),
        ctx.train_queries() + ctx.test_queries(),
        ctx.seed,
    );
    let (train, test) = wl.split(ctx.test_queries());
    let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &train, 4);
    let truth = engine.label_batch(&wl.predicate, Aggregate::Avg, &test, 4);
    let data_bytes = (data.rows() * data.dims() * 8) as f64;

    let mut points = Vec::new();
    let mut eval_sketch = |label: String, x: f64, h: usize, w: usize, d: usize| {
        let mut cfg = ctx.ns_config();
        cfg.tree_height = h;
        cfg.target_partitions = 1 << h; // no merging in this study
        cfg.l_first = w;
        cfg.l_rest = w;
        cfg.depth = d;
        let Ok((sketch, _)) = NeuroSketch::build_from_labeled(&train, &labels, &cfg) else {
            return;
        };
        let mut ws = neurosketch::BatchScratch::default();
        let (preds, us) = crate::common::time_queries(&test, |q| sketch.answer_with(&mut ws, q));
        points.push(TradeoffPoint {
            label,
            x,
            query_us: us,
            space_frac: sketch.storage_bytes() as f64 / data_bytes,
            nmae: normalized_mae(&truth, &preds),
        });
    };

    let heights: Vec<usize> = if ctx.fast {
        vec![0, 2]
    } else {
        vec![0, 1, 2, 3, 4]
    };
    let widths: Vec<usize> = if ctx.fast {
        vec![15, 60]
    } else {
        vec![15, 30, 60, 120]
    };
    let depths: Vec<usize> = if ctx.fast {
        vec![2, 5]
    } else {
        vec![2, 5, 10, 20]
    };

    for &h in &heights {
        eval_sketch(format!("(h,120,5) h={h}"), h as f64, h, 120, 5);
        eval_sketch(format!("(h,30,5) h={h}"), h as f64, h, 30, 5);
    }
    for &w in &widths {
        eval_sketch(format!("(0,w,5) w={w}"), w as f64, 0, w, 5);
    }
    for &d in &depths {
        eval_sketch(format!("(0,30,d) d={d}"), d as f64, 0, 30, d);
        eval_sketch(format!("(0,120,d) d={d}"), d as f64, 0, 120, d);
    }

    // Baselines at several budgets.
    let fracs: &[f64] = if ctx.fast {
        &[1.0, 0.1]
    } else {
        &[1.0, 0.5, 0.2, 0.1]
    };
    for &f in fracs {
        let k = ((data.rows() as f64 * f) as usize).max(50);
        let ta = TreeAgg::build(&data, measure, k, ctx.seed);
        points.push(eval_baseline(
            format!("TREE-AGG {:.0}%", f * 100.0),
            f,
            &ta,
            &wl.predicate,
            &test,
            &truth,
            data_bytes,
        ));
        let vd = StratifiedSampler::build(&data, measure, k, 32, ctx.seed);
        points.push(eval_baseline(
            format!("VerdictDB {:.0}%", f * 100.0),
            f,
            &vd,
            &wl.predicate,
            &test,
            &truth,
            data_bytes,
        ));
    }
    let thresholds: &[f64] = if ctx.fast { &[0.3] } else { &[0.1, 0.3, 0.5] };
    for &t in thresholds {
        let spn = Spn::build(
            &data,
            measure,
            &SpnConfig {
                corr_threshold: t,
                seed: ctx.seed,
                ..SpnConfig::default()
            },
        );
        points.push(eval_baseline(
            format!("DeepDB rdc={t}"),
            t,
            &spn,
            &wl.predicate,
            &test,
            &truth,
            data_bytes,
        ));
    }
    points
}

fn eval_baseline(
    label: String,
    x: f64,
    engine: &dyn AqpEngine,
    pred: &dyn query::predicate::PredicateFn,
    test: &[Vec<f64>],
    truth: &[f64],
    data_bytes: f64,
) -> TradeoffPoint {
    let start = Instant::now();
    let preds: Vec<f64> = test
        .iter()
        .map(|q| engine.answer(pred, Aggregate::Avg, q).unwrap_or(0.0))
        .collect();
    let us = start.elapsed().as_secs_f64() * 1e6 / test.len().max(1) as f64;
    TradeoffPoint {
        label,
        x,
        query_us: us,
        space_frac: engine.storage_bytes() as f64 / data_bytes,
        nmae: normalized_mae(truth, &preds),
    }
}

/// Print the trade-off table.
pub fn print(points: &[TradeoffPoint]) {
    println!("\n==== Fig. 10: time/space/accuracy trade-offs (VS, AVG) ====");
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "config", "query (us)", "space frac", "nMAE"
    );
    for p in points {
        println!(
            "{:<22} {:>12.1} {:>12.5} {:>10.4}",
            p.label, p.query_us, p.space_frac, p.nmae
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_is_nearly_free_at_query_time() {
        let ctx = ExperimentContext::fast();
        let points = run(&ctx);
        let h0 = points.iter().find(|p| p.label == "(h,30,5) h=0").unwrap();
        let h2 = points.iter().find(|p| p.label == "(h,30,5) h=2").unwrap();
        // kd-tree descent adds at most a small constant to a forward pass.
        assert!(h2.query_us < h0.query_us * 5.0 + 50.0);
        // More partitions should not hurt storage by more than 4x models.
        assert!(h2.space_frac <= h0.space_frac * 6.0);
    }

    #[test]
    fn full_sample_tree_agg_is_nearly_exact() {
        let ctx = ExperimentContext::fast();
        let points = run(&ctx);
        let exact = points.iter().find(|p| p.label == "TREE-AGG 100%").unwrap();
        assert!(
            exact.nmae < 1e-9,
            "full-sample TREE-AGG nmae {}",
            exact.nmae
        );
    }
}
