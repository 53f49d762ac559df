//! Shared machinery for the experiment modules: dataset preparation,
//! engine construction, timing, and table printing.

use baselines::dbest::{DbEstConfig, DbEstEnsemble};
use baselines::deepdb::{Spn, SpnConfig};
use baselines::tree_agg::TreeAgg;
use baselines::verdict::StratifiedSampler;
use baselines::AqpEngine;
use datagen::{Dataset, PaperDataset};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use nn::train::TrainConfig;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::PredicateFn;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::time::Instant;

/// Global experiment knobs, set from the `repro` CLI.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentContext {
    /// Multiplies dataset and workload sizes. 1.0 is the reduced default
    /// scale documented in DESIGN.md; ~10 approaches paper sizes.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Smoke-test mode: shrink everything aggressively.
    pub fast: bool,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext {
            scale: 1.0,
            seed: 42,
            fast: false,
        }
    }
}

impl ExperimentContext {
    /// A context for CI smoke tests.
    pub fn fast() -> Self {
        ExperimentContext {
            scale: 0.05,
            seed: 42,
            fast: true,
        }
    }

    /// Training-workload size for NeuroSketch (paper: 100k).
    pub fn train_queries(&self) -> usize {
        if self.fast {
            400
        } else {
            (4_000.0 * self.scale).max(400.0) as usize
        }
    }

    /// Test-set size (paper: held-out split of the workload pool).
    pub fn test_queries(&self) -> usize {
        if self.fast {
            80
        } else {
            (400.0 * self.scale).max(80.0) as usize
        }
    }

    /// Generate a paper dataset (already min-max normalized) plus its
    /// measure column index.
    pub fn dataset(&self, ds: PaperDataset) -> (Dataset, usize) {
        let scale = if self.fast { 0.05 } else { self.scale };
        let raw = ds.generate(scale, self.seed);
        let (norm, _) = raw.normalized();
        (norm, ds.measure_column())
    }

    /// NeuroSketch defaults (paper Sec. 5.1), with training budget scaled
    /// to the harness size.
    pub fn ns_config(&self) -> NeuroSketchConfig {
        NeuroSketchConfig {
            tree_height: 4,
            target_partitions: 8,
            depth: 5,
            l_first: 60,
            l_rest: 30,
            train: TrainConfig {
                epochs: if self.fast { 40 } else { 200 },
                patience: 15,
                batch_size: 64,
                lr: 1e-3,
                min_delta: 1e-4,
                seed: self.seed,
                time_budget: None,
            },
            threads: 4,
            seed: self.seed,
            aqc_max_pairs: if self.fast { 2_000 } else { 20_000 },
        }
    }
}

/// One engine's measurements for a comparison table.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Engine display name.
    pub engine: &'static str,
    /// Normalized MAE on the test queries (NaN when unsupported).
    pub nmae: f64,
    /// Mean per-query latency in microseconds.
    pub query_us: f64,
    /// Storage in KiB.
    pub storage_kib: f64,
    /// Fraction of test queries the engine answered.
    pub support: f64,
}

impl EngineRow {
    /// `N/A` row for engines that cannot run an experiment at all.
    pub fn unsupported(engine: &'static str) -> EngineRow {
        EngineRow {
            engine,
            nmae: f64::NAN,
            query_us: f64::NAN,
            storage_kib: f64::NAN,
            support: 0.0,
        }
    }
}

/// Print a comparison table.
pub fn print_rows(title: &str, rows: &[EngineRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<14} {:>12} {:>14} {:>12} {:>9}",
        "engine", "norm. MAE", "query time", "storage", "support"
    );
    for r in rows {
        if r.support == 0.0 {
            println!(
                "{:<14} {:>12} {:>14} {:>12} {:>9}",
                r.engine, "N/A", "N/A", "N/A", "0%"
            );
        } else {
            println!(
                "{:<14} {:>12.4} {:>11.1} us {:>8.1} KiB {:>8.0}%",
                r.engine,
                r.nmae,
                r.query_us,
                r.storage_kib,
                r.support * 100.0
            );
        }
    }
}

/// Time a per-query closure over the test set; returns `(answers,
/// mean_us)`.
pub fn time_queries(queries: &[Vec<f64>], mut f: impl FnMut(&[f64]) -> f64) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let answers: Vec<f64> = queries.iter().map(|q| f(q)).collect();
    let us = start.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
    (answers, us)
}

/// Evaluate an [`AqpEngine`] on a test set against ground truth. Queries
/// the engine declines are excluded from the error (support < 1 reflects
/// them); an engine declining everything yields an `unsupported` row.
pub fn eval_engine(
    engine: &dyn AqpEngine,
    name: &'static str,
    pred: &dyn PredicateFn,
    agg: Aggregate,
    test: &[Vec<f64>],
    truth: &[f64],
    storage: usize,
) -> EngineRow {
    let start = Instant::now();
    let mut answered = Vec::new();
    let mut answered_truth = Vec::new();
    for (q, t) in test.iter().zip(truth) {
        if let Ok(a) = engine.answer(pred, agg, q) {
            answered.push(a);
            answered_truth.push(*t);
        }
    }
    if answered.is_empty() {
        return EngineRow::unsupported(name);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / test.len() as f64;
    EngineRow {
        engine: name,
        nmae: normalized_mae(&answered_truth, &answered),
        query_us: us,
        storage_kib: storage as f64 / 1024.0,
        support: answered.len() as f64 / test.len() as f64,
    }
}

/// The standard engine line-up of Fig. 6, built on one dataset.
pub struct Lineup {
    /// NeuroSketch itself.
    pub sketch: NeuroSketch,
    /// TREE-AGG with a 10% sample.
    pub tree_agg: TreeAgg,
    /// VerdictDB-like stratified sampler with a 10% budget.
    pub verdict: StratifiedSampler,
    /// DeepDB-like SPN.
    pub deepdb: Spn,
    /// DBEst-like per-attribute ensemble (`None` when skipped, e.g. for
    /// multi-active-attribute workloads).
    pub dbest: Option<DbEstEnsemble>,
}

/// Build the full line-up for a labeled workload. `build_dbest` mirrors
/// the paper excluding DBEst from some experiments.
pub fn build_lineup(
    data: &Dataset,
    measure: usize,
    train: &[Vec<f64>],
    labels: &[f64],
    ctx: &ExperimentContext,
    ns_cfg: &NeuroSketchConfig,
    build_dbest: bool,
) -> Lineup {
    let (sketch, _) = NeuroSketch::build_from_labeled(train, labels, ns_cfg).expect("sketch build");
    let sample_k = (data.rows() / 10).max(100);
    let tree_agg = TreeAgg::build(data, measure, sample_k, ctx.seed);
    let verdict = StratifiedSampler::build(data, measure, sample_k, 32, ctx.seed ^ 1);
    let spn_cfg = SpnConfig {
        min_rows: if ctx.fast { 200 } else { 500 },
        seed: ctx.seed,
        ..SpnConfig::default()
    };
    let deepdb = Spn::build(data, measure, &spn_cfg);
    let dbest = build_dbest.then(|| {
        let mut cfg = DbEstConfig {
            seed: ctx.seed,
            ..DbEstConfig::default()
        };
        if ctx.fast {
            cfg.reg_samples = 500;
            cfg.kde_centers = 128;
            cfg.train.epochs = 30;
        }
        DbEstEnsemble::build_all(data, measure, &cfg)
    });
    Lineup {
        sketch,
        tree_agg,
        verdict,
        deepdb,
        dbest,
    }
}

/// Run the standard comparison: label a train/test split, build the
/// line-up, evaluate every engine. Returns rows in the paper's engine
/// order.
#[allow(clippy::too_many_arguments)]
pub fn run_comparison(
    data: &Dataset,
    measure: usize,
    wl: &Workload,
    agg: Aggregate,
    ctx: &ExperimentContext,
    ns_cfg: &NeuroSketchConfig,
    build_dbest: bool,
) -> Vec<EngineRow> {
    let engine = QueryEngine::new(data, measure);
    let (train, test) = wl.split(ctx.test_queries());
    let labels = engine.label_batch(&wl.predicate, agg, &train, 4);
    let truth = engine.label_batch(&wl.predicate, agg, &test, 4);
    let lineup = build_lineup(data, measure, &train, &labels, ctx, ns_cfg, build_dbest);

    let mut rows = Vec::new();
    // NeuroSketch: allocation-free hot path.
    let mut ws = neurosketch::BatchScratch::default();
    let (preds, us) = time_queries(&test, |q| lineup.sketch.answer_with(&mut ws, q));
    rows.push(EngineRow {
        engine: "NeuroSketch",
        nmae: normalized_mae(&truth, &preds),
        query_us: us,
        storage_kib: lineup.sketch.storage_bytes() as f64 / 1024.0,
        support: 1.0,
    });
    rows.push(eval_engine(
        &lineup.tree_agg,
        "TREE-AGG",
        &wl.predicate,
        agg,
        &test,
        &truth,
        lineup.tree_agg.storage_bytes(),
    ));
    rows.push(eval_engine(
        &lineup.verdict,
        "VerdictDB",
        &wl.predicate,
        agg,
        &test,
        &truth,
        lineup.verdict.storage_bytes(),
    ));
    rows.push(eval_engine(
        &lineup.deepdb,
        "DeepDB",
        &wl.predicate,
        agg,
        &test,
        &truth,
        lineup.deepdb.storage_bytes(),
    ));
    if let Some(dbest) = &lineup.dbest {
        rows.push(eval_engine(
            dbest,
            "DBEst",
            &wl.predicate,
            agg,
            &test,
            &truth,
            dbest.storage_bytes(),
        ));
    } else {
        rows.push(EngineRow::unsupported("DBEst"));
    }
    rows
}

/// The default workload for a dataset: lat/lon active for VS (as in the
/// paper), one random active attribute elsewhere.
pub fn default_workload(ds: PaperDataset, dims: usize, count: usize, seed: u64) -> Workload {
    let active = match ds {
        PaperDataset::Vs => ActiveMode::Fixed(vec![0, 1]),
        _ => ActiveMode::Random(1),
    };
    Workload::generate(&WorkloadConfig {
        dims,
        active,
        range: RangeMode::Uniform,
        count,
        seed,
    })
    .expect("valid workload config")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_context_is_small() {
        let ctx = ExperimentContext::fast();
        assert!(ctx.train_queries() <= 1000);
        assert!(ctx.test_queries() <= 100);
    }

    #[test]
    fn time_queries_returns_all_answers() {
        let qs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let (ans, us) = time_queries(&qs, |q| q[0] * 2.0);
        assert_eq!(ans.len(), 10);
        assert_eq!(ans[3], 6.0);
        assert!(us >= 0.0);
    }

    #[test]
    fn comparison_smoke_on_tiny_uniform() {
        let ctx = ExperimentContext::fast();
        let data = datagen::simple::uniform(800, 2, 0);
        let wl = Workload::generate(&WorkloadConfig {
            dims: 2,
            active: ActiveMode::Fixed(vec![0]),
            range: RangeMode::Uniform,
            count: 300,
            seed: 1,
        })
        .unwrap();
        let mut cfg = ctx.ns_config();
        cfg.tree_height = 1;
        cfg.target_partitions = 2;
        cfg.train.epochs = 20;
        let rows = run_comparison(&data, 1, &wl, Aggregate::Avg, &ctx, &cfg, true);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].engine, "NeuroSketch");
        assert!(rows[0].nmae.is_finite());
        // All engines support AVG with one active attribute.
        for r in &rows {
            assert!(r.support > 0.0, "{} declined everything", r.engine);
        }
    }
}
