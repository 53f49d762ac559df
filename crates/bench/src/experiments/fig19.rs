//! Fig. 19 (Sec. A.5): the theoretical construction in practice.
//!
//! Compares, at matched parameter budgets, (1) **CS** — the Algorithm-1
//! memorization construction used as-is, (2) **CS+SGD** — the
//! construction as an initialization for SGD, and (3) **FNN+SGD(x)** —
//! randomly initialized fully connected nets of depth `x`. Run on a 2-D
//! query function (fixed-window AVG over VS-like data) and a 4-D one
//! (variable range). Shapes to check: CS+SGD wins on the 2-D function;
//! on 4-D, CS degrades badly and FNNs win (the paper's conclusion that
//! the construction helps only in low dimension).

use crate::common::ExperimentContext;
use datagen::PaperDataset;
use nn::construction::{GridNet, SlopeMode};
use nn::train::{train, LrSchedule, TrainConfig};
use nn::Mlp;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::{FixedWidthRange, PredicateFn, Range};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One method's accuracy at one query dimensionality.
#[derive(Debug, Clone)]
pub struct Fig19Row {
    /// Query-function dimensionality (2 or 4).
    pub dims: usize,
    /// Method label.
    pub method: String,
    /// Parameter count of the model.
    pub params: usize,
    /// Test normalized MAE.
    pub nmae: f64,
}

/// Choose an FNN width whose parameter count is at most `budget` for the
/// given depth and input dim.
fn width_for_budget(input: usize, depth: usize, budget: usize) -> usize {
    let params = |w: usize| -> usize {
        let sizes = {
            let hidden = depth.saturating_sub(2);
            let mut s = vec![input];
            s.extend(std::iter::repeat_n(w, hidden));
            s.push(1);
            s
        };
        sizes.windows(2).map(|p| p[0] * p[1] + p[1]).sum()
    };
    let mut w = 1;
    while params(w + 1) <= budget && w < 4096 {
        w += 1;
    }
    w
}

fn eval_mlp(mlp: &Mlp, test: &[Vec<f64>], truth: &[f64], y_scale: (f64, f64)) -> f64 {
    let preds: Vec<f64> = test
        .iter()
        .map(|q| mlp.predict(q) * y_scale.1 + y_scale.0)
        .collect();
    normalized_mae(truth, &preds)
}

/// Run one dimensionality's comparison.
fn run_dim(
    ctx: &ExperimentContext,
    dims: usize,
    engine: &QueryEngine<'_>,
    pred: &dyn PredicateFn,
    queries: &[Vec<f64>],
) -> Vec<Fig19Row> {
    let n_test = ctx.test_queries().min(queries.len() / 4);
    let (train_q, test_q) = queries.split_at(queries.len() - n_test);
    let labels = engine.label_batch(pred, Aggregate::Avg, train_q, 4);
    let truth = engine.label_batch(pred, Aggregate::Avg, test_q, 4);

    // Target standardization shared by all SGD methods.
    let n = labels.len() as f64;
    let y_mean = labels.iter().sum::<f64>() / n;
    let y_std = (labels.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n)
        .sqrt()
        .max(1e-12);
    let ys: Vec<f64> = labels.iter().map(|y| (y - y_mean) / y_std).collect();

    // Parameter budget set by the construction at a modest t.
    let t = if dims == 2 {
        if ctx.fast {
            6
        } else {
            10
        }
    } else {
        3
    };
    let f = |x: &[f64]| engine.answer(pred, Aggregate::Avg, x);
    let grid = GridNet::construct(&f, dims, t, SlopeMode::LemmaA3).expect("construct");
    let budget = grid.to_mlp().param_count();

    let mut rows = Vec::new();
    // CS: the raw construction.
    let cs_preds: Vec<f64> = test_q.iter().map(|q| grid.forward(q)).collect();
    rows.push(Fig19Row {
        dims,
        method: "CS".into(),
        params: grid.param_count(),
        nmae: normalized_mae(&truth, &cs_preds),
    });

    // CS+SGD: construction (on the standardized function) as init.
    let f_std = |x: &[f64]| (engine.answer(pred, Aggregate::Avg, x) - y_mean) / y_std;
    let grid_std = GridNet::construct(&f_std, dims, t, SlopeMode::LemmaA3).expect("construct");
    let mut cs_sgd = grid_std.to_mlp();
    let tcfg = TrainConfig {
        epochs: if ctx.fast { 40 } else { 150 },
        lr: 1e-3,
        schedule: LrSchedule::Constant,
        seed: ctx.seed,
        ..TrainConfig::default()
    };
    train(&mut cs_sgd, train_q, &ys, &tcfg);
    rows.push(Fig19Row {
        dims,
        method: "CS+SGD".into(),
        params: cs_sgd.param_count(),
        nmae: eval_mlp(&cs_sgd, test_q, &truth, (y_mean, y_std)),
    });

    // FNN+SGD at several depths, width chosen to match the budget.
    for depth in [2usize, 4, 6, 8] {
        let w = width_for_budget(dims, depth + 1, budget);
        let hidden = depth.saturating_sub(1);
        let mut sizes = vec![dims];
        sizes.extend(std::iter::repeat_n(w, hidden.max(1)));
        sizes.push(1);
        let mut fnn = Mlp::new(&sizes, ctx.seed ^ depth as u64);
        train(&mut fnn, train_q, &ys, &tcfg);
        rows.push(Fig19Row {
            dims,
            method: format!("FNN+SGD ({depth})"),
            params: fnn.param_count(),
            nmae: eval_mlp(&fnn, test_q, &truth, (y_mean, y_std)),
        });
    }
    rows
}

/// Run Fig. 19 on both query dimensionalities.
pub fn run(ctx: &ExperimentContext) -> Vec<Fig19Row> {
    let (data, measure) = ctx.dataset(PaperDataset::Vs);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 19);
    let n_q = ctx.train_queries() + ctx.test_queries();

    // 2-D: fixed-window AVG (query = window corner).
    let width = 0.2;
    let pred2 =
        FixedWidthRange::new(vec![0, 1], vec![width, width], data.dims()).expect("valid predicate");
    let queries2: Vec<Vec<f64>> = (0..n_q)
        .map(|_| {
            vec![
                rng.random_range(0.0..1.0 - width),
                rng.random_range(0.0..1.0 - width),
            ]
        })
        .collect();
    let engine = QueryEngine::new(&data, measure);
    let mut rows = run_dim(ctx, 2, &engine, &pred2, &queries2);

    // 4-D: variable-range AVG (query = (c1, c2, r1, r2)).
    let pred4 = Range::new(vec![0, 1], data.dims()).expect("valid predicate");
    let queries4: Vec<Vec<f64>> = (0..n_q)
        .map(|_| {
            let c1: f64 = rng.random_range(0.0..0.8);
            let c2: f64 = rng.random_range(0.0..0.8);
            let r1: f64 = rng.random_range(0.1..(1.0 - c1));
            let r2: f64 = rng.random_range(0.1..(1.0 - c2));
            vec![c1, c2, r1, r2]
        })
        .collect();
    rows.extend(run_dim(ctx, 4, &engine, &pred4, &queries4));
    rows
}

/// Print both panels.
pub fn print(rows: &[Fig19Row]) {
    println!("\n==== Fig. 19: construction vs SGD ====");
    for dims in [2usize, 4] {
        println!("\n({dims}-dimensional queries)");
        println!("{:<14} {:>10} {:>10}", "method", "params", "nMAE");
        for r in rows.iter().filter(|r| r.dims == dims) {
            println!("{:<14} {:>10} {:>10.4}", r.method, r.params, r.nmae);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_for_budget_respects_budget() {
        let w = width_for_budget(2, 3, 1000);
        let params = 2 * w + w + w + 1;
        assert!(params <= 1000);
        let wp = width_for_budget(2, 3, 2000);
        assert!(wp >= w);
    }

    #[test]
    fn cs_sgd_beats_raw_cs_in_2d() {
        let ctx = ExperimentContext::fast();
        let rows = run(&ctx);
        let by = |d: usize, m: &str| {
            rows.iter()
                .find(|r| r.dims == d && r.method == m)
                .unwrap_or_else(|| panic!("{m} at {d}d"))
        };
        // SGD refinement should not hurt the construction (paper Fig. 19a).
        assert!(by(2, "CS+SGD").nmae <= by(2, "CS").nmae * 1.2);
        // In 4-D the raw construction is far worse than trained FNNs
        // (paper Fig. 19b).
        let fnn_best = rows
            .iter()
            .filter(|r| r.dims == 4 && r.method.starts_with("FNN"))
            .map(|r| r.nmae)
            .fold(f64::INFINITY, f64::min);
        assert!(
            by(4, "CS").nmae > fnn_best,
            "CS {} vs FNN {}",
            by(4, "CS").nmae,
            fnn_best
        );
    }
}
