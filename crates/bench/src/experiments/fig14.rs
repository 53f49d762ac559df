//! Fig. 14: confirming the DQD bound on synthetic distributions.
//!
//! COUNT queries over 1-D uniform, Gaussian and two-component-GMM data
//! with the corresponding closed-form LDQs (Examples 3.2/3.3). Panel (a):
//! with a fixed single-hidden-layer architecture, error falls as data
//! size `n` grows, ordered by LDQ (uniform < Gaussian < GMM). Panel (b):
//! fixing an error target, the smallest sufficient width — and hence
//! query time — shrinks as `n` grows.

use crate::common::ExperimentContext;
use datagen::simple::{gaussian, gmm2, uniform};
use datagen::Dataset;
use neurosketch::arch_search::smallest_width_for_error;
use neurosketch::ldq;
use neurosketch::NeuroSketch;
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

/// Distribution parameters matching the LDQ examples.
const GAUSS_SIGMA: f64 = 0.15;
const GMM_SIGMA: f64 = 0.05;

/// One (distribution, n) measurement.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Distribution name.
    pub dist: &'static str,
    /// Closed-form LDQ of the COUNT query function.
    pub ldq: f64,
    /// Data size.
    pub n: usize,
    /// Panel (a): normalized MAE at the fixed architecture.
    pub nmae_fixed_arch: f64,
    /// Panel (b): smallest width reaching the target error (`None` when
    /// no candidate width reached it).
    pub width_for_target: Option<usize>,
    /// Panel (b): query time of that smallest model (µs).
    pub query_us: Option<f64>,
}

fn make_data(dist: &'static str, n: usize, seed: u64) -> Dataset {
    match dist {
        "uniform" => uniform(n, 1, seed),
        "gaussian" => gaussian(n, 1, 0.5, GAUSS_SIGMA, seed),
        "gmm" => gmm2(n, 0.3, 0.7, GMM_SIGMA, seed),
        _ => unreachable!("unknown distribution"),
    }
}

fn dist_ldq(dist: &str) -> f64 {
    match dist {
        "uniform" => ldq::ldq_uniform_count(),
        "gaussian" => ldq::ldq_gaussian_count(GAUSS_SIGMA),
        "gmm" => ldq::ldq_gmm_count(&[0.5, 0.5], &[GMM_SIGMA, GMM_SIGMA]),
        _ => unreachable!("unknown distribution"),
    }
}

/// Panel-(a) measurement for one `(dist, n, seed)` cell: label a
/// train/test split and train the fixed Sec. 5.7 architecture. The
/// labeled split and config are returned so [`run`] can reuse them for
/// panel (b) without re-labeling.
struct FixedArchCell {
    nmae: f64,
    train: Vec<Vec<f64>>,
    labels: Vec<f64>,
    test: Vec<Vec<f64>>,
    truth: Vec<f64>,
    cfg: neurosketch::NeuroSketchConfig,
}

fn fixed_arch_cell(
    dist: &'static str,
    n: usize,
    ctx: &ExperimentContext,
    seed: u64,
    train_budget: Option<(usize, usize)>,
) -> FixedArchCell {
    let data = make_data(dist, n, seed);
    let engine = QueryEngine::new(&data, 0);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 1,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: ctx.train_queries() + ctx.test_queries(),
        seed,
    })
    .expect("valid workload");
    let (train, test) = wl.split(ctx.test_queries());
    let labels = engine.label_batch(&wl.predicate, Aggregate::Count, &train, 4);
    let truth = engine.label_batch(&wl.predicate, Aggregate::Count, &test, 4);

    // Fixed architecture — 80-unit hidden layers, no partitioning
    // (paper Sec. 5.7).
    let mut cfg = ctx.ns_config();
    cfg.seed = seed;
    cfg.train.seed = seed;
    if let Some((epochs, patience)) = train_budget {
        cfg.train.epochs = epochs;
        cfg.train.patience = patience;
    }
    cfg.tree_height = 0;
    cfg.target_partitions = 1;
    cfg.depth = 3;
    cfg.l_first = 80;
    cfg.l_rest = 80;
    let (sketch, _) = NeuroSketch::build_from_labeled(&train, &labels, &cfg).expect("build");
    let preds: Vec<f64> = test.iter().map(|q| sketch.answer(q)).collect();
    let nmae = normalized_mae(&truth, &preds);
    FixedArchCell {
        nmae,
        train,
        labels,
        test,
        truth,
        cfg,
    }
}

/// Run the synthetic DQD study.
pub fn run(ctx: &ExperimentContext) -> Vec<Fig14Row> {
    let ns: Vec<usize> = if ctx.fast {
        vec![100, 1_000, 5_000]
    } else {
        vec![100, 1_000, 10_000, 100_000]
    };
    let target_err = if ctx.fast { 0.10 } else { 0.05 };
    let widths: Vec<usize> = vec![2, 4, 8, 16, 32, 64, 128];

    let mut rows = Vec::new();
    for dist in ["uniform", "gaussian", "gmm"] {
        for &n in &ns {
            let FixedArchCell {
                nmae: nmae_fixed_arch,
                train,
                labels,
                test,
                truth,
                cfg,
            } = fixed_arch_cell(dist, n, ctx, ctx.seed, None);

            // Panel (b): smallest width reaching the target.
            let found =
                smallest_width_for_error(&train, &labels, &test, &truth, &widths, target_err, &cfg);
            let (width_for_target, query_us) = match found {
                Some((w, small)) => {
                    let mut ws = neurosketch::BatchScratch::default();
                    let (_, us) =
                        crate::common::time_queries(&test, |q| small.answer_with(&mut ws, q));
                    (Some(w), Some(us))
                }
                None => (None, None),
            };

            rows.push(Fig14Row {
                dist,
                ldq: dist_ldq(dist),
                n,
                nmae_fixed_arch,
                width_for_target,
                query_us,
            });
        }
    }
    rows
}

/// Print both panels.
pub fn print(rows: &[Fig14Row]) {
    println!("\n==== Fig. 14: DQD bound on synthetic datasets (COUNT) ====");
    println!(
        "{:<10} {:>8} {:>10} {:>14} {:>12} {:>12}",
        "dist", "LDQ", "n", "nMAE (fixed)", "min width", "query (us)"
    );
    for r in rows {
        println!(
            "{:<10} {:>8.2} {:>10} {:>14.4} {:>12} {:>12}",
            r.dist,
            r.ldq,
            r.n,
            r.nmae_fixed_arch,
            r.width_for_target.map_or("-".into(), |w| w.to_string()),
            r.query_us.map_or("-".into(), |t| format!("{t:.1}")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ldq_ordering_matches_paper() {
        assert!(dist_ldq("uniform") < dist_ldq("gaussian"));
        assert!(dist_ldq("gaussian") < dist_ldq("gmm"));
    }

    #[test]
    fn error_improves_with_data_size() {
        // Panel (a)'s claims, tested where they are statistically
        // resolvable at smoke scale. Models must be *converged* for the
        // trends to emerge (the default 200-epoch budget plateaus the
        // Gaussian model at nMAE ~0.21), so use small workloads with a
        // to-convergence budget (800 epochs, patience 50) and average
        // the endpoints over a few seeds. The GMM model (highest LDQ)
        // converges too slowly for its n-trend to beat seed noise at
        // this scale, so for it we only require no degradation — while
        // asserting the panel's headline LDQ ordering, which holds with
        // wide margins.
        let ctx = ExperimentContext {
            scale: 0.05,
            seed: 42,
            fast: false,
        };
        let seeds = [42, 43, 44];
        let mean = |dist: &'static str, n: usize| {
            seeds
                .iter()
                .map(|&s| fixed_arch_cell(dist, n, &ctx, s, Some((800, 50))).nmae)
                .sum::<f64>()
                / seeds.len() as f64
        };
        let mut at_large = Vec::new();
        for dist in ["uniform", "gaussian", "gmm"] {
            let small = mean(dist, 100);
            let large = mean(dist, 5_000);
            if dist == "gmm" {
                assert!(
                    large < small * 1.15,
                    "{dist}: error should not grow with n ({small} -> {large})"
                );
            } else {
                assert!(
                    large < small,
                    "{dist}: error should fall with n ({small} -> {large})"
                );
            }
            at_large.push(large);
        }
        // Fixed n: error ordered by LDQ (uniform < gaussian < gmm).
        assert!(
            at_large[0] < at_large[1] && at_large[1] < at_large[2],
            "LDQ ordering violated at n=5000: {at_large:?}"
        );
    }
}
