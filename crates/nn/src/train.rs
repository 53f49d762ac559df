//! Mini-batch training loop (Alg. 4 of the paper).
//!
//! The paper trains each partition's model by sampling batches from the
//! node's query set and descending the MSE gradient with Adam until
//! convergence. We add a small patience-based stopping rule so "until
//! convergence" is well defined and deterministic.
//!
//! [`train_rows`] is the batched hot path, and [`train`] is it over a
//! row-form set. The rows are read through an index, so a caller
//! training on a subset of its workload (a kd-tree leaf's query ids)
//! copies none of them. For the whole run the model is held as `f32`
//! master weights in its [`ServingLayout`] — `Wᵀ` panels and padded
//! biases, the order the GEMMs read — and unpacked into the [`Mlp`]
//! once, at the end. Each mini-batch is gathered once, cast `as f32`
//! straight into the reused [`BatchWorkspace`]'s padded input (the one
//! gather and the one cast of the loop), and pushed through the forward
//! and backward passes — three calls of the crate's tiled GEMM
//! ([`crate::gemm`]) per layer, the weight gradient stored straight in
//! the panels' order, zero per-example allocation — and [`Adam`] takes
//! one elementwise sweep over the parameters, the summed gradient and
//! its moments, all in that order.
//!
//! **Learning-rate schedule.** Adam's rate is set once per epoch, at
//! its top, to [`TrainConfig::lr_at`]. Alg. 4 runs Adam at one constant
//! rate ([`LrSchedule::Constant`]); the default is
//! [`LrSchedule::Cosine`], a decay from a peak of 2e-2 towards zero over
//! the epoch budget (Loshchilov & Hutter, "SGDR", ICLR 2017, without
//! restarts). The peak was chosen by held-out nMAE over seven
//! benchmark-shaped fixtures of 5 000 training queries and 200 epochs
//! against 1e-3 / 5e-3 constant and 5e-3 / 1e-2 / 3e-2 cosine; against
//! the 1e-3 constant rate the default ran at before, it lowers that
//! nMAE by 17–28% on every fixture at the same number of steps. The
//! decay's tail is where the precision rule below bites: in the last
//! 10% of the epochs of a paper-shape leaf (625 rows, batch 64, 200
//! epochs, final rate 1.2e-6), 14.0% of the nonzero updates are below
//! half an `f32` ulp of their weight and lost, against 0.4% at a
//! constant 1e-3. The patience rule still reads the epoch loss, which
//! the high early rate makes noisier: a default build of the benchmark
//! fixture stops 3 of its 8 leaves early (after 44, 84 and 100 epochs,
//! 1 228 epochs in all, where the constant 1e-3 ran all 1 600).
//!
//! **Precision.** Training computes at `f32`, the precision the trained
//! model is stored and served in: each mini-batch is cast to `f32` as it
//! is gathered, every parameter is rounded to `f32` once as the run
//! starts, and the master weights, the gradients and the Adam moments
//! and step stay `f32` (the loss and the output delta are taken in
//! `f64`). An update smaller than half an `f32` ulp of its weight is
//! lost, and a moment that decays below [`f32::MIN_POSITIVE`] is flushed
//! to zero ([`crate::optimizer`] says why). A trained model's every
//! parameter is `f32`-representable, so it equals its own
//! [`Mlp::quantized_to`]`(F32)` image: an `F32` save is lossless.
//!
//! **Determinism contract.** The shuffle RNG is consumed once per epoch
//! and every gradient entry is accumulated in the per-example
//! floating-point order, so `train` produces, bit for bit, the weights
//! of the one-example-at-a-time loop
//! ([`batch_gradient_per_example`] over each batch, then the same `f32`
//! [`Adam::step`] over the row-major parameters, at the epoch's
//! [`TrainConfig::lr_at`]). That loop is kept as
//! the oracle in `tests/batched_vs_scalar.rs`, which asserts the
//! equality with `to_bits()` on both the FMA and the non-FMA build. The
//! trained weights are not those of an `f64` step;
//! `tests/training_accuracy.rs` bounds how far one step's gradients and
//! a 256-step run's weights are from it.
//!
//! [`batch_gradient_per_example`]: crate::mlp::batch_gradient_per_example

use crate::fused::ServingLayout;
use crate::mlp::{BatchWorkspace, Mlp};
use crate::optimizer::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Maximum number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate: the rate of every epoch under
    /// [`LrSchedule::Constant`], the peak under [`LrSchedule::Cosine`]
    /// (see [`TrainConfig::lr_at`]).
    pub lr: f64,
    /// How the learning rate moves from epoch to epoch.
    pub schedule: LrSchedule,
    /// Stop early when the epoch loss has not improved by at least
    /// `min_delta` (relative) for `patience` consecutive epochs. `0`
    /// disables early stopping.
    pub patience: usize,
    /// Relative improvement threshold for the patience rule.
    pub min_delta: f64,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Optional hard cap on training wall-clock; `None` means unlimited.
    ///
    /// The budget is checked after every *mini-batch*, not every epoch,
    /// so a single long epoch over a large training set cannot blow
    /// through the cap unnoticed.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 64,
            lr: 2e-2,
            schedule: LrSchedule::Cosine,
            patience: 20,
            min_delta: 1e-4,
            seed: 0,
            time_budget: None,
        }
    }
}

/// The learning rate over a run, set once per epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrSchedule {
    /// `lr` for every epoch: the paper's Alg. 4 recipe.
    Constant,
    /// Cosine decay from `lr` at epoch 0 towards 0 at `epochs`
    /// (Loshchilov & Hutter, "SGDR", ICLR 2017, without restarts).
    Cosine,
}

impl TrainConfig {
    /// Adam's learning rate for the 0-based `epoch`: `lr` under
    /// [`LrSchedule::Constant`], `0.5 · lr · (1 + cos(π · epoch /
    /// epochs))` under [`LrSchedule::Cosine`]. The decay spans `epochs`,
    /// so a run the patience rule or `time_budget` ends early stops
    /// partway down it.
    pub fn lr_at(&self, epoch: usize) -> f64 {
        match self.schedule {
            LrSchedule::Constant => self.lr,
            LrSchedule::Cosine => {
                let phase = std::f64::consts::PI * epoch as f64 / self.epochs.max(1) as f64;
                0.5 * self.lr * (1.0 + phase.cos())
            }
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epochs actually executed.
    pub epochs_run: usize,
    /// Mean squared error on the training set after the final epoch.
    pub final_loss: f64,
    /// Per-epoch mean training loss (useful for Fig. 13c style curves).
    pub loss_curve: Vec<f64>,
    /// Wall-clock spent training.
    pub elapsed: std::time::Duration,
}

/// Train `mlp` on `(xs, ys)` with MSE + Adam: [`train_rows`] over the
/// rows of `xs`.
///
/// # Panics
/// As [`train_rows`], and if `xs` and `ys` differ in length.
pub fn train(mlp: &mut Mlp, xs: &[Vec<f64>], ys: &[f64], cfg: &TrainConfig) -> TrainReport {
    assert_eq!(xs.len(), ys.len(), "features/targets must pair up");
    train_rows(mlp, |i| &xs[i], ys, cfg)
}

/// Train `mlp` with MSE + Adam on the `ys.len()` examples
/// `(row(i), ys[i])` — the batched hot path.
///
/// The model is packed into `f32` master weights, trained there and
/// unpacked into `mlp` once, however the run ends. Each mini-batch's
/// rows are gathered through `row`, cast `as f32` into the workspace and
/// pushed through the forward and backward passes; [`Adam::step`]
/// consumes the summed batch gradients directly. All scratch lives in
/// buffers grown once and reused for the whole run. The shuffle
/// permutes the numbers `0..ys.len()`, so the same rows under the same
/// numbers train the same bits whatever they are read from.
///
/// # Panics
/// Panics if `ys` is empty or any `row(i)`'s length differs from the
/// network's input dimensionality.
pub fn train_rows<'a>(
    mlp: &mut Mlp,
    row: impl Fn(usize) -> &'a [f64],
    ys: &[f64],
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(!ys.is_empty(), "training set must be nonempty");
    let d = mlp.input_dim();
    assert!(
        (0..ys.len()).all(|i| row(i).len() == d),
        "feature dim does not match network input dim {d}"
    );
    let mut model = mlp.serving_layout();
    let mut adam = Adam::new(cfg.lr, model.params().len());
    let report = train_layout(&mut model, &mut adam, row, ys, cfg);
    let into = mlp.layers_mut().iter_mut();
    model.unpack(
        model.params(),
        into.map(|l| (l.weights.as_mut_slice(), &mut l.biases[..])),
    );
    report
}

/// The training loop of [`train_rows`] on the `f32` master weights
/// `model`, stepped by `adam`.
fn train_layout<'a>(
    model: &mut ServingLayout,
    adam: &mut Adam,
    row: impl Fn(usize) -> &'a [f64],
    ys: &[f64],
    cfg: &TrainConfig,
) -> TrainReport {
    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..ys.len()).collect();
    let mut grad = vec![0.0; model.params().len()];
    let mut ws = BatchWorkspace::default();
    let mut yb = Vec::new();
    let mut curve = Vec::with_capacity(cfg.epochs);
    let mut best = f64::INFINITY;
    let mut stale = 0usize;
    let mut epochs_run = 0usize;

    'outer: for epoch in 0..cfg.epochs {
        epochs_run += 1;
        adam.set_lr(cfg.lr_at(epoch));
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            yb.clear();
            yb.extend(chunk.iter().map(|&i| ys[i]));
            ws.forward(model, chunk.iter().map(|&i| row(i)));
            let batch_loss = ws.backward(model, &yb, &mut grad);
            adam.step(model.params_mut(), &grad, (1.0 / chunk.len() as f64) as f32);
            epoch_loss += batch_loss;
            if let Some(budget) = cfg.time_budget {
                if start.elapsed() > budget {
                    curve.push(epoch_loss / ys.len() as f64);
                    break 'outer;
                }
            }
        }
        epoch_loss /= ys.len() as f64;
        curve.push(epoch_loss);
        if cfg.patience > 0 {
            if epoch_loss < best * (1.0 - cfg.min_delta) {
                best = epoch_loss;
                stale = 0;
            } else {
                stale += 1;
                if stale >= cfg.patience {
                    break;
                }
            }
        }
    }

    let final_loss = *curve.last().expect("at least one epoch");
    TrainReport {
        epochs_run,
        final_loss,
        loss_curve: curve,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::NR;
    use crate::QuantMode;

    fn make_linear_set(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i % 10) as f64 / 10.0, (i / 10) as f64 / (n as f64 / 10.0)])
            .collect();
        let ys = xs.iter().map(|x| 0.5 * x[0] - 0.25 * x[1] + 0.1).collect();
        (xs, ys)
    }

    #[test]
    fn learns_linear_function() {
        let (xs, ys) = make_linear_set(100);
        let mut mlp = Mlp::new(&[2, 16, 1], 5);
        let cfg = TrainConfig {
            epochs: 600,
            ..Default::default()
        };
        let report = train(&mut mlp, &xs, &ys, &cfg);
        assert!(report.final_loss < 1e-3, "loss {}", report.final_loss);
        assert!(report.epochs_run <= 600);
    }

    #[test]
    fn cosine_schedule_decays_from_the_peak_towards_zero() {
        let cfg = TrainConfig {
            epochs: 100,
            lr: 2e-2,
            schedule: LrSchedule::Cosine,
            ..Default::default()
        };
        assert_eq!(cfg.lr_at(0), 2e-2);
        assert!((cfg.lr_at(50) - 1e-2).abs() < 1e-15);
        assert!((1..100).all(|e| cfg.lr_at(e) < cfg.lr_at(e - 1)));
        assert!(cfg.lr_at(99) > 0.0 && cfg.lr_at(99) < 1e-5);
        let constant = TrainConfig {
            schedule: LrSchedule::Constant,
            ..cfg
        };
        assert!((0..100).all(|e| constant.lr_at(e) == 2e-2));
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (xs, ys) = make_linear_set(50);
        let run = || {
            let mut mlp = Mlp::new(&[2, 8, 1], 11);
            let cfg = TrainConfig {
                epochs: 30,
                patience: 0,
                ..Default::default()
            };
            train(&mut mlp, &xs, &ys, &cfg);
            mlp.predict(&[0.3, 0.3])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn early_stopping_kicks_in() {
        // Constant target: loss hits (numerical) floor almost immediately.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let ys = vec![0.0; 20];
        let mut mlp = Mlp::with_init(&[1, 4, 1], crate::init::Init::Zeros, 0).unwrap();
        let cfg = TrainConfig {
            epochs: 500,
            patience: 3,
            ..Default::default()
        };
        let report = train(&mut mlp, &xs, &ys, &cfg);
        assert!(report.epochs_run < 500, "stopped at {}", report.epochs_run);
    }

    #[test]
    fn loss_curve_has_one_entry_per_epoch() {
        let (xs, ys) = make_linear_set(30);
        let mut mlp = Mlp::new(&[2, 4, 1], 1);
        let cfg = TrainConfig {
            epochs: 7,
            patience: 0,
            ..Default::default()
        };
        let report = train(&mut mlp, &xs, &ys, &cfg);
        assert_eq!(report.loss_curve.len(), 7);
    }

    #[test]
    fn batched_and_per_example_paths_agree_bitwise() {
        // The per-example loop in its shortest form (no stopping rule),
        // stepping the row-major parameters with the same `f32` Adam;
        // `tests/batched_vs_scalar.rs` holds the full oracle.
        use crate::linalg::Matrix;
        use crate::mlp::{batch_gradient_per_example, Gradients};
        let (xs, ys) = make_linear_set(83); // odd size: ragged final batch
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 16,
            patience: 0,
            ..Default::default()
        };
        let mut batched = Mlp::new(&[2, 12, 6, 1], 77);
        let mut reference = batched.clone();
        train(&mut batched, &xs, &ys, &cfg);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut params = reference.row_major_f32();
        let mut adam = Adam::new(cfg.lr, params.len());
        let mut grads = Gradients::zeros_like(&reference);
        for epoch in 0..cfg.epochs {
            adam.set_lr(cfg.lr_at(epoch));
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let rows: Vec<f64> = chunk.iter().flat_map(|&i| xs[i].clone()).collect();
                let x = Matrix::from_vec(chunk.len(), 2, rows);
                let y = Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| ys[i]).collect());
                batch_gradient_per_example::<f32>(&reference, &x, &y, &mut grads);
                let g = grads.row_major_f32();
                adam.step(&mut params, &g, (1.0 / chunk.len() as f64) as f32);
                reference.set_row_major(&params);
            }
        }
        assert_eq!(batched, reference, "weights must match bit for bit");
    }

    #[test]
    fn every_exit_writes_the_masters_back_losslessly() {
        let (xs, ys) = make_linear_set(83);
        let base = TrainConfig {
            epochs: 40,
            batch_size: 16,
            patience: 0,
            ..Default::default()
        };
        let exits = [
            ("epochs exhausted", base.clone()),
            (
                "patience",
                TrainConfig {
                    patience: 2,
                    min_delta: 0.5,
                    ..base.clone()
                },
            ),
            (
                "time budget",
                TrainConfig {
                    time_budget: Some(std::time::Duration::ZERO),
                    ..base.clone()
                },
            ),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (exit, cfg) in exits {
            let init = Mlp::new(&[2, 12, 6, 1], 77);
            let mut masters = init.serving_layout();
            let mut adam = Adam::new(cfg.lr, masters.params().len());
            train_layout(&mut masters, &mut adam, |i| &xs[i], &ys, &cfg);
            let mut m = init.clone();
            let report = train(&mut m, &xs, &ys, &cfg);
            let stopped_early = report.epochs_run < cfg.epochs;
            assert_eq!(stopped_early, exit != "epochs exhausted", "{exit}");
            let blob = crate::binary::encode_with(&m, QuantMode::F32);
            let (decoded, _) = crate::binary::decode_any(blob).unwrap();
            assert_eq!(decoded, m, "{exit}");
            let layout = m.serving_layout();
            assert_eq!(bits(layout.params()), bits(masters.params()), "{exit}");
            assert_ne!(
                m,
                init.quantized_to(QuantMode::F32),
                "{exit}: the run trained"
            );
        }
    }

    #[test]
    fn a_paper_shape_leaf_keeps_padding_zero_and_no_moment_subnormal() {
        // A build leaf's run: 625 rows, batch 64, 200 epochs — 2 000
        // steps, long enough for a dead unit's `m` to decay past the
        // subnormal threshold had it not been flushed.
        let xs: Vec<Vec<f64>> = (0..625)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 7 + j * 13) % 25) as f64 / 25.0)
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1] - 0.3 * x[2] + x[3]).collect();
        let cfg = TrainConfig {
            patience: 0,
            ..Default::default()
        };
        let mut masters = Mlp::new(&[4, 60, 30, 30, 1], 3).serving_layout();
        let mut adam = Adam::new(cfg.lr, masters.params().len());
        train_layout(&mut masters, &mut adam, |i| &xs[i], &ys, &cfg);
        let (m, v) = adam.moments();
        let params = masters.params();
        for (name, flat) in [("weights", params), ("m", m), ("v", v)] {
            assert!(
                flat.iter().all(|x| !x.is_subnormal()),
                "{name}: a subnormal"
            );
            for l in masters.layers() {
                let (panels, bias) = l.split(flat);
                let pad_w = panels.iter().enumerate();
                let pad_w = pad_w.filter(|(i, _)| i / (l.in_dim * NR) * NR + i % NR >= l.out_dim);
                let pad = pad_w.map(|(_, x)| x).chain(&bias[l.out_dim..]);
                assert!(
                    pad.into_iter().all(|x| x.to_bits() == 0),
                    "{name}: padding not +0.0"
                );
            }
        }
    }

    #[test]
    fn index_path_is_bitwise_the_rows_cloned_in_that_order() {
        // A permuted subset of 83 of 120 rows (37 is coprime to 120, so
        // the ids are distinct): batch 16 leaves a ragged final batch.
        let (xs, ys) = make_linear_set(120);
        let ids: Vec<usize> = (0..83).map(|k| (k * 37 + 11) % 120).collect();
        let cloned: Vec<Vec<f64>> = ids.iter().map(|&i| xs[i].clone()).collect();
        let ys: Vec<f64> = ids.iter().map(|&i| ys[i]).collect();
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 16,
            patience: 0,
            ..Default::default()
        };
        let mut indexed = Mlp::new(&[2, 12, 6, 1], 77);
        let mut copied = indexed.clone();
        let a = train_rows(&mut indexed, |k| &xs[ids[k]], &ys, &cfg);
        let b = train(&mut copied, &cloned, &ys, &cfg);
        assert_eq!(indexed, copied, "weights must match bit for bit");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.loss_curve), bits(&b.loss_curve));
    }

    #[test]
    #[should_panic(expected = "feature dim does not match")]
    fn index_path_refuses_a_row_of_the_wrong_width() {
        // The gather's cast loop zips a row against the input width, so
        // an unchecked wide row would lose its last coordinate silently.
        let (xs, ys) = make_linear_set(10);
        let wide = [0.1, 0.2, 0.3];
        let row = |k: usize| if k == 7 { &wide[..] } else { &xs[k][..] };
        train_rows(
            &mut Mlp::new(&[2, 4, 1], 1),
            row,
            &ys,
            &TrainConfig::default(),
        );
    }

    #[test]
    fn time_budget_is_checked_per_batch_not_per_epoch() {
        // With a zero budget the loop must stop after the FIRST mini-batch
        // of the first epoch. A per-epoch check would run all batches and
        // land on the same weights as an unbudgeted 1-epoch run — so the
        // two runs differing proves the check fires mid-epoch.
        let (xs, ys) = make_linear_set(10);
        let base = TrainConfig {
            epochs: 1,
            batch_size: 1,
            patience: 0,
            ..Default::default()
        };
        let mut budgeted = Mlp::new(&[2, 8, 1], 4);
        let mut unbudgeted = budgeted.clone();
        let mut cfg = base.clone();
        cfg.time_budget = Some(std::time::Duration::ZERO);
        let report = train(&mut budgeted, &xs, &ys, &cfg);
        train(&mut unbudgeted, &xs, &ys, &base);
        assert_eq!(report.epochs_run, 1);
        assert_eq!(report.loss_curve.len(), 1);
        assert_ne!(
            budgeted, unbudgeted,
            "budgeted run must have stopped before finishing the epoch"
        );
    }
}
