//! The accuracy gate of the `f32` training step (`Mlp::forward_batch` /
//! `Mlp::backward_batch`): it is bitwise its own `f32` per-example
//! oracle (`batched_vs_scalar.rs`), and it is *not* bitwise the `f64`
//! step — this file bounds how far from it one step's gradients are,
//! and pins the forward to the serving forward bit for bit.
//!
//! The gradient bound is normwise per layer: `max |g32 − g64|` over the
//! layer's `dW` and `db` entries, divided by `max |g64|` over the same
//! entries. Per entry it would not be a bound at all: an entry that is
//! a sum of cancelling terms can be small in `f64` and carry the
//! round-off of its large terms in `f32`.
//!
//! Measured when the gate was written (four seeds each, batch 64): worst
//! 1.7e-6 on the paper shape and 6.0e-7 on the deep/wide one on the FMA
//! build, 1.5e-6 and 4.4e-7 on the non-FMA build (`f32` round-off is
//! 6e-8 per operation, and a weight gradient sums 64 examples), so the
//! bound has a factor of ten in hand and a step that loses a digit
//! trips it.

use nn::fused::ServingWorkspace;
use nn::linalg::Matrix;
use nn::mlp::{batch_gradient_per_example, BatchWorkspace, Gradients};
use nn::train::{train, TrainConfig};
use nn::Mlp;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The training batch size (`TrainConfig::default().batch_size`).
const BATCH: usize = 64;
const BOUND: f64 = 2e-5;
const SHAPES: [&[usize]; 2] = [&[4, 60, 30, 30, 1], &[6, 120, 120, 120, 120, 1]];

/// A He-initialised model with non-zero biases.
fn model(sizes: &[usize], seed: u64) -> Mlp {
    let mut mlp = Mlp::new(sizes, seed);
    for (l, layer) in mlp.layers_mut().iter_mut().enumerate() {
        for (j, b) in layer.biases.iter_mut().enumerate() {
            *b = ((l * 31 + j * 7) % 13) as f64 / 13.0 - 0.4;
        }
    }
    mlp
}

/// `rows` inputs in `[0, 1)`, one example per row.
fn inputs(rows: usize, d: usize, seed: u64) -> Matrix {
    let data = (0..rows * d)
        .map(|i| ((i as u64 * 7919 + seed * 104_729) % 10_007) as f64 / 10_007.0)
        .collect();
    Matrix::from_vec(rows, d, data)
}

/// Worst normwise relative distance, over the layers, between one
/// batched `f32` step's gradients and the per-example gradient at `f64`.
fn worst_gradient_error(mlp: &Mlp, seed: u64) -> f64 {
    let x = inputs(BATCH, mlp.input_dim(), seed);
    let y = Matrix::from_vec(
        BATCH,
        1,
        (0..BATCH)
            .map(|e| (e as f64 * 0.37 + seed as f64).sin())
            .collect(),
    );
    let mut want = Gradients::zeros_like(mlp);
    batch_gradient_per_example::<f64>(mlp, &x, &y, &mut want);
    let mut got = Gradients::zeros_like(mlp);
    let mut ws = BatchWorkspace::default();
    mlp.forward_batch(&mut ws, &x);
    mlp.backward_batch(&mut ws, &y, &mut got);
    got.layers
        .iter()
        .zip(&want.layers)
        .map(|((gw, gb), (ww, wb))| {
            let pairs = || {
                gw.as_slice()
                    .iter()
                    .chain(gb)
                    .zip(ww.as_slice().iter().chain(wb))
            };
            let diff = pairs().map(|(g, w)| (g - w).abs()).fold(0.0, f64::max);
            let scale = pairs().map(|(_, w)| w.abs()).fold(0.0, f64::max);
            diff / scale
        })
        .fold(0.0, f64::max)
}

#[test]
fn f32_step_gradients_stay_within_2e5_of_the_f64_step() {
    for sizes in SHAPES {
        for seed in 0..4 {
            let err = worst_gradient_error(&model(sizes, seed), seed);
            assert!(err <= BOUND, "{sizes:?} seed {seed}: {err:e} > {BOUND:e}");
        }
    }
}

#[test]
fn training_forward_is_bitwise_the_serving_forward() {
    for sizes in SHAPES {
        for seed in 0..4 {
            let mlp = model(sizes, seed);
            let x = inputs(BATCH + 7, mlp.input_dim(), seed);
            let x32: Vec<f32> = x.as_slice().iter().map(|&v| v as f32).collect();
            let mut served = vec![f32::NAN; x.rows()];
            mlp.serving_layout()
                .forward_into(&mut ServingWorkspace::default(), &x32, &mut served);
            let served: Vec<u64> = served.iter().map(|&v| f64::from(v).to_bits()).collect();
            let mut ws = BatchWorkspace::default();
            let trained = mlp.forward_batch(&mut ws, &x).as_slice();
            let trained: Vec<u64> = trained.iter().map(|v| v.to_bits()).collect();
            assert_eq!(trained, served, "{sizes:?} seed {seed}");
        }
    }
}

/// The reference step: Adam with `f64` master weights and moments, as
/// training ran before its masters moved to `f32` — the same
/// hyperparameters, division form and step-counter saturation, over
/// any flat order of the parameters. The run sets `lr` from
/// `TrainConfig::lr_at` at the top of each epoch, as `train` does.
struct AdamF64 {
    lr: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl AdamF64 {
    fn new(lr: f64, len: usize) -> Self {
        AdamF64 {
            lr,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn step(&mut self, params: &mut [f64], grads: &[f64], scale: f64) {
        let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
        self.t += 1;
        let t = i32::try_from(self.t).unwrap_or(i32::MAX);
        let (bc1, bc2) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
        for (((w, g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            let g = g * scale;
            *m = b1 * *m + (1.0 - b1) * g;
            *v = b2 * *v + (1.0 - b2) * g * g;
            *w -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
        }
    }
}

/// `mlp`'s parameters, or a gradient shaped like it, row-major layer by
/// layer: one `(weights, biases)` pair per layer.
fn flat<'a>(layers: impl Iterator<Item = (&'a [f64], &'a [f64])>) -> Vec<f64> {
    layers
        .flat_map(|(w, b)| w.iter().chain(b))
        .copied()
        .collect()
}

/// Bounds on an `f32`-trained model's distance from the `f64`-Adam run
/// (see [`f32_training_stays_close_to_the_f64_adam_run`]): every layer
/// of every seed, and every layer of all seeds but one.
const TRAIN_BOUND: f64 = 1e-2;
const TRAIN_BOUND_TYPICAL: f64 = 1e-4;

/// `train` against the loop it replaced: the same init, the same
/// shuffled batches and the same `f32` batch-gradient kernel, but `f64`
/// master weights stepped by [`AdamF64`]. Normwise distance per layer
/// (`max |w32 − w64| / max |w64|` over the layer's weights and biases)
/// after 256 steps of the paper's shape, four seeds.
///
/// Two bounds, because a ReLU network trained from two nearby points
/// can drift apart where a unit sits on the edge of dying: a tiny
/// difference decides on which step it crosses zero, and from then on
/// its weights follow different gradients. Measured when the gate was
/// written, at a constant lr 1e-3, FMA build (the `-C target-cpu=x86-64`
/// build within 3e-7 of it): seeds 0, 1 and 3 worst 4.4e-5; seed 2
/// worst 6.3e-4, in the hidden layers (the `f64` run with its masters
/// merely rounded to `f32` after each step stays within 3.8e-6 on that
/// seed). Under the default cosine schedule from 2e-2, seeds 0–3 worst
/// 7.7e-5 / 6.0e-6 / 6.4e-6 / 1.8e-5 (non-FMA build 7.7e-5 / 6.0e-6 /
/// 5.8e-6 / 1.8e-5); from a 1e-2 peak seed 2 reached 1.6e-2. An equally
/// valid `f32` step with its derived constants rounded from their `f64`
/// values instead puts seed 0 at 1.5e-2 through one such unit (at the
/// constant 1e-3), hence the outer bound's room. A step that lost
/// digits on every seed trips the typical bound; one that diverged
/// trips both.
#[test]
fn f32_training_stays_close_to_the_f64_adam_run() {
    let (rows, d) = (256, 4);
    let cfg = TrainConfig {
        epochs: 64,
        patience: 0,
        ..TrainConfig::default()
    };
    let mut per_seed = Vec::new();
    for seed in 0..4 {
        let x = inputs(rows, d, seed);
        let xs: Vec<Vec<f64>> = (0..rows).map(|e| x.row(e).to_vec()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| (3.0 * r[0]).sin() + r[1] * r[2] - 0.5 * r[3])
            .collect();
        let init = Mlp::new(SHAPES[0], seed);
        let mut m32 = init.clone();
        train(&mut m32, &xs, &ys, &cfg);

        let mut m64 = init;
        let params = |m: &Mlp| {
            flat(
                m.layers()
                    .iter()
                    .map(|l| (l.weights.as_slice(), &l.biases[..])),
            )
        };
        let mut p64 = params(&m64);
        let mut adam = AdamF64::new(cfg.lr, p64.len());
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..rows).collect();
        let (mut ws, mut grads) = (BatchWorkspace::default(), Gradients::zeros_like(&m64));
        for epoch in 0..cfg.epochs {
            adam.lr = cfg.lr_at(epoch);
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let xb = chunk.iter().flat_map(|&i| xs[i].iter().copied()).collect();
                let xb = Matrix::from_vec(chunk.len(), d, xb);
                let yb = Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| ys[i]).collect());
                m64.forward_batch(&mut ws, &xb);
                m64.backward_batch(&mut ws, &yb, &mut grads);
                let g = flat(grads.layers.iter().map(|(w, b)| (w.as_slice(), &b[..])));
                adam.step(&mut p64, &g, 1.0 / chunk.len() as f64);
                let dst = m64.layers_mut().iter_mut();
                let dst =
                    dst.flat_map(|l| l.weights.as_mut_slice().iter_mut().chain(&mut l.biases));
                for (w, p) in dst.zip(&p64) {
                    *w = *p;
                }
            }
        }
        let mut worst = 0.0f64;
        for (li, (a, b)) in m32.layers().iter().zip(m64.layers()).enumerate() {
            let pairs = || {
                let a = a.weights.as_slice().iter().chain(&a.biases);
                a.zip(b.weights.as_slice().iter().chain(&b.biases))
            };
            let diff = pairs().map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            let scale = pairs().map(|(_, b)| b.abs()).fold(0.0, f64::max);
            let err = diff / scale;
            assert!(
                err <= TRAIN_BOUND,
                "seed {seed}, layer {li}: {err:e} > {TRAIN_BOUND:e}"
            );
            worst = worst.max(err);
        }
        per_seed.push(worst);
    }
    let typical = per_seed
        .iter()
        .filter(|&&e| e <= TRAIN_BOUND_TYPICAL)
        .count();
    assert!(
        typical + 1 >= per_seed.len(),
        "more than one seed beyond {TRAIN_BOUND_TYPICAL:e}: {per_seed:?}"
    );
}
