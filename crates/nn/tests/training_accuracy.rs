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
use nn::mlp::{accumulate_example_gradient, BatchWorkspace, Gradients};
use nn::Mlp;

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
/// batched `f32` step's gradients and the `f64` per-example sum.
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
    for e in 0..BATCH {
        accumulate_example_gradient(mlp, x.row(e), y.row(e), &mut want);
    }
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
