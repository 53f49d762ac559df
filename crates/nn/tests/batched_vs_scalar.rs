//! Kernel parity properties for the mini-batch training step, which
//! computes in `f32`: the tiled GEMM forward and backward
//! (`Mlp::forward_batch` / `Mlp::backward_batch`) and `train` must equal
//! the scalar `f32` per-example path — `fused::forward_per_example`,
//! `mlp::batch_gradient_per_example` (per-example `f32` gradients
//! summed in batch order, widened once), and the one-example-at-a-time
//! training loop kept below as the oracle, which steps row-major
//! parameters with the same `f32` Adam where `train` steps its masters
//! in panel order, so the two agreeing pins that order as elementwise
//! faithful — and the `f64`
//! `linalg::matmul` a naive triple loop, all **bit for bit**
//! (`to_bits()`, so `-0.0` vs `0.0` counts).
//!
//! The properties lean on zeros of both signs: in inputs and weights,
//! in output deltas (targets equal to the prediction), in hidden deltas
//! (dead ReLUs, whose mask turns a negative delta into `-0.0`), and in
//! whole all-dead layers. Batch sizes cover one row, the tile height and
//! its neighbours, and ragged final batches; layer widths sit off the
//! tile grid; the last layer is linear or ReLU.
//!
//! CI runs this file twice: once at the workspace's `target-cpu=native`
//! (hardware FMA) and once under `RUSTFLAGS="-C target-cpu=x86-64"`, so
//! the `a * b + c` fallback of `fmadd` is held to the same contract.

use nn::fused::{forward_per_example, MR};
use nn::linalg::{matmul, Matrix};
use nn::mlp::{batch_gradient_per_example, BatchWorkspace, Gradients};
use nn::optimizer::Adam;
use nn::train::{train, TrainConfig, TrainReport};
use nn::{Activation, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The batch sizes every batch property sweeps.
const BATCHES: [usize; 7] = [1, MR - 1, MR, MR + 1, 49, 64, 65];
/// Layer widths, none a multiple of the 16-column panel.
const WIDTHS: [usize; 5] = [1, 4, 17, 30, 60];

/// Every weight and bias of `layers`, row-major, layer by layer, as
/// `f32` — the order the per-example loop steps its parameters in.
fn row_major<'a>(layers: impl Iterator<Item = (&'a [f64], &'a [f64])>) -> Vec<f32> {
    let all = layers.flat_map(|(w, b)| w.iter().chain(b));
    all.map(|&v| v as f32).collect()
}

/// The one-example-at-a-time training loop, the reference `train` is
/// held to: the same `StdRng` shuffle, `f32` gradients accumulated
/// example by example in batch order, the same `f32` `Adam::step` over
/// the row-major parameters (written back into `mlp` after every step),
/// the same stopping rule.
fn train_per_example(mlp: &mut Mlp, xs: &[Vec<f64>], ys: &[f64], cfg: &TrainConfig) -> TrainReport {
    let start = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..xs.len()).collect();
    let layers = |m: &Mlp| {
        let l = m.layers().iter();
        row_major(l.map(|l| (l.weights.as_slice(), &l.biases[..])))
    };
    let mut params = layers(mlp);
    let mut adam = Adam::new(cfg.lr, params.len());
    let mut grads = Gradients::zeros_like(mlp);
    let mut curve = Vec::with_capacity(cfg.epochs);
    let mut best = f64::INFINITY;
    let mut stale = 0usize;
    for _ in 0..cfg.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let rows = chunk.iter().flat_map(|&i| xs[i].iter().copied()).collect();
            let x = Matrix::from_vec(chunk.len(), mlp.input_dim(), rows);
            let y = Matrix::from_vec(chunk.len(), 1, chunk.iter().map(|&i| ys[i]).collect());
            let batch_loss = batch_gradient_per_example::<f32>(mlp, &x, &y, &mut grads);
            let g = row_major(grads.layers.iter().map(|(w, b)| (w.as_slice(), &b[..])));
            adam.step(&mut params, &g, (1.0 / chunk.len() as f64) as f32);
            let dst = mlp.layers_mut().iter_mut();
            let dst = dst.flat_map(|l| l.weights.as_mut_slice().iter_mut().chain(&mut l.biases));
            for (d, p) in dst.zip(&params) {
                *d = f64::from(*p);
            }
            epoch_loss += batch_loss;
        }
        epoch_loss /= xs.len() as f64;
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
    TrainReport {
        epochs_run: curve.len(),
        final_loss: *curve.last().expect("at least one epoch"),
        loss_curve: curve,
        elapsed: start.elapsed(),
    }
}

/// `a * b + c` as the crate's kernels round it, at `f64`.
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The same at `f32`.
fn fmadd32(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Values a test draws inputs, weights, biases and targets from: mostly
/// ordinary magnitudes, with exact zeros of both signs mixed in.
fn cells(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, -2.0f64..2.0), len).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(gate, v)| match gate {
                g if g < 0.15 => 0.0,
                g if g < 0.3 => -0.0,
                _ => v,
            })
            .collect()
    })
}

/// A `rows x cols` matrix cut from the pool at `offset` (wrapping).
fn mk(rows: usize, cols: usize, pool: &[f64], offset: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| pool[(offset + i) % pool.len()])
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// He-initialised model with its weights sign-flipped/zeroed and its
/// biases overwritten from the pool (a fresh `Mlp` has all-zero biases),
/// and the given activation on the last layer.
fn model(sizes: &[usize], seed: u64, pool: &[f64], last: Activation) -> Mlp {
    let mut mlp = Mlp::new(sizes, seed);
    let mut at = 0;
    let mut next = || {
        at += 1;
        pool[at % pool.len()]
    };
    for layer in mlp.layers_mut() {
        for w in layer.weights.as_mut_slice() {
            *w *= next();
        }
        for b in &mut layer.biases {
            *b = next();
        }
    }
    mlp.layers_mut().last_mut().expect("layers").activation = last;
    mlp
}

/// Naive triple loop, one `fmadd` chain per entry over ascending `k`.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc = fmadd(a.get(i, k), b.get(k, j), acc);
            }
            c.set(i, j, acc);
        }
    }
    c
}

/// The naive triple loop in `f32`: every entry of `a` and `b` rounded
/// `as f32`, one `f32` `fmadd` chain per output entry, widened back.
fn naive_matmul_f32(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc = fmadd32(a.get(i, k) as f32, b.get(k, j) as f32, acc);
            }
            c.set(i, j, f64::from(acc));
        }
    }
    c
}

/// `mlp`'s served output for each row of `x` — the `f32` oracle on the
/// row cast `as f32` — widened, row after row.
fn oracle_forward(mlp: &Mlp, x: &Matrix) -> Vec<f64> {
    (0..x.rows())
        .flat_map(|e| {
            let row: Vec<f32> = x.row(e).iter().map(|&v| v as f32).collect();
            forward_per_example(mlp, &row)
        })
        .map(f64::from)
        .collect()
}

fn transpose(m: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            t.set(c, r, m.get(r, c));
        }
    }
    t
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}, entry {i}: {g:e} vs {w:e}"
        );
    }
}

/// One dense layer with the given weights, zero biases, no activation.
fn linear(weights: Matrix) -> Mlp {
    let mut mlp = Mlp::new(&[weights.cols(), weights.rows()], 0);
    mlp.layers_mut()[0].weights = weights;
    mlp
}

/// One `forward_batch` + `backward_batch` against the summed
/// per-example `f32` oracle: outputs, loss and every gradient, bit for
/// bit. Rows whose pool gate says so get their own prediction as the
/// target, so their output delta is an exact zero.
fn assert_step_parity(mlp: &Mlp, ws: &mut BatchWorkspace, bsz: usize, pool: &[f64], offset: usize) {
    let (d, o) = (mlp.input_dim(), mlp.output_dim());
    let x = mk(bsz, d, pool, offset);
    let mut y = mk(bsz, o, pool, offset + 101);
    let served = oracle_forward(mlp, &x);
    for e in (0..bsz).filter(|e| pool[(offset + e) % pool.len()] == 0.0) {
        y.row_mut(e).copy_from_slice(&served[e * o..(e + 1) * o]);
    }

    let mut want = Gradients::zeros_like(mlp);
    let want_loss = batch_gradient_per_example::<f32>(mlp, &x, &y, &mut want);

    let mut got = Gradients::zeros_like(mlp);
    for (w, b) in &mut got.layers {
        w.as_mut_slice().fill(f64::NAN);
        b.fill(f64::NAN);
    }
    let out = mlp.forward_batch(ws, &x).clone();
    assert_same_bits(out.as_slice(), &served, &format!("batch {bsz}, outputs"));
    let loss = mlp.backward_batch(ws, &y, &mut got);
    assert_eq!(
        loss.to_bits(),
        want_loss.to_bits(),
        "batch {bsz}: loss {loss:e} vs {want_loss:e}"
    );
    for (li, ((dw, db), (rw, rb))) in got.layers.iter().zip(&want.layers).enumerate() {
        assert_same_bits(
            dw.as_slice(),
            rw.as_slice(),
            &format!("batch {bsz}, layer {li} dW"),
        );
        assert_same_bits(db, rb, &format!("batch {bsz}, layer {li} db"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `matmul` is the naive `fmadd` triple loop on random shapes —
    /// empty contractions and single columns included — and overwrites
    /// whatever the output held.
    #[test]
    fn matmul_matches_naive(
        m in 1usize..20,
        k in 0usize..40,
        n in 1usize..36,
        pool in cells(257),
    ) {
        let a = mk(m, k, &pool, 0);
        let b = mk(k, n, &pool, 97);
        let mut c = Matrix::from_vec(m, n, vec![f64::NAN; m * n]);
        matmul(&mut c, &a, &b);
        assert_same_bits(c.as_slice(), naive_matmul(&a, &b).as_slice(), "matmul");
    }

    /// The kernel's two transposed operand shapes, reached through the
    /// public `f32` step: `Aᵀ·B` is the weight gradient of a zero linear
    /// layer with input `B` and targets `-A/2` (so the deltas are `A`),
    /// and `A·Bᵀ` is the forward pass of a linear layer with weights `B`.
    /// A `-0.0` in `A` arrives as a `+0.0` delta (`2 · (0 − 0)`); a chain
    /// from `+0.0` reads the two alike.
    #[test]
    fn transpose_kernels_match_naive(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..36,
        pool in cells(257),
    ) {
        let a = mk(m, k, &pool, 11);
        let b = mk(m, n, &pool, 59);
        let zero = linear(Matrix::zeros(k, n));
        let mut y = a.clone();
        for v in y.as_mut_slice() {
            *v *= -0.5;
        }
        let mut ws = BatchWorkspace::default();
        let mut grads = Gradients::zeros_like(&zero);
        zero.forward_batch(&mut ws, &b);
        zero.backward_batch(&mut ws, &y, &mut grads);
        let want = naive_matmul_f32(&transpose(&a), &b);
        assert_same_bits(grads.layers[0].0.as_slice(), want.as_slice(), "Aᵀ·B");

        let b2 = mk(n, k, &pool, 131);
        let out = linear(b2.clone()).forward_batch(&mut ws, &a).clone();
        // The layer adds its (zero) bias after the contraction.
        let want: Vec<f64> = naive_matmul_f32(&a, &transpose(&b2))
            .as_slice()
            .iter()
            .map(|&v| f64::from(v as f32 + 0.0))
            .collect();
        assert_same_bits(out.as_slice(), &want, "A·Bᵀ");
    }

    /// Batched forward is the `f32` oracle on random architectures,
    /// through one workspace reused across batch sizes.
    #[test]
    fn forward_batch_matches_per_example(
        d in 1usize..7,
        h1 in 0usize..WIDTHS.len(),
        h2 in 0usize..WIDTHS.len(),
        out in 1usize..4,
        seed in 0u64..1000,
        pool in cells(509),
    ) {
        let mlp = model(&[d, WIDTHS[h1], WIDTHS[h2], out], seed, &pool, Activation::Identity);
        let mut ws = BatchWorkspace::default();
        for (i, bsz) in BATCHES.into_iter().enumerate() {
            let x = mk(bsz, d, &pool, 31 * i);
            let got = mlp.forward_batch(&mut ws, &x);
            assert_same_bits(got.as_slice(), &oracle_forward(&mlp, &x), &format!("batch {bsz}"));
        }
    }

    /// One forward + backward equals the summed per-example `f32`
    /// gradients and loss: every batch size, widths off the tile grid,
    /// linear and ReLU last layers, one workspace throughout.
    #[test]
    fn backward_batch_matches_per_example(
        d in 1usize..6,
        h1 in 0usize..WIDTHS.len(),
        h2 in 0usize..WIDTHS.len(),
        out in 1usize..3,
        relu_last in 0usize..2,
        seed in 0u64..1000,
        pool in cells(509),
    ) {
        let last = [Activation::Identity, Activation::Relu][relu_last];
        let mlp = model(&[d, WIDTHS[h1], WIDTHS[h2], out], seed, &pool, last);
        let mut ws = BatchWorkspace::default();
        for (i, bsz) in BATCHES.into_iter().enumerate() {
            assert_step_parity(&mlp, &mut ws, bsz, &pool, 37 * i);
        }
    }

    /// A hidden layer whose ReLUs are all dead: its activations and
    /// every delta below it are exact zeros (of either sign), and the
    /// gradients above it see an all-zero input.
    #[test]
    fn all_dead_relu_layers(
        d in 1usize..5,
        h in 0usize..WIDTHS.len(),
        dead in 0usize..2,
        seed in 0u64..1000,
        pool in cells(251),
    ) {
        let mut mlp = model(&[d, WIDTHS[h], 17, 1], seed, &pool, Activation::Identity);
        mlp.layers_mut()[dead].biases.fill(-1e9);
        let mut ws = BatchWorkspace::default();
        for bsz in BATCHES {
            assert_step_parity(&mlp, &mut ws, bsz, &pool, bsz);
        }
    }

    /// Full training runs agree between `train` and the per-example
    /// loop: same epochs, same loss curve, same weights — early stopping
    /// and ragged final batches included.
    #[test]
    fn training_paths_agree(
        n in 4usize..80,
        batch in 0usize..BATCHES.len(),
        h in 0usize..WIDTHS.len(),
        patience in 0usize..3,
        seed in 0u64..500,
    ) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![(i as f64 * 0.7) % 1.0, (i as f64 * 0.37) % 1.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1]).collect();
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: BATCHES[batch],
            patience,
            seed,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[2, WIDTHS[h], 6, 1], seed ^ 1);
        let mut b = a.clone();
        let ra = train(&mut a, &xs, &ys, &cfg);
        let rb = train_per_example(&mut b, &xs, &ys, &cfg);
        prop_assert_eq!(ra.epochs_run, rb.epochs_run);
        assert_same_bits(&ra.loss_curve, &rb.loss_curve, "loss curve");
        for (li, (la, lb)) in a.layers().iter().zip(b.layers()).enumerate() {
            assert_same_bits(la.weights.as_slice(), lb.weights.as_slice(), &format!("layer {li} weights"));
            assert_same_bits(&la.biases, &lb.biases, &format!("layer {li} biases"));
        }
    }
}

/// The shapes the issue names for `matmul`: an empty contraction (the
/// product is all zeros), a single output column, a long skinny
/// contraction, and the paper's layer at batch 64.
#[test]
fn matmul_edge_shapes() {
    let pool: Vec<f64> = (0..997)
        .map(|i| match i % 11 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 37 % 101) as f64) / 101.0 - 0.4,
        })
        .collect();
    for (m, k, n) in [
        (3, 0, 5),
        (49, 17, 1),
        (5, 200, 3),
        (64, 60, 30),
        (65, 1, 33),
    ] {
        let a = mk(m, k, &pool, m);
        let b = mk(k, n, &pool, n);
        let mut c = Matrix::from_vec(m, n, vec![999.0; m * n]);
        matmul(&mut c, &a, &b);
        assert_same_bits(
            c.as_slice(),
            naive_matmul(&a, &b).as_slice(),
            &format!("matmul {m}x{k}x{n}"),
        );
    }
}

/// The paper's architecture at the default batch size, with signed
/// zeros in the inputs and exact-zero output deltas, against the `f32`
/// per-example step.
#[test]
fn paper_shape_step() {
    let pool: Vec<f64> = (0..1009)
        .map(|i| match i % 13 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 53 % 211) as f64) / 211.0 - 0.45,
        })
        .collect();
    let mlp = model(&[4, 60, 30, 30, 1], 0, &pool, Activation::Identity);
    let mut ws = BatchWorkspace::default();
    for bsz in [64, 49, 1, 64] {
        assert_step_parity(&mlp, &mut ws, bsz, &pool, bsz);
    }
}
