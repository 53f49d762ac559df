//! The multi-layer perceptron used throughout NeuroSketch.
//!
//! Architecture follows Sec. 4.2 of the paper: an input layer of
//! dimensionality `d`, a first hidden layer of `l_first` units, further
//! hidden layers of `l_rest` units, and a single linear output unit; ReLU
//! everywhere except the output.

use crate::activation::Activation;
use crate::binary::{self, QuantMode};
use crate::fused::ServingLayout;
use crate::gemm::{gemm, padded, transpose_panels, unpad, Panels, TileStore, NR};
use crate::init::Init;
use crate::linalg::{Elem, Matrix};
use crate::NnError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One dense (fully connected) layer: `act(W x + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `out_dim x in_dim`.
    pub weights: Matrix,
    /// Bias vector, length `out_dim`.
    pub biases: Vec<f64>,
    /// Activation applied after the affine transform.
    pub activation: Activation,
}

impl Dense {
    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }
}

/// A feed-forward network with ReLU hidden layers and a linear output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

/// Reusable scratch for the batched training hot path: the input cast
/// to `f32`, every layer's activations, the delta ping-pong buffers and
/// the `W` panels of the layer whose `dX` is being computed.
///
/// Buffers grow on first use and are then reused across mini-batches,
/// epochs, models and batch sizes, so steady-state training performs
/// **zero per-example allocation**. Construct once per worker thread and
/// pass to [`Mlp::forward_batch`] / [`Mlp::backward_batch`]. The
/// workspace remembers the shape of the forward pass it holds, and a
/// backward pass against any other shape is refused.
///
/// Everything the kernel touches is `f32` and kept at a row stride
/// padded to whole `NR`-column panels (see [`crate::gemm`]); only
/// [`BatchWorkspace::output`] is a plain `batch x output_dim` `f64`
/// [`Matrix`] (the `f32` outputs, widened).
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    /// `acts[l]` holds layer `l`'s activations, `rows x padded(out_dim(l))`.
    acts: Vec<Vec<f32>>,
    /// The real columns of the last layer's activations.
    out: Matrix,
    /// One layer's `W` panels, transposed from the `Wᵀ` panels the
    /// model is held in.
    panels: Vec<f32>,
    /// Delta ping-pong buffers, at padded stride.
    delta: Vec<f32>,
    delta_prev: Vec<f32>,
    /// The input batch cast to `f32` at padded stride: written once by
    /// the forward pass, read by it and by the backward pass.
    x_pad: Vec<f32>,
    /// What the last forward pass ran on: batch rows, then the input
    /// width followed by every layer's output width.
    rows: usize,
    widths: Vec<usize>,
}

impl BatchWorkspace {
    /// Activations of the final layer from the last
    /// [`Mlp::forward_batch`] call (`batch x output_dim`).
    pub fn output(&self) -> &Matrix {
        &self.out
    }

    /// The forward pass of `model` over `rows`: each row cast `as f32`
    /// straight into the padded input — the one gather and the one cast
    /// of a training step — then every layer through
    /// [`FusedLayer::apply`](crate::fused), the serving forward's own
    /// call, its activations kept for [`Self::backward`]. The caller
    /// checks every row is `input_dim` wide.
    pub(crate) fn forward<'a>(
        &mut self,
        model: &ServingLayout,
        rows: impl ExactSizeIterator<Item = &'a [f64]>,
    ) {
        let (m, sx) = (rows.len(), padded(model.layers()[0].in_dim));
        self.x_pad.clear();
        self.x_pad.resize(m * sx, 0.0);
        for (dst, src) in self.x_pad.chunks_exact_mut(sx).zip(rows) {
            for (v, s) in dst.iter_mut().zip(src) {
                *v = *s as f32;
            }
        }
        self.rows = m;
        self.widths.clear();
        self.widths.extend(model.widths());
        self.acts.resize_with(model.layers().len(), Vec::new);
        for (li, layer) in model.layers().iter().enumerate() {
            let (done, rest) = self.acts.split_at_mut(li);
            let a = match done.last() {
                Some(prev) => (&prev[..], padded(layer.in_dim)),
                None => (&self.x_pad[..], sx),
            };
            rest[0].resize(m * layer.n_pad, 0.0);
            layer.apply(model.params(), m, a, &mut rest[0]);
        }
    }

    /// The backward pass for the MSE loss `Σ_e Σ_o (f(x_e)_o − y_eo)²`
    /// after [`Self::forward`] of `model`: overwrites `grad` — laid out
    /// like `model.params()` — with the batch's **summed** gradients and
    /// returns the summed loss; `y` is `rows x output_dim`, row-major.
    ///
    /// The loss and the output delta `2 (a − y) · act'(a)` are taken in
    /// `f64` from the widened outputs and the `f64` targets; the delta
    /// is rounded to `f32` once. Per layer, two calls of the tiled GEMM
    /// ([`crate::gemm`]): `dWᵀ = inputᵀ · δ` (columns of the stored
    /// input against `δ`, contraction over the batch), stored straight
    /// into the layer's panels of `grad`, and the delta propagation
    /// `δ · W` against `W` transposed from `model`'s panels, whose tile
    /// store applies the ReLU mask and sums the next bias gradient into
    /// `grad`. Padding entries of `grad` come out `+0.0`.
    pub(crate) fn backward(&mut self, model: &ServingLayout, y: &[f64], grad: &mut [f32]) -> f64 {
        assert!(
            model.widths().eq(self.widths.iter().copied()),
            "workspace holds a forward pass of widths {:?}, not this model's: run forward_batch first",
            self.widths
        );
        let (m, layers) = (self.rows, model.layers());
        let last = layers.last().expect("an Mlp has layers");
        assert_eq!(y.len(), m * last.out_dim, "workspace batch size mismatch");
        assert_eq!(
            grad.len(),
            model.params().len(),
            "gradient not laid out like the model"
        );

        // Output delta dL/dz = 2 (a − y) · act'(z), the summed loss and
        // the last layer's bias gradient, in one sweep over the output.
        let (out_dim, mut sd) = (last.out_dim, last.n_pad);
        self.delta.clear();
        self.delta.resize(m * sd, 0.0);
        let db = &mut grad[last.span()][last.in_dim * sd..];
        db.fill(0.0);
        let mut loss = 0.0;
        let acts = self.acts.last().expect("an Mlp has layers");
        for (e, yrow) in y.chunks_exact(out_dim).enumerate() {
            let orow = acts[e * sd..e * sd + out_dim].iter().map(|&a| f64::from(a));
            loss += orow
                .clone()
                .zip(yrow)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>();
            let drow = &mut self.delta[e * sd..e * sd + out_dim];
            for (((d, a), t), db) in drow.iter_mut().zip(orow).zip(yrow).zip(db.iter_mut()) {
                *d = (2.0 * (a - t) * last.activation.derivative_from_output(a)) as f32;
                *db += *d;
            }
        }
        for (li, layer) in layers.iter().enumerate().rev() {
            let (k, s_in) = (layer.in_dim, padded(layer.in_dim));
            let input = match li {
                0 => &self.x_pad,
                _ => &self.acts[li - 1],
            };
            // dWᵀ = inputᵀ · δ: columns of the input against δ's rows.
            gemm(
                (k, m, sd / NR),
                input,
                (1, s_in),
                &self.delta,
                (NR, sd),
                &mut Panels(&mut grad[layer.span()], k),
            );
            if li > 0 {
                // δ_prev = (δ · W) .* act'(a_prev), and db_prev with it.
                let below = &layers[li - 1];
                transpose_panels(
                    &mut self.panels,
                    layer.split(model.params()).0,
                    k,
                    layer.out_dim,
                );
                self.delta_prev.resize(m * s_in, 0.0);
                let db = &mut grad[below.span()][below.in_dim * s_in..];
                db.fill(0.0);
                gemm(
                    (m, layer.out_dim, s_in / NR),
                    &self.delta,
                    (sd, 1),
                    &self.panels,
                    (layer.out_dim * NR, NR),
                    &mut MaskSum {
                        delta_prev: &mut self.delta_prev,
                        a_prev: input,
                        stride: s_in,
                        activation: below.activation,
                        db,
                    },
                );
                std::mem::swap(&mut self.delta, &mut self.delta_prev);
                sd = s_in;
            }
        }
        loss
    }
}

/// The `dX` epilogue: `δ_prev = acc · act'(a_prev)` fused into the tile
/// store, with the bias gradient `db_prev` (column sums of `δ_prev`,
/// rows ascending as the tiles arrive) accumulated on the way.
/// `delta_prev` and `a_prev` share the padded row stride `stride`, and
/// `db` is as wide.
struct MaskSum<'a> {
    delta_prev: &'a mut [f32],
    a_prev: &'a [f32],
    stride: usize,
    activation: Activation,
    db: &'a mut [f32],
}

impl TileStore<f32> for MaskSum<'_> {
    #[inline(always)]
    fn row(&mut self, r: usize, p: usize, acc: &[f32; NR]) {
        let at = r * self.stride + p * NR;
        let a = &self.a_prev[at..at + NR];
        // Into a local first, so the loops vectorise (see `BiasAct`).
        // A multiply by the derivative, as the per-example step does,
        // not a branch to zero: a non-finite delta stays NaN at a dead
        // unit instead of vanishing.
        let mut v = *acc;
        for (vj, aj) in v.iter_mut().zip(a) {
            *vj *= self.activation.derivative_from_output(f64::from(*aj)) as f32;
        }
        self.delta_prev[at..at + NR].copy_from_slice(&v);
        // Through a copy as well: six straight-line `db[j] += ..` on the
        // same memory read as a reduction across the tile's rows, and
        // the vectoriser then lays the whole tile out across rows.
        let db = &mut self.db[p * NR..(p + 1) * NR];
        let mut s = v;
        for (sj, dj) in s.iter_mut().zip(db.iter()) {
            *sj += dj;
        }
        db.copy_from_slice(&s);
    }
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[4, 60, 30, 30, 1]`,
    /// He-initialized with the given seed.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given (use
    /// [`Mlp::try_new`] for a fallible version).
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        Self::try_new(sizes, seed).expect("invalid MLP architecture")
    }

    /// Fallible constructor: requires at least an input and an output size,
    /// all sizes nonzero.
    pub fn try_new(sizes: &[usize], seed: u64) -> Result<Self, NnError> {
        Self::with_init(sizes, Init::HeNormal, seed)
    }

    /// Construct with an explicit weight-initialization scheme.
    pub fn with_init(sizes: &[usize], init: Init, seed: u64) -> Result<Self, NnError> {
        if sizes.len() < 2 {
            return Err(NnError::BadArchitecture(format!(
                "need at least input and output sizes, got {sizes:?}"
            )));
        }
        if sizes.contains(&0) {
            return Err(NnError::BadArchitecture(format!(
                "zero-width layer in {sizes:?}"
            )));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let mut m = Matrix::zeros(fan_out, fan_in);
            for v in m.as_mut_slice() {
                *v = init.sample(&mut rng, fan_in, fan_out);
            }
            let is_last = layers.len() == sizes.len() - 2;
            layers.push(Dense {
                weights: m,
                biases: vec![0.0; fan_out],
                activation: if is_last {
                    Activation::Identity
                } else {
                    Activation::Relu
                },
            });
        }
        Ok(Mlp { layers })
    }

    /// Build directly from explicit layers (used by the memorization
    /// construction).
    pub fn from_layers(layers: Vec<Dense>) -> Result<Self, NnError> {
        if layers.is_empty() {
            return Err(NnError::BadArchitecture("no layers".into()));
        }
        for w in layers.windows(2) {
            if w[0].out_dim() != w[1].in_dim() {
                return Err(NnError::BadArchitecture(format!(
                    "layer output {} does not match next input {}",
                    w[0].out_dim(),
                    w[1].in_dim()
                )));
            }
        }
        Ok(Mlp { layers })
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality (1 for all NeuroSketch models).
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("nonempty").out_dim()
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer access.
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Total number of trainable parameters (weights + biases).
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.len() + l.biases.len())
            .sum()
    }

    /// Storage footprint in bytes, counting each parameter as an `f32`
    /// (4 bytes), matching the paper's model-size accounting.
    pub fn storage_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Scalar prediction of a single-output network: the `f64`
    /// instantiation of the per-example forward
    /// ([`crate::fused::forward_per_example`]), as the baselines and the
    /// non-sketch models of `repro` evaluate it. A served sketch does
    /// not answer through it (see [`crate::fused`]).
    ///
    /// # Panics
    /// Panics if `x` is not `input_dim()` wide.
    pub fn predict(&self, x: &[f64]) -> f64 {
        crate::fused::forward_per_example(self, x)[0]
    }

    /// Batched forward pass: compute activations for a whole
    /// `batch x input_dim` matrix (one example per row), reusing `ws`.
    ///
    /// Computes in `f32`, the precision the model is stored and served
    /// in: the model is packed into its [`ServingLayout`] (every
    /// parameter rounded `as f32`), `x` is cast `as f32` once into `ws`
    /// (the backward pass reads the same cast), and each layer is one
    /// tiled GEMM ([`crate::gemm`]) of the previous activations against
    /// the layer's `Wᵀ` panels, with `+ bias` and the activation fused
    /// into the tile store — the forward [`crate::train::train_rows`]
    /// runs on its `f32` master weights. All per-layer activations are
    /// retained in `ws` for [`Mlp::backward_batch`]; the returned
    /// reference is the final layer's output (`batch x output_dim`),
    /// widened to `f64`.
    ///
    /// Each row is bitwise [`crate::fused::forward_per_example`] of the
    /// row cast `as f32` — and therefore bitwise what
    /// [`ServingLayout::forward_into`] serves for it, including at the
    /// cast's edge (a finite coordinate beyond `f32` range arrives as
    /// `±inf`). It is not the `f64` instantiation ([`Mlp::predict`]).
    ///
    /// # Panics
    /// Panics if `x.cols()` does not match the network's input
    /// dimensionality.
    pub fn forward_batch<'w>(&self, ws: &'w mut BatchWorkspace, x: &Matrix) -> &'w Matrix {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "input dim {} does not match network {}",
            x.cols(),
            self.input_dim()
        );
        ws.forward(&self.serving_layout(), x.as_slice().chunks_exact(x.cols()));
        let n = self.output_dim();
        ws.out.resize(x.rows(), n);
        let last = ws.acts.last().expect("an Mlp has layers");
        unpad(ws.out.as_mut_slice(), n, last, padded(n));
        &ws.out
    }

    /// Build the serving copy of this model's parameters — the
    /// self-contained, panel-packed `f32` form the fused serving kernel
    /// reads (see [`crate::fused`]). Rebuild it whenever the model
    /// changes.
    pub fn serving_layout(&self) -> ServingLayout {
        ServingLayout::new(self)
    }

    /// Batched backward pass for the MSE loss `Σ_e Σ_o (f(x_e)_o − y_eo)²`.
    ///
    /// Requires that [`Mlp::forward_batch`] was just called on `ws`: the
    /// input it cast to `f32`, kept in `ws`, is what this reads.
    /// Overwrites `grads` with the **summed** (not averaged) gradients
    /// of the batch and returns the summed batch loss.
    ///
    /// Computes in `f32`, as the training step does: the backward pass
    /// of [`crate::train::train_rows`] run on this model's
    /// [`ServingLayout`], its gradient (laid out like the layout) then
    /// unpacked into `grads`, each `f32` sum widened to `f64` once. The
    /// result is bitwise [`batch_gradient_per_example`] at `f32`; how
    /// far it is from the same function at `f64` is bounded by
    /// `tests/training_accuracy.rs`.
    ///
    /// # Panics
    /// Panics if `y` is not `output_dim` wide, or if `ws` does not hold
    /// a forward pass of this model's shape over `y.rows()` rows.
    pub fn backward_batch(
        &self,
        ws: &mut BatchWorkspace,
        y: &Matrix,
        grads: &mut Gradients,
    ) -> f64 {
        let m = y.rows();
        let out_dim = self.output_dim();
        assert_eq!(
            y.cols(),
            out_dim,
            "target shape {}x{} does not match batch {m}x{out_dim}",
            y.rows(),
            y.cols()
        );
        assert!(
            grads.layers.len() == self.layers.len()
                && grads.layers.iter().zip(&self.layers).all(|((dw, db), l)| (
                    dw.rows(),
                    dw.cols(),
                    db.len()
                ) == (
                    l.out_dim(),
                    l.in_dim(),
                    l.out_dim()
                )),
            "gradient buffers are not shaped like this model"
        );
        let model = self.serving_layout();
        let mut grad = vec![0.0; model.params().len()];
        let loss = ws.backward(&model, y.as_slice(), &mut grad);
        let into = grads
            .layers
            .iter_mut()
            .map(|(w, b)| (w.as_mut_slice(), &mut b[..]));
        model.unpack(&grad, into);
        loss
    }

    /// The model with every parameter rounded through the given storage
    /// encoding: `binary::decode_any(binary::encode_with(&m, mode))`,
    /// so "quantized" is "saved and loaded" by construction.
    ///
    /// Serving precision is storage precision: [`Mlp::serving_layout`]
    /// rounds every parameter to `f32` as it packs, so a model and its
    /// `quantized_to(QuantMode::F32)` serve the same bits, and a model
    /// `train` returns is its own `F32` image. What `F32` does change is
    /// the `f64` paths ([`Mlp::predict`], further training), which read
    /// the parameters at full width. The narrower encodings move served
    /// answers, each exactly once: a mode is idempotent and every value
    /// it produces is `f32`-representable, so load → re-encode
    /// reproduces the artifact bytes and answers are bitwise
    /// reproducible across loads for every mode.
    ///
    /// # Panics
    /// Panics, naming the mode, if no artifact of that mode can hold the
    /// model: a NaN parameter at `F16`, or an infinite one at `I8`.
    pub fn quantized_to(&self, mode: QuantMode) -> Mlp {
        match binary::decode_any(binary::encode_with(self, mode)) {
            Ok((m, _)) => m,
            Err(e) => panic!("{} storage cannot hold this model: {e}", mode.name()),
        }
    }
}

/// Gradients mirroring an [`Mlp`]'s layer structure.
#[derive(Debug, Clone)]
pub struct Gradients {
    /// One `(dW, db)` pair per layer.
    pub layers: Vec<(Matrix, Vec<f64>)>,
}

impl Gradients {
    /// Zero gradients shaped like `mlp`.
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Gradients {
            layers: mlp
                .layers()
                .iter()
                .map(|l| {
                    (
                        Matrix::zeros(l.out_dim(), l.in_dim()),
                        vec![0.0; l.out_dim()],
                    )
                })
                .collect(),
        }
    }
}

/// The per-example gradient: overwrite `grads` (shaped like `mlp`) with
/// the summed MSE gradients of the rows of `x` against `y`, one example
/// at a time in scalar `T`, and return the summed loss.
///
/// Per example, in batch order: the row rounded to `T` and run forward
/// by [`crate::fused::activations_per_example`]; the loss and the output
/// delta `2 (a − y) · act'(a)` in `f64` from the widened output, the
/// delta rounded to `T`; then per layer, top down, `dW += δ xᵀ` and
/// `db += δ` in `T` and `δ ← (Wᵀ δ) · act'(x)`, one `fmadd` chain from
/// `+0.0` over ascending output index. The `T` sums are widened into
/// `grads` once, after the last example.
///
/// At `f32` it is the training step's oracle: parity suites hold
/// [`Mlp::backward_batch`] to it with `to_bits()`, and nothing trains
/// through it. At `f64` it is the `f64` gradient
/// `tests/training_accuracy.rs` bounds the `f32` step against.
pub fn batch_gradient_per_example<T: Elem>(
    mlp: &Mlp,
    x: &Matrix,
    y: &Matrix,
    grads: &mut Gradients,
) -> f64 {
    let mut sums: Vec<(Vec<T>, Vec<T>)> = mlp
        .layers
        .iter()
        .map(|l| {
            let zeros = |n| vec![T::default(); n];
            (zeros(l.weights.len()), zeros(l.out_dim()))
        })
        .collect();
    let last = mlp.layers.len() - 1;
    let (mut loss, mut row, mut acts) = (0.0, Vec::new(), Vec::new());
    for e in 0..x.rows() {
        row.clear();
        row.extend(x.row(e).iter().map(|&v| T::from_f64(v)));
        crate::fused::activations_per_example(mlp, &mut acts, &row);
        let out = acts[last + 1].iter().map(|&a| a.to_f64());
        loss += out
            .clone()
            .zip(y.row(e))
            .map(|(a, t)| (a - t) * (a - t))
            .sum::<f64>();
        let act = mlp.layers[last].activation;
        let mut delta: Vec<T> = out
            .zip(y.row(e))
            .map(|(a, t)| T::from_f64(2.0 * (a - t) * act.derivative_from_output(a)))
            .collect();
        for (li, layer) in mlp.layers.iter().enumerate().rev() {
            let (dw, db) = &mut sums[li];
            for ((dw_row, db_o), d) in dw.chunks_exact_mut(layer.in_dim()).zip(db).zip(&delta) {
                for (w, xi) in dw_row.iter_mut().zip(&acts[li]) {
                    *w = d.fmadd(*xi, *w);
                }
                *db_o = *db_o + *d;
            }
            if li > 0 {
                let act = mlp.layers[li - 1].activation;
                delta = (0..layer.in_dim())
                    .map(|i| {
                        let mut acc = T::default();
                        for (o, d) in delta.iter().enumerate() {
                            acc = T::from_f64(layer.weights.get(o, i)).fmadd(*d, acc);
                        }
                        acc * T::from_f64(act.derivative_from_output(acts[li][i].to_f64()))
                    })
                    .collect();
            }
        }
    }
    for ((dw, db), (sw, sb)) in grads.layers.iter_mut().zip(&sums) {
        let dst = dw.as_mut_slice().iter_mut().chain(db);
        for (g, s) in dst.zip(sw.iter().chain(sb)) {
            *g = s.to_f64();
        }
    }
    loss
}

/// The row-major `f32` view the per-example reference loops step with
/// [`crate::optimizer::Adam`]: every weight then every bias, layer by
/// layer.
#[cfg(test)]
impl Mlp {
    pub(crate) fn row_major_f32(&self) -> Vec<f32> {
        let all = self
            .layers
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.biases));
        all.map(|&v| v as f32).collect()
    }

    pub(crate) fn set_row_major(&mut self, params: &[f32]) {
        let all = self.layers.iter_mut();
        let all = all.flat_map(|l| l.weights.as_mut_slice().iter_mut().chain(&mut l.biases));
        for (w, p) in all.zip(params) {
            *w = f64::from(*p);
        }
    }
}

#[cfg(test)]
impl Gradients {
    pub(crate) fn row_major_f32(&self) -> Vec<f32> {
        let all = self
            .layers
            .iter()
            .flat_map(|(w, b)| w.as_slice().iter().chain(b));
        all.map(|&v| v as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{activations_per_example, forward_per_example, ServingWorkspace};

    fn tiny() -> Mlp {
        Mlp::new(&[2, 4, 1], 42)
    }

    #[test]
    fn shapes_and_params() {
        let m = tiny();
        assert_eq!(m.input_dim(), 2);
        assert_eq!(m.output_dim(), 1);
        assert_eq!(m.param_count(), 2 * 4 + 4 + 4 + 1);
        assert_eq!(m.storage_bytes(), m.param_count() * 4);
    }

    #[test]
    fn forward_is_deterministic_and_matches_workspace_path() {
        // One caller-held scratch across models of different depths and
        // widths: what a deeper pass left in it must not reach an answer.
        let (m, deep) = (tiny(), Mlp::new(&[2, 9, 7, 3, 1], 5));
        let mut acts: Vec<Vec<f64>> = Vec::new();
        for (mlp, x) in [(&deep, [0.3, 0.7]), (&m, [0.3, 0.7]), (&deep, [0.9, 0.1])] {
            let got = activations_per_example(mlp, &mut acts, &x)[0];
            assert_eq!(got.to_bits(), mlp.predict(&x).to_bits());
            assert_eq!(acts.len(), mlp.layers().len() + 1);
        }
        assert_eq!(m.predict(&[0.3, 0.7]), m.predict(&[0.3, 0.7]));
    }

    #[test]
    fn rejects_degenerate_architectures() {
        assert!(Mlp::try_new(&[3], 0).is_err());
        assert!(Mlp::try_new(&[3, 0, 1], 0).is_err());
        assert!(Mlp::from_layers(vec![]).is_err());
    }

    #[test]
    fn from_layers_checks_dims() {
        let l1 = Dense {
            weights: Matrix::zeros(4, 2),
            biases: vec![0.0; 4],
            activation: Activation::Relu,
        };
        let l2_bad = Dense {
            weights: Matrix::zeros(1, 3),
            biases: vec![0.0],
            activation: Activation::Identity,
        };
        assert!(Mlp::from_layers(vec![l1, l2_bad]).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let m = tiny();
        let s = serde_json::to_string(&m).unwrap();
        let m2: Mlp = serde_json::from_str(&s).unwrap();
        assert_eq!(m, m2);
        assert_eq!(m.predict(&[0.1, 0.9]), m2.predict(&[0.1, 0.9]));
    }

    /// Check backprop gradients against central finite differences.
    #[test]
    fn gradients_match_finite_differences() {
        let mut m = Mlp::new(&[2, 5, 3, 1], 9);
        let x = [0.4, -0.2];
        let y = [1.5];
        let mut grads = Gradients::zeros_like(&m);
        let (xm, ym) = (
            Matrix::from_vec(1, 2, x.to_vec()),
            Matrix::from_vec(1, 1, y.to_vec()),
        );
        batch_gradient_per_example::<f64>(&m, &xm, &ym, &mut grads);

        let eps = 1e-6;
        let loss_of = |m: &Mlp| {
            let o = m.predict(&x);
            (o - y[0]) * (o - y[0])
        };
        for li in 0..m.layers().len() {
            for idx in 0..m.layers()[li].weights.len() {
                let orig = m.layers()[li].weights.as_slice()[idx];
                m.layers_mut()[li].weights.as_mut_slice()[idx] = orig + eps;
                let lp = loss_of(&m);
                m.layers_mut()[li].weights.as_mut_slice()[idx] = orig - eps;
                let lm = loss_of(&m);
                m.layers_mut()[li].weights.as_mut_slice()[idx] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads.layers[li].0.as_slice()[idx];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                    "layer {li} weight {idx}: fd {fd} vs analytic {an}"
                );
            }
            for bi in 0..m.layers()[li].biases.len() {
                let orig = m.layers()[li].biases[bi];
                m.layers_mut()[li].biases[bi] = orig + eps;
                let lp = loss_of(&m);
                m.layers_mut()[li].biases[bi] = orig - eps;
                let lm = loss_of(&m);
                m.layers_mut()[li].biases[bi] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads.layers[li].1[bi];
                assert!(
                    (fd - an).abs() < 1e-4 * (1.0 + fd.abs()),
                    "layer {li} bias {bi}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "input dim")]
    fn forward_panics_on_wrong_dim() {
        let m = tiny();
        let _ = m.predict(&[0.1, 0.2, 0.3]);
    }

    fn batch_inputs(n: usize, d: usize) -> Matrix {
        let mut x = Matrix::zeros(n, d);
        for e in 0..n {
            for i in 0..d {
                x.set(e, i, ((e * d + i) as f64 * 0.7133).sin());
            }
        }
        x
    }

    /// The `f32` oracle's output for row `e` of `x`, widened.
    fn oracle_row(m: &Mlp, x: &Matrix, e: usize) -> Vec<u64> {
        let row: Vec<f32> = x.row(e).iter().map(|&v| v as f32).collect();
        let out = forward_per_example(m, &row);
        out.iter().map(|&v| f64::from(v).to_bits()).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_batch_matches_per_example_bitwise() {
        let m = Mlp::new(&[3, 7, 5, 1], 13);
        let x = batch_inputs(9, 3);
        let mut bws = BatchWorkspace::default();
        let out = m.forward_batch(&mut bws, &x);
        for e in 0..x.rows() {
            assert_eq!(bits(out.row(e)), oracle_row(&m, &x, e), "row {e}");
        }
    }

    #[test]
    fn forward_batch_workspace_reuse_across_batch_sizes() {
        let m = Mlp::new(&[2, 6, 1], 3);
        let mut bws = BatchWorkspace::default();
        // A big batch then a small one: stale buffer contents must not leak.
        let big = batch_inputs(16, 2);
        let _ = m.forward_batch(&mut bws, &big);
        let small = batch_inputs(3, 2);
        let out = m.forward_batch(&mut bws, &small).clone();
        assert_eq!(out.rows(), 3);
        for e in 0..3 {
            assert_eq!(bits(out.row(e)), oracle_row(&m, &small, e), "row {e}");
        }
    }

    #[test]
    fn backward_batch_matches_accumulated_per_example_gradients() {
        let m = Mlp::new(&[3, 8, 4, 1], 21);
        let n = 11;
        let x = batch_inputs(n, 3);
        let mut y = Matrix::zeros(n, 1);
        for e in 0..n {
            y.set(e, 0, (e as f64 * 0.31).cos());
        }

        // Reference: per-example `f32` accumulation in batch order.
        let mut ref_grads = Gradients::zeros_like(&m);
        let ref_loss = batch_gradient_per_example::<f32>(&m, &x, &y, &mut ref_grads);

        let mut bws = BatchWorkspace::default();
        let mut grads = Gradients::zeros_like(&m);
        m.forward_batch(&mut bws, &x);
        let loss = m.backward_batch(&mut bws, &y, &mut grads);

        assert_eq!(loss.to_bits(), ref_loss.to_bits());
        for (li, ((dw, db), (rw, rb))) in grads.layers.iter().zip(&ref_grads.layers).enumerate() {
            assert_eq!(
                bits(dw.as_slice()),
                bits(rw.as_slice()),
                "layer {li} weights"
            );
            assert_eq!(bits(db), bits(rb), "layer {li} biases");
        }
    }

    #[test]
    fn backward_batch_overwrites_stale_gradients() {
        let m = tiny();
        let x = batch_inputs(4, 2);
        let y = Matrix::zeros(4, 1);
        let mut bws = BatchWorkspace::default();
        let mut grads = Gradients::zeros_like(&m);
        // Poison the gradient buffers; backward_batch must overwrite.
        for (w, b) in &mut grads.layers {
            w.as_mut_slice().fill(1234.5);
            b.fill(-9.0);
        }
        m.forward_batch(&mut bws, &x);
        m.backward_batch(&mut bws, &y, &mut grads);
        let mut fresh = Gradients::zeros_like(&m);
        let mut bws2 = BatchWorkspace::default();
        m.forward_batch(&mut bws2, &x);
        m.backward_batch(&mut bws2, &y, &mut fresh);
        for ((dw, db), (fw, fb)) in grads.layers.iter().zip(&fresh.layers) {
            assert_eq!(dw.as_slice(), fw.as_slice());
            assert_eq!(&db[..], &fb[..]);
        }
    }

    #[test]
    #[should_panic(expected = "target shape")]
    fn backward_batch_checks_target_shape() {
        let m = tiny();
        let x = batch_inputs(4, 2);
        let y = Matrix::zeros(4, 2);
        let mut bws = BatchWorkspace::default();
        m.forward_batch(&mut bws, &x);
        let mut grads = Gradients::zeros_like(&m);
        m.backward_batch(&mut bws, &y, &mut grads);
    }

    fn batch_targets(n: usize) -> Matrix {
        Matrix::from_vec(n, 1, (0..n).map(|e| (e as f64 * 0.31).cos()).collect())
    }

    #[test]
    #[should_panic(expected = "workspace holds a forward pass of widths [3, 17, 1]")]
    fn backward_batch_refuses_a_workspace_filled_by_another_model() {
        // 17 and 30 pad to the same 32 columns, so every buffer has the
        // length the second model expects; only the recorded widths
        // tell the two forward passes apart.
        let (a, b) = (Mlp::new(&[3, 17, 1], 1), Mlp::new(&[3, 30, 1], 2));
        let (x, y) = (batch_inputs(8, 3), batch_targets(8));
        let mut bws = BatchWorkspace::default();
        a.forward_batch(&mut bws, &x);
        b.backward_batch(&mut bws, &y, &mut Gradients::zeros_like(&b));
    }

    #[test]
    #[should_panic(expected = "workspace batch size mismatch")]
    fn backward_batch_refuses_a_workspace_filled_by_another_batch() {
        let m = tiny();
        let mut bws = BatchWorkspace::default();
        m.forward_batch(&mut bws, &batch_inputs(8, 2));
        let y = batch_targets(7);
        m.backward_batch(&mut bws, &y, &mut Gradients::zeros_like(&m));
    }

    #[test]
    #[should_panic(expected = "gradient buffers are not shaped like this model")]
    fn backward_batch_refuses_foreign_gradient_buffers() {
        let m = tiny();
        let (x, y) = (batch_inputs(4, 2), batch_targets(4));
        let mut bws = BatchWorkspace::default();
        m.forward_batch(&mut bws, &x);
        let mut grads = Gradients::zeros_like(&Mlp::new(&[2, 5, 1], 0));
        m.backward_batch(&mut bws, &y, &mut grads);
    }

    #[test]
    fn one_batch_workspace_across_models_and_batch_sizes_is_bitwise_invisible() {
        // Two shapes alternating over shrinking and regrowing batches:
        // whatever an earlier pass left in the shared buffers (longer
        // activations, wider panels, other deltas) must not reach any
        // gradient, and an empty batch must come out as zeros.
        let models = [Mlp::new(&[3, 40, 6, 1], 3), Mlp::new(&[2, 6, 1], 4)];
        let mut shared = BatchWorkspace::default();
        for bsz in [64, 49, 1, 0, 64] {
            for m in &models {
                let (x, y) = (batch_inputs(bsz, m.input_dim()), batch_targets(bsz));
                let mut got = Gradients::zeros_like(m);
                for (w, b) in &mut got.layers {
                    w.as_mut_slice().fill(f64::NAN);
                    b.fill(f64::NAN);
                }
                m.forward_batch(&mut shared, &x);
                let loss = m.backward_batch(&mut shared, &y, &mut got);

                let mut fresh = BatchWorkspace::default();
                let mut want = Gradients::zeros_like(m);
                m.forward_batch(&mut fresh, &x);
                let want_loss = m.backward_batch(&mut fresh, &y, &mut want);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "batch {bsz}");
                for ((dw, db), (fw, fb)) in got.layers.iter().zip(&want.layers) {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(dw.as_slice()), bits(fw.as_slice()), "batch {bsz}");
                    assert_eq!(bits(db), bits(fb), "batch {bsz}");
                    assert!(bsz > 0 || dw.as_slice().iter().chain(db).all(|g| *g == 0.0));
                }
            }
        }
    }

    /// `rows` as the serving kernel takes them: flat, cast to `f32`.
    fn serving_rows(x: &Matrix) -> Vec<f32> {
        x.as_slice().iter().map(|&v| v as f32).collect()
    }

    fn assert_layout_is_oracle(m: &Mlp, sws: &mut ServingWorkspace, x: &Matrix) {
        let rows = serving_rows(x);
        let mut got = vec![f32::NAN; x.rows() * m.output_dim()];
        m.serving_layout().forward_into(sws, &rows, &mut got);
        for (e, row) in rows.chunks_exact(m.input_dim()).enumerate() {
            let want = forward_per_example(m, row);
            let got = &got[e * want.len()..(e + 1) * want.len()];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "{} rows, row {e}", x.rows());
        }
    }

    #[test]
    fn layout_forward_matches_the_f32_oracle_bitwise() {
        // Odd widths force padding in every layer; batch sizes cover
        // whole tiles, remainder rows and more than one row block.
        let m = Mlp::new(&[3, 7, 5, 1], 13);
        // The per-leaf footprint docs/serving.md quotes for the paper's
        // shape: 3 616 padded weights + 144 padded biases, 4 bytes each.
        let paper = Mlp::new(&[4, 60, 30, 30, 1], 0).serving_layout();
        assert_eq!(paper.padded_bytes(), 15_040);
        let mut sws = ServingWorkspace::default();
        for bsz in [1, 3, 4, 9, 16, 70] {
            assert_layout_is_oracle(&m, &mut sws, &batch_inputs(bsz, 3));
        }
    }

    #[test]
    fn layout_forward_reuses_workspace_across_models() {
        // One serving workspace shared by models of different shapes and
        // by batches of different sizes: stale tile contents must not
        // leak into any answer.
        let wide = Mlp::new(&[2, 40, 6, 1], 3);
        let narrow = Mlp::new(&[2, 6, 1], 4);
        let mut sws = ServingWorkspace::default();
        for (m, bsz) in [(&wide, 37), (&narrow, 5), (&wide, 2), (&narrow, 33)] {
            assert_layout_is_oracle(m, &mut sws, &batch_inputs(bsz, 2));
        }
    }

    #[test]
    fn serving_precision_is_storage_precision() {
        // The layout's cast is the F32 storage rounding, and the F16 / I8
        // grids are f32-representable: a model and its F32 image serve
        // the same bits, and so does each narrower image and its own F32
        // image.
        let m = Mlp::new(&[3, 9, 4, 1], 17);
        let rows = serving_rows(&batch_inputs(13, 3));
        let serve = |m: &Mlp| {
            let mut out = vec![0.0f32; 13];
            m.serving_layout()
                .forward_into(&mut ServingWorkspace::default(), &rows, &mut out);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(serve(&m), serve(&m.quantized_to(QuantMode::F32)));
        for mode in QuantMode::ALL {
            let q = m.quantized_to(mode);
            assert_eq!(
                serve(&q),
                serve(&q.quantized_to(QuantMode::F32)),
                "{mode:?}"
            );
        }
    }

    /// A model after a short `train` run, as a build leaf returns it.
    fn trained_model() -> Mlp {
        let xs: Vec<Vec<f64>> = (0..90)
            .map(|i| vec![(i % 9) as f64 / 9.0, (i / 9) as f64 / 10.0, 0.5])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() - x[1]).collect();
        let mut m = Mlp::new(&[3, 9, 4, 1], 17);
        let cfg = crate::train::TrainConfig {
            epochs: 20,
            batch_size: 16,
            patience: 0,
            ..Default::default()
        };
        crate::train::train(&mut m, &xs, &ys, &cfg);
        m
    }

    #[test]
    fn quantized_to_is_idempotent_on_a_trained_model() {
        // Lossy exactly once, for every mode: re-quantizing is the
        // identity, so load → re-encode reproduces an artifact's bytes.
        let m = trained_model();
        for mode in QuantMode::ALL {
            let q = m.quantized_to(mode);
            assert_eq!(q, q.quantized_to(mode), "{mode:?}");
        }
    }

    #[test]
    fn quantized_to_f32_is_the_identity_on_a_trained_model() {
        // `train` leaves every parameter f32-representable, so installing
        // a freshly trained model at F32 moves no bit.
        let m = trained_model();
        assert_ne!(m, Mlp::new(&[3, 9, 4, 1], 17).quantized_to(QuantMode::F32));
        assert_eq!(m.quantized_to(QuantMode::F32), m);
    }

    #[test]
    #[should_panic(expected = "f16 storage cannot hold this model")]
    fn f16_quantization_of_a_nan_parameter_panics() {
        let mut m = Mlp::new(&[2, 3, 1], 4);
        m.layers[0].biases[1] = f64::NAN;
        m.quantized_to(QuantMode::F16);
    }

    #[test]
    #[should_panic(expected = "i8 storage cannot hold this model")]
    fn i8_quantization_of_an_infinite_parameter_panics() {
        let mut m = Mlp::new(&[2, 3, 1], 4);
        m.layers[1].weights.as_mut_slice()[0] = f64::INFINITY;
        m.quantized_to(QuantMode::I8);
    }

    #[test]
    fn quantized_models_still_answer_close_to_f32() {
        let m = Mlp::new(&[2, 16, 8, 1], 29);
        let f32_m = m.quantized_to(QuantMode::F32);
        for mode in [QuantMode::F16, QuantMode::I8] {
            let q = m.quantized_to(mode);
            for i in 0..20 {
                let x = [i as f64 * 0.05, 1.0 - i as f64 * 0.03];
                let (a, b) = (f32_m.predict(&x), q.predict(&x));
                assert!(
                    (a - b).abs() < 0.5 * (1.0 + a.abs()),
                    "{mode:?}: {a} vs {b}"
                );
            }
        }
    }
}
