//! The serving forward pass — the **one** forward every served answer
//! goes through, batched or one query at a time: the crate's
//! register-tiled GEMM ([`crate::gemm`]) instantiated at `f32`, with
//! bias and activation fused into the tile's single store, run over row
//! blocks whose activations never leave L1.
//!
//! **Why `f32`.** Every persisted parameter is `f32` or narrower
//! ([`crate::binary`]: f32 / f16 / i8), so a served model has no bits an
//! `f32` cannot hold; computing in `f64` would spend half of every
//! vector on precision the artifact does not have. Training runs at
//! `f32` end to end: [`crate::train`] holds its master weights, their
//! gradient and the Adam moments as `f32` vectors in a
//! [`ServingLayout`]'s order; labels and [`Mlp::predict`] stay `f64`.
//!
//! The training forward runs every layer through the same call as
//! serving (same panels, same bias + activation epilogue, same tile), so
//! it is bitwise this one; it only keeps every layer's `batch x width`
//! activations for backprop. Serving a frozen model does not, and a
//! [`ServingLayout`] is a self-contained copy of a model's parameters in
//! the shape the kernel reads, one flat `f32` vector:
//!
//! * each layer's weights rounded to `f32` — the rounding the F32
//!   artifact applies, so a fresh model, its
//!   [`Mlp::quantized_to`]`(F32)` image (its save/load round trip) serve
//!   the same bits — transposed and packed once into `NR`-column panels (`in_dim x NR`
//!   floats, contiguous), the output width zero-padded to a multiple of
//!   [`NR`], then the layer's biases padded alike;
//! * [`BLOCK_ROWS`] rows at a time ping-pong between two scratch tiles
//!   through every layer, so nothing `batch x width` is materialised.
//!
//! **Bitwise contract.** Every output entry is one `f32` `fmadd` chain
//! over ascending contraction index starting from `+0.0`, then `+ bias`,
//! then the activation's own comparison — operation for operation what
//! [`forward_per_example`] at `f32`, the scalar oracle, does. Fusing
//! bias and ReLU into the store moves *where* those two operations
//! happen, not their operands or order, the contraction runs over the
//! layer's real input width only (padding columns are written but never
//! read), and a row's arithmetic does not depend on which rows share its
//! tile.
//! Answers are therefore bit-for-bit the oracle's at any batch size —
//! a batch of one included — and in any row order. They are **not** the
//! bits of the same function's `f64` instantiation;
//! `tests/serving_accuracy.rs` bounds the distance.

use crate::activation::Activation;
use crate::gemm::{gemm, pack, padded, unpad, TileStore};
pub use crate::gemm::{MR, NR};
use crate::linalg::Elem;
use crate::mlp::{Dense, Mlp};

/// Rows per L1-resident block (a multiple of [`MR`]): the two tiles are
/// `BLOCK_ROWS x 64` floats = 9 KiB each at the paper's widths.
pub const BLOCK_ROWS: usize = 36;

/// Where one layer lives in [`ServingLayout`]'s parameter vector: at
/// `at`, `n_pad / NR` panels, each `in_dim x NR` row-major — panel `p`,
/// row `t` holds `W[p * NR + j][t]` for `j in 0..NR` (zero past
/// `out_dim`) — then the biases zero-padded to `n_pad`.
#[derive(Debug, Clone)]
pub(crate) struct FusedLayer {
    at: usize,
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    pub(crate) n_pad: usize,
    pub(crate) activation: Activation,
}

/// Serving copy of one [`Mlp`]'s parameters (see the module docs).
///
/// Self-contained: the forward pass reads nothing from the model it was
/// built from, so a layout can never be run against the wrong weights.
/// It is derived, in-memory-only state — build it with
/// [`Mlp::serving_layout`] whenever the model changes; it is never
/// serialized. Training holds its `f32` master weights in one
/// ([`crate::train`]).
#[derive(Debug, Clone)]
pub struct ServingLayout {
    /// Every layer's panels and biases, back to back.
    params: Vec<f32>,
    layers: Vec<FusedLayer>,
    input_dim: usize,
    output_dim: usize,
    /// Widest padded layer — the scratch tiles' row stride.
    tile_cols: usize,
}

/// The two ping-pong activation tiles of [`ServingLayout::forward_into`].
/// Keep one per serving thread; it grows once and is reused across
/// models and batches.
#[derive(Debug, Clone, Default)]
pub struct ServingWorkspace {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl ServingLayout {
    pub(crate) fn new(mlp: &Mlp) -> ServingLayout {
        let len = |l: &Dense| (l.in_dim() + 1) * padded(l.out_dim());
        let mut params = Vec::with_capacity(mlp.layers().iter().map(len).sum());
        let mut layers = Vec::with_capacity(mlp.layers().len());
        for l in mlp.layers() {
            let (n, k) = (l.out_dim(), l.in_dim());
            let layer = FusedLayer {
                at: params.len(),
                in_dim: k,
                out_dim: n,
                n_pad: padded(n),
                activation: l.activation,
            };
            pack(&mut params, l.weights.as_slice(), (1, k), k, n);
            params.extend(l.biases.iter().map(|&b| b as f32));
            params.resize(layer.span().end, 0.0);
            layers.push(layer);
        }
        ServingLayout {
            tile_cols: layers.iter().map(|l| l.n_pad).max().unwrap_or(0),
            params,
            layers,
            input_dim: mlp.input_dim(),
            output_dim: mlp.output_dim(),
        }
    }

    /// Every parameter, in the order the kernel reads them.
    pub(crate) fn params(&self) -> &[f32] {
        &self.params
    }

    pub(crate) fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    pub(crate) fn layers(&self) -> &[FusedLayer] {
        &self.layers
    }

    /// Input width followed by every layer's output width.
    pub(crate) fn widths(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.input_dim).chain(self.layers.iter().map(|l| l.out_dim))
    }

    /// Copy `flat` — any vector laid out like [`Self::params`] — into
    /// one row-major `(weights, biases)` pair per layer, widened to
    /// `f64`; padding is not read.
    pub(crate) fn unpack<'a>(
        &self,
        flat: &[f32],
        into: impl Iterator<Item = (&'a mut [f64], &'a mut [f64])>,
    ) {
        for (l, (w, b)) in self.layers.iter().zip(into) {
            let (panels, bias) = l.split(flat);
            for (o, (row, bo)) in w.chunks_exact_mut(l.in_dim).zip(b).enumerate() {
                let panel = &panels[o / NR * l.in_dim * NR + o % NR..];
                for (t, wt) in row.iter_mut().enumerate() {
                    *wt = f64::from(panel[t * NR]);
                }
                *bo = f64::from(bias[o]);
            }
        }
    }

    /// Heap footprint of the padded parameter copies, in bytes.
    pub fn padded_bytes(&self) -> usize {
        self.params.len() * size_of::<f32>()
    }

    /// Forward `x` (`rows x input_dim`, row-major, unpadded) through
    /// every layer and write the `rows x output_dim` result into `out`.
    /// Bitwise identical to [`forward_per_example`] on each row.
    ///
    /// Callers holding `f64` coordinates cast them (`as f32`) on the way
    /// in. That cast rounds to nearest, so two coordinates closer than
    /// `f32` resolution forward identically, and a finite `f64` beyond
    /// `f32` range arrives as `±inf`: its row's output is then `NaN`
    /// (`inf · w` summed against `-inf · w'`, or `0 · inf` at a dead
    /// unit) or `±inf`, never a panic, and no other row is touched —
    /// rows share a tile, not arithmetic.
    ///
    /// # Panics
    /// Panics if `x` is not a whole number of input rows or `out` does
    /// not hold exactly one output row per input row.
    pub fn forward_into(&self, ws: &mut ServingWorkspace, x: &[f32], out: &mut [f32]) {
        let (d, o) = (self.input_dim, self.output_dim);
        assert_eq!(x.len() % d, 0, "input is not rows x {d}");
        let m = x.len() / d;
        assert_eq!(out.len(), m * o, "output is not {m} rows x {o}");
        let tile = m.min(BLOCK_ROWS) * self.tile_cols;
        if ws.a.len() < tile {
            ws.a.resize(tile, 0.0);
            ws.b.resize(tile, 0.0);
        }
        let (mut cur, mut next) = (&mut ws.a[..], &mut ws.b[..]);
        let (first, rest) = self.layers.split_first().expect("an Mlp has layers");
        for (xblk, oblk) in x.chunks(BLOCK_ROWS * d).zip(out.chunks_mut(BLOCK_ROWS * o)) {
            let rows = xblk.len() / d;
            first.apply(&self.params, rows, (xblk, d), cur);
            let mut stride = first.n_pad;
            for layer in rest {
                layer.apply(&self.params, rows, (cur, stride), next);
                std::mem::swap(&mut cur, &mut next);
                stride = layer.n_pad;
            }
            unpad(oblk, o, cur, stride);
        }
    }
}

impl FusedLayer {
    /// The layer's range of the parameter vector: panels, then biases.
    pub(crate) fn span(&self) -> std::ops::Range<usize> {
        self.at..self.at + (self.in_dim + 1) * self.n_pad
    }

    /// The layer's `(panels, biases)` within `flat`, a vector laid out
    /// like the layout's parameters.
    #[inline(always)]
    pub(crate) fn split<'f>(&self, flat: &'f [f32]) -> (&'f [f32], &'f [f32]) {
        flat[self.span()].split_at(self.in_dim * self.n_pad)
    }

    /// `c[r] = act(a[r] · Wᵀ + bias)` for `rows` rows of `a` (row stride
    /// `sa`) with this layer's parameters in `params`; `c` has row
    /// stride `n_pad`. The serving and the training forward both run
    /// every layer through this call, inlined into both so the serving
    /// forward's per-block loop makes no call but the GEMM's.
    #[inline(always)]
    pub(crate) fn apply(
        &self,
        params: &[f32],
        rows: usize,
        (a, sa): (&[f32], usize),
        c: &mut [f32],
    ) {
        let (k, n) = (self.in_dim, self.n_pad);
        let (panels, bias) = self.split(params);
        gemm(
            (rows, k, n / NR),
            a,
            (sa, 1),
            panels,
            (k * NR, NR),
            &mut BiasAct {
                c,
                sc: n,
                bias,
                activation: self.activation,
            },
        );
    }
}

/// The forward epilogue, `c = act(acc + bias)` fused into the tile
/// store: per entry the operations of the per-example forward, `+ bias`
/// then the activation's own comparison, so `-0.0` and NaN come out as
/// [`forward_per_example`]'s do. Serving and the training forward share
/// it (through [`FusedLayer::apply`]). `bias` is zero-padded to whole
/// panels and `c` has the padded row stride `sc`.
struct BiasAct<'a, T> {
    c: &'a mut [T],
    sc: usize,
    bias: &'a [T],
    activation: Activation,
}

impl<T: Elem> TileStore<T> for BiasAct<'_, T> {
    #[inline(always)]
    fn row(&mut self, r: usize, p: usize, acc: &[T; NR]) {
        let bias = &self.bias[p * NR..(p + 1) * NR];
        // Into a local first: the compiler cannot see that `c` and
        // `bias` are disjoint, and would not vectorise a direct store.
        let mut v = [T::default(); NR];
        for j in 0..NR {
            let z = acc[j] + bias[j];
            v[j] = match self.activation {
                Activation::Relu if z < T::default() => T::default(),
                _ => z,
            };
        }
        let at = r * self.sc + p * NR;
        self.c[at..at + NR].copy_from_slice(&v);
    }
}

/// The per-example forward: one row through `mlp`, no tiles, no layout
/// — per output one `fmadd` chain over ascending input index from
/// `+0.0`, then `+ bias`, then the activation's own comparison, every
/// parameter rounded to `T` first.
///
/// At `f32` it is the serving forward's oracle: the parity suites and
/// `perfbench` hold [`ServingLayout::forward_into`] and
/// [`Mlp::forward_batch`] to it with `to_bits()`, and nothing serves
/// through it. At `f64` it is the crate's `f64` forward: [`Mlp::predict`],
/// the models the baselines and `repro` evaluate outside a sketch, and
/// the reference `tests/serving_accuracy.rs` bounds the served `f32`
/// output against.
pub fn forward_per_example<T: Elem>(mlp: &Mlp, x: &[T]) -> Vec<T> {
    let mut acts = Vec::new();
    activations_per_example(mlp, &mut acts, x);
    acts.pop().expect("an Mlp has layers")
}

/// [`forward_per_example`] keeping every layer's activations in `acts`,
/// the input first, and returning the output — the forward half of
/// [`crate::mlp::batch_gradient_per_example`]. `acts` is caller-held
/// scratch, overwritten by each call: one reused across calls allocates
/// nothing after the first.
///
/// ```
/// use nn::fused::activations_per_example;
/// use nn::Mlp;
///
/// let mlp = Mlp::new(&[2, 8, 1], 7);
/// let mut acts: Vec<Vec<f64>> = Vec::new();
/// for q in [[0.1, 0.2], [0.3, 0.4]] {
///     let y = activations_per_example(&mlp, &mut acts, &q)[0];
///     assert_eq!(y, mlp.predict(&q));
/// }
/// ```
///
/// # Panics
/// Panics if `x` is not `mlp.input_dim()` wide.
pub fn activations_per_example<'s, T: Elem>(
    mlp: &Mlp,
    acts: &'s mut Vec<Vec<T>>,
    x: &[T],
) -> &'s [T] {
    assert_eq!(
        x.len(),
        mlp.input_dim(),
        "input dim {} does not match network {}",
        x.len(),
        mlp.input_dim()
    );
    acts.resize_with(mlp.layers().len() + 1, Vec::new);
    acts[0].clear();
    acts[0].extend_from_slice(x);
    for (li, layer) in mlp.layers().iter().enumerate() {
        let (done, next) = acts.split_at_mut(li + 1);
        let (a, next) = (&done[li], &mut next[0]);
        let rows = layer.weights.as_slice().chunks_exact(layer.in_dim());
        next.clear();
        next.extend(rows.zip(&layer.biases).map(|(row, b)| {
            let mut acc = T::default();
            for (w, xi) in row.iter().zip(a) {
                acc = T::from_f64(*w).fmadd(*xi, acc);
            }
            let z = acc + T::from_f64(*b);
            match layer.activation {
                Activation::Relu if z < T::default() => T::default(),
                _ => z,
            }
        }));
    }
    acts.last().expect("an Mlp has layers")
}
