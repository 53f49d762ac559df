//! Minimal dense linear algebra: a row-major [`Matrix`], the element
//! types the crate computes in ([`Elem`]) and [`matmul`].
//!
//! This is deliberately not a general-purpose linear algebra library: the
//! MLPs in NeuroSketch are tiny (tens of units per layer), so a simple
//! row-major layout keeps the code auditable. There is exactly one
//! matrix–matrix kernel in the crate, the register-tiled micro-kernel of
//! [`crate::gemm`]; [`matmul`] is a thin entry to it at `f64`, and the
//! mini-batch forward and backward ([`crate::mlp`]) and the serving
//! forward ([`crate::fused`]) call it at `f32` with their own operand
//! strides and tile epilogues. The per-example passes
//! ([`crate::fused::forward_per_example`],
//! [`crate::mlp::batch_gradient_per_example`]) are one body each over
//! [`Elem`]: the `f32` oracle of those kernels, and at `f64` the crate's
//! `f64` forward and gradient.
//!
//! **Determinism contract:** the kernel accumulates each output entry in
//! one `fmadd` chain over ascending contraction index from `+0.0`; for
//! [`matmul`] that is a naive triple loop's order, which
//! `tests/batched_vs_scalar.rs` holds it to bit for bit.

use crate::gemm::{gemm, pack, padded, unpad, Plain, MR, NR};
use serde::{Deserialize, Serialize};

/// An element type the crate's kernels and per-example passes compute
/// in: `f32` for the serving forward ([`crate::fused`]), the training
/// step ([`crate::mlp`]) and their oracles, `f64` for [`matmul`] and the
/// `f64` instantiation of the per-example passes. Sealed: `f32` and
/// `f64` are the only implementors.
pub trait Elem:
    sealed::Sealed
    + Copy
    + Default
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
{
    /// A model parameter (held as `f64`) rounded to this type.
    fn from_f64(v: f64) -> Self;

    /// This value widened to `f64` (exact).
    fn to_f64(self) -> f64;

    /// Fused multiply-add `self * b + c`, used by every kernel in this
    /// crate — the per-example passes, the tiled GEMM and the serving
    /// oracle alike — so a batched path and its per-example reference
    /// round identically and stay bitwise comparable.
    ///
    /// When the build target has hardware FMA (e.g. `-C target-cpu=native`
    /// from this repo's `.cargo/config.toml` on any x86-64 from the last
    /// decade), this is a single `vfmadd` — one rounding, twice the
    /// arithmetic throughput of separate mul+add. Without the target
    /// feature it falls back to plain `self * b + c` rather than the
    /// libm software `fma` routine, which would be ~20x slower than the
    /// two operations it replaces.
    fn fmadd(self, b: Self, c: Self) -> Self;
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

macro_rules! impl_elem {
    ($t:ty, $from_f64:expr) => {
        impl Elem for $t {
            #[inline(always)]
            fn from_f64(v: f64) -> $t {
                $from_f64(v)
            }

            #[inline(always)]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }

            #[inline(always)]
            fn fmadd(self, b: $t, c: $t) -> $t {
                #[cfg(target_feature = "fma")]
                {
                    self.mul_add(b, c)
                }
                #[cfg(not(target_feature = "fma"))]
                {
                    self * b + c
                }
            }
        }
    };
}
impl_elem!(f64, |v| v);
impl_elem!(f32, |v| v as f32);

/// A dense row-major `rows x cols` matrix of `f64`.
///
/// `Default` is the empty `0 x 0` matrix — the starting state of reusable
/// scratch buffers before their first [`Matrix::resize`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` — this is an internal
    /// construction invariant, not user input.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshape in place to `rows x cols`, reusing the existing
    /// allocation. Contents are unspecified afterwards — this exists so
    /// batch workspaces can grow once and be reused across mini-batches
    /// of varying size without reallocating.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// `c = a * b` where `a` is `m x k`, `b` is `k x n` and `c` is `m x n`
/// (overwritten). A thin entry to the crate's tiled kernel
/// ([`crate::gemm`]): `b` is packed into column panels per call, and
/// every entry of `c` is one `fmadd` chain over ascending `k`.
///
/// # Panics
/// Panics if the shapes disagree.
pub fn matmul(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    assert_eq!(
        (c.rows, c.cols),
        (a.rows, b.cols),
        "output shape must be a.rows x b.cols"
    );
    if c.is_empty() {
        return;
    }
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let n_pad = padded(n);
    let mut panels = Vec::new();
    pack(&mut panels, &b.data, (n, 1), k, n);
    // The kernel writes whole panels, so it runs a block of rows at a
    // time into a padded tile whose real columns are then copied out.
    const BLOCK: usize = 8 * MR;
    let mut tile = vec![0.0; BLOCK.min(m) * n_pad];
    for r0 in (0..m).step_by(BLOCK) {
        let rows = BLOCK.min(m - r0);
        gemm(
            (rows, k, n_pad / NR),
            &a.data[r0 * k..],
            (k, 1),
            &panels,
            (k * NR, NR),
            &mut Plain(&mut tile, n_pad),
        );
        unpad(&mut c.data[r0 * n..(r0 + rows) * n], n, &tile, n_pad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{BatchWorkspace, Dense, Gradients, Mlp};
    use crate::Activation;

    #[test]
    fn row_views_are_consistent() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "matrix buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    /// Naive triple-loop reference for the GEMM kernel, in the kernel's
    /// own arithmetic (one `fmadd` chain per entry, ascending `k`), so
    /// the comparisons below are bit for bit.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc = b.get(k, j).fmadd(a.get(i, k), acc);
                }
                c.set(i, j, acc);
            }
        }
        c
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

    fn fill_pattern(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for v in m.as_mut_slice() {
            // xorshift-ish deterministic pattern with exact zeros of both
            // signs, which the kernel multiplies through, never skips.
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = match s % 10 {
                0 => 0.0,
                1 => -0.0,
                _ => (s % 1000) as f64 / 250.0 - 2.0,
            };
        }
        m
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}, entry {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// `m` with its rows padded to whole panels, the layout the kernel
    /// reads `B` and writes `C` in; the padding holds `fill`.
    fn pad_rows(m: &Matrix, fill: f64) -> Vec<f64> {
        let s = padded(m.cols());
        let mut out = vec![fill; m.rows() * s];
        for (dst, src) in out
            .chunks_exact_mut(s.max(1))
            .zip(m.data.chunks_exact(m.cols()))
        {
            dst[..m.cols()].copy_from_slice(src);
        }
        out
    }

    /// `aᵀ · b` through the kernel in its `dW` shape: the columns of `a`
    /// as the left operand, `b` read in place at padded stride, the
    /// contraction over the shared row index.
    fn kernel_at_b(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, s) = (a.rows(), a.cols(), padded(b.cols()));
        let mut c = Matrix::from_vec(k, b.cols(), vec![999.0; k * b.cols()]);
        let mut tile = pad_rows(&c, 999.0);
        gemm(
            (k, m, s / NR),
            &a.data,
            (1, k),
            &pad_rows(b, f64::NAN),
            (NR, s),
            &mut Plain(&mut tile, s),
        );
        unpad(&mut c.data, b.cols(), &tile, s);
        c
    }

    /// `a · bᵀ` through the kernel in its forward shape: the rows of
    /// `a` against `b`'s rows packed as `bᵀ` panels.
    fn kernel_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
        let (m, k, n) = (a.rows(), a.cols(), b.rows());
        let mut panels = Vec::new();
        pack(&mut panels, &b.data, (1, k), k, n);
        let mut c = Matrix::zeros(m, n);
        let mut tile = pad_rows(&c, 999.0);
        gemm(
            (m, k, padded(n) / NR),
            &a.data,
            (k, 1),
            &panels,
            (k * NR, NR),
            &mut Plain(&mut tile, padded(n)),
        );
        unpad(&mut c.data, n, &tile, padded(n));
        c
    }

    #[test]
    fn matmul_matches_naive_on_many_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (7, 2, 9),
            (64, 60, 30),
            (5, 200, 3),
            (4, 0, 3),
            (49, 17, 1),
            (MR + 1, 3, 2 * NR + 1),
        ] {
            let a = fill_pattern(m, k, (m * 31 + k) as u64);
            let b = fill_pattern(k, n, (k * 17 + n) as u64);
            let mut c = Matrix::from_vec(m, n, vec![f64::NAN; m * n]);
            matmul(&mut c, &a, &b);
            assert_same_bits(&c, &naive_matmul(&a, &b), &format!("matmul {m}x{k}x{n}"));
        }
    }

    #[test]
    fn transpose_kernels_match_explicit_transposes() {
        for &(m, k, n) in &[(2, 3, 4), (8, 5, 6), (33, 7, 13), (64, 30, 60), (1, MR, NR)] {
            let a = fill_pattern(m, k, 3);
            let b = fill_pattern(m, n, 4);
            let want = naive_matmul(&transpose(&a), &b);
            assert_same_bits(&kernel_at_b(&a, &b), &want, &format!("at_b {m}x{k}x{n}"));

            let a2 = fill_pattern(m, k, 5);
            let b2 = fill_pattern(n, k, 6);
            let want2 = naive_matmul(&a2, &transpose(&b2));
            assert_same_bits(&kernel_a_bt(&a2, &b2), &want2, &format!("a_bt {m}x{k}x{n}"));
        }
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let mut c = Matrix::from_vec(1, 1, vec![999.0]);
        matmul(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 11.0);
        // `kernel_at_b` starts from an output poisoned with 999.0.
        let c2 = kernel_at_b(&a, &Matrix::from_vec(1, 1, vec![2.0]));
        assert_eq!(c2.as_slice(), &[2.0, 4.0]);
    }

    /// The bias + activation epilogue rides the forward tile store: one
    /// identity-weight layer turns `forward_batch` into that epilogue.
    #[test]
    fn fused_bias_relu_and_bias_add() {
        let z = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -3.0]);
        let layer = |activation| {
            Mlp::from_layers(vec![Dense {
                weights: Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
                biases: vec![0.25, 1.0],
                activation,
            }])
            .unwrap()
        };
        let mut ws = BatchWorkspace::default();
        let relu = layer(Activation::Relu).forward_batch(&mut ws, &z).clone();
        assert_eq!(relu.as_slice(), &[0.0, 1.5, 2.25, 0.0]);
        let linear = layer(Activation::Identity)
            .forward_batch(&mut ws, &z)
            .clone();
        assert_eq!(linear.as_slice(), &[-0.75, 1.5, 2.25, -2.0]);
    }

    /// The bias gradient is the column sums of the deltas, accumulated
    /// in `f32` and in batch (row) order as the `dX` tiles are stored:
    /// with a zero first layer, the hidden deltas are `2 w₂ · (out − y)`
    /// per row, and in `f32` `1e8 + 1 − 1e8` is 0 in row order and 1
    /// otherwise (the `f32` ulp at `1e8` is 8). The output layer's bias
    /// gradient, summed in the output sweep, is held to the same order.
    #[test]
    fn col_sums_reduce_in_row_order() {
        let mlp = Mlp::from_layers(vec![
            Dense {
                weights: Matrix::zeros(2, 1),
                biases: vec![1.0, 1.0],
                activation: Activation::Relu,
            },
            Dense {
                weights: Matrix::from_vec(1, 2, vec![0.5, 5.0]),
                biases: vec![0.0],
                activation: Activation::Identity,
            },
        ])
        .unwrap();
        // Output is 5.5 for every row; targets put `out − y` at the
        // wanted delta.
        let x = Matrix::zeros(3, 1);
        let deltas = [1e8f32, 1.0, -1e8];
        let y = Matrix::from_vec(3, 1, deltas.iter().map(|&d| 5.5 - f64::from(d)).collect());
        let mut ws = BatchWorkspace::default();
        let mut grads = Gradients::zeros_like(&mlp);
        mlp.forward_batch(&mut ws, &x);
        mlp.backward_batch(&mut ws, &y, &mut grads);
        let in_row_order = |w: f32| f64::from(deltas.iter().fold(0.0, |s, d| s + 2.0 * d * w));
        assert_eq!(grads.layers[0].1, [in_row_order(0.5), in_row_order(5.0)]);
        assert_eq!(grads.layers[1].1, [in_row_order(1.0)]);
        assert_eq!(grads.layers[0].1[0], 0.0);
    }

    #[test]
    fn resize_reuses_and_reshapes() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        m.resize(3, 4);
        assert_eq!((m.rows(), m.cols()), (3, 4));
        assert_eq!(m.len(), 12);
        m.resize(1, 2);
        assert_eq!((m.rows(), m.cols()), (1, 2));
    }
}
