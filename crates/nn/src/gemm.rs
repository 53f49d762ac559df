//! The one register-tiled GEMM micro-kernel every batched path in this
//! crate computes through: the serving forward ([`crate::fused`]), the
//! mini-batch forward and backward ([`Mlp::forward_batch`],
//! [`Mlp::backward_batch`]) and [`crate::linalg::matmul`].
//!
//! One source, two element types (`Elem` in [`crate::linalg`]): serving
//! and the three training products run it at `f32` — the precision every
//! stored artifact has — where the same [`MR`] x [`NR`] tile is half as
//! many vector registers as at `f64` and twice the lanes per `fmadd`;
//! `matmul` runs it at `f64`. Nothing below depends on which.
//!
//! `row_tile` computes `M x NR` blocks of `C = A · B`. Its accumulators
//! stay in registers across the **entire** contraction and are handed
//! to the caller's epilogue exactly once, so bias, activation, ReLU
//! mask and column sums ride the tile store instead of re-sweeping `C`.
//! The operands are described by strides, which is all that separates
//! the three products of a training step:
//!
//! | product | `A(i, t)` | `B(t, ·)` | `C` stored as |
//! |---|---|---|---|
//! | forward `X · Wᵀ` | rows of `X` (`sa = (stride, 1)`) | `Wᵀ` panels | rows ([`crate::fused`]'s `BiasAct`) |
//! | `dX = δ · W` | rows of `δ` (`sa = (stride, 1)`) | `W` panels (`transpose_panels`) | rows (`MaskSum` in [`crate::mlp`]) |
//! | `dWᵀ = Xᵀ · δ` | columns of `X` (`sa = (1, stride)`) | `δ` in place, `NR`-padded rows | `Wᵀ` panels (`Panels`) |
//!
//! `B` is always read, and `C` always written, as whole `NR`-wide rows:
//! `B` is either a panel (row stride `NR`) or a matrix whose row stride
//! is already a multiple of [`NR`], and `C` is such a matrix or a set of
//! panels — which is why the training workspace keeps activations and
//! deltas at padded stride (padding holds exact zeros) and a training
//! step's weights and gradient live in the panel order `pack` makes, the
//! order the forward reads; only [`Mlp::forward_batch`]'s output is
//! copied out of its padding, widened to `f64`, into a [`Matrix`].
//!
//! **Bitwise contract.** Every entry is one `fmadd` chain, in the
//! element type, over ascending contraction index starting from `+0.0`
//! — at `f32` the order of the scalar oracles
//! [`crate::fused::forward_per_example`] (forward) and
//! [`crate::mlp::batch_gradient_per_example`] (`dX` per example, `dWᵀ`
//! summed in batch order), at `f64` that of a naive triple loop
//! (`matmul`). Zero multipliers are multiplied through, never skipped.
//!
//! The tile shape is fragile under autovectorisation and was chosen by
//! measurement, once per element type (docs/serving.md has the `f32`
//! table and the `f64` numbers beside it; 6 x 16 won both);
//! `perfbench`'s `serve_forward_fused` and `train_leaf_batched` entries
//! pin it.
//!
//! [`Matrix`]: crate::linalg::Matrix
//! [`Mlp::forward_batch`]: crate::mlp::Mlp::forward_batch
//! [`Mlp::backward_batch`]: crate::mlp::Mlp::backward_batch

use crate::linalg::Elem;

/// Rows per micro-kernel tile.
pub const MR: usize = 6;
/// Columns per micro-kernel tile; packed operands are padded to this.
pub const NR: usize = 16;

/// `n` rounded up to whole [`NR`]-column panels.
pub(crate) fn padded(n: usize) -> usize {
    n.div_ceil(NR) * NR
}

/// Pack the `k x n` operand `B(t, j) = b[t * sb_t + j * sb_j]` into
/// `n.div_ceil(NR)` panels of `k x NR` elements each (panel `p`, row `t`
/// holds columns `p * NR..`, zero past `n`), appended to `panels`. `B`
/// is a model's `f64` parameters; packing is where they are rounded to
/// the element type the product runs in.
pub(crate) fn pack<T: Elem>(
    panels: &mut Vec<T>,
    b: &[f64],
    (sb_t, sb_j): (usize, usize),
    k: usize,
    n: usize,
) {
    let at = panels.len();
    panels.resize(at + k * padded(n), T::default());
    for (p, panel) in panels[at..].chunks_exact_mut((k * NR).max(1)).enumerate() {
        let j0 = p * NR;
        for (t, row) in panel.chunks_exact_mut(NR).enumerate() {
            for (j, v) in row[..NR.min(n - j0)].iter_mut().enumerate() {
                *v = T::from_f64(b[t * sb_t + (j0 + j) * sb_j]);
            }
        }
    }
}

/// Repack `wt`, the panels `pack` makes of `B = Wᵀ` (`k x n`), as the
/// panels of `W` itself (`n x k`: panel `q`, row `o` holds
/// `W[o][q * NR..]`, zero past `k`) into `panels` — the `dX` operand of
/// a training step whose weights live as `Wᵀ` panels. One `NR x NR`
/// block at a time through a local copy; every entry of `panels` is
/// written, so nothing is cleared first.
pub(crate) fn transpose_panels(panels: &mut Vec<f32>, wt: &[f32], k: usize, n: usize) {
    panels.resize(n * padded(k), 0.0);
    for (p, src) in wt.chunks_exact((k * NR).max(1)).enumerate() {
        for (q, rows) in src.chunks(NR * NR).enumerate() {
            let mut blk = [[0.0f32; NR]; NR];
            for (b, r) in blk.iter_mut().zip(rows.chunks_exact(NR)) {
                b.copy_from_slice(r);
            }
            for j in 0..NR.min(n - p * NR) {
                let at = (q * n + p * NR + j) * NR;
                let col: [f32; NR] = std::array::from_fn(|t| blk[t][j]);
                panels[at..at + NR].copy_from_slice(&col);
            }
        }
    }
}

/// What a [`gemm`] caller does with each finished row of a tile: its
/// epilogue and the single store. A trait rather than a closure so that
/// the implementation can be `#[inline(always)]` — a tile that escapes
/// into an out-of-line call lives on the stack, not in registers.
pub(crate) trait TileStore<T> {
    /// Receives columns `p * NR..(p + 1) * NR` of row `r` of `C`,
    /// exactly once; a panel's rows arrive in ascending order.
    fn row(&mut self, r: usize, p: usize, acc: &[T; NR]);
}

/// Expand `$body` once per row of an `M`-row tile (`M` is 1 or [`MR`])
/// with `$i` a constant. Straight-line on purpose: whether a `for i in
/// 0..M` over the tile gets unrolled depends on how large the unroller
/// finds its body in the caller at hand, and a tile indexed by a loop
/// variable lives on the stack instead of in registers.
macro_rules! each_row {
    ($M:ident, |$i:ident| $body:expr) => {{
        const { assert!(MR == 6) };
        each_row!(@at $i, 0, $body);
        if $M == MR {
            each_row!(@at $i, 1, $body);
            each_row!(@at $i, 2, $body);
            each_row!(@at $i, 3, $body);
            each_row!(@at $i, 4, $body);
            each_row!(@at $i, 5, $body);
        }
    }};
    (@at $i:ident, $n:literal, $body:expr) => {{
        const $i: usize = $n;
        $body
    }};
}

/// The micro-kernel over one row tile, rows `i0..i0 + M` of `C`: for
/// each of `panels` column panels, `acc[i][j] = Σ_t A(i0 + i, t) ·
/// B(t, j)` for `i < M`, `j < NR`, `t` ascending over `0..k` (operands
/// as in [`gemm`]); each finished row goes to `c` once.
#[inline(always)]
fn row_tile<T: Elem, const M: usize>(
    i0: usize,
    (k, panels): (usize, usize),
    a: &[T],
    (sa_i, sa_t): (usize, usize),
    b: &[T],
    (b_panel, sb): (usize, usize),
    c: &mut impl TileStore<T>,
) {
    // Equal-length views of the `M` rows of `A`, sized for `k` steps.
    let arows: [&[T]; M] = std::array::from_fn(|i| match k {
        0 => &a[..0],
        _ => &a[(i0 + i) * sa_i..(i0 + i) * sa_i + (k - 1) * sa_t + 1],
    });
    for p in 0..panels {
        let mut acc = [[T::default(); NR]; M];
        if k > 0 {
            let b = &b[p * b_panel..p * b_panel + (k - 1) * sb + NR];
            for t in 0..k {
                let brow = &b[t * sb..t * sb + NR];
                each_row!(M, |I| {
                    let x = arows[I][t * sa_t];
                    for j in 0..NR {
                        acc[I][j] = brow[j].fmadd(x, acc[I][j]);
                    }
                });
            }
        }
        each_row!(M, |I| c.row(i0 + I, p, &acc[I]));
    }
}

/// `C = A · B` for an `m`-row `A` and `panels` column panels of `B`,
/// contraction length `k`: row tiles in ascending order (whole [`MR`]
/// tiles, then single rows through the same kernel), every panel per
/// row tile. `sa = (sa_i, sa_t)` are `A`'s two strides, `A(i, t) =
/// a[i * sa_i + t * sa_t]`; `sb = (b_panel, sb)` says that panel `p` of
/// `B` starts at `b[p * b_panel]` and has row stride `sb`.
///
/// Never inlined: each epilogue's instantiation is compiled on its own,
/// so what the vectoriser makes of the tile does not depend on the
/// function it is called from.
#[inline(never)]
pub(crate) fn gemm<T: Elem>(
    (m, k, panels): (usize, usize, usize),
    a: &[T],
    sa: (usize, usize),
    b: &[T],
    sb: (usize, usize),
    c: &mut impl TileStore<T>,
) {
    let mut i = 0;
    while i + MR <= m {
        row_tile::<T, MR>(i, (k, panels), a, sa, b, sb, c);
        i += MR;
    }
    while i < m {
        row_tile::<T, 1>(i, (k, panels), a, sa, b, sb, c);
        i += 1;
    }
}

/// The plain epilogue: write each tile into `C` (`.0`) as it is. Like
/// every `C` of this kernel, the buffer has a row stride (`.1`) of
/// whole panels, so a store is always [`NR`] wide.
pub(crate) struct Plain<'c, T>(pub &'c mut [T], pub usize);

impl<T: Copy> TileStore<T> for Plain<'_, T> {
    #[inline(always)]
    fn row(&mut self, r: usize, p: usize, acc: &[T; NR]) {
        let at = r * self.1 + p * NR;
        self.0[at..at + NR].copy_from_slice(acc);
    }
}

/// The panel epilogue: write row `r` of `C` into panel `p` of a packed
/// operand whose panels are `.1` rows deep — `C` laid out as [`pack`]
/// lays out a `B`. A training step's `dWᵀ` lands in its weights' order.
pub(crate) struct Panels<'c, T>(pub &'c mut [T], pub usize);

impl<T: Copy> TileStore<T> for Panels<'_, T> {
    #[inline(always)]
    fn row(&mut self, r: usize, p: usize, acc: &[T; NR]) {
        let at = (p * self.1 + r) * NR;
        self.0[at..at + NR].copy_from_slice(acc);
    }
}

/// Copy the first `n` columns of every `stride`-wide row of the padded
/// `src` into the dense `n`-wide rows of `dst`, widening on the way
/// where the two differ ([`Mlp::forward_batch`]'s `f32` outputs into its
/// `f64` matrix).
pub(crate) fn unpad<S: Copy, D: From<S>>(dst: &mut [D], n: usize, src: &[S], stride: usize) {
    for (d, s) in dst.chunks_exact_mut(n).zip(src.chunks_exact(stride)) {
        for (d, s) in d.iter_mut().zip(&s[..n]) {
            *d = D::from(*s);
        }
    }
}
