//! Minimal dense linear algebra: a row-major matrix, the matrix–vector
//! products the per-example MLP paths need, and the blocked
//! transpose-aware matrix–matrix kernels behind the batched training hot
//! path ([`matmul`], [`matmul_at_b`], [`matmul_a_bt`], the fused
//! [`bias_relu_rows`] epilogue, and AXPY-style update ops).
//!
//! This is deliberately not a general-purpose linear algebra library: the
//! MLPs in NeuroSketch are tiny (tens of units per layer), so a simple
//! cache-friendly row-major layout is fast enough and keeps the code
//! auditable. What the batch kernels buy over the scalar loops is not
//! asymptotics but locality: one pass over the weights per *mini-batch*
//! instead of one per example, with zero allocation.
//!
//! **Determinism contract:** every batched kernel accumulates each output
//! entry in exactly the same floating-point order as the per-example path
//! it replaces (ascending over the contraction index, with the same
//! skip-zero short-circuits). Batched training is therefore bitwise
//! reproducible against the per-example reference — a property the
//! training property tests assert.

use serde::{Deserialize, Serialize};

/// Fused multiply-add `a * b + c`, used by every kernel in this module —
/// scalar and batched alike — so the two training paths round identically
/// and stay bitwise comparable.
///
/// When the build target has hardware FMA (e.g. `-C target-cpu=native`
/// from this repo's `.cargo/config.toml` on any x86-64 from the last
/// decade), this is a single `vfmadd` — one rounding, twice the
/// arithmetic throughput of separate mul+add. Without the target
/// feature it falls back to plain `a * b + c` rather than the libm
/// software `fma` routine, which would be ~20x slower than the two
/// operations it replaces.
#[inline(always)]
pub(crate) fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

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

    /// `out = self * x` where `x` has length `cols` and `out` length `rows`.
    ///
    /// The workhorse of the forward pass. `out` is overwritten.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        for (r, o) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc = fmadd(*w, *xi, acc);
            }
            *o = acc;
        }
    }

    /// `out = self^T * x` where `x` has length `rows` and `out` length `cols`.
    ///
    /// Used to back-propagate deltas through a layer's weights.
    pub fn matvec_transpose_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (r, xr) in x.iter().enumerate() {
            if *xr == 0.0 {
                continue;
            }
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (o, w) in out.iter_mut().zip(row) {
                *o = fmadd(*w, *xr, *o);
            }
        }
    }

    /// Rank-1 update `self += alpha * a * b^T` with `a` of length `rows` and
    /// `b` of length `cols`. Used to accumulate weight gradients.
    pub fn rank1_add(&mut self, alpha: f64, a: &[f64], b: &[f64]) {
        debug_assert_eq!(a.len(), self.rows);
        debug_assert_eq!(b.len(), self.cols);
        for (r, ar) in a.iter().enumerate() {
            if *ar == 0.0 {
                continue;
            }
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let s = alpha * ar;
            for (w, bi) in row.iter_mut().zip(b) {
                *w = fmadd(s, *bi, *w);
            }
        }
    }

    /// Reset all entries to zero (gradient buffers between batches).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
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

    /// Write this matrix's transpose into `out` (resized as needed,
    /// allocation reused). The batched forward pass keeps a transposed
    /// copy of each weight matrix so the layer GEMM runs in the
    /// vectorizable axpy form; refreshing the copy once per mini-batch
    /// costs `rows * cols` moves against the `batch * rows * cols` flops
    /// it accelerates.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, v) in self.data[r * self.cols..(r + 1) * self.cols]
                .iter()
                .enumerate()
            {
                out.data[c * self.rows + r] = *v;
            }
        }
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

/// Column-block width for the GEMM kernels. Output tiles of this width
/// stay resident in L1 while a panel of the right-hand side streams
/// through; for NeuroSketch's layer widths (≤ 64) a whole output row fits
/// in one block and the blocking collapses to plain register-friendly
/// loops.
const GEMM_BLOCK_COLS: usize = 128;

/// `c = a * b` where `a` is `m x k`, `b` is `k x n` and `c` is `m x n`.
///
/// Blocked i-k-j loop order: for each output row, rows of `b` are
/// streamed and scaled by `a[i][k]` (an AXPY per contraction step), so
/// all inner accesses are contiguous. Zero multipliers are skipped —
/// with ReLU-sparse delta matrices on the left this elides a large
/// fraction of the work, and it mirrors the skip in
/// [`Matrix::matvec_transpose_into`] exactly, keeping the accumulation
/// order of the per-example backward path.
///
/// # Panics
/// Panics in debug builds if the shapes disagree.
pub fn matmul(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    debug_assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    debug_assert_eq!(c.rows, a.rows, "output rows must match a");
    debug_assert_eq!(c.cols, b.cols, "output cols must match b");
    let (k, n) = (a.cols, b.cols);
    if n == 1 {
        // Single output column (every model's last layer): the axpy form
        // degenerates to length-1 inner loops, so compute dot products
        // against the contiguous column instead, four rows at a time —
        // four independent accumulator chains hide the FMA latency, and
        // each chain still sums in ascending `k` order.
        let bcol = &b.data;
        let mut i = 0;
        while i + 4 <= a.rows {
            let r0 = &a.data[i * k..(i + 1) * k];
            let r1 = &a.data[(i + 1) * k..(i + 2) * k];
            let r2 = &a.data[(i + 2) * k..(i + 3) * k];
            let r3 = &a.data[(i + 3) * k..(i + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (t, bt) in bcol.iter().enumerate() {
                s0 = fmadd(r0[t], *bt, s0);
                s1 = fmadd(r1[t], *bt, s1);
                s2 = fmadd(r2[t], *bt, s2);
                s3 = fmadd(r3[t], *bt, s3);
            }
            c.data[i] = s0;
            c.data[i + 1] = s1;
            c.data[i + 2] = s2;
            c.data[i + 3] = s3;
            i += 4;
        }
        while i < a.rows {
            let row = &a.data[i * k..(i + 1) * k];
            let mut acc = 0.0;
            for (rt, bt) in row.iter().zip(bcol) {
                acc = fmadd(*rt, *bt, acc);
            }
            c.data[i] = acc;
            i += 1;
        }
        return;
    }
    // Degenerate empty contraction: the product is all zeros, and the
    // chunked row iterator below would never visit (and so never clear)
    // the output.
    if k == 0 {
        c.data.fill(0.0);
        return;
    }
    // General path: per-chunk compaction of the nonzero multipliers of
    // one left-hand row (ReLU-sparse delta/activation matrices are ~half
    // zeros): the contraction then runs dense 4-wide over survivors only,
    // keeping both the skip win of the scalar path and the unrolled
    // throughput. Compaction preserves ascending `k`, so each output
    // entry still rounds in exactly the per-example order.
    const CHUNK: usize = 128;
    let mut vals = [0.0f64; CHUNK];
    let mut idxs = [0usize; CHUNK];
    for j0 in (0..n).step_by(GEMM_BLOCK_COLS) {
        let j1 = (j0 + GEMM_BLOCK_COLS).min(n);
        let w = j1 - j0;
        for (i, arow) in a.data.chunks_exact(k.max(1)).enumerate() {
            let crow = &mut c.data[i * n + j0..i * n + j1];
            crow.fill(0.0);
            for k0 in (0..k).step_by(CHUNK) {
                let k1 = (k0 + CHUNK).min(k);
                let mut nz = 0;
                for (kk, &aik) in arow[k0..k1].iter().enumerate() {
                    if aik != 0.0 {
                        vals[nz] = aik;
                        idxs[nz] = (k0 + kk) * n;
                        nz += 1;
                    }
                }
                // Four contraction steps per pass over the output tile,
                // quartering the read-modify-write traffic on `c`.
                let mut t = 0;
                while t + 4 <= nz {
                    let (a0, a1, a2, a3) = (vals[t], vals[t + 1], vals[t + 2], vals[t + 3]);
                    let b0 = &b.data[idxs[t] + j0..idxs[t] + j1];
                    let b1 = &b.data[idxs[t + 1] + j0..idxs[t + 1] + j1];
                    let b2 = &b.data[idxs[t + 2] + j0..idxs[t + 2] + j1];
                    let b3 = &b.data[idxs[t + 3] + j0..idxs[t + 3] + j1];
                    for j in 0..w {
                        let mut v = crow[j];
                        v = fmadd(a0, b0[j], v);
                        v = fmadd(a1, b1[j], v);
                        v = fmadd(a2, b2[j], v);
                        v = fmadd(a3, b3[j], v);
                        crow[j] = v;
                    }
                    t += 4;
                }
                while t < nz {
                    let aik = vals[t];
                    let brow = &b.data[idxs[t] + j0..idxs[t] + j1];
                    for (cj, bj) in crow.iter_mut().zip(brow) {
                        *cj = fmadd(aik, *bj, *cj);
                    }
                    t += 1;
                }
            }
        }
    }
}

/// `c = a^T * b` where `a` is `m x k`, `b` is `m x n` and `c` is `k x n`.
///
/// This is the gradient kernel: with `a` the batch delta matrix
/// (`batch x out`) and `b` the batch input (`batch x in`), it produces
/// the weight gradient `out x in` as a sequence of rank-1 updates — one
/// per example, in batch order, skipping zero deltas — which is the
/// identical floating-point schedule [`Matrix::rank1_add`] performs in
/// the per-example path.
///
/// # Panics
/// Panics in debug builds if the shapes disagree.
pub fn matmul_at_b(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    debug_assert_eq!(a.rows, b.rows, "contraction (row) dimensions must agree");
    debug_assert_eq!(c.rows, a.cols, "output rows must match a^T");
    debug_assert_eq!(c.cols, b.cols, "output cols must match b");
    let (k, n) = (a.cols, b.cols);
    let m = a.rows;
    if n == 1 {
        // Single right-hand column (`dW` of a 1-input layer, `db`-like
        // reductions): each output entry is a dot of an `a` column with
        // the contiguous `b` column. Four adjacent `a` columns at a time
        // turn the strided loads into one contiguous 4-element read per
        // example and run four independent accumulator chains, summing
        // in ascending example order like the rank-1 schedule.
        let bcol = &b.data;
        let mut o = 0;
        while o + 4 <= k {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (e, be) in bcol.iter().enumerate() {
                let arow = &a.data[e * k + o..e * k + o + 4];
                s0 = fmadd(arow[0], *be, s0);
                s1 = fmadd(arow[1], *be, s1);
                s2 = fmadd(arow[2], *be, s2);
                s3 = fmadd(arow[3], *be, s3);
            }
            c.data[o] = s0;
            c.data[o + 1] = s1;
            c.data[o + 2] = s2;
            c.data[o + 3] = s3;
            o += 4;
        }
        while o < k {
            let mut acc = 0.0;
            for (e, be) in bcol.iter().enumerate() {
                acc = fmadd(a.data[e * k + o], *be, acc);
            }
            c.data[o] = acc;
            o += 1;
        }
        return;
    }
    c.data.fill(0.0);
    // Contraction (batch) dimension unrolled by 4: four examples' rank-1
    // updates fold into each output row per pass, quartering the
    // read-modify-write traffic on `c`. The fmadds chain in ascending
    // example order, matching the one-example-at-a-time schedule exactly.
    let mut e = 0;
    while e + 4 <= m {
        let a0 = &a.data[e * k..(e + 1) * k];
        let a1 = &a.data[(e + 1) * k..(e + 2) * k];
        let a2 = &a.data[(e + 2) * k..(e + 3) * k];
        let a3 = &a.data[(e + 3) * k..(e + 4) * k];
        let b0 = &b.data[e * n..(e + 1) * n];
        let b1 = &b.data[(e + 1) * n..(e + 2) * n];
        let b2 = &b.data[(e + 2) * n..(e + 3) * n];
        let b3 = &b.data[(e + 3) * n..(e + 4) * n];
        for o in 0..k {
            let (s0, s1, s2, s3) = (a0[o], a1[o], a2[o], a3[o]);
            if s0 == 0.0 && s1 == 0.0 && s2 == 0.0 && s3 == 0.0 {
                continue;
            }
            let crow = &mut c.data[o * n..(o + 1) * n];
            for j in 0..n {
                let mut v = crow[j];
                v = fmadd(s0, b0[j], v);
                v = fmadd(s1, b1[j], v);
                v = fmadd(s2, b2[j], v);
                v = fmadd(s3, b3[j], v);
                crow[j] = v;
            }
        }
        e += 4;
    }
    for (arow, brow) in a.data[e * k..]
        .chunks_exact(k.max(1))
        .zip(b.data[e * n..].chunks_exact(n.max(1)))
    {
        for (o, &s) in arow.iter().enumerate() {
            if s == 0.0 {
                continue;
            }
            let crow = &mut c.data[o * n..(o + 1) * n];
            for (cj, bj) in crow.iter_mut().zip(brow) {
                *cj = fmadd(s, *bj, *cj);
            }
        }
    }
}

/// `c = a * b^T` where `a` is `m x k`, `b` is `n x k` and `c` is `m x n`.
///
/// The dot-shaped kernel: with `a` an input batch (`batch x in`) and
/// `b` a row-major weight matrix (`out x in`), each output entry is a
/// single contiguous dot product over ascending `k` — the same
/// contraction [`Matrix::matvec_into`] performs per example, so the
/// result is bitwise the per-example one. [`Mlp::forward_batch`]
/// currently prefers [`Matrix::transpose_into`] + [`matmul`] (the axpy
/// form vectorizes better and skips ReLU-zero inputs); this kernel is
/// the right shape when transposing the right-hand side isn't worth it,
/// e.g. a one-off product against frozen weights.
///
/// [`Mlp::forward_batch`]: crate::mlp::Mlp::forward_batch
///
/// # Panics
/// Panics in debug builds if the shapes disagree.
pub fn matmul_a_bt(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    debug_assert_eq!(a.cols, b.cols, "inner dimensions must agree");
    debug_assert_eq!(c.rows, a.rows, "output rows must match a");
    debug_assert_eq!(c.cols, b.rows, "output cols must match b^T");
    let (k, n) = (a.cols, b.rows);
    for (i, arow) in a.data.chunks_exact(k.max(1)).enumerate() {
        let crow = &mut c.data[i * n..(i + 1) * n];
        // Four output units at a time: the four dot products share the
        // `arow` loads and run as independent accumulator chains, hiding
        // FP-add latency. Each accumulator still sums in ascending `k`
        // order, so every output is bitwise the single-dot result.
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b.data[j * k..(j + 1) * k];
            let b1 = &b.data[(j + 1) * k..(j + 2) * k];
            let b2 = &b.data[(j + 2) * k..(j + 3) * k];
            let b3 = &b.data[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (t, &x) in arow.iter().enumerate() {
                s0 = fmadd(x, b0[t], s0);
                s1 = fmadd(x, b1[t], s1);
                s2 = fmadd(x, b2[t], s2);
                s3 = fmadd(x, b3[t], s3);
            }
            crow[j] = s0;
            crow[j + 1] = s1;
            crow[j + 2] = s2;
            crow[j + 3] = s3;
            j += 4;
        }
        for (cj, brow) in crow[j..]
            .iter_mut()
            .zip(b.data[j * k..].chunks_exact(k.max(1)))
        {
            let mut acc = 0.0;
            for (ai, bi) in arow.iter().zip(brow) {
                acc = fmadd(*ai, *bi, acc);
            }
            *cj = acc;
        }
    }
}

/// Fused epilogue of a hidden layer: add `bias` to every row of `z`
/// (`batch x out`) and apply ReLU, in one pass over the batch.
///
/// # Panics
/// Panics in debug builds if `bias.len() != z.cols()`.
pub fn bias_relu_rows(z: &mut Matrix, bias: &[f64]) {
    debug_assert_eq!(bias.len(), z.cols);
    for row in z.data.chunks_exact_mut(bias.len().max(1)) {
        for (zi, bi) in row.iter_mut().zip(bias) {
            let v = *zi + bi;
            *zi = if v > 0.0 { v } else { 0.0 };
        }
    }
}

/// Linear-layer epilogue: add `bias` to every row of `z` (`batch x out`)
/// with no activation.
///
/// # Panics
/// Panics in debug builds if `bias.len() != z.cols()`.
pub fn bias_add_rows(z: &mut Matrix, bias: &[f64]) {
    debug_assert_eq!(bias.len(), z.cols);
    for row in z.data.chunks_exact_mut(bias.len().max(1)) {
        for (zi, bi) in row.iter_mut().zip(bias) {
            *zi += bi;
        }
    }
}

/// Overwrite `out` with the column sums of `m` — the bias-gradient
/// reduction `db[o] = Σ_e delta[e][o]`, accumulated in batch order like
/// the per-example path.
///
/// # Panics
/// Panics in debug builds if `out.len() != m.cols()`.
pub fn col_sums_into(m: &Matrix, out: &mut [f64]) {
    debug_assert_eq!(out.len(), m.cols);
    out.fill(0.0);
    for row in m.data.chunks_exact(m.cols.max(1)) {
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// `y += alpha * x` for equal-length slices.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = fmadd(alpha, *xi, *yi);
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 norm.
pub fn norm1(a: &[f64]) -> f64 {
    a.iter().map(|x| x.abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 0.5, -1.0];
        let mut out = [0.0; 2];
        m.matvec_into(&x, &mut out);
        assert_eq!(out, [1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn matvec_transpose_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [2.0, -1.0];
        let mut out = [0.0; 3];
        m.matvec_transpose_into(&x, &mut out);
        assert_eq!(out, [2.0 - 4.0, 4.0 - 5.0, 6.0 - 6.0]);
    }

    #[test]
    fn rank1_add_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.rank1_add(2.0, &[1.0, 0.5], &[3.0, 4.0]);
        assert_eq!(m.get(0, 0), 6.0);
        assert_eq!(m.get(0, 1), 8.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn row_views_are_consistent() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm1(&[1.0, -2.0, 3.0]), 6.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "matrix buffer size mismatch")]
    fn from_vec_checks_size() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    /// Naive triple-loop reference for the GEMM kernels.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
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
            // xorshift-ish deterministic pattern with some exact zeros to
            // exercise the skip paths.
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = if s.is_multiple_of(5) {
                0.0
            } else {
                (s % 1000) as f64 / 250.0 - 2.0
            };
        }
        m
    }

    #[test]
    fn matmul_matches_naive_on_many_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (7, 2, 9), (64, 60, 30), (5, 200, 3)] {
            let a = fill_pattern(m, k, (m * 31 + k) as u64);
            let b = fill_pattern(k, n, (k * 17 + n) as u64);
            let mut c = Matrix::zeros(m, n);
            matmul(&mut c, &a, &b);
            let want = naive_matmul(&a, &b);
            for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
                assert!((x - y).abs() < 1e-12, "matmul {m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn transpose_kernels_match_explicit_transposes() {
        for &(m, k, n) in &[(2, 3, 4), (8, 5, 6), (33, 7, 13)] {
            let a = fill_pattern(m, k, 3);
            let b = fill_pattern(m, n, 4);
            let mut c = Matrix::zeros(k, n);
            matmul_at_b(&mut c, &a, &b);
            let want = naive_matmul(&transpose(&a), &b);
            for (x, y) in c.as_slice().iter().zip(want.as_slice()) {
                assert!((x - y).abs() < 1e-12, "at_b {m}x{k}x{n}: {x} vs {y}");
            }

            let a2 = fill_pattern(m, k, 5);
            let b2 = fill_pattern(n, k, 6);
            let mut c2 = Matrix::zeros(m, n);
            matmul_a_bt(&mut c2, &a2, &b2);
            let want2 = naive_matmul(&a2, &transpose(&b2));
            for (x, y) in c2.as_slice().iter().zip(want2.as_slice()) {
                assert!((x - y).abs() < 1e-12, "a_bt {m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(2, 1, vec![3.0, 4.0]);
        let mut c = Matrix::from_vec(1, 1, vec![999.0]);
        matmul(&mut c, &a, &b);
        assert_eq!(c.get(0, 0), 11.0);
        let mut c2 = Matrix::from_vec(2, 1, vec![7.0, 7.0]);
        matmul_at_b(&mut c2, &a, &Matrix::from_vec(1, 1, vec![2.0]));
        assert_eq!(c2.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn fused_bias_relu_and_bias_add() {
        let mut z = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -3.0]);
        bias_relu_rows(&mut z, &[0.25, 1.0]);
        assert_eq!(z.as_slice(), &[0.0, 1.5, 2.25, 0.0]);
        let mut z2 = Matrix::from_vec(2, 2, vec![-1.0, 0.5, 2.0, -3.0]);
        bias_add_rows(&mut z2, &[0.25, 1.0]);
        assert_eq!(z2.as_slice(), &[-0.75, 1.5, 2.25, -2.0]);
    }

    #[test]
    fn col_sums_reduce_in_row_order() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        let mut out = [0.0; 2];
        col_sums_into(&m, &mut out);
        assert_eq!(out, [6.0, 60.0]);
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
