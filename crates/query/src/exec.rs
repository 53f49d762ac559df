//! Exact query execution — the ground-truth oracle.
//!
//! `QueryEngine` evaluates the observed query function
//! `f_D(q) = AGG({x ∈ D : P_f(q,x) = 1})` exactly. It labels every
//! training query (Alg. 4) and every drift probe (Sec. 7), and it
//! answers the queries the DQD rules refuse (Sec. 4.3), so the same
//! code is on the build path and the serving path.
//!
//! # The index
//!
//! Built once per engine, per attribute: the column's values in
//! ascending order and the row ids in that order (12 bytes a row).
//! Three more arrays are pure functions of that order and are derived
//! on first use, so an engine pays only for the paths its workload
//! takes:
//!
//! * the **prefix-sum pair** of the measure and its square in sorted
//!   order (16 bytes a row) — attributes answered by the prefix path;
//! * the **measure in sorted order** (8) — attributes a scan runs over;
//! * the **inverse permutation** `inv[row] = position` (4) — attributes
//!   a scan verifies by rank.
//!
//! [`QueryEngine::index_bytes`] reports what is held. A
//! [`QueryEngine::resume`] that extends an index derives them again
//! from the merged order; it never carries them over.
//!
//! # The three paths
//!
//! A predicate with axis bounds ([`PredicateFn::axis_bounds`]) is
//! answered from the index, otherwise by a full scan of the table.
//!
//! 1. **Prefix sums** — bounds that *are* the predicate
//!    ([`PredicateFn::axis_bounds_exact`]) over a single attribute:
//!    COUNT/SUM/AVG/STD from two binary searches, no row visited.
//! 2. **Rank-verified scan** — exact bounds over several attributes.
//!    The scan runs over the attribute with the narrowest band; every
//!    other bound becomes a position range `[lo, hi)` in *its own*
//!    attribute's order, and a candidate row passes when
//!    `inv[row] - lo < hi - lo` (one wrapping integer compare). Equal
//!    values sit on one side of every partition point, so the rank test
//!    equals the value test `lo_v <= x < hi_v` under ties, NaN bounds
//!    and negative widths. The predicate is never called and no table
//!    row is read.
//! 3. **Predicate-verified scan** — bounds that are only a bounding box
//!    (rotated rectangles, spheres): the same choice of scan attribute,
//!    then [`PredicateFn::matches`] on each candidate row. Tests use it
//!    as the oracle for path 2 by hiding a range predicate's exactness.
//!
//! # Accumulation order
//!
//! Paths 2 and 3 pick the scan attribute by the same rule — narrowest
//! band **with both endpoints included**, first bound wins a tie — and
//! feed the matching measure values to the same running sums
//! ([`Moments`]'s `Extend`) in ascending position of that attribute's
//! order. Floating-point addition is not associative; holding this
//! order fixed is what keeps every label, and so every trained weight,
//! the same bits whichever path computed it. Path 1 subtracts two
//! prefix sums instead and is only ever taken for single-bound
//! predicates, as before; a band of one row is the exception, answered
//! from that row alone, bitwise what a scan gives.
//!
//! Batch labeling runs in parallel over the shared [`par`] worker pool,
//! with one reusable scratch buffer per worker (mirroring the paper's
//! GPU-parallel label generation).

use crate::aggregate::{Aggregate, Moments};
use crate::predicate::PredicateFn;
use datagen::Dataset;
use std::mem::size_of_val;
use std::sync::OnceLock;

/// Candidates per block of the rank-verified scan: the keep mask and
/// the compacted values of one block live on the stack.
const BLOCK: usize = 256;

/// One axis bound resolved to positions in its attribute's sorted
/// order.
#[derive(Debug, Clone, Copy)]
struct Span {
    attr: usize,
    /// First position with a value `>= lo_v`.
    lo: usize,
    /// End of the half-open band: first position `>= lo` with a value
    /// `>= hi_v`.
    hi: usize,
    /// End of the inclusive band: past the values equal to `hi_v` too.
    hi_incl: usize,
}

/// One attribute's slice of the sorted-column index.
#[derive(Debug, Clone)]
struct AttrIndex {
    /// The attribute's values in ascending order.
    vals: Vec<f64>,
    /// Row ids aligned with `vals`.
    rows: Vec<u32>,
    /// `inv[row]` = the row's position in `rows`.
    inv: OnceLock<Vec<u32>>,
    /// The measure column in `rows` order.
    measure: OnceLock<Vec<f64>>,
    /// `prefix[i]` = `[Σ m, Σ m²]` over the first `i` sorted rows.
    prefix: OnceLock<Vec<[f64; 2]>>,
}

impl AttrIndex {
    /// Finish an index from a sorted row order. Both the full build and
    /// the incremental merge end here, and everything derived later is
    /// a function of this order alone, so the two agree bit for bit.
    fn from_order(order: Vec<u32>, col: &[f64]) -> AttrIndex {
        AttrIndex {
            vals: order.iter().map(|&r| col[r as usize]).collect(),
            rows: order,
            inv: OnceLock::new(),
            measure: OnceLock::new(),
            prefix: OnceLock::new(),
        }
    }

    fn build(data: &Dataset, attr: usize) -> AttrIndex {
        let n = data.rows();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let col = data.column(attr);
        order.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        AttrIndex::from_order(order, &col)
    }

    /// Merge the appended rows `old_rows..data.rows()` into this index
    /// without re-sorting the existing rows: sort only the delta
    /// (`O(m log m)`), then merge the two sorted runs (`O(n + m)`). Ties
    /// break exactly as the stable full sort does — existing rows first
    /// (their row ids all precede the delta's), delta rows in row order —
    /// so the merged order, and with it every derived array, is
    /// **bitwise identical** to a from-scratch [`AttrIndex::build`] over
    /// the grown table. The derived arrays of `self` describe the old
    /// order and are dropped.
    fn extended(self, data: &Dataset, attr: usize, old_rows: usize) -> AttrIndex {
        let n = data.rows();
        let col = data.column(attr);
        let mut delta: Vec<u32> = (old_rows as u32..n as u32).collect();
        delta.sort_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
        let mut order = Vec::with_capacity(n);
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.vals.len() && j < delta.len() {
            // total_cmp, not `<=`: the full sort orders -0.0 before 0.0,
            // and the merge must reproduce that exactly.
            if self.vals[i].total_cmp(&col[delta[j] as usize]).is_le() {
                order.push(self.rows[i]);
                i += 1;
            } else {
                order.push(delta[j]);
                j += 1;
            }
        }
        order.extend_from_slice(&self.rows[i..]);
        order.extend_from_slice(&delta[j..]);
        AttrIndex::from_order(order, &col)
    }

    /// The measure column read in this attribute's sorted order.
    fn measure_in_order<'s>(
        &'s self,
        data: &'s Dataset,
        measure: usize,
    ) -> impl Iterator<Item = f64> + 's {
        let (raw, d) = (data.raw(), data.dims());
        self.rows
            .iter()
            .map(move |&r| raw[r as usize * d + measure])
    }

    fn inv(&self) -> &[u32] {
        self.inv.get_or_init(|| {
            let mut inv = vec![0u32; self.rows.len()];
            for (pos, &r) in self.rows.iter().enumerate() {
                inv[r as usize] = pos as u32;
            }
            inv
        })
    }

    fn sorted_measure(&self, data: &Dataset, measure: usize) -> &[f64] {
        self.measure
            .get_or_init(|| self.measure_in_order(data, measure).collect())
    }

    fn prefix(&self, data: &Dataset, measure: usize) -> &[[f64; 2]] {
        self.prefix.get_or_init(|| {
            let mut prefix = Vec::with_capacity(self.rows.len() + 1);
            let (mut s, mut s2) = (0.0f64, 0.0f64);
            prefix.push([s, s2]);
            for m in self.measure_in_order(data, measure) {
                s += m;
                s2 += m * m;
                prefix.push([s, s2]);
            }
            prefix
        })
    }

    /// Bytes held: the eager pair plus whatever has been derived so far.
    fn bytes(&self) -> usize {
        size_of_val(&self.vals[..])
            + size_of_val(&self.rows[..])
            + self.inv.get().map_or(0, |v| size_of_val(&v[..]))
            + self.measure.get().map_or(0, |v| size_of_val(&v[..]))
            + self.prefix.get().map_or(0, |v| size_of_val(&v[..]))
    }

    /// Half-open sorted range `[lo, hi)` of positions whose value is in
    /// `[lo_v, hi_v)`.
    fn range_half_open(&self, lo_v: f64, hi_v: f64) -> (usize, usize) {
        let lo = self.vals.partition_point(|v| *v < lo_v);
        let hi = self.vals.partition_point(|v| *v < hi_v);
        (lo, hi.max(lo))
    }

    /// Resolve the bound `(attr, lo_v, hi_v)` on this attribute: the
    /// half-open band, and the inclusive one that also holds the values
    /// equal to `hi_v` (the conservative candidate range of a predicate
    /// whose bounds are inclusive).
    fn span(&self, attr: usize, lo_v: f64, hi_v: f64) -> Span {
        let (lo, hi) = self.range_half_open(lo_v, hi_v);
        let ties = self.vals[hi..].partition_point(|v| *v <= hi_v);
        Span {
            attr,
            lo,
            hi,
            hi_incl: hi + ties,
        }
    }
}

/// Why an [`IndexSnapshot`] could not be resumed over a grown table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The grown table has fewer rows than the snapshot indexed — rows
    /// were deleted, which the append-only incremental path cannot
    /// represent. Rebuild with [`QueryEngine::new`].
    Shrunk {
        /// Rows the snapshot's index covers.
        indexed: usize,
        /// Rows the offered table holds.
        got: usize,
    },
    /// The grown table's column count differs from the snapshot's.
    SchemaChanged {
        /// Attribute count the snapshot indexed.
        indexed: usize,
        /// Attribute count of the offered table.
        got: usize,
    },
    /// The grown table's first rows are not byte-identical to the rows
    /// the snapshot indexed — the "old data is a prefix" contract is
    /// broken (an update or re-sort happened, not an append).
    PrefixChanged,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Shrunk { indexed, got } => {
                write!(
                    f,
                    "table shrank: snapshot indexed {indexed} rows, table has {got}"
                )
            }
            ResumeError::SchemaChanged { indexed, got } => {
                write!(
                    f,
                    "schema changed: snapshot indexed {indexed} columns, table has {got}"
                )
            }
            ResumeError::PrefixChanged => {
                write!(
                    f,
                    "existing rows changed: the snapshot's rows are not a prefix of the table"
                )
            }
        }
    }
}

impl std::error::Error for ResumeError {}

/// A [`QueryEngine`]'s sorted-column index, detached from the dataset
/// borrow so ingestion can append rows between queries:
///
/// ```
/// use datagen::Dataset;
/// use query::exec::QueryEngine;
///
/// let mut data = Dataset::from_rows(
///     vec!["a".into(), "m".into()],
///     &[vec![0.1, 1.0], vec![0.9, 2.0]],
/// ).unwrap();
/// let delta = Dataset::from_rows(vec!["a".into(), "m".into()], &[vec![0.5, 3.0]]).unwrap();
///
/// let engine = QueryEngine::new(&data, 1);
/// let snapshot = engine.into_snapshot(); // releases the borrow on `data`
/// data.append(&delta).unwrap();
/// let engine = QueryEngine::resume(snapshot, &data).unwrap();
/// assert_eq!(engine.dataset().rows(), 3);
/// ```
///
/// [`QueryEngine::resume`] merges the appended rows into each sorted
/// column in `O(n + m log m)` instead of the `O((n + m) log (n + m))`
/// full re-sort, and the resumed engine is **bitwise identical** to a
/// freshly built one — same sorted orders, hence the same derived
/// arrays and the same answers.
#[derive(Debug, Clone)]
pub struct IndexSnapshot {
    measure: usize,
    rows: usize,
    dims: usize,
    prefix_fingerprint: u64,
    index: Vec<AttrIndex>,
}

impl IndexSnapshot {
    /// Rows the snapshot's index covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The measure column the snapshot's engine aggregates.
    pub fn measure(&self) -> usize {
        self.measure
    }
}

/// FNV-1a 64-bit over a byte stream — the workspace's one
/// non-cryptographic integrity hash, shared by the engine-snapshot
/// prefix fingerprint here and `neurosketch::persist`'s artifact
/// checksums. Detects truncation, bit rot and swapped content; it is
/// *not* collision-resistant against an adversary.
pub fn fnv1a_64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the row-major bytes of the first `rows` rows — the cheap
/// integrity check behind [`ResumeError::PrefixChanged`].
fn prefix_fingerprint(data: &Dataset, rows: usize) -> u64 {
    fnv1a_64(
        data.raw()[..rows * data.dims()]
            .iter()
            .flat_map(|v| v.to_le_bytes()),
    )
}

/// Exact evaluator of query functions over a dataset.
///
/// Construction sorts every attribute column once (`O(d · n log n)`,
/// 12 bytes per row per attribute); each engine is expected to label
/// many queries, which is exactly how the build pipeline uses it. The
/// rest of the index is derived on first use (see the module docs) and
/// never exceeds 40 bytes per row per attribute. When the table grows
/// by appends, the snapshot/resume pair
/// ([`QueryEngine::into_snapshot`] / [`QueryEngine::resume`]) reindexes
/// incrementally instead.
#[derive(Debug, Clone)]
pub struct QueryEngine<'a> {
    data: &'a Dataset,
    measure: usize,
    index: Vec<AttrIndex>,
}

impl<'a> QueryEngine<'a> {
    /// Evaluate over `data`, aggregating the `measure` column.
    ///
    /// # Panics
    /// Panics if `measure` is out of range — this is a programming error,
    /// not user input.
    pub fn new(data: &'a Dataset, measure: usize) -> Self {
        assert!(
            measure < data.dims(),
            "measure column {measure} out of range"
        );
        let index = (0..data.dims())
            .map(|a| AttrIndex::build(data, a))
            .collect();
        QueryEngine {
            data,
            measure,
            index,
        }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.data
    }

    /// Detach the engine's index from its dataset borrow, so the caller
    /// can [`append`](datagen::Dataset::append) a delta and
    /// [`resume`](QueryEngine::resume) without a full re-sort.
    pub fn into_snapshot(self) -> IndexSnapshot {
        IndexSnapshot {
            measure: self.measure,
            rows: self.data.rows(),
            dims: self.data.dims(),
            prefix_fingerprint: prefix_fingerprint(self.data, self.data.rows()),
            index: self.index,
        }
    }

    /// Rebuild an engine over `grown` — the snapshot's table with zero or
    /// more rows appended — by merging only the delta into each sorted
    /// column index (`O(d · (n + m log m))`). The result is bitwise
    /// identical to `QueryEngine::new(grown, snapshot.measure())`.
    ///
    /// The contract — `grown`'s first `snapshot.rows()` rows are exactly
    /// the rows the snapshot indexed — is verified with a byte
    /// fingerprint, so an update-in-place or re-sort masquerading as an
    /// append is a typed [`ResumeError`], never a silently wrong index.
    pub fn resume(
        snapshot: IndexSnapshot,
        grown: &'a Dataset,
    ) -> Result<QueryEngine<'a>, ResumeError> {
        if grown.dims() != snapshot.dims {
            return Err(ResumeError::SchemaChanged {
                indexed: snapshot.dims,
                got: grown.dims(),
            });
        }
        if grown.rows() < snapshot.rows {
            return Err(ResumeError::Shrunk {
                indexed: snapshot.rows,
                got: grown.rows(),
            });
        }
        if prefix_fingerprint(grown, snapshot.rows) != snapshot.prefix_fingerprint {
            return Err(ResumeError::PrefixChanged);
        }
        let index = if grown.rows() == snapshot.rows {
            snapshot.index
        } else {
            snapshot
                .index
                .into_iter()
                .enumerate()
                .map(|(attr, ai)| ai.extended(grown, attr, snapshot.rows))
                .collect()
        };
        Ok(QueryEngine {
            data: grown,
            measure: snapshot.measure,
            index,
        })
    }

    /// The measure column index.
    pub fn measure(&self) -> usize {
        self.measure
    }

    /// Bytes the index holds right now: 12 per row per attribute from
    /// construction, plus what queries have derived since — 8 for an
    /// attribute scans have run over, 4 for one verified by rank, 16 for
    /// one answered from prefix sums (40 at most, `O(d · n)`).
    pub fn index_bytes(&self) -> usize {
        self.index.iter().map(AttrIndex::bytes).sum()
    }

    /// Exact answer `f_D(q)`.
    pub fn answer(&self, pred: &dyn PredicateFn, agg: Aggregate, q: &[f64]) -> f64 {
        let mut scratch = Vec::new();
        self.answer_with(&mut scratch, pred, agg, q)
    }

    /// Exact answer using a caller-provided scratch buffer, so repeated
    /// calls (batch labeling, per-worker loops) allocate nothing in
    /// steady state.
    ///
    /// Every non-MEDIAN aggregate is finished from
    /// [`QueryEngine::moments`]: one accumulation serves both `answer`
    /// and `moments` on every path, which is what keeps the sharded
    /// gather-equals-answer invariant structural. MEDIAN is not a
    /// function of moments: it collects the matches of the same scans
    /// and selects.
    pub fn answer_with(
        &self,
        scratch: &mut Vec<f64>,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        q: &[f64],
    ) -> f64 {
        if !matches!(agg, Aggregate::Median) {
            return self
                .moments(pred, q)
                .finish(agg)
                .expect("every non-median aggregate is a function of moments");
        }
        debug_assert_eq!(q.len(), pred.query_dim());
        scratch.clear();
        match pred.axis_bounds(q) {
            Some(bounds) if !bounds.is_empty() => {
                self.scan_matching(pred, q, &bounds, |vals| scratch.extend_from_slice(vals))
            }
            _ => scratch.extend(
                self.data
                    .iter_rows()
                    .filter(|row| pred.matches(q, row))
                    .map(|row| row[self.measure]),
            ),
        }
        agg.apply(scratch)
    }

    /// The scan shared by the pruned answer and moments paths: resolve
    /// every bound to positions, scan the attribute with the narrowest
    /// inclusive band (the first such bound), and hand `sink` the
    /// measure values of the matching rows, in ascending position of
    /// that attribute's order, a slice at a time.
    fn scan_matching(
        &self,
        pred: &dyn PredicateFn,
        q: &[f64],
        bounds: &[(usize, f64, f64)],
        mut sink: impl FnMut(&[f64]),
    ) {
        let mut spans: Vec<Span> = bounds
            .iter()
            .map(|&(attr, lo_v, hi_v)| self.index[attr].span(attr, lo_v, hi_v))
            .collect();
        // `min_by_key` returns the first minimum. The choice is made on
        // the inclusive band on both paths so that they accumulate in
        // the same order.
        let narrowest = (0..spans.len())
            .min_by_key(|&i| spans[i].hi_incl - spans[i].lo)
            .expect("bounds nonempty");
        let scan = spans.swap_remove(narrowest);
        let ai = &self.index[scan.attr];
        if pred.axis_bounds_exact() {
            // A bound spanning its whole column holds for every row.
            spans.retain(|s| s.hi - s.lo < ai.rows.len());
            return self.scan_ranked(scan, &spans, sink);
        }
        // A bounding box: its endpoints stay included so the candidates
        // are a superset of the matches, and the predicate decides.
        let (raw, d) = (self.data.raw(), self.data.dims());
        for &r in &ai.rows[scan.lo..scan.hi_incl] {
            let row = &raw[r as usize * d..(r as usize + 1) * d];
            if pred.matches(q, row) {
                sink(std::slice::from_ref(&row[self.measure]));
            }
        }
    }

    /// Rank-verified scan over the half-open band of `scan`: a row
    /// passes when its position in each of `checks`' attribute orders
    /// lies in that bound's `[lo, hi)`. Per block of [`BLOCK`]
    /// candidates: one pass per check ANDs into a keep mask, then the
    /// band's measure values are compacted without a branch (every
    /// value is stored, the write cursor advances only for kept ones).
    fn scan_ranked(&self, scan: Span, checks: &[Span], mut sink: impl FnMut(&[f64])) {
        let ai = &self.index[scan.attr];
        let band = &ai.sorted_measure(self.data, self.measure)[scan.lo..scan.hi];
        if checks.is_empty() {
            return sink(band);
        }
        let mut keep = [0u8; BLOCK];
        let mut kept = [0.0f64; BLOCK];
        let rows = &ai.rows[scan.lo..scan.hi];
        for (rows, vals) in rows.chunks(BLOCK).zip(band.chunks(BLOCK)) {
            let keep = &mut keep[..rows.len()];
            keep.fill(1);
            for c in checks {
                let inv = self.index[c.attr].inv();
                let (lo, width) = (c.lo as u32, (c.hi - c.lo) as u32);
                let in_range = |pos: &u32| pos.wrapping_sub(lo) < width;
                // `get`, not `inv[r]`: every row id is in range, but a
                // loop with no panic in it is one the compiler can turn
                // into masked vector gathers.
                for (k, &r) in keep.iter_mut().zip(rows) {
                    *k &= inv.get(r as usize).is_some_and(in_range) as u8;
                }
            }
            let mut n = 0;
            for (&v, &k) in vals.iter().zip(&*keep) {
                // `n` counts the kept among the values before this one,
                // so it is below BLOCK; the modulo only tells the
                // compiler so.
                kept[n % BLOCK] = v;
                n += k as usize;
            }
            sink(&kept[..n]);
        }
    }

    /// Exact first three moments `(n, Σ, Σ²)` of the matching measure
    /// values — the sufficient statistics every non-MEDIAN aggregate is
    /// a function of ([`Aggregate::from_moments`]).
    ///
    /// This is the labeling primitive for sharded deployments
    /// (`neurosketch::shard`): per-shard engines label the same workload
    /// with per-shard moments, one model is trained per component, and
    /// gathered answers recombine exactly.
    pub fn moments(&self, pred: &dyn PredicateFn, q: &[f64]) -> Moments {
        debug_assert_eq!(q.len(), pred.query_dim());
        if let Some(bounds) = pred.axis_bounds(q) {
            if !bounds.is_empty() {
                return self.moments_pruned(pred, q, &bounds);
            }
        }
        Moments::of(
            self.data
                .iter_rows()
                .filter(|row| pred.matches(q, row))
                .map(|row| row[self.measure]),
        )
    }

    /// Index-assisted moment computation: prefix-sum differences when
    /// the bounds exactly define a single-attribute predicate, the
    /// shared scan otherwise.
    fn moments_pruned(
        &self,
        pred: &dyn PredicateFn,
        q: &[f64],
        bounds: &[(usize, f64, f64)],
    ) -> Moments {
        if pred.axis_bounds_exact() && bounds.len() == 1 {
            let (attr, lo_v, hi_v) = bounds[0];
            let ai = &self.index[attr];
            let (lo, hi) = ai.range_half_open(lo_v, hi_v);
            if hi - lo == 1 {
                // One row is its own moments, as the scan gives them. A
                // difference of two table-wide prefix sums carries their
                // rounding, and STD's `Σ²/n − (Σ/n)²` then misses 0.
                let row = ai.rows[lo] as usize;
                let v = self.data.raw()[row * self.data.dims() + self.measure];
                return Moments::of(std::iter::once(v));
            }
            let prefix = ai.prefix(self.data, self.measure);
            return Moments {
                n: (hi - lo) as f64,
                s: prefix[hi][0] - prefix[lo][0],
                s2: prefix[hi][1] - prefix[lo][1],
            };
        }
        let mut m = Moments::ZERO;
        self.scan_matching(pred, q, bounds, |vals| m.extend(vals.iter().copied()));
        m
    }

    /// Moment-label a batch of queries, in parallel across `threads`
    /// workers on the shared [`par`] pool; the moment analogue of
    /// [`QueryEngine::label_batch`]. Results are in input order.
    pub fn label_moments_batch(
        &self,
        pred: &dyn PredicateFn,
        queries: &[Vec<f64>],
        threads: usize,
    ) -> Vec<Moments> {
        let threads = effective_threads(queries.len(), threads);
        par::par_map(queries, threads, |_, q| self.moments(pred, q))
    }

    /// Label a batch of queries, in parallel across `threads` workers on
    /// the shared [`par`] pool. Results are in input order; each worker
    /// reuses one scratch buffer across all its queries.
    pub fn label_batch(
        &self,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        queries: &[Vec<f64>],
        threads: usize,
    ) -> Vec<f64> {
        let threads = effective_threads(queries.len(), threads);
        par::par_map_init(queries, threads, Vec::new, |scratch, _, q| {
            self.answer_with(scratch, pred, agg, q)
        })
    }
}

/// Shared small-batch downgrade for the labeling entry points: below
/// two queries per worker, thread spawn overhead beats the parallelism,
/// so run sequentially.
fn effective_threads(queries: usize, threads: usize) -> usize {
    if queries < 2 * threads.max(1) {
        1
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{HalfSpace, Range, RotatedRect};
    use datagen::Dataset;

    fn grid_data() -> Dataset {
        // 10 rows: attr0 = i/10, measure = i.
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0, i as f64]).collect();
        Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap()
    }

    #[test]
    fn count_and_sum_over_half_range() {
        let d = grid_data();
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        // attr0 in [0, 0.5): rows 0..=4.
        let q = [0.0, 0.5];
        assert_eq!(eng.answer(&pred, Aggregate::Count, &q), 5.0);
        assert_eq!(eng.answer(&pred, Aggregate::Sum, &q), 10.0);
        assert_eq!(eng.answer(&pred, Aggregate::Avg, &q), 2.0);
        assert_eq!(eng.answer(&pred, Aggregate::Median, &q), 2.0);
    }

    #[test]
    fn empty_range_yields_zero() {
        let d = grid_data();
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.95, 0.01];
        for agg in Aggregate::ALL {
            assert_eq!(eng.answer(&pred, agg, &q), 0.0, "{}", agg.name());
        }
    }

    #[test]
    fn batch_labels_match_sequential_and_parallel() {
        let d = grid_data();
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 50.0, 0.3]).collect();
        let seq = eng.label_batch(&pred, Aggregate::Sum, &queries, 1);
        let par = eng.label_batch(&pred, Aggregate::Sum, &queries, 4);
        assert_eq!(seq, par);
        assert_eq!(seq[0], eng.answer(&pred, Aggregate::Sum, &queries[0]));
    }

    /// The indexed paths must agree with a straight full scan on every
    /// aggregate and predicate shape (single-attr exact, multi-attr
    /// exact, bounding-box pruned, unprunable).
    #[test]
    fn indexed_paths_match_full_scan() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    (i as f64 * 0.37) % 1.0,
                    (i as f64 * 0.71) % 1.0,
                    ((i * i) as f64 * 0.13) % 1.0,
                ]
            })
            .collect();
        let d = Dataset::from_rows(vec!["a".into(), "b".into(), "m".into()], &rows).unwrap();
        let eng = QueryEngine::new(&d, 2);
        let scan = |pred: &dyn PredicateFn, agg: Aggregate, q: &[f64]| -> f64 {
            let mut vals: Vec<f64> = d
                .iter_rows()
                .filter(|row| pred.matches(q, row))
                .map(|row| row[2])
                .collect();
            agg.apply(&mut vals)
        };
        let preds: Vec<(Box<dyn PredicateFn>, Vec<f64>)> = vec![
            (Box::new(Range::new(vec![0], 3).unwrap()), vec![0.2, 0.5]),
            (
                Box::new(Range::new(vec![0, 1], 3).unwrap()),
                vec![0.1, 0.3, 0.6, 0.5],
            ),
            (
                Box::new(RotatedRect::new(0, 1, 3).unwrap()),
                vec![0.2, 0.2, 0.7, 0.6, 0.3],
            ),
            (Box::new(HalfSpace::new(0, 1, 3).unwrap()), vec![0.5, 0.1]),
        ];
        for (pred, q) in &preds {
            for agg in Aggregate::ALL {
                let got = eng.answer(pred.as_ref(), agg, q);
                let want = scan(pred.as_ref(), agg, q);
                assert!(
                    (got - want).abs() < 1e-9 * (1.0 + want.abs()),
                    "{} on {:?}: {got} vs {want}",
                    agg.name(),
                    q
                );
            }
        }
    }

    /// A single-attribute band holding one row answers from that row, as
    /// a scan would: `(1, v, v·v)` bit for bit, so STD is exactly 0 and
    /// AVG the row's own value. Differences of table-wide prefix sums
    /// gave a nonzero STD on about half of these ranges.
    #[test]
    fn one_row_prefix_range_is_the_row_itself() {
        let d = datagen::simple::uniform(20_000, 2, 17);
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        let mut by_attr: Vec<(f64, f64)> = d.iter_rows().map(|r| (r[0], r[1])).collect();
        by_attr.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in by_attr.windows(2).step_by(9).take(2_000) {
            let ((lo, v), (next, _)) = (pair[0], pair[1]);
            let q = [lo, (next - lo) / 2.0];
            let m = eng.moments(&pred, &q);
            let want = Moments::of(std::iter::once(v));
            assert_eq!(
                (m.n.to_bits(), m.s.to_bits(), m.s2.to_bits()),
                (want.n.to_bits(), want.s.to_bits(), want.s2.to_bits()),
                "range {q:?}"
            );
            assert_eq!(eng.answer(&pred, Aggregate::Std, &q), 0.0, "range {q:?}");
        }
    }

    /// `moments(pred, q).finish(agg)` must agree bit for bit with `answer` on every
    /// index path (prefix-sum exact, candidate-verified, full scan) —
    /// the sharded gather math is only as good as this equivalence.
    #[test]
    fn moments_agree_with_answers_on_every_path() {
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                vec![
                    (i as f64 * 0.37) % 1.0,
                    (i as f64 * 0.71) % 1.0,
                    ((i * i) as f64 * 0.13) % 1.0,
                ]
            })
            .collect();
        let d = Dataset::from_rows(vec!["a".into(), "b".into(), "m".into()], &rows).unwrap();
        let eng = QueryEngine::new(&d, 2);
        let preds: Vec<(Box<dyn PredicateFn>, Vec<f64>)> = vec![
            (Box::new(Range::new(vec![0], 3).unwrap()), vec![0.2, 0.5]),
            (
                Box::new(Range::new(vec![0, 1], 3).unwrap()),
                vec![0.1, 0.3, 0.6, 0.5],
            ),
            (
                Box::new(RotatedRect::new(0, 1, 3).unwrap()),
                vec![0.2, 0.2, 0.7, 0.6, 0.3],
            ),
            (Box::new(HalfSpace::new(0, 1, 3).unwrap()), vec![0.5, 0.1]),
        ];
        for (pred, q) in &preds {
            let m = eng.moments(pred.as_ref(), q);
            for agg in [
                Aggregate::Count,
                Aggregate::Sum,
                Aggregate::Avg,
                Aggregate::Std,
            ] {
                let direct = eng.answer(pred.as_ref(), agg, q);
                let via = m.finish(agg).unwrap();
                assert_eq!(
                    direct.to_bits(),
                    via.to_bits(),
                    "{} on {:?}: {direct} vs {via}",
                    agg.name(),
                    q
                );
            }
        }
    }

    /// Per-shard moments of a row partition merge to the whole table's
    /// moments — the exact-composition invariant sharding relies on.
    #[test]
    fn moments_compose_across_row_partitions() {
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i as f64 * 0.59) % 1.0, (i as f64 * 1.7) % 13.0])
            .collect();
        let d = Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap();
        let shards: Vec<Dataset> = (0..3)
            .map(|k| {
                let part: Vec<Vec<f64>> = rows.iter().skip(k).step_by(3).cloned().collect();
                Dataset::from_rows(vec!["a".into(), "m".into()], &part).unwrap()
            })
            .collect();
        let pred = Range::new(vec![0], 2).unwrap();
        let whole = QueryEngine::new(&d, 1);
        let engines: Vec<QueryEngine<'_>> = shards.iter().map(|s| QueryEngine::new(s, 1)).collect();
        for q in [[0.0, 1.0], [0.2, 0.5], [0.7, 0.1], [0.9, 0.4]] {
            let gathered = engines
                .iter()
                .fold(crate::aggregate::Moments::ZERO, |acc, e| {
                    acc.merge(e.moments(&pred, &q))
                });
            let direct = whole.moments(&pred, &q);
            assert_eq!(gathered.n, direct.n, "COUNT is bitwise under sharding");
            assert!((gathered.s - direct.s).abs() < 1e-9 * (1.0 + direct.s.abs()));
            assert!((gathered.s2 - direct.s2).abs() < 1e-9 * (1.0 + direct.s2.abs()));
        }
    }

    #[test]
    fn moment_labels_match_sequential_and_parallel() {
        let d = grid_data();
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        let queries: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 50.0, 0.3]).collect();
        let seq = eng.label_moments_batch(&pred, &queries, 1);
        let par = eng.label_moments_batch(&pred, &queries, 4);
        assert_eq!(seq, par);
        assert_eq!(seq[7], eng.moments(&pred, &queries[7]));
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let d = grid_data();
        let eng = QueryEngine::new(&d, 1);
        let pred = Range::new(vec![0], 2).unwrap();
        let mut scratch = Vec::new();
        for i in 0..20 {
            let q = [i as f64 / 25.0, 0.4];
            assert_eq!(
                eng.answer_with(&mut scratch, &pred, Aggregate::Median, &q),
                eng.answer(&pred, Aggregate::Median, &q)
            );
        }
    }

    #[test]
    #[should_panic(expected = "measure column")]
    fn bad_measure_panics() {
        let d = grid_data();
        let _ = QueryEngine::new(&d, 5);
    }

    /// Two grid-valued attributes (many ties, also across an append
    /// boundary) and an irrational-ish measure, so every sum is
    /// order-sensitive.
    fn tied_rows(range: std::ops::Range<usize>) -> Vec<Vec<f64>> {
        range
            .map(|i| {
                vec![
                    ((i % 10) as f64) / 10.0,
                    ((i * 7 % 13) as f64) / 13.0,
                    (i as f64 * 0.731) % 5.0,
                ]
            })
            .collect()
    }

    /// One single-attribute (prefix path) and one two-attribute
    /// (rank-verified scan) predicate over [`tied_rows`], with queries
    /// whose bounds land on stored values.
    fn tied_queries() -> Vec<(Range, Vec<f64>)> {
        let single = Range::new(vec![0], 3).unwrap();
        let pair = Range::new(vec![0, 1], 3).unwrap();
        (0..40)
            .flat_map(|i| {
                let c = i as f64 / 45.0;
                [
                    (single.clone(), vec![c, 0.35]),
                    (pair.clone(), vec![c, (i % 13) as f64 / 13.0, 0.35, 0.5]),
                    (pair.clone(), vec![0.1, c, 0.8, 0.2]),
                ]
            })
            .collect()
    }

    fn assert_engines_agree_bitwise(a: &QueryEngine<'_>, b: &QueryEngine<'_>) {
        for (pred, q) in tied_queries() {
            for agg in Aggregate::ALL {
                assert_eq!(
                    a.answer(&pred, agg, &q).to_bits(),
                    b.answer(&pred, agg, &q).to_bits(),
                    "{} at {q:?}",
                    agg.name()
                );
            }
            assert_eq!(a.moments(&pred, &q), b.moments(&pred, &q));
        }
    }

    /// A resumed engine must be indistinguishable from a fresh one:
    /// same sorted orders (including duplicate-value ties), same
    /// derived arrays — rebuilt from the merged order, not carried over
    /// from the old one — and bitwise-equal answers on every aggregate
    /// and index path.
    #[test]
    fn resumed_engine_matches_fresh_rebuild_bitwise() {
        let cols: Vec<String> = vec!["a".into(), "b".into(), "m".into()];
        let mut data = Dataset::from_rows(cols.clone(), &tied_rows(0..150)).unwrap();
        let delta = Dataset::from_rows(cols, &tied_rows(150..220)).unwrap();

        let old = QueryEngine::new(&data, 2);
        // Fill the old engine's derived arrays: they describe the old
        // order and must not survive the append.
        for (pred, q) in tied_queries() {
            old.moments(&pred, &q);
        }
        assert!(old.index_bytes() > 12 * 3 * 150);
        let snapshot = old.into_snapshot();
        assert_eq!(snapshot.rows(), 150);
        assert_eq!(snapshot.measure(), 2);
        data.append(&delta).unwrap();
        let resumed = QueryEngine::resume(snapshot, &data).unwrap();
        assert_eq!(resumed.index_bytes(), 12 * 3 * 220);
        let fresh = QueryEngine::new(&data, 2);

        // Index internals are identical, not just answer-equal.
        for (a, b) in resumed.index.iter().zip(&fresh.index) {
            assert_eq!(a.rows, b.rows);
            assert_eq!(a.vals, b.vals);
            assert_eq!(a.inv(), b.inv());
            assert_eq!(a.sorted_measure(&data, 2), b.sorted_measure(&data, 2));
            assert_eq!(a.prefix(&data, 2), b.prefix(&data, 2));
        }
        assert_engines_agree_bitwise(&resumed, &fresh);
    }

    /// A resume with nothing appended keeps the index as it is,
    /// derived arrays included.
    #[test]
    fn resume_with_no_delta_is_identity() {
        let d = grid_data();
        let snapshot = QueryEngine::new(&d, 1).into_snapshot();
        let resumed = QueryEngine::resume(snapshot, &d).unwrap();
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.0, 0.5];
        assert_eq!(resumed.answer(&pred, Aggregate::Sum, &q), 10.0);

        let data = Dataset::from_rows(vec!["a".into(), "b".into(), "m".into()], &tied_rows(0..150))
            .unwrap();
        let warm = QueryEngine::new(&data, 2);
        for (pred, q) in tied_queries() {
            warm.moments(&pred, &q);
        }
        let filled = warm.index_bytes();
        let resumed = QueryEngine::resume(warm.into_snapshot(), &data).unwrap();
        assert_eq!(resumed.index_bytes(), filled);
        assert_engines_agree_bitwise(&resumed, &QueryEngine::new(&data, 2));
    }

    /// The index grows only by what the workload's paths derive.
    #[test]
    fn derived_arrays_follow_the_workload() {
        let n = 300;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = i as f64;
                vec![
                    x * 0.37 % 1.0,
                    x * 0.71 % 1.0,
                    x * 0.13 % 1.0,
                    x * 0.59 % 7.0,
                ]
            })
            .collect();
        let cols = ["a", "b", "c", "m"].map(String::from).to_vec();
        let d = Dataset::from_rows(cols, &rows).unwrap();
        let derived = |e: &QueryEngine<'_>| -> Vec<[bool; 3]> {
            e.index
                .iter()
                .map(|ai| {
                    [
                        ai.inv.get().is_some(),
                        ai.measure.get().is_some(),
                        ai.prefix.get().is_some(),
                    ]
                })
                .collect()
        };

        // Two active attributes, each the narrower one in some query:
        // both get scanned (sorted measure) and verified (inverse).
        let eng = QueryEngine::new(&d, 3);
        assert_eq!(eng.index_bytes(), 12 * 4 * n);
        let pair = Range::new(vec![0, 1], 4).unwrap();
        let queries: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let c = i as f64 / 25.0;
                if i % 2 == 0 {
                    vec![c, 0.1, 0.1, 0.7]
                } else {
                    vec![0.1, c, 0.7, 0.1]
                }
            })
            .collect();
        eng.label_batch(&pair, Aggregate::Avg, &queries, 1);
        eng.label_moments_batch(&pair, &queries, 1);
        let (used, unused) = ([true, true, false], [false; 3]);
        assert_eq!(derived(&eng), [used, used, unused, unused]);
        assert_eq!(eng.index_bytes(), 12 * 4 * n + 2 * (8 + 4) * n);

        // One active attribute: one prefix pair, nothing else.
        let eng = QueryEngine::new(&d, 3);
        let single = Range::new(vec![1], 4).unwrap();
        let queries: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 25.0, 0.3]).collect();
        eng.label_batch(&single, Aggregate::Std, &queries, 1);
        let prefix_only = [false, false, true];
        assert_eq!(derived(&eng), [unused, prefix_only, unused, unused]);
        assert_eq!(eng.index_bytes(), 12 * 4 * n + 16 * (n + 1));

        // Everything derived on every attribute is the ceiling: 40
        // bytes per row per attribute (+ the prefix arrays' leading
        // zero entry).
        for ai in &eng.index {
            ai.inv();
            ai.sorted_measure(&d, 3);
            ai.prefix(&d, 3);
        }
        assert_eq!(eng.index_bytes(), 40 * 4 * n + 16 * 4);
    }

    /// Exact bounds are verified by rank on every index path: the
    /// predicate itself is never consulted.
    #[test]
    fn exact_bounds_never_reach_matches() {
        struct NoMatches(Range);
        impl PredicateFn for NoMatches {
            fn query_dim(&self) -> usize {
                self.0.query_dim()
            }
            fn matches(&self, _q: &[f64], _x: &[f64]) -> bool {
                panic!("an exact-bounds predicate was asked to verify a row")
            }
            fn axis_bounds(&self, q: &[f64]) -> Option<Vec<(usize, f64, f64)>> {
                self.0.axis_bounds(q)
            }
            fn axis_bounds_exact(&self) -> bool {
                true
            }
        }
        let data = Dataset::from_rows(vec!["a".into(), "b".into(), "m".into()], &tied_rows(0..600))
            .unwrap();
        let eng = QueryEngine::new(&data, 2);
        for (pred, q) in tied_queries() {
            let silent = NoMatches(pred.clone());
            for agg in Aggregate::ALL {
                assert_eq!(
                    eng.answer(&silent, agg, &q).to_bits(),
                    eng.answer(&pred, agg, &q).to_bits()
                );
            }
            assert_eq!(eng.moments(&silent, &q), eng.moments(&pred, &q));
        }
    }

    #[test]
    fn resume_rejects_shrunk_changed_and_reshaped_tables() {
        let d = grid_data();
        let snap = || QueryEngine::new(&d, 1).into_snapshot();

        let shrunk = d.take(5);
        assert_eq!(
            QueryEngine::resume(snap(), &shrunk).unwrap_err(),
            ResumeError::Shrunk {
                indexed: 10,
                got: 5
            }
        );

        let reshaped = d.project(&[0]).unwrap();
        assert_eq!(
            QueryEngine::resume(snap(), &reshaped).unwrap_err(),
            ResumeError::SchemaChanged { indexed: 2, got: 1 }
        );

        // Same shape, but an existing row was edited: not an append.
        let mut edited_rows: Vec<Vec<f64>> = d.iter_rows().map(|r| r.to_vec()).collect();
        edited_rows[3][1] = 99.0;
        let edited = Dataset::from_rows(vec!["a".into(), "m".into()], &edited_rows).unwrap();
        assert_eq!(
            QueryEngine::resume(snap(), &edited).unwrap_err(),
            ResumeError::PrefixChanged
        );
    }
}
