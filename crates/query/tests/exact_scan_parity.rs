//! Bitwise parity of the rank-verified scan (`query::exec`, path 2)
//! with the predicate-verified scan it replaced for range predicates.
//!
//! The oracle is the same predicate behind [`Boxed`], which forwards
//! `matches` and `axis_bounds` but reports its bounds as a mere
//! bounding box: the engine then picks the same scan attribute and
//! calls `matches` on every candidate row — the only path there was
//! before. Labels come from this engine, so anything short of
//! `to_bits()` equality here would move every trained model.
//!
//! Public API only. Swept: 1–4 bounds, also several on one attribute;
//! grid-valued attributes with many ties; bounds equal to stored values
//! (the `== hi` rows the inclusive band holds and the half-open test
//! drops); empty and whole-table bands; band lengths around the scan's
//! 256-candidate blocks; negative widths; NaN and infinite bounds; a
//! bound covering its whole column (dropped from verification) and
//! `(0, 1)` over a column holding exactly `1.0` (not droppable).
//!
//! CI runs this file at `target-cpu=native` and at
//! `-C target-cpu=x86-64`: the mask and compaction loops are the part
//! the compiler vectorises differently per target.

use datagen::Dataset;
use proptest::prelude::*;
use query::{Aggregate, FixedWidthRange, Moments, PredicateFn, QueryEngine, Range};

/// Attribute columns of every test table; the measure is column `ATTRS`.
const ATTRS: usize = 4;

/// `P` with the exactness of its bounds hidden.
struct Boxed<'p>(&'p dyn PredicateFn);

impl PredicateFn for Boxed<'_> {
    fn query_dim(&self) -> usize {
        self.0.query_dim()
    }
    fn matches(&self, q: &[f64], x: &[f64]) -> bool {
        self.0.matches(q, x)
    }
    fn axis_bounds(&self, q: &[f64]) -> Option<Vec<(usize, f64, f64)>> {
        self.0.axis_bounds(q)
    }
}

/// The accumulation-order contract restated without the index: the
/// scan attribute is that of the first bound with the fewest rows in
/// its *closed* interval, and the matching rows are summed in that
/// attribute's ascending order, ties in row order. Both scans share the
/// code that picks the attribute, so only this pins the rule itself.
fn reference_moments(data: &Dataset, pred: &dyn PredicateFn, q: &[f64]) -> Moments {
    let bounds = pred.axis_bounds(q).expect("a range predicate");
    let closed = |&(a, lo, hi): &(usize, f64, f64)| {
        let inside = |x: &&[f64]| x[a] >= lo && x[a] <= hi;
        data.iter_rows().filter(inside).count()
    };
    // `min_by_key` returns the first minimum.
    let (attr, _, _) = *bounds.iter().min_by_key(|b| closed(b)).expect("a bound");
    let mut rows: Vec<&[f64]> = data.iter_rows().collect();
    rows.sort_by(|x, y| x[attr].total_cmp(&y[attr]));
    let matching = rows.into_iter().filter(|x| pred.matches(q, x));
    Moments::of(matching.map(|x| x[ATTRS]))
}

fn table(rows: &[Vec<f64>]) -> Dataset {
    let names = (0..=ATTRS).map(|c| format!("c{c}")).collect();
    Dataset::from_rows(names, rows).unwrap()
}

/// An order-sensitive measure: sums of these round differently in
/// every order.
fn measure(i: usize) -> f64 {
    (i as f64 * 0.731).sin() * 4.0 + 1.0 / (i as f64 + 3.0)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Every public entry point on `pred` against the oracle, on every
/// query. `bounds` is the number of bounds the predicate lists: with
/// one, the engine subtracts prefix sums instead of scanning — the same
/// value in another summation order — so the sums compare within
/// rounding and only COUNT and MEDIAN bit for bit.
fn assert_parity(
    engine: &QueryEngine<'_>,
    pred: &dyn PredicateFn,
    bounds: usize,
    queries: &[Vec<f64>],
) {
    let oracle = Boxed(pred);
    let bitwise: &[Aggregate] = if bounds == 1 {
        &[Aggregate::Count, Aggregate::Median]
    } else {
        &Aggregate::ALL
    };
    for q in queries {
        let (got, want) = (engine.moments(pred, q), engine.moments(&oracle, q));
        assert_eq!(got.n.to_bits(), want.n.to_bits(), "n at {q:?}");
        if bounds == 1 {
            assert!(close(got.s, want.s), "s at {q:?}: {got:?} vs {want:?}");
            assert!(close(got.s2, want.s2), "s2 at {q:?}: {got:?} vs {want:?}");
        } else {
            assert_eq!(got.s.to_bits(), want.s.to_bits(), "s at {q:?}");
            assert_eq!(got.s2.to_bits(), want.s2.to_bits(), "s2 at {q:?}");
        }
        let reference = reference_moments(engine.dataset(), pred, q);
        for (w, r) in [
            (want.n, reference.n),
            (want.s, reference.s),
            (want.s2, reference.s2),
        ] {
            assert_eq!(w.to_bits(), r.to_bits(), "oracle vs reference at {q:?}");
        }
        for &agg in bitwise {
            assert_eq!(
                engine.answer(pred, agg, q).to_bits(),
                engine.answer(&oracle, agg, q).to_bits(),
                "{} at {q:?}",
                agg.name()
            );
        }
    }
    for &agg in bitwise {
        let want = engine.label_batch(&oracle, agg, queries, 1);
        for threads in [1, 4] {
            let got = engine.label_batch(pred, agg, queries, threads);
            let same = got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "label_batch {} at {threads} threads", agg.name());
        }
    }
}

/// Table rows drawn by the sweeps: two grid-valued attributes (ninths
/// and seventeenths would never collide with a bound; eighths and
/// sixteenths do, and the first holds exactly `0.0` and `1.0`) and two
/// continuous ones.
fn drawn_rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let cell = ((0usize..9, 0usize..17), (0.0f64..1.0, 0.0f64..1.0));
    prop::collection::vec(cell, 1..700).prop_map(|cells| {
        cells
            .into_iter()
            .enumerate()
            .map(|(i, ((a, b), (c, d)))| vec![a as f64 / 8.0, b as f64 / 16.0, c, d, measure(i)])
            .collect()
    })
}

/// One `(corner, width)` pair: ordinary, on the grid, and each edge
/// case the module docs list.
fn drawn_bound() -> impl Strategy<Value = (f64, f64)> {
    (
        0usize..12,
        (0usize..17, 0usize..17),
        (-0.2f64..1.2, -0.3f64..1.3),
    )
        .prop_map(|(kind, (gc, gr), (c, r))| match kind {
            0..=3 => (c, r),
            4..=6 => (gc as f64 / 16.0, gr as f64 / 16.0),
            7 => (-1.0, 3.0),
            8 => (0.0, 1.0),
            9 => [(f64::NAN, r), (c, f64::NAN)][gc % 2],
            10 => [
                (f64::NEG_INFINITY, f64::INFINITY),
                (c, f64::INFINITY),
                (f64::NEG_INFINITY, r),
                (f64::INFINITY, r),
            ][gc % 4],
            _ => (c, 0.0),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn range_matches_the_predicate_verified_scan(
        rows in drawn_rows(),
        attrs in prop::collection::vec(0usize..ATTRS, 1..5),
        bounds in prop::collection::vec(prop::collection::vec(drawn_bound(), 4), 16),
    ) {
        let data = table(&rows);
        let engine = QueryEngine::new(&data, ATTRS);
        let k = attrs.len();
        let pred = Range::new(attrs, ATTRS + 1).unwrap();
        let queries: Vec<Vec<f64>> = bounds
            .iter()
            .map(|b| b[..k].iter().map(|b| b.0).chain(b[..k].iter().map(|b| b.1)).collect())
            .collect();
        assert_parity(&engine, &pred, k, &queries);
    }

    #[test]
    fn fixed_width_range_matches_the_predicate_verified_scan(
        rows in drawn_rows(),
        attrs in prop::collection::vec(0usize..ATTRS, 1..5),
        widths in prop::collection::vec((0usize..3, 1usize..17, 0.001f64..1.3), 4),
        bounds in prop::collection::vec(prop::collection::vec(drawn_bound(), 4), 16),
    ) {
        let data = table(&rows);
        let engine = QueryEngine::new(&data, ATTRS);
        let k = attrs.len();
        let widths = widths[..k]
            .iter()
            .map(|&(kind, grid, w)| [w, grid as f64 / 16.0, 3.0][kind])
            .collect();
        let pred = FixedWidthRange::new(attrs, widths, ATTRS + 1).unwrap();
        let queries: Vec<Vec<f64>> = bounds
            .iter()
            .map(|b| b[..k].iter().map(|b| b.0).collect())
            .collect();
        assert_parity(&engine, &pred, k, &queries);
    }
}

/// 700 rows: attribute 0 holds each of `0.0..700.0` once (in scattered
/// row order), attribute 1 is `0..8`, attribute 2 is eighths up to and
/// including `1.0`, attribute 3 is continuous.
fn stepped_table() -> Dataset {
    let rows: Vec<Vec<f64>> = (0..700)
        .map(|i| {
            vec![
                (i * 37 % 700) as f64,
                (i % 8) as f64,
                (i % 9) as f64 / 8.0,
                (i as f64 * 0.618) % 1.0,
                measure(i),
            ]
        })
        .collect();
    table(&rows)
}

/// Scanned bands of exactly 0, 1, 255, 256, 257, 512 and 513 candidates
/// (the block edges), each with a second bound that passes some rows of
/// every block and fails others.
#[test]
fn band_lengths_at_the_block_edges() {
    let data = stepped_table();
    let engine = QueryEngine::new(&data, ATTRS);
    let pred = Range::new(vec![0, 1], ATTRS + 1).unwrap();
    for len in [0usize, 1, 255, 256, 257, 512, 513] {
        let queries: Vec<Vec<f64>> = [0.0, 10.0, 150.0]
            .iter()
            .map(|&start| vec![start, 1.0, len as f64, 6.0])
            .collect();
        assert_parity(&engine, &pred, 2, &queries);
        for q in &queries {
            let (band, kept) = (q[0]..q[0] + q[2], 1.0..7.0);
            let expected = data
                .iter_rows()
                .filter(|x| band.contains(&x[0]) && kept.contains(&x[1]))
                .count();
            assert_eq!(engine.moments(&pred, q).n, expected as f64, "{q:?}");
        }
    }
}

/// A bound's upper end equal to stored values: the rows holding it are
/// in the inclusive band the scan attribute is chosen by, and outside
/// the half-open band that is scanned and verified.
#[test]
fn rows_equal_to_the_upper_end_are_dropped() {
    let data = stepped_table();
    let engine = QueryEngine::new(&data, ATTRS);
    let pred = Range::new(vec![1, 2], ATTRS + 1).unwrap();
    // [2, 5) x [0.25, 0.75): both upper ends are stored values.
    let q = vec![2.0, 0.25, 3.0, 0.5];
    assert_parity(&engine, &pred, 2, std::slice::from_ref(&q));
    let expected = data
        .iter_rows()
        .filter(|x| (2.0..5.0).contains(&x[1]) && (0.25..0.75).contains(&x[2]))
        .count();
    assert!(expected > 0);
    assert_eq!(engine.moments(&pred, &q).n, expected as f64);
}

/// A bound that spans its column is not verified at all; `(0, 1)` over
/// a column that holds `1.0` spans it only inclusively and must still
/// reject those rows.
#[test]
fn whole_column_bounds_are_dropped_only_when_half_open_whole() {
    let data = stepped_table();
    let engine = QueryEngine::new(&data, ATTRS);
    let pred = Range::new(vec![3, 2], ATTRS + 1).unwrap();
    let whole = vec![0.2, -1.0, 0.5, 3.0];
    let almost = vec![0.2, 0.0, 0.5, 1.0];
    assert_parity(&engine, &pred, 2, &[whole.clone(), almost.clone()]);
    let in_band = |x: &&[f64]| (0.2..0.7).contains(&x[3]);
    let all = data.iter_rows().filter(in_band).count();
    let ones = data
        .iter_rows()
        .filter(in_band)
        .filter(|x| x[2] == 1.0)
        .count();
    assert!(ones > 0);
    assert_eq!(engine.moments(&pred, &whole).n, all as f64);
    assert_eq!(engine.moments(&pred, &almost).n, (all - ones) as f64);
}

/// The same attribute listed more than once: the scan skips the bound
/// it chose, not every bound on that attribute.
#[test]
fn several_bounds_on_one_attribute_intersect() {
    let data = stepped_table();
    let engine = QueryEngine::new(&data, ATTRS);
    let twice = Range::new(vec![0, 0], ATTRS + 1).unwrap();
    // [100, 400) ∩ [300, 350): the second bound is the narrower one.
    let q = vec![100.0, 300.0, 300.0, 50.0];
    assert_parity(&engine, &twice, 2, std::slice::from_ref(&q));
    assert_eq!(engine.moments(&twice, &q).n, 50.0);
    let mixed = Range::new(vec![0, 1, 0, 0], ATTRS + 1).unwrap();
    let q = vec![100.0, 1.0, 300.0, 0.0, 300.0, 6.0, 50.0, 700.0];
    assert_parity(&engine, &mixed, 4, std::slice::from_ref(&q));
    assert!(engine.moments(&mixed, &q).n > 0.0);
}

/// Empty bands, whole-table bands, negative widths, NaN and infinite
/// bounds, spelled out (the sweeps draw them too).
#[test]
fn degenerate_bounds_answer_like_the_predicate() {
    let data = stepped_table();
    let engine = QueryEngine::new(&data, ATTRS);
    let pred = Range::new(vec![3, 2, 1], ATTRS + 1).unwrap();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let queries = vec![
        vec![-1.0, -1.0, -1.0, 3.0, 3.0, 10.0], // every row
        vec![0.5, 0.5, 2.0, 0.0, 0.25, 3.0],    // zero width
        vec![0.5, 0.5, 2.0, -0.2, 0.25, 3.0],   // negative width
        vec![nan, 0.0, 0.0, 1.0, 1.0, 8.0],
        vec![0.0, 0.0, 0.0, 1.0, nan, 8.0],
        vec![-inf, 0.0, 0.0, inf, 1.0, 8.0], // -inf + inf = NaN
        vec![0.3, -inf, 0.0, inf, 1.0, 8.0], // hi = -inf
        vec![0.3, 0.25, 2.0, inf, inf, inf], // open above
        vec![9.0, 0.0, 0.0, 1.0, 1.0, 8.0],  // beyond the column
    ];
    assert_parity(&engine, &pred, 3, &queries);
    assert_eq!(engine.moments(&pred, &queries[0]).n, 700.0);
    for q in &queries[1..7] {
        assert_eq!(engine.moments(&pred, q).n, 0.0, "{q:?}");
    }
    assert!(engine.moments(&pred, &queries[7]).n > 0.0);
}
