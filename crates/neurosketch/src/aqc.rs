//! AQC — Average Query function Change (Sec. 3.1.4).
//!
//! LDQ, the Lipschitz constant of the normalized distribution query
//! function, is the paper's complexity measure but is a supremum over all
//! query pairs and depends on the unobservable data distribution. AQC is
//! the practical proxy the paper uses instead:
//!
//! ```text
//!   AQC = (1 / C(|Q|,2)) · Σ_{q,q'∈Q} |f(q) − f(q')| / ‖q − q'‖
//! ```
//!
//! averaged over sampled query pairs. We use the 1-norm in the
//! denominator, consistent with the paper's Lipschitz definition
//! (Sec. 3.1.1). For large query sets the exact pairwise sum is quadratic,
//! so [`aqc_sampled`] caps the number of pairs with a deterministic
//! stride-based pair sample.

/// Exact AQC over all `C(n,2)` pairs. Pairs at identical query points are
/// skipped (their difference quotient is undefined).
///
/// # Panics
/// Panics if `queries` and `values` differ in length.
pub fn aqc(queries: &[Vec<f64>], values: &[f64]) -> f64 {
    aqc_sampled(queries, values, usize::MAX)
}

/// AQC over at most `max_pairs` deterministically sampled pairs. With
/// `max_pairs >= C(n,2)` this equals [`aqc`].
pub fn aqc_sampled(queries: &[Vec<f64>], values: &[f64], max_pairs: usize) -> f64 {
    assert_eq!(queries.len(), values.len(), "queries/values must pair up");
    aqc_of(queries.len(), |i| (&queries[i], values[i]), max_pairs)
}

/// The one AQC loop, over `n` points read through `point(i)` (query,
/// value): every pair in `(i, j)` order when there are at most
/// `max_pairs`, else `max_pairs` pairs walked with a large stride
/// coprime with the pair count. A caller holding a subset of its rows
/// (a kd-tree leaf's query ids) reads them in place.
pub(crate) fn aqc_of<'a>(
    n: usize,
    point: impl Fn(usize) -> (&'a [f64], f64),
    max_pairs: usize,
) -> f64 {
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut pairs = 0usize;
    let mut add = |i: usize, j: usize| {
        let ((qi, vi), (qj, vj)) = (point(i), point(j));
        if let Some(r) = ratio(qi, qj, vi, vj) {
            total += r;
            pairs += 1;
        }
    };
    let all_pairs = n * (n - 1) / 2;
    if all_pairs <= max_pairs {
        for i in 0..n {
            for j in (i + 1)..n {
                add(i, j);
            }
        }
    } else {
        let stride = largest_coprime_stride(all_pairs);
        let mut idx = 0usize;
        for _ in 0..max_pairs {
            let (i, j) = unrank_pair(idx, n);
            add(i, j);
            idx = (idx + stride) % all_pairs;
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total / pairs as f64
    }
}

/// Normalized AQC standard deviation across partitions: `STD(R)/AVG(R)`
/// for `R = {AQC_N}` over kd-tree leaves (Table 3's second column). The
/// paper correlates this with the benefit of partitioning.
pub fn normalized_aqc_std(leaf_aqcs: &[f64]) -> f64 {
    if leaf_aqcs.is_empty() {
        return 0.0;
    }
    let n = leaf_aqcs.len() as f64;
    let mean = leaf_aqcs.iter().sum::<f64>() / n;
    if mean == 0.0 {
        return 0.0;
    }
    let var = leaf_aqcs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[inline]
fn ratio(q1: &[f64], q2: &[f64], v1: f64, v2: f64) -> Option<f64> {
    let dist: f64 = q1.iter().zip(q2).map(|(a, b)| (a - b).abs()).sum();
    if dist > 0.0 {
        Some((v1 - v2).abs() / dist)
    } else {
        None
    }
}

/// Map a linear pair index `k < n(n−1)/2` to `(i, j)`, `i < j`, over
/// `n` items, in constant time. Row `i` holds the `n − 1 − i` pairs
/// `(i, i+1..n)` and `first(i) = i(2n−1−i)/2` pairs precede it; the row
/// is the quadratic's root, then corrected against `first` in integers,
/// so float rounding cannot move the answer.
fn unrank_pair(k: usize, n: usize) -> (usize, usize) {
    let first = |i: usize| i * (2 * n - 1 - i) / 2;
    let b = (2 * n - 1) as f64;
    let root = (b - (b * b - 8.0 * k as f64).max(0.0).sqrt()) / 2.0;
    let mut i = (root as usize).min(n - 2);
    while first(i) > k {
        i -= 1;
    }
    while first(i + 1) <= k {
        i += 1;
    }
    (i, i + 1 + k - first(i))
}

/// A stride roughly 41% of `m` (golden-ratio-ish) made coprime with `m`.
fn largest_coprime_stride(m: usize) -> usize {
    let mut s = ((m as f64 * 0.381_966) as usize).max(1);
    while gcd(s, m) != 1 {
        s += 1;
    }
    s
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_function_has_zero_aqc() {
        let qs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let vs = vec![3.0; 10];
        assert_eq!(aqc(&qs, &vs), 0.0);
    }

    #[test]
    fn linear_function_aqc_equals_slope() {
        // f(q) = 2q: every difference quotient is exactly 2.
        let qs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 20.0]).collect();
        let vs: Vec<f64> = qs.iter().map(|q| 2.0 * q[0]).collect();
        assert!((aqc(&qs, &vs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn steeper_functions_have_larger_aqc() {
        let qs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 / 30.0]).collect();
        let smooth: Vec<f64> = qs.iter().map(|q| q[0]).collect();
        let sharp: Vec<f64> = qs
            .iter()
            .map(|q| if q[0] > 0.5 { 10.0 } else { 0.0 })
            .collect();
        assert!(aqc(&qs, &sharp) > aqc(&qs, &smooth));
    }

    #[test]
    fn duplicate_queries_are_skipped() {
        let qs = vec![vec![0.5], vec![0.5], vec![1.0]];
        let vs = vec![1.0, 2.0, 3.0];
        // Only pairs (0,2) and (1,2) count: |1-3|/0.5 = 4, |2-3|/0.5 = 2.
        assert!((aqc(&qs, &vs) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_matches_exact_when_budget_suffices() {
        let qs: Vec<Vec<f64>> = (0..15).map(|i| vec![(i as f64 * 0.618) % 1.0]).collect();
        let vs: Vec<f64> = qs.iter().map(|q| q[0] * q[0]).collect();
        assert_eq!(aqc(&qs, &vs), aqc_sampled(&qs, &vs, 1000));
    }

    #[test]
    fn sampled_approximates_exact_on_larger_sets() {
        let qs: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i as f64 * 0.754877) % 1.0, (i as f64 * 0.569840) % 1.0])
            .collect();
        let vs: Vec<f64> = qs.iter().map(|q| (6.0 * q[0]).sin() + q[1]).collect();
        let exact = aqc(&qs, &vs);
        let approx = aqc_sampled(&qs, &vs, 5000);
        assert!(
            (exact - approx).abs() / exact < 0.2,
            "exact {exact} approx {approx}"
        );
    }

    #[test]
    fn unrank_pair_is_a_bijection() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for k in 0..n * (n - 1) / 2 {
            let (i, j) = unrank_pair(k, n);
            assert!(i < j && j < n);
            assert!(seen.insert((i, j)));
        }
        assert_eq!(seen.len(), 21);
    }

    /// The closed form is the row-by-row walk, pair for pair, so
    /// sampled AQC visits the same pairs in the same order.
    #[test]
    fn unrank_pair_is_the_row_walk() {
        let walk = |mut k: usize, n: usize| {
            let mut i = 0;
            while k >= n - 1 - i {
                k -= n - 1 - i;
                i += 1;
            }
            (i, i + 1 + k)
        };
        for n in 2..80 {
            for k in 0..n * (n - 1) / 2 {
                assert_eq!(unrank_pair(k, n), walk(k, n), "n {n} k {k}");
            }
        }
        for n in [1_000, 5_000, 20_001] {
            let all = n * (n - 1) / 2;
            let stride = largest_coprime_stride(all);
            let mut k = 0;
            for _ in 0..2_000 {
                assert_eq!(unrank_pair(k, n), walk(k, n), "n {n} k {k}");
                k = (k + stride) % all;
            }
            assert_eq!(unrank_pair(all - 1, n), (n - 2, n - 1));
        }
    }

    #[test]
    fn normalized_std_zero_for_uniform_leaves() {
        assert_eq!(normalized_aqc_std(&[2.0, 2.0, 2.0]), 0.0);
        assert!(normalized_aqc_std(&[1.0, 3.0]) > 0.0);
        assert_eq!(normalized_aqc_std(&[]), 0.0);
    }

    #[test]
    fn small_sets_degenerate_to_zero() {
        assert_eq!(aqc(&[vec![0.1]], &[5.0]), 0.0);
        assert_eq!(aqc_sampled(&[], &[], 10), 0.0);
    }
}
