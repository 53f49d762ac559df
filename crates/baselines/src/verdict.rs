//! VerdictDB-style stratified sampling (Park et al., SIGMOD 2018).
//!
//! VerdictDB pre-computes "scramble" tables: stratified samples with
//! per-row sampling weights, so rare strata stay represented. We stratify
//! on the measure column's quantiles — the choice that most affects
//! aggregate accuracy — draw an equal budget per stratum, and weight each
//! sampled row by `stratum_size / stratum_sample_size`.
//!
//! Capability parity with the paper: COUNT/SUM/AVG only ("VerdictDB and
//! DeepDB implementation did not support STDEV"; Table 2's MEDIAN is also
//! declined).

use crate::{AqpEngine, Unsupported};
use datagen::Dataset;
use query::aggregate::Aggregate;
use query::predicate::PredicateFn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Stratified-sample AQP engine.
#[derive(Debug, Clone)]
pub struct StratifiedSampler {
    /// Sampled rows, flat row-major.
    rows: Vec<f64>,
    /// Per-sampled-row weight (`stratum_size / stratum_sample_count`).
    weights: Vec<f64>,
    dims: usize,
    measure: usize,
}

impl StratifiedSampler {
    /// Build with `strata` measure-quantile strata and a total budget of
    /// `k` samples.
    ///
    /// # Panics
    /// Panics on an empty dataset, `k == 0`, `strata == 0`, or a bad
    /// measure column.
    pub fn build(data: &Dataset, measure: usize, k: usize, strata: usize, seed: u64) -> Self {
        assert!(data.rows() > 0, "empty dataset");
        assert!(k > 0 && strata > 0, "k and strata must be positive");
        assert!(measure < data.dims(), "measure column out of range");
        let n = data.rows();
        let strata = strata.min(n);
        let k = k.min(n);

        // Order rows by measure value and cut into equal-count strata.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            data.value(a, measure)
                .partial_cmp(&data.value(b, measure))
                .expect("no NaN")
        });
        let stratum_size = n.div_ceil(strata);
        let per_stratum_budget = (k / strata).max(1);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut weights = Vec::new();
        for chunk in order.chunks(stratum_size) {
            let mut ids = chunk.to_vec();
            ids.shuffle(&mut rng);
            let take = per_stratum_budget.min(ids.len());
            let w = chunk.len() as f64 / take as f64;
            for &i in &ids[..take] {
                rows.extend_from_slice(data.row(i));
                weights.push(w);
            }
        }
        StratifiedSampler {
            rows,
            weights,
            dims: data.dims(),
            measure,
        }
    }

    fn iter_rows(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.rows
            .chunks_exact(self.dims)
            .zip(self.weights.iter().copied())
    }
}

impl AqpEngine for StratifiedSampler {
    fn name(&self) -> &'static str {
        "VerdictDB"
    }

    fn answer(
        &self,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        q: &[f64],
    ) -> Result<f64, Unsupported> {
        if !matches!(agg, Aggregate::Count | Aggregate::Sum | Aggregate::Avg) {
            return Err(Unsupported::Aggregate(agg));
        }
        let (mut wsum, mut wvsum) = (0.0f64, 0.0f64);
        for (row, w) in self.iter_rows() {
            if pred.matches(q, row) {
                wsum += w;
                wvsum += w * row[self.measure];
            }
        }
        Ok(match agg {
            Aggregate::Count => wsum,
            Aggregate::Sum => wvsum,
            Aggregate::Avg => {
                if wsum > 0.0 {
                    wvsum / wsum
                } else {
                    0.0
                }
            }
            _ => unreachable!("filtered above"),
        })
    }

    fn storage_bytes(&self) -> usize {
        // Samples plus one weight per row.
        self.weights.len() * (self.dims + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::simple::uniform;
    use query::predicate::Range;
    use query::QueryEngine;

    #[test]
    fn full_budget_is_nearly_exact() {
        let data = uniform(2000, 2, 1);
        let engine = QueryEngine::new(&data, 1);
        let vs = StratifiedSampler::build(&data, 1, 2000, 10, 0);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.2, 0.5];
        for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::Avg] {
            let exact = engine.answer(&pred, agg, &q);
            let est = vs.answer(&pred, agg, &q).unwrap();
            assert!(
                (exact - est).abs() / exact.abs().max(1.0) < 0.02,
                "{}: exact {exact} est {est}",
                agg.name()
            );
        }
    }

    #[test]
    fn weighted_count_is_close_on_subsample() {
        let data = uniform(20_000, 2, 2);
        let engine = QueryEngine::new(&data, 1);
        let vs = StratifiedSampler::build(&data, 1, 2_000, 20, 3);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.3, 0.4];
        let exact = engine.answer(&pred, Aggregate::Count, &q);
        let est = vs.answer(&pred, Aggregate::Count, &q).unwrap();
        assert!(
            (exact - est).abs() / exact < 0.12,
            "exact {exact} est {est}"
        );
    }

    #[test]
    fn declines_std_and_median() {
        let data = uniform(100, 2, 4);
        let vs = StratifiedSampler::build(&data, 1, 50, 5, 0);
        let pred = Range::new(vec![0], 2).unwrap();
        assert!(matches!(
            vs.answer(&pred, Aggregate::Std, &[0.0, 1.0]),
            Err(Unsupported::Aggregate(Aggregate::Std))
        ));
        assert!(vs.answer(&pred, Aggregate::Median, &[0.0, 1.0]).is_err());
    }

    #[test]
    fn strata_preserve_tail_representation() {
        // With stratification on the measure, the top stratum is always
        // represented: 50 strata of 20 rows each, 2 samples per stratum,
        // so the sampled max must come from the top stratum (>= 980).
        let rows: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![i as f64 / 1000.0, i as f64])
            .collect();
        let data = Dataset::from_rows(vec!["a".into(), "m".into()], &rows).unwrap();
        let vs = StratifiedSampler::build(&data, 1, 100, 50, 1);
        let max_measure = vs
            .iter_rows()
            .map(|(r, _)| r[1])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_measure >= 980.0, "sampled max {max_measure}");
    }

    #[test]
    fn empty_match_returns_zero() {
        let data = uniform(100, 2, 5);
        let vs = StratifiedSampler::build(&data, 1, 50, 5, 0);
        let pred = Range::new(vec![0], 2).unwrap();
        assert_eq!(
            vs.answer(&pred, Aggregate::Avg, &[0.99, 0.0001]).unwrap(),
            0.0
        );
    }
}
