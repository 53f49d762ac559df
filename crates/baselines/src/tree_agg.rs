//! TREE-AGG (Sec. 5.1): uniform sampling plus an R-tree.
//!
//! "In a pre-processing step and for a parameter k, TREE-AGG samples k
//! data points from the database uniformly. Then, for performance
//! enhancement and easy pruning, it builds an R-tree index on the
//! samples." COUNT and SUM estimates are scaled by `n/k`; AVG, STD and
//! MEDIAN are computed directly on the matching samples (a uniform sample
//! is unbiased for them).

use crate::{AqpEngine, Unsupported};
use datagen::Dataset;
use query::aggregate::Aggregate;
use query::predicate::PredicateFn;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use spatial::RTree;

/// Uniform-sample + R-tree AQP engine.
#[derive(Debug, Clone)]
pub struct TreeAgg {
    tree: RTree,
    measure: usize,
    /// `n / k`: scale factor for extensive aggregates.
    scale: f64,
    sample_rows: usize,
}

impl TreeAgg {
    /// Sample `k` rows uniformly (without replacement) and index them.
    ///
    /// # Panics
    /// Panics if the dataset is empty, `k == 0`, or `measure` is out of
    /// range.
    pub fn build(data: &Dataset, measure: usize, k: usize, seed: u64) -> TreeAgg {
        assert!(data.rows() > 0, "empty dataset");
        assert!(k > 0, "sample size must be positive");
        assert!(measure < data.dims(), "measure column out of range");
        let n = data.rows();
        let k = k.min(n);
        let mut ids: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        ids.truncate(k);
        let mut flat = Vec::with_capacity(k * data.dims());
        for &i in &ids {
            flat.extend_from_slice(data.row(i));
        }
        TreeAgg {
            tree: RTree::bulk_load_flat(flat, data.dims()),
            measure,
            scale: n as f64 / k as f64,
            sample_rows: k,
        }
    }

    /// Collect the measure values of samples matching the predicate,
    /// using the R-tree when axis bounds exist and a sample scan
    /// otherwise (e.g. half-spaces).
    fn matching_values(&self, pred: &dyn PredicateFn, q: &[f64]) -> Vec<f64> {
        let mut vals = Vec::new();
        if let Some(mut bounds) = pred.axis_bounds(q) {
            // `axis_bounds` is a necessary condition with endpoints
            // included (a rotated rectangle matches points exactly on
            // its bounding box), while `RTree::search` is half-open —
            // nudge every upper bound one ulp up so the candidate set
            // stays a superset; `pred.matches` below is the exact test.
            for (_, _, hi) in &mut bounds {
                *hi = hi.next_up();
            }
            self.tree.search(&bounds, |id| {
                let row = self.tree.point(id);
                if pred.matches(q, row) {
                    vals.push(row[self.measure]);
                }
            });
        } else {
            for id in 0..self.tree.len() {
                let row = self.tree.point(id);
                if pred.matches(q, row) {
                    vals.push(row[self.measure]);
                }
            }
        }
        vals
    }
}

impl AqpEngine for TreeAgg {
    fn name(&self) -> &'static str {
        "TREE-AGG"
    }

    fn answer(
        &self,
        pred: &dyn PredicateFn,
        agg: Aggregate,
        q: &[f64],
    ) -> Result<f64, Unsupported> {
        let mut vals = self.matching_values(pred, q);
        let est = agg.apply(&mut vals);
        Ok(if agg.scales_with_n() {
            est * self.scale
        } else {
            est
        })
    }

    fn storage_bytes(&self) -> usize {
        // Sample rows at 8 bytes per value, plus ~40 bytes of MBR/node
        // overhead per FANOUT-sized group (amortized per row).
        self.sample_rows * self.tree.dims() * 8 + self.sample_rows * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::simple::uniform;
    use query::predicate::{Range, RotatedRect};
    use query::QueryEngine;

    #[test]
    fn full_sample_is_exact() {
        let data = uniform(1000, 2, 1);
        let engine = QueryEngine::new(&data, 1);
        let ta = TreeAgg::build(&data, 1, 1000, 0);
        let pred = Range::new(vec![0], 2).unwrap();
        for q in [[0.1, 0.3], [0.0, 1.0], [0.5, 0.2]] {
            for agg in Aggregate::ALL {
                let exact = engine.answer(&pred, agg, &q);
                let est = ta.answer(&pred, agg, &q).unwrap();
                assert!(
                    (exact - est).abs() < 1e-9,
                    "{} exact {exact} est {est}",
                    agg.name()
                );
            }
        }
    }

    /// A sampled point lying exactly on a rotated rectangle's bounding-box
    /// upper edge matches the predicate (inclusive endpoints) and must be
    /// counted even though the R-tree candidate search is half-open.
    #[test]
    fn rotated_rect_counts_points_on_bbox_edge() {
        let rows: Vec<Vec<f64>> = vec![
            vec![0.6, 0.6, 1.0], // exactly the bbox max corner
            vec![0.4, 0.4, 1.0], // interior
            vec![0.9, 0.9, 1.0], // outside
        ];
        let data =
            datagen::Dataset::from_rows(vec!["x".into(), "y".into(), "m".into()], &rows).unwrap();
        let ta = TreeAgg::build(&data, 2, 3, 0);
        let pred = RotatedRect::new(0, 1, 3).unwrap();
        // Axis-aligned rectangle (phi = 0) spanning [0.2,0.6] x [0.2,0.6].
        let q = [0.2, 0.2, 0.6, 0.6, 0.0];
        assert_eq!(ta.answer(&pred, Aggregate::Count, &q).unwrap(), 2.0);
    }

    #[test]
    fn subsample_approximates_count() {
        let data = uniform(20_000, 2, 2);
        let engine = QueryEngine::new(&data, 1);
        let ta = TreeAgg::build(&data, 1, 2_000, 3);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.2, 0.4];
        let exact = engine.answer(&pred, Aggregate::Count, &q);
        let est = ta.answer(&pred, Aggregate::Count, &q).unwrap();
        assert!((exact - est).abs() / exact < 0.1, "exact {exact} est {est}");
    }

    #[test]
    fn avg_is_not_scaled() {
        let data = uniform(10_000, 2, 4);
        let engine = QueryEngine::new(&data, 1);
        let ta = TreeAgg::build(&data, 1, 1_000, 5);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.0, 1.0];
        let exact = engine.answer(&pred, Aggregate::Avg, &q);
        let est = ta.answer(&pred, Aggregate::Avg, &q).unwrap();
        assert!((exact - est).abs() < 0.05, "exact {exact} est {est}");
    }

    #[test]
    fn supports_rotated_rectangles() {
        // TREE-AGG can answer Table 2's query (NeuroSketch's only
        // competitor there).
        let data = uniform(5_000, 3, 6);
        let ta = TreeAgg::build(&data, 2, 5_000, 7);
        let pred = RotatedRect::new(0, 1, 3).unwrap();
        let q = [0.3, 0.3, 0.7, 0.6, 0.3];
        let est = ta.answer(&pred, Aggregate::Median, &q).unwrap();
        let engine = QueryEngine::new(&data, 2);
        let exact = engine.answer(&pred, Aggregate::Median, &q);
        assert!((exact - est).abs() < 1e-9);
    }

    #[test]
    fn storage_scales_with_sample_size() {
        let data = uniform(10_000, 3, 8);
        let small = TreeAgg::build(&data, 2, 100, 0);
        let large = TreeAgg::build(&data, 2, 5_000, 0);
        assert!(large.storage_bytes() > 10 * small.storage_bytes());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = uniform(1000, 2, 9);
        let pred = Range::new(vec![0], 2).unwrap();
        let q = [0.25, 0.3];
        let a = TreeAgg::build(&data, 1, 200, 11)
            .answer(&pred, Aggregate::Sum, &q)
            .unwrap();
        let b = TreeAgg::build(&data, 1, 200, 11)
            .answer(&pred, Aggregate::Sum, &q)
            .unwrap();
        assert_eq!(a, b);
    }
}
