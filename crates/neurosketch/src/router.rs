//! DQD-guided query routing (Sec. 4.3, "NeuroSketch and DQD in
//! Practice").
//!
//! The paper proposes that a query processing engine use the DQD bound
//! *on the fly*: "queries with large ranges (that NeuroSketch answers
//! accurately according to DQD) can be answered by NeuroSketch, while
//! queries with smaller ranges can be asked directly from the database",
//! and during maintenance AQC decides which query functions are too hard
//! to model at all. [`DqdRouter`] implements both rules:
//!
//! * **range rule** — Lemma 3.6's `ξ` (match probability) grows with the
//!   range volume; below a volume threshold, route to the exact engine;
//! * **complexity rule** — if the query lands in a partition whose AQC
//!   exceeds a threshold, route to the exact engine.
//!
//! A router is the unit of deployment: [`crate::persist`] saves and
//! loads it (sketch + AQCs + policy, the NSK2 router section) and
//! [`crate::serve::SketchServer`] applies its rules to whole query
//! batches on the worker pool.

use crate::sketch::NeuroSketch;

/// Why a query was (or wasn't) routed to the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Answer with the NeuroSketch forward pass.
    Sketch,
    /// Range too small — sampling error would dominate (Lemma 3.6).
    ExactSmallRange,
    /// Partition too complex — approximation error would dominate.
    ExactHardLeaf,
}

/// Routing thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingPolicy {
    /// Minimum fractional range volume (product of active widths) the
    /// sketch accepts. `0.0` disables the range rule.
    pub min_range_volume: f64,
    /// Maximum per-partition AQC the sketch accepts. `f64::INFINITY`
    /// disables the complexity rule.
    pub max_leaf_aqc: f64,
}

impl Default for RoutingPolicy {
    fn default() -> Self {
        RoutingPolicy {
            min_range_volume: 0.0,
            max_leaf_aqc: f64::INFINITY,
        }
    }
}

/// A NeuroSketch paired with per-partition AQC estimates and a policy.
pub struct DqdRouter {
    sketch: NeuroSketch,
    /// AQC per partition, in the sketch's leaf order (as produced by
    /// `BuildReport::leaf_aqcs`).
    leaf_aqcs: Vec<f64>,
    policy: RoutingPolicy,
    /// The complexity rule, precomputed per partition:
    /// `leaf_aqcs[p] > policy.max_leaf_aqc`.
    hard: Vec<bool>,
}

impl DqdRouter {
    /// Pair a sketch with its build-time leaf AQCs (`report.leaf_aqcs`).
    ///
    /// # Panics
    /// Panics if `leaf_aqcs` does not have one entry per partition.
    pub fn new(sketch: NeuroSketch, leaf_aqcs: Vec<f64>, policy: RoutingPolicy) -> DqdRouter {
        assert_eq!(
            leaf_aqcs.len(),
            sketch.partitions(),
            "need one AQC per partition"
        );
        DqdRouter {
            hard: leaf_aqcs.iter().map(|&a| a > policy.max_leaf_aqc).collect(),
            sketch,
            leaf_aqcs,
            policy,
        }
    }

    /// The wrapped sketch.
    pub fn sketch(&self) -> &NeuroSketch {
        &self.sketch
    }

    /// Per-partition AQC estimates, in the sketch's leaf order.
    pub fn leaf_aqcs(&self) -> &[f64] {
        &self.leaf_aqcs
    }

    /// The active routing thresholds.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Decide where a query should go. `range_volume` is the product of
    /// the query's active range widths (`None` when the predicate has no
    /// meaningful volume, e.g. half-spaces — the range rule is skipped).
    pub fn route(&self, q: &[f64], range_volume: Option<f64>) -> Route {
        self.route_located(self.sketch.leaf_index_of(q), range_volume)
    }

    /// [`DqdRouter::route`] for a query already located in partition
    /// `leaf` — the batched serving path locates a batch once and reuses
    /// the leaf ids for routing and grouping.
    pub(crate) fn route_located(&self, leaf: usize, range_volume: Option<f64>) -> Route {
        if range_volume.is_some_and(|v| v < self.policy.min_range_volume) {
            Route::ExactSmallRange
        } else if self.hard[leaf] {
            Route::ExactHardLeaf
        } else {
            Route::Sketch
        }
    }

    /// Answer a query, falling back to `exact` when the policy routes
    /// away from the sketch. Returns the answer and the route taken.
    pub fn answer(
        &self,
        q: &[f64],
        range_volume: Option<f64>,
        exact: impl FnOnce(&[f64]) -> f64,
    ) -> (f64, Route) {
        let route = self.route(q, range_volume);
        let v = match route {
            Route::Sketch => self.sketch.answer(q),
            _ => exact(q),
        };
        (v, route)
    }
}

/// Range volume of a `[c..., r...]` query vector over `k` active
/// attributes: the product of the widths.
pub fn range_volume(q: &[f64], k: usize) -> f64 {
    assert!(
        q.len() >= 2 * k,
        "query vector too short for {k} active attrs"
    );
    q[k..2 * k].iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::NeuroSketchConfig;

    fn tiny_sketch() -> (NeuroSketch, Vec<f64>) {
        let qs: Vec<Vec<f64>> = (0..120)
            .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
            .collect();
        let labels: Vec<f64> = qs.iter().map(|q| q[0] + q[1]).collect();
        let mut cfg = NeuroSketchConfig::small();
        cfg.tree_height = 1;
        cfg.target_partitions = 2;
        cfg.train.epochs = 10;
        let (s, r) = NeuroSketch::build_from_labeled(&qs, &labels, &cfg).unwrap();
        (s, r.leaf_aqcs)
    }

    #[test]
    fn permissive_policy_always_routes_to_sketch() {
        let (s, aqcs) = tiny_sketch();
        let router = DqdRouter::new(s, aqcs, RoutingPolicy::default());
        assert_eq!(router.route(&[0.3, 0.2], Some(1e-9)), Route::Sketch);
        let (v, route) = router.answer(&[0.3, 0.2], None, |_| panic!("no fallback"));
        assert_eq!(route, Route::Sketch);
        assert!(v.is_finite());
    }

    #[test]
    fn small_ranges_fall_back_to_exact() {
        let (s, aqcs) = tiny_sketch();
        let policy = RoutingPolicy {
            min_range_volume: 0.01,
            ..RoutingPolicy::default()
        };
        let router = DqdRouter::new(s, aqcs, policy);
        assert_eq!(
            router.route(&[0.3, 0.2], Some(0.001)),
            Route::ExactSmallRange
        );
        assert_eq!(router.route(&[0.3, 0.2], Some(0.5)), Route::Sketch);
        // Volume-less predicates skip the range rule.
        assert_eq!(router.route(&[0.3, 0.2], None), Route::Sketch);
        let (v, route) = router.answer(&[0.3, 0.2], Some(0.001), |_| 42.0);
        assert_eq!((v, route), (42.0, Route::ExactSmallRange));
    }

    #[test]
    fn hard_leaves_fall_back_to_exact() {
        let (s, mut aqcs) = tiny_sketch();
        // Make one partition "hard": any query landing in it re-routes.
        let hard = aqcs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for a in &mut aqcs {
            if *a == hard {
                *a = 1e9;
            }
        }
        let policy = RoutingPolicy {
            max_leaf_aqc: 1e6,
            ..RoutingPolicy::default()
        };
        let router = DqdRouter::new(s, aqcs.clone(), policy);
        // Some query must land in the hard partition; probe a grid.
        let mut hit_hard = false;
        let mut hit_easy = false;
        for i in 0..10 {
            for j in 0..10 {
                let q = [i as f64 / 10.0, j as f64 / 10.0];
                match router.route(&q, None) {
                    Route::ExactHardLeaf => hit_hard = true,
                    Route::Sketch => hit_easy = true,
                    Route::ExactSmallRange => unreachable!("range rule disabled"),
                }
            }
        }
        assert!(hit_hard && hit_easy, "hard {hit_hard} easy {hit_easy}");
    }

    #[test]
    fn range_volume_multiplies_widths() {
        assert!((range_volume(&[0.1, 0.2, 0.5, 0.4], 2) - 0.2).abs() < 1e-12);
        assert_eq!(range_volume(&[0.0, 1.0], 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "one AQC per partition")]
    fn mismatched_aqcs_panic() {
        let (s, _) = tiny_sketch();
        let _ = DqdRouter::new(s, vec![1.0], RoutingPolicy::default());
    }
}
