//! Property-based tests on the core data structures and the paper's
//! invariants, using proptest.

use nn::construction::{vertex_digits, GridNet, SlopeMode};
use proptest::prelude::*;
use query::aggregate::Aggregate;
use query::predicate::{PredicateFn, Range};
use spatial::{KdTree, RTree};

/// Strategy: a point in [0,1]^d.
fn unit_point(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, d)
}

/// Strategy: a valid (c, r) query over `k` active attrs.
fn range_query(k: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), k).prop_map(|pairs| {
        let mut q = vec![0.0; 2 * pairs.len()];
        for (i, (a, b)) in pairs.iter().enumerate() {
            let c = a.min(1.0 - 1e-9);
            let r = b * (1.0 - c);
            q[i] = c;
            q[pairs.len() + i] = r;
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Widening a range can only gain matches (monotonicity of the range
    /// predicate, the heart of COUNT monotonicity).
    #[test]
    fn range_predicate_is_monotone(
        q in range_query(2),
        x in unit_point(2),
        grow in 0.0f64..0.2,
    ) {
        let pred = Range::new(vec![0, 1], 2).unwrap();
        let mut wider = q.clone();
        // Extend both widths (clamped to the domain).
        for i in 0..2 {
            wider[2 + i] = (wider[2 + i] + grow).min(1.0 - wider[i]);
        }
        if pred.matches(&q, &x) {
            prop_assert!(pred.matches(&wider, &x), "widening lost a match");
        }
    }

    /// COUNT of matching rows equals the sum of the indicator — the
    /// aggregate layer must agree with a manual count, and SUM/AVG must
    /// satisfy SUM = AVG * COUNT.
    #[test]
    fn aggregate_identities(values in prop::collection::vec(0.0f64..10.0, 1..50)) {
        let mut v1 = values.clone();
        let mut v2 = values.clone();
        let mut v3 = values.clone();
        let count = Aggregate::Count.apply(&mut v1);
        let sum = Aggregate::Sum.apply(&mut v2);
        let avg = Aggregate::Avg.apply(&mut v3);
        prop_assert_eq!(count as usize, values.len());
        prop_assert!((sum - avg * count).abs() < 1e-9 * (1.0 + sum.abs()));
        // STD is nonnegative and zero for constant inputs.
        let mut v4 = values.clone();
        let std = Aggregate::Std.apply(&mut v4);
        prop_assert!(std >= 0.0);
        // MEDIAN is an element of the multiset.
        let mut v5 = values.clone();
        let med = Aggregate::Median.apply(&mut v5);
        prop_assert!(values.iter().any(|v| (*v - med).abs() < 1e-12));
    }

    /// Scatter/gather recombination over (n, Σ, Σ²) is exact for random
    /// splits: partition a random value multiset into random shards,
    /// accumulate per-shard moments, merge — COUNT recombines bitwise,
    /// and SUM/AVG/STD match the whole-set computation within ulps
    /// (f64 addition is commutative-up-to-rounding, never lossy beyond
    /// that). This is the invariant `neurosketch::shard`'s gather step
    /// rests on.
    #[test]
    fn moment_recombination_is_exact_for_random_splits(
        values in prop::collection::vec(-100.0f64..100.0, 1..80),
        shard_of in prop::collection::vec(0usize..5, 80),
    ) {
        use query::aggregate::Moments;
        let shards = 5;
        let mut parts: Vec<Vec<f64>> = vec![Vec::new(); shards];
        for (i, v) in values.iter().enumerate() {
            parts[shard_of[i % shard_of.len()] % shards].push(*v);
        }
        let gathered = parts
            .iter()
            .map(|p| Moments::of(p.iter().copied()))
            .fold(Moments::ZERO, Moments::merge);
        let whole = Moments::of(values.iter().copied());
        // COUNT is integer-valued f64 arithmetic: bitwise exact.
        prop_assert_eq!(gathered.n, whole.n);
        prop_assert_eq!(gathered.finish(Aggregate::Count), whole.finish(Aggregate::Count));
        // Σ and Σ² reassociate: exact up to accumulated rounding.
        let s_tol = f64::EPSILON * values.iter().map(|v| v.abs()).sum::<f64>() * values.len() as f64;
        prop_assert!((gathered.s - whole.s).abs() <= s_tol,
            "Σ: {} vs {}", gathered.s, whole.s);
        let s2_tol = f64::EPSILON * values.iter().map(|v| v * v).sum::<f64>() * values.len() as f64;
        prop_assert!((gathered.s2 - whole.s2).abs() <= s2_tol,
            "Σ²: {} vs {}", gathered.s2, whole.s2);
        for agg in [Aggregate::Sum, Aggregate::Avg] {
            let (g, w) = (
                gathered.finish(agg).unwrap(),
                whole.finish(agg).unwrap(),
            );
            prop_assert!(
                (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                "{}: gathered {} vs whole {}", agg.name(), g, w
            );
        }
        // STD: sqrt amplifies cancellation noise when the variance is
        // ~0, so the tight comparison is between the *variances* the
        // two sides feed into the sqrt.
        let (g, w) = (
            gathered.finish(Aggregate::Std).unwrap(),
            whole.finish(Aggregate::Std).unwrap(),
        );
        prop_assert!(
            (g * g - w * w).abs() <= 1e-9 * (1.0 + w * w),
            "STD²: gathered {} vs whole {}", g * g, w * w
        );
    }

    /// R-tree range search agrees exactly with a brute-force scan.
    #[test]
    fn rtree_matches_brute_force(
        pts in prop::collection::vec(unit_point(2), 1..120),
        lo0 in 0.0f64..0.9,
        w0 in 0.01f64..0.5,
        lo1 in 0.0f64..0.9,
        w1 in 0.01f64..0.5,
    ) {
        let tree = RTree::bulk_load(&pts, 2);
        let bounds = vec![(0, lo0, lo0 + w0), (1, lo1, lo1 + w1)];
        let mut got = tree.query(&bounds);
        got.sort_unstable();
        let expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p[0] >= lo0 && p[0] < lo0 + w0 && p[1] >= lo1 && p[1] < lo1 + w1
            })
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// kd-tree leaves partition the query set and locate() routes every
    /// training query to its owning leaf, at any height.
    #[test]
    fn kdtree_partitions_and_routes(
        qs in prop::collection::vec(unit_point(3), 2..80),
        height in 0usize..5,
    ) {
        let tree = KdTree::build(&qs, height);
        let mut seen = vec![false; qs.len()];
        for leaf in tree.leaf_ids() {
            for &qi in tree.leaf_queries(leaf) {
                prop_assert!(!seen[qi]);
                seen[qi] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        for (i, q) in qs.iter().enumerate() {
            let leaf = tree.locate(q);
            prop_assert!(tree.leaf_queries(leaf).contains(&i));
        }
    }

    /// kd-tree merging hits any feasible target leaf count.
    #[test]
    fn kdtree_merging_reaches_target(
        qs in prop::collection::vec(unit_point(2), 16..100),
        target in 1usize..8,
    ) {
        let mut tree = KdTree::build(&qs, 3);
        let before = tree.leaf_count();
        tree.merge_leaves(|ids| ids.len() as f64, target, 2);
        prop_assert!(tree.leaf_count() <= before);
        prop_assert!(tree.leaf_count() <= target.max(1).max(tree.leaf_count().min(target)));
        // Coverage is preserved.
        let total: usize = tree.leaf_ids().iter().map(|&l| tree.leaf_queries(l).len()).sum();
        prop_assert_eq!(total, qs.len());
    }

    /// The Algorithm-1 construction memorizes every grid vertex of any
    /// random linear (hence Lipschitz) function exactly.
    #[test]
    fn construction_memorizes_random_linear(
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -1.0f64..1.0,
        t in 1usize..6,
    ) {
        let f = move |x: &[f64]| a * x[0] + b * x[1] + c;
        let net = GridNet::construct(&f, 2, t, SlopeMode::Unit).unwrap();
        for i in 0..(t + 1) * (t + 1) {
            let dig = vertex_digits(i, t, 2);
            let p: Vec<f64> = dig.iter().map(|&v| v as f64 / t as f64).collect();
            prop_assert!((net.forward(&p) - f(&p)).abs() < 1e-8);
        }
    }

    /// Min-max normalization maps into [0,1] and inverts exactly.
    #[test]
    fn normalization_roundtrip(rows in prop::collection::vec(
        prop::collection::vec(-100.0f64..100.0, 3), 2..40)) {
        let data = datagen::Dataset::from_rows(
            vec!["a".into(), "b".into(), "c".into()],
            &rows,
        ).unwrap();
        let (norm_d, norm) = data.normalized();
        for r in 0..data.rows() {
            for c in 0..3 {
                let v = norm_d.value(r, c);
                prop_assert!((0.0..=1.0).contains(&v));
                let back = norm.inverse(c, v);
                prop_assert!((back - data.value(r, c)).abs() < 1e-9);
            }
        }
    }

    /// SPN probabilities are proper: `P ∈ [0, 1]` and monotone in range
    /// width; COUNT over the full domain recovers ~n.
    #[test]
    fn spn_probability_axioms(
        seed in 0u64..20,
        lo in 0.0f64..0.7,
        w in 0.05f64..0.3,
        grow in 0.0f64..0.2,
    ) {
        let data = datagen::simple::uniform(600, 2, seed);
        let spn = baselines::deepdb::Spn::build(
            &data,
            1,
            &baselines::deepdb::SpnConfig { min_rows: 100, ..Default::default() },
        );
        let pred = Range::new(vec![0], 2).unwrap();
        use baselines::AqpEngine;
        let narrow = spn.answer(&pred, Aggregate::Count, &[lo, w]).unwrap();
        let wide = spn
            .answer(&pred, Aggregate::Count, &[lo, (w + grow).min(1.0 - lo)])
            .unwrap();
        prop_assert!((-1e-9..=600.0 + 1e-6).contains(&narrow));
        prop_assert!(wide + 1e-9 >= narrow, "count not monotone: {narrow} > {wide}");
        let all = spn.answer(&pred, Aggregate::Count, &[0.0, 1.0]).unwrap();
        prop_assert!((all - 600.0).abs() < 6.0, "full-domain count {all}");
    }

    /// TREE-AGG with a full sample is exact for every aggregate on any
    /// range (its R-tree path must not lose or duplicate matches).
    #[test]
    fn tree_agg_full_sample_exact(
        seed in 0u64..20,
        lo in 0.0f64..0.8,
        w in 0.01f64..0.2,
    ) {
        let data = datagen::simple::uniform(300, 2, seed);
        let engine = query::QueryEngine::new(&data, 1);
        let ta = baselines::tree_agg::TreeAgg::build(&data, 1, 300, 0);
        let pred = Range::new(vec![0], 2).unwrap();
        use baselines::AqpEngine;
        for agg in Aggregate::ALL {
            let exact = engine.answer(&pred, agg, &[lo, w]);
            let est = ta.answer(&pred, agg, &[lo, w]).unwrap();
            prop_assert!((exact - est).abs() < 1e-9, "{}: {exact} vs {est}", agg.name());
        }
    }

    /// The binary model codec round-trips any architecture to f32
    /// precision.
    #[test]
    fn binary_codec_roundtrip(
        w1 in 1usize..20,
        w2 in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mlp = nn::Mlp::new(&[2, w1, w2, 1], seed);
        let blob = nn::binary::encode_with(&mlp, nn::QuantMode::F32);
        let (back, mode) = nn::binary::decode_any(blob).unwrap();
        prop_assert_eq!(mode, nn::QuantMode::F32);
        prop_assert_eq!(back.param_count(), mlp.param_count());
        let x = [0.37, 0.61];
        prop_assert!((back.predict(&x) - mlp.predict(&x)).abs() < 1e-3);
    }

    /// The exact engine's COUNT is monotone in range width.
    #[test]
    fn exact_count_monotone_in_width(
        data_seed in 0u64..50,
        c in 0.0f64..0.8,
        w1 in 0.01f64..0.2,
        extra in 0.0f64..0.2,
    ) {
        let data = datagen::simple::uniform(300, 1, data_seed);
        let engine = query::QueryEngine::new(&data, 0);
        let pred = Range::new(vec![0], 1).unwrap();
        let narrow = engine.answer(&pred, Aggregate::Count, &[c, w1]);
        let wide = engine.answer(&pred, Aggregate::Count, &[c, (w1 + extra).min(1.0 - c)]);
        prop_assert!(wide >= narrow);
    }
}
