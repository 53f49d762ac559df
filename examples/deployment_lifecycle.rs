//! Deployment lifecycle: DQD-guided routing and dynamic data.
//!
//! Sec. 4.3 of the paper sketches how a query processing engine would use
//! NeuroSketch in production: route large-range queries to the sketch and
//! small-range ones to the database, and (Sec. 7) periodically test the
//! model, retraining when accuracy drops. This example exercises both —
//! the [`neurosketch::router::DqdRouter`] and
//! [`neurosketch::maintenance::DriftMonitor`] — across a simulated data
//! drift.
//!
//! ```text
//! cargo run --release --example deployment_lifecycle
//! ```

use datagen::simple::{gaussian, uniform};
use neurosketch::maintenance::DriftMonitor;
use neurosketch::router::{range_volume, DqdRouter, Route, RoutingPolicy};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

fn main() {
    // Day 0: train on the current data.
    let data = uniform(20_000, 2, 1);
    let engine = QueryEngine::new(&data, 1);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: 2_000,
        seed: 2,
    })
    .expect("workload");
    let cfg = NeuroSketchConfig::default();
    let (sketch, report) =
        NeuroSketch::build(&engine, &wl.predicate, Aggregate::Count, &wl.queries, &cfg)
            .expect("build");

    // Wrap it in a router: ranges narrower than 2% of the domain go to
    // the exact engine (Lemma 3.6: tiny ranges have large sampling error).
    let policy = RoutingPolicy {
        min_range_volume: 0.02,
        max_leaf_aqc: f64::INFINITY,
    };
    let router = DqdRouter::new(sketch, report.leaf_aqcs.clone(), policy);

    let mut to_sketch = 0;
    let mut to_exact = 0;
    for q in &wl.queries {
        let vol = range_volume(q, 1);
        let (_, route) = router.answer(q, Some(vol), |q| {
            engine.answer(&wl.predicate, Aggregate::Count, q)
        });
        match route {
            Route::Sketch => to_sketch += 1,
            _ => to_exact += 1,
        }
    }
    println!("router: {to_sketch} queries answered by the sketch, {to_exact} by the exact engine");

    // Day 30: the data distribution drifts. The monitor checks any
    // `Deployment` — here the bare sketch — through the batched path.
    let drifted = gaussian(20_000, 2, 0.25, 0.08, 9);
    let drifted_engine = QueryEngine::new(&drifted, 1);
    let monitor = DriftMonitor::new(wl.queries[..200].to_vec(), 0.15).expect("monitor");
    let check = monitor.check(
        router.sketch(),
        &drifted_engine,
        &wl.predicate,
        Aggregate::Count,
    );
    println!(
        "drift check: normalized MAE {:.3} -> {}",
        check.nmae,
        if check.stale {
            "STALE, retraining"
        } else {
            "healthy"
        }
    );

    // Retrain against the new data with the same configuration.
    if check.stale {
        let (fresh, _) = NeuroSketch::build(
            &drifted_engine,
            &wl.predicate,
            Aggregate::Count,
            &wl.queries,
            &cfg,
        )
        .expect("rebuild");
        let after = monitor.check(&fresh, &drifted_engine, &wl.predicate, Aggregate::Count);
        println!(
            "after retraining: normalized MAE {:.3} ({})",
            after.nmae,
            if after.stale {
                "still stale"
            } else {
                "healthy again"
            }
        );
    }
}
