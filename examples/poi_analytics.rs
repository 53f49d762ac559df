//! POI analytics — the paper's running example (Example 2.1).
//!
//! A location-data aggregator wants to publish "average visit duration in
//! a window around (lat, lon)" without shipping the raw data. We train a
//! NeuroSketch for the fixed-window query function, serialize it, and
//! answer queries from the loaded model — including the rotated-
//! rectangle MEDIAN query of Table 2 that model-of-data engines cannot
//! express.
//!
//! ```text
//! cargo run --release --example poi_analytics
//! ```

use datagen::veraset::{generate, VerasetConfig};
use neurosketch::{persist, NeuroSketch, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::predicate::FixedWidthRange;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // Veraset-like visit data: (lat, lon, duration), normalized.
    let raw = generate(&VerasetConfig::default_with_rows(30_000), 11);
    let (data, norm) = raw.normalized();
    let engine = QueryEngine::new(&data, 2);

    // Query function: avg visit duration in a 20%-of-domain window whose
    // corner is the query (the paper's 50m x 50m example, normalized).
    let window = 0.2;
    let pred = FixedWidthRange::new(vec![0, 1], vec![window, window], 3).expect("valid");

    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<Vec<f64>> = (0..6_500)
        .map(|_| {
            vec![
                rng.random_range(0.0..1.0 - window),
                rng.random_range(0.0..1.0 - window),
            ]
        })
        .collect();
    let (train, test) = queries.split_at(6_000);

    let cfg = NeuroSketchConfig::default();
    let (sketch, _) =
        NeuroSketch::build(&engine, &pred, Aggregate::Avg, train, &cfg).expect("build succeeds");

    // Publish: serialize the model instead of the data.
    let blob = persist::encode_sketch(&sketch);
    println!(
        "published model: {:.1} KiB vs {:.0} KiB of raw data",
        blob.len() as f64 / 1024.0,
        (data.rows() * data.dims() * 8) as f64 / 1024.0
    );

    // A consumer loads the model and asks about a POI.
    let loaded = persist::decode(blob).expect("load").sketch;
    let truth: Vec<f64> = test
        .iter()
        .map(|q| engine.answer(&pred, Aggregate::Avg, q))
        .collect();
    let preds: Vec<f64> = test.iter().map(|q| loaded.answer(q)).collect();
    println!(
        "held-out normalized MAE: {:.4}",
        normalized_mae(&truth, &preds)
    );

    // Map one answer back to physical units via the normalizer.
    let q = &test[0];
    let est_norm = loaded.answer(q);
    let exact_norm = truth[0];
    // Duration was column 2 of the raw data.
    let to_hours = |v: f64| norm.inverse(2, v);
    println!(
        "\nwindow at (lat={:.4}, lon={:.4}):",
        norm.inverse(0, q[0]),
        norm.inverse(1, q[1])
    );
    println!(
        "  avg visit duration: model {:.2} h, exact {:.2} h",
        to_hours(est_norm),
        to_hours(exact_norm)
    );

    // Bonus: Table 2's general-rectangle MEDIAN on the same data.
    let rect = query::predicate::RotatedRect::new(0, 1, 3).expect("valid");
    let rect_queries: Vec<Vec<f64>> = (0..4_400)
        .map(|_| {
            let px = rng.random_range(0.1..0.6);
            let py = rng.random_range(0.1..0.6);
            let phi = rng.random_range(0.0..std::f64::consts::FRAC_PI_2);
            let (dx, dy) = (rng.random_range(0.15..0.45), rng.random_range(0.15..0.45));
            vec![
                px,
                py,
                px + dx * phi.cos() - dy * phi.sin(),
                py + dx * phi.sin() + dy * phi.cos(),
                phi,
            ]
        })
        .collect();
    let (rtrain, rtest) = rect_queries.split_at(4_000);
    let (median_sketch, _) =
        NeuroSketch::build(&engine, &rect, Aggregate::Median, rtrain, &cfg).expect("build");
    let rtruth: Vec<f64> = rtest
        .iter()
        .map(|q| engine.answer(&rect, Aggregate::Median, q))
        .collect();
    let rpreds: Vec<f64> = rtest.iter().map(|q| median_sketch.answer(q)).collect();
    println!(
        "\nrotated-rectangle MEDIAN (Table 2 query): normalized MAE {:.4}",
        normalized_mae(&rtruth, &rpreds)
    );
}
