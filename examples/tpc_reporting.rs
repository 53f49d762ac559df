//! TPC-style reporting: approximate net-profit analytics over
//! store_sales, comparing NeuroSketch against every baseline on the same
//! report queries — a miniature of the paper's Fig. 6 on a single
//! dataset.
//!
//! ```text
//! cargo run --release --example tpc_reporting
//! ```

use baselines::deepdb::{Spn, SpnConfig};
use baselines::tree_agg::TreeAgg;
use baselines::verdict::StratifiedSampler;
use baselines::AqpEngine;
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::error::normalized_mae;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};

fn main() {
    // store_sales-like data; ss_net_profit (col 12) is the measure.
    let raw = datagen::tpc::generate(60_000, 5);
    let (data, _) = raw.normalized();
    let measure = datagen::tpc::NET_PROFIT;
    let engine = QueryEngine::new(&data, measure);

    // Report workload: AVG(net_profit) filtered by one random attribute.
    let wl = Workload::generate(&WorkloadConfig {
        dims: data.dims(),
        active: ActiveMode::Random(1),
        range: RangeMode::Uniform,
        count: 2_200,
        seed: 9,
    })
    .expect("valid workload");
    let (train, test) = wl.split(200);
    let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &train, 4);
    let truth = engine.label_batch(&wl.predicate, Aggregate::Avg, &test, 4);

    // NeuroSketch.
    let (sketch, _) =
        NeuroSketch::build_from_labeled(&train, &labels, &NeuroSketchConfig::default())
            .expect("build");

    // Baselines.
    let tree_agg = TreeAgg::build(&data, measure, data.rows() / 10, 0);
    let verdict = StratifiedSampler::build(&data, measure, data.rows() / 10, 32, 0);
    let spn = Spn::build(&data, measure, &SpnConfig::default());

    println!(
        "{:<13} {:>10} {:>13} {:>12}",
        "engine", "nMAE", "query time", "storage"
    );
    // NeuroSketch row.
    let mut ws = neurosketch::BatchScratch::default();
    let t = std::time::Instant::now();
    let preds: Vec<f64> = test
        .iter()
        .map(|q| sketch.answer_with(&mut ws, q))
        .collect();
    let us = t.elapsed().as_secs_f64() * 1e6 / test.len() as f64;
    println!(
        "{:<13} {:>10.4} {:>10.1} us {:>8.0} KiB",
        "NeuroSketch",
        normalized_mae(&truth, &preds),
        us,
        sketch.storage_bytes() as f64 / 1024.0
    );
    // Baseline rows.
    for engine_ref in [&tree_agg as &dyn AqpEngine, &verdict, &spn] {
        let t = std::time::Instant::now();
        let preds: Vec<f64> = test
            .iter()
            .map(|q| {
                engine_ref
                    .answer(&wl.predicate, Aggregate::Avg, q)
                    .unwrap_or(0.0)
            })
            .collect();
        let us = t.elapsed().as_secs_f64() * 1e6 / test.len() as f64;
        println!(
            "{:<13} {:>10.4} {:>10.1} us {:>8.0} KiB",
            engine_ref.name(),
            normalized_mae(&truth, &preds),
            us,
            engine_ref.storage_bytes() as f64 / 1024.0
        );
    }

    // One concrete report line.
    let q = &test[0];
    println!(
        "\nexample report query (one active attribute): sketch {:.4}, exact {:.4} (normalized profit units)",
        sketch.answer(q),
        truth[0]
    );
}
