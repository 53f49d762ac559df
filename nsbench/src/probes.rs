//! The traced run, part two: the per-layer metrics.
//!
//! `stage.*` and the cache/router shares come from the workload's own
//! replay (`replay.rs`). Everything else is a probe: one public entry
//! point of one layer, called repeatedly on a fixed input for a slice
//! of the run's time, median per call reported. The probes run on the
//! same fixture whatever the workload, so any workload's traced run
//! tracks every layer.

use crate::adapter::{
    self, Agg, CacheProbe, Client, ClusterProbe, Index, Live, NnProbe, Reply, Stack, SteppedServer,
    WireServer,
};
use crate::gen::{unique_batch, unique_query, ZipfStream};
use crate::replay::{self, Fixture, Pass};
use crate::report::RunResult;
use crate::stats::{median, nproc, percentile, process_cpu_ns, thread_cpu_ns};
use crate::trace::Tracer;
use crate::workloads::{BatchSource, Opts, RefreshFixture, WINDOW, ZIPF_S};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Layers of the stage table, in trip order. `client` is the harness's
/// own side of the wire (and the rows it appends in `build_refresh`).
pub const STAGE_LAYERS: [&str; 12] = [
    "client",
    "net",
    "deploy",
    "cache",
    "serve",
    "sketch",
    "shard",
    "query",
    "spatial",
    "nn",
    "persist",
    "maintenance",
];
/// Window of the stepped-wire probe.
const PROBE_WINDOW: usize = 64;
const SPAN_CAPACITY: usize = 400_000;
const PROBE_SEED: u64 = 0x9E0B_E000;
/// Schedule of the paced probe, requests per second.
const PACED_RATE: f64 = 1000.0;

/// Median seconds per call of `f`, called for `budget_s` (at least
/// five times) after one warm-up call.
fn time_median(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// As [`time_median`], for two calls interleaved rep for rep, so both
/// see the same machine and their ratio is steadier than either.
fn time_pair(budget_s: f64, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while sa.len() < 5 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        a();
        sa.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        sb.push(t.elapsed().as_secs_f64());
    }
    (median(&sa), median(&sb))
}

/// The `p`-th percentile, or the highest lower one the sample is large
/// enough for (short runs cannot support a p99).
fn supported_percentile(sorted: &[f64], p: f64) -> f64 {
    [p, 0.95, 0.90, 0.75]
        .into_iter()
        .filter(|&candidate| candidate <= p)
        .find_map(|candidate| percentile(sorted, candidate))
        .unwrap_or_else(|| median(sorted))
}

fn replay_pass(
    opts: &Opts,
    fx: &Fixture,
    rf: &RefreshFixture,
    zipf: &BatchSource,
    pass_no: u64,
    budget_s: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    match opts.workload.as_str() {
        "wire_saturate" => replay::wire(opts, fx, pass_no, budget_s, tracer),
        "batch_unique" => replay::batch_unique(opts, fx, pass_no, budget_s, tracer),
        "sharded_zipf" => replay::sharded_zipf(opts, fx, zipf, pass_no, budget_s, tracer),
        "build_refresh" => replay::build_refresh(opts, rf, pass_no, budget_s, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The whole traced run: fixture, replay (untraced then traced), stage
/// table and `trace.jsonl`, then the probes.
pub fn run_traced(opts: &Opts) -> Result<RunResult, String> {
    let fx = Fixture::new(opts);
    let rf = RefreshFixture::new(opts);
    let zipf = BatchSource::Zipf(ZipfStream::new(opts.seed, opts.scale.zipf_universe, ZIPF_S));
    let mut r = RunResult::default();

    // Replay: a short pass to warm up (each pass draws its own part of
    // the stream), the untraced pass, the traced one.
    replay_pass(opts, &fx, &rf, &zipf, 0, opts.seconds * 0.05, None)?;
    let bare = replay_pass(opts, &fx, &rf, &zipf, 1, opts.seconds * 0.15, None)?;
    let mut tracer = Tracer::new(SPAN_CAPACITY);
    let traced = replay_pass(
        opts,
        &fx,
        &rf,
        &zipf,
        2,
        opts.seconds * 0.25,
        Some(&mut tracer),
    )?;
    r.attempted = bare.ops + traced.ops;
    r.failed = bare.failed + traced.failed;

    let dir = opts.out_dir.join(&opts.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("trace.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let ops = traced.ops.max(1) as f64;
    println!(
        "traced replay of {}: {} ops single-threaded, spans in {}",
        opts.workload,
        traced.ops,
        path.display()
    );
    println!(
        "{:<28} {:>9} {:>14} {:>14} {:>12}",
        "span", "count", "total_us/op", "self_us/op", "self_share"
    );
    let top_ns = tracer.top_level_ns().max(1) as f64;
    for row in tracer.table() {
        println!(
            "{:<28} {:>9} {:>14.4} {:>14.4} {:>11.1}%",
            row.name,
            row.count,
            row.total_ns as f64 / 1e3 / ops,
            row.self_ns as f64 / 1e3 / ops,
            100.0 * row.self_ns as f64 / top_ns
        );
    }
    let by_layer = tracer.layer_self_ns();
    for layer in STAGE_LAYERS {
        let self_ns = by_layer.get(layer).copied().unwrap_or(0);
        r.push(
            &format!("stage.{layer}_us_per_query"),
            self_ns as f64 / 1e3 / ops,
            "us",
        );
    }
    let traced_us = traced.wall_s * 1e6 / ops;
    r.push("stage.replay_us_per_query", traced_us, "us");
    r.push(
        "stage.coverage",
        tracer.top_level_ns() as f64 / 1e9 / traced.wall_s,
        "ratio",
    );
    r.push(
        "trace_overhead_ratio",
        traced_us / (bare.wall_s * 1e6 / bare.ops.max(1) as f64),
        "ratio",
    );
    r.push("cache.hit_ratio", traced.cache_hits as f64 / ops, "ratio");
    r.push("cache.dedup_share", traced.dedup_hits as f64 / ops, "ratio");
    r.push("cache.evictions", traced.evictions as f64, "count");
    r.push("serve.exact_share", traced.exact as f64 / ops, "ratio");

    probes(opts, &fx, &rf, &mut r)?;
    Ok(r)
}

fn probes(opts: &Opts, fx: &Fixture, rf: &RefreshFixture, r: &mut RunResult) -> Result<(), String> {
    // Forty-odd probes share about half the run's time.
    let slice = opts.seconds * 0.011;
    let batch_len = opts.scale.batch;
    let batch = unique_batch(PROBE_SEED, 0, batch_len);
    let q = batch[0].clone();

    // -- net: codec
    let frame = adapter::encode_query_frame(7, &q);
    let per_1000 = |f: &mut dyn FnMut()| {
        time_median(slice, || {
            for _ in 0..1000 {
                f();
            }
        }) * 1e9
            / 1000.0
    };
    r.push(
        "net.encode_query_ns",
        per_1000(&mut || {
            black_box(adapter::encode_query_frame(7, black_box(&q)));
        }),
        "ns",
    );
    r.push(
        "net.decode_query_ns",
        per_1000(&mut || {
            black_box(adapter::decode_one_frame(black_box(&frame)));
        }),
        "ns",
    );
    r.push(
        "net.encode_answer_ns",
        per_1000(&mut || {
            black_box(adapter::encode_answer_frame(7, 0, black_box(1.5)));
        }),
        "ns",
    );

    stepped_wire_probe(fx, slice * 4.0, r)?;
    threaded_wire_probes(opts, fx, r)?;

    // -- deploy: swap
    let live = Live::new(&fx.plain, 0);
    let spares: Vec<Stack> = (0..16).map(|_| Stack::plain(&fx.model)).collect();
    let mut generation = 0u64;
    let mut swaps = Vec::new();
    for spare in &spares {
        generation += 1;
        let t = Instant::now();
        black_box(live.swap(spare, generation));
        swaps.push(t.elapsed().as_secs_f64());
    }
    r.push("deploy.swap_us", median(&swaps) * 1e6, "us");

    // -- serve / router / sketch
    // Serve and the dense forward pass are timed interleaved: their
    // ratio is a metric (`serve.overhead_share`).
    let mut nn = NnProbe::new(batch_len);
    let (serve_s, forward_s) = time_pair(
        slice * 2.0,
        || {
            black_box(fx.plain.answer(&batch));
        },
        || {
            black_box(nn.forward_batch());
        },
    );
    let sketch_s = time_median(slice, || {
        black_box(fx.model.answer_batch(&batch));
    });
    r.push("serve.batch_us", serve_s * 1e6, "us");
    r.push("sketch.batch_us", sketch_s * 1e6, "us");
    let per_query = |f: &mut dyn FnMut(&[f64])| {
        time_median(slice, || {
            for q in &batch {
                f(q);
            }
        }) * 1e9
            / batch.len() as f64
    };
    r.push(
        "router.route_ns",
        per_query(&mut |q| {
            black_box(fx.hard_router.routes_exact(q));
        }),
        "ns",
    );
    r.push(
        "sketch.locate_ns",
        per_query(&mut |q| {
            black_box(fx.model.locate(q));
        }),
        "ns",
    );
    r.push(
        "sketch.single_ns",
        per_query(&mut |q| {
            black_box(fx.model.answer_one(q));
        }),
        "ns",
    );

    // -- nn / par
    r.push("nn.forward_batch_us", forward_s * 1e6, "us");
    // The bare `NeuroSketch::answer_batch` is no yardstick for the
    // server's own overhead: it skips the pre-transposed layout the
    // server computes through and is slower than the server. One dense
    // forward pass over as many rows is the closest public lower bound
    // on the model evaluation inside a served batch.
    r.push("serve.overhead_share", 1.0 - forward_s / serve_s, "ratio");
    let gemm_s = time_median(slice, || {
        black_box(nn.gemm());
    });
    r.push("nn.gemm_gflops", nn.gemm_flops() / gemm_s / 1e9, "GFLOP/s");
    let leaf = fx.train.len() / 8;
    let t = Instant::now();
    let epochs = adapter::train_leaf(&fx.train[..leaf], &fx.labels[..leaf], opts.scale.epochs);
    r.push("nn.train_leaf_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    r.push("nn.train_epochs", epochs as f64, "count");
    let fanout_s = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                crate::stats::unpin_thread();
                time_median(slice, || {
                    black_box(adapter::par_fanout(nproc()));
                })
            })
            .join()
            .expect("fan-out probe thread")
    });
    r.push("par.fanout_us", fanout_s * 1e6, "us");

    // -- cache: per call, and the front on batches that all miss
    let cache = CacheProbe::new();
    for (i, q) in batch.iter().enumerate() {
        cache.insert(q, i as f64);
    }
    let strangers = unique_batch(PROBE_SEED ^ 1, 0, batch_len);
    r.push(
        "cache.get_hit_ns",
        per_query(&mut |q| {
            black_box(cache.get(q));
        }),
        "ns",
    );
    r.push(
        "cache.get_miss_ns",
        time_median(slice, || {
            for q in &strangers {
                black_box(cache.get(q));
            }
        }) * 1e9
            / batch_len as f64,
        "ns",
    );
    let mut fresh = 0u64;
    r.push(
        "cache.insert_ns",
        time_median(slice, || {
            // New keys every call: a full cache evicts to admit them.
            for q in unique_batch(PROBE_SEED ^ 2, fresh, 256) {
                cache.insert(&q, 0.0);
            }
            fresh += 256;
        }) * 1e9
            / 256.0,
        "ns",
    );
    // Fresh never-seen keys every round, the same batch through the
    // front and then through the deployment behind it.
    let (mut front, mut behind) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut miss_no = 1u64 << 32;
    while front.len() < 5 || started.elapsed().as_secs_f64() < slice * 2.0 {
        let miss_batch = unique_batch(PROBE_SEED ^ 3, miss_no, batch_len);
        miss_no += batch_len as u64;
        let t = Instant::now();
        black_box(fx.fallback.answer(&miss_batch));
        front.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(fx.fallback.inner_answer(&miss_batch));
        behind.push(t.elapsed().as_secs_f64());
    }
    let (front_s, inner_s) = (median(&front), median(&behind));
    r.push(
        "cache.front_overhead_share",
        1.0 - inner_s / front_s,
        "ratio",
    );

    // -- shard / cluster
    let sharded_plain = Stack::sharded_plain(&fx.sharded_model);
    let mut cluster = ClusterProbe::new(&fx.sharded_model);
    let (shard_s, cluster_s) = time_pair(
        slice * 3.0,
        || {
            black_box(sharded_plain.answer(&batch));
        },
        || {
            black_box(cluster.answer(&batch));
        },
    );
    r.push("shard.answer_batch_us", shard_s * 1e6, "us");
    r.push(
        "shard.moments_batch_us",
        time_median(slice * 1.5, || {
            black_box(sharded_plain.inner_moments(&batch));
        }) * 1e6,
        "us",
    );
    r.push(
        "shard.per_shard_us",
        shard_s * 1e6 / adapter::SHARDS as f64,
        "us",
    );
    r.push("cluster.answer_batch_us", cluster_s * 1e6, "us");
    r.push(
        "cluster.coord_overhead_share",
        1.0 - shard_s / cluster_s,
        "ratio",
    );

    // -- query / spatial / persist
    r.push(
        "query.index_build_ms",
        time_median(slice, || {
            black_box(Index::build(fx.base.table).answer_one(&mut Vec::new(), &q));
        }) * 1e3,
        "ms",
    );
    let label_set = &fx.train[..fx.train.len().min(2048)];
    let label_s = time_median(slice * 2.0, || {
        black_box(fx.base.index.label(label_set, Agg::Avg));
    });
    r.push("query.label_qps", label_set.len() as f64 / label_s, "1/s");
    let mut scratch = Vec::new();
    let sample = &batch[..batch.len().min(512)];
    r.push(
        "query.answer_ns",
        time_median(slice, || {
            for q in sample {
                black_box(fx.base.index.answer_one(&mut scratch, q));
            }
        }) * 1e9
            / sample.len() as f64,
        "ns",
    );
    let (build_s, merge_s) = time_pair(
        slice,
        || {
            black_box(adapter::kdtree_build(&fx.train));
        },
        || {
            black_box(adapter::kdtree_merge(&fx.train, &fx.labels));
        },
    );
    r.push("spatial.kdtree_build_ms", build_s * 1e3, "ms");
    r.push("spatial.merge_ms", (merge_s - build_s).max(0.0) * 1e3, "ms");
    r.push("sketch.build_ms", fx.model_build_s * 1e3, "ms");
    let artifact = fx.model.encode();
    r.push(
        "persist.encode_ms",
        time_median(slice, || {
            black_box(fx.model.encode().len());
        }) * 1e3,
        "ms",
    );
    r.push(
        "persist.decode_ms",
        time_median(slice, || {
            black_box(artifact.decode().map(|m| m.params()).unwrap_or(0));
        }) * 1e3,
        "ms",
    );

    // -- maintenance: one refresh cycle, its check and retrain timed
    let mut d = rf.deploy(2000)?;
    d.table.append_drift(rf.table.rows() / 8, PROBE_SEED);
    let index = Index::build(&d.table);
    r.push(
        "maintenance.drift_check_ms",
        time_median(slice, || {
            black_box(rf.monitor.check(&d.live, &index, Agg::Count));
        }) * 1e3,
        "ms",
    );
    drop(index);
    let t = Instant::now();
    d.sharded
        .retrain_shard(&d.table, &rf.shard_train, 0, &opts.scale)?;
    r.push(
        "maintenance.retrain_shard_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    d.sharded.save_refreshed(&d.manifest, 0)?;
    let t = Instant::now();
    rf.refresh_cycle(&mut d, 1, PROBE_SEED)?;
    r.push(
        "maintenance.refresh_cycle_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    Ok(())
}

/// The stepped server at a 64-query window: each phase of the trip is
/// timed on the harness thread, and the deployment call is replayed on
/// the same window so the wire's own share is what is left.
fn stepped_wire_probe(fx: &Fixture, budget_s: f64, r: &mut RunResult) -> Result<(), String> {
    let live = Live::new(&fx.plain, 0);
    let mut server = SteppedServer::bind(&live);
    let mut client = Client::connect(server.addr())?;
    server.pump();
    let (mut read, mut serve, mut flush, mut trip) = (vec![], vec![], vec![], vec![]);
    let (mut tagged, mut inner) = (vec![], vec![]);
    let started = Instant::now();
    let mut next = 0u64;
    while trip.len() < 20 || started.elapsed().as_secs_f64() < budget_s {
        let queries = unique_batch(PROBE_SEED ^ 4, next, PROBE_WINDOW);
        next += PROBE_WINDOW as u64;
        let t0 = Instant::now();
        client.send(&queries)?;
        let t1 = Instant::now();
        for _ in 0..1000 {
            server.pump();
            if server.pending() >= PROBE_WINDOW {
                break;
            }
        }
        let t2 = Instant::now();
        while server.serve_batch().is_some() {}
        let t3 = Instant::now();
        server.pump();
        let t4 = Instant::now();
        for _ in 0..PROBE_WINDOW {
            if !matches!(client.recv()?, Reply::Answer { .. }) {
                return Err("stepped probe: not an answer".into());
            }
        }
        trip.push(t0.elapsed().as_secs_f64());
        read.push((t2 - t1).as_secs_f64());
        serve.push((t3 - t2).as_secs_f64());
        flush.push((t4 - t3).as_secs_f64());
        let t = Instant::now();
        black_box(live.answer_tagged(&queries));
        tagged.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(fx.plain.inner_answer(&queries));
        inner.push(t.elapsed().as_secs_f64());
    }
    let per = PROBE_WINDOW as f64;
    let (read, serve, flush) = (median(&read), median(&serve), median(&flush));
    let (tagged, inner) = (median(&tagged), median(&inner));
    r.push("net.pump_read_us", read * 1e6, "us");
    r.push("net.serve_batch_us", serve * 1e6, "us");
    r.push("net.flush_us", flush * 1e6, "us");
    r.push(
        "net.self_us_per_query",
        (read + serve + flush - tagged) * 1e6 / per,
        "us",
    );
    r.push("net.stepped_us_per_query", median(&trip) * 1e6 / per, "us");
    // One outstanding request: the fixed cost of a trip (four system
    // calls, a flush, a batch of one), which no batching gain can move.
    let trips = ((budget_s / 4.0 / 12e-6) as usize).clamp(50, 20_000);
    let single =
        crate::workloads::stepped_segment(&mut server, &mut client, PROBE_SEED ^ 7, 0, trips, 1)?;
    if single.failed > 0 {
        return Err("stepped probe: a batch-of-1 trip was not answered".into());
    }
    r.push("net.single_trip_us", median(&single.latencies_us), "us");
    r.push("deploy.answer_us", tagged * 1e6, "us");
    r.push("deploy.tagged_overhead_ns", (tagged - inner) * 1e9, "ns");
    Ok(())
}

/// What a run against the threaded server measured.
struct Threaded {
    wall_s: f64,
    /// CPU time of every thread but the generator's.
    server_cpu_ns: u64,
    /// Ascending, microseconds.
    latencies_us: Vec<f64>,
}

/// Closed loop over the given connections, one generator thread: on
/// each connection in turn, top the outstanding requests up to
/// `window` (one write), then receive half a window. A reply that is
/// not the expected answer is an error.
fn closed_loop(
    clients: &mut [Client],
    seed: u64,
    start: u64,
    count: usize,
    window: usize,
) -> Result<Threaded, String> {
    let mut latencies_us = Vec::with_capacity(count);
    let mut inflight: Vec<VecDeque<(Instant, u64)>> = clients
        .iter()
        .map(|_| VecDeque::with_capacity(window))
        .collect();
    let (mut sent, mut received) = (0usize, 0usize);
    let cpu0 = process_cpu_ns() - thread_cpu_ns();
    let t0 = Instant::now();
    while received < count {
        for (client, queue) in clients.iter_mut().zip(&mut inflight) {
            let top_up = (window - queue.len()).min(count - sent);
            if top_up > 0 {
                let queries = unique_batch(seed, start + sent as u64, top_up);
                let now = Instant::now();
                let first_id = client.send(&queries)?;
                queue.extend((0..top_up as u64).map(|k| (now, first_id + k)));
                sent += top_up;
            }
            let take = if sent < count {
                queue.len().min(window / 2)
            } else {
                queue.len()
            };
            for _ in 0..take {
                let (sent_at, want) = queue.pop_front().expect("a reply pairs a request");
                match client.recv()? {
                    Reply::Answer { id, .. } if id == want => {
                        latencies_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                    }
                    _ => return Err("threaded probe: not the expected answer".into()),
                }
                received += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let server_cpu_ns = process_cpu_ns() - thread_cpu_ns() - cpu0;
    latencies_us.sort_by(f64::total_cmp);
    Ok(Threaded {
        wall_s,
        server_cpu_ns,
        latencies_us,
    })
}

/// Open-loop schedule, one outstanding request: request `k` is due at
/// `k / rate` seconds, the generator spins until then, and latency runs
/// from the due time, so a stall is charged to every request it delays.
fn paced(client: &mut Client, seed: u64, start: u64, count: usize) -> Result<Threaded, String> {
    let mut latencies_us = Vec::with_capacity(count);
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
    let cpu0 = process_cpu_ns() - thread_cpu_ns();
    let t0 = Instant::now();
    for k in 0..count {
        let due = t0 + interval * k as u32;
        let q = unique_query(seed, start + k as u64);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent_id = client.send(std::slice::from_ref(&q))?;
        match client.recv()? {
            Reply::Answer { id, .. } if id == sent_id => {
                latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
            _ => return Err("paced probe: not the expected answer".into()),
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let server_cpu_ns = process_cpu_ns() - thread_cpu_ns() - cpu0;
    latencies_us.sort_by(f64::total_cmp);
    Ok(Threaded {
        wall_s,
        server_cpu_ns,
        latencies_us,
    })
}

/// Two short runs against the threaded server (`NetServer::serve` on
/// its own thread): a closed loop for batch fill and saturated cost per
/// query, and the paced schedule for the tail the end-to-end metrics
/// leave out.
fn threaded_wire_probes(opts: &Opts, fx: &Fixture, r: &mut RunResult) -> Result<(), String> {
    let live = Live::new(&fx.plain, 0);
    let server = WireServer::spawn(&live);
    let mut clients = vec![
        Client::connect(server.addr())?,
        Client::connect(server.addr())?,
    ];
    let budget_s = opts.seconds * 0.04;
    let segment = opts.scale.saturate_segment / 4;
    let (mut answered, mut wall_s, mut p99s) = (0usize, 0.0, Vec::new());
    let mut server_cpu_ns = 0u64;
    let mut next = 0u64;
    while wall_s < budget_s {
        let seg = closed_loop(&mut clients, PROBE_SEED ^ 5, next, segment, WINDOW)?;
        next += segment as u64;
        answered += seg.latencies_us.len();
        wall_s += seg.wall_s;
        server_cpu_ns += seg.server_cpu_ns;
        p99s.push(supported_percentile(&seg.latencies_us, 0.99));
    }
    r.push(
        "net.threaded_us_per_query",
        wall_s * 1e6 / answered.max(1) as f64,
        "us",
    );
    r.push(
        "net.threaded_cpu_us_per_query",
        server_cpu_ns as f64 / 1e3 / answered.max(1) as f64,
        "us",
    );
    r.push("net.saturate_p99_us", median(&p99s), "us");

    drop(clients);
    let wire = server.stop();
    r.push(
        "net.batch_size_mean",
        wire.answered as f64 / wire.batches.max(1) as f64,
        "count",
    );

    let server = WireServer::spawn(&live);
    let mut client = Client::connect(server.addr())?;
    let requests = ((opts.seconds * 0.1 * PACED_RATE) as usize).max(50);
    let trips = paced(&mut client, PROBE_SEED ^ 6, 0, requests)?;
    let tail = |p: f64| supported_percentile(&trips.latencies_us, p);
    r.push("net.paced_p50_us", median(&trips.latencies_us), "us");
    r.push("net.paced_p90_us", tail(0.90), "us");
    r.push("net.paced_p99_us", tail(0.99), "us");
    // What the idle loop burns between requests shows here.
    r.push(
        "net.paced_cpu_us_per_query",
        trips.server_cpu_ns as f64 / 1e3 / requests as f64,
        "us",
    );
    drop(client);
    server.stop();
    Ok(())
}
