//! Network serving lifecycle: **build → bind → concurrent clients →
//! hot swap mid-traffic → drain**.
//!
//! Every other example drives a deployment in-process; this one makes
//! the library-to-service jump from `docs/serving.md` §network: a
//! [`NetServer`] owns a [`LiveDeployment`] and speaks the NSKW frame
//! protocol over TCP loopback while concurrent pipelined clients load
//! it:
//!
//! 1. build a sketch, put its [`SketchServer`] behind the answer front
//!    ([`CachedDeployment`]) and a [`LiveDeployment`], and bind an
//!    ephemeral loopback port,
//! 2. drive it with concurrent pipelined clients and verify every
//!    answer is **bitwise identical** to calling
//!    [`Deployment::answer_batch`] directly — coalescing into adaptive
//!    micro-batches is invisible in the values,
//! 3. swap in a retrained generation **mid-traffic**: every response
//!    carries the generation that answered it, each one is exactly
//!    that generation's bitwise answer, never a blend,
//! 4. shut down and read the server's tallies (batches coalesced,
//!    largest micro-batch, answer-cache hits/misses and in-batch
//!    dedup collapses, zero protocol errors).
//!
//! ```text
//! cargo run --release --example net_serve            # full scale
//! cargo run --release --example net_serve -- --fast  # CI smoke
//! ```

use neurosketch::cache::{AnswerCache, CachedDeployment};
use neurosketch::deploy::{Deployment, LiveDeployment};
use neurosketch::net::{NetClient, NetOptions, NetResponse, NetServer};
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::serve::{ServeOptions, SketchServer};
use neurosketch::{NeuroSketch, NeuroSketchConfig};
use query::aggregate::Aggregate;
use query::exec::QueryEngine;
use query::workload::{ActiveMode, RangeMode, Workload, WorkloadConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let (rows, n_queries) = if fast { (2_000, 200) } else { (12_000, 800) };
    let clients = 4;

    let data = datagen::simple::uniform(rows, 2, 23);
    let wl = Workload::generate(&WorkloadConfig {
        dims: 2,
        active: ActiveMode::Fixed(vec![0]),
        range: RangeMode::Uniform,
        count: n_queries,
        seed: 8,
    })
    .expect("workload");
    let engine = QueryEngine::new(&data, 1);
    let labels = engine.label_batch(&wl.predicate, Aggregate::Avg, &wl.queries, 4);
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 2;
    cfg.target_partitions = 4;
    cfg.train.epochs = if fast { 40 } else { 120 };
    cfg.threads = 4;

    // 1. Build generation 0 and a retrained generation 1 (more
    // epochs — a stand-in for any refresh), and precompute both
    // generations' direct answers for the parity checks.
    let build = |epochs: usize| {
        let mut c = cfg.clone();
        c.train.epochs = epochs;
        let (sketch, report) =
            NeuroSketch::build_from_labeled(&wl.queries, &labels, &c).expect("sketch build");
        let router = DqdRouter::new(sketch, report.leaf_aqcs, RoutingPolicy::default());
        SketchServer::new(
            router,
            ServeOptions {
                threads: 2,
                ..ServeOptions::default()
            },
        )
    };
    let gen0 = build(cfg.train.epochs);
    let gen1 = build(cfg.train.epochs + 7);
    let (expect0, _) = gen0.answer_batch(&wl.queries);
    let (expect1, _) = gen1.answer_batch(&wl.queries);

    // The answer front: one cache shared across generations, one
    // wrapper per generation. The flooder below replays the workload,
    // so the tallies at the end show real hits — and the bitwise parity
    // asserts double as a cache-parity check over the wire.
    let cache = Arc::new(AnswerCache::new(256 << 10, 8));
    let live = Arc::new(LiveDeployment::new(
        CachedDeployment::new(gen0, cache.clone(), 0),
        0,
    ));
    let dims = wl.queries[0].len();
    let mut server = NetServer::bind("127.0.0.1:0", live.clone(), dims, NetOptions::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving generation 0 on {addr}");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let serve_thread = std::thread::spawn(move || {
        server.serve(&flag);
        server
    });

    // 2. Concurrent pipelined clients; every answer bitwise-checked
    // against the direct deployment call.
    let per_client = wl.queries.len() / clients;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let slice = wl.queries[c * per_client..(c + 1) * per_client].to_vec();
            let expect = expect0[c * per_client..(c + 1) * per_client].to_vec();
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client
                    .set_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let responses = client.query_stream(&slice, 16).expect("stream");
                for r in &responses {
                    match r {
                        NetResponse::Answered(a) => {
                            assert_eq!(a.generation, 0);
                            assert_eq!(
                                a.value.to_bits(),
                                expect[a.id as usize].to_bits(),
                                "network answer drifted from the direct call"
                            );
                        }
                        NetResponse::Rejected { id, code } => {
                            panic!("request {id} rejected ({code}) under light load")
                        }
                    }
                }
                responses.len()
            })
        })
        .collect();
    let served: usize = workers.into_iter().map(|w| w.join().expect("client")).sum();
    println!("{served} answers over {clients} connections, all bitwise = direct answer_batch");

    // 3. Hot swap mid-traffic: a flooder streams across the swap;
    // every response must be exactly one generation's bitwise answer.
    let (fa, fb) = (expect0.clone(), expect1.clone());
    let stream: Vec<Vec<f64>> = (0..wl.queries.len() * 4)
        .map(|i| wl.queries[i % wl.queries.len()].clone())
        .collect();
    let flood_len = stream.len();
    let qlen = wl.queries.len();
    let flooder = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect flooder");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let responses = client.query_stream(&stream, 32).expect("flood stream");
        let mut by_gen = [0usize; 2];
        for r in responses {
            if let NetResponse::Answered(a) = r {
                let qi = (a.id as usize) % qlen;
                let want = if a.generation == 0 { fa[qi] } else { fb[qi] };
                assert_eq!(
                    a.value.to_bits(),
                    want.to_bits(),
                    "a response blended generations"
                );
                by_gen[a.generation as usize] += 1;
            }
        }
        by_gen
    });
    live.swap(CachedDeployment::new(gen1, cache, 1), 1);
    println!("swapped in generation 1 mid-traffic");
    let by_gen = flooder.join().expect("flooder");
    println!(
        "flooder: {} answers from generation 0, {} from generation 1, zero blends (of {})",
        by_gen[0], by_gen[1], flood_len
    );

    // 4. Drain and read the tallies.
    shutdown.store(true, Ordering::Relaxed);
    let server = serve_thread.join().expect("server thread");
    let stats = server.stats();
    println!(
        "server: {} queries in {} micro-batches (largest {}), {} rejected, {} protocol errors",
        stats.answered, stats.batches, stats.largest_batch, stats.rejected, stats.protocol_errors
    );
    let front = stats.deploy;
    println!(
        "answer front: {} cache hits, {} cache misses, {} collapsed onto an in-batch duplicate",
        front.cache_hits, front.cache_misses, front.dedup_hits
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(
        (front.cache_hits + front.cache_misses + front.dedup_hits) as u64,
        stats.answered
    );
    assert_eq!(stats.answered as usize, served + flood_len);
    println!("net_serve: OK");
}
