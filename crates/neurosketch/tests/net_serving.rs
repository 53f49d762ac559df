//! [`neurosketch::net`]'s threaded `serve` loop under concurrent
//! clients: loopback parity (server answers bitwise identical to direct
//! [`Deployment::answer_batch`], at any thread count and any
//! micro-batch coalescing schedule), and the never-blend-generations
//! contract under a hot swap landing from another thread mid-traffic.
//! The stepped server's backpressure, fairness, buffer bounds, dedup
//! and swaps between micro-batches are `tests/composition.rs`'s wire
//! leg.

use neurosketch::deploy::LiveDeployment;
use neurosketch::net::{NetClient, NetOptions, NetResponse, NetServer};
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::{Deployment, NeuroSketch, NeuroSketchConfig, ServeOptions, SketchServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic 2-d query workload.
fn workload(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![(i as f64 * 0.7548) % 1.0, (i as f64 * 0.5698) % 1.0])
        .collect()
}

/// A small trained sketch over `queries` labeled by `f`, plus its
/// leaf AQCs (for router construction).
fn trained(queries: &[Vec<f64>], f: impl Fn(&[f64]) -> f64) -> (NeuroSketch, Vec<f64>) {
    let labels: Vec<f64> = queries.iter().map(|q| f(q)).collect();
    let mut cfg = NeuroSketchConfig::small();
    cfg.tree_height = 2;
    cfg.target_partitions = 4;
    cfg.train.epochs = 5;
    let (sketch, report) = NeuroSketch::build_from_labeled(queries, &labels, &cfg).unwrap();
    (sketch, report.leaf_aqcs)
}

type ServerHandle = (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<NetServer>,
);

fn spawn_server(live: Arc<LiveDeployment>, opts: NetOptions) -> ServerHandle {
    let mut server = NetServer::bind("127.0.0.1:0", live, 2, opts).unwrap();
    let addr = server.local_addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || {
        server.serve(&flag);
        server
    });
    (addr, shutdown, handle)
}

/// N concurrent pipelined clients through the server receive answers
/// bitwise identical to a direct [`Deployment::answer_batch`] on the
/// same queries — across serving thread counts and micro-batch caps
/// (1 = fully serial, 5 = mid-batch coalescing, 1024 = everything
/// pending in one batch). The coalescing schedule under concurrency is
/// nondeterministic by construction; bitwise parity must hold for all
/// of them.
#[test]
fn loopback_parity_any_threads_any_coalescing() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 40;
    let queries = workload(CLIENTS * PER_CLIENT);
    let (sketch, aqcs) = trained(&queries, |q| 7.0 * q[0] - 3.0 * q[1]);

    for threads in [1usize, 4] {
        for max_batch in [1usize, 5, 1024] {
            let router = DqdRouter::new(sketch.clone(), aqcs.clone(), RoutingPolicy::default());
            let deploy = SketchServer::new(
                router,
                ServeOptions {
                    threads,
                    ..ServeOptions::default()
                },
            );
            let (expected, _) = deploy.answer_batch(&queries);
            let live = Arc::new(LiveDeployment::new(deploy, 0));
            let (addr, shutdown, handle) = spawn_server(
                live,
                NetOptions {
                    max_batch,
                    ..NetOptions::default()
                },
            );

            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let slice = queries[c * PER_CLIENT..(c + 1) * PER_CLIENT].to_vec();
                    std::thread::spawn(move || {
                        let mut client = NetClient::connect(addr).unwrap();
                        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
                        client.query_stream(&slice, 16).unwrap()
                    })
                })
                .collect();
            for (c, worker) in workers.into_iter().enumerate() {
                let responses = worker.join().unwrap();
                assert_eq!(responses.len(), PER_CLIENT);
                for resp in responses {
                    match resp {
                        NetResponse::Answered(a) => {
                            let want = expected[c * PER_CLIENT + a.id as usize];
                            assert_eq!(
                                a.value.to_bits(),
                                want.to_bits(),
                                "threads={threads} max_batch={max_batch} client={c} id={}",
                                a.id
                            );
                            assert_eq!(a.generation, 0);
                        }
                        NetResponse::Rejected { id, code } => {
                            panic!("request {id} rejected ({code}) under light load")
                        }
                    }
                }
            }
            shutdown.store(true, Ordering::Relaxed);
            let server = handle.join().unwrap();
            let stats = server.stats();
            assert_eq!(stats.answered, (CLIENTS * PER_CLIENT) as u64);
            assert_eq!(stats.rejected, 0);
            assert_eq!(stats.protocol_errors, 0);
            assert!(stats.largest_batch <= max_batch);
        }
    }
}

/// Hot-swap under load: generation G → G+1 lands mid-traffic; every
/// response is answered from exactly one generation — an answer
/// stamped G is bitwise G's, an answer stamped G+1 is bitwise G+1's,
/// and nothing in between. Both generations are provably observed.
#[test]
fn hot_swap_under_load_never_blends_generations() {
    let queries = workload(80);
    let (sketch_a, _) = trained(&queries, |q| 7.0 * q[0] - 3.0 * q[1]);
    let (sketch_b, _) = trained(&queries, |q| 20.0 * q[1] + 5.0);
    let (expected_a, _) = Deployment::answer_batch(&sketch_a, &queries);
    let (expected_b, _) = Deployment::answer_batch(&sketch_b, &queries);
    // The two generations must actually disagree for the test to bite.
    assert!(queries
        .iter()
        .enumerate()
        .any(|(i, _)| expected_a[i].to_bits() != expected_b[i].to_bits()));

    let live = Arc::new(LiveDeployment::new(sketch_a, 0));
    let (addr, shutdown, handle) = spawn_server(live.clone(), NetOptions::default());

    // A background flooder streams across the swap; every response it
    // sees must be internally consistent (stamp ⇒ that generation's
    // bitwise answer).
    let flood_queries = queries.clone();
    let (fa, fb) = (expected_a.clone(), expected_b.clone());
    let flooder = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr).unwrap();
        client.set_timeout(Some(Duration::from_secs(30))).unwrap();
        let stream: Vec<Vec<f64>> = (0..800)
            .map(|i| flood_queries[i % flood_queries.len()].clone())
            .collect();
        let responses = client.query_stream(&stream, 32).unwrap();
        let mut seen = [0usize; 2];
        for r in responses {
            match r {
                NetResponse::Answered(a) => {
                    let qi = (a.id as usize) % flood_queries.len();
                    let want = match a.generation {
                        0 => fa[qi],
                        1 => fb[qi],
                        g => panic!("unknown generation {g}"),
                    };
                    assert_eq!(
                        a.value.to_bits(),
                        want.to_bits(),
                        "id {} stamped gen {} but value is not that generation's",
                        a.id,
                        a.generation
                    );
                    seen[a.generation as usize] += 1;
                }
                NetResponse::Rejected { id, code } => {
                    panic!("request {id} rejected ({code}) under light load")
                }
            }
        }
        seen
    });

    // Phase 1: all responses received before the swap are generation 0.
    let mut client = NetClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for (i, q) in queries.iter().enumerate().take(40) {
        let a = client.query(q).unwrap();
        assert_eq!(a.generation, 0);
        assert_eq!(a.value.to_bits(), expected_a[i].to_bits());
    }

    // The swap: atomic, mid-traffic.
    live.swap(sketch_b, 1);

    // Phase 2: everything sent after the swap is generation 1.
    for (i, q) in queries.iter().enumerate().skip(40) {
        let a = client.query(q).unwrap();
        assert_eq!(a.generation, 1);
        assert_eq!(a.value.to_bits(), expected_b[i].to_bits());
    }

    let seen = flooder.join().unwrap();
    assert_eq!(seen[0] + seen[1], 800);
    shutdown.store(true, Ordering::Relaxed);
    let server = handle.join().unwrap();
    assert_eq!(server.stats().protocol_errors, 0);
}
