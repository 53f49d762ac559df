//! Protocol-level serving battery for [`neurosketch::net`]: loopback
//! parity (server answers bitwise identical to direct
//! [`Deployment::answer_batch`], at any thread count and any
//! micro-batch coalescing schedule), deterministic overload /
//! backpressure, round-robin fairness against a flooding client, and
//! the never-blend-generations contract under a hot swap mid-traffic.

use neurosketch::cache::{entry_bytes, AnswerCache, CachedDeployment};
use neurosketch::deploy::{DeployStats, LiveDeployment};
use neurosketch::net::{
    decode_frame, encode_frame, Frame, NetClient, NetOptions, NetResponse, NetServer,
};
use neurosketch::router::{DqdRouter, RoutingPolicy};
use neurosketch::{Deployment, NeuroSketch, NeuroSketchConfig, ServeOptions, SketchServer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
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

/// Deterministic overload: with a queue bound of 4, ten pipelined
/// queries yield exactly six typed [`RejectCode::QueueFull`] frames —
/// no hang, no silent drop — and the four queued ones are still
/// answered. Driven by stepping `pump_io` / `serve_pending_batch`
/// directly so the outcome is exact, not timing-dependent.
#[test]
fn overload_yields_typed_rejections_not_hangs_or_drops() {
    let queries = workload(10);
    let (sketch, _) = trained(&queries, |q| q[0] + q[1]);
    let expected = {
        let (a, _) = Deployment::answer_batch(&sketch, &queries);
        a
    };
    let live = Arc::new(LiveDeployment::new(sketch, 0));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        live,
        2,
        NetOptions {
            queue_cap: 4,
            max_batch: 64,
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for q in &queries {
        client.send_query(q).unwrap();
    }

    // Pump until every frame is decoded; the deadline only guards
    // against a wedged kernel, the assertions are exact.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.stats().queries < 10 {
        server.pump_io();
        assert!(std::time::Instant::now() < deadline, "server wedged");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(server.stats().rejected, 6, "queries past the bound of 4");
    assert_eq!(server.pending(), 4);

    let batch = server.serve_pending_batch().expect("four queued queries");
    assert_eq!(batch.size, 4, "the whole queue fits one micro-batch");
    assert_eq!(server.pending(), 0);
    server.pump_io(); // flush answers

    let mut answered = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..10 {
        // Keep the single-threaded server flushing while we read.
        server.pump_io();
        match client.recv() {
            Ok(neurosketch::net::Frame::Answer { id, value, .. }) => {
                answered.push((id, value));
            }
            Ok(neurosketch::net::Frame::Reject { id, code }) => {
                assert_eq!(code, neurosketch::net::RejectCode::QueueFull);
                rejected.push(id);
            }
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(e) => panic!("client error: {e}"),
        }
    }
    answered.sort_by_key(|&(id, _)| id);
    rejected.sort_unstable();
    assert_eq!(rejected, vec![4, 5, 6, 7, 8, 9]);
    assert_eq!(
        answered.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );
    for &(id, value) in &answered {
        assert_eq!(value.to_bits(), expected[id as usize].to_bits());
    }
}

/// Round-robin fairness: a client with 64 queries queued cannot starve
/// a client with 4. While both have pending work every micro-batch
/// splits evenly between them; the slow client's entire workload is
/// served in the first batch, not after the flooder's.
#[test]
fn flooding_client_cannot_starve_others() {
    let queries = workload(68);
    let (sketch, _) = trained(&queries, |q| 2.0 * q[0]);
    let live = Arc::new(LiveDeployment::new(sketch, 0));
    let mut server = NetServer::bind(
        "127.0.0.1:0",
        live,
        2,
        NetOptions {
            max_batch: 8,
            ..NetOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut flooder = NetClient::connect(addr).unwrap();
    let mut slow = NetClient::connect(addr).unwrap();
    flooder.set_timeout(Some(Duration::from_secs(30))).unwrap();
    slow.set_timeout(Some(Duration::from_secs(30))).unwrap();
    for q in queries.iter().take(64) {
        flooder.send_query(q).unwrap();
    }
    for q in queries.iter().skip(64) {
        slow.send_query(q).unwrap();
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.stats().queries < 68 {
        server.pump_io();
        assert!(std::time::Instant::now() < deadline, "server wedged");
        std::thread::sleep(Duration::from_micros(200));
    }

    // Batch 1: both clients pending → an even 4/4 split of the 8 slots.
    let b1 = server.serve_pending_batch().expect("work pending");
    assert_eq!(b1.size, 8);
    assert_eq!(b1.per_client.len(), 2, "both clients in the first batch");
    for &(client, taken) in &b1.per_client {
        assert_eq!(taken, 4, "client {client} did not get an even share");
    }

    // Batch 2: the slow client is fully served; the flooder gets the
    // whole batch — fairness is about admission, not throttling.
    let b2 = server.serve_pending_batch().expect("flooder still pending");
    assert_eq!(b2.size, 8);
    assert_eq!(b2.per_client.len(), 1);

    // Drain the rest; the flooder still gets everything it queued.
    let mut total = b1.size + b2.size;
    while let Some(b) = server.serve_pending_batch() {
        total += b.size;
    }
    assert_eq!(total, 68, "no query was dropped");
    server.pump_io();

    // The slow client's 4 answers are all available immediately.
    for _ in 0..4 {
        server.pump_io();
        match slow.recv().unwrap() {
            neurosketch::net::Frame::Answer { .. } => {}
            other => panic!("unexpected frame {other:?}"),
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

/// Query frames a [`SilentPeer`] tries to pipeline: ≈ 17 MB of answers,
/// several times what the kernel's socket buffers absorb.
const FLOOD: usize = 400_000;
/// Consecutive server steps through which the socket may refuse bytes
/// before the peer concludes it is being held back.
const PATIENCE: usize = 50;

/// A peer that pipelines queries and never reads a response, on a
/// non-blocking socket driven from the test's own thread. `flood`
/// writes up to [`FLOOD`] query frames, stepping the server as it goes,
/// and gives up once the socket has refused bytes through [`PATIENCE`]
/// consecutive server steps — the peer's view of flow control. Returns
/// the frames fully written.
struct SilentPeer {
    stream: TcpStream,
    next_id: u64,
    /// Largest [`NetServer::buffer_bytes`] seen after any server step.
    peak_buffer_bytes: usize,
}

impl SilentPeer {
    fn connect(server: &mut NetServer) -> SilentPeer {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nonblocking(true).unwrap();
        server.pump_io();
        assert_eq!(server.connections(), 1);
        SilentPeer {
            stream,
            next_id: 0,
            peak_buffer_bytes: 0,
        }
    }

    fn step(&mut self, server: &mut NetServer) {
        step(server);
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(server.buffer_bytes());
    }

    fn flood(&mut self, server: &mut NetServer) -> usize {
        let queries = workload(1000);
        for sent in 0..FLOOD {
            let frame = encode_frame(&Frame::Query {
                id: self.next_id,
                query: queries[sent % queries.len()].clone(),
            });
            let (mut off, mut refused) = (0usize, 0usize);
            while off < frame.len() {
                match self.stream.write(&frame[off..]) {
                    Ok(n) => {
                        off += n;
                        refused = 0;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.step(server);
                        refused += 1;
                        if refused >= PATIENCE {
                            // Mid-frame or not, the peer stops here.
                            return sent;
                        }
                    }
                    Err(e) => panic!("flood write: {e}"),
                }
            }
            self.next_id += 1;
            if sent % 1000 == 999 {
                self.step(server);
            }
        }
        FLOOD
    }

    /// Start reading at last: step the server and collect response
    /// frames until `want` have arrived; `(answers, rejects)`.
    fn drain(&mut self, server: &mut NetServer, want: usize) -> (usize, usize) {
        let (mut answers, mut rejects) = (0usize, 0usize);
        let mut buf: Vec<u8> = Vec::new();
        let mut tmp = vec![0u8; 64 * 1024];
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while answers + rejects < want {
            assert!(std::time::Instant::now() < deadline, "drain wedged");
            self.step(server);
            match self.stream.read(&mut tmp) {
                Ok(0) => panic!("server closed a well-behaved flooder"),
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("drain read: {e}"),
            }
            let mut used = 0usize;
            while let Some((frame, n)) = decode_frame(&buf[used..], u32::MAX).unwrap() {
                used += n;
                match frame {
                    Frame::Answer { .. } => answers += 1,
                    Frame::Reject { .. } => rejects += 1,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            buf.drain(..used);
        }
        (answers, rejects)
    }
}

/// One full turn of the stepped server: I/O, every pending batch, I/O.
fn step(server: &mut NetServer) {
    server.pump_io();
    while server.serve_pending_batch().is_some() {}
    server.pump_io();
}

/// A connection that dies with output still staged is reaped: a peer
/// pipelines until the server holds answers it cannot deliver, then
/// drops without reading one. The server must notice, discard the
/// undeliverable tail and free the slot — `connections()` back to 0,
/// `closed` 1 — not carry the socket and its buffers forever.
#[test]
fn dead_connection_with_unflushed_output_is_reaped() {
    let queries = workload(64);
    let (sketch, _) = trained(&queries, |q| q[0] - q[1]);
    let live = Arc::new(LiveDeployment::new(sketch, 0));
    let mut server = NetServer::bind("127.0.0.1:0", live, 2, NetOptions::default()).unwrap();

    let mut peer = SilentPeer::connect(&mut server);
    peer.flood(&mut server);
    assert!(server.stats().answered > 0, "the flood was being served");
    drop(peer);

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.connections() > 0 && std::time::Instant::now() < deadline {
        step(&mut server);
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(server.connections(), 0, "dead connection never reaped");
    assert_eq!(server.stats().closed, 1);
}

/// Per-connection buffering is bounded whatever the peer does: a peer
/// that floods and never reads is read only until its unsent responses
/// pass the high-water mark, after which TCP flow control stops *it* —
/// it cannot make the server stage [`FLOOD`] answers. The server's buffer
/// memory for the connection stays within
/// [`NetOptions::conn_buffer_bound`] throughout, stalled reads are
/// counted, and nothing is lost: once the peer does read, every query
/// it managed to send has exactly one response.
#[test]
fn flooding_without_reading_stays_within_the_buffer_bound() {
    let queries = workload(64);
    let (sketch, _) = trained(&queries, |q| q[0] - q[1]);
    let live = Arc::new(LiveDeployment::new(sketch, 0));
    let opts = NetOptions::default();
    let mut server = NetServer::bind("127.0.0.1:0", live, 2, opts).unwrap();

    let mut peer = SilentPeer::connect(&mut server);
    let written = peer.flood(&mut server);
    assert!(
        written < FLOOD,
        "flow control never pushed back on a peer that does not read"
    );
    assert!(server.stats().stalled_reads > 0);
    assert!(
        peer.peak_buffer_bytes <= opts.conn_buffer_bound(),
        "connection buffers reached {} B, bound is {} B",
        peer.peak_buffer_bytes,
        opts.conn_buffer_bound()
    );

    let (answers, rejects) = peer.drain(&mut server, written);
    assert_eq!(answers + rejects, written, "one response per query sent");
    let stats = server.stats();
    assert_eq!(stats.queries, written as u64);
    assert_eq!(stats.answered, answers as u64);
    assert_eq!(stats.rejected, rejects as u64);
    assert_eq!(stats.protocol_errors, 0);
    // The bound held while the backlog drained, too.
    assert!(peer.peak_buffer_bytes <= opts.conn_buffer_bound());
}

/// The whole serving composition, stepped: two connections send
/// overlapping, repeat-heavy windows → [`NetServer`] →
/// [`LiveDeployment`] → [`CachedDeployment`] over a cache too small for
/// the working set → the sketch, with one hot swap between
/// micro-batches. The wire server adds no dedup of its own, so each
/// micro-batch's tally is the front's: its `dedup_hits` are exactly the
/// duplicates that batch carried, the cumulative counters reconcile
/// with `answered`, and every answer is bitwise the per-query oracle of
/// the generation stamped on its frame.
#[test]
fn in_batch_duplicates_are_computed_once_and_answered_bitwise() {
    const WINDOW: usize = 40;
    const MAX_BATCH: usize = 20;
    let distinct = workload(7);
    let training = workload(64);
    let oracles = [
        trained(&training, |q| 5.0 * q[0] - q[1]).0,
        trained(&training, |q| 2.0 - 3.0 * q[0] + q[1]).0,
    ];
    // First occurrences scattered among the repeats, in no particular
    // pattern, and the two windows overlap.
    let windows: [Vec<Vec<f64>>; 2] = [
        (0..WINDOW)
            .map(|i| distinct[(i * i + 3 * i) % 7].clone())
            .collect(),
        (0..WINDOW)
            .map(|i| distinct[(5 * i + 2) % 6].clone())
            .collect(),
    ];

    // Room for three of the seven distinct queries.
    let cache = Arc::new(AnswerCache::new(3 * entry_bytes(2), 1));
    let front = |generation: usize| {
        CachedDeployment::new(
            oracles[generation].clone(),
            cache.clone(),
            generation as u64,
        )
    };
    let live = Arc::new(LiveDeployment::new(front(0), 0));
    let opts = NetOptions {
        max_batch: MAX_BATCH,
        ..NetOptions::default()
    };
    let mut server = NetServer::bind("127.0.0.1:0", live.clone(), 2, opts).unwrap();
    // Accept one at a time, so connection ids 0 and 1 are clients 0 and 1.
    let mut clients: Vec<NetClient> = (0..2)
        .map(|_| {
            let mut client = NetClient::connect(server.local_addr()).unwrap();
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let accepted = server.connections() + 1;
            while server.connections() < accepted {
                server.pump_io();
            }
            client
        })
        .collect();
    let first_ids: Vec<u64> = clients
        .iter_mut()
        .zip(&windows)
        .map(|(client, window)| client.send_queries(window).unwrap())
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.pending() < 2 * WINDOW {
        server.pump_io();
        assert!(std::time::Instant::now() < deadline, "server wedged");
    }

    // Serve micro-batch by micro-batch, swapping generations half way.
    // A connection's queries leave its queue in order, so
    // `per_client` says exactly which queries a batch carried.
    let mut taken = [0usize; 2];
    let mut stamped: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut tally = DeployStats::default();
    for step in 0..2 * WINDOW / MAX_BATCH {
        if step == WINDOW / MAX_BATCH {
            live.swap(front(1), 1);
        }
        let batch = server.serve_pending_batch().expect("queries pending");
        assert_eq!(batch.size, MAX_BATCH);
        assert_eq!(batch.generation, (step >= WINDOW / MAX_BATCH) as u64);
        let mut carried: Vec<Vec<u64>> = Vec::new();
        for &(conn, count) in &batch.per_client {
            let c = conn as usize;
            for q in &windows[c][taken[c]..taken[c] + count] {
                carried.push(q.iter().map(|v| v.to_bits()).collect());
                stamped[c].push(batch.generation);
            }
            taken[c] += count;
        }
        assert_eq!(carried.len(), batch.size);
        carried.sort();
        carried.dedup();
        assert_eq!(batch.stats.queries, batch.size);
        assert_eq!(
            batch.stats.dedup_hits,
            batch.size - carried.len(),
            "micro-batch {step}: the front collapses exactly the duplicates sent"
        );
        assert_eq!(
            batch.stats.cache_hits + batch.stats.cache_misses,
            carried.len(),
            "micro-batch {step}: every distinct query is one hit or one miss"
        );
        tally += batch.stats;
    }
    assert_eq!(server.pending(), 0);
    assert!(tally.cache_hits > 0, "no micro-batch ever hit the cache");
    assert!(cache.stats().evictions > 0, "the budget never evicted");
    let stats = server.stats();
    assert_eq!(stats.answered, 2 * WINDOW as u64);
    assert_eq!(stats.deploy, tally, "the server sums the front's tally");
    assert_eq!(stats.deploy.queries as u64, stats.answered);
    assert_eq!(
        stats.deploy.dedup_hits + stats.deploy.cache_hits + stats.deploy.cache_misses,
        stats.deploy.queries
    );

    server.pump_io();
    for (c, client) in clients.iter_mut().enumerate() {
        for (k, q) in windows[c].iter().enumerate() {
            match client.recv().unwrap() {
                Frame::Answer {
                    id,
                    generation,
                    value,
                } => {
                    assert_eq!(id, first_ids[c] + k as u64);
                    assert_eq!(generation, stamped[c][k], "client {c} id {id}");
                    let want = oracles[generation as usize].answer(q);
                    assert_eq!(value.to_bits(), want.to_bits(), "client {c} id {id}");
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
}
