//! Load generation for the [`neurosketch::net`] protocol server:
//! spawn a serving loop over a [`LiveDeployment`], drive it with N
//! pipelined clients, and report throughput plus per-request latency
//! percentiles. The engine of the `netbench` binary, whose `--addr` is
//! the only load generator that can drive a remote server.

use neurosketch::deploy::LiveDeployment;
use neurosketch::net::{Frame, NetClient, NetOptions, NetServer};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running protocol server: its address, the shutdown flag, and the
/// join handle returning the server (and its final stats).
pub struct ServerUnderTest {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// Set to stop the serving loop.
    pub shutdown: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<NetServer>,
}

impl ServerUnderTest {
    /// Stop the loop and return the server.
    pub fn stop(self) -> NetServer {
        self.shutdown.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread")
    }
}

/// Bind an ephemeral loopback port and run [`NetServer::serve`] on a
/// background thread.
pub fn spawn_server(live: Arc<LiveDeployment>, dims: usize, opts: NetOptions) -> ServerUnderTest {
    let mut server =
        NetServer::bind("127.0.0.1:0", live, dims, opts).expect("bind loopback server");
    let addr = server.local_addr();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || {
        server.serve(&flag);
        server
    });
    ServerUnderTest {
        addr,
        shutdown,
        handle,
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Requests answered.
    pub answered: usize,
    /// Requests refused with a typed reject frame (backpressure).
    pub rejected: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub elapsed_ms: f64,
    /// Answered requests per second over the run's wall-clock.
    pub qps: f64,
    /// Median per-request latency (send → response), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency, milliseconds.
    pub p99_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// One client's share of the run: stream `queries` with up to `window`
/// requests outstanding, timestamping each send and its response. The
/// window is refilled with one [`NetClient::send_queries`] write, after
/// every response the last read brought in has been collected — one
/// system call per server batch, not per query. Responses on a
/// connection arrive in request order (the server drains each
/// connection FIFO), so a queue of send times pairs them.
fn client_run(addr: SocketAddr, queries: &[Vec<f64>], window: usize) -> (usize, usize, Vec<f64>) {
    let window = window.max(1);
    let mut client = NetClient::connect(addr).expect("connect load client");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("client timeout");
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut latencies = Vec::with_capacity(queries.len());
    let mut answered = 0usize;
    let mut rejected = 0usize;
    let mut sent = 0usize;
    let mut received = 0usize;
    while received < queries.len() {
        let refill = (window - (sent - received)).min(queries.len() - sent);
        if refill > 0 {
            client
                .send_queries(&queries[sent..sent + refill])
                .expect("send window");
            sent_at.extend(std::iter::repeat_n(Instant::now(), refill));
            sent += refill;
        }
        let mut next = Some(client.recv().expect("load response"));
        while let Some(frame) = next {
            let t0 = sent_at.pop_front().expect("response pairs a send");
            match frame {
                Frame::Answer { .. } => {
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    answered += 1;
                }
                Frame::Reject { .. } => rejected += 1,
                other => panic!("unexpected frame under load: {other:?}"),
            }
            received += 1;
            next = client.recv_buffered().expect("load response");
        }
    }
    (answered, rejected, latencies)
}

/// Drive `clients` concurrent connections, each streaming an
/// interleaved slice of `queries` with `window` requests outstanding,
/// and aggregate throughput + latency percentiles. `window == 1` with
/// one client is the serial request-per-round-trip baseline the
/// coalesced numbers are compared against.
pub fn run_load(
    addr: SocketAddr,
    queries: &[Vec<f64>],
    clients: usize,
    window: usize,
) -> NetLoadReport {
    let clients = clients.max(1);
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let slice: Vec<Vec<f64>> = queries.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || client_run(addr, &slice, window))
        })
        .collect();
    let mut answered = 0usize;
    let mut rejected = 0usize;
    let mut latencies = Vec::with_capacity(queries.len());
    for w in workers {
        let (a, r, mut l) = w.join().expect("load client thread");
        answered += a;
        rejected += r;
        latencies.append(&mut l);
    }
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    NetLoadReport {
        answered,
        rejected,
        elapsed_ms,
        qps: answered as f64 / (elapsed_ms / 1e3),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}
