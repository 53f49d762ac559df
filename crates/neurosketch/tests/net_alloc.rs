//! The NSKW hot path's allocation contract, counted: between socket
//! and deployment a served query costs the allocator nothing. What a
//! micro-batch allocates is a small constant (the dedup tables, the
//! deployment's answer vector, the `NetBatch` report) that does not
//! grow with the batch; [`NetClient::recv`] and
//! [`NetClient::send_queries`] allocate nothing once their buffers
//! have grown; [`encode_frame`] allocates exactly once.
//!
//! The counter is a `#[global_allocator]` over [`System`] that tallies
//! per thread, so the test harness's own threads do not show up. It is
//! the one `unsafe impl` in the workspace's test targets; the library
//! crates stay safe.

mod common;

use common::SumDeployment;
use neurosketch::deploy::LiveDeployment;
use neurosketch::net::{encode_frame, Frame, NetClient, NetOptions, NetServer};
use neurosketch::{BatchScratch, NeuroSketch, NeuroSketchConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Const-initialised and without a destructor, so touching
    /// it from inside the allocator never allocates or registers one.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; both are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn calls_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const WINDOW: usize = 512;
const WARM_UP: usize = 4;
const WINDOWS: usize = 64;

/// Window `w` of a stream in which no query ever repeats.
fn window(w: usize) -> Vec<Vec<f64>> {
    (0..WINDOW)
        .map(|k| {
            let i = (w * WINDOW + k) as f64;
            vec![i, i * 0.5, -i, 1.0]
        })
        .collect()
}

/// Allocator calls of the measured windows at one micro-batch cap, by
/// where they were made, and the micro-batches served.
struct Tally {
    server: u64,
    send: u64,
    recv: u64,
    batches: u64,
}

/// Closed loop on one thread, the way nsbench's `wire_saturate` steps
/// it: send a window, pump until it is all pending, serve every batch,
/// pump the answers out, receive them.
fn run(max_batch: usize) -> Tally {
    let live = Arc::new(LiveDeployment::new(SumDeployment, 0));
    let opts = NetOptions {
        max_batch,
        ..NetOptions::default()
    };
    let mut server = NetServer::bind("127.0.0.1:0", live, 4, opts).unwrap();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(30))).unwrap();
    server.pump_io();

    let mut tally = Tally {
        server: 0,
        send: 0,
        recv: 0,
        batches: 0,
    };
    for w in 0..WARM_UP + WINDOWS {
        let queries = window(w);
        let (first, send) = calls_in(|| client.send_queries(&queries).unwrap());
        let (batches, serve) = calls_in(|| {
            for _ in 0..1000 {
                server.pump_io();
                if server.pending() >= WINDOW {
                    break;
                }
            }
            let mut batches = 0u64;
            while let Some(batch) = server.serve_pending_batch() {
                assert!(batch.size <= max_batch);
                batches += 1;
            }
            server.pump_io();
            batches
        });
        assert_eq!(batches as usize, WINDOW.div_ceil(max_batch));
        let ((), recv) = calls_in(|| {
            for (k, q) in queries.iter().enumerate() {
                match client.recv().unwrap() {
                    Frame::Answer { id, value, .. } => {
                        assert_eq!(id, first + k as u64);
                        assert_eq!(value, q.iter().sum::<f64>());
                    }
                    other => panic!("unexpected frame {other:?}"),
                }
            }
        });
        if w >= WARM_UP {
            tally.server += serve;
            tally.send += send;
            tally.recv += recv;
            tally.batches += batches;
        }
    }
    assert_eq!(
        server.stats().answered,
        ((WARM_UP + WINDOWS) * WINDOW) as u64
    );
    tally
}

/// The count is per thread and every test runs on a thread of its own.
#[test]
fn the_wire_hot_path_allocates_per_batch_not_per_query() {
    let small = run(64);
    let large = run(256);
    for (what, t) in [("max_batch 64", &small), ("max_batch 256", &large)] {
        assert_eq!(t.recv, 0, "{what}: NetClient::recv allocated");
        assert_eq!(t.send, 0, "{what}: NetClient::send_queries allocated");
        assert!(
            t.server <= 16 * t.batches,
            "{what}: {} allocator calls over {} micro-batches",
            t.server,
            t.batches
        );
        assert_eq!(t.server % t.batches, 0, "{what}: not a per-batch cost");
    }
    // Four times the queries per batch, the same calls per batch: none
    // of them is per query.
    assert_eq!(small.server / small.batches, large.server / large.batches);

    let frame = Frame::Query {
        id: 1,
        query: vec![0.25, 0.5, 0.75, 1.0],
    };
    let (bytes, calls) = calls_in(|| encode_frame(&frame));
    assert_eq!(calls, 1, "encode_frame of a Query");
    assert_eq!(bytes.len(), 60);
}

/// `NeuroSketch::answer`, the adapter's per-query entry point, keeps its
/// scratch per thread: once every partition has answered, a call costs
/// the allocator nothing, and the answer is the caller-scratch path's.
#[test]
fn a_steady_state_single_answer_allocates_nothing() {
    let queries: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i as f64 * 0.377) % 1.0, 0.1 + (i as f64 * 0.211) % 0.5])
        .collect();
    let labels: Vec<f64> = queries.iter().map(|q| q[0] * 10.0 + q[1]).collect();
    let mut cfg = NeuroSketchConfig::small();
    cfg.threads = 1;
    cfg.train.epochs = 3;
    let (sketch, _) = NeuroSketch::build_from_labeled(&queries, &labels, &cfg).unwrap();
    assert!(sketch.partitions() > 1);
    let warm: Vec<f64> = queries.iter().map(|q| sketch.answer(q)).collect();
    let (answers, calls) = calls_in(|| queries.iter().map(|q| sketch.answer(q)).sum::<f64>());
    assert_eq!(calls, 0, "{} single answers allocated", queries.len());
    assert_eq!(answers, warm.iter().sum::<f64>());
    let mut scratch = BatchScratch::default();
    for (q, a) in queries.iter().zip(&warm) {
        assert_eq!(sketch.answer_with(&mut scratch, q).to_bits(), a.to_bits());
    }
}
