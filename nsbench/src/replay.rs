//! The traced run, part one: replay the workload single-threaded with a
//! span around each layer's public entry point.
//!
//! `wire_saturate` is replayed the way it is measured, against a
//! *stepped* server — the harness thread sends a window, then calls the
//! server's read, serve and flush phases itself, then receives — so
//! every phase of the trip is a span and the spans sum to the wall.
//! Inner layers are replayed on the same batch right after the outer
//! call and recorded as its children (see `trace.rs`). Each replay runs
//! twice, first without spans or child replays: the ratio of the two
//! per-query walls is the tracing overhead.

use crate::adapter::{
    Agg, Base, Client, HardRouter, Index, Live, Model, Reply, Sharded, Stack, SteppedServer,
};
use crate::gen::unique_batch;
use crate::trace::{Tracer, NO_PARENT};
use crate::workloads::{
    audit_queries, check_artifact, full_build, mismatches, BatchSource, Opts, RefreshFixture,
    WINDOW,
};
use std::time::Instant;

/// What one replay pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Operations replayed: queries, or training queries consumed.
    pub ops: u64,
    /// Wall time of the trips themselves (input generation, child
    /// replays and output checks excluded).
    pub wall_s: f64,
    pub failed: u64,
    pub cache_hits: u64,
    pub dedup_hits: u64,
    pub exact: u64,
    pub evictions: u64,
}

/// Runs `f` in a span when tracing, bare otherwise.
fn span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: u32,
    batch: u32,
    f: impl FnOnce() -> R,
) -> (R, u32) {
    match tracer {
        Some(t) => t.span(name, parent, batch, f),
        None => (f(), NO_PARENT),
    }
}

fn keep_going(tracer: &Option<&mut Tracer>, started: Instant, budget_s: f64) -> bool {
    started.elapsed().as_secs_f64() < budget_s && tracer.as_ref().is_none_or(|t| t.has_room())
}

/// The models and stacks every replay and probe draws on, set up once.
pub struct Fixture {
    pub base: Base,
    pub train: Vec<Vec<f64>>,
    pub labels: Vec<f64>,
    pub model: Model,
    /// Seconds `Model::build` took (the `sketch.build_ms` probe).
    pub model_build_s: f64,
    pub hard_router: HardRouter,
    pub plain: Stack,
    pub fallback: Stack,
    pub sharded_model: Sharded,
    pub sharded: Stack,
}

impl Fixture {
    pub fn new(opts: &Opts) -> Fixture {
        let base = Base::new(&opts.scale);
        let train = crate::adapter::training_queries(opts.scale.train_queries);
        let labels = base.index.label(&train, Agg::Avg);
        let t = Instant::now();
        let model = Model::build(&train, &labels, &opts.scale);
        let model_build_s = t.elapsed().as_secs_f64();
        let sharded_model = Sharded::build(
            base.table,
            &train[..opts.scale.shard_train_queries],
            Agg::Avg,
            &opts.scale,
        );
        Fixture {
            hard_router: model.hard_router(),
            plain: Stack::plain(&model),
            fallback: Stack::fallback(&base, &model),
            sharded: Stack::sharded(&sharded_model),
            sharded_model,
            base,
            train,
            labels,
            model,
            model_build_s,
        }
    }
}

/// `wire_saturate`: the untraced run's stepped trip, one span per phase.
pub fn wire(
    opts: &Opts,
    fx: &Fixture,
    pass_no: u64,
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let live = Live::new(&fx.plain, 0);
    let mut server = SteppedServer::bind(&live);
    let mut client = Client::connect(server.addr())?;
    server.pump();
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut batch_no = 0u32;
    while keep_going(&tracer, started, budget_s) {
        let queries = unique_batch(opts.seed, (pass_no << 32) + pass.ops, WINDOW);
        let t = Instant::now();
        let (first_id, _) = span(&mut tracer, "client.send", NO_PARENT, batch_no, || {
            client.send(&queries)
        });
        let first_id = first_id?;
        span(&mut tracer, "net.pump_read", NO_PARENT, batch_no, || {
            // Loopback delivers before `write` returns; the loop is for
            // the kernel that does not.
            for _ in 0..1000 {
                server.pump();
                if server.pending() >= WINDOW {
                    break;
                }
            }
        });
        let (served, serve_id) = span(&mut tracer, "net.serve_batch", NO_PARENT, batch_no, || {
            let mut served = 0;
            while let Some(n) = server.serve_batch() {
                served += n;
            }
            served
        });
        span(&mut tracer, "net.flush", NO_PARENT, batch_no, || {
            server.pump();
        });
        let (answers, _) = span(&mut tracer, "client.recv", NO_PARENT, batch_no, || {
            let mut answers = Vec::with_capacity(WINDOW);
            for k in 0..served {
                match client.recv() {
                    Ok(Reply::Answer {
                        id,
                        generation: 0,
                        value,
                    }) if id == first_id + k as u64 => answers.push(value),
                    _ => break,
                }
            }
            answers
        });
        pass.wall_s += t.elapsed().as_secs_f64();
        if tracer.is_some() {
            let (_, deploy_id) = span(
                &mut tracer,
                "deploy.answer_tagged",
                serve_id,
                batch_no,
                || live.answer_tagged(&queries),
            );
            span(
                &mut tracer,
                "serve.answer_batch",
                deploy_id,
                batch_no,
                || fx.plain.inner_answer(&queries),
            );
        }
        pass.failed += mismatches(&answers, &live.answer(&queries));
        pass.ops += WINDOW as u64;
        batch_no += 1;
    }
    Ok(pass)
}

/// `batch_unique`: cache front, routed server, then the exact engine on
/// the part of the batch the router refuses. The sketch's share stays
/// inside the server's span: the only public way to run the sketch
/// alone is the bare `answer_batch`, which is a different code path
/// (no pre-transposed layout) and would misattribute the difference.
pub fn batch_unique(
    opts: &Opts,
    fx: &Fixture,
    pass_no: u64,
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let batch_len = opts.scale.batch;
    let source = BatchSource::Unique(opts.seed);
    let evictions0 = fx.fallback.cache_evictions();
    let mut pass = Pass::default();
    let mut scratch = Vec::new();
    let started = Instant::now();
    let mut b = 0u32;
    while keep_going(&tracer, started, budget_s) {
        let batch = source.batch((pass_no << 20) + u64::from(b), batch_len);
        let t = Instant::now();
        let ((answers, tally), front_id) =
            span(&mut tracer, "cache.answer_batch", NO_PARENT, b, || {
                fx.fallback.answer(&batch)
            });
        pass.wall_s += t.elapsed().as_secs_f64();
        let ((want, _), inner_id) = span(&mut tracer, "serve.answer_batch", front_id, b, || {
            fx.fallback.inner_answer(&batch)
        });
        if tracer.is_some() {
            let to_exact: Vec<&Vec<f64>> = batch
                .iter()
                .filter(|q| fx.hard_router.routes_exact(q))
                .collect();
            span(&mut tracer, "query.answer_exact", inner_id, b, || {
                to_exact
                    .iter()
                    .map(|q| fx.base.index.answer_one(&mut scratch, q))
                    .sum::<f64>()
            });
        }
        pass.failed += mismatches(&answers, &want);
        pass.cache_hits += tally.cache_hits as u64;
        pass.dedup_hits += tally.dedup_hits as u64;
        pass.exact += tally.exact as u64;
        pass.ops += batch_len as u64;
        b += 1;
    }
    pass.evictions = fx.fallback.cache_evictions() - evictions0;
    Ok(pass)
}

/// `sharded_zipf`: cache front, then the scatter/gather server on as
/// many queries as the front had to compute (the front does not say
/// which ones; the cost depends on their number, not their values).
pub fn sharded_zipf(
    opts: &Opts,
    fx: &Fixture,
    source: &BatchSource,
    pass_no: u64,
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let batch_len = opts.scale.batch;
    let evictions0 = fx.sharded.cache_evictions();
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut b = 0u32;
    while keep_going(&tracer, started, budget_s) {
        let batch = source.batch((pass_no << 20) + u64::from(b), batch_len);
        let t = Instant::now();
        let ((answers, tally), front_id) =
            span(&mut tracer, "cache.answer_batch", NO_PARENT, b, || {
                fx.sharded.answer(&batch)
            });
        pass.wall_s += t.elapsed().as_secs_f64();
        if tracer.is_some() {
            let computed = batch_len - tally.cache_hits - tally.dedup_hits;
            span(&mut tracer, "shard.answer_batch", front_id, b, || {
                fx.sharded.inner_answer(&batch[..computed])
            });
        }
        if b.is_multiple_of(8) {
            pass.failed += mismatches(&answers, &fx.sharded.inner_answer(&batch).0);
        }
        pass.cache_hits += tally.cache_hits as u64;
        pass.dedup_hits += tally.dedup_hits as u64;
        pass.ops += batch_len as u64;
        b += 1;
    }
    pass.evictions = fx.sharded.cache_evictions() - evictions0;
    Ok(pass)
}

/// `build_refresh`: each step of the build and of the refresh cycle is
/// its own span. The build's partition and training phases are taken
/// from the library's own build report and recorded as children of the
/// build span; the drift check's two halves are replayed.
pub fn build_refresh(
    opts: &Opts,
    rf: &RefreshFixture,
    pass_no: u64,
    budget_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let audit = audit_queries(&opts.scale);
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut it = 0u32;
    while keep_going(&tracer, started, budget_s) {
        let t = Instant::now();
        let built = match tracer.as_deref_mut() {
            None => full_build(&rf.table, &rf.train, &opts.scale),
            Some(tr) => {
                let (index, _) = tr.span("query.index_build", NO_PARENT, it, || {
                    Index::build(&rf.table)
                });
                let (labels, _) = tr.span("query.label_batch", NO_PARENT, it, || {
                    index.label(&rf.train, Agg::Avg)
                });
                let (model, build_id) = tr.span("sketch.build", NO_PARENT, it, || {
                    Model::build(&rf.train, &labels, &opts.scale)
                });
                let now = tr.now_ns();
                let (part_ns, train_ns) = (
                    (model.partition_s * 1e9) as u64,
                    (model.train_s * 1e9) as u64,
                );
                let start = now.saturating_sub(part_ns + train_ns);
                tr.record(
                    "spatial.partition_merge",
                    build_id,
                    it,
                    start,
                    start + part_ns,
                );
                tr.record("nn.train_leaves", build_id, it, start + part_ns, now);
                let (artifact, _) = tr.span("persist.encode", NO_PARENT, it, || model.encode());
                crate::workloads::Built { model, artifact }
            }
        };
        let (bad, _) = span(&mut tracer, "persist.decode_check", NO_PARENT, it, || {
            check_artifact(&built, &audit)
        });
        pass.wall_s += t.elapsed().as_secs_f64();
        pass.ops += rf.train.len() as u64;
        pass.failed += bad;

        let mut d = rf.deploy(((pass_no + 1) * 1000) as usize + it as usize)?;
        let shard = it as usize % crate::adapter::SHARDS;
        let t = Instant::now();
        span(&mut tracer, "client.append_rows", NO_PARENT, it, || {
            d.table.append_drift(
                rf.table.rows() / 8,
                opts.seed ^ (pass_no << 16) ^ u64::from(it),
            );
        });
        let (index, _) = span(&mut tracer, "query.index_build", NO_PARENT, it, || {
            Index::build(&d.table)
        });
        let (drift, check_id) = span(
            &mut tracer,
            "maintenance.drift_check",
            NO_PARENT,
            it,
            || rf.monitor.check(&d.live, &index, Agg::Count),
        );
        let (retrained, _) = span(
            &mut tracer,
            "maintenance.retrain_shard",
            NO_PARENT,
            it,
            || {
                d.sharded
                    .retrain_shard(&d.table, &rf.shard_train, shard, &opts.scale)
            },
        );
        retrained?;
        let (saved, _) = span(&mut tracer, "persist.save_refreshed", NO_PARENT, it, || {
            d.sharded.save_refreshed(&d.manifest, shard)
        });
        saved?;
        let (reloaded, _) = span(&mut tracer, "deploy.reload_sharded", NO_PARENT, it, || {
            d.live.reload_sharded(&d.manifest)
        });
        reloaded?;
        pass.wall_s += t.elapsed().as_secs_f64();
        pass.ops += rf.shard_train.len() as u64;
        if tracer.is_some() {
            let probe = &rf.shard_train[..rf.shard_train.len().min(256)];
            span(&mut tracer, "query.label_batch", check_id, it, || {
                index.label(probe, Agg::Count)
            });
            span(&mut tracer, "deploy.answer_batch", check_id, it, || {
                d.live.answer(probe)
            });
        }
        drop(index);
        if !(drift.is_finite() && RefreshFixture::refreshed_ok(&d, 1, &audit)) {
            pass.failed += 1;
        }
        it += 1;
    }
    Ok(pass)
}
