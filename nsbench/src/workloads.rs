//! The four workloads, untraced: set-up (three times, median
//! reported), timed phase with the output check built in, audit.
//!
//! Every workload is measured in segments. A segment's operations are
//! timed, then — untimed — recomputed through the same deployment's
//! direct in-process `answer_batch` and compared bit for bit, so memory
//! stays bounded however fast the system runs and no run ends without
//! its outputs having been checked. Each reported timing is the median
//! over segments: one hypervisor stall spoils one segment, not the run.

use crate::adapter::{
    self, Agg, Base, Client, Index, Live, Model, Monitor, Reply, Scale, Sharded, Stack,
    SteppedServer, Table,
};
use crate::gen::{unique_batch, ZipfStream};
use crate::report::RunResult;
use crate::stats::{median, peak_rss_mib, percentile, process_cpu_ns, thread_cpu_ns};
use std::path::PathBuf;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "wire_saturate",
    "batch_unique",
    "sharded_zipf",
    "build_refresh",
];

/// Set-ups per run; `setup_s` and the serving workloads' `build_s` are
/// medians over them. `build_refresh`'s set-up is a third as long and
/// twice as jumpy, so it is run more often.
const SETUP_REPS: usize = 3;
const SETUP_REPS_REFRESH: usize = 7;
/// Share of the measured time each set-up spends warming the stack up.
const WARMUP_SHARE: f64 = 0.05;
/// Outstanding requests in `wire_saturate`: two full micro-batches
/// (256 each) per trip, so the server's coalescing and batch assembly
/// run at the size they have under saturation.
pub const WINDOW: usize = 512;
/// Requests generated between two timed stretches of a wire segment.
const TRIP_CHUNK: usize = 4096;
/// How many `wire_saturate` segments share one full recomputation
/// (request ids and generation stamps are checked on every reply of
/// every segment).
const VERIFY_EVERY_SEGMENT: u64 = 4;
/// In-process calls per throughput slice.
const SLICE_CALLS: usize = 32;
/// One in this many in-process batches is recomputed through the
/// uncached deployment (all of them would double the run).
const VERIFY_EVERY_UNIQUE: u64 = 8;
const VERIFY_EVERY_ZIPF: u64 = 64;
pub const ZIPF_S: f64 = 1.1;
/// Refresh cycles after each full build in `build_refresh`.
const REFRESH_CYCLES: usize = 4;
/// Warm-up traffic comes from its own stream, so the timed stream never
/// repeats a query the system has seen.
const WARM_STREAM: u64 = 0x57A2_0000_0000;
/// The audit stream: fixed, so `nmae` depends on the code alone.
const AUDIT_SEED: u64 = 0xA0D1_7000;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

impl Opts {
    fn warmup(&self) -> f64 {
        self.seconds * WARMUP_SHARE
    }
}

/// Bitwise comparison; counts the positions that differ.
pub fn mismatches(got: &[f64], want: &[f64]) -> u64 {
    let differing = got
        .iter()
        .zip(want)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Run `make` `reps` times, tearing all but the last fixture
/// down; the last fixture, the median set-up time and the median of
/// whatever `build_s` each fixture reports.
fn set_up<F>(
    reps: usize,
    mut make: impl FnMut() -> F,
    build_s: impl Fn(&F) -> f64,
    drop_it: impl Fn(F),
) -> (F, f64, f64) {
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            drop_it(previous);
        }
        let t = Instant::now();
        let fixture = make();
        setups.push(t.elapsed().as_secs_f64());
        builds.push(build_s(&fixture));
        last = Some(fixture);
    }
    (
        last.expect("at least one set-up"),
        median(&setups),
        median(&builds),
    )
}

/// The monolithic model every serving workload but `sharded_zipf`
/// serves, built the way `build_refresh` times it.
struct Mono {
    base: Base,
    model: Model,
    build_s: f64,
    artifact_bytes: usize,
}

impl Mono {
    fn new(scale: &Scale) -> Mono {
        let base = Base::new(scale);
        let train = adapter::training_queries(scale.train_queries);
        let t = Instant::now();
        let labels = base.index.label(&train, Agg::Avg);
        let model = Model::build(&train, &labels, scale);
        let artifact_bytes = model.encode().len();
        Mono {
            base,
            model,
            build_s: t.elapsed().as_secs_f64(),
            artifact_bytes,
        }
    }
}

pub fn audit_queries(scale: &Scale) -> Vec<Vec<f64>> {
    unique_batch(AUDIT_SEED, 0, scale.audit_queries)
}

/// What the timed phase of a serving workload measured.
#[derive(Default)]
struct Timed {
    attempted: u64,
    failed: u64,
    /// Per segment or slice.
    qps: Vec<f64>,
    cpu_us_per_query: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Informational lines for the report above the result line.
    notes: Vec<String>,
}

fn finish(
    opts: &Opts,
    timed: Timed,
    setup_s: f64,
    build_s: f64,
    nmae: f64,
    artifact_bytes: usize,
) -> RunResult {
    for note in &timed.notes {
        println!("{note}");
    }
    let mut r = RunResult {
        attempted: timed.attempted.max(1),
        failed: timed.failed,
        metrics: Vec::new(),
    };
    if timed.qps.len() >= 4 {
        let [q1, q2, q3] = crate::stats::quartiles(&timed.qps);
        let mut sorted = timed.qps.clone();
        sorted.sort_by(f64::total_cmp);
        let decile = |d: usize| sorted[(sorted.len() - 1) * d / 10];
        println!(
            "throughput per segment: p10 {:.0} q1 {q1:.0} median {q2:.0} q3 {q3:.0} p90 {:.0} \
             (iqr/median {:.4})",
            decile(1),
            decile(9),
            (q3 - q1) / q2
        );
    }
    r.push("setup_s", setup_s, "s");
    r.push("throughput_qps", median(&timed.qps), "1/s");
    r.push("latency_p50_us", median(&timed.p50_us), "us");
    r.push("cpu_us_per_query", median(&timed.cpu_us_per_query), "us");
    r.push("nmae", nmae, "ratio");
    r.push("peak_rss_mb", peak_rss_mib(), "MiB");
    r.push("build_s", build_s, "s");
    r.push("artifact_bytes", artifact_bytes as f64, "bytes");
    println!(
        "{}: seed {} seconds {} | {} segments | failed_share {:.3e} ({} of {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        timed.qps.len(),
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
    if !timed.p99_us.is_empty() {
        println!(
            "latency_p99_us {:.1} us (median of {} per-segment p99s)",
            median(&timed.p99_us),
            timed.p99_us.len()
        );
    }
    r
}

// ------------------------------------------------------------------ wire

/// The wire workloads run the server *stepped*: the one harness thread
/// writes a window of requests, calls the server's read, serve and flush
/// phases itself, then reads the answers. Every byte still crosses the
/// loopback socket and every server phase runs, but on one thread: two
/// busy threads on this rig's two shared vCPUs measured the host's
/// scheduler (identical code spread 26-35% between runs). The threaded
/// server is measured per layer (`net.threaded_*`, `net.paced_*`).
struct WireFixture {
    mono: Mono,
    live: Live,
    server: SteppedServer,
    client: Client,
}

impl WireFixture {
    fn new(opts: &Opts) -> Result<WireFixture, String> {
        let mono = Mono::new(&opts.scale);
        let live = Live::new(&Stack::plain(&mono.model), 0);
        let mut server = SteppedServer::bind(&live);
        let client = Client::connect(server.addr())?;
        server.pump();
        Ok(WireFixture {
            mono,
            live,
            server,
            client,
        })
    }
}

/// One segment's measurements.
pub struct Segment {
    /// Wall and CPU time of the trips alone (request generation happens
    /// between timed chunks).
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub failed: u64,
    /// Send to answer, per request, ascending, microseconds.
    pub latencies_us: Vec<f64>,
    pub answers: Vec<f64>,
}

/// Closed loop against the stepped server, `window` requests per trip:
/// queries `start..start + count` of stream `seed`, generated a chunk
/// at a time outside the timed part. Every reply is checked for its
/// request id and generation.
pub fn stepped_segment(
    server: &mut SteppedServer,
    client: &mut Client,
    seed: u64,
    start: u64,
    count: usize,
    window: usize,
) -> Result<Segment, String> {
    let mut seg = Segment {
        wall_s: 0.0,
        cpu_ns: 0,
        failed: 0,
        latencies_us: Vec::with_capacity(count),
        answers: vec![f64::NAN; count],
    };
    let mut done = 0usize;
    while done < count {
        let chunk = unique_batch(
            seed,
            start + done as u64,
            TRIP_CHUNK.max(window).min(count - done),
        );
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        for queries in chunk.chunks(window) {
            let sent = Instant::now();
            let first_id = client.send(queries)?;
            // Loopback delivers before `write` returns; the loop is for
            // the kernel that does not.
            for _ in 0..1000 {
                server.pump();
                if server.pending() >= queries.len() {
                    break;
                }
            }
            while server.serve_batch().is_some() {}
            server.pump();
            for k in 0..queries.len() {
                match client.recv()? {
                    Reply::Answer {
                        id,
                        generation: 0,
                        value,
                    } if id == first_id + k as u64 => {
                        seg.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        seg.answers[done + k] = value;
                    }
                    _ => seg.failed += 1,
                }
            }
            done += queries.len();
        }
        seg.wall_s += t0.elapsed().as_secs_f64();
        seg.cpu_ns += thread_cpu_ns() - cpu0;
    }
    seg.latencies_us.sort_by(f64::total_cmp);
    Ok(seg)
}

/// Recompute a segment's answers in process and count the differences.
fn check_segment(live: &Live, seed: u64, start: u64, answers: &[f64]) -> u64 {
    const CHUNK: usize = 4096;
    let mut failed = 0;
    for (chunk_no, chunk) in answers.chunks(CHUNK).enumerate() {
        let queries = unique_batch(seed, start + (chunk_no * CHUNK) as u64, chunk.len());
        failed += mismatches(chunk, &live.answer(&queries));
    }
    failed
}

fn run_wire(opts: &Opts) -> Result<RunResult, String> {
    let (window, segment_len) = (WINDOW, opts.scale.saturate_segment);
    let verify_every = VERIFY_EVERY_SEGMENT;
    let warm_seed = opts.seed ^ WARM_STREAM;
    let (mut fx, setup_s, build_s) = set_up(
        SETUP_REPS,
        || {
            let mut fx = WireFixture::new(opts).expect("loopback server and client");
            let t = Instant::now();
            let mut next = 0u64;
            while t.elapsed().as_secs_f64() < opts.warmup() {
                let count = segment_len / 8;
                stepped_segment(
                    &mut fx.server,
                    &mut fx.client,
                    warm_seed,
                    next,
                    count,
                    window,
                )
                .expect("warm-up traffic");
                next += count as u64;
            }
            fx
        },
        |fx| fx.mono.build_s,
        drop,
    );

    let mut timed = Timed::default();
    let mut next = 0u64;
    let mut measured_s = 0.0;
    while measured_s < opts.seconds {
        let seg = stepped_segment(
            &mut fx.server,
            &mut fx.client,
            opts.seed,
            next,
            segment_len,
            window,
        )?;
        measured_s += seg.wall_s;
        let answered = seg.latencies_us.len() as f64;
        timed.attempted += segment_len as u64;
        timed.failed += seg.failed;
        if (next / segment_len as u64).is_multiple_of(verify_every) {
            timed.failed += check_segment(&fx.live, opts.seed, next, &seg.answers);
        }
        timed.qps.push(answered / seg.wall_s);
        timed
            .cpu_us_per_query
            .push(seg.cpu_ns as f64 / 1e3 / answered.max(1.0));
        if let Some(p50) = percentile(&seg.latencies_us, 0.50) {
            timed.p50_us.push(p50);
        }
        if let Some(p99) = percentile(&seg.latencies_us, 0.99) {
            timed.p99_us.push(p99);
        }
        next += segment_len as u64;
    }
    if timed.p50_us.is_empty() {
        return Err("no segment had enough samples for a median".into());
    }
    timed.notes.push(format!(
        "stepped server, one thread, one connection, {window} outstanding; latency percentiles \
         per segment of {segment_len} requests, {} segments; one segment in {verify_every} \
         recomputed in process",
        timed.p50_us.len()
    ));

    // Audit: the fixed stream over the same wire, checked like any
    // segment, then scored against the exact engine.
    let audit = audit_queries(&opts.scale);
    let seg = stepped_segment(
        &mut fx.server,
        &mut fx.client,
        AUDIT_SEED,
        0,
        audit.len(),
        window,
    )?;
    timed.attempted += audit.len() as u64;
    timed.failed += seg.failed + check_segment(&fx.live, AUDIT_SEED, 0, &seg.answers);
    let nmae = adapter::nmae(&fx.mono.base.index.label(&audit, Agg::Avg), &seg.answers);

    let wire = fx.server.stats();
    timed.failed += wire.rejected + wire.protocol_errors;
    timed.notes.push(format!(
        "server tallies: {} queries, {} answered, {} rejected, {} protocol errors, {} batches (mean {:.1}/batch)",
        wire.queries,
        wire.answered,
        wire.rejected,
        wire.protocol_errors,
        wire.batches,
        wire.answered as f64 / wire.batches.max(1) as f64
    ));
    let artifact_bytes = fx.mono.artifact_bytes;
    Ok(finish(opts, timed, setup_s, build_s, nmae, artifact_bytes))
}

// ------------------------------------------------------------ in process

/// Where the batches of an in-process workload come from.
pub enum BatchSource {
    Unique(u64),
    Zipf(ZipfStream),
}

impl BatchSource {
    pub fn batch(&self, b: u64, count: usize) -> Vec<Vec<f64>> {
        match self {
            BatchSource::Unique(seed) => unique_batch(*seed, b * count as u64, count),
            BatchSource::Zipf(stream) => stream.batch(b, count),
        }
    }

    /// Warm-up traffic: the same distribution (the Zipf cache must be
    /// warm when timing starts) from draws the timed phase never makes.
    fn warm_batch(&self, b: u64, count: usize) -> Vec<Vec<f64>> {
        match self {
            BatchSource::Unique(seed) => unique_batch(seed ^ WARM_STREAM, b * count as u64, count),
            BatchSource::Zipf(stream) => stream.batch(b + (1 << 40), count),
        }
    }
}

struct BatchFixture {
    base: Base,
    stack: Stack,
    traffic: BatchSource,
    build_s: f64,
    artifact_bytes: usize,
}

fn batch_fixture(opts: &Opts, sharded: bool) -> BatchFixture {
    if !sharded {
        let mono = Mono::new(&opts.scale);
        let stack = Stack::fallback(&mono.base, &mono.model);
        return BatchFixture {
            base: mono.base,
            stack,
            traffic: BatchSource::Unique(opts.seed),
            build_s: mono.build_s,
            artifact_bytes: mono.artifact_bytes,
        };
    }
    let base = Base::new(&opts.scale);
    let train = adapter::training_queries(opts.scale.shard_train_queries);
    let t = Instant::now();
    let model = Sharded::build(base.table, &train, Agg::Avg, &opts.scale);
    let artifact_bytes = model.artifact_bytes();
    let build_s = t.elapsed().as_secs_f64();
    BatchFixture {
        base,
        stack: Stack::sharded(&model),
        traffic: BatchSource::Zipf(ZipfStream::new(opts.seed, opts.scale.zipf_universe, ZIPF_S)),
        build_s,
        artifact_bytes,
    }
}

fn run_batches(opts: &Opts, sharded: bool) -> Result<RunResult, String> {
    let batch_len = opts.scale.batch;
    let verify_every = if sharded {
        VERIFY_EVERY_ZIPF
    } else {
        VERIFY_EVERY_UNIQUE
    };
    let (fx, setup_s, build_s) = set_up(
        SETUP_REPS,
        || {
            let fx = batch_fixture(opts, sharded);
            let t = Instant::now();
            let mut b = 0;
            while t.elapsed().as_secs_f64() < opts.warmup() {
                fx.stack.answer(&fx.traffic.warm_batch(b, batch_len));
                b += 1;
            }
            fx
        },
        |fx| fx.build_s,
        drop,
    );

    let mut timed = Timed::default();
    let (mut hits, mut dedup, mut exact, mut served) = (0usize, 0usize, 0usize, 0usize);
    let evictions0 = fx.stack.cache_evictions();
    let mut call_us = Vec::new();
    let (mut slice_s, mut slice_cpu_ns, mut slice_calls) = (0.0f64, 0u64, 0usize);
    let mut measured_s = 0.0;
    let mut b = 0u64;
    while measured_s < opts.seconds {
        let batch = fx.traffic.batch(b, batch_len);
        let cpu0 = thread_cpu_ns();
        let t = Instant::now();
        let (answers, tally) = fx.stack.answer(&batch);
        let dt = t.elapsed().as_secs_f64();
        let cpu = thread_cpu_ns() - cpu0;
        measured_s += dt;
        call_us.push(dt * 1e6);
        slice_s += dt;
        slice_cpu_ns += cpu;
        slice_calls += 1;
        if slice_calls == SLICE_CALLS {
            let queries = (slice_calls * batch_len) as f64;
            timed.qps.push(queries / slice_s);
            timed
                .cpu_us_per_query
                .push(slice_cpu_ns as f64 / 1e3 / queries);
            (slice_s, slice_cpu_ns, slice_calls) = (0.0, 0, 0);
        }
        timed.attempted += batch.len() as u64;
        if answers.len() != batch.len() || tally.queries != batch.len() {
            timed.failed += batch.len() as u64;
        } else if b.is_multiple_of(verify_every) {
            timed.failed += mismatches(&answers, &fx.stack.inner_answer(&batch).0);
        }
        hits += tally.cache_hits;
        dedup += tally.dedup_hits;
        exact += tally.exact;
        served += tally.queries;
        b += 1;
    }
    if timed.qps.is_empty() {
        return Err(format!(
            "fewer than {SLICE_CALLS} calls fit in the measured time"
        ));
    }
    call_us.sort_by(f64::total_cmp);
    timed
        .p50_us
        .push(percentile(&call_us, 0.50).ok_or("too few calls for a median")?);
    timed.notes.push(format!(
        "{b} calls of {batch_len} queries, one in {verify_every} recomputed uncached; \
         cache hit ratio {:.4}, dedup share {:.4}, exact share {:.4}, {} evictions",
        hits as f64 / served.max(1) as f64,
        dedup as f64 / served.max(1) as f64,
        exact as f64 / served.max(1) as f64,
        fx.stack.cache_evictions() - evictions0
    ));

    let audit = audit_queries(&opts.scale);
    let (answers, _) = fx.stack.answer(&audit);
    timed.attempted += audit.len() as u64;
    timed.failed += mismatches(&answers, &fx.stack.inner_answer(&audit).0);
    let nmae = adapter::nmae(&fx.base.index.label(&audit, Agg::Avg), &answers);
    Ok(finish(
        opts,
        timed,
        setup_s,
        build_s,
        nmae,
        fx.artifact_bytes,
    ))
}

// --------------------------------------------------------- build_refresh

/// The deployment the refresh cycles maintain: a K = 4 COUNT sharded
/// sketch, saved as NSKM generation 0.
pub struct RefreshFixture {
    pub table: Table,
    pub train: Vec<Vec<f64>>,
    pub shard_train: Vec<Vec<f64>>,
    pub monitor: Monitor,
    scale: Scale,
    sharded: Sharded,
    root: PathBuf,
}

/// One generation-0 copy of the fixture, live and on disk, that
/// refresh cycles then move forward.
pub struct Deployed {
    pub table: Table,
    pub sharded: Sharded,
    pub live: Live,
    pub manifest: PathBuf,
}

impl RefreshFixture {
    pub fn new(opts: &Opts) -> RefreshFixture {
        let table = Table::generate(&opts.scale);
        let train = adapter::training_queries(opts.scale.train_queries);
        let shard_train = train[..opts.scale.shard_train_queries].to_vec();
        let sharded = Sharded::build(&table, &shard_train, Agg::Count, &opts.scale);
        let root = opts.out_dir.join(format!("refresh-{}", std::process::id()));
        RefreshFixture {
            monitor: Monitor::new(shard_train[..shard_train.len().min(256)].to_vec()),
            table,
            train,
            shard_train,
            scale: opts.scale,
            sharded,
            root,
        }
    }

    /// A fresh generation-0 directory holding the fixture's sketch,
    /// loaded back and served.
    pub fn deploy(&self, iteration: usize) -> Result<Deployed, String> {
        let dir = self.root.join(format!("it{iteration}"));
        let manifest = self.sharded.save(&dir)?;
        let sharded = Sharded::load(&manifest)?;
        Ok(Deployed {
            table: self.table.clone(),
            live: Live::new(&Stack::sharded_plain(&sharded), 0),
            sharded,
            manifest,
        })
    }

    /// One refresh cycle: new rows arrive, the drift check runs against
    /// them, one shard is rebuilt, its artifacts land as the next
    /// manifest generation and the live handle adopts it. Returns the
    /// drift NMAE.
    pub fn refresh_cycle(
        &self,
        d: &mut Deployed,
        shard: usize,
        drift_seed: u64,
    ) -> Result<f64, String> {
        d.table.append_drift(self.table.rows() / 8, drift_seed);
        let index = Index::build(&d.table);
        let drift = self.monitor.check(&d.live, &index, Agg::Count);
        d.sharded
            .retrain_shard(&d.table, &self.shard_train, shard, &self.scale)?;
        d.sharded.save_refreshed(&d.manifest, shard)?;
        d.live.reload_sharded(&d.manifest)?;
        Ok(drift)
    }

    /// Whether the live handle serves generation `generation`, bit for
    /// bit what the refreshed sketch answers once rounded to its f32
    /// artifacts.
    pub fn refreshed_ok(d: &Deployed, generation: u64, audit: &[Vec<f64>]) -> bool {
        let want = Stack::sharded_plain(&d.sharded.quantized()).answer(audit).0;
        d.live.generation() == generation && mismatches(&d.live.answer(audit), &want) == 0
    }
}

impl Drop for RefreshFixture {
    fn drop(&mut self) {
        // Best effort: the artifacts are scratch.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Phase (a): raw table to encoded router artifact.
pub struct Built {
    pub model: Model,
    pub artifact: adapter::Artifact,
}

pub fn full_build(table: &Table, train: &[Vec<f64>], scale: &Scale) -> Built {
    let index = Index::build(table);
    let labels = index.label(train, Agg::Avg);
    let model = Model::build(train, &labels, scale);
    let artifact = model.encode();
    Built { model, artifact }
}

/// The artifact must decode, and the decoded model must answer the
/// audit queries bit for bit like the in-memory model after f32
/// rounding.
pub fn check_artifact(built: &Built, audit: &[Vec<f64>]) -> u64 {
    match built.artifact.decode() {
        Ok(decoded) => {
            let want = built.model.quantized().answer_batch(audit);
            u64::from(mismatches(&decoded.answer_batch(audit), &want) > 0)
        }
        Err(_) => 1,
    }
}

fn run_build_refresh(opts: &Opts) -> Result<RunResult, String> {
    let (fx, setup_s, _) = set_up(
        SETUP_REPS_REFRESH,
        || RefreshFixture::new(opts),
        |_| 0.0,
        drop,
    );
    let audit = audit_queries(&opts.scale);
    let mut timed = Timed::default();
    let mut build_s = Vec::new();
    let mut built = None;
    let mut measured_s = 0.0;
    let mut iteration = 0usize;
    while measured_s < opts.seconds {
        // Phase (a): the monolithic sketch from the raw table.
        let cpu0 = process_cpu_ns();
        let t = Instant::now();
        let b = full_build(&fx.table, &fx.train, &opts.scale);
        let dt = t.elapsed().as_secs_f64();
        let mut cpu_ns = process_cpu_ns() - cpu0;
        let mut wall_s = dt;
        let mut consumed = fx.train.len();
        build_s.push(dt);
        timed.attempted += 1;
        timed.failed += check_artifact(&b, &audit);
        built = Some(b);

        // Phase (b): refresh cycles on the sharded deployment, each
        // starting where the last left the table and the manifest.
        let mut deployed = fx.deploy(iteration)?;
        for cycle in 0..REFRESH_CYCLES {
            let shard = cycle % adapter::SHARDS;
            let drift_seed = opts.seed ^ (((iteration * REFRESH_CYCLES + cycle) as u64) << 8);
            let cpu0 = process_cpu_ns();
            let t = Instant::now();
            let drift = fx.refresh_cycle(&mut deployed, shard, drift_seed)?;
            let dt = t.elapsed().as_secs_f64();
            cpu_ns += process_cpu_ns() - cpu0;
            wall_s += dt;
            consumed += fx.shard_train.len();
            timed.p50_us.push(dt * 1e6);
            timed.attempted += 1;
            if !(drift.is_finite()
                && RefreshFixture::refreshed_ok(&deployed, cycle as u64 + 1, &audit))
            {
                timed.failed += 1;
            }
        }
        timed.qps.push(consumed as f64 / wall_s);
        timed
            .cpu_us_per_query
            .push(cpu_ns as f64 / 1e3 / consumed as f64);
        measured_s += wall_s;
        iteration += 1;
    }
    let built = built.ok_or("no build fit in the measured time")?;
    timed.notes.push(format!(
        "{iteration} iterations of 1 full build ({} training queries, {} params, {} partitions) + \
         {REFRESH_CYCLES} refresh cycles ({} training queries each, {} rows appended per cycle); \
         refresh_s per iteration {:.4} s; throughput counts training queries consumed",
        fx.train.len(),
        built.model.params(),
        built.model.partitions(),
        fx.shard_train.len(),
        fx.table.rows() / 8,
        median(&timed.p50_us) * REFRESH_CYCLES as f64 / 1e6,
    ));
    // Held-out accuracy of the freshly built sketch.
    let index = Index::build(&fx.table);
    let nmae = adapter::nmae(
        &index.label(&audit, Agg::Avg),
        &built.model.answer_batch(&audit),
    );
    Ok(finish(
        opts,
        timed,
        setup_s,
        median(&build_s),
        nmae,
        built.artifact.len(),
    ))
}

pub fn run(opts: &Opts) -> Result<RunResult, String> {
    match opts.workload.as_str() {
        "wire_saturate" => run_wire(opts),
        "batch_unique" => run_batches(opts, false),
        "sharded_zipf" => run_batches(opts, true),
        "build_refresh" => run_build_refresh(opts),
        other => Err(format!("unknown workload {other}")),
    }
}
