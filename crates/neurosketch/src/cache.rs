//! Generation-keyed answer caching and in-batch deduplication: the one
//! answer front.
//!
//! The paper's query-time cost is one forward pass; real AQP dashboard
//! traffic is repeat-heavy (the same COUNT/AVG tiles refresh on a
//! cadence, many clients ask identical ranges), so the cheapest query
//! is the one never recomputed. This module is the only place in the
//! stack an answer is cached or deduplicated — servers compute what
//! they are sent, the wire server adds no dedup of its own, and a
//! [`crate::cluster::Cluster`] holds no cache:
//!
//! * [`AnswerCache`] — a bounded, striped-lock LRU cache of finished
//!   answers keyed by `(canonical query bytes, aggregate, generation)`.
//!   The canonical bytes are the raw [`f64::to_bits`] patterns of the
//!   query vector, compared exactly: `-0.0` and `0.0` are *different*
//!   keys (the exact backend's `total_cmp` binary searches can tell
//!   them apart, and a cache must never blur what the engine
//!   distinguishes). Including the NSKM generation in the key replaces
//!   an invalidation protocol entirely: a hot swap bumps the
//!   generation, so stale entries simply stop being addressable and
//!   age out of the LRU. Its [`CacheStats`] is occupancy plus
//!   insertions and evictions; hits and misses are counted once, in the
//!   [`DeployStats`] each batch returns.
//! * [`CachedDeployment`] — a [`Deployment`] wrapper that pins an
//!   explicit generation stamp to a shared [`AnswerCache`], the
//!   composition [`crate::deploy::LiveDeployment`] hot-swaps. In-batch
//!   deduplication is part of what it does, not a flag: identical
//!   queries inside one batch collapse to a single computation and the
//!   result is fanned back out in input order, before anything reaches
//!   the GEMM path. A zero-byte cache admits nothing, which leaves
//!   exactly the dedup.
//!
//! The contract is the repo's house rule: a cached or deduplicated
//! answer is **bitwise identical** to the uncached computation at any
//! thread count. That is exactly why the front is sound — the serving
//! stack already guarantees the answer to a query does not depend on
//! the batch it arrives in (see [`crate::serve`]), so serving a stored
//! copy of the same bits, or computing a representative once, cannot
//! be observed in the output.
//!
//! Memory is bounded: every entry is charged [`entry_bytes`] against a
//! byte budget split evenly across stripes, with least-recently-used
//! eviction per stripe. Once a stripe is full, the batch front admits
//! a new key only on its *second* miss (a doorkeeper of fingerprints,
//! in the spirit of TinyLFU's admission filter): a one-shot scan of
//! never-repeated queries costs no inserts and cannot flush the
//! resident working set, while genuinely repeating keys become
//! resident from their second occurrence.
//!
//! A batch takes one pass: hash, dedup-probe and stripe-group every
//! query, then per stripe, under one lock hold, look each distinct key
//! up and decide its admission. After a hot swap, each stripe's
//! generation range keeps probes off the stale entries' chains while
//! those age out. A batch longer than 65 534 queries is served as
//! consecutive sub-batches of that many, so
//! [`DeployStats::dedup_hits`] counts duplicates within a sub-batch.

use crate::deploy::{DeployStats, Deployment, DeploymentInfo, QueryBatch};
use query::aggregate::{Aggregate, Moments};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes one cached entry of a `dims`-dimensional query is charged
/// against the budget: the canonical key bytes (`8 × dims` coordinate
/// bit patterns plus the 9-byte generation + aggregate prefix), the
/// 8-byte answer, and a flat 47-byte accounting constant for the
/// index, chain and LRU bookkeeping around it. The same
/// `encoded_len`-style arithmetic as [`crate::net`]'s frame
/// accounting: capacity planning is `budget / entry_bytes(dims)`
/// entries, no measurement needed.
pub const fn entry_bytes(dims: usize) -> usize {
    8 * dims + 9 + 8 + 47
}

/// Current occupancy and cumulative insertions and evictions of an
/// [`AnswerCache`]: what only the cache knows. Hits and misses are not
/// here — the [`DeployStats`] each batch returns is their one count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries written.
    pub insertions: u64,
    /// Entries evicted to make room under the byte budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// The configured budget.
    pub capacity_bytes: usize,
}

const NIL: u32 = u32::MAX;

/// The probe half of an entry: everything a chain walk reads, packed
/// into 16 bytes so a miss touches a quarter cache line per hop — the
/// miss path is the front's steady state on uncacheable traffic, and
/// the less it drags through the data cache, the less it slows the
/// compute the misses still have to do.
#[derive(Clone, Copy)]
struct ProbeSlot {
    hash: u64,
    /// Next slot in the bucket chain.
    chain: u32,
    /// The aggregate tag (the width is the stripe's `stride`).
    tag: u8,
}

/// The payload half, only touched on a hash match (hit verification,
/// LRU maintenance) or an insert/eviction.
#[derive(Clone, Copy)]
struct Payload {
    generation: u64,
    value: f64,
    lru_prev: u32,
    lru_next: u32,
}

/// Doorkeeper slots per cache (8 KB of `u16` fingerprints, fixed
/// metadata outside the byte budget). On an uncacheable stream every
/// miss writes one doorkeeper slot, so the table is sized to sit in L1
/// rather than drag through the data cache the compute behind the
/// misses still needs. A collision, fingerprint false-positive, or
/// racing mark from another thread only delays (or spuriously grants)
/// one admission — never affects answers.
const DOOR_SLOTS: usize = 4096;

/// One lock stripe: a chained hash index over a slab of entries with
/// an intrusive LRU list, all flat `Vec`s — no per-entry allocation on
/// the steady-state path (slots are recycled through a free list).
struct Stripe {
    /// Bucket heads (slot index or `NIL`); length is a power of two.
    buckets: Vec<u32>,
    /// The probe half of the entry slab (chain walks read only this).
    slots: Vec<ProbeSlot>,
    /// The payload half, parallel to `slots`.
    pay: Vec<Payload>,
    /// Coordinate bit patterns, `stride` words per slot.
    coords: Vec<u64>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
    live: usize,
    bytes: usize,
    /// Coordinate words per entry, fixed by the first insert (a cache
    /// fronts one deployment, whose queries share a dimensionality);
    /// other widths are served uncached.
    stride: usize,
    /// Range of generations with entries in this stripe (`lo > hi`
    /// means none). A lookup whose generation falls outside the range
    /// cannot match and skips the index probe — after a hot swap this
    /// keeps new-generation traffic from walking chains of stale
    /// entries while they age out. Eviction leaves the range alone
    /// (conservative: it can only widen), so the filter is never wrong,
    /// merely less sharp until the stripe turns over.
    gen_lo: u64,
    gen_hi: u64,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            buckets: vec![NIL; 16],
            slots: Vec::new(),
            pay: Vec::new(),
            coords: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            live: 0,
            bytes: 0,
            stride: 0,
            gen_lo: u64::MAX,
            gen_hi: 0,
        }
    }

    fn key_matches(&self, slot: usize, h: u64, tag: u8, gen: u64, q: &[f64]) -> bool {
        let s = &self.slots[slot];
        if s.hash != h || s.tag != tag || self.pay[slot].generation != gen {
            return false;
        }
        let base = slot * self.stride;
        q.iter()
            .zip(&self.coords[base..base + self.stride])
            .all(|(c, &w)| c.to_bits() == w)
    }

    /// Find the live slot for a key, or `None`. Does not touch the LRU.
    fn find(&self, h: u64, tag: u8, gen: u64, q: &[f64]) -> Option<usize> {
        if self.stride != q.len() || self.live == 0 || gen < self.gen_lo || gen > self.gen_hi {
            return None;
        }
        let mut slot = self.buckets[(h as usize) & (self.buckets.len() - 1)];
        while slot != NIL {
            let s = slot as usize;
            if self.key_matches(s, h, tag, gen, q) {
                return Some(s);
            }
            slot = self.slots[s].chain;
        }
        None
    }

    /// Move a live slot to the LRU front.
    fn touch(&mut self, slot: usize) {
        let s = slot as u32;
        if self.head == s {
            return;
        }
        let (p, n) = (self.pay[slot].lru_prev, self.pay[slot].lru_next);
        if p != NIL {
            self.pay[p as usize].lru_next = n;
        }
        if n != NIL {
            self.pay[n as usize].lru_prev = p;
        }
        if self.tail == s {
            self.tail = p;
        }
        self.pay[slot].lru_prev = NIL;
        self.pay[slot].lru_next = self.head;
        if self.head != NIL {
            self.pay[self.head as usize].lru_prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Unlink and recycle the least-recently-used entry.
    fn evict_tail(&mut self) {
        let slot = self.tail as usize;
        debug_assert!(self.tail != NIL);
        // LRU unlink.
        let p = self.pay[slot].lru_prev;
        self.tail = p;
        if p != NIL {
            self.pay[p as usize].lru_next = NIL;
        } else {
            self.head = NIL;
        }
        // Bucket-chain unlink.
        let b = (self.slots[slot].hash as usize) & (self.buckets.len() - 1);
        let mut cur = self.buckets[b];
        if cur == slot as u32 {
            self.buckets[b] = self.slots[slot].chain;
        } else {
            while cur != NIL {
                let c = cur as usize;
                if self.slots[c].chain == slot as u32 {
                    self.slots[c].chain = self.slots[slot].chain;
                    break;
                }
                cur = self.slots[c].chain;
            }
        }
        self.free.push(slot as u32);
        self.live -= 1;
        self.bytes -= entry_bytes(self.stride);
    }

    /// Insert (or refresh) a key. Returns `(entries evicted to fit,
    /// whether a new entry was written — `false` means a resident key
    /// was merely refreshed)`, or `None` if the entry can never fit
    /// this stripe's budget.
    ///
    /// `check_dup: false` skips the pre-insert lookup — sound only when
    /// the caller just probed this key under this same lock cycle and
    /// missed ([`serve_cached`]'s insert pass over deduped misses). A
    /// racing batch may then insert the same key twice; both copies
    /// hold bitwise-equal values (determinism contract), lookups return
    /// the chain head, and the loser ages out of the LRU — correctness
    /// is unaffected, only a few bytes of budget.
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        h: u64,
        tag: u8,
        gen: u64,
        q: &[f64],
        v: f64,
        budget: usize,
        check_dup: bool,
    ) -> Option<(u64, bool)> {
        if self.stride != 0 && self.stride != q.len() {
            return None;
        }
        if check_dup {
            if let Some(slot) = self.find(h, tag, gen, q) {
                // A concurrent batch computed the same key first; the
                // values are bitwise equal by the determinism contract,
                // so refreshing recency is all that is left to do.
                self.pay[slot].value = v;
                self.touch(slot);
                return Some((0, false));
            }
        }
        let need = entry_bytes(q.len());
        if need > budget {
            return None;
        }
        // Commit the stripe to this width only once an entry actually
        // fits — a rejected oversized first insert must not poison the
        // stripe for every later (cacheable) width.
        self.stride = q.len();
        let mut evicted = 0u64;
        while self.bytes + need > budget {
            self.evict_tail();
            evicted += 1;
        }
        let slot = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                let s = self.slots.len();
                self.slots.push(ProbeSlot {
                    hash: 0,
                    chain: NIL,
                    tag: 0,
                });
                self.pay.push(Payload {
                    generation: 0,
                    value: 0.0,
                    lru_prev: NIL,
                    lru_next: NIL,
                });
                self.coords.resize(self.coords.len() + self.stride, 0);
                s
            }
        };
        let base = slot * self.stride;
        for (w, c) in self.coords[base..base + self.stride].iter_mut().zip(q) {
            *w = c.to_bits();
        }
        self.live += 1;
        self.bytes += need;
        // Keep the load factor at or below 1/2: a miss walks its whole
        // chain, so short chains are what the cold path pays for.
        if self.live * 2 > self.buckets.len() {
            self.grow_buckets();
        }
        let b = (h as usize) & (self.buckets.len() - 1);
        self.slots[slot] = ProbeSlot {
            hash: h,
            chain: self.buckets[b],
            tag,
        };
        self.pay[slot] = Payload {
            generation: gen,
            value: v,
            // LRU push-front.
            lru_prev: NIL,
            lru_next: self.head,
        };
        self.buckets[b] = slot as u32;
        if self.head != NIL {
            self.pay[self.head as usize].lru_prev = slot as u32;
        }
        self.head = slot as u32;
        if self.tail == NIL {
            self.tail = slot as u32;
        }
        self.gen_lo = self.gen_lo.min(gen);
        self.gen_hi = self.gen_hi.max(gen);
        Some((evicted, true))
    }

    /// Double the bucket array and re-chain every live slot.
    fn grow_buckets(&mut self) {
        let cap = self.buckets.len() * 2;
        self.buckets.clear();
        self.buckets.resize(cap, NIL);
        // Live slots are exactly the LRU list.
        let mut slot = self.head;
        while slot != NIL {
            let s = slot as usize;
            let next = self.pay[s].lru_next;
            let b = (self.slots[s].hash as usize) & (cap - 1);
            self.slots[s].chain = self.buckets[b];
            self.buckets[b] = slot;
            slot = next;
        }
    }
}

/// Hash the canonical key `(tag, generation, coordinate bits)` — a
/// multiply-xor mix, a few cycles per word, shared by the cache index
/// and the in-batch dedup table.
#[inline]
fn key_hash(tag: u8, gen: u64, q: &[f64]) -> u64 {
    #[inline]
    fn mix(mut h: u64, w: u64) -> u64 {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (tag as u64 | (q.len() as u64) << 8);
    h = mix(h, gen);
    for c in q {
        h = mix(h, c.to_bits());
    }
    mix(h, 0xD6E8_FEB8_6659_FD93)
}

/// Bitwise equality of two query vectors — the cache's notion of
/// "identical query". Deliberately *not* float equality: `-0.0` and
/// `0.0` are distinct, and a NaN pattern equals exactly itself.
#[inline]
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A bounded, sharded, generation-keyed LRU cache of finished answers.
///
/// Thread-safe: lookups and inserts take one stripe's mutex; batches
/// lock each stripe at most twice (one probe pass, one insert pass)
/// via [`CachedDeployment`]. Memory is bounded by the byte budget, split
/// evenly across stripes, with per-stripe LRU eviction.
pub struct AnswerCache {
    stripes: Vec<Mutex<Stripe>>,
    stripe_mask: usize,
    stripe_budget: usize,
    capacity: usize,
    /// Doorkeeper admission gate, shared by all stripes (relaxed
    /// atomics; races only perturb one admission). See
    /// [`AnswerCache::admit`].
    door: Vec<AtomicU16>,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl AnswerCache {
    /// A cache holding at most `capacity_bytes` of entries across
    /// `stripes` lock stripes (rounded up to a power of two, min 1).
    pub fn new(capacity_bytes: usize, stripes: usize) -> AnswerCache {
        let stripes = stripes.max(1).next_power_of_two();
        AnswerCache {
            stripes: (0..stripes).map(|_| Mutex::new(Stripe::new())).collect(),
            stripe_mask: stripes - 1,
            stripe_budget: capacity_bytes / stripes,
            capacity: capacity_bytes,
            door: (0..DOOR_SLOTS).map(|_| AtomicU16::new(0)).collect(),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn stripe_of(&self, h: u64) -> usize {
        ((h >> 32) as usize) & self.stripe_mask
    }

    /// Admission gate for the batch front ([`serve_cached`]'s insert
    /// pass — explicit [`AnswerCache::insert`] always admits), asked
    /// under the lock of `stripe`, the key's stripe.
    ///
    /// While the stripe has free budget, everything is admitted. Once it
    /// is full, a first-time key only leaves a fingerprint in the
    /// doorkeeper and is *not* inserted; it gets admitted (and may
    /// evict the stripe's LRU entry) on its second miss. So a one-shot
    /// scan of unique queries never pays insert/eviction cost and —
    /// just as important — never flushes the resident working set,
    /// while any key that repeats becomes resident from its second
    /// occurrence. The doorkeeper is shared by all stripes (relaxed
    /// atomics): a racing mark from another batch at worst delays or
    /// duplicates one admission.
    fn admit(&self, stripe: &Stripe, h: u64, dims: usize) -> bool {
        if stripe.bytes + entry_bytes(dims) <= self.stripe_budget {
            return true;
        }
        let fp = (h >> 48) as u16 | 1;
        let d = &self.door[(h as usize) & (DOOR_SLOTS - 1)];
        if d.load(Ordering::Relaxed) == fp {
            // Second miss: free the slot and let the insert through.
            d.store(0, Ordering::Relaxed);
            true
        } else {
            d.store(fp, Ordering::Relaxed);
            false
        }
    }

    /// Insert under an already-held stripe lock, keeping the cache's
    /// counters in step with the stripe.
    #[allow(clippy::too_many_arguments)]
    fn insert_locked(
        &self,
        stripe: &mut Stripe,
        h: u64,
        tag: u8,
        gen: u64,
        q: &[f64],
        v: f64,
        check_dup: bool,
    ) {
        if let Some((evicted, inserted)) =
            stripe.insert(h, tag, gen, q, v, self.stripe_budget, check_dup)
        {
            // A refresh of a resident key is not an insertion — only a
            // genuinely new entry bumps the counter.
            if inserted {
                self.insertions.fetch_add(1, Ordering::Relaxed);
            }
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Look one key up, refreshing its recency on a hit.
    pub fn get(&self, tag: u8, generation: u64, query: &[f64]) -> Option<f64> {
        let h = key_hash(tag, generation, query);
        let mut stripe = self.stripes[self.stripe_of(h)]
            .lock()
            .expect("cache stripe");
        let slot = stripe.find(h, tag, generation, query)?;
        stripe.touch(slot);
        Some(stripe.pay[slot].value)
    }

    /// Insert one answer, evicting least-recently-used entries as
    /// needed. A no-op when the entry can never fit its stripe's
    /// budget share. Explicit inserts bypass the batch front's
    /// second-miss admission gate — the caller has decided this key is
    /// worth caching.
    pub fn insert(&self, tag: u8, generation: u64, query: &[f64], value: f64) {
        let h = key_hash(tag, generation, query);
        let mut stripe = self.stripes[self.stripe_of(h)]
            .lock()
            .expect("cache stripe");
        self.insert_locked(&mut stripe, h, tag, generation, query, value, true);
    }

    /// Occupancy, insertions and evictions. Occupancy sums over stripes
    /// under their locks; the two counters are relaxed atomics.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for stripe in &self.stripes {
            let s = stripe.lock().expect("cache stripe");
            entries += s.live;
            bytes += s.bytes;
        }
        CacheStats {
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
            capacity_bytes: self.capacity,
        }
    }
}

/// Longest (sub-)batch the in-batch dedup table addresses: positions
/// `+ 1` must fit the 16 bits a table entry keeps for them.
const MAX_DEDUP_ROWS: usize = u16::MAX as usize - 1;

/// The in-batch dedup table of one sub-batch, open-addressed, probed
/// once per query. Each entry packs `index + 1` (low 16 bits) with a
/// 16-bit hash fingerprint (high bits), so a colliding slot is rejected
/// *in place* — no dereference of the colliding key at all; a
/// fingerprint false positive only costs one coordinate compare.
struct DedupProbe {
    table: Vec<u32>,
    mask: usize,
}

impl DedupProbe {
    fn new(n: usize) -> DedupProbe {
        debug_assert!(n <= MAX_DEDUP_ROWS);
        let cap = (n * 2).next_power_of_two();
        DedupProbe {
            table: vec![0u32; cap],
            mask: cap - 1,
        }
    }

    /// Representative index for query `i` (itself, for a first
    /// occurrence), recording it for later queries to collapse onto.
    /// Must be called exactly once per index, in input order.
    #[inline]
    fn rep(&mut self, i: usize, h: u64, batch: QueryBatch<'_>) -> usize {
        let q = batch.row(i);
        let fp = ((h >> 32) as u32) & 0xFFFF_0000;
        let mut j = (h as usize) & self.mask;
        loop {
            let e = self.table[j];
            if e == 0 {
                self.table[j] = fp | (i as u32 + 1);
                return i;
            }
            if (e & 0xFFFF_0000) == fp {
                let cand = (e & 0xFFFF) as usize - 1;
                if same_bits(batch.row(cand), q) {
                    return cand;
                }
            }
            j = (j + 1) & self.mask;
        }
    }
}

/// Run `compute` over the queries at `misses` (input order) and settle
/// their answers into `out`, which is sized here if no hit sized it
/// already. Returns the tally `compute` reported.
fn compute_misses<F>(
    batch: QueryBatch<'_>,
    misses: &[usize],
    out: &mut Vec<f64>,
    compute: F,
) -> DeployStats
where
    F: FnOnce(QueryBatch<'_>) -> (Vec<f64>, DeployStats),
{
    if misses.len() == batch.len() {
        // Everything missed (cold traffic): `misses` is `0..n` in
        // order, so the batch passes through without copying a query
        // and the computed values *are* the batch answer.
        let (values, computed) = compute(batch);
        debug_assert_eq!(values.len(), misses.len());
        *out = values;
        return computed;
    }
    let mut cold = Vec::with_capacity(misses.len() * batch.dims());
    for &i in misses {
        cold.extend_from_slice(batch.row(i));
    }
    let (values, computed) = compute(QueryBatch::new(&cold, batch.dims()));
    debug_assert_eq!(values.len(), misses.len());
    if out.is_empty() {
        *out = vec![0.0; batch.len()];
    }
    for (&i, &v) in misses.iter().zip(&values) {
        out[i] = v;
    }
    computed
}

/// Serve one batch of at most [`MAX_DEDUP_ROWS`] queries through the
/// dedup + cache front, in one pass, keying every entry with
/// `(tag, gen)`.
///
/// `compute` receives the queries that must actually be computed — the
/// distinct, cold ones, in input order — and returns their answers in
/// the same order plus its own tally, which the front's hit / miss /
/// dedup counts are added to. Answers come back in input order, bitwise
/// identical to calling `compute` on the full batch — duplicates
/// receive their representative's bits, hits receive the bits stored
/// when the key was computed.
fn serve_cached<F>(
    c: &AnswerCache,
    tag: u8,
    gen: u64,
    batch: QueryBatch<'_>,
    compute: F,
) -> (Vec<f64>, DeployStats)
where
    F: FnOnce(QueryBatch<'_>) -> (Vec<f64>, DeployStats),
{
    let n = batch.len();
    // Allocated lazily: a batch of all-new queries (the cold path)
    // never zeroes it — the computed values are moved in wholesale.
    let mut out: Vec<f64> = Vec::new();
    // Duplicates are recorded as `(index, representative)` pairs so a
    // duplicate-free batch pays nothing for the fan-out bookkeeping.
    let mut dups: Vec<(u32, u32)> = Vec::new();
    let mut probe = DedupProbe::new(n);
    let mut computed = DeployStats::default();

    // Pass 1, fused: hash each query, dedup-probe it, and stripe-group
    // the representatives — one sweep over the batch instead of three.
    // Each group entry carries `(index, hash)` so the later passes
    // never index a side array of hashes — on a cold batch every such
    // read is a cache miss the compute behind it ends up paying for.
    let mut groups: Vec<Vec<(u32, u64)>> =
        vec![Vec::with_capacity(n / c.stripes.len() + 8); c.stripes.len()];
    for (i, q) in batch.rows().enumerate() {
        let h = key_hash(tag, gen, q);
        let r = probe.rep(i, h, batch);
        if r == i {
            groups[c.stripe_of(h)].push((i as u32, h));
        } else {
            dups.push((i as u32, r as u32));
        }
    }

    // Pass 2: per stripe, under one lock hold: look every
    // representative up, and decide *admission* for the misses right
    // here — so the post-compute insert pass only revisits the keys
    // actually being admitted, which on a stream of never-repeated
    // queries is none at all.
    const DUP: u8 = 0;
    const HIT: u8 = 1;
    const MISS_ADMIT: u8 = 2;
    const MISS_SKIP: u8 = 3;
    let mut state = vec![DUP; n];
    for (si, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        let mut stripe = c.stripes[si].lock().expect("cache stripe");
        for &(i, h) in group {
            let i = i as usize;
            match stripe.find(h, tag, gen, batch.row(i)) {
                Some(slot) => {
                    stripe.touch(slot);
                    if out.is_empty() {
                        out = vec![0.0; n];
                    }
                    out[i] = stripe.pay[slot].value;
                    state[i] = HIT;
                }
                None => {
                    state[i] = if c.admit(&stripe, h, batch.dims()) {
                        MISS_ADMIT
                    } else {
                        MISS_SKIP
                    };
                }
            }
        }
    }
    let mut misses: Vec<usize> = Vec::new();
    let mut any_admitted = false;
    for (i, &s) in state.iter().enumerate() {
        if s >= MISS_ADMIT {
            misses.push(i);
            any_admitted |= s == MISS_ADMIT;
        }
    }
    // No miss means every representative hit, and the first hit sized
    // `out`.
    if !misses.is_empty() {
        computed = compute_misses(batch, &misses, &mut out, compute);
    }
    if any_admitted {
        // Insert pass over the admitted keys only. The pass-1 groups
        // are already stripe-partitioned, so walk them again, skipping
        // everything pass 2 did not admit, and only take a stripe's
        // lock once an admitted key of its group actually comes up. The
        // admitted keys are distinct representatives that just probed
        // absent, so the pre-insert lookup is skipped (see
        // [`Stripe::insert`]).
        for (si, group) in groups.iter().enumerate() {
            let mut stripe = None;
            for &(i, h) in group {
                let i = i as usize;
                if state[i] != MISS_ADMIT {
                    continue;
                }
                let guard =
                    stripe.get_or_insert_with(|| c.stripes[si].lock().expect("cache stripe"));
                c.insert_locked(guard, h, tag, gen, batch.row(i), out[i], false);
            }
        }
    }
    // Fan duplicates back out. A representative is always a key's first
    // occurrence — never itself a duplicate — so `out[r]` is already
    // settled by the hit/miss paths above.
    for &(i, r) in &dups {
        out[i as usize] = out[r as usize];
    }
    let stats = DeployStats {
        queries: n,
        cache_hits: computed.cache_hits + n - dups.len() - misses.len(),
        cache_misses: computed.cache_misses + misses.len(),
        dedup_hits: computed.dedup_hits + dups.len(),
        ..computed
    };
    (out, stats)
}

/// A [`Deployment`] served through a shared [`AnswerCache`] under an
/// explicit generation stamp — the one answer front: in-batch
/// deduplication first, then the cache, and only distinct cold queries
/// reach the wrapped deployment.
///
/// This is the composition live maintenance uses: the cache [`Arc`] is
/// shared across swaps, each generation gets its own wrapper, and
/// because the generation is part of every key a swap yields **zero
/// stale hits by construction** — generation `G + 1` lookups cannot
/// address generation `G` entries, which simply age out of the LRU.
pub struct CachedDeployment {
    inner: Box<dyn Deployment>,
    cache: Arc<AnswerCache>,
    generation: u64,
    tag: u8,
}

impl CachedDeployment {
    /// Wrap `inner`, keying every cache entry with `generation` and no
    /// aggregate tag (the wrapped deployment answers one aggregate).
    pub fn new(
        inner: impl Deployment + 'static,
        cache: Arc<AnswerCache>,
        generation: u64,
    ) -> CachedDeployment {
        CachedDeployment::tagged(Box::new(inner), cache, generation, 0)
    }

    /// Fold `agg` into every key — required when one shared cache
    /// fronts deployments serving *different* aggregates over the same
    /// query vectors.
    pub fn with_aggregate(
        inner: impl Deployment + 'static,
        cache: Arc<AnswerCache>,
        generation: u64,
        agg: Aggregate,
    ) -> CachedDeployment {
        // `0` is reserved for deployments whose aggregate is not
        // declared (a bare routed sketch serves whatever it was trained
        // for), so declared aggregates key as `tag() + 1`.
        CachedDeployment::tagged(Box::new(inner), cache, generation, agg.tag() + 1)
    }

    fn tagged(
        inner: Box<dyn Deployment>,
        cache: Arc<AnswerCache>,
        generation: u64,
        tag: u8,
    ) -> CachedDeployment {
        CachedDeployment {
            inner,
            cache,
            generation,
            tag,
        }
    }

    /// The shared cache (hand the same [`Arc`] to the next
    /// generation's wrapper).
    pub fn cache(&self) -> &Arc<AnswerCache> {
        &self.cache
    }
}

impl Deployment for CachedDeployment {
    fn answer_flat(&self, batch: QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        let mut subs = batch.chunks(MAX_DEDUP_ROWS).map(|sub| {
            serve_cached(&self.cache, self.tag, self.generation, sub, |cold| {
                self.inner.answer_flat(cold)
            })
        });
        let (mut answers, mut stats) = subs.next().unwrap_or_default();
        for (more, sub_stats) in subs {
            answers.extend(more);
            stats += sub_stats;
        }
        (answers, stats)
    }

    fn moments_flat(&self, batch: QueryBatch<'_>) -> Option<Vec<Moments>> {
        // Moments are not cached (the cache stores finished answers);
        // the moment surface passes straight through.
        self.inner.moments_flat(batch)
    }

    fn describe(&self) -> DeploymentInfo {
        DeploymentInfo {
            generation: Some(self.generation),
            ..self.inner.describe()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: &[f64]) -> Vec<f64> {
        v.to_vec()
    }

    #[test]
    fn hit_returns_inserted_bits_and_counts() {
        let cache = AnswerCache::new(1 << 16, 4);
        let query = q(&[0.25, 0.75]);
        assert_eq!(cache.get(1, 7, &query), None);
        cache.insert(1, 7, &query, 42.125);
        assert_eq!(cache.get(1, 7, &query), Some(42.125));
        let s = cache.stats();
        assert_eq!((s.insertions, s.entries), (1, 1));
        assert_eq!(s.bytes, entry_bytes(2));
    }

    #[test]
    fn generations_and_aggregates_never_collide() {
        let cache = AnswerCache::new(1 << 16, 1);
        let query = q(&[0.5, 0.5]);
        cache.insert(1, 1, &query, 10.0);
        cache.insert(1, 2, &query, 20.0);
        cache.insert(2, 1, &query, 30.0);
        assert_eq!(cache.get(1, 1, &query), Some(10.0));
        assert_eq!(cache.get(1, 2, &query), Some(20.0));
        assert_eq!(cache.get(2, 1, &query), Some(30.0));
        assert_eq!(cache.get(2, 2, &query), None);
    }

    #[test]
    fn refreshing_a_resident_key_is_not_an_insertion() {
        let cache = AnswerCache::new(1 << 16, 1);
        let query = q(&[0.5, 0.25]);
        cache.insert(1, 3, &query, 7.0);
        cache.insert(1, 3, &query, 7.0);
        let s = cache.stats();
        assert_eq!(s.insertions, 1, "a refresh must not count as an insertion");
        assert_eq!((s.entries, s.evictions), (1, 0));
        assert_eq!(cache.get(1, 3, &query), Some(7.0));
    }

    #[test]
    fn negative_zero_is_a_distinct_key() {
        let cache = AnswerCache::new(1 << 16, 1);
        cache.insert(0, 0, &[0.0, 1.0], 1.0);
        assert_eq!(cache.get(0, 0, &[-0.0, 1.0]), None);
        cache.insert(0, 0, &[-0.0, 1.0], 2.0);
        assert_eq!(cache.get(0, 0, &[0.0, 1.0]), Some(1.0));
        assert_eq!(cache.get(0, 0, &[-0.0, 1.0]), Some(2.0));
    }

    #[test]
    fn lru_evicts_least_recently_used_under_byte_budget() {
        // Budget for exactly three 2-d entries in one stripe.
        let cache = AnswerCache::new(3 * entry_bytes(2), 1);
        let (a, b, c, d) = (
            q(&[1.0, 0.0]),
            q(&[2.0, 0.0]),
            q(&[3.0, 0.0]),
            q(&[4.0, 0.0]),
        );
        cache.insert(0, 0, &a, 1.0);
        cache.insert(0, 0, &b, 2.0);
        cache.insert(0, 0, &c, 3.0);
        // Touch `a` so `b` is now the LRU victim.
        assert_eq!(cache.get(0, 0, &a), Some(1.0));
        cache.insert(0, 0, &d, 4.0);
        assert_eq!(cache.get(0, 0, &b), None, "LRU entry must be evicted");
        assert_eq!(cache.get(0, 0, &a), Some(1.0));
        assert_eq!(cache.get(0, 0, &c), Some(3.0));
        assert_eq!(cache.get(0, 0, &d), Some(4.0));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 3);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn oversized_entries_and_mismatched_dims_are_skipped_not_fatal() {
        let cache = AnswerCache::new(entry_bytes(2), 1);
        cache.insert(0, 0, &vec![0.5; 64], 1.0); // can never fit
        assert_eq!(cache.stats().entries, 0);
        cache.insert(0, 0, &[0.1, 0.2], 2.0);
        assert_eq!(cache.stats().entries, 1);
        // Different width than the stripe's stride: served uncached.
        cache.insert(0, 0, &[0.1, 0.2, 0.3], 3.0);
        assert_eq!(cache.get(0, 0, &[0.1, 0.2, 0.3]), None);
        assert_eq!(cache.get(0, 0, &[0.1, 0.2]), Some(2.0));
    }

    #[test]
    fn heavy_insert_load_stays_within_budget_and_keeps_newest() {
        let cache = AnswerCache::new(64 * entry_bytes(3), 4);
        for i in 0..10_000u32 {
            cache.insert(1, 9, &[i as f64, 0.5, 0.25], i as f64);
        }
        let s = cache.stats();
        assert!(
            s.bytes <= s.capacity_bytes,
            "{} > {}",
            s.bytes,
            s.capacity_bytes
        );
        assert!(s.evictions > 0);
        // The most recent insert in each stripe must still be resident.
        assert_eq!(cache.get(1, 9, &[9_999.0, 0.5, 0.25]), Some(9_999.0));
    }

    #[test]
    fn dedup_collapses_bitwise_identical_queries_only() {
        let queries = [
            0.1, 0.2, //
            0.3, 0.4, //
            0.1, 0.2, // dup of 0
            0.1, -0.2, // sign differs: distinct
            0.3, 0.4, // dup of 1
        ];
        let batch = QueryBatch::new(&queries, 2);
        let mut probe = DedupProbe::new(batch.len());
        let rep: Vec<usize> = (0..batch.len())
            .map(|i| probe.rep(i, key_hash(0, 0, batch.row(i)), batch))
            .collect();
        assert_eq!(rep, vec![0, 1, 0, 3, 1]);
    }

    /// `value = f(first coordinate)` per cold query, with an
    /// all-sketch tally — a stand-in for the wrapped deployment.
    fn compute_with(
        f: impl Fn(f64) -> f64,
    ) -> impl FnMut(QueryBatch<'_>) -> (Vec<f64>, DeployStats) {
        move |cold| {
            let stats = DeployStats {
                queries: cold.len(),
                sketch: cold.len(),
                ..DeployStats::default()
            };
            (cold.rows().map(|x| f(x[0])).collect(), stats)
        }
    }

    #[test]
    fn serve_cached_fans_out_in_input_order_and_computes_once() {
        let queries = [1.0, 2.0, 1.0, 3.0, 2.0, 1.0];
        let batch = QueryBatch::new(&queries, 1);
        // A zero-byte cache admits nothing: what is left is the dedup.
        let cache = AnswerCache::new(0, 1);
        let mut computed: Vec<Vec<f64>> = Vec::new();
        let (out, stats) = serve_cached(&cache, 0, 0, batch, |cold| {
            computed = cold.rows().map(<[f64]>::to_vec).collect();
            compute_with(|x| x * 10.0)(cold)
        });
        assert_eq!(
            computed,
            vec![q(&[1.0]), q(&[2.0]), q(&[3.0])],
            "one computation per distinct query"
        );
        assert_eq!(out, vec![10.0, 20.0, 10.0, 30.0, 20.0, 10.0]);
        assert_eq!((stats.queries, stats.sketch), (6, 3));
        assert_eq!(stats.dedup_hits, 3);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 3));
    }

    #[test]
    fn full_stripe_admits_batch_front_keys_on_second_miss_only() {
        // Budget for exactly two 1-d entries; fill it through the front.
        let cache = AnswerCache::new(2 * entry_bytes(1), 1);
        let resident = [1.0, 2.0];
        let triple = || compute_with(|x| x * 3.0);
        serve_cached(&cache, 0, 0, QueryBatch::new(&resident, 1), triple());
        assert_eq!(cache.stats().entries, 2);

        // A new key's first miss through the full stripe must not evict.
        let newcomer = QueryBatch::new(&[9.0], 1);
        serve_cached(&cache, 0, 0, newcomer, triple());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 0), "first miss only marks");
        assert_eq!(cache.get(0, 0, &[1.0]), Some(3.0), "working set intact");

        // Its second miss is admitted and pays the one eviction.
        serve_cached(&cache, 0, 0, newcomer, triple());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        assert_eq!(cache.get(0, 0, &[9.0]), Some(27.0));
    }
}
