//! The region-service workloads (`svc-churn`, `svc-index`).
//!
//! The benchmark is the client. It composes the calls the service engine
//! makes per request (admission, request region, §1 pool publish,
//! string allocations, unpublish, delete) straight from the public
//! functions of `region-core` and `simheap`, so each call can be timed
//! on its own. Two sessions each own one shard of a `SharedSpace` and
//! run a closed loop; they share one `ParRegionPool`. The sessions are
//! served one after the other on one thread: with a thread each, the
//! timings followed where the host placed its two vCPUs (see
//! `DESIGN.md`, *One thread*).
//!
//! A pass is one self-contained run: set up a fresh world, warm it up,
//! serve a fixed number of requests per session, then verify and tear
//! down. Every count a pass produces is a pure function of the seed, so
//! repeated passes in one run are same-seed reruns whose books must
//! match exactly.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use cache_sim::MemorySystem;
use region_core::par::{ParRegionPool, ParThread, RefCell32};
use region_core::{
    Admission, AdmissionController, DeleteProgress, DescId, RegionConfig, RegionError, RegionId,
    RegionRuntime, SafetyCosts, TypeDescriptor, Watermarks,
};
use simheap::{Addr, HeapShard, SharedSpace, SpaceConfig};

use crate::trace::{fold, ticks, Clock, Layer, Span, Tracer, FNV_BASIS, LAYERS};

/// Sessions, each on its own shard, served in turn on one thread.
pub const SESSIONS: u32 = 2;
/// Work units per `deleteregion` increment: the runtime's budget.
const DELETE_BUDGET: u64 = 64;
/// Deletion increments per request gap: one, and a second on every
/// [`EXTRA_STEP_EVERY`]th gap. At budget 64 one rotation's index takes
/// about 50 increments (each of its 1080 entries costs a header and two
/// pointer units) and its cache one more, against 45 gaps per rotation:
/// at one increment per gap the backlog, and with it the footprint,
/// grows without bound. Two on every gap keep up, but then the pending
/// deletion finishes in about 26 gaps, 58% of requests carry two
/// increments and 42% none, and the median latency sits on the edge
/// between the two groups. Four increments per three gaps (60 per
/// rotation) keep up too, and most requests carry exactly one.
const STEPS_PER_GAP: usize = 1;
const EXTRA_STEP_EVERY: u32 = 3;
/// Shared publication cells per session.
const CELLS: usize = 4;
/// Bytes appended to the session's cache region per completed request
/// (`CACHE_CHUNK` in `bench::server`).
const CACHE_CHUNK: u32 = 384;
/// Index entries (2 counted pointers each) per completed request: the
/// service's own `ServiceConfig::full` value (`index_allocs`).
const INDEX_ENTRIES: u32 = 24;
/// Completed requests between (index, cache) rotations: the service's
/// own `ServiceConfig::full` value (`index_rotate`).
const ROTATE_EVERY: u32 = 45;
/// Spans one request can record at most: the request itself, admit,
/// new region, publish, up to 5 string allocations, unpublish, delete.
const REQUEST_SPANS: usize = 11;
/// Spans `svc-index` upkeep adds at most: two new regions, the cache
/// block, each entry's `ralloc` and two stores, the deletion steps.
const UPKEEP_SPANS: usize = 3 + STEPS_PER_GAP + 1 + 3 * INDEX_ENTRIES as usize;
/// Admission watermarks in simulated pages. Both workloads peak well
/// under 100 pages per session, so admission decides every request but
/// never degrades or sheds one.
const MARKS: (u64, u64) = (4096, 8192);
/// Simulated address space per pass.
const SPACE_BYTES: u64 = 64 << 20;

/// What one `svc-*` run serves.
#[derive(Clone, Copy, Debug)]
pub struct SvcConfig {
    pub seed: u64,
    /// Requests per session per pass.
    pub requests: u32,
    /// Warm-up requests per session during set-up (separate stream).
    pub warmup: u32,
    /// `svc-index`: cache and index upkeep between requests.
    pub index: bool,
    /// Self-test: one request leaves a global reference into its own
    /// region, so its deletion is refused.
    pub inject_leak: bool,
}

/// The deterministic books of one pass, summed over sessions. Two
/// passes with the same seed must produce equal books, traced or not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Books {
    pub submitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub failed: u64,
    /// Per-[`Layer`] call counts (the request layer counts requests).
    pub calls: [u64; LAYERS],
    pub rstralloc_bytes: u64,
    /// `ParRegionPool::try_delete` refusals.
    pub pool_refused: u64,
    /// `try_delete_region` / `try_delete_region_step` refusals.
    pub delete_blocked: u64,
    /// Regions whose stepped deletion finished.
    pub step_deleted: u64,
    /// Failed calls in `svc-index` upkeep (none are expected).
    pub upkeep_errors: u64,
    /// `svc-index` rotations that found the previous pair's deletion
    /// unfinished (none are expected: the deletions keep pace).
    pub late_rotations: u64,
    /// Sum over sessions of each shard's high-water simulated pages.
    pub high_water_pages: u64,
    /// Safety costs charged during the served requests.
    pub costs: SafetyCosts,
    /// FNV fold of admission codes, allocation addresses and errors.
    pub digest: u64,
}

impl Books {
    fn add(&mut self, o: &Books) {
        self.submitted += o.submitted;
        self.completed += o.completed;
        self.shed += o.shed;
        self.failed += o.failed;
        for (a, b) in self.calls.iter_mut().zip(o.calls) {
            *a += b;
        }
        self.rstralloc_bytes += o.rstralloc_bytes;
        self.pool_refused += o.pool_refused;
        self.delete_blocked += o.delete_blocked;
        self.step_deleted += o.step_deleted;
        self.upkeep_errors += o.upkeep_errors;
        self.late_rotations += o.late_rotations;
        self.high_water_pages += o.high_water_pages;
        let (c, d) = (&mut self.costs, &o.costs);
        c.barriers_region += d.barriers_region;
        c.barrier_instrs += d.barrier_instrs;
        c.frames_scanned += d.frames_scanned;
        c.scan_instrs += d.scan_instrs;
        c.cleanup_objects += d.cleanup_objects;
        c.cleanup_ptrs += d.cleanup_ptrs;
        c.cleanup_pages += d.cleanup_pages;
        c.cleanup_instrs += d.cleanup_instrs;
        c.deletes += d.deletes;
        c.deletes_failed += d.deletes_failed;
        self.digest = fold(self.digest, o.digest);
    }
}

/// Counter-wise `after - before` over the fields [`Books::add`] sums.
fn costs_delta(after: &SafetyCosts, before: &SafetyCosts) -> SafetyCosts {
    SafetyCosts {
        barriers_region: after.barriers_region - before.barriers_region,
        barrier_instrs: after.barrier_instrs - before.barrier_instrs,
        frames_scanned: after.frames_scanned - before.frames_scanned,
        scan_instrs: after.scan_instrs - before.scan_instrs,
        cleanup_objects: after.cleanup_objects - before.cleanup_objects,
        cleanup_ptrs: after.cleanup_ptrs - before.cleanup_ptrs,
        cleanup_pages: after.cleanup_pages - before.cleanup_pages,
        cleanup_instrs: after.cleanup_instrs - before.cleanup_instrs,
        deletes: after.deletes - before.deletes,
        deletes_failed: after.deletes_failed - before.deletes_failed,
        ..SafetyCosts::default()
    }
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: f64,
    /// Wall time of the served requests (both sessions in parallel).
    pub wall_s: f64,
    /// Per-request latencies of both sessions, sorted ascending.
    pub lat_ns: Vec<u64>,
    pub books: Books,
    /// Span buffers, one per session (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// Read + write stall cycles when the cache model was attached.
    pub stall_cycles: Option<u64>,
    /// Correctness violations found by the post-pass audit.
    pub violations: Vec<String>,
}

/// xorshift64* with a splitmix-scrambled seed.
struct Rng(u64);

impl Rng {
    fn seeded(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// One session: a runtime on its own shard plus its client state.
struct Session {
    rt: RegionRuntime<HeapShard>,
    cells: Vec<Arc<RefCell32>>,
    adm: AdmissionController,
    /// `svc-index`: run [`upkeep`] between requests.
    upkeep: bool,
    idx_desc: DescId,
    cache: Option<RegionId>,
    index: Option<RegionId>,
    since_rotate: u32,
    /// Rotated regions awaiting stepped deletion; an index always
    /// precedes the cache its entries point into.
    pending: VecDeque<RegionId>,
    /// Global slot the self-test's leaked reference is stored in.
    leak_slot: Option<Addr>,
    base_pages: u64,
    start_pages: u64,
    books: Books,
}

impl Session {
    fn own_pages(&self) -> u64 {
        self.rt.data_pages() + self.rt.map_pages()
    }
}

/// Builds a fresh world: space, pool, one session per shard.
fn build(cfg: &SvcConfig) -> (ParRegionPool, Vec<Session>) {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: SPACE_BYTES,
        workers: SESSIONS,
    });
    let pool = ParRegionPool::new();
    let sessions = (0..SESSIONS)
        .map(|s| {
            let mut rt = RegionRuntime::with_config_on(RegionConfig::default(), space.shard(s));
            rt.set_delete_budget(DELETE_BUDGET);
            // struct idx { int tag; struct ent @hot; int pad; struct ent @cold; }
            let idx_desc = rt.register_type(TypeDescriptor::new("idx", 16, vec![4, 12]));
            let leak_slot = (cfg.inject_leak && s == 0).then(|| rt.alloc_globals(4));
            Session {
                rt,
                cells: (0..CELLS).map(|_| pool.register_cell()).collect(),
                adm: AdmissionController::new(Watermarks::new(MARKS.0, MARKS.1)),
                upkeep: cfg.index,
                idx_desc,
                cache: None,
                index: None,
                since_rotate: 0,
                pending: VecDeque::new(),
                leak_slot,
                base_pages: 0,
                start_pages: 0,
                books: Books {
                    digest: fold(FNV_BASIS, u64::from(s)),
                    ..Books::default()
                },
            }
        })
        .collect();
    (pool, sessions)
}

/// Digest code of an error the service workloads can meet.
fn err_code(e: &RegionError) -> u64 {
    match e {
        RegionError::DeleteBlocked { rc, .. } => fold(3, *rc as u64),
        RegionError::Overloaded { pages, .. } => fold(11, *pages),
        _ => 0xe44,
    }
}

/// One request: admission, request region, publish, 2–5 string
/// allocations of 64–508 bytes, unpublish, delete. Returns whether it
/// completed.
fn request(
    s: &mut Session,
    tr: &mut Tracer,
    t: &mut ParThread,
    pool: &ParRegionPool,
    key: u64,
    req: u32,
    leak: bool,
) -> bool {
    let mut rng = Rng::seeded(fold(key, u64::from(req)));
    let fp = s.base_pages + (s.own_pages() - s.start_pages);
    let b = &mut s.books;
    b.submitted += 1;
    b.calls[Layer::Request as usize] += 1;

    b.calls[Layer::Admit as usize] += 1;
    let adm = tr.span(Layer::Admit, req, || s.adm.admit(fp));
    b.digest = fold(b.digest, adm.code());
    if adm == Admission::Shed {
        b.shed += 1;
        return false;
    }
    let allocs = 2 + rng.below(4) as u32;
    let mut size = 64 + (rng.below(448) as u32 & !3);
    if adm == Admission::Degrade {
        size = (size / 2).max(16);
    }

    b.calls[Layer::NewRegion as usize] += 1;
    let r = match tr.span(Layer::NewRegion, req, || s.rt.try_new_region()) {
        Ok(r) => r,
        Err(e) => {
            b.digest = fold(b.digest, err_code(&e));
            b.failed += 1;
            return false;
        }
    };
    let cell = &s.cells[req as usize % CELLS];
    b.calls[Layer::Publish as usize] += 1;
    let pr = tr.span(Layer::Publish, req, || {
        let pr = t.create_region();
        t.retain(pr);
        t.exchange_ref(cell, Some(pr));
        pr
    });
    let mut ok = true;
    for _ in 0..allocs {
        b.calls[Layer::Rstralloc as usize] += 1;
        match tr.span(Layer::Rstralloc, req, || s.rt.try_rstralloc(r, size)) {
            Ok(a) => {
                b.rstralloc_bytes += u64::from(size);
                b.digest = fold(b.digest, u64::from(a.0));
                if leak {
                    if let Some(g) = s.leak_slot {
                        s.rt.store_ptr_global(g, a);
                    }
                }
            }
            Err(e) => {
                b.digest = fold(b.digest, err_code(&e));
                ok = false;
                break;
            }
        }
    }
    b.calls[Layer::Unpublish as usize] += 1;
    let deleted = tr.span(Layer::Unpublish, req, || {
        t.exchange_ref(cell, None);
        t.release(pr);
        pool.try_delete(pr)
    });
    if !deleted {
        b.pool_refused += 1;
        ok = false;
    }
    b.calls[Layer::DeleteRegion as usize] += 1;
    if let Err(e) = tr.span(Layer::DeleteRegion, req, || s.rt.try_delete_region(r)) {
        b.digest = fold(b.digest, err_code(&e));
        b.delete_blocked += 1;
        ok = false;
    }
    if ok {
        b.completed += 1;
    } else {
        b.failed += 1;
    }
    ok
}

/// Post-response upkeep of `svc-index`, run in the gap before request
/// `req` and therefore inside its latency: append a cache block and
/// index entries for the previous (completed) request, rotate the
/// (index, cache) pair every [`ROTATE_EVERY`] completions, and run
/// [`STEPS_PER_GAP`] increments of the pending deletions, oldest first,
/// plus one more on every [`EXTRA_STEP_EVERY`]th request.
fn upkeep(s: &mut Session, tr: &mut Tracer, req: u32, prev_completed: bool) {
    let b = &mut s.books;
    if prev_completed {
        let mut target = Addr::NULL;
        if s.cache.is_none() {
            b.calls[Layer::NewRegion as usize] += 1;
            s.cache = tr
                .span(Layer::NewRegion, req, || s.rt.try_new_region())
                .ok();
        }
        if let Some(c) = s.cache {
            b.calls[Layer::Rstralloc as usize] += 1;
            match tr.span(Layer::Rstralloc, req, || s.rt.try_rstralloc(c, CACHE_CHUNK)) {
                Ok(a) => {
                    b.rstralloc_bytes += u64::from(CACHE_CHUNK);
                    b.digest = fold(b.digest, u64::from(a.0));
                    target = a;
                }
                Err(_) => b.upkeep_errors += 1,
            }
        }
        if s.index.is_none() {
            b.calls[Layer::NewRegion as usize] += 1;
            s.index = tr
                .span(Layer::NewRegion, req, || s.rt.try_new_region())
                .ok();
        }
        b.upkeep_errors += u64::from(s.cache.is_none()) + u64::from(s.index.is_none());
        if let Some(ir) = s.index {
            let desc = s.idx_desc;
            for _ in 0..INDEX_ENTRIES {
                b.calls[Layer::Ralloc as usize] += 1;
                let Ok(a) = tr.span(Layer::Ralloc, req, || s.rt.try_ralloc(ir, desc)) else {
                    b.upkeep_errors += 1;
                    continue;
                };
                b.digest = fold(b.digest, u64::from(a.0));
                if !target.is_null() {
                    for off in [4, 12] {
                        b.calls[Layer::StorePtr as usize] += 1;
                        tr.span(Layer::StorePtr, req, || {
                            s.rt.store_ptr_region(a + off, target)
                        });
                    }
                }
            }
        }
        s.since_rotate += 1;
        if s.since_rotate == ROTATE_EVERY {
            s.since_rotate = 0;
            b.late_rotations += u64::from(!s.pending.is_empty());
            s.pending.extend(s.index.take());
            s.pending.extend(s.cache.take());
        }
    }
    let steps = STEPS_PER_GAP + usize::from(req % EXTRA_STEP_EVERY == EXTRA_STEP_EVERY - 1);
    for _ in 0..steps {
        let Some(&victim) = s.pending.front() else {
            break;
        };
        b.calls[Layer::DeleteStep as usize] += 1;
        match tr.span(Layer::DeleteStep, req, || {
            s.rt.try_delete_region_step(victim)
        }) {
            Ok(DeleteProgress::Parked) => {}
            Ok(DeleteProgress::Done) => {
                b.step_deleted += 1;
                s.pending.pop_front();
            }
            Err(e) => {
                b.digest = fold(b.digest, err_code(&e));
                b.delete_blocked += 1;
                s.pending.pop_front();
            }
        }
    }
}

/// Serves `n` requests of stream `key` on one session, closed loop. A
/// request is issued when the previous response is ready, so upkeep
/// after a response lands in the next request's latency.
fn serve(
    s: &mut Session,
    tr: &mut Tracer,
    pool: &ParRegionPool,
    key: u64,
    n: u32,
    leak_at: Option<u32>,
    lat_ns: &mut Vec<u64>,
) {
    let mut t = pool.register_thread();
    let mut issued = ticks();
    let mut prev_completed = false;
    for req in 0..n {
        tr.open_request(req, issued);
        if s.upkeep {
            upkeep(s, tr, req, prev_completed);
        }
        prev_completed = request(s, tr, &mut t, pool, key, req, leak_at == Some(req));
        let ready = ticks();
        tr.close_request(ready);
        lat_ns.push(ready.saturating_sub(issued));
        issued = ready;
        let pages = s.own_pages();
        s.books.high_water_pages = s.books.high_water_pages.max(pages);
    }
}

/// Deletes whatever the session still holds, stepping through the
/// budget, and returns any refusal.
fn teardown(s: &mut Session) -> Result<(), String> {
    let left: Vec<RegionId> = s
        .pending
        .drain(..)
        .chain(s.index.take())
        .chain(s.cache.take())
        .collect();
    for r in left {
        loop {
            match s.rt.try_delete_region_step(r) {
                Ok(DeleteProgress::Done) => break,
                Ok(DeleteProgress::Parked) => {}
                Err(e) => return Err(format!("teardown delete refused: {e}")),
            }
        }
    }
    Ok(())
}

/// Runs one pass: set-up (timed separately), `requests` per session,
/// one session after the other on the calling thread (timed), then the
/// audit.
pub fn pass(cfg: &SvcConfig, traced: bool, cache_model: bool) -> Pass {
    let t0 = Instant::now();
    let (pool, mut sessions) = build(cfg);
    // Warm-up: first-touch the shard pages, the runtimes' tables and
    // the pool's per-thread caches on a separate request stream.
    let mut warm_lat = Vec::with_capacity(cfg.warmup as usize);
    for (si, s) in sessions.iter_mut().enumerate() {
        let key = fold(fold(cfg.seed ^ 0x7761_726d, si as u64), 1);
        let mut quiet = Tracer::new(false, 0);
        serve(s, &mut quiet, &pool, key, cfg.warmup, None, &mut warm_lat);
        warm_lat.clear();
    }
    let base: u64 = sessions.iter().map(Session::own_pages).sum();
    let mut before = Vec::new();
    for s in &mut sessions {
        s.base_pages = base;
        s.start_pages = s.own_pages();
        s.books = Books {
            digest: s.books.digest,
            ..Books::default()
        };
        s.books.high_water_pages = s.start_pages;
        before.push(*s.rt.costs());
        if cache_model {
            s.rt.heap_mut()
                .attach_sink(Box::new(MemorySystem::default()));
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let n = cfg.requests;
    let leak_at = cfg.inject_leak.then_some(n / 2);
    // Span and latency buffers are allocated and faulted in before the
    // clock starts. Both record ticks until the pass is over.
    let spans_per_req = REQUEST_SPANS + if cfg.index { UPKEEP_SPANS } else { 0 };
    let buffers: Vec<(Tracer, Vec<u64>)> = (0..SESSIONS)
        .map(|_| {
            let mut lat = vec![0u64; n as usize];
            lat.clear();
            (Tracer::new(traced, n as usize * spans_per_req), lat)
        })
        .collect();
    let clock = Clock::start();
    let started = Instant::now();
    let per_session: Vec<(Vec<u64>, Tracer)> = sessions
        .iter_mut()
        .zip(buffers)
        .enumerate()
        .map(|(si, (s, (mut tr, mut lat)))| {
            let key = fold(fold(cfg.seed, si as u64), 0);
            let leak = if si == 0 { leak_at } else { None };
            serve(s, &mut tr, &pool, key, n, leak, &mut lat);
            (lat, tr)
        })
        .collect();
    let wall_s = started.elapsed().as_secs_f64();
    let ns_per_tick = clock.ns_per_tick();

    let mut stall_cycles = None;
    let mut books = Books {
        digest: FNV_BASIS,
        ..Books::default()
    };
    let mut violations = Vec::new();
    for (si, s) in sessions.iter_mut().enumerate() {
        if cache_model {
            let sink = s.rt.heap_mut().detach_sink().expect("cache model attached");
            let stats = MemorySystem::from_sink(sink).stats();
            *stall_cycles.get_or_insert(0) += stats.stall_cycles();
        }
        s.books.costs = costs_delta(s.rt.costs(), &before[si]);
        books.add(&s.books);
        if let Err(e) = teardown(s) {
            violations.push(format!("session {si}: {e}"));
        }
        let live = s.rt.stats().live_regions;
        if live != 0 {
            violations.push(format!("session {si}: {live} regions leaked"));
        }
        let rep = s.rt.sanitize();
        if !rep.is_clean() {
            violations.push(format!("session {si}: sanitize: {rep}"));
        }
        if !s.rt.violations().is_empty() {
            violations.push(format!(
                "session {si}: {} refcount violations",
                s.rt.violations().len()
            ));
        }
    }
    let audit = pool.audit();
    if !audit.is_clean() {
        violations.push(format!("pool audit: {audit}"));
    }
    let live = pool.live_regions().len();
    if live != 0 {
        violations.push(format!("pool: {live} regions leaked"));
    }
    if books.upkeep_errors != 0 {
        violations.push(format!("{} upkeep calls failed", books.upkeep_errors));
    }
    if books.late_rotations != 0 {
        violations.push(format!(
            "{} rotations found the previous deletion unfinished",
            books.late_rotations
        ));
    }
    if books.completed != books.submitted {
        violations.push(format!(
            "{} of {} requests did not complete ({} shed, {} failed)",
            books.submitted - books.completed,
            books.submitted,
            books.shed,
            books.failed
        ));
    }
    if books.submitted != books.completed + books.shed + books.failed {
        violations.push(format!("ledger does not conserve: {books:?}"));
    }
    if books.submitted != u64::from(n) * u64::from(SESSIONS) {
        violations.push(format!(
            "{} requests submitted, {} expected",
            books.submitted,
            n * SESSIONS
        ));
    }
    let mut lat_ns = Vec::with_capacity(n as usize * SESSIONS as usize);
    let mut spans = Vec::new();
    for (lat, tr) in per_session {
        lat_ns.extend(lat.into_iter().map(|t| (t as f64 * ns_per_tick) as u64));
        spans.push(tr.into_ns(clock.origin(), ns_per_tick));
    }
    lat_ns.sort_unstable();
    Pass {
        setup_s,
        wall_s,
        lat_ns,
        books,
        spans,
        stall_cycles,
        violations,
    }
}
