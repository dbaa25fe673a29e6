//! Parallel-region stress bench — the paper's §1 sketch under real
//! threads.
//!
//! Every worker registers with a shared [`ParRegionPool`], creates a
//! batch of regions, and then hammers a shared array of [`RefCell32`]
//! cells with atomic-exchange reference publishes (`exchange_ref`),
//! exactly the racy-write pattern the paper says must use an exchange.
//! Local reference counts are adjusted without synchronization; at the
//! end the main thread clears every cell and `try_delete` must succeed
//! for every region — the cross-thread count sums must all be zero no
//! matter how the schedule interleaved.
//!
//! The run is timed at one worker and at `BENCH_WORKERS` (default: the
//! machine) workers, and writes a results document (which records the
//! worker count alongside the rows) as `par_regions.json`. The
//! checksum folds only schedule-independent facts (regions created,
//! operations performed, final liveness, final global counts, and the
//! pool auditor's counters), so for a fixed worker count it is
//! identical across runs no matter how the threads interleaved: an
//! interleaving-dependent digest would make the row useless as a
//! regression anchor.

use std::sync::Arc;
use std::time::Instant;

use bench_harness::runner::{
    bench_workers, par_bench_workers, scale_from_env, write_results, Cell, Measurement, Row,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use region_core::par::{ParRegionPool, RefCell32};
use region_core::{
    world_mirror_mismatches, DescId, RegionConfig, RegionId, RegionRuntime, TypeDescriptor,
};
use simheap::{Addr, HeapBackend, HeapShard, SharedSpace, SpaceConfig};

/// Cells shared by every worker.
const CELLS: usize = 64;
/// Regions created by each worker.
const REGIONS_PER_WORKER: usize = 16;
/// Exchange operations per worker per unit of scale.
const OPS_PER_SCALE: u64 = 100_000;
/// Logical shards in the shared-space mode. Fixed — the digest anchors
/// on the shard count, not on how many OS threads execute them.
const LOGICAL_SHARDS: u32 = 4;
/// Barrier-separated rounds the shared-space scripts are split into, so
/// shards genuinely migrate between OS threads mid-run.
const SHARD_ROUNDS: u64 = 8;
/// Region operations per logical shard per unit of scale.
const SHARD_OPS_PER_SCALE: u64 = 24_000;

/// FNV-1a, the same fold the golden traces use.
fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

struct RunResult {
    elapsed: std::time::Duration,
    regions: u64,
    ops: u64,
    digest: u64,
}

/// Runs the protocol with `workers` threads and verifies every
/// schedule-independent postcondition.
fn run(workers: usize, scale: u32) -> RunResult {
    let pool = ParRegionPool::new();
    // Registering the cells lets `pool.audit()` recompute the published
    // side of the books after the run.
    let cells: Vec<Arc<RefCell32>> = (0..CELLS).map(|_| pool.register_cell()).collect();
    let ops_per_worker = OPS_PER_SCALE * u64::from(scale);

    let t = Instant::now();
    let regions = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let cells = &cells;
                s.spawn(move || {
                    let mut thread = pool.register_thread();
                    let mine: Vec<_> =
                        (0..REGIONS_PER_WORKER).map(|_| thread.create_region()).collect();
                    // Deterministic per-thread schedule; the interleaving
                    // across threads is whatever the machine does.
                    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ w as u64);
                    for _ in 0..ops_per_worker {
                        let cell = &cells[rng.gen_range(0..CELLS)];
                        if rng.gen_range(0..4) == 0 {
                            thread.exchange_ref(cell, None);
                        } else {
                            let r = mine[rng.gen_range(0..mine.len())];
                            thread.exchange_ref(cell, Some(r));
                        }
                    }
                    mine
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("worker panicked"));
        }
        all
    });

    // Drop the references still parked in cells, then deletion must
    // succeed everywhere: the local counts sum to zero exactly when every
    // publish was balanced by a displacement or a clear.
    let mut main_thread = pool.register_thread();
    for cell in &cells {
        main_thread.exchange_ref(cell, None);
    }
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    // The books must balance before any deletion: counted == recomputed
    // for every region, no dead-thread residue, no dangling cells.
    let audit = pool.audit();
    assert!(audit.is_clean(), "pre-delete audit failed:\n{audit}");
    digest = fnv(digest, audit.regions_audited as u64);
    digest = fnv(digest, audit.cells_audited as u64);
    for &r in &regions {
        let count = pool.global_count(r);
        assert_eq!(count, 0, "unbalanced local counts for {r:?}");
        assert!(pool.try_delete(r), "zero-count region must delete");
        assert!(!pool.is_live(r));
        digest = fnv(digest, count as u64);
        digest = fnv(digest, u64::from(!pool.is_live(r)));
    }
    // And they must still balance after every region is gone.
    let audit = pool.audit();
    assert!(audit.is_clean(), "post-delete audit failed:\n{audit}");
    assert_eq!(audit.quarantined, 0, "a clean run must quarantine nothing");
    digest = fnv(digest, audit.quarantined as u64);
    let elapsed = t.elapsed();
    let regions = regions.len() as u64;
    let ops = ops_per_worker * workers as u64;
    digest = fnv(digest, regions);
    RunResult { elapsed, regions, ops, digest }
}

/// A deterministic region workload bound to one runtime. The digest
/// folds every observable — returned addresses, loaded values, delete
/// verdicts, the full stats/costs books, heap counters, and the
/// sanitizer verdict — so two backends, or the same backend under
/// different schedules, agree iff their digests agree.
struct ShardScript<H: HeapBackend> {
    id: u32,
    rt: RegionRuntime<H>,
    rng: StdRng,
    node: DescId,
    regions: Vec<RegionId>,
    objs: Vec<(Addr, RegionId)>,
    created: u64,
    digest: u64,
}

impl<H: HeapBackend> ShardScript<H> {
    fn new(id: u32, mut rt: RegionRuntime<H>) -> ShardScript<H> {
        let node = rt.register_type(TypeDescriptor::new("node", 16, vec![8]));
        ShardScript {
            id,
            rt,
            rng: StdRng::seed_from_u64(0x5EED_0000 ^ u64::from(id)),
            node,
            regions: Vec::new(),
            objs: Vec::new(),
            created: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, v: u64) {
        self.digest = fnv(self.digest, v);
    }

    /// One deterministic op. The mix leans on allocation, barriered
    /// pointer stores, and region deletion — the operations a sharded
    /// space must keep worker-local.
    fn step(&mut self) {
        match self.rng.gen_range(0..10u32) {
            0 => {
                if self.regions.len() < 24 {
                    let r = self.rt.new_region();
                    self.regions.push(r);
                    self.created += 1;
                    self.fold(u64::from(r.index()));
                }
            }
            1 | 2 | 3 => {
                if self.regions.is_empty() {
                    return;
                }
                let r = self.regions[self.rng.gen_range(0..self.regions.len())];
                match self.rt.try_ralloc(r, self.node) {
                    Ok(a) => {
                        self.objs.push((a, r));
                        self.fold(u64::from(a.raw()));
                    }
                    Err(e) => self.fold(0x8000_0000_0000_0000 | e.to_string().len() as u64),
                }
            }
            4 => {
                if self.objs.is_empty() {
                    return;
                }
                let (a, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let v: u32 = self.rng.gen();
                self.rt.heap_mut().store_u32(a.offset(4 * (v % 2)), v);
            }
            5 => {
                if self.objs.is_empty() {
                    return;
                }
                let (a, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let v = self.rt.heap_mut().load_u32(a);
                self.fold(u64::from(v));
            }
            6 | 7 => {
                if self.objs.is_empty() {
                    return;
                }
                let (loc, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                let (val, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                self.rt.store_ptr_unknown(loc.offset(8), val);
            }
            8 => {
                if self.objs.is_empty() {
                    return;
                }
                let (loc, _) = self.objs[self.rng.gen_range(0..self.objs.len())];
                self.rt.store_ptr_unknown(loc.offset(8), Addr::NULL);
            }
            _ => {
                if self.regions.is_empty() {
                    return;
                }
                let r = self.regions[self.rng.gen_range(0..self.regions.len())];
                let deleted = match self.rt.try_delete_region(r) {
                    Ok(()) => true,
                    Err(e) => {
                        self.fold(0x4000_0000_0000_0000 | e.to_string().len() as u64);
                        false
                    }
                };
                self.fold(u64::from(deleted));
                if deleted {
                    // Dangling stores into pages a future region may own
                    // would corrupt object headers; drop the objects.
                    self.objs.retain(|&(_, owner)| owner != r);
                }
            }
        }
    }

    fn run_ops(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Closes the books: folds stats, costs, heap counters, and the
    /// sanitizer verdict, returning the digest and the runtime.
    fn finish(mut self) -> (u64, RegionRuntime<H>) {
        let s = self.rt.stats();
        for v in [s.total_allocs, s.total_bytes, s.max_live_bytes, s.total_regions, s.live_regions]
        {
            self.digest = fnv(self.digest, v);
        }
        let c = self.rt.costs();
        for v in [c.barrier_instrs, c.cleanup_instrs, c.deletes, c.deletes_failed] {
            self.digest = fnv(self.digest, v);
        }
        self.digest = fnv(self.digest, self.rt.heap().load_count());
        self.digest = fnv(self.digest, self.rt.heap().store_count());
        self.digest = fnv(self.digest, u64::from(self.rt.heap().brk().raw()));
        let report = self.rt.sanitize();
        assert!(report.is_clean(), "shard {} failed sanitize:\n{report}", self.id);
        self.digest = fnv(self.digest, 1);
        (self.digest, self.rt)
    }
}

/// Runs the four fixed logical shards of one [`SharedSpace`] to
/// completion on `threads` OS threads, in barrier-separated rounds with
/// the shards redistributed round-robin each round. Each shard's op
/// stream depends only on its own seed, so the combined digest is
/// identical no matter how many threads execute it.
fn run_shared(threads: usize, scale: u32) -> RunResult {
    let space = SharedSpace::new(SpaceConfig {
        max_bytes: RegionConfig::default().heap.max_bytes,
        workers: LOGICAL_SHARDS,
    });
    let mut scripts: Vec<ShardScript<HeapShard>> = (0..LOGICAL_SHARDS)
        .map(|w| ShardScript::new(w, RegionRuntime::with_config_on(RegionConfig::default(), space.shard(w))))
        .collect();
    let ops_per_shard = SHARD_OPS_PER_SCALE * u64::from(scale);
    let chunk = ops_per_shard.div_ceil(SHARD_ROUNDS);
    let t = Instant::now();
    let mut done = 0;
    while done < ops_per_shard {
        let n = chunk.min(ops_per_shard - done);
        let mut buckets: Vec<Vec<ShardScript<HeapShard>>> =
            (0..threads).map(|_| Vec::new()).collect();
        // Rotate the assignment with the round so every shard really
        // crosses OS threads over the run.
        let round = done / chunk;
        for (i, sc) in scripts.drain(..).enumerate() {
            buckets[(i + round as usize) % threads].push(sc);
        }
        let mut back: Vec<ShardScript<HeapShard>> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|mut b| {
                    s.spawn(move || {
                        for sc in &mut b {
                            sc.run_ops(n);
                        }
                        b
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        back.sort_by_key(|sc| sc.id);
        scripts = back;
        done += n;
    }
    let elapsed = t.elapsed();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut regions = 0;
    let mut runtimes = Vec::new();
    for sc in scripts {
        regions += sc.created;
        let (d, rt) = sc.finish();
        digest = fnv(digest, d);
        runtimes.push(rt);
    }
    // Every worker's private page map must agree with the published
    // atomic mirror — the cross-shard audit the snapshot gate also uses.
    let mismatches = world_mirror_mismatches(&space, runtimes.iter());
    assert_eq!(mismatches, 0, "shared-space mirror diverged from the shards' books");
    digest = fnv(digest, mismatches as u64);
    RunResult {
        elapsed,
        regions,
        ops: ops_per_shard * u64::from(LOGICAL_SHARDS),
        digest,
    }
}

fn measurement(label: &'static str, m: &RunResult) -> Measurement {
    Measurement {
        workload: "par_regions",
        allocator: label,
        total: m.elapsed,
        mem: m.elapsed,
        os_pages: 0,
        stats: region_core::AllocStats {
            total_allocs: m.ops,
            total_regions: m.regions,
            ..Default::default()
        },
        inner_stats: None,
        costs: None,
        cache: None,
        checksum: m.digest,
    }
}

/// One private-vs-shard arm: runs the `ShardScript` to completion on a
/// runtime and reports `(wall, digest, regions, loads, stores, brk)`.
fn ab_arm<H: HeapBackend>(rt: RegionRuntime<H>, ops: u64) -> (f64, u64, u64, u64, u64, u32) {
    let t = Instant::now();
    let mut sc = ShardScript::new(0, rt);
    sc.run_ops(ops);
    let wall = t.elapsed().as_secs_f64() * 1e3;
    let created = sc.created;
    let (digest, rt) = sc.finish();
    (wall, digest, created, rt.heap().load_count(), rt.heap().store_count(), rt.heap().brk().raw())
}

/// Interleaved A/B for the sharded space, written as `shard_ab.json`.
/// Two comparisons:
///
/// 1. **private vs W=1 shard** — the same deterministic script on a
///    private `SimHeap` and on the single shard of a one-worker shared
///    space must produce bit-identical books (digest, counters, brk).
/// 2. **shared world, 1 vs N threads** — the four-shard space driven by
///    one OS thread vs `par_bench_workers()` threads must produce the
///    same digest; only wall clock may move.
///
/// Arms alternate within each rep (A/B/A/B…) so thermal drift cancels;
/// wall times are the min over reps; every counter is asserted
/// deterministic across arms *and* reps. Rows: `shard_script/private`
/// and `shard_script/shard1` (books and wall time of each arm), and
/// `shared_world/shards4` (digest, 1-thread time, and the N-thread time
/// as the parallel-pass column).
fn shard_ab(scale: u32) {
    const REPS: usize = 3;
    let ops = SHARD_OPS_PER_SCALE * u64::from(scale);
    let threads = par_bench_workers();
    println!("Shard A/B: private vs shared-space books, scale {scale}, min of {REPS}");

    let (mut priv_ms, mut shard_ms) = (f64::INFINITY, f64::INFINITY);
    let mut pair: Option<(u64, u64, u64, u64, u32)> = None;
    for _ in 0..REPS {
        let (wa, da, ra, la, sa, ba) =
            ab_arm(RegionRuntime::with_config(RegionConfig::default()), ops);
        let space = SharedSpace::new(SpaceConfig {
            max_bytes: RegionConfig::default().heap.max_bytes,
            workers: 1,
        });
        let (wb, db, rb, lb, sb, bb) =
            ab_arm(RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0)), ops);
        let a = (da, ra, la, sa, ba);
        let b = (db, rb, lb, sb, bb);
        assert_eq!(a, b, "W=1 shard books must be bit-identical to the private heap");
        if let Some(p) = pair {
            assert_eq!(p, a, "counter drift across reps");
        }
        pair = Some(a);
        priv_ms = priv_ms.min(wa);
        shard_ms = shard_ms.min(wb);
    }
    let (digest, regions, loads, stores, brk) = pair.expect("REPS > 0");
    println!(
        "  private vs W=1 shard: digest {digest:016x}, {regions} regions, \
         {loads} loads / {stores} stores — bit-identical; \
         min {priv_ms:.1} ms vs {shard_ms:.1} ms"
    );

    let (mut one_ms, mut n_ms) = (f64::INFINITY, f64::INFINITY);
    let mut shared_digest: Option<u64> = None;
    for _ in 0..REPS {
        let r1 = run_shared(1, scale);
        let rn = run_shared(threads, scale);
        assert_eq!(r1.digest, rn.digest, "shared digest must not depend on the thread count");
        if let Some(d) = shared_digest {
            assert_eq!(d, r1.digest, "shared digest drift across reps");
        }
        shared_digest = Some(r1.digest);
        one_ms = one_ms.min(r1.elapsed.as_secs_f64() * 1e3);
        n_ms = n_ms.min(rn.elapsed.as_secs_f64() * 1e3);
    }
    let shared_digest = shared_digest.expect("REPS > 0");
    println!(
        "  shared {LOGICAL_SHARDS}-shard world: digest {shared_digest:016x} at 1 and {threads} \
         threads; min {one_ms:.1} ms vs {n_ms:.1} ms"
    );

    let script = |arm: &str, ms: f64| {
        Row::new("shard_script", arm)
            .with("total_ms", Cell::Time(ms))
            .with("regions", Cell::Exact(regions))
            .with("loads", Cell::Exact(loads))
            .with("stores", Cell::Exact(stores))
            .with("brk", Cell::Exact(u64::from(brk)))
            .with("checksum", Cell::Exact(digest))
    };
    let rows = [
        script("private", priv_ms),
        script("shard1", shard_ms),
        Row::new("shared_world", &format!("shards{LOGICAL_SHARDS}"))
            .with("total_ms", Cell::Time(one_ms))
            .with("par_total_ms", Cell::ParTime(n_ms))
            .with("checksum", Cell::Exact(shared_digest)),
    ];
    match write_results("shard_ab", scale, &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write shard_ab results: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let scale = scale_from_env();
    let workers = bench_workers();
    if std::env::args().any(|a| a == "--shard-ab") {
        shard_ab(scale);
        return;
    }

    println!("Parallel regions: exchange-published references, scale {scale}");
    let serial = run(1, scale);
    let par = run(workers, scale);
    let par_again = run(workers, scale);
    assert_eq!(
        par.digest, par_again.digest,
        "schedule-independent digest must not vary between runs"
    );
    for (label, r) in [("1 worker", &serial), ("N workers", &par)] {
        let mops = r.ops as f64 / r.elapsed.as_secs_f64() / 1e6;
        println!(
            "  {label:<10} ({} threads): {} exchanges over {} regions in {:>7.1} ms ({mops:.1} M ops/s)",
            if std::ptr::eq(r, &serial) { 1 } else { workers },
            r.ops,
            r.regions,
            r.elapsed.as_secs_f64() * 1e3,
        );
    }
    println!(
        "  digest {:016x}; every region deleted with a zero count sum, audit clean",
        par.digest
    );

    // Shared-space mode: the same four logical shards of ONE address
    // space, executed by 1, 2 and N OS threads in barrier-separated
    // rounds. Per-shard op streams depend only on their own seed, so
    // all four same-seed runs must land on one digest.
    let par_threads = par_bench_workers();
    println!();
    println!(
        "Shared-space shards: {LOGICAL_SHARDS} logical shards over one address space, \
         {SHARD_ROUNDS} barrier rounds"
    );
    let shard1 = run_shared(1, scale);
    let shard2 = run_shared(2, scale);
    let shardn = run_shared(par_threads, scale);
    let shardn_again = run_shared(par_threads, scale);
    for (threads, r) in [(1, &shard1), (2, &shard2), (par_threads, &shardn)] {
        println!(
            "  {threads:>2} thread(s): {} region ops over {} regions in {:>7.1} ms",
            r.ops,
            r.regions,
            r.elapsed.as_secs_f64() * 1e3,
        );
    }
    assert_eq!(shard1.digest, shard2.digest, "digest must not depend on the thread count");
    assert_eq!(shard1.digest, shardn.digest, "digest must not depend on the thread count");
    assert_eq!(shardn.digest, shardn_again.digest, "same-seed reruns must agree");
    println!(
        "  digest {:016x} identical at 1, 2 and {par_threads} threads (and across reruns); \
         mirror audit clean",
        shard1.digest
    );

    let rows = [
        measurement("par1", &serial),
        measurement("parN", &par),
        measurement("shard1", &shard1),
        measurement("shardN", &shardn),
    ];
    let rows: Vec<_> = rows.iter().map(Measurement::row).collect();
    match write_results("par_regions", scale, &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }
}
