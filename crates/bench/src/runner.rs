//! Workload execution and measurement shared by every table/figure
//! binary.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cache_sim::{MemStats, MemorySystem};
use region_core::{AllocStats, SafetyCosts};
use simheap::SimHeap;
use workloads::{MallocEnv, MallocKind, RegionEnv, RegionKind, Workload};

use crate::results::ColumnKind;
use crate::supervise::{supervise, JobOutcome, SuperviseConfig};

/// Locks the warm-heap pool, tolerating poison: a panic inside a matrix
/// cell happens while the pool is *unlocked* (heaps are popped before and
/// pushed after a run), so a poisoned lock only means some other cell
/// died — the pooled heaps themselves are fine to reuse.
fn lock_pool(pool: &Mutex<Vec<SimHeap>>) -> MutexGuard<'_, Vec<SimHeap>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Workload scale, from the `SCALE` environment variable (default 2).
/// Passing `--quick` to a benchmark binary forces scale 1 (CI smoke
/// runs). An unparseable `SCALE` warns instead of silently defaulting.
pub fn scale_from_env() -> u32 {
    if std::env::args().any(|a| a == "--quick") {
        return 1;
    }
    match std::env::var("SCALE") {
        Ok(s) => match s.trim().parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("warning: SCALE={s:?} is not an unsigned integer; using default 2");
                2
            }
        },
        Err(_) => 2,
    }
}

/// Everything measured from one workload × allocator run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Allocator/backend name as used in the paper's figures.
    pub allocator: &'static str,
    /// Wall-clock time of the whole run.
    pub total: Duration,
    /// Time inside memory management (the "memory" share of Figure 9).
    pub mem: Duration,
    /// Pages requested from the OS (Figure 8).
    pub os_pages: u64,
    /// Allocation statistics (Tables 2/3).
    pub stats: AllocStats,
    /// Underlying-malloc statistics for emulation runs ("with overhead").
    pub inner_stats: Option<AllocStats>,
    /// Safety-cost counters (safe-region runs only; Figure 11).
    pub costs: Option<SafetyCosts>,
    /// Cache-simulator counters (traced runs only; Figure 10).
    pub cache: Option<MemStats>,
    /// The workload's answer (must agree across allocators).
    pub checksum: u64,
}

impl Measurement {
    /// The "base" share of Figure 9.
    pub fn base(&self) -> Duration {
        self.total.saturating_sub(self.mem)
    }
}

/// Runs the malloc/free variant of a workload under one allocator.
/// `traced` attaches the cache simulator (slower; for Figure 10).
pub fn measure_malloc(w: Workload, kind: MallocKind, scale: u32, traced: bool) -> Measurement {
    measure_malloc_on(w, kind, scale, traced, SimHeap::new()).0
}

/// [`measure_malloc`] on a recycled heap, returning the (reset-ready) heap
/// for the next run. The environment resets the heap before use, so the
/// measurement is bit-identical to a fresh-heap run.
pub fn measure_malloc_on(
    w: Workload,
    kind: MallocKind,
    scale: u32,
    traced: bool,
    heap: SimHeap,
) -> (Measurement, SimHeap) {
    let mut env = MallocEnv::on_heap(kind, heap);
    if traced {
        env.heap().attach_sink(Box::new(MemorySystem::default()));
    }
    let t = Instant::now();
    let checksum = w.run_malloc(&mut env, scale);
    let total = t.elapsed();
    let mem = env.mem_time();
    let os_pages = env.os_pages();
    let stats = *env.stats();
    let mut heap = env.into_heap();
    let cache = if traced {
        let sink = heap.detach_sink().expect("sink attached");
        Some(MemorySystem::from_sink(sink).stats())
    } else {
        None
    };
    let m = Measurement {
        workload: w.name(),
        allocator: kind.name(),
        total,
        mem,
        os_pages,
        stats,
        inner_stats: None,
        costs: None,
        cache,
        checksum,
    };
    (m, heap)
}

/// Runs the region variant of a workload under one region backend.
pub fn measure_region(w: Workload, kind: RegionKind, scale: u32, traced: bool) -> Measurement {
    measure_region_on(w, kind, scale, traced, SimHeap::new()).0
}

/// [`measure_region`] with *sameregion* barrier elision on or off (every
/// other region run is paper-faithful, elision off) — the elision A/B
/// drives both arms from one process.
pub fn measure_region_elide(w: Workload, kind: RegionKind, scale: u32, elide: bool) -> Measurement {
    run_region_fn(w.name(), kind, false, elide, SimHeap::new(), |env| w.run_region(env, scale)).0
}

/// [`measure_region`] on a recycled heap (see [`measure_malloc_on`]).
pub fn measure_region_on(
    w: Workload,
    kind: RegionKind,
    scale: u32,
    traced: bool,
    heap: SimHeap,
) -> (Measurement, SimHeap) {
    run_region_fn(w.name(), kind, traced, false, heap, |env| w.run_region(env, scale))
}

/// Runs moss's "slow" (single-region, interleaved) layout — the extra
/// bar of Figures 9 and 10.
pub fn measure_region_slow(kind: RegionKind, scale: u32, traced: bool) -> Measurement {
    measure_region_slow_on(kind, scale, traced, SimHeap::new()).0
}

/// [`measure_region_slow`] on a recycled heap (see [`measure_malloc_on`]).
pub fn measure_region_slow_on(
    kind: RegionKind,
    scale: u32,
    traced: bool,
    heap: SimHeap,
) -> (Measurement, SimHeap) {
    let (mut m, heap) = run_region_fn("moss", kind, traced, false, heap, |env| {
        workloads::moss::run_region_slow(env, scale)
    });
    m.allocator = "Slow";
    (m, heap)
}

fn run_region_fn(
    name: &'static str,
    kind: RegionKind,
    traced: bool,
    elide: bool,
    heap: SimHeap,
    run: impl FnOnce(&mut RegionEnv) -> u64,
) -> (Measurement, SimHeap) {
    let mut env = RegionEnv::on_heap(kind, heap);
    env.set_elide(elide);
    if traced {
        env.heap().attach_sink(Box::new(MemorySystem::default()));
    }
    let t = Instant::now();
    let checksum = run(&mut env);
    let total = t.elapsed();
    let mem = env.mem_time();
    let os_pages = env.os_pages();
    let stats = *env.stats();
    let inner_stats = env.emulation_inner_stats().copied();
    let costs = env.costs().copied();
    if std::env::var("REGION_SANITIZE").is_ok_and(|v| v == "1") {
        if let Some(report) = env.sanitize() {
            assert!(
                report.is_clean(),
                "REGION_SANITIZE: {name}/{} left a dirty runtime: {report}",
                kind.name()
            );
        }
    }
    let mut heap = env.into_heap();
    let cache = if traced {
        let sink = heap.detach_sink().expect("sink attached");
        Some(MemorySystem::from_sink(sink).stats())
    } else {
        None
    };
    let m = Measurement {
        workload: name,
        allocator: kind.name(),
        total,
        mem,
        os_pages,
        stats,
        inner_stats,
        costs,
        cache,
        checksum,
    };
    (m, heap)
}

// ----------------------------------------------------------------------
// Parallel workload × allocator matrix
// ----------------------------------------------------------------------

/// One cell of a workload × allocator matrix.
#[derive(Clone, Copy, Debug)]
pub enum Job {
    /// The malloc/free variant of a workload under one allocator.
    Malloc(Workload, MallocKind),
    /// The region variant of a workload under one region backend.
    Region(Workload, RegionKind),
    /// moss's "slow" single-region layout (Figures 9/10 extra bar).
    MossSlow(RegionKind),
}

impl Job {
    /// Runs this cell and returns its measurement.
    pub fn run(self, scale: u32, traced: bool) -> Measurement {
        self.run_warm(SimHeap::new(), scale, traced).0
    }

    /// Runs this cell on a recycled heap and hands the heap back for the
    /// next cell. The environment resets the heap before use, so every
    /// counter, checksum, and footprint row is bit-identical to a
    /// fresh-heap run; only the host allocation backing the simulated
    /// memory is reused.
    pub fn run_warm(self, heap: SimHeap, scale: u32, traced: bool) -> (Measurement, SimHeap) {
        match self {
            Job::Malloc(w, kind) => measure_malloc_on(w, kind, scale, traced, heap),
            Job::Region(w, kind) => measure_region_on(w, kind, scale, traced, heap),
            Job::MossSlow(kind) => measure_region_slow_on(kind, scale, traced, heap),
        }
    }
}

/// Runs every cell of a matrix, fanning jobs across worker threads.
///
/// Each [`Measurement`] owns an independent `SimHeap`, so cells are
/// embarrassingly parallel; workers (bounded by the machine's available
/// parallelism) pull cells from a shared cursor, and results are
/// returned **in matrix order** regardless of completion order, so
/// output stays deterministic.
pub fn run_matrix(jobs: &[Job], scale: u32, traced: bool) -> Vec<Measurement> {
    run_matrix_with(jobs, scale, traced, bench_workers())
}

/// [`run_matrix`] warm-started from a captured heap snapshot: the pool
/// is pre-seeded with one heap restored from `image` per worker, so a
/// cell's first run adopts memory already grown to the snapshot's break
/// instead of paying workload setup's `sbrk` growth on a cold heap.
/// Environments reset adopted heaps before use, so every deterministic
/// field — checksums, counters, footprints, traces — is bit-identical
/// to a cold start (asserted by `warm_start_from_snapshot_matches_cold`);
/// only host-allocation reuse differs.
pub fn run_matrix_from_snapshot(
    jobs: &[Job],
    scale: u32,
    traced: bool,
    image: &simheap::HeapImage,
) -> Vec<Measurement> {
    let workers = bench_workers();
    let seed: Vec<SimHeap> =
        (0..workers.min(jobs.len())).map(|_| SimHeap::from_image(image)).collect();
    let rows = run_matrix_checked_seeded(jobs, scale, traced, workers, seed);
    let failures: Vec<String> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| format!("{:?}: {e}", jobs[i])))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} matrix cells failed:\n  {}",
        failures.len(),
        jobs.len(),
        failures.join("\n  ")
    );
    rows.into_iter().map(|r| r.expect("failures checked above")).collect()
}

/// The worker count benches fan across: `BENCH_WORKERS` if set (min 1),
/// else the machine's available parallelism. Recorded in every
/// `results/*.json` envelope so multi-core reruns are comparable with
/// single-core baselines.
pub fn bench_workers() -> usize {
    match std::env::var("BENCH_WORKERS").ok().and_then(|w| w.parse().ok()) {
        Some(w) if w >= 1 => w,
        _ => host_cores(),
    }
}

/// The machine's detected core count (available parallelism), 1 if
/// undetectable.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The worker count for the figures' **parallel pass**: `BENCH_PAR_WORKERS`
/// if set (min 1), else at least 3 even on a single-core machine. The
/// floor keeps single-core CI honest — the pass always exercises real
/// cross-thread scheduling, so "parallel execution does not perturb
/// simulated results" is checked everywhere, not just on big hosts.
pub fn par_bench_workers() -> usize {
    match std::env::var("BENCH_PAR_WORKERS").ok().and_then(|w| w.parse().ok()) {
        Some(w) if w >= 1 => w,
        _ => host_cores().max(3),
    }
}

/// [`run_matrix`] with an explicit worker count (normally taken from the
/// machine, overridable with `BENCH_WORKERS`).
///
/// Panics only after **every** cell has finished, listing each failed
/// cell — one faulted job costs that job, not the matrix.
pub fn run_matrix_with(jobs: &[Job], scale: u32, traced: bool, workers: usize) -> Vec<Measurement> {
    let rows = run_matrix_checked(jobs, scale, traced, workers);
    let failures: Vec<String> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| format!("{:?}: {e}", jobs[i])))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} matrix cells failed:\n  {}",
        failures.len(),
        jobs.len(),
        failures.join("\n  ")
    );
    rows.into_iter().map(|r| r.expect("failures checked above")).collect()
}

/// [`run_matrix_with`], but a cell that panics yields `Err(message)` in
/// its slot instead of taking down the matrix. A thin wrapper over
/// [`supervise`] (single attempt, no deadline): each job runs under
/// `catch_unwind` and the other workers keep draining the cursor. The
/// chaos harness uses this to assert that an injected fault degrades one
/// measurement, not the run.
pub fn run_matrix_checked(
    jobs: &[Job],
    scale: u32,
    traced: bool,
    workers: usize,
) -> Vec<Result<Measurement, String>> {
    run_matrix_checked_seeded(jobs, scale, traced, workers, Vec::new())
}

/// [`run_matrix_checked`] with the warm pool pre-seeded (restored
/// snapshot heaps for [`run_matrix_from_snapshot`], empty for a cold
/// start).
fn run_matrix_checked_seeded(
    jobs: &[Job],
    scale: u32,
    traced: bool,
    workers: usize,
    seed: Vec<SimHeap>,
) -> Vec<Result<Measurement, String>> {
    let cfg = SuperviseConfig { workers, ..SuperviseConfig::default() };
    // Warm heap pool: finished cells return their SimHeap and the next
    // cell adopts it (reset-and-reuse), so a long matrix allocates ~one
    // heap per worker instead of one per cell. A cell that panics drops
    // its heap with the unwound environment — a possibly-corrupt heap is
    // never recycled, keeping fault containment intact.
    let pool: Arc<Mutex<Vec<SimHeap>>> = Arc::new(Mutex::new(seed));
    let closures: Vec<_> = jobs
        .iter()
        .map(|&job| {
            let pool = Arc::clone(&pool);
            move |_attempt: u32| {
                let warm = lock_pool(&pool).pop().unwrap_or_else(SimHeap::new);
                let (m, heap) = job.run_warm(warm, scale, traced);
                lock_pool(&pool).push(heap);
                m
            }
        })
        .collect();
    supervise(closures, &cfg)
        .into_iter()
        .map(|r| match r.outcome {
            JobOutcome::Completed(m) => Ok(m),
            JobOutcome::Panicked(msg) => Err(msg),
            JobOutcome::TimedOut(d) => Err(format!("timed out after {d:?}")),
        })
        .collect()
}

/// The version stamped into every `results/*.json` document. Bump it
/// whenever the document shape changes; `compare_results` only reads
/// documents of this version.
///
/// v3 added `workers` and `host_cores` to the envelope. v4 declares
/// every column once, with its [`ColumnKind`], in a `columns` map,
/// records the workload `scale`, and writes exact cells as integers
/// that the reader keeps exact over the whole `u64` range.
pub const RESULTS_SCHEMA_VERSION: u64 = 4;

/// One cell of a results row. The variant is the column's
/// [`ColumnKind`]; exact cells are integers, the rest milliseconds or
/// (for [`Cell::Latency`]) the service's pause and latency shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A deterministic counter or digest.
    Exact(u64),
    /// Wall-clock milliseconds.
    Time(f64),
    /// Wall-clock milliseconds of the parallel pass.
    ParTime(f64),
    /// A latency or pause figure; drift only ever warns.
    Latency(f64),
}

impl Cell {
    /// The kind of the column this cell belongs to.
    pub fn kind(self) -> ColumnKind {
        match self {
            Cell::Exact(_) => ColumnKind::Exact,
            Cell::Time(_) => ColumnKind::Time,
            Cell::ParTime(_) => ColumnKind::ParTime,
            Cell::Latency(_) => ColumnKind::Latency,
        }
    }

    fn render(self) -> String {
        match self {
            Cell::Exact(n) => n.to_string(),
            Cell::Time(x) | Cell::ParTime(x) | Cell::Latency(x) => format!("{x:.3}"),
        }
    }
}

/// One row of a results document: its identity and its named cells,
/// in output order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload (or program, or bench section) name.
    pub workload: String,
    /// Allocator, backend or arm name.
    pub allocator: String,
    /// `(column, cell)` pairs.
    pub cells: Vec<(String, Cell)>,
}

impl Row {
    /// An empty row with the given identity.
    pub fn new(workload: &str, allocator: &str) -> Row {
        Row { workload: workload.to_string(), allocator: allocator.to_string(), cells: Vec::new() }
    }

    /// This row with one more cell.
    pub fn with(mut self, column: &str, cell: Cell) -> Row {
        self.cells.push((column.to_string(), cell));
        self
    }
}

impl Measurement {
    /// This measurement as a results row — the one place a
    /// [`Measurement`] becomes cells.
    pub fn row(&self) -> Row {
        let s = &self.stats;
        let mut row = Row::new(self.workload, self.allocator)
            .with("total_ms", Cell::Time(self.total.as_secs_f64() * 1e3))
            .with("mem_ms", Cell::Time(self.mem.as_secs_f64() * 1e3))
            .with("os_pages", Cell::Exact(self.os_pages))
            .with("total_allocs", Cell::Exact(s.total_allocs))
            .with("total_bytes", Cell::Exact(s.total_bytes))
            .with("max_live_bytes", Cell::Exact(s.max_live_bytes));
        if let Some(c) = &self.costs {
            row = row
                .with("safety_instrs", Cell::Exact(c.total_instrs()))
                .with("barriers_elided", Cell::Exact(c.barriers_elided));
        }
        if let Some(c) = &self.cache {
            row = row
                .with("read_stall_cycles", Cell::Exact(c.read_stall_cycles))
                .with("write_stall_cycles", Cell::Exact(c.write_stall_cycles));
        }
        row.with("checksum", Cell::Exact(self.checksum))
    }
}

/// Writes `rows` as the schema-v4 document `<name>.json` and returns its
/// path. A full run writes under `results/`; a `--quick` run (the flag
/// [`scale_from_env`] reads) writes under `target/results/`, so smoke
/// runs never overwrite the committed documents. `scale` is the
/// workload scale the rows were measured at.
pub fn write_results(name: &str, scale: u32, rows: &[Row]) -> std::io::Result<std::path::PathBuf> {
    let quick = std::env::args().any(|a| a == "--quick");
    let dir = std::path::Path::new(if quick { "target/results" } else { "results" });
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, render_results(name, scale, rows))?;
    Ok(path)
}

/// The document [`write_results`] writes: the envelope (`schema_version`,
/// `bench`, `commit`, `scale`, `workers`, `host_cores`, plus
/// `par_workers` when a [`Cell::ParTime`] column is present), the
/// `columns` map declaring each column's kind once, and one object per
/// row. Deterministic counters are worker-count-independent (each cell
/// owns its `SimHeap`); wall-clock fields are not, which is why the
/// envelope records how wide the run fanned out.
///
/// Panics if a column appears with two kinds or two rows share an
/// identity — either would make the document ambiguous to compare.
pub fn render_results(name: &str, scale: u32, rows: &[Row]) -> String {
    let mut columns: Vec<(&str, ColumnKind)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let same = |r: &Row| r.workload == row.workload && r.allocator == row.allocator;
        assert!(
            !rows[..i].iter().any(same),
            "duplicate row {}/{} in {name}",
            row.workload,
            row.allocator
        );
        for (col, cell) in &row.cells {
            match columns.iter().find(|(c, _)| c == col) {
                Some((_, kind)) => assert_eq!(
                    *kind,
                    cell.kind(),
                    "column {col} of {name} declared with two kinds"
                ),
                None => columns.push((col, cell.kind())),
            }
        }
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("\"schema_version\": {RESULTS_SCHEMA_VERSION},\n"));
    out.push_str(&format!("\"bench\": \"{name}\",\n"));
    out.push_str(&format!("\"commit\": \"{}\",\n", commit_id()));
    out.push_str(&format!("\"scale\": {scale},\n"));
    out.push_str(&format!("\"workers\": {},\n", bench_workers()));
    out.push_str(&format!("\"host_cores\": {},\n", host_cores()));
    if columns.iter().any(|(_, k)| *k == ColumnKind::ParTime) {
        out.push_str(&format!("\"par_workers\": {},\n", par_bench_workers()));
    }
    let decls: Vec<String> =
        columns.iter().map(|(c, k)| format!("\"{c}\": \"{}\"", k.name())).collect();
    out.push_str(&format!("\"columns\": {{{}}},\n", decls.join(", ")));
    out.push_str("\"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"workload\": \"{}\", \"allocator\": \"{}\"",
            row.workload, row.allocator
        ));
        for (col, cell) in &row.cells {
            out.push_str(&format!(", \"{col}\": {}", cell.render()));
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n}\n");
    out
}

/// The commit the results were produced from: `GIT_COMMIT` if set, else
/// `.git/HEAD` (following one level of `ref:` indirection), else
/// `"unknown"`. Best-effort — benches may run outside a checkout.
fn commit_id() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c.trim().to_string();
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |c| c.trim().to_string()),
        None => head,
    }
}

/// Formats a byte count as the paper's kbytes.
pub fn kb(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

/// Formats a page count as kbytes.
pub fn pages_kb(pages: u64) -> f64 {
    pages as f64 * 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::panic_message;

    #[test]
    fn malloc_and_region_measurements_agree_on_checksum() {
        let a = measure_malloc(Workload::Tile, MallocKind::Lea, 1, false);
        let b = measure_region(Workload::Tile, RegionKind::Safe, 1, false);
        assert_eq!(a.checksum, b.checksum);
        assert!(a.total >= a.mem);
        assert!(a.os_pages > 0);
        assert!(b.costs.is_some());
        assert!(a.costs.is_none());
    }

    #[test]
    fn traced_runs_produce_cache_stats() {
        let m = measure_region(Workload::Mudlle, RegionKind::Unsafe, 1, true);
        let cache = m.cache.expect("traced");
        assert!(cache.reads > 10_000);
        assert!(cache.writes > 1_000);
    }

    #[test]
    fn matrix_results_follow_job_order() {
        let jobs = [
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Safe),
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Tile, MallocKind::Lea),
        ];
        // Force real worker threads: the deterministic ordering must hold
        // even on a single-core machine where run_matrix would go serial.
        let rows = run_matrix_with(&jobs, 1, false, 3);
        assert_eq!(rows.len(), 4);
        assert_eq!((rows[0].workload, rows[0].allocator), ("cfrac", MallocKind::Lea.name()));
        assert_eq!(rows[1].allocator, RegionKind::Safe.name());
        assert_eq!(rows[2].allocator, RegionKind::Unsafe.name());
        assert_eq!(rows[3].workload, "tile");
        // Parallel execution must not perturb simulated results.
        assert_eq!(rows[0].checksum, rows[1].checksum);
        assert_eq!(rows[1].checksum, rows[2].checksum);
        let serial = jobs[1].run(1, false);
        assert_eq!(rows[1].checksum, serial.checksum);
        assert_eq!(rows[1].os_pages, serial.os_pages);
        assert_eq!(rows[1].stats.total_allocs, serial.stats.total_allocs);
    }

    #[test]
    fn every_column_is_declared_once_with_its_kind() {
        let rows = run_matrix(
            &[
                Job::Malloc(Workload::Cfrac, MallocKind::Lea),
                Job::Region(Workload::Cfrac, RegionKind::Safe),
            ],
            1,
            false,
        );
        let plain: Vec<Row> = rows.iter().map(Measurement::row).collect();
        let doc = render_results("fig_test", 1, &plain);
        // The malloc row lacks the safety cells; the columns map still
        // declares them once, from the region row.
        assert!(doc.contains("\"safety_instrs\": \"exact\""));
        assert_eq!(doc.matches("\"checksum\": \"exact\"").count(), 1);
        assert_eq!(doc.matches("\"total_ms\": \"time\"").count(), 1);
        assert!(!doc.contains("par_"), "no par fields without a parallel pass");
        // A parallel-pass column adds its declaration and par_workers.
        let with_par: Vec<Row> =
            plain.iter().cloned().map(|r| r.with("par_total_ms", Cell::ParTime(12.5))).collect();
        let doc = render_results("fig_test", 1, &with_par);
        assert!(doc.contains("\"par_total_ms\": \"par_time\""));
        assert!(doc.contains(&format!("\"par_workers\": {},", par_bench_workers())));
        assert_eq!(doc.matches("\"par_total_ms\": 12.500").count(), rows.len());
    }

    #[test]
    #[should_panic(expected = "declared with two kinds")]
    fn a_column_has_exactly_one_kind() {
        let rows = [
            Row::new("a", "x").with("p99_us", Cell::Latency(1.0)),
            Row::new("b", "x").with("p99_us", Cell::Time(1.0)),
        ];
        let _ = render_results("fig_test", 1, &rows);
    }

    #[test]
    #[should_panic(expected = "duplicate row a/x")]
    fn row_identities_are_unique() {
        let rows = [Row::new("a", "x"), Row::new("a", "x")];
        let _ = render_results("fig_test", 1, &rows);
    }

    #[test]
    fn warm_heap_reuse_is_invisible_in_measurements() {
        // More jobs than workers forces every worker to recycle its heap
        // across cells; a traced cell in the middle checks that an
        // attached sink never leaks into the next adopter. Every
        // deterministic field must match a fresh-heap serial run, for
        // 1 worker and for several.
        let jobs = [
            Job::Region(Workload::Tile, RegionKind::Safe),
            Job::Malloc(Workload::Tile, MallocKind::Gc),
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Tile, MallocKind::Bsd),
            Job::Region(Workload::Tile, RegionKind::Emulated(MallocKind::Sun)),
        ];
        let fresh: Vec<Measurement> = jobs.iter().map(|j| j.run(1, false)).collect();
        for workers in [1, 3] {
            let warm = run_matrix_with(&jobs, 1, false, workers);
            for (f, w) in fresh.iter().zip(&warm) {
                assert_eq!(f.checksum, w.checksum, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.os_pages, w.os_pages, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.stats, w.stats, "{}/{} x{workers}", f.workload, f.allocator);
                assert_eq!(f.costs, w.costs, "{}/{} x{workers}", f.workload, f.allocator);
            }
        }
        // And a traced run recycled onto a previously-traced heap keeps
        // cache counters bit-identical to a fresh traced run.
        let traced_jobs = [
            Job::Malloc(Workload::Tile, MallocKind::Gc),
            Job::Malloc(Workload::Tile, MallocKind::Gc),
        ];
        let rows = run_matrix_with(&traced_jobs, 1, true, 1);
        let fresh = traced_jobs[0].run(1, true);
        assert_eq!(rows[0].cache, fresh.cache);
        assert_eq!(rows[1].cache, fresh.cache, "recycled heap must trace identically");
    }

    #[test]
    fn warm_start_from_snapshot_matches_cold() {
        // A heap image captured after a real run is already grown to that
        // run's break; warm-starting the matrix from it must change no
        // deterministic field relative to cold empty heaps.
        let (_, heap) =
            measure_region_on(Workload::Tile, RegionKind::Safe, 1, false, SimHeap::new());
        let image = heap.capture_image();
        let jobs = [
            Job::Region(Workload::Tile, RegionKind::Safe),
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Tile, MallocKind::Bsd),
        ];
        let cold: Vec<Measurement> = jobs.iter().map(|j| j.run(1, false)).collect();
        let warm = run_matrix_from_snapshot(&jobs, 1, false, &image);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.checksum, w.checksum, "{}/{}", c.workload, c.allocator);
            assert_eq!(c.os_pages, w.os_pages, "{}/{}", c.workload, c.allocator);
            assert_eq!(c.stats, w.stats, "{}/{}", c.workload, c.allocator);
            assert_eq!(c.costs, w.costs, "{}/{}", c.workload, c.allocator);
        }
        // Traced cells adopt the snapshot heap too: cache counters must
        // stay bit-identical to a cold traced run.
        let traced_jobs = [Job::Malloc(Workload::Tile, MallocKind::Gc)];
        let warm = run_matrix_from_snapshot(&traced_jobs, 1, true, &image);
        let cold = traced_jobs[0].run(1, true);
        assert_eq!(warm[0].cache, cold.cache, "snapshot heap must trace identically");
    }

    #[test]
    fn results_document_is_wellformed_and_versioned() {
        let rows = run_matrix(&[Job::Region(Workload::Cfrac, RegionKind::Safe)], 1, false);
        let rows: Vec<Row> = rows.iter().map(Measurement::row).collect();
        let json = render_results("smoke", 3, &rows);
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert!(json.contains(&format!("\"schema_version\": {RESULTS_SCHEMA_VERSION}")));
        assert!(json.contains("\"bench\": \"smoke\""));
        assert!(json.contains("\"commit\": \""));
        assert!(json.contains("\"scale\": 3,"));
        assert!(json.contains("\"workers\": "));
        assert!(json.contains("\"host_cores\": "));
        assert!(json.contains("\"columns\": {"));
        assert!(json.contains("\"rows\": [\n"));
        assert!(json.contains("\"workload\": \"cfrac\""));
        assert!(json.contains("\"safety_instrs\": "));
        assert!(json.contains("\"checksum\": "));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn region_sanitize_hook_passes_on_a_clean_run() {
        // Env vars are process-global: serialize against any parallel
        // test also measuring regions by keeping the window tiny.
        std::env::set_var("REGION_SANITIZE", "1");
        let m = measure_region(Workload::Cfrac, RegionKind::Safe, 1, false);
        std::env::remove_var("REGION_SANITIZE");
        assert!(m.os_pages > 0);
    }

    #[test]
    fn checked_matrix_returns_ok_cells_and_decodes_panics() {
        let jobs = [
            Job::Region(Workload::Cfrac, RegionKind::Unsafe),
            Job::Malloc(Workload::Cfrac, MallocKind::Lea),
        ];
        let rows = run_matrix_checked(&jobs, 1, false, 2);
        assert!(rows.iter().all(Result::is_ok));
        assert_eq!(
            rows[0].as_ref().unwrap().checksum,
            rows[1].as_ref().unwrap().checksum
        );
        // Panic payloads of both common shapes decode to their message;
        // anything else degrades to a placeholder instead of panicking
        // again inside the matrix.
        assert_eq!(panic_message(Box::new("boom")), "boom");
        assert_eq!(panic_message(Box::new(String::from("kaboom"))), "kaboom");
        assert!(panic_message(Box::new(17u32)).contains("non-string"));
    }

    #[test]
    fn slow_moss_is_measured_separately() {
        let m = measure_region_slow(RegionKind::Unsafe, 1, false);
        assert_eq!(m.allocator, "Slow");
        let normal = measure_region(Workload::Moss, RegionKind::Unsafe, 1, false);
        assert_eq!(m.checksum, normal.checksum, "layouts must not change the answer");
    }
}
