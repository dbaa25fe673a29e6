//! The `paper-suite` workload: the six PLDI'98 programs on safe regions
//! at one fixed scale, single-threaded, with the cache model attached
//! (the Figure 10 configuration).

use std::any::Any;
use std::time::Instant;

use cache_sim::{MemStats, MemorySystem};
use region_core::{AllocStats, SafetyCosts};
use simheap::{Access, AccessEvent, AccessSink, SimHeap};
use workloads::{MallocEnv, MallocKind, RegionEnv, RegionKind, Workload};

use crate::trace::{ticks, Clock};

/// Scale every timed pass runs at.
pub const SCALE: u32 = 2;
/// Scale of the warm-up pass inside set-up.
const WARM_SCALE: u32 = 1;

/// Expected checksums, one `name hex` line per program after a
/// `scale N` line: the malloc/free variants' answers under Lea's
/// allocator, recorded with `--record-checksums`.
const EXPECTED: &str = include_str!("../checksums.txt");

/// The stored checksum of each program at [`SCALE`], in
/// [`Workload::ALL`] order.
pub fn expected() -> Result<Vec<u64>, String> {
    let mut lines = EXPECTED.lines().filter(|l| !l.trim().is_empty());
    let scale = lines
        .next()
        .and_then(|l| l.strip_prefix("scale "))
        .map(str::trim);
    if scale != Some(SCALE.to_string().as_str()) {
        return Err(format!("checksums.txt is not for scale {SCALE}"));
    }
    let mut out = Vec::new();
    for (w, line) in Workload::ALL.iter().zip(lines) {
        let (name, hex) = line.split_once(' ').ok_or("malformed checksums.txt line")?;
        if name != w.name() {
            return Err(format!(
                "checksums.txt lists {name} where {} belongs",
                w.name()
            ));
        }
        out.push(u64::from_str_radix(hex.trim(), 16).map_err(|e| e.to_string())?);
    }
    if out.len() != Workload::ALL.len() {
        return Err("checksums.txt lacks a program".into());
    }
    Ok(out)
}

/// The contents of `checksums.txt` for [`SCALE`], computed from the
/// malloc/free variants.
pub fn record_checksums() -> String {
    let mut out = format!("scale {SCALE}\n");
    for w in Workload::ALL {
        let mut env = MallocEnv::new(MallocKind::Lea);
        out.push_str(&format!(
            "{} {:016x}\n",
            w.name(),
            w.run_malloc(&mut env, SCALE)
        ));
    }
    out
}

/// The cache model behind a timing wrapper: every event the heap
/// delivers is one timed call. Millions of events per pass make one
/// span each too many to keep, so the wrapper keeps their count and
/// summed duration (in [`ticks`]).
struct TimedSink {
    inner: MemorySystem,
    calls: u64,
    busy_ticks: u64,
}

impl AccessSink for TimedSink {
    fn access(&mut self, access: Access) {
        let t = ticks();
        self.inner.access(access);
        self.busy_ticks += ticks().saturating_sub(t);
        self.calls += 1;
    }

    fn event(&mut self, event: AccessEvent) {
        let t = ticks();
        self.inner.event(event);
        self.busy_ticks += ticks().saturating_sub(t);
        self.calls += 1;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The deterministic books of one program run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramBooks {
    pub checksum: u64,
    pub os_pages: u64,
    pub stats: AllocStats,
    pub costs: SafetyCosts,
    pub mem: MemStats,
}

/// One program run of a pass.
pub struct ProgramRun {
    pub name: &'static str,
    pub books: ProgramBooks,
    pub ns: u64,
    /// `RegionEnv::mem_time`: time inside region operations.
    pub runtime_ns: u64,
    pub cachesim_calls: u64,
    pub cachesim_ns: u64,
}

/// Everything one pass measured.
pub struct Pass {
    pub setup_s: f64,
    pub wall_s: f64,
    pub runs: Vec<ProgramRun>,
    pub violations: Vec<String>,
}

/// Runs one pass. Set-up warms each program's heap with a run at
/// [`WARM_SCALE`], then builds the runtime on it and attaches the cache
/// model; the timed phase runs the six programs at [`SCALE`].
pub fn pass(expected: &[u64], traced: bool) -> Pass {
    let t0 = Instant::now();
    let envs: Vec<RegionEnv> = Workload::ALL
        .iter()
        .map(|w| {
            let mut env = RegionEnv::on_heap(RegionKind::Safe, SimHeap::new());
            w.run_region(&mut env, WARM_SCALE);
            let mut env = RegionEnv::on_heap(RegionKind::Safe, env.into_heap());
            let sink: Box<dyn AccessSink> = if traced {
                Box::new(TimedSink {
                    inner: MemorySystem::default(),
                    calls: 0,
                    busy_ticks: 0,
                })
            } else {
                Box::new(MemorySystem::default())
            };
            env.heap().attach_sink(sink);
            env
        })
        .collect();
    let setup_s = t0.elapsed().as_secs_f64();

    // Timed: the six programs back to back. The audit below runs after
    // the clock stops, on environments kept alive until then.
    let clock = Clock::start();
    let start = Instant::now();
    let mut done = Vec::with_capacity(envs.len());
    for (w, mut env) in Workload::ALL.into_iter().zip(envs) {
        let t = Instant::now();
        let checksum = w.run_region(&mut env, SCALE);
        done.push((w, env, checksum, t.elapsed().as_nanos() as u64));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let ns_per_tick = clock.ns_per_tick();

    let mut runs = Vec::with_capacity(done.len());
    let mut violations = Vec::new();
    for ((w, env, checksum, ns), want) in done.into_iter().zip(expected) {
        if checksum != *want {
            violations.push(format!(
                "{}: checksum {checksum:016x}, malloc variant gives {want:016x}",
                w.name()
            ));
        }
        let rt = env.runtime().expect("safe regions run on the real runtime");
        let rep = rt.sanitize();
        if !rep.is_clean() {
            violations.push(format!("{}: sanitize: {rep}", w.name()));
        }
        if !rt.violations().is_empty() {
            violations.push(format!(
                "{}: {} refcount violations",
                w.name(),
                rt.violations().len()
            ));
        }
        let costs = *rt.costs();
        let stats = *env.stats();
        let os_pages = env.os_pages();
        let runtime_ns = env.mem_time().as_nanos() as u64;
        let mut heap = env.into_heap();
        let sink = heap.detach_sink().expect("cache model attached");
        let (mem, cachesim_calls, cachesim_ns) = if traced {
            let s = sink.into_any().downcast::<TimedSink>().expect("timed sink");
            (
                s.inner.stats(),
                s.calls,
                (s.busy_ticks as f64 * ns_per_tick) as u64,
            )
        } else {
            (MemorySystem::from_sink(sink).stats(), 0, 0)
        };
        runs.push(ProgramRun {
            name: w.name(),
            books: ProgramBooks {
                checksum,
                os_pages,
                stats,
                costs,
                mem,
            },
            ns,
            runtime_ns,
            cachesim_calls,
            cachesim_ns,
        });
    }
    Pass {
        setup_s,
        wall_s,
        runs,
        violations,
    }
}

/// Writes one row per program run of a traced pass (`program ns
/// runtime_ns cachesim_calls cachesim_ns`): the program span and the
/// two aggregated child layers.
pub fn write_runs(path: &str, runs: &[ProgramRun]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "program\tns\truntime_ns\tcachesim_calls\tcachesim_ns")?;
    for r in runs {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            r.name, r.ns, r.runtime_ns, r.cachesim_calls, r.cachesim_ns
        )?;
    }
    out.flush()
}
