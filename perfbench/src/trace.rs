//! Spans the benchmark records around each public call it makes into
//! the system, plus the small statistics helpers the report needs.
//! Nothing here reaches inside the program: every span opens and closes
//! in the benchmark's own code.

use std::io::Write;
use std::time::Instant;

/// One layer boundary the benchmark times. The discriminant indexes the
/// per-layer call counters, so the order is also the report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The request itself: from issue until its response is ready.
    Request,
    /// `AdmissionController::admit`.
    Admit,
    /// `RegionRuntime::try_new_region`.
    NewRegion,
    /// `ParThread::create_region` + `retain` + `exchange_ref(Some)`.
    Publish,
    /// `RegionRuntime::try_rstralloc`.
    Rstralloc,
    /// `ParThread::exchange_ref(None)` + `release` + `ParRegionPool::try_delete`.
    Unpublish,
    /// `RegionRuntime::try_delete_region`.
    DeleteRegion,
    /// `RegionRuntime::try_ralloc`.
    Ralloc,
    /// `RegionRuntime::store_ptr_region`.
    StorePtr,
    /// `RegionRuntime::try_delete_region_step`.
    DeleteStep,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 10;

/// One timed call. `parent` indexes the enclosing [`Layer::Request`]
/// span in the same buffer (a request span is its own parent).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Start, in nanoseconds since the pass began (ticks while recording).
    pub start_ns: u64,
    /// Duration, in nanoseconds (ticks while recording).
    pub dur_ns: u32,
    pub req: u32,
    pub parent: u32,
    pub layer: Layer,
}

impl Span {
    pub fn ns(&self) -> u64 {
        u64::from(self.dur_ns)
    }
}

/// Reads the span clock: the CPU time-stamp counter on x86-64, where it
/// costs about 20 ns against about 50 ns for `Instant::now`, so spans
/// disturb the calls they time less. The kernel only runs its own clock
/// on the TSC when the TSC is invariant and synchronised across CPUs;
/// [`Clock`] converts ticks to nanoseconds against `Instant`.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter into registers;
    // it touches no memory and exists on every x86-64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads the span clock: nanoseconds on a process-wide monotonic clock.
#[cfg(not(target_arch = "x86_64"))]
pub fn ticks() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Calibrates [`ticks`] against `Instant` over an interval.
#[derive(Clone, Copy)]
pub struct Clock {
    instant: Instant,
    ticks: u64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            instant: Instant::now(),
            ticks: ticks(),
        }
    }

    /// The tick count at [`Clock::start`].
    pub fn origin(&self) -> u64 {
        self.ticks
    }

    /// Nanoseconds per tick over the interval since [`Clock::start`].
    pub fn ns_per_tick(&self) -> f64 {
        let ns = self.instant.elapsed().as_nanos() as f64;
        let t = ticks().saturating_sub(self.ticks);
        if t == 0 {
            1.0
        } else {
            ns / t as f64
        }
    }
}

/// Per-session span buffer. Times are in [`ticks`] until
/// [`Tracer::into_ns`]. With `on == false` it records nothing, so the
/// untraced run measures the bare call sequence.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    root: u32,
}

impl Tracer {
    /// A tracer whose buffer is already faulted in, so the first touch
    /// of its pages does not land inside a measured request.
    pub fn new(on: bool, capacity: usize) -> Tracer {
        let mut spans = Vec::new();
        if on {
            let blank = Span {
                start_ns: 0,
                dur_ns: 0,
                req: 0,
                parent: 0,
                layer: Layer::Request,
            };
            spans.resize(capacity, blank);
            spans.clear();
        }
        Tracer { on, spans, root: 0 }
    }

    /// Opens the request span of `req`, issued at tick `issued`; later
    /// spans are its children until the next call.
    pub fn open_request(&mut self, req: u32, issued: u64) {
        if self.on {
            self.root = self.spans.len() as u32;
            let root = self.root;
            self.spans.push(Span {
                start_ns: issued,
                dur_ns: 0,
                req,
                parent: root,
                layer: Layer::Request,
            });
        }
    }

    /// Closes the open request span at tick `ready`.
    pub fn close_request(&mut self, ready: u64) {
        if self.on {
            let root = &mut self.spans[self.root as usize];
            root.dur_ns = ready.saturating_sub(root.start_ns) as u32;
        }
    }

    /// Runs `f` as one call of `layer` on behalf of request `req`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, req: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = ticks();
        let out = f();
        let dur_ns = ticks().saturating_sub(start) as u32;
        self.spans.push(Span {
            start_ns: start,
            dur_ns,
            req,
            parent: self.root,
            layer,
        });
        out
    }

    /// Converts every span from ticks to nanoseconds since `origin`.
    pub fn into_ns(mut self, origin: u64, ns_per_tick: f64) -> Vec<Span> {
        for s in &mut self.spans {
            s.start_ns = (s.start_ns.saturating_sub(origin) as f64 * ns_per_tick) as u64;
            s.dur_ns = (f64::from(s.dur_ns) * ns_per_tick) as u32;
        }
        self.spans
    }
}

/// What the [`reference_ns`] kernel takes on the host the benchmark's
/// bounds were set on (2 vCPUs of a shared x86-64 host, 2026). Scaled
/// times are the times the run would have read on that host.
pub const REFERENCE_NOMINAL_NS: f64 = 3.0e6;

/// How much faster the workloads' times move than the kernel's when the
/// host changes speed. A least-squares fit of log(time) on log(kernel
/// time) over fifteen 36 s runs (five per workload; p50, p99 and pass
/// time, each about its own mean) gives 1.45; the slopes of single
/// metrics ran from 0.78 (`svc-index` p99) to 1.56. Scaled times divide
/// by the kernel's slowdown to this power.
pub const REFERENCE_ELASTICITY: f64 = 1.45;

/// xorshift64 step.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Times a fixed reference kernel of about 3 ms, in nanoseconds. It uses
/// only the host and the standard library, never the code under test,
/// in four parts that stand for the kinds of work the workloads do:
/// eight independent integer chains (execution ports), eight
/// interleaved random walks through 256 KiB (private caches), sorting
/// 32 Ki integers (branches) and a `malloc`/`free` churn of 16–515 B
/// blocks (the system allocator). The workloads' times and this
/// kernel's move together when the host slows, as when another tenant
/// shares the core; see [`REFERENCE_NOMINAL_NS`].
pub fn reference_ns() -> u64 {
    const WALK_SLOTS: usize = 1 << 16;
    static WALK: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let walk = WALK.get_or_init(|| {
        // Sattolo's shuffle: one cycle through every slot.
        let mut next: Vec<u32> = (0..WALK_SLOTS as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..WALK_SLOTS).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        next
    });
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u32> = (0..1 << 15)
        .map(|_| {
            x = xorshift(x);
            x as u32
        })
        .collect();
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(512);

    let t = Instant::now();
    let mut chains = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..1 << 17 {
        for c in &mut chains {
            *c = xorshift(*c);
        }
    }
    std::hint::black_box(chains);
    let mut at = std::hint::black_box([0u32, 1, 2, 3, 4, 5, 6, 7].map(|i| i * 8191));
    for _ in 0..1 << 16 {
        for a in &mut at {
            *a = walk[*a as usize];
        }
    }
    std::hint::black_box(at);
    keys.sort_unstable();
    std::hint::black_box(&keys);
    for _ in 0..20_000 {
        x = xorshift(x);
        let block = vec![x as u8; 16 + (x % 500) as usize];
        if live.len() < 512 {
            live.push(block);
        } else {
            live[(x >> 20) as usize % 512] = block;
        }
    }
    std::hint::black_box(&live);
    t.elapsed().as_nanos() as u64
}

/// Nearest-rank quantile of an ascending-sorted slice (`q` in 0..=1).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of unsorted values (lower median for even counts is avoided:
/// the mean of the two middle values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a step, the digest primitive for the determinism books.
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x1000_0000_01b3)
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes spans as tab-separated rows (`session req span parent layer
/// start_ns dur_ns`), one buffer per session: every span of the requests
/// `keep` selects by their request span.
pub fn write_spans(
    path: &str,
    sessions: &[Vec<Span>],
    keep: impl Fn(&Span) -> bool,
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "session\treq\tspan\tparent\tlayer\tstart_ns\tdur_ns")?;
    for (s, spans) in sessions.iter().enumerate() {
        for (i, sp) in spans.iter().enumerate() {
            if keep(&spans[sp.parent as usize]) {
                writeln!(
                    out,
                    "{s}\t{}\t{i}\t{}\t{:?}\t{}\t{}",
                    sp.req, sp.parent, sp.layer, sp.start_ns, sp.dur_ns
                )?;
            }
        }
    }
    out.flush()
}
