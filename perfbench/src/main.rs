//! The repository benchmark: drives the region runtime from outside
//! through its public functions on three workloads and prints one JSON
//! result line.
//!
//! ```text
//! perfbench --workload svc-churn|svc-index|paper-suite --seed N
//!           --seconds S --trace 0|1 [--tiny] [--spans-out PATH]
//!           [--inject leak|checksum]
//! perfbench --record-checksums
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes and prints the per-layer metrics. Every
//! pass is audited, and every deterministic count must agree across the
//! passes of a run, traced or not. Any violation prints
//! `"correct": false` and exits with status 1.

mod suite;
mod svc;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use trace::{
    mean, median, peak_rss_mb, quantile, reference_ns, Layer, LAYERS, REFERENCE_ELASTICITY,
    REFERENCE_NOMINAL_NS,
};

/// Passes of each kind a run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// Requests per session per `svc-*` pass, and warm-up requests.
const SVC_REQUESTS: u32 = 40_000;
const SVC_WARMUP: u32 = 4_000;
/// Requests per session per pass for `--tiny` (self-test) runs.
const TINY_REQUESTS: u32 = 2_000;
/// Declared bound on `driver.residual_ns.p99` of `svc-*`, the time of a
/// traced request that no span covers, as a share of the traced request
/// p99. Above it the spans no longer explain the latency and the traced
/// run fails. `paper-suite` has no requests, so no such bound: its
/// programs' own work is reported as `workloads.residual_ms`.
const RESIDUAL_BOUND_SHARE: f64 = 0.25;
/// Requests per session whose spans are always written out.
const SPANS_HEAD: u32 = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: Option<String>,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject: None,
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--record-checksums" => return Ok(None),
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--inject" => a.inject = Some(val()?),
            "--spans-out" => a.spans_out = Some(val()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !a.seconds.is_finite() || a.seconds < 0.0 {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Some(a))
}

/// The result of one run: what the last line of output reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Layers reported as `<name>.calls` and `<name>.busy_ms`. Every
/// workload prints every per-layer metric; a layer it never calls reads 0.
const TIMED_LAYERS: [(&str, Layer); 8] = [
    ("pressure.admit", Layer::Admit),
    ("runtime.new_region", Layer::NewRegion),
    ("runtime.rstralloc", Layer::Rstralloc),
    ("runtime.delete_region", Layer::DeleteRegion),
    ("runtime.ralloc", Layer::Ralloc),
    ("runtime.store_ptr_region", Layer::StorePtr),
    ("runtime.delete_step", Layer::DeleteStep),
    ("par.publish", Layer::Publish),
];

/// Everything the per-layer report needs, however the workload fills it.
#[derive(Default)]
struct Layers {
    calls: [f64; LAYERS],
    busy_ms: [f64; LAYERS],
    rstralloc_bytes: f64,
    pool_refused: f64,
    delete_blocked: f64,
    step_p99_us: f64,
    step_max_us: f64,
    per_delete: f64,
    costs: region_core::SafetyCosts,
    runtime_busy_ms: f64,
    program_ms: [f64; 6],
    residual_ms: f64,
    cachesim_calls: f64,
    cachesim_busy_ms: f64,
    /// Median over the untraced passes of a `--trace 1` run of each
    /// pass's p999 request (or slowest program) latency.
    request_p999_us: f64,
    residual_ns_p99: f64,
    /// Traced request p99 the residual is bounded against (`svc-*` only).
    request_p99_ns: Option<f64>,
    overhead_pct: f64,
}

fn report_layers(r: &mut Report, l: &Layers) {
    for (name, layer) in TIMED_LAYERS {
        let i = layer as usize;
        r.metric(&format!("{name}.calls"), l.calls[i], "count");
        r.metric(&format!("{name}.busy_ms"), l.busy_ms[i], "ms");
    }
    r.metric(
        "par.unpublish.busy_ms",
        l.busy_ms[Layer::Unpublish as usize],
        "ms",
    );
    r.metric("par.try_delete.refused", l.pool_refused, "count");
    r.metric("runtime.delete_region.blocked", l.delete_blocked, "count");
    r.metric("runtime.rstralloc.bytes", l.rstralloc_bytes, "B");
    r.metric("runtime.delete_step.p99_us", l.step_p99_us, "us");
    r.metric("runtime.delete_step.max_us", l.step_max_us, "us");
    r.metric("runtime.delete_step.per_delete", l.per_delete, "steps");
    let c = &l.costs;
    r.metric("costs.barrier_instrs", c.barrier_instrs as f64, "instrs");
    r.metric("costs.scan_instrs", c.scan_instrs as f64, "instrs");
    r.metric("costs.cleanup_instrs", c.cleanup_instrs as f64, "instrs");
    r.metric("costs.safety_instrs", c.total_instrs() as f64, "instrs");
    r.metric("costs.cleanup_objects", c.cleanup_objects as f64, "count");
    r.metric("costs.frames_scanned", c.frames_scanned as f64, "count");
    r.metric("runtime.busy_ms", l.runtime_busy_ms, "ms");
    for (w, ms) in workloads::Workload::ALL.iter().zip(l.program_ms) {
        r.metric(&format!("workloads.{}.ms", w.name()), ms, "ms");
    }
    r.metric("workloads.residual_ms", l.residual_ms, "ms");
    r.metric("cachesim.event.calls", l.cachesim_calls, "count");
    r.metric("cachesim.event.busy_ms", l.cachesim_busy_ms, "ms");
    r.metric("request.p999_us", l.request_p999_us, "us");
    r.metric("driver.residual_ns.p99", l.residual_ns_p99, "ns");
    r.metric("trace.overhead_pct", l.overhead_pct, "%");
}

/// The note that carries a digest of a run's deterministic books, for
/// comparing reruns and the traced against the untraced run.
fn books_digest(books: &impl std::fmt::Debug) -> String {
    let text = format!("{books:?}");
    let d = text
        .bytes()
        .fold(trace::FNV_BASIS, |h, b| trace::fold(h, u64::from(b)));
    format!("books digest = {d:016x}")
}

/// The factor that scales a run's times to the reference host: the
/// reference kernel's nominal time over its mean time in the run, to
/// the power [`REFERENCE_ELASTICITY`], and the note that reports both.
fn host_scale(refs: &[u64]) -> (f64, String) {
    let ms: Vec<f64> = refs.iter().map(|&ns| ns as f64 / 1e6).collect();
    let m = mean(&ms);
    let scale = if m > 0.0 {
        (REFERENCE_NOMINAL_NS / 1e6 / m).powf(REFERENCE_ELASTICITY)
    } else {
        1.0
    };
    let note = format!(
        "reference kernel: {m} ms (mean over {} passes, nominal {} ms); times are scaled by \
         {scale} (nominal / mean to the power {REFERENCE_ELASTICITY})",
        refs.len(),
        REFERENCE_NOMINAL_NS / 1e6
    );
    (scale, note)
}

/// Pushes the wall-clock end-to-end metrics, scaled to the reference
/// host by `scale`, and a note with the unscaled values. Each is the
/// mean over the run's passes, like the kernel time `scale` comes
/// from: the host switches between a fast and a slow state many times
/// a run, and a mean moves in proportion to the share of the run spent
/// slow, where a median jumps between the two states. `setup_s` is the
/// median set-up, the figure a later change must not move set-up work
/// into. `throughput_rps` is `per_pass` requests over the mean pass
/// time.
fn report_times(
    r: &mut Report,
    scale: f64,
    per_pass: f64,
    setup: &[f64],
    p50: &[f64],
    p99: &[f64],
    wall: &[f64],
) {
    let raw = [
        median(setup),
        per_pass / mean(wall),
        mean(p50),
        mean(p99),
        mean(wall),
    ];
    r.metric("setup_s", raw[0] * scale, "s");
    r.metric("throughput_rps", raw[1] / scale, "1/s");
    r.metric("latency_p50_us", raw[2] * scale, "us");
    r.metric("latency_p99_us", raw[3] * scale, "us");
    r.metric("suite_s", raw[4] * scale, "s");
    r.notes.push(format!(
        "unscaled: setup_s {} s, throughput_rps {} 1/s, latency_p50_us {} us, latency_p99_us {} us, suite_s {} s",
        raw[0], raw[1], raw[2], raw[3], raw[4]
    ));
}

/// Whether the pass loop may stop: the time is spent and every kind of
/// pass the run needs has its minimum count.
fn enough(start: Instant, a: &Args, untraced: usize, traced: usize) -> bool {
    let min = if a.tiny { 1 } else { MIN_PASSES };
    start.elapsed().as_secs_f64() >= a.seconds && untraced >= min && (!a.trace || traced >= min)
}

fn run_svc(a: &Args, index: bool) -> Report {
    let cfg = svc::SvcConfig {
        seed: a.seed,
        requests: if a.tiny { TINY_REQUESTS } else { SVC_REQUESTS },
        warmup: if a.tiny {
            TINY_REQUESTS / 10
        } else {
            SVC_WARMUP
        },
        index,
        inject_leak: a.inject.as_deref() == Some("leak"),
    };
    let mut r = Report::default();
    let mut reference: Option<svc::Books> = None;
    let check = |r: &mut Report, reference: &mut Option<svc::Books>, p: &svc::Pass, what: &str| {
        r.attempted += p.books.submitted;
        r.failed += p.books.submitted - p.books.completed;
        r.violations.extend(p.violations.iter().cloned());
        match reference {
            None => *reference = Some(p.books.clone()),
            Some(b) if *b != p.books => r.violations.push(format!(
                "{what} pass books differ from the first pass: {:?} vs {b:?}",
                p.books
            )),
            Some(_) => {}
        }
    };

    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let (mut p50, mut p99, mut p999) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0usize;
    let (mut t_wall, mut busy, mut resid) = (Vec::new(), vec![Vec::new(); LAYERS], Vec::new());
    let (mut step_p99, mut step_max, mut t_p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_spans = Vec::new();
    let mut refs = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while !enough(start, a, wall.len(), t_wall.len()) {
        let traced = a.trace && i % 2 == 1;
        i += 1;
        refs.push(reference_ns());
        if traced {
            // Free the previous traced pass's spans before recording more.
            last_spans = Vec::new();
        }
        let p = svc::pass(&cfg, traced, false);
        check(
            &mut r,
            &mut reference,
            &p,
            if traced { "traced" } else { "untraced" },
        );
        setup.push(p.setup_s);
        if !traced {
            wall.push(p.wall_s);
            p50.push(quantile(&p.lat_ns, 0.50) as f64 / 1e3);
            p99.push(quantile(&p.lat_ns, 0.99) as f64 / 1e3);
            p999.push(quantile(&p.lat_ns, 0.999) as f64 / 1e3);
            samples += p.lat_ns.len();
            continue;
        }
        t_wall.push(p.wall_s);
        let mut layer_ns = [0u64; LAYERS];
        let mut pass_resid = Vec::with_capacity(p.lat_ns.len());
        let mut steps_ns = Vec::new();
        for spans in &p.spans {
            let mut root = None;
            for sp in spans {
                if sp.layer == Layer::Request {
                    pass_resid.extend(root.take());
                    root = Some(sp.ns());
                } else {
                    layer_ns[sp.layer as usize] += sp.ns();
                    if let Some(x) = root.as_mut() {
                        *x = x.saturating_sub(sp.ns());
                    }
                    if sp.layer == Layer::DeleteStep {
                        steps_ns.push(sp.ns());
                    }
                }
            }
            pass_resid.extend(root);
        }
        for (b, ns) in busy.iter_mut().zip(layer_ns) {
            b.push(ns as f64 / 1e6);
        }
        steps_ns.sort_unstable();
        step_p99.push(quantile(&steps_ns, 0.99) as f64 / 1e3);
        step_max.push(steps_ns.last().copied().unwrap_or(0) as f64 / 1e3);
        pass_resid.sort_unstable();
        resid.push(quantile(&pass_resid, 0.99) as f64);
        t_p99.push(quantile(&p.lat_ns, 0.99) as f64);
        last_spans = p.spans;
    }
    let books = reference.clone().unwrap_or_default();
    r.notes.push(books_digest(&books));
    let (scale, note) = host_scale(&refs);
    r.notes.push(note);

    if !a.trace {
        // The cache model runs on one extra pass outside the timed ones;
        // its books must equal the bare passes' books.
        let m = svc::pass(&cfg, false, true);
        check(&mut r, &mut reference, &m, "cache-model");
        let stall = m.stall_cycles.unwrap_or(0);
        report_times(
            &mut r,
            scale,
            books.submitted as f64,
            &setup,
            &p50,
            &p99,
            &wall,
        );
        r.metric(
            "ok_share",
            books.completed as f64 / books.submitted.max(1) as f64,
            "share",
        );
        r.metric(
            "sim_footprint_pages",
            books.high_water_pages as f64,
            "pages",
        );
        r.metric("sim_stall_kcycles", stall as f64 / 1e3, "kcycles");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.notes.push(format!(
            "{} untraced passes of {} requests; latency quantiles are means of per-pass \
             quantiles over {samples} requests",
            wall.len(),
            books.submitted
        ));
        return r;
    }

    let mut l = Layers::default();
    for (i, c) in books.calls.iter().enumerate() {
        l.calls[i] = *c as f64;
        l.busy_ms[i] = median(&busy[i]);
    }
    l.rstralloc_bytes = books.rstralloc_bytes as f64;
    l.pool_refused = books.pool_refused as f64;
    l.delete_blocked = books.delete_blocked as f64;
    l.step_p99_us = median(&step_p99);
    l.step_max_us = median(&step_max);
    if books.step_deleted > 0 {
        l.per_delete = books.calls[Layer::DeleteStep as usize] as f64 / books.step_deleted as f64;
    }
    l.costs = books.costs;
    l.request_p999_us = median(&p999);
    r.notes.push(format!(
        "request.p999_us: median over {} untraced passes of {} requests each",
        p999.len(),
        books.submitted
    ));
    l.residual_ns_p99 = median(&resid);
    l.request_p99_ns = Some(median(&t_p99));
    l.overhead_pct = (median(&t_wall) / median(&wall) - 1.0) * 100.0;
    finish_traced(&mut r, a, &l, &last_spans);
    r
}

fn run_suite(a: &Args) -> Report {
    let mut r = Report::default();
    let mut expected = match suite::expected() {
        Ok(e) => e,
        Err(e) => {
            r.violations.push(e);
            return r;
        }
    };
    if a.inject.as_deref() == Some("checksum") {
        expected[0] ^= 1;
    }
    let mut reference: Option<Vec<suite::ProgramBooks>> = None;
    let mut cachesim_calls: Option<u64> = None;
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let mut prog_q = [Vec::new(), Vec::new(), Vec::new()];
    let (mut t_wall, mut runtime_ms, mut residual_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut program_ms, mut cs_ms, mut driver_resid) =
        (vec![Vec::new(); 6], Vec::new(), Vec::new());
    let mut costs = region_core::SafetyCosts::default();
    let mut pages = 0u64;
    let mut stall = 0u64;
    let mut last_runs = Vec::new();
    let mut refs = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while !enough(start, a, wall.len(), t_wall.len()) {
        let traced = a.trace && i % 2 == 1;
        i += 1;
        refs.push(reference_ns());
        let p = suite::pass(&expected, traced);
        r.attempted += p.runs.len() as u64;
        let bad: std::collections::BTreeSet<&str> = p
            .violations
            .iter()
            .filter_map(|v| v.split(':').next())
            .collect();
        r.failed += p.runs.iter().filter(|run| bad.contains(run.name)).count() as u64;
        r.violations.extend(p.violations.iter().cloned());
        let books: Vec<suite::ProgramBooks> = p.runs.iter().map(|run| run.books.clone()).collect();
        match &reference {
            None => {
                for b in &books {
                    costs.barrier_instrs += b.costs.barrier_instrs;
                    costs.scan_instrs += b.costs.scan_instrs;
                    costs.cleanup_instrs += b.costs.cleanup_instrs;
                    costs.cleanup_objects += b.costs.cleanup_objects;
                    costs.frames_scanned += b.costs.frames_scanned;
                    pages += b.os_pages;
                    stall += b.mem.stall_cycles();
                }
                reference = Some(books);
            }
            Some(b) if *b != books => {
                r.violations
                    .push(format!("pass {i} program books differ from the first pass"));
            }
            Some(_) => {}
        }
        setup.push(p.setup_s);
        if !traced {
            wall.push(p.wall_s);
            let mut ns: Vec<u64> = p.runs.iter().map(|run| run.ns).collect();
            ns.sort_unstable();
            for (v, q) in prog_q.iter_mut().zip([0.50, 0.99, 0.999]) {
                v.push(quantile(&ns, q) as f64 / 1e3);
            }
            continue;
        }
        t_wall.push(p.wall_s);
        let calls: u64 = p.runs.iter().map(|run| run.cachesim_calls).sum();
        if *cachesim_calls.get_or_insert(calls) != calls {
            r.violations
                .push(format!("pass {i} cache-model event count differs"));
        }
        let (mut rt, mut prog, mut cs) = (0u64, 0u64, 0u64);
        for (k, run) in p.runs.iter().enumerate() {
            program_ms[k].push(run.ns as f64 / 1e6);
            rt += run.runtime_ns;
            prog += run.ns;
            cs += run.cachesim_ns;
        }
        runtime_ms.push(rt as f64 / 1e6);
        residual_ms.push(prog.saturating_sub(rt) as f64 / 1e6);
        cs_ms.push(cs as f64 / 1e6);
        driver_resid.push((p.wall_s * 1e9 - prog as f64).max(0.0) as u64);
        last_runs = p.runs;
    }

    r.notes.push(books_digest(&reference));
    let (scale, note) = host_scale(&refs);
    r.notes.push(note);
    if !a.trace {
        report_times(
            &mut r,
            scale,
            workloads::Workload::ALL.len() as f64,
            &setup,
            &prog_q[0],
            &prog_q[1],
            &wall,
        );
        r.metric(
            "ok_share",
            (r.attempted - r.failed) as f64 / r.attempted.max(1) as f64,
            "share",
        );
        r.metric("sim_footprint_pages", pages as f64, "pages");
        r.metric("sim_stall_kcycles", stall as f64 / 1e3, "kcycles");
        r.metric("peak_rss_mb", peak_rss_mb(), "MB");
        r.notes.push(format!(
            "{} untraced passes at scale {}; latency quantiles are means of per-pass \
             quantiles over the 6 program runs of each pass ({} runs)",
            wall.len(),
            suite::SCALE,
            wall.len() * 6
        ));
        return r;
    }

    let mut l = Layers {
        costs,
        ..Layers::default()
    };
    l.runtime_busy_ms = median(&runtime_ms);
    l.request_p999_us = median(&prog_q[2]);
    r.notes.push(format!(
        "request.p999_us: median over {} untraced passes of each pass's slowest program",
        prog_q[2].len()
    ));
    for (k, v) in program_ms.iter().enumerate() {
        l.program_ms[k] = median(v);
    }
    l.residual_ms = median(&residual_ms);
    l.cachesim_calls = cachesim_calls.unwrap_or(0) as f64;
    l.cachesim_busy_ms = median(&cs_ms);
    driver_resid.sort_unstable();
    l.residual_ns_p99 = quantile(&driver_resid, 0.99) as f64;
    l.overhead_pct = (median(&t_wall) / median(&wall) - 1.0) * 100.0;
    finish_traced(&mut r, a, &l, &[]);
    if let (Some(path), false) = (&a.spans_out, last_runs.is_empty()) {
        match suite::write_runs(path, &last_runs) {
            Ok(()) => r.notes.push(format!(
                "program runs of the last traced pass written to {path}"
            )),
            Err(e) => r
                .violations
                .push(format!("writing program runs to {path}: {e}")),
        }
    }
    r
}

/// Reports the per-layer metrics, applies the residual bound and writes
/// the spans out.
fn finish_traced(r: &mut Report, a: &Args, l: &Layers, spans: &[Vec<trace::Span>]) {
    report_layers(r, l);
    match l.request_p99_ns {
        Some(p99) => {
            let bound = RESIDUAL_BOUND_SHARE * p99;
            if l.residual_ns_p99 > bound {
                r.violations.push(format!(
                    "driver.residual_ns.p99 = {} ns exceeds the declared bound of {bound} ns \
                     ({RESIDUAL_BOUND_SHARE} of the traced request p99 of {p99} ns)",
                    l.residual_ns_p99
                ));
            }
            r.notes.push(format!(
                "driver.residual_ns.p99 bound: {bound} ns ({RESIDUAL_BOUND_SHARE} of the traced \
                 request p99 of {p99} ns)"
            ));
        }
        None => r.notes.push(
            "driver.residual_ns.p99: pass time outside the program spans, p99 over traced \
             passes; not bounded (no requests)"
                .into(),
        ),
    }
    if let (Some(path), false) = (&a.spans_out, spans.is_empty()) {
        // The whole pass would be tens of megabytes: keep the first
        // requests of each session and every request at or above p99.
        let mut lat: Vec<u64> = spans
            .iter()
            .flatten()
            .filter(|s| s.layer == Layer::Request)
            .map(trace::Span::ns)
            .collect();
        lat.sort_unstable();
        let slow = quantile(&lat, 0.99);
        let keep = |root: &trace::Span| root.req < SPANS_HEAD || root.ns() >= slow;
        match trace::write_spans(path, spans, keep) {
            Ok(()) => r.notes.push(format!(
                "spans of the last traced pass (first {SPANS_HEAD} requests per session and \
                 every request at or above p99 = {slow} ns) written to {path}"
            )),
            Err(e) => r.violations.push(format!("writing spans to {path}: {e}")),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", suite::record_checksums());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "svc-churn" => run_svc(&args, false),
        "svc-index" => run_svc(&args, true),
        "paper-suite" => run_suite(&args),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            return ExitCode::from(2);
        }
    };
    for n in &report.notes {
        println!("# {n}");
    }
    for (n, v, u) in &report.metrics {
        println!("# {n} = {v} {u}");
    }
    for v in &report.violations {
        println!("# VIOLATION: {v}");
    }
    println!("{}", report.json());
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
