//! Region service under adversity — the long-lived driver for the
//! resilience layer ([`bench_harness::server`]).
//!
//! A fleet of sessions serves seeded request traffic on one shared
//! address space: every request creates a region, allocates into it,
//! publishes a cross-thread reference through the parallel pool, then
//! unpublishes and deletes. The run interleaves injected allocation
//! faults (bounded deterministic retry with linear backoff), injected
//! worker panics (quarantine + reap, the fleet keeps serving), and
//! footprint watermarks (degrade, then shed with a typed
//! `Overloaded` error — never a panic).
//!
//! The books — conserved ledger, per-session ledgers, digest,
//! footprint high-water — are schedule-independent by construction:
//! the same seed must produce byte-identical books at 1, 2 and N OS
//! threads and across reruns, and this binary asserts exactly that
//! before reporting. Wall-clock throughput and p50/p99/p999 request
//! latency are reported alongside but never folded into the books.
//!
//! Writes `server.json` with three rows: the 1-thread run (`svc1`), the
//! N-thread run (`svcN`), and the N-thread run replayed at the opposite
//! deletion budget (`replay`: unbounded for the recorded default of
//! 64). Each row carries the books (ledger, footprint, quarantine,
//! digest) as exact cells and the request-latency and deletion-pause
//! shape as latency cells. The full config records scale 2, `--quick`
//! scale 1.

use bench_harness::runner::{write_results, Cell, Row};
use bench_harness::{install_service_panic_filter, run_service, Measurement, ServiceConfig, ServiceReport};

/// Thread counts the books must be invariant across. The last entry is
/// also rerun to prove same-seed stability.
const THREAD_AB: [usize; 3] = [1, 2, 4];

fn measurement(label: &'static str, r: &ServiceReport) -> Measurement {
    Measurement {
        workload: "server",
        allocator: label,
        total: r.elapsed,
        mem: r.elapsed,
        os_pages: r.high_water_pages,
        stats: region_core::AllocStats {
            total_allocs: r.ledger.completed,
            total_regions: r.ledger.submitted,
            ..Default::default()
        },
        inner_stats: None,
        costs: None,
        cache: None,
        checksum: r.digest,
    }
}

/// One `server.json` row: the measurement cells, then the books and the
/// latency and pause shape of `r`.
fn row(label: &'static str, r: &ServiceReport) -> Row {
    let l = &r.ledger;
    let mut row = measurement(label, r).row();
    for (col, v) in [
        ("p50_us", r.p50_us()),
        ("p99_us", r.p99_us()),
        ("p999_us", r.p999_us()),
        ("pause_p50_us", r.pause_p50_us()),
        ("pause_p99_us", r.pause_p99_us()),
        ("pause_max_us", r.pause_max_us()),
        // How many increments the deletions took depends on the budget,
        // which the budget sweep varies on purpose: pause shape, not books.
        ("pause_increments", r.pause_ns.len() as f64),
    ] {
        row = row.with(col, Cell::Latency(v));
    }
    for (col, v) in [
        ("submitted", l.submitted),
        ("completed", l.completed),
        ("shed", l.shed),
        ("failed", l.failed),
        ("retries", l.retries),
        ("degraded", l.degraded),
        ("faults", l.faults),
        ("panics", l.panics),
        ("final_pages", r.final_pages),
        ("quarantined", r.quarantined),
        ("reaped", r.reaped),
    ] {
        row = row.with(col, Cell::Exact(v));
    }
    row
}

fn print_report(threads: usize, r: &ServiceReport) {
    let l = &r.ledger;
    println!(
        "  {threads:>2} thread(s): {} req in {:>7.1} ms ({:>8.0} req/s) — \
         {} ok, {} shed, {} failed ({} retries, {} degraded, {} faults, {} panics)",
        l.submitted,
        r.elapsed.as_secs_f64() * 1e3,
        r.throughput_rps(),
        l.completed,
        l.shed,
        l.failed,
        l.retries,
        l.degraded,
        l.faults,
        l.panics,
    );
}

fn need(args: &mut std::env::Args, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn main() {
    install_service_panic_filter();
    let quick = std::env::args().any(|a| a == "--quick");
    let mut args = std::env::args();
    let mut seed = 42u64;
    // Recorded default: incremental deletion under a 64-unit budget.
    // `--delete-budget inf` reproduces the stop-the-world profile.
    let mut delete_budget = 64u64;
    let mut open_loop_period_ns = 0u64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = need(&mut args, "--seed");
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad seed: {v}");
                    std::process::exit(2);
                });
            }
            "--delete-budget" => {
                let v = need(&mut args, "--delete-budget");
                delete_budget = if v == "inf" {
                    u64::MAX
                } else {
                    v.parse().unwrap_or_else(|_| {
                        eprintln!("bad budget (want a positive integer or 'inf'): {v}");
                        std::process::exit(2);
                    })
                };
                if delete_budget == 0 {
                    eprintln!("--delete-budget must be >= 1");
                    std::process::exit(2);
                }
            }
            "--open-loop" => {
                let v = need(&mut args, "--open-loop");
                open_loop_period_ns = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad open-loop period (want nanoseconds): {v}");
                    std::process::exit(2);
                });
            }
            _ => {}
        }
    }
    let mut cfg = if quick { ServiceConfig::quick(seed) } else { ServiceConfig::full(seed) };
    cfg.delete_budget = delete_budget;
    cfg.open_loop_period_ns = open_loop_period_ns;
    if std::env::var("REGION_SANITIZE").is_ok_and(|v| v == "1") {
        cfg.sanitize_rounds = true;
    }
    let budget_str = if delete_budget == u64::MAX {
        "inf".to_string()
    } else {
        delete_budget.to_string()
    };

    println!(
        "Region service: {} sessions x {} requests over {} rounds, seed {seed}, \
         watermarks {}, fault 1/{}, panic 1/{}, delete budget {budget_str}",
        cfg.sessions,
        cfg.requests_per_session,
        cfg.rounds,
        cfg.marks,
        cfg.fault_one_in,
        cfg.panic_one_in,
    );

    // The books must not depend on the OS thread count, and a same-seed
    // rerun must land on the same bytes. Both are asserted on the full
    // encoded books (fleet ledger, per-session ledgers, digest,
    // footprint, quarantine counters) — not just the digest.
    let mut reports = Vec::new();
    for threads in THREAD_AB {
        let r = run_service(&ServiceConfig { threads, ..cfg });
        print_report(threads, &r);
        reports.push(r);
    }
    let books = reports[0].encode_books();
    for (threads, r) in THREAD_AB.iter().zip(&reports).skip(1) {
        assert_eq!(
            books,
            r.encode_books(),
            "books must not depend on the thread count (1 vs {threads})"
        );
    }
    let last = *THREAD_AB.last().expect("non-empty");
    let again = run_service(&ServiceConfig { threads: last, ..cfg });
    assert_eq!(books, again.encode_books(), "same-seed rerun must be byte-identical");

    // Budget A/B: the books must also be invariant across the deletion
    // budget — incremental mode changes when deletion work runs, never
    // what it does. The replay at the opposite budget doubles as the
    // pause-time baseline for the report.
    let other_budget = if cfg.delete_budget == u64::MAX { 64 } else { u64::MAX };
    let replay = run_service(&ServiceConfig {
        threads: last,
        delete_budget: other_budget,
        ..cfg
    });
    assert_eq!(
        books,
        replay.encode_books(),
        "books must not depend on the deletion budget ({budget_str} vs {other_budget})"
    );
    let r1 = &reports[0];
    let rn = &reports[THREAD_AB.len() - 1];
    let (budgeted, unbounded) =
        if cfg.delete_budget == u64::MAX { (&replay, rn) } else { (rn, &replay) };

    assert!(rn.ledger.conserves(), "ledger must conserve");
    println!(
        "  ledger conserved: {} submitted == {} completed + {} shed + {} failed",
        rn.ledger.submitted, rn.ledger.completed, rn.ledger.shed, rn.ledger.failed
    );
    println!(
        "  latency p50 {:.2} us, p99 {:.2} us, p999 {:.2} us ({last} threads)",
        rn.p50_us(),
        rn.p99_us(),
        rn.p999_us()
    );
    println!(
        "  deleteregion pauses: budgeted p50 {:.2} us, p99 {:.2} us, max {:.2} us \
         over {} increments — unbounded budget p99 {:.2} us, max {:.2} us over {}",
        budgeted.pause_p50_us(),
        budgeted.pause_p99_us(),
        budgeted.pause_max_us(),
        budgeted.pause_ns.len(),
        unbounded.pause_p99_us(),
        unbounded.pause_max_us(),
        unbounded.pause_ns.len(),
    );
    println!(
        "  footprint high-water {} pages (final {}), {} quarantined, {} reaped, \
         {} sanitize passes",
        rn.high_water_pages, rn.final_pages, rn.quarantined, rn.reaped, rn.sanitize_runs
    );
    println!(
        "  books {:016x} identical at {:?} threads and across reruns",
        rn.digest, THREAD_AB
    );

    let rows = [row("svc1", r1), row("svcN", rn), row("replay", &replay)];
    match write_results("server", if quick { 1 } else { 2 }, &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("\nfailed to write server results: {e}");
            std::process::exit(1);
        }
    }
}
