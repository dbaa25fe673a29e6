//! Figure 10 — processor cycles lost to read and write stalls, from the
//! cache simulator replaying each run's access stream.
//!
//! Paper shape: BSD's automatic size segregation stalls less than the
//! other explicit allocators; moss's optimized two-region version has
//! roughly half the stalls of its naive single-region port.
//!
//! Traced cells are the most expensive in the harness (every simulated
//! access feeds the cache model), so fanning the matrix across worker
//! threads pays off most here.

use bench_harness::diff::snapshot_divergence;
use bench_harness::golden::{
    golden_path, golden_state_path, record_region_state, record_region_trace, GoldenTrace,
};
use bench_harness::runner::{run_matrix, scale_from_env, write_results, Job, Measurement};
use workloads::{MallocKind, RegionKind, Workload};

fn kstalls(m: &Measurement) -> (f64, f64) {
    let c = m.cache.expect("traced run");
    (c.read_stall_cycles as f64 / 1e3, c.write_stall_cycles as f64 / 1e3)
}

fn workload_by_name(name: &str) -> Workload {
    *Workload::ALL.iter().find(|w| w.name() == name).unwrap_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!("fig10: unknown workload {name:?}; expected one of {names:?}");
        std::process::exit(2);
    })
}

/// `--record-golden <workload>` / `--check-golden <workload>`: pin down
/// or re-verify the safe-region access stream feeding the cache model.
/// `--record-golden-state` / `--check-golden-state` do the same for the
/// *end state*: the full `RSNP` runtime snapshot after the workload, with
/// [`snapshot_divergence`] naming the first drifted field on mismatch.
/// Returns `true` if a golden mode ran (the matrix is skipped).
fn golden_mode(scale: u32) -> bool {
    let args: Vec<String> = std::env::args().collect();
    let value_of =
        |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    if let Some(name) = value_of("--record-golden") {
        let w = workload_by_name(name);
        let rec = record_region_trace(w, scale);
        let golden = GoldenTrace::from_recorder(&rec, scale);
        let path = golden_path("fig10", name, scale);
        std::fs::create_dir_all(path.parent().expect("under results/")).expect("mkdir");
        std::fs::write(&path, golden.to_bytes()).expect("write golden trace");
        println!(
            "recorded golden trace for {name} at scale {scale}: {} accesses \
             ({} kept verbatim), hash {:016x} -> {}",
            rec.total,
            golden.prefix.len(),
            rec.hash,
            path.display()
        );
        return true;
    }
    if let Some(name) = value_of("--check-golden") {
        let w = workload_by_name(name);
        let path = golden_path("fig10", name, scale);
        let bytes = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!(
                "fig10: no golden trace at {} ({e}); record one with --record-golden {name}",
                path.display()
            );
            std::process::exit(2);
        });
        let golden = GoldenTrace::from_bytes(&bytes).unwrap_or_else(|e| {
            eprintln!("fig10: {}: {e}", path.display());
            std::process::exit(2);
        });
        let rec = record_region_trace(w, scale);
        match golden.compare(&rec, scale) {
            Ok(()) => println!(
                "golden trace for {name} holds: {} accesses, hash {:016x}",
                rec.total, rec.hash
            ),
            Err(e) => {
                eprintln!("fig10: golden trace for {name} DIVERGED: {e}");
                std::process::exit(1);
            }
        }
        return true;
    }
    if let Some(name) = value_of("--record-golden-state") {
        let w = workload_by_name(name);
        let snap = record_region_state(w, scale);
        let path = golden_state_path("fig10", name, scale);
        std::fs::create_dir_all(path.parent().expect("under results/")).expect("mkdir");
        std::fs::write(&path, &snap).expect("write golden state");
        println!(
            "recorded golden end-state for {name} at scale {scale}: {} bytes -> {}",
            snap.len(),
            path.display()
        );
        return true;
    }
    if let Some(name) = value_of("--check-golden-state") {
        let w = workload_by_name(name);
        let path = golden_state_path("fig10", name, scale);
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            eprintln!(
                "fig10: no golden state at {} ({e}); record one with \
                 --record-golden-state {name}",
                path.display()
            );
            std::process::exit(2);
        });
        let fresh = record_region_state(w, scale);
        match snapshot_divergence(&golden, &fresh) {
            None => println!(
                "golden end-state for {name} holds: {} bytes, bit-identical",
                fresh.len()
            ),
            Some(msg) => {
                eprintln!("fig10: golden end-state for {name} DIVERGED: {msg}");
                std::process::exit(1);
            }
        }
        return true;
    }
    false
}

fn main() {
    let scale = scale_from_env();
    if golden_mode(scale) {
        return;
    }
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        for kind in MallocKind::ALL {
            jobs.push(Job::Malloc(w, kind));
        }
        jobs.push(Job::Region(w, RegionKind::Safe));
        jobs.push(Job::Region(w, RegionKind::Unsafe));
        if w == Workload::Moss {
            jobs.push(Job::MossSlow(RegionKind::Safe));
        }
    }
    let rows = run_matrix(&jobs, scale, true);

    println!("Figure 10: kilocycles lost to stalls, read+write (write), scale {scale}");
    println!(
        "{:<9} {:>15} {:>15} {:>15} {:>15} {:>15} {:>15}",
        "Name", "Sun", "BSD", "Lea", "GC", "Reg", "unsafe"
    );
    let mut cursor = rows.iter();
    for w in Workload::ALL {
        let mut row = format!("{:<9}", w.name());
        for _ in MallocKind::ALL {
            let m = cursor.next().expect("malloc cell");
            let (r, wr) = kstalls(m);
            row += &format!(" {:>8.0} ({:>4.0})", r + wr, wr);
        }
        let reg = cursor.next().expect("safe-region cell");
        let (r, wr) = kstalls(reg);
        row += &format!(" {:>8.0} ({:>4.0})", r + wr, wr);
        let unsf = cursor.next().expect("unsafe-region cell");
        let (r, wr) = kstalls(unsf);
        row += &format!(" {:>8.0} ({:>4.0})", r + wr, wr);
        println!("{row}");
        if w == Workload::Moss {
            let slow = cursor.next().expect("moss-slow cell");
            let (sr, sw) = kstalls(slow);
            let (or_, ow) = kstalls(reg);
            println!(
                "{:<9}  moss 'Slow': {:.0}k stalls vs optimized {:.0}k — ratio {:.2}×",
                "",
                sr + sw,
                or_ + ow,
                (sr + sw) / (or_ + ow).max(1.0),
            );
        }
    }
    let doc: Vec<_> = rows.iter().map(Measurement::row).collect();
    match write_results("fig10", scale, &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nwarning: could not write results JSON: {e}"),
    }
    println!();
    println!("Shape check vs paper: the optimized moss layout roughly halves its");
    println!("stalls; allocators that segregate by size or pack regions tightly");
    println!("stall less than general-purpose heaps on the hot structures.");
}
