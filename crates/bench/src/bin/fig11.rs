//! Figure 11 — the cost of safety, broken into its three components:
//! reference counting (write barriers), stack scanning (scan/unscan),
//! and region cleanup.
//!
//! Paper shape: the overall safety overhead is "from negligible (tile)
//! to 17% (lcc)", with the mix depending on how pointer-intensive each
//! program is. We report the measured safe-vs-unsafe time overhead and
//! split it by the simulated-instruction shares of the three components
//! (using the paper's own 16/23-instruction barrier costs).
//!
//! The `elided` column counts barriers replaced by the 2-instruction
//! unbarriered store thanks to *sameregion* annotations (§3.3). The
//! figure runs paper-faithful codegen, so it is zero here;
//! `--elision-ab` runs the interleaved min-of-N A/B instead and writes
//! it as `results/elision_ab.json`.

use bench_harness::runner::{
    measure_region, measure_region_elide, scale_from_env, write_results, Cell, Measurement, Row,
};
use workloads::{RegionKind, Workload};

fn main() {
    let scale = scale_from_env();
    if std::env::args().any(|a| a == "--elision-ab") {
        elision_ab(scale);
        return;
    }
    println!("Figure 11: cost of safety, scale {scale}");
    println!(
        "{:<9} {:>10} {:>12} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "Name", "overhead", "safety-instr", "rc %", "scan %", "cleanup %", "barriers", "elided"
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for w in Workload::ALL {
        let safe = measure_region(w, RegionKind::Safe, scale, false);
        let unsafe_ = measure_region(w, RegionKind::Unsafe, scale, false);
        assert_eq!(safe.checksum, unsafe_.checksum);
        let costs = safe.costs.expect("safe run");
        let (rc, scan, cleanup) = costs.breakdown();
        let overhead = 100.0
            * (safe.total.as_secs_f64() - unsafe_.total.as_secs_f64())
            / unsafe_.total.as_secs_f64();
        println!(
            "{:<9} {:>9.1}% {:>12} {:>9.1}% {:>9.1}% {:>9.1}% {:>12} {:>8}",
            w.name(),
            overhead,
            costs.total_instrs(),
            rc * 100.0,
            scan * 100.0,
            cleanup * 100.0,
            costs.barriers_global + costs.barriers_region + costs.barriers_unknown,
            costs.barriers_elided,
        );
        rows.push(safe);
        rows.push(unsafe_);
    }
    let doc: Vec<_> = rows.iter().map(Measurement::row).collect();
    match write_results("fig11", scale, &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write results json: {e}"),
    }
    println!();
    println!("Shape check vs paper: overhead stays modest (paper: ≤17%), and is");
    println!("dominated by reference counting for pointer-write-heavy programs and");
    println!("by cleanup for programs that delete many object-rich regions.");
}

/// Interleaved min-of-N A/B of the hand-annotated *sameregion* stores:
/// for each workload, alternate elision-off and elision-on runs, keep
/// the fastest run per arm, and demand bit-identical checksums plus a
/// conserved barrier split. Panics (failing CI) if the counters drift
/// between repetitions or the flagship workloads stop eliding. Each arm
/// is one row of `elision_ab.json` (`base`, `elide`), with the full
/// barriers that remain as an extra exact cell.
fn elision_ab(scale: u32) {
    const REPS: usize = 3;
    println!("Elision A/B: sameregion barrier elision, scale {scale}, min of {REPS}");
    println!(
        "{:<9} {:>13} {:>13} {:>10} {:>8} {:>10} {:>10}",
        "Name", "safety-base", "safety-elide", "reduction", "elided", "ms(base)", "ms(elide)"
    );
    // Keeps the fastest rep, asserting every rep's counters agree.
    fn keep_min(best: &mut Option<Measurement>, m: Measurement) {
        match best {
            Some(p) => {
                assert_eq!(p.checksum, m.checksum, "{}: checksum drift across reps", m.workload);
                assert_eq!(p.costs, m.costs, "{}: cost drift across reps", m.workload);
                if m.total < p.total {
                    *p = m;
                }
            }
            None => *best = Some(m),
        }
    }
    let mut rows: Vec<Row> = Vec::new();
    for w in Workload::ALL {
        let (mut base, mut opt) = (None, None);
        for _ in 0..REPS {
            keep_min(&mut base, measure_region_elide(w, RegionKind::Safe, scale, false));
            keep_min(&mut opt, measure_region_elide(w, RegionKind::Safe, scale, true));
        }
        let (mut base, mut opt) = (base.expect("REPS > 0"), opt.expect("REPS > 0"));
        assert_eq!(base.checksum, opt.checksum, "{}: elision changed the answer", w.name());
        let cb = base.costs.expect("safe run");
        let co = opt.costs.expect("safe run");
        let full = |c: &region_core::SafetyCosts| {
            c.barriers_global + c.barriers_region + c.barriers_unknown
        };
        assert_eq!(cb.barriers_elided, 0, "{}: baseline must not elide", w.name());
        assert_eq!(
            full(&cb),
            full(&co) + co.barriers_elided,
            "{}: barrier split not conserved",
            w.name()
        );
        let reduction = if cb.total_instrs() == 0 {
            0.0
        } else {
            100.0 * (cb.total_instrs() - co.total_instrs()) as f64 / cb.total_instrs() as f64
        };
        println!(
            "{:<9} {:>13} {:>13} {:>9.1}% {:>8} {:>10.1} {:>10.1}",
            w.name(),
            cb.total_instrs(),
            co.total_instrs(),
            reduction,
            co.barriers_elided,
            base.total.as_secs_f64() * 1e3,
            opt.total.as_secs_f64() * 1e3,
        );
        if matches!(w, Workload::Grobner | Workload::Tile | Workload::Mudlle) {
            assert!(co.barriers_elided > 0, "{}: expected elided barriers", w.name());
            assert!(
                co.total_instrs() < cb.total_instrs(),
                "{}: expected a safety-instruction reduction",
                w.name()
            );
        }
        base.allocator = "base";
        opt.allocator = "elide";
        rows.push(base.row().with("barriers_full", Cell::Exact(full(&cb))));
        rows.push(opt.row().with("barriers_full", Cell::Exact(full(&co))));
    }
    match write_results("elision_ab", scale, &rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write elision_ab results: {e}");
            std::process::exit(1);
        }
    }
}
