//! Safety costs measured at the language level: C@ programs (as the
//! paper's benchmarks were) run on the VM in safe and unsafe modes.
//!
//! Three allocation-intensive C@ programs in the style of the paper's
//! suite: list churn with temporary regions (mudlle/cfrac-shaped), a
//! global cache with cross-region references (moss-shaped), and a
//! tree-per-region workload (lcc-shaped). For each we report VM
//! instructions, safety instructions by component, and the share of all
//! work that safety represents — Figure 11 computed from real compiled
//! programs instead of hand-instrumented Rust.
//!
//! By default each program is also compiled with the §3.3 *sameregion*
//! inference pass ([`cq_lang::compile_elide`]) and run a third time; the
//! `elided` and `safety(el)` columns show how many barriers the static
//! analysis removed and what safety work remains. `--no-elide` keeps
//! the paper-faithful codegen only. All VM runs —
//! untrusted compiled programs — execute under the bench supervisor
//! (deadline + panic containment), and a results/cq_bench.json envelope
//! is written alongside the table.

use std::time::{Duration, Instant};

use bench_harness::runner::{bench_workers, write_results, Measurement};
use bench_harness::supervise::{supervise, JobOutcome, SuperviseConfig};
use cq_lang::bytecode::Program;
use cq_lang::{compile, compile_elide, Vm};
use region_core::{AllocStats, SafetyCosts, SafetyMode};

const LIST_CHURN: &str = r#"
struct cell { int v; cell@ next; };
cell@ build(Region r, int n) {
    cell@ head = null;
    int i = 0;
    while (i < n) {
        cell@ c = ralloc(r, cell);
        c.v = i;
        c.next = head;   // region write barrier
        head = c;
        i = i + 1;
    }
    return head;
}
int total(cell@ l) {
    int s = 0;
    while (l != null) { s = s + l.v; l = l.next; }
    return s;
}
void main() {
    int round = 0;
    int acc = 0;
    while (round < 60) {
        Region tmp = newregion();
        cell@ l = build(tmp, 200);
        acc = acc + total(l);
        l = null;
        deleteregion(tmp);
        round = round + 1;
    }
    print(acc);
}
"#;

const GLOBAL_CACHE: &str = r#"
struct entry { int key; entry@ next; };
global entry@ cache;
void remember(Region r, int k) {
    entry@ e = ralloc(r, entry);
    e.key = k;
    e.next = cache;      // region write
    cache = e;           // global write barrier
}
int lookup(int k) {
    entry@ e = cache;
    while (e != null) {
        if (e.key == k) return 1;
        e = e.next;
    }
    return 0;
}
void main() {
    Region live = newregion();
    int i = 0;
    int hits = 0;
    while (i < 2000) {
        remember(live, i % 97);
        hits = hits + lookup(i % 53);
        i = i + 1;
    }
    print(hits);
    cache = null;
    print(deleteregion(live));
}
"#;

const TREE_PER_REGION: &str = r#"
struct tree { int v; tree@ l; tree@ r; };
tree@ insert(Region rg, tree@ t, int v) {
    if (t == null) {
        tree@ n = ralloc(rg, tree);
        n.v = v;
        return n;
    }
    if (v < t.v) t.l = insert(rg, t.l, v);
    else t.r = insert(rg, t.r, v);
    return t;
}
int sum(tree@ t) {
    if (t == null) return 0;
    return t.v + sum(t.l) + sum(t.r);
}
void main() {
    int round = 0;
    int acc = 0;
    int seed = 11;
    while (round < 40) {
        Region rg = newregion();
        tree@ t = null;
        int i = 0;
        while (i < 120) {
            seed = (seed * 75 + 74) % 6553;
            t = insert(rg, t, seed);
            i = i + 1;
        }
        acc = (acc + sum(t)) % 1000000;
        t = null;
        deleteregion(rg);
        round = round + 1;
    }
    print(acc);
}
"#;

/// Observables of one supervised VM run.
struct RunRec {
    output: Vec<i32>,
    instructions: u64,
    total: Duration,
    data_pages: u64,
    stats: AllocStats,
    costs: SafetyCosts,
    violations: usize,
}

fn run_vm(program: Program, mode: SafetyMode) -> RunRec {
    let t = Instant::now();
    let mut vm = Vm::new(program, mode);
    vm.run().expect("program runs to completion");
    let total = t.elapsed();
    let rt = vm.runtime();
    RunRec {
        output: vm.output().to_vec(),
        instructions: vm.instructions(),
        total,
        data_pages: rt.data_pages(),
        stats: *rt.stats(),
        costs: *rt.costs(),
        violations: rt.violations().len(),
    }
}

/// The `--no-elide` flag keeps the paper-faithful codegen (no
/// sameregion inference) as the only safe build.
fn elide_enabled() -> bool {
    !std::env::args().any(|a| a == "--no-elide")
}

fn checksum(output: &[i32]) -> u64 {
    output.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| {
        (h ^ v as u32 as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

fn main() {
    let elide = elide_enabled();
    const PROGRAMS: [(&str, &str); 3] = [
        ("list_churn", LIST_CHURN),
        ("global_cache", GLOBAL_CACHE),
        ("tree_region", TREE_PER_REGION),
    ];

    // Compile everything up front (compile errors are ours, not the
    // programs'), then run every (program, mode) cell under the
    // supervisor: compiled C@ is untrusted input to the VM, so each run
    // gets a deadline and panic containment instead of taking down the
    // whole table.
    type JobFn = Box<dyn Fn(u32) -> RunRec + Send + Sync>;
    let mut jobs: Vec<JobFn> = Vec::new();
    let mut cells: Vec<(usize, &'static str)> = Vec::new();
    for (pi, (_, src)) in PROGRAMS.iter().enumerate() {
        let base = compile(src).expect("program compiles");
        let opt = compile_elide(src).expect("program compiles with elision");
        for (mode_name, program, mode) in [
            ("Safe", base.clone(), SafetyMode::Safe),
            ("Unsafe", base.clone(), SafetyMode::Unsafe),
            ("Safe+elide", opt.clone(), SafetyMode::Safe),
        ] {
            if mode_name == "Safe+elide" && !elide {
                continue;
            }
            cells.push((pi, mode_name));
            jobs.push(Box::new(move |_| run_vm(program.clone(), mode)));
        }
    }
    let cfg = SuperviseConfig {
        workers: bench_workers(),
        deadline: Some(Duration::from_secs(120)),
        max_attempts: 1,
        backoff: Duration::from_millis(1),
        retry_timeouts: false,
    };
    let reports = supervise(jobs, &cfg);
    let mut runs: Vec<Option<RunRec>> = Vec::new();
    for (report, (pi, mode_name)) in reports.into_iter().zip(&cells) {
        match report.outcome {
            JobOutcome::Completed(rec) => runs.push(Some(rec)),
            JobOutcome::Panicked(msg) => {
                panic!("{}/{mode_name}: VM run panicked: {msg}", PROGRAMS[*pi].0)
            }
            JobOutcome::TimedOut(d) => {
                panic!("{}/{mode_name}: VM run exceeded {d:?}", PROGRAMS[*pi].0)
            }
        }
    }

    println!("C@ programs on the VM: cost of safety at the language level");
    if elide {
        println!("(sameregion inference on; --no-elide for paper-faithful codegen)");
    } else {
        println!("(sameregion inference off)");
    }
    println!(
        "{:<14} {:>12} {:>12} {:>9} {:>8} {:>8} {:>9} {:>9} {:>8} {:>12}",
        "program",
        "vm instrs",
        "safety",
        "safety%",
        "rc%",
        "scan%",
        "cleanup%",
        "barriers",
        "elided",
        "safety(el)"
    );
    let mut rows: Vec<Measurement> = Vec::new();
    for (pi, (name, _)) in PROGRAMS.iter().enumerate() {
        let mut by_mode: Vec<(&'static str, RunRec)> = Vec::new();
        for (ci, (cpi, mode_name)) in cells.iter().enumerate() {
            if cpi == &pi {
                by_mode.push((mode_name, runs[ci].take().expect("run present")));
            }
        }
        let safe = &by_mode.iter().find(|(m, _)| *m == "Safe").expect("safe cell").1;
        let unsafe_ = &by_mode.iter().find(|(m, _)| *m == "Unsafe").expect("unsafe cell").1;
        assert_eq!(safe.output, unsafe_.output, "{name}: modes must agree");
        let costs = safe.costs;
        let (rc, scan, cleanup) = costs.breakdown();
        let barriers = costs.barriers_global + costs.barriers_region + costs.barriers_unknown;
        // The elided build must be observationally identical to the safe
        // build: same output, same VM instruction count (elided stores
        // substitute one-for-one), a conserved barrier split, and no
        // runtime `ElisionUnsound` violations (the inference never lied).
        let (elided_n, safety_el) = match by_mode.iter().find(|(m, _)| *m == "Safe+elide") {
            Some((_, el)) => {
                assert_eq!(safe.output, el.output, "{name}: elision changed the answer");
                assert_eq!(
                    safe.instructions, el.instructions,
                    "{name}: elision changed the VM instruction count"
                );
                assert_eq!(el.violations, 0, "{name}: elision claim failed at runtime");
                assert_eq!(
                    barriers,
                    el.costs.barriers_global
                        + el.costs.barriers_region
                        + el.costs.barriers_unknown
                        + el.costs.barriers_elided,
                    "{name}: barrier split not conserved"
                );
                (el.costs.barriers_elided, el.costs.total_instrs())
            }
            None => (0, costs.total_instrs()),
        };
        // Safety share: simulated safety instructions relative to the sum
        // of VM instructions and safety instructions (the VM's own
        // instruction count is identical across modes).
        let total = safe.instructions + costs.total_instrs();
        println!(
            "{:<14} {:>12} {:>12} {:>8.1}% {:>7.0}% {:>7.0}% {:>8.0}% {:>9} {:>8} {:>12}",
            name,
            safe.instructions,
            costs.total_instrs(),
            100.0 * costs.total_instrs() as f64 / total as f64,
            rc * 100.0,
            scan * 100.0,
            cleanup * 100.0,
            barriers,
            elided_n,
            safety_el,
        );
        for (mode_name, rec) in &by_mode {
            rows.push(Measurement {
                workload: name,
                allocator: mode_name,
                total: rec.total,
                mem: Duration::ZERO,
                os_pages: rec.data_pages,
                stats: rec.stats,
                inner_stats: None,
                costs: (*mode_name != "Unsafe").then_some(rec.costs),
                cache: None,
                checksum: checksum(&rec.output),
            });
        }
    }
    // The programs have one fixed size: the document records scale 1.
    let doc: Vec<_> = rows.iter().map(Measurement::row).collect();
    match write_results("cq_bench", 1, &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write results json: {e}"),
    }
    println!();
    println!("Shape check vs paper Figure 11: pointer-linking programs pay mostly");
    println!("reference counting; programs that delete object-rich regions pay");
    println!("cleanup. The share is large for these allocation-dense kernels —");
    println!("nearly every instruction is a pointer write — and drops to the");
    println!("paper's single digits when real compute dominates (global_cache).");
    if elide {
        println!();
        println!("Sameregion inference removes the region-local link barriers in");
        println!("list_churn and tree_region (the recursive insert's co-region");
        println!("parameter invariant carries the proof); global_cache's");
        println!("cross-region cache writes are not elidable and keep theirs.");
    }
}
