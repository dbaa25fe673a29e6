//! The committed Figure 10 goldens, checked inside `cargo test`.
//!
//! `results/golden/` holds two access traces — tile in format v1, cfrac
//! in format v2 — and the two matching end-of-run `RSNP` snapshots. The
//! whole heap is simulated, so a fresh safe-region run of either
//! workload must reproduce the recorded word stream and end state
//! exactly. A change that keeps every count right but moves one access
//! (say, where `deleteregion` unscans the caller's frame) fails here.
//! This is the same check as `fig10 --quick --check-golden <w>` and
//! `--check-golden-state <w>`.

use std::path::PathBuf;

use bench_harness::diff::snapshot_divergence;
use bench_harness::golden::{
    golden_path, golden_state_path, record_region_state, record_region_trace, GoldenTrace,
};
use workloads::Workload;

/// `fig10 --quick` runs at scale 1; the committed goldens were recorded there.
const SCALE: u32 = 1;

/// Golden paths are relative to the repository root.
fn committed(rel: PathBuf) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check_trace(w: Workload, hash: u64) {
    let golden = GoldenTrace::from_bytes(&committed(golden_path("fig10", w.name(), SCALE)))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    assert_eq!(golden.hash, hash, "{}: committed golden is not the expected file", w.name());
    let fresh = record_region_trace(w, SCALE);
    if let Err(e) = golden.compare(&fresh, SCALE) {
        panic!("{}: golden access trace diverged: {e}", w.name());
    }
}

fn check_state(w: Workload) {
    let golden = committed(golden_state_path("fig10", w.name(), SCALE));
    if let Some(msg) = snapshot_divergence(&golden, &record_region_state(w, SCALE)) {
        panic!("{}: golden end-state diverged: {msg}", w.name());
    }
}

#[test]
fn tile_golden_trace_holds() {
    check_trace(Workload::Tile, 0x0884_a4f4_e1a6_8748);
}

#[test]
fn cfrac_golden_trace_holds() {
    check_trace(Workload::Cfrac, 0xbdc9_2b9b_c8df_a057);
}

#[test]
fn tile_golden_end_state_holds() {
    check_state(Workload::Tile);
}

#[test]
fn cfrac_golden_end_state_holds() {
    check_state(Workload::Cfrac);
}
