#!/usr/bin/env bash
# CI entry point: tier-1 verify plus a smoke pass of every benchmark
# binary at --quick scale. Fails fast on the first error. --quick runs
# write their results documents under target/results/, never over the
# committed results/ (checked at the end).
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests (all crates) =="
cargo test --workspace -q

echo "== bench binaries, --quick smoke =="
cargo build --release -p bench-harness
for bin in table1 table2_3 fig8 fig9 fig10 fig11 ablations cq_bench; do
    echo "-- $bin --quick"
    ./target/release/"$bin" --quick >/dev/null
done

echo "== golden access traces =="
# Committed goldens: tile is format v1 (recorded before batching — its
# passing proves the canonicalizing expander's compatibility path),
# cfrac is format v2 (range records).
./target/release/fig10 --quick --check-golden tile
./target/release/fig10 --quick --check-golden cfrac
# Remaining workloads: record fresh, then immediately re-check, so every
# access stream is exercised through the golden writer+reader round trip
# and any in-run nondeterminism fails CI.
for wl in grobner mudlle lcc moss; do
    ./target/release/fig10 --quick --record-golden "$wl" >/dev/null
    ./target/release/fig10 --quick --check-golden "$wl"
done

echo "== golden end-states (RSNP snapshots, field-level diff on drift) =="
# Committed full runtime snapshots of the safe-region end state for tile
# and cfrac; a byte mismatch is reported by the first drifted field
# (region id / heap page / counter name) via bench::diff.
./target/release/fig10 --quick --check-golden-state tile
./target/release/fig10 --quick --check-golden-state cfrac

echo "== snapshot round-trip + corrupt-input rejection (DESIGN §14) =="
# Every-prefix replay equality, truncation/bit-flip/bad-header typed
# rejection, and the doctored-books sanitize gate live in the core lib
# and property suites.
cargo test -q -p region-core --lib snapshot
cargo test -q -p region-core --test snapshot_props

echo "== kill-and-restore chaos (>=20 seeded kill points), sanitize on =="
# Quick pass replays 25 kill-restores to digest equality and feeds the
# corrupt-snapshot battery; the 100-seed sweep runs in the full (non
# --quick) chaos invocation.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario kill-restore >/dev/null

echo "== parallel region pool smoke (digest + audit, sanitize on) =="
# Also covers the shared-space shard mode: four logical shards of one
# address space at 1/2/N threads must land on one digest.
REGION_SANITIZE=1 BENCH_WORKERS="${BENCH_WORKERS:-4}" ./target/release/par_regions --quick >/dev/null

echo "== shard parity suite (W=1 bit-parity + canonical merge), sanitize on =="
# A runtime on the single shard of a one-worker SharedSpace must be
# observationally identical to one on a private SimHeap; W>1 merges must
# be bit-identical across seeded and real-thread schedules (DESIGN §15).
REGION_SANITIZE=1 cargo test -q -p region-core --test shard_props

echo "== world snapshots: v1 still reads, v2 round-trips =="
# RSNP v1 single-runtime snapshots (checked above) and the v2 sharded
# world format live side by side; v1/v2 streams must reject each other
# with typed errors, and a restored world re-captures byte-identically.
cargo test -q -p region-core --lib world

echo "== shard A/B (writes target/results/shard_ab.json) =="
# Private SimHeap vs W=1 shard books bit-identical; the 4-shard shared
# world digest thread-count-independent. The committed
# results/shard_ab.json is the default-scale record.
./target/release/par_regions --shard-ab --quick >/dev/null

echo "== chaos soak (fault injection + sanitizer + VM), --quick =="
./target/release/chaos --quick >/dev/null

echo "== par-chaos: contained worker faults, quarantine + reap, sanitize on =="
# Phase 2 reruns the panic chaos on one shared address space: abandoned
# shard runtimes sanitize clean, the mirror audit passes, and every
# round's world snapshot capture->restore->recapture is byte-equal.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario par-chaos >/dev/null

echo "== region service under adversity (deadlines, backpressure, quarantine) =="
# Quick soak of the long-lived region service: books asserted
# byte-identical at 1/2/4 OS threads and across a same-seed rerun,
# ledger conserved, every quarantined region reaped. The committed
# results/server.json is the full-scale record.
REGION_SANITIZE=1 ./target/release/server --quick >/dev/null

echo "== deleteregion budget sweep (inf vs 64 vs 1, DESIGN §17) =="
# The server binary already asserts the encoded books byte-identical
# against one opposite-budget arm internally; this sweep additionally
# proves every exact cell (books digest, ledger, pages) identical across
# an unbounded, a 64-unit and a 1-unit deletion budget — only the time
# and latency cells (pauses, increment counts) may drift (--ignore-time).
for b in inf 64 1; do
    REGION_SANITIZE=1 ./target/release/server --quick --delete-budget "$b" >/dev/null
    cp target/results/server.json "target/server_b$b.json"
done
./target/release/compare_results target/server_binf.json target/server_b64.json --ignore-time >/dev/null
./target/release/compare_results target/server_b64.json target/server_b1.json --ignore-time >/dev/null
# Full-adversity service chaos (now including the incremental-deletion
# budget arms at 64 and 1): injected faults + panics + watermark
# pressure, conservation and clean sanitize/audit every round.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario server-chaos >/dev/null

echo "== elision differential (vm-chaos A/B, sanitize on) =="
# Every random C@ program runs twice — paper-faithful codegen vs the
# sameregion inference pass — and must be bit-identical in output, VM
# instruction count, and final-heap digest, with a conserved barrier
# split and zero ElisionUnsound violations, under the region sanitizer.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario vm-chaos >/dev/null
REGION_SANITIZE=1 cargo test -q -p cq-lang

echo "== elision A/B on the workload suite (writes target/results/elision_ab.json) =="
# Interleaved min-of-N with the hand-annotated sameregion stores off/on;
# asserts identical checksums, a conserved barrier split, deterministic
# counters across reps, and a reduction on grobner/tile/mudlle. The
# committed results/elision_ab.json is the default-scale record.
./target/release/fig11 --elision-ab --quick >/dev/null

echo "== REGION_SANITIZE=1 smoke (one fig8 row, audited after the run) =="
REGION_SANITIZE=1 ./target/release/fig8 --quick --only tile >/dev/null

echo "== scan-batching parity under the sanitizer =="
# The GC/malloc range conversions (DESIGN §11 producer table) changed
# golden-trace *record counts* but must never change the word-level
# stream, the charge counters, or any cache statistic. These suites
# prove it property-by-property and for a full collect cycle.
REGION_SANITIZE=1 cargo test -q -p simheap --test props
REGION_SANITIZE=1 cargo test -q -p conservative-gc --test scan_parity

echo "== results rerun checks (deterministic cells identical across runs) =="
# A second --quick run of each figure must reproduce every exact cell of
# the first (counters, stall cycles, checksums); time cells may drift.
for bin in fig8 fig10 fig11 cq_bench; do
    cp "target/results/$bin.json" "target/results/$bin.first.json"
    ./target/release/"$bin" --quick >/dev/null
    ./target/release/compare_results "target/results/$bin.first.json" \
        "target/results/$bin.json" --ignore-time >/dev/null
done

echo "== repo benchmark self-test (books, audit, injected-fault gates) =="
# Tiny traced and untraced runs of every BENCHMARK.json workload: books
# digests stable across reruns and trace modes, a leaked region and a
# doctored checksum each fail the run, and a stripped checkout refuses.
python3 perfbench/selftest.py

echo "== criterion benches, quick mode =="
BENCH_QUICK=1 cargo bench -p bench-harness >/dev/null

echo "== committed results untouched =="
git diff --quiet -- results/

echo "ci.sh: all green"
