//! Property tests: the simulated heap behaves like flat byte-addressable
//! memory with an append-only break, and the bulk fast paths (taken when
//! no trace sink is attached) are observationally identical to the
//! per-word paths.

use proptest::prelude::*;
use simheap::{
    Access, AccessEvent, Addr, CountingSink, EventRecordingSink, RecordingSink, SimHeap,
    PAGE_SIZE, WORD,
};

/// Model: a plain host byte vector addressed the same way.
#[derive(Debug, Clone)]
enum Op {
    StoreU8 { off: u32, val: u8 },
    StoreU32 { off: u32, val: u32 },
    Fill { off: u32, len: u32, byte: u8 },
    Copy { dst: u32, src: u32, len: u32 },
}

const AREA: u32 = 4 * PAGE_SIZE;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..AREA - 1, any::<u8>()).prop_map(|(off, val)| Op::StoreU8 { off, val }),
        (0..(AREA / WORD) - 1, any::<u32>())
            .prop_map(|(w, val)| Op::StoreU32 { off: w * WORD, val }),
        (0..AREA - 64, 0u32..64, any::<u8>()).prop_map(|(off, len, byte)| Op::Fill { off, len, byte }),
        (0..AREA / 2 - 64, 0u32..64).prop_map(|(d, len)| Op::Copy {
            dst: AREA / 2 + d,
            src: d,
            len
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_matches_flat_memory_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut heap = SimHeap::new();
        let base = heap.sbrk_pages(AREA / PAGE_SIZE);
        let mut model = vec![0u8; AREA as usize];

        for op in &ops {
            match *op {
                Op::StoreU8 { off, val } => {
                    heap.store_u8(base + off, val);
                    model[off as usize] = val;
                }
                Op::StoreU32 { off, val } => {
                    heap.store_u32(base + off, val);
                    model[off as usize..off as usize + 4].copy_from_slice(&val.to_le_bytes());
                }
                Op::Fill { off, len, byte } => {
                    heap.fill(base + off, len, byte);
                    for b in &mut model[off as usize..(off + len) as usize] {
                        *b = byte;
                    }
                }
                Op::Copy { dst, src, len } => {
                    heap.copy(base + dst, base + src, len);
                    let (lo, hi) = model.split_at_mut(dst as usize);
                    hi[..len as usize].copy_from_slice(&lo[src as usize..(src + len) as usize]);
                }
            }
        }
        prop_assert_eq!(heap.snapshot(base, AREA), model);
    }

    /// (b) Bulk vs per-word: running the same op sequence untraced (bulk
    /// fill/copy, mirror-style fast paths) and with a sink attached
    /// (per-word loops) must give identical memory contents and identical
    /// load/store counter totals.
    #[test]
    fn bulk_and_perword_paths_agree(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut bulk = SimHeap::new();
        let bulk_base = bulk.sbrk_pages(AREA / PAGE_SIZE);
        let mut word = SimHeap::new();
        let word_base = word.sbrk_pages(AREA / PAGE_SIZE);
        word.attach_sink(Box::new(CountingSink::default()));
        prop_assert_eq!(bulk_base, word_base);

        for op in &ops {
            for (heap, base) in [(&mut bulk, bulk_base), (&mut word, word_base)] {
                match *op {
                    Op::StoreU8 { off, val } => heap.store_u8(base + off, val),
                    Op::StoreU32 { off, val } => heap.store_u32(base + off, val),
                    Op::Fill { off, len, byte } => heap.fill(base + off, len, byte),
                    Op::Copy { dst, src, len } => heap.copy(base + dst, base + src, len),
                }
            }
        }
        prop_assert_eq!(bulk.load_count(), word.load_count());
        prop_assert_eq!(bulk.store_count(), word.store_count());
        prop_assert_eq!(bulk.snapshot(bulk_base, AREA), word.snapshot(word_base, AREA));
    }

    /// (c) The traced access stream is pinned to per-word semantics: a
    /// sink-attached fill/copy emits exactly the head-bytes / words /
    /// tail-bytes sequence, in order — bulk optimizations must never leak
    /// into traced runs.
    #[test]
    fn traced_stream_is_perword(off in 0u32..256, len in 0u32..160, shift in 0u32..5) {
        let mut heap = SimHeap::new();
        let base = heap.sbrk_pages(1);
        heap.attach_sink(Box::new(RecordingSink::default()));
        let start = base + off;
        heap.fill(start, len, 0xAB);
        let dst = base + 2048 + shift;
        heap.copy(dst, start, len);
        let sink = heap.detach_sink().expect("sink attached");
        let log = sink.into_any().downcast::<RecordingSink>().expect("recording sink").log;

        // Expected stream, derived independently of the implementation.
        let mut expect = Vec::new();
        let mut cur = start;
        let end = start + len;
        while cur < end && !cur.is_aligned(WORD) {
            expect.push(Access::write(cur.raw(), 1));
            cur = cur + 1;
        }
        while cur + WORD <= end {
            expect.push(Access::write(cur.raw(), 4));
            cur = cur + WORD;
        }
        while cur < end {
            expect.push(Access::write(cur.raw(), 1));
            cur = cur + 1;
        }
        if dst.is_aligned(WORD) && start.is_aligned(WORD) {
            for w in 0..len / WORD {
                expect.push(Access::read(start.raw() + w * WORD, 4));
                expect.push(Access::write(dst.raw() + w * WORD, 4));
            }
            for b in (len / WORD * WORD)..len {
                expect.push(Access::read(start.raw() + b, 1));
                expect.push(Access::write(dst.raw() + b, 1));
            }
        } else {
            for b in 0..len {
                expect.push(Access::read(start.raw() + b, 1));
                expect.push(Access::write(dst.raw() + b, 1));
            }
        }
        prop_assert_eq!(log, expect);
    }

    /// (d) Traced bulk ops actually batch: a fill is at most three events
    /// (head/words/tail ranges) and an aligned copy at most two, never one
    /// event per word — and their canonical expansion still equals the
    /// per-word stream checked in (c).
    #[test]
    fn traced_bulk_ops_emit_batched_events(off in 0u32..256, len in 1u32..160, shift in 0u32..5) {
        let mut heap = SimHeap::new();
        let base = heap.sbrk_pages(1);
        heap.attach_sink(Box::new(EventRecordingSink::default()));
        let start = base + off;
        heap.fill(start, len, 0xAB);
        let dst = base + 2048 + shift;
        heap.copy(dst, start, len);
        let sink = heap.detach_sink().expect("sink attached");
        let log = sink.into_any().downcast::<EventRecordingSink>().expect("event sink").log;

        prop_assert!(log.len() <= 5, "fill ≤ 3 events + copy ≤ 2 events, got {}", log.len());
        prop_assert!(
            log.iter().all(|ev| !matches!(ev, AccessEvent::Word(_))),
            "bulk ops must not emit per-word events: {log:?}"
        );
        let bytes: u64 = log.iter().map(|ev| ev.byte_count()).sum();
        prop_assert_eq!(bytes, 3 * u64::from(len), "fill touches len bytes, copy 2*len");
    }

    /// (e) `load_u32_range` is observationally `len` scalar loads: same
    /// counters, same values, and its one Range event expands to the same
    /// word stream a scalar-load loop announces.
    #[test]
    fn strided_bulk_read_matches_scalar_loads(
        woff in 0u32..32,
        len in 0u32..48,
        stride_words in 1u32..5,
    ) {
        let mut bulk = SimHeap::new();
        let base = bulk.sbrk_pages(AREA / PAGE_SIZE);
        for w in 0..AREA / WORD {
            bulk.store_u32(base + w * WORD, w.wrapping_mul(0x9E37_79B9));
        }
        let mut scalar = SimHeap::new();
        scalar.sbrk_pages(AREA / PAGE_SIZE);
        for w in 0..AREA / WORD {
            scalar.store_u32(base + w * WORD, w.wrapping_mul(0x9E37_79B9));
        }
        bulk.attach_sink(Box::new(RecordingSink::default()));
        scalar.attach_sink(Box::new(RecordingSink::default()));

        let start = base + woff * WORD;
        let stride = stride_words * WORD;
        let got = bulk.load_u32_range(start, len, stride);
        let want: Vec<u32> = (0..len).map(|i| scalar.load_u32(start + i * stride)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bulk.load_count(), scalar.load_count());
        prop_assert_eq!(bulk.store_count(), scalar.store_count());

        let blog = bulk.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
        let slog = scalar.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
        prop_assert_eq!(blog, slog);
    }

    /// (f) `scan_words` is observationally `len` consecutive scalar
    /// loads, traced or not: byte-identical words, identical counters,
    /// and — traced — its one Range record expands to exactly the word
    /// stream a scalar-load loop announces.
    #[test]
    fn scan_words_matches_scalar_loop(
        woff in 0u32..64,
        len in 0u32..96,
        traced in any::<bool>(),
        mult in any::<u32>(),
    ) {
        let mut bulk = SimHeap::new();
        let base = bulk.sbrk_pages(AREA / PAGE_SIZE);
        let mut scalar = SimHeap::new();
        scalar.sbrk_pages(AREA / PAGE_SIZE);
        for w in 0..AREA / WORD {
            let v = w.wrapping_mul(mult | 1);
            bulk.store_u32(base + w * WORD, v);
            scalar.store_u32(base + w * WORD, v);
        }
        if traced {
            bulk.attach_sink(Box::new(RecordingSink::default()));
            scalar.attach_sink(Box::new(RecordingSink::default()));
        }
        let start = base + woff * WORD;
        let got = bulk.scan_words(start, len);
        let want: Vec<u32> = (0..len).map(|i| scalar.load_u32(start + i * WORD)).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(bulk.load_count(), scalar.load_count());
        prop_assert_eq!(bulk.store_count(), scalar.store_count());
        if traced {
            let blog = bulk.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            let slog = scalar.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            prop_assert_eq!(blog, slog);
        }
    }

    /// (g) `store_u32_range` is observationally a scalar store loop,
    /// traced or not: identical final memory, counters, and (traced)
    /// word-expanded stream.
    #[test]
    fn store_range_matches_scalar_stores(
        woff in 0u32..32,
        stride_words in 1u32..5,
        vals in proptest::collection::vec(any::<u32>(), 0..48),
        traced in any::<bool>(),
    ) {
        let mut bulk = SimHeap::new();
        let base = bulk.sbrk_pages(AREA / PAGE_SIZE);
        let mut scalar = SimHeap::new();
        scalar.sbrk_pages(AREA / PAGE_SIZE);
        if traced {
            bulk.attach_sink(Box::new(RecordingSink::default()));
            scalar.attach_sink(Box::new(RecordingSink::default()));
        }
        let start = base + woff * WORD;
        let stride = stride_words * WORD;
        bulk.store_u32_range(start, stride, &vals);
        for (i, &v) in vals.iter().enumerate() {
            scalar.store_u32(start + (i as u32) * stride, v);
        }
        prop_assert_eq!(bulk.load_count(), scalar.load_count());
        prop_assert_eq!(bulk.store_count(), scalar.store_count());
        if traced {
            let blog = bulk.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            let slog = scalar.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            prop_assert_eq!(blog, slog);
        }
        prop_assert_eq!(bulk.snapshot(base, AREA), scalar.snapshot(base, AREA));
    }

    /// (h) The word-pair readers are observationally two scalar loads in
    /// their declared order — ascending for `load_u32_pair`, descending
    /// for `load_u32_pair_rev` — traced or not.
    #[test]
    fn word_pairs_match_scalar_loads(woff in 1u32..512, traced in any::<bool>(), mult in any::<u32>()) {
        let mut bulk = SimHeap::new();
        let base = bulk.sbrk_pages(AREA / PAGE_SIZE);
        let mut scalar = SimHeap::new();
        scalar.sbrk_pages(AREA / PAGE_SIZE);
        for w in 0..AREA / WORD {
            let v = w.wrapping_mul(mult | 1);
            bulk.store_u32(base + w * WORD, v);
            scalar.store_u32(base + w * WORD, v);
        }
        if traced {
            bulk.attach_sink(Box::new(RecordingSink::default()));
            scalar.attach_sink(Box::new(RecordingSink::default()));
        }
        let a = base + woff * WORD;
        let fwd = bulk.load_u32_pair(a);
        prop_assert_eq!(fwd, (scalar.load_u32(a), scalar.load_u32(a + WORD)));
        let rev = bulk.load_u32_pair_rev(a);
        prop_assert_eq!(rev, (scalar.load_u32(a), scalar.load_u32(a - WORD)));
        prop_assert_eq!(bulk.load_count(), scalar.load_count());
        if traced {
            let blog = bulk.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            let slog = scalar.detach_sink().unwrap().into_any().downcast::<RecordingSink>().unwrap().log;
            prop_assert_eq!(blog, slog);
        }
    }

    #[test]
    fn sbrk_never_moves_down_and_zeroes(pages in proptest::collection::vec(1u32..4, 1..12)) {
        let mut heap = SimHeap::new();
        let mut prev_brk = heap.brk();
        for p in pages {
            let got = heap.sbrk_pages(p);
            prop_assert_eq!(got, prev_brk);
            prop_assert_eq!(heap.brk() - got, p * PAGE_SIZE);
            // new memory is zeroed
            prop_assert_eq!(heap.load_u32(got), 0);
            prop_assert_eq!(heap.load_u32(heap.brk() - WORD), 0);
            prev_brk = heap.brk();
        }
    }

    #[test]
    fn word_roundtrip(vals in proptest::collection::vec(any::<u32>(), 1..64)) {
        let mut heap = SimHeap::new();
        let base = heap.sbrk_pages(1);
        for (i, v) in vals.iter().enumerate() {
            heap.store_u32(base + (i as u32) * WORD, *v);
        }
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(heap.load_u32(base + (i as u32) * WORD), *v);
            prop_assert_eq!(heap.load_addr(base + (i as u32) * WORD), Addr::new(*v));
        }
    }
}

// ---------------------------------------------------------------------
// Sharded-space properties (DESIGN §15): a single-worker shard is
// observationally a SimHeap, and the canonical per-worker event merge
// is independent of how worker streams interleave in wall-clock time.
// ---------------------------------------------------------------------

use simheap::{HeapBackend, SharedEventLog, SharedSpace, SpaceConfig};

/// Heap traffic phrased purely through the `HeapBackend` trait, so the
/// same script drives a `SimHeap` and a `HeapShard`.
#[derive(Debug, Clone)]
enum TraitOp {
    Store { woff: u32, val: u32 },
    Load { woff: u32 },
    Fill { off: u32, len: u32, byte: u8 },
    Range { woff: u32, len: u32 },
}

fn trait_op_strategy() -> impl Strategy<Value = TraitOp> {
    prop_oneof![
        (0..AREA / WORD, any::<u32>()).prop_map(|(woff, val)| TraitOp::Store { woff, val }),
        (0..AREA / WORD).prop_map(|woff| TraitOp::Load { woff }),
        (0..AREA - 64, 0u32..64, any::<u8>()).prop_map(|(off, len, byte)| TraitOp::Fill {
            off,
            len,
            byte
        }),
        (0..AREA / WORD - 16, 1u32..16).prop_map(|(woff, len)| TraitOp::Range { woff, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A one-worker shard answers every trait-level access — values,
    /// counters, and the traced event stream — exactly like a private
    /// `SimHeap`: the W=1 golden-parity contract, as a property.
    #[test]
    fn single_worker_shard_is_a_simheap(
        ops in proptest::collection::vec(trait_op_strategy(), 1..100),
        traced in any::<bool>(),
    ) {
        let mut sim = SimHeap::new();
        let space = SharedSpace::new(SpaceConfig { max_bytes: 64 * 1024 * 1024, workers: 1 });
        let mut shard = space.shard(0);
        let base_s = sim.sbrk_pages(AREA / PAGE_SIZE);
        let base_h = HeapBackend::sbrk_pages(&mut shard, AREA / PAGE_SIZE);
        prop_assert_eq!(base_s, base_h);
        if traced {
            sim.attach_sink(Box::new(EventRecordingSink::default()));
            shard.attach_sink(Box::new(EventRecordingSink::default()));
        }
        for op in &ops {
            match *op {
                TraitOp::Store { woff, val } => {
                    HeapBackend::store_u32(&mut sim, base_s + woff * WORD, val);
                    HeapBackend::store_u32(&mut shard, base_h + woff * WORD, val);
                }
                TraitOp::Load { woff } => {
                    let a = HeapBackend::load_u32(&mut sim, base_s + woff * WORD);
                    let b = HeapBackend::load_u32(&mut shard, base_h + woff * WORD);
                    prop_assert_eq!(a, b);
                }
                TraitOp::Fill { off, len, byte } => {
                    HeapBackend::fill(&mut sim, base_s + off, len, byte);
                    HeapBackend::fill(&mut shard, base_h + off, len, byte);
                }
                TraitOp::Range { woff, len } => {
                    HeapBackend::load_u32_range(&mut sim, base_s + woff * WORD, len, WORD);
                    HeapBackend::load_u32_range(&mut shard, base_h + woff * WORD, len, WORD);
                    for i in woff..woff + len {
                        prop_assert_eq!(
                            HeapBackend::peek_u32(&sim, base_s + i * WORD),
                            HeapBackend::peek_u32(&shard, base_h + i * WORD)
                        );
                    }
                }
            }
        }
        prop_assert_eq!(HeapBackend::load_count(&sim), HeapBackend::load_count(&shard));
        prop_assert_eq!(HeapBackend::store_count(&sim), HeapBackend::store_count(&shard));
        prop_assert_eq!(HeapBackend::brk(&sim), HeapBackend::brk(&shard));
        if traced {
            let a = sim.detach_sink().unwrap().into_any().downcast::<EventRecordingSink>().unwrap().log;
            let b = shard.detach_sink().unwrap().into_any().downcast::<EventRecordingSink>().unwrap().log;
            prop_assert_eq!(a, b);
        }
    }

    /// The canonical (worker, seq) merge of per-worker sink streams is
    /// bit-identical however the workers' pushes interleave: any seeded
    /// shuffle of the global arrival order — with per-worker order
    /// preserved, as the stamping sink guarantees — merges to the same
    /// stream and digest.
    #[test]
    fn canonical_merge_is_schedule_independent(
        workers in 1u32..=4,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        per_worker in 4u32..40,
    ) {
        use simheap::AccessSink;
        // Deterministic per-worker access scripts.
        let script = |w: u32, i: u32| {
            let addr = PAGE_SIZE + (w * 1024 + i) * WORD;
            if i % 3 == 0 { Access::read(addr, WORD as u8) } else { Access::write(addr, WORD as u8) }
        };
        let run = |order_seed: u64| {
            let log = SharedEventLog::new();
            let mut sinks: Vec<_> = (0..workers).map(|w| log.sink(w)).collect();
            let mut next = vec![0u32; workers as usize];
            // A seeded interleaving: xorshift picks which worker emits
            // its next event until all scripts are exhausted.
            let mut state = order_seed | 1;
            let total = workers * per_worker;
            for _ in 0..total {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let mut w = (state % u64::from(workers)) as u32;
                while next[w as usize] == per_worker {
                    w = (w + 1) % workers;
                }
                sinks[w as usize].access(script(w, next[w as usize]));
                next[w as usize] += 1;
            }
            (log.merged(), log.digest())
        };
        let (merged_a, digest_a) = run(seed_a);
        let (merged_b, digest_b) = run(seed_b);
        prop_assert_eq!(&merged_a, &merged_b);
        prop_assert_eq!(digest_a, digest_b);
        // The merge really is (worker, seq)-ordered.
        for pair in merged_a.windows(2) {
            prop_assert!((pair[0].worker, pair[0].seq) < (pair[1].worker, pair[1].seq));
        }
        // And per-worker event counts survive the merge.
        for w in 0..workers {
            let n = merged_a.iter().filter(|e| e.worker == w).count() as u32;
            prop_assert_eq!(n, per_worker);
        }
    }
}
