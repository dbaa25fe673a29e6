//! The safe-mode hot path makes no host allocation.
//!
//! A counting `#[global_allocator]` tallies every allocation made on the
//! calling thread (a thread-local count, so the test harness's other
//! threads cannot disturb it). On a warmed `RegionRuntime<HeapShard>`
//! each of these must allocate nothing:
//!
//! - a budgeted `try_delete_region_step` that starts and parks inside the
//!   Figure 7 cleanup walk, over two-pointer objects and one all-null
//!   single-pointer array (the bulk-load arm);
//! - a steady-state `try_ralloc` that takes no new page;
//! - a `store_ptr_region` that moves counts between two regions.
//!
//! The counts are exact, not timed, so the result is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use region_core::{DeleteProgress, RegionConfig, RegionRuntime, TypeDescriptor};
use simheap::{Addr, HeapShard, SharedSpace, SpaceConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count is a const-
// initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Host allocations `f` makes on this thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn shard_runtime() -> RegionRuntime<HeapShard> {
    let space = SharedSpace::new(SpaceConfig { max_bytes: 64 << 20, workers: 1 });
    RegionRuntime::with_config_on(RegionConfig::default(), space.shard(0))
}

#[test]
fn safe_hot_path_makes_no_host_allocation() {
    let mut rt = shard_runtime();
    let pair = rt.register_type(TypeDescriptor::new("pair", 12, vec![0, 4]));
    let cell = rt.register_type(TypeDescriptor::new("cell", 4, vec![0]));
    let doomed = rt.new_region();
    let other = rt.new_region();
    let keep = rt.ralloc(other, pair);
    rt.push_frame(1);

    // 30 pairs, then a 16-cell array nobody links, then 70 more pairs.
    // Every pair points at `keep` (a count on `other`) and at the pair
    // before it (a same-region pointer the walk skips).
    let mut prev = Addr::NULL;
    let mut link = |rt: &mut RegionRuntime<HeapShard>, n: u32| {
        for _ in 0..n {
            let p = rt.ralloc(doomed, pair);
            rt.store_ptr_region(p, keep);
            rt.store_ptr_region(p + 4, prev);
            prev = p;
        }
    };
    link(&mut rt, 30);
    rt.rarrayalloc(doomed, 16, cell);
    link(&mut rt, 70);

    // Steady-state ralloc: the region's current page has room.
    let (obj, n) = allocs_during(|| rt.try_ralloc(other, pair));
    let obj = obj.unwrap();
    assert_eq!(n, 0, "steady-state try_ralloc allocated {n} times");

    // Barriered store moving a count from `other` to `doomed` and back.
    let (_, n) = allocs_during(|| {
        rt.store_ptr_region(obj, prev);
        rt.store_ptr_region(obj, keep);
    });
    assert_eq!(n, 0, "store_ptr_region allocated {n} times");

    // First increment: scan the one frame, check the count, set up the
    // mark stack and walk 21 pairs. It may allocate (the mark stack).
    rt.set_delete_budget(64);
    assert_eq!(rt.try_delete_region_step(doomed), Ok(DeleteProgress::Parked));
    let before = *rt.costs();
    assert_eq!(before.cleanup_objects, 21, "the first increment parks inside cleanup");

    // Second increment: starts and parks inside the cleanup walk and
    // crosses the all-null array.
    let (progress, n) = allocs_during(|| rt.try_delete_region_step(doomed));
    assert_eq!(progress, Ok(DeleteProgress::Parked));
    let after = *rt.costs();
    let objects = after.cleanup_objects - before.cleanup_objects;
    assert_eq!(objects, 17, "9 pairs, the array, 7 pairs");
    assert_eq!(
        after.cleanup_ptrs - before.cleanup_ptrs,
        2 * (objects - 1) + 16,
        "the increment walked the array's 16 null cells"
    );
    assert_eq!(n, 0, "a cleanup increment allocated {n} times");

    while rt.try_delete_region_step(doomed) == Ok(DeleteProgress::Parked) {}
    assert!(!rt.is_live(doomed));
    assert!(rt.sanitize().is_clean(), "{:?}", rt.sanitize());
}
