//! The shadow stack of region-pointer locals and its deferred reference
//! counting (§4.2.1 and §4.2.3 of the paper).
//!
//! Maintaining exact reference counts on every write to a local variable
//! would be ruinously expensive, so the paper defers them: the counts
//! stored with each region reflect only the pointers held by frames
//! "above" a **high-water mark**; frames pushed since then are not
//! reflected at all. The invariant
//!
//! > (*) the number of frames below the high-water mark is always at
//! > least one
//!
//! guarantees that ordinary writes to locals (always in the newest frame)
//! never need count updates. When `deleteregion` needs an exact count it
//! *scans* the unscanned portion of the stack, incrementing counts for
//! every live region-pointer local, and moves the mark. A scanned frame is
//! *unscanned* — its contributions removed — lazily, when control returns
//! to it (the paper patches return addresses; we check a flag on pop).
//!
//! The paper's stack grows downward on SPARC; ours grows upward, so
//! "below the high-water mark" in the paper reads "at or past the mark's
//! frame index" here. Frames `[0, hwm)` are scanned.
//!
//! `deleteregion` itself runs as if in a fresh callee frame: the scan
//! covers *every* caller frame (so a caller's live pointer into the dying
//! region correctly blocks deletion), and returning from `deleteregion`
//! immediately unscans the caller's frame, restoring the invariant.

use simheap::{Addr, HeapBackend, WORD};

use crate::costs::{SCAN_FRAME_INSTRS, SCAN_SLOT_INSTRS};
use crate::error::RegionError;
use crate::runtime::{Frame, RegionRuntime};

impl<H: HeapBackend> RegionRuntime<H> {
    /// Pushes a frame with `n_slots` region-pointer locals, all initialized
    /// to null (C@ requires initialization of all locals that contain
    /// region pointers, §3.1). Fails without side effects when the shadow
    /// stack is full.
    pub fn try_push_frame(&mut self, n_slots: u32) -> Result<(), RegionError> {
        if self.top_slot + n_slots > self.stack_slots {
            return Err(RegionError::StackOverflow { slots: self.stack_slots });
        }
        let base_slot = self.top_slot;
        for i in 0..n_slots {
            let addr = self.slot_addr(base_slot + i);
            self.heap_mut().store_addr(addr, Addr::NULL);
        }
        self.frames.push(Frame { base_slot, n_slots });
        self.top_slot += n_slots;
        Ok(())
    }

    /// Panicking form of [`RegionRuntime::try_push_frame`].
    ///
    /// # Panics
    ///
    /// Panics on shadow-stack overflow.
    pub fn push_frame(&mut self, n_slots: u32) {
        self.try_push_frame(n_slots).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pops the newest frame. If control thereby returns to a *scanned*
    /// frame, that frame is unscanned: the reference counts contributed by
    /// its locals are removed and the high-water mark moves up (§4.2.3's
    /// patched return addresses).
    ///
    /// # Panics
    ///
    /// Panics if no frame is live.
    pub fn pop_frame(&mut self) {
        let f = self.frames.pop().expect("pop_frame with no live frame");
        debug_assert!(self.hwm <= self.frames.len(), "popped a scanned frame");
        self.top_slot = f.base_slot;
        if self.is_safe() {
            self.unscan_top();
        }
    }

    /// Number of live frames.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of scanned frames (frames whose locals are reflected in
    /// region reference counts). Exposed for tests and diagnostics.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// The address of slot `slot` of the newest frame — what `&x` yields
    /// for a region-pointer local `x`. Writes through this address must
    /// use [`RegionRuntime::store_ptr_unknown`].
    ///
    /// # Panics
    ///
    /// Panics if no frame is live or the slot is out of range.
    pub fn local_addr(&self, slot: u32) -> Addr {
        let f = self.frames.last().expect("no live frame");
        assert!(slot < f.n_slots, "slot {slot} out of range ({} slots)", f.n_slots);
        self.slot_addr(f.base_slot + slot)
    }

    pub(crate) fn slot_addr(&self, abs_slot: u32) -> Addr {
        self.stack_base + abs_slot * WORD
    }

    /// Writes a region pointer into a local of the newest frame. **No
    /// reference counts are touched** — this is the entire point of the
    /// deferred scheme: "writes to local variables never update reference
    /// counts" (§4.2.1).
    pub fn set_local(&mut self, slot: u32, value: Addr) {
        debug_assert!(
            self.frames.is_empty() || self.hwm < self.frames.len(),
            "invariant (*) violated: newest frame is scanned"
        );
        let addr = self.local_addr(slot);
        self.heap_mut().store_addr(addr, value);
    }

    /// Reads a region pointer from a local of the newest frame.
    pub fn get_local(&mut self, slot: u32) -> Addr {
        let addr = self.local_addr(slot);
        self.heap_mut().load_addr(addr)
    }

    /// Scans exactly one frame — the oldest unscanned one — incrementing
    /// the count of every region its locals point into, and advances the
    /// high-water mark past it (§4.2.1). One work unit of the
    /// `deleteregion` scan phase, which calls it until every frame —
    /// including the newest — is scanned; `deleteregion` restores the
    /// invariant with [`RegionRuntime::unscan_top`] on return. Returns
    /// the frame's slot count.
    ///
    /// The caller must ensure an unscanned frame exists.
    pub(crate) fn scan_one_frame(&mut self) -> u32 {
        debug_assert!(self.hwm < self.frames.len(), "scan_one_frame with nothing to scan");
        let Frame { base_slot, n_slots } = self.frames[self.hwm];
        self.costs_mut().frames_scanned += 1;
        self.costs_mut().slots_scanned += u64::from(n_slots);
        self.costs_mut().scan_instrs += SCAN_FRAME_INSTRS + u64::from(n_slots) * SCAN_SLOT_INSTRS;
        for s in 0..n_slots {
            let addr = self.slot_addr(base_slot + s);
            let v = self.heap_mut().load_addr(addr);
            if let Some(region) = self.region_of(v) {
                self.inc_rc(region);
            }
        }
        self.hwm += 1;
        n_slots
    }

    /// If the newest frame is scanned, removes its locals' contributions
    /// from the reference counts and moves the high-water mark above it.
    pub(crate) fn unscan_top(&mut self) {
        if self.frames.is_empty() || self.hwm < self.frames.len() {
            return;
        }
        let Frame { base_slot, n_slots } = self.frames[self.frames.len() - 1];
        self.costs_mut().frames_unscanned += 1;
        self.costs_mut().slots_unscanned += u64::from(n_slots);
        self.costs_mut().scan_instrs += SCAN_FRAME_INSTRS + u64::from(n_slots) * SCAN_SLOT_INSTRS;
        for s in 0..n_slots {
            let addr = self.slot_addr(base_slot + s);
            let v = self.heap_mut().load_addr(addr);
            if let Some(region) = self.region_of(v) {
                self.dec_rc(region);
            }
        }
        self.hwm = self.frames.len() - 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::descriptor::TypeDescriptor;
    use crate::runtime::RegionRuntime;
    use simheap::Addr;

    fn setup() -> (RegionRuntime, crate::descriptor::DescId) {
        let mut rt = RegionRuntime::new_safe();
        let d = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
        (rt, d)
    }

    #[test]
    fn local_writes_do_not_touch_counts() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(2);
        rt.set_local(0, a);
        rt.set_local(1, a);
        assert_eq!(rt.rc(r), 0, "deferred: locals are not counted eagerly");
        assert_eq!(rt.get_local(0), a);
        rt.pop_frame();
    }

    #[test]
    fn live_local_blocks_deletion() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1);
        rt.set_local(0, a);
        assert!(!rt.delete_region(r), "stack scan must find the live local");
        assert!(rt.is_live(r));
        rt.set_local(0, Addr::NULL); // clear the stale pointer (as tile required)
        assert!(rt.delete_region(r));
        rt.pop_frame();
    }

    #[test]
    fn invariant_restored_after_delete() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1);
        rt.set_local(0, a);
        assert!(!rt.delete_region(r));
        // The newest frame must be unscanned again (invariant *), so local
        // writes remain count-free.
        assert!(rt.high_water_mark() < rt.frame_depth());
        rt.set_local(0, Addr::NULL);
        assert_eq!(rt.rc(r), 0);
        rt.pop_frame();
        assert!(rt.delete_region(r));
    }

    #[test]
    fn return_into_scanned_frame_unscans_it() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1); // caller frame
        rt.set_local(0, a);
        rt.push_frame(1); // callee frame
        assert!(!rt.delete_region(r), "caller's local blocks deletion");
        // Caller frame is now scanned: rc reflects its local.
        assert_eq!(rt.high_water_mark(), 1);
        assert_eq!(rt.rc(r), 1);
        rt.pop_frame(); // return into the scanned caller frame
        assert_eq!(rt.high_water_mark(), 0, "unscan moved the mark");
        assert_eq!(rt.rc(r), 0, "unscan removed the contribution");
        // The caller still *holds* the pointer, so deletion keeps failing
        // (a rescan finds it) until the local is cleared.
        assert!(!rt.delete_region(r));
        rt.set_local(0, Addr::NULL);
        assert!(rt.delete_region(r));
        rt.pop_frame();
        assert_eq!(rt.frame_depth(), 0);
    }

    #[test]
    fn scan_and_unscan_costs_are_counted() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(3);
        rt.set_local(1, a);
        rt.push_frame(2);
        assert!(!rt.delete_region(r));
        let c = *rt.costs();
        // Scan covered both frames (3 + 2 slots); the immediate unscan of
        // the newest frame covered 2 slots.
        assert_eq!(c.frames_scanned, 2);
        assert_eq!(c.slots_scanned, 5);
        assert_eq!(c.frames_unscanned, 1);
        assert_eq!(c.slots_unscanned, 2);
        assert!(c.scan_instrs > 0);
        rt.pop_frame(); // unscans the caller frame (scanned earlier)
        assert_eq!(rt.costs().frames_unscanned, 2);
        rt.pop_frame();
    }

    #[test]
    fn writes_through_pointers_to_scanned_locals_are_counted() {
        let (mut rt, d) = setup();
        let r1 = rt.new_region();
        let r2 = rt.new_region();
        let a = rt.ralloc(r1, d);
        let b = rt.ralloc(r2, d);
        rt.push_frame(1);
        rt.set_local(0, a);
        let p = rt.local_addr(0); // &local escapes to a callee
        rt.push_frame(1);
        assert!(!rt.delete_region(r1)); // caller frame now scanned
        assert_eq!(rt.rc(r1), 1);
        // The callee writes *p = b: the slot lives in a scanned frame, so
        // counts must move from r1 to r2.
        rt.store_ptr_unknown(p, b);
        assert_eq!(rt.rc(r1), 0);
        assert_eq!(rt.rc(r2), 1);
        rt.pop_frame(); // unscan caller: removes r2 contribution
        assert_eq!(rt.rc(r2), 0);
        rt.pop_frame();
        assert!(rt.delete_region(r1));
        assert!(rt.delete_region(r2));
    }

    #[test]
    fn writes_through_pointers_to_unscanned_locals_are_free() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1);
        let p = rt.local_addr(0);
        rt.store_ptr_unknown(p, a); // unscanned frame: plain store
        assert_eq!(rt.rc(r), 0);
        assert_eq!(rt.get_local(0), a);
        rt.pop_frame();
    }

    #[test]
    fn frames_are_null_initialized() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1);
        rt.set_local(0, a);
        rt.pop_frame();
        rt.push_frame(1); // reuses the same slot memory
        assert!(rt.get_local(0).is_null(), "fresh frames must be cleared");
        assert!(rt.delete_region(r), "no stale pointer may linger");
        rt.pop_frame();
    }

    #[test]
    fn deep_scan_covers_all_frames() {
        let (mut rt, d) = setup();
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        for _ in 0..10 {
            rt.push_frame(1);
        }
        // Plant the pointer in the oldest frame via direct slot write
        // (simulating it having been set when that frame was newest).
        rt.push_frame(0);
        // oldest frame's slot is absolute slot 0
        let slot0 = rt.slot_addr(0);
        rt.store_ptr_unknown(slot0, a);
        assert!(!rt.delete_region(r));
        assert_eq!(rt.rc(r), 1);
        for _ in 0..11 {
            rt.pop_frame();
        }
        assert_eq!(rt.rc(r), 0);
        assert!(rt.delete_region(r));
    }

    #[test]
    #[should_panic(expected = "simulated stack overflow")]
    fn stack_overflow_panics() {
        let mut rt = RegionRuntime::new_safe();
        loop {
            rt.push_frame(4096);
        }
    }

    #[test]
    #[should_panic(expected = "no live frame")]
    fn pop_without_frame_panics() {
        let mut rt = RegionRuntime::new_safe();
        rt.pop_frame();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_slot_panics() {
        let mut rt = RegionRuntime::new_safe();
        rt.push_frame(1);
        rt.set_local(1, Addr::NULL);
    }

    #[test]
    fn unsafe_mode_stack_is_inert() {
        let mut rt = RegionRuntime::new_unsafe();
        let d = rt.register_type(TypeDescriptor::new("list", 8, vec![4]));
        let r = rt.new_region();
        let a = rt.ralloc(r, d);
        rt.push_frame(1);
        rt.set_local(0, a);
        assert_eq!(rt.get_local(0), a);
        assert!(rt.delete_region(r), "unsafe: no scan, deletion unconditional");
        assert_eq!(rt.costs().scan_instrs, 0);
        rt.pop_frame();
    }
}
