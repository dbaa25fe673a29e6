//! Property tests for bounded-pause incremental `deleteregion`: running
//! every deletion of an arbitrary valid op sequence through an arbitrary
//! work budget (including budget = 1) must be observationally identical
//! to the unbounded budget, where each delete finishes in one increment
//! — same final snapshot bytes (hence same heap image, counters, stats,
//! costs and fault-plan progress), same violations, same refused-scan
//! attribution, same `sanitize()` verdict — and the books must audit
//! clean at **every increment boundary**. A second battery kills the
//! process at sampled increment boundaries (`capture_snapshot` of the
//! parked deletion phase), restores, resumes the in-flight deletion,
//! replays the suffix, and must converge to the same bytes. Both
//! batteries run fault-free and under a seeded injected-fault schedule.

use proptest::prelude::*;
use region_core::{
    DeleteProgress, DescId, FaultPlan, RegionError, RegionId, RegionRuntime, TypeDescriptor,
};
use simheap::Addr;

#[derive(Debug, Clone)]
enum Op {
    New,
    Alloc { region: usize },
    Str { region: usize },
    Link { from: usize, to: usize },
    SetGlobal { g: usize, obj: usize },
    PushFrame,
    SetLocal { slot: usize, obj: usize },
    PopFrame,
    Delete { region: usize },
}

const NGLOBALS: usize = 2;
const FRAME_SLOTS: u32 = 3;

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(Op::New),
            6 => any::<usize>().prop_map(|region| Op::Alloc { region }),
            2 => any::<usize>().prop_map(|region| Op::Str { region }),
            3 => (any::<usize>(), any::<usize>()).prop_map(|(from, to)| Op::Link { from, to }),
            2 => (0..NGLOBALS, any::<usize>()).prop_map(|(g, obj)| Op::SetGlobal { g, obj }),
            2 => Just(Op::PushFrame),
            2 => (any::<usize>(), any::<usize>()).prop_map(|(slot, obj)| Op::SetLocal { slot, obj }),
            1 => Just(Op::PopFrame),
            4 => any::<usize>().prop_map(|region| Op::Delete { region }),
        ],
        1..40,
    )
}

/// A parked-deletion increment boundary observed while replaying the op
/// sequence: everything needed to simulate a kill there and resume.
struct Boundary {
    image: Vec<u8>,
    victim: RegionId,
    /// Index of the `Delete` op whose drain was interrupted; replay
    /// resumes the drain, then applies `ops[next_op..]`.
    next_op: usize,
    live: Vec<RegionId>,
    objs: Vec<Addr>,
    frames: usize,
}

/// Deterministic replay driver, in the mold of `snapshot_props.rs`. Every
/// `Delete` op drains the region through `try_delete_region_step`,
/// auditing the books at every increment boundary and offering each
/// boundary to `on_boundary`; at `budget == u64::MAX` the first
/// increment finishes and there is no boundary.
struct World {
    rt: RegionRuntime,
    node: DescId,
    globals: Addr,
    live: Vec<RegionId>,
    objs: Vec<Addr>,
    frames: usize,
    budget: u64,
    boundaries_seen: u64,
}

impl World {
    fn new(plan: Option<FaultPlan>, budget: u64) -> World {
        let mut rt = RegionRuntime::new_safe();
        let node = rt.register_type(TypeDescriptor::new("node", 8, vec![4]));
        let globals = rt.alloc_globals(4 * NGLOBALS as u32);
        if let Some(plan) = plan {
            rt.set_fault_plan(plan);
        }
        rt.set_delete_budget(budget);
        World { rt, node, globals, live: Vec::new(), objs: Vec::new(), frames: 0, budget, boundaries_seen: 0 }
    }

    /// Rebuilds a world around a restored runtime, adopting the host-side
    /// bookkeeping recorded at the kill point. The delete budget is not
    /// serialized (a restored runtime defaults to unbounded), so the
    /// driver re-arms it — exactly what `RegionRuntime::set_delete_budget`
    /// documents real drivers must do.
    fn adopt(rt: RegionRuntime, b: &Boundary, node: DescId, globals: Addr, budget: u64) -> World {
        let mut w = World {
            rt,
            node: DescId::from_index(node.index()),
            globals,
            live: b.live.clone(),
            objs: b.objs.clone(),
            frames: b.frames,
            budget,
            boundaries_seen: 0,
        };
        w.rt.set_delete_budget(budget);
        w
    }

    /// Drains one region through the budgeted state machine, auditing at
    /// every increment boundary. Returns whether the deletion succeeded
    /// (a refusal revives the region to fully live).
    fn drain(&mut self, r: RegionId, mut on_boundary: impl FnMut(&RegionRuntime, u64)) -> bool {
        loop {
            match self.rt.try_delete_region_step(r) {
                Ok(DeleteProgress::Done) => return true,
                Ok(DeleteProgress::Parked) => {
                    let rep = self.rt.sanitize();
                    assert!(
                        rep.is_clean(),
                        "budget {}: books dirty at increment boundary {}",
                        self.budget,
                        self.boundaries_seen
                    );
                    on_boundary(&self.rt, self.boundaries_seen);
                    self.boundaries_seen += 1;
                }
                Err(RegionError::DeleteBlocked { .. }) => return false,
                Err(e) => panic!("unexpected deleteregion error: {e}"),
            }
        }
    }

    fn apply(&mut self, op: &Op, mut on_boundary: impl FnMut(&RegionRuntime, RegionId, u64)) {
        match op {
            Op::New => {
                if let Ok(r) = self.rt.try_new_region() {
                    self.live.push(r);
                }
            }
            Op::Alloc { region } => {
                if self.live.is_empty() {
                    return;
                }
                let r = self.live[region % self.live.len()];
                if let Ok(a) = self.rt.try_ralloc(r, self.node) {
                    self.objs.push(a);
                }
            }
            Op::Str { region } => {
                if self.live.is_empty() {
                    return;
                }
                let r = self.live[region % self.live.len()];
                let _ = self.rt.try_rstralloc(r, 24);
            }
            Op::Link { from, to } => {
                if self.objs.is_empty() {
                    return;
                }
                let fa = self.objs[from % self.objs.len()];
                let ta = self.objs[to % self.objs.len()];
                self.rt.store_ptr_region(fa + 4, ta);
            }
            Op::SetGlobal { g, obj } => {
                if self.objs.is_empty() {
                    return;
                }
                let a = self.objs[obj % self.objs.len()];
                self.rt.store_ptr_global(self.globals + 4 * *g as u32, a);
            }
            Op::PushFrame => {
                if self.rt.try_push_frame(FRAME_SLOTS).is_ok() {
                    self.frames += 1;
                }
            }
            Op::SetLocal { slot, obj } => {
                if self.frames == 0 || self.objs.is_empty() {
                    return;
                }
                let loc = self.rt.local_addr(*slot as u32 % FRAME_SLOTS);
                let a = self.objs[obj % self.objs.len()];
                self.rt.store_ptr_unknown(loc, a);
            }
            Op::PopFrame => {
                if self.frames == 0 {
                    return;
                }
                self.rt.pop_frame();
                self.frames -= 1;
            }
            Op::Delete { region } => {
                if self.live.is_empty() {
                    return;
                }
                let r = self.live[region % self.live.len()];
                if self.drain(r, |rt, n| on_boundary(rt, r, n)) {
                    self.live.retain(|&x| x != r);
                    self.objs.clear();
                }
            }
        }
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

/// The unbounded control arm plus one budgeted arm per budget; every arm
/// must land on the same bytes, and each budgeted arm must audit clean at
/// every increment boundary along the way.
fn check_budget_equivalence(ops: &[Op], plan: Option<FaultPlan>) {
    let mut control = World::new(plan.clone(), u64::MAX);
    for op in ops {
        control.apply(op, |_, _, _| {});
    }
    let want = control.rt.capture_snapshot();
    let want_digest = fnv(&want);
    let want_stats = *control.rt.stats();
    let want_clean = control.rt.sanitize().is_clean();

    for budget in [1u64, 2, 3, 7, 64] {
        let mut w = World::new(plan.clone(), budget);
        for op in ops {
            w.apply(op, |_, _, _| {});
        }
        let got = w.rt.capture_snapshot();
        assert_eq!(
            fnv(&got),
            want_digest,
            "budget {budget}: digest diverged from unbounded (after {} boundaries)",
            w.boundaries_seen
        );
        assert_eq!(got, want, "budget {budget}: snapshot bytes diverged");
        assert_eq!(*w.rt.stats(), want_stats, "budget {budget}: stats diverged");
        assert_eq!(
            w.rt.costs(),
            control.rt.costs(),
            "budget {budget}: safety costs diverged"
        );
        assert_eq!(
            w.rt.scan_attribution(),
            control.rt.scan_attribution(),
            "budget {budget}: refused-scan attribution diverged"
        );
        assert_eq!(
            w.rt.violations(),
            control.rt.violations(),
            "budget {budget}: recorded violations diverged"
        );
        assert_eq!(
            w.rt.sanitize().is_clean(),
            want_clean,
            "budget {budget}: sanitize verdict diverged"
        );
    }
}

/// Kill-at-increment-boundary battery: replay the sequence with a finite
/// budget, snapshot at every parked boundary (the snapshot carries the
/// parked deletion phase), then for each boundary restore into a fresh
/// runtime, re-arm the budget, resume the interrupted drain, replay the
/// remaining ops, and demand convergence on the straight-through bytes.
fn check_kill_at_every_boundary(ops: &[Op], budget: u64, plan: Option<FaultPlan>) {
    let mut straight = World::new(plan.clone(), budget);
    let node = straight.node;
    let globals = straight.globals;
    let mut boundaries: Vec<Boundary> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        // Borrow the bookkeeping before the drain mutates it: a parked
        // boundary sees the victim still in `live` and `objs` intact.
        let (live, objs, frames) = (straight.live.clone(), straight.objs.clone(), straight.frames);
        straight.apply(op, |rt, victim, _| {
            // Cap the battery: every boundary of small runs, a sample of
            // long ones. Determinism comes from the count, not a clock.
            if boundaries.len() < 24 {
                boundaries.push(Boundary {
                    image: rt.capture_snapshot(),
                    victim,
                    next_op: i + 1,
                    live: live.clone(),
                    objs: objs.clone(),
                    frames,
                });
            }
        });
    }
    let want = straight.rt.capture_snapshot();
    let want_stats = *straight.rt.stats();

    for (k, b) in boundaries.iter().enumerate() {
        let restored = RegionRuntime::restore_snapshot(&b.image)
            .expect("mid-deletion snapshot must restore (parked deletion phase)");
        assert!(
            restored.sanitize().is_clean(),
            "kill at boundary {k}: restored books dirty"
        );
        let mut post = World::adopt(restored, b, node, globals, budget);
        // Resume the interrupted deletion exactly where the kill landed.
        let ok = post.drain(b.victim, |_, _| {});
        if ok {
            post.live.retain(|&x| x != b.victim);
            post.objs.clear();
        }
        for op in &ops[b.next_op..] {
            post.apply(op, |_, _, _| {});
        }
        let got = post.rt.capture_snapshot();
        assert_eq!(
            got, want,
            "kill at boundary {k}/{}: resumed replay diverged from straight-through",
            boundaries.len()
        );
        assert_eq!(*post.rt.stats(), want_stats, "kill at boundary {k}: stats diverged");
        assert_eq!(
            post.rt.violations(),
            straight.rt.violations(),
            "kill at boundary {k}: recorded violations diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Deletion under any budget — including one unit of work per
    /// increment — is byte-identical to the unbounded budget, and the
    /// books audit clean at every increment boundary.
    #[test]
    fn any_budget_matches_unbounded(ops in ops()) {
        check_budget_equivalence(&ops, None);
    }

    /// Same, with an injected-fault schedule running: faults land on the
    /// same allocations on both arms because deletion increments consume
    /// no fault-plan progress.
    #[test]
    fn any_budget_matches_unbounded_under_faults(ops in ops(), seed in 1u64..1_000) {
        let plan = FaultPlan::seeded(seed).fail_every_mth_alloc(7).fail_allocs_one_in(13);
        check_budget_equivalence(&ops, Some(plan));
    }

    /// Kill-and-restore at every parked increment boundary resumes the
    /// in-flight deletion and converges on the straight-through bytes.
    #[test]
    fn kill_at_any_increment_boundary_resumes_exactly(ops in ops(), budget in 1u64..6) {
        check_kill_at_every_boundary(&ops, budget, None);
    }

    /// Same, with the kill landing inside a fault window: the restored
    /// fault-plan progress and the parked deletion phase replay
    /// together.
    #[test]
    fn kill_at_any_increment_boundary_resumes_exactly_under_faults(
        ops in ops(),
        budget in 1u64..6,
        seed in 1u64..1_000,
    ) {
        let plan = FaultPlan::seeded(seed).fail_every_mth_alloc(9).fail_allocs_one_in(17);
        check_kill_at_every_boundary(&ops, budget, Some(plan));
    }

    /// Allocating into a parked (doomed) region is refused with a typed
    /// error and is free of heap side effects; the drain then completes
    /// and the books audit clean. Fault-free on purpose: the probe
    /// consumes fault-plan progress, so it cannot ride the equivalence
    /// arms above.
    #[test]
    fn alloc_into_doomed_region_is_refused_and_harmless(ops in ops(), extra in 1usize..12) {
        let mut w = World::new(None, 1);
        for op in ops {
            w.apply(&op, |_, _, _| {});
        }
        // Manufacture a victim with enough contents to park for sure.
        let r = match w.rt.try_new_region() {
            Ok(r) => r,
            Err(_) => return Ok(()),
        };
        for _ in 0..extra {
            let _ = w.rt.try_ralloc(r, w.node);
        }
        let stats_before_probe = match w.rt.try_delete_region_step(r) {
            Ok(DeleteProgress::Done) => return Ok(()), // empty enough to finish in one unit
            Ok(DeleteProgress::Parked) => *w.rt.stats(),
            Err(e) => panic!("fresh unreferenced region must park, got {e}"),
        };
        match w.rt.try_ralloc(r, w.node) {
            Err(RegionError::RegionDoomed { region }) => prop_assert_eq!(region, r),
            other => panic!("alloc into doomed region must be typed-refused, got {other:?}"),
        }
        match w.rt.try_rstralloc(r, 16) {
            Err(RegionError::RegionDoomed { region }) => prop_assert_eq!(region, r),
            other => panic!("stralloc into doomed region must be typed-refused, got {other:?}"),
        }
        prop_assert_eq!(*w.rt.stats(), stats_before_probe, "refused probe had side effects");
        prop_assert!(w.drain(r, |_, _| {}), "unreferenced victim must finish deleting");
        prop_assert!(w.rt.sanitize().is_clean());
    }
}
