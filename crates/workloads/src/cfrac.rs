//! `cfrac` — factoring a large integer with multiprecision arithmetic
//! (§5.1).
//!
//! The original cfrac factors with the continued-fraction method and
//! reclaims its bignums with hand-rolled reference counting; the paper's
//! region port "creates a region for temporary computations for every
//! few iterations of the main algorithm. Partial solutions are copied
//! from this region to a solution region so that old temporary regions
//! can be deleted."
//!
//! We keep the substance — an arbitrary-precision integer substrate
//! living in the simulated heap, where every arithmetic operation
//! allocates — and drive it with Pollard's rho (with batched gcd), which
//! factors the same kind of semiprimes with the same allocation
//! behaviour but in far less code than a full CFRAC with its factor
//! base and Gaussian elimination (see DESIGN.md §4 for this
//! substitution). The region structure is exactly the paper's: a
//! temporary region rotated every few iterations, survivors copied
//! forward.
//!
//! Bignums are base-2¹⁶ limb arrays: `[len][limb0][limb1]...`, one limb
//! per 32-bit word, pointer-free (so regions place them with
//! `rstralloc`).

use simheap::{Addr, SimHeap};

use crate::env::{MallocEnv, RegionEnv};
use crate::util::Checksum;

/// The numbers factored at each scale: products of two primes sized so
/// rho's running time grows with scale.
fn semiprime(scale: u32) -> (u64, u64) {
    match scale {
        0 | 1 => (10_007, 10_009),
        2 => (100_003, 100_019),
        3 => (1_000_003, 1_000_033),
        4 => (4_000_037, 4_000_079),
        _ => (15_485_863, 15_485_867),
    }
}

/// How memory is managed for bignum temporaries — the only thing that
/// differs between the program variants (the paper's cfrac diff is 149
/// lines out of 4203 for the same reason: the arithmetic is untouched).
trait Mem {
    /// Allocates an uninitialized bignum of `limbs` limbs.
    fn alloc(&mut self, limbs: u32) -> Addr;
    /// Declares a bignum dead (freed under malloc, ignored by regions
    /// and the collector).
    fn dead(&mut self, a: Addr);
    /// Keeps a value reachable across the next allocation (a GC root
    /// slot; ignored elsewhere). Slots 8..16 are reserved for the
    /// arithmetic internals.
    fn keep(&mut self, slot: u32, a: Addr);
    /// The heap the limbs live in.
    fn heap(&mut self) -> &mut SimHeap;
}

// ---- shared arithmetic (identical in both variants, like cfrac's
// untouched 4000 lines) ----

fn len_of(heap: &mut SimHeap, a: Addr) -> u32 {
    heap.load_u32(a)
}

fn limb(heap: &mut SimHeap, a: Addr, i: u32) -> u32 {
    heap.load_u32(a + 4 + i * 4)
}

fn set_limb(heap: &mut SimHeap, a: Addr, i: u32, v: u32) {
    debug_assert!(v <= 0xFFFF);
    heap.store_u32(a + 4 + i * 4, v);
}

/// Trims the stored length below leading zero limbs.
fn normalize(heap: &mut SimHeap, a: Addr) {
    let mut len = len_of(heap, a);
    while len > 1 && limb(heap, a, len - 1) == 0 {
        len -= 1;
    }
    heap.store_u32(a, len);
}

fn from_u64<M: Mem>(m: &mut M, mut v: u64) -> Addr {
    let a = m.alloc(4);
    m.heap().store_u32(a, 4);
    for i in 0..4 {
        set_limb(m.heap(), a, i, (v & 0xFFFF) as u32);
        v >>= 16;
    }
    normalize(m.heap(), a);
    a
}

/// Reads a bignum that fits in 128 bits (tests and checksums).
fn to_u128(heap: &mut SimHeap, a: Addr) -> u128 {
    let len = len_of(heap, a);
    assert!(len <= 8, "bignum too large for u128 readout");
    let mut v: u128 = 0;
    for i in (0..len).rev() {
        v = (v << 16) | u128::from(limb(heap, a, i));
    }
    v
}

/// -1 / 0 / +1 for a < b / a == b / a > b.
fn cmp(heap: &mut SimHeap, a: Addr, b: Addr) -> i32 {
    let (la, lb) = (len_of(heap, a), len_of(heap, b));
    if la != lb {
        return if la < lb { -1 } else { 1 };
    }
    for i in (0..la).rev() {
        let (x, y) = (limb(heap, a, i), limb(heap, b, i));
        if x != y {
            return if x < y { -1 } else { 1 };
        }
    }
    0
}

fn is_zero(heap: &mut SimHeap, a: Addr) -> bool {
    len_of(heap, a) == 1 && limb(heap, a, 0) == 0
}

fn is_even(heap: &mut SimHeap, a: Addr) -> bool {
    limb(heap, a, 0) & 1 == 0
}

fn is_one(heap: &mut SimHeap, a: Addr) -> bool {
    len_of(heap, a) == 1 && limb(heap, a, 0) == 1
}

/// a + b, fresh allocation.
fn add<M: Mem>(m: &mut M, a: Addr, b: Addr) -> Addr {
    let (la, lb) = (len_of(m.heap(), a), len_of(m.heap(), b));
    let lo = la.max(lb) + 1;
    let out = m.alloc(lo);
    m.heap().store_u32(out, lo);
    let mut carry = 0u32;
    for i in 0..lo {
        let x = if i < la { limb(m.heap(), a, i) } else { 0 };
        let y = if i < lb { limb(m.heap(), b, i) } else { 0 };
        let s = x + y + carry;
        set_limb(m.heap(), out, i, s & 0xFFFF);
        carry = s >> 16;
    }
    debug_assert_eq!(carry, 0);
    normalize(m.heap(), out);
    out
}

/// a - b (requires a ≥ b), fresh allocation.
fn sub<M: Mem>(m: &mut M, a: Addr, b: Addr) -> Addr {
    let (la, lb) = (len_of(m.heap(), a), len_of(m.heap(), b));
    let out = m.alloc(la);
    m.heap().store_u32(out, la);
    let mut borrow = 0i32;
    for i in 0..la {
        let x = limb(m.heap(), a, i) as i32;
        let y = if i < lb { limb(m.heap(), b, i) as i32 } else { 0 };
        let mut d = x - y - borrow;
        if d < 0 {
            d += 1 << 16;
            borrow = 1;
        } else {
            borrow = 0;
        }
        set_limb(m.heap(), out, i, d as u32);
    }
    // a ≥ b for normalized operands, checked from the lengths already
    // loaded and the final borrow rather than with a `cmp` up front,
    // whose simulated loads would exist in debug builds only and shift
    // the access stream the goldens pin down.
    debug_assert!(la >= lb, "sub underflow");
    debug_assert_eq!(borrow, 0, "sub underflow");
    normalize(m.heap(), out);
    out
}

/// a >> 1, fresh allocation.
fn shr1<M: Mem>(m: &mut M, a: Addr) -> Addr {
    let la = len_of(m.heap(), a);
    let out = m.alloc(la);
    m.heap().store_u32(out, la);
    let mut carry = 0u32;
    for i in (0..la).rev() {
        let x = limb(m.heap(), a, i) | (carry << 16);
        set_limb(m.heap(), out, i, x >> 1);
        carry = x & 1;
    }
    normalize(m.heap(), out);
    out
}

/// (u + v) mod mod_, all < mod_; fresh allocation; temporaries released
/// through `dead`.
fn addmod<M: Mem>(m: &mut M, u: Addr, v: Addr, mod_: Addr) -> Addr {
    let t = add(m, u, v);
    if cmp(m.heap(), t, mod_) >= 0 {
        m.keep(8, t);
        let r = sub(m, t, mod_);
        m.dead(t);
        r
    } else {
        t
    }
}

/// (x · y) mod mod_ by binary (peasant) multiplication — ~one add/double
/// pair of allocations per bit of y, which is where cfrac's allocation
/// intensity comes from.
fn modmul<M: Mem>(m: &mut M, x: Addr, y: Addr, mod_: Addr) -> Addr {
    // Rooting contract: the caller keeps x, y and mod_ reachable; this
    // function keeps its own live intermediates in slots 9 (the running
    // addend) and 10 (the accumulator) so a collection inside any
    // allocation never frees them.
    let mut acc = from_u64(m, 0);
    m.keep(10, acc);
    let mut a = x; // x is owned by the caller; never freed here
    m.keep(9, a);
    let mut a_owned = false;
    let ybits = len_of(m.heap(), y) * 16;
    for bit in 0..ybits {
        let l = limb(m.heap(), y, bit / 16);
        if (l >> (bit % 16)) & 1 == 1 {
            let next = addmod(m, acc, a, mod_);
            m.dead(acc);
            acc = next;
            m.keep(10, acc);
        }
        if bit + 1 < ybits {
            let doubled = addmod(m, a, a, mod_);
            if a_owned {
                m.dead(a);
            }
            a = doubled;
            m.keep(9, a);
            a_owned = true;
        }
    }
    if a_owned {
        m.dead(a);
    }
    acc
}

/// a mod mod_ for arbitrary a (binary long division, remainder only).
fn modred<M: Mem>(m: &mut M, a: Addr, mod_: Addr) -> Addr {
    let mut r = from_u64(m, 0);
    let bits = len_of(m.heap(), a) * 16;
    for bit in (0..bits).rev() {
        // r = 2r + bit(a)
        m.keep(11, r);
        let mut t = add(m, r, r);
        m.dead(r);
        if (limb(m.heap(), a, bit / 16) >> (bit % 16)) & 1 == 1 {
            m.keep(12, t);
            let one = from_u64(m, 1);
            m.keep(13, one);
            let t2 = add(m, t, one);
            m.dead(t);
            m.dead(one);
            t = t2;
        }
        if cmp(m.heap(), t, mod_) >= 0 {
            m.keep(12, t);
            let t2 = sub(m, t, mod_);
            m.dead(t);
            t = t2;
        }
        r = t;
    }
    r
}

/// Binary gcd (no division), consuming neither argument.
fn gcd<M: Mem>(m: &mut M, a0: Addr, b0: Addr) -> Addr {
    let mut a = copy_big(m, a0);
    m.keep(13, a);
    let mut b = copy_big(m, b0);
    let mut shift = 0u32;
    while !is_zero(m.heap(), a) && !is_zero(m.heap(), b) {
        m.keep(13, a);
        m.keep(14, b);
        if is_even(m.heap(), a) && is_even(m.heap(), b) {
            let na = shr1(m, a);
            m.keep(15, na); // na must survive the allocation inside shr1(b)
            let nb = shr1(m, b);
            m.dead(a);
            m.dead(b);
            a = na;
            b = nb;
            shift += 1;
        } else if is_even(m.heap(), a) {
            let na = shr1(m, a);
            m.dead(a);
            a = na;
        } else if is_even(m.heap(), b) {
            let nb = shr1(m, b);
            m.dead(b);
            b = nb;
        } else if cmp(m.heap(), a, b) >= 0 {
            let na = sub(m, a, b);
            m.dead(a);
            a = na;
        } else {
            let nb = sub(m, b, a);
            m.dead(b);
            b = nb;
        }
    }
    let mut g = if is_zero(m.heap(), a) {
        m.dead(a);
        b
    } else {
        m.dead(b);
        a
    };
    for _ in 0..shift {
        m.keep(13, g);
        let ng = add(m, g, g); // g = 2g, restoring the stripped twos
        m.dead(g);
        g = ng;
    }
    g
}

/// A fresh copy of a bignum (used for rotation into a new region).
fn copy_big<M: Mem>(m: &mut M, a: Addr) -> Addr {
    let la = len_of(m.heap(), a);
    let out = m.alloc(la);
    m.heap().store_u32(out, la);
    for i in 0..la {
        let v = limb(m.heap(), a, i);
        set_limb(m.heap(), out, i, v);
    }
    out
}

/// Pollard's rho with batched gcd over the given memory policy. The
/// `rotate` hook fires every 32 iterations with the three live values
/// (x, y, accumulated product) and must return their (possibly copied)
/// replacements — the region variant rotates its temporary region here.
fn rho<M: Mem>(
    m: &mut M,
    n: Addr,
    mut rotate: impl FnMut(&mut M, Addr, Addr, Addr) -> (Addr, Addr, Addr),
) -> (Addr, u64) {
    let mut x = from_u64(m, 2);
    m.keep(0, x);
    let mut y = from_u64(m, 2);
    m.keep(1, y);
    let mut prod = from_u64(m, 1);
    m.keep(2, prod);
    let mut iters = 0u64;

    let step = |m: &mut M, v: Addr, n: Addr| -> Addr {
        // f(v) = v² + 1 mod n
        let sq = modmul(m, v, v, n);
        m.keep(15, sq);
        let one_t = from_u64(m, 1);
        m.keep(14, one_t);
        let r = addmod(m, sq, one_t, n);
        m.dead(sq);
        m.dead(one_t);
        r
    };

    loop {
        iters += 1;
        // x advances once, y twice (Floyd).
        let nx = step(m, x, n);
        m.dead(x);
        x = nx;
        m.keep(0, x);
        let ny1 = step(m, y, n);
        m.dead(y);
        m.keep(1, ny1);
        let ny = step(m, ny1, n);
        m.dead(ny1);
        y = ny;
        m.keep(1, y);
        // prod = prod * |x - y| mod n
        let diff = if cmp(m.heap(), x, y) >= 0 { sub(m, x, y) } else { sub(m, y, x) };
        m.keep(15, diff);
        let np = modmul(m, prod, diff, n);
        m.dead(diff);
        m.dead(prod);
        prod = np;
        m.keep(2, prod);
        // Batched gcd every 16 iterations.
        if iters.is_multiple_of(16) {
            let g = gcd(m, prod, n);
            m.keep(15, g);
            // The triviality test allocates nothing, so it needs no
            // rotation-safe storage (an earlier version kept a bignum
            // `1` across rotations — a dangling-pointer bug the safe
            // runtime exists to prevent).
            let trivial = is_one(m.heap(), g) || cmp(m.heap(), g, n) == 0;
            if !trivial {
                m.dead(x);
                m.dead(y);
                m.dead(prod);
                return (g, iters);
            }
            m.dead(g);
            // Reset the product so one unlucky batch doesn't absorb n.
            m.dead(prod);
            prod = from_u64(m, 1);
            m.keep(2, prod);
        }
        if iters.is_multiple_of(32) {
            let (rx, ry, rp) = rotate(m, x, y, prod);
            x = rx;
            y = ry;
            prod = rp;
            m.keep(0, x);
            m.keep(1, y);
            m.keep(2, prod);
        }
        assert!(iters < 2_000_000, "rho failed to converge");
    }
}

// --- begin malloc variant ---

struct MallocMem<'a> {
    env: &'a mut MallocEnv,
}

impl Mem for MallocMem<'_> {
    fn alloc(&mut self, limbs: u32) -> Addr {
        self.env.malloc(4 + limbs * 4)
    }
    fn dead(&mut self, a: Addr) {
        self.env.free(a); // explicit deallocation, value by value
    }
    fn keep(&mut self, slot: u32, a: Addr) {
        self.env.set_root(slot, a); // GC roots; no-ops for real mallocs
    }
    fn heap(&mut self) -> &mut SimHeap {
        self.env.heap()
    }
}

/// cfrac with malloc/free: every temporary bignum is freed the moment it
/// dies (the original used reference counts for the same effect).
pub fn run_malloc(env: &mut MallocEnv, scale: u32) -> u64 {
    let (p, q) = semiprime(scale);
    env.push_roots(16);
    let mut m = MallocMem { env };
    let n = from_u64(&mut m, p * q);
    m.keep(4, n);
    // No region rotation: the values pass through unchanged.
    let (g, iters) = rho(&mut m, n, |_, x, y, pr| (x, y, pr));
    let factor = to_u128(m.heap(), g) as u64;
    // Verify the factor actually divides n (exercises long reduction).
    m.keep(5, g);
    let r = modred(&mut m, n, g);
    assert!(is_zero(m.heap(), r), "factor must divide n");
    m.dead(r);
    m.dead(g);
    m.dead(n);
    env.pop_roots();
    let mut sum = Checksum::new();
    sum.add(factor.min(p * q / factor));
    sum.add(iters);
    sum.value()
}

// --- end malloc variant ---

// --- begin region variant ---

struct RegionMem<'a> {
    env: &'a mut RegionEnv,
    current: crate::env::Rh,
}

impl Mem for RegionMem<'_> {
    fn alloc(&mut self, limbs: u32) -> Addr {
        // Bignums are pointer-free: rstralloc (the string allocator).
        self.env.rstralloc(self.current, 4 + limbs * 4)
    }
    fn dead(&mut self, _a: Addr) {
        // Region garbage: reclaimed when the temporary region rotates.
    }
    fn keep(&mut self, _slot: u32, _a: Addr) {
        // Regions need no GC roots.
    }
    fn heap(&mut self) -> &mut SimHeap {
        self.env.heap()
    }
}

/// cfrac with regions: "a region for temporary computations for every
/// few iterations of the main algorithm. Partial solutions are copied
/// from this region to a solution region so that old temporary regions
/// can be deleted."
pub fn run_region(env: &mut RegionEnv, scale: u32) -> u64 {
    let (p, q) = semiprime(scale);
    let solution = env.new_region();
    let first_temp = env.new_region();
    // Shadow locals for the live values across each rotation (cleared
    // before the old region is deleted, so the delete succeeds).
    env.push_frame(3);
    let mut m = RegionMem { env, current: first_temp };
    let n = {
        // n lives in the solution region: it survives every rotation.
        let saved = m.current;
        m.current = solution;
        let n = from_u64(&mut m, p * q);
        m.current = saved;
        n
    };
    let (g, iters) = rho(&mut m, n, |m, x, y, pr| {
        // Rotate: copy the partial solutions into a fresh region, then
        // delete the old one wholesale.
        let old = m.current;
        let fresh = m.env.new_region();
        m.current = fresh;
        let nx = copy_big(m, x);
        let ny = copy_big(m, y);
        let np = copy_big(m, pr);
        m.env.set_local(0, nx);
        m.env.set_local(1, ny);
        m.env.set_local(2, np);
        assert!(m.env.delete_region(old), "temporary region must delete");
        (nx, ny, np)
    });
    // Copy the answer into the solution region before the last temp dies.
    let saved = m.current;
    m.current = solution;
    let kept = copy_big(&mut m, g);
    m.current = saved;
    let factor = to_u128(m.heap(), kept) as u64;
    // Verify the factor divides n (temporaries land in the last region).
    let r = modred(&mut m, n, kept);
    assert!(is_zero(m.heap(), r), "factor must divide n");
    let last_temp = m.current;
    env.set_local(0, Addr::NULL);
    env.set_local(1, Addr::NULL);
    env.set_local(2, Addr::NULL);
    env.pop_frame();
    assert!(env.delete_region(last_temp));
    assert!(env.delete_region(solution));
    let mut sum = Checksum::new();
    sum.add(factor.min(p * q / factor));
    sum.add(iters);
    sum.value()
}

// --- end region variant ---

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{MallocKind, RegionKind};

    /// A trivial host-heap Mem for arithmetic unit tests.
    struct TestMem {
        heap: SimHeap,
    }

    impl Mem for TestMem {
        fn alloc(&mut self, limbs: u32) -> Addr {
            self.heap.sbrk(4 + limbs * 4)
        }
        fn dead(&mut self, _a: Addr) {}
        fn keep(&mut self, _slot: u32, _a: Addr) {}
        fn heap(&mut self) -> &mut SimHeap {
            &mut self.heap
        }
    }

    fn mem() -> TestMem {
        TestMem { heap: SimHeap::new() }
    }

    #[test]
    fn roundtrip_and_compare() {
        let mut m = mem();
        for v in [0u64, 1, 0xFFFF, 0x10000, 0xDEAD_BEEF_CAFE, u64::MAX] {
            let a = from_u64(&mut m, v);
            assert_eq!(to_u128(m.heap(), a), u128::from(v));
        }
        let a = from_u64(&mut m, 1000);
        let b = from_u64(&mut m, 1001);
        assert_eq!(cmp(m.heap(), a, b), -1);
        assert_eq!(cmp(m.heap(), b, a), 1);
        assert_eq!(cmp(m.heap(), a, a), 0);
    }

    #[test]
    fn add_sub_shr_match_u128() {
        let mut m = mem();
        let cases = [(0u64, 0u64), (1, 1), (0xFFFF, 1), (u32::MAX as u64, u32::MAX as u64), (u64::MAX / 2, u64::MAX / 3)];
        for (x, y) in cases {
            let a = from_u64(&mut m, x);
            let b = from_u64(&mut m, y);
            let s = add(&mut m, a, b);
            assert_eq!(to_u128(m.heap(), s), u128::from(x) + u128::from(y));
            let (hi, lo) = if x >= y { (a, b) } else { (b, a) };
            let d = sub(&mut m, hi, lo);
            assert_eq!(to_u128(m.heap(), d), u128::from(x.max(y) - x.min(y)));
            let h = shr1(&mut m, a);
            assert_eq!(to_u128(m.heap(), h), u128::from(x >> 1));
        }
    }

    #[test]
    fn modmul_and_modred_match_u128() {
        let mut m = mem();
        let n = 1_000_003u64;
        let nb = from_u64(&mut m, n);
        for (x, y) in [(2u64, 3u64), (999_999, 999_998), (123_456, 654_321), (1, n - 1)] {
            let xb = from_u64(&mut m, x % n);
            let yb = from_u64(&mut m, y % n);
            let r = modmul(&mut m, xb, yb, nb);
            assert_eq!(to_u128(m.heap(), r), u128::from(x % n) * u128::from(y % n) % u128::from(n));
        }
        let big = from_u64(&mut m, u64::MAX);
        let r = modred(&mut m, big, nb);
        assert_eq!(to_u128(m.heap(), r), u128::from(u64::MAX % n));
    }

    #[test]
    fn gcd_matches_euclid() {
        let mut m = mem();
        for (x, y) in [(48u64, 18u64), (1_000_000, 1_000_003), (17 * 19, 17 * 23), (12, 0)] {
            let a = from_u64(&mut m, x);
            let b = from_u64(&mut m, y);
            let g = gcd(&mut m, a, b);
            fn host_gcd(mut a: u64, mut b: u64) -> u64 {
                while b != 0 {
                    let t = a % b;
                    a = b;
                    b = t;
                }
                a
            }
            assert_eq!(to_u128(m.heap(), g), u128::from(host_gcd(x, y)), "gcd({x},{y})");
        }
    }

    #[test]
    fn factors_the_scale1_semiprime() {
        let mut env = MallocEnv::new(MallocKind::Lea);
        let c = run_malloc(&mut env, 1);
        assert_ne!(c, 0);
        assert_eq!(env.stats().live_bytes, 0, "all bignums freed");
        assert!(env.stats().total_allocs > 5_000, "allocation-intensive");
    }

    #[test]
    fn all_allocators_agree_on_the_answer() {
        let expected = run_malloc(&mut MallocEnv::new(MallocKind::Sun), 1);
        for kind in [MallocKind::Bsd, MallocKind::Lea, MallocKind::Gc] {
            assert_eq!(run_malloc(&mut MallocEnv::new(kind), 1), expected, "{}", kind.name());
        }
        for kind in [RegionKind::Safe, RegionKind::Unsafe, RegionKind::Emulated(MallocKind::Sun)] {
            assert_eq!(run_region(&mut RegionEnv::new(kind), 1), expected, "{}", kind.name());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            /// Every bignum operation agrees with u128 host arithmetic.
            #[test]
            fn ops_match_u128(x in any::<u64>(), y in any::<u64>()) {
                let mut m = mem();
                let a = from_u64(&mut m, x);
                let b = from_u64(&mut m, y);
                let s = add(&mut m, a, b);
                prop_assert_eq!(to_u128(m.heap(), s), u128::from(x) + u128::from(y));
                let (hi, lo, hv, lv) =
                    if x >= y { (a, b, x, y) } else { (b, a, y, x) };
                let d = sub(&mut m, hi, lo);
                prop_assert_eq!(to_u128(m.heap(), d), u128::from(hv - lv));
                let h = shr1(&mut m, a);
                prop_assert_eq!(to_u128(m.heap(), h), u128::from(x >> 1));
                prop_assert_eq!(cmp(m.heap(), a, b), x.cmp(&y) as i32);
            }

            #[test]
            fn modular_ops_match_u128(x in any::<u64>(), y in any::<u64>(), n in 2u64..u32::MAX as u64) {
                let mut m = mem();
                let nb = from_u64(&mut m, n);
                let xb = from_u64(&mut m, x % n);
                let yb = from_u64(&mut m, y % n);
                let r = modmul(&mut m, xb, yb, nb);
                prop_assert_eq!(
                    to_u128(m.heap(), r),
                    u128::from(x % n) * u128::from(y % n) % u128::from(n)
                );
                let big = from_u64(&mut m, x);
                let rr = modred(&mut m, big, nb);
                prop_assert_eq!(to_u128(m.heap(), rr), u128::from(x % n));
            }

            #[test]
            fn gcd_matches_host(x in 1u64..u32::MAX as u64, y in 1u64..u32::MAX as u64) {
                let mut m = mem();
                let a = from_u64(&mut m, x);
                let b = from_u64(&mut m, y);
                let g = gcd(&mut m, a, b);
                fn host_gcd(mut a: u64, mut b: u64) -> u64 {
                    while b != 0 {
                        let t = a % b;
                        a = b;
                        b = t;
                    }
                    a
                }
                prop_assert_eq!(to_u128(m.heap(), g), u128::from(host_gcd(x, y)));
            }
        }
    }

    #[test]
    fn region_variant_rotates_temp_regions() {
        let mut env = RegionEnv::new(RegionKind::Safe);
        run_region(&mut env, 1);
        assert!(env.stats().total_regions >= 3, "solution + rotating temps");
        assert_eq!(env.stats().live_regions, 0);
        assert_eq!(env.costs().unwrap().deletes_failed, 0);
        // Rotation keeps the footprint small: the max live regions is the
        // solution region plus at most two temp regions mid-rotation.
        assert!(env.stats().max_live_regions <= 3);
    }
}
