//! One simulated address space, many mutators.
//!
//! [`SharedSpace`] carves a single 32-bit address space into
//! `workers` disjoint page-range *shards*; each worker holds a
//! [`HeapShard`] handle that grows, writes and reads **its own** shard
//! with exactly the semantics of a private [`crate::SimHeap`] (same
//! panic messages, same counter accounting, same OOM/fault error
//! fields), and may additionally *read* any page another worker has
//! mapped. Writes outside the owner's shard are a simulated protection
//! fault: the paper's discipline is that a region — and therefore its
//! pages — has one owning mutator, while cross-thread structures hold
//! read references published through exchanges (the parallel region
//! pool's bookkeeping, which stays heap-agnostic).
//!
//! Layout: page 0 is the guard page of the whole space; worker `w` owns
//! the absolute page range `[1 + w*span, 1 + (w+1)*span)` where
//! `span = (total_pages - 1) / workers`. With `workers = 1`, shard 0
//! starts at `PAGE_SIZE` and spans the whole space — every address,
//! counter and error a `SimHeap` would produce is reproduced
//! bit-for-bit, which is what keeps the committed goldens valid.
//!
//! Shared state is kept safe-Rust-concurrent the same way
//! `region_core::par` keeps its books: the global page table is a
//! `Mutex<Vec<Option<Arc<[AtomicU32]>>>>` touched only on page birth
//! (sbrk) and host-side audits, while the hot word traffic goes through
//! the per-page atomics. Pages are never uninstalled while the space
//! lives, so a reader's cached `Arc` can never dangle. The page→region
//! *mirror* is a flat `Vec<AtomicU32>` over absolute page indices,
//! published by the owner on every page-map write (see
//! [`crate::HeapBackend::publish_page_owner`]) and encoded as
//! `(worker + 1) << 24 | (region_index + 1)`, 0 = unowned — so any
//! thread (or the world auditor) can classify a foreign address without
//! touching the owner's in-heap map.
//!
//! Word accesses take one branch on the hot path: an aligned address
//! whose page is in this shard's own page list is non-null, inside the
//! shard's span and below its break, so that single test is the whole
//! check (the same idiom as `SimHeap::check_word`). Everything else —
//! foreign reads, misaligned or unmapped addresses, guard-page and
//! cross-shard faults — falls through to the full check, so every panic
//! message is the one a `SimHeap` would give. `fill` checks its range
//! once and stores the aligned middle a page slice at a time. The
//! `*_fast` entry points therefore share the ordinary ones' code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::backend::HeapBackend;
use crate::{
    Access, AccessEvent, AccessKind, AccessRange, AccessSink, Addr, HeapConfig, HeapError,
    PAGE_SIZE, WORD,
};

/// Words per simulated page.
const PAGE_WORDS: usize = (PAGE_SIZE / WORD) as usize;

/// One simulated page of shared storage.
type PageArc = Arc<[AtomicU32]>;

/// Locks a mutex, tolerating poison: space-level sections only install
/// pages (an all-or-nothing `Vec` slot write), so state guarded by a
/// lock whose holder panicked is still consistent — same policy as the
/// parallel region pool's ledgers.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocates one zeroed shared page.
fn new_page() -> PageArc {
    (0..PAGE_WORDS).map(|_| AtomicU32::new(0)).collect()
}

/// Configuration for a [`SharedSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Total size of the shared address space in bytes (guard page
    /// included), rounded down to whole pages. Defaults to 512 MB — the
    /// same limit as a default private [`crate::SimHeap`].
    pub max_bytes: u64,
    /// Number of shard slots the space is carved into (1..=255). Each
    /// shard spans `(total_pages - 1) / workers` pages.
    pub workers: u32,
}

impl Default for SpaceConfig {
    fn default() -> SpaceConfig {
        SpaceConfig { max_bytes: HeapConfig::default().max_bytes, workers: 1 }
    }
}

/// The shared side of a sharded address space: the global page table,
/// the atomic page→region mirror, and the shard-claim registry. Always
/// handled through an `Arc`; per-worker mutation goes through
/// [`HeapShard`] handles created with [`SharedSpace::shard`].
pub struct SharedSpace {
    max_bytes: u64,
    workers: u32,
    span_pages: u32,
    /// Absolute page index → installed page. Slot 0 (the guard page) is
    /// permanently `None`. Locked only on page birth and host audits.
    table: Mutex<Vec<Option<PageArc>>>,
    /// Absolute page index → `(worker + 1) << 24 | cell` ownership
    /// mirror (0 = unowned), published by owners, readable lock-free.
    mirror: Vec<AtomicU32>,
    /// Which shard slots have been handed out (shards are single-use).
    claimed: Mutex<Vec<bool>>,
}

impl std::fmt::Debug for SharedSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSpace")
            .field("max_bytes", &self.max_bytes)
            .field("workers", &self.workers)
            .field("span_pages", &self.span_pages)
            .finish()
    }
}

impl SharedSpace {
    /// Creates a space carved into `config.workers` equal shards.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0 or exceeds 255 (the mirror encoding
    /// reserves 8 bits for `worker + 1`), or if the space is too small
    /// to give every shard at least one page.
    pub fn new(config: SpaceConfig) -> Arc<SharedSpace> {
        assert!(
            (1..=255).contains(&config.workers),
            "SharedSpace workers must be in 1..=255, got {}",
            config.workers
        );
        let total_pages = (config.max_bytes.min(u64::from(u32::MAX)) / u64::from(PAGE_SIZE)) as u32;
        assert!(
            total_pages > config.workers,
            "SharedSpace of {} bytes cannot give {} shards a page each",
            config.max_bytes,
            config.workers
        );
        let span_pages = (total_pages - 1) / config.workers;
        let slots = 1 + span_pages as usize * config.workers as usize;
        Arc::new(SharedSpace {
            max_bytes: config.max_bytes,
            workers: config.workers,
            span_pages,
            table: Mutex::new(vec![None; slots]),
            mirror: (0..slots).map(|_| AtomicU32::new(0)).collect(),
            claimed: Mutex::new(vec![false; config.workers as usize]),
        })
    }

    /// Number of shard slots.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    /// Pages per shard.
    pub fn span_pages(&self) -> u32 {
        self.span_pages
    }

    /// Total addressable pages (guard page included).
    pub fn total_pages(&self) -> u32 {
        1 + self.span_pages * self.workers
    }

    /// The configured byte limit of the whole space.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// First absolute page index of `worker`'s shard.
    pub fn base_page(&self, worker: u32) -> u32 {
        assert!(worker < self.workers, "worker {worker} out of range");
        1 + worker * self.span_pages
    }

    fn claim(&self, worker: u32) {
        assert!(worker < self.workers, "worker {worker} out of range");
        let mut claimed = lock(&self.claimed);
        assert!(!claimed[worker as usize], "shard {worker} already claimed (shards are single-use)");
        claimed[worker as usize] = true;
    }

    /// Hands out the (fresh, unclaimed) shard handle for `worker`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already claimed: a shard handle is
    /// single-use, like the thread that owns it.
    pub fn shard(self: &Arc<Self>, worker: u32) -> HeapShard {
        self.claim(worker);
        HeapShard {
            space: Arc::clone(self),
            worker,
            base_page: self.base_page(worker),
            local: Vec::new(),
            remote: RefCell::new(BTreeMap::new()),
            fault_after: None,
            loads: 0,
            stores: 0,
            sink: None,
            tracing: false,
        }
    }

    /// Rebinds a shard handle onto pages already installed in the table
    /// — the world-restore path. The first `allocated_pages` slots of
    /// `worker`'s span must be installed; counters and the fault budget
    /// are adopted as given.
    ///
    /// # Panics
    ///
    /// Panics on a double claim or if an expected page is missing.
    pub fn adopt_shard(
        self: &Arc<Self>,
        worker: u32,
        allocated_pages: u32,
        loads: u64,
        stores: u64,
        fault_after: Option<u64>,
    ) -> HeapShard {
        self.claim(worker);
        let base = self.base_page(worker);
        assert!(allocated_pages <= self.span_pages, "adopted shard overflows its span");
        let table = lock(&self.table);
        let local: Vec<PageArc> = (0..allocated_pages)
            .map(|i| {
                table[(base + i) as usize]
                    .clone()
                    .unwrap_or_else(|| panic!("adopt_shard: page {} not installed", base + i))
            })
            .collect();
        drop(table);
        HeapShard {
            space: Arc::clone(self),
            worker,
            base_page: base,
            local,
            remote: RefCell::new(BTreeMap::new()),
            fault_after,
            loads,
            stores,
            sink: None,
            tracing: false,
        }
    }

    /// Installs a page at an absolute index (world-restore path).
    ///
    /// # Panics
    ///
    /// Panics if the slot is the guard page, out of range, or occupied.
    pub fn install_page(&self, page_index: u32, words: &[u32]) {
        assert!(page_index >= 1 && (page_index as usize) < self.total_pages() as usize);
        assert_eq!(words.len(), PAGE_WORDS, "a page is {PAGE_WORDS} words");
        let page: PageArc = words.iter().map(|&w| AtomicU32::new(w)).collect();
        let mut table = lock(&self.table);
        assert!(table[page_index as usize].is_none(), "page {page_index} already installed");
        table[page_index as usize] = Some(page);
    }

    /// The words of an installed page, or `None` for an unmapped slot.
    /// Host-side (capture/audit): charges nothing, traces nothing. Only
    /// meaningful while no worker is concurrently mutating the page.
    pub fn page_snapshot(&self, page_index: u32) -> Option<Vec<u32>> {
        let page = lock(&self.table).get(page_index as usize)?.clone()?;
        Some(page.iter().map(|w| w.load(Ordering::Acquire)).collect())
    }

    /// The ownership-mirror entry for an absolute page index
    /// (`(worker + 1) << 24 | cell`, 0 = unowned).
    pub fn mirror_entry(&self, page_index: u32) -> u32 {
        self.mirror[page_index as usize].load(Ordering::Acquire)
    }

    /// Writes a mirror entry directly (world-restore path; live
    /// publication goes through the owning shard's
    /// [`HeapBackend::publish_page_owner`]).
    pub fn set_mirror_entry(&self, page_index: u32, encoded: u32) {
        self.mirror[page_index as usize].store(encoded, Ordering::Release);
    }

    /// Splits a mirror entry into `(worker, cell)`. `None` for the
    /// unowned entry 0 and for malformed words whose worker byte is zero
    /// (untrusted snapshot bytes go through here; never panics).
    pub fn decode_mirror(encoded: u32) -> Option<(u32, u32)> {
        let owner = (encoded >> 24).checked_sub(1)?;
        Some((owner, encoded & 0x00ff_ffff))
    }
}

/// One worker's handle onto its shard of a [`SharedSpace`] — the
/// sharded drop-in for a private [`crate::SimHeap`] (it implements
/// [`HeapBackend`] with identical observable semantics on its own
/// pages), plus lock-light read access to every other worker's pages.
pub struct HeapShard {
    space: Arc<SharedSpace>,
    worker: u32,
    base_page: u32,
    /// Pages of this shard, contiguous from `base_page` (sbrk appends).
    local: Vec<PageArc>,
    /// Cache of foreign pages this worker has read. Pages are never
    /// uninstalled while the space lives, so entries can't go stale.
    remote: RefCell<BTreeMap<u32, PageArc>>,
    fault_after: Option<u64>,
    loads: u64,
    stores: u64,
    sink: Option<Box<dyn AccessSink>>,
    tracing: bool,
}

impl std::fmt::Debug for HeapShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapShard")
            .field("worker", &self.worker)
            .field("base_page", &self.base_page)
            .field("allocated_pages", &self.local.len())
            .field("loads", &self.loads)
            .field("stores", &self.stores)
            .finish()
    }
}

impl HeapShard {
    /// The shard slot this handle owns.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// First absolute page index of this shard.
    pub fn base_page(&self) -> u32 {
        self.base_page
    }

    /// Pages this shard has obtained from the shared sbrk.
    pub fn allocated_pages(&self) -> u32 {
        self.local.len() as u32
    }

    /// The space this shard belongs to.
    pub fn space(&self) -> &Arc<SharedSpace> {
        &self.space
    }

    /// The injected sbrk fault budget currently armed, if any.
    pub fn sbrk_fault_after(&self) -> Option<u64> {
        self.fault_after
    }

    /// Attaches an access sink; subsequent loads/stores are forwarded to
    /// it. Replaces (and drops) any previously attached sink.
    pub fn attach_sink(&mut self, sink: Box<dyn AccessSink>) {
        self.sink = Some(sink);
        self.tracing = true;
    }

    /// Detaches and returns the current access sink, if any.
    pub fn detach_sink(&mut self) -> Option<Box<dyn AccessSink>> {
        self.tracing = false;
        self.sink.take()
    }

    fn emit_event(&mut self, event: AccessEvent) {
        if let Some(sink) = self.sink.as_mut() {
            sink.event(event);
        }
    }

    /// `true` if `page` lies inside this shard's span (mapped or not).
    fn in_own_span(&self, page: u32) -> bool {
        page >= self.base_page && page < self.base_page + self.space.span_pages
    }

    /// Bounds/alignment validation with `SimHeap`-identical messages on
    /// the owned shard, plus the two sharded cases: writes outside the
    /// shard are a protection fault, reads resolve against the shared
    /// table. Check order matches `SimHeap::check`: null, bounds,
    /// alignment.
    fn check(&self, addr: Addr, size: u32, align: u32, what: &str, write: bool) {
        assert!(
            addr.raw() >= PAGE_SIZE,
            "simulated segfault: {what} of {size} bytes at {addr} (null/guard page)"
        );
        let page = addr.page_index();
        if self.in_own_span(page) {
            assert!(
                (u64::from(addr.raw()) + u64::from(size)) <= u64::from(self.brk().raw()),
                "simulated segfault: {what} of {size} bytes at {addr} past break {}",
                self.brk()
            );
        } else if write {
            panic!(
                "simulated protection fault: {what} of {size} bytes at {addr} outside worker \
                 {}'s shard",
                self.worker
            );
        } else {
            assert!(
                self.resolve_remote(page).is_some(),
                "simulated segfault: {what} of {size} bytes at {addr} (unmapped in shared space)"
            );
        }
        assert!(
            addr.is_aligned(align),
            "simulated bus error: misaligned {what} of {size} bytes at {addr}"
        );
    }

    /// Looks up a foreign page, filling the remote cache on a miss.
    fn resolve_remote(&self, page: u32) -> Option<PageArc> {
        if let Some(p) = self.remote.borrow().get(&page) {
            return Some(Arc::clone(p));
        }
        let p = lock(&self.space.table).get(page as usize)?.clone()?;
        self.remote.borrow_mut().insert(page, Arc::clone(&p));
        Some(p)
    }

    /// The atomic word backing `addr`, assuming [`HeapShard::check`]
    /// already passed.
    fn word(&self, addr: Addr) -> PageArc {
        let page = addr.page_index();
        if self.in_own_span(page) {
            Arc::clone(&self.local[(page - self.base_page) as usize])
        } else {
            self.resolve_remote(page).expect("checked above")
        }
    }

    #[inline]
    fn read_word(&self, addr: Addr) -> u32 {
        let page = addr.page_index();
        let w = (addr.page_offset() / WORD) as usize;
        if self.in_own_span(page) {
            self.local[(page - self.base_page) as usize][w].load(Ordering::Relaxed)
        } else {
            self.word(addr)[w].load(Ordering::Relaxed)
        }
    }

    /// The word behind `addr` when `addr` is word-aligned and its page
    /// is mapped in this shard. That alone implies non-null, inside the
    /// span and below the break, so a hit needs no further check; every
    /// miss (and every fault) goes through [`HeapShard::check`].
    #[inline]
    fn own_word(&self, addr: Addr) -> Option<&AtomicU32> {
        if !addr.is_aligned(WORD) {
            return None;
        }
        let page = self.local.get(addr.page_index().wrapping_sub(self.base_page) as usize)?;
        Some(&page[(addr.page_offset() / WORD) as usize])
    }

    /// Stores `value` into `n` consecutive owned words from the aligned
    /// `start`, one page slice at a time (the caller checked the range).
    fn fill_words(&self, start: Addr, n: u32, value: u32) {
        let mut page = (start.page_index() - self.base_page) as usize;
        let mut from = (start.page_offset() / WORD) as usize;
        let mut left = n as usize;
        while left > 0 {
            let words = &self.local[page][from..];
            let k = words.len().min(left);
            for w in &words[..k] {
                w.store(value, Ordering::Relaxed);
            }
            left -= k;
            page += 1;
            from = 0;
        }
    }

    #[inline]
    fn write_word(&self, addr: Addr, value: u32) {
        let page = (addr.page_index() - self.base_page) as usize;
        self.local[page][(addr.page_offset() / WORD) as usize].store(value, Ordering::Relaxed);
    }
}

impl HeapBackend for HeapShard {
    fn brk(&self) -> Addr {
        Addr::from_page(self.base_page + self.local.len() as u32)
    }

    fn try_sbrk_pages(&mut self, pages: u32) -> Result<Addr, HeapError> {
        let old = self.brk();
        let allocated = self.local.len() as u32;
        // "Occupied bytes" are counted from the base of the address
        // space through the end of this shard's allocation, so with one
        // shard the arithmetic (and both error variants' fields) is
        // byte-identical to a private SimHeap's.
        let new_len =
            u64::from(self.base_page + allocated + pages) * u64::from(PAGE_SIZE);
        if let Some(budget) = self.fault_after {
            if new_len > budget {
                return Err(HeapError::FaultInjected {
                    granted: u64::from(old.raw()),
                    budget,
                });
            }
        }
        if allocated + pages > self.space.span_pages {
            let limit = if self.space.workers == 1 {
                self.space.max_bytes.min(u64::from(u32::MAX))
            } else {
                u64::from(self.base_page + self.space.span_pages) * u64::from(PAGE_SIZE)
            };
            return Err(HeapError::OutOfMemory { requested: new_len, limit });
        }
        let mut table = lock(&self.space.table);
        for i in 0..pages {
            let page = new_page();
            let slot = (self.base_page + allocated + i) as usize;
            debug_assert!(table[slot].is_none(), "sbrk found an occupied slot");
            table[slot] = Some(Arc::clone(&page));
            self.local.push(page);
        }
        Ok(old)
    }

    fn set_sbrk_fault_after(&mut self, budget: Option<u64>) {
        self.fault_after = budget;
    }

    fn reset_with(&mut self, config: HeapConfig) {
        // The span is fixed by the space; `config.max_bytes` is the
        // *private-heap* limit and is ignored here — shard capacity is
        // `span_pages`. The fault budget carries over as configured.
        let mut table = lock(&self.space.table);
        for (i, _) in self.local.iter().enumerate() {
            table[(self.base_page + i as u32) as usize] = None;
            self.space.mirror[(self.base_page + i as u32) as usize].store(0, Ordering::Release);
        }
        drop(table);
        self.local.clear();
        self.remote.borrow_mut().clear();
        self.fault_after = config.sbrk_fault_after;
        self.loads = 0;
        self.stores = 0;
        self.sink = None;
        self.tracing = false;
    }

    fn load_u32(&mut self, addr: Addr) -> u32 {
        let value = match self.own_word(addr) {
            Some(w) => w.load(Ordering::Relaxed),
            None => {
                self.check(addr, WORD, WORD, "load", false);
                self.read_word(addr)
            }
        };
        self.loads += 1;
        if self.tracing {
            self.emit_event(AccessEvent::Word(Access::read(addr.raw(), 4)));
        }
        value
    }

    fn store_u32(&mut self, addr: Addr, value: u32) {
        match self.own_word(addr) {
            Some(w) => w.store(value, Ordering::Relaxed),
            None => {
                self.check(addr, WORD, WORD, "store", true);
                self.write_word(addr, value);
            }
        }
        self.stores += 1;
        if self.tracing {
            self.emit_event(AccessEvent::Word(Access::write(addr.raw(), 4)));
        }
    }

    fn load_u32_fast(&mut self, addr: Addr) -> u32 {
        self.load_u32(addr)
    }

    fn store_u32_fast(&mut self, addr: Addr, value: u32) {
        self.store_u32(addr, value);
    }

    fn peek_u32(&self, addr: Addr) -> u32 {
        if let Some(w) = self.own_word(addr) {
            return w.load(Ordering::Relaxed);
        }
        assert!(addr.is_aligned(WORD), "misaligned peek at {addr}");
        self.check(addr, WORD, WORD, "peek", false);
        self.read_word(addr)
    }

    fn fill(&mut self, addr: Addr, len: u32, byte: u8) {
        if len == 0 {
            return;
        }
        self.check(addr, len, 1, "fill", true);
        // Same memset cost model as SimHeap::fill: head bytes to reach
        // word alignment, whole words, tail bytes.
        let head = ((WORD - addr.raw() % WORD) % WORD).min(len);
        let rest = len - head;
        let (words, tail) = (rest / WORD, rest % WORD);
        self.stores += u64::from(head) + u64::from(words) + u64::from(tail);
        // Byte-granular edges read-modify-write their word; the aligned
        // middle stores whole words.
        let fill_word = u32::from_le_bytes([byte; 4]);
        for b in 0..head {
            self.write_byte(addr + b, byte);
        }
        let words_start = addr + head;
        self.fill_words(words_start, words, fill_word);
        let tail_start = words_start + words * WORD;
        for b in 0..tail {
            self.write_byte(tail_start + b, byte);
        }
        if !self.tracing {
            return;
        }
        if head > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw(),
                len: head,
                stride: 1,
                size: 1,
                kind: AccessKind::Write,
            }));
        }
        if words > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw() + head,
                len: words,
                stride: WORD,
                size: WORD as u8,
                kind: AccessKind::Write,
            }));
        }
        if tail > 0 {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: addr.raw() + head + words * WORD,
                len: tail,
                stride: 1,
                size: 1,
                kind: AccessKind::Write,
            }));
        }
    }

    fn load_u32_range(&mut self, start: Addr, len: u32, stride: u32) {
        if len == 0 {
            return;
        }
        assert!(stride % WORD == 0, "misaligned stride {stride} in bulk load at {start}");
        self.check(start, WORD, WORD, "load", false);
        let last = u64::from(start.raw()) + u64::from(len - 1) * u64::from(stride);
        assert!(
            last + u64::from(WORD) <= u64::from(self.brk().raw())
                && self.in_own_span(start.page_index()),
            "simulated segfault: bulk load of {len} words (stride {stride}) at {start} past \
             break {}",
            self.brk()
        );
        self.loads += u64::from(len);
        if self.tracing {
            self.emit_event(AccessEvent::Range(AccessRange {
                start: start.raw(),
                len,
                stride,
                size: WORD as u8,
                kind: AccessKind::Read,
            }));
        }
    }

    fn is_tracing(&self) -> bool {
        self.tracing
    }

    fn charge_loads(&mut self, n: u64) {
        debug_assert!(!self.tracing, "charge_loads while tracing loses sink records");
        self.loads += n;
    }

    fn load_count(&self) -> u64 {
        self.loads
    }

    fn store_count(&self) -> u64 {
        self.stores
    }

    fn publish_page_owner(&mut self, page_index: u32, cell: u32) {
        debug_assert!(self.in_own_span(page_index), "publishing a page outside the shard");
        assert!(cell < 1 << 24, "region cell {cell} overflows the mirror encoding");
        let encoded = if cell == 0 { 0 } else { ((self.worker + 1) << 24) | cell };
        self.space.mirror[page_index as usize].store(encoded, Ordering::Release);
    }
}

impl HeapShard {
    /// Read-modify-writes one byte of an owned word (fill edges).
    fn write_byte(&self, addr: Addr, byte: u8) {
        let word_addr = Addr::new(addr.raw() & !(WORD - 1));
        let shift = (addr.raw() % WORD) * 8;
        let old = self.read_word(word_addr);
        let new = (old & !(0xffu32 << shift)) | (u32::from(byte) << shift);
        self.write_word(word_addr, new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventRecordingSink, SimHeap};

    #[test]
    fn single_shard_matches_simheap_word_for_word() {
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(2);
        let b = HeapBackend::sbrk_pages(&mut shard, 2);
        assert_eq!(a, b, "shard 0 of a fresh space starts at the SimHeap break");
        heap.attach_sink(Box::new(EventRecordingSink::default()));
        shard.attach_sink(Box::new(EventRecordingSink::default()));
        for i in 0..64u32 {
            heap.store_u32(a + i * WORD, i * 3 + 1);
            shard.store_u32(a + i * WORD, i * 3 + 1);
        }
        // Unaligned start and ragged end exercise fill's head/words/tail
        // split (byte RMW edges on the shard side).
        heap.fill(a + 41, 99, 0xAB);
        shard.fill(a + 41, 99, 0xAB);
        // Aligned fills take the page-slice path: one inside a page, one
        // running from the end of page 0 into page 1.
        heap.fill(a + 128, 64, 0x5C);
        shard.fill(a + 128, 64, 0x5C);
        let cross = a + PAGE_SIZE - 24;
        heap.fill(cross, 56, 0xE1);
        shard.fill(cross, 56, 0xE1);
        for i in 0..64u32 {
            assert_eq!(heap.load_u32(a + i * WORD), shard.load_u32(a + i * WORD));
        }
        for i in 0..16u32 {
            let w = cross - 8 + i * WORD;
            assert_eq!(heap.load_u32(w), shard.load_u32(w), "page-crossing fill at {w}");
        }
        let _ = heap.load_u32_range(a, 16, 8);
        HeapBackend::load_u32_range(&mut shard, a, 16, 8);
        assert_eq!(heap.load_count(), HeapBackend::load_count(&shard));
        assert_eq!(heap.store_count(), HeapBackend::store_count(&shard));
        assert_eq!(heap.peek_u32(a), shard.peek_u32(a));
        assert_eq!(heap.peek_u32(cross + 28), shard.peek_u32(cross + 28));
        let events = |sink: Option<Box<dyn AccessSink>>| {
            sink.unwrap().into_any().downcast::<EventRecordingSink>().unwrap().log
        };
        let (he, se) = (events(heap.detach_sink()), events(shard.detach_sink()));
        assert_eq!(he.len(), 64 + 4 + 64 + 16 + 1, "every access is announced");
        assert_eq!(he, se, "attached sinks see identical event streams");
    }

    #[test]
    fn single_shard_reports_simheap_identical_oom_and_fault_fields() {
        let cfg = SpaceConfig { max_bytes: 16 * u64::from(PAGE_SIZE), workers: 1 };
        let space = SharedSpace::new(cfg);
        let mut shard = space.shard(0);
        let mut heap = SimHeap::with_config(HeapConfig {
            max_bytes: cfg.max_bytes,
            sbrk_fault_after: None,
        });
        assert_eq!(
            heap.try_sbrk_pages(4).unwrap(),
            shard.try_sbrk_pages(4).unwrap()
        );
        let e1 = heap.try_sbrk_pages(100).unwrap_err();
        let e2 = shard.try_sbrk_pages(100).unwrap_err();
        assert_eq!(e1, e2, "OutOfMemory fields must match bit-for-bit");
        HeapBackend::set_sbrk_fault_after(&mut shard, Some(6 * u64::from(PAGE_SIZE)));
        heap.set_sbrk_fault_after(Some(6 * u64::from(PAGE_SIZE)));
        let f1 = heap.try_sbrk_pages(3).unwrap_err();
        let f2 = shard.try_sbrk_pages(3).unwrap_err();
        assert_eq!(f1, f2, "FaultInjected fields must match bit-for-bit");
    }

    #[test]
    fn cross_shard_reads_see_the_owners_writes() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 4 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(1).unwrap();
        b.try_sbrk_pages(1).unwrap();
        a.store_u32(pa, 0xDEAD_BEEF);
        assert_eq!(b.load_u32(pa), 0xDEAD_BEEF, "foreign pages are readable");
        assert_eq!(b.load_u32(pa), 0xDEAD_BEEF, "cached remote page stays live");
        assert_eq!(b.load_count(), 2);
    }

    #[test]
    #[should_panic(expected = "protection fault")]
    fn cross_shard_stores_are_a_protection_fault() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let mut a = space.shard(0);
        let mut b = space.shard(1);
        let pa = a.try_sbrk_pages(1).unwrap();
        b.try_sbrk_pages(1).unwrap();
        b.store_u32(pa, 1);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn shards_are_single_use() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 2 });
        let _a = space.shard(0);
        let _again = space.shard(0);
    }

    #[test]
    fn mirror_publication_is_visible_spacewide() {
        let space = SharedSpace::new(SpaceConfig { max_bytes: 1 << 20, workers: 3 });
        let mut s = space.shard(2);
        let p = s.try_sbrk_pages(1).unwrap();
        s.publish_page_owner(p.page_index(), 7);
        let enc = space.mirror_entry(p.page_index());
        assert_eq!(SharedSpace::decode_mirror(enc), Some((2, 7)));
        s.publish_page_owner(p.page_index(), 0);
        assert_eq!(space.mirror_entry(p.page_index()), 0);
    }

    #[test]
    fn guard_page_faults_match_simheap_messages() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        fn message(f: impl FnOnce()) -> String {
            let err = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        }
        let space = SharedSpace::new(SpaceConfig::default());
        let mut shard = space.shard(0);
        let mut heap = SimHeap::new();
        let base = shard.try_sbrk_pages(1).unwrap();
        heap.sbrk_pages(1);
        let past = base + PAGE_SIZE;
        let cases: [(&str, Addr, &str); 6] = [
            ("load", Addr::new(4), "null/guard page"),
            ("load", base + 2, "misaligned load"),
            ("store", base + 6, "misaligned store"),
            ("load", past, "past break"),
            ("store", past, "past break"),
            ("store", past - 2, "past break"),
        ];
        for (op, addr, want) in cases {
            let (h, s) = if op == "load" {
                (message(|| _ = heap.load_u32(addr)), message(|| _ = shard.load_u32(addr)))
            } else {
                (message(|| heap.store_u32(addr, 1)), message(|| shard.store_u32(addr, 1)))
            };
            assert!(s.contains(want), "{op} at {addr}: got {s}");
            assert_eq!(h, s, "{op} at {addr}: shard and SimHeap messages differ");
        }
        assert_eq!(HeapBackend::load_count(&shard), 0, "faulting loads charge nothing");
        assert_eq!(HeapBackend::store_count(&shard), 0, "faulting stores charge nothing");
    }
}
