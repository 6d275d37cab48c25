//! Thread-local heaps (§4.3): the lock-free malloc/free fast path.
//!
//! Every thread owns one [`AttachedSet`] per size class — up to
//! [`crate::attached_set::ATTACHED_SPANS`] attached spans, each behind its
//! own shuffle vector — plus a private PRNG. Small allocations pop from a
//! member's vector with no locks or atomics; refills take only the *owning
//! class's* shard lock, and large objects take the large + arena locks. A
//! non-local small free takes no lock at all: it clears the object's bit
//! in the owning MiniHeap's bitmap and counts itself on this thread's
//! delta block; a span the clear emptied, or opened the first slot of, is
//! pushed on its class's lock-free unsettled list for the next holder of
//! the class lock (§4.4.4; DESIGN.md §3 and "Fast path anatomy").
//!
//! Both hot paths are O(1) and free of shared-cacheline traffic:
//!
//! * **malloc** pops the class's current member — moving to another
//!   member with free slots before paying for a refill — and bumps the
//!   thread's [`LocalCounters`] (plain load+store, no RMW — deltas are
//!   summed into [`crate::HeapStats`] at snapshot time). A refill, which
//!   takes a class lock anyway, is timed into the heap's one histogram
//!   and trace ring like every other slow path
//!   ([`Counters::record_slow`]).
//! * **free** resolves the pointer with *one* lock-free [`PageMap`]
//!   lookup, which yields the owning MiniHeap id, size class, and slot in
//!   one read. Comparing the id against the members of the class's
//!   attached set (the current member first) decides local vs remote; the
//!   decoded entry is passed down to the global heap so nothing is
//!   re-derived. (The first design scanned every class's attached span
//!   per free — O(classes), and O(aliases) after meshing.)
//!
//! The page-map route also makes both paths *checkable*: slot range,
//! alignment and double frees are validated before the shuffle vector or
//! the bitmap is touched, so a hostile free is counted and discarded
//! before `free` returns instead of corrupting the freelist.

use crate::attached_set::AttachedSet;
use crate::global_heap::GlobalHeap;
use crate::harden::HardenKind;
use crate::page_map::PageInfo;
use crate::rng::Rng;
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES, PAGE_SIZE};
use crate::stats::{Counters, LocalCounters};
use crate::telemetry::{Telemetry, ThreadSampler, TimedOp};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Non-local small frees of one thread per look at the inline meshing
/// timer.
const SETTLE_EVERY: u32 = 32;

/// The most object bytes one thread's hardened-mode quarantine parks.
const QUARANTINE_BYTES: usize = 256 << 10;

/// The most objects one thread's hardened-mode quarantine parks.
const QUARANTINE_SLOTS: usize = 512;

/// Where one free request is routed, as decided by a single page-map
/// lookup (see [`ThreadHeapCore::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FreeRoute {
    /// The pointer belongs to member `member` of this thread's attached
    /// set for `class_idx`: freed in place, no lock, no atomics.
    Local {
        class_idx: usize,
        member: usize,
        slot: usize,
    },
    /// The page belongs to one of this thread's attached spans, but the
    /// address is not a valid object: span tail waste or a misaligned
    /// interior pointer. Counted and discarded.
    LocalInvalid,
    /// Owned by some other MiniHeap (detached, another thread's, or a
    /// large object): handed to the global heap along with the decoded
    /// entry.
    Global { page: u32, info: PageInfo },
    /// Not an arena pointer, or an unowned (stale/retired/wild) page.
    Unowned,
}

/// Per-thread allocation state: one attached set per size class, a
/// thread-private PRNG (§4.3), and a private statistics block.
#[derive(Debug)]
pub(crate) struct ThreadHeapCore {
    sets: Vec<AttachedSet>,
    rng: Rng,
    token: u64,
    /// This thread heap's fast-path counter deltas (single-writer; see
    /// [`LocalCounters`]).
    stats: Arc<LocalCounters>,
    /// The registry `stats` is registered with, kept for flush points and
    /// teardown.
    counters: Arc<Counters>,
    /// Geometric byte-sampling state (`None` when `MESH_PROF` is off: the
    /// fast path then pays exactly one branch on this field).
    sampler: Option<Box<ThreadSampler>>,
    /// Non-local small frees left until this thread next gives a due
    /// inline meshing pass its chance ([`GlobalHeap::maybe_mesh`]):
    /// the rate limiter costs a lock and a clock read, which one free in
    /// [`SETTLE_EVERY`] pays.
    settle_in: u32,
    /// Delayed-reuse quarantine (hardened mode, `MESH_HARDEN` with
    /// quarantine on): freed small objects are parked here — poisoned,
    /// their slots still claimed — instead of becoming immediately
    /// reusable. Eviction order is randomized by the thread PRNG; evicted
    /// objects have their poison verified (a dangling write while parked
    /// trips it) and then take the normal free path. Empty when hardening
    /// is off.
    quarantine: Vec<(usize, usize)>,
    /// Membership index over `quarantine` addresses: a second free of a
    /// parked pointer is a deterministic double free, caught before any
    /// routing.
    quarantine_set: std::collections::HashSet<usize>,
    /// Total object bytes currently parked (bounded by
    /// [`QUARANTINE_BYTES`]).
    quarantine_bytes: usize,
}

impl ThreadHeapCore {
    /// Creates a detached thread heap with identity `token`, registering
    /// its counter block with `counters` and — when profiling is on —
    /// a private sampler feeding `telemetry`.
    pub fn new(
        seed: u64,
        randomize: bool,
        token: u64,
        counters: Arc<Counters>,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Self {
        ThreadHeapCore {
            sets: (0..NUM_SIZE_CLASSES)
                .map(|_| AttachedSet::new(randomize))
                .collect(),
            rng: Rng::with_seed(seed),
            token,
            stats: counters.register_thread(),
            counters,
            sampler: telemetry.map(|t| Box::new(ThreadSampler::new(t, seed))),
            settle_in: SETTLE_EVERY,
            quarantine: Vec::new(),
            quarantine_set: std::collections::HashSet::new(),
            quarantine_bytes: 0,
        }
    }

    /// The token identifying this thread heap.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The epilogue of every small allocation, whichever tier served it.
    #[inline(always)]
    fn finish_alloc(&mut self, state: &GlobalHeap, addr: usize, class: SizeClass) -> *mut u8 {
        // Hardened mode: the slot held poison since it was freed (or since
        // its span came fresh from the arena); a write that landed in it
        // while free is a caught use-after-free.
        state.verify_poison(addr, class.object_size(), class.index());
        self.stats.on_malloc(class.object_size());
        if let Some(s) = self.sampler.as_deref_mut() {
            s.on_alloc(addr, class.object_size());
        }
        addr as *mut u8
    }

    /// Allocates `size` bytes (Fig 4, `MeshLocal::malloc`): a member of
    /// the size class's attached set in the common case, the class shard
    /// for refills, the global large path otherwise. Returns null on
    /// arena exhaustion.
    pub fn malloc(&mut self, state: &GlobalHeap, size: usize) -> *mut u8 {
        let Some(class) = SizeClass::for_size(size) else {
            // Large object: forwarded to the global heap (§4.4.3).
            return match state.malloc_large(size, PAGE_SIZE, false) {
                Ok(addr) => addr as *mut u8,
                Err(_) => std::ptr::null_mut(),
            };
        };
        let idx = class.index();
        loop {
            if let Some(addr) = self.sets[idx].malloc() {
                return self.finish_alloc(state, addr, class);
            }
            // Refill boundary: already taking the class lock, so fold the
            // batched deltas into the shared counters while we are here.
            self.counters.flush_local(&self.stats);
            let refill_t0 = Instant::now();
            let refilled = state.refill(&mut self.sets[idx], class, &mut self.rng);
            self.counters.record_slow(TimedOp::Refill, refill_t0, idx as u64);
            // Before reporting exhaustion, destroy the spans frees emptied
            // without getting their class lock; each is a span to carve.
            if refilled.is_err() && !state.tidy_all_classes() {
                return std::ptr::null_mut();
            }
        }
    }

    /// Resolves where a free of `addr` must go with one lock-free page-map
    /// lookup. Pure (no heap mutation): the oracle property test compares
    /// this decision against the legacy linear-scan routing.
    ///
    /// `inline(always)`: with the set lookup in it the inliner leaves it
    /// out of the free path, and every free — a miss most of all — pays
    /// for the call and a [`FreeRoute`] returned through memory (that and
    /// the member filter were a quarter of `op_p50_ns` on the workloads
    /// whose frees all miss).
    #[inline(always)]
    pub(crate) fn route(&self, state: &GlobalHeap, addr: usize) -> FreeRoute {
        let Some(page) = state.page_of_addr(addr) else {
            return FreeRoute::Unowned;
        };
        let Some(info) = state.page_map.get(page) else {
            return FreeRoute::Unowned;
        };
        if !info.is_large() {
            let idx = info.class_code as usize;
            // Ids are unique within a class, and the page map covers every
            // virtual span (aliases are retargeted when meshed), so the id
            // lookup is exactly the old "inside any attached span?" scan.
            let set = &self.sets[idx];
            if let Some(member) = set.find(info.id) {
                let offset = addr - info.span_start(state.base_addr(), page);
                return match SizeClass::from_index(idx).slot_at(offset) {
                    Some(slot) => FreeRoute::Local {
                        class_idx: idx,
                        member,
                        slot,
                    },
                    None => FreeRoute::LocalInvalid,
                };
            }
        }
        FreeRoute::Global { page, info }
    }

    /// Frees `ptr` (Fig 4, `MeshLocal::free`): handled by the owning
    /// member's shuffle vector when the object is local, else routed through the
    /// global heap with the already-decoded page-map entry (one atomic
    /// bitmap clear for small objects, §4.4.4).
    ///
    /// # Safety
    ///
    /// `ptr` must be a pointer previously returned by this heap family's
    /// malloc and not already freed. Unlike the seed, hostile pointers are
    /// *detected* on every path — foreign, misaligned, tail-waste, and
    /// double frees are counted and discarded rather than corrupting the
    /// freelist — but the contract stays that of C `free`.
    pub unsafe fn free(&mut self, state: &GlobalHeap, ptr: *mut u8) {
        let addr = ptr as usize;
        if let Some(s) = self.sampler.as_deref() {
            // Retire a sampled object on any route (local, non-local,
            // large). The global entry points hook themselves, so every
            // free is checked exactly once.
            s.telemetry().on_free(addr);
        }
        if state.harden.quarantine_on() {
            // Before any routing: a second free of a parked pointer is a
            // deterministic double free (its slot is still claimed, so
            // the routed checks below would accept it).
            if self.quarantine_set.contains(&addr) {
                state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                state.harden_violation(HardenKind::DoubleFree, addr);
                return;
            }
            // Small objects are parked whichever route their free will
            // take — once the bit of a non-local one is clear, the next
            // attach can hand the slot out. Large objects are covered by
            // guard pages instead.
            let live_class = match self.route(state, addr) {
                FreeRoute::Local {
                    class_idx,
                    member,
                    slot,
                } => (!self.sets[class_idx].vector(member).is_available(slot)).then_some(class_idx),
                FreeRoute::Global { page, info } if !info.is_large() => {
                    match state.check_small_live(addr, page, info) {
                        Ok(()) => Some(info.class_code as usize),
                        Err(HardenKind::DoubleFree) => None,
                        // Misaligned, tail waste, dead span: `free_now`
                        // reports it.
                        Err(_) => return self.free_now(state, addr),
                    }
                }
                _ => return self.free_now(state, addr),
            };
            let Some(class_idx) = live_class else {
                state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                state.harden_violation(HardenKind::DoubleFree, addr);
                return;
            };
            let size = SizeClass::from_index(class_idx).object_size();
            state.poison_object(addr, size, class_idx);
            self.quarantine_push(state, addr, class_idx, size);
            return;
        }
        self.free_now(state, addr);
    }

    /// The routed free proper — everything [`ThreadHeapCore::free`] does
    /// after the quarantine decision. Also the quarantine eviction path,
    /// which must bypass the parking logic (the evicted object *is* the
    /// delayed free).
    unsafe fn free_now(&mut self, state: &GlobalHeap, addr: usize) {
        match self.route(state, addr) {
            FreeRoute::Local {
                class_idx,
                member,
                slot,
            } => {
                let set = &mut self.sets[class_idx];
                if set.free_slot(member, slot, &mut self.rng) {
                    let class = SizeClass::from_index(class_idx);
                    // Freed memory is poisoned now and verified when the
                    // slot is next handed out.
                    state.poison_object(addr, class.object_size(), class_idx);
                    self.stats.on_free(class.object_size());
                    if set.is_surplus_empty(member) {
                        // Retention rule: destroyed under the class lock,
                        // so a duplicate of this free finds the page
                        // unowned.
                        state.release_member(class, set, member);
                    }
                } else {
                    state.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                    state.harden_violation(HardenKind::DoubleFree, addr);
                }
            }
            FreeRoute::LocalInvalid | FreeRoute::Unowned => {
                state.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
                state.harden_violation(HardenKind::InvalidFree, addr);
            }
            FreeRoute::Global { page, info } => {
                if !state.free_routed(addr, page, info, Some(&*self.stats)) {
                    return;
                }
                // Large frees are rare and slow already; small ones share
                // one look at the meshing timer between them.
                if !info.is_large() {
                    self.sets[info.class_code as usize].note_free_elsewhere();
                    self.settle_in -= 1;
                    if self.settle_in > 0 {
                        return;
                    }
                    self.settle_in = SETTLE_EVERY;
                }
                state.maybe_mesh();
            }
        }
    }

    /// Parks one freed object in the quarantine, evicting (randomly) as
    /// long as either bound — slots or bytes — is exceeded. The parked
    /// slot stays claimed: meshing copies it, reallocation cannot reach
    /// it, and its memory holds the poison pattern the whole time.
    fn quarantine_push(&mut self, state: &GlobalHeap, addr: usize, class_idx: usize, size: usize) {
        self.quarantine.push((addr, class_idx));
        self.quarantine_set.insert(addr);
        self.quarantine_bytes += size;
        while self.quarantine.len() > QUARANTINE_SLOTS || self.quarantine_bytes > QUARANTINE_BYTES {
            self.quarantine_evict(state);
        }
    }

    /// Evicts one random quarantine entry: verifies its poison (a
    /// dangling write while parked lands here) and then completes the
    /// delayed free through the normal path.
    fn quarantine_evict(&mut self, state: &GlobalHeap) {
        if self.quarantine.is_empty() {
            return;
        }
        let pick = self.rng.below(self.quarantine.len() as u32) as usize;
        let (addr, class_idx) = self.quarantine.swap_remove(pick);
        self.quarantine_set.remove(&addr);
        let size = SizeClass::from_index(class_idx).object_size();
        self.quarantine_bytes -= size;
        state.verify_poison(addr, size, class_idx);
        unsafe { self.free_now(state, addr) };
    }

    /// Empties the quarantine (thread teardown, fork, explicit settle):
    /// every parked free completes through the normal path.
    pub fn drain_quarantine(&mut self, state: &GlobalHeap) {
        while !self.quarantine.is_empty() {
            self.quarantine_evict(state);
        }
    }

    /// Folds this thread's batched statistics deltas into the shared
    /// counters immediately (normally they fold at refill boundaries).
    pub fn flush_stats(&self) {
        self.counters.flush_local(&self.stats);
    }

    /// Completes the quarantined frees, returns every member of every
    /// attached set to its class shard (thread exit), and flushes the
    /// batched statistics deltas. Nothing this thread held can be stranded.
    pub fn detach_all(&mut self, state: &GlobalHeap) {
        self.drain_quarantine(state);
        for (idx, set) in self.sets.iter_mut().enumerate() {
            state.release_set(SizeClass::from_index(idx), set);
        }
        self.counters.flush_local(&self.stats);
    }

    /// Number of spans currently attached, over all classes (diagnostic).
    pub fn attached_count(&self) -> usize {
        self.sets.iter().map(AttachedSet::len).sum()
    }
}

impl Drop for ThreadHeapCore {
    fn drop(&mut self) {
        // Spans are returned by the owning wrapper (`ThreadHeap::drop`
        // calls `detach_all` with the heap in hand); the counter block
        // retires here, folding its deltas into the shared counters.
        self.counters.retire_thread(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use std::sync::Arc;

    fn setup() -> (GlobalHeap, Arc<Counters>) {
        let counters = Arc::new(Counters::default());
        let st = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(32 << 20)
                .seed(11)
                .write_barrier(false),
            Arc::clone(&counters),
        )
        .unwrap();
        (st, counters)
    }

    fn core(counters: &Arc<Counters>, seed: u64, token: u64) -> ThreadHeapCore {
        ThreadHeapCore::new(seed, true, token, Arc::clone(counters), None)
    }

    #[test]
    fn malloc_free_roundtrip_small() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 1, 1);
        let p = heap.malloc(&state, 100);
        assert!(!p.is_null());
        unsafe {
            std::ptr::write_bytes(p, 0x5A, 100);
            heap.free(&state, p);
        }
        let s = counters.snapshot();
        assert_eq!(s.mallocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn local_free_does_not_touch_global_path() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 2, 1);
        let p = heap.malloc(&state, 64);
        unsafe { heap.free(&state, p) };
        let s = counters.snapshot();
        assert_eq!(s.remote_frees, 0, "free stayed local");
    }

    #[test]
    fn large_allocation_via_global() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 3, 1);
        let p = heap.malloc(&state, 64 * 1024);
        assert!(!p.is_null());
        assert_eq!(p as usize % 4096, 0, "large objects are page-aligned");
        assert_eq!(counters.snapshot().large_allocs, 1);
        unsafe { heap.free(&state, p) };
        assert_eq!(counters.snapshot().remote_frees, 1);
    }

    #[test]
    fn exhausted_vector_refills_transparently() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 4, 1);
        let class = SizeClass::for_size(512).unwrap();
        let per_span = class.object_count();
        let mut ptrs = vec![];
        for _ in 0..per_span * 3 {
            let p = heap.malloc(&state, 512);
            assert!(!p.is_null());
            ptrs.push(p);
        }
        // Three spans' worth allocated; all addresses distinct.
        let set: std::collections::HashSet<_> = ptrs.iter().collect();
        assert_eq!(set.len(), ptrs.len());
        assert!(counters.snapshot().refills >= 3);
        for p in ptrs {
            unsafe { heap.free(&state, p) };
        }
    }

    #[test]
    fn refills_feed_latency_histograms() {
        let (state, counters) = setup();
        let mut a = core(&counters, 31, 1);
        let mut b = core(&counters, 32, 2);
        let class = SizeClass::for_size(512).unwrap();
        let mut ptrs = vec![];
        for _ in 0..class.object_count() * 2 {
            let p = a.malloc(&state, 512);
            assert!(!p.is_null());
            ptrs.push(p);
        }
        for p in ptrs {
            unsafe { b.free(&state, p) };
        }
        let snap = counters.snapshot();
        assert!(
            snap.latency.count(TimedOp::Refill) >= 2,
            "each span refill is timed: {:?}",
            snap.latency.count(TimedOp::Refill)
        );
    }

    #[test]
    fn cross_thread_free_is_settled_when_it_returns() {
        let (state, counters) = setup();
        let mut a = core(&counters, 5, 1);
        let mut b = core(&counters, 6, 2);
        let p = a.malloc(&state, 256);
        // Thread B frees A's pointer: the global path, counted on B's own
        // delta block and visible at once.
        unsafe { b.free(&state, p) };
        let s = counters.snapshot();
        assert_eq!((s.remote_frees, s.frees, s.live_bytes), (1, 1, 0));
        assert_eq!(s.remote_free_queued + s.remote_free_batches, 0, "nothing is queued");
        // A's span is still attached, and A only fills: its next refill
        // hands the span back, it rests two more refills, and then the
        // slot comes back — exactly once.
        let class = SizeClass::for_size(256).unwrap();
        let got: Vec<usize> = (0..4 * class.object_count())
            .map(|_| a.malloc(&state, 256) as usize)
            .collect();
        assert_eq!(got.iter().filter(|&&q| q == p as usize).count(), 1);
        assert_eq!(counters.snapshot().refills, 5);
    }

    #[test]
    fn detach_all_returns_everything() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 7, 1);
        let p1 = heap.malloc(&state, 32);
        let p2 = heap.malloc(&state, 4000);
        assert!(heap.attached_count() >= 2);
        heap.detach_all(&state);
        assert_eq!(heap.attached_count(), 0);
        // Frees after detach go through the global heap and still work.
        unsafe {
            heap.free(&state, p1);
            heap.free(&state, p2);
        }
        assert_eq!(counters.snapshot().remote_frees, 2);
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn null_on_arena_exhaustion() {
        let counters = Arc::new(Counters::default());
        let st = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(32 * 4096)
                .seed(1)
                .write_barrier(false),
            Arc::clone(&counters),
        )
        .unwrap();
        let mut heap = core(&counters, 8, 1);
        let mut got_null = false;
        for _ in 0..100_000 {
            if heap.malloc(&st, 16384).is_null() {
                got_null = true;
                break;
            }
        }
        assert!(got_null, "exhaustion must surface as null");
    }

    #[test]
    fn exhaustion_first_reclaims_the_spans_frees_emptied() {
        // A free that empties a span only lists it for the next holder of
        // its class lock. When the arena has nothing else left, a refill of *another* class must
        // find those pages before it reports exhaustion. (Both classes
        // have one-page spans: the arena reuses a dirty span only at its
        // exact length.)
        let counters = Arc::new(Counters::default());
        let st = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(64 * 4096)
                .seed(1)
                .mesh_period(std::time::Duration::from_secs(3600))
                .write_barrier(false),
            Arc::clone(&counters),
        )
        .unwrap();
        let mut a = core(&counters, 8, 1);
        let ptrs: Vec<*mut u8> = std::iter::repeat_with(|| a.malloc(&st, 512))
            .take_while(|p| !p.is_null())
            .collect();
        assert!(!ptrs.is_empty());
        a.detach_all(&st);
        let mut b = core(&counters, 9, 2);
        assert!(b.malloc(&st, 64).is_null(), "the arena is full");
        for p in ptrs {
            unsafe { b.free(&st, p) };
        }
        let class = SizeClass::for_size(512).unwrap();
        assert_ne!(st.lock_class(class).slab.len(), 0, "listed, not destroyed");
        assert!(!b.malloc(&st, 64).is_null(), "the emptied spans were reclaimed");
        assert_eq!(st.lock_class(class).slab.len(), 0);
    }

    #[test]
    fn local_double_free_detected_and_discarded() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 9, 1);
        let p = heap.malloc(&state, 128);
        unsafe {
            heap.free(&state, p);
            heap.free(&state, p); // second free of the same local object
        }
        let s = counters.snapshot();
        assert_eq!(s.frees, 1, "only the first free applied");
        assert_eq!(s.double_frees, 1, "duplicate detected on the local path");
        assert_eq!(s.live_bytes, 0);
        // The heap is still fully usable afterwards.
        let q = heap.malloc(&state, 128);
        assert!(!q.is_null());
        unsafe { heap.free(&state, q) };
    }

    #[test]
    fn local_invalid_frees_detected_and_discarded() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 10, 1);
        let p = heap.malloc(&state, 64);
        unsafe {
            // Misaligned interior pointer into our own attached span.
            heap.free(&state, p.add(1));
            // Wild pointer outside the arena entirely.
            heap.free(&state, 0x1000 as *mut u8);
        }
        let s = counters.snapshot();
        assert_eq!(s.invalid_frees, 2);
        assert_eq!(s.frees, 0, "no invalid free was applied");
        // The object itself is still live and freeable.
        unsafe { heap.free(&state, p) };
        assert_eq!(counters.snapshot().frees, 1);
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn tail_waste_free_is_invalid_not_corrupting() {
        // 4096 % 48 != 0: the span has tail waste past the last slot. A
        // free there used to push an out-of-range offset into the shuffle
        // vector; it must now be rejected.
        let (state, counters) = setup();
        let mut heap = core(&counters, 11, 1);
        let p = heap.malloc(&state, 48) as usize;
        let class = SizeClass::for_size(48).unwrap();
        let page = state.page_of_addr(p).unwrap();
        let info = state.page_map.get(page).unwrap();
        let span_start = info.span_start(state.base_addr(), page);
        let tail = span_start + class.object_count() * 48;
        assert_eq!(
            heap.route(&state, tail),
            FreeRoute::LocalInvalid,
            "tail waste routes as invalid"
        );
        unsafe { heap.free(&state, tail as *mut u8) };
        assert_eq!(counters.snapshot().invalid_frees, 1);
        unsafe { heap.free(&state, p as *mut u8) };
        assert_eq!(counters.snapshot().live_bytes, 0);
    }

    #[test]
    fn sampler_tracks_allocations_through_free() {
        // An aggressive rate (every ~256 bytes) on a churny mix: the
        // sampler must see allocations on the fast path, the refill path,
        // and the large path, and retire every sample on free.
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(32 << 20)
            .seed(21)
            .profiling(true)
            .prof_sample_bytes(256)
            .write_barrier(false);
        let state = GlobalHeap::new(config, Arc::clone(&counters)).unwrap();
        let mut heap =
            ThreadHeapCore::new(5, true, 1, Arc::clone(&counters), state.telemetry.clone());
        let t = state.telemetry.as_ref().unwrap();
        let mut live = Vec::new();
        for i in 0..4000usize {
            let size = [64, 200, 1000, 20_000][i % 4];
            let p = heap.malloc(&state, size);
            assert!(!p.is_null());
            live.push(p);
        }
        let s = t.stats();
        assert!(s.samples > 500, "rate 256 over ~21 MB: got {} samples", s.samples);
        assert!(s.live_bytes_estimate > 0);
        assert_eq!(s.samples_dropped, 0);
        for p in live {
            unsafe { heap.free(&state, p) };
        }
        let s = t.stats();
        assert_eq!(s.live_samples, 0, "every sampled object retired");
        assert_eq!(s.live_bytes_estimate, 0);
        assert_eq!(s.sampled_frees, s.samples);
    }

    /// Oracle: the page-map routing must agree with the legacy
    /// linear-scan routing — "is the address inside any span of any member
    /// of the class's attached set?" — on every reachable state. Random
    /// malloc/free interleavings with two thread heaps (handoffs make some
    /// frees remote) drive both classifiers over the same addresses.
    #[test]
    fn route_agrees_with_linear_scan_oracle() {
        /// The routing the old free path implemented, widened to the set:
        /// the first (class, member) whose attached spans contain the
        /// address wins; everything else goes to the global heap.
        fn linear_scan(heap: &ThreadHeapCore, addr: usize) -> Option<(usize, usize)> {
            heap.sets.iter().enumerate().find_map(|(idx, set)| {
                set.members()
                    .find(|&m| set.vector(m).contains(addr))
                    .map(|m| (idx, m))
            })
        }

        for seed in [3u64, 17, 95] {
            let (state, counters) = setup();
            let mut heaps = [core(&counters, seed, 1), core(&counters, seed ^ 77, 2)];
            let mut rng = Rng::with_seed(seed.wrapping_mul(0x9e37_79b9));
            // (addr, owner, size): owner = which heap allocated it.
            let mut live: Vec<(usize, usize, usize)> = Vec::new();
            let mut non_current_local = 0u32;
            for _ in 0..20_000 {
                let op = rng.below(100);
                if op < 55 || live.is_empty() {
                    let who = rng.below(2) as usize;
                    let size = match rng.below(4) {
                        0 => 16 + rng.below(100) as usize,
                        1 => 500 + rng.below(600) as usize,
                        2 => 2048,
                        _ => 16384 + rng.below(9000) as usize, // large path
                    };
                    let p = heaps[who].malloc(&state, size);
                    assert!(!p.is_null());
                    live.push((p as usize, who, size));
                } else {
                    let pick = rng.below(live.len() as u32) as usize;
                    let (addr, owner, _) = live.swap_remove(pick);
                    // Hand off ~every third free to the non-owner.
                    let who = if rng.below(3) == 0 { 1 - owner } else { owner };
                    let (a, b) = heaps.split_at_mut(1);
                    let freer = if who == 0 { &mut a[0] } else { &mut b[0] };
                    let old = linear_scan(freer, addr);
                    let new = freer.route(&state, addr);
                    match (old, new) {
                        (
                            Some((idx, m)),
                            FreeRoute::Local {
                                class_idx,
                                member,
                                slot,
                            },
                        ) => {
                            assert_eq!(idx, class_idx, "class disagrees at {addr:#x}");
                            assert_eq!(m, member, "member disagrees at {addr:#x}");
                            let set = &freer.sets[class_idx];
                            let sv = set.vector(member);
                            assert!(slot < sv.object_count());
                            assert!(!sv.is_available(slot), "live slot free in mask");
                            non_current_local += (member != set.current()) as u32;
                        }
                        (None, FreeRoute::Global { .. }) => {}
                        (old, new) => {
                            panic!("routing diverged at {addr:#x}: old {old:?}, new {new:?}")
                        }
                    }
                    unsafe { freer.free(&state, addr as *mut u8) };
                }
            }
            assert!(
                non_current_local > 100,
                "seed {seed}: the drive must exercise non-current members ({non_current_local})"
            );
            // Misaligned probes: old routing said "local" (then corrupted);
            // new routing must flag them instead — the one intentional
            // divergence — whichever member they point into.
            let mut non_current_probes = 0u32;
            for &(addr, owner, size) in &live {
                if size > 1 {
                    let freer = &heaps[owner];
                    if let Some((idx, m)) = linear_scan(freer, addr + 1) {
                        assert_eq!(
                            freer.route(&state, addr + 1),
                            FreeRoute::LocalInvalid,
                            "misaligned pointer in class {idx} must be rejected"
                        );
                        non_current_probes += (m != freer.sets[idx].current()) as u32;
                    }
                }
            }
            assert!(non_current_probes > 0, "seed {seed}: no non-current misaligned probe");
            for (addr, owner, _) in live.drain(..) {
                unsafe { heaps[owner].free(&state, addr as *mut u8) };
            }
            for h in &mut heaps {
                h.detach_all(&state);
            }
            let s = counters.snapshot();
            assert_eq!(s.live_bytes, 0, "seed {seed}: accounting balanced");
            assert_eq!(s.mallocs, s.frees, "seed {seed}: every object freed once");
            assert_eq!(s.invalid_frees, 0, "seed {seed}");
            assert_eq!(s.double_frees, 0, "seed {seed}");
        }
    }

    /// Fills `spans` spans of `size`-byte objects and keeps them all
    /// attached: before each refill one object of every member is freed
    /// and taken again, so the thread is drawing on each of them. Returns
    /// the objects in allocation order, one span after the other.
    fn fill_spans_drawn_on(
        state: &GlobalHeap,
        heap: &mut ThreadHeapCore,
        size: usize,
        spans: usize,
    ) -> Vec<usize> {
        let class = SizeClass::for_size(size).unwrap();
        let count = class.object_count();
        let mut ptrs = Vec::new();
        for span in 0..spans {
            for member in 0..span {
                let p = ptrs[member * count];
                unsafe { heap.free(state, p as *mut u8) };
                heap.drain_quarantine(state);
                assert_eq!(heap.malloc(state, size) as usize, p, "the one free slot");
            }
            ptrs.extend((0..count).map(|_| heap.malloc(state, size) as usize));
        }
        assert_eq!(heap.sets[class.index()].len(), spans);
        ptrs
    }

    /// Three spans of the 48-byte class (4096 % 48 != 0: tail waste), then
    /// an object, its member and its span start in a member malloc is
    /// *not* currently popping from. Also returns the counters as they
    /// stand after the setup.
    fn non_current_object(
        state: &GlobalHeap,
        heap: &mut ThreadHeapCore,
    ) -> (Vec<usize>, usize, usize, usize, crate::stats::HeapStats) {
        let class = SizeClass::for_size(48).unwrap();
        let ptrs = fill_spans_drawn_on(state, heap, 48, 3);
        let set = &heap.sets[class.index()];
        let p = ptrs[0];
        let FreeRoute::Local { member, .. } = heap.route(state, p) else {
            panic!("own object must route local");
        };
        assert_ne!(member, set.current(), "first object sits in an exhausted member");
        let page = state.page_of_addr(p).unwrap();
        let start = state
            .page_map
            .get(page)
            .unwrap()
            .span_start(state.base_addr(), page);
        heap.flush_stats();
        (ptrs, p, member, start, heap.counters.snapshot())
    }

    #[test]
    fn hostile_frees_into_a_non_current_member_are_rejected() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 12, 1);
        let (ptrs, p, _, start, s0) = non_current_object(&state, &mut heap);
        let class = SizeClass::for_size(48).unwrap();
        let tail = start + class.object_count() * 48;
        assert_eq!(heap.route(&state, p + 1), FreeRoute::LocalInvalid, "misaligned");
        assert_eq!(heap.route(&state, tail), FreeRoute::LocalInvalid, "tail waste");
        unsafe {
            heap.free(&state, (p + 1) as *mut u8);
            heap.free(&state, tail as *mut u8);
        }
        let s = counters.snapshot();
        assert_eq!((s.invalid_frees, s.frees - s0.frees), (2, 0));
        // The member's own avail mask catches the duplicate.
        unsafe {
            heap.free(&state, p as *mut u8);
            heap.free(&state, p as *mut u8);
        }
        let s = counters.snapshot();
        assert_eq!((s.frees - s0.frees, s.double_frees), (1, 1));
        assert_eq!(s.remote_frees, 0, "neither free left the thread");
        for &q in &ptrs[1..] {
            unsafe { heap.free(&state, q as *mut u8) };
        }
        heap.detach_all(&state);
        let s = counters.snapshot();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.mallocs, s.frees);
    }

    #[test]
    fn hardened_double_free_into_a_non_current_member_is_a_violation() {
        use crate::harden::HardenPolicy;
        for quarantine in [false, true] {
            let counters = Arc::new(Counters::default());
            let state = GlobalHeap::new(
                MeshConfig::default()
                    .arena_bytes(32 << 20)
                    .seed(11)
                    .write_barrier(false)
                    .harden_policy(HardenPolicy::Count)
                    .harden_quarantine(quarantine),
                Arc::clone(&counters),
            )
            .unwrap();
            let mut heap = core(&counters, 13, 1);
            let (_, p, member, start, s0) = non_current_object(&state, &mut heap);
            unsafe { heap.free(&state, p as *mut u8) };
            // With the quarantine on the first free is parked; completing
            // it leaves the mask as the only detector, as with it off.
            heap.drain_quarantine(&state);
            let set = &heap.sets[SizeClass::for_size(48).unwrap().index()];
            assert!(set.vector(member).is_available((p - start) / 48));
            unsafe { heap.free(&state, p as *mut u8) };
            let s = counters.snapshot();
            assert_eq!(
                (s.frees - s0.frees, s.double_frees),
                (1, 1),
                "quarantine {quarantine}"
            );
            assert_eq!(
                s.harden_violations[HardenKind::DoubleFree as usize],
                1,
                "quarantine {quarantine}"
            );
            assert_eq!(s.invalid_frees, 0);
        }
    }

    #[test]
    fn member_emptied_by_local_frees_is_released_at_once() {
        let (state, counters) = setup();
        let mut heap = core(&counters, 14, 1);
        let class = SizeClass::for_size(2048).unwrap();
        let per_span = class.object_count();
        let ptrs = fill_spans_drawn_on(&state, &mut heap, 2048, 3);
        // Free span by span. The first span to empty is all the slots the
        // set has and stays; each later one is surplus the moment its last
        // object goes, however sparse it was on the way there.
        for (i, &p) in ptrs.iter().enumerate() {
            unsafe { heap.free(&state, p as *mut u8) };
            let emptied = (i + 1) / per_span;
            assert_eq!(heap.sets[class.index()].len(), 3 - emptied.saturating_sub(1));
            assert_eq!(state.lock_class(class).slab.len(), 3 - emptied.saturating_sub(1));
        }
        // A duplicate of the free that emptied a released member finds
        // its page unowned.
        unsafe { heap.free(&state, ptrs[per_span * 3 - 1] as *mut u8) };
        let s = counters.snapshot();
        assert_eq!((s.invalid_frees, s.double_frees), (1, 0));
        assert_eq!(s.remote_frees, 0, "every free stayed in the thread");
        assert_eq!(s.mallocs, s.frees);
        assert_eq!(s.live_bytes, 0);
    }
}
