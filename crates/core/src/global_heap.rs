//! The sharded global heap (§4.4): MiniHeap allocation, occupancy bins,
//! non-local frees, large objects, and meshing coordination.
//!
//! The seed kept all of this under one mutex; this version shards it so
//! threads working in different size classes never contend (see DESIGN.md
//! "Sharded locking discipline"):
//!
//! * **Class shards** — each size class owns a mutex guarding its slab of
//!   MiniHeaps, its occupancy bins, and its PRNG. Refills, detaches, and
//!   meshing of a class touch only that class's lock. Beside the mutex sit
//!   what a non-local free needs without it: the class's bitmap table, its
//!   mesh epoch and its list of spans frees left unsettled.
//! * **Arena leaf lock** — span hand-out/return, dirty purging, remaps,
//!   page-map writes, and the whole segment table: growth on miss (a span
//!   request that misses every segment maps a new one under this lock)
//!   and segment retirement both happen here. Acquired *after* at most
//!   one class (or the large) lock, never the other way around.
//! * **Large shard** — large-object singletons (§4.4.3) behind their own
//!   mutex, ordered like a class lock.
//! * **Lock-free structures** — the [`PageMap`] routes frees without any
//!   lock, and a non-local small free is one atomic clear of its bit in
//!   the owning MiniHeap's bitmap (§4.4.4; [`GlobalHeap::free_small`]).
//!   Its accounting is settled when it returns. It takes no lock and
//!   tries none: when the clear emptied a detached span, or opened the
//!   first slot of a full one, it pushes the span on the class's list of
//!   unsettled spans, and the next refill, detach, pass or purge
//!   ([`GlobalHeap::lock_class_swept`]) destroys or refiles it. The bins
//!   are therefore hints: whoever picks a span from one reads its bitmap
//!   again.
//!
//! Meshing runs one class at a time, holding that class's lock (only an
//! attach sets bits, and it needs the lock: frees racing a pass can only
//! make candidates sparser) and the arena lock for the remap itself; the
//! class's mesh epoch is odd while a pair's source bitmap is being
//! consumed (DESIGN.md §3). Passes run inline, on the free path, when
//! the [`MeshScheduler`] says one is due (§4.5), or on `mesh_now`.
//!
//! Every lock of the heap, in the one order that quiesces it for `fork`,
//! is listed at [`GlobalHeap::lock_all`].

use crate::arena::Arena;
use crate::attached_set::AttachedSet;
use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::harden::{self, HardenConfig, HardenKind};
use crate::meshing::{self, MeshSummary};
use crate::miniheap::{
    AttachState, BitmapTable, MiniHeap, MiniHeapId, Slab, UnsettledList, LIST_END, NOT_BINNED,
};
use crate::page_map::{PageInfo, PageMap, LARGE_CLASS};
use crate::rng::Rng;
use crate::shuffle_vector::ShuffleVector;
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES, PAGE_SIZE};
use crate::stats::{Counters, EpochClock, LocalCounters};
use crate::sync::{Mutex, MutexGuard};
use crate::telemetry::{
    self, CtlState, HeapSpectrum, MeshLedger, Reports, SenseState, Telemetry, TimedOp, TraceSet,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of partial-occupancy bins per size class (§3.1: the global heap
/// groups spans by decreasing occupancy, e.g. 75–99% in one bin, 50–74% in
/// the next).
pub(crate) const PARTIAL_BINS: usize = 4;

/// Bin index used for completely full MiniHeaps.
pub(crate) const FULL_BIN: u8 = PARTIAL_BINS as u8;

/// Refills of its class a span sits out after it is filed under a bin,
/// before [`ClassState::select_partial`] hands it out again.
///
/// A span is filed when a free opens its first slot, and objects allocated
/// together tend to be freed together: the frees that follow go to the
/// same span. Taking the span back at once claims one slot, splits the
/// run, and — since a claim and a clear both write the span's bitmap
/// line — makes every later free into it fetch that line from the
/// allocating thread's cache. Left alone for a refill or two, the run
/// lands on a line the freeing thread still owns, and the span comes back
/// with all of it. The slots held back are what one class frees in that
/// time, whatever the size of the heap.
const REST_REFILLS: u32 = 2;

/// Random draws [`ClassState::select_partial`] makes in a bin before it
/// takes every span there to be resting.
const REST_DRAWS: usize = 4;

/// Unsettled spans a refill that the bins can serve leaves waiting. Frees
/// list a few spans between two refills of a busy class; settling them in
/// batches keeps the typical refill's lock hold to its own work. Nothing
/// waits longer than the next pass, purge, detach or refill the bins come
/// up short for.
const TIDY_BATCH: usize = 32;

/// Occupancy bins for one size class.
#[derive(Debug, Default)]
pub(crate) struct ClassBins {
    /// `partial[0]` holds the fullest spans ([75%, 100%)), `partial[3]`
    /// the emptiest ((0%, 25%)).
    pub partial: [Vec<MiniHeapId>; PARTIAL_BINS],
    /// Completely full spans (not allocation candidates).
    pub full: Vec<MiniHeapId>,
}

impl ClassBins {
    fn list_mut(&mut self, bin: u8) -> &mut Vec<MiniHeapId> {
        match bin {
            FULL_BIN => &mut self.full,
            _ => &mut self.partial[bin as usize],
        }
    }
}

/// Computes the occupancy bin for `in_use` live objects of `count` slots.
///
/// # Panics
///
/// Panics (debug) if `in_use` exceeds `count`.
#[inline]
pub(crate) fn bin_for_occupancy(in_use: usize, count: usize) -> u8 {
    debug_assert!(in_use <= count);
    if in_use == count {
        FULL_BIN
    } else {
        // quartile 3 ([75%,100%)) → bin 0, …, quartile 0 ((0,25%)) → bin 3.
        (3 - (in_use * PARTIAL_BINS / count).min(3)) as u8
    }
}

/// Mutable state of one size class, guarded by its shard's mutex.
#[derive(Debug)]
pub(crate) struct ClassState {
    /// MiniHeaps of this class. Ids are unique *within* the class; the
    /// page map disambiguates with the class code.
    pub slab: Slab,
    pub bins: ClassBins,
    /// Refills of this class so far: the clock of [`REST_REFILLS`].
    pub refills: u32,
    /// Class-private PRNG (random span selection within a bin, §3.1, and
    /// the SplitMesher shuffle, §3.3).
    pub rng: Rng,
}

impl ClassState {
    // ----- occupancy-bin bookkeeping ------------------------------------

    /// Inserts a detached MiniHeap into its occupancy bin.
    pub fn bin_insert(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("binning a dead MiniHeap");
        debug_assert!(!mh.is_attached() && !mh.is_large());
        let bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        let list = self.bins.list_mut(bin);
        let slot = list.len() as u32;
        list.push(id);
        let now = self.refills;
        let mh = self.slab.get_mut(id).expect("just observed");
        mh.set_bin(bin, slot);
        mh.filed_at = now;
    }

    /// Removes a MiniHeap from its current bin (no-op if unbinned).
    pub fn bin_remove(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("unbinning a dead MiniHeap");
        let (bin, slot) = mh.bin();
        if bin == NOT_BINNED {
            return;
        }
        let list = self.bins.list_mut(bin);
        list.swap_remove(slot as usize);
        if let Some(&moved) = list.get(slot as usize) {
            self.slab
                .get_mut(moved)
                .expect("binned ids are live")
                .set_bin(bin, slot);
        }
        self.slab
            .get_mut(id)
            .expect("just observed")
            .set_bin(NOT_BINNED, 0);
    }

    /// Moves a MiniHeap between bins after its occupancy changed.
    pub fn rebin(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("rebinning a dead MiniHeap");
        let new_bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        if mh.bin().0 != new_bin {
            self.bin_remove(id);
            self.bin_insert(id);
        }
    }

    /// Selects a partially full MiniHeap for reuse: first bin by
    /// decreasing occupancy that has a rested span (filed at least
    /// [`REST_REFILLS`] refills ago), random span within it (§3.1). The
    /// MiniHeap is removed from its bin, which is returned with it: frees
    /// since it was filed may have left it emptier than that.
    pub fn select_partial(&mut self) -> Option<(MiniHeapId, u8)> {
        for bin in 0..PARTIAL_BINS {
            let len = self.bins.partial[bin].len();
            for _ in 0..REST_DRAWS.min(len) {
                let pick = self.rng.below(len as u32) as usize;
                let id = self.bins.partial[bin][pick];
                let filed_at = self.slab.get(id).expect("binned ids are live").filed_at;
                if self.refills.wrapping_sub(filed_at) >= REST_REFILLS {
                    self.bin_remove(id);
                    return Some((id, bin as u8));
                }
            }
        }
        None
    }

    /// Makes every filed span count as rested (tests file spans and draw
    /// on them at once).
    #[cfg(test)]
    pub fn skip_rest(&mut self) {
        self.refills = self.refills.wrapping_add(REST_REFILLS);
    }
}

/// One size class's shard: its lock, plus what a non-local free uses
/// without it.
#[derive(Debug)]
struct ClassShard {
    unlocked: ShardUnlocked,
    state: Mutex<ClassState>,
}

/// The part of a [`ClassShard`] read without its lock. A cache line of its
/// own: a free reads `bits` on its way to the bitmap, and must not wait
/// for a line that a refill of this class or the next just locked.
#[derive(Debug)]
#[repr(align(64))]
struct ShardUnlocked {
    /// The bitmaps of `state.slab`, by MiniHeap id.
    bits: Arc<BitmapTable>,
    /// Odd while a mesh pair of this class is being consumed: between the
    /// first word taken from the source's bitmap and the page map naming
    /// the destination. A free whose clear finds its bit gone waits for an
    /// even value before it looks the page up again.
    mesh_epoch: AtomicU64,
    /// The spans a free emptied, or opened the first slot of: the next
    /// [`GlobalHeap::lock_class_swept`] destroys or refiles them.
    unsettled: UnsettledList,
}

/// Every lock of the heap, held at once, in [`GlobalHeap::lock_all`]'s
/// order: the fork-quiescence state (see `Mesh::fork_prepare`). The
/// guards are held purely for their locking effect; dropping the struct
/// releases everything.
pub(crate) struct AllShardGuards<'a> {
    _classes: Vec<MutexGuard<'a, ClassState>>,
    _large: MutexGuard<'a, Slab>,
    _arena: MutexGuard<'a, Arena>,
    _threads: MutexGuard<'a, Vec<Arc<crate::stats::ThreadStats>>>,
    _ctl: Option<MutexGuard<'a, crate::telemetry::CtlIo>>,
}

/// Runtime-tunable configuration (the `mallctl` analogs, §4.5) as
/// atomics, so controls never take a heap lock.
#[derive(Debug)]
pub(crate) struct RuntimeConfig {
    meshing: AtomicBool,
    mesh_period_nanos: AtomicU64,
    min_mesh_gain_bytes: AtomicUsize,
    probe_limit: AtomicUsize,
    occupancy_cutoff_bits: AtomicU64,
    max_span_count: AtomicUsize,
}

impl RuntimeConfig {
    fn new(config: &MeshConfig) -> RuntimeConfig {
        RuntimeConfig {
            meshing: AtomicBool::new(config.meshing),
            mesh_period_nanos: AtomicU64::new(
                config.mesh_period.as_nanos().min(u64::MAX as u128) as u64,
            ),
            min_mesh_gain_bytes: AtomicUsize::new(config.min_mesh_gain_bytes),
            probe_limit: AtomicUsize::new(config.probe_limit),
            occupancy_cutoff_bits: AtomicU64::new(config.occupancy_cutoff.to_bits()),
            max_span_count: AtomicUsize::new(config.max_span_count),
        }
    }

    pub fn meshing(&self) -> bool {
        self.meshing.load(Ordering::Relaxed)
    }

    pub fn set_meshing(&self, enabled: bool) {
        self.meshing.store(enabled, Ordering::Relaxed);
    }

    pub fn mesh_period(&self) -> Duration {
        Duration::from_nanos(self.mesh_period_nanos.load(Ordering::Relaxed))
    }

    pub fn set_mesh_period(&self, period: Duration) {
        self.mesh_period_nanos
            .store(period.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    pub fn min_mesh_gain_bytes(&self) -> usize {
        self.min_mesh_gain_bytes.load(Ordering::Relaxed)
    }

    pub fn probe_limit(&self) -> usize {
        self.probe_limit.load(Ordering::Relaxed)
    }

    pub fn set_probe_limit(&self, t: usize) {
        self.probe_limit.store(t, Ordering::Relaxed);
    }

    pub fn occupancy_cutoff(&self) -> f64 {
        f64::from_bits(self.occupancy_cutoff_bits.load(Ordering::Relaxed))
    }

    #[cfg(test)]
    pub fn set_occupancy_cutoff(&self, cutoff: f64) {
        self.occupancy_cutoff_bits
            .store(cutoff.to_bits(), Ordering::Relaxed);
    }

    pub fn max_span_count(&self) -> usize {
        self.max_span_count.load(Ordering::Relaxed)
    }
}

/// The §4.5 meshing rate limiter: a clock on the heap's epoch and the
/// pause flag, both atomics — no lock, and never held across a pass.
#[derive(Debug)]
pub(crate) struct MeshScheduler {
    /// When the last pass was claimed or ended. Starts at the heap's
    /// birth, so the first pass is due one period in.
    last_mesh: EpochClock,
    /// Set after a low-yield pass: the timer is not restarted until a
    /// subsequent free reaches the global heap (§4.5).
    paused: AtomicBool,
}

impl MeshScheduler {
    fn new() -> MeshScheduler {
        MeshScheduler {
            last_mesh: EpochClock::started_at(0),
            paused: AtomicBool::new(false),
        }
    }

    /// A free reached the global heap: restart a paused timer (§4.5's
    /// "until a subsequent allocation is freed through the global heap").
    pub fn on_global_free(&self, clock: &Counters) {
        // Read-only fast path: the flag is clear almost always, and an
        // unconditional swap would make every accepted global free a
        // write-mode RMW on a cache line shared by all threads.
        if self.paused.load(Ordering::Relaxed) && self.paused.swap(false, Ordering::Relaxed) {
            self.last_mesh.restart(clock.now_ns());
        }
    }

    /// Claims a rate-limited meshing slot: true at most once per `period`,
    /// and never while paused. Claiming restarts the timer, so concurrent
    /// callers cannot both start a pass for the same slot.
    fn due(&self, period: Duration, clock: &Counters) -> bool {
        !self.paused.load(Ordering::Relaxed) && self.last_mesh.claim(clock.now_ns(), period)
    }

    /// Records the end of a pass and whether it paused the timer.
    fn finish_pass(&self, low_yield: bool, clock: &Counters) {
        self.last_mesh.restart(clock.now_ns());
        self.paused.store(low_yield, Ordering::Relaxed);
    }
}

/// The sharded global heap. All public entry points are `&self`; each
/// method takes only the shard locks it needs (see module docs).
pub(crate) struct GlobalHeap {
    classes: Vec<ClassShard>,
    /// Large-object singletons (§4.4.3), ordered like a class lock.
    large: Mutex<Slab>,
    /// The meshable arena — the leaf lock of the discipline.
    pub arena: Mutex<Arena>,
    /// Lock-free page → MiniHeap routing table.
    pub page_map: PageMap,
    pub rt: RuntimeConfig,
    pub scheduler: MeshScheduler,
    pub counters: Arc<Counters>,
    /// Sampled-profiling state (`None` when `MESH_PROF` is off — the
    /// zero-overhead mode).
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// mesh-sense pressure/residency state: the snapshot ring that
    /// `sense` and `prom` renders poll into.
    pub(crate) sense: SenseState,
    /// Per-pass meshing-effectiveness ledger (always on; one lock + a few
    /// atomic adds per rate-limited pass).
    pub(crate) ledger: MeshLedger,
    /// Report destinations (`MESH_*_PATH`) and the pending-request mask
    /// (`SIGUSR2`, `Mesh::request_report`).
    pub(crate) reports: Reports,
    /// Hardened-mode configuration (`MESH_HARDEN`; policy `Off` keeps
    /// every hardened branch to one predictable test).
    pub(crate) harden: HardenConfig,
    /// mesh-ctl control-socket server (`None` unless `MESH_CTL` names a
    /// path). Served by the background thread; the malloc fast path never
    /// touches it.
    pub(crate) ctl: Option<CtlState>,
    /// Seed-derived canary word per size class (class-keyed, never
    /// address-keyed: meshing aliases several addresses onto one slot).
    class_canaries: [u64; NUM_SIZE_CLASSES],
    base: usize,
    pages: u32,
}

impl std::fmt::Debug for GlobalHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalHeap")
            .field("base", &(self.base as *const u8))
            .field("pages", &self.pages)
            .finish_non_exhaustive()
    }
}

impl GlobalHeap {
    pub fn new(config: MeshConfig, counters: Arc<Counters>) -> Result<GlobalHeap, MeshError> {
        config.validate()?;
        // Start the uptime/trace clock at heap birth, and install the
        // opt-in trace rings before any instrumented path can run.
        counters.epoch();
        if let Some(trace) = TraceSet::new(&config) {
            counters.set_trace(trace);
        }
        let arena = Arena::new(&config, Arc::clone(&counters))?;
        let base = arena.base_addr();
        let pages = arena.capacity_pages();
        let seed = config.seed.unwrap_or_else(|| Rng::from_entropy().next_u64());
        let classes = SizeClass::all()
            .map(|class| {
                let slab = Slab::for_class(class);
                ClassShard {
                    unlocked: ShardUnlocked {
                        bits: slab.table(),
                        mesh_epoch: AtomicU64::new(0),
                        unsettled: UnsettledList::default(),
                    },
                    state: Mutex::new(ClassState {
                        slab,
                        bins: ClassBins::default(),
                        refills: 0,
                        rng: Rng::with_seed(
                            // "mesh-glo"
                            seed ^ 0x6d65_7368_2d67_6c6f ^ ((class.index() as u64) << 56),
                        ),
                    }),
                }
            })
            .collect();
        Ok(GlobalHeap {
            classes,
            large: Mutex::new(Slab::for_large()),
            arena: Mutex::new(arena),
            page_map: PageMap::new(pages as usize),
            rt: RuntimeConfig::new(&config),
            scheduler: MeshScheduler::new(),
            counters,
            telemetry: Telemetry::new(&config),
            sense: SenseState::new(&config),
            ledger: MeshLedger::new(),
            reports: Reports::new(&config),
            harden: config.harden,
            ctl: config
                .ctl_socket_path()
                .map(|p| CtlState::bind(p, config.ctl_client_cap())),
            class_canaries: std::array::from_fn(|i| harden::canary_word(seed, i)),
            base,
            pages,
        })
    }

    /// Base address of the arena mapping (lock-free).
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.base
    }

    /// Total arena capacity in pages (lock-free).
    #[inline]
    pub fn capacity_pages(&self) -> u32 {
        self.pages
    }

    /// Arena page containing `addr`, or `None` outside the arena
    /// (lock-free).
    #[inline]
    pub fn page_of_addr(&self, addr: usize) -> Option<u32> {
        if addr < self.base {
            return None;
        }
        let page = (addr - self.base) / PAGE_SIZE;
        if page < self.pages as usize {
            Some(page as u32)
        } else {
            None
        }
    }

    // ----- hardened-mode policy engine ----------------------------------

    /// The canary word objects of size class `class_idx` carry while free.
    #[inline]
    pub(crate) fn canary(&self, class_idx: usize) -> u64 {
        self.class_canaries[class_idx]
    }

    /// Records one hardened-mode violation at `addr`: no-op with
    /// hardening off, a `harden_*` counter bump under the count policy,
    /// and a one-line diagnostic plus `SIGABRT` under the die policy.
    #[inline]
    pub(crate) fn harden_violation(&self, kind: HardenKind, addr: usize) {
        if !self.harden.active() {
            return;
        }
        self.counters.harden_violations[kind as usize].fetch_add(1, Ordering::Relaxed);
        if self.harden.aborts() {
            harden::harden_abort(kind, addr);
        }
    }

    /// Writes the free-object poison layout over one small object (no-op
    /// unless poisoning is on).
    #[inline]
    pub(crate) fn poison_object(&self, addr: usize, size: usize, class_idx: usize) {
        if self.harden.poison_on() {
            unsafe { harden::poison_fill(addr, size, self.class_canaries[class_idx]) };
        }
    }

    /// Verifies the poison layout of a free small object about to be
    /// handed out again; a mismatch is a use-after-free write
    /// (`kind=poison`). No-op unless poisoning is on.
    #[inline]
    pub(crate) fn verify_poison(&self, addr: usize, size: usize, class_idx: usize) {
        if self.harden.poison_on()
            && !unsafe { harden::poison_verify(addr, size, self.class_canaries[class_idx]) }
        {
            self.harden_violation(HardenKind::Poison, addr);
        }
    }

    // ----- lock acquisition (with contention accounting) ----------------

    /// Acquires one size class's lock, counting contended acquisitions.
    /// Contended waits feed the class-lock-wait histogram and — when a
    /// mesh pass is active and the waiter is not the mesher — the
    /// mutator-pause histogram. The uncontended path pays no clock read.
    pub fn lock_class(&self, class: SizeClass) -> MutexGuard<'_, ClassState> {
        self.lock_class_reporting(class).0
    }

    /// [`GlobalHeap::lock_class`] variant that also reports whether the
    /// acquisition was contended — the meshing ledger's class-contention
    /// signal (a pass that waited for the lock ran against a heap some
    /// mutator was reshaping moments earlier).
    pub(crate) fn lock_class_reporting(
        &self,
        class: SizeClass,
    ) -> (MutexGuard<'_, ClassState>, bool) {
        #[cfg(debug_assertions)]
        debug_assert!(
            !small_free_scope::active(),
            "a non-local small free takes no class lock"
        );
        let shard = &self.classes[class.index()];
        let (guard, waited) = shard.state.lock_timed();
        if let Some(ns) = waited {
            self.counters.class_lock_contention[class.index()].fetch_add(1, Ordering::Relaxed);
            self.counters.record_lock_wait(TimedOp::ClassLockWait, ns);
        }
        (guard, waited.is_some())
    }

    /// Acquires the arena leaf lock, counting contended acquisitions
    /// (timed like [`GlobalHeap::lock_class`]).
    /// Lock order: at most one class (or large) lock may be held.
    pub fn lock_arena(&self) -> MutexGuard<'_, Arena> {
        #[cfg(debug_assertions)]
        debug_assert!(
            !small_free_scope::active(),
            "a non-local small free may not wait for the arena"
        );
        let (guard, waited) = self.arena.lock_timed();
        if let Some(ns) = waited {
            self.counters.arena_lock_contention.fetch_add(1, Ordering::Relaxed);
            self.counters.record_lock_wait(TimedOp::ArenaLockWait, ns);
        }
        guard
    }

    /// [`GlobalHeap::lock_class`] for the paths that place or pick spans
    /// (refill, detach, meshing pass, purge): does first the bin work
    /// frees left behind.
    pub(crate) fn lock_class_swept(&self, class: SizeClass) -> MutexGuard<'_, ClassState> {
        let mut st = self.lock_class(class);
        self.tidy_locked(class, &mut st);
        st
    }

    // ----- non-local small frees (§4.4.4) -------------------------------

    /// Runs `op` on the bitmap of the MiniHeap owning the small object at
    /// `addr` and on the object's slot, starting from the page-map entry
    /// the caller read as `info` from page `page`. `op` tests or clears
    /// the object's bit and says whether it found it set; `Ok` carries
    /// the entry and the [`SpanBits`] it found it in.
    ///
    /// An `op` that finds the bit gone has met a freed object unless a
    /// mesh consumed the span since `info` was read: the mesher takes a
    /// source's bits before the page map names the destination. So this
    /// waits for the batch in progress, if any (the class's epoch is odd
    /// for that long: at most [`MESH_BATCH`](crate::meshing::MESH_BATCH)
    /// copies and remaps), reads the page map again, and goes round with
    /// what it names. Another MiniHeap is the destination the object
    /// moved to. The same one gets a second look, because a batch whose
    /// remap the kernel refused puts the bits it took back; the bit gone
    /// again with the epoch where it was — no batch ran in between — is
    /// `Err(DoubleFree)`. A consumed source's id stays an all-zero
    /// tombstone while its destination lives, which is as long as the
    /// object does, so a stale id can only ever name nothing to clear.
    /// `Err(InvalidFree)` is an address that is no object's start, or
    /// whose span died under it.
    #[inline]
    fn with_object_bit(
        &self,
        addr: usize,
        mut page: u32,
        mut info: PageInfo,
        op: impl Fn(&crate::bitmap::AtomicBitmap, usize) -> bool,
    ) -> Result<(PageInfo, &crate::miniheap::SpanBits), HardenKind> {
        let class = SizeClass::from_index(info.class_code as usize);
        let shard = &self.classes[class.index()];
        // The epoch at which `info.id` was last seen without the bit.
        let mut gone_at = None;
        loop {
            // Tail waste and misaligned interior pointers are hostile
            // frees, mirroring the local path's validation.
            let slot = class
                .slot_at(addr - info.span_start(self.base, page))
                .ok_or(HardenKind::InvalidFree)?;
            let bits = shard.unlocked.bits.get(info.id).ok_or(HardenKind::InvalidFree)?;
            if op(bits.bitmap(), slot) {
                return Ok((info, bits));
            }
            let mut spins = 0u32;
            let epoch = loop {
                let epoch = shard.unlocked.mesh_epoch.load(Ordering::Acquire);
                if epoch & 1 == 0 {
                    break epoch;
                }
                // One batch: copies and remaps, like a write-barrier wait.
                if spins < 128 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            };
            match self.resolve_free(addr) {
                Some((p, i)) if i.class_code == info.class_code && i.id != info.id => {
                    page = p;
                    info = i;
                    gone_at = None;
                }
                Some((_, i)) if i.class_code == info.class_code => {
                    if gone_at == Some(epoch) {
                        return Err(HardenKind::DoubleFree);
                    }
                    gone_at = Some(epoch);
                }
                // The span died since (its last object was freed before
                // this duplicate): the page is unowned or someone else's.
                _ => return Err(HardenKind::InvalidFree),
            }
        }
    }

    /// Whether the small object at `addr` is allocated: `Ok` if its bit
    /// is set, else the verdict a free of it would get. What the
    /// quarantine checks before it parks a non-local free.
    pub(crate) fn check_small_live(
        &self,
        addr: usize,
        page: u32,
        info: PageInfo,
    ) -> Result<(), HardenKind> {
        self.with_object_bit(addr, page, info, |bitmap, slot| bitmap.is_set(slot))
            .map(|_| ())
    }

    /// Frees the small object at `addr` (see
    /// [`GlobalHeap::with_object_bit`] for `page` and `info`): clears its
    /// bit in the owning MiniHeap's bitmap and accounts for the free — on
    /// `local`, the freeing thread's delta block, or on the shared
    /// counters without one. No lock is taken for any of that, and a
    /// refused free is counted before this returns.
    ///
    /// When the clear emptied a detached span, or opened the first slot of
    /// one filed as full, the span is pushed on the class's lock-free list
    /// of unsettled spans: the next [`GlobalHeap::lock_class_swept`]
    /// destroys or refiles it. A free takes no lock and tries none.
    pub(crate) fn free_small(
        &self,
        addr: usize,
        page: u32,
        info: PageInfo,
        local: Option<&LocalCounters>,
    ) -> bool {
        #[cfg(debug_assertions)]
        let _scope = small_free_scope::enter();
        let class = SizeClass::from_index(info.class_code as usize);
        let size = class.object_size();
        let cleared = self.with_object_bit(addr, page, info, |bitmap, slot| {
            if !self.harden.poison_on() {
                return bitmap.unset(slot);
            }
            // The poison layout goes in *before* the clear: a clear bit
            // can be claimed by an attach and handed out at once. It goes
            // only over an object whose bit is still set, so a duplicate
            // free does not scribble over the slot's next owner.
            bitmap.is_set(slot) && {
                self.poison_object(addr, size, class.index());
                bitmap.unset(slot)
            }
        });
        let (info, bits) = match cleared {
            Ok(found) => found,
            Err(kind) => return self.reject_free(kind, addr),
        };
        match local {
            Some(local) => local.on_remote_free(size),
            None => {
                self.counters.frees.fetch_add(1, Ordering::Relaxed);
                self.counters.remote_frees.fetch_add(1, Ordering::Relaxed);
                self.counters.live_bytes.fetch_sub(size, Ordering::Relaxed);
            }
        }
        // An unfiled span is attached, and its thread's to release (its
        // refill sees the clear bit), or in the hands of the lock holder.
        // A filed one must move when this clear made it available — it
        // was filed as full — or left nothing live in it: that is work
        // under the class lock (and, to destroy a span, the arena lock and
        // system calls), so it is left to the next holder. The partial
        // bins in between are only refreshed by lock holders.
        let filed = bits.bin();
        if filed == FULL_BIN || (filed < FULL_BIN && bits.bitmap().in_use() == 0) {
            let unsettled = &self.classes[class.index()].unlocked.unsettled;
            unsettled.push(info.id.to_raw(), bits);
        }
        true
    }

    /// Counts a refused free of `addr` and reports it to hardened mode.
    #[cold]
    pub(crate) fn reject_free(&self, kind: HardenKind, addr: usize) -> bool {
        let counter = match kind {
            HardenKind::DoubleFree => &self.counters.double_frees,
            _ => &self.counters.invalid_frees,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.harden_violation(kind, addr);
        false
    }

    /// Puts the detached, binned MiniHeap `id` where its bitmap says it
    /// belongs: destroyed if nothing in it is live, else in the bin of its
    /// occupancy. Anything else — dead, attached, picked out of its bin by
    /// the holder of the lock — is left alone, so a stale `id` is harmless.
    /// Returns whether the MiniHeap left the bin it was in.
    pub(crate) fn settle_locked(&self, st: &mut ClassState, id: MiniHeapId) -> bool {
        let Some(mh) = st.slab.get(id) else {
            return false;
        };
        let (was, _) = mh.bin();
        if was == NOT_BINNED {
            return false;
        }
        debug_assert!(!mh.is_attached());
        if mh.in_use() == 0 {
            self.free_miniheap_locked(st, id);
            return true;
        }
        st.rebin(id);
        st.slab.get(id).expect("just rebinned").bin().0 != was
    }

    /// Does what frees left to a holder of `class`'s lock: settles the
    /// spans they listed. Returns whether a span was destroyed.
    pub(crate) fn tidy_locked(&self, class: SizeClass, st: &mut ClassState) -> bool {
        let unlocked = &self.classes[class.index()].unlocked;
        let mut reaped = false;
        let mut raw = unlocked.unsettled.take();
        while raw != LIST_END {
            let id = MiniHeapId::from_raw(raw);
            raw = UnsettledList::next(unlocked.bits.get(id).expect("a listed id was issued"));
            // The id may have died, or died and been reissued, since.
            reaped |= self.settle_locked(st, id) && st.slab.get(id).is_none();
        }
        reaped
    }

    /// The class's mesh epoch: odd from [`GlobalHeap::begin_consume`] to
    /// [`GlobalHeap::end_consume`].
    pub(crate) fn begin_consume(&self, class: SizeClass) {
        let was = self.classes[class.index()]
            .unlocked
            .mesh_epoch
            .fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(was & 1, 0, "one batch at a time per class");
    }

    /// Ends the odd interval: every bit taken is set in the destination
    /// and the page map names it, and a free that waited sees both.
    pub(crate) fn end_consume(&self, class: SizeClass) {
        let was = self.classes[class.index()]
            .unlocked
            .mesh_epoch
            .fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(was & 1, 1);
    }

    // ----- MiniHeap lifecycle (class lock held) -------------------------

    /// Allocates and registers a fresh MiniHeap for `class` (§4.4.2).
    pub(crate) fn fresh_miniheap_locked(
        &self,
        st: &mut ClassState,
        class: SizeClass,
    ) -> Result<MiniHeapId, MeshError> {
        let mut arena = self.lock_arena();
        let (span, _) = arena.alloc_span(class.span_pages() as u32)?;
        let id = st.slab.insert_with(|bits| MiniHeap::new_small(class, span, bits));
        self.page_map.set_span(span, id, class.index() as u8);
        drop(arena);
        if self.harden.poison_on() {
            // A fresh span's slots are all free: give each the poison
            // layout so first-allocation verification has something to
            // check (mmap zero fill would read as a violation).
            let start = self.base + span.byte_offset();
            let size = class.object_size();
            let canary = self.class_canaries[class.index()];
            for slot in 0..class.object_count() {
                unsafe { harden::poison_fill(start + slot * size, size, canary) };
            }
        }
        Ok(id)
    }

    /// Destroys an empty, detached MiniHeap: returns its spans to the
    /// arena — meshed aliases parked, their identity mappings left to the
    /// next purge — and clears ownership.
    pub(crate) fn free_miniheap_locked(&self, st: &mut ClassState, id: MiniHeapId) {
        st.bin_remove(id);
        let mut mh = st.slab.remove(id);
        debug_assert_eq!(mh.in_use(), 0, "freeing a MiniHeap with live objects");
        // Every object of the MiniHeaps meshed into this one is dead too:
        // no free can still hold one of their ids.
        for tombstone in mh.take_tombstones() {
            st.slab.release_id(tombstone);
        }
        let mut arena = self.lock_arena();
        for alias in mh.take_alias_spans() {
            self.page_map.clear_span(alias);
            arena.park_alias(alias);
        }
        let primary = mh.span();
        self.page_map.clear_span(primary);
        arena.free_span_dirty(primary);
    }

    /// Refills `set` for `class` under the class lock (plus the arena leaf
    /// lock only if a fresh span is needed):
    ///
    /// 1. members the thread is not drawing on are released — to their
    ///    occupancy bin, or destroyed if nothing in them is live. These
    ///    are the idle ones its frees have passed by
    ///    ([`AttachedSet::take_idle`]: full spans, which the mesher gets
    ///    to see once their objects die, as when every refill detached
    ///    the one attached span), and the ones other threads freed into,
    ///    whose freed slots are re-claimed by whoever step 2 hands the
    ///    span to — this set, if it is among the fullest;
    /// 2. partial spans are attached fullest-first (§3.1; by the bins,
    ///    which say where a lock holder last filed a span, not what frees
    ///    have made of it since) until the set holds its goal, one span's
    ///    worth of free slots, or is full of members that all have slots —
    ///    evicting one more full member only when the set is at its bound
    ///    and a partial span needs the place. The spans frees have listed
    ///    since are settled first when [`TIDY_BATCH`] of them wait, and
    ///    otherwise only if the bins come up short of the goal;
    /// 3. a fresh span is carved only if all of that found no slot.
    ///
    /// Full members this thread keeps freeing into stay: that is what
    /// keeps its frees local. The goal bounds what a thread hoards to what
    /// one fresh span always gave it — free slots a thread sits on are
    /// slots another thread must carve a span for — and going through the
    /// bins keeps the packing fullest-first across threads.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaExhausted`] when no slot was found and no
    /// span can be carved.
    pub fn refill(
        &self,
        set: &mut AttachedSet,
        class: SizeClass,
        token: u64,
        thread_rng: &mut Rng,
    ) -> Result<(), MeshError> {
        let mut st = self.lock_class(class);
        let mut tidied = self.classes[class.index()].unlocked.unsettled.len() >= TIDY_BATCH;
        if tidied {
            self.tidy_locked(class, &mut st);
        }
        self.counters.refills.fetch_add(1, Ordering::Relaxed);
        st.refills = st.refills.wrapping_add(1);
        let idle = set.take_idle();
        for member in set.members() {
            let mh = st.slab.get(set.id(member)).expect("attached id is live");
            // Every slot the vector holds is claimed, so a clear bit is a
            // slot another thread's free gave back. A member this thread
            // still draws on is wanted back now; an idle one can rest.
            let is_idle = idle & (1 << member) != 0;
            if is_idle || mh.in_use() < mh.object_count() {
                self.release_vector_locked(&mut st, set.unlink(member), !is_idle);
            }
        }
        let mut slots = set.available();
        let mut misfiled = 0;
        'gather: loop {
            while slots < class.object_count() {
                let Some((id, filed)) = st.select_partial() else { break };
                let in_use = st.slab.get(id).expect("binned ids are live").in_use();
                if in_use == 0 {
                    // Emptied since the class was last tidied.
                    self.free_miniheap_locked(&mut st, id);
                    continue;
                }
                // Frees do not move a span between partial bins. One that
                // has drained since it was filed goes where it belongs —
                // the fullest come first (§3.1) — a few times per refill
                // at most.
                if bin_for_occupancy(in_use, class.object_count()) > filed
                    && misfiled < REST_DRAWS
                {
                    misfiled += 1;
                    self.file_locked(&mut st, id, true);
                    continue;
                }
                if !self.make_room_locked(&mut st, set, thread_rng) {
                    self.file_locked(&mut st, id, true);
                    break 'gather;
                }
                slots += self.attach_locked(&mut st, set, id, token, thread_rng);
            }
            // The bins came up short: the spans frees have opened up since
            // they were last tidied come before a fresh one.
            if slots >= class.object_count() || tidied {
                break;
            }
            tidied = true;
            self.tidy_locked(class, &mut st);
        }
        if slots == 0 {
            let room = self.make_room_locked(&mut st, set, thread_rng);
            debug_assert!(room, "a set without free slots has only full members");
            let id = self.fresh_miniheap_locked(&mut st, class)?;
            self.attach_locked(&mut st, set, id, token, thread_rng);
        }
        Ok(())
    }

    /// Makes sure `set` has a vacant position, evicting a random full
    /// member if it is at its bound. `false` when it is at its bound and
    /// every member still has free slots.
    fn make_room_locked(
        &self,
        st: &mut ClassState,
        set: &mut AttachedSet,
        thread_rng: &mut Rng,
    ) -> bool {
        if !set.is_full() {
            return true;
        }
        let Some(victim) = set.pick_full(thread_rng) else {
            return false;
        };
        self.release_vector_locked(st, set.unlink(victim), false);
        true
    }

    /// Attaches detached MiniHeap `id` to `set` for thread `token`;
    /// returns the free slots it brought.
    fn attach_locked(
        &self,
        st: &mut ClassState,
        set: &mut AttachedSet,
        id: MiniHeapId,
        token: u64,
        thread_rng: &mut Rng,
    ) -> usize {
        let mh = st.slab.get_mut(id).expect("selected id is live");
        mh.set_state(AttachState::Attached(token));
        let mh = &*mh;
        let span = mh.span();
        set.attach_with(|sv| {
            sv.attach(
                id,
                self.base + span.byte_offset(),
                span.byte_len(),
                mh.object_count(),
                mh.object_size(),
                mh.bitmap(),
                thread_rng,
            );
            for alias in &mh.virtual_spans()[1..] {
                sv.push_span_alias(self.base + alias.byte_offset());
            }
        })
    }

    /// Detaches one member — the local free path's release of a member
    /// the retention rule gives back ([`AttachedSet::is_surplus_empty`]).
    pub fn release_member(&self, class: SizeClass, set: &mut AttachedSet, member: usize) {
        let mut st = self.lock_class_swept(class);
        self.release_vector_locked(&mut st, set.unlink(member), false);
    }

    /// Teardown path for a thread heap: detaches every member of `set`.
    pub fn release_set(&self, class: SizeClass, set: &mut AttachedSet) {
        if set.len() == 0 {
            return;
        }
        let mut st = self.lock_class_swept(class);
        for member in set.members() {
            self.release_vector_locked(&mut st, set.unlink(member), false);
        }
    }

    /// Detaches `sv`'s span and files it: `rested` lets the next
    /// [`ClassState::select_partial`] hand it straight out again.
    fn release_vector_locked(&self, st: &mut ClassState, sv: &mut ShuffleVector, rested: bool) {
        let Some(old) = sv.miniheap() else { return };
        let mh = st.slab.get_mut(old).expect("attached id is live");
        mh.set_state(AttachState::Detached);
        sv.detach(mh.bitmap());
        self.file_locked(st, old, rested);
    }

    /// Files the detached, unfiled MiniHeap `id` under its occupancy bin —
    /// as one that has had its rest, with `rested` — or destroys it if
    /// nothing in it is live. Filed first, bitmap read again after: a free
    /// that cleared the last live bit meanwhile either is seen by that
    /// read or saw the span filed and settles it itself (see
    /// [`crate::bitmap`]).
    fn file_locked(&self, st: &mut ClassState, id: MiniHeapId, rested: bool) {
        st.bin_insert(id);
        if rested {
            let since = st.refills.wrapping_sub(REST_REFILLS);
            st.slab.get_mut(id).expect("just filed").filed_at = since;
        }
        self.settle_locked(st, id);
    }

    // ----- large objects (§4.4.3) ---------------------------------------

    /// Allocates a large object: the request is rounded up to whole pages
    /// and a singleton MiniHeap accounts for it. Takes the large-shard
    /// lock, then the arena lock.
    pub fn malloc_large(&self, size: usize) -> Result<usize, MeshError> {
        self.malloc_large_aligned(size, PAGE_SIZE)
    }

    /// Allocates a large object aligned to `align` (a power of two).
    /// Alignments above the page size are served by over-allocating
    /// `align/PAGE_SIZE − 1` extra pages and returning the first aligned
    /// address inside the span — every page of the span routes through the
    /// page map to the same singleton MiniHeap, so `free`/`usable_size` on
    /// the interior pointer behave normally.
    pub fn malloc_large_aligned(&self, size: usize, align: usize) -> Result<usize, MeshError> {
        debug_assert!(align.is_power_of_two());
        let guarded = self.harden.guard_on();
        let extra = (align / PAGE_SIZE).saturating_sub(1) + usize::from(guarded);
        let requested = size.div_ceil(PAGE_SIZE).max(1).saturating_add(extra);
        // Absurd sizes (near usize::MAX) must fail as exhaustion, not
        // truncate in the page-count narrowing below; the byte length must
        // also fit the MiniHeap's u32 object size.
        let exhausted = || MeshError::ArenaExhausted {
            requested_pages: requested,
            capacity_pages: self.pages as usize,
        };
        if requested > (u32::MAX as usize) / PAGE_SIZE {
            return Err(exhausted());
        }
        let Ok(pages) = u32::try_from(requested) else {
            return Err(exhausted());
        };
        let (span, object_bytes, addr) = {
            let mut large = self.large.lock();
            let mut arena = self.lock_arena();
            let (span, _) = arena.alloc_span(pages)?;
            let start = self.base + span.offset as usize * PAGE_SIZE;
            let addr = if align > PAGE_SIZE {
                (start + align - 1) & !(align - 1)
            } else {
                start
            };
            let id = large.insert_with(|bits| MiniHeap::new_large(span, guarded, bits));
            let mh = large.get_mut(id).expect("just inserted");
            if addr != start {
                // Hardened frees are pinned to the exact handed-out
                // address, so remember where the over-aligned object
                // actually starts.
                mh.set_large_start_off(addr - start);
            }
            let object_bytes = mh.object_size();
            self.page_map.set_span(span, id, LARGE_CLASS);
            (span, object_bytes, addr)
        };
        if guarded {
            // The span's last page is the guard. Die policy: register the
            // page with the write-barrier fault handler (so its faults
            // forward to SIG_DFL instead of the barrier's retry loop) and
            // make it PROT_NONE — a linear overflow then faults on the
            // first byte past the object. Count policy — or a full guard
            // registry — degrades to a poison fill verified when the
            // object dies. The fill goes in first either way, so even a
            // failed mprotect leaves a checkable guard.
            let tail = (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
            unsafe {
                std::ptr::write_bytes(tail, harden::POISON_BYTE, PAGE_SIZE);
                if self.harden.aborts() && crate::barrier::register_guard_page(tail as usize) {
                    let _ = crate::sys::protect_none(tail, PAGE_SIZE);
                }
            }
        }
        self.counters.large_allocs.fetch_add(1, Ordering::Relaxed);
        self.counters.mallocs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .live_bytes
            .fetch_add(object_bytes, Ordering::Relaxed);
        let start = self.base + span.offset as usize * PAGE_SIZE;
        debug_assert!(addr + size <= start + object_bytes);
        if let Some(t) = &self.telemetry {
            // Large objects are traced exactly (sampling probability ≈ 1
            // at these sizes); keyed by the address actually handed out,
            // which is what free() will present.
            t.record_large(addr, object_bytes);
        }
        Ok(addr)
    }

    fn free_large(&self, addr: usize, page: u32) -> bool {
        let mut large = self.large.lock();
        // Re-check under the lock: a racing free may already have retired
        // this object (its page-map entries are then cleared or reused).
        let Some(info) = self.page_map.get(page).filter(|info| info.is_large()) else {
            return self.reject_free(HardenKind::InvalidFree, addr);
        };
        let Some(mh) = large.get(info.id) else {
            return self.reject_free(HardenKind::InvalidFree, addr);
        };
        // Classic mode accepts any pointer into the live span (C-lenient,
        // like the interior-offset tolerance on the small path). Hardened
        // mode pins free to the exact address malloc returned: an interior
        // pointer must not be able to release — or double-count — the
        // whole object.
        if self.harden.active() {
            let start = self.base + mh.span().byte_offset() + mh.large_start_off();
            if addr != start {
                return self.reject_free(HardenKind::InvalidFree, addr);
            }
        }
        if !mh.bitmap().unset(0) {
            return self.reject_free(HardenKind::DoubleFree, addr);
        }
        let mh = large.remove(info.id);
        let span = mh.span();
        if mh.is_guarded() {
            let tail = (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
            unsafe {
                if crate::barrier::unregister_guard_page(tail as usize) {
                    // Faulting guard: it was PROT_NONE (nothing can have
                    // been written through it) and the span is about to
                    // be released and recycled, so restore protection.
                    let _ = crate::sys::protect_read_write(tail, PAGE_SIZE);
                } else {
                    // Poison-scan guard (count policy, or die policy
                    // degraded on a full registry): any write past the
                    // object corrupted the fill.
                    let tail_bytes = std::slice::from_raw_parts(tail, PAGE_SIZE);
                    if tail_bytes.iter().any(|&b| b != harden::POISON_BYTE) {
                        self.harden_violation(HardenKind::Guard, tail as usize);
                    }
                }
            }
        }
        {
            let mut arena = self.lock_arena();
            self.page_map.clear_span(span);
            // Large-object pages go straight back to the OS (§4).
            arena.release_span(span);
        }
        self.counters.frees.fetch_add(1, Ordering::Relaxed);
        self.counters.remote_frees.fetch_add(1, Ordering::Relaxed);
        self.counters
            .live_bytes
            .fetch_sub(mh.object_size(), Ordering::Relaxed);
        true
    }

    // ----- non-local frees (§4.4.4) -------------------------------------

    /// Resolves `addr` to its arena page and page-map entry, or `None`
    /// for foreign/unowned pointers (lock-free).
    #[inline]
    fn resolve_free(&self, addr: usize) -> Option<(u32, crate::page_map::PageInfo)> {
        let page = self.page_of_addr(addr)?;
        let info = self.page_map.get(page)?;
        Some((page, info))
    }

    /// Frees `addr` through the global heap: small objects by clearing
    /// their bit ([`GlobalHeap::free_small`]), large objects under the
    /// large lock; then runs a due inline meshing pass. Returns whether
    /// the free was accepted. Must be called with no shard locks held.
    pub fn free_global(&self, addr: usize) -> bool {
        let accepted = self.free_global_deferred(addr);
        if accepted {
            self.maybe_mesh();
        }
        accepted
    }

    /// Frees `addr` given its already-decoded page-map entry — the entry
    /// point used by the thread-heap fast path, which resolved the entry
    /// for its own local/remote decision and passes it down, with its
    /// delta block, instead of having the global heap re-derive it. The
    /// caller runs [`GlobalHeap::maybe_mesh`] when it sees fit.
    #[inline]
    pub(crate) fn free_routed(
        &self,
        addr: usize,
        page: u32,
        info: PageInfo,
        local: Option<&LocalCounters>,
    ) -> bool {
        let accepted = if info.is_large() {
            self.free_large(addr, page)
        } else {
            self.free_small(addr, page, info, local)
        };
        if accepted {
            self.scheduler.on_global_free(&self.counters);
        }
        accepted
    }

    /// Frees `addr` through the global path *without* running inline
    /// meshing: the route for frees arriving from internal contexts (which
    /// may already hold a shard lock a meshing pass would retake).
    pub fn free_global_deferred(&self, addr: usize) -> bool {
        if let Some(t) = &self.telemetry {
            t.on_free(addr);
        }
        match self.resolve_free(addr) {
            Some((page, info)) => self.free_routed(addr, page, info, None),
            None => self.reject_free(HardenKind::InvalidFree, addr),
        }
    }

    // ----- fork support --------------------------------------------------

    /// Acquires every heap lock, quiescing the heap for `fork()`. This is
    /// the heap's one list of its locks, in their one order:
    ///
    /// 1. the size-class shards, by index;
    /// 2. the large shard;
    /// 3. the arena;
    /// 4. the thread registry ([`Counters`]);
    /// 5. the ctl socket's I/O lock, when there is a socket.
    ///
    /// Classes and large order before the arena, and a pass holds one
    /// class at a time (DESIGN.md §2); 4 and 5 are leaves, never held
    /// while another lock is taken, so their order only has to be fixed
    /// here. Any in-flight refill, meshing pass (so every mesh epoch is
    /// even), thread (un)registration or ctl write completes before this
    /// returns, so a child forked at any moment inherits consistent heap
    /// state and no lock its own recovery takes. Frees hold no lock and
    /// are not waited for: a thread between its clear and its count does
    /// not exist in the child, and the span of one caught between the two
    /// steps of [`SpanBits::list_unsettled`](crate::miniheap::SpanBits)
    /// stays filed as it was in the child (one span's free slots, unused).
    /// Nor are telemetry ring writers: the child wipes every ring.
    pub(crate) fn lock_all(&self) -> AllShardGuards<'_> {
        AllShardGuards {
            _classes: SizeClass::all().map(|c| self.lock_class(c)).collect(),
            _large: self.large.lock(),
            _arena: self.lock_arena(),
            _threads: self.counters.lock_threads(),
            _ctl: self.ctl.as_ref().map(|c| c.lock_io()),
        }
    }

    /// The names of [`GlobalHeap::lock_all`]'s kinds that are held right
    /// now (test hook for the fork-quiescence protocol).
    #[cfg(test)]
    pub(crate) fn held_lock_kinds(&self) -> Vec<&'static str> {
        let held = |m: bool, name| m.then_some(name);
        [
            held(
                self.classes.iter().all(|c| c.state.try_lock().is_none()),
                "classes",
            ),
            held(self.large.try_lock().is_none(), "large"),
            held(self.arena.try_lock().is_none(), "arena"),
            held(self.counters.threads_held(), "threads"),
            held(self.ctl.as_ref().is_some_and(|c| c.io_held()), "ctl"),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Child-side fork recovery: re-backs every segment with a private
    /// file copy and re-establishes mesh alias mappings (which the
    /// identity remap clobbers; large objects are never meshed, so
    /// identity is already right for them). Runs in the single-threaded
    /// child with no locks held; takes them normally. Returns whether
    /// privatization succeeded.
    pub(crate) fn privatize_after_fork(&self) -> bool {
        if let Err(e) = self.lock_arena().privatize_segments() {
            eprintln!(
                "mesh: fork privatization failed ({e}); child still shares parent heap pages"
            );
            return false;
        }
        let mut ok = true;
        for class in SizeClass::all() {
            let st = self.lock_class(class);
            for (_, mh) in st.slab.iter() {
                if mh.span_count() > 1 {
                    let spans = mh.virtual_spans();
                    let mut arena = self.lock_arena();
                    for alias in &spans[1..] {
                        // Warn-and-continue, like the copy failure above: a
                        // degraded child beats aborting someone's shell from
                        // an atfork handler. (The alias range then reads its
                        // own identity pages instead of the meshed data.)
                        if let Err(e) = arena.remap_alias(*alias, spans[0]) {
                            eprintln!(
                                "mesh: fork alias remap failed ({e}); \
                                 meshed span {alias} left unaliased in the child"
                            );
                            ok = false;
                        }
                    }
                }
            }
        }
        if self.harden.guard_on() && self.harden.aborts() {
            // The identity remap re-backed every page read-write, clobbering
            // the PROT_NONE guard tails of live large objects.
            let large = self.large.lock();
            for (_, mh) in large.iter() {
                if mh.is_guarded() {
                    let span = mh.span();
                    let tail =
                        (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
                    // Degraded (poison-scan) guards must stay readable —
                    // only registered faulting guards get PROT_NONE back.
                    if !crate::barrier::guard_page_registered(tail as usize) {
                        continue;
                    }
                    if let Err(e) = unsafe { crate::sys::protect_none(tail, PAGE_SIZE) } {
                        eprintln!("mesh: fork guard re-protect failed ({e})");
                        ok = false;
                    }
                }
            }
        }
        ok
    }

    // ----- meshing entry points -----------------------------------------

    /// Runs a meshing pass if meshing is enabled and the rate limiter
    /// allows it (§4.5). Must be called with no shard locks held.
    pub fn maybe_mesh(&self) {
        if !self.rt.meshing() {
            return;
        }
        if self.scheduler.due(self.rt.mesh_period(), &self.counters) {
            self.mesh_now();
        }
    }

    /// Runs a meshing pass immediately (bypassing the rate limiter),
    /// returning its summary. Still a no-op when meshing is disabled —
    /// the "Mesh (no meshing)" configuration never meshes (§6.3). Must be
    /// called with no shard locks held.
    pub fn mesh_now(&self) -> MeshSummary {
        if !self.rt.meshing() {
            return MeshSummary::default();
        }
        // While this scope lives, other threads' contended lock waits are
        // pauses inflicted by the mesher (this thread's own are not).
        let _pass = crate::stats::MeshPassScope::enter(&self.counters);
        let summary = meshing::mesh_all_classes(self);
        let low_yield = summary.bytes_released() < self.rt.min_mesh_gain_bytes();
        self.scheduler.finish_pass(low_yield, &self.counters);
        summary
    }

    // ----- queries ------------------------------------------------------

    /// Object size usable at `addr`, or `None` for foreign pointers —
    /// including addresses in a span's tail waste past the last object
    /// slot. For interior pointers into a large span (over-aligned
    /// allocations return those) this is the bytes remaining to the span
    /// end, matching what `malloc_usable_size` promises for the pointer
    /// actually handed out. Lock-free for small classes.
    pub fn usable_size(&self, addr: usize) -> Option<usize> {
        let page = self.page_of_addr(addr)?;
        let info = self.page_map.get(page)?;
        if info.is_large() {
            let large = self.large.lock();
            let mh = large.get(info.id)?;
            let span_start = self.base + mh.span().byte_offset();
            debug_assert!(addr >= span_start);
            Some(mh.object_size() - (addr - span_start))
        } else {
            // Any address inside a slot, not only its start.
            let class = SizeClass::from_index(info.class_code as usize);
            let offset = addr - info.span_start(self.base, page);
            (offset < class.object_count() * class.object_size()).then_some(class.object_size())
        }
    }

    /// Whether the allocation at `addr` already satisfies `new_size`
    /// without moving: same size class for small objects; still within
    /// the page span at ≥ 50% utilization for large ones. One page-map
    /// resolution (plus the large lock only for large pointers) —
    /// `realloc`'s fast-path decision.
    pub fn realloc_fits_in_place(&self, addr: usize, new_size: usize) -> bool {
        let Some((page, info)) = self.resolve_free(addr) else {
            return false;
        };
        if info.is_large() {
            let usable = {
                let large = self.large.lock();
                let Some(mh) = large.get(info.id) else {
                    return false;
                };
                // Bytes to the span end, as for `usable_size` (interior
                // pointers from over-aligned allocations are legal here).
                mh.object_size() - (addr - (self.base + mh.span().byte_offset()))
            };
            new_size <= usable && new_size * 2 >= usable
        } else {
            let class = SizeClass::from_index(info.class_code as usize);
            class.slot_at(addr - info.span_start(self.base, page)).is_some()
                && SizeClass::for_size(new_size) == Some(class)
        }
    }

    /// Per-segment accounting snapshots (takes the arena leaf lock).
    pub fn segment_stats(&self) -> Vec<crate::segment::SegmentStats> {
        self.lock_arena().segment_stats()
    }

    /// Purges dirty pages and retires any segment left with all pages
    /// clean. Every class is tidied first (one class lock at a time,
    /// before the arena leaf), so the spans frees emptied are among the
    /// pages purged.
    pub fn purge_and_retire(&self) {
        let _pass = crate::stats::MeshPassScope::enter(&self.counters);
        self.tidy_all_classes();
        let mut arena = self.lock_arena();
        arena.purge_dirty();
        arena.retire_empty_segments(&self.page_map);
    }

    /// Does what frees left to lock holders, in every class (see
    /// [`GlobalHeap::tidy_locked`]), one class lock at a time. Returns
    /// whether a span was destroyed.
    pub(crate) fn tidy_all_classes(&self) -> bool {
        let mut reaped = false;
        for class in SizeClass::all() {
            let mut st = self.lock_class(class);
            reaped |= self.tidy_locked(class, &mut st);
        }
        reaped
    }

    /// Snapshots of every live MiniHeap (shard locks taken one at a time).
    pub fn span_snapshots(&self) -> Vec<crate::stats::SpanSnapshot> {
        let mut out = Vec::new();
        let snap = |mh: &MiniHeap| crate::stats::SpanSnapshot {
            object_size: mh.object_size(),
            object_count: mh.object_count(),
            in_use: mh.in_use(),
            bitmap_words: mh.bitmap().load_words(),
            virtual_span_count: mh.span_count(),
            attached: mh.is_attached(),
            large: mh.is_large(),
        };
        for class in SizeClass::all() {
            let st = self.lock_class(class);
            out.extend(st.slab.iter().map(|(_, mh)| snap(mh)));
        }
        let large = self.large.lock();
        out.extend(large.iter().map(|(_, mh)| snap(mh)));
        out
    }

    // ----- telemetry (mesh-insight) -------------------------------------

    /// Computes the occupancy spectrum: per-class span histograms over
    /// the occupancy bins plus a meshability estimate, and the
    /// large-object tally. Takes one class lock at a time — never two,
    /// never across classes — so it can run against live traffic.
    pub fn occupancy_spectrum(&self) -> HeapSpectrum {
        let cutoff = self.rt.occupancy_cutoff();
        let max_spans = self.rt.max_span_count();
        let mut spec = HeapSpectrum::default();
        // The live objects and the virtual spans of each candidate.
        let (mut in_use_of, mut spans_of): (Vec<u32>, Vec<u32>) = Default::default();
        for class in SizeClass::all() {
            let slots = class.object_count();
            let cs = &mut spec.classes[class.index()];
            cs.object_size = class.object_size() as u32;
            cs.meshable = class.is_meshable();
            in_use_of.clear();
            spans_of.clear();
            let st = self.lock_class(class);
            for (_, mh) in st.slab.iter() {
                let in_use = mh.in_use();
                cs.live_objects += in_use as u64;
                cs.total_slots += slots as u64;
                if mh.is_attached() {
                    cs.attached_spans += 1;
                } else {
                    // Recompute rather than trusting `mh.bin`: frees move
                    // occupancy without the lock, and a span can be
                    // transiently unbinned (mid-selection). One awaiting
                    // destruction counts with the emptiest.
                    let bin = bin_for_occupancy(in_use, slots).min(FULL_BIN);
                    let bin = if in_use == 0 { PARTIAL_BINS - 1 } else { bin as usize };
                    cs.bins[bin] += 1;
                    if cs.meshable && crate::meshing::is_candidate(mh, cutoff, max_spans) {
                        in_use_of.push(in_use as u32);
                        spans_of.push(mh.span_count() as u32);
                    }
                }
            }
            drop(st);
            // No more pairs than fit one span's slots, nor than fit the
            // alias cap.
            cs.est_meshable_pairs =
                telemetry::estimate_meshable_pairs(&mut in_use_of, slots as u32).min(
                    telemetry::estimate_meshable_pairs(&mut spans_of, max_spans as u32),
                );
        }
        let large = self.large.lock();
        spec.large_spans = large.len() as u32;
        spec.large_bytes = large.iter().map(|(_, mh)| mh.object_size() as u64).sum();
        spec
    }
}

/// Debug builds check the rule of [`GlobalHeap::free_small`]: while one
/// runs on this thread, neither a class lock nor the arena lock is taken.
#[cfg(debug_assertions)]
mod small_free_scope {
    use std::cell::Cell;

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
    }

    pub struct Scope;

    pub fn enter() -> Scope {
        ACTIVE.with(|a| a.set(true));
        Scope
    }

    pub fn active() -> bool {
        ACTIVE.with(|a| a.get())
    }

    impl Drop for Scope {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attached_set::ATTACHED_SPANS;

    /// Detaches every member of `set` (what a thread heap's teardown does).
    fn release(h: &GlobalHeap, class: SizeClass, set: &mut AttachedSet) {
        h.release_set(class, set);
    }

    fn heap() -> GlobalHeap {
        let counters = Arc::new(Counters::default());
        GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(7)
                .write_barrier(false),
            counters,
        )
        .unwrap()
    }

    #[test]
    fn bin_for_occupancy_quartiles() {
        assert_eq!(bin_for_occupancy(256, 256), FULL_BIN);
        assert_eq!(bin_for_occupancy(255, 256), 0); // [75%, 100%)
        assert_eq!(bin_for_occupancy(192, 256), 0);
        assert_eq!(bin_for_occupancy(191, 256), 1);
        assert_eq!(bin_for_occupancy(128, 256), 1);
        assert_eq!(bin_for_occupancy(127, 256), 2);
        assert_eq!(bin_for_occupancy(64, 256), 2);
        assert_eq!(bin_for_occupancy(63, 256), 3);
        assert_eq!(bin_for_occupancy(1, 256), 3);
    }

    #[test]
    fn fresh_miniheap_registers_pages() {
        let h = heap();
        let class = SizeClass::for_size(64).unwrap();
        let (id, addr) = {
            let mut st = h.lock_class(class);
            let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
            let mh = st.slab.get(id).unwrap();
            (id, h.base_addr() + mh.span().byte_offset() + 64 * 3)
        };
        let info = h.page_map.get(h.page_of_addr(addr).unwrap()).unwrap();
        assert_eq!(info.id, id);
        assert_eq!(info.class_code as usize, class.index());
    }

    #[test]
    fn refill_attach_detach_cycle() {
        let h = heap();
        let class = SizeClass::for_size(128).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(1);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.available(), class.object_count());
        // Allocate a couple of objects, then force a detach via refill.
        let a = set.malloc().unwrap();
        let _b = set.malloc().unwrap();
        let first = set.id(0);
        // Exhaust and refill: the thread never freed into the old
        // MiniHeap, so it is released and must land in a bin (full).
        while set.malloc().is_some() {}
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), 1);
        assert_ne!(set.id(0), first);
        {
            let st = h.lock_class(class);
            let old = st.slab.get(first).unwrap();
            assert!(!old.is_attached());
            assert_eq!(old.in_use(), class.object_count(), "all slots allocated");
            assert_eq!(old.bin().0, FULL_BIN);
        }
        // Free one object globally: its bit is cleared at once, and the
        // next lock holder moves the span, no longer full, to the fullest
        // partial bin.
        assert!(h.free_global(a));
        assert_eq!(h.lock_class(class).slab.get(first).unwrap().bin().0, FULL_BIN);
        let st = h.lock_class_swept(class);
        let old = st.slab.get(first).unwrap();
        assert_eq!(old.in_use(), class.object_count() - 1);
        assert_eq!(old.bin().0, 0);
    }

    #[test]
    fn refill_gathers_partial_spans_up_to_one_span_of_slots() {
        let h = heap();
        let class = SizeClass::for_size(64).unwrap();
        let count = class.object_count();
        // Six detached spans with count/4 free slots each, and nothing
        // else: one refill must attach four of them (a span's worth of
        // slots), fullest bin first, and carve nothing.
        {
            let mut st = h.lock_class(class);
            for _ in 0..6 {
                let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
                let mh = st.slab.get(id).unwrap();
                for slot in 0..count - count / 4 {
                    mh.bitmap().try_set(slot);
                }
                st.bin_insert(id);
            }
            st.skip_rest();
        }
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(3);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), 4);
        assert_eq!(set.available(), count);
        assert_eq!(h.counters.snapshot().refills, 1);
        let st = h.lock_class(class);
        assert_eq!(st.slab.len(), 6, "no fresh span while partial spans exist");
        assert_eq!(st.bins.partial[0].len(), 2, "the rest stay binned");
    }

    /// Exhausts `set`, then frees one object of each member back into it
    /// and takes it again: every member is full and was drawn on since
    /// the last refill.
    fn exhaust_and_touch(set: &mut AttachedSet, rng: &mut Rng) {
        while set.malloc().is_some() {}
        for member in set.members().collect::<Vec<_>>() {
            assert!(unsafe { set.free_slot(member, 0, rng) });
            set.malloc().unwrap();
        }
        assert_eq!(set.malloc(), None);
    }

    #[test]
    fn refill_keeps_the_members_the_thread_frees_into() {
        let h = heap();
        let class = SizeClass::for_size(1024).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(4);
        for spans in 1..=ATTACHED_SPANS {
            h.refill(&mut set, class, 1, &mut rng).unwrap();
            assert_eq!(set.len(), spans, "members drawn on are kept while there is room");
            exhaust_and_touch(&mut set, &mut rng);
        }
        // At the bound with every member drawn on: a fresh span needs a
        // place, and exactly one full member makes room.
        let before: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), ATTACHED_SPANS);
        let after: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
        let evicted: Vec<&MiniHeapId> = before.iter().filter(|id| !after.contains(id)).collect();
        assert_eq!(evicted.len(), 1, "exactly one member made room");
        {
            let st = h.lock_class(class);
            let mh = st.slab.get(*evicted[0]).unwrap();
            assert!(!mh.is_attached());
            assert_eq!(mh.bin().0, FULL_BIN);
            assert_eq!(st.slab.len(), ATTACHED_SPANS + 1);
        }
        // One interval in which the thread only allocates: every member
        // it held is idle at the next refill and goes back to the bins,
        // as the single attached span did at every refill.
        while set.malloc().is_some() {}
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), 1);
        let st = h.lock_class(class);
        assert_eq!(st.slab.len(), ATTACHED_SPANS + 2);
        assert_eq!(st.bins.full.len(), ATTACHED_SPANS + 1);
    }

    #[test]
    fn refill_reclaims_slots_other_threads_freed_in_kept_members() {
        let h = heap();
        let class = SizeClass::for_size(2048).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(5);
        let mut addrs = Vec::new();
        for _ in 0..3 {
            h.refill(&mut set, class, 1, &mut rng).unwrap();
            addrs.extend(std::iter::from_fn(|| set.malloc()));
            exhaust_and_touch(&mut set, &mut rng);
        }
        assert_eq!(set.len(), 3);
        // Another thread frees one object of the first member: the slot
        // is handed out again by the next refill, once.
        assert!(h.free_global(addrs[0]));
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), 3, "the freed-into span came back through the bins");
        assert_eq!(set.malloc(), Some(addrs[0]));
        assert_eq!(set.malloc(), None);
        assert_eq!(h.lock_class(class).slab.len(), 3, "nothing carved");
        // It frees every object of all three members.
        exhaust_and_touch(&mut set, &mut rng);
        for &a in &addrs {
            assert!(h.free_global(a));
        }
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        assert_eq!(set.len(), 1, "one empty member kept as the slot source");
        assert_eq!(set.available(), class.object_count());
        assert_eq!(h.lock_class(class).slab.len(), 1, "the other two destroyed");
        let s = h.counters.snapshot();
        assert_eq!(s.frees, addrs.len() as u64 + 1);
        assert_eq!(s.double_frees + s.invalid_frees, 0);
    }

    #[test]
    fn select_partial_prefers_fullest_bin() {
        let h = heap();
        let class = SizeClass::for_size(64).unwrap();
        let count = class.object_count();
        // Create two detached MiniHeaps with different occupancies.
        let mut st = h.lock_class(class);
        let make = |st: &mut ClassState, live: usize| {
            let id = h.fresh_miniheap_locked(st, class).unwrap();
            let mh = st.slab.get(id).unwrap();
            for slot in 0..live {
                mh.bitmap().try_set(slot);
            }
            st.bin_insert(id);
            id
        };
        let low = make(&mut st, 1);
        let high = make(&mut st, count * 9 / 10);
        assert_eq!(st.select_partial(), None, "freshly filed spans rest");
        st.skip_rest();
        let picked = st.select_partial().unwrap();
        assert_eq!(picked, (high, 0), "fullest bin scanned first");
        let picked2 = st.select_partial().unwrap();
        assert_eq!(picked2, (low, 3));
        assert!(st.select_partial().is_none());
    }

    #[test]
    fn empty_detach_destroys_miniheap() {
        let h = heap();
        let class = SizeClass::for_size(48).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(2);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let id = set.id(0);
        let committed_before = h.lock_arena().committed_pages();
        // Nothing allocated: releasing the vector should destroy it.
        release(&h, class, &mut set);
        let st = h.lock_class(class);
        assert!(st.slab.get(id).is_none());
        assert_eq!(st.slab.len(), 0);
        // Span went to the dirty bin; committed unchanged until purge.
        assert_eq!(h.lock_arena().committed_pages(), committed_before);
    }

    #[test]
    fn malloc_large_and_free_releases_pages() {
        let h = heap();
        let addr = h.malloc_large(100_000).unwrap();
        let pages = 100_000usize.div_ceil(PAGE_SIZE);
        assert_eq!(h.lock_arena().committed_pages(), pages);
        assert_eq!(h.usable_size(addr), Some(pages * PAGE_SIZE));
        assert!(h.free_global(addr));
        assert_eq!(
            h.lock_arena().committed_pages(),
            0,
            "large pages released on free"
        );
        assert_eq!(h.large.lock().len(), 0);
    }

    #[test]
    fn malloc_large_aligned_over_page_alignment() {
        let h = heap();
        for align in [8192usize, 1 << 16, 2 << 20] {
            let addr = h.malloc_large_aligned(100_000, align).unwrap();
            assert_eq!(addr % align, 0, "align {align}");
            // Usable size of the aligned (possibly interior) pointer is
            // the bytes remaining to the span end.
            let usable = h.usable_size(addr).unwrap();
            assert!(usable >= 100_000, "align {align}: usable {usable}");
            unsafe { std::ptr::write_bytes(addr as *mut u8, 0x3D, usable) };
            assert!(h.free_global(addr), "align {align}");
        }
        let s = h.counters.snapshot();
        assert_eq!(s.live_bytes, 0, "over-aligned accounting balanced");
        assert_eq!(s.invalid_frees, 0);
    }

    #[test]
    fn invalid_and_double_frees_discarded() {
        let h = heap();
        assert!(!h.free_global(0xdead_beef));
        let addr = h.malloc_large(4096).unwrap();
        assert!(h.free_global(addr));
        assert!(!h.free_global(addr), "double free rejected");
        let s = h.counters.snapshot();
        // After the large object died its page-table entry is cleared, so
        // the second free reads as invalid (wild), not double.
        assert_eq!(s.invalid_frees, 2);
        assert_eq!(s.double_frees, 0);
    }

    #[test]
    fn double_free_is_refused_before_free_returns() {
        let h = heap();
        let class = SizeClass::for_size(256).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(9);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let a = set.malloc().unwrap();
        // Keep a second object live so the MiniHeap survives the first
        // free (a dead MiniHeap would make the duplicate read as
        // *invalid* instead, exactly like the seed's large-object case).
        let _b = set.malloc().unwrap();
        // Detach so the frees take the global path.
        release(&h, class, &mut set);
        assert!(h.free_global(a));
        assert!(!h.free_global(a), "the duplicate finds its bit clear");
        let s = h.counters.snapshot();
        assert_eq!(s.frees, 1, "only one free applied");
        assert_eq!(s.double_frees, 1);
        assert_eq!((s.remote_frees, s.remote_free_queued), (1, 0));
    }

    #[test]
    fn usable_size_for_small_classes() {
        let h = heap();
        let class = SizeClass::for_size(100).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(3);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let addr = set.malloc().unwrap();
        assert_eq!(h.usable_size(addr), Some(112));
        assert_eq!(h.usable_size(0x40), None);
    }

    #[test]
    fn usable_size_rejects_span_tail_waste() {
        // 4096 % 48 != 0: the span has tail waste past the last slot, and
        // addresses there are foreign even though the page is owned.
        let h = heap();
        let class = SizeClass::for_size(48).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(4);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let first = {
            let st = h.lock_class(class);
            let mh = st.slab.get(set.id(0)).unwrap();
            h.base_addr() + mh.span().byte_offset()
        };
        assert_eq!(h.usable_size(first), Some(48));
        assert_eq!(
            h.usable_size(first + class.object_count() * 48 - 1),
            Some(48),
            "last slot is valid"
        );
        assert_eq!(
            h.usable_size(first + class.object_count() * 48),
            None,
            "tail waste is foreign"
        );
    }

    #[test]
    fn free_that_empties_a_span_leaves_it_to_the_next_lock_holder() {
        // The free itself takes no lock and makes no system call: it
        // lists the span, and the next lock holder destroys it — with
        // meshing off as with it on.
        let h = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(8)
                .meshing(false)
                .mesh_period(Duration::ZERO)
                .write_barrier(false),
            Arc::new(Counters::default()),
        )
        .unwrap();
        let class = SizeClass::for_size(8192).unwrap(); // non-meshable class
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(5);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let a = set.malloc().unwrap();
        release(&h, class, &mut set);
        assert!(h.free_global(a));
        assert_eq!(h.counters.snapshot().frees, 1);
        {
            let st = h.lock_class(class);
            assert_eq!((st.slab.len(), st.bins.partial[3].len()), (1, 1), "where it was filed");
        }
        assert!(!h.free_global(a), "a duplicate finds nothing to clear there");
        assert_eq!(h.counters.snapshot().double_frees, 1);
        assert_eq!(h.lock_class_swept(class).slab.len(), 0);
        assert_eq!(h.page_map.get(h.page_of_addr(a).unwrap()), None);
    }

    #[test]
    fn different_classes_use_disjoint_locks() {
        // Holding one class's lock must not block another class's refill —
        // the acceptance criterion of the sharding refactor.
        let h = Arc::new(heap());
        let c16 = SizeClass::for_size(16).unwrap();
        let c1024 = SizeClass::for_size(1024).unwrap();
        let guard = h.lock_class(c16);
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || {
            let mut set = AttachedSet::new(true);
            let mut rng = Rng::with_seed(4);
            h2.refill(&mut set, c1024, 1, &mut rng).unwrap();
            let p = set.malloc().unwrap();
            release(&h2, c1024, &mut set);
            p
        });
        let p = t.join().expect("1 KiB refill proceeded under held 16 B lock");
        assert!(p >= h.base_addr());
        drop(guard);
    }

    #[test]
    fn free_never_waits_for_a_held_class_lock() {
        // A free routed to a class whose lock is held must complete
        // without blocking, fully accounted; the span it emptied is left
        // to the next holder that tidies. Inline meshing is pushed out of
        // the way: a due pass inside free_global would itself want the
        // held class lock.
        let h = Arc::new(
            GlobalHeap::new(
                MeshConfig::default()
                    .arena_bytes(16 << 20)
                    .seed(7)
                    .mesh_period(Duration::from_secs(3600))
                    .write_barrier(false),
                Arc::new(Counters::default()),
            )
            .unwrap(),
        );
        let class = SizeClass::for_size(512).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(5);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let addr = set.malloc().unwrap();
        release(&h, class, &mut set);

        let guard = h.lock_class(class);
        let h2 = Arc::clone(&h);
        let t = std::thread::spawn(move || h2.free_global(addr));
        assert!(t.join().expect("free must not block on the class lock"));
        assert_eq!(h.counters.snapshot().frees, 1, "settled when free returned");
        assert_eq!(guard.slab.len(), 1, "the empty span waits for a lock holder");
        drop(guard);
        assert_eq!(h.lock_class_swept(class).slab.len(), 0);
    }

    #[test]
    fn next_lock_holder_refiles_and_destroys_what_frees_left_behind() {
        let h = heap();
        let class = SizeClass::for_size(64).unwrap();
        let count = class.object_count();
        // Three full detached spans.
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(6);
        let mut spans: Vec<Vec<usize>> = Vec::new();
        for _ in 0..3 {
            h.refill(&mut set, class, 1, &mut rng).unwrap();
            spans.push(std::iter::from_fn(|| set.malloc()).collect());
        }
        release(&h, class, &mut set);
        // With the lock held, free all of the first, most of the second
        // and one object of the third.
        let guard = h.lock_class(class);
        std::thread::scope(|s| {
            s.spawn(|| {
                for &a in spans[0].iter().chain(&spans[1][..count - 2]).chain(&spans[2][..1]) {
                    assert!(h.free_global_deferred(a));
                }
            });
        });
        assert_eq!(guard.bins.full.len(), 3, "nothing moved without the lock");
        drop(guard);
        let st = h.lock_class_swept(class);
        assert_eq!(st.slab.len(), 2, "the emptied span is gone");
        assert_eq!(st.bins.full.len(), 0);
        assert_eq!(st.bins.partial[0].len(), 1, "one free short of full");
        assert_eq!(st.bins.partial[3].len(), 1, "two objects left");
        drop(st);
        assert_eq!(h.counters.snapshot().frees as usize, 2 * count - 1);
    }

    #[test]
    fn frees_leave_the_partial_bins_to_lock_holders() {
        let h = heap();
        let class = SizeClass::for_size(256).unwrap();
        let count = class.object_count();
        assert_eq!(count, 16);
        // A full detached span, and two half-full ones.
        let make = |live: usize| {
            let mut st = h.lock_class(class);
            let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
            let mh = st.slab.get(id).unwrap();
            for slot in 0..live {
                mh.bitmap().try_set(slot);
            }
            st.bin_insert(id);
            (id, h.base_addr() + st.slab.get(id).unwrap().span().byte_offset())
        };
        let (a, a_start) = make(count);
        let halves = [make(count / 2).0, make(count / 2).0];
        // The first free has it moved out of the full bin; the thirteen
        // that follow take it from 94 % to 12 % and leave it filed where
        // it is.
        for slot in 0..14 {
            assert!(h.free_global(a_start + slot * 256));
            let st = h.lock_class_swept(class);
            assert_eq!(st.slab.get(a).unwrap().bin().0, 0, "after {} frees", slot + 1);
        }
        // A refill draws it as one of the fullest, finds it drained, files
        // it where it belongs and takes the half-full spans instead.
        h.lock_class(class).skip_rest();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(8);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let attached: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
        assert_eq!(attached.len(), 2);
        assert!(halves.iter().all(|id| attached.contains(id)));
        assert_eq!(h.lock_class(class).slab.get(a).unwrap().bin().0, 3);
        release(&h, class, &mut set);
    }

    /// A detached span of `class` with `slots` taken, filed under its bin:
    /// its id and start address.
    fn filed_span(h: &GlobalHeap, class: SizeClass, slots: &[usize]) -> (MiniHeapId, usize) {
        let mut st = h.lock_class(class);
        let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        for &s in slots {
            mh.bitmap().try_set(s);
        }
        st.bin_insert(id);
        (
            id,
            h.base_addr() + st.slab.get(id).unwrap().span().byte_offset(),
        )
    }

    #[test]
    fn free_follows_a_span_meshed_after_the_lookup() {
        // The page-map entry a free starts from can be stale by the time
        // it clears: the span was a mesh source in between. The free must
        // land on the destination, once, and a duplicate must be refused.
        let h = heap();
        let class = SizeClass::for_size(256).unwrap();
        let make = |slots: &[usize]| filed_span(&h, class, slots);
        let (a, _) = make(&[0, 1, 2]);
        let (b, b_start) = make(&[5, 6]);
        let addr = b_start + 5 * 256;
        let (page, stale) = h.resolve_free(addr).unwrap();
        assert_eq!(stale.id, b);
        let summary = meshing::mesh_all_classes(&h);
        assert_eq!(summary.pairs_meshed, 1);
        assert_eq!(h.resolve_free(addr).unwrap().1.id, a, "b was the source");
        assert!(h.free_small(addr, page, stale, None), "followed the mesh");
        assert!(!h.free_small(addr, page, stale, None), "and only once");
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (1, 1, 0));
        let st = h.lock_class(class);
        assert_eq!(st.slab.get(a).unwrap().in_use(), 4);
        // The source's id is a tombstone: not live, and not reissued.
        assert!(st.slab.get(b).is_none());
        drop(st);
        let (c, _) = make(&[9]);
        assert_ne!(c, b, "a tombstone's id is taken until the destination dies");
    }
    #[test]
    fn frees_follow_every_source_of_a_batch() {
        // The batch form of the test above: lookups made before a pass
        // that meshes several pairs behind one odd epoch all find their
        // objects in the destinations afterwards.
        let h = heap();
        let class = SizeClass::for_size(256).unwrap();
        let make = |slots: &[usize]| filed_span(&h, class, slots).1;
        // Sparse spans overlap each other at slot 5 and full ones at slot
        // 0, so every pair is one of each and the sparse one is its source.
        let sources: Vec<usize> = (0..8).map(|_| make(&[5])).collect();
        for _ in 0..8 {
            make(&[0, 1, 2]);
        }
        let stale: Vec<_> = sources
            .iter()
            .map(|start| {
                let addr = start + 5 * 256;
                let (page, info) = h.resolve_free(addr).unwrap();
                (addr, page, info)
            })
            .collect();
        let before = h.counters.snapshot().latency.count(TimedOp::MeshCopy);
        let summary = meshing::mesh_all_classes(&h);
        assert_eq!(summary.pairs_meshed, 8);
        let batches = h.counters.snapshot().latency.count(TimedOp::MeshCopy) - before;
        assert_eq!(batches, 1, "one window for the eight pairs");
        for &(addr, page, info) in &stale {
            assert_ne!(
                h.resolve_free(addr).unwrap().1.id,
                info.id,
                "its span was a source"
            );
            assert!(h.free_small(addr, page, info, None), "followed the mesh");
            assert!(!h.free_small(addr, page, info, None), "and only once");
        }
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (8, 8, 0));
        let st = h.lock_class(class);
        assert!(st
            .slab
            .iter()
            .all(|(_, mh)| mh.in_use() == 3 && mh.span_count() == 2));
    }
}
