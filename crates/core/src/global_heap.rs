//! The sharded global heap (§4.4): MiniHeap allocation, occupancy bins,
//! non-local frees, large objects, and meshing coordination.
//!
//! The seed kept all of this under one mutex; this version shards it so
//! threads working in different size classes never contend (see DESIGN.md
//! "Sharded locking discipline"):
//!
//! * **Class shards** — each size class owns a mutex guarding its slab of
//!   MiniHeaps, its occupancy bins, and its PRNG, plus a lock-free MPSC
//!   [`RemoteFreeQueue`]. Refills, detaches, and meshing of a class touch
//!   only that class's lock.
//! * **Arena leaf lock** — span hand-out/return, dirty purging, remaps,
//!   page-map writes, and the whole segment table: growth on miss (a span
//!   request that misses every segment maps a new one under this lock)
//!   and segment retirement both happen here. Acquired *after* at most
//!   one class (or the large) lock, never the other way around.
//! * **Large shard** — large-object singletons (§4.4.3) behind their own
//!   mutex, ordered like a class lock.
//! * **Lock-free structures** — the [`PageMap`] routes frees without any
//!   lock; remote frees enqueue lock-free and are applied by whichever
//!   thread next holds the class lock (refill, meshing pass, or stats
//!   flush).
//!
//! Meshing runs one class at a time, holding that class's lock (which
//! keeps detached MiniHeap bitmaps stable while the SplitMesher probes
//! them) and the arena lock for the remap itself. With
//! [`MeshConfig::background_meshing`] set, passes run on a dedicated
//! thread (see [`crate::mesher`]) instead of the free path.

use crate::arena::Arena;
use crate::attached_set::AttachedSet;
use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::harden::{self, HardenConfig, HardenKind};
use crate::meshing::{self, MeshSummary};
use crate::miniheap::{AttachState, MiniHeap, MiniHeapId, Slab, NOT_BINNED};
use crate::page_map::{PageMap, LARGE_CLASS};
use crate::remote_free::RemoteFreeQueue;
use crate::rng::Rng;
use crate::shuffle_vector::ShuffleVector;
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES, PAGE_SIZE};
use crate::stats::Counters;
use crate::sync::{Mutex, MutexGuard};
use crate::telemetry::{
    self, CtlState, HeapSpectrum, MeshLedger, Reports, SenseState, Telemetry, TimedOp, TraceSet,
};
use crate::transfer_cache::TransferCache;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of partial-occupancy bins per size class (§3.1: the global heap
/// groups spans by decreasing occupancy, e.g. 75–99% in one bin, 50–74% in
/// the next).
pub(crate) const PARTIAL_BINS: usize = 4;

/// Bin index used for completely full MiniHeaps.
pub(crate) const FULL_BIN: u8 = PARTIAL_BINS as u8;

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
        if bin == FULL_BIN {
            &mut self.full
        } else {
            &mut self.partial[bin as usize]
        }
    }
}

/// Computes the occupancy bin for `in_use` live objects of `count` slots.
///
/// # Panics
///
/// Panics (debug) if `in_use` is zero — empty MiniHeaps are freed, never
/// binned — or exceeds `count`.
pub(crate) fn bin_for_occupancy(in_use: usize, count: usize) -> u8 {
    debug_assert!(in_use > 0 && in_use <= count);
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
    /// Class-private PRNG (random span selection within a bin, §3.1, and
    /// the SplitMesher shuffle, §3.3).
    pub rng: Rng,
}

impl ClassState {
    // ----- occupancy-bin bookkeeping ------------------------------------

    /// Inserts a detached, non-empty MiniHeap into its occupancy bin.
    pub fn bin_insert(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("binning a dead MiniHeap");
        debug_assert!(!mh.is_attached() && !mh.is_large());
        let bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        let list = self.bins.list_mut(bin);
        let slot = list.len() as u32;
        list.push(id);
        let mh = self.slab.get_mut(id).expect("just observed");
        mh.bin = bin;
        mh.bin_slot = slot;
    }

    /// Removes a MiniHeap from its current bin (no-op if unbinned).
    pub fn bin_remove(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("unbinning a dead MiniHeap");
        let (bin, slot) = (mh.bin, mh.bin_slot);
        if bin == NOT_BINNED {
            return;
        }
        let list = self.bins.list_mut(bin);
        list.swap_remove(slot as usize);
        if let Some(&moved) = list.get(slot as usize) {
            self.slab
                .get_mut(moved)
                .expect("binned ids are live")
                .bin_slot = slot;
        }
        let mh = self.slab.get_mut(id).expect("just observed");
        mh.bin = NOT_BINNED;
        mh.bin_slot = 0;
    }

    /// Moves a MiniHeap between bins after its occupancy changed.
    pub fn rebin(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("rebinning a dead MiniHeap");
        let new_bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        if mh.bin != new_bin {
            self.bin_remove(id);
            self.bin_insert(id);
        }
    }

    /// Selects a partially full MiniHeap for reuse: first non-empty bin by
    /// decreasing occupancy, random span within it (§3.1). The MiniHeap is
    /// removed from its bin.
    pub fn select_partial(&mut self) -> Option<MiniHeapId> {
        for bin in 0..PARTIAL_BINS {
            let len = self.bins.partial[bin].len();
            if len > 0 {
                let pick = self.rng.below(len as u32) as usize;
                let id = self.bins.partial[bin][pick];
                self.bin_remove(id);
                return Some(id);
            }
        }
        None
    }
}

/// One size class's shard: its lock plus its lock-free remote-free queue.
#[derive(Debug)]
struct ClassShard {
    state: Mutex<ClassState>,
    queue: RemoteFreeQueue,
}

/// Every lock of the heap, held at once: the fork-quiescence state built
/// by [`GlobalHeap::lock_all`] (see `Mesh::fork_prepare`). The guards are
/// held purely for their locking effect; dropping the struct releases
/// everything.
pub(crate) struct AllShardGuards<'a> {
    _classes: Vec<MutexGuard<'a, ClassState>>,
    _large: MutexGuard<'a, Slab>,
    _arena: MutexGuard<'a, Arena>,
    _transfer: Vec<MutexGuard<'a, Vec<Vec<usize>>>>,
    _sched_mesh: MutexGuard<'a, Instant>,
    _sched_purge: MutexGuard<'a, Option<Instant>>,
    _sched_drain: MutexGuard<'a, Instant>,
    _stat_locals: MutexGuard<'a, Vec<Arc<crate::stats::LocalCounters>>>,
    _senders: MutexGuard<'a, Vec<std::sync::Weak<crate::remote_free::SenderBufs>>>,
    _telemetry_dump: Option<MutexGuard<'a, Instant>>,
    _sense_clock: Option<MutexGuard<'a, Instant>>,
    _hist_locals: MutexGuard<'a, Vec<Arc<crate::telemetry::LocalHists>>>,
    _trace_rings: Option<MutexGuard<'a, Vec<Arc<crate::telemetry::TraceRing>>>>,
    /// Last in the order: no ctl response write may be in flight across
    /// `fork`, so a client sees a complete envelope or a clean EOF.
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
    /// Whether a background mesher thread owns the meshing schedule.
    pub background_meshing: bool,
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
            background_meshing: config.background_meshing && config.meshing,
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
        if t > 0 {
            self.probe_limit.store(t, Ordering::Relaxed);
        }
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

/// The §4.5 meshing rate limiter, shared by the inline and background
/// meshing paths. Leaf locks only — never held while meshing runs.
#[derive(Debug)]
pub(crate) struct MeshScheduler {
    last_mesh: Mutex<Instant>,
    /// `None` until the first purge, which is always allowed. (A
    /// subtracted-epoch sentinel would panic on hosts whose monotonic
    /// clock is younger than the subtrahend.)
    last_purge: Mutex<Option<Instant>>,
    last_drain: Mutex<Instant>,
    /// Set after a low-yield pass: the timer is not restarted until a
    /// subsequent free reaches the global heap (§4.5).
    paused: AtomicBool,
}

impl MeshScheduler {
    fn new() -> MeshScheduler {
        MeshScheduler {
            last_mesh: Mutex::new(Instant::now()),
            last_purge: Mutex::new(None),
            last_drain: Mutex::new(Instant::now()),
            paused: AtomicBool::new(false),
        }
    }

    /// A free reached the global heap: restart a paused timer (§4.5's
    /// "until a subsequent allocation is freed through the global heap").
    pub fn on_global_free(&self) {
        // Read-only fast path: the flag is clear almost always, and an
        // unconditional swap would make every accepted global free a
        // write-mode RMW on a cache line shared by all threads.
        if self.paused.load(Ordering::Relaxed) && self.paused.swap(false, Ordering::Relaxed) {
            *self.last_mesh.lock() = Instant::now();
        }
    }

    /// Whether the timer is currently paused after a low-yield pass.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Time until the next meshing pass becomes due, or `None` while the
    /// timer is paused (§4.5: nothing will be due until a free reaches
    /// the global heap). The background thread parks on this instead of
    /// polling in fixed slices.
    pub(crate) fn time_until_due(&self, period: Duration) -> Option<Duration> {
        if self.is_paused() {
            return None;
        }
        Some(period.saturating_sub(self.last_mesh.lock().elapsed()))
    }

    /// Claims a rate-limited meshing slot: true at most once per `period`,
    /// and never while paused. Claiming resets the timer so concurrent
    /// callers cannot both start a pass for the same slot.
    fn due(&self, period: Duration) -> bool {
        if self.is_paused() {
            return false;
        }
        let mut last = self.last_mesh.lock();
        if last.elapsed() >= period {
            *last = Instant::now();
            true
        } else {
            false
        }
    }

    /// Records the end of a pass and whether it paused the timer.
    fn finish_pass(&self, low_yield: bool) {
        *self.last_mesh.lock() = Instant::now();
        self.paused.store(low_yield, Ordering::Relaxed);
    }

    /// Rate limiter for purge-on-mesh (§4.4.1): true at most once per
    /// `period`, so harnesses that force passes faster than wall clock do
    /// not cycle pages through release/refault at an unrealistic rate.
    pub(crate) fn should_purge(&self, period: Duration) -> bool {
        let mut last = self.last_purge.lock();
        match *last {
            Some(at) if at.elapsed() < period => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }

    /// Acquires all three scheduler leaf locks (fork quiescence: a child
    /// must not inherit a scheduler mutex locked by some other thread).
    pub(crate) fn lock_all(
        &self,
    ) -> (
        MutexGuard<'_, Instant>,
        MutexGuard<'_, Option<Instant>>,
        MutexGuard<'_, Instant>,
    ) {
        (
            self.last_mesh.lock(),
            self.last_purge.lock(),
            self.last_drain.lock(),
        )
    }

    /// Rate limiter for queue settlement when no meshing pass will run
    /// (meshing disabled and no background thread): true at most once per
    /// `period`, claiming the slot.
    fn should_drain(&self, period: Duration) -> bool {
        let mut last = self.last_drain.lock();
        if last.elapsed() >= period {
            *last = Instant::now();
            true
        } else {
            false
        }
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
    /// The tcmalloc-style middle tier: per-class stacks of claimed-object
    /// batches exchanged between thread heaps without the class lock.
    pub(crate) transfer: TransferCache,
    /// Registry of live threads' sender-side remote-free buffers, so
    /// settled readers ([`GlobalHeap::drain_all`]) and the exhaustion
    /// fallback can flush frees still buffered in *other* threads. Weak:
    /// a thread's teardown must not need the registry lock.
    senders: Mutex<Vec<std::sync::Weak<crate::remote_free::SenderBufs>>>,
    /// Bumped when the registry is wiped (fork child), so surviving cores
    /// know to re-register. Starts at 1 because cores start at 0 =
    /// "never registered".
    sender_epoch: AtomicU64,
    pub rt: RuntimeConfig,
    pub scheduler: MeshScheduler,
    pub counters: Arc<Counters>,
    /// Sampled-profiling state (`None` when `MESH_PROF` is off — the
    /// zero-overhead mode).
    pub(crate) telemetry: Option<Arc<Telemetry>>,
    /// mesh-sense pressure/residency polling state (`None` when
    /// `MESH_SENSE_INTERVAL_MS=0`; on by default).
    pub(crate) sense: Option<SenseState>,
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
        let classes = (0..NUM_SIZE_CLASSES)
            .map(|i| ClassShard {
                state: Mutex::new(ClassState {
                    slab: Slab::new(),
                    bins: ClassBins::default(),
                    rng: Rng::with_seed(
                        seed ^ 0x6d65_7368_2d67_6c6f ^ ((i as u64) << 56), // "mesh-glo"
                    ),
                }),
                queue: RemoteFreeQueue::new(),
            })
            .collect();
        Ok(GlobalHeap {
            classes,
            large: Mutex::new(Slab::new()),
            arena: Mutex::new(arena),
            page_map: PageMap::new(pages as usize),
            transfer: TransferCache::new(config.transfer_batch, config.transfer_cache_slots),
            senders: Mutex::new(Vec::new()),
            sender_epoch: AtomicU64::new(1),
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
        let (guard, waited) = self.arena.lock_timed();
        if let Some(ns) = waited {
            self.counters.arena_lock_contention.fetch_add(1, Ordering::Relaxed);
            self.counters.record_lock_wait(TimedOp::ArenaLockWait, ns);
        }
        guard
    }

    // ----- remote-free queues -------------------------------------------

    /// Applies every queued remote free of `class` under its (held) lock:
    /// the single-drainer side of the MPSC queue protocol.
    ///
    /// Drained frees are *not* recycled into the transfer cache: a
    /// recycled object's claim bit is set again, which would let a
    /// duplicate free arriving in a later drain epoch — after the object
    /// moved into some thread's popped batch — pass `unset` validation and
    /// corrupt both the accounting and the cache. Only detach-spills feed
    /// the cache, because spilled slots come from the shuffle vector's
    /// avail mask and a hostile back-to-back duplicate cannot interleave
    /// with a detach.
    pub(crate) fn drain_class_locked(&self, class: SizeClass, st: &mut ClassState) {
        let shard = &self.classes[class.index()];
        if shard.queue.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let mut drained = 0u64;
        for addr in shard.queue.drain() {
            drained += 1;
            self.apply_remote_free(class, st, addr);
        }
        self.counters.remote_free_drained.fetch_add(drained, Ordering::Relaxed);
        self.counters.record_slow(TimedOp::RemoteDrain, t0, drained);
    }

    /// Validates and applies one queued free. Invalid pointers and double
    /// frees are detected here — the queue push was optimistic.
    fn apply_remote_free(&self, class: SizeClass, st: &mut ClassState, addr: usize) {
        let invalid = |h: &GlobalHeap| {
            h.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
            h.harden_violation(HardenKind::InvalidFree, addr);
        };
        let Some(page) = self.page_of_addr(addr) else {
            return invalid(self);
        };
        // Re-resolve through the page map: meshing may have retargeted the
        // span to a surviving MiniHeap since the enqueue (same class, same
        // slot offsets — §4.5.1 keeps virtual addresses stable).
        let Some(info) = self.page_map.get(page) else {
            return invalid(self);
        };
        if info.class_code as usize != class.index() {
            return invalid(self);
        }
        let (object_size, attached, now_empty) = {
            let Some(mh) = st.slab.get(info.id) else {
                return invalid(self);
            };
            let offset = addr - info.span_start(self.base, page);
            let slot = offset / mh.object_size();
            // Tail waste and misaligned interior pointers are hostile
            // frees, mirroring the local path's validation.
            if slot >= mh.object_count() || !offset.is_multiple_of(mh.object_size()) {
                return invalid(self);
            }
            // A cached (detach-spilled) object's claim bit is set, so
            // `unset` alone would wave a duplicate of it through: catch
            // shared-cache membership explicitly. (Objects in a thread's
            // popped batch are invisible here — that residual window
            // matches the pre-existing attached-vector one.)
            if self.transfer.contains(class.index(), addr) {
                self.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                self.harden_violation(HardenKind::DoubleFree, addr);
                return;
            }
            if !mh.bitmap().unset(slot) {
                self.counters.double_frees.fetch_add(1, Ordering::Relaxed);
                self.harden_violation(HardenKind::DoubleFree, addr);
                return;
            }
            (mh.object_size(), mh.is_attached(), mh.in_use() == 0)
        };
        // The slot is free as of this unset: write the poison layout so a
        // later reallocation (or the mesh-time canary sweep) can vouch
        // nothing wrote through the stale pointer.
        self.poison_object(addr, object_size, class.index());
        self.counters.frees.fetch_add(1, Ordering::Relaxed);
        self.counters.remote_frees.fetch_add(1, Ordering::Relaxed);
        self.counters
            .live_bytes
            .fetch_sub(object_size, Ordering::Relaxed);
        if !attached {
            if now_empty {
                self.free_miniheap_locked(st, info.id);
            } else {
                st.rebin(info.id);
            }
        }
    }

    /// Un-claims an address whose bit was held by the transfer cache or a
    /// thread's batch cache, *without* touching app accounting (its free
    /// was counted when it entered the cache). The owning class's lock
    /// must be held.
    pub(crate) fn release_claimed(&self, class: SizeClass, st: &mut ClassState, addr: usize) {
        let Some(page) = self.page_of_addr(addr) else { return };
        let Some(info) = self.page_map.get(page) else { return };
        if info.class_code as usize != class.index() {
            return;
        }
        let (attached, now_empty) = {
            let Some(mh) = st.slab.get(info.id) else { return };
            let slot = (addr - info.span_start(self.base, page)) / mh.object_size();
            let was_set = mh.bitmap().unset(slot);
            debug_assert!(was_set, "cached object's claim bit must be set");
            if !was_set {
                return;
            }
            (mh.is_attached(), mh.in_use() == 0)
        };
        if !attached {
            if now_empty {
                self.free_miniheap_locked(st, info.id);
            } else {
                st.rebin(info.id);
            }
        }
    }

    /// Empties `class`'s transfer-cache slots back into the spans, so
    /// occupancy reflects reality. Meshing calls this before collecting
    /// candidates: a cached object keeps its claim bit set, which would
    /// otherwise make a meshable span look occupied — and, worse, a span
    /// whose only "live" objects sit in the cache would never be meshed
    /// or reclaimed. The class lock must be held. Returns the number of
    /// cached objects released (the ledger's "pinned by transfer cache"
    /// signal: spans those objects sat in could not have been candidates
    /// until this flush).
    pub(crate) fn purge_transfer_locked(&self, class: SizeClass, st: &mut ClassState) -> u64 {
        let mut released = 0u64;
        for batch in self.transfer.take_all(class.index()) {
            for addr in batch {
                self.release_claimed(class, st, addr);
                released += 1;
            }
        }
        released
    }

    /// Empties every class's transfer cache (one class lock at a time):
    /// the memory-pressure fallback, releasing spans kept alive only by
    /// cached objects before the allocator reports exhaustion.
    pub(crate) fn purge_transfer_all(&self) {
        for class in SizeClass::all() {
            let mut st = self.lock_class(class);
            self.drain_class_locked(class, &mut st);
            self.purge_transfer_locked(class, &mut st);
        }
    }

    // ----- sender-buffer registry ---------------------------------------

    /// Registers a thread's sender buffers, pruning entries whose threads
    /// have exited. Returns the current epoch, which the caller remembers
    /// to avoid re-registering on every free.
    pub(crate) fn register_sender(&self, bufs: &Arc<crate::remote_free::SenderBufs>) -> u64 {
        let mut reg = self.senders.lock();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(bufs));
        // Read under the registry lock so a concurrent fork's wipe-and-bump
        // cannot be missed: either we see the new epoch, or the wipe sees
        // (and discards) our entry.
        self.sender_epoch.load(Ordering::Relaxed)
    }

    /// The current registry epoch (see `register_sender`).
    #[inline]
    pub(crate) fn sender_epoch(&self) -> u64 {
        self.sender_epoch.load(Ordering::Relaxed)
    }

    /// Wipes the registry and bumps the epoch. Called in the fork child:
    /// the parent's other threads do not exist there, and touching their
    /// buffer locks (possibly held mid-free at fork time) would deadlock.
    /// The child's own cores re-register lazily via the epoch check.
    pub(crate) fn clear_senders(&self) {
        let mut reg = self.senders.lock();
        reg.clear();
        self.sender_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes every registered thread's sender-side buffers into the
    /// remote-free queues. The registry lock is released before any buffer
    /// (leaf) lock or class lock is taken, so this never deadlocks with
    /// concurrent registration or `lock_all`.
    pub(crate) fn flush_all_senders(&self) {
        let bufs: Vec<Arc<crate::remote_free::SenderBufs>> = {
            let reg = self.senders.lock();
            reg.iter().filter_map(|w| w.upgrade()).collect()
        };
        for sender in bufs {
            for idx in 0..NUM_SIZE_CLASSES {
                let mut buf = sender.take(idx);
                if !buf.is_empty() {
                    self.flush_remote_batch(idx, &mut buf);
                }
            }
        }
    }

    /// Flushes every live sender's buffers and every class's remote-free
    /// queue (taking each class lock in turn, never two at once). Called
    /// before stats snapshots and by the background mesher so occupancy
    /// accounting stays settled.
    pub fn drain_all(&self) {
        self.flush_all_senders();
        for class in SizeClass::all() {
            if !self.classes[class.index()].queue.is_empty() {
                let mut st = self.lock_class(class);
                self.drain_class_locked(class, &mut st);
            }
        }
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
        let id = st.slab.insert(MiniHeap::new_small(class, span));
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

    /// Destroys an empty, detached MiniHeap: restores identity mappings
    /// for meshed aliases, returns spans to the arena, clears ownership.
    pub(crate) fn free_miniheap_locked(&self, st: &mut ClassState, id: MiniHeapId) {
        st.bin_remove(id);
        let mut mh = st.slab.remove(id);
        debug_assert_eq!(mh.in_use(), 0, "freeing a MiniHeap with live objects");
        let mut arena = self.lock_arena();
        for alias in mh.take_alias_spans() {
            // Alias file ranges were released when the mesh happened; the
            // virtual spans just need their identity mappings back.
            arena
                .restore_identity(alias)
                .expect("identity restore failed");
            self.page_map.clear_span(alias);
            arena.free_span_clean(alias);
        }
        let primary = mh.span();
        self.page_map.clear_span(primary);
        arena.free_span_dirty(primary);
    }

    /// Refills `set` for `class` under the class lock (plus the arena leaf
    /// lock only if a fresh span is needed), with the queue drained:
    ///
    /// 1. members the thread is not drawing on are released — to their
    ///    occupancy bin, or destroyed if nothing in them is live. These
    ///    are the idle ones its frees have passed by
    ///    ([`AttachedSet::take_idle`]: full spans, which the mesher gets
    ///    to see once their objects die, as when every refill detached
    ///    the one attached span), and the ones other threads freed into,
    ///    whose freed slots are re-claimed by whoever step 2 hands the
    ///    span to — this set, if it is among the fullest;
    /// 2. partial spans are attached fullest-first (§3.1) until the set
    ///    holds its goal, one span's worth of free slots, or is full of
    ///    members that all have slots — evicting one more full member only
    ///    when the set is at its bound and a partial span needs the place;
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
        self.counters.refills.fetch_add(1, Ordering::Relaxed);
        self.drain_class_locked(class, &mut st);
        let idle = set.take_idle();
        for member in set.members() {
            let mh = st.slab.get(set.id(member)).expect("attached id is live");
            // Every slot the vector holds is claimed, so a clear bit is a
            // slot a drained remote free gave back.
            if idle & (1 << member) != 0 || mh.in_use() < mh.object_count() {
                self.release_vector_locked(class, &mut st, set.unlink(member));
            }
        }
        let mut slots = set.available();
        while slots < class.object_count() {
            let Some(id) = st.select_partial() else { break };
            if !self.make_room_locked(class, &mut st, set, thread_rng) {
                st.bin_insert(id);
                break;
            }
            slots += self.attach_locked(&mut st, set, id, token, thread_rng);
        }
        if slots == 0 {
            let room = self.make_room_locked(class, &mut st, set, thread_rng);
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
        class: SizeClass,
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
        self.release_vector_locked(class, st, set.unlink(victim));
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

    /// Detaches one member — the free path's release of a member the
    /// retention rule gives back ([`AttachedSet::is_surplus_empty`]).
    /// Takes the lock the drain-side `now_empty` destruction of a detached
    /// span takes, and no more: the queue is left for the next refill.
    pub fn release_member(&self, class: SizeClass, set: &mut AttachedSet, member: usize) {
        let mut st = self.lock_class(class);
        self.release_vector_locked(class, &mut st, set.unlink(member));
    }

    /// Teardown path for a thread heap: detaches every member of `set`
    /// *and* returns the thread's popped-batch remainder (`cache`) to the
    /// transfer cache, releasing claims that no longer fit.
    pub fn release_set_and_cache(
        &self,
        class: SizeClass,
        set: &mut AttachedSet,
        cache: &mut Vec<usize>,
    ) {
        if set.len() == 0 && cache.is_empty() {
            return;
        }
        let mut st = self.lock_class(class);
        self.drain_class_locked(class, &mut st);
        for member in set.members() {
            self.release_vector_locked(class, &mut st, set.unlink(member));
        }
        if cache.is_empty() {
            return;
        }
        let t0 = Instant::now();
        let returned = cache.len() as u64;
        let batch = self.transfer.batch();
        while !cache.is_empty() {
            let n = batch.min(cache.len());
            let chunk: Vec<usize> = cache.drain(cache.len() - n..).collect();
            match self.transfer.try_push(class.index(), chunk) {
                Ok(()) => {
                    self.counters.transfer_spills.fetch_add(1, Ordering::Relaxed);
                }
                Err(chunk) => {
                    for addr in chunk {
                        self.release_claimed(class, &mut st, addr);
                    }
                }
            }
        }
        self.counters.record_slow(TimedOp::TransferSpill, t0, returned);
    }

    fn release_vector_locked(&self, class: SizeClass, st: &mut ClassState, sv: &mut ShuffleVector) {
        let Some(old) = sv.miniheap() else { return };
        // Detach-spill: when the span will survive detaching anyway (live
        // objects beyond the vector's claims), park surplus vector slots
        // in the transfer cache so the next refill skips the class lock.
        // Only mostly-live spans spill (≥ half the slots hold objects the
        // app still owns): a mostly-free span is a reclamation candidate,
        // and cached claims would pin it — the free path could never
        // destroy it once its last live object dies, and meshing would
        // have to purge the cache to see its true occupancy.
        if self.transfer.cache_enabled() && sv.available() > 0 {
            let mh = st.slab.get(old).expect("attached id is live");
            let (in_use, count) = (mh.in_use(), mh.object_count());
            if in_use - sv.available() >= count.div_ceil(2) {
                let t0 = Instant::now();
                let mut spilled = 0u64;
                let batch = self.transfer.batch();
                let mut budget =
                    (self.transfer.room(class.index()) * batch).min(sv.available());
                while budget > 0 {
                    let chunk = sv.spill(batch.min(budget));
                    if chunk.is_empty() {
                        break;
                    }
                    budget -= chunk.len();
                    spilled += chunk.len() as u64;
                    match self.transfer.try_push(class.index(), chunk) {
                        Ok(()) => {
                            self.counters.transfer_spills.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(chunk) => {
                            for addr in chunk {
                                self.release_claimed(class, st, addr);
                            }
                        }
                    }
                }
                self.counters.record_slow(TimedOp::TransferSpill, t0, spilled);
            }
        }
        {
            let mh = st.slab.get(old).expect("attached id is live");
            sv.detach(mh.bitmap());
        }
        let mh = st.slab.get_mut(old).expect("attached id is live");
        mh.set_state(AttachState::Detached);
        if mh.in_use() == 0 {
            self.free_miniheap_locked(st, old);
        } else {
            st.bin_insert(old);
        }
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
            let mut mh = if guarded {
                MiniHeap::new_large_guarded(span)
            } else {
                MiniHeap::new_large(span)
            };
            if addr != start {
                // Hardened frees are pinned to the exact handed-out
                // address, so remember where the over-aligned object
                // actually starts.
                mh.set_large_start_off(addr - start);
            }
            let object_bytes = mh.object_size();
            let id = large.insert(mh);
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
        let Some(info) = self.page_map.get(page) else {
            self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
            self.harden_violation(HardenKind::InvalidFree, addr);
            return false;
        };
        if !info.is_large() {
            self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
            self.harden_violation(HardenKind::InvalidFree, addr);
            return false;
        }
        let Some(mh) = large.get(info.id) else {
            self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
            self.harden_violation(HardenKind::InvalidFree, addr);
            return false;
        };
        // Classic mode accepts any pointer into the live span (C-lenient,
        // like the interior-offset tolerance on the small path). Hardened
        // mode pins free to the exact address malloc returned: an interior
        // pointer must not be able to release — or double-count — the
        // whole object.
        if self.harden.active() {
            let start = self.base + mh.span().byte_offset() + mh.large_start_off();
            if addr != start {
                self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
                self.harden_violation(HardenKind::InvalidFree, addr);
                return false;
            }
        }
        if !mh.bitmap().unset(0) {
            self.counters.double_frees.fetch_add(1, Ordering::Relaxed);
            self.harden_violation(HardenKind::DoubleFree, addr);
            return false;
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

    /// Frees `addr` through the global heap. Small objects are *enqueued*
    /// lock-free on their class's remote-free queue (validation happens at
    /// drain time); large objects are freed immediately under the large
    /// lock. Returns whether the free was accepted (optimistically, for
    /// the queued path).
    pub fn free_global(&self, addr: usize) -> bool {
        if let Some(t) = &self.telemetry {
            t.on_free(addr);
        }
        match self.resolve_free(addr) {
            Some((page, info)) => self.free_routed(addr, page, info),
            None => {
                self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
                self.harden_violation(HardenKind::InvalidFree, addr);
                false
            }
        }
    }

    /// Frees `addr` given its already-decoded page-map entry — the entry
    /// point used by the thread-heap fast path, which resolved the entry
    /// for its own local/remote decision and passes it down instead of
    /// having the global heap re-derive it.
    pub(crate) fn free_routed(
        &self,
        addr: usize,
        page: u32,
        info: crate::page_map::PageInfo,
    ) -> bool {
        let accepted = self.free_resolved_inner(addr, page, info);
        if accepted {
            self.scheduler.on_global_free();
            self.settle_after_free();
        }
        accepted
    }

    /// The inline meshing/settlement that follows an accepted global
    /// free. Must be called with no shard locks held.
    pub(crate) fn settle_after_free(&self) {
        if !self.rt.background_meshing {
            if self.rt.meshing() {
                // Inline meshing (seed semantics): rate-limited by the
                // scheduler; no locks are held here. Passes drain every
                // class's queue.
                self.maybe_mesh();
            } else if self.scheduler.should_drain(self.rt.mesh_period()) {
                // "Mesh (no meshing)" configuration: no pass will ever
                // drain the queues, so settle them on the mesh period
                // instead — reclamation must not be deferred unboundedly.
                self.drain_all();
            }
        }
    }

    /// Flushes a sender-side buffer of small-object frees for one class
    /// as a single batch node: one allocation and one CAS per buffer.
    /// Takes no locks; the caller runs [`GlobalHeap::settle_after_free`]
    /// afterwards from a lock-free context.
    pub(crate) fn flush_remote_batch(&self, class_idx: usize, buf: &mut Vec<usize>) {
        if buf.is_empty() {
            return;
        }
        self.counters
            .remote_free_queued
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters
            .remote_free_batches
            .fetch_add(1, Ordering::Relaxed);
        self.classes[class_idx].queue.push_batch(std::mem::take(buf));
        self.scheduler.on_global_free();
    }

    fn free_resolved_inner(&self, addr: usize, page: u32, info: crate::page_map::PageInfo) -> bool {
        if info.is_large() {
            return self.free_large(addr, page);
        }
        self.counters
            .remote_free_queued
            .fetch_add(1, Ordering::Relaxed);
        self.classes[info.class_code as usize].queue.push(addr);
        true
    }

    /// Frees `addr` through the global path *without* running inline
    /// meshing or queue settlement: the route for frees arriving from
    /// internal contexts (which may already hold a shard lock a meshing
    /// pass would retake). The queued free is applied at the next refill,
    /// pass, or stats flush.
    pub fn free_global_deferred(&self, addr: usize) -> bool {
        if let Some(t) = &self.telemetry {
            t.on_free(addr);
        }
        let Some((page, info)) = self.resolve_free(addr) else {
            self.counters.invalid_frees.fetch_add(1, Ordering::Relaxed);
            self.harden_violation(HardenKind::InvalidFree, addr);
            return false;
        };
        let accepted = self.free_resolved_inner(addr, page, info);
        if accepted {
            self.scheduler.on_global_free();
        }
        accepted
    }

    // ----- fork support --------------------------------------------------

    /// Acquires every heap lock in the canonical order — size classes by
    /// index, then the large shard, then the arena leaf, then the
    /// transfer-cache leaves, then the scheduler leaves, then the
    /// per-thread stats registry, then the sender-buffer registry, then
    /// the telemetry dump clock, then the sense poll clock, then the
    /// histogram-block registry, then the trace-ring registry, then the
    /// ctl socket's I/O lock — quiescing the heap for `fork()`. Any
    /// in-flight refill, drain, meshing pass, thread-block
    /// (un)registration, or dump-clock claim completes before this
    /// returns, so a child forked at any moment inherits consistent heap
    /// state.
    pub(crate) fn lock_all(&self) -> AllShardGuards<'_> {
        let classes = SizeClass::all().map(|c| self.lock_class(c)).collect();
        let large = self.large.lock();
        let arena = self.lock_arena();
        let transfer = self.transfer.lock_all();
        let (sched_mesh, sched_purge, sched_drain) = self.scheduler.lock_all();
        let stat_locals = self.counters.lock_locals();
        let senders = self.senders.lock();
        let telemetry_dump = self.telemetry.as_ref().map(|t| t.lock_dump_clock());
        let sense_clock = self.sense.as_ref().map(|s| s.lock_poll_clock());
        let hist_locals = self.counters.lock_hist_locals();
        let trace_rings = self.counters.trace_set().map(|t| t.lock_rings());
        let ctl = self.ctl.as_ref().map(|c| c.lock_io());
        AllShardGuards {
            _classes: classes,
            _large: large,
            _arena: arena,
            _transfer: transfer,
            _sched_mesh: sched_mesh,
            _sched_purge: sched_purge,
            _sched_drain: sched_drain,
            _stat_locals: stat_locals,
            _senders: senders,
            _telemetry_dump: telemetry_dump,
            _sense_clock: sense_clock,
            _hist_locals: hist_locals,
            _trace_rings: trace_rings,
            _ctl: ctl,
        }
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
        if self.scheduler.due(self.rt.mesh_period()) {
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
        self.scheduler
            .finish_pass(summary.bytes_released() < self.rt.min_mesh_gain_bytes());
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
            let class = SizeClass::from_index(info.class_code as usize);
            let slot = (addr - info.span_start(self.base, page)) / class.object_size();
            if slot >= class.object_count() {
                return None;
            }
            Some(class.object_size())
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
            let offset = addr - info.span_start(self.base, page);
            offset / class.object_size() < class.object_count()
                && offset.is_multiple_of(class.object_size())
                && SizeClass::for_size(new_size) == Some(class)
        }
    }

    /// Per-segment accounting snapshots (takes the arena leaf lock).
    pub fn segment_stats(&self) -> Vec<crate::segment::SegmentStats> {
        self.lock_arena().segment_stats()
    }

    /// Purges dirty pages and retires any segment left with all pages
    /// clean. Transfer-cache claims are released first (one class lock at
    /// a time, before the arena leaf): a span whose only "live" objects
    /// sit in the cache would otherwise pin its pages committed forever.
    pub fn purge_and_retire(&self) {
        let _pass = crate::stats::MeshPassScope::enter(&self.counters);
        self.purge_transfer_all();
        let mut arena = self.lock_arena();
        arena.purge_dirty();
        arena.retire_empty_segments(&self.page_map);
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
        let mut spec = HeapSpectrum::default();
        let mut candidates: Vec<u32> = Vec::new();
        for class in SizeClass::all() {
            let slots = class.object_count();
            let cs = &mut spec.classes[class.index()];
            cs.object_size = class.object_size() as u32;
            cs.meshable = class.is_meshable();
            candidates.clear();
            let st = self.lock_class(class);
            for (_, mh) in st.slab.iter() {
                let in_use = mh.in_use();
                cs.live_objects += in_use as u64;
                cs.total_slots += slots as u64;
                if mh.is_attached() {
                    cs.attached_spans += 1;
                } else {
                    // Recompute rather than trusting `mh.bin`: a span can
                    // be transiently unbinned (mid-selection) and drained
                    // occupancy may have moved since binning.
                    let bin = if in_use == 0 {
                        // Empty MiniHeaps are freed, not binned; a
                        // transient zero counts with the emptiest.
                        PARTIAL_BINS as u8 - 1
                    } else {
                        bin_for_occupancy(in_use, slots)
                    };
                    cs.bins[bin as usize] += 1;
                    if cs.meshable
                        && mh.span_count() < self.rt.max_span_count()
                        && (in_use as f64 / slots as f64) <= cutoff
                    {
                        candidates.push(in_use as u32);
                    }
                }
            }
            drop(st);
            cs.est_meshable_pairs =
                telemetry::estimate_meshable_pairs(&mut candidates, slots as u32);
        }
        let large = self.large.lock();
        spec.large_spans = large.len() as u32;
        spec.large_bytes = large.iter().map(|(_, mh)| mh.object_size() as u64).sum();
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attached_set::ATTACHED_SPANS;

    /// Detaches every member of `set` (what a thread heap's teardown does).
    fn release(h: &GlobalHeap, class: SizeClass, set: &mut AttachedSet) {
        h.release_set_and_cache(class, set, &mut Vec::new());
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
        // transfer_batch(1): legacy drain semantics (no recycling), so the
        // drained free must rebin the span. Recycling behaviour has its
        // own test below.
        let h = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(7)
                .write_barrier(false)
                .transfer_batch(1),
            Arc::new(Counters::default()),
        )
        .unwrap();
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
            assert_eq!(old.bin, FULL_BIN);
        }
        // Free one object globally: queued lock-free, applied at drain,
        // after which it must drop out of the full bin.
        assert!(h.free_global(a));
        {
            let st = h.lock_class(class);
            assert_eq!(st.slab.get(first).unwrap().bin, FULL_BIN, "not yet drained");
        }
        h.drain_all();
        let st = h.lock_class(class);
        assert_eq!(st.slab.get(first).unwrap().bin, 0);
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
            assert_eq!(mh.bin, FULL_BIN);
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
        // is handed out again by the refill that drained the free, once.
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
    fn detach_spills_surplus_into_transfer_cache() {
        // Default batching knobs: a detach with avail slots — while other
        // objects of the span are still app-live — parks the surplus in
        // the transfer cache instead of handing it back to the span. A
        // long mesh period keeps inline passes (which purge the cache)
        // out of the way.
        let h = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(7)
                .write_barrier(false)
                .mesh_period(Duration::from_secs(3600)),
            Arc::new(Counters::default()),
        )
        .unwrap();
        let class = SizeClass::for_size(128).unwrap();
        let count = class.object_count();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(1);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let first = set.id(0);
        let start = {
            let st = h.lock_class(class);
            h.base_addr() + st.slab.get(first).unwrap().span().byte_offset()
        };
        let mut addrs = Vec::new();
        while let Some(a) = set.malloc() {
            addrs.push(a);
        }
        // Locally free 10 objects back into the avail mask; the rest stay
        // "app-live", so detaching cannot reclaim the span.
        let returned: Vec<usize> = addrs.drain(..10).collect();
        for &a in &returned {
            let slot = (a - start) / class.object_size();
            assert!(unsafe { set.free_slot(0, slot, &mut rng) });
        }
        release(&h, class, &mut set);
        {
            let st = h.lock_class(class);
            let mh = st.slab.get(first).unwrap();
            assert_eq!(mh.bin, FULL_BIN, "spilled claims keep occupancy");
            assert_eq!(mh.in_use(), count, "cached slots stay claimed");
        }
        for &a in &returned {
            assert!(h.transfer.contains(class.index(), a), "address parked");
        }
        assert_eq!(h.counters.snapshot().transfer_spills, 1, "one batch pushed");
        // A hostile free of a cache-held address is caught by membership.
        assert!(h.free_global(returned[0]), "push is optimistic");
        h.drain_all();
        let s = h.counters.snapshot();
        assert_eq!(s.frees, 0);
        assert_eq!(s.double_frees, 1, "cache membership caught the dup");
        // The parked batch refills a vector without touching the shard.
        let popped = h.transfer.pop(class.index()).unwrap();
        assert_eq!(popped.len(), 10);
        // Purging returns the claims to the span: occupancy drops and the
        // span rebins as partial (the meshing-truthfulness hook).
        let mut st = h.lock_class(class);
        for a in popped {
            h.release_claimed(class, &mut st, a);
        }
        let mh = st.slab.get(first).unwrap();
        assert_eq!(mh.in_use(), count - 10);
        assert!(mh.bin < FULL_BIN, "span visible to meshing again");
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
        let picked = st.select_partial().unwrap();
        assert_eq!(picked, high, "fullest bin scanned first");
        let picked2 = st.select_partial().unwrap();
        assert_eq!(picked2, low);
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
    fn queued_double_free_detected_at_drain() {
        let h = heap();
        let class = SizeClass::for_size(256).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(9);
        h.refill(&mut set, class, 1, &mut rng).unwrap();
        let a = set.malloc().unwrap();
        // Keep a second object live so the MiniHeap survives the first
        // drained free (a dead MiniHeap would make the duplicate read as
        // *invalid* instead, exactly like the seed's large-object case).
        let _b = set.malloc().unwrap();
        // Detach so the frees take the global path.
        release(&h, class, &mut set);
        assert!(h.free_global(a));
        assert!(h.free_global(a), "second push is optimistically accepted");
        h.drain_all();
        let s = h.counters.snapshot();
        assert_eq!(s.frees, 1, "only one free applied");
        assert_eq!(s.double_frees, 1, "duplicate rejected at drain");
        assert_eq!(s.remote_free_queued, 2);
        assert_eq!(s.remote_free_drained, 2);
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
    fn no_meshing_config_still_drains_queues_on_free_path() {
        // The "Mesh (no meshing)" ablation never runs a pass, so the free
        // path itself must settle queues on the mesh-period rate limit.
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
        // No drain_all(), no stats(): the free path's own settlement must
        // have applied the queued free and destroyed the empty MiniHeap.
        let s = h.counters.snapshot();
        assert_eq!(s.frees, 1, "queued free was never applied");
        assert_eq!(h.lock_class(class).slab.len(), 0);
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
    fn remote_free_enqueue_takes_no_class_lock() {
        // A free routed to a class whose lock is held must complete
        // without blocking (it only pushes onto the lock-free queue).
        // Inline meshing is pushed out of the way: a due pass inside
        // free_global would itself want the held class lock.
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
        drop(guard);
        h.drain_all();
        assert_eq!(h.counters.snapshot().frees, 1);
    }
}
