//! The sharded global heap (§4.4): its construction, the routing of
//! frees, the hardened-mode helpers, the meshing entry points and the
//! queries. The parts that change for reasons of their own live beside
//! it, each an `impl GlobalHeap` of its own module:
//!
//! * **Class shards** (`class_shard`) — each size class owns a mutex
//!   guarding its slab of MiniHeaps, its occupancy bins, and its PRNG.
//!   Refills, detaches, and meshing of a class touch only that class's
//!   lock. Beside the mutex sit what a non-local free needs without it:
//!   the class's bitmap table, its mesh epoch and its list of spans frees
//!   left unsettled. A non-local small free is one atomic clear of its
//!   bit (§4.4.4; [`GlobalHeap::free_small`]) and takes no lock; the next
//!   refill, detach, pass or purge ([`GlobalHeap::lock_class_swept`])
//!   destroys or refiles the spans it left behind.
//! * **Large objects** (`large`) — large-object singletons (§4.4.3)
//!   behind their own mutex.
//! * **The arena lock** — span hand-out/return, the bump frontier, dirty
//!   purging, remaps and page-map writes.
//! * **Fork** (`fork`) — [`GlobalHeap::lock_all`] and the child's
//!   recovery.
//!
//! The [`PageMap`] routes frees without any lock. The seed kept all of
//! this under one mutex; the shards let threads working in different
//! size classes never contend. The order in which a thread may take the
//! locks is the rank table, `sync::RANKS` (DESIGN.md §2).
//!
//! Meshing runs one class at a time, holding that class's lock (only an
//! attach sets bits, and it needs the lock: frees racing a pass can only
//! make candidates sparser) and the arena lock for the remap itself; the
//! class's mesh epoch is odd while a pair's source bitmap is being
//! consumed (DESIGN.md §3). Passes run inline, on the free path, when
//! the [`MeshScheduler`] says one is due (§4.5), or on `mesh_now`.

use crate::arena::Arena;
use crate::class_shard::{
    bin_for_occupancy, ClassBins, ClassShard, ClassState, ShardUnlocked, FULL_BIN, PARTIAL_BINS,
};
use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::harden::{self, HardenConfig, HardenKind};
use crate::meshing::{self, MeshSummary};
use crate::miniheap::{MiniHeapRef, Slab, UnsettledList};
use crate::page_map::{PageInfo, PageMap};
use crate::rng::Rng;
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES, PAGE_SIZE};
use crate::stats::{Counters, EpochClock, LocalCounters};
use crate::sync::{Mutex, MutexGuard, Rank};
use crate::telemetry::{
    self, CtlState, HeapSpectrum, MeshLedger, Reports, Telemetry, TimedOp, TraceSet,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The meshing configuration a pass reads: the runtime-tunable part (the
/// `mallctl` analogs, §4.5) as atomics, so controls never take a heap
/// lock, and the rest as set at construction.
#[derive(Debug)]
pub(crate) struct RuntimeConfig {
    meshing: AtomicBool,
    mesh_period_nanos: AtomicU64,
    /// A pass that releases fewer bytes pauses the timer (§4.5); a pass
    /// purges once this many bytes are dirty.
    pub min_mesh_gain_bytes: usize,
}

impl RuntimeConfig {
    fn new(config: &MeshConfig) -> RuntimeConfig {
        RuntimeConfig {
            meshing: AtomicBool::new(config.meshing),
            mesh_period_nanos: AtomicU64::new(
                config.mesh_period.as_nanos().min(u64::MAX as u128) as u64,
            ),
            min_mesh_gain_bytes: config.min_mesh_gain_bytes,
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
    pub(crate) classes: Vec<ClassShard>,
    /// Large-object singletons (§4.4.3), ordered like a class lock.
    pub(crate) large: Mutex<Slab>,
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
    pub(crate) class_canaries: [u64; NUM_SIZE_CLASSES],
    pub(crate) base: usize,
    pub(crate) pages: u32,
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
        // opt-in trace ring before any instrumented path can run.
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
                let slab = Slab::new(Some(class), Arc::clone(&counters));
                ClassShard {
                    unlocked: ShardUnlocked {
                        bits: slab.table(),
                        mesh_epoch: AtomicU64::new(0),
                        unsettled: UnsettledList::default(),
                    },
                    state: Mutex::new(Rank::class(class.index()), ClassState {
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
            large: Mutex::new(Rank::LARGE, Slab::new(None, Arc::clone(&counters))),
            arena: Mutex::new(Rank::ARENA, arena),
            page_map: PageMap::new(pages as usize),
            rt: RuntimeConfig::new(&config),
            scheduler: MeshScheduler::new(),
            counters,
            telemetry: Telemetry::new(&config),
            ledger: MeshLedger::new(),
            reports: Reports::new(&config),
            harden: config.harden,
            ctl: config.ctl_socket_path().map(CtlState::bind),
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

    /// [`GlobalHeap::lock_class`] for the paths that place or pick spans
    /// (refill, detach, meshing pass, purge): does first the bin work
    /// frees left behind.
    pub(crate) fn lock_class_swept(&self, class: SizeClass) -> MutexGuard<'_, ClassState> {
        let mut st = self.lock_class(class);
        self.tidy_locked(class, &mut st);
        st
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

    // ----- non-local frees (§4.4.4) -------------------------------------

    /// Resolves `addr` to its arena page and page-map entry, or `None`
    /// for foreign/unowned pointers (lock-free).
    #[inline]
    pub(crate) fn resolve_free(&self, addr: usize) -> Option<(u32, crate::page_map::PageInfo)> {
        let page = self.page_of_addr(addr)?;
        let info = self.page_map.get(page)?;
        Some((page, info))
    }

    /// Frees `addr` through the global heap: small objects by clearing
    /// their bit ([`GlobalHeap::free_small`]), large objects under the
    /// large lock; then runs a due inline meshing pass. Returns whether
    /// the free was accepted. Must be called with no shard locks held.
    /// (Tests only: the front ends free through their thread heaps, or
    /// [`GlobalHeap::free_global_deferred`] from inside Mesh.)
    #[cfg(test)]
    pub(crate) fn free_global(&self, addr: usize) -> bool {
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
        self.mesh_pass(self.rt.min_mesh_gain_bytes)
    }

    /// `malloc_trim`: one pass that tidies every class, meshes, and then
    /// releases every dirty page and parked alias, however few. With
    /// meshing off it only tidies and purges. Must be called with no shard
    /// locks held.
    pub(crate) fn trim(&self) {
        if self.rt.meshing() {
            self.mesh_pass(0);
        } else {
            self.tidy_and_purge();
        }
    }

    /// A meshing pass that purges once `purge_floor` bytes are dirty.
    fn mesh_pass(&self, purge_floor: usize) -> MeshSummary {
        // While this scope lives, other threads' contended lock waits are
        // pauses inflicted by the mesher (this thread's own are not).
        let _pass = crate::stats::MeshPassScope::enter(&self.counters);
        let summary = meshing::mesh_all_classes(self, purge_floor);
        let low_yield = summary.bytes_released() < self.rt.min_mesh_gain_bytes;
        self.scheduler.finish_pass(low_yield, &self.counters);
        summary
    }

    // ----- queries ------------------------------------------------------

    /// The arena's accounting snapshot (takes the arena leaf lock).
    pub fn arena_stats(&self) -> crate::free_spans::ArenaStats {
        self.lock_arena().stats()
    }

    /// Purges dirty pages. Every class is tidied first (one class lock at
    /// a time, before the arena leaf), so the spans frees emptied are
    /// among the pages purged.
    pub fn tidy_and_purge(&self) {
        let _pass = crate::stats::MeshPassScope::enter(&self.counters);
        self.tidy_all_classes();
        self.purge_locked(&mut self.lock_arena());
    }

    /// [`Arena::purge_dirty`], checking (in debug builds) that the pages
    /// the frontier came down over hold no routed span.
    pub(crate) fn purge_locked(&self, arena: &mut Arena) {
        let before = arena.mapped_pages();
        arena.purge_dirty();
        let after = arena.mapped_pages();
        debug_assert!(
            after >= before
                || self
                    .page_map
                    .range_is_clear(after as u32, (before - after) as u32),
            "the frontier came down over routed pages"
        );
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
        let snap = |mh: MiniHeapRef<'_>| crate::stats::SpanSnapshot {
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
        let alias_room = self.lock_arena().alias_room().min(u32::MAX as usize) as u32;
        let mut spec = HeapSpectrum::default();
        // The live objects of each candidate.
        let mut in_use_of: Vec<u32> = Vec::new();
        for class in SizeClass::all() {
            let slots = class.object_count();
            let cs = &mut spec.classes[class.index()];
            cs.object_size = class.object_size() as u32;
            cs.meshable = class.is_meshable();
            in_use_of.clear();
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
                    if cs.meshable && crate::meshing::is_candidate(mh) {
                        in_use_of.push(in_use as u32);
                    }
                }
            }
            drop(st);
            // The sources first fit could fold by live counts alone, and
            // no more than the mapping budget has aliases left for.
            cs.est_meshable_pairs =
                telemetry::estimate_meshable_pairs(&mut in_use_of, slots as u32).min(alias_room);
        }
        let large = self.large.lock();
        spec.large_spans = large.len() as u32;
        spec.large_bytes = large.iter().map(|(_, mh)| mh.object_size() as u64).sum();
        spec
    }
}

#[cfg(test)]
mod tests;
