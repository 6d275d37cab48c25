//! Heap statistics: the quantities the paper's `mstat` tool measures (§6.1)
//! plus meshing-specific counters used throughout the evaluation.
//!
//! Two tiers keep the malloc/free fast path free of shared-cacheline
//! traffic (the §4.3 "no atomics on the hot path" claim):
//!
//! * [`Counters`] — shared atomics, bumped only by cold paths (refills,
//!   remote frees, meshing, segments).
//! * [`LocalCounters`] — one cacheline-aligned delta block per thread
//!   heap, registered with its heap's [`Counters`]. The owning thread
//!   updates it with plain load+store pairs (single-writer, so no RMW and
//!   no lock prefix); other threads only ever *read* it. Deltas are folded
//!   into the shared counters on refill/detach/teardown, and
//!   [`Counters::snapshot`] sums the live blocks so [`HeapStats`] stays
//!   exact without any hot-path `fetch_add`.
//!
//! Telemetry has one tier: every timed slow path, refills included,
//! records into the heap's one latency histogram block and, under
//! `MESH_TRACE=1`, its one trace ring (`Counters::record_slow`).
//!
//! [`HeapStats`] is a coherent snapshot taken on demand.

use crate::harden::{HARDEN_KINDS, HARDEN_NAMES};
use crate::size_classes::NUM_SIZE_CLASSES;
use crate::sync::{Mutex, MutexGuard, Rank};
use crate::telemetry::fields::{self, counter, gauge, num, row, Field, Value::Named};
use crate::telemetry::{
    chrome_json, HeapSpectrum, HistBlock, LatencySnapshot, TimedOp, TraceSet, ALL_TIMED_OPS,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

thread_local! {
    /// Whether the current thread is inside a meshing pass. Lock waits by
    /// the mesher itself are never mutator pauses.
    static IN_MESH_PASS: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as (not) running a meshing pass.
pub(crate) fn set_in_mesh_pass(v: bool) {
    IN_MESH_PASS.with(|c| c.set(v));
}

/// Whether the current thread is running a meshing pass.
pub(crate) fn in_mesh_pass() -> bool {
    IN_MESH_PASS.with(|c| c.get())
}

/// RAII scope marking "a mesh pass (or purge) is running on this thread":
/// bumps [`Counters::mesh_active`] and sets the thread-local mesher flag,
/// restoring both on drop (nesting-safe — purge runs inside a pass).
pub(crate) struct MeshPassScope<'a> {
    counters: &'a Counters,
    was: bool,
}

impl<'a> MeshPassScope<'a> {
    pub(crate) fn enter(counters: &'a Counters) -> MeshPassScope<'a> {
        let was = in_mesh_pass();
        set_in_mesh_pass(true);
        counters.mesh_active.fetch_add(1, Ordering::Relaxed);
        MeshPassScope { counters, was }
    }
}

impl Drop for MeshPassScope<'_> {
    fn drop(&mut self) {
        self.counters.mesh_active.fetch_sub(1, Ordering::Relaxed);
        set_in_mesh_pass(self.was);
    }
}

/// Per-thread counter deltas for the malloc/free fast path.
///
/// Single-writer: only the owning thread may call the `on_*` methods (they
/// are unsynchronized load+store increments); any thread may read. Byte
/// counters are monotonic — live bytes are derived as allocated − freed —
/// so the snapshot sum stays exact under wrapping arithmetic even when
/// another thread's free of an object is folded into the shared counters
/// before the allocating thread's delta is.
#[derive(Debug, Default)]
#[repr(align(64))] // a cacheline per thread: no false sharing between blocks
pub struct LocalCounters {
    mallocs: AtomicU64,
    frees: AtomicU64,
    remote_frees: AtomicU64,
    alloc_bytes: AtomicU64,
    freed_bytes: AtomicU64,
}

/// Single-writer increment: a relaxed load+store pair compiles to two
/// plain moves (no `lock` prefix) — legal because the owning thread is
/// the only writer.
#[inline]
fn bump(cell: &AtomicU64, v: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
}

impl LocalCounters {
    /// Records one fast-path allocation of `bytes` (owner thread only).
    #[inline]
    pub fn on_malloc(&self, bytes: usize) {
        bump(&self.mallocs, 1);
        bump(&self.alloc_bytes, bytes as u64);
    }

    /// Records one fast-path free of `bytes` (owner thread only).
    #[inline]
    pub fn on_free(&self, bytes: usize) {
        bump(&self.frees, 1);
        bump(&self.freed_bytes, bytes as u64);
    }

    /// Records one non-local free of `bytes` — an object of a span this
    /// thread has not attached — made by the owner thread.
    #[inline]
    pub fn on_remote_free(&self, bytes: usize) {
        bump(&self.remote_frees, 1);
        self.on_free(bytes);
    }
}

/// When something rate-limited last ran, in nanoseconds on the heap's
/// epoch ([`Counters::now_ns`]). One atomic claimed by CAS: of two callers
/// that find a period elapsed, one wins the slot, and neither holds a
/// lock.
#[derive(Debug)]
pub(crate) struct EpochClock(AtomicU64);

impl EpochClock {
    /// A clock that last ran at `at_ns`.
    pub(crate) fn started_at(at_ns: u64) -> EpochClock {
        EpochClock(AtomicU64::new(at_ns))
    }

    /// Claims a slot: true, with the clock restarted at `now_ns`, when at
    /// least `period` passed since it last ran.
    pub(crate) fn claim(&self, now_ns: u64, period: Duration) -> bool {
        let last = self.0.load(Ordering::Relaxed);
        now_ns.saturating_sub(last) >= period.as_nanos() as u64
            && self
                .0
                .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Restarts the clock at `now_ns`.
    pub(crate) fn restart(&self, now_ns: u64) {
        self.0.store(now_ns, Ordering::Relaxed);
    }

    /// Time left at `now_ns` until `period` will have passed.
    pub(crate) fn remaining(&self, now_ns: u64, period: Duration) -> Duration {
        let elapsed = now_ns.saturating_sub(self.0.load(Ordering::Relaxed));
        period.saturating_sub(Duration::from_nanos(elapsed))
    }
}

/// The thread registry's lock, at its rank (a type of its own so that
/// [`Counters`] keeps its `Default`).
#[derive(Debug)]
struct Registry(Mutex<Vec<Arc<LocalCounters>>>);

impl Default for Registry {
    fn default() -> Registry {
        Registry(Mutex::new(Rank::THREADS, Vec::new()))
    }
}

/// Live atomic counters owned by a heap. Exposed for the substrate layers
/// ([`crate::arena::Arena`] shares them); user code should read the
/// [`HeapStats`] snapshot via [`crate::Mesh::stats`] instead.
#[derive(Debug, Default)]
pub struct Counters {
    pub mallocs: AtomicU64,
    pub frees: AtomicU64,
    pub remote_frees: AtomicU64,
    pub invalid_frees: AtomicU64,
    pub double_frees: AtomicU64,
    pub large_allocs: AtomicU64,
    pub mesh_passes: AtomicU64,
    pub spans_meshed: AtomicU64,
    pub mesh_pages_released: AtomicU64,
    pub mesh_bytes_copied: AtomicU64,
    pub mesh_nanos: AtomicU64,
    pub mesh_longest_pause_nanos: AtomicU64,
    pub dirty_purges: AtomicU64,
    pub pages_purged: AtomicU64,
    /// Pages currently committed (handed out and not yet released to the
    /// OS): the physical footprint of the heap. Mirrors the arena's
    /// internal accounting for lock-free reads.
    pub committed_pages: AtomicUsize,
    pub committed_pages_peak: AtomicUsize,
    /// Bytes of live application objects (allocated minus freed).
    pub live_bytes: AtomicUsize,
    /// Shuffle-vector refills (each takes exactly one class lock).
    pub refills: AtomicU64,
    /// Times a class lock was found contended (per size class): the
    /// sharding metric — the seed's single global mutex counted every
    /// cross-class collision here.
    pub class_lock_contention: [AtomicU64; NUM_SIZE_CLASSES],
    /// Times the arena (span/page-table) leaf lock was found contended.
    pub arena_lock_contention: AtomicU64,
    /// Segments mapped over the heap's lifetime (including the initial
    /// one); segment ids are monotonic, so this equals `max id + 1`.
    pub segments_created: AtomicU64,
    /// Segments unmapped ("retired") after all their pages went clean.
    pub segments_retired: AtomicU64,
    /// Segments currently mapped.
    pub active_segments: AtomicUsize,
    /// Pages currently mapped to segment files (virtual footprint of the
    /// active segments; committed ≤ mapped ≤ cap).
    pub mapped_pages: AtomicUsize,
    /// Bytes of span records and bitmap-table chunks, added to where a
    /// slab or its table grows (neither ever shrinks).
    pub slab_bytes: AtomicUsize,
    /// Times this heap was privatized in a forked child (each copies the
    /// segment files so parent and child stop sharing pages).
    pub forks: AtomicU64,
    /// `realloc` calls satisfied without moving the allocation (same size
    /// class, or still within a large allocation's page span).
    pub reallocs_in_place: AtomicU64,
    /// Hardened-mode violations by kind (indexed by
    /// [`crate::harden::HardenKind`]): count-mode detections of double
    /// frees, invalid frees, poison/UAF writes, guard-tail overwrites,
    /// and mesh-time canary trips. All zero unless `MESH_HARDEN` is on.
    pub harden_violations: [AtomicU64; HARDEN_KINDS],
    /// Mesh passes (or purge phases) currently executing. Nonzero means a
    /// mutator's contended lock wait is a *pause inflicted by the mesher*
    /// and is additionally recorded in the mutator-pause histogram.
    pub mesh_active: AtomicU64,
    /// The thread registry: every live thread heap's [`LocalCounters`],
    /// summed by [`Counters::snapshot`] so totals stay exact while
    /// threads batch.
    threads: Registry,
    /// The always-on latency histograms of every timed slow path
    /// (multi-writer).
    hists: HistBlock,
    /// Opt-in trace state (`MESH_TRACE=1`); `None` keeps every slow-path
    /// record to one `Option` load.
    trace: OnceLock<Arc<TraceSet>>,
    /// The heap's birth instant: zero point for trace timestamps and
    /// `uptime_ms`. Initialized lazily on first use so `Counters` keeps
    /// its `Default`.
    epoch: OnceLock<Instant>,
}

impl Counters {
    /// Creates and registers a thread heap's counter block. What it
    /// counts toward the heap's totals from then on;
    /// [`Counters::retire_thread`] folds it in for good.
    pub(crate) fn register_thread(&self) -> Arc<LocalCounters> {
        let block = Arc::new(LocalCounters::default());
        self.threads.0.lock().push(Arc::clone(&block));
        block
    }

    /// Folds a block's accumulated deltas into the shared counters,
    /// zeroing the block. Must be called by the block's owning thread
    /// (flush points: refill, detach, snapshot-by-owner, teardown).
    pub fn flush_local(&self, block: &LocalCounters) {
        let mallocs = block.mallocs.swap(0, Ordering::Relaxed);
        let frees = block.frees.swap(0, Ordering::Relaxed);
        let remote = block.remote_frees.swap(0, Ordering::Relaxed);
        let alloc = block.alloc_bytes.swap(0, Ordering::Relaxed);
        let freed = block.freed_bytes.swap(0, Ordering::Relaxed);
        if mallocs > 0 {
            self.mallocs.fetch_add(mallocs, Ordering::Relaxed);
        }
        if frees > 0 {
            self.frees.fetch_add(frees, Ordering::Relaxed);
        }
        if remote > 0 {
            self.remote_frees.fetch_add(remote, Ordering::Relaxed);
        }
        // fetch_add/fetch_sub wrap, so a transiently "negative" shared
        // live_bytes (the freeing thread flushed before the allocating
        // one) still sums to the exact value in `snapshot`.
        if alloc > 0 {
            self.live_bytes.fetch_add(alloc as usize, Ordering::Relaxed);
        }
        if freed > 0 {
            self.live_bytes.fetch_sub(freed as usize, Ordering::Relaxed);
        }
    }

    /// Retires a dying thread heap's block: its deltas move to the shared
    /// counters and the registry lets go of it, under the registry lock,
    /// so no snapshot counts the block twice or misses it.
    pub(crate) fn retire_thread(&self, block: &Arc<LocalCounters>) {
        let mut threads = self.threads.0.lock();
        self.flush_local(block);
        threads.retain(|b| !Arc::ptr_eq(b, block));
    }

    /// Holds the thread registry (fork quiescence: `GlobalHeap::lock_all`
    /// takes it, so a forked child cannot inherit it mid-register,
    /// mid-retire, or mid-snapshot).
    pub(crate) fn lock_threads(&self) -> MutexGuard<'_, Vec<Arc<LocalCounters>>> {
        self.threads.0.lock()
    }

    /// Number of registered thread blocks (test hook).
    #[cfg(test)]
    pub(crate) fn registered_threads(&self) -> usize {
        self.threads.0.lock().len()
    }

    /// Sums the pending deltas of every registered thread block.
    /// (mallocs, frees, remote frees, allocated bytes, freed bytes).
    fn local_sums(&self) -> [u64; 5] {
        let threads = self.threads.0.lock();
        let mut sums = [0u64; 5];
        for b in threads.iter() {
            let block = [
                &b.mallocs,
                &b.frees,
                &b.remote_frees,
                &b.alloc_bytes,
                &b.freed_bytes,
            ];
            for (sum, cell) in sums.iter_mut().zip(block) {
                *sum = sum.wrapping_add(cell.load(Ordering::Relaxed));
            }
        }
        sums
    }

    /// Updates committed-page accounting, maintaining the peak.
    pub fn set_committed(&self, pages: usize) {
        self.committed_pages.store(pages, Ordering::Relaxed);
        self.committed_pages_peak.fetch_max(pages, Ordering::Relaxed);
    }

    /// Records the duration of one meshing pass.
    pub fn record_mesh_pass(&self, nanos: u64) {
        self.mesh_passes.fetch_add(1, Ordering::Relaxed);
        self.mesh_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.mesh_longest_pause_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// The heap's birth instant (first call wins; the heap constructor
    /// touches this so uptime starts at init, not at first telemetry read).
    pub(crate) fn epoch(&self) -> Instant {
        *self.epoch.get_or_init(Instant::now)
    }

    /// Nanoseconds since the heap's epoch.
    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch().elapsed().as_nanos() as u64
    }

    /// Milliseconds since the heap's epoch.
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.epoch().elapsed().as_millis() as u64
    }

    /// Installs the trace ring (heap construction, `MESH_TRACE=1` only).
    pub(crate) fn set_trace(&self, trace: Arc<TraceSet>) {
        let _ = self.trace.set(trace);
    }

    /// The trace state, when tracing is on.
    pub(crate) fn trace_set(&self) -> Option<&Arc<TraceSet>> {
        self.trace.get()
    }

    /// Every buffered trace event as Chrome trace-event JSON; `None` when
    /// tracing is off.
    pub(crate) fn trace_json(&self) -> Option<String> {
        let trace = self.trace.get()?;
        Some(chrome_json(&trace.events(), self.uptime_ms()))
    }

    /// Records one completed slow-path operation that began at `start`:
    /// always into the latency histogram, and into the trace ring when
    /// tracing is on.
    pub(crate) fn record_slow(&self, op: TimedOp, start: Instant, arg: u64) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.hists.record(op, dur_ns);
        if let Some(trace) = self.trace.get() {
            let start_ns = start.saturating_duration_since(self.epoch()).as_nanos() as u64;
            trace.record(op, start_ns, dur_ns, arg);
        }
    }

    /// Records an already-measured wait of `dur_ns` ending now (the shape
    /// [`crate::sync::Mutex::lock_timed`] reports).
    pub(crate) fn record_wait(&self, op: TimedOp, dur_ns: u64, arg: u64) {
        self.hists.record(op, dur_ns);
        if let Some(trace) = self.trace.get() {
            let start_ns = self.now_ns().saturating_sub(dur_ns);
            trace.record(op, start_ns, dur_ns, arg);
        }
    }

    /// Records a contended lock wait; when a mesh pass is active and the
    /// waiter is not the mesher itself, the wait is also a mutator pause —
    /// measured here, at the lock boundary, because that is the only
    /// place the mesher can block a mutator.
    pub(crate) fn record_lock_wait(&self, op: TimedOp, dur_ns: u64) {
        self.record_wait(op, dur_ns, 0);
        if self.mesh_active.load(Ordering::Relaxed) > 0 && !in_mesh_pass() {
            self.record_wait(TimedOp::MutatorPause, dur_ns, 0);
        }
    }

    /// Zeroes the latency histograms and empties the trace ring (fork
    /// child: the parent's history is not this process's; single-threaded
    /// there, so plain stores are safe).
    pub(crate) fn wipe_for_child(&self) {
        self.hists.zero();
        if let Some(trace) = self.trace.get() {
            trace.wipe();
        }
    }

    /// The current latency snapshot.
    pub fn latency_snapshot(&self) -> LatencySnapshot {
        let mut snap = LatencySnapshot::default();
        self.hists.add_into(&mut snap);
        snap
    }

    /// Takes a coherent-enough snapshot (individual counters are relaxed;
    /// exact cross-counter consistency is not required for reporting).
    /// Pending per-thread deltas are summed in, so totals are exact
    /// whenever the heap is quiescent — no flush required.
    pub fn snapshot(&self) -> HeapStats {
        let [l_mallocs, l_frees, l_remote, l_alloc, l_freed] = self.local_sums();
        HeapStats {
            mallocs: self.mallocs.load(Ordering::Relaxed).wrapping_add(l_mallocs),
            frees: self.frees.load(Ordering::Relaxed).wrapping_add(l_frees),
            remote_frees: self.remote_frees.load(Ordering::Relaxed).wrapping_add(l_remote),
            invalid_frees: self.invalid_frees.load(Ordering::Relaxed),
            double_frees: self.double_frees.load(Ordering::Relaxed),
            large_allocs: self.large_allocs.load(Ordering::Relaxed),
            mesh_passes: self.mesh_passes.load(Ordering::Relaxed),
            spans_meshed: self.spans_meshed.load(Ordering::Relaxed),
            mesh_pages_released: self.mesh_pages_released.load(Ordering::Relaxed),
            mesh_bytes_copied: self.mesh_bytes_copied.load(Ordering::Relaxed),
            mesh_nanos: self.mesh_nanos.load(Ordering::Relaxed),
            mesh_longest_pause_nanos: self.mesh_longest_pause_nanos.load(Ordering::Relaxed),
            dirty_purges: self.dirty_purges.load(Ordering::Relaxed),
            pages_purged: self.pages_purged.load(Ordering::Relaxed),
            committed_pages: self.committed_pages.load(Ordering::Relaxed),
            committed_pages_peak: self.committed_pages_peak.load(Ordering::Relaxed),
            live_bytes: self
                .live_bytes
                .load(Ordering::Relaxed)
                .wrapping_add(l_alloc as usize)
                .wrapping_sub(l_freed as usize),
            refills: self.refills.load(Ordering::Relaxed),
            remote_free_queued: 0,
            remote_free_drained: 0,
            transfer_hits: 0,
            transfer_misses: 0,
            transfer_spills: 0,
            remote_free_batches: 0,
            class_lock_contention: std::array::from_fn(|i| {
                self.class_lock_contention[i].load(Ordering::Relaxed)
            }),
            arena_lock_contention: self.arena_lock_contention.load(Ordering::Relaxed),
            segments_created: self.segments_created.load(Ordering::Relaxed),
            segments_retired: self.segments_retired.load(Ordering::Relaxed),
            segment_count: self.active_segments.load(Ordering::Relaxed),
            mapped_pages: self.mapped_pages.load(Ordering::Relaxed),
            slab_bytes: self.slab_bytes.load(Ordering::Relaxed),
            forks: self.forks.load(Ordering::Relaxed),
            reallocs_in_place: self.reallocs_in_place.load(Ordering::Relaxed),
            harden_violations: std::array::from_fn(|i| {
                self.harden_violations[i].load(Ordering::Relaxed)
            }),
            uptime_ms: self.uptime_ms(),
            latency: self.latency_snapshot(),
            spectrum: HeapSpectrum::default(),
        }
    }
}

/// A point-in-time snapshot of heap statistics.
///
/// # Examples
///
/// ```
/// use mesh_core::{Mesh, MeshConfig};
///
/// # fn main() -> Result<(), mesh_core::MeshError> {
/// let mesh = Mesh::new(MeshConfig::default().arena_bytes(16 << 20))?;
/// let p = mesh.malloc(100);
/// let stats = mesh.stats();
/// assert_eq!(stats.mallocs, 1);
/// assert!(stats.heap_bytes() > 0);
/// # unsafe { mesh.free(p) };
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Total successful allocations.
    pub mallocs: u64,
    /// Total frees (all paths).
    pub frees: u64,
    /// Frees routed through the global heap (§3.2 "remote"/global frees).
    pub remote_frees: u64,
    /// Frees of pointers not owned by the heap (discarded, §4.4.4).
    pub invalid_frees: u64,
    /// Frees of already-free objects (discarded, §4.4.4).
    pub double_frees: u64,
    /// Allocations above the largest size class (§4.4.3).
    pub large_allocs: u64,
    /// Completed meshing passes.
    pub mesh_passes: u64,
    /// Span pairs merged by meshing.
    pub spans_meshed: u64,
    /// Physical pages released by meshing.
    pub mesh_pages_released: u64,
    /// Object bytes copied while meshing.
    pub mesh_bytes_copied: u64,
    /// Total nanoseconds spent inside meshing passes.
    pub mesh_nanos: u64,
    /// Longest single meshing pass in nanoseconds (the paper reports the
    /// longest pause, §6.2.2).
    pub mesh_longest_pause_nanos: u64,
    /// Dirty-page purge events (§4.4.1).
    pub dirty_purges: u64,
    /// Total pages released by dirty purges (each refaults on next use).
    pub pages_purged: u64,
    /// Pages currently committed — the heap's physical footprint.
    pub committed_pages: usize,
    /// Peak committed pages over the heap's lifetime.
    pub committed_pages_peak: usize,
    /// Live application bytes (allocated − freed), before size-class
    /// rounding.
    pub live_bytes: usize,
    /// Shuffle-vector refills (one class-lock acquisition each).
    pub refills: u64,
    /// Retired, always 0: there is no remote-free queue (a non-local free
    /// clears its bit itself; `remote_frees` counts them). Kept, with the
    /// five fields below, for `mesh-bench`, which reads them by name; the
    /// next benchmark change drops them together with its rows.
    pub remote_free_queued: u64,
    /// Retired, always 0 (see `remote_free_queued`).
    pub remote_free_drained: u64,
    /// Retired, always 0: there is no transfer cache.
    pub transfer_hits: u64,
    /// Retired, always 0 (see `transfer_hits`).
    pub transfer_misses: u64,
    /// Retired, always 0 (see `transfer_hits`).
    pub transfer_spills: u64,
    /// Retired, always 0 (see `remote_free_queued`).
    pub remote_free_batches: u64,
    /// Contended class-lock acquisitions, per size class.
    pub class_lock_contention: [u64; NUM_SIZE_CLASSES],
    /// Contended acquisitions of the arena leaf lock.
    pub arena_lock_contention: u64,
    /// Segments mapped over the heap's lifetime (ids are monotonic).
    pub segments_created: u64,
    /// Segments retired (unmapped after all their pages went clean).
    pub segments_retired: u64,
    /// Segments currently mapped.
    pub segment_count: usize,
    /// Pages currently mapped to segment files.
    pub mapped_pages: usize,
    /// Per-span metadata: span records (32 bytes per id ever issued) and
    /// bitmap-table entries (64 bytes each).
    pub slab_bytes: usize,
    /// Times the heap was privatized in a forked child.
    pub forks: u64,
    /// `realloc` calls satisfied in place (no copy, pointer unchanged).
    pub reallocs_in_place: u64,
    /// Hardened-mode violations by kind (indexed by
    /// [`crate::harden::HardenKind`]); all zero unless `MESH_HARDEN` is on.
    pub harden_violations: [u64; HARDEN_KINDS],
    /// Milliseconds since heap initialization (monotonic), so successive
    /// dumps can be diffed and rated.
    pub uptime_ms: u64,
    /// Slow-path latency histograms (always on; see
    /// [`crate::telemetry::TimedOp`] for the operations measured).
    pub latency: LatencySnapshot,
    /// Per-class occupancy spectrum with meshability estimates. Filled
    /// only for [`crate::Report::Stats`] / [`crate::Report::Prom`] —
    /// plain [`crate::Mesh::stats`] / [`Counters::snapshot`] leave it
    /// empty (spans are global-heap state, not counters, and walking them
    /// has a cost periodic samplers should opt into by assigning
    /// [`crate::Mesh::occupancy_spectrum`] here).
    pub spectrum: HeapSpectrum,
}

impl HeapStats {
    /// Physical heap footprint in bytes (committed pages × page size):
    /// the analog of the paper's cgroup RSS measurement.
    pub fn heap_bytes(&self) -> usize {
        self.committed_pages * crate::size_classes::PAGE_SIZE
    }

    /// Peak physical heap footprint in bytes.
    pub fn peak_heap_bytes(&self) -> usize {
        self.committed_pages_peak * crate::size_classes::PAGE_SIZE
    }

    /// Fragmentation ratio: physical footprint over live bytes (Redis
    /// computes exactly this to decide when to defragment, §6.2.2).
    /// Returns `None` when no bytes are live.
    pub fn fragmentation_ratio(&self) -> Option<f64> {
        if self.live_bytes == 0 {
            None
        } else {
            Some(self.heap_bytes() as f64 / self.live_bytes as f64)
        }
    }

    /// Total contended class-lock acquisitions across all size classes.
    pub fn total_class_contention(&self) -> u64 {
        self.class_lock_contention.iter().sum()
    }

    /// Total hardened-mode violations across all kinds.
    pub fn total_harden_violations(&self) -> u64 {
        self.harden_violations.iter().sum()
    }

    /// Bytes currently mapped to segment files (virtual footprint of the
    /// active segments; `heap_bytes() ≤ mapped_bytes()`).
    pub fn mapped_bytes(&self) -> usize {
        self.mapped_pages * crate::size_classes::PAGE_SIZE
    }

    /// One machine-parseable `key=value` summary line, used by the C ABI
    /// layer's `mesh_stats_print()` / `MESH_PRINT_STATS_AT_EXIT=1` dump
    /// (grep for `^mesh:`; `pairs_meshed` is the paper's headline
    /// meshing metric). When the snapshot carries an occupancy spectrum
    /// (see [`HeapStats::spectrum`]), a compact per-class summary and the
    /// releasable-bytes estimate are appended, so `malloc_stats(3)` shows
    /// meshability at a glance. Slow-path operations that have actually
    /// fired follow as one `mesh-latency:` line each (count/p50/p99/max);
    /// a bare snapshot stays a single line.
    pub fn render(&self) -> String {
        let mut line = String::from("mesh:");
        fields::kv_line(&mut line, HEAP_FIELDS.iter().chain(&HARDEN_FIELDS), self);
        if !self.spectrum.is_empty() {
            line.push_str(&format!(
                " est_releasable_bytes={} spectrum={}",
                self.spectrum.est_releasable_bytes(),
                self.spectrum.render_compact(),
            ));
        }
        for op in ALL_TIMED_OPS {
            let count = self.latency.count(op);
            if count > 0 {
                line.push_str(&format!(
                    "\nmesh-latency: op={} count={} p50_ns={} p99_ns={} max_ns={}",
                    op.name(),
                    count,
                    self.latency.percentile_ns(op, 0.50),
                    self.latency.percentile_ns(op, 0.99),
                    self.latency.max_ns(op),
                ));
            }
        }
        line
    }
}

/// The `mesh:` line keys and Prometheus series of [`HeapStats`], in the
/// exposition's order (counters, then gauges); `line` is the place on the
/// `mesh:` line.
#[rustfmt::skip]
pub(crate) static HEAP_FIELDS: [Field<HeapStats>; 31] = [
    num!(mallocs, line: 1, prom: counter("mesh_mallocs_total", "Successful allocations.")),
    num!(frees, line: 2, prom: counter("mesh_frees_total", "Frees, all paths.")),
    num!(remote_frees, line: 8, prom: counter("mesh_remote_frees_total", "Frees routed through the global heap.")),
    num!(invalid_frees, line: 9,
         prom: counter("mesh_invalid_frees_total", "Frees of pointers the heap does not own (discarded).")),
    num!(double_frees, line: 10,
         prom: counter("mesh_double_frees_total", "Frees of already-free objects (discarded).")),
    num!(large_allocs, line: 7, prom: counter("mesh_large_allocs_total", "Allocations above the largest size class.")),
    num!(mesh_passes, line: 12, prom: counter("mesh_mesh_passes_total", "Completed meshing passes.")),
    num!(pairs_meshed = spans_meshed, line: 13, prom: counter("mesh_spans_meshed_total", "Span pairs merged by meshing.")),
    num!(mesh_pages_released, line: 14,
         prom: counter("mesh_mesh_pages_released_total", "Physical pages released by meshing.")),
    num!(mesh_bytes_copied, prom: counter("mesh_mesh_bytes_copied_total", "Object bytes copied while meshing.")),
    num!(dirty_purges, prom: counter("mesh_dirty_purges_total", "Dirty-page purge events.")),
    num!(pages_purged, line: 15, prom: counter("mesh_pages_purged_total", "Pages released by dirty purges.")),
    num!(refills, prom: counter("mesh_refills_total", "Shuffle-vector refills (one class-lock acquisition each).")),
    num!(remote_free_queued,
         prom: counter("mesh_remote_free_queued_total", "Retired, always 0: non-local frees are not queued.")),
    num!(remote_free_drained,
         prom: counter("mesh_remote_free_drained_total", "Retired, always 0: non-local frees are not queued.")),
    num!(reallocs_in_place, line: 11,
         prom: counter("mesh_reallocs_in_place_total", "realloc calls satisfied without moving the allocation.")),
    num!(forks, line: 19, prom: counter("mesh_forks_total", "Heap privatizations in forked children.")),
    num!(transfer_hits, line: 20,
         prom: counter("mesh_transfer_hits_total", "Retired, always 0: there is no transfer cache.")),
    num!(transfer_misses, line: 21,
         prom: counter("mesh_transfer_misses_total", "Retired, always 0: there is no transfer cache.")),
    num!(transfer_spills, line: 22,
         prom: counter("mesh_transfer_spills_total", "Retired, always 0: there is no transfer cache.")),
    num!(remote_free_batches, line: 23,
         prom: counter("mesh_remote_free_batches_total", "Retired, always 0: non-local frees are not queued.")),
    num!(segments_created, line: 17,
         prom: counter("mesh_segments_created_total", "Segments mapped over the heap's lifetime.")),
    num!(segments_retired, line: 18,
         prom: counter("mesh_segments_retired_total", "Segments unmapped after all their pages went clean.")),
    num!(live_bytes, line: 3, prom: gauge("mesh_live_bytes", "Live application bytes (allocated minus freed).")),
    num!(heap_bytes(), line: 4,
         prom: gauge("mesh_heap_bytes", "Committed pages in bytes - the physical heap footprint.")),
    num!(peak_heap_bytes(), line: 5, prom: gauge("mesh_heap_peak_bytes", "Peak committed bytes over the heap's lifetime.")),
    // Renamed series kept one release for dashboards still scraping it.
    num!(peak_heap_bytes(), prom: gauge("mesh_heap_bytes_peak", "Deprecated alias of mesh_heap_peak_bytes.").eol(
        "# EOL mesh_heap_bytes_peak is a deprecated alias of mesh_heap_peak_bytes, removal no earlier than 2026-12-01\n")),
    num!(mapped_bytes(), line: 6,
         prom: gauge("mesh_mapped_bytes", "Bytes mapped to segment files - the virtual footprint.")),
    num!(segments = segment_count, line: 16, prom: gauge("mesh_segments", "Segments currently mapped.")),
    num!(slab_bytes, prom: gauge("mesh_slab_bytes", "Span-record and bitmap-table bytes - per-span metadata.")),
    num!(uptime_ms, line: 24, prom: gauge("mesh_uptime_seconds", "Seconds since heap initialization.").ms_as_seconds()),
];

/// Hardened-mode violations by kind: last on the `mesh:` line, and
/// exported after the latency, spectrum and reject families. Every kind
/// is shown, zeros included and with `MESH_HARDEN` off, so alerting rules
/// can be written once.
#[rustfmt::skip]
pub(crate) static HARDEN_FIELDS: [Field<HeapStats>; 1] = [row!(
    key: "harden", line: 25, get: |s| Named(&HARDEN_NAMES, &s.harden_violations),
    prom: counter("mesh_harden_violations_total", "Hardened-mode memory-safety violations by kind.").by("kind"))];

/// A point-in-time snapshot of one MiniHeap's allocation state, exposed
/// for experiments and diagnostics (e.g. cross-validating the §5 theory
/// against live heap bitmaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Object size in bytes.
    pub object_size: usize,
    /// Number of object slots in the span.
    pub object_count: usize,
    /// Live objects (set bitmap bits).
    pub in_use: usize,
    /// Raw bitmap words (bit `i` = slot `i` unavailable).
    pub bitmap_words: [u64; 4],
    /// Virtual spans aliasing this physical span (> 1 once meshed).
    pub virtual_span_count: usize,
    /// Whether the MiniHeap is attached to a thread-local heap.
    pub attached: bool,
    /// Whether this is a large-object singleton.
    pub large: bool,
}

impl SpanSnapshot {
    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.in_use as f64 / self.object_count.max(1) as f64
    }

    /// Definition 5.1 on snapshots: disjoint live slots.
    pub fn meshes_with(&self, other: &SpanSnapshot) -> bool {
        self.bitmap_words
            .iter()
            .zip(&other.bitmap_words)
            .all(|(a, b)| a & b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_snapshot_helpers() {
        let a = SpanSnapshot {
            object_size: 256,
            object_count: 16,
            in_use: 4,
            bitmap_words: [0b0101, 0, 0, 0],
            virtual_span_count: 1,
            attached: false,
            large: false,
        };
        let mut b = a;
        b.bitmap_words = [0b1010, 0, 0, 0];
        assert!(a.meshes_with(&b));
        b.bitmap_words = [0b0100, 0, 0, 0];
        assert!(!a.meshes_with(&b));
        assert!((a.occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let c = Counters::default();
        c.mallocs.fetch_add(3, Ordering::Relaxed);
        c.set_committed(10);
        c.set_committed(7);
        let s = c.snapshot();
        assert_eq!(s.mallocs, 3);
        assert_eq!(s.committed_pages, 7);
        assert_eq!(s.committed_pages_peak, 10);
        assert_eq!(s.heap_bytes(), 7 * 4096);
        assert_eq!(s.peak_heap_bytes(), 10 * 4096);
    }

    #[test]
    fn fragmentation_ratio_handles_zero_live() {
        let s = HeapStats::default();
        assert_eq!(s.fragmentation_ratio(), None);
        let mut s2 = s;
        s2.live_bytes = 4096;
        s2.committed_pages = 2;
        assert_eq!(s2.fragmentation_ratio(), Some(2.0));
    }

    #[test]
    fn render_is_one_parseable_line() {
        let c = Counters::default();
        c.mallocs.fetch_add(7, Ordering::Relaxed);
        c.spans_meshed.fetch_add(2, Ordering::Relaxed);
        c.forks.fetch_add(1, Ordering::Relaxed);
        c.harden_violations[crate::harden::HardenKind::Poison as usize]
            .fetch_add(3, Ordering::Relaxed);
        let line = c.snapshot().render();
        assert!(line.starts_with("mesh: "));
        assert!(!line.contains('\n'));
        assert!(line.contains("mallocs=7"));
        assert!(line.contains("pairs_meshed=2"));
        assert!(line.contains("forks=1"));
        assert!(line.contains("transfer_hits=0"));
        assert!(line.contains("remote_free_batches=0"));
        assert!(line.contains("harden_poison=3"), "{line}");
        assert!(line.contains("harden_double_free=0"), "{line}");
        assert!(line.contains("harden_canary=0"), "{line}");
    }

    #[test]
    fn render_appends_spectrum_when_present() {
        let mut s = Counters::default().snapshot();
        assert!(
            !s.render().contains("spectrum="),
            "bare counter snapshots carry no spectrum"
        );
        s.spectrum.classes[0] = crate::telemetry::ClassSpectrum {
            object_size: 16,
            attached_spans: 1,
            bins: [0, 0, 0, 2, 0],
            live_objects: 3,
            total_slots: 768,
            est_meshable_pairs: 1,
            meshable: true,
        };
        let line = s.render();
        assert!(line.contains("spectrum=16B:a1+p0/0/0/2+f0~1"), "{line}");
        assert!(line.contains("est_releasable_bytes=4096"), "{line}");
        assert!(!line.contains('\n'), "render stays one line");
    }

    #[test]
    fn local_blocks_count_toward_snapshot_without_flush() {
        let c = Counters::default();
        let block = c.register_thread();
        block.on_malloc(112);
        block.on_malloc(112);
        block.on_free(112);
        let s = c.snapshot();
        assert_eq!(s.mallocs, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.live_bytes, 112);
        // Flushing moves the deltas but changes no totals.
        c.flush_local(&block);
        let s = c.snapshot();
        assert_eq!((s.mallocs, s.frees, s.live_bytes), (2, 1, 112));
        assert_eq!(c.mallocs.load(Ordering::Relaxed), 2, "deltas folded in");
    }

    #[test]
    fn unregister_preserves_totals() {
        let c = Counters::default();
        let block = c.register_thread();
        block.on_malloc(64);
        c.retire_thread(&block);
        let s = c.snapshot();
        assert_eq!(s.mallocs, 1);
        assert_eq!(s.live_bytes, 64);
        assert_eq!(c.registered_threads(), 0);
    }

    #[test]
    fn remote_free_before_flush_sums_exactly() {
        // Thread A allocates (delta unflushed); thread B frees the object
        // and its delta reaches the shared counter first. The transient
        // shared value wraps, but the snapshot sum is exact.
        let c = Counters::default();
        let a = c.register_thread();
        let b = c.register_thread();
        a.on_malloc(4096);
        b.on_remote_free(4096);
        assert_eq!(c.snapshot().remote_frees, 1, "pending deltas are summed in");
        c.flush_local(&b);
        let s = c.snapshot();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.mallocs, 1);
        assert_eq!((s.frees, s.remote_frees), (1, 1));
        c.retire_thread(&a);
        c.retire_thread(&b);
        assert_eq!(c.snapshot().live_bytes, 0);
    }

    #[test]
    fn epoch_clocks_claim_once_per_period() {
        let period = Duration::from_nanos(100);
        let clock = EpochClock::started_at(1_000);
        assert!(!clock.claim(1_050, period), "half a period in");
        assert_eq!(clock.remaining(1_050, period), Duration::from_nanos(50));
        assert!(clock.claim(1_100, period));
        assert!(!clock.claim(1_100, period), "the slot is taken");
        clock.restart(5_000);
        assert!(!clock.claim(5_099, period));
        assert_eq!(clock.remaining(5_200, period), Duration::ZERO);
    }

    #[test]
    fn render_appends_latency_lines_only_when_ops_fired() {
        let c = Counters::default();
        let bare = c.snapshot().render();
        assert!(!bare.contains('\n'), "no ops fired, one line");
        assert!(bare.contains("uptime_ms="), "uptime always present");
        c.record_wait(TimedOp::Refill, 5_000, 0);
        c.record_wait(TimedOp::Refill, 50_000, 0);
        let line = c.snapshot().render();
        let latency: Vec<&str> = line
            .lines()
            .filter(|l| l.starts_with("mesh-latency: "))
            .collect();
        assert_eq!(latency.len(), 1, "only the fired op is rendered: {line}");
        assert!(latency[0].contains("op=refill count=2"), "{line}");
        assert!(latency[0].contains("max_ns=50000"), "{line}");
    }

    #[test]
    fn lock_waits_become_mutator_pauses_only_under_meshing() {
        let c = Counters::default();
        c.record_lock_wait(TimedOp::ClassLockWait, 1_000);
        assert_eq!(c.latency_snapshot().count(TimedOp::MutatorPause), 0);
        c.mesh_active.fetch_add(1, Ordering::Relaxed);
        c.record_lock_wait(TimedOp::ClassLockWait, 2_000);
        assert_eq!(c.latency_snapshot().count(TimedOp::MutatorPause), 1);
        // The mesher's own waits are never pauses.
        set_in_mesh_pass(true);
        c.record_lock_wait(TimedOp::ArenaLockWait, 3_000);
        set_in_mesh_pass(false);
        let snap = c.latency_snapshot();
        assert_eq!(snap.count(TimedOp::MutatorPause), 1);
        assert_eq!(snap.count(TimedOp::ClassLockWait), 2);
        assert_eq!(snap.count(TimedOp::ArenaLockWait), 1);
        // Fork child wipes latency history.
        c.wipe_for_child();
        assert!(c.latency_snapshot().is_empty());
    }

    #[test]
    fn record_slow_feeds_hist_and_trace() {
        let c = Counters::default();
        let cfg = crate::MeshConfig::default().tracing(true).trace_buf_events(64);
        c.set_trace(TraceSet::new(&cfg).unwrap());
        c.record_slow(TimedOp::MeshPass, Instant::now(), 7);
        assert_eq!(c.latency_snapshot().count(TimedOp::MeshPass), 1);
        let json = c.trace_json().unwrap();
        assert!(json.contains("\"name\":\"mesh_pass\""), "{json}");
        assert!(json.contains("\"args\":{\"arg\":7}"), "{json}");
    }

    #[test]
    fn record_mesh_pass_tracks_longest() {
        let c = Counters::default();
        c.record_mesh_pass(5);
        c.record_mesh_pass(50);
        c.record_mesh_pass(10);
        let s = c.snapshot();
        assert_eq!(s.mesh_passes, 3);
        assert_eq!(s.mesh_nanos, 65);
        assert_eq!(s.mesh_longest_pause_nanos, 50);
    }
}
