//! The public allocator API: [`Mesh`] heaps, per-thread [`ThreadHeap`]
//! handles, and a [`MeshGlobalAlloc`] adapter implementing
//! [`std::alloc::GlobalAlloc`] over the process runtime
//! ([`crate::process`], which the paper's `LD_PRELOAD` interposition
//! shares).

use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::global_heap::GlobalHeap;
use crate::knobs::{self, Value};
use crate::local_heap::ThreadHeapCore;
use crate::mesher::BackgroundThread;
use crate::meshing::MeshSummary;
use crate::rng::Rng;
use crate::size_classes::{SizeClass, MAX_SMALL_SIZE, PAGE_SIZE};
use crate::stats::{Counters, HeapStats};
use crate::sync::{Mutex, Rank};
use crate::sys::ReleaseStrategy;
use crate::telemetry::{Report, ReportOff};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub(crate) struct MeshInner {
    /// The sharded global heap: all entry points are `&self` and take
    /// only the shard locks they need.
    pub state: GlobalHeap,
    pub counters: Arc<Counters>,
    base: usize,
    bytes: usize,
    seed_base: u64,
    randomize: bool,
    token_gen: AtomicU64,
    pub(crate) main: Mutex<ThreadHeapCore>,
    /// The background thread's handle (the telemetry beat); dropping it
    /// (with the heap) signals the thread to exit. Behind a mutex so a
    /// forked child — where the parent's thread does not exist — can swap
    /// in a fresh one.
    pub(crate) mesher: Mutex<Option<BackgroundThread>>,
}

impl std::fmt::Debug for MeshInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshInner")
            .field("base", &(self.base as *const u8))
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

/// A Mesh heap: a compacting, meshing memory allocator (the paper's
/// drop-in `malloc` replacement, §4).
///
/// `Mesh` is cheaply cloneable (a handle to shared state) and `Send +
/// Sync`. Allocation through `Mesh` itself serializes on an internal
/// default thread heap — convenient for examples and single-threaded use;
/// multi-threaded applications should give each thread its own
/// [`ThreadHeap`] via [`Mesh::thread_heap`] to get the lock-free fast path
/// of §4.3. The global heap behind the handles is sharded per size class,
/// so even refills from different classes never contend on a common lock.
///
/// # Examples
///
/// ```
/// use mesh_core::{Mesh, MeshConfig};
///
/// # fn main() -> Result<(), mesh_core::MeshError> {
/// let mesh = Mesh::new(MeshConfig::default().seed(1).arena_bytes(32 << 20))?;
/// let p = mesh.malloc(128);
/// assert!(!p.is_null());
/// unsafe {
///     std::ptr::write_bytes(p, 0xAB, 128);
///     mesh.free(p);
/// }
/// let summary = mesh.mesh_now();
/// println!("meshed {} pairs", summary.pairs_meshed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    pub(crate) inner: Arc<MeshInner>,
}

impl Mesh {
    /// Creates a heap with the given configuration. When profiling,
    /// tracing, a control socket or a sense dump path (`MESH_SENSE_PATH`)
    /// is on, also spawns the background thread that serves them
    /// (stopped again when the last handle drops).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidConfig`] for bad configurations and
    /// [`MeshError::ArenaCreation`]/[`MeshError::Map`] if the backing
    /// arena cannot be established.
    pub fn new(config: MeshConfig) -> Result<Mesh, MeshError> {
        config.validate()?;
        let counters = Arc::new(Counters::default());
        let state = GlobalHeap::new(config.clone(), Arc::clone(&counters))?;
        let base = state.base_addr();
        let bytes = state.capacity_pages() as usize * PAGE_SIZE;
        let seed_base = config
            .seed
            .unwrap_or_else(|| Rng::from_entropy().next_u64());
        let randomize = config.randomize;
        let background = state.background_thread_wanted();
        let main = ThreadHeapCore::new(
            seed_base ^ 0x6d61_696e,
            randomize,
            0,
            Arc::clone(&counters),
            state.telemetry.clone(),
        );
        let inner = Arc::new_cyclic(|weak| MeshInner {
            state,
            counters,
            base,
            bytes,
            seed_base,
            randomize,
            token_gen: AtomicU64::new(1),
            main: Mutex::new(Rank::MAIN, main),
            mesher: Mutex::new(
                Rank::MESHER,
                background.then(|| BackgroundThread::spawn(weak.clone())),
            ),
        });
        Ok(Mesh { inner })
    }

    /// Allocates `size` bytes, 16-byte aligned (page-aligned above 16 KiB).
    /// The segmented arena grows on demand; null is returned only when the
    /// configured hard cap (`max_heap_bytes`) has no room — never panics.
    pub fn malloc(&self, size: usize) -> *mut u8 {
        with_internal_alloc(|| self.inner.main.lock().malloc(&self.inner.state, size))
    }

    /// Allocates `size` bytes with alignment `align` (any power of two).
    /// Alignments up to the page size are served in-class by rounding the
    /// request to a class whose object size is a multiple of the
    /// alignment; larger alignments over-allocate on the large path and
    /// return the first aligned address inside the span. Returns null on
    /// exhaustion.
    pub fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        with_internal_alloc(|| malloc_aligned(&self.inner.state, size, align, |n| self.malloc(n)))
    }

    /// Allocates zeroed memory for `count` elements of `size` bytes
    /// (`calloc`). Returns null on overflow or exhaustion.
    pub fn calloc(&self, count: usize, size: usize) -> *mut u8 {
        let Some(total) = count.checked_mul(size) else {
            return std::ptr::null_mut();
        };
        let p = self.malloc(total);
        if !p.is_null() {
            // Spans reused under the MADV_DONTNEED release strategy may
            // hold stale bytes, so calloc always zeroes explicitly.
            unsafe { std::ptr::write_bytes(p, 0, total) };
        }
        p
    }

    /// Resizes the allocation at `ptr` to `new_size` bytes (`realloc`).
    /// Growing or shrinking within the same size class — or within a
    /// large allocation's page span — returns the original pointer with
    /// no copy (see [`Mesh::realloc_in_place`]).
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a live pointer from this heap; after a
    /// non-null return the old pointer must not be used.
    pub unsafe fn realloc(&self, ptr: *mut u8, new_size: usize) -> *mut u8 {
        if ptr.is_null() {
            return self.malloc(new_size);
        }
        if self.realloc_in_place(ptr, new_size) {
            return ptr;
        }
        let usable = self.usable_size(ptr).unwrap_or(0);
        let fresh = self.malloc(new_size);
        if !fresh.is_null() {
            std::ptr::copy_nonoverlapping(ptr, fresh, usable.min(new_size));
            self.free(ptr);
        }
        fresh
    }

    /// Whether the allocation at `ptr` already satisfies `new_size` in
    /// place — the `realloc` fast path, one page-map resolution. True
    /// (counting one `reallocs_in_place`) when the new size maps to the
    /// *same size class*, or, for large allocations, still fits the page
    /// span without leaving more than half of it dead. The allocation is
    /// not touched either way; on `true` the caller keeps using `ptr`.
    pub fn realloc_in_place(&self, ptr: *mut u8, new_size: usize) -> bool {
        let in_place = self
            .inner
            .state
            .realloc_fits_in_place(ptr as usize, new_size);
        if in_place {
            self.inner
                .counters
                .reallocs_in_place
                .fetch_add(1, Ordering::Relaxed);
        }
        in_place
    }

    /// Frees `ptr`. Null is ignored; foreign pointers and double frees are
    /// detected on the global path and discarded (§4.4.4).
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a pointer obtained from this heap that has
    /// not been freed since (same contract as C `free`).
    pub unsafe fn free(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        with_internal_alloc(|| {
            self.inner.main.lock().free(&self.inner.state, ptr);
        });
    }

    /// Usable size of the allocation at `ptr` (`malloc_usable_size`), or
    /// `None` for foreign pointers. Lock-free for small objects.
    pub fn usable_size(&self, ptr: *mut u8) -> Option<usize> {
        self.inner.state.usable_size(ptr as usize)
    }

    /// Whether `ptr` points into this heap's arena.
    #[inline]
    pub fn contains(&self, ptr: *const u8) -> bool {
        let a = ptr as usize;
        a >= self.inner.base && a < self.inner.base + self.inner.bytes
    }

    /// Creates a handle for lock-free allocation on the calling thread
    /// (§4.3). The handle returns its spans to the global heap on drop.
    pub fn thread_heap(&self) -> ThreadHeap {
        let token = self.inner.token_gen.fetch_add(1, Ordering::Relaxed);
        ThreadHeap {
            core: ThreadHeapCore::new(
                self.inner.seed_base.wrapping_add(token.wrapping_mul(0x9e37_79b9)),
                self.inner.randomize,
                token,
                Arc::clone(&self.inner.counters),
                self.inner.state.telemetry.clone(),
            ),
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs a meshing pass immediately, bypassing the rate limiter.
    pub fn mesh_now(&self) -> MeshSummary {
        // Internal-allocation guard: meshing allocates candidate lists
        // while shard locks are held. When this heap also serves as the
        // process allocator (`MeshGlobalAlloc`), those allocations must
        // not recurse into Mesh or they would retake the locks.
        with_internal_alloc(|| self.inner.state.mesh_now())
    }

    /// Releases all dirty pages to the OS immediately, then retires any
    /// non-initial segment left with all pages clean (unmapping it and
    /// returning its file backing wholesale).
    pub fn purge_dirty(&self) {
        with_internal_alloc(|| self.inner.state.purge_and_retire());
    }

    /// Per-segment accounting snapshots of the segmented arena, in
    /// address order (takes the arena leaf lock briefly).
    pub fn segment_stats(&self) -> Vec<crate::segment::SegmentStats> {
        with_internal_alloc(|| self.inner.state.segment_stats())
    }

    /// Bytes currently mapped to segment files — the virtual footprint of
    /// the active segments (lock-free; `heap_bytes() ≤ mapped_bytes()`).
    pub fn mapped_bytes(&self) -> usize {
        self.inner.counters.mapped_pages.load(Ordering::Relaxed) * PAGE_SIZE
    }

    /// A snapshot of heap statistics. Every free is accounted for when it
    /// returns, so there is nothing to settle first.
    /// The occupancy spectrum is left empty — counters only, so periodic
    /// samplers can call this concurrently with workers without walking
    /// every MiniHeap under the shard locks; assign
    /// [`Mesh::occupancy_spectrum`] to [`HeapStats::spectrum`] where
    /// `render()` should show meshability ([`Report::Stats`] does).
    pub fn stats(&self) -> HeapStats {
        // The snapshot itself allocates (spectrum vectors, latency
        // buckets) — it must stay inside the guard too, or an interposed
        // process samples its own exposition path.
        with_internal_alloc(|| self.inner.counters.snapshot())
    }

    /// Current physical heap footprint in bytes (lock-free; see DESIGN.md
    /// on why this — not process RSS — mirrors the paper's metric).
    pub fn heap_bytes(&self) -> usize {
        self.inner.counters.committed_pages.load(Ordering::Relaxed) * PAGE_SIZE
    }

    // ----- telemetry (mesh-insight) --------------------------------------

    /// The heap's occupancy spectrum: per-class span histograms over the
    /// §3.1 occupancy bins plus a meshability estimate — the paper's
    /// Figure-style spectra, computed online from the bitmaps. Each
    /// class's shard lock is taken one at a time, never across classes.
    pub fn occupancy_spectrum(&self) -> crate::telemetry::HeapSpectrum {
        with_internal_alloc(|| self.inner.state.occupancy_spectrum())
    }

    /// Renders the heap's state as Prometheus text-format metrics:
    /// counters, gauges, the per-class occupancy spectrum, and (when
    /// profiling) the sampler's summary. Scrape-ready.
    pub fn prom_text(&self) -> String {
        let text = self.report(Report::Prom).expect("prom is always on");
        String::from_utf8(text).expect("prom is text")
    }

    /// Whether the sampled heap profiler is active on this heap.
    pub fn is_profiling(&self) -> bool {
        self.inner.state.telemetry.is_some()
    }

    /// The profiler's self-summary, or `None` when profiling is off.
    pub fn profile_stats(&self) -> Option<crate::telemetry::ProfileStats> {
        self.inner.state.telemetry.as_ref().map(|t| t.stats())
    }

    // ----- reports -------------------------------------------------------

    /// Renders the document of `kind` from the heap's current state (see
    /// [`Report`] for the kinds and DESIGN.md "Reports" for their
    /// schemas) — the same bytes the mesh-ctl command `kind.name()`, the
    /// dump files, and the C ABI symbols produce. `Err` carries the
    /// one-line reason when the kind's subsystem is off.
    pub fn report(&self, kind: Report) -> Result<Vec<u8>, ReportOff> {
        with_internal_alloc(|| self.inner.state.render(kind))
    }

    /// Asks the background thread to write `kind` out at its next beat,
    /// as [`Mesh::write_report`] to stderr would. Async-signal-safe (one
    /// atomic RMW): this is the body of the process runtime's `SIGUSR2`
    /// handler. A request for a kind whose subsystem is off is dropped.
    pub fn request_report(&self, kind: Report) {
        self.inner.state.reports.request(kind);
    }

    /// Renders `kind` and writes it synchronously: to its configured
    /// dump file ([`Mesh::report_path`]), else to `fallback_fd` as one
    /// line (prefixed `mesh-prof: ` / `mesh-trace: ` / `mesh-sense: ` for
    /// the kinds that have dump files). `Err` when the kind's subsystem
    /// is off; nothing is written then.
    pub fn write_report(&self, kind: Report, fallback_fd: i32) -> Result<(), ReportOff> {
        with_internal_alloc(|| self.inner.state.emit(kind, fallback_fd))
    }

    /// The configured dump file of `kind` (`MESH_PROF_PATH`,
    /// `MESH_TRACE_PATH`, `MESH_SENSE_PATH`), if its subsystem is on and
    /// a path was set.
    pub fn report_path(&self, kind: Report) -> Option<&std::path::Path> {
        self.inner.state.reports.path(kind)
    }

    // ----- hardening (MESH_HARDEN) ---------------------------------------

    /// Whether hardened mode (`MESH_HARDEN`) is active on this heap.
    pub fn is_hardened(&self) -> bool {
        self.inner.state.harden.active()
    }

    /// Whether hardened mode is set to abort on violations (`MESH_HARDEN=abort`).
    pub(crate) fn harden_aborts(&self) -> bool {
        self.inner.state.harden.aborts()
    }

    // ----- sensing (mesh-sense) ------------------------------------------

    /// The latest sensor snapshot, or `None` before the first `sense` or
    /// `prom` render took one. Lock-free; takes no snapshot itself.
    pub fn sense_latest(&self) -> Option<crate::telemetry::SenseSnapshot> {
        self.inner.state.sense.latest()
    }

    /// The meshing-effectiveness ledger's per-reason reject totals, in
    /// [`crate::telemetry::ALL_REJECT_REASONS`] order. Always available:
    /// the ledger records every pass.
    pub fn ledger_reject_totals(&self) -> [u64; crate::telemetry::REJECT_REASONS] {
        self.inner.state.ledger.reject_totals()
    }

    /// Ledger rows for the most recent mesh passes, oldest first.
    pub fn ledger_recent(&self) -> Vec<crate::telemetry::PassRecord> {
        with_internal_alloc(|| self.inner.state.ledger.recent())
    }

    // ----- tracing (mesh-trace) ------------------------------------------

    /// Whether slow-path event tracing (`MESH_TRACE=1`) is active.
    pub fn is_tracing(&self) -> bool {
        self.inner.counters.trace_set().is_some()
    }

    /// Runtime control analog of `mallctl` (§4.5): changes the meshing
    /// rate limit. Lock-free.
    pub fn set_mesh_period(&self, period: Duration) {
        self.inner.state.rt.set_mesh_period(period);
    }

    /// Runtime control analog of `mallctl` (§4.5): enables or disables
    /// meshing. Lock-free.
    pub fn set_meshing_enabled(&self, enabled: bool) {
        self.inner.state.rt.set_meshing(enabled);
    }

    /// Runtime control: adjusts the SplitMesher probe limit `t` (§3.3).
    /// Lock-free; a `t` outside the `probe_limit` knob's range is ignored.
    pub fn set_probe_limit(&self, t: usize) {
        let row = knobs::find("probe_limit").expect("the probe_limit row");
        // The refusal is a `String`: keep it off the heap it describes.
        let _ = with_internal_alloc(|| row.apply_live(&self.inner.state, &Value::Num(t as u64)));
    }

    // ----- mesh-ctl (control socket) -------------------------------------

    /// The configured mesh-ctl socket path (`MESH_CTL`), whether or not
    /// the bind succeeded. `None` when no socket was configured.
    pub fn ctl_path(&self) -> Option<std::path::PathBuf> {
        self.inner.state.ctl.as_ref().map(|c| c.path().to_path_buf())
    }

    /// Whether the mesh-ctl socket is configured *and* listening (a bind
    /// can lose the path to a live owner; see the ctl module docs).
    pub fn ctl_active(&self) -> bool {
        self.inner
            .state
            .ctl
            .as_ref()
            .is_some_and(|c| c.is_listening())
    }

    /// Stops serving the control socket and unlinks its path. Idempotent;
    /// the process runtime's exit hook, so a process heap's socket is
    /// cleaned up even though that heap is never dropped.
    pub(crate) fn ctl_shutdown(&self) {
        if let Some(ctl) = &self.inner.state.ctl {
            with_internal_alloc(|| ctl.shutdown());
        }
    }

    /// The page-release primitive the arena detected at startup.
    pub fn release_strategy(&self) -> ReleaseStrategy {
        self.inner.state.lock_arena().release_strategy()
    }

    /// Frees `ptr` through the global (lock-free) path without touching
    /// any thread-local heap state and without triggering inline meshing —
    /// the route the process runtime takes for heap pointers freed from
    /// internal contexts, where a shard lock may already be held.
    ///
    /// # Safety
    ///
    /// Same contract as [`Mesh::free`].
    pub unsafe fn free_global(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        self.inner.state.free_global_deferred(ptr as usize);
    }

    /// Snapshots of every live MiniHeap's allocation state — the heap's
    /// span strings, for experiments cross-validating §5's theory against
    /// real allocator state.
    pub fn span_snapshots(&self) -> Vec<crate::stats::SpanSnapshot> {
        // Allocates the snapshot vector while holding shard locks; see
        // `mesh_now` for why the guard is required.
        with_internal_alloc(|| self.inner.state.span_snapshots())
    }
}


/// The one rule for aligned requests: an alignment above the page size
/// over-allocates on the large path and returns the first aligned address
/// inside the span; a smaller one is served by `small` with the request
/// rounded by [`aligned_request`].
fn malloc_aligned(
    state: &GlobalHeap,
    size: usize,
    align: usize,
    small: impl FnOnce(usize) -> *mut u8,
) -> *mut u8 {
    debug_assert!(align.is_power_of_two());
    if align > PAGE_SIZE {
        return state
            .malloc_large(size, align)
            .map_or(std::ptr::null_mut(), |addr| addr as *mut u8);
    }
    small(aligned_request(size, align))
}

/// Rounds a request so the serving size class (or page-rounded large
/// object) guarantees `align`.
fn aligned_request(size: usize, align: usize) -> usize {
    if align <= 16 {
        return size;
    }
    if let Some(class) = SizeClass::for_size(size.max(1)) {
        // Find the smallest class that is both big enough and a multiple
        // of the requested alignment (object addresses are
        // `span_start + slot × class_size` with page-aligned span starts).
        for idx in class.index()..crate::size_classes::NUM_SIZE_CLASSES {
            let c = SizeClass::from_index(idx);
            if c.object_size() >= size && c.object_size().is_multiple_of(align) {
                return c.object_size();
            }
        }
    }
    // Fall through to a page-aligned large object.
    size.max(MAX_SMALL_SIZE + 1)
}

/// A per-thread allocation handle (§4.3). Create one per worker thread via
/// [`Mesh::thread_heap`]; malloc/free of thread-local objects take no lock.
///
/// # Examples
///
/// ```
/// use mesh_core::{Mesh, MeshConfig};
///
/// # fn main() -> Result<(), mesh_core::MeshError> {
/// let mesh = Mesh::new(MeshConfig::default().seed(3).arena_bytes(32 << 20))?;
/// let mut heap = mesh.thread_heap();
/// let p = heap.malloc(48);
/// unsafe { heap.free(p) };
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThreadHeap {
    core: ThreadHeapCore,
    inner: Arc<MeshInner>,
}

impl ThreadHeap {
    /// Allocates `size` bytes (lock-free for small sizes with an attached
    /// span). Returns null on exhaustion.
    pub fn malloc(&mut self, size: usize) -> *mut u8 {
        with_internal_alloc(|| self.core.malloc(&self.inner.state, size))
    }

    /// Allocates `size` bytes with alignment `align` (any power of two):
    /// the per-thread analog of [`Mesh::malloc_aligned`], serving the
    /// `memalign` family and over-aligned layouts of the process runtime.
    /// Lock-free for small sizes with an attached span.
    pub fn malloc_aligned(&mut self, size: usize, align: usize) -> *mut u8 {
        with_internal_alloc(|| {
            malloc_aligned(&self.inner.state, size, align, |n| {
                self.core.malloc(&self.inner.state, n)
            })
        })
    }

    /// Frees `ptr` (lock-free when local; one atomic bitmap clear when
    /// not). Null is ignored.
    ///
    /// # Safety
    ///
    /// Same contract as [`Mesh::free`].
    pub unsafe fn free(&mut self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        with_internal_alloc(|| self.core.free(&self.inner.state, ptr));
    }

    /// The owning heap.
    pub fn mesh(&self) -> Mesh {
        Mesh {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The unique token identifying this thread heap.
    pub fn token(&self) -> u64 {
        self.core.token()
    }

    /// Folds this thread's batched statistics deltas into the shared
    /// counters. [`Mesh::stats`] sums pending deltas in anyway, and no free
    /// is ever buffered, so nothing depends on calling this.
    pub fn flush(&mut self) {
        self.core.flush_stats();
    }

    /// Number of spans currently attached to this thread heap, over all
    /// size classes (diagnostic; up to 24 per class).
    pub fn attached_spans(&self) -> usize {
        self.core.attached_count()
    }
}

impl Drop for ThreadHeap {
    fn drop(&mut self) {
        with_internal_alloc(|| self.core.detach_all(&self.inner.state));
    }
}

// ---------------------------------------------------------------------
// Internal-allocation guard and the GlobalAlloc adapter
// ---------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Re-entrancy guard: allocations made *by* Mesh's own metadata
    /// structures are routed to the system allocator, mirroring the
    /// reference implementation's internal allocator. `const`-initialized
    /// and non-`Drop`, so reading it never allocates and never registers
    /// a TLS destructor (both would be fatal inside interposed symbols).
    static IN_MESH: Cell<bool> = const { Cell::new(false) };
}

static IN_MESH_FLAG: crate::sync::ReentrantFlag =
    crate::sync::ReentrantFlag::new(|| IN_MESH.with(|g| g.get()), |v| IN_MESH.with(|g| g.set(v)));

/// Marks the current thread as executing inside Mesh for the duration of
/// `f`: any allocation Mesh's own data structures make (candidate lists
/// during meshing, slab growth during refill, bitmap-table chunks) is
/// served by the *system* allocator instead of re-entering Mesh. Without
/// this, a process whose `malloc` is Mesh ([`crate::process`]) would
/// self-deadlock a shard lock on the first pass that allocates while
/// holding it; with a conventional global allocator the guard costs two
/// thread-local writes.
///
/// Public because an interposition layer must participate in the same
/// protocol: it wraps every call into Mesh in this guard, and routes any
/// allocation arriving while [`in_internal_alloc`] is true to the real
/// (non-interposed) allocator.
pub fn with_internal_alloc<T>(f: impl FnOnce() -> T) -> T {
    IN_MESH_FLAG.with(f)
}

/// Whether the current thread is executing inside Mesh (under
/// [`with_internal_alloc`]). An allocation that observes `true` must
/// *not* re-enter Mesh: it belongs to Mesh's own metadata and may be
/// happening under a shard lock.
#[inline]
pub fn in_internal_alloc() -> bool {
    IN_MESH_FLAG.is_set()
}

/// A [`GlobalAlloc`] over the process heap — the Rust analog of
/// `LD_PRELOAD=libmesh.so` (§4), and the same runtime
/// ([`crate::process`]): one heap with an 8 GiB default cap and the
/// `MESH_*` environment, a thread heap per thread, the fork protocol, and
/// the exit and `SIGUSR2` dumps.
///
/// Mesh's own metadata allocations go to the system allocator, so this
/// adapter is safe to install as `#[global_allocator]`:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: mesh_core::MeshGlobalAlloc = mesh_core::MeshGlobalAlloc;
/// ```
///
/// If the heap cannot be built, one warning line goes to stderr and every
/// allocation returns null, as the `GlobalAlloc` contract asks.
#[derive(Debug, Default, Clone, Copy)]
pub struct MeshGlobalAlloc;

impl MeshGlobalAlloc {
    /// The process-wide heap, created on first allocation. Exposed so
    /// programs can inspect stats or force meshing.
    ///
    /// # Panics
    ///
    /// Panics if the heap could not be constructed. The allocation paths
    /// never panic: construction failure is a null return there.
    pub fn mesh() -> &'static Mesh {
        Self::try_mesh().expect("failed to create global Mesh heap")
    }

    /// The process-wide heap, or `None` if construction failed (no
    /// memfd/tmpfile support, reservation refused). Construction is
    /// attempted once; failure is sticky.
    pub fn try_mesh() -> Option<&'static Mesh> {
        crate::process::heap()
    }
}

unsafe impl GlobalAlloc for MeshGlobalAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match crate::process::malloc(layout.size(), layout.align()) {
            Some(p) => p,
            None if in_internal_alloc() => System.alloc(layout),
            // No heap: OOM per the `GlobalAlloc` contract, never a panic.
            None => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !crate::process::free(ptr) {
            System.dealloc(ptr, layout);
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.alloc(layout);
        if !p.is_null() {
            std::ptr::write_bytes(p, 0, layout.size());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(42)
                .write_barrier(false),
        )
        .unwrap()
    }

    #[test]
    fn malloc_free_stats() {
        let m = mesh();
        let p = m.malloc(100);
        assert!(!p.is_null());
        assert!(m.contains(p));
        assert_eq!(m.usable_size(p), Some(112));
        unsafe { m.free(p) };
        let s = m.stats();
        assert_eq!(s.mallocs, 1);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn slab_bytes_count_each_id_and_table_chunk_once() {
        let m = mesh();
        assert_eq!(m.stats().slab_bytes, 0, "no id issued yet");
        let small = m.malloc(100);
        // One 32-byte span record and its class table's first chunk, 64
        // entries of 64 bytes.
        assert_eq!(m.stats().slab_bytes, 32 + 64 * 64);
        let large = m.malloc(1 << 20);
        assert_eq!(m.stats().slab_bytes, 2 * (32 + 64 * 64), "the large slab's first id");
        unsafe {
            m.free(large);
            m.free(small);
        }
        assert_eq!(m.stats().slab_bytes, 2 * (32 + 64 * 64), "ids are kept for reuse");
    }

    #[test]
    fn free_null_is_noop() {
        let m = mesh();
        unsafe { m.free(std::ptr::null_mut()) };
        assert_eq!(m.stats().frees, 0);
    }

    #[test]
    fn calloc_zeroes() {
        let m = mesh();
        let p = m.calloc(10, 100);
        assert!(!p.is_null());
        unsafe {
            for i in 0..1000 {
                assert_eq!(*p.add(i), 0);
            }
            m.free(p);
        }
        assert!(m.calloc(usize::MAX, 2).is_null(), "overflow rejected");
    }

    #[test]
    fn realloc_grows_and_preserves() {
        let m = mesh();
        unsafe {
            let p = m.realloc(std::ptr::null_mut(), 64);
            std::ptr::write_bytes(p, 0x7E, 64);
            let q = m.realloc(p, 100_000);
            assert!(!q.is_null());
            for i in 0..64 {
                assert_eq!(*q.add(i), 0x7E);
            }
            m.free(q);
        }
    }

    #[test]
    fn realloc_within_class_returns_same_pointer() {
        let m = mesh();
        unsafe {
            let p = m.realloc(std::ptr::null_mut(), 120);
            let q = m.realloc(p, 128); // both in the 128 class
            assert_eq!(p, q);
            assert_eq!(m.stats().reallocs_in_place, 1);
            m.free(q);
        }
    }

    #[test]
    fn realloc_in_place_small_and_large() {
        let m = mesh();
        unsafe {
            // Small: any size mapping to the same class stays put…
            let p = m.malloc(100); // 112 class
            assert!(m.realloc_in_place(p, 112));
            assert!(m.realloc_in_place(p, 97));
            // …crossing a class boundary moves (either direction).
            assert!(!m.realloc_in_place(p, 113));
            assert!(!m.realloc_in_place(p, 96));
            let q = m.realloc(p, 200);
            assert_ne!(p, q);
            m.free(q);

            // Large: growth into the span tail and moderate shrinks stay.
            let big = m.malloc(100_000); // 25 pages → 102400 usable
            std::ptr::write_bytes(big, 0x11, 100_000);
            let usable = m.usable_size(big).unwrap();
            assert_eq!(m.realloc(big, usable), big, "grow into tail");
            assert_eq!(m.realloc(big, usable / 2), big, "half-span shrink");
            let moved = m.realloc(big, 1000);
            assert_ne!(moved, big, "deep shrink must release the span");
            assert_eq!(*moved, 0x11, "contents preserved across the move");
            m.free(moved);

            // Foreign pointers never claim in-place.
            assert!(!m.realloc_in_place(0x1000 as *mut u8, 8));
        }
        let s = m.stats();
        assert_eq!(s.reallocs_in_place, 4);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn aligned_allocations() {
        let m = mesh();
        for align in [16usize, 32, 64, 128, 256, 1024, 4096] {
            for size in [1usize, 17, 100, 1000, 5000] {
                let p = m.malloc_aligned(size, align);
                assert!(!p.is_null(), "align {align} size {size}");
                assert_eq!(p as usize % align, 0, "align {align} size {size}");
                assert!(m.usable_size(p).unwrap() >= size);
                unsafe { m.free(p) };
            }
        }
    }

    #[test]
    fn over_page_alignment_served_on_large_path() {
        // A 2 MiB-aligned allocation used to spuriously OOM; it must now
        // over-allocate on the large path and stay fully usable.
        let m = mesh();
        for align in [8192usize, 1 << 16, 2 << 20] {
            for size in [64usize, 5000, 100_000] {
                let p = m.malloc_aligned(size, align);
                assert!(!p.is_null(), "align {align} size {size}");
                assert_eq!(p as usize % align, 0, "align {align} size {size}");
                assert!(m.usable_size(p).unwrap() >= size, "align {align} size {size}");
                unsafe {
                    std::ptr::write_bytes(p, 0x5C, size);
                    m.free(p);
                }
            }
        }
        let s = m.stats();
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.invalid_frees, 0);
        assert_eq!(s.double_frees, 0);
    }

    #[test]
    fn thread_heap_aligned_allocations() {
        let m = mesh();
        let mut h = m.thread_heap();
        for align in [16usize, 512, 4096, 1 << 21] {
            let p = h.malloc_aligned(300, align);
            assert!(!p.is_null(), "align {align}");
            assert_eq!(p as usize % align, 0, "align {align}");
            unsafe { h.free(p) };
        }
        assert_eq!(m.stats().live_bytes, 0);
    }

    #[test]
    fn mesh_is_send_sync_and_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Mesh>();
        fn assert_send<T: Send>() {}
        assert_send::<ThreadHeap>();
    }

    #[test]
    fn thread_heaps_across_threads() {
        let m = mesh();
        let mut handles = vec![];
        for _ in 0..4 {
            let mesh = m.clone();
            handles.push(std::thread::spawn(move || {
                let mut h = mesh.thread_heap();
                let mut ptrs = vec![];
                for i in 0..1000 {
                    let p = h.malloc(16 + (i % 10) * 50);
                    assert!(!p.is_null());
                    ptrs.push(p as usize);
                }
                for p in ptrs {
                    unsafe { h.free(p as *mut u8) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats();
        assert_eq!(s.mallocs, 4000);
        assert_eq!(s.frees, 4000);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn cross_thread_free_through_mesh_handle() {
        let m = mesh();
        let mut h = m.thread_heap();
        let p = h.malloc(200) as usize;
        let m2 = m.clone();
        std::thread::spawn(move || unsafe { m2.free(p as *mut u8) })
            .join()
            .unwrap();
        assert_eq!(m.stats().remote_frees, 1);
    }

    #[test]
    fn runtime_controls() {
        let m = mesh();
        m.set_mesh_period(Duration::from_millis(1));
        m.set_meshing_enabled(false);
        m.set_probe_limit(16);
        m.set_probe_limit(0); // ignored
        assert_eq!(m.inner.state.rt.probe_limit(), 16);
        assert!(!m.inner.state.rt.meshing());
        assert_eq!(
            m.inner.state.rt.mesh_period(),
            Duration::from_millis(1)
        );
    }

    #[test]
    fn fork_guard_child_privatizes_in_process() {
        // Exercise the child path without an actual fork(): privatization
        // must preserve every live byte and leave the heap fully usable.
        let m = mesh();
        let p = m.malloc(1000);
        let big = m.malloc(100_000);
        unsafe {
            std::ptr::write_bytes(p, 0x42, 1000);
            std::ptr::write_bytes(big, 0x24, 100_000);
        }
        let mapped_before = m.mapped_bytes();
        m.fork_prepare().release_child();
        unsafe {
            for i in 0..1000 {
                assert_eq!(*p.add(i), 0x42, "small object survived privatization");
            }
            assert_eq!(*big, 0x24);
            assert_eq!(*big.add(99_999), 0x24, "large object survived privatization");
        }
        assert_eq!(m.mapped_bytes(), mapped_before, "same segments, new files");
        let q = m.malloc(500);
        assert!(!q.is_null(), "heap usable after privatization");
        unsafe {
            m.free(q);
            m.free(p);
            m.free(big);
        }
        let s = m.stats();
        assert_eq!(s.forks, 1);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn fork_guard_child_restores_meshed_aliases() {
        // Meshed spans have non-identity mappings; privatization must
        // rebuild them against the new segment files.
        let m = mesh();
        let ptrs: Vec<*mut u8> = (0..4096).map(|_| m.malloc(128)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 != 0 {
                unsafe { m.free(p) };
            }
        }
        let survivors: Vec<*mut u8> = ptrs.iter().copied().step_by(8).collect();
        for (i, &p) in survivors.iter().enumerate() {
            unsafe { std::ptr::write_bytes(p, (i % 251) as u8, 128) };
        }
        let summary = m.mesh_now();
        m.fork_prepare().release_child();
        for (i, &p) in survivors.iter().enumerate() {
            unsafe {
                assert_eq!(*p, (i % 251) as u8, "survivor {i} lost after fork privatization");
                assert_eq!(*p.add(127), (i % 251) as u8);
                m.free(p);
            }
        }
        // The interesting case needs actual meshes; the seeded config
        // reliably produces some, so make silent regressions loud.
        assert!(summary.pairs_meshed > 0, "test exercised no aliases");
        assert_eq!(m.stats().live_bytes, 0);
    }

    #[test]
    fn fork_prepare_quiesces_stats_registry() {
        // Every lock kind of the heap — the thread registry among them —
        // is held while the guard lives: a child forked while some thread
        // holds one must not inherit it held (its recovery wipes the
        // registry's blocks).
        let sock =
            std::env::temp_dir().join(format!("mesh-fork-kinds-{}.sock", std::process::id()));
        let m = Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(42)
                .write_barrier(false)
                .ctl(Some(sock.clone())),
        )
        .unwrap();
        assert!(m.ctl_active());
        let guard = m.fork_prepare();
        assert_eq!(
            m.inner.state.held_lock_kinds(),
            ["classes", "large", "arena", "threads", "ctl"],
            "fork quiescence must hold every lock kind"
        );
        guard.release_parent();
        // The background thread may hold a leaf for an instant.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !m.inner.state.held_lock_kinds().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "a lock outlived the guard"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Registration (thread-heap creation) works again after release.
        let mut th = m.thread_heap();
        let p = th.malloc(64);
        assert!(!p.is_null());
        unsafe { th.free(p) };
        drop(th);
        m.ctl_shutdown();
    }

    #[test]
    fn fork_guard_parent_release_is_nonblocking_without_child() {
        // With no child holding the pipe's write end, release_parent must
        // see EOF immediately (the fork-failed path) and not deadlock.
        let m = mesh();
        m.fork_prepare().release_parent();
        let p = m.malloc(64);
        assert!(!p.is_null());
        unsafe { m.free(p) };
        assert_eq!(m.stats().forks, 0, "parent side does not privatize");
    }

    fn traced_mesh() -> Mesh {
        Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(7)
                .write_barrier(false)
                .tracing(true)
                .trace_buf_events(1 << 10),
        )
        .unwrap()
    }

    #[test]
    fn trace_api_records_and_renders_chrome_json() {
        let m = traced_mesh();
        assert!(m.is_tracing());
        assert!(m.report_path(Report::Trace).is_none());
        let ptrs: Vec<*mut u8> = (0..2000).map(|_| m.malloc(256)).collect();
        for p in &ptrs {
            assert!(!p.is_null());
        }
        for p in ptrs {
            unsafe { m.free(p) };
        }
        m.mesh_now();
        let json = String::from_utf8(m.report(Report::Trace).unwrap()).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "got: {}", &json[..40.min(json.len())]);
        assert!(json.contains("\"mesh_trace_version\":1"));
        assert!(json.contains("\"name\":\"refill\""), "refills traced");
        assert!(json.contains("\"name\":\"mesh_pass\""), "mesh pass traced");
        assert!(m.write_report(Report::Trace, 2).is_ok(), "dump to stderr succeeds");
        // Histograms saw the same ops.
        let s = m.stats();
        assert!(s.latency.count(crate::telemetry::TimedOp::Refill) > 0);
        assert!(s.latency.count(crate::telemetry::TimedOp::MeshPass) > 0);
        assert!(s.latency.count(crate::telemetry::TimedOp::MeshCandidates) > 0);
    }

    #[test]
    fn untraced_heap_has_no_trace_state() {
        let m = mesh();
        assert!(!m.is_tracing());
        assert_eq!(m.report(Report::Trace), Err(Report::Trace.off()));
        assert!(m.report_path(Report::Trace).is_none());
        assert_eq!(m.write_report(Report::Trace, 2), Err(Report::Trace.off()));
        m.request_report(Report::Trace); // dropped at the next beat, must not panic
    }

    #[test]
    fn fork_child_wipes_trace_rings_and_latency() {
        let m = traced_mesh();
        let ptrs: Vec<*mut u8> = (0..2000).map(|_| m.malloc(512)).collect();
        for p in ptrs {
            unsafe { m.free(p) };
        }
        let json = String::from_utf8(m.report(Report::Trace).unwrap()).unwrap();
        assert!(
            json.contains("\"name\":\"refill\""),
            "parent recorded events"
        );
        assert!(
            m.inner.counters.latency_snapshot().count(crate::telemetry::TimedOp::Refill) > 0,
            "parent recorded refill latencies"
        );
        m.fork_prepare().release_child();
        // Refill only fires from mutator threads, so no background thread
        // can race these zeros back up.
        assert_eq!(
            m.inner.counters.latency_snapshot().count(crate::telemetry::TimedOp::Refill),
            0,
            "child's latency history starts empty"
        );
        let json = String::from_utf8(m.report(Report::Trace).unwrap()).unwrap();
        assert!(
            !json.contains("\"name\":\"refill\""),
            "child inherited no parent refill events"
        );
        // The child heap keeps tracing.
        let p = m.malloc(64);
        assert!(!p.is_null());
        unsafe { m.free(p) };
    }

    #[test]
    fn exited_threads_leave_their_trace_events_not_their_rings() {
        let m = Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(9)
                .write_barrier(false)
                .mesh_period(Duration::from_secs(3600))
                .tracing(true)
                .trace_buf_events(64),
        )
        .unwrap();
        let tids: Vec<u32> = (0..200)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    let mut th = m.thread_heap();
                    let p = th.malloc(64); // the first malloc refills
                    unsafe { th.free(p) };
                    crate::telemetry::trace_tid()
                })
                .join()
                .unwrap()
            })
            .collect();
        assert_eq!(
            m.inner.counters.registered_threads(),
            1,
            "only the main handle's block is live: no counter block outlives its thread"
        );
        let json = String::from_utf8(m.report(Report::Trace).unwrap()).unwrap();
        let refills_of_exited = tids
            .iter()
            .filter(|tid| json.contains(&format!("\"tid\":{tid},\"args\"")))
            .count();
        assert!(
            refills_of_exited >= 32,
            "the shared ring keeps the exited threads' refills: {refills_of_exited}"
        );
        assert!(json.contains("\"name\":\"refill\""));
    }

    #[test]
    fn one_trace_ring_bounds_the_events_of_every_live_thread() {
        let m = Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(13)
                .write_barrier(false)
                .mesh_period(Duration::from_secs(3600))
                .tracing(true)
                .trace_buf_events(64),
        )
        .unwrap();
        let per_span = crate::size_classes::SizeClass::for_size(256).unwrap().object_count();
        let phases = Arc::new(std::sync::Barrier::new(5));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (m, phases) = (m.clone(), Arc::clone(&phases));
                std::thread::spawn(move || {
                    let mut th = m.thread_heap();
                    // One refill per span of fresh objects: 65 each, then
                    // 4 more once every thread has made its 65, so the
                    // newest events come from more than one thread.
                    let mut ptrs: Vec<*mut u8> =
                        (0..65 * per_span).map(|_| th.malloc(256)).collect();
                    phases.wait();
                    ptrs.extend((0..4 * per_span).map(|_| th.malloc(256)));
                    phases.wait();
                    phases.wait(); // the heap stays alive while the trace is read
                    for p in ptrs {
                        unsafe { th.free(p) };
                    }
                })
            })
            .collect();
        phases.wait();
        phases.wait();
        let json = String::from_utf8(m.report(Report::Trace).unwrap()).unwrap();
        let tids: std::collections::HashSet<&str> = json
            .split("\"tid\":")
            .skip(1)
            .filter_map(|rest| rest.split(',').next())
            .collect();
        let s = m.stats();
        let refills_timed =
            m.inner.counters.latency_snapshot().count(crate::telemetry::TimedOp::Refill);
        phases.wait();
        for w in workers {
            w.join().unwrap();
        }
        let events = json.matches("\"ph\"").count();
        assert!(events <= 64, "one ring of 64 for the whole heap, not one per thread: {events}");
        assert!(tids.len() >= 2, "the ring holds more than one thread's events: {tids:?}");
        assert!(s.refills >= 4 * 69, "{}", s.refills);
        assert_eq!(refills_timed, s.refills, "every refill is timed once");
    }

    #[test]
    fn aligned_request_picks_multiple_classes() {
        assert_eq!(aligned_request(100, 16), 100);
        assert_eq!(aligned_request(100, 32), 128);
        assert_eq!(aligned_request(100, 64), 128);
        assert_eq!(aligned_request(130, 128), 256);
        assert_eq!(aligned_request(1000, 1024), 1024);
        // 16K with page alignment is fine (16384 % 4096 == 0).
        assert_eq!(aligned_request(16384, 4096), 16384);
        // Unsatisfiable in-class → large object.
        assert!(aligned_request(900, 4096) >= 4096);
    }
    #[test]
    fn a_pass_the_kernel_refuses_a_vm_call_of_leaves_the_heap_coherent() {
        // Whichever call of the first pass is refused — a protect (the
        // batch is abandoned) or a remap (its pair is rolled back) —
        // every survivor reads back, the counters are exact, and the next
        // pass meshes what this one could not.
        let (mut abandoned, mut rolled_back) = (false, false);
        for nth in [1, 2, 3, 5, 9, 17, 33, 49, 65, 81] {
            let m = mesh();
            let ptrs: Vec<*mut u8> = (0..2048).map(|_| m.malloc(256)).collect();
            let mut live = Vec::new();
            for (i, &p) in ptrs.iter().enumerate() {
                if i % 8 == 0 {
                    unsafe { std::ptr::write_bytes(p, i as u8, 256) };
                    live.push((p, i as u8));
                } else {
                    unsafe { m.free(p) };
                }
            }
            let intact = || {
                for &(p, tag) in &live {
                    unsafe { assert_eq!((*p, *p.add(255)), (tag, tag), "refusal {nth}") };
                }
            };
            m.inner.state.lock_arena().refuse_vm_calls(nth..nth + 1);
            let first = m.mesh_now();
            let aborts = m.ledger_reject_totals()[crate::RejectReason::CopyAbort as usize];
            assert!(
                aborts > 0,
                "call {nth} of the pass was not a VM call of the mesh path"
            );
            abandoned |= first.pairs_meshed == 0;
            rolled_back |= aborts == 1 && first.pairs_meshed > 0;
            intact();
            assert_eq!(m.stats().live_bytes, live.len() * 256);
            let second = m.mesh_now();
            assert!(
                second.pairs_meshed > 0,
                "refusal {nth}: {first:?} then {second:?}"
            );
            intact();
            for &(p, _) in &live {
                unsafe { m.free(p) };
            }
            m.purge_dirty();
            let s = m.stats();
            assert_eq!((s.live_bytes, s.double_frees, s.invalid_frees), (0, 0, 0));
        }
        assert!(abandoned && rolled_back, "{abandoned} {rolled_back}");
    }
}
