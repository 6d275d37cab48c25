//! The two allocators a workload can run on: Mesh through its public
//! Rust API, and glibc's `malloc` as the control. Workloads are generic
//! over [`Backend`], so both sides replay the same op stream through the
//! same loop.

use mesh_core::{Mesh, MeshConfig, ThreadHeap};
use std::time::Duration;

extern "C" {
    fn malloc(size: usize) -> *mut u8;
    fn free(p: *mut u8);
    fn malloc_usable_size(p: *mut u8) -> usize;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

// <malloc.h>
const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

/// A per-thread allocation handle.
pub trait ThreadAlloc: Send {
    fn malloc(&mut self, size: usize) -> *mut u8;
    /// # Safety
    ///
    /// `p` must be a live pointer from the same backend.
    unsafe fn free(&mut self, p: *mut u8);
    /// Pushes buffered remote frees to the global heap (no-op on glibc).
    fn flush(&mut self);
}

/// A whole heap.
pub trait Backend: Send + Sync + Sized {
    type Heap: ThreadAlloc;
    const NAME: &'static str;

    /// A fresh heap. Meshing is never on a timer here (`mesh_period` one
    /// hour): the in-process workloads call [`Backend::compact`] when
    /// their script says so, which keeps pass counts deterministic.
    fn create(seed: u64) -> Self;
    fn thread_heap(&self) -> Self::Heap;
    /// # Safety
    ///
    /// `p` must be a live pointer from this backend.
    unsafe fn usable_size(&self, p: *mut u8) -> usize;
    /// The workload's compaction opportunity: one `Mesh::mesh_now()` pass,
    /// or `malloc_trim(0)` on glibc (which cannot move objects).
    fn compact(&self);
    /// Return free memory to the OS: `Mesh::purge_dirty()` / `malloc_trim(0)`.
    fn purge(&self);
    /// Called before a steady point a workload reaches without a
    /// compaction or purge of its own. Nothing on Mesh. On glibc,
    /// `malloc_trim(0)`: whether glibc has trimmed by then otherwise hangs
    /// on how two threads' frees happened to interleave (25 or 35 MiB on
    /// `xthread_handoff`), so the control is read at its best case.
    fn settle(&self) {}
    /// The Mesh heap behind this backend, if it is one.
    fn mesh(&self) -> Option<&Mesh>;
}

/// Mesh, with the configuration an application linking `mesh-core` gets
/// by default apart from the parked timer and the seed.
pub struct MeshBackend(pub Mesh);

impl Backend for MeshBackend {
    type Heap = ThreadHeap;
    const NAME: &'static str = "mesh";

    fn create(seed: u64) -> MeshBackend {
        // The harness's own bookkeeping (plans, object tables, Mesh's
        // metadata) lives on glibc's heap. Left to adapt its thresholds,
        // glibc keeps or returns ~2 MiB of that depending on thread timing,
        // which is noise on a 17-30 MiB workload; fixed thresholds make
        // the process's RSS the workload's.
        // SAFETY: plain libc calls, made before the workload's threads start.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 64 << 10);
            mallopt(M_TRIM_THRESHOLD, 128 << 10);
            mallopt(M_TOP_PAD, 0);
        }
        let config = MeshConfig::default()
            .seed(seed)
            .mesh_period(Duration::from_secs(3600));
        MeshBackend(Mesh::new(config).expect("benchmark heap"))
    }

    fn thread_heap(&self) -> ThreadHeap {
        self.0.thread_heap()
    }

    #[inline]
    unsafe fn usable_size(&self, p: *mut u8) -> usize {
        self.0.usable_size(p).unwrap_or(0)
    }

    fn compact(&self) {
        self.0.mesh_now();
    }

    fn purge(&self) {
        self.0.purge_dirty();
    }

    fn mesh(&self) -> Option<&Mesh> {
        Some(&self.0)
    }
}

impl ThreadAlloc for ThreadHeap {
    #[inline(always)]
    fn malloc(&mut self, size: usize) -> *mut u8 {
        ThreadHeap::malloc(self, size)
    }

    #[inline(always)]
    unsafe fn free(&mut self, p: *mut u8) {
        ThreadHeap::free(self, p)
    }

    fn flush(&mut self) {
        ThreadHeap::flush(self)
    }
}

/// glibc `malloc`, the control. The harness's own bookkeeping also lives
/// on this heap in both modes; it is allocated before timing starts.
pub struct GlibcBackend;

/// glibc's per-thread state is implicit, so the handle is empty.
pub struct GlibcHeap;

impl Backend for GlibcBackend {
    type Heap = GlibcHeap;
    const NAME: &'static str = "glibc";

    fn create(_seed: u64) -> GlibcBackend {
        // One arena. In the two-thread workloads every free already goes to
        // the arena of the thread that allocated, so this adds no lock the
        // control did not take; it removes the chance of a respawned thread
        // being handed a fresh arena, which made the control's RSS bimodal.
        // SAFETY: plain libc call, made before the workload's threads start.
        unsafe { mallopt(M_ARENA_MAX, 1) };
        GlibcBackend
    }

    fn thread_heap(&self) -> GlibcHeap {
        GlibcHeap
    }

    #[inline]
    unsafe fn usable_size(&self, p: *mut u8) -> usize {
        // SAFETY: the caller passes a live pointer returned by `malloc`.
        unsafe { malloc_usable_size(p) }
    }

    fn compact(&self) {
        // SAFETY: always callable.
        unsafe { malloc_trim(0) };
    }

    fn purge(&self) {
        // SAFETY: always callable.
        unsafe { malloc_trim(0) };
    }

    fn settle(&self) {
        self.purge();
    }

    fn mesh(&self) -> Option<&Mesh> {
        None
    }
}

impl ThreadAlloc for GlibcHeap {
    #[inline(always)]
    fn malloc(&mut self, size: usize) -> *mut u8 {
        // SAFETY: plain libc call.
        unsafe { malloc(size) }
    }

    #[inline(always)]
    unsafe fn free(&mut self, p: *mut u8) {
        free(p)
    }

    fn flush(&mut self) {}
}
