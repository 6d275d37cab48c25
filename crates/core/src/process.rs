//! The process runtime: Mesh as the one `malloc` of a process (§4), for
//! both front ends — the `libmesh.so` interposition layer (`mesh-abi`)
//! and [`MeshGlobalAlloc`](crate::MeshGlobalAlloc). It holds what a
//! process has one of:
//!
//! - the process heap ([`heap`]), built on first use with an 8 GiB default
//!   cap, then the `MESH_*` environment;
//! - each thread's [`ThreadHeap`], reached through a `const`-initialized
//!   thread-local cell and torn down by a pthread key destructor;
//! - the `pthread_atfork` handlers around [`Mesh::fork_prepare`], and the
//!   exit, `SIGUSR2` and ctl-socket hooks.
//!
//! [`malloc`] and [`free`] route one request: they serve it on the calling
//! thread's heap, or report that it is not Mesh's — the call came from
//! inside Mesh (under [`with_internal_alloc`]), or there is no heap — and
//! the front end applies its own fallback (the real allocator, the system
//! allocator, or null).

use crate::ffi::{self, c_int, c_uint, c_void};
use crate::{
    in_internal_alloc, knobs, with_internal_alloc, Mesh, MeshConfig, MeshForkGuard, Report,
    ThreadHeap,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicPtr, AtomicU32, Ordering};
use std::sync::OnceLock;

/// Default hard cap (the size of the heap's sparse file) of the process
/// heap, overridable with `MESH_MAX_HEAP_BYTES` and lowered to the soft
/// `RLIMIT_FSIZE`. A program cannot hand the heap its `malloc` runs on a
/// `MeshConfig`, so the default errs large: a sparse file's size is
/// address space, not memory.
const DEFAULT_CAP_BYTES: usize = 8 << 30;

/// `None` means construction failed; sticky, so every later call takes
/// the front end's fallback instead of retrying.
static HEAP: OnceLock<Option<Mesh>> = OnceLock::new();

/// TSD key whose destructor returns a dying thread's spans to the global
/// heap. `u32::MAX` until `pthread_key_create` succeeds.
static TH_KEY: AtomicU32 = AtomicU32::new(u32::MAX);

/// Private dup of stderr for the exit-time dumps and hardened mode's
/// abort line. Programs like the coreutils register `close_stdout` with
/// `atexit` from `main` — *after* our construction-time registration, so
/// it runs *before* our handler (LIFO) and closes fd 2; others redirect
/// fd 2 after start-up. Writing through a dup taken at registration time
/// survives both. −1 until (and unless) dup succeeds.
static STDERR_FD: AtomicI32 = AtomicI32::new(-1);

/// `(st_dev, st_ino)` of stderr when [`STDERR_FD`] was taken: a program
/// that closed every descriptor from 3 up may have reopened the number
/// for a file of its own, which no diagnostic may write into.
static STDERR_FILE: OnceLock<Option<(u64, u64)>> = OnceLock::new();

thread_local! {
    /// Fast path to the calling thread's heap. `const`-initialized and
    /// non-`Drop` (a bare pointer), so access never allocates and never
    /// registers a Rust TLS destructor — teardown belongs to the pthread
    /// key alone, which glibc runs at a well-defined point of thread exit
    /// for C and Rust threads alike.
    static THREAD_HEAP: Cell<*mut ThreadHeap> = const { Cell::new(std::ptr::null_mut()) };
}

/// Writes a line to `fd` without `eprintln!`'s panic-on-error (an
/// allocator must survive a closed stderr).
fn write_line(fd: i32, line: &str) {
    unsafe {
        let _ = ffi::write(fd, line.as_ptr() as *const c_void, line.len());
        let _ = ffi::write(fd, b"\n".as_ptr() as *const c_void, 1);
    }
}

/// The process heap, constructed on first use (under the internal-alloc
/// guard: construction itself allocates, and those allocations must not
/// come back here). Returns `None` — permanently — if construction
/// failed, after one warning line on stderr.
#[inline]
pub fn heap() -> Option<&'static Mesh> {
    HEAP.get_or_init(|| {
        with_internal_alloc(|| {
            let config = MeshConfig::default()
                .max_heap_bytes(DEFAULT_CAP_BYTES)
                .apply_env();
            match Mesh::new(config) {
                Ok(mesh) => {
                    install_process_hooks(&mesh);
                    Some(mesh)
                }
                Err(e) => {
                    write_line(
                        2,
                        &format!(
                            "mesh: heap construction failed ({e}); running on the system allocator"
                        ),
                    );
                    None
                }
            }
        })
    })
    .as_ref()
}

/// The process heap only if it has already been (successfully) built.
/// Free-path routing uses this: a pointer cannot belong to a heap that
/// does not exist yet, and `free` must never trigger construction.
#[inline]
pub fn built_heap() -> Option<&'static Mesh> {
    HEAP.get().and_then(|slot| slot.as_ref())
}

/// Allocates `size` bytes aligned to `align` (a power of two) on the
/// calling thread's heap, reading as zero when `zero` is set (`calloc`).
/// `None` when the request is not Mesh's: it came from inside Mesh, or
/// the process heap cannot be built. `Some(null)` on exhaustion.
#[inline]
pub fn malloc(size: usize, align: usize, zero: bool) -> Option<*mut u8> {
    if in_internal_alloc() {
        return None;
    }
    with_internal_alloc(|| {
        let mesh = heap()?;
        Some(with_thread_heap(mesh, |th| th.allocate(size, align, zero)))
    })
}

/// `malloc_trim`: one meshing pass over the process heap that then
/// releases every dirty page, where a pass releases them only once
/// `min_mesh_gain_bytes` are dirty. Returns whether it ran: not with no
/// heap, nor when called from inside Mesh.
pub fn trim() -> bool {
    if in_internal_alloc() {
        return false;
    }
    built_heap().is_some_and(|mesh| {
        with_internal_alloc(|| mesh.inner.state.trim());
        true
    })
}

/// Frees `ptr` if it is Mesh's, on the calling thread's heap — or, from
/// inside Mesh, through the deferred global path (the caller may hold a
/// shard lock). Returns `false`, touching nothing, for a pointer outside
/// the process heap (or with no heap), which the front end's fallback
/// owns.
///
/// # Safety
///
/// Same contract as [`Mesh::free`] for pointers inside the heap.
#[inline]
pub unsafe fn free(ptr: *mut u8) -> bool {
    let Some(mesh) = built_heap().filter(|mesh| mesh.contains(ptr)) else {
        return false;
    };
    if in_internal_alloc() {
        mesh.free_global(ptr);
    } else {
        with_internal_alloc(|| with_thread_heap(mesh, |th| th.free(ptr)));
    }
    true
}

/// One-time process hooks, called from inside the successful construction
/// (so exactly once, under the guard).
fn install_process_hooks(mesh: &Mesh) {
    unsafe {
        let mut key: c_uint = 0;
        if ffi::pthread_key_create(&mut key, Some(thread_heap_dtor)) == 0 {
            TH_KEY.store(key, Ordering::Release);
        }
        ffi::pthread_atfork(Some(fork_prepare), Some(fork_parent), Some(fork_child));
        let stats_at_exit_wanted = knobs::find("print_stats_at_exit")
            .and_then(knobs::env_value)
            .is_some_and(|on| on == knobs::Value::Bool(true));
        if stats_at_exit_wanted || mesh.is_profiling() || mesh.is_tracing() || mesh.harden_aborts() {
            let fd = ffi::fcntl(2, ffi::F_DUPFD_CLOEXEC, 3);
            STDERR_FILE.get_or_init(|| crate::sys::fd_identity(fd));
            STDERR_FD.store(fd, Ordering::Release);
        }
        if stats_at_exit_wanted {
            ffi::atexit(stats_at_exit);
        }
        if mesh.is_profiling() || mesh.is_tracing() || mesh.report_path(Report::Sense).is_some() {
            // Opt-in SIGUSR2 → heap-profile, trace, and/or sense dump:
            // exactly the heaps that run the background thread the dumps
            // ride. Any other process keeps the default disposition, so
            // SIGUSR2 ends it as it would under glibc. The handler body
            // is atomic RMWs ([`Mesh::request_report`]).
            let mut act: ffi::sigaction = std::mem::zeroed();
            let handler: extern "C" fn(c_int) = sigusr2_handler;
            act.sa_sigaction = handler as usize;
            act.sa_flags = ffi::SA_RESTART;
            ffi::sigemptyset(&mut act.sa_mask);
            ffi::sigaction(ffi::SIGUSR2, &act, std::ptr::null_mut());
        }
        if DUMPABLE.iter().any(|&kind| dumps_at_exit(mesh, kind)) {
            ffi::atexit(reports_at_exit);
        }
        // The process heap is never dropped, so the ctl socket path would
        // outlive us as a stale file without this (the next process
        // reclaims it anyway, but only after a connect probe).
        if mesh.ctl_path().is_some() {
            ffi::atexit(ctl_at_exit);
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread heaps (§4.3 fast path for every thread)
// ---------------------------------------------------------------------

/// Runs `f` on the calling thread's [`ThreadHeap`], creating it on first
/// use. Must be called under the internal-alloc guard (the creation path
/// allocates the heap's own state).
fn with_thread_heap<R>(mesh: &'static Mesh, f: impl FnOnce(&mut ThreadHeap) -> R) -> R {
    debug_assert!(in_internal_alloc());
    let mut p = THREAD_HEAP.with(|c| c.get());
    if p.is_null() {
        p = Box::into_raw(Box::new(mesh.thread_heap()));
        THREAD_HEAP.with(|c| c.set(p));
        let key = TH_KEY.load(Ordering::Acquire);
        if key != u32::MAX {
            unsafe { ffi::pthread_setspecific(key, p as *const c_void) };
        }
    }
    // SAFETY: the pointer is thread-local and the TSD destructor (which
    // frees it) only runs once the thread can no longer call us.
    unsafe { f(&mut *p) }
}

/// pthread TSD destructor: returns the dying thread's attached MiniHeaps
/// to the global heap (`ThreadHeap`'s drop detaches every span) and folds
/// its batched fast-path statistics into the shared counters — the exit
/// dump therefore sees exact totals even though live threads never touch
/// shared stat cachelines. If the thread allocates again during a later
/// destructor iteration, a fresh heap is created and this runs again —
/// glibc bounds the iterations.
unsafe extern "C" fn thread_heap_dtor(p: *mut c_void) {
    with_internal_alloc(|| {
        THREAD_HEAP.with(|c| c.set(std::ptr::null_mut()));
        drop(Box::from_raw(p as *mut ThreadHeap));
    });
}

// ---------------------------------------------------------------------
// Fork protocol
// ---------------------------------------------------------------------

/// The guard built by the prepare handler, consumed by whichever side
/// (parent or child) runs next. One slot suffices: prepare/parent/child
/// of one `fork()` all run on the forking thread, and a second thread's
/// prepare blocks on the heap locks until the first fork's parent handler
/// releases them.
static FORK_GUARD: AtomicPtr<MeshForkGuard<'static>> = AtomicPtr::new(std::ptr::null_mut());

extern "C" fn fork_prepare() {
    with_internal_alloc(|| {
        if let Some(mesh) = built_heap() {
            let guard = Box::new(mesh.fork_prepare());
            FORK_GUARD.store(Box::into_raw(guard), Ordering::Release);
        }
    });
}

/// Takes the guard `fork_prepare` left (null when there is no heap).
fn take_fork_guard() -> Option<Box<MeshForkGuard<'static>>> {
    let guard = FORK_GUARD.swap(std::ptr::null_mut(), Ordering::AcqRel);
    // SAFETY: a non-null pointer came from Box::into_raw in fork_prepare
    // on this same thread (in the child: in the copied address space).
    (!guard.is_null()).then(|| unsafe { Box::from_raw(guard) })
}

extern "C" fn fork_parent() {
    with_internal_alloc(|| {
        if let Some(guard) = take_fork_guard() {
            guard.release_parent();
        }
    });
}

extern "C" fn fork_child() {
    with_internal_alloc(|| {
        if let Some(guard) = take_fork_guard() {
            guard.release_child();
        }
    });
}

// ---------------------------------------------------------------------
// Reports: the stats line, heap profile, slow-path trace, mesh-sense
// ---------------------------------------------------------------------

/// Prints the one-line stats summary to `fd` (the body of
/// `mesh_stats_print()` and the `MESH_PRINT_STATS_AT_EXIT=1` dump).
pub fn print_stats(fd: i32) {
    if built_heap().is_some() {
        dump_report(Report::Stats, fd);
    } else {
        write_line(fd, "mesh: heap never constructed");
    }
}

/// Writes one report: to the kind's `MESH_*_PATH` when configured, else
/// to `fd` as a single line (prefixed for the dumpable kinds). Returns
/// whether it was written: not when the kind's subsystem is off, no heap
/// exists, or the call arrived from inside Mesh itself.
pub fn dump_report(kind: Report, fd: i32) -> bool {
    !in_internal_alloc() && built_heap().is_some_and(|mesh| mesh.write_report(kind, fd).is_ok())
}

/// The kinds with a dump file and a C symbol, in the order `SIGUSR2`
/// requests them.
const DUMPABLE: [Report; 3] = [Report::Profile, Report::Trace, Report::Sense];

/// SIGUSR2 handler: request asynchronous dumps of every dumpable kind.
/// The entire body is atomic RMWs — the only thing a signal context may
/// do against a heap that might be mid-allocation on this very thread.
extern "C" fn sigusr2_handler(_sig: c_int) {
    if let Some(mesh) = built_heap() {
        for kind in DUMPABLE {
            mesh.request_report(kind);
        }
    }
}

/// Whether `kind` is written when the process exits. Profiling and
/// tracing are opt-in, so their dump is what the user asked for; sensing
/// is always available, and an unconditional stderr dump from every
/// process would be noise — it needs a destination file.
fn dumps_at_exit(mesh: &Mesh, kind: Report) -> bool {
    match kind {
        Report::Profile => mesh.is_profiling(),
        Report::Trace => mesh.is_tracing(),
        _ => mesh.report_path(kind).is_some(),
    }
}

/// The fd exit-time output and the abort line go to: fd 2 may already be
/// closed by the application's own atexit handlers (coreutils'
/// close_stdout); the dup taken at registration survives, unless the
/// program closed it too (then fd 2 it is). One `fstat`, so
/// async-signal-safe.
pub(crate) fn stderr_fd() -> i32 {
    let fd = STDERR_FD.load(Ordering::Acquire);
    if fd >= 0 && crate::sys::fd_identity(fd) == STDERR_FILE.get().copied().flatten() {
        fd
    } else {
        2
    }
}

extern "C" fn stats_at_exit() {
    print_stats(stderr_fd());
}

extern "C" fn reports_at_exit() {
    let Some(mesh) = built_heap() else { return };
    // Sense, trace, profile: the order three LIFO atexit handlers ran in.
    for kind in DUMPABLE.into_iter().rev() {
        if dumps_at_exit(mesh, kind) {
            dump_report(kind, stderr_fd());
        }
    }
}

extern "C" fn ctl_at_exit() {
    if let Some(mesh) = built_heap() {
        mesh.ctl_shutdown();
    }
}
