//! Process runtime of the interposition layer: the lazily constructed
//! process heap, per-thread heap lifecycle (pthread TSD destructors, not
//! Rust drop-order luck), the `pthread_atfork` protocol, and the
//! stats-at-exit dump.

use mesh_core::ffi as libc;
use mesh_core::ffi::{c_uint, c_void};
use mesh_core::{
    in_internal_alloc, knobs, with_internal_alloc, Mesh, MeshConfig, MeshForkGuard, Report, ThreadHeap,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicPtr, AtomicU32, Ordering};
use std::sync::OnceLock;

/// Default hard cap (virtual reservation) for interposed processes,
/// overridable with `MESH_MAX_HEAP_BYTES`. Unmodified C programs cannot
/// pick their own `MeshConfig`, so the default errs large: reservation is
/// address space, not memory.
const DEFAULT_CAP_BYTES: usize = 8 << 30;

/// `None` means construction failed; sticky, so the process degrades to
/// the real allocator instead of retrying forever.
static HEAP: OnceLock<Option<Mesh>> = OnceLock::new();

/// TSD key whose destructor returns a dying thread's spans to the global
/// heap. `u32::MAX` until `pthread_key_create` succeeds.
static TH_KEY: AtomicU32 = AtomicU32::new(u32::MAX);

/// Private dup of stderr for the exit-time stats dump. Programs like the
/// coreutils register `close_stdout` with `atexit` from `main` — *after*
/// our construction-time registration, so it runs *before* our handler
/// (LIFO) and closes fd 2. Writing the dump through a dup taken at
/// registration time survives that. −1 until (and unless) dup succeeds.
static STATS_FD: AtomicI32 = AtomicI32::new(-1);

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
        let _ = libc::write(fd, line.as_ptr() as *const c_void, line.len());
        let _ = libc::write(fd, b"\n".as_ptr() as *const c_void, 1);
    }
}

/// Writes a line to stderr (see [`write_line`]).
pub fn warn(line: &str) {
    write_line(2, line);
}

/// The process heap, constructed on first use (under the internal-alloc
/// guard: construction itself allocates, and those allocations must route
/// to the real allocator). Returns `None` — permanently — if construction
/// failed, in which case the interposed symbols pass straight through.
pub fn heap() -> Option<&'static Mesh> {
    HEAP.get_or_init(|| {
        debug_assert!(in_internal_alloc(), "heap construction outside the guard");
        let config = MeshConfig::default()
            .max_heap_bytes(DEFAULT_CAP_BYTES)
            .apply_env();
        match Mesh::new(config) {
            Ok(mesh) => {
                install_process_hooks(&mesh);
                Some(mesh)
            }
            Err(e) => {
                warn(&format!(
                    "mesh: heap construction failed ({e}); running on the system allocator"
                ));
                None
            }
        }
    })
    .as_ref()
}

/// The process heap only if it has already been (successfully) built.
/// Free-path routing uses this: a pointer cannot belong to a heap that
/// does not exist yet, and `free` must never trigger construction.
pub fn built_heap() -> Option<&'static Mesh> {
    HEAP.get().and_then(|slot| slot.as_ref())
}

/// One-time process hooks, called from inside the successful construction
/// (so exactly once, under the guard).
fn install_process_hooks(mesh: &Mesh) {
    unsafe {
        let mut key: c_uint = 0;
        if crate::real::pthread_key_create(&mut key, Some(thread_heap_dtor)) == 0 {
            TH_KEY.store(key, Ordering::Release);
        }
        crate::real::pthread_atfork(Some(fork_prepare), Some(fork_parent), Some(fork_child));
        let stats_at_exit_wanted = knobs::find("print_stats_at_exit")
            .and_then(knobs::env_value)
            .is_some_and(|on| on == knobs::Value::Bool(true));
        if stats_at_exit_wanted || mesh.is_profiling() || mesh.is_tracing() {
            // All exit dumps write through a private dup of stderr taken
            // now: applications (coreutils' close_stdout) close fd 2 from
            // their own atexit handlers, which run before ours (LIFO).
            STATS_FD.store(
                crate::real::fcntl(2, crate::real::F_DUPFD_CLOEXEC, 3),
                Ordering::Release,
            );
        }
        if stats_at_exit_wanted {
            crate::real::atexit(stats_at_exit);
        }
        if mesh.harden_aborts() {
            // The one-line abort diagnostic must survive applications that
            // close or redirect fd 2 after startup: point it at a private
            // dup of stderr taken now (fall back to fd 2 if dup fails).
            let fd = crate::real::fcntl(2, crate::real::F_DUPFD_CLOEXEC, 3);
            if fd >= 0 {
                mesh_core::set_abort_fd(fd);
            }
        }
        if mesh.is_profiling() || mesh.is_tracing() || mesh.report_path(Report::Sense).is_some() {
            // Opt-in SIGUSR2 → heap-profile, trace, and/or sense dump:
            // exactly the heaps that run the background thread the dumps
            // ride. Any other process keeps the default disposition, so
            // SIGUSR2 ends it as it would under glibc. The handler body
            // is atomic RMWs ([`Mesh::request_report`]).
            let mut act: libc::sigaction = std::mem::zeroed();
            let handler: extern "C" fn(mesh_core::ffi::c_int) = sigusr2_handler;
            act.sa_sigaction = handler as usize;
            act.sa_flags = libc::SA_RESTART;
            libc::sigemptyset(&mut act.sa_mask);
            libc::sigaction(libc::SIGUSR2, &act, std::ptr::null_mut());
        }
        if DUMPABLE.iter().any(|&kind| dumps_at_exit(mesh, kind)) {
            crate::real::atexit(reports_at_exit);
        }
        // The heap statics are never dropped in an interposed process, so
        // the ctl socket path would outlive us as a stale file without
        // this (the next process reclaims it anyway, but only after a
        // connect probe).
        if mesh.ctl_path().is_some() {
            crate::real::atexit(ctl_at_exit);
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread heaps (§4.3 fast path for every pthread)
// ---------------------------------------------------------------------

/// Runs `f` on the calling thread's [`ThreadHeap`], creating it on first
/// use. Must be called under the internal-alloc guard (the creation path
/// allocates the heap's own state).
pub fn with_thread_heap<R>(mesh: &'static Mesh, f: impl FnOnce(&mut ThreadHeap) -> R) -> R {
    debug_assert!(in_internal_alloc());
    let mut p = THREAD_HEAP.with(|c| c.get());
    if p.is_null() {
        p = Box::into_raw(Box::new(mesh.thread_heap()));
        THREAD_HEAP.with(|c| c.set(p));
        let key = TH_KEY.load(Ordering::Acquire);
        if key != u32::MAX {
            unsafe { crate::real::pthread_setspecific(key, p as *const c_void) };
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

extern "C" fn fork_parent() {
    with_internal_alloc(|| {
        let guard = FORK_GUARD.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !guard.is_null() {
            // SAFETY: the pointer came from Box::into_raw in fork_prepare
            // on this same thread.
            unsafe { Box::from_raw(guard) }.release_parent();
        }
    });
}

extern "C" fn fork_child() {
    with_internal_alloc(|| {
        let guard = FORK_GUARD.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !guard.is_null() {
            // SAFETY: as above; the child's address space holds a copy.
            unsafe { Box::from_raw(guard) }.release_child();
        }
    });
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// Prints the one-line stats summary to `fd` (the body of
/// `mesh_stats_print()` and the `MESH_PRINT_STATS_AT_EXIT=1` dump).
fn print_stats_to(fd: i32) {
    if built_heap().is_some() {
        report_dump_to(Report::Stats, fd);
    } else {
        write_line(fd, "mesh: heap never constructed");
    }
}

/// Prints the stats summary to stderr (for explicit `mesh_stats_print()`
/// / `malloc_stats()` calls).
pub fn print_stats() {
    print_stats_to(2);
}

/// The fd exit-time output goes to: fd 2 may already be closed by the
/// application's own atexit handlers (coreutils' close_stdout); the dup
/// taken at registration survives.
fn exit_fd() -> i32 {
    let fd = STATS_FD.load(Ordering::Acquire);
    if fd >= 0 {
        fd
    } else {
        2
    }
}

extern "C" fn stats_at_exit() {
    print_stats_to(exit_fd());
}

// ---------------------------------------------------------------------
// Reports (heap profile, slow-path trace, mesh-sense)
// ---------------------------------------------------------------------

/// The kinds with a dump file and a C symbol, in the order `SIGUSR2`
/// requests them.
const DUMPABLE: [Report; 3] = [Report::Profile, Report::Trace, Report::Sense];

/// SIGUSR2 handler: request asynchronous dumps of every dumpable kind.
/// The entire body is atomic RMWs — the only thing a signal context may
/// do against a heap that might be mid-allocation on this very thread.
extern "C" fn sigusr2_handler(_sig: mesh_core::ffi::c_int) {
    if let Some(mesh) = built_heap() {
        for kind in DUMPABLE {
            mesh.request_report(kind);
        }
    }
}

/// Writes one report: to the kind's `MESH_*_PATH` when configured, else
/// to `fd` as a single line (prefixed for the dumpable kinds). Returns 0
/// on success, -1 when the kind's subsystem is off, no heap exists, or
/// the call arrived from inside Mesh itself.
pub fn report_dump_to(kind: Report, fd: i32) -> i32 {
    if in_internal_alloc() {
        return -1;
    }
    match built_heap().map(|mesh| mesh.write_report(kind, fd)) {
        Some(Ok(())) => 0,
        _ => -1,
    }
}

/// Whether `kind` is written when the process exits. Profiling and
/// tracing are opt-in, so their dump is what the user asked for; sensing
/// is always available, and an unconditional stderr dump from every
/// preloaded process would be noise — it needs a destination file.
fn dumps_at_exit(mesh: &Mesh, kind: Report) -> bool {
    match kind {
        Report::Profile => mesh.is_profiling(),
        Report::Trace => mesh.is_tracing(),
        _ => mesh.report_path(kind).is_some(),
    }
}

extern "C" fn reports_at_exit() {
    let Some(mesh) = built_heap() else { return };
    // Sense, trace, profile: the order three LIFO atexit handlers ran in.
    for kind in DUMPABLE.into_iter().rev() {
        if dumps_at_exit(mesh, kind) {
            report_dump_to(kind, exit_fd());
        }
    }
}

// ---------------------------------------------------------------------
// Control socket (mesh-ctl)
// ---------------------------------------------------------------------

extern "C" fn ctl_at_exit() {
    if let Some(mesh) = built_heap() {
        mesh.ctl_shutdown();
    }
}
