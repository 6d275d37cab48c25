//! # libmesh.so — the C ABI interposition layer
//!
//! Builds the paper's actual deployment vehicle (§4, §6): a shared object
//! exporting the full glibc `malloc` family over the Mesh allocator, so
//! **unmodified C programs** run on Mesh via the dynamic linker:
//!
//! ```sh
//! cargo build --release -p mesh-abi
//! LD_PRELOAD=$PWD/target/release/libmesh.so ls -l
//! MESH_PRINT_STATS_AT_EXIT=1 LD_PRELOAD=$PWD/target/release/libmesh.so redis-server
//! ```
//!
//! Exported: `malloc`, `free`, `calloc`, `realloc`, `reallocarray`,
//! `aligned_alloc`, `posix_memalign`, `memalign`, `valloc`, `pvalloc`,
//! `malloc_usable_size`, `malloc_trim`, `mallopt`, `malloc_stats`, plus
//! the Mesh-specific diagnostics `mesh_stats_print()`, `mesh_mesh_now()`,
//! `mesh_prof_dump()`, `mesh_trace_dump()`, `mesh_sense_dump()`,
//! `mesh_ctl_active()` and `mesh_ctl_path()`. Tunables arrive via
//! `MESH_*` environment variables (see
//! [`mesh_core::MeshConfig::apply_env`]);
//! `MESH_PRINT_STATS_AT_EXIT=1` dumps a one-line machine-readable
//! summary at process exit, `MESH_PROF=1` turns on the sampled heap
//! profiler (JSON dumps at exit, on `SIGUSR2`, every
//! `MESH_PROF_INTERVAL_MS`, or via `mesh_prof_dump()`), and
//! `MESH_CTL=/path/sock` serves live introspection and control over a
//! Unix socket (drive it with `mesh-top` or `nc -U`).
//!
//! ## The four hard problems (see DESIGN.md "ABI & bootstrap")
//!
//! 1. **Bootstrap**: allocations arrive before a heap can exist (dlsym's
//!    own `calloc` while we resolve glibc's allocator). A static bump
//!    arena ([`bootstrap`]) serves them; `free` recognizes its range
//!    forever after.
//! 2. **Re-entrancy**: Mesh's metadata must not allocate from Mesh while
//!    shard locks are held. Every call into Mesh runs under
//!    [`mesh_core::with_internal_alloc`]; any allocation arriving with
//!    the flag set is routed to the *real* allocator ([`real`]).
//! 3. **Thread lifecycle**: each pthread gets a lock-free §4.3 thread
//!    heap, returned to the global heap by a pthread TSD destructor —
//!    deterministic for C and Rust threads alike ([`runtime`]).
//! 4. **Fork safety**: the arena is `MAP_SHARED` memory files, which fork
//!    does *not* copy-on-write. `pthread_atfork` handlers quiesce every
//!    lock, then the child re-backs each segment with a private copy
//!    while the parent waits on a pipe ([`mesh_core::Mesh::fork_prepare`]).
//!
//! When heap construction fails (unsupported kernel, hostile rlimits),
//! the layer degrades to pass-through: the process runs on glibc with a
//! one-line warning instead of crashing.

use mesh_core::ffi as libc;
use mesh_core::ffi::{c_int, c_void, size_t};
use mesh_core::{in_internal_alloc, with_internal_alloc, Report, PAGE_SIZE};

mod bootstrap;
mod real;
mod runtime;

// ---------------------------------------------------------------------
// Routing core
// ---------------------------------------------------------------------

/// Serves an allocation request: Mesh for application allocations, the
/// real allocator for internal (metadata) ones and for processes whose
/// heap failed to construct, the bootstrap arena before either exists.
fn allocate(size: usize, align: usize, zeroed: bool) -> *mut u8 {
    if in_internal_alloc() {
        return internal_allocate(size, align, zeroed);
    }
    with_internal_alloc(|| match runtime::heap() {
        Some(mesh) => {
            let p = runtime::with_thread_heap(mesh, |th| th.malloc_aligned(size, align));
            if p.is_null() {
                libc::set_errno(libc::ENOMEM);
            } else if zeroed {
                // Reused spans may hold stale bytes under the
                // MADV_DONTNEED release strategy: calloc zeroes always.
                unsafe { std::ptr::write_bytes(p, 0, size) };
            }
            p
        }
        None => internal_allocate(size, align, zeroed),
    })
}

/// The internal/fallback route (real allocator, bootstrap before it).
fn internal_allocate(size: usize, align: usize, zeroed: bool) -> *mut u8 {
    if align <= 16 {
        if zeroed {
            real::calloc(1, size)
        } else {
            real::malloc(size)
        }
    } else {
        let p = real::memalign(align, size);
        if zeroed && !p.is_null() && !bootstrap::contains(p) {
            unsafe { std::ptr::write_bytes(p, 0, size) };
        }
        p
    }
}

/// Frees `ptr`, routing by provenance: bootstrap memory is never reused,
/// Mesh pointers go to the thread heap (or the lock-free global path from
/// internal contexts), anything else belongs to the real allocator.
fn deallocate(ptr: *mut u8) {
    if ptr.is_null() || bootstrap::contains(ptr) {
        return;
    }
    if let Some(mesh) = runtime::built_heap() {
        if mesh.contains(ptr) {
            if in_internal_alloc() {
                // A Mesh pointer freed from inside Mesh itself — cannot
                // happen by construction (metadata lives on the real
                // allocator), but route lock-free for safety: the caller
                // may hold a shard lock.
                unsafe { mesh.free_global(ptr) };
            } else {
                with_internal_alloc(|| {
                    runtime::with_thread_heap(mesh, |th| unsafe { th.free(ptr) })
                });
            }
            return;
        }
    }
    real::free(ptr);
}

/// `malloc_usable_size` routing by provenance.
fn usable(ptr: *mut u8) -> usize {
    if ptr.is_null() {
        return 0;
    }
    if bootstrap::contains(ptr) {
        return bootstrap::usable_size(ptr);
    }
    if let Some(mesh) = runtime::built_heap() {
        if mesh.contains(ptr) {
            return mesh.usable_size(ptr).unwrap_or(0);
        }
    }
    real::usable_size(ptr)
}

/// glibc `realloc` semantics, routing by provenance (a pointer may have
/// been born on any of the three allocators).
fn reallocate(ptr: *mut u8, size: usize) -> *mut u8 {
    if ptr.is_null() {
        return allocate(size, 16, false);
    }
    if size == 0 {
        // glibc realloc(p, 0) frees and returns NULL.
        deallocate(ptr);
        return std::ptr::null_mut();
    }
    if bootstrap::contains(ptr) {
        let old = bootstrap::usable_size(ptr);
        let fresh = allocate(size, 16, false);
        if !fresh.is_null() {
            unsafe { std::ptr::copy_nonoverlapping(ptr, fresh, old.min(size)) };
        }
        return fresh;
    }
    if let Some(mesh) = runtime::built_heap() {
        if mesh.contains(ptr) {
            if with_internal_alloc(|| mesh.realloc_in_place(ptr, size)) {
                return ptr; // same size class / still within the span
            }
            let old = mesh.usable_size(ptr).unwrap_or(0);
            let fresh = allocate(size, 16, false);
            if !fresh.is_null() {
                unsafe { std::ptr::copy_nonoverlapping(ptr, fresh, old.min(size)) };
                deallocate(ptr);
            }
            return fresh; // old block intact on failure, per the contract
        }
    }
    real::realloc(ptr, size)
}

// ---------------------------------------------------------------------
// Exported C symbols — the malloc family
// ---------------------------------------------------------------------

/// Interposed `malloc(3)`. Returns 16-byte-aligned memory; `malloc(0)`
/// returns a unique, freeable pointer (glibc behaviour); failures return
/// null with `errno = ENOMEM`.
#[no_mangle]
pub extern "C" fn malloc(size: size_t) -> *mut c_void {
    allocate(size, 16, false) as *mut c_void
}

/// Interposed `free(3)`.
///
/// # Safety
///
/// `ptr` must be null or a pointer obtained from this allocation family
/// and not freed since (the C `free` contract). Foreign and double frees
/// of Mesh-owned memory are detected and discarded (§4.4.4).
#[no_mangle]
pub unsafe extern "C" fn free(ptr: *mut c_void) {
    deallocate(ptr as *mut u8);
}

/// Interposed `calloc(3)`: zeroed, overflow-checked.
#[no_mangle]
pub extern "C" fn calloc(count: size_t, size: size_t) -> *mut c_void {
    let Some(total) = count.checked_mul(size) else {
        libc::set_errno(libc::ENOMEM);
        return std::ptr::null_mut();
    };
    allocate(total, 16, true) as *mut c_void
}

/// Interposed `realloc(3)` with glibc edge semantics: `realloc(NULL, n)`
/// is `malloc(n)`, `realloc(p, 0)` frees `p` and returns null, and the
/// old block is untouched when growth fails.
///
/// # Safety
///
/// `ptr` must be null or a live pointer from this allocation family;
/// after a non-null return the old pointer must not be used.
#[no_mangle]
pub unsafe extern "C" fn realloc(ptr: *mut c_void, size: size_t) -> *mut c_void {
    reallocate(ptr as *mut u8, size) as *mut c_void
}

/// Interposed `reallocarray(3)`: overflow-checked `realloc(p, n*m)`.
///
/// # Safety
///
/// Same contract as [`realloc`].
#[no_mangle]
pub unsafe extern "C" fn reallocarray(
    ptr: *mut c_void,
    count: size_t,
    size: size_t,
) -> *mut c_void {
    let Some(total) = count.checked_mul(size) else {
        libc::set_errno(libc::ENOMEM);
        return std::ptr::null_mut();
    };
    reallocate(ptr as *mut u8, total) as *mut c_void
}

/// Interposed `aligned_alloc(3)`: `align` must be a power of two (glibc
/// does not enforce C11's `size % align == 0`, and neither do we).
#[no_mangle]
pub extern "C" fn aligned_alloc(align: size_t, size: size_t) -> *mut c_void {
    if !align.is_power_of_two() {
        libc::set_errno(libc::EINVAL);
        return std::ptr::null_mut();
    }
    allocate(size, align.max(16), false) as *mut c_void
}

/// Interposed `posix_memalign(3)`: returns `EINVAL` for a non-power-of-two
/// alignment or one not a multiple of `sizeof(void*)`, `ENOMEM` on
/// exhaustion; `*memptr` is written only on success.
///
/// # Safety
///
/// `memptr` must be a valid pointer to writable `*mut c_void` storage.
#[no_mangle]
pub unsafe extern "C" fn posix_memalign(
    memptr: *mut *mut c_void,
    align: size_t,
    size: size_t,
) -> c_int {
    if memptr.is_null()
        || !align.is_power_of_two()
        || !align.is_multiple_of(std::mem::size_of::<*mut c_void>())
    {
        return libc::EINVAL;
    }
    let p = allocate(size, align.max(16), false);
    if p.is_null() {
        return libc::ENOMEM;
    }
    *memptr = p as *mut c_void;
    0
}

/// Interposed `memalign(3)` (obsolete glibc interface, still widely used).
#[no_mangle]
pub extern "C" fn memalign(align: size_t, size: size_t) -> *mut c_void {
    if !align.is_power_of_two() {
        libc::set_errno(libc::EINVAL);
        return std::ptr::null_mut();
    }
    allocate(size, align.max(16), false) as *mut c_void
}

/// Interposed `valloc(3)`: page-aligned allocation.
#[no_mangle]
pub extern "C" fn valloc(size: size_t) -> *mut c_void {
    allocate(size, PAGE_SIZE, false) as *mut c_void
}

/// Interposed `pvalloc(3)`: page-aligned, size rounded up to whole pages.
#[no_mangle]
pub extern "C" fn pvalloc(size: size_t) -> *mut c_void {
    let Some(rounded) = size.checked_next_multiple_of(PAGE_SIZE) else {
        libc::set_errno(libc::ENOMEM);
        return std::ptr::null_mut();
    };
    allocate(rounded.max(PAGE_SIZE), PAGE_SIZE, false) as *mut c_void
}

/// Interposed `malloc_usable_size(3)`: 0 for null, the slot (or remaining
/// large-span) size for Mesh pointers, delegated for foreign ones.
///
/// # Safety
///
/// `ptr` must be null or a live pointer from this allocation family.
#[no_mangle]
pub unsafe extern "C" fn malloc_usable_size(ptr: *mut c_void) -> size_t {
    usable(ptr as *mut u8)
}

/// Interposed `malloc_trim(3)`: releases dirty pages to the OS and
/// retires empty segments. Returns 1 if a heap exists (memory may have
/// been released), 0 otherwise.
#[no_mangle]
pub extern "C" fn malloc_trim(_pad: size_t) -> c_int {
    match runtime::built_heap() {
        Some(mesh) => {
            mesh.purge_dirty();
            1
        }
        None => 0,
    }
}

/// Interposed `mallopt(3)`: accepted and ignored (Mesh's knobs are the
/// `MESH_*` environment variables). Returns 1 (success) like glibc does
/// for recognized parameters.
#[no_mangle]
pub extern "C" fn mallopt(_param: c_int, _value: c_int) -> c_int {
    1
}

/// Interposed `malloc_stats(3)`: prints the Mesh summary line to stderr.
#[no_mangle]
pub extern "C" fn malloc_stats() {
    runtime::print_stats();
}

// ---------------------------------------------------------------------
// Mesh-specific diagnostics
// ---------------------------------------------------------------------

/// Prints a one-line machine-readable stats summary to stderr (the same
/// line `MESH_PRINT_STATS_AT_EXIT=1` emits at exit). C programs can
/// declare it `__attribute__((weak))` and call it only when running under
/// the preload.
#[no_mangle]
pub extern "C" fn mesh_stats_print() {
    runtime::print_stats();
}

/// Forces a meshing pass (bypassing the §4.5 rate limiter) and returns
/// the number of span pairs meshed by that pass.
#[no_mangle]
pub extern "C" fn mesh_mesh_now() -> u64 {
    if in_internal_alloc() {
        return 0;
    }
    with_internal_alloc(|| match runtime::heap() {
        Some(mesh) => mesh.mesh_now().pairs_meshed as u64,
        None => 0,
    })
}

/// Writes the sampled heap profile (version-1 JSON, see DESIGN.md
/// "Telemetry & profiling") to `MESH_PROF_PATH` — or to stderr as one
/// `mesh-prof: ` line when no path is configured. Returns 0 on success,
/// -1 when profiling is off (`MESH_PROF` unset) or no heap exists. C
/// programs can declare it `__attribute__((weak))` and call it only when
/// running under the preload; `kill -USR2 <pid>` reaches the same dump
/// asynchronously.
#[no_mangle]
pub extern "C" fn mesh_prof_dump() -> c_int {
    runtime::report_dump_to(Report::Profile, 2)
}

/// Writes the buffered slow-path trace (Chrome trace-event JSON, see
/// DESIGN.md "Slow-path tracing") to `MESH_TRACE_PATH` — or to stderr as
/// one `mesh-trace: ` line when no path is configured. Returns 0 on
/// success, -1 when tracing is off (`MESH_TRACE` unset) or no heap
/// exists. `kill -USR2 <pid>` reaches the same dump asynchronously.
#[no_mangle]
pub extern "C" fn mesh_trace_dump() -> c_int {
    runtime::report_dump_to(Report::Trace, 2)
}

/// Writes the mesh-sense document (version-1 JSON: pressure, residency
/// decomposition, the meshing-effectiveness ledger, and the snapshot
/// time series; see DESIGN.md §4f) to `MESH_SENSE_PATH` — or to stderr
/// as one `mesh-sense: ` line when no path is configured. Returns 0 on
/// success, -1 when sensing is off (`MESH_SENSE_INTERVAL_MS=0`) or no
/// heap exists. `kill -USR2 <pid>` reaches the same dump asynchronously.
#[no_mangle]
pub extern "C" fn mesh_sense_dump() -> c_int {
    runtime::report_dump_to(Report::Sense, 2)
}

/// Whether the mesh-ctl control socket (`MESH_CTL=/path/sock`) is
/// configured *and* listening in this process. Returns 0 when no socket
/// was configured, the bind lost the path to a live owner, or no heap
/// exists.
#[no_mangle]
pub extern "C" fn mesh_ctl_active() -> c_int {
    match runtime::built_heap() {
        Some(mesh) => mesh.ctl_active() as c_int,
        None => 0,
    }
}

/// Copies the configured mesh-ctl socket path (NUL-terminated) into
/// `buf`, returning its length in bytes (excluding the NUL) — or -1 when
/// no socket is configured, no heap exists, or `buf` is too small. Pass
/// a 108-byte buffer (`sizeof(sun_path)`): every accepted path fits.
///
/// # Safety
///
/// `buf` must be null (treated as too small) or valid for `len` writable
/// bytes.
#[no_mangle]
pub unsafe extern "C" fn mesh_ctl_path(buf: *mut mesh_core::ffi::c_char, len: size_t) -> c_int {
    let Some(mesh) = runtime::built_heap() else {
        return -1;
    };
    let Some(path) = mesh.ctl_path() else {
        return -1;
    };
    let bytes = path.as_os_str().as_encoded_bytes();
    if buf.is_null() || bytes.len() + 1 > len {
        return -1;
    }
    std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf as *mut u8, bytes.len());
    *buf.add(bytes.len()) = 0;
    bytes.len() as c_int
}

// ---------------------------------------------------------------------
// Tests — these run with Mesh interposed over the test harness's own
// malloc (the lib target links its #[no_mangle] symbols into the test
// binary), so every assertion doubles as an end-to-end smoke test.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn is_meshed(p: *mut c_void) -> bool {
        runtime::built_heap().is_some_and(|m| m.contains(p as *const u8))
    }

    #[test]
    fn malloc_zero_returns_unique_freeable_pointers() {
        let a = malloc(0);
        let b = malloc(0);
        assert!(!a.is_null() && !b.is_null());
        assert_ne!(a, b, "malloc(0) pointers must be unique");
        unsafe {
            free(a);
            free(b);
        }
    }

    #[test]
    fn malloc_routes_to_mesh_and_roundtrips() {
        let p = malloc(1000);
        assert!(!p.is_null());
        assert!(is_meshed(p), "application allocation must land on Mesh");
        unsafe {
            std::ptr::write_bytes(p as *mut u8, 0x7A, 1000);
            assert!(malloc_usable_size(p) >= 1000);
            free(p);
        }
    }

    #[test]
    fn calloc_zeroes_and_rejects_overflow() {
        let p = calloc(100, 100) as *mut u8;
        assert!(!p.is_null());
        unsafe {
            for i in 0..10_000 {
                assert_eq!(*p.add(i), 0);
            }
            free(p as *mut c_void);
        }
        assert!(calloc(usize::MAX, 2).is_null());
        assert_eq!(libc::errno(), libc::ENOMEM);
    }

    #[test]
    fn realloc_glibc_edge_semantics() {
        // realloc(NULL, n) == malloc(n)
        let p = unsafe { realloc(std::ptr::null_mut(), 64) };
        assert!(!p.is_null());
        unsafe { std::ptr::write_bytes(p as *mut u8, 0x5E, 64) };
        // grow preserves contents
        let q = unsafe { realloc(p, 200_000) };
        assert!(!q.is_null());
        unsafe {
            for i in 0..64 {
                assert_eq!(*(q as *const u8).add(i), 0x5E);
            }
        }
        // realloc(p, 0) frees and returns NULL
        assert!(unsafe { realloc(q, 0) }.is_null());
    }

    #[test]
    fn reallocarray_overflow_checked() {
        let p = unsafe { reallocarray(std::ptr::null_mut(), 8, 32) };
        assert!(!p.is_null());
        assert!(unsafe { reallocarray(p, usize::MAX / 2, 3) }.is_null());
        assert_eq!(libc::errno(), libc::ENOMEM);
        unsafe { free(p) }; // overflow left the old block alive
    }

    #[test]
    fn posix_memalign_matches_posix() {
        let mut p: *mut c_void = std::ptr::null_mut();
        // Non-power-of-two and non-pointer-multiple alignments: EINVAL,
        // and *memptr untouched.
        assert_eq!(unsafe { posix_memalign(&mut p, 24, 100) }, libc::EINVAL);
        assert_eq!(unsafe { posix_memalign(&mut p, 2, 100) }, libc::EINVAL);
        assert!(p.is_null(), "memptr must be untouched on EINVAL");
        for align in [16usize, 64, 4096, 2 << 20] {
            assert_eq!(unsafe { posix_memalign(&mut p, align, 100) }, 0);
            assert!(!p.is_null());
            assert_eq!(p as usize % align, 0, "align {align}");
            unsafe { free(p) };
            p = std::ptr::null_mut();
        }
    }

    #[test]
    fn aligned_family_alignment_and_einval() {
        assert!(aligned_alloc(24, 100).is_null(), "non-power-of-two align");
        let p = aligned_alloc(256, 300);
        assert_eq!(p as usize % 256, 0);
        unsafe { free(p) };
        let p = memalign(1 << 16, 10);
        assert_eq!(p as usize % (1 << 16), 0);
        unsafe { free(p) };
        let v = valloc(100);
        assert_eq!(v as usize % PAGE_SIZE, 0);
        unsafe { free(v) };
        let pv = pvalloc(PAGE_SIZE + 1);
        assert_eq!(pv as usize % PAGE_SIZE, 0);
        assert!(unsafe { malloc_usable_size(pv) } >= 2 * PAGE_SIZE);
        unsafe { free(pv) };
    }

    #[test]
    fn free_of_foreign_and_null_pointers_is_safe() {
        unsafe { free(std::ptr::null_mut()) };
        // A pointer from the *real* allocator (internal route) must route
        // back to it on free.
        let real_ptr = crate::real::malloc(64);
        assert!(!real_ptr.is_null());
        unsafe { free(real_ptr as *mut c_void) };
    }

    #[test]
    fn trim_mallopt_stats_are_callable() {
        let p = malloc(100_000);
        unsafe { free(p) };
        assert_eq!(malloc_trim(0), 1);
        assert_eq!(mallopt(0, 0), 1);
        mesh_stats_print();
    }

    #[test]
    fn prof_dump_reports_disabled_without_mesh_prof() {
        // The interposed test harness runs without MESH_PROF: the dump
        // entry point must report -1, not crash or write anything.
        let p = malloc(100); // ensure the heap exists
        unsafe { free(p) };
        assert_eq!(mesh_prof_dump(), -1);
    }

    #[test]
    fn sense_dump_writes_by_default() {
        // Sensing is on by default (MESH_SENSE_INTERVAL_MS defaults to
        // 1000), so the dump entry point must succeed — one `mesh-sense:`
        // stderr line — without any env setup.
        let p = malloc(100); // ensure the heap exists
        unsafe { free(p) };
        assert_eq!(mesh_sense_dump(), 0);
    }

    #[test]
    fn trace_dump_reports_disabled_without_mesh_trace() {
        // The interposed test harness runs without MESH_TRACE: the dump
        // entry point must report -1, not crash or write anything.
        let p = malloc(100); // ensure the heap exists
        unsafe { free(p) };
        assert_eq!(mesh_trace_dump(), -1);
    }

    #[test]
    fn mesh_now_meshes_a_fragmented_heap() {
        // Fragment: many small objects, free 7 of every 8; spans detach
        // as they fill, so candidates exist without thread churn.
        let ptrs: Vec<*mut c_void> = (0..32_768).map(|_| malloc(64)).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 != 0 {
                unsafe { free(p) };
            }
        }
        let pairs = mesh_mesh_now();
        for (i, &p) in ptrs.iter().enumerate() {
            if i % 8 == 0 {
                unsafe { free(p) };
            }
        }
        assert!(pairs > 0, "fragmented heap produced no meshes");
    }
}
