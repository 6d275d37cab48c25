//! Resolution of the *real* (next-in-search-order, i.e. glibc) allocator
//! via `dlsym(RTLD_NEXT, …)`.
//!
//! Mesh's own metadata (slab vectors, candidate lists) must not live on
//! Mesh — an allocation made while a shard lock is held would recurse
//! into the same lock. The interposed symbols therefore route any request
//! arriving with [`mesh_core::in_internal_alloc`] set to the real
//! allocator resolved here, as `MeshGlobalAlloc` routes it to the system
//! allocator on the Rust side.
//!
//! `dlsym` itself calls `calloc`, which is interposed back into this
//! library: the [`RESOLVING`] flag routes that recursion (and any other
//! thread's internal allocation racing the resolution window) to the
//! [`crate::bootstrap`] bump arena.

use mesh_core::ffi::{c_char, c_void, size_t};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// `<dlfcn.h>`'s pseudo-handle: resolve in the next object after ours.
const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
}

type MallocFn = unsafe extern "C" fn(size_t) -> *mut c_void;
type FreeFn = unsafe extern "C" fn(*mut c_void);
type CallocFn = unsafe extern "C" fn(size_t, size_t) -> *mut c_void;
type ReallocFn = unsafe extern "C" fn(*mut c_void, size_t) -> *mut c_void;
type MemalignFn = unsafe extern "C" fn(size_t, size_t) -> *mut c_void;
type UsableFn = unsafe extern "C" fn(*mut c_void) -> size_t;

static MALLOC: AtomicUsize = AtomicUsize::new(0);
static FREE: AtomicUsize = AtomicUsize::new(0);
static CALLOC: AtomicUsize = AtomicUsize::new(0);
static REALLOC: AtomicUsize = AtomicUsize::new(0);
static MEMALIGN: AtomicUsize = AtomicUsize::new(0);
static USABLE: AtomicUsize = AtomicUsize::new(0);
static RESOLVED: AtomicBool = AtomicBool::new(false);
static RESOLVING: AtomicBool = AtomicBool::new(false);

/// Resolves the real allocator once. Returns whether it is usable; while
/// a resolution is in flight (including the dlsym→calloc recursion on the
/// resolving thread itself) this reports `false` and callers fall back to
/// the bootstrap arena.
fn ensure_resolved() -> bool {
    if RESOLVED.load(Ordering::Acquire) {
        return true;
    }
    if RESOLVING.swap(true, Ordering::AcqRel) {
        return RESOLVED.load(Ordering::Acquire);
    }
    unsafe {
        let sym = |name: &'static core::ffi::CStr| dlsym(RTLD_NEXT, name.as_ptr()) as usize;
        MALLOC.store(sym(c"malloc"), Ordering::Relaxed);
        FREE.store(sym(c"free"), Ordering::Relaxed);
        CALLOC.store(sym(c"calloc"), Ordering::Relaxed);
        REALLOC.store(sym(c"realloc"), Ordering::Relaxed);
        MEMALIGN.store(sym(c"memalign"), Ordering::Relaxed);
        USABLE.store(sym(c"malloc_usable_size"), Ordering::Relaxed);
    }
    let ok = [&MALLOC, &FREE, &CALLOC, &REALLOC, &MEMALIGN]
        .iter()
        .all(|s| s.load(Ordering::Relaxed) != 0);
    RESOLVED.store(ok, Ordering::Release);
    ok
}

/// Expands (inside the caller's `unsafe` block) to the resolved function
/// pointer: non-zero slots were filled from dlsym with the matching glibc
/// signature.
macro_rules! resolved_fn {
    ($slot:ident as $ty:ty) => {{
        let raw = $slot.load(Ordering::Acquire);
        debug_assert_ne!(raw, 0);
        std::mem::transmute::<usize, $ty>(raw)
    }};
}

/// Real `malloc`, or a bootstrap bump allocation while unresolved.
pub fn malloc(size: usize) -> *mut u8 {
    if !ensure_resolved() {
        return crate::bootstrap::alloc(size, 16);
    }
    unsafe { resolved_fn!(MALLOC as MallocFn)(size) as *mut u8 }
}

/// Real zeroing `calloc`, or a (fresh, hence zero) bootstrap allocation.
pub fn calloc(count: usize, size: usize) -> *mut u8 {
    if !ensure_resolved() {
        let total = count.saturating_mul(size);
        return crate::bootstrap::alloc(total, 16);
    }
    unsafe { resolved_fn!(CALLOC as CallocFn)(count, size) as *mut u8 }
}

/// Real `memalign` (glibc's, which serves any power-of-two alignment), or
/// an aligned bootstrap allocation.
pub fn memalign(align: usize, size: usize) -> *mut u8 {
    if !ensure_resolved() {
        return crate::bootstrap::alloc(size, align.max(16));
    }
    unsafe { resolved_fn!(MEMALIGN as MemalignFn)(align, size) as *mut u8 }
}

/// Real `free`. Pointers reaching here always postdate a successful
/// resolution (they were produced by the real allocator); if resolution
/// somehow failed, leaking is the only safe option.
pub fn free(ptr: *mut u8) {
    if ptr.is_null() || !ensure_resolved() {
        return;
    }
    unsafe { resolved_fn!(FREE as FreeFn)(ptr as *mut c_void) }
}

/// Real `realloc`.
pub fn realloc(ptr: *mut u8, size: usize) -> *mut u8 {
    if !ensure_resolved() {
        return std::ptr::null_mut();
    }
    unsafe { resolved_fn!(REALLOC as ReallocFn)(ptr as *mut c_void, size) as *mut u8 }
}

/// Real `malloc_usable_size`, or 0 when unavailable.
pub fn usable_size(ptr: *mut u8) -> usize {
    if !ensure_resolved() || USABLE.load(Ordering::Acquire) == 0 {
        return 0;
    }
    unsafe { resolved_fn!(USABLE as UsableFn)(ptr as *mut c_void) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_glibc_allocator_and_roundtrips() {
        assert!(ensure_resolved(), "dlsym(RTLD_NEXT) must find glibc");
        let p = malloc(100);
        assert!(!p.is_null());
        assert!(!crate::bootstrap::contains(p), "resolved path, not bootstrap");
        assert!(usable_size(p) >= 100);
        let p = realloc(p, 300);
        assert!(!p.is_null());
        free(p);
        let z = calloc(10, 10);
        unsafe {
            for i in 0..100 {
                assert_eq!(*z.add(i), 0);
            }
        }
        free(z);
        let a = memalign(256, 100);
        assert_eq!(a as usize % 256, 0);
        free(a);
    }
}
