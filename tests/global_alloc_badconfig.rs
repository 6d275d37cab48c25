//! Regression test: if the process-wide Mesh heap cannot be constructed
//! (here: an address-space limit below the heap's reservation — no
//! `MESH_*` value can fail construction any more, `apply_env` ignores
//! what `validate()` would refuse), `MeshGlobalAlloc::alloc` must
//! report OOM by returning null — never panic or abort across the
//! FFI-analog boundary — and `dealloc` must still route pointers that
//! went to the system allocator.
//!
//! Own test binary: construction failure is sticky for the process.

use mesh::core::MeshGlobalAlloc;
use std::alloc::{GlobalAlloc, Layout};

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
}

const RLIMIT_AS: i32 = 9;

#[test]
fn construction_failure_degrades_to_null_not_panic() {
    // 4 KiB is below the smallest valid cap (one 32-page span): ignored
    // with a warning, so the default 1 GiB cap stands…
    std::env::set_var("MESH_MAX_HEAP_BYTES", "4096");
    // …and its reservation cannot be mapped under a 512 MiB limit.
    let limit = Rlimit { cur: 512 << 20, max: 512 << 20 };
    assert_eq!(unsafe { setrlimit(RLIMIT_AS, &limit) }, 0);

    let alloc = MeshGlobalAlloc;
    let layout = Layout::from_size_align(256, 16).unwrap();
    // Every allocation fails cleanly; nothing panics, nothing aborts.
    for _ in 0..4 {
        assert!(unsafe { alloc.alloc(layout) }.is_null());
        assert!(unsafe { alloc.alloc_zeroed(layout) }.is_null());
    }
    // try_mesh reports the failure; the panicking accessor is not used on
    // the allocation path.
    assert!(MeshGlobalAlloc::try_mesh().is_none());
    // dealloc of a system-allocator pointer (the no-heap fallback path)
    // still works.
    unsafe {
        let p = std::alloc::System.alloc(layout);
        assert!(!p.is_null());
        alloc.dealloc(p, layout);
    }
}
