//! Regression test for the `MeshGlobalAlloc` OOM path: when the heap's
//! hard cap is hit, `alloc` must return null per the `GlobalAlloc`
//! contract — never panic or abort across the FFI-analog boundary.
//!
//! This lives in its own integration-test binary because the process-wide
//! heap is created once (from env configuration) on first use; a single
//! `#[test]` keeps the sequencing deterministic.

use mesh::core::MeshGlobalAlloc;
use std::alloc::{GlobalAlloc, Layout};

#[test]
fn alloc_returns_null_at_hard_cap_and_recovers() {
    // A 2 MiB hard cap; set before first use.
    std::env::set_var("MESH_MAX_HEAP_BYTES", (2 << 20).to_string());

    let alloc = MeshGlobalAlloc;
    let layout = Layout::from_size_align(64 * 1024, 16).unwrap();

    // Fill the heap to the cap: the tail of the loop MUST be a null
    // return, not a panic or abort.
    let mut held: Vec<*mut u8> = Vec::new();
    let mut saw_null = false;
    for _ in 0..1024 {
        let p = unsafe { alloc.alloc(layout) };
        if p.is_null() {
            saw_null = true;
            break;
        }
        unsafe { std::ptr::write_bytes(p, 0x6F, layout.size()) };
        held.push(p);
    }
    assert!(saw_null, "hard cap never surfaced as a null return");
    assert!(!held.is_empty(), "nothing allocated before the cap");

    // A single absurd request is also a clean null (no abort), both
    // through `alloc` and `alloc_zeroed`.
    let huge = Layout::from_size_align(1 << 40, 16).unwrap();
    assert!(unsafe { alloc.alloc(huge) }.is_null());
    assert!(unsafe { alloc.alloc_zeroed(huge) }.is_null());
    // An over-aligned request that cannot fit under the (exhausted) cap is
    // a clean null too, not a panic.
    let overaligned_huge = Layout::from_size_align(4 << 20, 4 << 20).unwrap();
    assert!(unsafe { alloc.alloc(overaligned_huge) }.is_null());

    // Freeing makes the heap usable again — OOM was not sticky.
    for p in held.drain(..) {
        unsafe { alloc.dealloc(p, layout) };
    }
    let p = unsafe { alloc.alloc(layout) };
    assert!(!p.is_null(), "heap did not recover after frees");
    unsafe { alloc.dealloc(p, layout) };

    // Over-aligned layouts are served on the large path once there is
    // room again (they used to be a spurious OOM).
    let overaligned = Layout::from_size_align(64, 8192).unwrap();
    let q = unsafe { alloc.alloc(overaligned) };
    assert!(!q.is_null(), "over-aligned layout not served");
    assert_eq!(q as usize % 8192, 0);
    unsafe { alloc.dealloc(q, overaligned) };

    let stats = MeshGlobalAlloc::mesh().stats();
    assert_eq!(stats.live_bytes, 0);
    assert_eq!(stats.double_frees, 0);
}
