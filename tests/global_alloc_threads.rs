//! `MeshGlobalAlloc`'s per-thread heaps give their spans back when their
//! threads exit. Sixteen threads allocate a few spans' worth in three
//! size classes through the adapter, free half, and exit; afterwards no
//! span of those classes is still attached to a dead thread, and the
//! survivors read back and free cleanly from the test's own thread.
//!
//! Own test binary: the process-wide heap is created once, on first use.

use mesh::core::{MeshGlobalAlloc, SizeClass};
use std::alloc::{GlobalAlloc, Layout};

const THREADS: usize = 16;
const SIZES: [usize; 3] = [48, 256, 2048];
/// Spans' worth each thread allocates per class.
const SPANS: usize = 3;

fn layout(size: usize) -> Layout {
    Layout::from_size_align(size, 16).unwrap()
}

/// Allocates `SPANS` spans' worth of every size, tags each object, frees
/// every other one, and returns the rest as (address, size, tag).
fn churn(thread: usize) -> Vec<(usize, usize, u8)> {
    let alloc = MeshGlobalAlloc;
    let mut kept = Vec::new();
    for size in SIZES {
        let count = SizeClass::for_size(size).unwrap().object_count() * SPANS;
        for i in 0..count {
            let p = unsafe { alloc.alloc(layout(size)) };
            assert!(!p.is_null(), "thread {thread}: size {size} exhausted");
            let tag = (thread * 31 + i) as u8;
            unsafe { std::ptr::write_bytes(p, tag, size) };
            if i % 2 == 0 {
                unsafe { alloc.dealloc(p, layout(size)) };
            } else {
                kept.push((p as usize, size, tag));
            }
        }
    }
    kept
}

#[test]
fn exited_threads_leave_no_span_attached() {
    let survivors: Vec<(usize, usize, u8)> = (0..THREADS)
        .map(|t| std::thread::spawn(move || churn(t)))
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    let mesh = MeshGlobalAlloc::mesh();
    let spectrum = mesh.occupancy_spectrum();
    for size in SIZES {
        let class = &spectrum.classes[SizeClass::for_size(size).unwrap().index()];
        assert_eq!(
            class.attached_spans, 0,
            "{size} B: spans still attached to exited threads"
        );
        assert!(
            class.live_objects > 0,
            "{size} B: the survivors' spans are filed"
        );
    }

    let alloc = MeshGlobalAlloc;
    for &(addr, size, tag) in &survivors {
        let p = addr as *mut u8;
        unsafe {
            assert_eq!((*p, *p.add(size - 1)), (tag, tag), "survivor at {addr:#x}");
            alloc.dealloc(p, layout(size));
        }
    }
    let s = mesh.stats();
    assert_eq!(s.live_bytes, 0);
    assert_eq!(s.mallocs, s.frees);
    assert_eq!((s.double_frees, s.invalid_frees), (0, 0));
}
