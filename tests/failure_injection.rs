//! Failure-injection and adversarial-input tests: the allocator must
//! stay coherent (and §4.4.4 requires it to *discard* memory-management
//! errors, not crash) under every hostile input a C program can produce.

use mesh::core::{HardenKind, HardenPolicy, Mesh, MeshConfig, MeshError};
use std::time::Duration;

fn small_heap(seed: u64) -> Mesh {
    Mesh::new(MeshConfig::default().arena_bytes(16 << 20).seed(seed)).unwrap()
}

fn hardened_heap(seed: u64) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(16 << 20)
            .seed(seed)
            .harden_policy(HardenPolicy::Count),
    )
    .unwrap()
}

#[test]
fn zero_size_malloc_and_free_null() {
    let mesh = small_heap(1);
    // C malloc(0) may return null or a unique pointer; either way free
    // must accept the result.
    let p = mesh.malloc(0);
    unsafe { mesh.free(p) };
    unsafe { mesh.free(std::ptr::null_mut()) };
    assert_eq!(mesh.stats().invalid_frees, 0, "null free is not an error");
}

#[test]
fn oversized_requests_fail_cleanly() {
    let mesh = small_heap(2);
    // Larger than the whole arena: null, not a panic or abort.
    assert!(mesh.malloc(1 << 30).is_null());
    assert!(mesh.malloc(usize::MAX / 2).is_null());
    // calloc overflow path.
    assert!(mesh.calloc(usize::MAX, 2).is_null());
    // The heap is still usable afterwards.
    let p = mesh.malloc(64);
    assert!(!p.is_null());
    unsafe { mesh.free(p) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn foreign_pointer_frees_are_discarded() {
    let mesh = small_heap(3);
    let stack_var = 5u64;
    unsafe { mesh.free(&stack_var as *const u64 as *mut u8) };
    let boxed = Box::new(7u64);
    unsafe { mesh.free(Box::into_raw(boxed) as *mut u8) };
    assert!(mesh.stats().invalid_frees >= 1, "foreign frees counted");
    assert_eq!(mesh.stats().double_frees, 0);
    // Interior arena addresses that were never allocated are discarded
    // too (page-table lookup misses, §4.4.4).
    let p = mesh.malloc(128);
    let far = unsafe { p.add(64 * 1024) };
    unsafe { mesh.free(far) };
    unsafe { mesh.free(p) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn double_frees_are_detected_and_discarded_on_the_global_path() {
    // §4.4.4's bitmap check detects double frees on the global path (the
    // local fast path is bitmap-less by design — Fig 4 — and documented
    // as C-style undefined behaviour). Free through a thread heap that
    // does not own the pointer, so every free is global.
    let mesh = small_heap(4);
    let p = mesh.malloc(256);
    let mut other = mesh.thread_heap();
    unsafe {
        other.free(p);
        other.free(p);
        other.free(p);
    }
    // Remote frees buffer in the sender until a batch fills; `stats()`
    // flushes every live sender's buffers through the registry, so the
    // shard-side validation has run by the time we read the counters.
    let stats = mesh.stats();
    assert_eq!(stats.frees, 1, "only the first free lands");
    assert!(stats.double_frees >= 2);
    assert_eq!(stats.live_bytes, 0);
}

#[test]
fn misaligned_interior_free_does_not_corrupt() {
    let mesh = small_heap(5);
    let ptrs: Vec<*mut u8> = (0..64).map(|_| mesh.malloc(512)).collect();
    // Frees at interior offsets resolve to the same slot as the base
    // pointer (C programs sometimes free base + k where k < size; Mesh's
    // offset math rounds down to the slot) — or are discarded; either
    // way the heap must remain consistent and later legitimate frees of
    // other objects must work.
    unsafe { mesh.free(ptrs[0].add(17)) };
    for &p in &ptrs[1..] {
        unsafe { mesh.free(p) };
    }
    let stats = mesh.stats();
    assert_eq!(stats.double_frees, 0);
    assert!(stats.live_bytes <= 512, "at most the probed slot survives");
}

#[test]
fn invalid_configs_are_rejected_not_ub() {
    assert!(matches!(
        Mesh::new(MeshConfig::default().arena_bytes(1)),
        Err(MeshError::InvalidConfig(_))
    ));
    assert!(Mesh::new(MeshConfig::default().sense_path(Some("".into()))).is_err());
    assert!(Mesh::new(MeshConfig::default().tracing(true).trace_buf_events(1)).is_err());
}

#[test]
fn exhaustion_mid_workload_is_survivable() {
    // A 4 MiB arena: fill it, verify null, free half, verify recovery —
    // repeatedly, so clean/dirty span reuse paths all get exercised.
    let mesh = Mesh::new(MeshConfig::default().arena_bytes(4 << 20).seed(6)).unwrap();
    for round in 0..4 {
        let mut ptrs = Vec::new();
        loop {
            let p = mesh.malloc(1024);
            if p.is_null() {
                break;
            }
            unsafe { std::ptr::write_bytes(p, round as u8, 1024) };
            ptrs.push(p as usize);
        }
        assert!(
            ptrs.len() * 1024 > 3 << 20,
            "round {round}: arena should mostly fill ({} allocated)",
            ptrs.len()
        );
        // Contents survived the fill.
        for &p in &ptrs {
            assert_eq!(unsafe { *(p as *const u8) }, round as u8);
        }
        for p in ptrs {
            unsafe { mesh.free(p as *mut u8) };
        }
        mesh.purge_dirty();
        assert_eq!(mesh.stats().live_bytes, 0, "round {round}");
    }
}

#[test]
fn runtime_control_changes_mid_flight() {
    let mesh = small_heap(7);
    let mut ptrs: Vec<usize> = (0..4096).map(|_| mesh.malloc(128) as usize).collect();
    for i in (0..ptrs.len()).rev() {
        if i % 4 != 0 {
            unsafe { mesh.free(ptrs.swap_remove(i) as *mut u8) };
        }
    }
    // Flip every runtime knob while the heap is fragmented and meshable.
    mesh.set_meshing_enabled(false);
    assert_eq!(mesh.mesh_now().pairs_meshed, 0, "disabled means disabled");
    mesh.set_meshing_enabled(true);
    // Enabled again, passes run (what they find depends on what stayed
    // attached): no crash.
    let _ = (mesh.mesh_now(), mesh.mesh_now());
    mesh.set_mesh_period(Duration::from_secs(3600));
    mesh.set_mesh_period(Duration::ZERO);
    for p in ptrs {
        unsafe { mesh.free(p as *mut u8) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn usable_size_contract() {
    let mesh = small_heap(8);
    let p = mesh.malloc(100);
    let usable = mesh.usable_size(p).expect("own pointer");
    assert!(usable >= 100, "usable {usable} < requested");
    // The full usable size is writable.
    unsafe { std::ptr::write_bytes(p, 0xEE, usable) };
    // Foreign pointers have no usable size.
    let x = 3u32;
    assert_eq!(mesh.usable_size(&x as *const u32 as *mut u8), None);
    unsafe { mesh.free(p) };
}

#[test]
fn realloc_edge_cases() {
    let mesh = small_heap(9);
    // realloc(null, n) == malloc(n).
    let p = unsafe { mesh.realloc(std::ptr::null_mut(), 64) };
    assert!(!p.is_null());
    // Grow with content preservation.
    unsafe { std::ptr::write_bytes(p, 0x5C, 64) };
    let q = unsafe { mesh.realloc(p, 50_000) };
    assert!(!q.is_null());
    for i in 0..64 {
        assert_eq!(unsafe { *q.add(i) }, 0x5C, "byte {i} lost in realloc");
    }
    // Shrink far enough to change class: content prefix again preserved.
    let r = unsafe { mesh.realloc(q, 16) };
    assert!(!r.is_null());
    for i in 0..16 {
        assert_eq!(unsafe { *r.add(i) }, 0x5C);
    }
    // Unsatisfiable growth leaves the original allocation intact.
    let s = unsafe { mesh.realloc(r, 1 << 30) };
    assert!(s.is_null());
    assert_eq!(unsafe { *r }, 0x5C, "failed realloc must not free the input");
    unsafe { mesh.free(r) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn aligned_allocation_contract() {
    let mesh = small_heap(10);
    for align in [16usize, 32, 64, 128, 1024, 4096] {
        let p = mesh.malloc_aligned(100, align);
        assert!(!p.is_null(), "align {align}");
        assert_eq!(p as usize % align, 0, "align {align} violated");
        unsafe { mesh.free(p) };
    }
    // Beyond a page: served on the large path (over-allocate + align).
    let p = mesh.malloc_aligned(100, 8192);
    assert!(!p.is_null(), "over-page alignment must not fail");
    assert_eq!(p as usize % 8192, 0);
    unsafe { mesh.free(p) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn thread_heap_outliving_frees_from_other_threads() {
    // Allocate on a thread heap, free everything from the main handle
    // while the thread heap is still attached, then keep allocating from
    // it: the bitmap/shuffle-vector reconciliation (§4.1) must hold.
    let mesh = small_heap(11);
    let mut th = mesh.thread_heap();
    let ptrs: Vec<usize> = (0..512).map(|_| th.malloc(64) as usize).collect();
    for &p in &ptrs {
        unsafe { mesh.free(p as *mut u8) };
    }
    // All those frees were remote (bitmap-only); the attached shuffle
    // vector must not hand out stale duplicates.
    let mut fresh: Vec<usize> = (0..512).map(|_| th.malloc(64) as usize).collect();
    fresh.sort_unstable();
    fresh.dedup();
    assert_eq!(fresh.len(), 512, "duplicate pointers after remote frees");
    for p in fresh {
        unsafe { mesh.free(p as *mut u8) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn hostile_free_of_pointer_into_quarantined_slot() {
    // Hardening off: freeing the same slot twice on the local fast path
    // is C-style UB the bitmap-less path is documented not to catch; an
    // *interior* pointer into it is misaligned and discarded. The heap
    // must stay coherent either way.
    let mesh = small_heap(20);
    let p = mesh.malloc(64);
    unsafe {
        mesh.free(p);
        mesh.free(p.add(8));
    }
    assert_eq!(mesh.stats().invalid_frees, 1, "misaligned free discarded");
    let q = mesh.malloc(64);
    assert!(!q.is_null());
    unsafe { mesh.free(q) };

    // Hardening on: the base pointer is deterministically a double free
    // (quarantine membership), the interior pointer an invalid free, and
    // both are attributed to their hardened kinds.
    let mesh = hardened_heap(21);
    let p = mesh.malloc(64);
    unsafe {
        mesh.free(p); // parked
        mesh.free(p); // hostile: free of a quarantined pointer
        mesh.free(p.add(8)); // hostile: pointer *into* the quarantined slot
    }
    let s = mesh.stats();
    assert_eq!(s.harden_violations[HardenKind::DoubleFree as usize], 1);
    assert_eq!(s.harden_violations[HardenKind::InvalidFree as usize], 1);
    let q = mesh.malloc(64);
    assert!(!q.is_null());
    unsafe { mesh.free(q) };
    assert_eq!(
        mesh.stats().total_harden_violations(),
        2,
        "legitimate traffic after the attack adds no violations"
    );
}

#[test]
fn hostile_realloc_of_quarantined_pointer() {
    // Hardening off: realloc-after-free is UB; the classic heap resolves
    // the stale slot and must at least not corrupt itself.
    let mesh = small_heap(22);
    let p = mesh.malloc(128);
    unsafe {
        mesh.free(p);
        let q = mesh.realloc(p, 256);
        if !q.is_null() {
            mesh.free(q);
        }
    }

    // Hardening on: the quarantined slot is still claimed, so realloc
    // can size it — but its internal free of the old pointer hits the
    // quarantine membership check and is counted as the double free it
    // is. The new allocation is real and usable.
    let mesh = hardened_heap(23);
    let p = mesh.malloc(128);
    unsafe {
        mesh.free(p); // parked
        let q = mesh.realloc(p, 256); // hostile: realloc of freed pointer
        assert!(!q.is_null());
        std::ptr::write_bytes(q, 0x3C, 256);
        mesh.free(q);
    }
    let s = mesh.stats();
    assert_eq!(
        s.harden_violations[HardenKind::DoubleFree as usize],
        1,
        "realloc of a quarantined pointer counted as double free"
    );
}

#[test]
fn hostile_interior_free_on_guarded_large_object() {
    // Hardening off (no guard pages): the classic path is C-lenient —
    // any pointer into the live span resolves to the owning singleton
    // and releases it; the next interior free is then a counted miss.
    let mesh = small_heap(24);
    let p = mesh.malloc(50_000);
    unsafe { mesh.free(p.add(4096)) };
    let s = mesh.stats();
    assert_eq!(s.frees, 1, "interior pointer released the object");
    assert_eq!(s.live_bytes, 0);
    unsafe { mesh.free(p.add(17)) };
    assert_eq!(mesh.stats().invalid_frees, 1, "now-dangling free discarded");

    // Hardening on: same discard contract with the guard page in place,
    // attributed to kind=invalid_free; the base free then passes the
    // tail-page scan (nothing was overflowed).
    let mesh = hardened_heap(25);
    let p = mesh.malloc(50_000);
    let usable = mesh.usable_size(p).expect("own pointer");
    unsafe {
        std::ptr::write_bytes(p, 0x77, usable);
        mesh.free(p.add(4096)); // hostile: interior page of a guarded object
        mesh.free(p.add(17)); // hostile: unaligned interior pointer
    }
    let s = mesh.stats();
    assert!(s.harden_violations[HardenKind::InvalidFree as usize] >= 2);
    assert_eq!(s.harden_violations[HardenKind::Guard as usize], 0);
    unsafe { mesh.free(p) };
    let s = mesh.stats();
    assert_eq!(s.live_bytes, 0, "base free of the guarded object lands");
    assert_eq!(s.harden_violations[HardenKind::Guard as usize], 0);
}

#[test]
fn heaps_are_isolated_from_each_other() {
    // Pointers from one heap freed into another are foreign — discarded,
    // counted, and harmless.
    let a = small_heap(12);
    let b = small_heap(13);
    let pa = a.malloc(256);
    unsafe { b.free(pa) };
    assert_eq!(b.stats().invalid_frees, 1);
    assert_eq!(a.stats().frees, 0, "a's object is still live");
    assert!(a.contains(pa) && !b.contains(pa));
    unsafe { a.free(pa) };
    assert_eq!(a.stats().live_bytes, 0);
}
