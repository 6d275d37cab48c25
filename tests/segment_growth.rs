//! Segmented-arena integration tests: on-demand growth under concurrency,
//! the ≥ 32× live-set acceptance scenario, retirement shrinking the
//! mapped footprint, and stale frees into retired ranges.
//!
//! The long soak loop at the bottom is gated behind `MESH_SOAK=1` so CI
//! can opt into it without taxing every local `cargo test`.

mod support;

use mesh::core::{Mesh, MeshConfig};
use std::collections::HashSet;
use std::time::Duration;
use support::MeshingThread;

/// A heap whose initial segment is tiny (1 MiB) so growth starts
/// immediately, with small growth segments to maximize segment churn.
fn tiny_segment_heap(seed: u64) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .initial_segment_bytes(1 << 20)
            .segment_bytes(2 << 20)
            .seed(seed),
    )
    .unwrap()
}

#[test]
fn concurrent_growth_races_with_frees_and_meshing() {
    // N threads hammer a 1 MiB initial segment with mixed sizes, so
    // segment creation races span allocation, non-local frees, and a
    // meshing thread. Afterwards: no lost frees, settled accounting, and
    // monotonically assigned segment ids.
    const THREADS: usize = 8;
    const OPS: usize = 20_000;
    const SIZES: [usize; 8] = [64, 192, 448, 1024, 2048, 4096, 8192, 100_000];
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .initial_segment_bytes(1 << 20)
            .segment_bytes(2 << 20)
            .seed(27)
            .mesh_period(Duration::from_millis(2)),
    )
    .unwrap();

    let mesher = MeshingThread::spawn(&mesh);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mesh = mesh.clone();
            let tx = tx.clone();
            s.spawn(move || {
                let mut heap = mesh.thread_heap();
                let mut rng = mesh::core::rng::Rng::with_seed(t as u64 + 1);
                let mut live: Vec<usize> = Vec::new();
                for i in 0..OPS {
                    let size = SIZES[(i + t) % SIZES.len()];
                    let p = heap.malloc(size);
                    assert!(!p.is_null(), "cap is 256 MiB; growth must not fail");
                    unsafe { std::ptr::write_bytes(p, t as u8 + 1, size.min(64)) };
                    if i % 16 == 0 {
                        // Hand off for a non-local free.
                        tx.send(p as usize).unwrap();
                    } else {
                        live.push(p as usize);
                    }
                    if live.len() > 256 {
                        let idx = rng.below(live.len() as u32) as usize;
                        let addr = live.swap_remove(idx);
                        unsafe { heap.free(addr as *mut u8) };
                    }
                }
                for addr in live {
                    unsafe { heap.free(addr as *mut u8) };
                }
            });
        }
        drop(tx);
        // Sampler doubles as the remote freer: every received pointer is a
        // cross-thread free, and segment snapshots taken mid-churn must
        // always show unique, monotonically assigned ids.
        let mesh2 = mesh.clone();
        s.spawn(move || {
            let mut heap = mesh2.thread_heap();
            let mut n = 0u64;
            while let Ok(addr) = rx.recv() {
                unsafe { heap.free(addr as *mut u8) };
                n += 1;
                if n.is_multiple_of(1024) {
                    let segs = mesh2.segment_stats();
                    let ids: HashSet<u64> = segs.iter().map(|s| s.id).collect();
                    assert_eq!(ids.len(), segs.len(), "duplicate segment ids");
                }
            }
        });
    });
    mesher.stop();

    let stats = mesh.stats();
    assert_eq!(stats.mallocs, (THREADS * OPS) as u64);
    assert_eq!(stats.mallocs, stats.frees, "lost frees: {stats:?}");
    assert_eq!(stats.live_bytes, 0, "occupancy accounting drifted");
    assert_eq!(stats.double_frees, 0);
    assert_eq!(stats.invalid_frees, 0);
    assert!(stats.remote_frees >= (THREADS * OPS / 16) as u64);

    // The tiny initial segment cannot hold the live set: growth must have
    // happened, and ids must be assigned monotonically (never reused).
    assert!(stats.segments_created > 1, "no segment growth under churn");
    let segs = mesh.segment_stats();
    let ids: Vec<u64> = segs.iter().map(|s| s.id).collect();
    assert!(ids.iter().all(|&id| id < stats.segments_created));
    assert_eq!(
        ids.iter().collect::<HashSet<_>>().len(),
        ids.len(),
        "segment ids reused"
    );

    // Everything is free: a purge retires every non-initial segment.
    mesh.purge_dirty();
    let stats = mesh.stats();
    assert_eq!(stats.committed_pages, 0, "pages leaked");
    assert_eq!(stats.segment_count, 1, "only the initial segment survives");
    assert_eq!(
        stats.segments_retired,
        stats.segments_created - 1,
        "every growth segment retired"
    );
    assert_eq!(stats.mapped_bytes(), 1 << 20, "mapped footprint back to 1 MiB");
}

#[test]
fn live_set_32x_initial_segment_grows_meshes_and_retires() {
    // The acceptance scenario: a live set ≥ 32× the 1 MiB initial segment
    // completes with no exhaustion, meshing still reclaims pages within
    // the grown heap, and after everything is freed, retirement shrinks
    // the committed AND mapped footprints back down.
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .initial_segment_bytes(1 << 20)
            .segment_bytes(2 << 20)
            .seed(31)
            .mesh_period(Duration::from_secs(3600)), // only explicit passes
    )
    .unwrap();

    let initial_bytes = 1 << 20;
    let mut th = mesh.thread_heap();

    // 16 Ki × 2 KiB small objects (32 MiB) + 64 × 128 KiB large objects
    // (8 MiB) + one 4 MiB object that needs a dedicated oversized segment.
    let mut small: Vec<usize> = Vec::new();
    for _ in 0..16_384 {
        let p = th.malloc(2048);
        assert!(!p.is_null(), "growth must carry the live set");
        unsafe { std::ptr::write_bytes(p, 0xAB, 2048) };
        small.push(p as usize);
    }
    let large: Vec<usize> = (0..64)
        .map(|_| {
            let p = th.malloc(128 * 1024);
            assert!(!p.is_null());
            unsafe { std::ptr::write_bytes(p, 0xCD, 128 * 1024) };
            p as usize
        })
        .collect();
    let huge = th.malloc(4 << 20);
    assert!(!huge.is_null(), "oversized request gets a dedicated segment");

    let stats = mesh.stats();
    assert!(
        stats.live_bytes >= 32 * initial_bytes,
        "live set {} is not ≥ 32× the initial segment",
        stats.live_bytes
    );
    assert!(stats.segments_created > 16, "expected many growth segments");
    assert_eq!(stats.invalid_frees, 0);

    // Contents survived the growth and remapping traffic.
    assert_eq!(unsafe { *(small[0] as *const u8) }, 0xAB);
    assert_eq!(unsafe { *(large[63] as *const u8) }, 0xCD);

    // Fragment: keep every 8th small object, then mesh. Compaction must
    // still work inside a segmented heap.
    for (i, &p) in small.iter().enumerate() {
        if i % 8 != 0 {
            unsafe { th.free(p as *mut u8) };
        }
    }
    let survivors: Vec<usize> = small.iter().copied().step_by(8).collect();
    // Detach so the fragmented spans become mesh candidates.
    drop(th);
    let before = mesh.heap_bytes();
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 0, "meshing dead inside segments");
    assert!(
        mesh.heap_bytes() < before,
        "meshing did not reclaim pages ({before} -> {})",
        mesh.heap_bytes()
    );
    // Survivors are intact at their original addresses after meshing.
    for &p in &survivors {
        assert_eq!(unsafe { *(p as *const u8) }, 0xAB, "object lost in mesh");
    }

    // Free everything; retirement must shrink the committed footprint and
    // unmap the growth segments.
    for &p in &survivors {
        unsafe { mesh.free(p as *mut u8) };
    }
    for &p in &large {
        unsafe { mesh.free(p as *mut u8) };
    }
    unsafe { mesh.free(huge) };
    mesh.purge_dirty();

    let stats = mesh.stats();
    assert_eq!(stats.live_bytes, 0);
    assert_eq!(stats.committed_pages, 0, "committed footprint did not shrink");
    assert!(stats.segments_retired > 0, "no segment was retired");
    assert_eq!(stats.segment_count, 1, "growth segments still mapped");
    assert_eq!(
        stats.mapped_bytes(),
        initial_bytes,
        "mapped footprint did not shrink to the initial segment"
    );
    assert!(stats.heap_bytes() < stats.peak_heap_bytes() / 32);
}

#[test]
fn stale_frees_into_retired_ranges_are_discarded() {
    // A pointer whose segment has been retired must read as a wild free
    // (page map entry gone), never corrupt state or crash.
    let mesh = tiny_segment_heap(33);
    // Larger than the whole 1 MiB initial segment: must land in a
    // dedicated growth segment.
    let p = mesh.malloc(2 << 20);
    assert!(!p.is_null());
    let interior = unsafe { p.add(4096) };
    unsafe { mesh.free(p) };
    mesh.purge_dirty(); // retires the large object's segment
    let stats = mesh.stats();
    assert!(stats.segments_retired >= 1);
    // Both the base and an interior page of the retired range: discarded.
    unsafe { mesh.free(p) };
    unsafe { mesh.free(interior) };
    let stats = mesh.stats();
    assert_eq!(stats.invalid_frees, 2);
    assert_eq!(stats.double_frees, 0);
    // The heap still works, and the retired range is reusable.
    let q = mesh.malloc(2 << 20);
    assert!(!q.is_null());
    unsafe { mesh.free(q) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn soak_grow_retire_cycles() {
    // Long grow→drain→retire soak; opt in with MESH_SOAK=1.
    if std::env::var("MESH_SOAK").as_deref() != Ok("1") {
        eprintln!("soak_grow_retire_cycles: skipped (set MESH_SOAK=1 to run)");
        return;
    }
    let mesh = tiny_segment_heap(37);
    let mut created_last = 0;
    for round in 0..40u64 {
        let mut th = mesh.thread_heap();
        let mut ptrs: Vec<usize> = Vec::new();
        // ~24 MiB live per round, mixed small/large.
        for i in 0..6_000usize {
            let size = if i % 50 == 0 { 64 * 1024 } else { 3000 };
            let p = th.malloc(size);
            assert!(!p.is_null(), "round {round}: growth failed");
            unsafe { std::ptr::write_bytes(p, round as u8, size.min(128)) };
            ptrs.push(p as usize);
        }
        for (i, addr) in ptrs.iter().enumerate() {
            if i % 4 != 0 {
                unsafe { th.free(*addr as *mut u8) };
            }
        }
        drop(th);
        mesh.mesh_now();
        for (i, addr) in ptrs.iter().enumerate() {
            if i % 4 == 0 {
                unsafe { mesh.free(*addr as *mut u8) };
            }
        }
        let _ = mesh.stats();
        mesh.purge_dirty();
        let stats = mesh.stats();
        assert_eq!(stats.live_bytes, 0, "round {round}: leak");
        assert_eq!(stats.committed_pages, 0, "round {round}: pages leaked");
        assert_eq!(stats.segment_count, 1, "round {round}: retirement stalled");
        assert!(
            stats.segments_created > created_last,
            "round {round}: no growth happened"
        );
        created_last = stats.segments_created;
    }
    let stats = mesh.stats();
    assert_eq!(stats.segments_retired, stats.segments_created - 1);
    assert_eq!(stats.double_frees + stats.invalid_frees, 0);
}
