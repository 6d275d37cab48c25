//! The heap's growth and shrinkage, now that the arena is one memory file
//! mapped once: the file's bump frontier rises under concurrent churn and
//! a live set of 44 MiB, the mapping stays one mapping through a 384 MiB
//! ramp, a purge brings the frontier and the file's pages back down, a
//! stale free into a range the frontier came down over is discarded, and
//! a terabyte cap constructs.
//!
//! The long soak loop at the bottom is gated behind `MESH_SOAK=1` so CI
//! can opt into it without taxing every local `cargo test`.

mod support;

use mesh::core::knobs::{self, Value};
use mesh::core::{Mesh, MeshConfig, Report, PAGE_SIZE};
use std::time::Duration;
use support::{arena_base, arena_mappings, report_text, JsonExt, MeshingThread, Parser};

#[test]
fn concurrent_growth_races_with_frees_and_meshing() {
    // N threads churn mixed sizes, so the frontier rises while spans are
    // handed out, freed from other threads and meshed by a meshing
    // thread. Afterwards: no lost frees, settled accounting, and a purge
    // brings the frontier all the way down.
    const THREADS: usize = 8;
    const OPS: usize = 20_000;
    const SIZES: [usize; 8] = [64, 192, 448, 1024, 2048, 4096, 8192, 100_000];
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .seed(27)
            .mesh_period(Duration::from_millis(2)),
    )
    .unwrap();

    let mesher = MeshingThread::spawn(&mesh);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let peak = std::thread::scope(|s| {
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
        // Every received pointer is a cross-thread free; the mapped
        // footprint read mid-churn never passes the cap, and its peak is
        // what the churn grew the frontier to (read after the churn, it
        // is whatever the last pass's purge left).
        let mesh2 = mesh.clone();
        let receiver = s.spawn(move || {
            let mut heap = mesh2.thread_heap();
            let mut peak = 0;
            while let Ok(addr) = rx.recv() {
                unsafe { heap.free(addr as *mut u8) };
                let mapped = mesh2.mapped_bytes();
                assert!(mapped <= 256 << 20);
                peak = peak.max(mapped);
            }
            peak
        });
        receiver.join().unwrap()
    });
    mesher.stop();

    let stats = mesh.stats();
    assert_eq!(stats.mallocs, (THREADS * OPS) as u64);
    assert_eq!(stats.mallocs, stats.frees, "lost frees: {stats:?}");
    assert_eq!(stats.live_bytes, 0, "occupancy accounting drifted");
    assert_eq!(stats.double_frees, 0);
    assert_eq!(stats.invalid_frees, 0);
    assert!(stats.remote_frees >= (THREADS * OPS / 16) as u64);
    assert!(peak > 1 << 20, "the frontier never rose");

    // Everything is free: a purge takes the frontier back to the start.
    mesh.purge_dirty();
    let stats = mesh.stats();
    assert_eq!(stats.committed_pages, 0, "pages leaked");
    assert_eq!(stats.mapped_bytes(), 0, "the frontier did not come down");
    assert_eq!(
        (
            stats.segment_count,
            stats.segments_created,
            stats.segments_retired
        ),
        (1, 1, 0)
    );
}

#[test]
fn live_set_ramp_grows_meshes_and_shrinks() {
    // A 44 MiB live set completes with no exhaustion, meshing still
    // reclaims pages within it, and after everything is freed a purge
    // shrinks the committed AND mapped footprints to nothing.
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .seed(31)
            .mesh_period(Duration::from_secs(3600)), // only explicit passes
    )
    .unwrap();
    let mut th = mesh.thread_heap();

    // 16 Ki × 2 KiB small objects (32 MiB) + 64 × 128 KiB large objects
    // (8 MiB) + one 4 MiB object.
    let mut small: Vec<usize> = Vec::new();
    for _ in 0..16_384 {
        let p = th.malloc(2048);
        assert!(!p.is_null(), "the file must carry the live set");
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
    assert!(!huge.is_null());

    let stats = mesh.stats();
    assert!(
        stats.live_bytes >= 44 << 20,
        "live set {}",
        stats.live_bytes
    );
    assert!(stats.mapped_bytes() >= stats.live_bytes);
    assert_eq!(stats.invalid_frees, 0);
    assert_eq!(unsafe { *(small[0] as *const u8) }, 0xAB);
    assert_eq!(unsafe { *(large[63] as *const u8) }, 0xCD);

    // Fragment: keep every 8th small object, then mesh.
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
    assert!(summary.pairs_meshed > 0, "nothing meshed");
    assert!(
        mesh.heap_bytes() < before,
        "meshing did not reclaim pages ({before} -> {})",
        mesh.heap_bytes()
    );
    for &p in &survivors {
        assert_eq!(unsafe { *(p as *const u8) }, 0xAB, "object lost in mesh");
    }

    for &p in survivors.iter().chain(&large) {
        unsafe { mesh.free(p as *mut u8) };
    }
    unsafe { mesh.free(huge) };
    mesh.purge_dirty();

    let stats = mesh.stats();
    assert_eq!(stats.live_bytes, 0);
    assert_eq!(
        stats.committed_pages, 0,
        "committed footprint did not shrink"
    );
    assert_eq!(stats.mapped_bytes(), 0, "mapped footprint did not shrink");
    assert!(stats.peak_heap_bytes() >= 44 << 20);
}

#[test]
fn stale_frees_into_retired_ranges_are_discarded() {
    // A pointer into a range the frontier came down over must read as a
    // wild free (page map entry gone), never corrupt state or crash.
    let mesh = Mesh::new(MeshConfig::default().max_heap_bytes(256 << 20).seed(33)).unwrap();
    let p = mesh.malloc(2 << 20);
    assert!(!p.is_null());
    let interior = unsafe { p.add(4096) };
    assert!(mesh.mapped_bytes() >= 2 << 20);
    unsafe { mesh.free(p) };
    // A large object goes back clean at once; at the top, it lowers the
    // frontier over its range.
    assert!(mesh.mapped_bytes() < 2 << 20, "{}", mesh.mapped_bytes());
    // Both the base and an interior page of the range: discarded.
    unsafe { mesh.free(p) };
    unsafe { mesh.free(interior) };
    let stats = mesh.stats();
    assert_eq!(stats.invalid_frees, 2);
    assert_eq!(stats.double_frees, 0);
    // The heap still works, and the range is reused.
    let q = mesh.malloc(2 << 20);
    assert_eq!(q, p, "the frontier hands the range out again");
    unsafe { mesh.free(q) };
    assert_eq!(mesh.stats().live_bytes, 0);
}

/// `bytes` of 1–16 KiB objects on `heap`, one large object of 64 KiB–1
/// MiB in every 64, each written whole with `touch`, else its first
/// 64 bytes; returns the objects.
fn ramp(heap: &mut mesh::core::ThreadHeap, bytes: usize, seed: u64, touch: bool) -> Vec<usize> {
    let mut rng = mesh::core::rng::Rng::with_seed(seed);
    let (mut total, mut objects) = (0, Vec::new());
    while total < bytes {
        let size = if objects.len() % 64 == 63 {
            (64 << 10) << rng.below(5)
        } else {
            1024 + rng.below(15 * 1024) as usize
        };
        let p = heap.malloc(size);
        assert!(!p.is_null(), "the ramp ran out at {total} bytes");
        unsafe { std::ptr::write_bytes(p, 0x5A, if touch { size } else { 64 }) };
        objects.push(p as usize);
        total += size;
    }
    objects
}

/// `file_bytes` of the heap's `sense` document: what its file holds.
fn file_bytes(mesh: &Mesh) -> u64 {
    let json = report_text(mesh, Report::Sense).expect("sensing is always on");
    Parser::parse(&json)
        .get("residency")
        .get("file_bytes")
        .num()
}

#[test]
fn the_arena_is_one_mapping_through_a_ramp() {
    const CAP: usize = 1 << 30;
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(CAP)
            .seed(35)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let base = arena_base(&mesh);
    assert_eq!(arena_mappings(base, CAP).len(), 1, "one file, mapped once");
    let mut heap = mesh.thread_heap();
    let objects = ramp(&mut heap, 384 << 20, 35, false);
    assert!(mesh.mapped_bytes() >= 384 << 20);
    assert_eq!(
        arena_mappings(base, CAP).len(),
        1,
        "a ramp maps nothing new"
    );
    for p in objects {
        unsafe { heap.free(p as *mut u8) };
    }
}

#[test]
fn a_ramp_and_its_trough_give_the_files_pages_back() {
    // 32 → 384 → 32 MiB with a purge at the trough: the file holds what
    // it held before the ramp, give or take one span of the ramp's
    // largest (1 MiB) — what retiring the ramp's segments once gave back,
    // with no segment. The slack is the free slots of the base set's
    // partial spans, which the ramp wrote into and which stay live.
    let mesh = Mesh::new(
        MeshConfig::default()
            .max_heap_bytes(1 << 30)
            .seed(37)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let mut heap = mesh.thread_heap();
    let base = ramp(&mut heap, 32 << 20, 37, true);
    drop(heap);
    mesh.purge_dirty();
    let (start, mapped) = (file_bytes(&mesh), mesh.mapped_bytes());
    assert!(start >= 32 << 20, "{start}");

    let mut heap = mesh.thread_heap();
    let peak = ramp(&mut heap, 352 << 20, 38, true);
    assert!(file_bytes(&mesh) >= start + (352 << 20));
    for p in peak {
        unsafe { heap.free(p as *mut u8) };
    }
    drop(heap);
    mesh.purge_dirty();
    let trough = file_bytes(&mesh);
    let span = 256 * PAGE_SIZE as u64;
    assert!(
        trough <= start + span,
        "{trough} held at the trough, {start} before the ramp"
    );
    assert!(
        mesh.mapped_bytes() <= mapped + span as usize,
        "the frontier stayed up: {} mapped, {mapped} before the ramp",
        mesh.mapped_bytes()
    );
    for p in base {
        unsafe { mesh.free(p as *mut u8) };
    }
}

#[test]
fn a_terabyte_cap_constructs() {
    let row = knobs::find("max_heap_bytes").unwrap();
    assert_eq!(knobs::parse(row, "1T"), Ok(Value::Num(1 << 40)));
    let mesh = Mesh::new(MeshConfig::default().max_heap_bytes(1 << 40)).unwrap();
    let p = mesh.malloc(1 << 20);
    assert!(!p.is_null());
    unsafe { std::ptr::write_bytes(p, 1, 1 << 20) };
    assert_eq!(
        mesh.mapped_bytes(),
        1 << 20,
        "the file is used from its start"
    );
    unsafe { mesh.free(p) };
}

#[test]
fn soak_grow_retire_cycles() {
    // Long grow → drain → shrink soak; opt in with MESH_SOAK=1.
    if std::env::var("MESH_SOAK").as_deref() != Ok("1") {
        eprintln!("soak_grow_retire_cycles: skipped (set MESH_SOAK=1 to run)");
        return;
    }
    let mesh = Mesh::new(MeshConfig::default().max_heap_bytes(256 << 20).seed(37)).unwrap();
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
        mesh.purge_dirty();
        let stats = mesh.stats();
        assert_eq!(stats.live_bytes, 0, "round {round}: leak");
        assert_eq!(stats.committed_pages, 0, "round {round}: pages leaked");
        assert_eq!(
            stats.mapped_bytes(),
            0,
            "round {round}: the frontier stayed up"
        );
    }
    let stats = mesh.stats();
    assert_eq!(stats.double_frees + stats.invalid_frees, 0);
}
