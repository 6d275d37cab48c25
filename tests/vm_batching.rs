//! VM operations in runs, seen from outside (DESIGN.md §2a, §3): a batch
//! punches adjacent sources' file ranges with one call, identity restores
//! give the kernel its mappings back, a parked alias reaches nobody
//! before its identity is restored, and a free that loses its bit to a
//! batch finds its object in the destination.

mod support;

use mesh::core::{Mesh, MeshConfig, TimedOp, PAGE_SIZE};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::time::Duration;
use support::{arena_base, arena_mappings};

/// A heap whose only passes are the explicit ones.
fn heap(seed: u64, arena_bytes: usize) -> Mesh {
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(arena_bytes)
            .initial_segment_bytes(arena_bytes)
            .seed(seed)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap()
}

/// Allocates `n` objects of `size` on a thread heap of their own, fills
/// each with a tag and frees all but every `keep`-th; returns the
/// survivors and their tags. Every span is detached afterwards.
fn fragment(mesh: &Mesh, n: usize, size: usize, keep: usize) -> Vec<(*mut u8, u8)> {
    let mut th = mesh.thread_heap();
    let ptrs: Vec<*mut u8> = (0..n).map(|_| th.malloc(size)).collect();
    let mut kept = Vec::new();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        if i % keep == 0 {
            let tag = (i / keep % 251) as u8 + 1;
            unsafe { std::ptr::write_bytes(p, tag, size) };
            kept.push((p, tag));
        } else {
            unsafe { th.free(p) };
        }
    }
    kept
}

fn assert_intact(kept: &[(*mut u8, u8)], size: usize) {
    for &(p, tag) in kept {
        unsafe { assert_eq!((*p, *p.add(size - 1)), (tag, tag), "object at {p:?}") };
    }
}

#[test]
fn a_batch_of_adjacent_sources_is_punched_with_one_call() {
    const SIZE: usize = 64;
    const SLOTS: usize = PAGE_SIZE / SIZE;
    const PAIRS: usize = 64;
    let mesh = heap(41, 64 << 20);
    let base = arena_base(&mesh);
    // 128 one-page spans, carved in address order after page 0. The
    // first 64 keep slot 10, the others slots 20 and 21: spans of a kind
    // overlap each other, any two of different kinds mesh, and the
    // one-object span is the source.
    let mut th = mesh.thread_heap();
    let ptrs: Vec<*mut u8> = (0..2 * PAIRS * SLOTS).map(|_| th.malloc(SIZE)).collect();
    let mut kept = Vec::new();
    for &p in &ptrs {
        let offset = p as usize - base - PAGE_SIZE;
        let (page, slot) = (offset / PAGE_SIZE, offset % PAGE_SIZE / SIZE);
        assert!(page < 2 * PAIRS, "spans are carved in address order");
        if (page < PAIRS && slot == 10) || (page >= PAIRS && (slot == 20 || slot == 21)) {
            unsafe { std::ptr::write_bytes(p, page as u8 + 1, SIZE) };
            kept.push((p, page as u8 + 1));
        } else {
            unsafe { th.free(p) };
        }
    }
    assert_eq!(kept.len(), 3 * PAIRS);
    drop(th);

    let before = mesh.stats().latency;
    let summary = mesh.mesh_now();
    let after = mesh.stats().latency;
    assert_eq!(summary.pairs_meshed, PAIRS);
    assert_eq!(
        summary.bytes_copied,
        PAIRS * SIZE,
        "the one-object spans were the sources"
    );
    let calls = |op| after.count(op) - before.count(op);
    assert_eq!(
        calls(TimedOp::Madvise),
        1,
        "64 adjacent file ranges, one release"
    );
    assert_eq!(calls(TimedOp::MeshCopy), 1, "one barrier window");
    assert_intact(&kept, SIZE);
    for (p, _) in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn identity_restores_give_the_kernel_its_mappings_back() {
    const ARENA: usize = 64 << 20;
    let mesh = heap(42, ARENA);
    let base = arena_base(&mesh);
    let kept = fragment(&mesh, 16384, 256, 8);
    let unmeshed = arena_mappings(base, ARENA).len();
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 100, "{summary:?}");
    let meshed = arena_mappings(base, ARENA).len();
    assert!(
        meshed > unmeshed + summary.pairs_meshed / 2,
        "{unmeshed} -> {meshed}"
    );
    assert_intact(&kept, 256);
    for (p, _) in kept {
        unsafe { mesh.free(p) };
    }
    mesh.purge_dirty();
    assert_eq!(
        arena_mappings(base, ARENA).len(),
        unmeshed,
        "dead aliases left their mappings behind"
    );
}

#[test]
fn a_parked_alias_is_never_handed_out_unrestored() {
    const ARENA: usize = 2 << 20;
    const SIZE: usize = 256;
    let mesh = heap(43, ARENA);
    let base = arena_base(&mesh);
    let kept = fragment(&mesh, 4096, SIZE, 8);
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 20, "{summary:?}");
    // The meshed MiniHeaps die at the refills below, which park their
    // aliases; nothing purges before the arena has run out of clean and
    // then of fresh pages, so every page of it is handed out again.
    for (p, _) in kept {
        unsafe { mesh.free(p) };
    }
    let mut objects = Vec::new();
    loop {
        let p = mesh.malloc(SIZE);
        if p.is_null() {
            break;
        }
        let id = objects.len() as u64;
        unsafe {
            (p as *mut u64).write(id);
            (p.add(SIZE - 8) as *mut u64).write(!id);
        }
        objects.push(p);
    }
    let pages: std::collections::BTreeSet<usize> = objects
        .iter()
        .map(|&p| (p as usize - base) / PAGE_SIZE)
        .collect();
    assert_eq!(
        pages.len(),
        ARENA / PAGE_SIZE - 1,
        "the arena was not exhausted"
    );

    // Each object is where its address says it is in the segment's file:
    // no span still shows another span's pages.
    let inode = arena_mappings(base, ARENA)[0];
    let fd = std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .find(|path| std::fs::metadata(path).is_ok_and(|m| m.ino() == inode))
        .expect("the arena's file is open");
    let file = std::fs::File::open(fd).unwrap();
    for (id, &p) in objects.iter().enumerate() {
        let mut bytes = [0u8; SIZE];
        file.read_exact_at(&mut bytes, (p as usize - base) as u64)
            .unwrap();
        let head = u64::from_ne_bytes(bytes[..8].try_into().unwrap());
        let tail = u64::from_ne_bytes(bytes[SIZE - 8..].try_into().unwrap());
        assert_eq!(
            (head, tail),
            (id as u64, !(id as u64)),
            "object {id} at {p:?}"
        );
        unsafe { assert_eq!((p as *const u64).read(), id as u64) };
    }
    for p in objects {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn frees_that_race_a_batch_land_on_the_destinations() {
    const SIZE: usize = 128;
    for round in 0..6 {
        let mesh = heap(50 + round, 64 << 20);
        let kept = fragment(&mesh, 32768, SIZE, 8);
        // A third of the survivors go while the pass runs, from two
        // threads released together with it: some of their frees find
        // the bit taken, wait for the batch and follow the page map.
        let (racing, survivors): (Vec<_>, Vec<_>) =
            kept.iter().enumerate().partition(|(i, _)| i % 3 == 0);
        let racing: Vec<usize> = racing.into_iter().map(|(_, &(p, _))| p as usize).collect();
        let survivors: Vec<(*mut u8, u8)> = survivors.into_iter().map(|(_, &k)| k).collect();
        let frees_before = mesh.stats().frees;
        let start = std::sync::Barrier::new(3);
        let summary = std::thread::scope(|s| {
            for share in racing.chunks(racing.len().div_ceil(2)) {
                let (mesh, start) = (&mesh, &start);
                s.spawn(move || {
                    let mut th = mesh.thread_heap();
                    start.wait();
                    for &p in share {
                        unsafe { th.free(p as *mut u8) };
                    }
                });
            }
            start.wait();
            mesh.mesh_now()
        });
        assert!(summary.pairs_meshed > 100, "round {round}: {summary:?}");
        let stats = mesh.stats();
        assert_eq!(
            stats.frees - frees_before,
            racing.len() as u64,
            "round {round}"
        );
        assert_eq!(
            (stats.double_frees, stats.invalid_frees),
            (0, 0),
            "round {round}"
        );
        assert_eq!(stats.live_bytes, survivors.len() * SIZE);
        assert_intact(&survivors, SIZE);
        mesh.purge_dirty();
        let in_use: usize = mesh.span_snapshots().iter().map(|s| s.in_use).sum();
        assert_eq!(
            in_use,
            survivors.len(),
            "round {round}: a free missed its bit"
        );
        for (p, _) in survivors {
            unsafe { mesh.free(p) };
        }
        assert_eq!(mesh.stats().live_bytes, 0);
    }
}
