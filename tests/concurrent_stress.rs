//! Concurrency stress tests: §4.3's lock-free fast path, §4.4.4's remote
//! frees, and §4.5.2's concurrent meshing under adversarial schedules.

mod support;

use mesh::core::{HardenPolicy, Mesh, MeshConfig, SizeClass};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::MeshingThread;

fn heap(seed: u64) -> Mesh {
    Mesh::new(MeshConfig::default().arena_bytes(1 << 30).seed(seed)).unwrap()
}

#[test]
fn producer_consumer_remote_frees() {
    // Producers allocate, consumers free other threads' pointers: every
    // consumer free takes the §4.4.4 global path.
    let mesh = heap(21);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let producers: Vec<_> = (0..3)
        .map(|t| {
            let mesh = mesh.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut heap = mesh.thread_heap();
                for i in 0..20_000usize {
                    let size = 16 + ((i * 37 + t * 13) % 1000);
                    let p = heap.malloc(size);
                    assert!(!p.is_null());
                    unsafe { std::ptr::write_bytes(p, 0x33, size.min(64)) };
                    tx.send(p as usize).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let consumer = {
        let mesh = mesh.clone();
        std::thread::spawn(move || {
            let mut heap = mesh.thread_heap();
            let mut count = 0u64;
            while let Ok(addr) = rx.recv() {
                unsafe { heap.free(addr as *mut u8) };
                count += 1;
            }
            count
        })
    };
    for p in producers {
        p.join().unwrap();
    }
    let freed = consumer.join().unwrap();
    assert_eq!(freed, 60_000);
    let stats = mesh.stats();
    assert_eq!(stats.mallocs, 60_000);
    assert_eq!(stats.frees, 60_000);
    assert_eq!(stats.live_bytes, 0);
    assert!(stats.remote_frees > 50_000, "consumer frees must be remote");
    assert_eq!(stats.double_frees, 0);
    assert_eq!(stats.invalid_frees, 0);
}

#[test]
fn concurrent_meshing_with_racing_writers_loses_nothing() {
    // The §4.5.2 write-barrier guarantee, asserted via counters: writers
    // increment disjoint u64 counters inside mesh candidates while the
    // main thread meshes continuously. Any lost write breaks the sum.
    //
    // Auto-meshing is disabled (huge period): on a slow machine the setup
    // frees can outlast the default 100ms rate limit, letting an automatic
    // pass consume the meshable pairs before the explicit mesh_now() calls
    // below get to race with the writers.
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(22)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let mut th = mesh.thread_heap();
    let all: Vec<usize> = (0..65_536)
        .map(|_| {
            let p = th.malloc(64);
            unsafe { std::ptr::write_bytes(p, 0, 64) };
            p as usize
        })
        .collect();
    let mut survivors = Vec::new();
    for (i, &p) in all.iter().enumerate() {
        if i % 8 == 0 {
            survivors.push(p);
        } else {
            unsafe { th.free(p as *mut u8) };
        }
    }
    let survivors = Arc::new(survivors);
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let writers: Vec<_> = (0..4usize)
        .map(|t| {
            let survivors = Arc::clone(&survivors);
            let stop = Arc::clone(&stop);
            let writes = Arc::clone(&writes);
            std::thread::spawn(move || {
                let mine: Vec<usize> =
                    survivors.iter().copied().skip(t).step_by(4).collect();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let addr = mine[i % mine.len()] as *mut u64;
                    unsafe { addr.write(addr.read() + 1) };
                    writes.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            })
        })
        .collect();

    let mut meshed_total = 0usize;
    for _ in 0..8 {
        meshed_total += mesh.mesh_now().pairs_meshed;
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert!(meshed_total > 100, "stress needs real meshing traffic");
    let sum: u64 = survivors
        .iter()
        .map(|&a| unsafe { (a as *const u64).read() })
        .sum();
    assert_eq!(
        sum,
        writes.load(Ordering::Relaxed),
        "writes lost during concurrent meshing"
    );
    for &p in survivors.iter() {
        unsafe { mesh.free(p as *mut u8) };
    }
}

#[test]
fn allocation_proceeds_while_meshing_hammers() {
    // §4.5.3: threads needing fresh spans wait on the global lock, but
    // allocation from attached spans proceeds; nothing deadlocks.
    let mesh = heap(23);
    let stop = Arc::new(AtomicBool::new(false));
    let mesher = {
        let mesh = mesh.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                mesh.mesh_now();
            }
        })
    };
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let mesh = mesh.clone();
            std::thread::spawn(move || {
                let mut heap = mesh.thread_heap();
                let mut live: Vec<(usize, usize)> = Vec::new();
                let mut rng = mesh::core::rng::Rng::with_seed(t);
                for _ in 0..30_000 {
                    if live.len() < 500 || rng.chance(1, 2) {
                        let size = 16 + rng.below(500) as usize;
                        let p = heap.malloc(size);
                        assert!(!p.is_null());
                        unsafe { std::ptr::write_bytes(p, 0x44, size.min(32)) };
                        live.push((p as usize, size));
                    } else {
                        let i = rng.below(live.len() as u32) as usize;
                        let (addr, _) = live.swap_remove(i);
                        unsafe { heap.free(addr as *mut u8) };
                    }
                }
                for (addr, _) in live {
                    unsafe { heap.free(addr as *mut u8) };
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    mesher.join().unwrap();
    let stats = mesh.stats();
    assert_eq!(stats.live_bytes, 0);
    assert_eq!(stats.double_frees, 0);
}

#[test]
fn thread_heap_drop_returns_spans_for_meshing() {
    let mesh = heap(24);
    let mut keepers: Vec<usize> = Vec::new();
    for t in 0..8 {
        let mesh = mesh.clone();
        let kept = std::thread::spawn(move || {
            let mut heap = mesh.thread_heap();
            let ptrs: Vec<usize> = (0..4096).map(|_| heap.malloc(256) as usize).collect();
            let mut kept = Vec::new();
            for (i, &p) in ptrs.iter().enumerate() {
                if i % 8 == t % 8 {
                    kept.push(p);
                } else {
                    unsafe { heap.free(p as *mut u8) };
                }
            }
            kept
            // heap drops here: all spans return to the global heap.
        })
        .join()
        .unwrap();
        keepers.extend(kept);
    }
    // All spans are detached now; meshing should compact across the
    // remains of all eight threads.
    let before = mesh.heap_bytes();
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 0, "no cross-thread meshing happened");
    assert!(mesh.heap_bytes() < before);
    for p in keepers {
        unsafe { mesh.free(p as *mut u8) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn sharded_heap_stress_distinct_classes_with_background_mesher() {
    // The sharded-heap acceptance test: N threads hammer *distinct* size
    // classes (their refills take disjoint class locks), a remote-free
    // thread frees other threads' pointers (atomic bitmap clears), and a
    // meshing thread runs passes the whole time. Afterwards
    // every free must be accounted for (no lost frees) and occupancy
    // accounting must be exactly zero.
    const CLASS_SIZES: [usize; 6] = [16, 48, 128, 320, 768, 2048];
    const OPS: usize = 30_000;
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(1 << 30)
            .seed(26)
            .mesh_period(Duration::from_millis(2)),
    )
    .unwrap();
    let mesher = MeshingThread::spawn(&mesh);
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let workers: Vec<_> = CLASS_SIZES
        .iter()
        .enumerate()
        .map(|(t, &size)| {
            let mesh = mesh.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut heap = mesh.thread_heap();
                let mut rng = mesh::core::rng::Rng::with_seed(t as u64);
                let mut live: Vec<usize> = Vec::new();
                for i in 0..OPS {
                    match i % 4 {
                        // Allocate and keep (freed locally later).
                        0 | 1 => {
                            let p = heap.malloc(size);
                            assert!(!p.is_null(), "class {size} exhausted");
                            unsafe { std::ptr::write_bytes(p, t as u8 + 1, size.min(32)) };
                            live.push(p as usize);
                        }
                        // Allocate and hand off for a remote free.
                        2 => {
                            let p = heap.malloc(size);
                            assert!(!p.is_null());
                            tx.send(p as usize).unwrap();
                        }
                        // Free one of our own (local fast path).
                        _ => {
                            if !live.is_empty() {
                                let idx = rng.below(live.len() as u32) as usize;
                                let addr = live.swap_remove(idx);
                                unsafe { heap.free(addr as *mut u8) };
                            }
                        }
                    }
                }
                for addr in live {
                    unsafe { heap.free(addr as *mut u8) };
                }
            })
        })
        .collect();
    drop(tx);
    let remote_freer = {
        let mesh = mesh.clone();
        std::thread::spawn(move || {
            let mut heap = mesh.thread_heap();
            let mut n = 0u64;
            while let Ok(addr) = rx.recv() {
                unsafe { heap.free(addr as *mut u8) };
                n += 1;
            }
            n
        })
    };
    for w in workers {
        w.join().unwrap();
    }
    let remote = remote_freer.join().unwrap();
    assert_eq!(remote as usize, CLASS_SIZES.len() * OPS.div_ceil(4));
    assert!(mesher.stop() > 0, "the meshing thread never ran");

    // Every free was settled when it returned.
    let stats = mesh.stats();
    assert_eq!(stats.mallocs, stats.frees, "lost frees: {stats:?}");
    assert_eq!(stats.live_bytes, 0, "occupancy accounting drifted");
    assert_eq!(stats.double_frees, 0);
    assert_eq!(stats.invalid_frees, 0);
    assert!(stats.remote_frees >= remote, "handed-off frees not counted as non-local");

    assert!(stats.mesh_passes > 0);

    // With everything freed and drained, a purge releases every page.
    mesh.purge_dirty();
    let _ = mesh.mesh_now();
    mesh.purge_dirty();
    assert_eq!(mesh.stats().committed_pages, 0, "pages leaked");
}

#[test]
fn mesh_handle_is_usable_from_many_threads_at_once() {
    let mesh = heap(25);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let mesh = mesh.clone();
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    let p = mesh.malloc(300);
                    assert!(!p.is_null());
                    unsafe { mesh.free(p) };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

/// Thread B frees into spans that sit in thread A's attached set while A
/// allocates from them. The bits B's frees clear must be re-claimed by
/// A's refills — no slot handed out twice, never a seventh span for six
/// spans' worth of live objects — and A's exit must hand every member
/// back.
#[test]
fn remote_frees_into_an_attached_set_are_reclaimed_at_refill() {
    const SIZE: usize = 512;
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(256 << 20)
            .seed(33)
            // No pass: the refill alone must find the slots B frees.
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let class = SizeClass::for_size(SIZE).unwrap();
    let per_span = class.object_count();
    let batch = 6 * per_span;
    let class_rows = move |mesh: &Mesh| {
        mesh.span_snapshots()
            .iter()
            .filter(|s| !s.large && s.object_size == class.object_size())
            .count()
    };
    // (address, id): B checks the id A stamped before freeing, so a slot
    // handed out while still live shows as a clobbered stamp.
    let (to_b, from_a) = std::sync::mpsc::sync_channel::<(usize, u64)>(batch);
    let (ack_to_a, ack_from_b) = std::sync::mpsc::channel::<()>();
    let b = {
        let mesh = mesh.clone();
        std::thread::spawn(move || {
            let mut heap = mesh.thread_heap();
            let mut freed = 0u64;
            while let Ok((addr, id)) = from_a.recv() {
                if addr == 0 {
                    // End of a lock-step batch: every free before this is
                    // visible to A's next refill. Let A go on.
                    ack_to_a.send(()).unwrap();
                    continue;
                }
                let (head, tail) = unsafe {
                    (
                        (addr as *const u64).read(),
                        ((addr + SIZE - 8) as *const u64).read(),
                    )
                };
                assert_eq!((head, tail), (id, !id), "slot at {addr:#x} handed out twice");
                unsafe { heap.free(addr as *mut u8) };
                freed += 1;
            }
            freed
        })
    };
    let a = {
        let mesh = mesh.clone();
        std::thread::spawn(move || {
            let mut heap = mesh.thread_heap();
            let mut next_id = 0u64;
            let mut alloc = |heap: &mut mesh::core::ThreadHeap| {
                let p = heap.malloc(SIZE) as usize;
                assert_ne!(p, 0);
                next_id += 1;
                unsafe {
                    (p as *mut u64).write(next_id);
                    ((p + SIZE - 8) as *mut u64).write(!next_id);
                }
                (p, next_id)
            };
            // Lock step: A fills six spans and keeps every fourth object;
            // B frees the rest, while A is still allocating. At most six
            // spans' worth is ever live, so every later round must be
            // served by six spans or fewer: first A's own frees, then the
            // slots its refills re-claim — in the members it kept, and in
            // the full ones it handed back. (A span B empties before A
            // gets back to it is destroyed; A then carves it anew.)
            let mut kept: Vec<(usize, u64)> = Vec::new();
            let mut freed_here = 0u64;
            for round in 0..20 {
                freed_here += kept.len() as u64;
                for (p, id) in kept.drain(..) {
                    let head = unsafe { (p as *const u64).read() };
                    assert_eq!(head, id, "kept object at {p:#x} clobbered");
                    unsafe { heap.free(p as *mut u8) };
                }
                // Those that sat in spans A had handed back went the
                // non-local way: their bits are clear before A refills.
                for i in 0..batch {
                    let obj = alloc(&mut heap);
                    if i % 4 == 0 {
                        kept.push(obj);
                    } else {
                        to_b.send(obj).unwrap();
                    }
                }
                assert!((1..=6).contains(&heap.attached_spans()), "round {round}");
                let rows = class_rows(&heap.mesh());
                assert!((1..=6).contains(&rows), "round {round}: {rows} spans for six spans' worth");
                to_b.send((0, 0)).unwrap();
                ack_from_b.recv().unwrap();
            }
            for obj in kept {
                to_b.send(obj).unwrap();
            }
            // Free running: B frees while A allocates from the same spans.
            for _ in 0..40 * batch {
                to_b.send(alloc(&mut heap)).unwrap();
            }
            assert!(heap.attached_spans() >= 1);
            (next_id, freed_here)
            // `heap` drops here: detach_all returns every member.
        })
    };
    let (allocated, freed_by_a) = a.join().unwrap();
    let freed_by_b = b.join().unwrap();
    assert_eq!(freed_by_a + freed_by_b, allocated);
    assert_eq!(allocated, (60 * batch) as u64);
    let s = mesh.stats();
    assert_eq!((s.mallocs, s.frees), (allocated, allocated));
    assert_eq!(s.live_bytes, 0);
    assert_eq!(s.double_frees + s.invalid_frees, 0);
    assert!(s.remote_frees >= freed_by_b, "B's frees all took the remote route");
    assert!(
        mesh.span_snapshots().iter().all(|s| !s.attached),
        "a member stayed attached after its thread exited"
    );
    // A's exit returned its unconsumed slots to their spans; nothing
    // holds a span (the purge sweeps what a free left to a lock holder).
    mesh.purge_dirty();
    assert_eq!(class_rows(&mesh), 0, "a returned span outlived its objects");
}

/// Hardened mode parks local frees in the quarantine with their slots
/// still claimed, spread over several members of the main handle's set.
/// `fork_prepare` completes them before it takes the locks, and the
/// retention rule then returns every member but the one it may keep.
#[test]
fn fork_prepare_quarantine_drain_returns_the_set_members() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(34)
            .harden_policy(HardenPolicy::Count),
    )
    .unwrap();
    let class = SizeClass::for_size(512).unwrap();
    let class_rows = |mesh: &Mesh| {
        mesh.span_snapshots()
            .iter()
            .filter(|s| !s.large && s.object_size == class.object_size())
            .count()
    };
    // Five spans, all kept attached: before each refill the handle frees
    // one object of every span it has filled (the fork protocol completes
    // the parked free) and takes the slot again, so it is drawing on them.
    let count = class.object_count();
    let mut ptrs: Vec<*mut u8> = Vec::new();
    for span in 0..5 {
        for member in 0..span {
            unsafe { mesh.free(ptrs[member * count]) };
        }
        mesh.fork_prepare().release_parent();
        for member in 0..span {
            ptrs[member * count] = mesh.malloc(512);
        }
        ptrs.extend((0..count).map(|_| mesh.malloc(512)));
    }
    assert_eq!(class_rows(&mesh), 5);
    let applied = mesh.stats().frees;
    assert_eq!(applied, 10);
    for &p in &ptrs {
        unsafe { mesh.free(p) };
    }
    let s = mesh.stats();
    assert_eq!(s.frees, applied, "every free is parked, none applied");
    assert_eq!(class_rows(&mesh), 5, "parked slots keep their spans");
    mesh.fork_prepare().release_parent();
    let s = mesh.stats();
    assert_eq!(s.frees, s.mallocs);
    assert_eq!(s.live_bytes, 0);
    assert_eq!(s.double_frees + s.invalid_frees, 0);
    assert!(s.harden_violations.iter().all(|&v| v == 0));
    assert!(class_rows(&mesh) <= 1, "{} spans still held", class_rows(&mesh));
}

/// The byte every position of object `id` holds: survivors are checked
/// against it, byte for byte, after the passes.
fn pattern(id: usize, at: usize) -> u8 {
    (id as u8).wrapping_mul(31).wrapping_add(at as u8) | 1
}

/// The free-vs-mesh handshake under load (DESIGN.md §3). Two threads free
/// a shuffled 88 % of 20 000 objects of three meshable classes — detached
/// spans, so every free is a lock-free bitmap clear — while a third runs
/// `mesh_now()` in a loop over exactly those spans and a fourth keeps
/// allocating from the same classes, attaching what the frees open up.
/// The freers go in bursts, each begun as a pass begins, so frees and
/// passes overlap by construction and not by luck of the scheduler. A
/// free can so meet every state of a pair: before the source's word is
/// taken, after, while the page map still names the source, and after the
/// id became a tombstone. Each must be applied exactly once, and no
/// survivor may lose a byte to a copy that raced a free.
#[test]
fn free_vs_mesh_handshake_under_stress() {
    const OBJECTS: usize = 20_000;
    const SIZES: [usize; 3] = [64, 240, 1000];
    for seed in [41u64, 42, 43] {
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(1 << 30)
                .seed(seed)
                // Only the mesher thread's passes: their number is the
                // point, not the timer's.
                .mesh_period(Duration::from_secs(3600)),
        )
        .unwrap();
        let start_pages = mesh.stats().committed_pages;
        let mut rng = mesh::core::rng::Rng::with_seed(seed);

        // The shadow table: (address, size) by object id. Filled from a
        // thread heap that is then dropped, so every span is detached.
        let mut setup = mesh.thread_heap();
        let objects: Vec<(usize, usize)> = (0..OBJECTS)
            .map(|id| {
                let size = SIZES[rng.below(3) as usize];
                let p = setup.malloc(size);
                assert!(!p.is_null());
                for at in 0..size {
                    unsafe { p.add(at).write(pattern(id, at)) };
                }
                (p as usize, size)
            })
            .collect();
        drop(setup);
        let mut order: Vec<usize> = (0..OBJECTS).collect();
        rng.shuffle(&mut order);
        let (doomed, survivors) = order.split_at(OBJECTS * 88 / 100);

        let freers_done = AtomicBool::new(false);
        let passes_begun = AtomicU64::new(0);
        std::thread::scope(|s| {
            let freers: Vec<_> = doomed
                .chunks(doomed.len().div_ceil(2))
                .map(|ids| {
                    let (mesh, objects, passes_begun) = (&mesh, &objects, &passes_begun);
                    s.spawn(move || {
                        let mut heap = mesh.thread_heap();
                        let mut seen = 0;
                        for burst in ids.chunks(ids.len().div_ceil(40)) {
                            while passes_begun.load(Ordering::Acquire) == seen {
                                std::thread::yield_now();
                            }
                            seen = passes_begun.load(Ordering::Acquire);
                            for &id in burst {
                                let (addr, size) = objects[id];
                                // Read through the address the application
                                // holds: it must survive any remap under it.
                                let last =
                                    unsafe { ((addr + size - 1) as *const u8).read_volatile() };
                                assert_eq!(last, pattern(id, size - 1), "object {id} damaged");
                                unsafe { heap.free(addr as *mut u8) };
                            }
                        }
                    })
                })
                .collect();
            s.spawn(|| {
                while !freers_done.load(Ordering::Acquire) {
                    passes_begun.fetch_add(1, Ordering::Release);
                    mesh.mesh_now();
                }
            });
            s.spawn(|| {
                // Keeps allocating from the same classes: its refills
                // attach the spans the frees open up, so spans leave and
                // re-enter the candidate lists throughout.
                let mut heap = mesh.thread_heap();
                let mut rng = mesh::core::rng::Rng::with_seed(seed ^ 0xa110c);
                let mut live: Vec<(usize, usize, usize)> = Vec::new();
                let mut next = OBJECTS;
                while !freers_done.load(Ordering::Acquire) {
                    let size = SIZES[rng.below(3) as usize];
                    let p = heap.malloc(size);
                    assert!(!p.is_null());
                    for at in 0..size {
                        unsafe { p.add(at).write(pattern(next, at)) };
                    }
                    live.push((p as usize, size, next));
                    next += 1;
                    if live.len() > 512 {
                        let (addr, size, id) = live.swap_remove(rng.below(512) as usize);
                        for at in 0..size {
                            let b = unsafe { ((addr + at) as *const u8).read() };
                            assert_eq!(b, pattern(id, at), "fresh object {id} damaged at {at}");
                        }
                        unsafe { heap.free(addr as *mut u8) };
                    }
                }
                for (addr, _, _) in live {
                    unsafe { heap.free(addr as *mut u8) };
                }
            });
            for f in freers {
                f.join().unwrap();
            }
            freers_done.store(true, Ordering::Release);
        });
        assert!(
            mesh.stats().spans_meshed > 0,
            "seed {seed}: no pair was meshed while the frees ran"
        );

        // Every survivor, byte for byte, at the address it always had.
        for &id in survivors {
            let (addr, size) = objects[id];
            for at in 0..size {
                let b = unsafe { ((addr + at) as *const u8).read() };
                assert_eq!(b, pattern(id, at), "seed {seed}: survivor {id} damaged at {at}");
            }
        }
        let s = mesh.stats();
        let live: usize = survivors
            .iter()
            .map(|&id| SizeClass::for_size(objects[id].1).unwrap().object_size())
            .sum();
        assert_eq!(s.live_bytes, live, "seed {seed}: a free was lost or applied twice");
        assert_eq!((s.double_frees, s.invalid_frees), (0, 0), "seed {seed}");

        for &id in survivors {
            unsafe { mesh.free(objects[id].0 as *mut u8) };
        }
        let s = mesh.stats();
        assert_eq!(s.live_bytes, 0, "seed {seed}");
        assert_eq!(s.mallocs, s.frees, "seed {seed}");
        assert_eq!((s.double_frees, s.invalid_frees), (0, 0), "seed {seed}");
        mesh.purge_dirty();
        assert_eq!(
            mesh.stats().committed_pages,
            start_pages,
            "seed {seed}: pages leaked (spans meshed so far: {})",
            s.spans_meshed
        );
    }
}
