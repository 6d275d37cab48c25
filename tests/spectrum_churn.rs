//! Property test: `occupancy_spectrum()` stays coherent while worker
//! threads churn the heap.
//!
//! The spectrum walk holds one class shard lock at a time, so each
//! class's numbers must be internally consistent at the instant of its
//! walk no matter what the other threads are doing: every span of the
//! class sits in exactly one bin (or is attached), which makes the bin
//! totals equal the class's span count and `total_slots` exactly
//! `spans × object_count`. After the churn quiesces, the spectrum must
//! also reconcile with ground truth the test tracked itself: per-class
//! live-object counts and the heap's `live_bytes`. And the spectrum's
//! meshable-pairs estimate counts only the spans a pass would take.

use mesh::core::{Mesh, MeshConfig, SizeClass};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sizes that map to distinct small classes; churned in rotation.
const SIZES: [usize; 4] = [32, 64, 256, 1024];

fn churn_property(seed: u64) {
    let mesh = Arc::new(
        Mesh::new(
            MeshConfig::default()
                .arena_bytes(256 << 20)
                .seed(seed)
                .write_barrier(false),
        )
        .unwrap(),
    );
    let stop = Arc::new(AtomicBool::new(false));

    // Worker threads: allocate a few thousand objects, free most, loop.
    let workers: Vec<_> = (0..3)
        .map(|w| {
            let mesh = Arc::clone(&mesh);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut th = mesh.thread_heap();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let ptrs: Vec<usize> = (0..2048)
                        .map(|i| th.malloc(SIZES[(w + i) % SIZES.len()]) as usize)
                        .collect();
                    for (i, &p) in ptrs.iter().enumerate() {
                        if i % 8 != (w + rounds as usize) % 8 {
                            unsafe { th.free(p as *mut u8) };
                        }
                    }
                    // Survivors freed next round, keeping a rolling
                    // fragmented residue alive across snapshots.
                    for (i, &p) in ptrs.iter().enumerate() {
                        if i % 8 == (w + rounds as usize) % 8 {
                            unsafe { th.free(p as *mut u8) };
                        }
                    }
                    rounds += 1;
                }
            })
        })
        .collect();

    // Main thread: snapshot the spectrum repeatedly mid-churn and check
    // the per-class coherence contract on every snapshot.
    let mut snapshots = 0usize;
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(400);
    while std::time::Instant::now() < deadline {
        let spec = mesh.occupancy_spectrum();
        for class in SizeClass::all() {
            let c = &spec.classes[class.index()];
            if c.total_slots == 0 {
                continue;
            }
            // Bin totals equal live span counts: every span is in
            // exactly one bin (or attached), so slot capacity is exactly
            // spans × per-span object count.
            assert_eq!(
                c.total_slots,
                c.spans() * class.object_count() as u64,
                "seed {seed}: class {} bins disagree with span count: {c:?}",
                class.object_size()
            );
            assert!(
                c.live_objects <= c.total_slots,
                "seed {seed}: class {} holds more objects than slots: {c:?}",
                class.object_size()
            );
            // Full-bin spans alone cannot exceed the live count's slots.
            assert!(
                (c.bins[4] as u64) * class.object_count() as u64 <= c.live_objects,
                "seed {seed}: full bin overcounts: {c:?}"
            );
        }
        snapshots += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }
    assert!(snapshots > 0, "seed {seed}: no mid-churn snapshots taken");

    // Quiesced: everything the workers allocated was freed, so the
    // settled spectrum must carry zero live objects and reconcile with
    // the heap's own live-byte ledger. Freed objects parked in the
    // transfer cache still hold their bitmap bits (they pin spans until
    // purged), so run a mesh pass to flush them before the zero check.
    let stats = mesh.stats();
    assert_eq!(stats.live_bytes, 0, "seed {seed}");
    mesh.mesh_now();
    let spec = mesh.occupancy_spectrum();
    let live: u64 = spec.classes.iter().map(|c| c.live_objects).sum();
    assert_eq!(live, 0, "seed {seed}: settled spectrum shows live objects");
    for class in SizeClass::all() {
        let c = &spec.classes[class.index()];
        if c.total_slots > 0 {
            assert_eq!(c.total_slots, c.spans() * class.object_count() as u64, "seed {seed}");
        }
    }
}

#[test]
fn spectrum_coherent_under_churn_seed_a() {
    churn_property(0xA11CE);
}

#[test]
fn spectrum_coherent_under_churn_seed_b() {
    churn_property(0xB0B);
}

#[test]
fn spectrum_coherent_under_churn_seed_c() {
    churn_property(0xC0FFEE);
}

/// One 256 B span keeps one live object and three are emptied by
/// non-local frees, which leave them for their class's next tidy. Empty
/// spans are destroyed, not meshed: neither the estimate nor a pass finds
/// a pair.
#[test]
fn estimate_skips_emptied_spans_like_a_pass() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(7)
            .write_barrier(false)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let class = SizeClass::for_size(256).unwrap();
    let mut th = mesh.thread_heap();
    let ptrs: Vec<*mut u8> = (0..4 * class.object_count()).map(|_| th.malloc(256)).collect();
    drop(th);
    for &p in &ptrs[1..] {
        unsafe { mesh.free(p) };
    }
    let c = mesh.occupancy_spectrum().classes[class.index()];
    assert_eq!((c.live_objects, c.spans()), (1, 4), "emptied spans not yet tidied: {c:?}");
    assert_eq!(c.est_meshable_pairs, 0, "{c:?}");
    assert_eq!(mesh.mesh_now().pairs_meshed, 0);
    unsafe { mesh.free(ptrs[0]) };
}
