//! End-to-end meshing correctness: the §4.5 machinery validated through
//! the public API, including theory cross-validation against §5.

use mesh::core::json::Json;
use mesh::core::{Mesh, MeshConfig, RejectReason, Report, SpanSnapshot};
use mesh::graph::matching::greedy_matching;
use mesh::graph::probability::mesh_probability;
use mesh::graph::MeshGraph;
use mesh::graph::SpanString;

fn heap(seed: u64) -> Mesh {
    // A huge mesh period disables the auto-trigger: these tests measure
    // *explicit* passes, and a rate-limited background pass firing during
    // a slow parallel test run would skew their before/after numbers.
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(512 << 20)
            .seed(seed)
            .mesh_period(std::time::Duration::from_secs(3600)),
    )
    .unwrap()
}

/// Fragment: allocate `n` objects of `size`, keep every `keep`-th.
fn fragment(mesh: &Mesh, n: usize, size: usize, keep: usize) -> Vec<*mut u8> {
    let ptrs: Vec<*mut u8> = (0..n).map(|_| mesh.malloc(size)).collect();
    let mut kept = Vec::new();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        unsafe { std::ptr::write_bytes(p, (i % 250) as u8 + 1, size) };
        if i % keep == 0 {
            kept.push(p);
        } else {
            unsafe { mesh.free(p) };
        }
    }
    kept
}

#[test]
fn repeated_meshing_converges_and_preserves_data() {
    let mesh = heap(10);
    let kept = fragment(&mesh, 32768, 256, 8);
    let expected: Vec<u8> = (0..32768)
        .filter(|i| i % 8 == 0)
        .map(|i| (i % 250) as u8 + 1)
        .collect();
    let mut last = mesh.heap_bytes();
    for pass in 0..5 {
        let summary = mesh.mesh_now();
        let now = mesh.heap_bytes();
        assert!(now <= last, "pass {pass} grew the heap");
        last = now;
        // Data survives every pass.
        for (&p, &fill) in kept.iter().zip(&expected) {
            unsafe {
                assert_eq!(*p, fill, "pass {pass} corrupted an object");
                assert_eq!(*p.add(255), fill);
            }
        }
        if summary.pairs_meshed == 0 {
            break;
        }
    }
    for p in kept {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

/// A scaled `frag_mesh` (see `mesh-bench`): fill with 256 B objects, free
/// a random 88 %, and run three passes on a second thread, each beside a
/// mutator churning a small window; then the same with 512 B objects on
/// top of the survivors. Passes return what they free: the heap ends
/// within a small factor of what is live with under `min_mesh_gain_bytes`
/// left dirty, and passes over the quiet heap after that purge nothing.
#[test]
fn fragmented_phases_end_compact_and_quiet_passes_purge_nothing() {
    const PHASE_BYTES: usize = 4 << 20;
    const CHURN_WINDOW: usize = 256;
    const CHURN_STEPS: usize = 2_000;
    let mesh = heap(18);
    let mut th = mesh.thread_heap();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    // (object, size, fill byte)
    let mut survivors: Vec<(*mut u8, usize, u8)> = Vec::new();
    let mut churn = vec![std::ptr::null_mut::<u8>(); CHURN_WINDOW];
    for size in [256, 512] {
        let objects: Vec<*mut u8> = (0..PHASE_BYTES / size)
            .map(|i| {
                let p = th.malloc(size);
                assert!(!p.is_null());
                unsafe { std::ptr::write_bytes(p, (i % 251) as u8, size) };
                p
            })
            .collect();
        let mut order: Vec<usize> = (0..objects.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, below(i + 1));
        }
        let (freed, kept) = order.split_at(objects.len() * 88 / 100);
        for &i in freed {
            unsafe { th.free(objects[i]) };
        }
        survivors.extend(kept.iter().map(|&i| (objects[i], size, (i % 251) as u8)));
        for _ in 0..3 {
            std::thread::scope(|s| {
                s.spawn(|| mesh.mesh_now());
                for _ in 0..CHURN_STEPS {
                    let slot = below(CHURN_WINDOW);
                    unsafe { th.free(churn[slot]) };
                    churn[slot] = th.malloc(size);
                }
            });
        }
    }

    // Measured 1.59–1.63; 4.0, with 1.4 MiB dirty, when a pass purged only
    // once per mesh period and a physical span took three aliases.
    let live = mesh.stats().live_bytes;
    let frag_ratio = mesh.heap_bytes() as f64 / live as f64;
    assert!(
        frag_ratio < 2.0,
        "heap {} B for {live} B live",
        mesh.heap_bytes()
    );
    let sense = mesh.report(Report::Sense).expect("sensing is always on");
    let dirty = Json::parse(std::str::from_utf8(&sense).unwrap())
        .ok()
        .and_then(|doc| doc.field("residency")?.field("free_dirty_bytes")?.as_f64())
        .expect("the render's residency") as u64;
    assert!(dirty < 1 << 20, "{dirty} dirty bytes after the last pass");
    for &(p, size, fill) in &survivors {
        let object = unsafe { std::slice::from_raw_parts(p, size) };
        assert!(object.iter().all(|&b| b == fill), "a survivor changed");
    }
    // The mapping budget is tens of thousands of aliases: it stops no
    // pass here, and no VM call was refused.
    let refused = mesh.ledger_reject_totals();
    assert_eq!(refused[RejectReason::AliasBudget as usize], 0);
    assert_eq!(refused[RejectReason::CopyAbort as usize], 0);
    let purges = mesh.stats().dirty_purges;
    for _ in 0..100 {
        mesh.mesh_now();
    }
    assert_eq!(mesh.stats().dirty_purges, purges, "a quiet pass purged");

    for p in survivors.into_iter().map(|(p, ..)| p).chain(churn) {
        unsafe { th.free(p) };
    }
    drop(th);
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn meshed_spans_report_multiple_aliases_and_die_cleanly() {
    let mesh = heap(11);
    let kept = fragment(&mesh, 8192, 128, 16);
    let summary = mesh.mesh_now();
    let snaps = mesh.span_snapshots();
    let meshed: Vec<&SpanSnapshot> =
        snaps.iter().filter(|s| s.virtual_span_count > 1).collect();
    // 256 spans of 32 slots, two objects in each: one pass folds 230 of
    // them into 24 destinations, each folded source one more alias of its
    // destination, up to 15 spans sharing one (exact first fit fills the
    // lowest destination first; with this seed's slots, taken in address
    // order, no destination fills all 32).
    assert_eq!(summary.pairs_meshed, 230, "{summary:?}");
    assert_eq!(meshed.len(), 24, "{meshed:?}");
    let folded: usize = meshed.iter().map(|s| s.virtual_span_count - 1).sum();
    assert_eq!(folded, summary.pairs_meshed);
    assert_eq!(meshed.iter().map(|s| s.virtual_span_count).max(), Some(15));
    // Free every survivor: all MiniHeaps must die, identity mappings
    // restored, and the whole footprint collapse.
    for p in kept {
        unsafe { mesh.free(p) };
    }
    mesh.purge_dirty();
    let snaps = mesh.span_snapshots();
    assert!(
        snaps.iter().all(|s| s.attached || s.in_use > 0 || s.large),
        "dead MiniHeaps survived: {snaps:?}"
    );
    assert_eq!(mesh.stats().live_bytes, 0);
}

#[test]
fn no_rand_heap_with_regular_pattern_cannot_mesh() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(256 << 20)
            .seed(12)
            .randomize(false),
    )
    .unwrap();
    let kept = fragment(&mesh, 16384, 256, 16);
    let summary = mesh.mesh_now();
    assert_eq!(
        summary.pairs_meshed, 0,
        "identical survivor offsets must be unmeshable (§6.3)"
    );
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn empirical_mesh_rate_matches_closed_form() {
    // Cross-validate §5.2's probability model against REAL heap bitmaps:
    // build spans at ~1/16 occupancy, snapshot them, and compare the
    // pairwise mesh rate with q = C(b−r, r)/C(b, r).
    let mesh = heap(13);
    let kept = fragment(&mesh, 65536, 256, 16);
    let snaps: Vec<SpanSnapshot> = mesh
        .span_snapshots()
        .into_iter()
        .filter(|s| !s.attached && !s.large && s.in_use > 0 && s.object_count == 16)
        .collect();
    assert!(snaps.len() > 100);
    // For each pair, compare the observed meshability rate against the
    // closed form for that pair's actual occupancies: if randomized
    // allocation really scatters objects uniformly, the rates agree.
    let mut pairs = 0usize;
    let mut meshable = 0usize;
    let mut predicted = 0.0f64;
    for i in 0..snaps.len().min(400) {
        for j in (i + 1)..snaps.len().min(400) {
            pairs += 1;
            if snaps[i].meshes_with(&snaps[j]) {
                meshable += 1;
            }
            predicted += mesh_probability(16, snaps[i].in_use, snaps[j].in_use);
        }
    }
    let empirical = meshable as f64 / pairs as f64;
    let predicted = predicted / pairs as f64;
    assert!(
        (empirical - predicted).abs() < 0.1,
        "empirical mesh rate {empirical:.3} vs occupancy-mixture closed form {predicted:.3}"
    );
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn splitmesher_quality_tracks_graph_matching_on_real_bitmaps() {
    // Extract real span strings from a fragmented heap, compute the
    // graph-theoretic greedy matching, and check the allocator's actual
    // pass released a comparable number of pages.
    let mesh = heap(14);
    let kept = fragment(&mesh, 32768, 512, 8);
    let snaps: Vec<SpanSnapshot> = mesh
        .span_snapshots()
        .into_iter()
        .filter(|s| !s.attached && !s.large && s.in_use > 0 && s.object_size == 512)
        .collect();
    let strings: Vec<SpanString> = snaps
        .iter()
        .map(|s| {
            let mut str = SpanString::zeros(s.object_count);
            for bit in 0..s.object_count {
                if s.bitmap_words[bit / 64] & (1 << (bit % 64)) != 0 {
                    str.set(bit);
                }
            }
            str
        })
        .collect();
    let g = MeshGraph::from_strings(strings);
    let graph_matching = greedy_matching(&g).len();
    let summary = mesh.mesh_now();
    assert!(
        summary.pairs_meshed * 2 >= graph_matching / 2,
        "allocator found {} pairs, graph greedy found {}",
        summary.pairs_meshed,
        graph_matching
    );
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn meshing_disabled_is_truly_inert() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(128 << 20)
            .seed(15)
            .meshing(false),
    )
    .unwrap();
    let kept = fragment(&mesh, 16384, 256, 8);
    let before = mesh.heap_bytes();
    let summary = mesh.mesh_now();
    assert_eq!(summary.pairs_meshed, 0);
    assert_eq!(mesh.heap_bytes(), before);
    assert_eq!(mesh.stats().mesh_passes, 0);
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn runtime_reenabling_meshing_works() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(128 << 20)
            .seed(16)
            .meshing(false),
    )
    .unwrap();
    let kept = fragment(&mesh, 16384, 256, 8);
    assert_eq!(mesh.mesh_now().pairs_meshed, 0);
    // The mallctl analog (§4.5): flip meshing on at runtime.
    mesh.set_meshing_enabled(true);
    let summary = mesh.mesh_now();
    assert!(summary.pairs_meshed > 0, "meshing did not wake up");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

#[test]
fn large_objects_bypass_meshing_entirely() {
    let mesh = heap(17);
    let big: Vec<*mut u8> = (0..64).map(|_| mesh.malloc(100_000)).collect();
    for (i, &p) in big.iter().enumerate() {
        if i % 2 == 0 {
            unsafe { mesh.free(p) };
        }
    }
    let summary = mesh.mesh_now();
    assert_eq!(summary.pairs_meshed, 0, "large singletons must never mesh");
    let snaps = mesh.span_snapshots();
    assert!(snaps.iter().filter(|s| s.large).all(|s| s.virtual_span_count == 1));
    for (i, &p) in big.iter().enumerate() {
        if i % 2 == 1 {
            unsafe { mesh.free(p) };
        }
    }
}
