//! Property-based tests on the core data structures and the allocator's
//! end-to-end invariants.
//!
//! The offline build has no `proptest`, so these are deterministic
//! seeded-RNG property loops: each property runs `CASES` randomized cases
//! drawn from the repo's own xoshiro256++ [`Rng`], with the failing seed
//! printed by the assertion context. Coverage matches the original
//! proptest suite property-for-property.

mod support;

use mesh::core::bitmap::AtomicBitmap;
use mesh::core::miniheap::MiniHeapId;
use mesh::core::rng::Rng;
use mesh::core::shuffle_vector::ShuffleVector;
use mesh::core::{Mesh, MeshConfig, SizeClass};
use mesh::graph::clique_cover::{greedy_cover, is_valid_cover};
use mesh::graph::matching::{greedy_matching, is_valid_matching, maximum_matching_size};
use mesh::graph::split_mesher::split_mesher;
use mesh::graph::{MeshGraph, SpanString};
use std::collections::HashSet;
use support::MeshingThread;

const CASES: u64 = 64;

/// Derives a per-case generator: deterministic, independent across cases.
fn case_rng(test_id: u64, case: u64) -> Rng {
    Rng::with_seed(test_id ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A shuffle vector over any span shape hands out every offset exactly
/// once, in some permutation.
#[test]
fn shuffle_vector_is_a_permutation() {
    for case in 0..CASES {
        let mut gen = case_rng(0x51, case);
        let count = 1 + gen.below(256) as usize;
        let mut rng = Rng::with_seed(gen.next_u64());
        let bitmap = AtomicBitmap::new(count);
        let mut sv = ShuffleVector::new(true);
        sv.attach(
            MiniHeapId::from_raw(1),
            0x10000,
            4096,
            count,
            4096 / count.max(1),
            &bitmap,
            &mut rng,
        );
        let mut seen = HashSet::new();
        while let Some(a) = sv.malloc() {
            assert!(seen.insert(a), "duplicate address (case {case})");
        }
        assert_eq!(seen.len(), count, "case {case}");
    }
}

/// Interleaved frees keep the offset set consistent: what goes back in
/// comes back out exactly once.
#[test]
fn shuffle_vector_free_reuse() {
    for case in 0..CASES {
        let mut gen = case_rng(0x52, case);
        let count = 2 + gen.below(255) as usize;
        let ops: Vec<u16> = (0..1 + gen.below(199))
            .map(|_| gen.next_u64() as u16)
            .collect();
        let mut rng = Rng::with_seed(gen.next_u64());
        let bitmap = AtomicBitmap::new(count);
        let mut sv = ShuffleVector::new(true);
        sv.attach(
            MiniHeapId::from_raw(1),
            0x10000,
            4096,
            count,
            4096 / count,
            &bitmap,
            &mut rng,
        );
        let mut live: Vec<usize> = Vec::new();
        for op in ops {
            if op % 3 != 0 || live.is_empty() {
                if let Some(a) = sv.malloc() {
                    assert!(!live.contains(&a), "live address re-issued (case {case})");
                    live.push(a);
                }
            } else {
                let a = live.swap_remove(op as usize % live.len());
                unsafe { sv.free(a, &mut rng) };
            }
        }
        // Drain: total live + drained == count.
        let mut drained = 0usize;
        while sv.malloc().is_some() {
            drained += 1;
        }
        assert_eq!(live.len() + drained, count, "case {case}");
    }
}

/// The meshability predicate agrees between strings and raw popcount.
#[test]
fn mesh_predicate_equals_dot_product() {
    for case in 0..CASES {
        let mut gen = case_rng(0x53, case);
        let len = 1 + gen.below(256) as usize;
        let bits = |gen: &mut Rng| -> Vec<usize> {
            (0..gen.below(64)).map(|_| gen.below(len as u32) as usize).collect()
        };
        let a = SpanString::from_bits(len, &bits(&mut gen));
        let b = SpanString::from_bits(len, &bits(&mut gen));
        let dot: usize = (0..len).filter(|&i| a.get(i) && b.get(i)).count();
        assert_eq!(a.meshes_with(&b), dot == 0, "case {case}");
        assert_eq!(a.meshes_with(&b), b.meshes_with(&a), "case {case}");
    }
}

/// SplitMesher always emits a valid matching, never exceeding the exact
/// maximum.
#[test]
fn split_mesher_is_valid_and_bounded() {
    for case in 0..CASES {
        let mut gen = case_rng(0x54, case);
        let n = 2 + gen.below(19) as usize;
        let occupancy = 1 + gen.below(8) as usize;
        let t = 1 + gen.below(64) as usize;
        let mut rng = Rng::with_seed(gen.next_u64());
        let strings: Vec<SpanString> = (0..n)
            .map(|_| SpanString::random_with_occupancy(16, occupancy, &mut rng))
            .collect();
        let out = split_mesher(&strings, t, &mut rng);
        let g = MeshGraph::from_strings(strings);
        assert!(is_valid_matching(&g, &out.pairs), "case {case}");
        assert!(out.released() <= maximum_matching_size(&g), "case {case}");
    }
}

/// Greedy matching is valid and at least half the maximum; greedy cover
/// is a valid partition whose release count is at least the matching's.
#[test]
fn matching_and_cover_relations() {
    for case in 0..CASES {
        let mut gen = case_rng(0x55, case);
        let n = 2 + gen.below(17) as usize;
        let occupancy = 1 + gen.below(10) as usize;
        let mut rng = Rng::with_seed(gen.next_u64());
        let g = MeshGraph::random(n, 24, occupancy, &mut rng);
        let m = greedy_matching(&g);
        assert!(is_valid_matching(&g, &m), "case {case}");
        let opt = maximum_matching_size(&g);
        assert!(m.len() * 2 >= opt, "case {case}");
        let cover = greedy_cover(&g);
        assert!(is_valid_cover(&g, &cover), "case {case}");
        assert!(
            n - cover.len() >= m.len(),
            "a matching is a cover: cover must release at least as much (case {case})"
        );
    }
}

/// End-to-end allocator property: any interleaving of mallocs, frees and
/// mesh passes preserves object contents and never double-issues an
/// address. Odd cases run with a meshing thread as a second concurrent
/// source of passes.
#[test]
fn allocator_respects_contents_under_meshing() {
    for case in 0..CASES {
        let mut gen = case_rng(0x56, case);
        let seed = gen.next_u64();
        let ops: Vec<(u8, u16)> = (0..50 + gen.below(250))
            .map(|_| (gen.next_u64() as u8, 1 + gen.below(1999) as u16))
            .collect();
        let mesh = Mesh::new(MeshConfig::default().arena_bytes(64 << 20).seed(seed)).unwrap();
        let mesher = (case % 2 == 1).then(|| MeshingThread::spawn(&mesh));
        let mut live: Vec<(usize, usize, u8)> = Vec::new();
        for (i, (op, size)) in ops.iter().enumerate() {
            match op % 4 {
                0 | 1 => {
                    let size = *size as usize;
                    let p = mesh.malloc(size) as usize;
                    assert!(p != 0, "case {case}");
                    let fill = (i % 251) as u8 + 1;
                    unsafe { std::ptr::write_bytes(p as *mut u8, fill, size) };
                    assert!(!live.iter().any(|&(a, _, _)| a == p), "case {case}");
                    live.push((p, size, fill));
                }
                2 => {
                    if !live.is_empty() {
                        let idx = *size as usize % live.len();
                        let (a, s, f) = live.swap_remove(idx);
                        unsafe {
                            assert_eq!(*(a as *const u8), f, "case {case}");
                            assert_eq!(*((a + s - 1) as *const u8), f, "case {case}");
                            mesh.free(a as *mut u8);
                        }
                    }
                }
                _ => {
                    mesh.mesh_now();
                }
            }
        }
        for (a, s, f) in live {
            unsafe {
                assert_eq!(*(a as *const u8), f, "case {case}");
                assert_eq!(*((a + s - 1) as *const u8), f, "case {case}");
                mesh.free(a as *mut u8);
            }
        }
        if let Some(mesher) = mesher {
            mesher.stop();
        }
        assert_eq!(mesh.stats().live_bytes, 0, "case {case}");
    }
}

/// Size-class lookup is monotone and tight — checked exhaustively (the
/// domain is small enough that sampling would be a downgrade).
#[test]
fn size_class_lookup_sound() {
    for size in 0usize..=16384 {
        let c = SizeClass::for_size(size).unwrap();
        assert!(c.object_size() >= size);
        if c.index() > 0 {
            assert!(SizeClass::from_index(c.index() - 1).object_size() < size);
        }
    }
}
