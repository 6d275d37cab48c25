//! Property test for the page-map free routing (the O(1) fast-path
//! overhaul): random malloc/free interleavings across two thread heaps —
//! with cross-thread handoffs, deliberate double frees, wild pointers and
//! misaligned interior pointers — checked against an exact accounting
//! model. The in-crate oracle (`local_heap::tests::
//! route_agrees_with_linear_scan_oracle`) proves the routing *decision*
//! matches the legacy linear scan; this test proves the routed frees
//! produce exactly the observable effects the old path did: every valid
//! free applied once, every hostile free counted and discarded, local
//! frees never touching the remote machinery.

use mesh_core::{HardenKind, HardenPolicy, Mesh, MeshConfig, SizeClass, PAGE_SIZE};

/// Minimal deterministic RNG (xorshift64*), so the loop is seedable
/// without pulling in a crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Class-rounded live bytes for a request, mirroring the allocator's
/// accounting (small → class size; large → whole pages).
fn rounded(size: usize) -> usize {
    match SizeClass::for_size(size) {
        Some(c) => c.object_size(),
        None => size.div_ceil(PAGE_SIZE).max(1) * PAGE_SIZE,
    }
}

#[test]
fn routed_frees_match_accounting_model() {
    for seed in [1u64, 0x6d65_7368, 42] {
        run_seed(seed);
    }
}

fn run_seed(seed: u64) {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(512 << 20)
            .seed(seed)
            .write_barrier(false),
    )
    .unwrap();
    let mut a = mesh.thread_heap();
    let mut b = mesh.thread_heap();
    let mut rng = Lcg(seed | 1);

    // Model state.
    let mut live: Vec<(usize, usize)> = Vec::new(); // (addr, request size)
    let mut model_mallocs = 0u64;
    let mut model_frees = 0u64;
    let mut model_invalid = 0u64;
    let mut model_double = 0u64;
    let mut model_live_bytes = 0usize;
    let mut cross_frees = 0u64; // frees issued by the non-owning handle

    let wild = 0x1000 as *mut u8;
    assert!(!mesh.contains(wild), "probe address must be foreign");

    for _ in 0..30_000 {
        match rng.below(100) {
            // --- allocate (55%) -----------------------------------------
            0..=54 => {
                let size = match rng.below(5) {
                    0 => 1 + rng.below(64) as usize,
                    1 => 65 + rng.below(960) as usize,
                    2 => 1025 + rng.below(15_360) as usize,
                    3 => 16_385 + rng.below(50_000) as usize, // large
                    _ => 8 + rng.below(200) as usize,
                };
                let th = if rng.below(2) == 0 { &mut a } else { &mut b };
                let p = th.malloc(size);
                assert!(!p.is_null());
                live.push((p as usize, size));
                model_mallocs += 1;
                model_live_bytes += rounded(size);
            }
            // --- free, possibly via the other thread's heap (35%) -------
            55..=89 if !live.is_empty() => {
                let pick = rng.below(live.len() as u64) as usize;
                let (addr, size) = live.swap_remove(pick);
                let handoff = rng.below(3) == 0;
                if handoff {
                    cross_frees += 1;
                }
                let th = if handoff { &mut b } else { &mut a };
                unsafe { th.free(addr as *mut u8) };
                model_frees += 1;
                model_live_bytes -= rounded(size);
            }
            // --- hostile frees (10%) ------------------------------------
            90..=94 => {
                // Wild pointer outside the arena.
                unsafe { a.free(wild) };
                model_invalid += 1;
            }
            _ if !live.is_empty() => {
                let pick = rng.below(live.len() as u64) as usize;
                let (addr, size) = live[pick];
                if rng.below(2) == 0 && SizeClass::for_size(size).is_some() {
                    // Misaligned interior pointer into a small object:
                    // must be discarded on whichever path it routes to,
                    // leaving the object live. (Interior pointers into
                    // *large* spans are legitimate frees by design — the
                    // over-aligned path hands them out — so only small
                    // objects are probed.)
                    unsafe { a.free((addr + 1) as *mut u8) };
                    model_invalid += 1;
                } else {
                    // Double free: free the object twice back-to-back.
                    live.swap_remove(pick);
                    unsafe {
                        a.free(addr as *mut u8);
                        a.free(addr as *mut u8);
                    }
                    model_frees += 1;
                    model_live_bytes -= rounded(size);
                    model_double += 1;
                }
            }
            _ => {}
        }
    }
    for (addr, size) in live.drain(..) {
        unsafe { a.free(addr as *mut u8) };
        model_frees += 1;
        model_live_bytes -= rounded(size);
    }
    drop(a);
    drop(b);

    let s = mesh.stats();
    assert_eq!(s.mallocs, model_mallocs, "seed {seed}: mallocs");
    assert_eq!(s.frees, model_frees, "seed {seed}: exactly the valid frees applied");
    // A duplicate free whose span died before the drain legitimately
    // reads as invalid (wild) rather than double — the classification is
    // state-dependent, the *sum* of discarded frees is not.
    assert_eq!(
        s.invalid_frees + s.double_frees,
        model_invalid + model_double,
        "seed {seed}: every hostile free discarded and counted"
    );
    assert!(s.invalid_frees >= model_invalid, "seed {seed}: invalid floor");
    assert_eq!(s.live_bytes, model_live_bytes, "seed {seed}: live bytes");
    assert_eq!(model_live_bytes, 0, "seed {seed}: model drained");
    // Every cross-handle free of a small object must have routed remotely;
    // large frees are remote by construction. The owner-side frees may be
    // local or remote (the span can have detached), so this is a floor.
    assert!(
        s.remote_frees >= cross_frees,
        "seed {seed}: handoffs must take the remote path ({} < {cross_frees})",
        s.remote_frees
    );
}

/// Hostile frees aimed at a member of the attached set that malloc is
/// *not* currently popping from: the routing must treat every member's
/// spans as local, so misaligned and tail-waste pointers are rejected
/// without leaving the thread, and a duplicate is caught by that member's
/// own availability mask — with hardening off and on.
#[test]
fn hostile_frees_into_non_current_members() {
    for policy in [HardenPolicy::Off, HardenPolicy::Count] {
        let mesh = Mesh::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(9)
                .write_barrier(false)
                .harden_policy(policy)
                // The mask, not the quarantine's membership set, must be
                // what catches the duplicate.
                .harden_quarantine(false),
        )
        .unwrap();
        let mut th = mesh.thread_heap();
        // 4096 % 48 != 0: one-page spans of 85 slots with 16 bytes of
        // tail waste. Three spans' worth, so the first span filled is a
        // full member malloc has long moved on from. It stays a member
        // because the thread keeps freeing into it: one object of every
        // span filled so far is freed and taken again before each refill.
        let class = SizeClass::for_size(48).unwrap();
        assert_eq!(class.span_bytes(), PAGE_SIZE);
        let count = class.object_count();
        let mut ptrs: Vec<usize> = Vec::new();
        for span in 0..3 {
            for member in 0..span {
                unsafe { th.free(ptrs[member * count] as *mut u8) };
                assert_eq!(th.malloc(48) as usize, ptrs[member * count]);
            }
            let fill = if span < 2 { count } else { 10 };
            ptrs.extend((0..fill).map(|_| th.malloc(48) as usize));
        }
        assert_eq!(th.attached_spans(), 3, "{policy:?}: members drawn on stay attached");
        th.flush();
        let s0 = mesh.stats();
        assert_eq!((s0.frees, s0.remote_frees), (3, 0));
        let victim = ptrs[0];
        let span_start = victim & !(PAGE_SIZE - 1);
        let tail = span_start + class.object_count() * 48;
        unsafe {
            th.free((victim + 1) as *mut u8); // misaligned interior pointer
            th.free(tail as *mut u8); // tail waste past the last slot
            th.free(victim as *mut u8);
            th.free(victim as *mut u8); // duplicate
        }
        th.flush();
        let s = mesh.stats();
        assert_eq!(s.invalid_frees, 2, "{policy:?}");
        assert_eq!(s.double_frees, 1, "{policy:?}");
        assert_eq!(s.frees - s0.frees, 1, "{policy:?}: only the valid free applied");
        assert_eq!(s.remote_frees, 0, "{policy:?}: all four were routed local");
        let hardened = (policy == HardenPolicy::Count) as u64;
        assert_eq!(s.harden_violations[HardenKind::DoubleFree as usize], hardened);
        assert_eq!(s.harden_violations[HardenKind::InvalidFree as usize], 2 * hardened);
        for &p in &ptrs[1..] {
            unsafe { th.free(p as *mut u8) };
        }
        drop(th);
        let s = mesh.stats();
        assert_eq!(s.mallocs, s.frees, "{policy:?}");
        assert_eq!(s.live_bytes, 0, "{policy:?}");
    }
}
