use super::*;
use crate::attached_set::{AttachedSet, ATTACHED_SPANS};
use crate::miniheap::MiniHeapId;

/// Detaches every member of `set` (what a thread heap's teardown does).
fn release(h: &GlobalHeap, class: SizeClass, set: &mut AttachedSet) {
    h.release_set(class, set);
}

fn heap() -> GlobalHeap {
    let counters = Arc::new(Counters::default());
    GlobalHeap::new(
        MeshConfig::default()
            .arena_bytes(16 << 20)
            .seed(7)
            .write_barrier(false),
        counters,
    )
    .unwrap()
}

#[test]
fn bin_for_occupancy_quartiles() {
    assert_eq!(bin_for_occupancy(256, 256), FULL_BIN);
    assert_eq!(bin_for_occupancy(255, 256), 0); // [75%, 100%)
    assert_eq!(bin_for_occupancy(192, 256), 0);
    assert_eq!(bin_for_occupancy(191, 256), 1);
    assert_eq!(bin_for_occupancy(128, 256), 1);
    assert_eq!(bin_for_occupancy(127, 256), 2);
    assert_eq!(bin_for_occupancy(64, 256), 2);
    assert_eq!(bin_for_occupancy(63, 256), 3);
    assert_eq!(bin_for_occupancy(1, 256), 3);
}

#[test]
fn fresh_miniheap_registers_pages() {
    let h = heap();
    let class = SizeClass::for_size(64).unwrap();
    let (id, addr) = {
        let mut st = h.lock_class(class);
        let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        (id, h.base_addr() + mh.span().byte_offset() + 64 * 3)
    };
    let info = h.page_map.get(h.page_of_addr(addr).unwrap()).unwrap();
    assert_eq!(info.id, id);
    assert_eq!(info.class_code as usize, class.index());
}

#[test]
fn refill_attach_detach_cycle() {
    let h = heap();
    let class = SizeClass::for_size(128).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(1);
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.available(), class.object_count());
    // Allocate a couple of objects, then force a detach via refill.
    let a = set.malloc().unwrap();
    let _b = set.malloc().unwrap();
    let first = set.id(0);
    // Exhaust and refill: the thread never freed into the old
    // MiniHeap, so it is released and must land in a bin (full).
    while set.malloc().is_some() {}
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), 1);
    assert_ne!(set.id(0), first);
    {
        let st = h.lock_class(class);
        let old = st.slab.get(first).unwrap();
        assert!(!old.is_attached());
        assert_eq!(old.in_use(), class.object_count(), "all slots allocated");
        assert_eq!(old.bin().0, FULL_BIN);
    }
    // Free one object globally: its bit is cleared at once, and the
    // next lock holder moves the span, no longer full, to the fullest
    // partial bin.
    assert!(h.free_global(a));
    assert_eq!(h.lock_class(class).slab.get(first).unwrap().bin().0, FULL_BIN);
    let st = h.lock_class_swept(class);
    let old = st.slab.get(first).unwrap();
    assert_eq!(old.in_use(), class.object_count() - 1);
    assert_eq!(old.bin().0, 0);
}

#[test]
fn refill_gathers_partial_spans_up_to_one_span_of_slots() {
    let h = heap();
    let class = SizeClass::for_size(64).unwrap();
    let count = class.object_count();
    // Six detached spans with count/4 free slots each, and nothing
    // else: one refill must attach four of them (a span's worth of
    // slots), fullest bin first, and carve nothing.
    {
        let mut st = h.lock_class(class);
        for _ in 0..6 {
            let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
            let mh = st.slab.get(id).unwrap();
            for slot in 0..count - count / 4 {
                mh.bitmap().try_set(slot);
            }
            st.bin_insert(id);
        }
        st.skip_rest();
    }
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(3);
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), 4);
    assert_eq!(set.available(), count);
    assert_eq!(h.counters.snapshot().refills, 1);
    let st = h.lock_class(class);
    assert_eq!(st.slab.len(), 6, "no fresh span while partial spans exist");
    assert_eq!(st.bins.partial[0].len(), 2, "the rest stay binned");
}

#[test]
#[should_panic(expected = "lock order: classes[0] (rank 1) taken while holding arena (rank 26)")]
fn a_class_lock_taken_under_the_arena_lock_panics() {
    let h = heap();
    let _arena = h.lock_arena();
    h.lock_class(SizeClass::from_index(0));
}

#[test]
#[should_panic(expected = "lock order: arena (rank 26) taken while holding small free (rank 30)")]
fn a_lock_taken_inside_a_small_free_panics() {
    let h = heap();
    // What `free_small` holds while it runs.
    let _free = crate::sync::hold(Rank::SMALL_FREE);
    h.lock_arena();
}

#[test]
#[should_panic(expected = "lock order: small free (rank 30) taken while holding small free (rank 30)")]
fn a_small_free_holds_the_top_rank() {
    let h = heap();
    let class = SizeClass::for_size(64).unwrap();
    let (_, start) = filed_span(&h, class, &[0]);
    let (page, info) = h.resolve_free(start).unwrap();
    let _free = crate::sync::hold(Rank::SMALL_FREE);
    h.free_small(start, page, info, None);
}

#[test]
fn lock_all_sweeps_every_class_in_ascending_order() {
    let h = heap();
    let all = h.lock_all();
    assert_eq!(h.held_lock_kinds(), ["classes", "large", "arena", "threads"]);
    drop(all);
    assert!(h.held_lock_kinds().is_empty());
}

/// Exhausts `set`, then frees one object of each member back into it
/// and takes it again: every member is full and was drawn on since
/// the last refill.
fn exhaust_and_touch(set: &mut AttachedSet, rng: &mut Rng) {
    while set.malloc().is_some() {}
    for member in set.members().collect::<Vec<_>>() {
        assert!(unsafe { set.free_slot(member, 0, rng) });
        set.malloc().unwrap();
    }
    assert_eq!(set.malloc(), None);
}

#[test]
fn refill_keeps_the_members_the_thread_frees_into() {
    let h = heap();
    let class = SizeClass::for_size(1024).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(4);
    for spans in 1..=ATTACHED_SPANS {
        h.refill(&mut set, class, &mut rng).unwrap();
        assert_eq!(set.len(), spans, "members drawn on are kept while there is room");
        exhaust_and_touch(&mut set, &mut rng);
    }
    // At the bound with every member drawn on: a fresh span needs a
    // place, and exactly one full member makes room.
    let before: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), ATTACHED_SPANS);
    let after: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
    let evicted: Vec<&MiniHeapId> = before.iter().filter(|id| !after.contains(id)).collect();
    assert_eq!(evicted.len(), 1, "exactly one member made room");
    {
        let st = h.lock_class(class);
        let mh = st.slab.get(*evicted[0]).unwrap();
        assert!(!mh.is_attached());
        assert_eq!(mh.bin().0, FULL_BIN);
        assert_eq!(st.slab.len(), ATTACHED_SPANS + 1);
    }
    // One interval in which the thread only allocates: every member
    // it held is idle at the next refill and goes back to the bins,
    // as the single attached span did at every refill.
    while set.malloc().is_some() {}
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), 1);
    let st = h.lock_class(class);
    assert_eq!(st.slab.len(), ATTACHED_SPANS + 2);
    assert_eq!(st.bins.full.len(), ATTACHED_SPANS + 1);
}

#[test]
fn refill_reclaims_slots_other_threads_freed_in_kept_members() {
    let h = heap();
    let class = SizeClass::for_size(2048).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(5);
    let mut addrs = Vec::new();
    for _ in 0..3 {
        h.refill(&mut set, class, &mut rng).unwrap();
        addrs.extend(std::iter::from_fn(|| set.malloc()));
        exhaust_and_touch(&mut set, &mut rng);
    }
    assert_eq!(set.len(), 3);
    // Another thread frees one object of the first member: the slot
    // is handed out again by the next refill, once.
    assert!(h.free_global(addrs[0]));
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), 3, "the freed-into span came back through the bins");
    assert_eq!(set.malloc(), Some(addrs[0]));
    assert_eq!(set.malloc(), None);
    assert_eq!(h.lock_class(class).slab.len(), 3, "nothing carved");
    // It frees every object of all three members.
    exhaust_and_touch(&mut set, &mut rng);
    for &a in &addrs {
        assert!(h.free_global(a));
    }
    h.refill(&mut set, class, &mut rng).unwrap();
    assert_eq!(set.len(), 1, "one empty member kept as the slot source");
    assert_eq!(set.available(), class.object_count());
    assert_eq!(h.lock_class(class).slab.len(), 1, "the other two destroyed");
    let s = h.counters.snapshot();
    assert_eq!(s.frees, addrs.len() as u64 + 1);
    assert_eq!(s.double_frees + s.invalid_frees, 0);
}

#[test]
fn select_partial_prefers_fullest_bin() {
    let h = heap();
    let class = SizeClass::for_size(64).unwrap();
    let count = class.object_count();
    // Create two detached MiniHeaps with different occupancies.
    let mut st = h.lock_class(class);
    let make = |st: &mut ClassState, live: usize| {
        let id = h.fresh_miniheap_locked(st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        for slot in 0..live {
            mh.bitmap().try_set(slot);
        }
        st.bin_insert(id);
        id
    };
    let low = make(&mut st, 1);
    let high = make(&mut st, count * 9 / 10);
    assert_eq!(st.select_partial(), None, "freshly filed spans rest");
    st.skip_rest();
    let picked = st.select_partial().unwrap();
    assert_eq!(picked, (high, 0), "fullest bin scanned first");
    let picked2 = st.select_partial().unwrap();
    assert_eq!(picked2, (low, 3));
    assert!(st.select_partial().is_none());
}

#[test]
fn empty_detach_destroys_miniheap() {
    let h = heap();
    let class = SizeClass::for_size(48).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(2);
    h.refill(&mut set, class, &mut rng).unwrap();
    let id = set.id(0);
    let committed_before = h.lock_arena().committed_pages();
    // Nothing allocated: releasing the vector should destroy it.
    release(&h, class, &mut set);
    let st = h.lock_class(class);
    assert!(st.slab.get(id).is_none());
    assert_eq!(st.slab.len(), 0);
    // Span went to the dirty bin; committed unchanged until purge.
    assert_eq!(h.lock_arena().committed_pages(), committed_before);
}

#[test]
fn malloc_large_and_free_releases_pages() {
    let h = heap();
    let addr = h.malloc_large(100_000, PAGE_SIZE, false).unwrap();
    let pages = 100_000usize.div_ceil(PAGE_SIZE);
    assert_eq!(h.lock_arena().committed_pages(), pages);
    assert_eq!(h.usable_size(addr), Some(pages * PAGE_SIZE));
    assert!(h.free_global(addr));
    assert_eq!(
        h.lock_arena().committed_pages(),
        0,
        "large pages released on free"
    );
    assert_eq!(h.large.lock().len(), 0);
}

#[test]
fn malloc_large_over_page_alignment() {
    let h = heap();
    for align in [8192usize, 1 << 16, 2 << 20] {
        let addr = h.malloc_large(100_000, align, false).unwrap();
        assert_eq!(addr % align, 0, "align {align}");
        // Usable size of the aligned (possibly interior) pointer is
        // the bytes remaining to the span end.
        let usable = h.usable_size(addr).unwrap();
        assert!(usable >= 100_000, "align {align}: usable {usable}");
        unsafe { std::ptr::write_bytes(addr as *mut u8, 0x3D, usable) };
        assert!(h.free_global(addr), "align {align}");
    }
    let s = h.counters.snapshot();
    assert_eq!(s.live_bytes, 0, "over-aligned accounting balanced");
    assert_eq!(s.invalid_frees, 0);
}

#[test]
fn invalid_and_double_frees_discarded() {
    let h = heap();
    assert!(!h.free_global(0xdead_beef));
    let addr = h.malloc_large(4096, PAGE_SIZE, false).unwrap();
    assert!(h.free_global(addr));
    assert!(!h.free_global(addr), "double free rejected");
    let s = h.counters.snapshot();
    // After the large object died its page-table entry is cleared, so
    // the second free reads as invalid (wild), not double.
    assert_eq!(s.invalid_frees, 2);
    assert_eq!(s.double_frees, 0);
}

#[test]
fn double_free_is_refused_before_free_returns() {
    let h = heap();
    let class = SizeClass::for_size(256).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(9);
    h.refill(&mut set, class, &mut rng).unwrap();
    let a = set.malloc().unwrap();
    // Keep a second object live so the MiniHeap survives the first
    // free (a dead MiniHeap would make the duplicate read as
    // *invalid* instead, exactly like the seed's large-object case).
    let _b = set.malloc().unwrap();
    // Detach so the frees take the global path.
    release(&h, class, &mut set);
    assert!(h.free_global(a));
    assert!(!h.free_global(a), "the duplicate finds its bit clear");
    let s = h.counters.snapshot();
    assert_eq!(s.frees, 1, "only one free applied");
    assert_eq!(s.double_frees, 1);
    assert_eq!((s.remote_frees, s.remote_free_queued), (1, 0));
}

#[test]
fn usable_size_for_small_classes() {
    let h = heap();
    let class = SizeClass::for_size(100).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(3);
    h.refill(&mut set, class, &mut rng).unwrap();
    let addr = set.malloc().unwrap();
    assert_eq!(h.usable_size(addr), Some(112));
    assert_eq!(h.usable_size(0x40), None);
}

#[test]
fn usable_size_rejects_span_tail_waste() {
    // 4096 % 48 != 0: the span has tail waste past the last slot, and
    // addresses there are foreign even though the page is owned.
    let h = heap();
    let class = SizeClass::for_size(48).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(4);
    h.refill(&mut set, class, &mut rng).unwrap();
    let first = {
        let st = h.lock_class(class);
        let mh = st.slab.get(set.id(0)).unwrap();
        h.base_addr() + mh.span().byte_offset()
    };
    assert_eq!(h.usable_size(first), Some(48));
    assert_eq!(
        h.usable_size(first + class.object_count() * 48 - 1),
        Some(48),
        "last slot is valid"
    );
    assert_eq!(
        h.usable_size(first + class.object_count() * 48),
        None,
        "tail waste is foreign"
    );
}

#[test]
fn free_that_empties_a_span_leaves_it_to_the_next_lock_holder() {
    // The free itself takes no lock and makes no system call: it
    // lists the span, and the next lock holder destroys it — with
    // meshing off as with it on.
    let h = GlobalHeap::new(
        MeshConfig::default()
            .arena_bytes(16 << 20)
            .seed(8)
            .meshing(false)
            .mesh_period(Duration::ZERO)
            .write_barrier(false),
        Arc::new(Counters::default()),
    )
    .unwrap();
    let class = SizeClass::for_size(8192).unwrap(); // non-meshable class
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(5);
    h.refill(&mut set, class, &mut rng).unwrap();
    let a = set.malloc().unwrap();
    release(&h, class, &mut set);
    assert!(h.free_global(a));
    assert_eq!(h.counters.snapshot().frees, 1);
    {
        let st = h.lock_class(class);
        assert_eq!((st.slab.len(), st.bins.partial[3].len()), (1, 1), "where it was filed");
    }
    assert!(!h.free_global(a), "a duplicate finds nothing to clear there");
    assert_eq!(h.counters.snapshot().double_frees, 1);
    assert_eq!(h.lock_class_swept(class).slab.len(), 0);
    assert_eq!(h.page_map.get(h.page_of_addr(a).unwrap()), None);
}

#[test]
fn different_classes_use_disjoint_locks() {
    // Holding one class's lock must not block another class's refill —
    // the acceptance criterion of the sharding refactor.
    let h = Arc::new(heap());
    let c16 = SizeClass::for_size(16).unwrap();
    let c1024 = SizeClass::for_size(1024).unwrap();
    let guard = h.lock_class(c16);
    let h2 = Arc::clone(&h);
    let t = std::thread::spawn(move || {
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(4);
        h2.refill(&mut set, c1024, &mut rng).unwrap();
        let p = set.malloc().unwrap();
        release(&h2, c1024, &mut set);
        p
    });
    let p = t.join().expect("1 KiB refill proceeded under held 16 B lock");
    assert!(p >= h.base_addr());
    drop(guard);
}

#[test]
fn free_never_waits_for_a_held_class_lock() {
    // A free routed to a class whose lock is held must complete
    // without blocking, fully accounted; the span it emptied is left
    // to the next holder that tidies. Inline meshing is pushed out of
    // the way: a due pass inside free_global would itself want the
    // held class lock.
    let h = Arc::new(
        GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(16 << 20)
                .seed(7)
                .mesh_period(Duration::from_secs(3600))
                .write_barrier(false),
            Arc::new(Counters::default()),
        )
        .unwrap(),
    );
    let class = SizeClass::for_size(512).unwrap();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(5);
    h.refill(&mut set, class, &mut rng).unwrap();
    let addr = set.malloc().unwrap();
    release(&h, class, &mut set);

    let guard = h.lock_class(class);
    let h2 = Arc::clone(&h);
    let t = std::thread::spawn(move || h2.free_global(addr));
    assert!(t.join().expect("free must not block on the class lock"));
    assert_eq!(h.counters.snapshot().frees, 1, "settled when free returned");
    assert_eq!(guard.slab.len(), 1, "the empty span waits for a lock holder");
    drop(guard);
    assert_eq!(h.lock_class_swept(class).slab.len(), 0);
}

#[test]
fn next_lock_holder_refiles_and_destroys_what_frees_left_behind() {
    let h = heap();
    let class = SizeClass::for_size(64).unwrap();
    let count = class.object_count();
    // Three full detached spans.
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(6);
    let mut spans: Vec<Vec<usize>> = Vec::new();
    for _ in 0..3 {
        h.refill(&mut set, class, &mut rng).unwrap();
        spans.push(std::iter::from_fn(|| set.malloc()).collect());
    }
    release(&h, class, &mut set);
    // With the lock held, free all of the first, most of the second
    // and one object of the third.
    let guard = h.lock_class(class);
    std::thread::scope(|s| {
        s.spawn(|| {
            for &a in spans[0].iter().chain(&spans[1][..count - 2]).chain(&spans[2][..1]) {
                assert!(h.free_global_deferred(a));
            }
        });
    });
    assert_eq!(guard.bins.full.len(), 3, "nothing moved without the lock");
    drop(guard);
    let st = h.lock_class_swept(class);
    assert_eq!(st.slab.len(), 2, "the emptied span is gone");
    assert_eq!(st.bins.full.len(), 0);
    assert_eq!(st.bins.partial[0].len(), 1, "one free short of full");
    assert_eq!(st.bins.partial[3].len(), 1, "two objects left");
    drop(st);
    assert_eq!(h.counters.snapshot().frees as usize, 2 * count - 1);
}

#[test]
fn frees_leave_the_partial_bins_to_lock_holders() {
    let h = heap();
    let class = SizeClass::for_size(256).unwrap();
    let count = class.object_count();
    assert_eq!(count, 16);
    // A full detached span, and two half-full ones.
    let make = |live: usize| {
        let mut st = h.lock_class(class);
        let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        for slot in 0..live {
            mh.bitmap().try_set(slot);
        }
        st.bin_insert(id);
        (id, h.base_addr() + st.slab.get(id).unwrap().span().byte_offset())
    };
    let (a, a_start) = make(count);
    let halves = [make(count / 2).0, make(count / 2).0];
    // The first free has it moved out of the full bin; the thirteen
    // that follow take it from 94 % to 12 % and leave it filed where
    // it is.
    for slot in 0..14 {
        assert!(h.free_global(a_start + slot * 256));
        let st = h.lock_class_swept(class);
        assert_eq!(st.slab.get(a).unwrap().bin().0, 0, "after {} frees", slot + 1);
    }
    // A refill draws it as one of the fullest, finds it drained, files
    // it where it belongs and takes the half-full spans instead.
    h.lock_class(class).skip_rest();
    let mut set = AttachedSet::new(true);
    let mut rng = Rng::with_seed(8);
    h.refill(&mut set, class, &mut rng).unwrap();
    let attached: Vec<MiniHeapId> = set.members().map(|m| set.id(m)).collect();
    assert_eq!(attached.len(), 2);
    assert!(halves.iter().all(|id| attached.contains(id)));
    assert_eq!(h.lock_class(class).slab.get(a).unwrap().bin().0, 3);
    release(&h, class, &mut set);
}

/// A detached span of `class` with `slots` taken, filed under its bin:
/// its id and start address.
fn filed_span(h: &GlobalHeap, class: SizeClass, slots: &[usize]) -> (MiniHeapId, usize) {
    let mut st = h.lock_class(class);
    let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
    let mh = st.slab.get(id).unwrap();
    for &s in slots {
        mh.bitmap().try_set(s);
    }
    st.bin_insert(id);
    (
        id,
        h.base_addr() + st.slab.get(id).unwrap().span().byte_offset(),
    )
}

#[test]
fn free_follows_a_span_meshed_after_the_lookup() {
    // The page-map entry a free starts from can be stale by the time
    // it clears: the span was a mesh source in between. The free must
    // land on the destination, once, and a duplicate must be refused.
    let h = heap();
    let class = SizeClass::for_size(256).unwrap();
    let make = |slots: &[usize]| filed_span(&h, class, slots);
    let (a, _) = make(&[0, 1, 2]);
    let (b, b_start) = make(&[5, 6]);
    let addr = b_start + 5 * 256;
    let (page, stale) = h.resolve_free(addr).unwrap();
    assert_eq!(stale.id, b);
    let summary = meshing::mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
    assert_eq!(summary.pairs_meshed, 1);
    assert_eq!(h.resolve_free(addr).unwrap().1.id, a, "b was the source");
    assert!(h.free_small(addr, page, stale, None), "followed the mesh");
    assert!(!h.free_small(addr, page, stale, None), "and only once");
    let s = h.counters.snapshot();
    assert_eq!((s.frees, s.double_frees, s.invalid_frees), (1, 1, 0));
    let st = h.lock_class(class);
    assert_eq!(st.slab.get(a).unwrap().in_use(), 4);
    // The source's id is a tombstone: not live, and not reissued.
    assert!(st.slab.get(b).is_none());
    drop(st);
    let (c, _) = make(&[9]);
    assert_ne!(c, b, "a tombstone's id is taken until the destination dies");
}
#[test]
fn frees_follow_every_source_of_a_batch() {
    // The batch form of the test above: lookups made before a pass
    // that meshes several pairs behind one odd epoch all find their
    // objects in the destinations afterwards.
    let h = heap();
    let class = SizeClass::for_size(256).unwrap();
    let make = |slots: &[usize]| filed_span(&h, class, slots).1;
    // Sparse spans overlap each other at slot 5 and full ones at slot
    // 0, so every pair is one of each and the sparse one is its source.
    let sources: Vec<usize> = (0..8).map(|_| make(&[5])).collect();
    for _ in 0..8 {
        make(&[0, 1, 2]);
    }
    let stale: Vec<_> = sources
        .iter()
        .map(|start| {
            let addr = start + 5 * 256;
            let (page, info) = h.resolve_free(addr).unwrap();
            (addr, page, info)
        })
        .collect();
    let before = h.counters.snapshot().latency.count(TimedOp::MeshCopy);
    let summary = meshing::mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
    assert_eq!(summary.pairs_meshed, 8);
    let batches = h.counters.snapshot().latency.count(TimedOp::MeshCopy) - before;
    assert_eq!(batches, 1, "one window for the eight pairs");
    for &(addr, page, info) in &stale {
        assert_ne!(
            h.resolve_free(addr).unwrap().1.id,
            info.id,
            "its span was a source"
        );
        assert!(h.free_small(addr, page, info, None), "followed the mesh");
        assert!(!h.free_small(addr, page, info, None), "and only once");
    }
    let s = h.counters.snapshot();
    assert_eq!((s.frees, s.double_frees, s.invalid_frees), (8, 8, 0));
    let st = h.lock_class(class);
    assert!(st
        .slab
        .iter()
        .all(|(_, mh)| mh.in_use() == 3 && mh.span_count() == 2));
}
