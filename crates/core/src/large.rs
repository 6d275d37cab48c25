//! Large objects (§4.4.3): each is a page-rounded singleton MiniHeap
//! behind the large lock, whose pages go straight back to the OS when it
//! is freed. Over-aligned requests over-allocate and hand out an interior
//! address, so the usable-size lookups measure to the span's end.
//!
//! A large path takes the large lock, then the arena lock (the rank
//! table in `sync`).

use crate::arena::SpanSource;
use crate::error::MeshError;
use crate::global_heap::GlobalHeap;
use crate::harden::{self, HardenKind};
use crate::miniheap::MiniHeapId;
use crate::page_map::LARGE_CLASS;
use crate::size_classes::{SizeClass, PAGE_SIZE};
use std::sync::atomic::Ordering;

impl GlobalHeap {
    /// Allocates a large object aligned to `align` (a power of two): the
    /// request is rounded up to whole pages and a singleton MiniHeap
    /// accounts for it. Spans are page-aligned; alignments above the page
    /// size are served by over-allocating `align/PAGE_SIZE − 1` extra
    /// pages and returning the first aligned address inside the span —
    /// every page of the span routes through the page map to the same
    /// singleton MiniHeap, so `free`/`usable_size` on the interior pointer
    /// behave normally. Takes the large lock, then the arena lock.
    ///
    /// With `zero` the object reads as zero (`calloc`). Only a span reused
    /// from the dirty bins is cleared: a fresh span is file pages nothing
    /// has written and a clean one is a punched hole, so both already read
    /// as zero, and leaving them untouched keeps them out of memory until
    /// the program writes them.
    pub fn malloc_large(&self, size: usize, align: usize, zero: bool) -> Result<usize, MeshError> {
        debug_assert!(align.is_power_of_two());
        let guarded = self.harden.guard_on();
        let extra = (align / PAGE_SIZE).saturating_sub(1) + usize::from(guarded);
        let requested = size.div_ceil(PAGE_SIZE).max(1).saturating_add(extra);
        // Absurd sizes (near usize::MAX) must fail as exhaustion, not
        // truncate in the page-count narrowing below; the byte length must
        // also fit the MiniHeap's u32 object size.
        let exhausted = || MeshError::ArenaExhausted {
            requested_pages: requested,
            capacity_pages: self.pages as usize,
        };
        if requested > (u32::MAX as usize) / PAGE_SIZE {
            return Err(exhausted());
        }
        let Ok(pages) = u32::try_from(requested) else {
            return Err(exhausted());
        };
        let (span, source, object_bytes, addr) = {
            let mut large = self.large.lock();
            let mut arena = self.lock_arena();
            let (span, source) = arena.alloc_span(pages)?;
            let start = self.base + span.offset as usize * PAGE_SIZE;
            let addr = if align > PAGE_SIZE {
                (start + align - 1) & !(align - 1)
            } else {
                start
            };
            let id = large.insert(span, guarded);
            if addr != start {
                // Hardened frees are pinned to the exact handed-out
                // address, so remember where the over-aligned object
                // actually starts.
                large.get_mut(id).expect("just inserted").set_large_start_off(addr - start);
            }
            let object_bytes = large.get(id).expect("just inserted").object_size();
            self.page_map.set_span(span, id, LARGE_CLASS);
            (span, source, object_bytes, addr)
        };
        if zero && source == SpanSource::Dirty {
            // SAFETY: the object was just handed out, and `size` bytes from
            // `addr` lie inside its span (asserted below).
            unsafe { std::ptr::write_bytes(addr as *mut u8, 0, size) };
        }
        if guarded {
            // The span's last page is the guard. Die policy: register the
            // page with the write-barrier fault handler (so its faults
            // forward to SIG_DFL instead of the barrier's retry loop) and
            // make it PROT_NONE — a linear overflow then faults on the
            // first byte past the object. Count policy — or a full guard
            // registry — degrades to a poison fill verified when the
            // object dies. The fill goes in first either way, so even a
            // failed mprotect leaves a checkable guard.
            let tail = (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
            unsafe {
                std::ptr::write_bytes(tail, harden::POISON_BYTE, PAGE_SIZE);
                if self.harden.aborts() && crate::barrier::register_guard_page(tail as usize) {
                    let _ = crate::sys::protect_none(tail, PAGE_SIZE);
                }
            }
        }
        self.counters.large_allocs.fetch_add(1, Ordering::Relaxed);
        self.counters.mallocs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .live_bytes
            .fetch_add(object_bytes, Ordering::Relaxed);
        let start = self.base + span.offset as usize * PAGE_SIZE;
        debug_assert!(addr + size <= start + object_bytes);
        if let Some(t) = &self.telemetry {
            // Large objects are traced exactly (sampling probability ≈ 1
            // at these sizes); keyed by the address actually handed out,
            // which is what free() will present.
            t.record_large(addr, object_bytes);
        }
        Ok(addr)
    }

    pub(crate) fn free_large(&self, addr: usize, page: u32) -> bool {
        let mut large = self.large.lock();
        // Re-check under the lock: a racing free may already have retired
        // this object (its page-map entries are then cleared or reused).
        let Some(info) = self.page_map.get(page).filter(|info| info.is_large()) else {
            return self.reject_free(HardenKind::InvalidFree, addr);
        };
        let Some(mh) = large.get(info.id) else {
            return self.reject_free(HardenKind::InvalidFree, addr);
        };
        // Classic mode accepts any pointer into the live span (C-lenient,
        // like the interior-offset tolerance on the small path). Hardened
        // mode pins free to the exact address malloc returned: an interior
        // pointer must not be able to release — or double-count — the
        // whole object.
        if self.harden.active() {
            let start = self.base + mh.span().byte_offset() + mh.large_start_off();
            if addr != start {
                return self.reject_free(HardenKind::InvalidFree, addr);
            }
        }
        if !mh.bitmap().unset(0) {
            return self.reject_free(HardenKind::DoubleFree, addr);
        }
        let object_bytes = mh.object_size();
        let mh = large.remove(info.id, |_| unreachable!("large objects are never meshed"));
        let span = mh.span();
        if mh.is_guarded() {
            let tail = (self.base + span.byte_offset() + span.byte_len() - PAGE_SIZE) as *mut u8;
            unsafe {
                if crate::barrier::unregister_guard_page(tail as usize) {
                    // Faulting guard: it was PROT_NONE (nothing can have
                    // been written through it) and the span is about to
                    // be released and recycled, so restore protection.
                    let _ = crate::sys::protect_read_write(tail, PAGE_SIZE);
                } else {
                    // Poison-scan guard (count policy, or die policy
                    // degraded on a full registry): any write past the
                    // object corrupted the fill.
                    let tail_bytes = std::slice::from_raw_parts(tail, PAGE_SIZE);
                    if tail_bytes.iter().any(|&b| b != harden::POISON_BYTE) {
                        self.harden_violation(HardenKind::Guard, tail as usize);
                    }
                }
            }
        }
        {
            let mut arena = self.lock_arena();
            self.page_map.clear_span(span);
            // Large-object pages go straight back to the OS (§4).
            arena.release_span(span);
        }
        self.counters.frees.fetch_add(1, Ordering::Relaxed);
        self.counters.remote_frees.fetch_add(1, Ordering::Relaxed);
        self.counters
            .live_bytes
            .fetch_sub(object_bytes, Ordering::Relaxed);
        true
    }

    // ----- usable-size lookups -------------------------------------------

    /// Object size usable at `addr`, or `None` for foreign pointers —
    /// including addresses in a span's tail waste past the last object
    /// slot. For interior pointers into a large span (over-aligned
    /// allocations return those) this is the bytes remaining to the span
    /// end, matching what `malloc_usable_size` promises for the pointer
    /// actually handed out. Lock-free for small classes.
    pub fn usable_size(&self, addr: usize) -> Option<usize> {
        let page = self.page_of_addr(addr)?;
        let info = self.page_map.get(page)?;
        if info.is_large() {
            self.large_bytes_to_end(addr, info.id)
        } else {
            // Any address inside a slot, not only its start.
            let class = SizeClass::from_index(info.class_code as usize);
            let offset = addr - info.span_start(self.base, page);
            (offset < class.object_count() * class.object_size()).then_some(class.object_size())
        }
    }

    /// Whether the allocation at `addr` already satisfies `new_size`
    /// without moving: same size class for small objects; still within
    /// the page span at ≥ 50% utilization for large ones. One page-map
    /// resolution (plus the large lock only for large pointers) —
    /// `realloc`'s fast-path decision.
    pub fn realloc_fits_in_place(&self, addr: usize, new_size: usize) -> bool {
        let Some((page, info)) = self.resolve_free(addr) else {
            return false;
        };
        if info.is_large() {
            self.large_bytes_to_end(addr, info.id)
                .is_some_and(|usable| new_size <= usable && new_size * 2 >= usable)
        } else {
            let class = SizeClass::from_index(info.class_code as usize);
            class.slot_at(addr - info.span_start(self.base, page)).is_some()
                && SizeClass::for_size(new_size) == Some(class)
        }
    }

    /// The bytes from `addr` to the end of large object `id`'s span, or
    /// `None` if it has died: its usable size, for an interior pointer of
    /// an over-aligned allocation as for its start. Takes the large lock.
    fn large_bytes_to_end(&self, addr: usize, id: MiniHeapId) -> Option<usize> {
        let large = self.large.lock();
        let mh = large.get(id)?;
        let span_start = self.base + mh.span().byte_offset();
        debug_assert!(addr >= span_start);
        Some(mh.object_size() - (addr - span_start))
    }
}

#[cfg(test)]
mod tests {
    use crate::harden::HardenPolicy;
    use crate::size_classes::{SizeClass, MAX_SMALL_SIZE, PAGE_SIZE};
    use crate::span::Span;
    use crate::{Mesh, MeshConfig};
    use std::time::Duration;

    /// The span length every case hands out: a 16 KiB-class span.
    const PAGES: u32 = 32;

    fn heap(hardened: bool) -> Mesh {
        let config = MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(9)
            .write_barrier(false)
            .mesh_period(Duration::from_secs(3600));
        let policy = if hardened {
            HardenPolicy::Count
        } else {
            HardenPolicy::Off
        };
        Mesh::new(config.harden_policy(policy)).unwrap()
    }

    /// The `calloc` size that takes a span of exactly [`PAGES`] pages: one
    /// page less where the span carries a guard page.
    fn request(m: &Mesh) -> usize {
        let guard = usize::from(m.inner.state.harden.guard_on());
        (PAGES as usize - guard) * PAGE_SIZE
    }

    fn span_addr(m: &Mesh, span: Span) -> *mut u8 {
        (m.inner.state.base_addr() + span.byte_offset()) as *mut u8
    }

    /// `calloc`s a [`PAGES`]-page object, asserts it reads as zero from
    /// first byte to last, and returns it.
    fn calloc_zeroed(m: &Mesh) -> *mut u8 {
        let len = request(m);
        assert!(len > MAX_SMALL_SIZE, "the large path");
        let p = m.calloc(1, len);
        assert!(!p.is_null());
        let bytes = unsafe { std::slice::from_raw_parts(p, len) };
        let stale = bytes.iter().position(|&b| b != 0);
        assert_eq!(stale, None, "calloc handed out a non-zero byte");
        p
    }

    /// Empties a 16 KiB-class span filled with non-zero bytes and detaches
    /// it: a dirty span of [`PAGES`] pages. Returns its address.
    fn dirty_span(m: &Mesh) -> *mut u8 {
        let class = SizeClass::for_size(16 << 10).unwrap();
        assert_eq!(class.span_pages(), PAGES as usize);
        let mut th = m.thread_heap();
        let objects: Vec<*mut u8> = (0..class.object_count())
            .map(|_| th.malloc(16 << 10))
            .collect();
        for &p in &objects {
            unsafe {
                std::ptr::write_bytes(p, 0xA5, 16 << 10);
                th.free(p);
            }
        }
        drop(th);
        assert_eq!(m.inner.state.lock_arena().dirty_bytes(), class.span_bytes());
        objects.into_iter().min().unwrap()
    }

    /// A meshed pair whose MiniHeap died, as `free_miniheap_locked` leaves
    /// it: the destination `[0]` dirty and full of non-zero bytes, the
    /// source `[1]` parked, still mapping the destination's file range.
    fn parked_alias(m: &Mesh) -> [Span; 2] {
        let mut a = m.inner.state.lock_arena();
        let dst = a.alloc_span(PAGES).unwrap().0;
        let src = a.alloc_span(PAGES).unwrap().0;
        for s in [dst, src] {
            unsafe { std::ptr::write_bytes(span_addr(m, s), 0x3C, s.byte_len()) };
        }
        a.remap_alias(src, dst).unwrap();
        a.note_alias();
        a.release_sources(&[src]);
        a.park_alias(src);
        a.free_span_dirty(dst);
        [dst, src]
    }

    fn every_mode(case: impl Fn(&Mesh)) {
        for hardened in [false, true] {
            case(&heap(hardened));
        }
    }

    #[test]
    fn a_fresh_span_reads_zero() {
        every_mode(|m| {
            assert_eq!(m.inner.state.lock_arena().dirty_bytes(), 0);
            let committed = m.heap_bytes();
            let p = calloc_zeroed(m);
            assert!(m.heap_bytes() > committed, "carved from the frontier");
            unsafe { m.free(p) };
        });
    }

    #[test]
    fn a_reused_dirty_span_is_cleared() {
        every_mode(|m| {
            let span = dirty_span(m);
            let p = calloc_zeroed(m);
            assert_eq!(p, span, "exact-length dirty reuse");
            unsafe { m.free(p) };
        });
    }

    #[test]
    fn a_span_purged_clean_reads_zero() {
        every_mode(|m| {
            let span = dirty_span(m);
            m.purge_dirty();
            assert_eq!(m.inner.state.lock_arena().dirty_bytes(), 0);
            let p = calloc_zeroed(m);
            assert_eq!(p, span, "the purged span, clean");
            unsafe { m.free(p) };
        });
    }

    #[test]
    fn a_restored_parked_alias_reads_zero() {
        every_mode(|m| {
            let [dst, src] = parked_alias(m);
            let d = calloc_zeroed(m);
            assert_eq!(d, span_addr(m, dst), "the destination, dirty");
            let c = calloc_zeroed(m);
            assert_eq!(c, span_addr(m, src), "the alias, restored on the clean miss");
            unsafe {
                m.free(c);
                m.free(d);
            }
        });
    }

    #[test]
    fn a_forked_child_hands_out_zeroed_clean_spans() {
        every_mode(|m| {
            // A span released in the parent (a punched hole the child's
            // sparse copy keeps) and an alias still parked at the fork,
            // which privatization files clean.
            let released = m.inner.state.lock_arena().alloc_span(PAGES).unwrap().0;
            unsafe { std::ptr::write_bytes(span_addr(m, released), 0x5A, released.byte_len()) };
            let [dst, src] = parked_alias(m);
            m.inner.state.lock_arena().release_span(released);
            m.fork_prepare().release_child();
            let d = calloc_zeroed(m);
            assert_eq!(d, span_addr(m, dst), "the destination, dirty");
            let mut got = [calloc_zeroed(m), calloc_zeroed(m)];
            let mut want = [released, src].map(|s| span_addr(m, s));
            got.sort();
            want.sort();
            assert_eq!(got, want, "the child's two clean spans");
            for p in got.into_iter().chain([d]) {
                unsafe { m.free(p) };
            }
        });
    }
}
