//! Large objects (§4.4.3): each is a page-rounded singleton MiniHeap
//! behind the large lock, whose pages go straight back to the OS when it
//! is freed. Over-aligned requests over-allocate and hand out an interior
//! address, so the usable-size lookups measure to the span's end.
//!
//! A large path takes the large lock, then the arena lock (the rank
//! table in `sync`).

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
    pub fn malloc_large(&self, size: usize, align: usize) -> Result<usize, MeshError> {
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
        let (span, object_bytes, addr) = {
            let mut large = self.large.lock();
            let mut arena = self.lock_arena();
            let (span, _) = arena.alloc_span(pages)?;
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
            (span, object_bytes, addr)
        };
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
