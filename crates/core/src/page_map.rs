//! The lock-free page → MiniHeap table (§4.4.4), shared by every shard of
//! the sharded global heap.
//!
//! The seed implementation kept this table inside the arena, so every
//! pointer lookup on the free path took the (then-global) heap lock. The
//! sharded heap instead preallocates one `AtomicU64` per page of the
//! arena's file and packs everything the lock-free
//! remote-free path needs into the entry:
//!
//! ```text
//! bits  0..32   raw MiniHeapId (0 = page unowned)
//! bits 32..40   size-class index, or LARGE_CLASS for large objects
//! bits 40..48   the page's index within its virtual span (small spans
//!               only; spans are ≤ 32 pages so 8 bits are exact)
//! bits 48..64   reserved (zero)
//! ```
//!
//! With `(id, class, page index)` in hand, a non-local free can compute
//! its slot offset and reach the owning MiniHeap's bitmap in the class's
//! bitmap table without touching any lock. See DESIGN.md ("Sharded locking
//! discipline"): entries are *written* only while holding the arena lock
//! (span hand-out, death, and mesh retargeting are arena operations), and
//! read lock-free from anywhere; `Release` stores pair with `Acquire`
//! loads so a reader that observes an entry also observes the MiniHeap
//! registration that produced it.
//!
//! The table has one entry per page of the arena's file. Pages no span
//! holds — free, or above the bump frontier — hold the zero "unowned"
//! entry, so a stale free into a span that went back to the arena reads
//! as invalid exactly like a wild pointer, and a range the frontier
//! comes down over must already be all-zero ([`PageMap::range_is_clear`]
//! asserts this in debug builds).

use crate::miniheap::MiniHeapId;
use crate::span::Span;
use std::sync::atomic::{AtomicU64, Ordering};

/// Class code marking a large-object (§4.4.3) span in the page map.
pub(crate) const LARGE_CLASS: u8 = 0xFF;

/// Decoded page-map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageInfo {
    /// Owning MiniHeap.
    pub id: MiniHeapId,
    /// Size-class index, or [`LARGE_CLASS`].
    pub class_code: u8,
    /// Index of this page within its virtual span (small classes only;
    /// saturated at 255 for large spans, which never use it).
    pub page_idx: u8,
}

impl PageInfo {
    /// Whether the page belongs to a large-object singleton.
    #[inline]
    pub fn is_large(&self) -> bool {
        self.class_code == LARGE_CLASS
    }

    /// Start address of the *virtual span* containing arena page `page`
    /// (the page this entry was read from), given the arena base. Small
    /// spans only — large spans saturate `page_idx`.
    #[inline]
    pub fn span_start(&self, base: usize, page: u32) -> usize {
        debug_assert!(!self.is_large());
        base + (page as usize - self.page_idx as usize) * crate::size_classes::PAGE_SIZE
    }
}

/// One packed `AtomicU64` per arena page.
#[derive(Debug)]
pub(crate) struct PageMap {
    entries: Box<[AtomicU64]>,
}

impl PageMap {
    /// Creates a table covering `pages` arena pages, all unowned.
    ///
    /// Allocated with `alloc_zeroed` rather than a collect loop: arenas
    /// are reserve-only (a 64 GiB virtual arena is normal), and the
    /// all-zero initial state must not fault in the whole table — only
    /// entries behind actually-carved spans ever get touched.
    pub fn new(pages: usize) -> PageMap {
        use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
        if pages == 0 {
            return PageMap {
                entries: Box::new([]),
            };
        }
        let layout = Layout::array::<AtomicU64>(pages).expect("page map layout");
        // SAFETY: zeroed memory is a valid `AtomicU64` (value 0), the
        // layout matches the slice we construct, and the Box takes sole
        // ownership of the allocation.
        let entries = unsafe {
            let ptr = alloc_zeroed(layout) as *mut AtomicU64;
            if ptr.is_null() {
                handle_alloc_error(layout);
            }
            Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, pages))
        };
        PageMap { entries }
    }

    #[inline]
    fn pack(id: MiniHeapId, class_code: u8, page_idx: u8) -> u64 {
        id.to_raw() as u64 | (class_code as u64) << 32 | (page_idx as u64) << 40
    }

    /// Lock-free owner lookup for arena page `page`. `None` means the page
    /// is unowned — wild and stale frees are discovered here.
    #[inline]
    pub fn get(&self, page: u32) -> Option<PageInfo> {
        let packed = self.entries.get(page as usize)?.load(Ordering::Acquire);
        let raw = packed as u32;
        if raw == 0 {
            return None;
        }
        Some(PageInfo {
            id: MiniHeapId::from_raw(raw),
            class_code: (packed >> 32) as u8,
            page_idx: (packed >> 40) as u8,
        })
    }

    /// Records `id` as owner of every page of `span`. Must be called with
    /// the arena lock held (see module docs).
    pub fn set_span(&self, span: Span, id: MiniHeapId, class_code: u8) {
        for (i, page) in span.iter_pages().enumerate() {
            let packed = Self::pack(id, class_code, i.min(255) as u8);
            self.entries[page as usize].store(packed, Ordering::Release);
        }
    }

    /// Clears ownership for every page of `span` (arena lock held).
    pub fn clear_span(&self, span: Span) {
        for page in span.iter_pages() {
            self.entries[page as usize].store(0, Ordering::Release);
        }
    }

    /// Whether no page in `[start, start + pages)` is routed to a
    /// MiniHeap. Used (under the arena lock, in debug builds) to check
    /// that a range the arena's frontier came down over holds no live
    /// span.
    pub fn range_is_clear(&self, start: u32, pages: u32) -> bool {
        (start..start + pages)
            .all(|page| self.entries[page as usize].load(Ordering::Acquire) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_page_indices() {
        let pm = PageMap::new(64);
        let id = MiniHeapId::from_raw(7);
        pm.set_span(Span::new(3, 4), id, 11);
        assert_eq!(pm.get(2), None);
        for i in 0..4u32 {
            let info = pm.get(3 + i).unwrap();
            assert_eq!(info.id, id);
            assert_eq!(info.class_code, 11);
            assert_eq!(info.page_idx, i as u8);
            assert!(!info.is_large());
        }
        pm.clear_span(Span::new(3, 4));
        assert_eq!(pm.get(3), None);
    }

    #[test]
    fn range_is_clear_tracks_routing() {
        let pm = PageMap::new(32);
        assert!(pm.range_is_clear(0, 32));
        pm.set_span(Span::new(8, 2), MiniHeapId::from_raw(3), 1);
        assert!(!pm.range_is_clear(0, 32), "routed pages are not clear");
        assert!(pm.range_is_clear(0, 8), "ranges outside the span are clear");
        assert!(pm.range_is_clear(10, 22));
        pm.clear_span(Span::new(8, 2));
        assert!(pm.range_is_clear(0, 32));
    }

    #[test]
    fn large_marker_and_out_of_range() {
        let pm = PageMap::new(8);
        pm.set_span(Span::new(0, 2), MiniHeapId::from_raw(1), LARGE_CLASS);
        assert!(pm.get(0).unwrap().is_large());
        assert_eq!(pm.get(100), None, "beyond-capacity lookup is None");
    }
}
