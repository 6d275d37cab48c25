//! Residency accounting: decomposing the arena's mapped bytes — the pages
//! below its bump frontier — into live, free-dirty, free-clean, and
//! metadata, next to the physical pages its memory file holds.
//!
//! The decomposition is pure arithmetic over the snapshot the arena
//! already maintains (§4.4.1 dirty/clean sets): no new bookkeeping in the
//! allocation path. The file pages are the kernel's exact count, one
//! `fstat` ([`crate::arena::Arena::file_pages`]), read only when a sense
//! poll asks, and [`super::ABSENT`] (`null`, no `mesh_file_bytes` sample)
//! once the heap's descriptor was found naming another file.

use super::fields::{gauge, num, Field};
use crate::free_spans::ArenaStats;
use crate::size_classes::PAGE_SIZE;

/// Heap-wide residency decomposition, in bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencyBreakdown {
    /// Bytes below the arena's bump frontier.
    pub mapped_bytes: u64,
    /// Bytes in pages handed out as spans (live from the allocator's
    /// view; object occupancy within them is the spectrum's business).
    pub live_bytes: u64,
    /// Bytes in freed-but-committed (dirty) pages: reclaimable by purge.
    pub free_dirty_bytes: u64,
    /// Bytes in released (clean or parked) pages below the frontier:
    /// mapped but costing no physical memory.
    pub free_clean_bytes: u64,
    /// Bytes the decomposition cannot attribute: the metadata/slack
    /// remainder.
    pub meta_bytes: u64,
    /// Bytes committed in the file (the allocator's upper bound on what
    /// the heap itself keeps resident).
    pub committed_bytes: u64,
    /// Bytes the file holds, by the kernel's count (`fstat`'s
    /// `st_blocks`): the heap's exact physical footprint, at most
    /// `committed_bytes`, less by the committed pages nothing has touched
    /// yet. [`super::ABSENT`] once the heap's descriptor names another
    /// file.
    pub file_bytes: u64,
}

/// The members of the `sense` document's `"residency"` object, and the
/// `mesh_file_bytes` gauge.
#[rustfmt::skip]
pub(crate) static RESIDENCY_FIELDS: [Field<ResidencyBreakdown>; 7] = [
    num!(mapped_bytes),
    num!(live_bytes),
    num!(free_dirty_bytes),
    num!(free_clean_bytes),
    num!(meta_bytes),
    num!(committed_bytes),
    num!(file_bytes, nullable: true,
         prom: gauge("mesh_file_bytes", "Bytes the heap's memory file holds (fstat st_blocks).")),
];

/// Decomposes the arena's snapshot into the four residency categories;
/// `file_pages` is what its file holds, and `None` leaves the file count
/// [`super::ABSENT`].
pub fn decompose(s: &ArenaStats, file_pages: Option<usize>) -> ResidencyBreakdown {
    let page = PAGE_SIZE as u64;
    let mapped = (s.pages - s.fresh_pages) as usize;
    let (live, dirty, clean) = (s.outstanding_pages, s.dirty_pages, s.clean_pages);
    let meta = mapped.saturating_sub(live + dirty + clean);
    ResidencyBreakdown {
        mapped_bytes: mapped as u64 * page,
        live_bytes: live as u64 * page,
        free_dirty_bytes: dirty as u64 * page,
        free_clean_bytes: clean as u64 * page,
        meta_bytes: meta as u64 * page,
        committed_bytes: s.committed_pages as u64 * page,
        file_bytes: file_pages.map_or(super::ABSENT, |pages| pages as u64 * page),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(pages: u32, fresh: u32, dirty: usize, clean: usize, out: usize) -> ArenaStats {
        ArenaStats {
            pages,
            fresh_pages: fresh,
            committed_pages: out + dirty,
            dirty_pages: dirty,
            clean_pages: clean,
            outstanding_pages: out,
        }
    }

    #[test]
    fn decompose_partitions_every_page() {
        let s = file(150, 60, 20, 30, 35);
        let b = decompose(&s, Some(30));
        let page = PAGE_SIZE as u64;
        assert_eq!(b.mapped_bytes, 90 * page, "the pages below the frontier");
        assert_eq!(b.live_bytes, 35 * page);
        assert_eq!(b.free_dirty_bytes, 20 * page);
        assert_eq!(
            b.free_clean_bytes,
            30 * page,
            "the clean set, not the fresh pages"
        );
        assert_eq!(b.meta_bytes, 5 * page, "remainder is metadata/slack");
        assert_eq!(b.committed_bytes, 55 * page, "outstanding + dirty");
        assert_eq!(b.file_bytes, 30 * page, "the kernel's count, as read");
        assert_eq!(
            b.live_bytes + b.free_dirty_bytes + b.free_clean_bytes + b.meta_bytes,
            b.mapped_bytes,
            "categories partition the mapped pages"
        );
        // File lost: no count, and the rest as before.
        let lost = decompose(&s, None);
        assert_eq!(lost.file_bytes, super::super::ABSENT);
        assert_eq!(lost.committed_bytes, b.committed_bytes);
    }

    #[test]
    fn decompose_empty_heap() {
        let b = decompose(&file(64, 64, 0, 0, 0), Some(0));
        assert_eq!(b, ResidencyBreakdown::default());
    }
}
