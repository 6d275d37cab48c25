//! Residency accounting: decomposing mapped bytes into live, free-dirty,
//! free-clean, and metadata — per segment and heap-wide — next to the
//! physical pages each segment's memory file holds.
//!
//! The decomposition is pure arithmetic over the segment snapshots the
//! arena already maintains (§4.4.1 dirty/clean bins): no new bookkeeping
//! in the allocation path. The file pages are the kernel's exact count,
//! one `fstat` per segment ([`crate::arena::Arena::file_pages`]), read
//! only when a sense poll asks, and [`super::ABSENT`] once a descriptor
//! of the heap's was found naming another file.

use super::fields::{num, Field};
use crate::segment::SegmentStats;
use crate::size_classes::PAGE_SIZE;

/// Residency decomposition of one segment, in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentResidency {
    /// Segment id (matches [`SegmentStats::id`]).
    pub id: u64,
    /// First page within the arena reservation.
    pub start_page: u32,
    /// Segment length in pages.
    pub pages: u32,
    /// Pages handed out as spans (live from the allocator's view; actual
    /// object occupancy within them is the spectrum's business).
    pub live_pages: usize,
    /// Freed pages still committed (dirty bins): reclaimable by purge.
    pub free_dirty_pages: usize,
    /// Freed pages already released, plus the never-touched fresh
    /// frontier: mapped but costing no physical memory.
    pub free_clean_pages: usize,
    /// Pages the decomposition cannot attribute (span headers in flight,
    /// partially carved runs): the metadata/slack remainder.
    pub meta_pages: usize,
    /// Physical pages committed in the segment's file.
    pub committed_pages: usize,
    /// Physical pages the segment's file holds, by the kernel's count
    /// (`fstat`'s `st_blocks`): at most `committed_pages`, less by the
    /// committed pages nothing has touched yet.
    pub file_pages: usize,
}

/// Heap-wide residency decomposition (sums over segments, in bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencyBreakdown {
    /// Per-segment rows, in arena order.
    pub segments: Vec<SegmentResidency>,
    /// Total mapped bytes (every segment's full extent).
    pub mapped_bytes: u64,
    /// Bytes in pages handed out as spans.
    pub live_bytes: u64,
    /// Bytes in freed-but-committed (dirty) pages.
    pub free_dirty_bytes: u64,
    /// Bytes in released or never-touched (clean/fresh) pages.
    pub free_clean_bytes: u64,
    /// Bytes the decomposition attributes to metadata/slack.
    pub meta_bytes: u64,
    /// Bytes committed in segment files (the allocator's upper bound on
    /// what the heap itself keeps resident).
    pub committed_bytes: u64,
    /// Bytes the segment files hold, by the kernel's count: the heap's
    /// exact physical footprint.
    pub file_bytes: u64,
}

/// The members of a segment's residency row in the `sense` document.
pub(crate) static SEGMENT_FIELDS: [Field<SegmentResidency>; 9] = [
    num!(id),
    num!(start_page),
    num!(pages),
    num!(live_pages),
    num!(free_dirty_pages),
    num!(free_clean_pages),
    num!(meta_pages),
    num!(committed_pages),
    num!(file_pages),
];

/// The heap-wide members of the `sense` document's `"residency"` object
/// (its `"segments"` follow them).
pub(crate) static RESIDENCY_FIELDS: [Field<ResidencyBreakdown>; 7] = [
    num!(mapped_bytes),
    num!(live_bytes),
    num!(free_dirty_bytes),
    num!(free_clean_bytes),
    num!(meta_bytes),
    num!(committed_bytes),
    num!(file_bytes),
];

/// Decomposes segment snapshots into the four residency categories;
/// `file_pages[i]` is what segment `i`'s file holds, and `None` leaves
/// every file count [`super::ABSENT`].
pub fn decompose(segs: &[SegmentStats], file_pages: Option<&[usize]>) -> ResidencyBreakdown {
    debug_assert!(file_pages.is_none_or(|files| files.len() == segs.len()));
    let mut out = ResidencyBreakdown::default();
    let page = PAGE_SIZE as u64;
    for (i, s) in segs.iter().enumerate() {
        let file = file_pages.map_or(super::ABSENT as usize, |files| files[i]);
        let pages = s.pages as usize;
        let live = s.outstanding_pages;
        let dirty = s.dirty_pages;
        let clean = s.clean_pages + s.fresh_pages as usize;
        let meta = pages.saturating_sub(live + dirty + clean);
        out.segments.push(SegmentResidency {
            id: s.id,
            start_page: s.start_page,
            pages: s.pages,
            live_pages: live,
            free_dirty_pages: dirty,
            free_clean_pages: clean,
            meta_pages: meta,
            committed_pages: s.committed_pages,
            file_pages: file,
        });
        out.mapped_bytes += pages as u64 * page;
        out.live_bytes += live as u64 * page;
        out.free_dirty_bytes += dirty as u64 * page;
        out.free_clean_bytes += clean as u64 * page;
        out.meta_bytes += meta as u64 * page;
        out.committed_bytes += s.committed_pages as u64 * page;
    }
    out.file_bytes = file_pages.map_or(super::ABSENT, |files| files.iter().sum::<usize>() as u64 * page);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(id: u64, start: u32, pages: u32, fresh: u32, dirty: usize, clean: usize, out: usize) -> SegmentStats {
        SegmentStats {
            id,
            start_page: start,
            pages,
            fresh_pages: fresh,
            committed_pages: out + dirty,
            dirty_pages: dirty,
            clean_pages: clean,
            outstanding_pages: out,
            retirable: false,
        }
    }

    #[test]
    fn decompose_partitions_every_page() {
        let segs = [
            seg(0, 0, 100, 10, 20, 30, 35),
            seg(1, 100, 50, 50, 0, 0, 0),
        ];
        let b = decompose(&segs, Some(&[30, 0]));
        assert_eq!(b.segments.len(), 2);
        let s0 = &b.segments[0];
        assert_eq!(s0.live_pages, 35);
        assert_eq!(s0.free_dirty_pages, 20);
        assert_eq!(s0.free_clean_pages, 40, "clean bins + fresh frontier");
        assert_eq!(s0.meta_pages, 5, "remainder is metadata/slack");
        assert_eq!(
            s0.live_pages + s0.free_dirty_pages + s0.free_clean_pages + s0.meta_pages,
            100,
            "categories partition the segment"
        );
        let page = PAGE_SIZE as u64;
        assert_eq!(b.mapped_bytes, 150 * page);
        assert_eq!(b.live_bytes, 35 * page);
        assert_eq!(b.free_dirty_bytes, 20 * page);
        assert_eq!(b.free_clean_bytes, 90 * page, "segment 1 is all fresh");
        assert_eq!(b.meta_bytes, 5 * page);
        assert_eq!(b.committed_bytes, 55 * page, "outstanding + dirty");
        assert_eq!((s0.file_pages, b.file_bytes), (30, 30 * page), "the kernel's count, as read");
        assert_eq!(
            b.live_bytes + b.free_dirty_bytes + b.free_clean_bytes + b.meta_bytes,
            b.mapped_bytes
        );
        // Files lost: no count, and the rest as before.
        let lost = decompose(&segs, None);
        assert_eq!((lost.segments[0].file_pages, lost.file_bytes), (usize::MAX, super::super::ABSENT));
        assert_eq!(lost.committed_bytes, b.committed_bytes);
    }

    #[test]
    fn decompose_empty_heap() {
        let b = decompose(&[], Some(&[]));
        assert_eq!(b.mapped_bytes, 0);
        assert!(b.segments.is_empty());
    }
}
