//! Residency accounting: decomposing mapped bytes into live, free-dirty,
//! free-clean, and metadata — per segment and heap-wide — plus the
//! sampled `mincore(2)` sweep that estimates how much of the mapping the
//! kernel still holds resident.
//!
//! The decomposition is pure arithmetic over the segment snapshots the
//! arena already maintains (§4.4.1 dirty/clean bins): no new bookkeeping
//! in the allocation path. The `mincore` sweep is bounded per poll
//! (`MESH_SENSE_MINCORE_PAGES`) and walks the mapped page sequence with a
//! persistent cursor, so over successive polls the whole heap is sampled
//! round-robin without any single poll touching more than the budget.

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
    /// Bytes committed in segment files (the kernel-side upper bound on
    /// what the heap itself keeps resident).
    pub committed_bytes: u64,
}

/// Decomposes segment snapshots into the four residency categories.
pub fn decompose(segs: &[SegmentStats]) -> ResidencyBreakdown {
    let mut out = ResidencyBreakdown::default();
    let page = PAGE_SIZE as u64;
    for s in segs {
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
        });
        out.mapped_bytes += pages as u64 * page;
        out.live_bytes += live as u64 * page;
        out.free_dirty_bytes += dirty as u64 * page;
        out.free_clean_bytes += clean as u64 * page;
        out.meta_bytes += meta as u64 * page;
        out.committed_bytes += s.committed_pages as u64 * page;
    }
    out
}

/// Samples up to `budget` pages of the mapped segment ranges with
/// `mincore(2)`, starting at `cursor` (a position in the concatenated
/// mapped-page sequence, taken modulo its length). Returns
/// `(sampled, resident)`; ranges the kernel rejects (a race with
/// retirement) are skipped and not counted as sampled.
pub(crate) fn sample_residency(
    base: usize,
    segs: &[SegmentStats],
    cursor: usize,
    budget: usize,
) -> (usize, usize) {
    let total: usize = segs.iter().map(|s| s.pages as usize).sum();
    if total == 0 || budget == 0 {
        return (0, 0);
    }
    let mut remaining = budget.min(total);
    let mut pos = cursor % total;
    let (mut sampled, mut resident) = (0usize, 0usize);
    while remaining > 0 {
        // Locate the segment holding sequence position `pos` and take the
        // longest contiguous run that fits the remaining budget.
        let mut acc = 0usize;
        for s in segs {
            let len = s.pages as usize;
            if pos < acc + len {
                let off = pos - acc;
                let take = remaining.min(len - off);
                let addr = base + (s.start_page as usize + off) * PAGE_SIZE;
                if let Some(r) = crate::sys::resident_pages(addr, take) {
                    sampled += take;
                    resident += r;
                }
                remaining -= take;
                pos = (pos + take) % total;
                break;
            }
            acc += len;
        }
    }
    (sampled, resident)
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
        let b = decompose(&segs);
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
        assert_eq!(
            b.live_bytes + b.free_dirty_bytes + b.free_clean_bytes + b.meta_bytes,
            b.mapped_bytes
        );
    }

    #[test]
    fn decompose_empty_heap() {
        let b = decompose(&[]);
        assert_eq!(b.mapped_bytes, 0);
        assert!(b.segments.is_empty());
    }

    #[test]
    fn sweep_cursor_walks_round_robin() {
        // Use a real mapping so mincore has something to inspect.
        let f = crate::sys::MemFile::create(8 * PAGE_SIZE).unwrap();
        let base = crate::sys::map_file_shared(&f).unwrap() as usize;
        unsafe {
            std::ptr::write_bytes(base as *mut u8, 1, 8 * PAGE_SIZE);
        }
        let segs = [seg(0, 0, 8, 0, 0, 0, 8)];
        let (s1, r1) = sample_residency(base, &segs, 0, 3);
        assert_eq!(s1, 3);
        assert!(r1 <= 3);
        // Positions past the end wrap: 11 is page 3, and 3 + 6 crosses
        // the end of the sequence.
        assert_eq!(sample_residency(base, &segs, 11, 6).0, 6);
        // Budget larger than the heap samples each page exactly once.
        assert_eq!(
            sample_residency(base, &segs, 1, 100),
            (8, 8),
            "all touched pages resident"
        );
        // Zero budget or empty heap: no work.
        assert_eq!(sample_residency(base, &segs, 0, 0), (0, 0));
        assert_eq!(sample_residency(base, &[], 0, 10), (0, 0));
        unsafe { crate::sys::unmap(base as *mut u8, 8 * PAGE_SIZE) };
    }
}
