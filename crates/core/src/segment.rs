//! Segments: independently file-backed windows of the arena reservation.
//!
//! The paper's meshable arena (§4.4.1) is one fixed-size `MAP_SHARED`
//! mapping of one memory file; outgrowing it was fatal. The segmented
//! arena instead reserves `max_heap_bytes` of *virtual* space once
//! ([`crate::sys::reserve_region`]) and populates it with **segments**:
//! contiguous page ranges each backed by their own [`MemFile`], created on
//! demand when span allocation misses every existing segment and retired
//! (unmapped, file closed, range recycled) when none of their pages are
//! handed out or dirty. Meshing only ever needs "remap a virtual span onto
//! a file offset", which works identically across segments — a virtual
//! span in one segment may alias another segment's file.
//!
//! Page indices stay global (relative to the reservation base), so the
//! lock-free pointer→page arithmetic and the page map are untouched by
//! growth; only *file* offsets are per-segment. All structures here are
//! guarded by the arena leaf lock (see DESIGN.md "Segment lifecycle").

use crate::span::Span;
use crate::sys::MemFile;
use std::collections::BTreeMap;

/// Monotonically increasing identifier of a segment within its arena.
/// Never reused, even when a retired segment's page range is.
pub type SegmentId = u64;

/// A point-in-time snapshot of one segment's accounting, exposed through
/// [`crate::Mesh::segment_stats`] for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentStats {
    /// Creation-ordered id (0 = the initial segment).
    pub id: SegmentId,
    /// First page of the segment within the reservation.
    pub start_page: u32,
    /// Segment length in pages.
    pub pages: u32,
    /// Pages never yet carved from the bump frontier.
    pub fresh_pages: u32,
    /// Physical pages currently committed in this segment's file.
    pub committed_pages: usize,
    /// Pages sitting in this segment's dirty bins.
    pub dirty_pages: usize,
    /// Pages holding no physical page and not handed out: the clean bins
    /// plus the parked aliases of dead MiniHeaps.
    pub clean_pages: usize,
    /// Pages handed out as spans and not yet returned to a bin.
    pub outstanding_pages: usize,
    /// Whether the segment could be retired right now (always false for
    /// the initial segment, which is never retired).
    pub retirable: bool,
}

/// One file-backed window of the arena reservation, with its own bump
/// frontier and dirty/clean span bins (the per-segment half of §4.4.1).
#[derive(Debug)]
pub(crate) struct Segment {
    id: SegmentId,
    start: u32,
    pages: u32,
    file: MemFile,
    /// Pages carved from the fresh frontier so far (relative count).
    frontier: u32,
    /// Clean spans binned by exact page count; offsets are global.
    clean: BTreeMap<u32, Vec<u32>>,
    /// Dirty spans binned by exact page count; offsets are global.
    dirty: BTreeMap<u32, Vec<u32>>,
    /// Alias spans of dead MiniHeaps, still mapped onto the file range
    /// they were meshed into: in no bin, never handed out. The arena
    /// restores their identity mappings a run at a time and files them
    /// clean.
    parked: Vec<Span>,
    dirty_pages: usize,
    clean_pages: usize,
    parked_pages: usize,
    /// Pages handed out as spans (or held as mesh aliases) and not yet
    /// returned to a bin. A segment with zero outstanding, dirty and
    /// parked pages holds no live data and may retire.
    outstanding_pages: usize,
    committed_pages: usize,
}

impl Segment {
    pub fn new(id: SegmentId, start: u32, pages: u32, file: MemFile) -> Segment {
        Segment {
            id,
            start,
            pages,
            file,
            frontier: 0,
            clean: BTreeMap::new(),
            dirty: BTreeMap::new(),
            parked: Vec::new(),
            dirty_pages: 0,
            clean_pages: 0,
            parked_pages: 0,
            outstanding_pages: 0,
            committed_pages: 0,
        }
    }

    #[inline]
    pub fn id(&self) -> SegmentId {
        self.id
    }

    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    #[inline]
    pub fn pages(&self) -> u32 {
        self.pages
    }

    #[inline]
    pub fn end(&self) -> u32 {
        self.start + self.pages
    }

    #[inline]
    pub fn file(&self) -> &MemFile {
        &self.file
    }

    /// Swaps in a new backing file of identical length (fork
    /// privatization: the child re-backs each segment with a private
    /// copy). Returns the old file; dropping it closes the descriptor.
    pub fn replace_file(&mut self, file: MemFile) -> MemFile {
        debug_assert_eq!(file.len(), self.file.len());
        std::mem::replace(&mut self.file, file)
    }

    #[inline]
    pub fn contains_page(&self, page: u32) -> bool {
        page >= self.start && page < self.end()
    }

    /// Byte offset of global page `page` within this segment's file.
    #[inline]
    pub fn file_offset_of_page(&self, page: u32) -> usize {
        debug_assert!(self.contains_page(page));
        (page - self.start) as usize * crate::size_classes::PAGE_SIZE
    }

    #[inline]
    pub fn outstanding_pages(&self) -> usize {
        self.outstanding_pages
    }

    #[inline]
    pub fn committed_pages(&self) -> usize {
        self.committed_pages
    }

    /// Whether every page is back and clean: nothing handed out, nothing
    /// dirty, no alias still mapped elsewhere. (The caller additionally
    /// never retires the initial segment.)
    #[inline]
    pub fn is_empty_of_live_data(&self) -> bool {
        self.outstanding_pages == 0 && self.dirty_pages == 0 && self.parked_pages == 0
    }

    // ----- span hand-out -------------------------------------------------

    /// Pops an exact-length dirty span, if any (dirty reuse, §4.4.1).
    pub fn take_dirty_exact(&mut self, pages: u32) -> Option<u32> {
        let list = self.dirty.get_mut(&pages)?;
        let offset = list.pop().expect("bins never hold empty lists");
        if list.is_empty() {
            self.dirty.remove(&pages);
        }
        self.dirty_pages -= pages as usize;
        self.outstanding_pages += pages as usize;
        Some(offset)
    }

    /// Length of the smallest clean bin holding spans of at least `pages`
    /// pages, if any.
    pub fn smallest_clean_at_least(&self, pages: u32) -> Option<u32> {
        self.clean.range(pages..).next().map(|(&len, _)| len)
    }

    /// Takes a clean span from the `len` bin, splitting the tail back into
    /// the clean bins and committing the handed-out head.
    pub fn take_clean(&mut self, len: u32, pages: u32) -> Span {
        let list = self.clean.get_mut(&len).expect("bin just observed");
        let offset = list.pop().expect("bins never hold empty lists");
        if list.is_empty() {
            self.clean.remove(&len);
        }
        self.clean_pages -= len as usize;
        let (head, tail) = Span::new(offset, len).split(pages);
        if let Some(tail) = tail {
            self.park_clean(tail);
        }
        self.outstanding_pages += pages as usize;
        self.committed_pages += pages as usize;
        head
    }

    /// Carves fresh pages from the bump frontier, if room remains.
    pub fn take_fresh(&mut self, pages: u32) -> Option<u32> {
        if self.frontier + pages > self.pages {
            return None;
        }
        let offset = self.start + self.frontier;
        self.frontier += pages;
        self.outstanding_pages += pages as usize;
        self.committed_pages += pages as usize;
        Some(offset)
    }

    // ----- span return ---------------------------------------------------

    /// Returns an outstanding span to the dirty bins (still committed).
    pub fn free_dirty(&mut self, span: Span) {
        debug_assert!(self.contains_page(span.offset) && span.end() <= self.end());
        self.dirty.entry(span.pages).or_default().push(span.offset);
        self.dirty_pages += span.pages as usize;
        self.outstanding_pages -= span.pages as usize;
    }

    /// Returns an outstanding span (whose pages were already released)
    /// to the clean bins.
    pub fn free_clean(&mut self, span: Span) {
        self.outstanding_pages -= span.pages as usize;
        self.park_clean(span);
    }

    /// Returns an outstanding alias span, still mapped onto another span's
    /// file range, to the parked list.
    pub fn free_parked(&mut self, span: Span) {
        self.outstanding_pages -= span.pages as usize;
        self.repark(span);
    }

    /// Files a span under clean without touching outstanding accounting
    /// (purge path: the span was dirty or parked, not outstanding).
    pub fn park_clean(&mut self, span: Span) {
        debug_assert!(self.contains_page(span.offset) && span.end() <= self.end());
        self.clean.entry(span.pages).or_default().push(span.offset);
        self.clean_pages += span.pages as usize;
    }

    /// Drains every dirty span (for a purge); dirty accounting drops to
    /// zero and the caller re-files the spans clean after releasing them.
    pub fn take_all_dirty(&mut self) -> Vec<Span> {
        let dirty = std::mem::take(&mut self.dirty);
        self.dirty_pages = 0;
        dirty
            .iter()
            .flat_map(|(&len, offsets)| offsets.iter().map(move |&o| Span::new(o, len)))
            .collect()
    }

    #[inline]
    pub fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Drains the parked list; the caller files each span clean once its
    /// identity mapping is back, or parks it again.
    pub fn take_all_parked(&mut self) -> Vec<Span> {
        self.parked_pages = 0;
        std::mem::take(&mut self.parked)
    }

    /// Parks a span without touching outstanding accounting: one
    /// [`Segment::take_all_parked`] drained whose identity restore failed.
    pub fn repark(&mut self, span: Span) {
        debug_assert!(self.contains_page(span.offset) && span.end() <= self.end());
        self.parked_pages += span.pages as usize;
        self.parked.push(span);
    }

    /// Records `pages` physical pages of this segment released to the OS.
    pub fn note_release(&mut self, pages: usize) {
        debug_assert!(self.committed_pages >= pages);
        self.committed_pages -= pages;
    }

    /// Takes back a [`Segment::note_release`] that left the pages in place.
    pub fn note_recommit(&mut self, pages: usize) {
        self.committed_pages += pages;
    }

    pub fn stats(&self, retirable: bool) -> SegmentStats {
        SegmentStats {
            id: self.id,
            start_page: self.start,
            pages: self.pages,
            fresh_pages: self.pages - self.frontier,
            committed_pages: self.committed_pages,
            dirty_pages: self.dirty_pages,
            clean_pages: self.clean_pages + self.parked_pages,
            outstanding_pages: self.outstanding_pages,
            retirable,
        }
    }
}

/// The ordered segment table plus the free-range ledger of the virtual
/// reservation. Guarded by the arena leaf lock.
#[derive(Debug)]
pub(crate) struct SegmentTable {
    /// Active segments, sorted by `start`.
    segments: Vec<Segment>,
    /// Retired page ranges `(start, pages)` available for reuse, sorted by
    /// start and coalesced.
    free_ranges: Vec<(u32, u32)>,
    /// First never-assigned page of the reservation tail.
    next_page: u32,
    /// Total reservation size in pages (the hard cap).
    cap_pages: u32,
    next_id: SegmentId,
}

impl SegmentTable {
    pub fn new(cap_pages: u32) -> SegmentTable {
        SegmentTable {
            segments: Vec::new(),
            free_ranges: Vec::new(),
            next_page: 0,
            cap_pages,
            next_id: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Total pages currently mapped (sum of active segment lengths).
    pub fn mapped_pages(&self) -> usize {
        self.segments.iter().map(|s| s.pages as usize).sum()
    }

    /// Claims the next monotonic segment id.
    pub fn allocate_id(&mut self) -> SegmentId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Ids handed out so far (== segments ever created).
    pub fn ids_created(&self) -> u64 {
        self.next_id
    }

    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Segment> {
        self.segments.iter_mut()
    }

    #[inline]
    pub fn get(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut Segment {
        &mut self.segments[idx]
    }

    /// Index of the segment containing global page `page`.
    pub fn index_of_page(&self, page: u32) -> Option<usize> {
        let idx = self
            .segments
            .partition_point(|s| s.end() <= page);
        let seg = self.segments.get(idx)?;
        seg.contains_page(page).then_some(idx)
    }

    /// Segment containing `page`.
    pub fn seg_of_page(&self, page: u32) -> Option<&Segment> {
        self.index_of_page(page).map(|i| &self.segments[i])
    }

    /// Inserts a segment (keeping start order); returns its index.
    pub fn insert(&mut self, seg: Segment) -> usize {
        let idx = self.segments.partition_point(|s| s.start < seg.start);
        self.segments.insert(idx, seg);
        idx
    }

    /// Removes the segment at `idx`, returning it.
    pub fn remove(&mut self, idx: usize) -> Segment {
        self.segments.remove(idx)
    }

    /// Claims a page range for a new segment: `desired` pages if any free
    /// range or the reservation tail has room, else any range of at least
    /// `min` pages (a final, smaller segment). `None` means the hard cap
    /// is truly exhausted for this request.
    pub fn take_range(&mut self, desired: u32, min: u32) -> Option<(u32, u32)> {
        debug_assert!(min > 0 && desired >= min);
        // A retired range big enough for a full segment: split it.
        if let Some(i) = self.free_ranges.iter().position(|&(_, len)| len >= desired) {
            let (start, len) = self.free_ranges[i];
            if len == desired {
                self.free_ranges.remove(i);
            } else {
                self.free_ranges[i] = (start + desired, len - desired);
            }
            return Some((start, desired));
        }
        // The untouched tail of the reservation.
        let tail = self.cap_pages - self.next_page;
        if tail >= desired {
            let start = self.next_page;
            self.next_page += desired;
            return Some((start, desired));
        }
        // Partial fits: the largest retired range, or the whole tail, as a
        // final undersized segment — growth degrades gracefully at the cap.
        if let Some((i, &(start, len))) = self
            .free_ranges
            .iter()
            .enumerate()
            .filter(|(_, &(_, len))| len >= min)
            .max_by_key(|(_, &(_, len))| len)
        {
            self.free_ranges.remove(i);
            return Some((start, len));
        }
        if tail >= min {
            let start = self.next_page;
            self.next_page = self.cap_pages;
            return Some((start, tail));
        }
        None
    }

    /// Returns a page range to the free ledger, coalescing with neighbours
    /// and with the reservation tail.
    pub fn return_range(&mut self, start: u32, pages: u32) {
        let end = start + pages;
        let idx = self.free_ranges.partition_point(|&(s, _)| s < start);
        self.free_ranges.insert(idx, (start, pages));
        // Merge with successor, then predecessor.
        if idx + 1 < self.free_ranges.len() && end == self.free_ranges[idx + 1].0 {
            self.free_ranges[idx].1 += self.free_ranges[idx + 1].1;
            self.free_ranges.remove(idx + 1);
        }
        if idx > 0 {
            let (ps, pl) = self.free_ranges[idx - 1];
            if ps + pl == start {
                self.free_ranges[idx - 1].1 += self.free_ranges[idx].1;
                self.free_ranges.remove(idx);
            }
        }
        // If the last free range touches the tail, give it back entirely.
        if let Some(&(s, l)) = self.free_ranges.last() {
            if s + l == self.next_page {
                self.free_ranges.pop();
                self.next_page = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_classes::PAGE_SIZE;

    fn seg(id: SegmentId, start: u32, pages: u32) -> Segment {
        Segment::new(id, start, pages, MemFile::create(pages as usize * PAGE_SIZE).unwrap())
    }

    #[test]
    fn segment_handout_and_return_accounting() {
        let mut s = seg(0, 0, 16);
        let a = s.take_fresh(4).unwrap();
        assert_eq!(a, 0);
        assert_eq!(s.outstanding_pages(), 4);
        assert_eq!(s.committed_pages(), 4);
        s.free_dirty(Span::new(a, 4));
        assert_eq!(s.outstanding_pages(), 0);
        assert_eq!(s.stats(false).dirty_pages, 4);
        assert!(!s.is_empty_of_live_data(), "dirty pages block retirement");
        let b = s.take_dirty_exact(4).unwrap();
        assert_eq!(b, a, "dirty reuse returns the hot span");
        s.note_release(4);
        s.free_clean(Span::new(b, 4));
        assert!(s.is_empty_of_live_data());
        assert_eq!(s.committed_pages(), 0);
    }

    #[test]
    fn clean_split_parks_tail() {
        let mut s = seg(0, 8, 16);
        let off = s.take_fresh(6).unwrap();
        s.note_release(6);
        s.free_clean(Span::new(off, 6));
        assert_eq!(s.smallest_clean_at_least(2), Some(6));
        let head = s.take_clean(6, 2);
        assert_eq!(head, Span::new(8, 2));
        assert_eq!(s.smallest_clean_at_least(1), Some(4), "tail parked clean");
        assert_eq!(s.committed_pages(), 2);
    }

    #[test]
    fn table_lookup_insert_remove() {
        let mut t = SegmentTable::new(1024);
        let (s0, l0) = t.take_range(64, 1).unwrap();
        let (s1, l1) = t.take_range(64, 1).unwrap();
        assert_eq!((s0, l0), (0, 64));
        assert_eq!((s1, l1), (64, 64));
        let id0 = t.allocate_id();
        let id1 = t.allocate_id();
        assert!(id1 > id0, "ids are monotonic");
        t.insert(seg(id1, s1, l1));
        t.insert(seg(id0, s0, l0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.index_of_page(0), Some(0));
        assert_eq!(t.index_of_page(63), Some(0));
        assert_eq!(t.index_of_page(64), Some(1));
        assert_eq!(t.index_of_page(128), None, "tail pages belong to no segment");
        let removed = t.remove(1);
        assert_eq!(removed.start(), 64);
        assert_eq!(t.index_of_page(64), None);
    }

    #[test]
    fn range_reuse_and_coalescing() {
        let mut t = SegmentTable::new(256);
        let a = t.take_range(64, 1).unwrap();
        let b = t.take_range(64, 1).unwrap();
        let c = t.take_range(64, 1).unwrap();
        // Retire the middle range: reused exactly by the next request.
        t.return_range(b.0, b.1);
        assert_eq!(t.take_range(64, 1), Some(b));
        // Retire b and c; c touches the tail so both coalesce back into it,
        // leaving room for one 128-page segment.
        t.return_range(c.0, c.1);
        t.return_range(b.0, b.1);
        assert_eq!(t.take_range(192, 1), Some((64, 192)));
        let _ = a;
    }

    #[test]
    fn cap_degrades_to_partial_then_exhausts() {
        let mut t = SegmentTable::new(100);
        assert_eq!(t.take_range(64, 8), Some((0, 64)));
        // Tail of 36 < desired 64 but ≥ min: final undersized segment.
        assert_eq!(t.take_range(64, 8), Some((64, 36)));
        assert_eq!(t.take_range(64, 8), None, "cap exhausted");
        // Returning the final segment makes the tail whole again.
        t.return_range(64, 36);
        assert_eq!(t.take_range(64, 36), Some((64, 36)));
    }
}
