//! The arena's span sets (§4.4.1): everything the arena knows about the
//! pages of its one memory file that are not handed out, and the bump
//! frontier below which every page has been handed out at least once.
//!
//! Pages are numbered from the start of the arena's mapping, which maps
//! the file from its start, so a span's page is its file page. Freed
//! spans are kept in three sets:
//!
//! * **dirty** — binned by exact length, still committed;
//! * **clean** — released extents, held by address so that adjacent ones
//!   merge into one, and by length for the best fit. A clean extent that
//!   reaches the frontier is not kept at all: the frontier comes down to
//!   its start, so a heap that shrinks maps no more than it uses;
//! * **parked** — the alias spans of dead meshed MiniHeaps, handed to
//!   nobody until the arena has restored their identity mappings.
//!
//! All of it is guarded by the arena lock; nothing here makes a system
//! call.

use crate::span::Span;
use std::collections::{BTreeMap, BTreeSet};

/// The figures of the arena's one file ([`crate::arena::Arena::stats`]),
/// which the residency decomposition reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Pages of the file (the heap's cap).
    pub pages: u32,
    /// Pages at or above the bump frontier: never handed out, or handed
    /// back clean at the top.
    pub fresh_pages: u32,
    /// Physical pages committed in the file.
    pub committed_pages: usize,
    /// Pages in the dirty set.
    pub dirty_pages: usize,
    /// Pages holding no physical page and not handed out below the
    /// frontier: the clean extents plus the parked aliases of dead
    /// MiniHeaps.
    pub clean_pages: usize,
    /// Pages handed out as spans and not yet returned to a set.
    pub outstanding_pages: usize,
}

/// The dirty, clean and parked spans of one file and its bump frontier.
#[derive(Debug)]
pub(crate) struct FreeSpans {
    /// Pages of the file.
    cap: u32,
    /// First page never handed out since it last came back clean.
    frontier: u32,
    /// Clean extents, first page → length. No two touch, and none ends
    /// at the frontier.
    clean: BTreeMap<u32, u32>,
    /// The same extents as `(length, first page)`.
    clean_by_len: BTreeSet<(u32, u32)>,
    /// Dirty spans binned by exact page count.
    dirty: BTreeMap<u32, Vec<u32>>,
    /// Alias spans of dead MiniHeaps, still mapped onto the file range
    /// they were meshed into.
    parked: Vec<Span>,
    dirty_pages: usize,
    clean_pages: usize,
    parked_pages: usize,
    /// Pages handed out as spans (or held as mesh aliases) and not yet
    /// returned to a set.
    outstanding_pages: usize,
}

impl FreeSpans {
    pub fn new(cap: u32) -> FreeSpans {
        FreeSpans {
            cap,
            frontier: 0,
            clean: BTreeMap::new(),
            clean_by_len: BTreeSet::new(),
            dirty: BTreeMap::new(),
            parked: Vec::new(),
            dirty_pages: 0,
            clean_pages: 0,
            parked_pages: 0,
            outstanding_pages: 0,
        }
    }

    /// The bump frontier: every page at or above it is a hole mapped by
    /// its own virtual page.
    #[inline]
    pub fn frontier(&self) -> u32 {
        self.frontier
    }

    /// Shortens the file to `cap` pages, none of them handed out: a
    /// forked child's copy held to the file-size limit.
    pub fn lower_cap(&mut self, cap: u32) {
        debug_assert!(self.frontier <= cap && cap <= self.cap);
        self.cap = cap;
    }

    #[inline]
    pub fn dirty_pages(&self) -> usize {
        self.dirty_pages
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

    /// Takes the head of the shortest clean extent of at least `pages`
    /// pages, the lowest of equals, and files its tail clean again.
    pub fn take_clean(&mut self, pages: u32) -> Option<Span> {
        let &(len, offset) = self.clean_by_len.range((pages, 0)..).next()?;
        self.remove_clean(offset, len);
        let (head, tail) = Span::new(offset, len).split(pages);
        if let Some(tail) = tail {
            // Its neighbours are the head and what followed the extent:
            // neither clean, nor the frontier.
            self.add_clean(tail.offset, tail.pages);
        }
        self.outstanding_pages += pages as usize;
        Some(head)
    }

    /// Carves `pages` fresh pages from the bump frontier, if the file has
    /// room.
    pub fn take_fresh(&mut self, pages: u32) -> Option<u32> {
        if pages > self.cap - self.frontier {
            return None;
        }
        let offset = self.frontier;
        self.frontier += pages;
        self.outstanding_pages += pages as usize;
        Some(offset)
    }

    // ----- span return ---------------------------------------------------

    /// Returns an outstanding span to the dirty set (still committed).
    pub fn free_dirty(&mut self, span: Span) {
        self.outstanding_pages -= span.pages as usize;
        self.redirty(span);
    }

    /// Files a span under dirty again without touching outstanding
    /// accounting: one [`FreeSpans::take_all_dirty`] drained that could
    /// not be released.
    pub fn redirty(&mut self, span: Span) {
        debug_assert!(span.end() <= self.frontier);
        self.dirty.entry(span.pages).or_default().push(span.offset);
        self.dirty_pages += span.pages as usize;
    }

    /// Returns an outstanding span, whose pages were already released, to
    /// the clean set.
    pub fn free_clean(&mut self, span: Span) {
        self.outstanding_pages -= span.pages as usize;
        self.file_clean(span);
    }

    /// Returns an outstanding alias span, still mapped onto another span's
    /// file range, to the parked list.
    pub fn free_parked(&mut self, span: Span) {
        self.outstanding_pages -= span.pages as usize;
        self.repark(span);
    }

    /// Files a released span under clean without touching outstanding
    /// accounting (the purge path: it was dirty or parked). It merges
    /// with the clean extents it touches, and an extent that reaches the
    /// frontier lowers it instead.
    pub fn file_clean(&mut self, span: Span) {
        debug_assert!(span.end() <= self.frontier);
        let (mut start, mut end) = (span.offset, span.end());
        if let Some((&prev, &len)) = self.clean.range(..start).next_back() {
            if prev + len == start {
                self.remove_clean(prev, len);
                start = prev;
            }
        }
        if let Some(&len) = self.clean.get(&end) {
            self.remove_clean(end, len);
            end += len;
        }
        if end == self.frontier {
            self.frontier = start;
        } else {
            self.add_clean(start, end - start);
        }
    }

    fn add_clean(&mut self, offset: u32, pages: u32) {
        self.clean.insert(offset, pages);
        self.clean_by_len.insert((pages, offset));
        self.clean_pages += pages as usize;
    }

    fn remove_clean(&mut self, offset: u32, pages: u32) {
        self.clean.remove(&offset);
        self.clean_by_len.remove(&(pages, offset));
        self.clean_pages -= pages as usize;
    }

    /// Drains every dirty span (for a purge); the caller files each one
    /// clean once released, or dirty again.
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
    /// [`FreeSpans::take_all_parked`] drained whose identity restore
    /// failed.
    pub fn repark(&mut self, span: Span) {
        debug_assert!(span.end() <= self.frontier);
        self.parked_pages += span.pages as usize;
        self.parked.push(span);
    }

    pub fn stats(&self, committed_pages: usize) -> ArenaStats {
        ArenaStats {
            pages: self.cap,
            fresh_pages: self.cap - self.frontier,
            committed_pages,
            dirty_pages: self.dirty_pages,
            clean_pages: self.clean_pages + self.parked_pages,
            outstanding_pages: self.outstanding_pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handout_and_return_accounting() {
        let mut s = FreeSpans::new(16);
        let a = s.take_fresh(4).unwrap();
        assert_eq!((a, s.frontier()), (0, 4));
        assert_eq!(s.stats(0).outstanding_pages, 4);
        s.free_dirty(Span::new(a, 4));
        assert_eq!(s.stats(0).outstanding_pages, 0);
        assert_eq!(s.dirty_pages(), 4);
        let b = s.take_dirty_exact(4).unwrap();
        assert_eq!(b, a, "dirty reuse returns the hot span");
        assert_eq!(s.take_fresh(13), None, "12 pages left");
        s.free_clean(Span::new(b, 4));
        let stats = s.stats(0);
        assert_eq!(
            (
                stats.outstanding_pages,
                stats.clean_pages,
                stats.fresh_pages
            ),
            (0, 0, 16)
        );
    }

    #[test]
    fn clean_split_files_the_tail() {
        let mut s = FreeSpans::new(16);
        let off = s.take_fresh(6).unwrap();
        s.take_fresh(1).unwrap();
        s.free_clean(Span::new(off, 6));
        assert_eq!(s.take_clean(7), None);
        assert_eq!(s.take_clean(2), Some(Span::new(0, 2)));
        assert_eq!(s.stats(0).clean_pages, 4, "tail filed clean");
        assert_eq!(s.take_clean(4), Some(Span::new(2, 4)));
    }

    #[test]
    fn adjacent_clean_spans_coalesce() {
        let mut s = FreeSpans::new(64);
        let spans: Vec<Span> = (0..6)
            .map(|_| Span::new(s.take_fresh(2).unwrap(), 2))
            .collect();
        // 0 and 2 apart, then 1 between them: one extent of 6 pages.
        s.free_clean(spans[0]);
        s.free_clean(spans[2]);
        assert_eq!(s.stats(0).clean_pages, 4);
        s.free_clean(spans[1]);
        s.free_clean(spans[4]);
        assert_eq!(s.stats(0).clean_pages, 8);
        // The best fit is the shortest extent, not the lowest.
        assert_eq!(s.take_clean(2), Some(spans[4]));
        assert_eq!(
            s.take_clean(6),
            Some(Span::new(0, 6)),
            "three spans, one extent"
        );
        assert_eq!(s.stats(0).clean_pages, 0);
    }

    #[test]
    fn a_clean_run_at_the_top_lowers_the_frontier() {
        let mut s = FreeSpans::new(64);
        let spans: Vec<Span> = (0..4)
            .map(|_| Span::new(s.take_fresh(4).unwrap(), 4))
            .collect();
        assert_eq!(s.frontier(), 16);
        // Below the top: kept clean, the frontier stays.
        s.free_clean(spans[1]);
        assert_eq!((s.frontier(), s.stats(0).clean_pages), (16, 4));
        // The top span lowers the frontier, and the span below it is dirty.
        s.free_dirty(spans[2]);
        s.free_clean(spans[3]);
        assert_eq!((s.frontier(), s.stats(0).fresh_pages), (12, 52));
        // Purged, the dirty span joins the clean one below it and the
        // frontier comes down over both.
        let dirty = s.take_all_dirty();
        assert_eq!(dirty, [spans[2]]);
        s.file_clean(spans[2]);
        let stats = s.stats(0);
        assert_eq!(
            (s.frontier(), stats.clean_pages, stats.outstanding_pages),
            (4, 0, 4)
        );
        assert_eq!(s.take_fresh(60), Some(4), "the whole rest is fresh again");
    }

    #[test]
    fn a_lowered_cap_bounds_the_frontier() {
        let mut s = FreeSpans::new(64);
        s.take_fresh(8).unwrap();
        s.lower_cap(12);
        assert_eq!(s.take_fresh(5), None, "4 pages left");
        assert_eq!(s.take_fresh(4), Some(8));
        let stats = s.stats(0);
        assert_eq!((stats.pages, stats.fresh_pages), (12, 0));
    }
}
