//! The meshable arena (§4.4.1), segmented: a table of independently
//! file-backed segments carved out of one contiguous virtual reservation.
//!
//! The arena reserves `max_heap_bytes` of virtual address space once
//! (`PROT_NONE`, uncommitted) and maps **segments** — each backed by its
//! own memory file ([`crate::sys::MemFile`]) — into that window on demand:
//! the initial segment at construction, further segments whenever span
//! allocation misses every existing segment ("grow on miss"). Because the
//! reservation is contiguous, pointer→page arithmetic stays a single
//! subtraction and the lock-free page map is oblivious to growth; only
//! *file* offsets are per-segment. Within a segment, virtual page *i*
//! initially maps file page *i − segment start* (the *identity* mapping);
//! meshing retargets a virtual span at any segment's file range, and the
//! arena restores identities some time after meshed MiniHeaps die.
//!
//! Freed spans are kept per segment in three sets, two of them exactly as
//! §4.4.1:
//!
//! * **dirty** — recently freed, physical pages still committed; preferred
//!   for reuse because they are hot and reclamation is expensive.
//! * **clean** — released to the OS: their file ranges are holes, so
//!   they read zeros and cost nothing until touched again.
//! * **parked** — the alias spans of a dead meshed MiniHeap. They hold no
//!   physical page of their own (meshing released it) but are still
//!   mapped onto the span they were meshed into, so they are in no bin
//!   and are never handed out. Their identities come back at the next
//!   purge, or when span allocation misses the clean bins, whichever is
//!   first: a parked span and the dirty spans it touches are sorted into
//!   runs, and one `mmap` per run restores the identity mapping and lets
//!   the kernel merge the run's VMAs, where a remap per dying alias paid
//!   a call each against an address space meshing had cut into tens of
//!   thousands of mappings.
//!
//! Every alias — a virtual span mapping another span's file range, live
//! or parked — may cost the process two of its `vm.max_map_count`
//! mappings, so the arena counts them against a budget read from that
//! limit at construction (DESIGN.md §2a), and a pass pairs no more spans
//! than the budget has room for (`Arena::alias_room`).
//!
//! Dirty pages are released en masse once they exceed the configured
//! threshold (64 MB in the paper) or whenever meshing runs. A purge that
//! leaves a non-initial segment with no outstanding, dirty or parked pages
//! makes it **retirable**: the segment is unmapped back to the reserved
//! state, its file is closed (returning the backing to the OS wholesale),
//! and its page range becomes reusable by future segments. Allocation
//! fails — with [`MeshError::ArenaExhausted`] — only once the configured
//! hard cap itself has no room left.
//!
//! Every release is a hole punched in a segment's file
//! ([`sys::punch_hole`]), the paper's `fallocate` (§4.5.1). The arena
//! probes it on the initial segment at construction and fails with
//! [`MeshError::ArenaCreation`] where the file system cannot punch.
//!
//! The page→MiniHeap table used for constant-time pointer lookup on free
//! (§4.4.4) lives in `crate::page_map` — it is lock-free and shared by
//! every shard, while the arena (including the segment table) sits behind
//! the sharded heap's leaf lock (see DESIGN.md). The arena keeps the
//! committed-page accounting that serves as the physical-footprint
//! metric; [`Arena::file_pages`] reads what the kernel holds for each
//! segment's file, which punch-hole keeps at or under it.

use crate::barrier::BarrierGuard;
use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::page_map::PageMap;
use crate::segment::{Segment, SegmentStats, SegmentTable};
use crate::span::Span;
use crate::stats::Counters;
use crate::sys::{self, MemFile, PAGE_SIZE};
use crate::telemetry::TimedOp;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Where a span handed out by [`Arena::alloc_span`] came from, and so
/// whether it reads as zero: only a dirty span holds old bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanSource {
    /// Fresh, never-used pages from a segment's bump frontier: file pages
    /// nothing has written, which read as zero.
    Fresh,
    /// Reused dirty pages (still committed, contents stale).
    Dirty,
    /// Reused clean pages: a hole punched in the file since last use, or
    /// a parked alias whose own range was punched when it was meshed.
    /// Every clean span maps its own file range, so it reads as zero.
    Clean,
}

/// The meshable arena. All methods require external synchronization (the
/// sharded heap's arena leaf lock); the arena itself performs no locking.
#[derive(Debug)]
pub struct Arena {
    base: *mut u8,
    /// Total reservation length in pages: the hard cap.
    reserved_pages: u32,
    table: SegmentTable,
    /// Preferred size of growth segments, in pages.
    segment_pages: u32,
    /// Dirty pages across all segments (threshold accounting).
    dirty_pages: usize,
    committed_pages: usize,
    max_dirty_pages: usize,
    barrier: Option<BarrierGuard>,
    counters: Arc<Counters>,
    /// Virtual spans that do not map their own file range: the aliases of
    /// live meshed MiniHeaps and the parked aliases of dead ones.
    aliases: usize,
    /// The most aliases meshing may make ([`alias_budget`]).
    alias_budget: usize,
    /// Set the first time a segment's descriptor names a file other than
    /// its own ([`Arena::files_intact`]), and never cleared.
    files_lost: bool,
    /// Test hook: fallible VM calls of the mesh path (protect, remap,
    /// identity restore) seen since it was set, and which of them to
    /// refuse.
    #[cfg(test)]
    refused_vm_calls: (u32, std::ops::Range<u32>),
}

// SAFETY: the raw base pointer refers to a reservation owned by the arena;
// the arena is only ever used under the sharded heap's arena lock.
unsafe impl Send for Arena {}

impl Arena {
    /// Creates an arena per `config`: reserves `max_heap_bytes` of virtual
    /// space, maps the initial segment, probes hole punching on its first
    /// page, and registers the reservation with the write-barrier fault
    /// handler when `config.write_barrier` is set.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaCreation`]/[`MeshError::Map`] if the
    /// backing file or mappings cannot be created, and
    /// [`MeshError::ArenaCreation`] with the kernel's error if the file
    /// cannot have a hole punched in it.
    pub fn new(config: &MeshConfig, counters: Arc<Counters>) -> Result<Arena, MeshError> {
        let cap_pages = config.arena_pages() as u32;
        let cap_bytes = cap_pages as usize * PAGE_SIZE;
        let base = sys::reserve_region(cap_bytes).map_err(MeshError::Map)?;
        let barrier = if config.write_barrier {
            BarrierGuard::register(base as usize, cap_bytes)
        } else {
            None
        };
        let mut arena = Arena {
            base,
            reserved_pages: cap_pages,
            table: SegmentTable::new(cap_pages),
            segment_pages: (config.segment_pages() as u32).min(cap_pages),
            dirty_pages: 0,
            committed_pages: 0,
            max_dirty_pages: config.max_dirty_bytes / PAGE_SIZE,
            barrier,
            counters,
            aliases: 0,
            alias_budget: alias_budget(sys::max_map_count()),
            files_lost: false,
            #[cfg(test)]
            refused_vm_calls: (0, 0..0),
        };
        // The initial segment (id 0) is mapped eagerly and never retired.
        let initial_pages = (config.initial_segment_pages() as u32).min(cap_pages);
        let idx = arena.grow_exact(initial_pages, initial_pages)?;
        sys::punch_hole(arena.table.get(idx).file(), 0, PAGE_SIZE)
            .map_err(MeshError::ArenaCreation)?;
        Ok(arena)
    }

    /// Base address of the arena reservation.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.base as usize
    }

    /// Total reserved capacity in pages (the hard cap).
    #[inline]
    pub fn capacity_pages(&self) -> u32 {
        self.reserved_pages
    }

    /// Pages currently committed (the physical footprint).
    #[inline]
    pub fn committed_pages(&self) -> usize {
        self.committed_pages
    }

    /// Pages currently mapped to segment files (the virtual footprint of
    /// active segments; committed ≤ mapped ≤ capacity).
    #[inline]
    pub fn mapped_pages(&self) -> usize {
        self.table.mapped_pages()
    }

    /// Number of active (mapped) segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.table.len()
    }

    /// Segments ever created over this arena's lifetime.
    #[inline]
    pub fn segments_created(&self) -> u64 {
        self.table.ids_created()
    }

    /// The write-barrier guard, if registered.
    #[inline]
    pub(crate) fn barrier(&self) -> Option<&BarrierGuard> {
        self.barrier.as_ref()
    }

    /// Address of arena page `page`.
    #[inline]
    pub fn addr_of_page(&self, page: u32) -> usize {
        debug_assert!(page < self.reserved_pages);
        self.base as usize + page as usize * PAGE_SIZE
    }

    /// Arena page containing `addr`, or `None` if outside the reservation.
    #[inline]
    pub fn page_of_addr(&self, addr: usize) -> Option<u32> {
        let base = self.base as usize;
        if addr < base {
            return None;
        }
        let page = (addr - base) / PAGE_SIZE;
        if page < self.reserved_pages as usize {
            Some(page as u32)
        } else {
            None
        }
    }

    /// Per-segment accounting snapshots, in address order.
    pub fn segment_stats(&self) -> Vec<SegmentStats> {
        self.table
            .iter()
            .map(|seg| seg.stats(seg.id() != 0 && seg.is_empty_of_live_data()))
            .collect()
    }

    /// The physical pages each segment's file holds, in address order:
    /// one `fstat` per segment, so the kernel's exact count and not the
    /// arena's. A refused `fstat`, which an open memory file does not
    /// see, reads 0. `None` from the loss of a file on
    /// (`Arena::files_intact`): the descriptors may name the program's
    /// files then.
    pub fn file_pages(&mut self) -> Option<Vec<usize>> {
        let held = |seg: &Segment| seg.file().held_pages().unwrap_or(0);
        self.files_intact().then(|| self.table.iter().map(held).collect())
    }

    fn set_committed(&mut self, pages: usize) {
        self.committed_pages = pages;
        self.counters.set_committed(pages);
    }

    fn seg_index_of(&self, span: Span) -> usize {
        let idx = self
            .table
            .index_of_page(span.offset)
            .expect("span belongs to no active segment");
        debug_assert!(
            span.end() <= self.table.get(idx).end(),
            "span {span} crosses a segment boundary"
        );
        idx
    }

    /// Hands out a span of `pages` pages, preferring dirty, then clean,
    /// then fresh pages (§4.4.1) from any active segment; when every
    /// segment misses, a new segment is mapped on demand ("grow on miss").
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaExhausted`] when the hard cap has no room
    /// for the request, or [`MeshError::ArenaCreation`]/[`MeshError::Map`]
    /// if the OS refuses the new segment's file or mapping.
    pub fn alloc_span(&mut self, pages: u32) -> Result<(Span, SpanSource), MeshError> {
        assert!(pages > 0);
        // 1. Dirty reuse: exact length only (dirty spans are transient).
        for seg in self.table.iter_mut() {
            if let Some(offset) = seg.take_dirty_exact(pages) {
                self.dirty_pages -= pages as usize;
                // Already committed; no accounting change.
                return Ok((Span::new(offset, pages), SpanSource::Dirty));
            }
        }
        // 2. Clean reuse; parked aliases become clean spans before any
        //    fresh page is carved, so address space is reused as if their
        //    identities had come back when their MiniHeaps died.
        let mut clean = self.take_clean(pages);
        if clean.is_none() && self.has_parked() {
            self.file_clean(false);
            clean = self.take_clean(pages);
        }
        if let Some(span) = clean {
            return Ok((span, SpanSource::Clean));
        }
        // 3. Fresh pages from the first segment with frontier room.
        let mut fresh = None;
        for seg in self.table.iter_mut() {
            if let Some(offset) = seg.take_fresh(pages) {
                fresh = Some(offset);
                break;
            }
        }
        if let Some(offset) = fresh {
            self.set_committed(self.committed_pages + pages as usize);
            return Ok((Span::new(offset, pages), SpanSource::Fresh));
        }
        // 4. Grow on miss: map a new segment and carve from it.
        let idx = self.grow(pages)?;
        let offset = self
            .table
            .get_mut(idx)
            .take_fresh(pages)
            .expect("fresh segment sized for the request");
        self.set_committed(self.committed_pages + pages as usize);
        Ok((Span::new(offset, pages), SpanSource::Fresh))
    }

    /// Takes the smallest clean span across all segments that fits `pages`,
    /// splitting the rest back into its segment's bins.
    fn take_clean(&mut self, pages: u32) -> Option<Span> {
        let mut best: Option<(usize, u32)> = None;
        for (idx, seg) in self.table.iter().enumerate() {
            if let Some(len) = seg.smallest_clean_at_least(pages) {
                if best.is_none_or(|(_, best_len)| len < best_len) {
                    best = Some((idx, len));
                }
            }
        }
        let (idx, len) = best?;
        let span = self.table.get_mut(idx).take_clean(len, pages);
        self.set_committed(self.committed_pages + pages as usize);
        Some(span)
    }

    /// Aliases meshing may still make: each meshed pair makes one.
    pub(crate) fn alias_room(&self) -> usize {
        self.alias_budget.saturating_sub(self.aliases)
    }

    /// Counts the alias a meshed pair made: the source's primary span now
    /// maps the destination's file range. (Its older aliases were counted
    /// when they were made.)
    pub(crate) fn note_alias(&mut self) {
        self.aliases += 1;
    }

    /// Live and parked aliases (see [`Arena::alias_room`]).
    #[cfg(test)]
    pub(crate) fn alias_count(&self) -> usize {
        self.aliases
    }

    /// Test hook: lets meshing make at most `aliases` aliases in all.
    #[cfg(test)]
    pub(crate) fn set_alias_budget(&mut self, aliases: usize) {
        self.alias_budget = aliases;
    }

    fn has_parked(&self) -> bool {
        self.table.iter().any(|seg| seg.has_parked())
    }

    /// Maps a new segment able to serve a `min_pages`-page span, preferring
    /// the configured segment size. Returns its table index.
    fn grow(&mut self, min_pages: u32) -> Result<usize, MeshError> {
        self.grow_exact(min_pages.max(self.segment_pages), min_pages)
    }

    fn grow_exact(&mut self, desired: u32, min_pages: u32) -> Result<usize, MeshError> {
        let t0 = Instant::now();
        let Some((start, len)) = self.table.take_range(desired, min_pages) else {
            return Err(MeshError::ArenaExhausted {
                requested_pages: min_pages as usize,
                capacity_pages: self.reserved_pages as usize,
            });
        };
        let bytes = len as usize * PAGE_SIZE;
        let file = match MemFile::create(bytes) {
            Ok(file) => file,
            Err(e) => {
                self.table.return_range(start, len);
                return Err(MeshError::ArenaCreation(e));
            }
        };
        let addr = (self.base as usize + start as usize * PAGE_SIZE) as *mut u8;
        if let Err(e) = unsafe { sys::map_file_fixed(&file, addr) } {
            self.table.return_range(start, len);
            return Err(MeshError::Map(e));
        }
        let id = self.table.allocate_id();
        let idx = self.table.insert(Segment::new(id, start, len, file));
        self.counters.segments_created.fetch_add(1, Ordering::Relaxed);
        self.counters
            .active_segments
            .store(self.table.len(), Ordering::Relaxed);
        self.counters
            .mapped_pages
            .store(self.table.mapped_pages(), Ordering::Relaxed);
        self.counters
            .record_slow(TimedOp::SegmentGrow, t0, len as u64);
        Ok(idx)
    }

    /// Unmaps every non-initial segment whose pages are all clean: virtual
    /// range back to the reservation, file backing back to the OS, page
    /// range back to the free ledger. Returns the number retired.
    ///
    /// `page_map` is consulted only to assert (debug builds) that retired
    /// ranges hold no routed pages — an outstanding entry would mean a
    /// live span was lost.
    pub(crate) fn retire_empty_segments(&mut self, page_map: &PageMap) -> usize {
        let t0 = Instant::now();
        let mut retired = 0;
        let mut idx = 0;
        while idx < self.table.len() {
            let seg = self.table.get(idx);
            if seg.id() == 0 || !seg.is_empty_of_live_data() {
                idx += 1;
                continue;
            }
            debug_assert_eq!(seg.committed_pages(), 0, "clean segment holds committed pages");
            debug_assert!(
                page_map.range_is_clear(seg.start(), seg.pages()),
                "retiring segment {} with routed pages",
                seg.id()
            );
            let seg = self.table.remove(idx);
            let addr = (self.base as usize + seg.start() as usize * PAGE_SIZE) as *mut u8;
            // SAFETY: the range lies inside our reservation and holds no
            // live spans (outstanding == dirty == parked == 0).
            unsafe {
                sys::unmap_to_reserved(addr, seg.pages() as usize * PAGE_SIZE)
                    .expect("segment retirement remap failed");
            }
            self.table.return_range(seg.start(), seg.pages());
            // Dropping `seg` closes its MemFile, releasing the backing.
            drop(seg);
            retired += 1;
        }
        if retired > 0 {
            self.counters
                .segments_retired
                .fetch_add(retired as u64, Ordering::Relaxed);
            self.counters
                .active_segments
                .store(self.table.len(), Ordering::Relaxed);
            self.counters
                .mapped_pages
                .store(self.table.mapped_pages(), Ordering::Relaxed);
            self.counters
                .record_slow(TimedOp::SegmentRetire, t0, retired as u64);
        }
        retired as usize
    }

    /// Returns a dead span to its segment's dirty bins; triggers a purge
    /// when the dirty threshold is exceeded.
    pub fn free_span_dirty(&mut self, span: Span) {
        let idx = self.seg_index_of(span);
        self.table.get_mut(idx).free_dirty(span);
        self.dirty_pages += span.pages as usize;
        if self.dirty_pages > self.max_dirty_pages {
            self.purge_dirty();
        }
    }

    /// Returns a span whose physical pages were already released straight
    /// to its segment's clean bins. No accounting change: the pages were
    /// uncommitted at release time.
    pub fn free_span_clean(&mut self, span: Span) {
        let idx = self.seg_index_of(span);
        self.table.get_mut(idx).free_clean(span);
    }

    /// Parks the alias span of a dead meshed MiniHeap: its file range was
    /// released when it was meshed, but it still maps the range it was
    /// meshed into, so it is handed to nobody until a purge or a clean-bin
    /// miss has restored its identity mapping. The caller has cleared its
    /// page-map entry.
    pub(crate) fn park_alias(&mut self, span: Span) {
        let idx = self.seg_index_of(span);
        self.table.get_mut(idx).free_parked(span);
    }

    /// Releases a dead span's physical pages immediately and files it
    /// under clean (used for large objects, §4); under dirty once the
    /// segment's file is lost, since nothing is punched then.
    pub fn release_span(&mut self, span: Span) {
        if self.release_physical(span) {
            self.free_span_clean(span);
        } else {
            self.free_span_dirty(span);
        }
    }

    /// Releases the physical file range behind `span`, a span of its own
    /// segment's file: any never-meshed span, or a mesh source's primary.
    /// Returns whether it did, which it does while the segment's file is
    /// intact.
    pub fn release_physical(&mut self, span: Span) -> bool {
        let idx = self.seg_index_of(span);
        self.release_run(idx, span, span.pages as usize)
    }

    /// Punches the file range behind `run`, a run of spans of segment
    /// `idx`, with one kernel call, and uncommits the `pages` of it that
    /// held physical pages. The hole is punched by file offset, so it does
    /// not matter what the run's virtual pages map meanwhile. Punches
    /// nothing, and returns `false`, once the segment's file is lost.
    fn release_run(&mut self, idx: usize, run: Span, pages: usize) -> bool {
        if !self.file_intact(idx) {
            return false;
        }
        let t0 = Instant::now();
        let seg = self.table.get_mut(idx);
        let file_offset = seg.file_offset_of_page(run.offset);
        let punched = sys::punch_hole(seg.file(), file_offset, run.byte_len());
        // The probe at construction showed the file can be punched.
        debug_assert!(punched.is_ok(), "punching {run}: {punched:?}");
        seg.note_release(pages);
        self.set_committed(self.committed_pages - pages);
        self.counters
            .record_slow(TimedOp::Madvise, t0, pages as u64);
        true
    }

    /// Releases the file ranges behind a batch's mesh sources — their
    /// primary spans, sorted by offset — in runs of adjacent spans, one
    /// kernel call per run; a run never crosses a segment, whose file
    /// ranges live in different files. The caller has remapped every
    /// source onto its destination, so no reader sees the zeros.
    pub(crate) fn release_sources(&mut self, primaries: &[Span]) {
        let mut i = 0;
        while i < primaries.len() {
            let idx = self.seg_index_of(primaries[i]);
            let (run, next) = run_at(primaries, i, self.table.get(idx).end(), |&s| s);
            self.release_run(idx, run, run.pages as usize);
            i = next;
        }
    }

    /// Releases every dirty span to the OS, moving them to the clean bins
    /// (§4.4.1: after 64 MB accumulate, or when meshing runs), and brings
    /// back the identity mapping of every parked alias.
    ///
    /// Within each segment, dirty and parked spans are sorted into maximal
    /// runs of adjacent spans. A run holding a parked span gets one
    /// identity `mmap` over all of it, after which the kernel merges its
    /// VMAs; a run holding dirty pages is released with one kernel call
    /// (with its identity mapping in place, virtual adjacency equals file
    /// adjacency) and only the dirty pages are uncommitted — a parked
    /// span's file range has been a hole since it was meshed. With
    /// thousands of spans dying together this saves the same factor in
    /// syscalls. Runs never cross segments — their file ranges live in
    /// different files.
    pub fn purge_dirty(&mut self) {
        if (self.dirty_pages == 0 && !self.has_parked()) || !self.files_intact() {
            return;
        }
        let dirty = self.dirty_pages;
        self.file_clean(true);
        let purged = dirty - self.dirty_pages;
        if purged > 0 {
            self.counters
                .pages_purged
                .fetch_add(purged as u64, Ordering::Relaxed);
            self.counters.dirty_purges.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Files every parked span and, with `purge`, every dirty span under
    /// clean, run by run (see [`Arena::purge_dirty`]). An alias whose
    /// identity `mmap` the kernel refuses (`ENOMEM` at
    /// `vm.max_map_count`) stays parked for the next call. A lost file
    /// ([`Arena::files_intact`]) refuses the restore and the punch, and
    /// leaves every span parked or dirty.
    fn file_clean(&mut self, purge: bool) {
        if purge {
            self.dirty_pages = 0;
        }
        for idx in 0..self.table.len() {
            let seg = self.table.get_mut(idx);
            let mut spans: Vec<(Span, bool)> = seg
                .take_all_parked()
                .into_iter()
                .map(|s| (s, true))
                .collect();
            if purge {
                spans.extend(seg.take_all_dirty().into_iter().map(|s| (s, false)));
            }
            spans.sort_unstable_by_key(|&(s, _)| s.offset);
            let mut i = 0;
            while i < spans.len() {
                let (run, next) = run_at(&spans, i, u32::MAX, |&(s, _)| s);
                let members = &spans[i..next];
                i = next;
                let dirty: usize = members
                    .iter()
                    .filter(|&&(_, parked)| !parked)
                    .map(|&(s, _)| s.pages as usize)
                    .sum();
                // A run holding a parked span gets its identity back first;
                // its dirty pages go in one punch if it did, one per span
                // if not.
                let restored = dirty == run.pages as usize || self.restore_identity(run).is_ok();
                let punched = restored && dirty > 0 && self.release_run(idx, run, dirty);
                for &(span, parked) in members {
                    if parked && restored {
                        self.aliases -= 1;
                        self.table.get_mut(idx).park_clean(span);
                    } else if parked {
                        self.table.get_mut(idx).repark(span);
                    } else if punched || self.release_run(idx, span, span.pages as usize) {
                        self.table.get_mut(idx).park_clean(span);
                    } else {
                        self.table.get_mut(idx).redirty(span);
                        self.dirty_pages += span.pages as usize;
                    }
                }
            }
        }
    }

    /// Whether every segment's descriptor still names the file the arena
    /// created for it ([`MemFile::is_intact`], one `fstat` each). The first
    /// time one does not — the program closed the descriptor, and the
    /// number may name a file of its own — the heap stops meshing and
    /// purging for good: a remap, punch or identity restore through the
    /// number would write into that file. Allocation goes on from what is
    /// mapped. The loss is counted in `HeapStats::files_lost` and told on
    /// one `mesh:` line.
    pub(crate) fn files_intact(&mut self) -> bool {
        (0..self.table.len()).all(|idx| self.file_intact(idx))
    }

    /// [`Arena::files_intact`] for segment `idx` alone.
    fn file_intact(&mut self, idx: usize) -> bool {
        if !self.files_lost && !self.table.get(idx).file().is_intact() {
            self.files_lost = true;
            self.counters.files_lost.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "mesh: the heap's file descriptor {} names another file; meshing and purging stop",
                self.table.get(idx).file().fd()
            );
        }
        !self.files_lost
    }

    /// Whether a segment's file was found lost ([`Arena::files_intact`]),
    /// without looking again.
    pub(crate) fn files_lost(&self) -> bool {
        self.files_lost
    }

    /// Bytes currently sitting in the dirty bins.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_pages * PAGE_SIZE
    }

    /// Re-backs every segment with a private copy of its file and restores
    /// the *identity* mapping over each segment's range — the arena half of
    /// fork privatization. A forked child shares `MAP_SHARED` file pages
    /// with its parent, so without this the two processes would corrupt
    /// each other's heap the moment either writes. Sparse copy keeps the
    /// child's physical footprint, [`Arena::file_pages`], equal to the
    /// parent's.
    ///
    /// Mesh *aliases* (virtual spans retargeted at another span's file
    /// range) are clobbered by the identity remap; the caller must
    /// re-establish them from the MiniHeap tables afterwards — see
    /// `GlobalHeap::privatize_after_fork`. For the parked aliases of dead
    /// MiniHeaps the clobbering *is* the restore they were waiting for:
    /// they are filed clean here.
    ///
    /// # Errors
    ///
    /// Returns the first file-creation/copy/remap error; segments already
    /// privatized stay privatized (re-running is safe).
    pub(crate) fn privatize_segments(&mut self) -> std::io::Result<()> {
        for idx in 0..self.table.len() {
            let base = self.base;
            let seg = self.table.get_mut(idx);
            let fresh = MemFile::create(seg.file().len())?;
            sys::copy_file_sparse(seg.file(), &fresh)?;
            let addr = (base as usize + seg.start() as usize * PAGE_SIZE) as *mut u8;
            // SAFETY: the range is this segment's slice of our reservation.
            unsafe { sys::map_file_fixed(&fresh, addr)? };
            // The old (shared) file closes here; the parent keeps its own
            // descriptor and mappings, so only the child lets go.
            drop(seg.replace_file(fresh));
            for span in seg.take_all_parked() {
                seg.park_clean(span);
                self.aliases -= 1;
            }
        }
        Ok(())
    }

    /// Pages handed out (or aliased) from the segment that owns `span`:
    /// the segment-aware meshing heuristic prefers evacuating spans out of
    /// emptier segments so those segments drain toward retirement.
    pub(crate) fn segment_outstanding_of(&self, span: Span) -> usize {
        self.table
            .seg_of_page(span.offset)
            .map_or(usize::MAX, |seg| seg.outstanding_pages())
    }

    // ----- meshing primitives -------------------------------------------

    /// Remaps virtual span `vspan` to alias the file range of `target`
    /// (which must have equal length): the §4.5.1 page-table update. The
    /// two spans may live in different segments — the remap simply targets
    /// the other segment's file.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Map`] if the kernel rejects the remap; the
    /// prior mapping is unchanged in that case.
    pub fn remap_alias(&mut self, vspan: Span, target: Span) -> Result<(), MeshError> {
        assert_eq!(vspan.pages, target.pages, "mesh of unequal spans");
        self.refuse_if_injected()?;
        let tidx = self.seg_index_of(target);
        let tseg = self.table.get(tidx);
        let file_offset = tseg.file_offset_of_page(target.offset);
        unsafe {
            sys::remap_fixed(
                self.addr_of_page(vspan.offset) as *mut u8,
                vspan.byte_len(),
                tseg.file(),
                file_offset,
            )
            .map_err(MeshError::Map)
        }
    }

    /// Restores the identity mapping of `vspan` (virtual page *i* → file
    /// page *i − segment start* of its own segment): a run of parked and
    /// dirty spans at a purge.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Map`] if the kernel rejects the remap.
    /// Returns `EBADF` once the segment's file is lost
    /// (`Arena::files_intact`).
    pub fn restore_identity(&mut self, vspan: Span) -> Result<(), MeshError> {
        if !self.file_intact(self.seg_index_of(vspan)) {
            let lost = std::io::Error::from_raw_os_error(crate::ffi::EBADF);
            return Err(MeshError::Map(lost));
        }
        self.remap_alias(vspan, vspan)
    }

    /// Write-protects `spans` (sorted by offset) — the §4.5.2 barrier's
    /// mprotect step for a batch's sources — one call per run of adjacent
    /// spans. Returns the runs, for [`Arena::unprotect_runs`].
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Map`] if the kernel refuses a run (`ENOMEM`
    /// when splitting a mapping would pass `vm.max_map_count`); the runs
    /// protected before it are writable again.
    pub(crate) fn protect_runs(&mut self, spans: &[Span]) -> Result<Vec<Span>, MeshError> {
        let mut runs = Vec::new();
        let mut i = 0;
        while i < spans.len() {
            let (run, next) = run_at(spans, i, u32::MAX, |&s| s);
            i = next;
            let protected = self.refuse_if_injected().and_then(|()| {
                // SAFETY: every span of the run is a live mapping of ours.
                unsafe {
                    sys::protect_read(self.addr_of_page(run.offset) as *mut u8, run.byte_len())
                }
                .map_err(MeshError::Map)
            });
            if let Err(e) = protected {
                self.unprotect_runs(&runs);
                return Err(e);
            }
            runs.push(run);
        }
        Ok(runs)
    }

    /// Restores write access to runs [`Arena::protect_runs`] returned.
    /// Each call covers exactly a range one `mprotect` made read-only,
    /// however it was remapped since, so it splits no mapping and cannot
    /// run out of them.
    pub(crate) fn unprotect_runs(&mut self, runs: &[Span]) {
        for run in runs {
            // SAFETY: as in `protect_runs`.
            let restored = unsafe {
                sys::protect_read_write(self.addr_of_page(run.offset) as *mut u8, run.byte_len())
            };
            debug_assert!(restored.is_ok(), "unprotecting {run}: {restored:?}");
        }
    }

    /// Test hook: makes the `nth` fallible VM calls of the mesh path from
    /// now (1 = the next `mprotect` of [`Arena::protect_runs`], alias remap
    /// or identity restore) fail with `ENOMEM`.
    #[cfg(test)]
    pub(crate) fn refuse_vm_calls(&mut self, nth: std::ops::Range<u32>) {
        self.refused_vm_calls = (0, nth);
    }

    fn refuse_if_injected(&mut self) -> Result<(), MeshError> {
        #[cfg(test)]
        {
            let (seen, refused) = &mut self.refused_vm_calls;
            *seen += 1;
            if refused.contains(seen) {
                return Err(MeshError::Map(std::io::Error::from_raw_os_error(
                    crate::ffi::ENOMEM,
                )));
            }
        }
        Ok(())
    }
}

/// The most aliases meshing may make in a process allowed `max_map_count`
/// mappings: an alias splits at most one identity mapping into three, so
/// each costs at most two mappings, and an eighth of the limit is left to
/// the program. 28 669 at the kernel's default 65 530.
fn alias_budget(max_map_count: usize) -> usize {
    (max_map_count - max_map_count / 8) / 2
}

/// The maximal run of adjacent spans that starts at `items[i]` (`items`
/// sorted by offset) and ends at or before page `limit`, and the index of
/// the first item past it.
fn run_at<T>(items: &[T], i: usize, limit: u32, span_of: impl Fn(&T) -> Span) -> (Span, usize) {
    let start = span_of(&items[i]).offset;
    let mut end = span_of(&items[i]).end();
    let mut next = i + 1;
    while next < items.len() && end < limit && span_of(&items[next]).offset == end {
        end = span_of(&items[next]).end();
        next += 1;
    }
    (Span::new(start, end - start), next)
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Deregister the fault handler range before the mapping disappears.
        self.barrier = None;
        // One munmap covers the reservation and every segment mapped into
        // it; the segments' MemFiles close as the table drops.
        unsafe { sys::unmap(self.base, self.reserved_pages as usize * PAGE_SIZE) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(pages: usize) -> Arena {
        let config = MeshConfig::default()
            .arena_bytes(pages * PAGE_SIZE)
            .write_barrier(false);
        Arena::new(&config, Arc::new(Counters::default())).unwrap()
    }

    #[test]
    fn fresh_allocation_bumps_and_commits() {
        let mut a = arena(64);
        let (s1, src1) = a.alloc_span(2).unwrap();
        let (s2, src2) = a.alloc_span(3).unwrap();
        assert_eq!(src1, SpanSource::Fresh);
        assert_eq!(src2, SpanSource::Fresh);
        assert_eq!(s1, Span::new(0, 2));
        assert_eq!(s2, Span::new(2, 3));
        assert_eq!(a.committed_pages(), 5);
    }

    #[test]
    fn exhaustion_reported() {
        let mut a = arena(32);
        assert!(a.alloc_span(32).is_ok());
        match a.alloc_span(1) {
            Err(MeshError::ArenaExhausted { requested_pages, capacity_pages }) => {
                assert_eq!(requested_pages, 1);
                assert_eq!(capacity_pages, 32);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn dirty_reuse_prefers_hot_spans() {
        let mut a = arena(64);
        let (s, _) = a.alloc_span(2).unwrap();
        a.free_span_dirty(s);
        assert_eq!(a.committed_pages(), 2, "dirty spans stay committed");
        let (s2, src) = a.alloc_span(2).unwrap();
        assert_eq!(src, SpanSource::Dirty);
        assert_eq!(s2, s, "dirty span reused");
        assert_eq!(a.committed_pages(), 2);
    }

    #[test]
    fn clean_reuse_commits_and_splits() {
        let mut a = arena(64);
        let (s, _) = a.alloc_span(4).unwrap();
        a.release_span(s);
        assert_eq!(a.committed_pages(), 0);
        let (head, src) = a.alloc_span(1).unwrap();
        assert_eq!(src, SpanSource::Clean);
        assert_eq!(head, Span::new(0, 1));
        assert_eq!(a.committed_pages(), 1);
        // The 3-page tail is still clean.
        let (tail, src) = a.alloc_span(3).unwrap();
        assert_eq!(src, SpanSource::Clean);
        assert_eq!(tail, Span::new(1, 3));
    }

    #[test]
    fn purge_threshold_releases_dirty() {
        let config = MeshConfig::default()
            .arena_bytes(256 * PAGE_SIZE)
            .max_dirty_bytes(4 * PAGE_SIZE)
            .write_barrier(false);
        let counters = Arc::new(Counters::default());
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        let spans: Vec<Span> = (0..3).map(|_| a.alloc_span(2).unwrap().0).collect();
        assert_eq!(a.committed_pages(), 6);
        a.free_span_dirty(spans[0]); // dirty: 2 pages
        a.free_span_dirty(spans[1]); // dirty: 4 pages — at threshold
        assert_eq!(a.dirty_bytes(), 4 * PAGE_SIZE);
        a.free_span_dirty(spans[2]); // exceeds → purge all
        assert_eq!(a.dirty_bytes(), 0);
        assert_eq!(a.committed_pages(), 0);
        assert_eq!(
            counters.snapshot().dirty_purges, 1,
            "exactly one purge event"
        );
        assert_eq!(
            counters.snapshot().pages_purged, 6,
            "all six dirty pages counted"
        );
    }

    #[test]
    fn purge_coalesces_adjacent_spans_into_runs() {
        // Three adjacent 2-page spans freed dirty and purged together:
        // accounting must match regardless of run coalescing.
        let config = MeshConfig::default()
            .arena_bytes(256 * PAGE_SIZE)
            .write_barrier(false);
        let counters = Arc::new(Counters::default());
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        let spans: Vec<Span> = (0..3).map(|_| a.alloc_span(2).unwrap().0).collect();
        // Touch the pages so release really has something to drop.
        for s in &spans {
            unsafe {
                std::ptr::write_bytes(a.addr_of_page(s.offset) as *mut u8, 1, s.byte_len());
            }
        }
        for s in &spans {
            a.free_span_dirty(*s);
        }
        a.purge_dirty();
        assert_eq!(a.committed_pages(), 0);
        assert_eq!(counters.snapshot().pages_purged, 6);
        // The spans must be reusable as clean afterwards.
        let (s, src) = a.alloc_span(2).unwrap();
        assert_eq!(src, SpanSource::Clean);
        assert!(s.offset < 6);
    }

    #[test]
    fn remap_alias_and_restore_identity() {
        let mut a = arena(64);
        let (s1, _) = a.alloc_span(1).unwrap();
        let (s2, _) = a.alloc_span(1).unwrap();
        let p1 = a.addr_of_page(s1.offset) as *mut u8;
        let p2 = a.addr_of_page(s2.offset) as *mut u8;
        unsafe {
            *p1 = 0xAA;
            *p2 = 0xBB;
            a.remap_alias(s2, s1).unwrap();
            assert_eq!(*p2, 0xAA, "alias reads s1's physical page");
            *p2 = 0xCC;
            assert_eq!(*p1, 0xCC, "write through alias visible at s1");
            a.restore_identity(s2).unwrap();
            assert_eq!(*p2, 0xBB, "identity restored, original data intact");
        }
    }

    #[test]
    fn release_physical_uncommits() {
        let mut a = arena(64);
        let (s, _) = a.alloc_span(4).unwrap();
        let addr = a.addr_of_page(s.offset) as *mut u8;
        unsafe {
            std::ptr::write_bytes(addr, 0x55, s.byte_len());
        }
        assert_eq!(a.committed_pages(), 4);
        a.release_physical(s);
        assert_eq!(a.committed_pages(), 0);
        assert_eq!(a.file_pages(), Some(vec![0]), "the file holds nothing");
        unsafe { assert_eq!(*addr, 0, "a released page reads zero") };
    }

    #[test]
    fn protect_roundtrip() {
        let mut a = arena(16);
        let (s, _) = a.alloc_span(1).unwrap();
        let p = a.addr_of_page(s.offset) as *mut u8;
        unsafe { *p = 1 };
        let runs = a.protect_runs(&[s]).unwrap();
        unsafe { assert_eq!(*p, 1) };
        a.unprotect_runs(&runs);
        unsafe { *p = 2 };
    }

    #[test]
    fn protect_runs_coalesce_and_undo_a_refusal() {
        let mut a = arena(16);
        let spans: Vec<Span> = (0..5).map(|_| a.alloc_span(1).unwrap().0).collect();
        // 0,1,2 adjacent and 4 alone: two runs.
        let sources = [spans[0], spans[1], spans[2], spans[4]];
        let runs = a.protect_runs(&sources).unwrap();
        assert_eq!(runs, [Span::new(0, 3), Span::new(4, 1)]);
        a.unprotect_runs(&runs);
        // The second run refused: the first is writable again.
        a.refuse_vm_calls(2..3);
        assert!(matches!(a.protect_runs(&sources), Err(MeshError::Map(_))));
        for s in sources {
            unsafe { *(a.addr_of_page(s.offset) as *mut u8) = 7 };
        }
    }

    #[test]
    fn release_sources_is_one_call_per_run_within_a_segment() {
        let (mut a, counters) = segmented(4, 4, 64);
        let spans: Vec<Span> = (0..8).map(|_| a.alloc_span(1).unwrap().0).collect();
        assert_eq!(a.segment_count(), 2);
        // Pages 1,2,3 | 4,5 — adjacent, but the segment ends between 3 and 4.
        a.release_sources(&spans[1..6]);
        assert_eq!(a.committed_pages(), 3);
        assert_eq!(counters.snapshot().latency.count(TimedOp::Madvise), 2);
        let stats = a.segment_stats();
        assert_eq!((stats[0].committed_pages, stats[1].committed_pages), (1, 2));
    }

    /// Two dead 1-page spans with an alias of the first between them, as
    /// `free_miniheap_locked` leaves them: `[dirty, parked, dirty]`.
    fn parked_between_dirty(a: &mut Arena) -> [Span; 3] {
        let spans: Vec<Span> = (0..3).map(|_| a.alloc_span(1).unwrap().0).collect();
        for s in &spans {
            unsafe { *(a.addr_of_page(s.offset) as *mut u8) = 0x10 + s.offset as u8 };
        }
        a.remap_alias(spans[1], spans[0]).unwrap();
        a.note_alias();
        a.release_sources(&spans[1..2]);
        a.park_alias(spans[1]);
        a.free_span_dirty(spans[0]);
        a.free_span_dirty(spans[2]);
        [spans[0], spans[1], spans[2]]
    }

    #[test]
    fn purge_restores_parked_aliases_in_the_dirty_runs_they_touch() {
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(64 * PAGE_SIZE)
            .write_barrier(false);
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        let [_, alias, _] = parked_between_dirty(&mut a);
        assert_eq!(a.committed_pages(), 2, "the alias holds no page of its own");
        let stats = a.segment_stats()[0];
        assert_eq!(
            (
                stats.dirty_pages,
                stats.clean_pages,
                stats.outstanding_pages
            ),
            (2, 1, 0)
        );
        let calls = counters.snapshot().latency.count(TimedOp::Madvise);
        a.purge_dirty();
        let snap = counters.snapshot();
        assert_eq!(
            snap.latency.count(TimedOp::Madvise),
            calls + 1,
            "one release for the run"
        );
        assert_eq!(snap.pages_purged, 2, "only the dirty pages count as purged");
        assert_eq!(a.committed_pages(), 0);
        assert_eq!(a.segment_stats()[0].clean_pages, 3);
        assert_eq!(a.alias_count(), 0, "the restore is counted");
        // The alias is itself again: a write through it stays out of span 0.
        unsafe {
            *(a.addr_of_page(alias.offset) as *mut u8) = 0xA1;
            assert_ne!(*(a.addr_of_page(0) as *mut u8), 0xA1);
        }
    }

    #[test]
    fn a_clean_miss_restores_parked_aliases_before_carving_fresh_pages() {
        let mut a = arena(64);
        let [_, alias, _] = parked_between_dirty(&mut a);
        // Two-page requests pass the one-page dirty spans by.
        let (first, src) = a.alloc_span(2).unwrap();
        assert_eq!(
            (first, src),
            (Span::new(3, 2), SpanSource::Fresh),
            "one page cannot serve two"
        );
        // A one-page request: dirty first, twice, then the alias — clean,
        // not fresh — and through it its own file page.
        assert_eq!(a.alloc_span(1).unwrap().1, SpanSource::Dirty);
        assert_eq!(a.alloc_span(1).unwrap().1, SpanSource::Dirty);
        assert_eq!(a.alloc_span(1).unwrap(), (alias, SpanSource::Clean));
        assert_eq!(a.alias_count(), 0);
        unsafe {
            *(a.addr_of_page(alias.offset) as *mut u8) = 0xA1;
            assert_ne!(*(a.addr_of_page(0) as *mut u8), 0xA1);
        }
    }

    #[test]
    fn a_refused_restore_leaves_the_alias_parked() {
        let mut a = arena(3);
        let [_, alias, _] = parked_between_dirty(&mut a);
        a.refuse_vm_calls(1..2);
        a.purge_dirty();
        // The dirty spans were released on their own; the alias waits.
        assert_eq!(a.committed_pages(), 0);
        assert_eq!(a.alloc_span(1).unwrap().1, SpanSource::Clean);
        assert_eq!(a.alloc_span(1).unwrap().1, SpanSource::Clean);
        a.refuse_vm_calls(1..2);
        assert!(
            a.alloc_span(1).is_err(),
            "a parked alias is handed to nobody"
        );
        assert_eq!(a.alias_count(), 1, "still mapped, still counted");
        // The next miss finds the kernel willing.
        assert_eq!(a.alloc_span(1).unwrap(), (alias, SpanSource::Clean));
    }

    // ----- segmented growth and retirement ------------------------------

    /// Arena with a small initial segment and small growth segments under
    /// a larger cap, for exercising growth.
    fn segmented(initial: usize, seg: usize, cap: usize) -> (Arena, Arc<Counters>) {
        let config = MeshConfig::default()
            .max_heap_bytes(cap * PAGE_SIZE)
            .initial_segment_bytes(initial * PAGE_SIZE)
            .segment_bytes(seg * PAGE_SIZE)
            .write_barrier(false);
        let counters = Arc::new(Counters::default());
        let a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        (a, counters)
    }

    #[test]
    fn grow_on_miss_maps_new_segments() {
        let (mut a, counters) = segmented(32, 32, 256);
        assert_eq!(a.segment_count(), 1);
        assert_eq!(a.mapped_pages(), 32);
        // Fill the initial segment, then one more span forces growth.
        let (s1, _) = a.alloc_span(32).unwrap();
        let (s2, src) = a.alloc_span(8).unwrap();
        assert_eq!(src, SpanSource::Fresh);
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.mapped_pages(), 64);
        assert_eq!(s2.offset, 32, "second segment starts past the first");
        // Both spans are writable through the contiguous reservation.
        unsafe {
            std::ptr::write_bytes(a.addr_of_page(s1.offset) as *mut u8, 1, s1.byte_len());
            std::ptr::write_bytes(a.addr_of_page(s2.offset) as *mut u8, 2, s2.byte_len());
        }
        assert_eq!(counters.snapshot().segments_created, 2);
    }

    #[test]
    fn oversized_request_gets_dedicated_segment() {
        let (mut a, _) = segmented(32, 32, 4096);
        // A span bigger than the segment size: the growth segment is sized
        // to the request.
        let (big, _) = a.alloc_span(512).unwrap();
        assert_eq!(big.pages, 512);
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.mapped_pages(), 32 + 512);
    }

    #[test]
    fn retirement_unmaps_and_recycles_ranges() {
        let (mut a, counters) = segmented(32, 32, 4096);
        let pm = PageMap::new(4096);
        let (s1, _) = a.alloc_span(32).unwrap();
        let (s2, _) = a.alloc_span(32).unwrap(); // second segment
        assert_eq!(a.segment_count(), 2);
        unsafe {
            std::ptr::write_bytes(a.addr_of_page(s2.offset) as *mut u8, 9, s2.byte_len());
        }
        // Free the second segment's span dirty; purge makes it all clean;
        // retirement unmaps the segment and recycles its page range.
        a.free_span_dirty(s2);
        a.purge_dirty();
        assert_eq!(a.retire_empty_segments(&pm), 1);
        assert_eq!(a.segment_count(), 1);
        assert_eq!(a.mapped_pages(), 32);
        let snap = counters.snapshot();
        assert_eq!(snap.segments_retired, 1);
        assert_eq!(snap.segment_count, 1);
        // The initial segment never retires, even when fully clean.
        a.free_span_dirty(s1);
        a.purge_dirty();
        assert_eq!(a.retire_empty_segments(&pm), 0);
        assert_eq!(a.segment_count(), 1);
        // Growth after retirement reuses the recycled range and keeps ids
        // monotonic.
        let (s3, _) = a.alloc_span(32).unwrap(); // initial (clean reuse)
        let (s4, _) = a.alloc_span(32).unwrap(); // new segment in old range
        assert_eq!(s4.offset, 32, "retired range reused");
        assert_eq!(a.segments_created(), 3, "ids never reused");
        let _ = s3;
    }

    #[test]
    fn cross_segment_mesh_remap_and_identity_restore() {
        let (mut a, _) = segmented(32, 32, 256);
        let (s1, _) = a.alloc_span(32).unwrap(); // segment 0
        let (s2, _) = a.alloc_span(32).unwrap(); // segment 1
        let src = Span::new(s2.offset, 1);
        let dst = Span::new(s1.offset, 1);
        let p_src = a.addr_of_page(src.offset) as *mut u8;
        let p_dst = a.addr_of_page(dst.offset) as *mut u8;
        unsafe {
            *p_dst = 0xD5;
            *p_src = 0x5D;
            // Alias a segment-1 virtual span onto segment 0's file.
            a.remap_alias(src, dst).unwrap();
            assert_eq!(*p_src, 0xD5, "alias reads the other segment's file");
            *p_src = 0x77;
            assert_eq!(*p_dst, 0x77, "write through cross-segment alias");
            a.restore_identity(src).unwrap();
            assert_eq!(*p_src, 0x5D, "identity back to segment 1's own file");
        }
    }

    #[test]
    fn privatize_segments_preserves_data_per_segment() {
        let (mut a, _) = segmented(32, 32, 256);
        let (s1, _) = a.alloc_span(4).unwrap(); // initial segment
        let (s2, _) = a.alloc_span(32).unwrap(); // forces a second segment
        let p1 = a.addr_of_page(s1.offset) as *mut u8;
        let p2 = a.addr_of_page(s2.offset) as *mut u8;
        unsafe {
            std::ptr::write_bytes(p1, 0x11, s1.byte_len());
            std::ptr::write_bytes(p2, 0x22, s2.byte_len());
        }
        assert_eq!(a.segment_count(), 2);
        a.privatize_segments().unwrap();
        unsafe {
            assert_eq!(*p1, 0x11, "segment 0 data survived the file swap");
            assert_eq!(*p1.add(s1.byte_len() - 1), 0x11);
            assert_eq!(*p2, 0x22, "segment 1 data survived the file swap");
            assert_eq!(*p2.add(s2.byte_len() - 1), 0x22);
            // Still writable through the fresh mappings.
            *p1 = 0x33;
            assert_eq!(*p1, 0x33);
        }
        assert_eq!(a.segment_count(), 2);
        assert_eq!(a.mapped_pages(), 64);
    }

    #[test]
    fn privatize_segments_files_parked_aliases_clean() {
        let mut a = arena(3);
        let [first, alias, _] = parked_between_dirty(&mut a);
        a.privatize_segments().unwrap();
        assert_eq!(a.alias_count(), 0);
        // The whole-segment remap was the alias's restore: the span is
        // handed out with no second one (it would be refused), and is
        // itself again.
        a.refuse_vm_calls(1..u32::MAX);
        a.purge_dirty();
        for _ in 0..3 {
            assert_eq!(a.alloc_span(1).unwrap().1, SpanSource::Clean);
        }
        unsafe {
            *(a.addr_of_page(alias.offset) as *mut u8) = 0xA1;
            assert_ne!(*(a.addr_of_page(first.offset) as *mut u8), 0xA1);
        }
    }

    #[test]
    fn exhaustion_only_at_hard_cap() {
        let (mut a, _) = segmented(32, 32, 96);
        assert!(a.alloc_span(32).is_ok());
        assert!(a.alloc_span(32).is_ok());
        assert!(a.alloc_span(32).is_ok());
        assert_eq!(a.segment_count(), 3);
        match a.alloc_span(1) {
            Err(MeshError::ArenaExhausted { capacity_pages, .. }) => {
                assert_eq!(capacity_pages, 96)
            }
            other => panic!("expected cap exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn segment_stats_reflect_lifecycle() {
        let (mut a, _) = segmented(32, 32, 256);
        let (s1, _) = a.alloc_span(32).unwrap();
        let (s2, _) = a.alloc_span(4).unwrap();
        let stats = a.segment_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].id, 0);
        assert_eq!(stats[0].outstanding_pages, 32);
        assert!(!stats[0].retirable);
        assert_eq!(stats[1].outstanding_pages, 4);
        a.free_span_dirty(s2);
        let stats = a.segment_stats();
        assert_eq!(stats[1].dirty_pages, 4);
        assert!(!stats[1].retirable, "dirty pages block retirement");
        a.purge_dirty();
        let stats = a.segment_stats();
        assert_eq!(stats[1].clean_pages, 4);
        assert!(stats[1].retirable);
        let _ = s1;
    }
}
