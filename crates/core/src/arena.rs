//! The meshable arena (§4.4.1): one memory file, mapped once.
//!
//! The arena creates one sparse memory file ([`crate::sys::MemFile`]) the
//! size of the heap's cap — `max_heap_bytes`, or less where the soft
//! `RLIMIT_FSIZE` is lower — and maps all of it, shared, at one address.
//! Virtual page *i* initially maps file page *i* (the *identity*
//! mapping); meshing retargets a virtual span at another span's file
//! range, and the arena restores identities some time after meshed
//! MiniHeaps die. A sparse file costs nothing until written, so the file
//! is never grown, and pointer→page arithmetic is one subtraction.
//!
//! Spans are carved from a bump frontier. Freed spans are kept in three
//! sets (`crate::free_spans`), two of them exactly as §4.4.1:
//!
//! * **dirty** — recently freed, physical pages still committed; preferred
//!   for reuse because they are hot and reclamation is expensive.
//! * **clean** — released to the OS: their file ranges are holes, so
//!   they read zeros and cost nothing until touched again. Adjacent clean
//!   extents merge, and one that reaches the frontier lowers it.
//! * **parked** — the alias spans of a dead meshed MiniHeap. They hold no
//!   physical page of their own (meshing released it) but are still
//!   mapped onto the span they were meshed into, so they are in no set
//!   and are never handed out. Their identities come back at the next
//!   purge, or when span allocation misses the clean set, whichever is
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
//! threshold (64 MB in the paper) or whenever meshing runs. Allocation
//! fails — with [`MeshError::ArenaExhausted`] — only once the file has
//! no room left.
//!
//! Every release is a hole punched in the file ([`sys::punch_hole`]), the
//! paper's `fallocate` (§4.5.1). The arena probes it at construction and
//! fails with [`MeshError::ArenaCreation`] where the file system cannot
//! punch.
//!
//! The page→MiniHeap table used for constant-time pointer lookup on free
//! (§4.4.4) lives in `crate::page_map` — it is lock-free and shared by
//! every shard, while the arena sits behind the sharded heap's leaf lock
//! (see DESIGN.md). The arena keeps the committed-page accounting that
//! serves as the physical-footprint metric; [`Arena::file_pages`] reads
//! what the kernel holds for the file, which punch-hole keeps at or under
//! it.

use crate::barrier::BarrierGuard;
use crate::config::MeshConfig;
use crate::error::MeshError;
use crate::free_spans::{ArenaStats, FreeSpans};
use crate::size_classes::{MAX_SMALL_SIZE, MIN_OBJECTS_PER_SPAN};
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
    /// Pages from the bump frontier: file pages nothing has written since
    /// they were last punched, which read as zero.
    Fresh,
    /// Reused dirty pages (still committed, contents stale).
    Dirty,
    /// Reused clean pages: a hole punched in the file since last use, or
    /// a parked alias whose own range was punched when it was meshed.
    /// Every clean span maps its own file range, so it reads as zero.
    Clean,
}

/// The pages of the largest span a size class takes: a heap whose file
/// cannot hold one cannot serve every class.
const FIRST_SPAN_PAGES: usize = MIN_OBJECTS_PER_SPAN * MAX_SMALL_SIZE / PAGE_SIZE;

/// Dirty (freed but still committed) pages are released to the OS once
/// they exceed this many bytes (§4.4.1; 64 MB in the paper).
const MAX_DIRTY_BYTES: usize = 64 << 20;

/// The meshable arena. All methods require external synchronization (the
/// sharded heap's arena leaf lock); the arena itself performs no locking.
#[derive(Debug)]
pub struct Arena {
    base: *mut u8,
    /// Pages of the mapping, and of the file at construction: the hard
    /// cap. A forked child's file may be shorter ([`Arena::privatize`]);
    /// the mapping's tail past it is then reserved.
    cap_pages: u32,
    file: MemFile,
    spans: FreeSpans,
    committed_pages: usize,
    /// [`MAX_DIRTY_BYTES`] in pages; a unit test lowers it.
    max_dirty_pages: usize,
    barrier: Option<BarrierGuard>,
    counters: Arc<Counters>,
    /// Virtual spans that do not map their own file range: the aliases of
    /// live meshed MiniHeaps and the parked aliases of dead ones.
    aliases: usize,
    /// The most aliases meshing may make ([`alias_budget`]).
    alias_budget: usize,
    /// Set the first time the file's descriptor names another file
    /// ([`Arena::files_intact`]); cleared only by a forked child's
    /// privatization, which gives it a file of its own.
    files_lost: bool,
    /// Test hook: fallible VM calls of the mesh path (protect, remap,
    /// identity restore) seen since it was set, and which of them to
    /// refuse.
    #[cfg(test)]
    refused_vm_calls: (u32, std::ops::Range<u32>),
}

// SAFETY: the raw base pointer refers to a mapping owned by the arena;
// the arena is only ever used under the sharded heap's arena lock.
unsafe impl Send for Arena {}

impl Arena {
    /// Creates an arena per `config`: creates its memory file at the cap,
    /// `max_heap_bytes` or the soft `RLIMIT_FSIZE` if that is lower, maps
    /// it, probes hole punching on its first page, and registers the
    /// mapping with the write-barrier fault handler when
    /// `config.write_barrier` is set.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaCreation`] if the file cannot be created,
    /// is limited below the largest span a size class takes (`EFBIG`), or
    /// cannot have a hole punched in it, and [`MeshError::Map`] if it
    /// cannot be mapped.
    pub fn new(config: &MeshConfig, counters: Arc<Counters>) -> Result<Arena, MeshError> {
        let wanted = config.arena_pages();
        let floor = FIRST_SPAN_PAGES.min(wanted);
        let cap_pages = pages_within_limit(wanted, floor, sys::file_size_limit())
            .map_err(MeshError::ArenaCreation)?;
        note_capped(cap_pages, wanted);
        let cap_bytes = cap_pages * PAGE_SIZE;
        let file = MemFile::create(cap_bytes).map_err(MeshError::ArenaCreation)?;
        sys::punch_hole(&file, 0, PAGE_SIZE).map_err(MeshError::ArenaCreation)?;
        let base = sys::map_file_shared(&file).map_err(MeshError::Map)?;
        let barrier = if config.write_barrier {
            BarrierGuard::register(base as usize, cap_bytes)
        } else {
            None
        };
        Ok(Arena {
            base,
            cap_pages: cap_pages as u32,
            file,
            spans: FreeSpans::new(cap_pages as u32),
            committed_pages: 0,
            max_dirty_pages: MAX_DIRTY_BYTES / PAGE_SIZE,
            barrier,
            counters,
            aliases: 0,
            alias_budget: alias_budget(sys::max_map_count()),
            files_lost: false,
            #[cfg(test)]
            refused_vm_calls: (0, 0..0),
        })
    }

    /// Base address of the arena mapping.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.base as usize
    }

    /// Total capacity in pages (the hard cap).
    #[inline]
    pub fn capacity_pages(&self) -> u32 {
        self.cap_pages
    }

    /// Pages currently committed (the physical footprint).
    #[inline]
    pub fn committed_pages(&self) -> usize {
        self.committed_pages
    }

    /// Pages below the bump frontier: every page the heap has handed out
    /// and not given back clean at the top (committed ≤ mapped ≤
    /// capacity).
    #[inline]
    pub fn mapped_pages(&self) -> usize {
        self.spans.frontier() as usize
    }

    /// The write-barrier guard, if registered.
    #[inline]
    pub(crate) fn barrier(&self) -> Option<&BarrierGuard> {
        self.barrier.as_ref()
    }

    /// Address of arena page `page`.
    #[inline]
    pub fn addr_of_page(&self, page: u32) -> usize {
        debug_assert!(page < self.cap_pages);
        self.base as usize + page as usize * PAGE_SIZE
    }

    /// Arena page containing `addr`, or `None` if outside the mapping.
    #[inline]
    pub fn page_of_addr(&self, addr: usize) -> Option<u32> {
        let base = self.base as usize;
        if addr < base {
            return None;
        }
        let page = (addr - base) / PAGE_SIZE;
        if page < self.cap_pages as usize {
            Some(page as u32)
        } else {
            None
        }
    }

    /// The file's accounting snapshot.
    pub fn stats(&self) -> ArenaStats {
        self.spans.stats(self.committed_pages)
    }

    /// The physical pages the file holds, by one `fstat`: the kernel's
    /// exact count, not the arena's. A refused `fstat`, which an open
    /// memory file does not see, reads 0. `None` from the loss of the file
    /// on (`Arena::files_intact`): the descriptor may name the program's
    /// file then.
    pub fn file_pages(&mut self) -> Option<usize> {
        self.files_intact()
            .then(|| self.file.held_pages().unwrap_or(0))
    }

    fn set_committed(&mut self, pages: usize) {
        self.committed_pages = pages;
        self.counters.set_committed(pages);
    }

    /// Publishes the frontier as the mapped-page count; every call that
    /// may move it ends here.
    fn note_frontier(&self) {
        self.counters
            .mapped_pages
            .store(self.mapped_pages(), Ordering::Relaxed);
    }

    /// Hands out a span of `pages` pages, preferring dirty, then clean,
    /// then fresh pages from the frontier (§4.4.1).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaExhausted`] when the file has no room for
    /// the request.
    pub fn alloc_span(&mut self, pages: u32) -> Result<(Span, SpanSource), MeshError> {
        assert!(pages > 0);
        // 1. Dirty reuse: exact length only (dirty spans are transient).
        //    Already committed; no accounting change.
        if let Some(offset) = self.spans.take_dirty_exact(pages) {
            return Ok((Span::new(offset, pages), SpanSource::Dirty));
        }
        // 2. Clean reuse; parked aliases become clean spans before any
        //    fresh page is carved, so address space is reused as if their
        //    identities had come back when their MiniHeaps died.
        let mut clean = self.spans.take_clean(pages);
        if clean.is_none() && self.spans.has_parked() {
            self.file_clean(false);
            clean = self.spans.take_clean(pages);
        }
        let handed = match clean {
            Some(span) => (span, SpanSource::Clean),
            // 3. Fresh pages from the frontier.
            None => {
                let offset = self
                    .spans
                    .take_fresh(pages)
                    .ok_or(MeshError::ArenaExhausted {
                        requested_pages: pages as usize,
                        capacity_pages: self.file.len() / PAGE_SIZE,
                    })?;
                self.note_frontier();
                (Span::new(offset, pages), SpanSource::Fresh)
            }
        };
        self.set_committed(self.committed_pages + pages as usize);
        Ok(handed)
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

    /// Returns a dead span to the dirty set; triggers a purge when the
    /// dirty threshold is exceeded.
    pub fn free_span_dirty(&mut self, span: Span) {
        self.spans.free_dirty(span);
        if self.spans.dirty_pages() > self.max_dirty_pages {
            self.purge_dirty();
        }
    }

    /// Returns a span whose physical pages were already released straight
    /// to the clean set. No accounting change: the pages were uncommitted
    /// at release time.
    pub fn free_span_clean(&mut self, span: Span) {
        self.spans.free_clean(span);
        self.note_frontier();
    }

    /// Parks the alias span of a dead meshed MiniHeap: its file range was
    /// released when it was meshed, but it still maps the range it was
    /// meshed into, so it is handed to nobody until a purge or a clean-set
    /// miss has restored its identity mapping. The caller has cleared its
    /// page-map entry.
    pub(crate) fn park_alias(&mut self, span: Span) {
        self.spans.free_parked(span);
    }

    /// Releases a dead span's physical pages immediately and files it
    /// under clean (used for large objects, §4); under dirty once the
    /// file is lost, since nothing is punched then.
    pub fn release_span(&mut self, span: Span) {
        if self.release_physical(span) {
            self.free_span_clean(span);
        } else {
            self.free_span_dirty(span);
        }
    }

    /// Releases the physical file range behind `span`, a span mapping its
    /// own file range: any never-meshed span, or a mesh source's primary.
    /// Returns whether it did, which it does while the file is intact.
    pub fn release_physical(&mut self, span: Span) -> bool {
        self.release_run(span, span.pages as usize)
    }

    /// Punches the file range behind `run` with one kernel call, and
    /// uncommits the `pages` of it that held physical pages. The hole is
    /// punched by file offset, so it does not matter what the run's
    /// virtual pages map meanwhile. Punches nothing, and returns `false`,
    /// once the file is lost.
    fn release_run(&mut self, run: Span, pages: usize) -> bool {
        if !self.files_intact() {
            return false;
        }
        let t0 = Instant::now();
        let punched = sys::punch_hole(&self.file, run.byte_offset(), run.byte_len());
        // The probe at construction showed the file can be punched.
        debug_assert!(punched.is_ok(), "punching {run}: {punched:?}");
        self.set_committed(self.committed_pages - pages);
        self.counters
            .record_slow(TimedOp::Madvise, t0, pages as u64);
        true
    }

    /// Releases the file ranges behind a batch's mesh sources — their
    /// primary spans, sorted by offset — in runs of adjacent spans, one
    /// kernel call per run. The caller has remapped every source onto its
    /// destination, so no reader sees the zeros.
    pub(crate) fn release_sources(&mut self, primaries: &[Span]) {
        let mut i = 0;
        while i < primaries.len() {
            let (run, next) = run_at(primaries, i, |&s| s);
            self.release_run(run, run.pages as usize);
            i = next;
        }
    }

    /// Releases every dirty span to the OS, moving them to the clean set
    /// (§4.4.1: after 64 MB accumulate, or when meshing runs), and brings
    /// back the identity mapping of every parked alias.
    ///
    /// Dirty and parked spans are sorted into maximal runs of adjacent
    /// spans. A run holding a parked span gets one identity `mmap` over
    /// all of it, after which the kernel merges its VMAs; a run holding
    /// dirty pages is released with one kernel call (with its identity
    /// mapping in place, virtual adjacency equals file adjacency) and only
    /// the dirty pages are uncommitted — a parked span's file range has
    /// been a hole since it was meshed. With thousands of spans dying
    /// together this saves the same factor in syscalls.
    pub fn purge_dirty(&mut self) {
        if (self.spans.dirty_pages() == 0 && !self.spans.has_parked()) || !self.files_intact() {
            return;
        }
        let dirty = self.spans.dirty_pages();
        self.file_clean(true);
        let purged = dirty - self.spans.dirty_pages();
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
        let mut spans: Vec<(Span, bool)> = self
            .spans
            .take_all_parked()
            .into_iter()
            .map(|s| (s, true))
            .collect();
        if purge {
            spans.extend(self.spans.take_all_dirty().into_iter().map(|s| (s, false)));
        }
        spans.sort_unstable_by_key(|&(s, _)| s.offset);
        let mut i = 0;
        while i < spans.len() {
            let (run, next) = run_at(&spans, i, |&(s, _)| s);
            let members = &spans[i..next];
            i = next;
            let dirty: usize = members
                .iter()
                .filter(|&&(_, parked)| !parked)
                .map(|&(s, _)| s.pages as usize)
                .sum();
            // A run holding a parked span gets its identity back first;
            // its dirty pages go in one punch if it did, one per span if
            // not.
            let restored = dirty == run.pages as usize || self.restore_identity(run).is_ok();
            let punched = restored && dirty > 0 && self.release_run(run, dirty);
            if restored && (punched || dirty == 0) {
                // Every member went clean: the run is one extent.
                self.aliases -= members.iter().filter(|&&(_, parked)| parked).count();
                self.spans.file_clean(run);
                continue;
            }
            for &(span, parked) in members {
                if parked && restored {
                    self.aliases -= 1;
                    self.spans.file_clean(span);
                } else if parked {
                    self.spans.repark(span);
                } else if punched || self.release_run(span, span.pages as usize) {
                    self.spans.file_clean(span);
                } else {
                    self.spans.redirty(span);
                }
            }
        }
        self.note_frontier();
    }

    /// Whether the file's descriptor still names the file the arena
    /// created ([`MemFile::is_intact`], one `fstat`). The first time it
    /// does not — the program closed the descriptor, and the number may
    /// name a file of its own — the heap stops meshing and purging: a
    /// remap, punch or identity restore through the number would write
    /// into that file. Allocation goes on from what is mapped. The loss is
    /// counted in `HeapStats::files_lost` and told on one `mesh:` line.
    pub(crate) fn files_intact(&mut self) -> bool {
        if !self.files_lost && !self.file.is_intact() {
            self.files_lost = true;
            self.counters.files_lost.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "mesh: the heap's file descriptor {} names another file; meshing and purging stop",
                self.file.fd()
            );
        }
        !self.files_lost
    }

    /// Whether the file was found lost ([`Arena::files_intact`]), without
    /// looking again.
    pub(crate) fn files_lost(&self) -> bool {
        self.files_lost
    }

    /// Bytes currently sitting in the dirty set.
    pub fn dirty_bytes(&self) -> usize {
        self.spans.dirty_pages() * PAGE_SIZE
    }

    /// Re-backs the arena with a private copy of its file and restores
    /// the *identity* mapping over all of it — the arena half of fork
    /// privatization. A forked child shares `MAP_SHARED` file pages with
    /// its parent, so without this the two processes would corrupt each
    /// other's heap the moment either writes.
    ///
    /// The child's file is as long as the parent's, or shorter where the
    /// soft `RLIMIT_FSIZE` is lower now than when the heap was built:
    /// sizing it past the limit would end the child with `SIGXFSZ`. It
    /// then holds the frontier, the mapping's tail past it is reserved,
    /// and one `mesh:` line gives the child's cap.
    ///
    /// While the file is intact the copy is one sparse copy of the pages
    /// below the frontier, so the child's physical footprint,
    /// [`Arena::file_pages`], equals the parent's. Once it is lost its
    /// descriptor may name the program's file, so the copy is made
    /// through the inherited mapping instead, of the spans in `live` (the
    /// primary span of every live MiniHeap and every large object, less a
    /// guard page), and every dirty span is filed clean: nothing was
    /// copied into it. The new file is the child's own, so the child
    /// meshes and purges again.
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
    /// Returns `EFBIG` when the soft `RLIMIT_FSIZE` is below the
    /// frontier, and otherwise the first file-creation/copy/remap error;
    /// the arena is then still backed by the file it shares with the
    /// parent.
    pub(crate) fn privatize(&mut self, live: &[Span]) -> std::io::Result<()> {
        let pages = self.file.len() / PAGE_SIZE;
        let kept = pages_within_limit(pages, self.mapped_pages(), sys::file_size_limit())?;
        let fresh = MemFile::create(kept * PAGE_SIZE)?;
        if self.files_intact() {
            sys::copy_file_sparse(&self.file, &fresh, self.mapped_pages() * PAGE_SIZE)?;
        } else {
            for span in live {
                // SAFETY: a live span of the arena's mapping, all of it
                // readable, which nothing writes while the heap is
                // quiesced for the fork.
                let bytes = unsafe {
                    std::slice::from_raw_parts(
                        self.addr_of_page(span.offset) as *const u8,
                        span.byte_len(),
                    )
                };
                fresh.write_at(bytes, span.byte_offset())?;
            }
        }
        // SAFETY: the range is the arena's own mapping, of the file's length.
        unsafe { sys::map_file_fixed(&fresh, self.base)? };
        if kept < pages {
            // SAFETY: the arena's own mapping past the new file's end,
            // above the frontier, so no span lies in it.
            let reserved = unsafe {
                sys::unmap_to_reserved(
                    self.base.add(kept * PAGE_SIZE),
                    (pages - kept) * PAGE_SIZE,
                )
            };
            // Were it refused, the tail would map the parent's file
            // without a span in it: nothing reads or writes it.
            debug_assert!(reserved.is_ok(), "reserving the tail: {reserved:?}");
            self.spans.lower_cap(kept as u32);
            note_capped(kept, pages);
        }
        // The old (shared) file closes here; the parent keeps its own
        // descriptor and mappings, so only the child lets go.
        drop(std::mem::replace(&mut self.file, fresh));
        for span in self.spans.take_all_parked() {
            self.spans.file_clean(span);
            self.aliases -= 1;
        }
        if self.files_lost {
            let dirty = self.spans.dirty_pages();
            for span in self.spans.take_all_dirty() {
                self.spans.file_clean(span);
            }
            self.set_committed(self.committed_pages - dirty);
            self.files_lost = false;
        }
        self.note_frontier();
        Ok(())
    }

    // ----- meshing primitives -------------------------------------------

    /// Remaps virtual span `vspan` to alias the file range of `target`
    /// (which must have equal length): the §4.5.1 page-table update.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Map`] if the kernel rejects the remap; the
    /// prior mapping is unchanged in that case.
    pub fn remap_alias(&mut self, vspan: Span, target: Span) -> Result<(), MeshError> {
        assert_eq!(vspan.pages, target.pages, "mesh of unequal spans");
        self.refuse_if_injected()?;
        unsafe {
            sys::remap_fixed(
                self.addr_of_page(vspan.offset) as *mut u8,
                vspan.byte_len(),
                &self.file,
                target.byte_offset(),
            )
            .map_err(MeshError::Map)
        }
    }

    /// Restores the identity mapping of `vspan` (virtual page *i* → file
    /// page *i*): a run of parked and dirty spans at a purge.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::Map`] if the kernel rejects the remap.
    /// Returns `EBADF` once the file is lost (`Arena::files_intact`).
    pub fn restore_identity(&mut self, vspan: Span) -> Result<(), MeshError> {
        if !self.files_intact() {
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
            let (run, next) = run_at(spans, i, |&s| s);
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

/// The pages of a heap file of at most `pages` pages that the soft
/// `RLIMIT_FSIZE` (`limit`, in bytes) lets the process size: `EFBIG` when
/// that is fewer than `floor`. A file sized past the limit ends the
/// process with `SIGXFSZ`.
fn pages_within_limit(pages: usize, floor: usize, limit: Option<usize>) -> std::io::Result<usize> {
    let pages = limit.map_or(pages, |bytes| pages.min(bytes / PAGE_SIZE));
    if pages < floor {
        return Err(std::io::Error::from_raw_os_error(crate::ffi::EFBIG));
    }
    Ok(pages)
}

/// Tells, on one `mesh:` line, that the soft `RLIMIT_FSIZE` holds the
/// heap's file to `pages` of the `wanted`: allocation fails past it.
fn note_capped(pages: usize, wanted: usize) {
    if pages < wanted {
        eprintln!(
            "mesh: the soft RLIMIT_FSIZE caps the heap at {} KiB of {} KiB; allocation fails past it",
            pages * PAGE_SIZE / 1024,
            wanted * PAGE_SIZE / 1024
        );
    }
}

/// The maximal run of adjacent spans that starts at `items[i]` (`items`
/// sorted by offset), and the index of the first item past it.
fn run_at<T>(items: &[T], i: usize, span_of: impl Fn(&T) -> Span) -> (Span, usize) {
    let start = span_of(&items[i]).offset;
    let mut end = span_of(&items[i]).end();
    let mut next = i + 1;
    while next < items.len() && span_of(&items[next]).offset == end {
        end = span_of(&items[next]).end();
        next += 1;
    }
    (Span::new(start, end - start), next)
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Deregister the fault handler range before the mapping disappears.
        self.barrier = None;
        // One munmap covers the whole mapping, aliases included; the file
        // closes as the arena drops.
        unsafe { sys::unmap(self.base, self.cap_pages as usize * PAGE_SIZE) };
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
        // A span above it keeps the released one below the frontier.
        a.alloc_span(1).unwrap();
        a.release_span(s);
        assert_eq!(a.committed_pages(), 1);
        let (head, src) = a.alloc_span(1).unwrap();
        assert_eq!(src, SpanSource::Clean);
        assert_eq!(head, Span::new(0, 1));
        assert_eq!(a.committed_pages(), 2);
        // The 3-page tail is still clean.
        let (tail, src) = a.alloc_span(3).unwrap();
        assert_eq!(src, SpanSource::Clean);
        assert_eq!(tail, Span::new(1, 3));
    }

    #[test]
    fn purge_threshold_releases_dirty() {
        let config = MeshConfig::default()
            .arena_bytes(256 * PAGE_SIZE)
            .write_barrier(false);
        let counters = Arc::new(Counters::default());
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        a.max_dirty_pages = 4;
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
        // The run reached the frontier, which came down over it.
        assert_eq!(a.mapped_pages(), 0);
        assert_eq!(
            a.alloc_span(2).unwrap(),
            (Span::new(0, 2), SpanSource::Fresh)
        );
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
        assert_eq!(a.file_pages(), Some(0), "the file holds nothing");
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
    fn release_sources_is_one_call_per_run() {
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(64 * PAGE_SIZE)
            .write_barrier(false);
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        let spans: Vec<Span> = (0..8).map(|_| a.alloc_span(1).unwrap().0).collect();
        // Pages 1..6 and 7: two runs, two calls.
        a.release_sources(&[spans[1], spans[2], spans[3], spans[4], spans[5], spans[7]]);
        assert_eq!(a.committed_pages(), 2);
        assert_eq!(counters.snapshot().latency.count(TimedOp::Madvise), 2);
    }

    /// Two dead 1-page spans with an alias of the first between them, as
    /// `free_miniheap_locked` leaves them: `[dirty, parked, dirty]`, under
    /// a live fourth span that keeps the frontier above them.
    fn parked_between_dirty(a: &mut Arena) -> [Span; 3] {
        let spans: Vec<Span> = (0..4).map(|_| a.alloc_span(1).unwrap().0).collect();
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
        assert_eq!(a.committed_pages(), 3, "the alias holds no page of its own");
        let stats = a.stats();
        assert_eq!(
            (
                stats.dirty_pages,
                stats.clean_pages,
                stats.outstanding_pages
            ),
            (2, 1, 1)
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
        assert_eq!(a.committed_pages(), 1, "the live span's");
        assert_eq!(a.stats().clean_pages, 3);
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
            (Span::new(4, 2), SpanSource::Fresh),
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
        let mut a = arena(4);
        let [_, alias, _] = parked_between_dirty(&mut a);
        a.refuse_vm_calls(1..2);
        a.purge_dirty();
        // The dirty spans were released on their own; the alias waits.
        assert_eq!(a.committed_pages(), 1, "the live span's");
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

    // ----- the frontier ----------------------------------------------------

    #[test]
    fn fresh_spans_raise_the_frontier_within_one_mapping() {
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(4096 * PAGE_SIZE)
            .write_barrier(false);
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        assert_eq!(a.mapped_pages(), 0, "nothing handed out yet");
        let (s1, _) = a.alloc_span(32).unwrap();
        let (s2, src) = a.alloc_span(512).unwrap();
        assert_eq!((s2, src), (Span::new(32, 512), SpanSource::Fresh));
        assert_eq!(a.mapped_pages(), 544);
        assert_eq!(counters.snapshot().mapped_pages, 544);
        // Both spans are writable through the one mapping.
        unsafe {
            std::ptr::write_bytes(a.addr_of_page(s1.offset) as *mut u8, 1, s1.byte_len());
            std::ptr::write_bytes(a.addr_of_page(s2.offset) as *mut u8, 2, s2.byte_len());
        }
        assert_eq!(a.file_pages(), Some(544));
    }

    #[test]
    fn purged_spans_at_the_top_lower_the_frontier() {
        let counters = Arc::new(Counters::default());
        let config = MeshConfig::default()
            .arena_bytes(256 * PAGE_SIZE)
            .write_barrier(false);
        let mut a = Arena::new(&config, Arc::clone(&counters)).unwrap();
        let (low, _) = a.alloc_span(32).unwrap();
        let (top, _) = a.alloc_span(32).unwrap();
        unsafe {
            std::ptr::write_bytes(a.addr_of_page(top.offset) as *mut u8, 9, top.byte_len());
        }
        a.free_span_dirty(top);
        assert_eq!(a.mapped_pages(), 64, "dirty pages stay below the frontier");
        a.purge_dirty();
        assert_eq!((a.mapped_pages(), a.committed_pages()), (32, 32));
        assert_eq!(counters.snapshot().mapped_pages, 32);
        // The range is fresh again: zero, and handed out from the frontier.
        let (again, src) = a.alloc_span(32).unwrap();
        assert_eq!((again, src), (top, SpanSource::Fresh));
        unsafe { assert_eq!(*(a.addr_of_page(again.offset) as *const u8), 0) };
        a.release_span(again);
        a.release_span(low);
        assert_eq!((a.mapped_pages(), a.committed_pages()), (0, 0));
    }

    #[test]
    fn privatize_copies_at_most_the_frontier() {
        let mut a = arena(256);
        let (s1, _) = a.alloc_span(4).unwrap();
        let (s2, _) = a.alloc_span(32).unwrap();
        let p1 = a.addr_of_page(s1.offset) as *mut u8;
        let p2 = a.addr_of_page(s2.offset) as *mut u8;
        unsafe {
            std::ptr::write_bytes(p1, 0x11, s1.byte_len());
            std::ptr::write_bytes(p2, 0x22, s2.byte_len());
        }
        a.privatize(&[]).unwrap();
        unsafe {
            assert_eq!(*p1, 0x11, "data survived the file swap");
            assert_eq!(*p1.add(s1.byte_len() - 1), 0x11);
            assert_eq!(*p2, 0x22);
            assert_eq!(*p2.add(s2.byte_len() - 1), 0x22);
            // Still writable through the fresh mapping.
            *p1 = 0x33;
            assert_eq!(*p1, 0x33);
        }
        assert_eq!(a.mapped_pages(), 36);
        assert_eq!(
            a.file_pages(),
            Some(36),
            "the copy is as sparse as the file"
        );
    }

    #[test]
    fn a_file_size_limit_caps_the_file_down_to_its_floor() {
        let mib = 1 << 20;
        let pages = |bytes: usize| bytes / PAGE_SIZE;
        assert_eq!(pages_within_limit(1024, 32, None).unwrap(), 1024);
        assert_eq!(pages_within_limit(1024, 32, Some(64 * mib)).unwrap(), 1024);
        assert_eq!(pages_within_limit(1024, 32, Some(mib + 1)).unwrap(), pages(mib));
        assert_eq!(pages_within_limit(1024, 32, Some(32 * PAGE_SIZE)).unwrap(), 32);
        let refused = pages_within_limit(1024, 32, Some(32 * PAGE_SIZE - 1)).unwrap_err();
        assert_eq!(refused.raw_os_error(), Some(crate::ffi::EFBIG));
    }

    #[test]
    fn privatize_files_parked_aliases_clean() {
        let mut a = arena(4);
        let [first, alias, _] = parked_between_dirty(&mut a);
        a.privatize(&[]).unwrap();
        assert_eq!(a.alias_count(), 0);
        // The whole-file remap was the alias's restore: the span is
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
        let mut a = arena(96);
        for _ in 0..3 {
            assert!(a.alloc_span(32).is_ok());
        }
        match a.alloc_span(1) {
            Err(MeshError::ArenaExhausted { capacity_pages, .. }) => {
                assert_eq!(capacity_pages, 96)
            }
            other => panic!("expected cap exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn arena_stats_reflect_lifecycle() {
        let mut a = arena(256);
        let (_, _) = a.alloc_span(32).unwrap();
        let (s2, _) = a.alloc_span(4).unwrap();
        let (_, _) = a.alloc_span(4).unwrap();
        let stats = a.stats();
        assert_eq!((stats.pages, stats.fresh_pages), (256, 216));
        assert_eq!((stats.outstanding_pages, stats.committed_pages), (40, 40));
        a.free_span_dirty(s2);
        assert_eq!(a.stats().dirty_pages, 4);
        a.purge_dirty();
        let stats = a.stats();
        assert_eq!(
            (stats.dirty_pages, stats.clean_pages, stats.committed_pages),
            (0, 4, 36)
        );
    }
}
