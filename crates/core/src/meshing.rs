//! Meshing: finding and merging spans with disjoint allocations
//! (§3.3, §5.1, §4.5 implementation).
//!
//! A pass runs one size class at a time, holding only that class's shard
//! lock (plus the arena leaf lock around the virtual-memory operations) —
//! see DESIGN.md's locking discipline. For each class it collects the
//! detached, partially-occupied MiniHeaps — reading each bitmap afresh,
//! since frees clear bits without the lock and the bins lag them — and
//! packs them by **multi-way first fit** (`first_fit`): fullest first,
//! each candidate folds into the lowest-numbered destination opened so far
//! whose gathered bits — its own and those of the sources already folded
//! into it — it is disjoint from; a candidate that fits none opens a
//! destination of its own; a transposed `OccupancyIndex` makes the search
//! exact within `FIT_BUDGET`. The found `(destination, source)` pairs are
//! then meshed en masse (§4.5). Frees keep arriving throughout; only an
//! attach sets bits, and it needs the lock, so bits found disjoint stay
//! disjoint.
//!
//! This departs from the paper's SplitMesher (§3.3, Figure 2) on purpose.
//! SplitMesher approximates a *matching*: a pass folds at most one span
//! into another, while §5.1 frames meshing as MinCliqueCover, where `k`
//! mutually disjoint spans fold into one and release `k − 1`. On
//! `frag_mesh` (12 % random survivors) first fit took `frag_ratio` from
//! 1.85 to 1.19 and steady RSS down 18 % (DESIGN.md §3), and on §5's
//! random strings `mesh_graph::first_fit` releases up to 1.8× what
//! SplitMesher does, as much as the greedy clique cover.
//!
//! Meshing is the two-step §4.5 process, done a **batch** of pairs at a
//! time (`MESH_BATCH`, sorted by source address) so that the
//! virtual-memory calls come in runs and not per span. One raise of the
//! §4.5.2 barrier and one odd interval of the class's mesh epoch cover a
//! batch: the sources' virtual spans are write-protected, one `mprotect`
//! per run of adjacent spans; each source's bitmap is *taken* word by word
//! (`swap(0)`) and every object whose bit was taken is copied *to the same
//! slot offset* in its destination span, whose bit is set — an object
//! freed before its word was taken is not copied, and a free that arrives
//! after finds the bit gone, waits for the epoch to turn even, and finds
//! the object in the destination (DESIGN.md §3). No application pointer
//! changes because the virtual addresses of a source span survive: its
//! mapping is atomically retargeted at the destination's physical span,
//! and then the sources' physical pages return to the OS, one hole punched
//! per run of adjacent file ranges ([`crate::sys::punch_hole`]). Punching
//! after the remaps means no reader ever sees the zeros a hole reads as.
//! The longest a writer can spin in the
//! barrier's fault handler, or a free wait for an even epoch, is therefore
//! one batch: at most `MESH_BATCH` pairs' copies and `MESH_BATCH_SPANS`
//! remaps, a bound that does not grow with the heap (Compact-fit's
//! bounded step, PAPERS.md). A destination's sources may fall in several
//! batches, so each destination is settled once, after its class's last
//! batch: one that frees emptied meanwhile still takes its later sources.
//!
//! Each folded source makes one alias, a virtual span mapping another
//! span's file range, and each alias may cost the process two mappings.
//! The arena counts aliases against a budget read from `vm.max_map_count`
//! (DESIGN.md §2a), and first fit folds no more sources than the budget
//! allows: the first fit past it is refused under
//! [`RejectReason::AliasBudget`] and ends the class's probing. The kernel
//! can still refuse any of these calls, and none of them is fatal: a
//! refused protect abandons the batch before a bit is taken, a refused
//! remap rolls its pair back inside the odd interval, and either ends the
//! class's pass ([`RejectReason::CopyAbort`]). Nor does a pass touch the
//! heap's file once it is no longer the file the heap created
//! (`Arena::files_intact`): the program closed its descriptor and the
//! number now names a file of the program's.
//!
//! Passes are initiated inline, by the §4.5 free-path rate limiter, or by
//! `mesh_now`; the per-class locks make concurrent passes safe, and the
//! scheduler's claim-based timer makes them rare.

use crate::arena::Arena;
use crate::bitmap::WORDS;
use crate::class_shard::ClassState;
use crate::global_heap::GlobalHeap;
use crate::miniheap::{MiniHeapId, MiniHeapRef};
use crate::size_classes::{SizeClass, PAGE_SIZE};
use crate::span::Span;
use crate::telemetry::{PassRecord, RejectReason, TimedOp, REJECT_REASONS};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Outcome of one meshing pass.
///
/// # Examples
///
/// ```
/// use mesh_core::{Mesh, MeshConfig};
///
/// # fn main() -> Result<(), mesh_core::MeshError> {
/// let mesh = Mesh::new(MeshConfig::default().arena_bytes(16 << 20))?;
/// let summary = mesh.mesh_now();
/// assert_eq!(summary.pairs_meshed, 0, "empty heap has nothing to mesh");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeshSummary {
    /// Sources folded into a destination: one per meshed
    /// `(destination, source)` pair, so `k` spans meshed into one count
    /// `k − 1`.
    pub pairs_meshed: usize,
    /// Physical pages released by those merges.
    pub pages_released: usize,
    /// Object bytes copied between spans.
    pub bytes_copied: usize,
    /// Chunk queries made by first fit: each tests one candidate against
    /// up to 64 open destinations at once (the search cost).
    pub pairs_probed: usize,
}

impl MeshSummary {
    /// Bytes of physical memory this pass returned to the OS.
    pub fn bytes_released(&self) -> usize {
        self.pages_released * crate::size_classes::PAGE_SIZE
    }
}

/// Runs first fit and meshes the found pairs for every meshable size
/// class, taking one class lock at a time. Then purges dirty pages, as
/// §4.4.1 prescribes whenever meshing is invoked, once at least
/// `purge_floor` bytes are dirty.
pub(crate) fn mesh_all_classes(heap: &GlobalHeap, purge_floor: usize) -> MeshSummary {
    let t0 = Instant::now();
    // Ledger bookkeeping: `pages_purged` moved by this pass's purge work
    // becomes the pass's madvise-bytes figure.
    let purged_before = heap.counters.pages_purged.load(Ordering::Relaxed);
    let mut summary = MeshSummary::default();
    let mut candidates_scanned = 0u64;
    let mut rejected = [0u64; REJECT_REASONS];
    // Every class is visited — non-meshable classes (≥ one page per
    // object) still rely on passes for the spans frees emptied without
    // getting the class lock.
    for class in SizeClass::all() {
        let (mut st, contended) = heap.lock_class_reporting(class);
        if contended {
            rejected[RejectReason::ClassContention as usize] += 1;
        }
        heap.tidy_locked(class, &mut st);
        if !class.is_meshable() {
            continue;
        }
        // The selection phase is timed even when it comes up dry: the
        // partial-bin scan and first fit are the search cost the histogram
        // exists to expose, and a dry scan (arg 0) is still that cost.
        let select_t0 = Instant::now();
        let candidates = collect_candidates(heap, &mut st);
        candidates_scanned += candidates.len() as u64;
        let (alias_room, lost) = {
            let arena = heap.lock_arena();
            (arena.alias_room(), arena.files_lost())
        };
        if candidates.len() < 2 || lost {
            heap.counters.record_slow(TimedOp::MeshCandidates, select_t0, 0);
            continue;
        }
        let mut index = OccupancyIndex::new(class.object_count());
        let live = |id| st.slab.get(id).expect("candidate is live").bitmap().iter_set();
        let pairs = first_fit(candidates, live, &mut index, alias_room, &mut rejected);
        summary.pairs_probed += index.probes;
        heap.counters
            .record_slow(TimedOp::MeshCandidates, select_t0, pairs.len() as u64);
        mesh_pairs(heap, &mut st, class, pairs, &mut summary, &mut rejected);
    }
    // The loop tidied every class, so every span frees emptied is in the
    // dirty set now. They go back to the OS once they reach the floor,
    // and the ones at the top take the frontier down. A pass's floor is
    // the least it must return to be worth it: a pass over a quiet heap
    // finds nothing new and releases nothing, so forced passes do not
    // cycle pages through release and refault. A trim's floor is 0.
    {
        let mut arena = heap.lock_arena();
        if arena.dirty_bytes() >= purge_floor {
            heap.purge_locked(&mut arena);
        }
    }
    heap.counters.record_mesh_pass();
    heap.counters
        .record_slow(TimedOp::MeshPass, t0, summary.pairs_meshed as u64);
    heap.counters
        .spans_meshed
        .fetch_add(summary.pairs_meshed as u64, Ordering::Relaxed);
    heap.counters
        .mesh_pages_released
        .fetch_add(summary.pages_released as u64, Ordering::Relaxed);
    heap.counters
        .mesh_bytes_copied
        .fetch_add(summary.bytes_copied as u64, Ordering::Relaxed);
    let purged = heap.counters.pages_purged.load(Ordering::Relaxed) - purged_before;
    heap.ledger.record(PassRecord {
        at_ms: heap.counters.uptime_ms(),
        candidates: candidates_scanned,
        probes: summary.pairs_probed as u64,
        rejected,
        pairs_meshed: summary.pairs_meshed as u64,
        bytes_recovered: summary.bytes_released() as u64,
        madvise_bytes: purged * PAGE_SIZE as u64,
    });
    summary
}

/// Collects the detached MiniHeaps of `class` that are eligible for
/// meshing ([`is_candidate`]), each with its [`fill_key`]. The partial
/// bins say where to look; occupancy is read from the bitmaps, which
/// frees clear without the lock and without moving a span between partial
/// bins — so each span seen is also refiled under the bin it belongs in,
/// or destroyed if nothing in it is live.
fn collect_candidates(heap: &GlobalHeap, st: &mut ClassState) -> Vec<(u64, MiniHeapId)> {
    let mut out: Vec<(u64, MiniHeapId)> =
        st.bins.partial.iter().flatten().map(|&id| (0, id)).collect();
    out.retain(|&(_, id)| {
        heap.settle_locked(st, id);
        // Destroyed just now if nothing in it was live.
        st.slab.get(id).is_some_and(|mh| {
            debug_assert!(!mh.is_attached());
            is_candidate(mh)
        })
    });
    for (key, id) in &mut out {
        let mh = st.slab.get(*id).expect("candidate is live");
        *key = fill_key(mh.in_use(), mh.span().offset as usize);
    }
    out
}

/// Spans fuller than this fraction of their slots are not mesh
/// candidates.
const OCCUPANCY_CUTOFF: f64 = 0.8;

/// Whether a detached span may join a pass: partially occupied (an empty
/// span is destroyed, not meshed, and a full one has no slot to take
/// another's objects) and no fuller than [`OCCUPANCY_CUTOFF`]. Passes and
/// the spectrum's estimate both ask this.
pub(crate) fn is_candidate(mh: MiniHeapRef<'_>) -> bool {
    let (in_use, count) = (mh.in_use(), mh.object_count());
    in_use > 0 && in_use < count && in_use as f64 / count as f64 <= OCCUPANCY_CUTOFF
}

/// The order [`first_fit`] takes candidates in, highest first: the
/// fullest first, and between equals the one at the lower page, which is
/// then the destination the higher one folds into — so the spans left
/// live sit low and the ones evacuated high, where the frontier can come
/// down over them.
fn fill_key(in_use: usize, page: usize) -> u64 {
    debug_assert!(page <= u32::MAX as usize);
    (in_use as u64) << 32 | (u32::MAX - page as u32) as u64
}

/// The destinations first fit has opened, transposed (bit-sliced): for
/// chunk `c` of 64 destinations, `held[c * slots + s]` has bit `d` set when
/// destination `64c + d` holds slot `s`, its own or one a source folded in
/// brought. ORing a candidate's live slots' words in a chunk leaves, of the
/// chunk's open bits, every destination there it is disjoint from.
#[derive(Default)]
struct OccupancyIndex {
    slots: usize,
    held: Vec<u64>,
    /// Per chunk, the destinations with a free slot left.
    open: Vec<u64>,
    /// No chunk below this one has an open destination.
    first_open: usize,
    /// Per destination, its id and the slots it holds.
    dsts: Vec<(MiniHeapId, u16)>,
    /// Chunk queries: one candidate against up to 64 open destinations.
    probes: usize,
    /// Word operations, at most [`FIT_BUDGET`] per candidate.
    word_ops: usize,
    /// Candidates whose search the budget ended.
    exhausted: usize,
}

impl OccupancyIndex {
    fn new(slots: usize) -> OccupancyIndex {
        OccupancyIndex { slots, ..OccupancyIndex::default() }
    }

    /// The lowest-numbered open destination `live` is disjoint from, in
    /// the chunks from `first_open` on that [`FIT_BUDGET`] reaches at
    /// `live.len()` word operations a chunk. A query that finds every open
    /// destination of its chunk colliding is an `occupancy_overlap`.
    fn find(&mut self, live: &[u8], rejected: &mut [u64; REJECT_REASONS]) -> Option<usize> {
        let reach = FIT_BUDGET / live.len().max(1);
        for (k, c) in (self.first_open..self.open.len()).enumerate() {
            if k == reach {
                self.exhausted += 1;
                return None;
            }
            self.word_ops += live.len();
            if self.open[c] == 0 {
                continue;
            }
            self.probes += 1;
            let held = &self.held[c * self.slots..][..self.slots];
            let fits = self.open[c] & !live.iter().fold(0, |acc, &s| acc | held[s as usize]);
            if fits != 0 {
                return Some(c * 64 + fits.trailing_zeros() as usize);
            }
            rejected[RejectReason::OccupancyOverlap as usize] += 1;
        }
        None
    }

    /// Opens `id`, whose live slots are `live`, as the next destination.
    fn open(&mut self, id: MiniHeapId, live: &[u8]) {
        let d = self.dsts.len();
        if d.is_multiple_of(64) {
            self.held.resize(self.held.len() + self.slots, 0);
            self.open.push(0);
        }
        self.dsts.push((id, 0));
        self.open[d / 64] |= 1 << (d % 64);
        self.fold(d, live);
    }

    /// Adds `live` to destination `d`'s slots; a full one closes.
    fn fold(&mut self, d: usize, live: &[u8]) {
        let (c, bit) = (d / 64, 1u64 << (d % 64));
        let held = &mut self.held[c * self.slots..][..self.slots];
        live.iter().for_each(|&s| held[s as usize] |= bit);
        self.dsts[d].1 += live.len() as u16;
        if self.dsts[d].1 as usize == self.slots {
            self.open[c] &= !bit;
            // Only the last chunk takes new destinations: never pass it.
            while self.open[self.first_open] == 0 && self.first_open + 1 < self.open.len() {
                self.first_open += 1;
            }
        }
    }
}

/// Multi-way first fit, a pass's pairing step (§5.1's MinCliqueCover,
/// first-fit decreasing). Takes `candidates` (with their [`fill_key`]s)
/// highest key first; each folds into the lowest-numbered open destination
/// of `index` whose gathered bits it is disjoint from, or else opens a
/// destination itself, as does one whose search [`FIT_BUDGET`] ends.
/// `live` lists a candidate's live slots.
///
/// Returns `(destination, source)` pairs, one per folded source, at most
/// `alias_room` of them: each makes one alias (DESIGN.md §2a). The first
/// fit past the alias room is tallied under `alias_budget` and ends the
/// search.
fn first_fit<I: Iterator<Item = usize>>(
    mut candidates: Vec<(u64, MiniHeapId)>,
    live: impl Fn(MiniHeapId) -> I,
    index: &mut OccupancyIndex,
    alias_room: usize,
    rejected: &mut [u64; REJECT_REASONS],
) -> Vec<(MiniHeapId, MiniHeapId)> {
    candidates.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
    let (mut bits, mut pairs) = (Vec::with_capacity(index.slots), Vec::new());
    for (_, id) in candidates {
        bits.clear();
        bits.extend(live(id).map(|slot| slot as u8));
        let Some(d) = index.find(&bits, rejected) else {
            index.open(id, &bits);
            continue;
        };
        if pairs.len() == alias_room {
            rejected[RejectReason::AliasBudget as usize] += 1;
            break;
        }
        index.fold(d, &bits);
        pairs.push((index.dsts[d].0, id));
    }
    pairs
}

/// Pairs meshed behind one raise of the write barrier and inside one odd
/// interval of the class's mesh epoch. With [`MESH_BATCH_SPANS`] it bounds
/// what a writer to a source span or a free that lost its bit to the
/// mesher can wait for, whatever the size of the heap; 64 pairs are under
/// a millisecond of copies and remaps.
pub(crate) const MESH_BATCH: usize = 64;

/// Word operations one candidate's first-fit search may spend: four times
/// the 64 probes of four words that §3.3's `t` = 64 allowed. A candidate
/// with `b` live slots searches `64 · ⌊1024 / b⌋` destinations, so a pass
/// over a dense class stays linear.
pub(crate) const FIT_BUDGET: usize = 1024;

/// Source virtual spans one batch remaps: a batch closes before a pair
/// that would take it past this many, so a source's long alias chain
/// cannot stretch the window. (A batch's first pair is meshed whatever its
/// chain.) 256 is 64 pairs of four-span sources.
pub(crate) const MESH_BATCH_SPANS: usize = 256;

/// One pair of a batch, resolved to the span that stays and the span that
/// is copied out of.
struct Pair {
    dst: MiniHeapId,
    src: MiniHeapId,
    dst_primary: Span,
    src_primary: Span,
    /// The words the batch took from the source's bitmap: the objects it
    /// copied, and what a rollback gives back.
    taken: [u64; WORDS],
    /// Still to be meshed; once the batch's window has closed, meshed.
    live: bool,
}

impl Pair {
    fn new(st: &ClassState, (dst, src): (MiniHeapId, MiniHeapId)) -> Pair {
        let primary = |id| st.slab.get(id).expect("mesh candidate is live").span();
        let (dst_primary, src_primary) = (primary(dst), primary(src));
        debug_assert_eq!(dst_primary.pages, src_primary.pages);
        Pair {
            dst,
            src,
            dst_primary,
            src_primary,
            taken: [0; WORDS],
            live: true,
        }
    }
}

/// Meshes `pairs` of `class`, each `(destination, source)`, a batch at a
/// time: copies each source's objects into its destination, retargets the
/// source's virtual spans, and releases the source's physical span
/// (§4.5). Then settles each destination once — not at each fold: frees
/// may empty a destination while sources in later batches have yet to
/// fold into it. The caller holds the class lock; each batch holds the
/// arena lock across its VM operations.
fn mesh_pairs(
    heap: &GlobalHeap,
    st: &mut ClassState,
    class: SizeClass,
    mut pairs: Vec<(MiniHeapId, MiniHeapId)>,
    summary: &mut MeshSummary,
    rejected: &mut [u64; REJECT_REASONS],
) {
    // Neighbouring sources land in the same batch, where one call
    // protects them and one releases them.
    pairs.sort_unstable_by_key(|&(_, src)| {
        st.slab.get(src).expect("mesh source is live").span().offset
    });
    let mut batch = Vec::with_capacity(MESH_BATCH);
    let mut rest = &pairs[..];
    while !rest.is_empty() {
        let (now, tail) = rest.split_at(batch_len(st, rest));
        rest = tail;
        batch.clear();
        batch.extend(now.iter().map(|&pair| Pair::new(st, pair)));
        if !mesh_batch(heap, st, class, &mut batch, summary, rejected) {
            break;
        }
    }
    pairs.sort_unstable_by_key(|&(dst, _)| dst);
    pairs.dedup_by_key(|&mut (dst, _)| dst);
    for (dst, _) in pairs {
        heap.settle_locked(st, dst);
    }
}

/// How many of `pairs` the next batch takes: at most [`MESH_BATCH`], with
/// at most [`MESH_BATCH_SPANS`] source spans between them, and at least
/// one.
fn batch_len(st: &ClassState, pairs: &[(MiniHeapId, MiniHeapId)]) -> usize {
    let mut spans = 0;
    let fits = pairs.iter().take(MESH_BATCH).take_while(|&&(_, src)| {
        spans += st.slab.get(src).expect("mesh source is live").span_count();
        spans <= MESH_BATCH_SPANS
    });
    fits.count().max(1)
}

/// Meshes one batch (sorted by source address). Returns `false` when the
/// kernel refused a VM call, or the heap's files are no longer its own:
/// pairs it could not mesh are as they were found, and the class's pass
/// should end.
fn mesh_batch(
    heap: &GlobalHeap,
    st: &mut ClassState,
    class: SizeClass,
    batch: &mut [Pair],
    summary: &mut MeshSummary,
    rejected: &mut [u64; REJECT_REASONS],
) -> bool {
    let object_size = class.object_size();
    let mut arena = heap.lock_arena();
    if !arena.files_intact() {
        return false;
    }

    // Copy-window phase: barrier raise through the object copies — the
    // window during which mutator writes to the source spans fault.
    let copy_t0 = Instant::now();

    // Raise the write barrier and protect every virtual span of every
    // source so no thread can write to an object while it is being copied.
    if let Some(guard) = arena.barrier() {
        guard.begin_meshing();
    }
    let mut sources: Vec<Span> = batch
        .iter()
        .flat_map(|pair| source(st, pair).virtual_spans())
        .collect();
    sources.sort_unstable_by_key(|span| span.offset);
    let Ok(protected) = arena.protect_runs(&sources) else {
        if let Some(guard) = arena.barrier() {
            guard.end_meshing();
        }
        rejected[RejectReason::CopyAbort as usize] += batch.len() as u64;
        return false;
    };

    // Hardened canary sweep: with the sources frozen behind the barrier,
    // every *free* slot of both primaries must still hold its class
    // canary (written when the slot died — before its bit was cleared, so
    // a clear bit always has one). A corrupt canary means a dangling write
    // landed in memory this pair is about to copy over or alias; refuse to
    // mesh the pair and surface the violation instead of baking the
    // corruption into a shared physical span.
    if heap.harden.canary_on() {
        for pair in batch.iter_mut() {
            if let Some(addr) = corrupt_canary(heap, st, class, pair) {
                pair.live = false;
                rejected[RejectReason::CanaryTrip as usize] += 1;
                heap.harden_violation(crate::harden::HardenKind::Canary, addr);
            }
        }
    }

    // Consume the sources: from here to `end_consume` a free that finds
    // its bit gone waits. Take each bitmap a word at a time and copy
    // exactly the objects whose bits were taken, each to the same slot of
    // the destination. A free that cleared its bit first is simply not
    // copied.
    heap.begin_consume(class);
    let mut copied = 0u64;
    for pair in batch.iter_mut().filter(|pair| pair.live) {
        let (src, dst) = (source(st, pair), destination(st, pair));
        let src_base = heap.base_addr() + pair.src_primary.byte_offset();
        let dst_base = heap.base_addr() + pair.dst_primary.byte_offset();
        for word in 0..WORDS {
            let taken = src.bitmap().take_word(word);
            pair.taken[word] = taken;
            let held = dst.bitmap().set_word_bits(word, taken);
            debug_assert_eq!(held & taken, 0, "mesh candidates were not disjoint");
            let mut left = taken;
            while left != 0 {
                let slot = word * 64 + left.trailing_zeros() as usize;
                left &= left - 1;
                // SAFETY: both addresses lie in the arena mapping; slots are
                // in-bounds; the ranges cannot overlap (distinct spans); the
                // write barrier prevents concurrent writes to the source.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        (src_base + slot * object_size) as *const u8,
                        (dst_base + slot * object_size) as *mut u8,
                        object_size,
                    );
                }
            }
            copied += taken.count_ones() as u64;
        }
    }
    heap.counters.record_slow(TimedOp::MeshCopy, copy_t0, copied);

    // Remap phase: physical release + alias retargeting through the
    // barrier drop.
    let remap_t0 = Instant::now();

    // Retarget the sources' virtual spans, then release their physical
    // pages (see module docs).
    let mut remapped = 0u64;
    let mut refused = false;
    for pair in batch.iter_mut().filter(|pair| pair.live) {
        let src = source(st, pair);
        let dst_primary = pair.dst_primary;
        let refused_at = src
            .virtual_spans()
            .position(|vs| arena.remap_alias(vs, dst_primary).is_err());
        match refused_at {
            // The page map names the destination only once every span of
            // the source shows it: until then frees of the source's objects
            // keep waiting, and a rollback has no free to chase.
            None => {
                for vs in src.virtual_spans() {
                    heap.page_map.set_span(vs, pair.dst, class.index() as u8);
                }
                remapped += src.span_count() as u64;
                arena.note_alias();
            }
            Some(done) => {
                roll_back(heap, st, &mut arena, class, pair, done);
                pair.live = false;
                refused = true;
                rejected[RejectReason::CopyAbort as usize] += 1;
            }
        }
    }
    heap.end_consume(class);
    let live = batch.iter().filter(|pair| pair.live);
    arena.release_sources(&live.map(|pair| pair.src_primary).collect::<Vec<Span>>());
    // The remaps restored PROT_READ|WRITE on the spans they covered;
    // pairs that dropped out get theirs back here, so spinning writers
    // proceed as soon as the barrier drops.
    if batch.iter().any(|pair| !pair.live) {
        arena.unprotect_runs(&protected);
    }
    if let Some(guard) = arena.barrier() {
        guard.end_meshing();
    }
    heap.counters
        .record_slow(TimedOp::MeshRemap, remap_t0, remapped);
    drop(arena);

    // Fold each source into its destination MiniHeap. Its id stays behind
    // as a tombstone on the destination's chain, its bitmap all zero,
    // until the destination dies. `mesh_pairs` settles the destination.
    for pair in batch.iter().filter(|pair| pair.live) {
        st.bin_remove(pair.src);
        st.slab.absorb(pair.dst, pair.src);
        summary.pairs_meshed += 1;
        summary.pages_released += pair.src_primary.pages as usize;
        let objects: u32 = pair.taken.iter().map(|word| word.count_ones()).sum();
        summary.bytes_copied += objects as usize * object_size;
    }
    !refused
}

fn source<'a>(st: &'a ClassState, pair: &Pair) -> MiniHeapRef<'a> {
    st.slab.get(pair.src).expect("mesh source is live")
}

fn destination<'a>(st: &'a ClassState, pair: &Pair) -> MiniHeapRef<'a> {
    st.slab.get(pair.dst).expect("mesh dest is live")
}

/// The address of a free slot of either primary of `pair` that no longer
/// holds the class canary, if there is one.
fn corrupt_canary(
    heap: &GlobalHeap,
    st: &ClassState,
    class: SizeClass,
    pair: &Pair,
) -> Option<usize> {
    let canary = heap.canary(class.index());
    let object_size = class.object_size();
    for (mh, primary) in [
        (source(st, pair), pair.src_primary),
        (destination(st, pair), pair.dst_primary),
    ] {
        let base = heap.base_addr() + primary.byte_offset();
        for slot in 0..class.object_count() {
            if mh.bitmap().is_set(slot) {
                continue;
            }
            let addr = base + slot * object_size;
            // SAFETY: a slot of a live span of the arena.
            if !unsafe { crate::harden::canary_intact(addr, object_size, canary) } {
                return Some(addr);
            }
        }
    }
    None
}

/// Undoes a pair whose source has its first `done` virtual spans remapped
/// and the next one refused, inside the batch's odd epoch: the spans go
/// back onto the source's own file range, the destination loses the bits
/// the batch set (and, hardened, the copies: its free slots hold poison)
/// and the source gets them back. The page map named the source all
/// along, so the frees waiting for the epoch find their bits where they
/// left them.
fn roll_back(
    heap: &GlobalHeap,
    st: &mut ClassState,
    arena: &mut Arena,
    class: SizeClass,
    pair: &Pair,
    done: usize,
) {
    let (src, dst) = (source(st, pair), destination(st, pair));
    let mut stuck = false;
    for vs in src.virtual_spans().take(done) {
        stuck |= arena.remap_alias(vs, pair.src_primary).is_err();
    }
    let dst_base = heap.base_addr() + pair.dst_primary.byte_offset();
    for (word, &taken) in pair.taken.iter().enumerate() {
        let mut left = if stuck { 0 } else { taken };
        while left != 0 {
            let slot = word * 64 + left.trailing_zeros() as usize;
            left &= left - 1;
            let size = class.object_size();
            heap.poison_object(dst_base + slot * size, size, class.index());
        }
        dst.bitmap().clear_word_bits(word, taken);
        src.bitmap().set_word_bits(word, taken);
    }
    if stuck {
        // A span of the source shows the destination's pages and cannot be
        // turned back: objects reached through it live in slots the
        // destination has free. Both spans stay as they are for good —
        // in no bin, so never attached, meshed or destroyed.
        st.bin_remove(pair.src);
        st.bin_remove(pair.dst);
        eprintln!(
            "mesh: could not undo a refused remap; spans {} and {} are retired in place",
            pair.src_primary, pair.dst_primary
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MeshConfig;
    use crate::rng::Rng;
    use crate::attached_set::AttachedSet;
    use crate::stats::Counters;
    use std::sync::Arc;

    fn heap(seed: u64) -> GlobalHeap {
        GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(seed)
                .write_barrier(false),
            Arc::new(Counters::default()),
        )
        .unwrap()
    }

    /// Builds a detached MiniHeap of `class` with objects at `slots`, each
    /// filled with `fill`.
    fn detached_with_slots(
        h: &GlobalHeap,
        class: SizeClass,
        slots: &[usize],
        fill: u8,
    ) -> MiniHeapId {
        let mut st = h.lock_class(class);
        let id = h.fresh_miniheap_locked(&mut st, class).unwrap();
        let mh = st.slab.get(id).unwrap();
        let start = h.base_addr() + mh.span().byte_offset();
        for &s in slots {
            assert!(mh.bitmap().try_set(s));
            unsafe {
                std::ptr::write_bytes(
                    (start + s * class.object_size()) as *mut u8,
                    fill,
                    class.object_size(),
                );
            }
        }
        st.bin_insert(id);
        id
    }

    #[test]
    fn a_batch_of_one_preserves_object_contents_and_addresses() {
        let h = heap(1);
        let class = SizeClass::for_size(256).unwrap();
        let a = detached_with_slots(&h, class, &[0, 2, 4], 0xAA);
        let b = detached_with_slots(&h, class, &[1, 3, 5], 0xBB);
        let base = h.base_addr();
        let mut st = h.lock_class(class);
        let addr_a = base + st.slab.get(a).unwrap().span().byte_offset();
        let addr_b = base + st.slab.get(b).unwrap().span().byte_offset();
        let committed_before = h.lock_arena().committed_pages();

        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary.pairs_meshed, 1);
        assert_eq!(summary.pages_released, class.span_pages());
        assert_eq!(
            h.lock_arena().committed_pages(),
            committed_before - class.span_pages()
        );

        // Exactly one MiniHeap survives, with both virtual spans.
        assert_eq!(st.slab.len(), 1);
        let (survivor_id, survivor) = st.slab.iter().next().unwrap();
        assert_eq!(survivor.span_count(), 2);
        assert_eq!(survivor.in_use(), 6);

        // All six objects readable at their ORIGINAL virtual addresses.
        for &(addr, slots, fill) in
            &[(addr_a, [0usize, 2, 4], 0xAAu8), (addr_b, [1, 3, 5], 0xBB)]
        {
            for s in slots {
                let p = (addr + s * 256) as *const u8;
                unsafe {
                    assert_eq!(*p, fill, "object at slot {s} corrupted");
                    assert_eq!(*p.add(255), fill);
                }
            }
        }

        // Both spans' pages resolve to the survivor.
        let owner = |addr: usize| h.page_map.get(h.page_of_addr(addr).unwrap()).map(|i| i.id);
        assert_eq!(owner(addr_a + 10), Some(survivor_id));
        assert_eq!(owner(addr_b + 10), Some(survivor_id));
    }

    #[test]
    fn meshed_survivor_frees_through_both_spans_then_dies() {
        let h = heap(2);
        let class = SizeClass::for_size(512).unwrap();
        let a = detached_with_slots(&h, class, &[0, 1], 1);
        let b = detached_with_slots(&h, class, &[6, 7], 2);
        let base = h.base_addr();
        let (addr_a, addr_b) = {
            let mut st = h.lock_class(class);
            let addr_a = base + st.slab.get(a).unwrap().span().byte_offset();
            let addr_b = base + st.slab.get(b).unwrap().span().byte_offset();
            let mut summary = MeshSummary::default();
            let mut rejected = [0u64; REJECT_REASONS];
            mesh_pairs(
                &h,
                &mut st,
                class,
                vec![(a, b)],
                &mut summary,
                &mut rejected,
            );
            (addr_a, addr_b)
        };

        // Free objects through their original (virtual) addresses.
        assert!(h.free_global(addr_a));
        assert!(h.free_global(addr_a + 512));
        assert!(h.free_global(addr_b + 6 * 512));
        assert!(h.free_global(addr_b + 7 * 512));
        {
            let st = h.lock_class_swept(class);
            assert_eq!(st.slab.len(), 0, "survivor destroyed when empty");
        }
        // Both page ranges unowned again.
        assert_eq!(h.page_map.get(h.page_of_addr(addr_a).unwrap()), None);
        assert_eq!(h.page_map.get(h.page_of_addr(addr_b).unwrap()), None);
    }

    #[test]
    fn first_fit_folds_disjoint_spans() {
        let h = heap(3);
        let class = SizeClass::for_size(1024).unwrap();
        // Even-slot and odd-slot heaps: any (even, odd) pair meshes, and
        // no two of one shape do.
        for i in 0..8 {
            let slots: Vec<usize> = if i % 2 == 0 { vec![0, 2] } else { vec![1, 3] };
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let mut st = h.lock_class(class);
        let candidates = collect_candidates(&h, &mut st);
        assert_eq!(candidates.len(), 8);
        let mut index = OccupancyIndex::new(class.object_count());
        let mut rejected = [0u64; REJECT_REASONS];
        let live = |id| st.slab.get(id).unwrap().bitmap().iter_set();
        let pairs = first_fit(candidates, live, &mut index, usize::MAX, &mut rejected);
        // Whichever shape comes first opens four destinations, and each of
        // the other four folds into a different one.
        assert_eq!(pairs.len(), 4, "{pairs:?}");
        let mut dsts: Vec<_> = pairs.iter().map(|&(dst, _)| dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), 4);
        for (x, y) in &pairs {
            let a = st.slab.get(*x).unwrap();
            let b = st.slab.get(*y).unwrap();
            assert!(a.bitmap().meshes_with(b.bitmap()));
        }
        assert_eq!(index.probes as u64, 4 + rejected[RejectReason::OccupancyOverlap as usize]);
    }

    /// Runs [`first_fit`] over `bitmaps`, the candidate with raw id `i + 1`
    /// holding `bitmaps[i]`, each keyed by its count and then its index.
    /// Returns the pairs as indices, in the order found.
    fn fit_indices(
        bitmaps: &[[u64; WORDS]],
        index: &mut OccupancyIndex,
        alias_room: usize,
        rejected: &mut [u64; REJECT_REASONS],
    ) -> Vec<(usize, usize)> {
        let slots = index.slots;
        let candidates = (0..bitmaps.len())
            .map(|i| (key_of(bitmaps, i), MiniHeapId::from_raw(i as u32 + 1)))
            .collect();
        let live = |id: MiniHeapId| {
            let words = bitmaps[id.to_raw() as usize - 1];
            (0..slots).filter(move |&s| words[s / 64] >> (s % 64) & 1 != 0)
        };
        let pairs = first_fit(candidates, live, index, alias_room, rejected);
        let index = |id: MiniHeapId| id.to_raw() as usize - 1;
        pairs.into_iter().map(|(dst, src)| (index(dst), index(src))).collect()
    }

    fn key_of(bitmaps: &[[u64; WORDS]], i: usize) -> u64 {
        fill_key(bitmaps[i].iter().map(|w| w.count_ones() as usize).sum(), i)
    }

    /// First fit over every open destination, lowest first: the quadratic
    /// search the index must agree with.
    fn quadratic_first_fit(bitmaps: &[[u64; WORDS]], alias_room: usize) -> Vec<(usize, usize)> {
        let mut order: Vec<usize> = (0..bitmaps.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(key_of(bitmaps, i)));
        let (mut open, mut pairs): (Vec<(usize, [u64; WORDS])>, _) = (Vec::new(), Vec::new());
        for i in order {
            let bits = bitmaps[i];
            let fit = open.iter_mut().find(|(_, gathered)| gathered.iter().zip(&bits).all(|(g, b)| g & b == 0));
            match fit {
                None => open.push((i, bits)),
                Some(_) if pairs.len() == alias_room => break,
                Some((dst, gathered)) => {
                    gathered.iter_mut().zip(&bits).for_each(|(g, b)| *g |= b);
                    pairs.push((*dst, i));
                }
            }
        }
        pairs
    }

    #[test]
    fn the_index_finds_exactly_the_quadratic_first_fit() {
        let mut rng = Rng::with_seed(45);
        for slots in [8, 16, 85, 256] {
            for trial in 0..12 {
                let n = 1 + rng.below(600) as usize;
                let bitmaps: Vec<[u64; WORDS]> = (0..n)
                    .map(|_| {
                        let live = 1 + rng.below((slots / 4).max(2) as u32) as usize;
                        let mut bits = [0u64; WORDS];
                        for _ in 0..live {
                            let s = rng.below(slots as u32) as usize;
                            bits[s / 64] |= 1 << (s % 64);
                        }
                        bits
                    })
                    .collect();
                let alias_room = if trial % 3 == 0 { rng.below(n as u32) as usize } else { usize::MAX };
                let mut index = OccupancyIndex::new(slots);
                let mut rejected = [0u64; REJECT_REASONS];
                let pairs = fit_indices(&bitmaps, &mut index, alias_room, &mut rejected);
                assert_eq!(index.exhausted, 0, "slots {slots}, trial {trial}: under the budget");
                assert_eq!(pairs, quadratic_first_fit(&bitmaps, alias_room), "slots {slots}, trial {trial}");
                // Every fold is disjoint from its destination's gathered bits.
                let mut gathered: Vec<[u64; WORDS]> = bitmaps.clone();
                for &(dst, src) in &pairs {
                    for (g, b) in gathered[dst].iter_mut().zip(&bitmaps[src]) {
                        assert_eq!(*g & b, 0, "slots {slots}: {src} overlaps {dst}");
                        *g |= b;
                    }
                }
                // Each query that found a fit was one probe; the rest collided.
                let fits = pairs.len() as u64 + rejected[RejectReason::AliasBudget as usize];
                assert_eq!(index.probes as u64, fits + rejected[RejectReason::OccupancyOverlap as usize]);
            }
        }
    }

    #[test]
    fn the_search_budget_bounds_a_dense_class() {
        // 16 Ki candidates of the 16 B class, each half full and all
        // holding slot 0: no two are disjoint.
        let (n, slots) = (16 << 10, SizeClass::for_size(16).unwrap().object_count());
        assert_eq!(slots, 256);
        let mut rng = Rng::with_seed(16);
        let bitmaps: Vec<[u64; WORDS]> = (0..n)
            .map(|_| {
                let mut order: Vec<usize> = (1..slots).collect();
                rng.shuffle(&mut order);
                let mut bits = [1u64, 0, 0, 0];
                for &s in &order[..slots / 2 - 1] {
                    bits[s / 64] |= 1 << (s % 64);
                }
                bits
            })
            .collect();
        let mut index = OccupancyIndex::new(slots);
        let mut rejected = [0u64; REJECT_REASONS];
        let pairs = fit_indices(&bitmaps, &mut index, usize::MAX, &mut rejected);
        assert!(pairs.is_empty(), "every candidate opens its own destination");
        assert_eq!(index.dsts.len(), n);
        let (ops, exhausted) = (index.word_ops, index.exhausted);
        assert!(ops <= FIT_BUDGET * n, "{ops} word operations");
        // A candidate of 128 live slots can afford 8 chunks: the first 513
        // search the whole index, the rest give up past 512 destinations.
        assert_eq!(exhausted, n - 513);
        assert_eq!(ops, 128 * ((0..=512).map(|i: usize| i.div_ceil(64)).sum::<usize>() + 8 * (n - 513)));
    }

    #[test]
    fn full_pass_meshes_compatible_spans_and_respects_span_limit() {
        let h = heap(4);
        let class = SizeClass::for_size(128).unwrap();
        for i in 0..6 {
            let slots = vec![i]; // all singletons at distinct offsets: all mesh
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let room = h.lock_arena().alias_room();
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        // Every probe disjoint: the first span opens a destination and
        // the other five fold into it.
        assert_eq!(summary.pairs_meshed, 5, "got {summary:?}");
        assert_eq!(summary.pairs_probed, 5);
        // Each folded source made one alias against the mapping budget.
        assert_eq!(h.lock_arena().alias_room(), room - 5);
        let st = h.lock_class(class);
        assert_eq!(st.slab.len(), 1);
        assert!(st.slab.iter().all(|(_, mh)| mh.span_count() == 6));
        let stats = h.counters.snapshot();
        assert_eq!(stats.mesh_passes, 1);
        assert_eq!(stats.mesh_pages_released, 5);
    }

    #[test]
    fn the_spectrum_pairs_only_what_the_alias_cap_allows() {
        // Four sparse, pairwise disjoint 2-span MiniHeaps, which fold into
        // one, under a mapping budget with room for 0 to 3 more aliases:
        // the spectrum and the pass agree on how many sources fold.
        for room in [0, 1, 2, 3] {
            let h = heap(14);
            let class = SizeClass::for_size(256).unwrap();
            let singles: Vec<_> = (0..8)
                .map(|slot| detached_with_slots(&h, class, &[slot], slot as u8))
                .collect();
            let mut st = h.lock_class(class);
            let pairs = singles.chunks(2).map(|p| (p[0], p[1])).collect();
            let mut summary = MeshSummary::default();
            let mut rejected = [0u64; REJECT_REASONS];
            mesh_pairs(&h, &mut st, class, pairs, &mut summary, &mut rejected);
            assert_eq!(summary.pairs_meshed, 4);
            drop(st);
            h.lock_arena().set_alias_budget(4 + room);
            let spectrum = h.occupancy_spectrum().classes[class.index()];
            assert_eq!(spectrum.est_meshable_pairs, room as u32, "room {room}");
            let pairs = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes).pairs_meshed;
            assert_eq!(pairs, room, "room {room}");
            // The pass's refusals are the budget's, not the bitmaps'.
            let totals = h.ledger.reject_totals();
            assert_eq!(totals[RejectReason::OccupancyOverlap as usize], 0);
            assert_eq!(totals[RejectReason::AliasBudget as usize], (room < 3) as u64);
        }
    }

    /// Every object of `objects` (start address, slot, fill byte) reads
    /// back through its address.
    fn assert_objects(size: usize, objects: &[(usize, usize, u8)]) {
        for &(start, slot, fill) in objects {
            assert_contents(size, &[(start, &[slot], fill)]);
        }
    }

    #[test]
    fn a_pass_stops_at_the_mapping_budget() {
        const BUDGET: usize = 3;
        let h = heap(16);
        let class = SizeClass::for_size(256).unwrap();
        h.lock_arena().set_alias_budget(BUDGET);
        // 2 * BUDGET + 2 sparse spans, pairwise disjoint.
        let ids: Vec<_> = (0..2 * BUDGET + 2)
            .map(|slot| detached_with_slots(&h, class, &[slot], 0x40 + slot as u8))
            .collect();
        let objects: Vec<(usize, usize, u8)> = {
            let st = h.lock_class(class);
            (0..ids.len()).map(|i| (start_of(&h, &st, ids[i]), i, 0x40 + i as u8)).collect()
        };
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        assert_eq!(summary.pairs_meshed, BUDGET);
        // The first span opened a destination and BUDGET more folded into
        // it. The fit past the budget was refused and ended the probing;
        // no VM call was made for it, so nothing rolled back.
        let totals = h.ledger.reject_totals();
        assert_eq!(totals[RejectReason::AliasBudget as usize], 1);
        assert_eq!(totals[RejectReason::CopyAbort as usize], 0);
        assert_objects(256, &objects);
        assert_eq!(h.lock_arena().alias_count(), BUDGET);
        assert_eq!(h.occupancy_spectrum().classes[class.index()].est_meshable_pairs, 0);

        // The meshed MiniHeaps die; a purge brings their aliases back.
        let meshed: Vec<_> = {
            let st = h.lock_class(class);
            let meshed = |&&(start, _, _): &&(usize, usize, u8)| {
                let id = h.page_map.get(h.page_of_addr(start).unwrap()).unwrap().id;
                st.slab.get(id).unwrap().span_count() == BUDGET + 1
            };
            objects.iter().filter(meshed).copied().collect()
        };
        assert_eq!(meshed.len(), BUDGET + 1);
        for &(start, slot, _) in &meshed {
            assert!(h.free_global(start + slot * 256));
        }
        h.tidy_and_purge();
        assert_eq!(h.lock_arena().alias_count(), 0);
        // The four spans left fold into one, using the whole budget again.
        assert_eq!(h.occupancy_spectrum().classes[class.index()].est_meshable_pairs, 3);
        assert_eq!(mesh_all_classes(&h, h.rt.min_mesh_gain_bytes).pairs_meshed, 3);
        let unmeshed: Vec<_> = objects.iter().filter(|o| !meshed.contains(o)).copied().collect();
        assert_objects(256, &unmeshed);
    }

    #[test]
    fn four_quarter_full_spans_fold_into_one_destination() {
        let h = heap(19);
        let class = SizeClass::for_size(256).unwrap();
        assert_eq!((class.object_count(), class.span_pages()), (16, 1));
        let committed = h.lock_arena().committed_pages();
        // Each a quarter full, on slots no other holds.
        let quarter = |q: usize| [4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3];
        let ids: Vec<_> = (0..4)
            .map(|q| detached_with_slots(&h, class, &quarter(q), 0x60 + q as u8))
            .collect();
        let objects: Vec<(usize, usize, u8)> = {
            let st = h.lock_class(class);
            let fill = |slot: usize| 0x60 + (slot / 4) as u8;
            (0..16)
                .map(|slot| (start_of(&h, &st, ids[slot / 4]), slot, fill(slot)))
                .collect()
        };
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        assert_eq!(summary.pairs_meshed, 3, "{summary:?}");
        assert_eq!(summary.pages_released, 3);
        assert_eq!(summary.bytes_copied, 12 * 256);
        let st = h.lock_class(class);
        assert_eq!(st.slab.len(), 1);
        let (survivor, mh) = st.slab.iter().next().unwrap();
        assert_eq!((mh.span_count(), mh.in_use()), (4, 16));
        drop(st);
        assert_eq!(h.lock_arena().committed_pages(), committed + 1, "one page holds all four");
        assert_objects(256, &objects);
        let owner = |addr: usize| h.page_map.get(h.page_of_addr(addr).unwrap()).map(|i| i.id);
        for &(start, slot, _) in &objects {
            assert_eq!(owner(start), Some(survivor));
            assert!(h.free_global(start + slot * 256));
        }
        assert_eq!(h.lock_class_swept(class).slab.len(), 0);
    }

    #[test]
    fn a_destination_emptied_mid_pass_takes_its_later_sources() {
        let h = heap(20);
        let class = SizeClass::for_size(16).unwrap();
        // One destination and MESH_BATCH + 1 sources, one object each on
        // distinct slots; sorted by address, the last source is in a
        // batch of its own.
        let dst = detached_with_slots(&h, class, &[0], 0x70);
        let sources: Vec<_> = (1..=MESH_BATCH + 1)
            .map(|slot| detached_with_slots(&h, class, &[slot], 0x71))
            .collect();
        let mut st = h.lock_class(class);
        let dst_start = start_of(&h, &st, dst);
        let starts: Vec<usize> = sources.iter().map(|&id| start_of(&h, &st, id)).collect();
        // Every object but the last source's is freed before the batches:
        // once the first batch has folded, the destination holds nothing.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(h.free_global_deferred(dst_start));
                for (i, &start) in starts[..MESH_BATCH].iter().enumerate() {
                    assert!(h.free_global_deferred(start + (i + 1) * 16));
                }
            });
        });
        let pairs = sources.iter().map(|&src| (dst, src)).collect();
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(&h, &mut st, class, pairs, &mut summary, &mut rejected);
        assert_eq!(summary.pairs_meshed, MESH_BATCH + 1);
        assert_eq!(summary.bytes_copied, 16, "only the last source held an object");
        let mh = st.slab.get(dst).expect("the destination outlived its first batch");
        assert_eq!((mh.span_count(), mh.in_use()), (MESH_BATCH + 2, 1));
        drop(st);
        let last = starts[MESH_BATCH] + (MESH_BATCH + 1) * 16;
        assert_contents(16, &[(starts[MESH_BATCH], &[MESH_BATCH + 1], 0x71)]);
        assert!(h.free_global(last));
        assert_eq!(h.lock_class_swept(class).slab.len(), 0, "dies with its last object");
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (MESH_BATCH as u64 + 2, 0, 0));
    }

    #[test]
    fn the_budget_stops_probing_partway_through_a_destination() {
        let h = heap(21);
        let class = SizeClass::for_size(256).unwrap();
        h.lock_arena().set_alias_budget(2);
        // The fullest span opens the destination; three sparser ones fit
        // in it, but the budget has room for two.
        let dst = detached_with_slots(&h, class, &[0, 1, 2, 3], 0x80);
        let three = |i: usize| [4 + 3 * i, 5 + 3 * i, 6 + 3 * i];
        let sources: Vec<_> = (0..3)
            .map(|i| detached_with_slots(&h, class, &three(i), 0x81 + i as u8))
            .collect();
        let objects: Vec<(usize, usize, u8)> = {
            let st = h.lock_class(class);
            let mut objects: Vec<_> =
                (0..4).map(|slot| (start_of(&h, &st, dst), slot, 0x80)).collect();
            for (i, &id) in sources.iter().enumerate() {
                let start = start_of(&h, &st, id);
                objects.extend(three(i).map(|slot| (start, slot, 0x81 + i as u8)));
            }
            objects
        };
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        assert_eq!(summary.pairs_meshed, 2);
        let totals = h.ledger.reject_totals();
        assert_eq!(totals[RejectReason::AliasBudget as usize], 1);
        assert_eq!(totals[RejectReason::OccupancyOverlap as usize], 0);
        {
            let st = h.lock_class(class);
            assert_eq!(st.slab.get(dst).unwrap().span_count(), 3);
            let left: Vec<_> = sources.iter().filter(|&&id| st.slab.get(id).is_some()).collect();
            assert_eq!(left.len(), 1, "one source was left as it was");
            assert_eq!(st.slab.get(*left[0]).unwrap().span_count(), 1);
        }
        assert_eq!(h.lock_arena().alias_count(), 2);
        assert_objects(256, &objects);
        // With room for one more alias, the next pass folds it in.
        h.lock_arena().set_alias_budget(3);
        assert_eq!(mesh_all_classes(&h, h.rt.min_mesh_gain_bytes).pairs_meshed, 1);
        assert_eq!(h.lock_class(class).slab.get(dst).unwrap().span_count(), 4);
        assert_objects(256, &objects);
    }

    #[test]
    fn a_long_alias_chain_reads_frees_and_dies_cleanly() {
        let h = heap(17);
        let class = SizeClass::for_size(256).unwrap();
        let committed = h.lock_arena().committed_pages();
        // The fullest span: every fold keeps it as the destination.
        let a = detached_with_slots(&h, class, &[0, 8, 9, 10], 0xA0);
        let folded: Vec<_> = (1..8)
            .map(|slot| detached_with_slots(&h, class, &[slot], 0xA0 + slot as u8))
            .collect();
        let mut st = h.lock_class(class);
        let a_start = start_of(&h, &st, a);
        let mut objects: Vec<(usize, usize, u8)> =
            [0, 8, 9, 10].map(|slot| (a_start, slot, 0xA0)).to_vec();
        for (i, &x) in folded.iter().enumerate() {
            objects.push((start_of(&h, &st, x), i + 1, 0xA1 + i as u8));
        }
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        for &x in &folded {
            mesh_pairs(&h, &mut st, class, vec![(a, x)], &mut summary, &mut rejected);
        }
        assert_eq!(summary.pairs_meshed, 7);
        assert_eq!(st.slab.get(a).unwrap().span_count(), 8);
        assert_eq!(h.lock_arena().alias_count(), 7);
        assert_eq!(
            h.lock_arena().committed_pages(),
            committed + class.span_pages(),
            "one physical span holds all eight"
        );
        drop(st);
        assert_objects(256, &objects);

        // Frees through every alias settle on the one MiniHeap.
        let owner = |addr: usize| h.page_map.get(h.page_of_addr(addr).unwrap()).map(|i| i.id);
        for (n, &(start, slot, _)) in objects.iter().enumerate().rev() {
            assert_eq!(owner(start), Some(a));
            assert!(h.free_global(start + slot * 256));
            let in_use = h.lock_class_swept(class).slab.get(a).map(|mh| mh.in_use());
            assert_eq!(in_use, Some(n).filter(|&n| n > 0), "dies with its last object");
        }
        h.tidy_and_purge();
        assert_eq!(h.lock_arena().alias_count(), 0);
        assert_eq!(h.lock_arena().committed_pages(), committed);
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (11, 0, 0));
    }

    #[test]
    fn a_batch_closes_at_its_span_bound() {
        // 33 pairs whose sources have 8 virtual spans each: 264 spans, so
        // two batches where the pair bound alone would make one.
        let h = heap(18);
        let class = SizeClass::for_size(64).unwrap();
        let mut pairs = Vec::new();
        let mut st = h.lock_class(class);
        for _ in 0..33 {
            drop(st);
            let src = detached_with_slots(&h, class, &[0, 1], 0x11);
            let folded: Vec<_> = (2..9)
                .map(|slot| detached_with_slots(&h, class, &[slot], 0x11))
                .collect();
            let dst = detached_with_slots(&h, class, &(20..40).collect::<Vec<_>>(), 0x22);
            st = h.lock_class(class);
            let mut summary = MeshSummary::default();
            let mut rejected = [0u64; REJECT_REASONS];
            for x in folded {
                mesh_pairs(&h, &mut st, class, vec![(src, x)], &mut summary, &mut rejected);
            }
            assert_eq!(st.slab.get(src).unwrap().span_count(), 8);
            pairs.push((dst, src));
        }
        let before = h.counters.snapshot().latency.count(TimedOp::MeshCopy);
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(&h, &mut st, class, pairs, &mut summary, &mut rejected);
        assert_eq!(summary.pairs_meshed, 33);
        let batches = h.counters.snapshot().latency.count(TimedOp::MeshCopy) - before;
        assert_eq!(batches, 2, "256 spans, then 8");
        assert!(st.slab.iter().all(|(_, mh)| mh.span_count() == 9));
    }

    #[test]
    fn occupancy_cutoff_excludes_full_spans() {
        // A 16-byte span has 256 slots: 204 live is just below the cutoff
        // (0.797), 205 just above (0.801). A second span holds every other
        // slot, so the two fold exactly when the dense one is a candidate,
        // and the pass and the spectrum's estimate must both say so.
        let class = SizeClass::for_size(16).unwrap();
        let slots = class.object_count();
        assert_eq!(slots, 256);
        for (live, candidate) in [(204, true), (205, false)] {
            assert_eq!(live as f64 / slots as f64 <= OCCUPANCY_CUTOFF, candidate);
            let h = heap(5);
            detached_with_slots(&h, class, &(0..live).collect::<Vec<_>>(), 1);
            detached_with_slots(&h, class, &(live..slots).collect::<Vec<_>>(), 2);
            let found = collect_candidates(&h, &mut h.lock_class(class)).len();
            assert_eq!(found, 1 + candidate as usize, "{live} live: the pass's candidates");
            let estimate = h.occupancy_spectrum().classes[class.index()].est_meshable_pairs;
            assert_eq!(estimate, candidate as u32, "{live} live: the spectrum");
            let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
            assert_eq!(summary.pairs_meshed, estimate as usize, "{live} live: the pass");
        }
    }

    #[test]
    fn attached_miniheaps_are_never_candidates() {
        let h = heap(6);
        let class = SizeClass::for_size(64).unwrap();
        let mut set = AttachedSet::new(true);
        let mut rng = Rng::with_seed(1);
        h.refill(&mut set, class, &mut rng).unwrap();
        set.malloc().unwrap();
        let mut st = h.lock_class(class);
        assert!(collect_candidates(&h, &mut st).is_empty());
    }

    #[test]
    fn non_meshable_classes_skipped_but_still_swept() {
        let h = heap(7);
        let class = SizeClass::for_size(8192).unwrap();
        assert!(!class.is_meshable());
        let a = detached_with_slots(&h, class, &[0], 1);
        detached_with_slots(&h, class, &[1], 2);
        // Empty the first span while its class lock is held — the free
        // cannot destroy it — then run a pass: the pass must not mesh the
        // class but must reclaim the span.
        let guard = h.lock_class(class);
        let addr = h.base_addr() + guard.slab.get(a).unwrap().span().byte_offset();
        std::thread::scope(|s| {
            s.spawn(|| assert!(h.free_global_deferred(addr)));
        });
        assert!(guard.slab.get(a).is_some());
        drop(guard);
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        assert_eq!(summary.pairs_meshed, 0);
        let st = h.lock_class(class);
        assert!(st.slab.get(a).is_none(), "emptied span not reclaimed by the pass");
    }

    #[test]
    fn a_batch_copies_exactly_the_bits_it_took() {
        // An object freed between SplitMesher's probe and the copy is not
        // copied, and the destination does not inherit its bit.
        let h = heap(8);
        let class = SizeClass::for_size(256).unwrap();
        let a = detached_with_slots(&h, class, &[0, 2, 4, 6], 0xAA);
        let b = detached_with_slots(&h, class, &[1, 3], 0xBB);
        let mut st = h.lock_class(class);
        let b_start = h.base_addr() + st.slab.get(b).unwrap().span().byte_offset();
        // A free of b's slot 3 lands now (the lock is ours, so the span
        // just stays filed where it was).
        std::thread::scope(|s| {
            s.spawn(|| assert!(h.free_global_deferred(b_start + 3 * 256)));
        });
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary.pairs_meshed, 1);
        assert_eq!(summary.bytes_copied, 256, "one live object in the source");
        let survivor = st.slab.get(a).expect("the fuller span is the destination");
        assert_eq!(survivor.bitmap().iter_set().collect::<Vec<_>>(), [0, 1, 2, 4, 6]);
        assert_eq!(unsafe { *((b_start + 256) as *const u8) }, 0xBB);
        drop(st);
        // The survivor dies through both spans; the tombstone id comes back.
        assert!(h.free_global(b_start + 256));
        let a_start = h.base_addr() + h.lock_class(class).slab.get(a).unwrap().span().byte_offset();
        for slot in [0, 2, 4, 6] {
            assert!(h.free_global(a_start + slot * 256));
        }
        assert_eq!(h.lock_class_swept(class).slab.len(), 0);
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (6, 0, 0));
    }
    // ----- VM calls the kernel refuses ----------------------------------

    /// Every object of `spans` (start address, slots, fill byte) reads as
    /// it was written.
    fn assert_contents(size: usize, spans: &[(usize, &[usize], u8)]) {
        for &(start, slots, fill) in spans {
            for &slot in slots {
                let object = (start + slot * size) as *const u8;
                unsafe {
                    assert_eq!(*object, fill, "slot {slot} of the span at {start:#x}");
                    assert_eq!(*object.add(size - 1), fill);
                }
            }
        }
    }

    fn start_of(h: &GlobalHeap, st: &ClassState, id: MiniHeapId) -> usize {
        h.base_addr() + st.slab.get(id).unwrap().span().byte_offset()
    }

    #[test]
    fn a_refused_protect_abandons_the_batch_before_any_bit_is_taken() {
        let h = heap(9);
        let class = SizeClass::for_size(256).unwrap();
        let a = detached_with_slots(&h, class, &[0, 2, 4], 0xAA);
        let b = detached_with_slots(&h, class, &[1, 3], 0xBB);
        let mut st = h.lock_class(class);
        let (addr_a, addr_b) = (start_of(&h, &st, a), start_of(&h, &st, b));
        h.lock_arena().refuse_vm_calls(1..2);
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary, MeshSummary::default());
        assert_eq!(rejected[RejectReason::CopyAbort as usize], 1);
        assert_eq!(st.slab.get(a).unwrap().in_use(), 3);
        assert_eq!(st.slab.get(b).unwrap().in_use(), 2);
        assert_contents(256, &[(addr_a, &[0, 2, 4], 0xAA), (addr_b, &[1, 3], 0xBB)]);
        // Both spans are writable, the epoch is even, and the pair meshes
        // when the kernel is willing again.
        unsafe { *(addr_b as *mut u8).add(256) = 0xBB };
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary.pairs_meshed, 1);
        assert_contents(256, &[(addr_a, &[0, 2, 4], 0xAA), (addr_b, &[1, 3], 0xBB)]);
    }

    /// A source with `n` adjacent virtual spans — its primary holding slots
    /// 0 and `n` (0xAA), with a span holding slot `i` (0xBB) meshed into it
    /// for each `i` in `1..n` — paired with a fuller single span `c`
    /// holding slots `8..10 + n` (0xCC). Returns the source and `c`, and
    /// the start addresses of the source's spans in order, then `c`'s.
    fn source_with_spans(
        h: &GlobalHeap,
        class: SizeClass,
        n: usize,
    ) -> ([MiniHeapId; 2], Vec<usize>) {
        let a = detached_with_slots(h, class, &[0, n], 0xAA);
        let folded: Vec<_> = (1..n)
            .map(|slot| detached_with_slots(h, class, &[slot], 0xBB))
            .collect();
        let c_slots: Vec<usize> = (8..10 + n).collect();
        let c = detached_with_slots(h, class, &c_slots, 0xCC);
        let mut st = h.lock_class(class);
        let starts: Vec<usize> = std::iter::once(a)
            .chain(folded.iter().copied())
            .chain([c])
            .map(|id| start_of(h, &st, id))
            .collect();
        for pair in starts[..n].windows(2) {
            assert_eq!(
                pair[1] - pair[0],
                class.span_pages() * PAGE_SIZE,
                "adjacent"
            );
        }
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        for &x in &folded {
            mesh_pairs(h, &mut st, class, vec![(a, x)], &mut summary, &mut rejected);
        }
        assert_eq!(st.slab.get(a).unwrap().span_count(), n);
        ([a, c], starts)
    }

    /// The last of an `n`-span source's remaps is refused: the spans
    /// remapped before it go back onto the source's own pages, and every
    /// bit and byte is where it was.
    fn refused_last_remap_rolls_back(seed: u64, n: usize) {
        let h = heap(seed);
        let class = SizeClass::for_size(256).unwrap();
        let ([src, dst], starts) = source_with_spans(&h, class, n);
        let (spans, addr_c) = (&starts[..n], starts[n]);
        let c_slots: Vec<usize> = (8..10 + n).collect();
        let intact = || {
            assert_contents(256, &[(spans[0], &[0, n], 0xAA), (addr_c, &c_slots, 0xCC)]);
            for (slot, &start) in spans.iter().enumerate().skip(1) {
                assert_contents(256, &[(start, &[slot], 0xBB)]);
            }
        };
        let mut st = h.lock_class(class);
        let committed = h.lock_arena().committed_pages();
        // One protect (the source's spans are adjacent), the remaps of all
        // but the last span, then the last's: refused.
        let last_remap = n as u32 + 1;
        h.lock_arena().refuse_vm_calls(last_remap..last_remap + 1);
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(dst, src)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary, MeshSummary::default());
        assert_eq!(rejected[RejectReason::CopyAbort as usize], 1);
        assert_eq!(
            h.lock_arena().committed_pages(),
            committed,
            "nothing was released"
        );
        let bits = |id| {
            st.slab
                .get(id)
                .unwrap()
                .bitmap()
                .iter_set()
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(src), (0..=n).collect::<Vec<_>>());
        assert_eq!(bits(dst), c_slots);
        intact();
        // The spans remapped first show the source's own pages again: a
        // write through one is seen through the others, not in the
        // destination.
        let free_slot = (n + 1) * 256;
        unsafe {
            *((spans[0] + free_slot) as *mut u8) = 0x5A;
            for &start in &spans[1..] {
                assert_eq!(*((start + free_slot) as *const u8), 0x5A);
            }
            assert_ne!(*((addr_c + free_slot) as *const u8), 0x5A);
        }
        drop(st);
        // A free finds its bit back in the source, and the next pass
        // meshes the pair.
        assert!(h.free_global(spans[1] + 256));
        let summary = mesh_all_classes(&h, h.rt.min_mesh_gain_bytes);
        assert_eq!(summary.pairs_meshed, 1);
        assert_contents(256, &[(spans[0], &[0, n], 0xAA), (addr_c, &c_slots, 0xCC)]);
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (1, 0, 0));
    }

    #[test]
    fn a_refused_remap_rolls_its_pair_back_inside_the_epoch() {
        refused_last_remap_rolls_back(10, 2);
    }

    #[test]
    fn a_refused_remap_of_a_three_span_source_rolls_back() {
        refused_last_remap_rolls_back(15, 3);
    }

    #[test]
    fn a_pair_that_cannot_be_undone_is_retired_in_place() {
        let h = heap(11);
        let class = SizeClass::for_size(256).unwrap();
        let ([src, dst], starts) = source_with_spans(&h, class, 2);
        let [addr_a, addr_b, addr_c] = starts[..] else {
            unreachable!()
        };
        let mut st = h.lock_class(class);
        // The second span's remap and the first span's way back: refused.
        h.lock_arena().refuse_vm_calls(3..5);
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(dst, src)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary, MeshSummary::default());
        assert_contents(
            256,
            &[
                (addr_a, &[0, 2], 0xAA),
                (addr_b, &[1], 0xBB),
                (addr_c, &[8, 9, 10, 11], 0xCC),
            ],
        );
        drop(st);
        // Neither span is a candidate again, and both outlive their
        // objects: one's pages show through the other.
        assert_eq!(mesh_all_classes(&h, h.rt.min_mesh_gain_bytes).pairs_probed, 0);
        for addr in [addr_a, addr_a + 2 * 256, addr_b + 256] {
            assert!(h.free_global(addr));
        }
        for slot in 8..12 {
            assert!(h.free_global(addr_c + slot * 256));
        }
        let st = h.lock_class_swept(class);
        assert!(st.slab.get(src).is_some() && st.slab.get(dst).is_some());
        let s = h.counters.snapshot();
        assert_eq!((s.frees, s.double_frees, s.invalid_frees), (7, 0, 0));
    }

    #[test]
    fn a_batch_protects_and_releases_adjacent_sources_with_one_call_each() {
        let h = heap(12);
        let class = SizeClass::for_size(256).unwrap();
        // Sources first, so that they are neighbours; each pair disjoint.
        let sources: Vec<_> = (0..4)
            .map(|_| detached_with_slots(&h, class, &[1], 0x11))
            .collect();
        let dests: Vec<_> = (0..4)
            .map(|_| detached_with_slots(&h, class, &[2, 3], 0x22))
            .collect();
        let mut st = h.lock_class(class);
        let pairs = dests.iter().copied().zip(sources.iter().copied()).collect();
        let before = h.counters.snapshot().latency;
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(&h, &mut st, class, pairs, &mut summary, &mut rejected);
        assert_eq!(summary.pairs_meshed, 4);
        let after = h.counters.snapshot().latency;
        for op in [TimedOp::Madvise, TimedOp::MeshCopy, TimedOp::MeshRemap] {
            assert_eq!(after.count(op) - before.count(op), 1, "{op:?}");
        }
        for &id in &sources {
            assert!(
                st.slab.get(id).is_none(),
                "each sparser span was the source"
            );
        }
    }
    #[test]
    fn a_rolled_back_pair_leaves_poison_in_the_destination() {
        let h = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(13)
                .write_barrier(false)
                .harden_policy(crate::HardenPolicy::Count),
            Arc::new(Counters::default()),
        )
        .unwrap();
        let class = SizeClass::for_size(256).unwrap();
        let a = detached_with_slots(&h, class, &[0, 2, 4], 0xAA);
        let b = detached_with_slots(&h, class, &[1, 3], 0xBB);
        let mut st = h.lock_class(class);
        let addr_a = start_of(&h, &st, a);
        // The protect, then the one remap: refused.
        h.lock_arena().refuse_vm_calls(2..3);
        let mut summary = MeshSummary::default();
        let mut rejected = [0u64; REJECT_REASONS];
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(rejected[RejectReason::CopyAbort as usize], 1);
        // The slots the copies went to read as free slots should, to the
        // next allocation and to the next pass's canary sweep.
        for slot in [1, 3] {
            h.verify_poison(addr_a + slot * 256, 256, class.index());
        }
        mesh_pairs(
            &h,
            &mut st,
            class,
            vec![(a, b)],
            &mut summary,
            &mut rejected,
        );
        assert_eq!(summary.pairs_meshed, 1);
        assert_eq!(rejected[RejectReason::CanaryTrip as usize], 0);
        assert_eq!(
            h.counters.snapshot().harden_violations,
            [0; crate::HARDEN_KINDS]
        );
    }
}
