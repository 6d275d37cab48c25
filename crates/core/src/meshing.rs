//! Meshing: finding and merging spans with disjoint allocations
//! (§3.3 SplitMesher, §4.5 implementation).
//!
//! A pass runs one size class at a time, holding only that class's shard
//! lock (plus the arena leaf lock around the virtual-memory operations) —
//! see DESIGN.md's locking discipline. For each class it collects the
//! detached, partially-occupied MiniHeaps — reading each bitmap afresh,
//! since frees clear bits without the lock and the bins lag them —
//! randomly splits them into two halves, and probes pairs between the
//! halves at most `t` times per span (Figure 2). Candidate pairs found by
//! SplitMesher are recorded and then meshed en masse (§4.5). Frees keep
//! arriving throughout; only an attach sets bits, and it needs the lock,
//! so a pair found disjoint stays disjoint.
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
//! and the sources' physical pages return to the OS, one release per run
//! of adjacent file ranges. The ordering of release vs. remap depends on
//! the release primitive (see [`crate::sys::ReleaseStrategy`]): punch-hole
//! variants release *after* the remaps (by file offset, or through a
//! scratch mapping) so concurrent readers never observe zeros; the
//! `MADV_DONTNEED` fallback releases *before* them, which is safe because
//! it preserves file contents. The longest a writer can spin in the
//! barrier's fault handler, or a free wait for an even epoch, is therefore
//! one batch: at most `MESH_BATCH` copies and remaps, a bound that does
//! not grow with the heap (Compact-fit's bounded step, PAPERS.md).
//!
//! The kernel can refuse any of these calls — `ENOMEM` once the mappings
//! meshing leaves behind reach `vm.max_map_count` — and none of them is
//! fatal: a refused protect abandons the batch before a bit is taken, a
//! refused remap rolls its pair back inside the odd interval, and either
//! ends the class's pass ([`RejectReason::CopyAbort`]).
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
use crate::sys::ReleaseStrategy;
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
    /// Number of span pairs merged.
    pub pairs_meshed: usize,
    /// Physical pages released by those merges.
    pub pages_released: usize,
    /// Object bytes copied between spans.
    pub bytes_copied: usize,
    /// Pair candidates probed (the `t`-bounded search cost).
    pub pairs_probed: usize,
}

impl MeshSummary {
    /// Bytes of physical memory this pass returned to the OS.
    pub fn bytes_released(&self) -> usize {
        self.pages_released * crate::size_classes::PAGE_SIZE
    }
}

/// Runs SplitMesher and meshes the found pairs for every meshable size
/// class, taking one class lock at a time. Then purges dirty pages, as
/// §4.4.1 prescribes whenever meshing is invoked, once they are worth it.
pub(crate) fn mesh_all_classes(heap: &GlobalHeap) -> MeshSummary {
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
        // partial-bin scan is the `t`-bounded search cost the histogram
        // exists to expose, and a dry scan (arg 0) is still that cost.
        let select_t0 = Instant::now();
        let candidates = collect_candidates(heap, &mut st);
        candidates_scanned += candidates.len() as u64;
        if candidates.len() < 2 {
            heap.counters.record_slow(TimedOp::MeshCandidates, select_t0, 0);
            continue;
        }
        let pairs = split_mesher(
            &mut st,
            candidates,
            heap.rt.probe_limit(),
            heap.rt.max_span_count,
            &mut summary.pairs_probed,
            &mut rejected,
        );
        heap.counters
            .record_slow(TimedOp::MeshCandidates, select_t0, pairs.len() as u64);
        mesh_pairs(heap, &mut st, class, pairs, &mut summary, &mut rejected);
    }
    // The loop tidied every class, so every span frees emptied is in the
    // dirty bins now. They go back to the OS, and any segment left clean
    // is retired, once they reach the least a pass must return to be
    // worth it: a pass over a quiet heap finds nothing new and releases
    // nothing, so forced passes do not cycle pages through release and
    // refault.
    {
        let mut arena = heap.lock_arena();
        if arena.dirty_bytes() >= heap.rt.min_mesh_gain_bytes {
            arena.purge_dirty();
            arena.retire_empty_segments(&heap.page_map);
        }
    }
    let nanos = t0.elapsed().as_nanos() as u64;
    heap.counters.record_mesh_pass(nanos);
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
/// meshing ([`is_candidate`]). The partial bins say where to look;
/// occupancy is read from the bitmaps, which frees clear without the lock
/// and without moving a span between partial bins — so each span seen is
/// also refiled under the bin it belongs in, or destroyed if nothing in
/// it is live.
fn collect_candidates(heap: &GlobalHeap, st: &mut ClassState) -> Vec<MiniHeapId> {
    let cutoff = heap.rt.occupancy_cutoff;
    let max_spans = heap.rt.max_span_count;
    let filed: Vec<MiniHeapId> = st.bins.partial.iter().flatten().copied().collect();
    let mut out = Vec::new();
    for id in filed {
        heap.settle_locked(st, id);
        // Destroyed just now if nothing in it was live.
        let Some(mh) = st.slab.get(id) else { continue };
        debug_assert!(!mh.is_attached());
        if is_candidate(mh, cutoff, max_spans) {
            out.push(id);
        }
    }
    out
}

/// Whether a detached span may join a pass: partially occupied (an empty
/// span is destroyed, not meshed, and a full one has no slot to take
/// another's objects), no fuller than `cutoff`, and with room left in its
/// virtual-span list. Passes and the spectrum's estimate both ask this.
pub(crate) fn is_candidate(mh: MiniHeapRef<'_>, cutoff: f64, max_spans: usize) -> bool {
    let (in_use, count) = (mh.in_use(), mh.object_count());
    in_use > 0
        && in_use < count
        && in_use as f64 / count as f64 <= cutoff
        && mh.span_count() < max_spans
}

/// The probe loop of Figure 2 over a split already made: `left[j]` is
/// probed against `right[(j+i) % |right|]` for `i < t`, and a pair
/// `meshable` accepts drops out of both halves. `probes` counts the calls
/// of `meshable`. The heap's passes and `mesh-graph`'s §5.3 experiments
/// both run this loop.
#[inline]
pub fn split_mesher_pairs<T: Copy>(
    left: &[T],
    right: &[T],
    t: usize,
    probes: &mut usize,
    mut meshable: impl FnMut(T, T) -> bool,
) -> Vec<(T, T)> {
    let mut pairs = Vec::new();
    if right.is_empty() {
        return pairs;
    }
    let mut used_l = vec![false; left.len()];
    let mut used_r = vec![false; right.len()];
    for i in 0..t {
        for (j, taken) in used_l.iter_mut().enumerate() {
            let k = (j + i) % right.len();
            if *taken || used_r[k] {
                continue;
            }
            *probes += 1;
            if meshable(left[j], right[k]) {
                *taken = true;
                used_r[k] = true;
                pairs.push((left[j], right[k]));
            }
        }
    }
    pairs
}

/// The SplitMesher procedure of Figure 2: shuffle the candidate list,
/// split it into halves, and probe them. Returns the pairs to mesh (each
/// span in at most one pair). Every probed pair that fails is tallied in
/// `rejected`: under `alias_budget` when the two would alias more than
/// `max_spans` virtual spans onto one physical span, else under
/// `occupancy_overlap` when their bitmaps collide.
fn split_mesher(
    st: &mut ClassState,
    mut candidates: Vec<MiniHeapId>,
    probe_limit: usize,
    max_spans: usize,
    probes: &mut usize,
    rejected: &mut [u64; REJECT_REASONS],
) -> Vec<(MiniHeapId, MiniHeapId)> {
    st.rng.shuffle(&mut candidates);
    // `left` has `len / 2` entries; `right` has as many, or one more.
    let (left, right) = candidates.split_at(candidates.len() / 2);
    split_mesher_pairs(left, right, probe_limit, probes, |x, y| {
        let a = st.slab.get(x).expect("candidate is live");
        let b = st.slab.get(y).expect("candidate is live");
        let reason = if a.span_count() + b.span_count() > max_spans {
            RejectReason::AliasBudget
        } else if !a.bitmap().meshes_with(b.bitmap()) {
            RejectReason::OccupancyOverlap
        } else {
            return true;
        };
        rejected[reason as usize] += 1;
        false
    })
}

/// Pairs meshed behind one raise of the write barrier and inside one odd
/// interval of the class's mesh epoch. It bounds what a writer to a source
/// span or a free that lost its bit to the mesher can wait for, whatever
/// the size of the heap; 64 pairs are under a millisecond of copies and
/// remaps.
pub(crate) const MESH_BATCH: usize = 64;

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

/// Meshes the pairs SplitMesher found for `class`, a batch at a time:
/// consolidates each pair's objects onto the higher-occupancy span (fewer
/// bytes to copy), retargets the source's virtual spans, and releases the
/// source's physical span (§4.5). The caller holds the class lock; each
/// batch holds the arena lock across its VM operations.
fn mesh_pairs(
    heap: &GlobalHeap,
    st: &mut ClassState,
    class: SizeClass,
    pairs: Vec<(MiniHeapId, MiniHeapId)>,
    summary: &mut MeshSummary,
    rejected: &mut [u64; REJECT_REASONS],
) {
    let mut pairs: Vec<Pair> = {
        let arena = heap.lock_arena();
        pairs
            .into_iter()
            .map(|(a, b)| {
                let ma = st.slab.get(a).expect("mesh candidate is live");
                let mb = st.slab.get(b).expect("mesh candidate is live");
                debug_assert_eq!(ma.span().pages, mb.span().pages);
                // Destination = more live objects → we copy the smaller
                // side. Ties break segment-aware: evacuate the span whose
                // segment has fewer outstanding pages, so sparse segments
                // drain toward retirement.
                let a_stays = match ma.in_use().cmp(&mb.in_use()) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        arena.segment_outstanding_of(ma.span())
                            >= arena.segment_outstanding_of(mb.span())
                    }
                };
                let ((dst, md), (src, ms)) = if a_stays {
                    ((a, ma), (b, mb))
                } else {
                    ((b, mb), (a, ma))
                };
                Pair {
                    dst,
                    src,
                    dst_primary: md.span(),
                    src_primary: ms.span(),
                    taken: [0; WORDS],
                    live: true,
                }
            })
            .collect()
    };
    // Neighbouring sources land in the same batch, where one call
    // protects them and one releases them.
    pairs.sort_unstable_by_key(|pair| pair.src_primary.offset);
    for batch in pairs.chunks_mut(MESH_BATCH) {
        if !mesh_batch(heap, st, class, batch, summary, rejected) {
            break;
        }
    }
}

/// Meshes one batch (sorted by source address). Returns `false` when the
/// kernel refused a VM call: pairs it could not mesh are as they were
/// found, and the class's pass should end.
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

    // Release the sources' physical pages and retarget their virtual
    // spans. Ordering depends on the release primitive; see module docs.
    let release_first = arena.release_strategy() == ReleaseStrategy::MadviseDontNeed;
    let live_primaries = |batch: &[Pair]| -> Vec<Span> {
        let live = batch.iter().filter(|pair| pair.live);
        live.map(|pair| pair.src_primary).collect()
    };
    if release_first {
        arena.release_sources(&live_primaries(batch), false);
    }
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
            }
            Some(done) => {
                roll_back(heap, st, &mut arena, class, pair, done, release_first);
                pair.live = false;
                refused = true;
                rejected[RejectReason::CopyAbort as usize] += 1;
            }
        }
    }
    heap.end_consume(class);
    if !release_first {
        arena.release_sources(&live_primaries(batch), true);
    }
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
    // until the destination dies.
    for pair in batch.iter().filter(|pair| pair.live) {
        st.bin_remove(pair.src);
        st.slab.absorb(pair.dst, pair.src);
        // Frees may have emptied the destination meanwhile.
        heap.settle_locked(st, pair.dst);

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
    released: bool,
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
    if released {
        arena.recommit(pair.src_primary);
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
    fn split_mesher_finds_disjoint_pairs() {
        let h = heap(3);
        let class = SizeClass::for_size(1024).unwrap();
        // Even-slot and odd-slot heaps: any (even, odd) pair meshes.
        for i in 0..8 {
            let slots: Vec<usize> = if i % 2 == 0 { vec![0, 2] } else { vec![1, 3] };
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let mut st = h.lock_class(class);
        let candidates = collect_candidates(&h, &mut st);
        assert_eq!(candidates.len(), 8);
        let mut probes = 0;
        let mut rejected = [0u64; REJECT_REASONS];
        let pairs = split_mesher(&mut st, candidates, 64, 3, &mut probes, &mut rejected);
        assert!(probes > 0);
        // With t=64 and only two "shapes", SplitMesher should pair nearly
        // everything; at minimum one pair must exist.
        assert!(!pairs.is_empty());
        for (x, y) in &pairs {
            let a = st.slab.get(*x).unwrap();
            let b = st.slab.get(*y).unwrap();
            assert!(a.bitmap().meshes_with(b.bitmap()));
        }
    }

    #[test]
    fn full_pass_meshes_compatible_spans_and_respects_span_limit() {
        let h = heap(4);
        let class = SizeClass::for_size(128).unwrap();
        for i in 0..6 {
            let slots = vec![i]; // all singletons at distinct offsets: all mesh
            detached_with_slots(&h, class, &slots, i as u8);
        }
        let summary = mesh_all_classes(&h);
        assert!(summary.pairs_meshed >= 2, "got {summary:?}");
        // No MiniHeap may alias more spans than the cap allows.
        let st = h.lock_class(class);
        for (_, mh) in st.slab.iter() {
            assert!(mh.span_count() <= h.rt.max_span_count);
        }
        let stats = h.counters.snapshot();
        assert_eq!(stats.mesh_passes, 1);
        assert!(stats.mesh_pages_released >= 2);
    }

    #[test]
    fn the_spectrum_pairs_only_what_the_alias_cap_allows() {
        // Four sparse, pairwise disjoint 2-span MiniHeaps: at cap 3 no two
        // of them may mesh, at cap 4 they make two pairs.
        for (cap, expected) in [(3, 0), (4, 2)] {
            let h = GlobalHeap::new(
                MeshConfig::default()
                    .arena_bytes(64 << 20)
                    .seed(14)
                    .write_barrier(false)
                    .max_span_count(cap),
                Arc::new(Counters::default()),
            )
            .unwrap();
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
            let spectrum = h.occupancy_spectrum().classes[class.index()];
            assert_eq!(spectrum.est_meshable_pairs, expected, "cap {cap}");
            assert_eq!(
                mesh_all_classes(&h).pairs_meshed as u32,
                expected,
                "cap {cap}"
            );
            // The pass's refusals are the cap's, not the bitmaps'.
            let totals = h.ledger.reject_totals();
            assert_eq!(totals[RejectReason::OccupancyOverlap as usize], 0);
            assert_eq!(
                totals[RejectReason::AliasBudget as usize] > 0,
                expected == 0
            );
        }
    }

    #[test]
    fn occupancy_cutoff_excludes_full_spans() {
        let h = GlobalHeap::new(
            MeshConfig::default()
                .arena_bytes(64 << 20)
                .seed(5)
                .write_barrier(false)
                .occupancy_cutoff(0.5),
            Arc::new(Counters::default()),
        )
        .unwrap();
        let class = SizeClass::for_size(2048).unwrap();
        let count = class.object_count(); // 8
        // 75% occupied: above cutoff → not a candidate.
        let dense: Vec<usize> = (0..count * 3 / 4).collect();
        detached_with_slots(&h, class, &dense, 1);
        detached_with_slots(&h, class, &[0], 2);
        let mut st = h.lock_class(class);
        let candidates = collect_candidates(&h, &mut st);
        assert_eq!(candidates.len(), 1);
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
        let summary = mesh_all_classes(&h);
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
            vec![(src, dst)],
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
        let summary = mesh_all_classes(&h);
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
            vec![(src, dst)],
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
        assert_eq!(mesh_all_classes(&h).pairs_probed, 0);
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
        let pairs = sources.iter().copied().zip(dests.iter().copied()).collect();
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
