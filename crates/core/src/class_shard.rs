//! One size class's shard of the global heap (§4.4): its occupancy bins,
//! its MiniHeaps from creation to destruction, and the two ways objects
//! come back to it.
//!
//! * Under the class lock ([`ClassState`]): refill, attach and release of
//!   a thread's attached set, filing spans in their occupancy bins (§3.1),
//!   and settling the spans frees left behind ([`GlobalHeap::tidy_locked`]).
//! * Without it ([`ShardUnlocked`]): a non-local small free is one atomic
//!   clear of its bit ([`GlobalHeap::free_small`], §4.4.4), and the mesh
//!   epoch tells a free whose bit a mesh pair took where to look again.
//!   Frees do not move spans between bins, so the bins are hints: whoever
//!   picks a span from one reads its bitmap again.
//!
//! The lock order these paths keep is the rank table in `sync`.

use crate::attached_set::AttachedSet;
use crate::error::MeshError;
use crate::global_heap::GlobalHeap;
use crate::harden::{self, HardenKind};
use crate::miniheap::{BitmapTable, MiniHeapId, Slab, UnsettledList, LIST_END, NOT_BINNED};
use crate::page_map::PageInfo;
use crate::rng::Rng;
use crate::shuffle_vector::ShuffleVector;
use crate::size_classes::SizeClass;
use crate::stats::LocalCounters;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of partial-occupancy bins per size class (§3.1: the global heap
/// groups spans by decreasing occupancy, e.g. 75–99% in one bin, 50–74% in
/// the next).
pub(crate) const PARTIAL_BINS: usize = 4;

/// Bin index used for completely full MiniHeaps.
pub(crate) const FULL_BIN: u8 = PARTIAL_BINS as u8;

/// Refills of its class a span sits out after it is filed under a bin,
/// before [`ClassState::select_partial`] hands it out again.
///
/// A span is filed when a free opens its first slot, and objects allocated
/// together tend to be freed together: the frees that follow go to the
/// same span. Taking the span back at once claims one slot, splits the
/// run, and — since a claim and a clear both write the span's bitmap
/// line — makes every later free into it fetch that line from the
/// allocating thread's cache. Left alone for a refill or two, the run
/// lands on a line the freeing thread still owns, and the span comes back
/// with all of it. The slots held back are what one class frees in that
/// time, whatever the size of the heap.
const REST_REFILLS: u32 = 2;

/// Random draws [`ClassState::select_partial`] makes in a bin before it
/// takes every span there to be resting.
const REST_DRAWS: usize = 4;

/// Unsettled spans a refill that the bins can serve leaves waiting. Frees
/// list a few spans between two refills of a busy class; settling them in
/// batches keeps the typical refill's lock hold to its own work. Nothing
/// waits longer than the next pass, purge, detach or refill the bins come
/// up short for.
const TIDY_BATCH: usize = 32;

/// Occupancy bins for one size class.
#[derive(Debug, Default)]
pub(crate) struct ClassBins {
    /// `partial[0]` holds the fullest spans ([75%, 100%)), `partial[3]`
    /// the emptiest ((0%, 25%)).
    pub partial: [Vec<MiniHeapId>; PARTIAL_BINS],
    /// Completely full spans (not allocation candidates).
    pub full: Vec<MiniHeapId>,
}

impl ClassBins {
    fn list_mut(&mut self, bin: u8) -> &mut Vec<MiniHeapId> {
        match bin {
            FULL_BIN => &mut self.full,
            _ => &mut self.partial[bin as usize],
        }
    }
}

/// Computes the occupancy bin for `in_use` live objects of `count` slots.
///
/// # Panics
///
/// Panics (debug) if `in_use` exceeds `count`.
#[inline]
pub(crate) fn bin_for_occupancy(in_use: usize, count: usize) -> u8 {
    debug_assert!(in_use <= count);
    if in_use == count {
        FULL_BIN
    } else {
        // quartile 3 ([75%,100%)) → bin 0, …, quartile 0 ((0,25%)) → bin 3.
        (3 - (in_use * PARTIAL_BINS / count).min(3)) as u8
    }
}

/// Mutable state of one size class, guarded by its shard's mutex.
#[derive(Debug)]
pub(crate) struct ClassState {
    /// MiniHeaps of this class. Ids are unique *within* the class; the
    /// page map disambiguates with the class code.
    pub slab: Slab,
    pub bins: ClassBins,
    /// Refills of this class so far: the clock of [`REST_REFILLS`].
    pub refills: u32,
    /// Class-private PRNG (random span selection within a bin, §3.1, and
    /// where a mesh candidate's probes start).
    pub rng: Rng,
}

impl ClassState {
    // ----- occupancy-bin bookkeeping ------------------------------------

    /// Inserts a detached MiniHeap into its occupancy bin.
    pub fn bin_insert(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("binning a dead MiniHeap");
        debug_assert!(!mh.is_attached() && !mh.is_large());
        let bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        let list = self.bins.list_mut(bin);
        let slot = list.len() as u32;
        list.push(id);
        self.slab.set_bin(id, bin, slot);
        self.slab.get_mut(id).expect("just observed").filed_at = self.refills;
    }

    /// Removes a MiniHeap from its current bin (no-op if unbinned).
    pub fn bin_remove(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("unbinning a dead MiniHeap");
        let (bin, slot) = mh.bin();
        if bin == NOT_BINNED {
            return;
        }
        let list = self.bins.list_mut(bin);
        list.swap_remove(slot as usize);
        if let Some(&moved) = list.get(slot as usize) {
            self.slab.set_bin(moved, bin, slot);
        }
        self.slab.set_bin(id, NOT_BINNED, 0);
    }

    /// Moves a MiniHeap between bins after its occupancy changed.
    pub fn rebin(&mut self, id: MiniHeapId) {
        let mh = self.slab.get(id).expect("rebinning a dead MiniHeap");
        let new_bin = bin_for_occupancy(mh.in_use(), mh.object_count());
        if mh.bin().0 != new_bin {
            self.bin_remove(id);
            self.bin_insert(id);
        }
    }

    /// Selects a partially full MiniHeap for reuse: first bin by
    /// decreasing occupancy that has a rested span (filed at least
    /// [`REST_REFILLS`] refills ago), random span within it (§3.1). The
    /// MiniHeap is removed from its bin, which is returned with it: frees
    /// since it was filed may have left it emptier than that.
    pub fn select_partial(&mut self) -> Option<(MiniHeapId, u8)> {
        for bin in 0..PARTIAL_BINS {
            let len = self.bins.partial[bin].len();
            for _ in 0..REST_DRAWS.min(len) {
                let pick = self.rng.below(len as u32) as usize;
                let id = self.bins.partial[bin][pick];
                let filed_at = self.slab.get(id).expect("binned ids are live").filed_at;
                if self.refills.wrapping_sub(filed_at) >= REST_REFILLS {
                    self.bin_remove(id);
                    return Some((id, bin as u8));
                }
            }
        }
        None
    }

    /// Makes every filed span count as rested (tests file spans and draw
    /// on them at once).
    #[cfg(test)]
    pub fn skip_rest(&mut self) {
        self.refills = self.refills.wrapping_add(REST_REFILLS);
    }
}

/// One size class's shard: its lock, plus what a non-local free uses
/// without it.
#[derive(Debug)]
pub(crate) struct ClassShard {
    pub(crate) unlocked: ShardUnlocked,
    pub(crate) state: Mutex<ClassState>,
}

/// The part of a [`ClassShard`] read without its lock. A cache line of its
/// own: a free reads `bits` on its way to the bitmap, and must not wait
/// for a line that a refill of this class or the next just locked.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct ShardUnlocked {
    /// The bitmaps of `state.slab`, by MiniHeap id.
    pub(crate) bits: Arc<BitmapTable>,
    /// Odd while a mesh pair of this class is being consumed: between the
    /// first word taken from the source's bitmap and the page map naming
    /// the destination. A free whose clear finds its bit gone waits for an
    /// even value before it looks the page up again.
    pub(crate) mesh_epoch: AtomicU64,
    /// The spans a free emptied, or opened the first slot of: the next
    /// [`GlobalHeap::lock_class_swept`] destroys or refiles them.
    pub(crate) unsettled: UnsettledList,
}

impl GlobalHeap {
    // ----- non-local small frees (§4.4.4) -------------------------------

    /// Runs `op` on the bitmap of the MiniHeap owning the small object at
    /// `addr` and on the object's slot, starting from the page-map entry
    /// the caller read as `info` from page `page`. `op` tests or clears
    /// the object's bit and says whether it found it set; `Ok` carries
    /// the entry and the [`SpanBits`] it found it in.
    ///
    /// An `op` that finds the bit gone has met a freed object unless a
    /// mesh consumed the span since `info` was read: the mesher takes a
    /// source's bits before the page map names the destination. So this
    /// waits for the batch in progress, if any (the class's epoch is odd
    /// for that long: at most [`MESH_BATCH`](crate::meshing::MESH_BATCH)
    /// copies and remaps), reads the page map again, and goes round with
    /// what it names. Another MiniHeap is the destination the object
    /// moved to. The same one gets a second look, because a batch whose
    /// remap the kernel refused puts the bits it took back; the bit gone
    /// again with the epoch where it was — no batch ran in between — is
    /// `Err(DoubleFree)`. A consumed source's id stays an all-zero
    /// tombstone while its destination lives, which is as long as the
    /// object does, so a stale id can only ever name nothing to clear.
    /// `Err(InvalidFree)` is an address that is no object's start, or
    /// whose span died under it.
    #[inline]
    fn with_object_bit(
        &self,
        addr: usize,
        mut page: u32,
        mut info: PageInfo,
        op: impl Fn(&crate::bitmap::AtomicBitmap, usize) -> bool,
    ) -> Result<(PageInfo, &crate::miniheap::SpanBits), HardenKind> {
        let class = SizeClass::from_index(info.class_code as usize);
        let shard = &self.classes[class.index()];
        // The epoch at which `info.id` was last seen without the bit.
        let mut gone_at = None;
        loop {
            // Tail waste and misaligned interior pointers are hostile
            // frees, mirroring the local path's validation.
            let slot = class
                .slot_at(addr - info.span_start(self.base, page))
                .ok_or(HardenKind::InvalidFree)?;
            let bits = shard.unlocked.bits.get(info.id).ok_or(HardenKind::InvalidFree)?;
            if op(bits.bitmap(), slot) {
                return Ok((info, bits));
            }
            let mut spins = 0u32;
            let epoch = loop {
                let epoch = shard.unlocked.mesh_epoch.load(Ordering::Acquire);
                if epoch & 1 == 0 {
                    break epoch;
                }
                // One batch: copies and remaps, like a write-barrier wait.
                if spins < 128 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            };
            match self.resolve_free(addr) {
                Some((p, i)) if i.class_code == info.class_code && i.id != info.id => {
                    page = p;
                    info = i;
                    gone_at = None;
                }
                Some((_, i)) if i.class_code == info.class_code => {
                    if gone_at == Some(epoch) {
                        return Err(HardenKind::DoubleFree);
                    }
                    gone_at = Some(epoch);
                }
                // The span died since (its last object was freed before
                // this duplicate): the page is unowned or someone else's.
                _ => return Err(HardenKind::InvalidFree),
            }
        }
    }

    /// Whether the small object at `addr` is allocated: `Ok` if its bit
    /// is set, else the verdict a free of it would get. What the
    /// quarantine checks before it parks a non-local free.
    pub(crate) fn check_small_live(
        &self,
        addr: usize,
        page: u32,
        info: PageInfo,
    ) -> Result<(), HardenKind> {
        self.with_object_bit(addr, page, info, |bitmap, slot| bitmap.is_set(slot))
            .map(|_| ())
    }

    /// Frees the small object at `addr` (see
    /// [`GlobalHeap::with_object_bit`] for `page` and `info`): clears its
    /// bit in the owning MiniHeap's bitmap and accounts for the free — on
    /// `local`, the freeing thread's delta block, or on the shared
    /// counters without one. No lock is taken for any of that, and a
    /// refused free is counted before this returns.
    ///
    /// When the clear emptied a detached span, or opened the first slot of
    /// one filed as full, the span is pushed on the class's lock-free list
    /// of unsettled spans: the next [`GlobalHeap::lock_class_swept`]
    /// destroys or refiles it. A free takes no lock and tries none.
    pub(crate) fn free_small(
        &self,
        addr: usize,
        page: u32,
        info: PageInfo,
        local: Option<&LocalCounters>,
    ) -> bool {
        #[cfg(any(debug_assertions, test))]
        let _no_locks = crate::sync::hold(crate::sync::Rank::SMALL_FREE);
        let class = SizeClass::from_index(info.class_code as usize);
        let size = class.object_size();
        let cleared = self.with_object_bit(addr, page, info, |bitmap, slot| {
            if !self.harden.poison_on() {
                return bitmap.unset(slot);
            }
            // The poison layout goes in *before* the clear: a clear bit
            // can be claimed by an attach and handed out at once. It goes
            // only over an object whose bit is still set, so a duplicate
            // free does not scribble over the slot's next owner.
            bitmap.is_set(slot) && {
                self.poison_object(addr, size, class.index());
                bitmap.unset(slot)
            }
        });
        let (info, bits) = match cleared {
            Ok(found) => found,
            Err(kind) => return self.reject_free(kind, addr),
        };
        match local {
            Some(local) => local.on_remote_free(size),
            None => {
                self.counters.frees.fetch_add(1, Ordering::Relaxed);
                self.counters.remote_frees.fetch_add(1, Ordering::Relaxed);
                self.counters.live_bytes.fetch_sub(size, Ordering::Relaxed);
            }
        }
        // An unfiled span is attached, and its thread's to release (its
        // refill sees the clear bit), or in the hands of the lock holder.
        // A filed one must move when this clear made it available — it
        // was filed as full — or left nothing live in it: that is work
        // under the class lock (and, to destroy a span, the arena lock and
        // system calls), so it is left to the next holder. The partial
        // bins in between are only refreshed by lock holders.
        let filed = bits.bin();
        if filed == FULL_BIN || (filed < FULL_BIN && bits.bitmap().in_use() == 0) {
            let unsettled = &self.classes[class.index()].unlocked.unsettled;
            unsettled.push(info.id.to_raw(), bits);
        }
        true
    }

    /// Puts the detached, binned MiniHeap `id` where its bitmap says it
    /// belongs: destroyed if nothing in it is live, else in the bin of its
    /// occupancy. Anything else — dead, attached, picked out of its bin by
    /// the holder of the lock — is left alone, so a stale `id` is harmless.
    /// Returns whether the MiniHeap left the bin it was in.
    pub(crate) fn settle_locked(&self, st: &mut ClassState, id: MiniHeapId) -> bool {
        let Some(mh) = st.slab.get(id) else {
            return false;
        };
        let (was, _) = mh.bin();
        if was == NOT_BINNED {
            return false;
        }
        debug_assert!(!mh.is_attached());
        if mh.in_use() == 0 {
            self.free_miniheap_locked(st, id);
            return true;
        }
        st.rebin(id);
        st.slab.get(id).expect("just rebinned").bin().0 != was
    }

    /// Does what frees left to a holder of `class`'s lock: settles the
    /// spans they listed. Returns whether a span was destroyed.
    pub(crate) fn tidy_locked(&self, class: SizeClass, st: &mut ClassState) -> bool {
        let unlocked = &self.classes[class.index()].unlocked;
        let mut reaped = false;
        let mut raw = unlocked.unsettled.take();
        while raw != LIST_END {
            let id = MiniHeapId::from_raw(raw);
            raw = UnsettledList::next(unlocked.bits.get(id).expect("a listed id was issued"));
            // The id may have died, or died and been reissued, since.
            reaped |= self.settle_locked(st, id) && st.slab.get(id).is_none();
        }
        reaped
    }

    /// The class's mesh epoch: odd from [`GlobalHeap::begin_consume`] to
    /// [`GlobalHeap::end_consume`].
    pub(crate) fn begin_consume(&self, class: SizeClass) {
        let was = self.classes[class.index()]
            .unlocked
            .mesh_epoch
            .fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(was & 1, 0, "one batch at a time per class");
    }

    /// Ends the odd interval: every bit taken is set in the destination
    /// and the page map names it, and a free that waited sees both.
    pub(crate) fn end_consume(&self, class: SizeClass) {
        let was = self.classes[class.index()]
            .unlocked
            .mesh_epoch
            .fetch_add(1, Ordering::SeqCst);
        debug_assert_eq!(was & 1, 1);
    }

    // ----- MiniHeap lifecycle (class lock held) -------------------------

    /// Allocates and registers a fresh MiniHeap for `class` (§4.4.2).
    pub(crate) fn fresh_miniheap_locked(
        &self,
        st: &mut ClassState,
        class: SizeClass,
    ) -> Result<MiniHeapId, MeshError> {
        let mut arena = self.lock_arena();
        let (span, _) = arena.alloc_span(class.span_pages() as u32)?;
        let id = st.slab.insert(span, false);
        self.page_map.set_span(span, id, class.index() as u8);
        drop(arena);
        if self.harden.poison_on() {
            // A fresh span's slots are all free: give each the poison
            // layout so first-allocation verification has something to
            // check (mmap zero fill would read as a violation).
            let start = self.base + span.byte_offset();
            let size = class.object_size();
            let canary = self.class_canaries[class.index()];
            for slot in 0..class.object_count() {
                unsafe { harden::poison_fill(start + slot * size, size, canary) };
            }
        }
        Ok(id)
    }

    /// Destroys an empty, detached MiniHeap: returns its spans to the
    /// arena — meshed aliases parked, their identity mappings left to the
    /// next purge — and clears ownership, of it and of the tombstones on
    /// its chain.
    pub(crate) fn free_miniheap_locked(&self, st: &mut ClassState, id: MiniHeapId) {
        st.bin_remove(id);
        let mut arena = self.lock_arena();
        let mh = st.slab.remove(id, |alias| {
            self.page_map.clear_span(alias);
            arena.park_alias(alias);
        });
        let primary = mh.span();
        self.page_map.clear_span(primary);
        arena.free_span_dirty(primary);
    }

    /// Refills `set` for `class` under the class lock (plus the arena leaf
    /// lock only if a fresh span is needed):
    ///
    /// 1. members the thread is not drawing on are released — to their
    ///    occupancy bin, or destroyed if nothing in them is live. These
    ///    are the idle ones its frees have passed by
    ///    ([`AttachedSet::take_idle`]: full spans, which the mesher gets
    ///    to see once their objects die, as when every refill detached
    ///    the one attached span), and the ones other threads freed into,
    ///    whose freed slots are re-claimed by whoever step 2 hands the
    ///    span to — this set, if it is among the fullest;
    /// 2. partial spans are attached fullest-first (§3.1; by the bins,
    ///    which say where a lock holder last filed a span, not what frees
    ///    have made of it since) until the set holds its goal, one span's
    ///    worth of free slots, or is full of members that all have slots —
    ///    evicting one more full member only when the set is at its bound
    ///    and a partial span needs the place. The spans frees have listed
    ///    since are settled first when [`TIDY_BATCH`] of them wait, and
    ///    otherwise only if the bins come up short of the goal;
    /// 3. a fresh span is carved only if all of that found no slot.
    ///
    /// Full members this thread keeps freeing into stay: that is what
    /// keeps its frees local. The goal bounds what a thread hoards to what
    /// one fresh span always gave it — free slots a thread sits on are
    /// slots another thread must carve a span for — and going through the
    /// bins keeps the packing fullest-first across threads.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::ArenaExhausted`] when no slot was found and no
    /// span can be carved.
    pub fn refill(
        &self,
        set: &mut AttachedSet,
        class: SizeClass,
        thread_rng: &mut Rng,
    ) -> Result<(), MeshError> {
        let mut st = self.lock_class(class);
        let mut tidied = self.classes[class.index()].unlocked.unsettled.len() >= TIDY_BATCH;
        if tidied {
            self.tidy_locked(class, &mut st);
        }
        self.counters.refills.fetch_add(1, Ordering::Relaxed);
        st.refills = st.refills.wrapping_add(1);
        let idle = set.take_idle();
        for member in set.members() {
            let mh = st.slab.get(set.id(member)).expect("attached id is live");
            // Every slot the vector holds is claimed, so a clear bit is a
            // slot another thread's free gave back. A member this thread
            // still draws on is wanted back now; an idle one can rest.
            let is_idle = idle & (1 << member) != 0;
            if is_idle || mh.in_use() < mh.object_count() {
                self.release_vector_locked(&mut st, set.unlink(member), !is_idle);
            }
        }
        let mut slots = set.available();
        let mut misfiled = 0;
        'gather: loop {
            while slots < class.object_count() {
                let Some((id, filed)) = st.select_partial() else { break };
                let in_use = st.slab.get(id).expect("binned ids are live").in_use();
                if in_use == 0 {
                    // Emptied since the class was last tidied.
                    self.free_miniheap_locked(&mut st, id);
                    continue;
                }
                // Frees do not move a span between partial bins. One that
                // has drained since it was filed goes where it belongs —
                // the fullest come first (§3.1) — a few times per refill
                // at most.
                if bin_for_occupancy(in_use, class.object_count()) > filed
                    && misfiled < REST_DRAWS
                {
                    misfiled += 1;
                    self.file_locked(&mut st, id, true);
                    continue;
                }
                if !self.make_room_locked(&mut st, set, thread_rng) {
                    self.file_locked(&mut st, id, true);
                    break 'gather;
                }
                slots += self.attach_locked(&mut st, set, id, thread_rng);
            }
            // The bins came up short: the spans frees have opened up since
            // they were last tidied come before a fresh one.
            if slots >= class.object_count() || tidied {
                break;
            }
            tidied = true;
            self.tidy_locked(class, &mut st);
        }
        if slots == 0 {
            let room = self.make_room_locked(&mut st, set, thread_rng);
            debug_assert!(room, "a set without free slots has only full members");
            let id = self.fresh_miniheap_locked(&mut st, class)?;
            self.attach_locked(&mut st, set, id, thread_rng);
        }
        Ok(())
    }

    /// Makes sure `set` has a vacant position, evicting a random full
    /// member if it is at its bound. `false` when it is at its bound and
    /// every member still has free slots.
    fn make_room_locked(
        &self,
        st: &mut ClassState,
        set: &mut AttachedSet,
        thread_rng: &mut Rng,
    ) -> bool {
        if !set.is_full() {
            return true;
        }
        let Some(victim) = set.pick_full(thread_rng) else {
            return false;
        };
        self.release_vector_locked(st, set.unlink(victim), false);
        true
    }

    /// Attaches detached MiniHeap `id` to `set`; returns the free slots it
    /// brought.
    fn attach_locked(
        &self,
        st: &mut ClassState,
        set: &mut AttachedSet,
        id: MiniHeapId,
        thread_rng: &mut Rng,
    ) -> usize {
        st.slab.get_mut(id).expect("selected id is live").set_attached(true);
        let mh = st.slab.get(id).expect("just attached");
        let span = mh.span();
        set.attach_with(|sv| {
            sv.attach(
                id,
                self.base + span.byte_offset(),
                span.byte_len(),
                mh.object_count(),
                mh.object_size(),
                mh.bitmap(),
                thread_rng,
            );
            for alias in mh.aliases() {
                sv.push_span_alias(self.base + alias.byte_offset());
            }
        })
    }

    /// Detaches one member — the local free path's release of a member
    /// the retention rule gives back ([`AttachedSet::is_surplus_empty`]).
    pub fn release_member(&self, class: SizeClass, set: &mut AttachedSet, member: usize) {
        let mut st = self.lock_class_swept(class);
        self.release_vector_locked(&mut st, set.unlink(member), false);
    }

    /// Teardown path for a thread heap: detaches every member of `set`.
    pub fn release_set(&self, class: SizeClass, set: &mut AttachedSet) {
        if set.len() == 0 {
            return;
        }
        let mut st = self.lock_class_swept(class);
        for member in set.members() {
            self.release_vector_locked(&mut st, set.unlink(member), false);
        }
    }

    /// Detaches `sv`'s span and files it: `rested` lets the next
    /// [`ClassState::select_partial`] hand it straight out again.
    fn release_vector_locked(&self, st: &mut ClassState, sv: &mut ShuffleVector, rested: bool) {
        let Some(old) = sv.miniheap() else { return };
        st.slab.get_mut(old).expect("attached id is live").set_attached(false);
        sv.detach(st.slab.get(old).expect("just detached").bitmap());
        self.file_locked(st, old, rested);
    }

    /// Files the detached, unfiled MiniHeap `id` under its occupancy bin —
    /// as one that has had its rest, with `rested` — or destroys it if
    /// nothing in it is live. Filed first, bitmap read again after: a free
    /// that cleared the last live bit meanwhile either is seen by that
    /// read or saw the span filed and settles it itself (see
    /// [`crate::bitmap`]).
    fn file_locked(&self, st: &mut ClassState, id: MiniHeapId, rested: bool) {
        st.bin_insert(id);
        if rested {
            let since = st.refills.wrapping_sub(REST_REFILLS);
            st.slab.get_mut(id).expect("just filed").filed_at = since;
        }
        self.settle_locked(st, id);
    }

}
