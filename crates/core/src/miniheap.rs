//! MiniHeaps: per-span metadata (§4.1).
//!
//! A MiniHeap tracks one *physical* span — its allocation bitmap and the
//! start of every *virtual* span mapped onto it (one before meshing,
//! several after). MiniHeaps are *attached* (owned by a thread-local heap,
//! serving new allocations) or *detached* (owned by the global heap,
//! binned by occupancy and eligible for meshing).
//!
//! MiniHeaps live in a `Slab` — the analog of the reference
//! implementation's internal allocator — and are addressed by stable
//! [`MiniHeapId`]s, which also serve as the payload of the arena's
//! page→MiniHeap table (§4.4.2).
//!
//! A slab keeps two stores, and neither allocates per MiniHeap. The slots
//! — 32 bytes each, free, live or tombstone — sit in a `Vec` only the
//! holder of the slab's lock touches; a MiniHeap's object size and count
//! come from the slab's class. The bitmaps sit in a `BitmapTable`: chunks
//! that are allocated once and never move, so a non-local free can go
//! from a page-map entry's id to the bitmap and clear its bit without the
//! lock (§4.4.4; DESIGN.md §3).
//!
//! A meshed MiniHeap's alias spans are exactly the primaries of the
//! MiniHeaps meshed into it, whose ids stay reserved as tombstones until
//! it dies. Each tombstone keeps its primary and the id of the next one,
//! so one chain through the slab lists both.

use crate::bitmap::AtomicBitmap;
use crate::size_classes::{SizeClass, PAGE_SIZE};
use crate::span::Span;
use crate::stats::Counters;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Stable identifier of a MiniHeap within its heap's `Slab`.
///
/// Internally `index + 1`, so the zero bit-pattern stays free as the
/// page-table's "no MiniHeap" sentinel (§4.4.4's invalid-free detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MiniHeapId(NonZeroU32);

impl MiniHeapId {
    /// Reconstructs an id from its raw non-zero representation.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is zero.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        MiniHeapId(NonZeroU32::new(raw).expect("MiniHeapId raw value must be non-zero"))
    }

    /// The raw non-zero representation (used in the page table).
    #[inline]
    pub fn to_raw(self) -> u32 {
        self.0.get()
    }

    #[inline]
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// Sentinel for "not currently in any occupancy bin".
pub(crate) const NOT_BINNED: u8 = u8::MAX;

/// The part of a MiniHeap a thread reaches without its slab's lock: the
/// allocation bitmap and the occupancy bin the span is filed under. A
/// cache line of its own: a free's clear and its read of the bin cost one
/// miss, and two threads freeing into neighbouring spans share nothing.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct SpanBits {
    bitmap: AtomicBitmap,
    /// Mirrors [`MiniHeap::bin`]: [`NOT_BINNED`] while the span is
    /// attached (or dead, or in the hands of the lock holder). A freer
    /// reads it after clearing its bit: a span filed under another bin
    /// than its bitmap now says, or left with nothing live, is the freer's
    /// to settle. See the ordering note in [`crate::bitmap`].
    bin: AtomicU8,
    /// Link of the class's [`UnsettledList`]: the raw id of the next span
    /// listed, [`LIST_END`] at the tail, [`UNLISTED`] when not on it.
    next_unsettled: AtomicU32,
}

/// [`SpanBits::next_unsettled`] of a span that is on no list.
const UNLISTED: u32 = u32::MAX;

/// [`SpanBits::next_unsettled`] of the last span listed: no id is 0.
pub(crate) const LIST_END: u32 = 0;

impl SpanBits {
    #[inline]
    pub fn bitmap(&self) -> &AtomicBitmap {
        &self.bitmap
    }

    #[inline]
    pub fn bin(&self) -> u8 {
        self.bin.load(Ordering::SeqCst)
    }
}

/// A class's list of spans a free left for the next holder of the class
/// lock to settle (`GlobalHeap::free_small`): the raw id of the first in
/// the low half of the word, the number listed in the high half. The
/// links are the spans' own [`SpanBits`], so the list allocates nothing
/// and holds a span at most once.
#[derive(Debug, Default)]
pub(crate) struct UnsettledList(AtomicU64);

impl UnsettledList {
    /// Spans listed.
    #[inline]
    pub fn len(&self) -> usize {
        (self.0.load(Ordering::Relaxed) >> 32) as usize
    }

    /// Lists the span whose raw id is `id` and whose entry is `bits`,
    /// unless it is listed already. Any thread, no lock.
    pub fn push(&self, id: u32, bits: &SpanBits) {
        // The claim: whoever takes the link from `UNLISTED` pushes. One
        // that finds it taken read it before `next` gave it back (both
        // `SeqCst`), so the bit it cleared before coming here is seen by
        // the bitmap read that follows that `next`.
        if bits
            .next_unsettled
            .compare_exchange(UNLISTED, LIST_END, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let mut head = self.0.load(Ordering::Relaxed);
        loop {
            bits.next_unsettled.store(head as u32, Ordering::Relaxed);
            let listed = ((head >> 32) + 1) << 32 | u64::from(id);
            match self.0.compare_exchange_weak(head, listed, Ordering::SeqCst, Ordering::Relaxed) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    /// Detaches the whole list and returns the raw id of its first span,
    /// [`LIST_END`] if there is none. The caller walks it with
    /// [`UnsettledList::next`].
    pub fn take(&self) -> u32 {
        // Read-only first: an empty list costs no write.
        if self.0.load(Ordering::Relaxed) == 0 {
            return LIST_END;
        }
        self.0.swap(0, Ordering::SeqCst) as u32
    }

    /// Takes the span with entry `bits` off a detached list and returns
    /// the raw id listed after it. The span may be listed again at once.
    pub fn next(bits: &SpanBits) -> u32 {
        bits.next_unsettled.swap(UNLISTED, Ordering::SeqCst)
    }
}

/// Entries in the first chunk of a [`BitmapTable`]; chunk `k` holds
/// `FIRST_CHUNK << k`.
const FIRST_CHUNK: usize = 64;

/// Chunks that cover every `u32` index.
const CHUNKS: usize = 27;

/// One [`SpanBits`] per MiniHeap id of a slab, in chunks that double in
/// size and are never moved or freed while the table lives. Chunks are
/// added under the slab's lock; entries are read from any thread.
#[derive(Debug)]
pub(crate) struct BitmapTable {
    chunks: [OnceLock<Box<[SpanBits]>>; CHUNKS],
    /// Slots every bitmap of this table tracks.
    bits: usize,
}

impl BitmapTable {
    fn new(bits: usize) -> Self {
        BitmapTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            bits,
        }
    }

    /// Chunk number and offset within it of index `index`.
    #[inline]
    fn locate(index: usize) -> (usize, usize) {
        let j = index + FIRST_CHUNK;
        let k = (usize::BITS - 1 - j.leading_zeros()) as usize - FIRST_CHUNK.trailing_zeros() as usize;
        (k, j - (FIRST_CHUNK << k))
    }

    /// The entry of `id`, or `None` for an id this table never issued.
    /// Lock-free: an id read from the page map was published after its
    /// chunk was.
    #[inline]
    pub fn get(&self, id: MiniHeapId) -> Option<&SpanBits> {
        let (k, off) = Self::locate(id.index());
        self.chunks.get(k)?.get()?.get(off)
    }

    /// Allocates the chunk of `index` if it is the first index to land
    /// there (indices are issued in order); returns the bytes it took.
    fn grow(&self, index: usize) -> usize {
        let (k, off) = Self::locate(index);
        if off != 0 {
            return 0;
        }
        let entries = FIRST_CHUNK << k;
        let chunk = (0..entries).map(|_| SpanBits {
            bitmap: AtomicBitmap::new(self.bits),
            bin: AtomicU8::new(NOT_BINNED),
            next_unsettled: AtomicU32::new(UNLISTED),
        });
        self.chunks[k].set(chunk.collect()).expect("chunks grow in index order");
        entries * std::mem::size_of::<SpanBits>()
    }
}

/// What an id of a [`Slab`] names.
#[derive(Debug)]
enum Slot {
    /// Nothing: the id is on the slab's free list.
    Free,
    /// A MiniHeap meshed into another. Its id stays reserved, its bitmap
    /// all zero, until that one dies: a free that looked it up before the
    /// mesh must find nothing to clear there, never the bitmap of a
    /// MiniHeap that recycled the id (DESIGN.md §3). `primary_offset` is
    /// where its primary span starts, an alias of the survivor's now;
    /// `next` is the raw id of the next tombstone on the survivor's
    /// chain, [`CHAIN_END`] after the last.
    Tombstone { primary_offset: u32, next: u32 },
    Live(MiniHeap),
}

/// The end of an alias chain (and the head of an empty one): no id is 0.
const CHAIN_END: u32 = 0;

const _: () = assert!(std::mem::size_of::<Slot>() <= 32, "a slab slot is at most 32 bytes");
const _: () = assert!(std::mem::size_of::<SpanBits>() == 64, "a table entry is one line");

/// Metadata for one physical span (§4.1): a record that owns no memory.
/// The rest comes from its [`Slab`] — object size and count from the
/// class, the bitmap from the table, the alias spans from the tombstones
/// on its chain — and [`MiniHeapRef`] puts the two together.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MiniHeap {
    /// First page of the primary span, whose page range equals the
    /// physical file range.
    offset: u32,
    /// Pages of each virtual span.
    pages: u32,
    /// Raw id of the first tombstone of the alias chain.
    chain: u32,
    /// Virtual spans: the primary, and one per tombstone on the chain.
    span_count: u32,
    /// The class's refill count when this MiniHeap was last filed under a
    /// bin (see `ClassState::select_partial`, which lets it rest a while).
    pub(crate) filed_at: u32,
    /// Position inside the bin's vector, for O(1) removal.
    bin_slot: u32,
    /// Byte offset of the object's start within the span — non-zero only
    /// for over-aligned large objects, whose first aligned address sits
    /// past the span head. Lets hardened mode pin `free` to the exact
    /// address malloc returned.
    start_off: u32,
    /// Occupancy bin index while detached (`NOT_BINNED` otherwise).
    bin: u8,
    /// Owned by a thread-local heap: new objects are only allocated out of
    /// attached MiniHeaps.
    attached: bool,
    /// Large-object singleton whose span carries a trailing hardened-mode
    /// guard page: the last page is not part of the object and must be
    /// unprotected/verified before the span is released.
    guarded: bool,
}

impl MiniHeap {
    /// Whether this large-object span carries a trailing guard page.
    #[inline]
    pub fn is_guarded(&self) -> bool {
        self.guarded
    }

    /// Records the object's byte offset within the span (over-aligned
    /// large objects only; see `start_off`).
    #[inline]
    pub fn set_large_start_off(&mut self, off: usize) {
        debug_assert!(off < self.pages as usize * PAGE_SIZE);
        self.start_off = off as u32;
    }

    /// Byte offset of the object's start within the span (0 unless the
    /// object is over-aligned).
    #[inline]
    pub fn large_start_off(&self) -> usize {
        self.start_off as usize
    }

    /// The primary span: its page range equals the physical file range.
    #[inline]
    pub fn span(&self) -> Span {
        Span::new(self.offset, self.pages)
    }

    /// Number of virtual spans (1 = never meshed).
    #[inline]
    pub fn span_count(&self) -> usize {
        self.span_count as usize
    }

    /// Whether attached to any thread-local heap.
    #[inline]
    pub fn is_attached(&self) -> bool {
        self.attached
    }

    pub(crate) fn set_attached(&mut self, attached: bool) {
        self.attached = attached;
    }

    /// The occupancy bin this MiniHeap is filed under and its position in
    /// that bin's list; ([`NOT_BINNED`], 0) when in none.
    #[inline]
    pub(crate) fn bin(&self) -> (u8, u32) {
        (self.bin, self.bin_slot)
    }
}

/// A live MiniHeap read together with its slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MiniHeapRef<'a> {
    slab: &'a Slab,
    id: MiniHeapId,
    mh: &'a MiniHeap,
}

impl std::ops::Deref for MiniHeapRef<'_> {
    type Target = MiniHeap;

    #[inline]
    fn deref(&self) -> &MiniHeap {
        self.mh
    }
}

impl<'a> MiniHeapRef<'a> {
    /// Object size in bytes (size-class size, or the page-rounded request
    /// for large objects).
    #[inline]
    pub fn object_size(&self) -> usize {
        match self.slab.class {
            Some(class) => class.object_size(),
            None => (self.pages as usize - usize::from(self.guarded)) * PAGE_SIZE,
        }
    }

    /// Number of object slots.
    #[inline]
    pub fn object_count(&self) -> usize {
        self.slab.table.bits
    }

    /// Whether this is a large-object singleton.
    #[inline]
    pub fn is_large(&self) -> bool {
        self.slab.class.is_none()
    }

    /// The allocation bitmap, bit per slot (§4.1).
    #[inline]
    pub fn bitmap(&self) -> &'a AtomicBitmap {
        &self.slab.table.get(self.id).expect("a live id was issued").bitmap
    }

    /// Number of live objects (set bits). Other threads clear bits at any
    /// time, so two reads can differ; only an attach sets any, and that
    /// needs the slab's lock.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.bitmap().in_use()
    }

    /// Every virtual span aliasing this physical span, primary first.
    pub fn virtual_spans(&self) -> impl Iterator<Item = Span> + 'a {
        std::iter::once(self.span()).chain(self.aliases())
    }

    /// The virtual spans acquired by meshing: the primaries of the
    /// tombstones on the chain.
    pub fn aliases(&self) -> impl Iterator<Item = Span> + 'a {
        self.slab.chain(self.chain, self.pages).map(|(_, span)| span)
    }
}

/// Slab of MiniHeaps with stable ids and O(1) insert/remove — the analog of
/// the reference implementation's internal MiniHeap allocator (§4.4.2).
#[derive(Debug)]
pub(crate) struct Slab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    /// The class of every MiniHeap here; `None` for large-object singletons.
    class: Option<SizeClass>,
    table: Arc<BitmapTable>,
    /// Where the bytes of `slots` and `table` are counted
    /// (`HeapStats::slab_bytes`).
    counters: Arc<Counters>,
}

impl Slab {
    /// Creates an empty slab for the MiniHeaps of `class`, or for
    /// large-object singletons.
    pub fn new(class: Option<SizeClass>, counters: Arc<Counters>) -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            class,
            table: Arc::new(BitmapTable::new(class.map_or(1, |class| class.object_count()))),
            counters,
        }
    }

    /// The bitmaps of this slab's MiniHeaps, for readers without its lock.
    pub(crate) fn table(&self) -> Arc<BitmapTable> {
        Arc::clone(&self.table)
    }

    /// Number of live MiniHeaps.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Registers a detached MiniHeap over `span` and returns its id. In a
    /// large-object slab it is born holding its one object, and with
    /// `guarded` the span ends with a hardened guard page: the object
    /// occupies `byte_len - PAGE_SIZE`, so `usable_size`/`realloc` see the
    /// true object size and any linear overflow lands on the guard.
    pub(crate) fn insert(&mut self, span: Span, guarded: bool) -> MiniHeapId {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.slots.push(Slot::Free);
                let grown = std::mem::size_of::<Slot>() + self.table.grow(self.slots.len() - 1);
                self.counters.slab_bytes.fetch_add(grown, Ordering::Relaxed);
                self.slots.len() - 1
            }
        };
        let id = MiniHeapId::from_raw(idx as u32 + 1);
        let bitmap = &self.table.get(id).expect("grown above").bitmap;
        debug_assert_eq!(bitmap.in_use(), 0, "a recycled bitmap entry must be all zero");
        match self.class {
            Some(class) => debug_assert!(span.pages as usize == class.span_pages() && !guarded),
            None => {
                debug_assert!(!guarded || span.pages >= 2, "a guarded span needs two pages");
                bitmap.try_set(0);
            }
        }
        self.slots[idx] = Slot::Live(MiniHeap {
            offset: span.offset,
            pages: span.pages,
            chain: CHAIN_END,
            span_count: 1,
            filed_at: 0,
            bin_slot: 0,
            start_off: 0,
            bin: NOT_BINNED,
            attached: false,
            guarded,
        });
        self.live += 1;
        id
    }

    /// Removes the MiniHeap `id` and releases its id and the ids of the
    /// tombstones on its chain, handing each of their spans to `alias`:
    /// every object of the MiniHeaps meshed into it is dead too, so no
    /// free can still hold one of those ids. Returns the record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: MiniHeapId, mut alias: impl FnMut(Span)) -> MiniHeap {
        let Slot::Live(mh) = std::mem::replace(&mut self.slots[id.index()], Slot::Free) else {
            panic!("removing a dead MiniHeapId");
        };
        let in_use = self.table.get(id).map(|bits| bits.bitmap.in_use());
        debug_assert_eq!(in_use, Some(0), "a MiniHeap dies empty");
        self.live -= 1;
        self.free.push(id.index() as u32);
        let mut next = mh.chain;
        while let Some(idx) = next.checked_sub(1) {
            let Slot::Tombstone { primary_offset, next: after } =
                std::mem::replace(&mut self.slots[idx as usize], Slot::Free)
            else {
                unreachable!("an alias chain runs through tombstones");
            };
            alias(Span::new(primary_offset, mh.pages));
            self.free.push(idx);
            next = after;
        }
        mh
    }

    /// Folds the meshed-away MiniHeap `src` into `dst`: `src`'s id becomes
    /// a tombstone holding its primary, and goes with its own chain onto
    /// the front of `dst`'s.
    pub(crate) fn absorb(&mut self, dst: MiniHeapId, src: MiniHeapId) {
        let s = *self.get(src).expect("absorbing a dead MiniHeapId");
        debug_assert_eq!(self.get(src).map(|mh| mh.in_use()), Some(0), "the mesher took every bit");
        // The last tombstone of `src`'s chain, or `src`, links on to `dst`'s.
        let tail = self.chain(s.chain, s.pages).last().map_or(src.to_raw(), |(raw, _)| raw);
        self.slots[src.index()] = Slot::Tombstone { primary_offset: s.offset, next: s.chain };
        self.live -= 1;
        let d = self.get_mut(dst).expect("mesh dest is live");
        let (head, count) = (d.chain, d.span_count + s.span_count);
        (d.chain, d.span_count) = (src.to_raw(), count);
        if let Slot::Tombstone { next, .. } = &mut self.slots[tail as usize - 1] {
            *next = head;
        }
        debug_assert_eq!(
            self.chain(src.to_raw(), s.pages).take(count as usize).count(),
            count as usize - 1,
            "an alias chain ends after span_count - 1 tombstones"
        );
    }

    /// The tombstones of the chain from raw id `next` on, each with its
    /// span of `pages` pages.
    fn chain(&self, mut next: u32, pages: u32) -> impl Iterator<Item = (u32, Span)> + '_ {
        std::iter::from_fn(move || {
            let raw = next;
            let slot = &self.slots[raw.checked_sub(1)? as usize];
            let &Slot::Tombstone { primary_offset, next: after } = slot else {
                unreachable!("an alias chain runs through tombstones");
            };
            next = after;
            Some((raw, Span::new(primary_offset, pages)))
        })
    }

    /// Records where the occupancy bins hold MiniHeap `id`, also for
    /// freers. Whoever files a span must read its bitmap again *after*
    /// this: a free that emptied it just before saw it unfiled and left it
    /// alone.
    pub(crate) fn set_bin(&mut self, id: MiniHeapId, bin: u8, slot: u32) {
        let Some(Slot::Live(mh)) = self.slots.get_mut(id.index()) else {
            panic!("filing a dead MiniHeapId");
        };
        mh.bin_slot = slot;
        // A span that only changes position in its list (another was
        // removed) keeps its mirror: no write to its cache line.
        if mh.bin != bin {
            mh.bin = bin;
            self.table.get(id).expect("a live id was issued").bin.store(bin, Ordering::SeqCst);
        }
    }

    /// The MiniHeap with id `id`, or `None` if it is dead.
    #[inline]
    pub fn get(&self, id: MiniHeapId) -> Option<MiniHeapRef<'_>> {
        match self.slots.get(id.index()) {
            Some(Slot::Live(mh)) => Some(MiniHeapRef { slab: self, id, mh }),
            _ => None,
        }
    }

    /// Mutably borrows the MiniHeap with id `id`, or `None` if it is dead.
    #[inline]
    pub fn get_mut(&mut self, id: MiniHeapId) -> Option<&mut MiniHeap> {
        match self.slots.get_mut(id.index()) {
            Some(Slot::Live(mh)) => Some(mh),
            _ => None,
        }
    }

    /// Iterates over `(id, MiniHeap)` for all live MiniHeaps.
    pub fn iter(&self) -> impl Iterator<Item = (MiniHeapId, MiniHeapRef<'_>)> {
        (1..=self.slots.len() as u32).filter_map(|raw| {
            let id = MiniHeapId::from_raw(raw);
            self.get(id).map(|mh| (id, mh))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::size_classes::SizeClass;
    use std::collections::HashMap;

    fn class() -> SizeClass {
        SizeClass::for_size(256).unwrap()
    }

    fn slab() -> Slab {
        Slab::new(Some(class()), Arc::new(Counters::default()))
    }

    /// Inserts a one-span MiniHeap of the 256-byte class at page `offset`.
    fn insert_small(slab: &mut Slab, offset: u32) -> MiniHeapId {
        slab.insert(Span::new(offset, class().span_pages() as u32), false)
    }

    /// Removes `id`; returns the alias spans it parked.
    fn remove(slab: &mut Slab, id: MiniHeapId) -> Vec<Span> {
        let mut parked = Vec::new();
        slab.remove(id, |span| parked.push(span));
        parked
    }

    #[test]
    fn id_roundtrip_and_sentinel() {
        let id = MiniHeapId::from_raw(7);
        assert_eq!(id.to_raw(), 7);
        assert_eq!(std::mem::size_of::<Option<MiniHeapId>>(), 4, "niche optimization");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_raw_id_panics() {
        MiniHeapId::from_raw(0);
    }

    #[test]
    fn small_miniheap_geometry() {
        let mut slab = slab();
        let id = insert_small(&mut slab, 0);
        let mh = slab.get(id).unwrap();
        assert_eq!(mh.object_size(), 256);
        assert_eq!(mh.object_count(), 16);
        assert!(!mh.is_large());
        assert_eq!(mh.span_count(), 1, "never meshed");
        assert_eq!(mh.virtual_spans().collect::<Vec<_>>(), [Span::new(0, 1)]);
        assert_eq!(mh.in_use(), 0);
    }

    #[test]
    fn large_miniheap_is_born_occupied() {
        let mut slab = Slab::new(None, Arc::new(Counters::default()));
        let id = slab.insert(Span::new(5, 10), false);
        let mh = slab.get(id).unwrap();
        assert!(mh.is_large());
        assert_eq!(mh.object_count(), 1);
        assert_eq!(mh.object_size(), 10 * 4096);
        assert_eq!(mh.in_use(), 1);
        assert_eq!(mh.span(), Span::new(5, 10));
        let guarded = slab.insert(Span::new(20, 10), true);
        assert_eq!(slab.get(guarded).unwrap().object_size(), 9 * 4096);
        assert!(slab.get(guarded).unwrap().is_guarded());
    }

    #[test]
    fn absorb_takes_spans_and_leaves_tombstones() {
        let mut slab = slab();
        let dst = insert_small(&mut slab, 0);
        let a = insert_small(&mut slab, 9);
        let b = insert_small(&mut slab, 12);
        // b was meshed into a earlier; now a is meshed into dst.
        slab.absorb(a, b);
        slab.absorb(dst, a);
        assert_eq!(slab.len(), 1);
        let mh = slab.get(dst).unwrap();
        assert_eq!(mh.span_count(), 3);
        assert_eq!(
            mh.virtual_spans().collect::<Vec<_>>(),
            [Span::new(0, 1), Span::new(9, 1), Span::new(12, 1)]
        );
        // Both ids stay reserved with dst.
        assert_ne!(insert_small(&mut slab, 20), a);
        let parked = remove(&mut slab, dst);
        assert_eq!(parked, [Span::new(9, 1), Span::new(12, 1)]);
        let mut released = slab.free.clone();
        released.sort_unstable();
        assert_eq!(released, [dst, a, b].map(|id| id.index() as u32));
    }

    #[test]
    fn attach_state_transitions() {
        let mut slab = slab();
        let id = insert_small(&mut slab, 0);
        let mh = slab.get_mut(id).unwrap();
        assert!(!mh.is_attached());
        mh.set_attached(true);
        assert!(mh.is_attached());
        mh.set_attached(false);
        assert!(!mh.is_attached());
    }

    #[test]
    fn bin_is_mirrored_for_lock_free_readers() {
        let mut slab = slab();
        let id = insert_small(&mut slab, 0);
        let table = slab.table();
        assert_eq!(table.get(id).unwrap().bin(), NOT_BINNED);
        slab.set_bin(id, 2, 7);
        assert_eq!(slab.get(id).unwrap().bin(), (2, 7));
        assert_eq!(table.get(id).unwrap().bin(), 2);
        slab.set_bin(id, NOT_BINNED, 0);
        assert_eq!(table.get(id).unwrap().bin(), NOT_BINNED);
    }

    #[test]
    fn unsettled_list_holds_each_span_once_until_taken() {
        let mut slab = slab();
        let table = slab.table();
        let ids: Vec<MiniHeapId> = (0..3).map(|i| insert_small(&mut slab, i)).collect();
        let list = UnsettledList::default();
        assert_eq!((list.len(), list.take()), (0, LIST_END));
        for &id in ids.iter().chain(&ids) {
            list.push(id.to_raw(), table.get(id).unwrap());
        }
        assert_eq!(list.len(), 3, "each span once");
        // Detach the list and walk it: last pushed first.
        let mut raw = list.take();
        assert_eq!(list.len(), 0);
        let mut seen = Vec::new();
        while raw != LIST_END {
            seen.push(raw);
            raw = UnsettledList::next(table.get(MiniHeapId::from_raw(raw)).unwrap());
        }
        assert_eq!(seen, [ids[2].to_raw(), ids[1].to_raw(), ids[0].to_raw()]);
        // Spans taken off can be listed again.
        list.push(ids[1].to_raw(), table.get(ids[1]).unwrap());
        assert_eq!((list.len(), list.take()), (1, ids[1].to_raw()));
    }

    #[test]
    fn slab_insert_get_remove() {
        let mut slab = slab();
        assert_eq!(slab.len(), 0);
        let a = insert_small(&mut slab, 0);
        let b = insert_small(&mut slab, 1);
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert!(slab.get(a).is_some());
        assert!(remove(&mut slab, a).is_empty());
        assert!(slab.get(a).is_none());
        assert_eq!(slab.len(), 1);
        // Freed slot is recycled but b's id stays valid.
        let c = insert_small(&mut slab, 2);
        assert_eq!(c, a, "slab recycles slots");
        assert!(slab.get(b).is_some());
        assert_eq!(slab.iter().count(), 2);
    }

    #[test]
    fn retired_id_is_not_reissued_until_released() {
        let mut slab = slab();
        let survivor = insert_small(&mut slab, 0);
        let a = insert_small(&mut slab, 1);
        slab.absorb(survivor, a);
        assert!(slab.get(a).is_none());
        assert_eq!(slab.len(), 1);
        let b = insert_small(&mut slab, 2);
        assert_ne!(b, a, "a tombstone's id is still taken");
        remove(&mut slab, survivor);
        let reissued = [insert_small(&mut slab, 3), insert_small(&mut slab, 4)];
        assert!(reissued.contains(&a) && reissued.contains(&survivor));
    }

    #[test]
    fn table_entries_are_stable_and_reachable_without_the_slab() {
        let mut slab = slab();
        let table = slab.table();
        let first = insert_small(&mut slab, 0);
        slab.get(first).unwrap().bitmap().try_set(3);
        let addr = table.get(first).unwrap().bitmap() as *const AtomicBitmap;
        // Grow through several chunks: the first entry neither moves nor
        // changes, and every id resolves to the bitmap its MiniHeap uses.
        let ids: Vec<MiniHeapId> = (1..1000).map(|i| insert_small(&mut slab, i)).collect();
        assert_eq!(table.get(first).unwrap().bitmap() as *const AtomicBitmap, addr);
        assert!(table.get(first).unwrap().bitmap().is_set(3));
        for &id in &ids {
            assert!(std::ptr::eq(
                table.get(id).unwrap().bitmap(),
                slab.get(id).unwrap().bitmap()
            ));
        }
        assert!(table.get(MiniHeapId::from_raw(1 << 20)).is_none(), "never issued");
        // Chunk boundaries: 64, 128, 256, ... entries.
        assert_eq!(BitmapTable::locate(0), (0, 0));
        assert_eq!(BitmapTable::locate(63), (0, 63));
        assert_eq!(BitmapTable::locate(64), (1, 0));
        assert_eq!(BitmapTable::locate(191), (1, 127));
        assert_eq!(BitmapTable::locate(192), (2, 0));
        assert_eq!(BitmapTable::locate(u32::MAX as usize - 1).0, CHUNKS - 1);
    }

    #[test]
    fn slab_bytes_counts_every_id_and_table_entry() {
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        let counters = Arc::new(Counters::default());
        let mut slab = Slab::new(Some(class()), Arc::clone(&counters));
        let slab_bytes = || counters.slab_bytes.load(Ordering::Relaxed);
        assert_eq!(slab_bytes(), 0, "nothing before the first id");
        let ids: Vec<MiniHeapId> = (0..200).map(|i| insert_small(&mut slab, i)).collect();
        // 200 ids land in the chunks of 64, 128 and 256 entries.
        assert_eq!(slab_bytes(), 200 * 32 + (64 + 128 + 256) * 64);
        // Recycled ids cost nothing more.
        for &id in &ids[..50] {
            remove(&mut slab, id);
        }
        for i in 0..50 {
            insert_small(&mut slab, 300 + i);
        }
        assert_eq!(slab_bytes(), 200 * 32 + (64 + 128 + 256) * 64);
        insert_small(&mut slab, 400);
        assert_eq!(slab_bytes(), 201 * 32 + (64 + 128 + 256) * 64);
    }

    /// A MiniHeap as the slab kept it with two lists: its virtual spans,
    /// primary first, and the ids meshed into it.
    #[derive(Clone, Default)]
    struct TwoLists {
        virtual_spans: Vec<Span>,
        tombstones: Vec<MiniHeapId>,
    }

    /// Random insert / absorb / death sequences against the two-list
    /// model, for alias caps across `max_span_count`'s range (the default
    /// 4, the 8 of `examples/trace_replay.rs`): every death parks the same
    /// alias spans and releases the same ids, and every live MiniHeap has
    /// the same virtual spans, one more than the tombstones on its chain.
    #[test]
    fn chain_matches_the_two_list_model() {
        for (seed, cap) in [2usize, 3, 4, 5, 8, 16, 64].into_iter().enumerate() {
            let mut rng = Rng::with_seed(seed as u64 + 1);
            let mut slab = slab();
            let mut model: HashMap<MiniHeapId, TwoLists> = HashMap::new();
            let mut next_page = 0;
            for _ in 0..4000 {
                let mut live: Vec<MiniHeapId> = model.keys().copied().collect();
                live.sort_unstable();
                match rng.below(8) {
                    0..=2 => {
                        next_page += 1;
                        let id = insert_small(&mut slab, next_page);
                        let spans = vec![Span::new(next_page, 1)];
                        let fresh = TwoLists { virtual_spans: spans, ..Default::default() };
                        assert!(model.insert(id, fresh).is_none(), "a reserved id was reissued");
                    }
                    3..=5 if live.len() >= 2 => {
                        let dst = live[rng.below(live.len() as u32) as usize];
                        let src = live[rng.below(live.len() as u32) as usize];
                        let count = |id| model[&id].virtual_spans.len();
                        if src == dst || count(src) + count(dst) > cap {
                            continue;
                        }
                        slab.absorb(dst, src);
                        let src_lists = model.remove(&src).unwrap();
                        let dst_lists = model.get_mut(&dst).unwrap();
                        dst_lists.virtual_spans.extend(src_lists.virtual_spans);
                        dst_lists.tombstones.extend(src_lists.tombstones);
                        dst_lists.tombstones.push(src);
                    }
                    6..=7 if !live.is_empty() => {
                        let id = live[rng.below(live.len() as u32) as usize];
                        let free_before = slab.free.len();
                        let mut parked = remove(&mut slab, id);
                        let mut released = slab.free[free_before..].to_vec();
                        let mut lists = model.remove(&id).unwrap();
                        let mut want_parked = lists.virtual_spans.split_off(1);
                        let want_released =
                            lists.tombstones.iter().chain([&id]).map(|t| t.index() as u32);
                        let mut want_released: Vec<u32> = want_released.collect();
                        parked.sort_unstable_by_key(|span| span.offset);
                        want_parked.sort_unstable_by_key(|span| span.offset);
                        released.sort_unstable();
                        want_released.sort_unstable();
                        assert_eq!(parked, want_parked, "cap {cap}: parked aliases");
                        assert_eq!(released, want_released, "cap {cap}: released ids");
                    }
                    _ => {}
                }
                assert_eq!(slab.len(), model.len());
                for (&id, lists) in &model {
                    let mh = slab.get(id).unwrap();
                    assert!(mh.span_count() <= cap);
                    assert_eq!(mh.span_count(), 1 + mh.aliases().count());
                    let mut spans: Vec<Span> = mh.virtual_spans().collect();
                    assert_eq!(spans[0], lists.virtual_spans[0], "primary first");
                    let mut want = lists.virtual_spans.clone();
                    spans.sort_unstable_by_key(|span| span.offset);
                    want.sort_unstable_by_key(|span| span.offset);
                    assert_eq!(spans, want, "cap {cap}: virtual spans of {id:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "dead MiniHeapId")]
    fn slab_double_remove_panics() {
        let mut slab = slab();
        let a = insert_small(&mut slab, 0);
        remove(&mut slab, a);
        remove(&mut slab, a);
    }
}
