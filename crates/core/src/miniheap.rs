//! MiniHeaps: per-span metadata (§4.1).
//!
//! A MiniHeap tracks one *physical* span — its allocation bitmap, object
//! size and count, and the start of every *virtual* span mapped onto it
//! (one before meshing, several after). MiniHeaps are *attached* (owned by
//! a thread-local heap, serving new allocations) or *detached* (owned by
//! the global heap, binned by occupancy and eligible for meshing).
//!
//! MiniHeaps live in a [`Slab`] — the analog of the reference
//! implementation's internal allocator — and are addressed by stable
//! [`MiniHeapId`]s, which also serve as the payload of the arena's
//! page→MiniHeap table (§4.4.2).
//!
//! A slab keeps two stores. The MiniHeaps themselves sit in a `Vec` only
//! the holder of the slab's lock touches. Their bitmaps sit in a
//! `BitmapTable`: chunks that are allocated once and never move, so a
//! non-local free can go from a page-map entry's id to the bitmap and
//! clear its bit without the lock (§4.4.4; DESIGN.md §3).

use crate::bitmap::AtomicBitmap;
use crate::size_classes::SizeClass;
use crate::span::Span;
use std::num::NonZeroU32;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// Stable identifier of a MiniHeap within its heap's [`Slab`].
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

/// Ownership state of a MiniHeap (§4.1: attached vs detached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachState {
    /// Owned by the global heap; binned and meshable.
    Detached,
    /// Owned by the thread-local heap with this token; new objects are
    /// only allocated out of attached MiniHeaps.
    Attached(u64),
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
    chunks: [OnceLock<Arc<[SpanBits]>>; CHUNKS],
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

    /// A handle on the entry of `index`, allocating its chunk if it is the
    /// first index to land there.
    fn handle(&self, index: usize) -> BitsHandle {
        let (k, off) = Self::locate(index);
        let chunk = self.chunks[k].get_or_init(|| {
            (0..FIRST_CHUNK << k)
                .map(|_| SpanBits {
                    bitmap: AtomicBitmap::new(self.bits),
                    bin: AtomicU8::new(NOT_BINNED),
                    next_unsettled: AtomicU32::new(UNLISTED),
                })
                .collect()
        });
        BitsHandle {
            chunk: Arc::clone(chunk),
            off: off as u32,
        }
    }
}

/// A MiniHeap's hold on its [`SpanBits`]: keeps the chunk alive, so the
/// bitmap of a MiniHeap taken out of its slab stays readable.
#[derive(Debug)]
pub(crate) struct BitsHandle {
    chunk: Arc<[SpanBits]>,
    off: u32,
}

impl std::ops::Deref for BitsHandle {
    type Target = SpanBits;

    #[inline]
    fn deref(&self) -> &SpanBits {
        &self.chunk[self.off as usize]
    }
}

/// Metadata for one physical span (§4.1).
#[derive(Debug)]
pub struct MiniHeap {
    /// Object size in bytes (size-class size, or the rounded request for
    /// large objects).
    object_size: u32,
    /// Number of object slots.
    object_count: u16,
    /// Size class, or `None` for large-object singletons (§4.4.3).
    size_class: Option<SizeClass>,
    /// Allocation bitmap, bit per slot (§4.1), and the rest of what a free
    /// reaches without the lock, in the slab's [`BitmapTable`].
    bits: BitsHandle,
    /// Every virtual span mapped onto this physical span. The first entry
    /// is the *primary* span, whose page range equals the physical file
    /// range; the rest were acquired by meshing.
    virtual_spans: Vec<Span>,
    /// Ids of the MiniHeaps meshed into this one. They stay reserved, their
    /// bitmaps all zero, until this MiniHeap dies: a free that looked one
    /// up before the mesh must find nothing to clear there, never the
    /// bitmap of a MiniHeap that recycled the id (DESIGN.md §3).
    tombstones: Vec<MiniHeapId>,
    /// Attachment state.
    state: AttachState,
    /// The class's refill count when this MiniHeap was last filed under a
    /// bin (see `ClassState::select_partial`, which lets it rest a while).
    pub(crate) filed_at: u32,
    /// Occupancy bin index while detached (`NOT_BINNED` otherwise).
    bin: u8,
    /// Position inside the bin's vector, for O(1) removal.
    bin_slot: u32,
    /// Large-object singleton whose span carries a trailing hardened-mode
    /// guard page: the last page is not part of the object and must be
    /// unprotected/verified before the span is released.
    guarded: bool,
    /// Byte offset of the object's start within the span — non-zero only
    /// for over-aligned large objects, whose first aligned address sits
    /// past the span head. Lets hardened mode pin `free` to the exact
    /// address malloc returned.
    start_off: u32,
}

impl MiniHeap {
    /// Creates a detached MiniHeap for a size-classed span over `bits`,
    /// an entry of a [`Slab::for_class`] slab of the same class.
    pub(crate) fn new_small(class: SizeClass, span: Span, bits: BitsHandle) -> Self {
        debug_assert_eq!(span.pages as usize, class.span_pages());
        debug_assert_eq!(bits.bitmap.len(), class.object_count());
        MiniHeap {
            object_size: class.object_size() as u32,
            object_count: class.object_count() as u16,
            size_class: Some(class),
            bits,
            virtual_spans: vec![span],
            tombstones: Vec::new(),
            state: AttachState::Detached,
            filed_at: 0,
            bin: NOT_BINNED,
            bin_slot: 0,
            guarded: false,
            start_off: 0,
        }
    }

    /// Creates the singleton MiniHeap accounting for one large object
    /// (§4.4.3): one slot covering the whole page-rounded span, over
    /// `bits`, an entry of a [`Slab::for_large`] slab. With `guarded` the
    /// span ends with a hardened guard page: the object occupies
    /// `byte_len - PAGE_SIZE`, so `usable_size`/`realloc` see the true
    /// object size and any linear overflow lands on the guard.
    pub(crate) fn new_large(span: Span, guarded: bool, bits: BitsHandle) -> Self {
        debug_assert!(!guarded || span.pages >= 2, "guarded span needs object + guard pages");
        let claimed = bits.bitmap.try_set(0);
        debug_assert!(claimed, "a recycled bitmap entry must be all zero");
        let guard_bytes = if guarded { crate::size_classes::PAGE_SIZE } else { 0 };
        MiniHeap {
            object_size: (span.byte_len() - guard_bytes) as u32,
            object_count: 1,
            size_class: None,
            bits,
            virtual_spans: vec![span],
            tombstones: Vec::new(),
            state: AttachState::Detached,
            filed_at: 0,
            bin: NOT_BINNED,
            bin_slot: 0,
            guarded,
            start_off: 0,
        }
    }

    /// Whether this large-object span carries a trailing guard page.
    #[inline]
    pub fn is_guarded(&self) -> bool {
        self.guarded
    }

    /// Records the object's byte offset within the span (over-aligned
    /// large objects only; see `start_off`).
    #[inline]
    pub fn set_large_start_off(&mut self, off: usize) {
        debug_assert!(self.is_large());
        debug_assert!(off < self.object_size as usize);
        self.start_off = off as u32;
    }

    /// Byte offset of the object's start within the span (0 unless the
    /// object is over-aligned).
    #[inline]
    pub fn large_start_off(&self) -> usize {
        self.start_off as usize
    }

    /// Object size in bytes.
    #[inline]
    pub fn object_size(&self) -> usize {
        self.object_size as usize
    }

    /// Number of object slots.
    #[inline]
    pub fn object_count(&self) -> usize {
        self.object_count as usize
    }

    /// The size class, or `None` for large objects.
    #[inline]
    pub fn size_class(&self) -> Option<SizeClass> {
        self.size_class
    }

    /// Whether this is a large-object singleton.
    #[inline]
    pub fn is_large(&self) -> bool {
        self.size_class.is_none()
    }

    /// The allocation bitmap.
    #[inline]
    pub fn bitmap(&self) -> &AtomicBitmap {
        &self.bits.bitmap
    }

    /// Number of live objects (set bits). Other threads clear bits at any
    /// time, so two reads can differ; only an attach sets any, and that
    /// needs the slab's lock.
    #[inline]
    pub fn in_use(&self) -> usize {
        self.bits.bitmap.in_use()
    }

    /// Occupancy in `[0, 1]`.
    #[inline]
    pub fn occupancy(&self) -> f64 {
        self.in_use() as f64 / self.object_count as f64
    }

    /// The primary span: its page range equals the physical file range.
    #[inline]
    pub fn span(&self) -> Span {
        self.virtual_spans[0]
    }

    /// Every virtual span aliasing this physical span (primary first).
    #[inline]
    pub fn virtual_spans(&self) -> &[Span] {
        &self.virtual_spans
    }

    /// Number of virtual spans (1 = never meshed).
    #[inline]
    pub fn span_count(&self) -> usize {
        self.virtual_spans.len()
    }

    /// Whether this MiniHeap has been meshed (aliases exist).
    #[inline]
    pub fn is_meshed(&self) -> bool {
        self.virtual_spans.len() > 1
    }

    /// Takes over a meshed-away source MiniHeap: its virtual spans, the
    /// tombstones it held, and `src_id` as one more.
    pub(crate) fn absorb(&mut self, src: MiniHeap, src_id: MiniHeapId) {
        debug_assert_eq!(src.in_use(), 0, "absorbing a source with bits the mesher did not take");
        self.virtual_spans.extend(src.virtual_spans);
        self.tombstones.extend(src.tombstones);
        self.tombstones.push(src_id);
    }

    /// Takes the tombstone ids out (the MiniHeap is dying; the slab gets
    /// them back).
    pub(crate) fn take_tombstones(&mut self) -> Vec<MiniHeapId> {
        std::mem::take(&mut self.tombstones)
    }

    /// Takes the non-primary spans out (the MiniHeap is dying; the arena
    /// parks them until their identity mappings are restored).
    pub(crate) fn take_alias_spans(&mut self) -> Vec<Span> {
        self.virtual_spans.split_off(1)
    }

    /// Current attachment state.
    #[inline]
    pub fn state(&self) -> AttachState {
        self.state
    }

    /// Whether attached to any thread-local heap.
    #[inline]
    pub fn is_attached(&self) -> bool {
        matches!(self.state, AttachState::Attached(_))
    }

    pub(crate) fn set_state(&mut self, state: AttachState) {
        self.state = state;
    }

    /// The occupancy bin this MiniHeap is filed under and its position in
    /// that bin's list; ([`NOT_BINNED`], 0) when in none.
    #[inline]
    pub(crate) fn bin(&self) -> (u8, u32) {
        (self.bin, self.bin_slot)
    }

    /// Records where the occupancy bins hold this MiniHeap, also for
    /// freers. Whoever files a span must read its bitmap again *after*
    /// this: a free that emptied it just before saw it unfiled and left
    /// it alone.
    pub(crate) fn set_bin(&mut self, bin: u8, slot: u32) {
        self.bin_slot = slot;
        // A span that only changes position in its list (another was
        // removed) keeps its mirror: no write to its cache line.
        if self.bin != bin {
            self.bin = bin;
            self.bits.bin.store(bin, Ordering::SeqCst);
        }
    }

    /// Maps an arena *page* to the slot index of the object containing
    /// `addr`, given the arena base address. Returns `None` if `addr` is
    /// not inside any of this MiniHeap's virtual spans.
    pub fn slot_of_addr(&self, arena_base: usize, addr: usize) -> Option<usize> {
        for vs in &self.virtual_spans {
            let start = arena_base + vs.byte_offset();
            let end = start + vs.byte_len();
            if addr >= start && addr < end {
                return Some((addr - start) / self.object_size as usize);
            }
        }
        None
    }

    /// Address of slot `slot` within the *primary* span.
    pub fn primary_slot_addr(&self, arena_base: usize, slot: usize) -> usize {
        debug_assert!(slot < self.object_count as usize);
        arena_base + self.span().byte_offset() + slot * self.object_size as usize
    }
}

/// Slab of MiniHeaps with stable ids and O(1) insert/remove — the analog of
/// the reference implementation's internal MiniHeap allocator (§4.4.2).
#[derive(Debug)]
pub struct Slab {
    slots: Vec<Option<MiniHeap>>,
    free: Vec<u32>,
    live: usize,
    table: Arc<BitmapTable>,
}

impl Slab {
    /// Creates an empty slab for the MiniHeaps of `class`.
    pub fn for_class(class: SizeClass) -> Self {
        Slab::with_bits(class.object_count())
    }

    /// Creates an empty slab for large-object singletons.
    pub fn for_large() -> Self {
        Slab::with_bits(1)
    }

    fn with_bits(bits: usize) -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            table: Arc::new(BitmapTable::new(bits)),
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

    /// Whether the slab holds no MiniHeaps.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts the MiniHeap `build` makes over the bitmap entry of the id
    /// it will get, and returns that id.
    pub(crate) fn insert_with(&mut self, build: impl FnOnce(BitsHandle) -> MiniHeap) -> MiniHeapId {
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        debug_assert!(self.slots[idx].is_none());
        let bits = self.table.handle(idx);
        debug_assert_eq!(bits.bitmap.in_use(), 0, "a recycled bitmap entry must be all zero");
        self.slots[idx] = Some(build(bits));
        self.live += 1;
        MiniHeapId::from_raw(idx as u32 + 1)
    }

    /// Removes and returns the MiniHeap with id `id`; the id may be issued
    /// again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: MiniHeapId) -> MiniHeap {
        let mh = self.retire(id);
        self.release_id(id);
        mh
    }

    /// Removes and returns the MiniHeap with id `id` but keeps the id
    /// reserved — a tombstone — until [`Slab::release_id`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live.
    pub(crate) fn retire(&mut self, id: MiniHeapId) -> MiniHeap {
        let mh = self.slots[id.index()]
            .take()
            .expect("removing a dead MiniHeapId");
        self.live -= 1;
        mh
    }

    /// Lets a tombstone id be issued again.
    pub(crate) fn release_id(&mut self, id: MiniHeapId) {
        debug_assert!(self.slots[id.index()].is_none(), "releasing a live MiniHeapId");
        self.free.push(id.index() as u32);
    }

    /// Borrows the MiniHeap with id `id`, or `None` if it is dead.
    #[inline]
    pub fn get(&self, id: MiniHeapId) -> Option<&MiniHeap> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Mutably borrows the MiniHeap with id `id`, or `None` if it is dead.
    #[inline]
    pub fn get_mut(&mut self, id: MiniHeapId) -> Option<&mut MiniHeap> {
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Iterates over `(id, &MiniHeap)` for all live MiniHeaps.
    pub fn iter(&self) -> impl Iterator<Item = (MiniHeapId, &MiniHeap)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref().map(|mh| (MiniHeapId::from_raw(i as u32 + 1), mh))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_classes::SizeClass;

    fn class() -> SizeClass {
        SizeClass::for_size(256).unwrap()
    }

    /// Inserts a one-span MiniHeap of the 256-byte class at page `offset`.
    fn insert_small(slab: &mut Slab, offset: u32) -> MiniHeapId {
        let class = class();
        slab.insert_with(|bits| {
            MiniHeap::new_small(class, Span::new(offset, class.span_pages() as u32), bits)
        })
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
        let mut slab = Slab::for_class(class());
        let id = insert_small(&mut slab, 0);
        let mh = slab.get(id).unwrap();
        assert_eq!(mh.object_size(), 256);
        assert_eq!(mh.object_count(), 16);
        assert!(!mh.is_large());
        assert!(!mh.is_meshed());
        assert_eq!(mh.in_use(), 0);
        assert_eq!(mh.occupancy(), 0.0);
    }

    #[test]
    fn large_miniheap_is_born_occupied() {
        let mut slab = Slab::for_large();
        let id = slab.insert_with(|bits| MiniHeap::new_large(Span::new(5, 10), false, bits));
        let mh = slab.get(id).unwrap();
        assert!(mh.is_large());
        assert_eq!(mh.object_count(), 1);
        assert_eq!(mh.object_size(), 10 * 4096);
        assert_eq!(mh.in_use(), 1);
        assert_eq!(mh.occupancy(), 1.0);
        let guarded = slab.insert_with(|bits| MiniHeap::new_large(Span::new(20, 10), true, bits));
        assert_eq!(slab.get(guarded).unwrap().object_size(), 9 * 4096);
    }

    #[test]
    fn absorb_takes_spans_and_leaves_tombstones() {
        let mut slab = Slab::for_class(class());
        let dst = insert_small(&mut slab, 0);
        let a = insert_small(&mut slab, 9);
        let b = insert_small(&mut slab, 12);
        // b was meshed into a earlier; now a is meshed into dst.
        let b_mh = slab.retire(b);
        slab.get_mut(a).unwrap().absorb(b_mh, b);
        let a_mh = slab.retire(a);
        slab.get_mut(dst).unwrap().absorb(a_mh, a);
        let mh = slab.get_mut(dst).unwrap();
        assert!(mh.is_meshed());
        let base = 0x7000_0000;
        assert_eq!(mh.slot_of_addr(base, base + 256 * 3 + 10), Some(3));
        assert_eq!(mh.slot_of_addr(base, base + 9 * 4096 + 256 * 5), Some(5));
        assert_eq!(mh.slot_of_addr(base, base + 12 * 4096), Some(0));
        assert_eq!(mh.slot_of_addr(base, base + 4096), None);
        assert_eq!(mh.primary_slot_addr(base, 5), base + 256 * 5);
        assert_eq!(mh.take_alias_spans(), vec![Span::new(9, 1), Span::new(12, 1)]);
        assert_eq!(mh.virtual_spans(), &[Span::new(0, 1)]);
        assert_eq!(mh.take_tombstones(), vec![b, a], "both ids stay reserved with dst");
    }

    #[test]
    fn attach_state_transitions() {
        let mut slab = Slab::for_class(class());
        let id = insert_small(&mut slab, 0);
        let mh = slab.get_mut(id).unwrap();
        assert_eq!(mh.state(), AttachState::Detached);
        mh.set_state(AttachState::Attached(42));
        assert!(mh.is_attached());
        mh.set_state(AttachState::Detached);
        assert!(!mh.is_attached());
    }

    #[test]
    fn bin_is_mirrored_for_lock_free_readers() {
        let mut slab = Slab::for_class(class());
        let id = insert_small(&mut slab, 0);
        let table = slab.table();
        assert_eq!(table.get(id).unwrap().bin(), NOT_BINNED);
        let mh = slab.get_mut(id).unwrap();
        mh.set_bin(2, 7);
        assert_eq!(mh.bin(), (2, 7));
        assert_eq!(table.get(id).unwrap().bin(), 2);
        mh.set_bin(NOT_BINNED, 0);
        assert_eq!(table.get(id).unwrap().bin(), NOT_BINNED);
    }

    #[test]
    fn unsettled_list_holds_each_span_once_until_taken() {
        let mut slab = Slab::for_class(class());
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
        let mut slab = Slab::for_class(class());
        assert!(slab.is_empty());
        let a = insert_small(&mut slab, 0);
        let b = insert_small(&mut slab, 1);
        assert_ne!(a, b);
        assert_eq!(slab.len(), 2);
        assert!(slab.get(a).is_some());
        slab.remove(a);
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
        let mut slab = Slab::for_class(class());
        let a = insert_small(&mut slab, 0);
        slab.retire(a);
        assert!(slab.get(a).is_none());
        assert_eq!(slab.len(), 0);
        let b = insert_small(&mut slab, 1);
        assert_ne!(b, a, "a tombstone's id is still taken");
        slab.release_id(a);
        assert_eq!(insert_small(&mut slab, 2), a);
    }

    #[test]
    fn table_entries_are_stable_and_reachable_without_the_slab() {
        let mut slab = Slab::for_class(class());
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
    #[should_panic(expected = "dead MiniHeapId")]
    fn slab_double_remove_panics() {
        let mut slab = Slab::for_class(class());
        let a = insert_small(&mut slab, 0);
        slab.remove(a);
        slab.remove(a);
    }
}
