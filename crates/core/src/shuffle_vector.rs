//! Shuffle vectors: randomized freelists with O(1) malloc and free (§4.2).
//!
//! A shuffle vector is a fixed array of the *free* slot offsets of one span,
//! kept in uniformly random order, plus an allocation index. Allocation pops
//! the next offset ("bump-pointer like", Fig 3d); deallocation pushes the
//! freed offset at the front and performs one Fisher–Yates step, preserving
//! the uniformity of the remaining order (Fig 3c).
//!
//! Compared with the random-probing bitmaps of DieHard(er), shuffle vectors
//! need no over-provisioning (the probing argument requires ~2× slack) and
//! are single-threaded by construction: only the owning thread touches its
//! vectors, so no atomics or locks appear on the malloc/free fast path. Each
//! offset fits in one byte because spans hold at most 256 objects.
//!
//! The vector *claims* its slots from the MiniHeap's atomic bitmap when
//! attached (bits set), and returns unconsumed slots (bits cleared) when
//! detached, so remote threads always see an accurate view of availability.

use crate::bitmap::AtomicBitmap;
use crate::miniheap::MiniHeapId;
use crate::rng::Rng;
use crate::size_classes::MAX_OBJECTS_PER_SPAN;

/// Randomized freelist over the slots of one attached span (§4.2).
///
/// Addresses are represented as `usize` so the data structure is pure and
/// testable without a live arena; the heap front-ends convert to and from
/// raw pointers.
///
/// # Examples
///
/// ```
/// use mesh_core::shuffle_vector::ShuffleVector;
/// use mesh_core::bitmap::AtomicBitmap;
/// use mesh_core::miniheap::MiniHeapId;
/// use mesh_core::rng::Rng;
///
/// let mut rng = Rng::with_seed(1);
/// let bitmap = AtomicBitmap::new(256);
/// let mut sv = ShuffleVector::new(true);
/// sv.attach(MiniHeapId::from_raw(1), 0x10000, 4096, 256, 16, &bitmap, &mut rng);
/// let a = sv.malloc().unwrap();
/// assert!(sv.contains(a));
/// unsafe { sv.free(a, &mut rng) };
/// ```
#[derive(Debug)]
pub struct ShuffleVector {
    /// Free offsets, stored in `list[off..max]` in random order.
    list: [u8; MAX_OBJECTS_PER_SPAN],
    /// Membership mask over `list[off..max]`: bit `i` set ⇔ offset `i` is
    /// currently available (free). Maintained alongside the list so the
    /// free path can reject double frees of local objects in O(1) —
    /// something the pure list cannot do without a scan.
    avail: [u64; MAX_OBJECTS_PER_SPAN / 64],
    /// Allocation index: `list[off]` is the next offset handed out.
    off: u16,
    /// Object count of the attached span (`maxCount()`).
    max: u16,
    /// Object size in bytes of the attached span.
    object_size: u32,
    /// Span length in bytes (for `contains` range checks).
    span_bytes: usize,
    /// Start addresses of every virtual span of the attached MiniHeap
    /// (more than one after meshing).
    span_starts: Vec<usize>,
    /// Attached MiniHeap, if any.
    mh: Option<MiniHeapId>,
    /// Whether allocation order is randomized (`false` reproduces the
    /// paper's "Mesh (no rand)" ablation, §6.3).
    randomized: bool,
}

impl ShuffleVector {
    /// Creates an empty, detached vector.
    pub fn new(randomized: bool) -> Self {
        ShuffleVector {
            list: [0; MAX_OBJECTS_PER_SPAN],
            avail: [0; MAX_OBJECTS_PER_SPAN / 64],
            off: 0,
            max: 0,
            object_size: 0,
            span_bytes: 0,
            span_starts: Vec::new(),
            mh: None,
            randomized,
        }
    }

    /// Whether no offsets remain to allocate (also true when detached).
    #[inline]
    pub fn is_exhausted(&self) -> bool {
        self.off >= self.max
    }

    /// Number of offsets currently available.
    #[inline]
    pub fn available(&self) -> usize {
        (self.max - self.off) as usize
    }

    /// The attached MiniHeap, if any.
    #[inline]
    pub fn miniheap(&self) -> Option<MiniHeapId> {
        self.mh
    }

    /// Object size of the attached span, zero when detached.
    #[inline]
    pub fn object_size(&self) -> usize {
        self.object_size as usize
    }

    /// Object count of the attached span (zero when detached).
    #[inline]
    pub fn object_count(&self) -> usize {
        self.max as usize
    }

    /// Whether slot `slot` is currently in the free list (available).
    #[inline]
    pub fn is_available(&self, slot: usize) -> bool {
        self.avail[slot / 64] >> (slot % 64) & 1 == 1
    }

    /// Attaches a MiniHeap: claims every clear bit in `bitmap` (atomically
    /// setting it, §4.1), records the claimed offsets, and randomizes their
    /// order with a Knuth–Fisher–Yates shuffle.
    ///
    /// `span_starts` lists the start address of each virtual span aliasing
    /// the MiniHeap's physical span; `primary_start` (the first element) is
    /// where new allocations are served from.
    ///
    /// # Panics
    ///
    /// Panics if the vector is already attached, if `object_count`
    /// exceeds 256 or is not `bitmap`'s length, or if `span_starts` is empty.
    #[allow(clippy::too_many_arguments)] // mirrors the attach signature of Fig 4
    pub fn attach(
        &mut self,
        mh: MiniHeapId,
        primary_start: usize,
        span_bytes: usize,
        object_count: usize,
        object_size: usize,
        bitmap: &AtomicBitmap,
        rng: &mut Rng,
    ) {
        assert!(self.mh.is_none(), "attach on an already-attached vector");
        assert!(object_count <= MAX_OBJECTS_PER_SPAN);
        assert_eq!(bitmap.len(), object_count, "bitmap must track the span's slots");
        assert!(primary_start != 0, "span start must be non-null");
        self.mh = Some(mh);
        self.object_size = object_size as u32;
        self.span_bytes = span_bytes;
        self.span_starts.clear();
        self.span_starts.push(primary_start);
        self.max = object_count as u16;
        self.off = object_count as u16;
        self.avail = [0; MAX_OBJECTS_PER_SPAN / 64];
        for i in bitmap.claim_clear() {
            self.off -= 1;
            self.list[self.off as usize] = i as u8;
            self.avail[i / 64] |= 1 << (i % 64);
        }
        if self.randomized {
            let max = self.max as usize;
            rng.shuffle(&mut self.list[self.off as usize..max]);
        }
    }

    /// Registers an additional virtual span aliasing the attached MiniHeap
    /// (present when a previously-meshed MiniHeap is re-attached).
    pub fn push_span_alias(&mut self, start: usize) {
        assert!(self.mh.is_some(), "alias on a detached vector");
        self.span_starts.push(start);
    }

    /// Detaches the current MiniHeap, atomically returning every unconsumed
    /// offset to `bitmap` (bits cleared) so other threads and the mesher
    /// see them as free. Returns the detached MiniHeap id.
    ///
    /// # Panics
    ///
    /// Panics if the vector is detached.
    pub fn detach(&mut self, bitmap: &AtomicBitmap) -> MiniHeapId {
        let mh = self.mh.take().expect("detach on a detached vector");
        for i in self.off..self.max {
            let freed = bitmap.unset(self.list[i as usize] as usize);
            debug_assert!(freed, "slot in shuffle vector was not claimed");
        }
        self.off = 0;
        self.max = 0;
        self.object_size = 0;
        self.span_bytes = 0;
        self.span_starts.clear();
        self.avail = [0; MAX_OBJECTS_PER_SPAN / 64];
        mh
    }

    /// Pops the next random offset and returns the object address, or
    /// `None` if the vector is exhausted (Fig 4, `ShuffleVector::malloc`).
    #[inline]
    pub fn malloc(&mut self) -> Option<usize> {
        if self.is_exhausted() {
            return None;
        }
        let off = self.list[self.off as usize];
        self.off += 1;
        self.avail[off as usize / 64] &= !(1 << (off as usize % 64));
        Some(self.span_starts[0] + off as usize * self.object_size as usize)
    }

    /// Whether `addr` falls inside any virtual span of the attached
    /// MiniHeap (the `contains` check on the local-free path, Fig 4).
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        self.span_starts
            .iter()
            .any(|&s| addr >= s && addr < s + self.span_bytes)
    }

    /// Frees a local object: pushes its offset at the allocation index and
    /// swaps it with a uniformly chosen position, preserving randomness
    /// (Fig 3c/d and Fig 4, `ShuffleVector::free`).
    ///
    /// # Safety
    ///
    /// `addr` must be an object address previously returned by
    /// [`ShuffleVector::malloc`] on this vector's attached MiniHeap (or a
    /// remote allocation within it) that is currently allocated. Freeing a
    /// foreign or already-free address corrupts the freelist exactly as it
    /// would in C.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `addr` is outside the attached spans or the
    /// vector is already full.
    #[inline]
    pub unsafe fn free(&mut self, addr: usize, rng: &mut Rng) {
        debug_assert!(self.contains(addr), "free of non-local address");
        let span = self
            .span_starts
            .iter()
            .find(|&&s| addr >= s && addr < s + self.span_bytes)
            .copied()
            .unwrap_or_else(|| self.span_starts[0]);
        let freed = self.free_slot((addr - span) / self.object_size as usize, rng);
        debug_assert!(freed, "double free into a shuffle vector");
    }

    /// Frees the object in slot `slot` of the attached span, by index —
    /// the O(1) entry point of the page-map-routed free path, which has
    /// already resolved the owning span and slot without scanning.
    /// Returns `false` (leaving the vector untouched) when the slot is
    /// already free: a double free, detected by the availability mask.
    ///
    /// # Safety
    ///
    /// `slot` must be a valid slot index (`< object_count()`) of the
    /// attached MiniHeap. The caller is responsible for having resolved
    /// `slot` from an address inside one of the attached virtual spans.
    #[inline]
    pub unsafe fn free_slot(&mut self, slot: usize, rng: &mut Rng) -> bool {
        debug_assert!(self.mh.is_some(), "free into a detached vector");
        debug_assert!(slot < self.max as usize, "slot out of range");
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.avail[word] & bit != 0 {
            return false; // already in the free list: double free
        }
        self.avail[word] |= bit;
        self.off -= 1;
        self.list[self.off as usize] = slot as u8;
        if self.randomized && self.off + 1 < self.max {
            let swap = rng.in_range(self.off as u32, self.max as u32 - 1) as usize;
            self.list.swap(self.off as usize, swap);
        }
        true
    }

    /// The offsets currently available, in allocation order (test hook).
    #[cfg(test)]
    pub fn free_offsets(&self) -> &[u8] {
        &self.list[self.off as usize..self.max as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SPAN: usize = 0x1000_0000;

    fn attached(object_count: usize, randomized: bool, seed: u64) -> (ShuffleVector, AtomicBitmap, Rng) {
        let mut rng = Rng::with_seed(seed);
        let bitmap = AtomicBitmap::new(object_count);
        let mut sv = ShuffleVector::new(randomized);
        sv.attach(
            MiniHeapId::from_raw(1),
            SPAN,
            4096,
            object_count,
            4096 / object_count,
            &bitmap,
            &mut rng,
        );
        (sv, bitmap, rng)
    }

    #[test]
    fn attach_claims_all_bits() {
        let (sv, bitmap, _) = attached(256, true, 3);
        assert_eq!(bitmap.in_use(), 256);
        assert_eq!(sv.available(), 256);
    }

    #[test]
    fn attach_skips_already_set_bits() {
        let mut rng = Rng::with_seed(3);
        let bitmap = AtomicBitmap::new(16);
        bitmap.try_set(4);
        bitmap.try_set(9);
        let mut sv = ShuffleVector::new(true);
        sv.attach(MiniHeapId::from_raw(1), SPAN, 4096, 16, 256, &bitmap, &mut rng);
        assert_eq!(sv.available(), 14);
        let offs: HashSet<u8> = sv.free_offsets().iter().copied().collect();
        assert!(!offs.contains(&4) && !offs.contains(&9));
    }

    #[test]
    fn malloc_returns_every_slot_exactly_once() {
        let (mut sv, _bm, _) = attached(64, true, 7);
        let mut seen = HashSet::new();
        while let Some(addr) = sv.malloc() {
            assert!((SPAN..SPAN + 4096).contains(&addr));
            assert_eq!((addr - SPAN) % 64, 0);
            assert!(seen.insert(addr), "duplicate address {addr:#x}");
        }
        assert_eq!(seen.len(), 64);
        assert!(sv.is_exhausted());
    }

    #[test]
    fn randomized_allocation_order_is_not_sequential() {
        let (mut sv, _bm, _) = attached(256, true, 42);
        let order: Vec<usize> = std::iter::from_fn(|| sv.malloc()).collect();
        let sequential: Vec<usize> = (0..256).map(|i| SPAN + i * 16).collect();
        assert_ne!(order, sequential);
    }

    #[test]
    fn unrandomized_mode_is_deterministic_and_identical_across_spans() {
        // Two no-rand vectors over fresh spans allocate identical offset
        // sequences — the §6.3 pathology that defeats meshing.
        let (mut a, _bm1, _) = attached(32, false, 1);
        let (mut b, _bm2, _) = attached(32, false, 999);
        let seq_a: Vec<usize> = std::iter::from_fn(|| a.malloc()).map(|p| p - SPAN).collect();
        let seq_b: Vec<usize> = std::iter::from_fn(|| b.malloc()).map(|p| p - SPAN).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn free_then_malloc_reuses_slot() {
        let (mut sv, _bm, mut rng) = attached(8, true, 9);
        let mut addrs: Vec<usize> = std::iter::from_fn(|| sv.malloc()).collect();
        assert!(sv.is_exhausted());
        let victim = addrs.remove(3);
        unsafe { sv.free(victim, &mut rng) };
        assert_eq!(sv.available(), 1);
        assert_eq!(sv.malloc(), Some(victim));
    }

    #[test]
    fn free_preserves_set_of_available_offsets() {
        let (mut sv, _bm, mut rng) = attached(128, true, 10);
        let mut live = vec![];
        for _ in 0..100 {
            live.push(sv.malloc().unwrap());
        }
        // Free half back in random positions.
        for addr in live.drain(..50) {
            unsafe { sv.free(addr, &mut rng) };
        }
        let mut seen = HashSet::new();
        while let Some(a) = sv.malloc() {
            assert!(seen.insert(a));
        }
        // 128 - 100 + 50 = 78 offsets should have been available.
        assert_eq!(seen.len(), 78);
        for a in &live {
            assert!(!seen.contains(a), "live object handed out again");
        }
    }

    #[test]
    fn detach_returns_leftover_bits() {
        let (mut sv, bitmap, _) = attached(16, true, 11);
        for _ in 0..5 {
            sv.malloc().unwrap();
        }
        let mh = sv.detach(&bitmap);
        assert_eq!(mh, MiniHeapId::from_raw(1));
        // 5 allocated remain set; 11 unconsumed were returned.
        assert_eq!(bitmap.in_use(), 5);
        assert!(sv.miniheap().is_none());
        assert!(sv.is_exhausted());
    }

    #[test]
    fn contains_covers_aliased_spans() {
        let (mut sv, _bm, _) = attached(16, true, 12);
        sv.push_span_alias(SPAN + 0x10_000);
        assert!(sv.contains(SPAN + 100));
        assert!(sv.contains(SPAN + 0x10_000 + 4095));
        assert!(!sv.contains(SPAN + 4096));
        assert!(!sv.contains(SPAN + 0x10_000 + 4096));
    }

    #[test]
    fn free_from_aliased_span_computes_offset_from_that_span() {
        let (mut sv, _bm, mut rng) = attached(16, true, 13);
        sv.push_span_alias(SPAN + 0x10_000);
        while sv.malloc().is_some() {}
        // Object at slot 3 freed through the *alias* address.
        unsafe { sv.free(SPAN + 0x10_000 + 3 * 256, &mut rng) };
        let got = sv.malloc().unwrap();
        // Allocation is always served from the primary span.
        assert_eq!(got, SPAN + 3 * 256);
    }

    #[test]
    fn randomness_distribution_of_first_allocation() {
        // The first slot handed out must be ~uniform over all slots: this is
        // the property §2.2's analysis rests on.
        let mut counts = [0usize; 16];
        for seed in 0..4000 {
            let (mut sv, _bm, _) = attached(16, true, seed);
            let addr = sv.malloc().unwrap();
            counts[(addr - SPAN) / 256] += 1;
        }
        let expected = 4000 / 16;
        for &c in &counts {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.35,
                "first-slot distribution skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn free_slot_detects_double_free() {
        let (mut sv, _bm, mut rng) = attached(16, true, 21);
        let addr = sv.malloc().unwrap();
        let slot = (addr - SPAN) / 256;
        assert!(!sv.is_available(slot));
        assert!(unsafe { sv.free_slot(slot, &mut rng) }, "first free accepted");
        assert!(sv.is_available(slot));
        assert!(!unsafe { sv.free_slot(slot, &mut rng) }, "second free rejected");
        assert_eq!(sv.available(), 16, "rejected free changed nothing");
    }

    #[test]
    fn availability_mask_tracks_list_membership() {
        let (mut sv, _bm, mut rng) = attached(64, true, 22);
        for slot in 0..64 {
            assert!(sv.is_available(slot), "all slots free after attach");
        }
        let mut live = vec![];
        for _ in 0..40 {
            let a = sv.malloc().unwrap();
            let slot = (a - SPAN) / 64;
            assert!(!sv.is_available(slot), "popped slot left the mask");
            live.push(a);
        }
        for a in live.drain(..20) {
            unsafe { sv.free(a, &mut rng) };
            assert!(sv.is_available((a - SPAN) / 64));
        }
        // Mask population must equal the free-list length.
        let pop: u32 = (0..64).map(|s| sv.is_available(s) as u32).sum();
        assert_eq!(pop as usize, sv.available());
    }

    #[test]
    fn attach_skips_leave_mask_clear() {
        let mut rng = Rng::with_seed(23);
        let bitmap = AtomicBitmap::new(16);
        bitmap.try_set(4); // live object from a previous attachment
        let mut sv = ShuffleVector::new(true);
        sv.attach(MiniHeapId::from_raw(1), SPAN, 4096, 16, 256, &bitmap, &mut rng);
        assert!(!sv.is_available(4), "unclaimed slot is live, not free");
        // Freeing the pre-existing live object is a legitimate local free.
        assert!(unsafe { sv.free_slot(4, &mut rng) });
        assert_eq!(sv.available(), 16);
    }

    #[test]
    #[should_panic(expected = "already-attached")]
    fn double_attach_panics() {
        let (mut sv, bitmap, mut rng) = attached(8, true, 14);
        sv.attach(MiniHeapId::from_raw(2), SPAN, 4096, 8, 512, &bitmap, &mut rng);
    }

    #[test]
    #[should_panic(expected = "detach on a detached")]
    fn detach_when_detached_panics() {
        let bitmap = AtomicBitmap::new(8);
        ShuffleVector::new(true).detach(&bitmap);
    }
}
