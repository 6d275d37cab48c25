//! Per-span allocation bitmaps (§4.1).
//!
//! Every MiniHeap carries a bitmap with one bit per object slot: bit `i` is
//! set iff the slot at offset `i` is unavailable (allocated, or currently
//! owned by an attached shuffle vector). Bits are manipulated atomically
//! because non-local frees may originate from any thread (§3.2), while the
//! meshability test — *do two spans collide anywhere?* — reduces to a
//! word-wise `AND` over the two bitmaps (Definition 5.1).
//!
//! A span holds at most 256 objects (§4.2), so four 64-bit words suffice;
//! the bitmap is a fixed-size inline array with no heap allocation.
//!
//! Non-local frees clear their bit with no lock held (DESIGN.md §3), so
//! [`AtomicBitmap::unset`] and the word loads are `SeqCst`: a freer clears
//! a bit and then reads the bin the span is filed under, while a thread
//! filing a span stores that bin and then reads the bitmap. With all four
//! accesses in one total order, one of the two sees the other — an
//! emptied span is never left with nobody responsible for destroying it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of 64-bit words backing the bitmap.
pub(crate) const WORDS: usize = 4;

/// Maximum number of bits (= maximum objects per span).
pub const MAX_BITS: usize = WORDS * 64;

/// A fixed-capacity atomic bitmap of up to 256 bits.
///
/// # Examples
///
/// ```
/// use mesh_core::bitmap::AtomicBitmap;
///
/// let bm = AtomicBitmap::new(128);
/// assert!(bm.try_set(3));
/// assert!(!bm.try_set(3), "second set must fail");
/// assert_eq!(bm.in_use(), 1);
/// assert!(bm.unset(3));
/// assert_eq!(bm.in_use(), 0);
/// ```
#[derive(Debug)]
pub struct AtomicBitmap {
    words: [AtomicU64; WORDS],
    len: u16,
}

impl AtomicBitmap {
    /// Creates a bitmap tracking `len` slots, all initially clear
    /// (the paper's "initialized to objectCount zero bits", §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `len > 256`.
    pub fn new(len: usize) -> Self {
        assert!(len <= MAX_BITS, "bitmap supports at most {MAX_BITS} bits");
        AtomicBitmap {
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            len: len as u16,
        }
    }

    /// Number of tracked slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the bitmap tracks zero slots (never true for real spans).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, bit: usize) {
        assert!(bit < self.len as usize, "bit {bit} out of range {}", self.len);
    }

    /// Atomically sets `bit`; returns `true` if this call changed it from
    /// clear to set (the reference implementation's `bitmap.tryToSet`).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn try_set(&self, bit: usize) -> bool {
        self.check(bit);
        let mask = 1u64 << (bit % 64);
        let prev = self.words[bit / 64].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }

    /// Atomically clears `bit`; returns `true` if this call changed it from
    /// set to clear. A `false` return on a free path indicates a double
    /// free (§4.4.4 discovers those via the bitmap).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn unset(&self, bit: usize) -> bool {
        self.check(bit);
        let mask = 1u64 << (bit % 64);
        let prev = self.words[bit / 64].fetch_and(!mask, Ordering::SeqCst);
        prev & mask != 0
    }

    /// Atomically takes word `i`: returns its bits and leaves it zero.
    /// The mesher consumes a source span this way (DESIGN.md §3), so every
    /// live bit is either taken — and copied — or was cleared by a freer
    /// first, never both.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub fn take_word(&self, i: usize) -> u64 {
        self.words[i].swap(0, Ordering::SeqCst)
    }

    /// Atomically sets the bits of `mask` in word `i` and returns the word
    /// as it was: the mesher puts what it took from a source into the
    /// destination, or back into the source when it rolls the pair back.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub(crate) fn set_word_bits(&self, i: usize, mask: u64) -> u64 {
        self.words[i].fetch_or(mask, Ordering::SeqCst)
    }

    /// Atomically clears the bits of `mask` in word `i` (a rolled-back
    /// pair leaves its destination).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub(crate) fn clear_word_bits(&self, i: usize, mask: u64) {
        self.words[i].fetch_and(!mask, Ordering::SeqCst);
    }

    /// Returns whether `bit` is currently set.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= len`.
    #[inline]
    pub fn is_set(&self, bit: usize) -> bool {
        self.check(bit);
        self.words[bit / 64].load(Ordering::Acquire) & (1u64 << (bit % 64)) != 0
    }

    /// Number of set bits (objects in use).
    #[inline]
    pub fn in_use(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::SeqCst).count_ones() as usize)
            .sum()
    }

    /// Snapshot of the backing words (bits past `len` are zero by
    /// invariant). Used by the mesher to test candidates without holding
    /// references into the atomics.
    #[inline]
    pub fn load_words(&self) -> [u64; WORDS] {
        [
            self.words[0].load(Ordering::SeqCst),
            self.words[1].load(Ordering::SeqCst),
            self.words[2].load(Ordering::SeqCst),
            self.words[3].load(Ordering::SeqCst),
        ]
    }

    /// The meshability predicate of Definition 5.1: two spans mesh iff no
    /// slot is set in both bitmaps.
    #[inline]
    pub fn meshes_with(&self, other: &AtomicBitmap) -> bool {
        let a = self.load_words();
        let b = other.load_words();
        (a[0] & b[0]) | (a[1] & b[1]) | (a[2] & b[2]) | (a[3] & b[3]) == 0
    }

    /// Iterates over the indices of set bits, ascending.
    pub fn iter_set(&self) -> SetBits {
        SetBits {
            words: self.load_words(),
            word_idx: 0,
            len: self.len as usize,
        }
    }

    /// Mask of the tracked bits of word `i` (bits beyond `len` are not).
    #[inline]
    fn valid_mask(&self, i: usize) -> u64 {
        let (len, base) = (self.len as usize, i * 64);
        if len >= base + 64 {
            u64::MAX
        } else if len <= base {
            0
        } else {
            (1u64 << (len - base)) - 1
        }
    }

    /// Atomically sets every clear bit and iterates, ascending, over the
    /// bits this call changed: [`AtomicBitmap::try_set`] for a whole span
    /// at one RMW per word that has a clear bit, instead of one per slot.
    /// A refill attaches up to two dozen spans under the class lock, so
    /// the per-slot form put thousands of atomics into one malloc.
    pub fn claim_clear(&self) -> SetBits {
        let mut claimed = [0u64; WORDS];
        for (i, word) in self.words.iter().enumerate() {
            let clear = !word.load(Ordering::Acquire) & self.valid_mask(i);
            if clear != 0 {
                claimed[i] = clear & !word.fetch_or(clear, Ordering::AcqRel);
            }
        }
        SetBits {
            words: claimed,
            word_idx: 0,
            len: self.len as usize,
        }
    }

    /// Clears every bit.
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Release);
        }
    }
}

/// Iterator over set-bit indices, produced by [`AtomicBitmap::iter_set`]
/// (and by [`AtomicBitmap::claim_clear`], over the bits it set).
#[derive(Debug, Clone)]
pub struct SetBits {
    words: [u64; WORDS],
    word_idx: usize,
    len: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word_idx < WORDS {
            let w = self.words[self.word_idx];
            if w == 0 {
                self.word_idx += 1;
                continue;
            }
            let bit = w.trailing_zeros() as usize;
            self.words[self.word_idx] = w & (w - 1); // clear lowest set bit
            let idx = self.word_idx * 64 + bit;
            if idx >= self.len {
                return None;
            }
            return Some(idx);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_unset_roundtrip() {
        let bm = AtomicBitmap::new(256);
        for i in 0..256 {
            assert!(!bm.is_set(i));
            assert!(bm.try_set(i));
            assert!(bm.is_set(i));
        }
        assert_eq!(bm.in_use(), 256);
        for i in 0..256 {
            assert!(bm.unset(i));
            assert!(!bm.is_set(i));
        }
        assert_eq!(bm.in_use(), 0);
    }

    #[test]
    fn claim_clear_sets_and_reports_exactly_the_clear_bits() {
        let bm = AtomicBitmap::new(130);
        for bit in [0, 63, 64, 129] {
            bm.try_set(bit);
        }
        let claimed: Vec<usize> = bm.claim_clear().collect();
        assert_eq!(claimed.len(), 126);
        assert!(claimed.windows(2).all(|w| w[0] < w[1]), "ascending");
        assert!([0, 63, 64, 129].iter().all(|b| !claimed.contains(b)));
        assert_eq!(bm.in_use(), 130, "every tracked bit is set now");
        assert_eq!(bm.load_words()[2] >> 2, 0, "bits past len stay clear");
        assert_eq!(bm.claim_clear().count(), 0, "nothing left to claim");
    }

    #[test]
    fn take_word_returns_the_bits_and_leaves_zero() {
        let bm = AtomicBitmap::new(130);
        for bit in [1, 63, 64, 129] {
            bm.try_set(bit);
        }
        assert_eq!(bm.take_word(0), 1 << 1 | 1 << 63);
        assert_eq!(bm.take_word(0), 0, "taken once");
        assert!(!bm.unset(63), "a free that lost to the take sees its bit gone");
        assert_eq!(bm.in_use(), 2, "other words untouched");
        assert_eq!(bm.take_word(2), 1 << 1);
    }

    #[test]
    fn double_set_and_double_unset_detected() {
        let bm = AtomicBitmap::new(64);
        assert!(bm.try_set(10));
        assert!(!bm.try_set(10));
        assert!(bm.unset(10));
        assert!(!bm.unset(10), "double free must be detectable");
    }

    #[test]
    fn meshes_with_disjoint_and_overlapping() {
        let a = AtomicBitmap::new(128);
        let b = AtomicBitmap::new(128);
        a.try_set(0);
        a.try_set(100);
        b.try_set(1);
        b.try_set(99);
        assert!(a.meshes_with(&b));
        assert!(b.meshes_with(&a));
        b.try_set(100);
        assert!(!a.meshes_with(&b));
    }

    #[test]
    fn empty_bitmaps_always_mesh() {
        let a = AtomicBitmap::new(8);
        let b = AtomicBitmap::new(8);
        assert!(a.meshes_with(&b));
    }

    #[test]
    fn iter_set_matches_contents() {
        let bm = AtomicBitmap::new(200);
        let bits = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &b in &bits {
            bm.try_set(b);
        }
        let got: Vec<usize> = bm.iter_set().collect();
        assert_eq!(got, bits);
    }

    #[test]
    fn iter_clear_is_complement() {
        // The clear bits `claim_clear` walks are exactly the unset ones.
        let bm = AtomicBitmap::new(70);
        for i in (0..70).step_by(2) {
            bm.try_set(i);
        }
        let clear: Vec<usize> = bm.claim_clear().collect();
        assert_eq!(clear, (1..70).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn iter_clear_respects_len_boundary() {
        // Bits past len must never be reported clear, nor set by a claim.
        for len in [1usize, 63, 64, 65, 130, 256] {
            let bm = AtomicBitmap::new(len);
            assert_eq!(bm.iter_set().count(), 0);
            assert_eq!(bm.claim_clear().count(), len, "len={len}");
            assert_eq!(bm.iter_set().count(), len, "len={len}");
        }
    }

    #[test]
    fn concurrent_try_set_claims_each_bit_once() {
        let bm = Arc::new(AtomicBitmap::new(256));
        let mut handles = vec![];
        let winners = Arc::new(std::sync::Mutex::new(vec![0u8; 256]));
        for _ in 0..8 {
            let bm = Arc::clone(&bm);
            let winners = Arc::clone(&winners);
            handles.push(std::thread::spawn(move || {
                let mut mine = vec![];
                for i in 0..256 {
                    if bm.try_set(i) {
                        mine.push(i);
                    }
                }
                let mut w = winners.lock().unwrap();
                for i in mine {
                    w[i] += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let w = winners.lock().unwrap();
        assert!(w.iter().all(|&c| c == 1), "every bit claimed exactly once");
        assert_eq!(bm.in_use(), 256);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        AtomicBitmap::new(8).is_set(8);
    }

    #[test]
    fn clear_all_resets() {
        let bm = AtomicBitmap::new(100);
        for i in 0..100 {
            bm.try_set(i);
        }
        bm.clear_all();
        assert_eq!(bm.in_use(), 0);
    }
}
