//! Seeded input generation and object stamps.
//!
//! The generator is the benchmark's own (not `mesh_core::rng`), so a
//! change to the allocator's PRNG cannot change the inputs. A workload's
//! plan is generated once from the seed before timing starts; the timed
//! loops only replay arrays.

use mesh_core::size_classes::SIZE_CLASSES;

/// splitmix64: small, seedable, and good enough to shuffle op streams.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0; the bias of the multiply-shift
    /// reduction is far below anything a workload can see).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A request size that lands in small size class `class`: uniform over
/// the sizes only that class serves, so class rounding shows up as waste.
/// Never below 16 (both stamps must fit).
pub fn size_in_class(rng: &mut SplitMix, class: usize) -> usize {
    let hi = SIZE_CLASSES[class];
    let lo = if class == 0 {
        16
    } else {
        SIZE_CLASSES[class - 1] + 1
    };
    rng.range(lo as u64, hi as u64) as usize
}

/// FNV-1a over a stream of words: the op-stream hash the determinism
/// tests compare.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> StreamHash {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words<T: Copy + Into<u64>>(&mut self, ws: &[T]) {
        for &w in ws {
            self.word(w.into());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

// ----- stamps ------------------------------------------------------------

const HEAD_KEY: u64 = 0xa076_1d64_78bd_642f;
const TAIL_KEY: u64 = 0xe703_7ed1_a0b4_28db;

#[inline]
fn head_stamp(id: u64) -> u64 {
    id.wrapping_mul(HEAD_KEY) ^ 0x5bd1_e995
}

#[inline]
fn tail_stamp(id: u64, size: usize) -> u64 {
    (id ^ (size as u64).rotate_left(40)).wrapping_mul(TAIL_KEY)
}

/// Writes the two stamps of object `id`: first and last 8 bytes.
///
/// # Safety
///
/// `p` must be valid for writes of `size` bytes, `size >= 16`.
#[inline]
pub unsafe fn stamp(p: *mut u8, id: u64, size: usize) {
    debug_assert!(size >= 16);
    (p as *mut u64).write_unaligned(head_stamp(id));
    (p.add(size - 8) as *mut u64).write_unaligned(tail_stamp(id, size));
}

/// Whether both stamps of object `id` are intact.
///
/// # Safety
///
/// `p` must be valid for reads of `size` bytes, `size >= 16`.
#[inline]
pub unsafe fn stamp_ok(p: *const u8, id: u64, size: usize) -> bool {
    (p as *const u64).read_unaligned() == head_stamp(id)
        && (p.add(size - 8) as *const u64).read_unaligned() == tail_stamp(id, size)
}

/// Fills all `size` bytes of object `id` with an id-derived pattern whose
/// first and last 8 bytes are the stamps (so [`stamp_ok`] still applies).
///
/// # Safety
///
/// `p` must be valid for writes of `size` bytes, `size >= 16`.
pub unsafe fn fill(p: *mut u8, id: u64, size: usize) {
    let body = size - 8;
    let mut off = 8;
    while off + 8 <= body {
        (p.add(off) as *mut u64).write_unaligned(body_word(id, off));
        off += 8;
    }
    while off < body {
        p.add(off).write(body_word(id, off) as u8);
        off += 1;
    }
    stamp(p, id, size);
}

/// Byte-for-byte check of an object written by [`fill`].
///
/// # Safety
///
/// `p` must be valid for reads of `size` bytes, `size >= 16`.
pub unsafe fn fill_ok(p: *const u8, id: u64, size: usize) -> bool {
    if !stamp_ok(p, id, size) {
        return false;
    }
    let body = size - 8;
    let mut off = 8;
    while off + 8 <= body {
        if (p.add(off) as *const u64).read_unaligned() != body_word(id, off) {
            return false;
        }
        off += 8;
    }
    while off < body {
        if p.add(off).read() != body_word(id, off) as u8 {
            return false;
        }
        off += 1;
    }
    true
}

#[inline]
fn body_word(id: u64, off: usize) -> u64 {
    (id.wrapping_add(off as u64))
        .wrapping_mul(HEAD_KEY)
        .rotate_left(17)
}

/// Stamps the first word of every page of a large object after the first
/// (the head stamp covers that one), so the whole object is resident and
/// a remap that loses a page is caught.
///
/// # Safety
///
/// `p` must be valid for writes of `size` bytes.
pub unsafe fn touch_pages(p: *mut u8, id: u64, size: usize) {
    let mut off = 4096;
    while off + 8 <= size - 8 {
        (p.add(off) as *mut u64).write_unaligned(body_word(id, off));
        off += 4096;
    }
}

/// Checks what [`touch_pages`] wrote.
///
/// # Safety
///
/// `p` must be valid for reads of `size` bytes.
pub unsafe fn pages_ok(p: *const u8, id: u64, size: usize) -> bool {
    let mut off = 4096;
    while off + 8 <= size - 8 {
        if (p.add(off) as *const u64).read_unaligned() != body_word(id, off) {
            return false;
        }
        off += 4096;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        let mut c = SplitMix::new(8);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..64).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..10_000 {
            assert!(a.below(10) < 10);
            let r = a.range(5, 9);
            assert!((5..=9).contains(&r));
        }
        let mut v: Vec<u32> = (0..100).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn sizes_land_in_their_class() {
        use mesh_core::SizeClass;
        let mut rng = SplitMix::new(1);
        for class in 0..SIZE_CLASSES.len() {
            for _ in 0..200 {
                let s = size_in_class(&mut rng, class);
                assert!(s >= 16);
                assert_eq!(SizeClass::for_size(s).unwrap().index(), class, "size {s}");
            }
        }
    }

    #[test]
    fn corrupted_stamp_is_detected() {
        for size in [16usize, 17, 31, 240, 4096] {
            let mut buf = vec![0u8; size];
            unsafe {
                fill(buf.as_mut_ptr(), 42, size);
                assert!(stamp_ok(buf.as_ptr(), 42, size));
                assert!(fill_ok(buf.as_ptr(), 42, size));
                assert!(!stamp_ok(buf.as_ptr(), 43, size), "wrong id");
                if size > 16 {
                    assert!(!stamp_ok(buf.as_ptr(), 42, size - 1), "wrong size");
                }
            }
            for victim in [0, size / 2, size - 1] {
                let mut bad = buf.clone();
                bad[victim] ^= 0x40;
                assert!(
                    !unsafe { fill_ok(bad.as_ptr(), 42, size) },
                    "byte {victim} of {size}"
                );
            }
        }
    }

    #[test]
    fn page_touches_round_trip() {
        let size = 5 * 4096 + 100;
        let mut buf = vec![0u8; size];
        unsafe {
            stamp(buf.as_mut_ptr(), 9, size);
            touch_pages(buf.as_mut_ptr(), 9, size);
            assert!(stamp_ok(buf.as_ptr(), 9, size) && pages_ok(buf.as_ptr(), 9, size));
            buf[3 * 4096] ^= 1;
            assert!(!pages_ok(buf.as_ptr(), 9, size));
        }
    }

    #[test]
    fn stream_hash_separates_streams() {
        let mut a = StreamHash::default();
        let mut b = StreamHash::default();
        a.words(&[1u32, 2, 3]);
        b.words(&[1u32, 2, 4]);
        assert_ne!(a.finish(), b.finish());
    }
}
