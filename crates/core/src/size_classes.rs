//! Segregated-fit size classes (§4).
//!
//! Mesh is a segregated-fit allocator: every span holds objects of exactly
//! one size class. Like the paper we use jemalloc's fine-grained classes for
//! objects up to 1024 bytes and power-of-two classes between 1024 bytes and
//! 16 KiB — 24 classes in total. Allocations are fulfilled from the smallest
//! class they fit (e.g. a 33–48 byte request is served from the 48-byte
//! class); requests larger than [`MAX_SMALL_SIZE`] are *large objects*
//! handled individually by the global heap.
//!
//! Span geometry follows §4: spans are multiples of the 4 KiB page size and
//! contain between [`MIN_OBJECTS_PER_SPAN`] and [`MAX_OBJECTS_PER_SPAN`]
//! objects. The 256-object ceiling is what lets shuffle-vector offsets fit
//! in one byte (§4.2); the 8-object floor amortizes the cost of fetching a
//! span from the global heap.

/// Hardware page size assumed throughout (x86-64 / aarch64 default).
pub const PAGE_SIZE: usize = 4096;

/// Largest size (bytes) served from size-classed spans; bigger requests are
/// large objects (§4.4.3).
pub const MAX_SMALL_SIZE: usize = 16 * 1024;

/// Minimum number of objects in a span (§4).
pub const MIN_OBJECTS_PER_SPAN: usize = 8;

/// Maximum number of objects in a span; keeps shuffle-vector offsets in one
/// byte (§4.2).
pub const MAX_OBJECTS_PER_SPAN: usize = 256;

/// The object sizes of every class, ascending.
///
/// Classes ≤ 1024 are the jemalloc small classes (the 8-byte class is
/// folded into 16 so a one-page span never exceeds 256 slots — the
/// reference implementation makes the same choice); classes above 1024 are
/// powers of two up to 16 KiB.
pub const SIZE_CLASSES: [usize; 24] = [
    16, 32, 48, 64, 80, 96, 112, 128, 160, 192, 224, 256, 320, 384, 448, 512, 640, 768, 896,
    1024, 2048, 4096, 8192, 16384,
];

/// Number of size classes (`c` in §4.2's space-overhead analysis).
pub const NUM_SIZE_CLASSES: usize = SIZE_CLASSES.len();

/// Span length in pages for each size class, chosen as the smallest
/// page-multiple giving at least [`MIN_OBJECTS_PER_SPAN`] objects.
pub const SPAN_PAGES: [usize; 24] = {
    let mut pages = [0usize; 24];
    let mut i = 0;
    while i < 24 {
        let size = SIZE_CLASSES[i];
        let mut p = 1;
        while (p * PAGE_SIZE) / size < MIN_OBJECTS_PER_SPAN {
            p *= 2;
        }
        pages[i] = p;
        i += 1;
    }
    pages
};

/// A validated size-class index.
///
/// Newtype so the rest of the allocator cannot confuse class indices with
/// object sizes or span offsets.
///
/// # Examples
///
/// ```
/// use mesh_core::size_classes::SizeClass;
///
/// let c = SizeClass::for_size(33).unwrap();
/// assert_eq!(c.object_size(), 48);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeClass(u8);

impl SizeClass {
    /// Returns the smallest size class that can hold `size` bytes, or
    /// `None` if the request is a large object (`size > MAX_SMALL_SIZE`).
    ///
    /// A zero-byte request is served from the smallest class, matching
    /// `malloc(0)` returning a unique pointer.
    #[inline]
    pub fn for_size(size: usize) -> Option<SizeClass> {
        if size > MAX_SMALL_SIZE {
            return None;
        }
        if size <= 1024 {
            // 16-byte-granular lookup table for the sub-1 KiB classes.
            let bucket = size.div_ceil(16); // 0..=64
            Some(SizeClass(SUB_1K_LOOKUP[bucket]))
        } else {
            // Power-of-two classes: 2048, 4096, 8192, 16384.
            let pow = usize::BITS - (size - 1).leading_zeros(); // ceil(log2(size))
            Some(SizeClass(20 + (pow - 11) as u8))
        }
    }

    /// Returns the class with index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= NUM_SIZE_CLASSES`.
    #[inline]
    pub fn from_index(idx: usize) -> SizeClass {
        assert!(idx < NUM_SIZE_CLASSES, "size class index {idx} out of range");
        SizeClass(idx as u8)
    }

    /// The index of this class in `SIZE_CLASSES`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The object size in bytes served by this class.
    #[inline]
    pub fn object_size(self) -> usize {
        SIZE_CLASSES[self.0 as usize]
    }

    /// Span length in pages for this class.
    #[inline]
    pub fn span_pages(self) -> usize {
        SPAN_PAGES[self.0 as usize]
    }

    /// Span length in bytes for this class.
    #[inline]
    pub fn span_bytes(self) -> usize {
        self.span_pages() * PAGE_SIZE
    }

    /// Number of object slots in a span of this class
    /// (`objectCount = spanSize / objSize`, §4.1).
    #[inline]
    pub fn object_count(self) -> usize {
        self.span_bytes() / self.object_size()
    }

    /// The slot whose object starts at byte `offset` of a span of this
    /// class, or `None` if no object starts there: an interior pointer, or
    /// the tail waste past the last slot.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `offset` is not inside a span of this class.
    #[inline]
    pub fn slot_at(self, offset: usize) -> Option<usize> {
        debug_assert!(offset < self.span_bytes());
        // Every free comes through here. Spans are at most 128 KiB, so
        // 32-bit arithmetic will do — one narrow division for quotient and
        // remainder — and the last slot is the last object that fits.
        let (offset, size) = (offset as u32, self.object_size() as u32);
        (offset.is_multiple_of(size) && offset + size <= self.span_bytes() as u32)
            .then_some((offset / size) as usize)
    }

    /// Whether spans of this class participate in meshing.
    ///
    /// Objects of 4 KiB and larger are page-aligned, span whole pages and
    /// are never meshed (§4); their pages are released directly on free.
    #[inline]
    pub fn is_meshable(self) -> bool {
        self.object_size() < PAGE_SIZE
    }

    /// Iterator over all size classes, ascending.
    pub fn all() -> impl Iterator<Item = SizeClass> {
        (0..NUM_SIZE_CLASSES).map(|i| SizeClass(i as u8))
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "class#{}({}B)", self.0, self.object_size())
    }
}

/// Lookup table: `(size + 15) / 16` → class index, for sizes 0..=1024.
const SUB_1K_LOOKUP: [u8; 65] = {
    let mut table = [0u8; 65];
    let mut bucket = 0;
    while bucket <= 64 {
        let size = bucket * 16; // largest size mapping to this bucket
        let mut cls = 0;
        while SIZE_CLASSES[cls] < size {
            cls += 1;
        }
        table[bucket] = cls as u8;
        bucket += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_16_aligned() {
        for w in SIZE_CLASSES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &s in &SIZE_CLASSES {
            assert_eq!(s % 16, 0, "class {s} not 16-byte aligned");
        }
    }

    #[test]
    fn paper_example_33_to_48() {
        // §4: "objects of size 33–48 bytes are served from the 48-byte class".
        for size in 33..=48 {
            assert_eq!(SizeClass::for_size(size).unwrap().object_size(), 48);
        }
    }

    #[test]
    fn for_size_returns_smallest_fitting_class() {
        for size in 0..=MAX_SMALL_SIZE {
            let c = SizeClass::for_size(size).unwrap();
            assert!(c.object_size() >= size, "size {size} got class {c}");
            if c.index() > 0 {
                let prev = SizeClass::from_index(c.index() - 1);
                assert!(
                    prev.object_size() < size,
                    "size {size} should fit in smaller class {prev}"
                );
            }
        }
    }

    #[test]
    fn large_requests_have_no_class() {
        assert_eq!(SizeClass::for_size(MAX_SMALL_SIZE + 1), None);
        assert_eq!(SizeClass::for_size(1 << 30), None);
    }

    #[test]
    fn slot_at_accepts_object_starts_only() {
        for c in SizeClass::all() {
            let (size, count) = (c.object_size(), c.object_count());
            for offset in 0..c.span_bytes() {
                let starts = offset % size == 0 && offset / size < count;
                assert_eq!(c.slot_at(offset), starts.then_some(offset / size), "{c}: {offset}");
            }
        }
        // 4096 % 48 != 0: the span ends in tail waste.
        let c = SizeClass::for_size(48).unwrap();
        assert_eq!(c.slot_at(48 * c.object_count()), None);
        assert!(48 * c.object_count() < c.span_bytes());
    }

    #[test]
    fn object_counts_within_span_limits() {
        // §4: spans contain between 8 and 256 objects of a fixed size.
        for c in SizeClass::all() {
            let n = c.object_count();
            assert!(
                (MIN_OBJECTS_PER_SPAN..=MAX_OBJECTS_PER_SPAN).contains(&n),
                "{c}: {n} objects per span"
            );
        }
    }

    #[test]
    fn span_pages_are_minimal() {
        for c in SizeClass::all() {
            let p = c.span_pages();
            if p > 1 {
                // Halving the span must violate the 8-object floor.
                assert!(
                    (p / 2 * PAGE_SIZE) / c.object_size() < MIN_OBJECTS_PER_SPAN,
                    "{c}: span of {p} pages not minimal"
                );
            }
        }
    }

    #[test]
    fn twenty_four_classes_as_in_paper() {
        assert_eq!(NUM_SIZE_CLASSES, 24);
    }

    #[test]
    fn zero_size_served_from_smallest_class() {
        assert_eq!(SizeClass::for_size(0).unwrap().object_size(), 16);
    }

    #[test]
    fn pow2_class_boundaries() {
        assert_eq!(SizeClass::for_size(1024).unwrap().object_size(), 1024);
        assert_eq!(SizeClass::for_size(1025).unwrap().object_size(), 2048);
        assert_eq!(SizeClass::for_size(2048).unwrap().object_size(), 2048);
        assert_eq!(SizeClass::for_size(2049).unwrap().object_size(), 4096);
        assert_eq!(SizeClass::for_size(16384).unwrap().object_size(), 16384);
    }

    #[test]
    fn meshability_cutoff_at_page_size() {
        for c in SizeClass::all() {
            assert_eq!(c.is_meshable(), c.object_size() < PAGE_SIZE, "{c}");
        }
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", SizeClass::from_index(0)).is_empty());
        assert!(!format!("{:?}", SizeClass::from_index(3)).is_empty());
    }
}
