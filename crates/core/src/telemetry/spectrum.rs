//! Occupancy-spectrum snapshots: the paper's Figure-style "how full is
//! every span" view, computed online from the global heap's occupancy
//! bins plus a per-class meshability estimate.
//!
//! A snapshot visits the classes one at a time, holding only that class's
//! shard lock (never two at once, never across classes), so it can run
//! while allocation traffic continues — the per-class numbers are each
//! internally consistent and the cross-class skew is bounded by the walk
//! itself, which is the same coherence contract as [`crate::HeapStats`].

use super::fields::{self, gauge, num, row, Field, Value::Json};
use crate::size_classes::{SizeClass, NUM_SIZE_CLASSES, PAGE_SIZE};

/// Occupancy bins per class in a spectrum: the four partial quartiles of
/// the global heap's binning (§3.1: fullest first) plus the full bin.
pub const SPECTRUM_BINS: usize = 5;

/// One size class's slice of the occupancy spectrum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassSpectrum {
    /// Object size in bytes.
    pub object_size: u32,
    /// Spans currently attached to thread heaps (not mesh candidates).
    pub attached_spans: u32,
    /// Detached spans per occupancy bin: `bins[0]` = [75%, 100%), …,
    /// `bins[3]` = (0%, 25%), `bins[4]` = completely full.
    pub bins: [u32; SPECTRUM_BINS],
    /// Live objects across all spans of this class.
    pub live_objects: u64,
    /// Object slots across all spans of this class.
    pub total_slots: u64,
    /// Estimate of the spans a pass could fold into others right now —
    /// meshed "pairs" as [`crate::MeshSummary::pairs_meshed`] counts them,
    /// one per source folded into a destination, each releasing one span's
    /// pages: the detached spans a pass would take (partially occupied,
    /// under the occupancy cutoff), packed by first fit decreasing on their
    /// live counts as the pass packs them, and no more than the heap's
    /// mapping budget has aliases left for (each fold makes one; the budget
    /// is shared by every class). (A bound, not a promise — it ignores slot
    /// overlap, which the paper shows is rare at low occupancy, §2.2, and
    /// the pass's search budget.)
    pub est_meshable_pairs: u32,
    /// Whether this class participates in meshing at all (objects under
    /// one page, §4).
    pub meshable: bool,
}

impl ClassSpectrum {
    /// Total spans of this class (attached + detached).
    pub fn spans(&self) -> u64 {
        self.attached_spans as u64 + self.bins.iter().map(|&b| b as u64).sum::<u64>()
    }

    /// Mean occupancy across every slot of the class, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.total_slots == 0 {
            0.0
        } else {
            self.live_objects as f64 / self.total_slots as f64
        }
    }

    /// Pages this class's estimated meshable pairs would release.
    pub fn est_releasable_pages(&self) -> u64 {
        let class = match SizeClass::for_size(self.object_size as usize) {
            Some(c) if c.object_size() == self.object_size as usize => c,
            _ => return 0,
        };
        self.est_meshable_pairs as u64 * class.span_pages() as u64
    }
}

/// The members of a `spectrum` document's class entry.
pub(crate) static CLASS_FIELDS: [Field<ClassSpectrum>; 7] = [
    num!(object_size),
    num!(attached_spans),
    row!(key: "bins", get: |c| Json(fields::array(c.bins.iter().map(u32::to_string)))),
    num!(live_objects),
    num!(total_slots),
    num!(est_meshable_pairs),
    row!(key: "meshable", get: |c| Json(c.meshable.to_string())),
];

/// The large-object members of the `spectrum` document, exported as
/// gauges while large objects live.
pub(crate) static LARGE_FIELDS: [Field<HeapSpectrum>; 2] = [
    num!(large_spans, prom: gauge("mesh_large_spans", "Live large-object spans.")),
    num!(large_bytes, prom: gauge("mesh_large_bytes", "Bytes held by live large objects.")),
];

/// A whole-heap occupancy-spectrum snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapSpectrum {
    /// Per-class spectra, indexed like [`SizeClass::index`].
    pub classes: [ClassSpectrum; NUM_SIZE_CLASSES],
    /// Live large-object singleton spans (§4.4.3; never meshed).
    pub large_spans: u32,
    /// Bytes held by large-object spans.
    pub large_bytes: u64,
}

impl HeapSpectrum {
    /// Whether any span exists anywhere in the snapshot.
    pub fn is_empty(&self) -> bool {
        self.large_spans == 0 && self.classes.iter().all(|c| c.spans() == 0)
    }

    /// Bytes the estimated meshable pairs across all classes would
    /// release (the "how compactable is the heap right now" headline).
    pub fn est_releasable_bytes(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.est_releasable_pages() * PAGE_SIZE as u64)
            .sum()
    }

    /// One compact `;`-separated summary of the classes that hold spans,
    /// `sizeB:a<attached>+p<q3>/<q2>/<q1>/<q0>+f<full>~<pairs>` each —
    /// the form [`crate::HeapStats::render`] appends so `malloc_stats(3)`
    /// shows meshability at a glance. Empty when no spans exist.
    pub fn render_compact(&self) -> String {
        let mut parts: Vec<String> = self
            .classes
            .iter()
            .filter(|c| c.spans() > 0)
            .map(|c| {
                format!(
                    "{}B:a{}+p{}/{}/{}/{}+f{}~{}",
                    c.object_size,
                    c.attached_spans,
                    c.bins[0],
                    c.bins[1],
                    c.bins[2],
                    c.bins[3],
                    c.bins[4],
                    c.est_meshable_pairs,
                )
            })
            .collect();
        if self.large_spans > 0 {
            parts.push(format!("large:{}x{}B", self.large_spans, self.large_bytes));
        }
        parts.join(";")
    }
}

/// First fit decreasing over live counts, the pass's packing without its
/// bitmaps: given the live objects of the meshable candidates of one
/// class, each below `cap` = the span's slots, takes them fullest first,
/// each into the first destination with room for it, or else a
/// destination of its own. Returns the candidates that went into another:
/// the spans released. A max-tree over the destinations' free slots finds
/// the first with room in `O(log n)`; the tree's first unopened leaf is
/// where a new destination opens.
pub(crate) fn estimate_meshable_pairs(candidates: &mut [u32], cap: u32) -> u32 {
    candidates.sort_unstable_by_key(|&live| std::cmp::Reverse(live));
    let leaves = candidates.len().next_power_of_two();
    // `room[leaves + i]` is destination `i`'s free slots; `room[i]` for
    // `i < leaves` the most of its two children's.
    let mut room = vec![cap; 2 * leaves];
    let (mut opened, mut folds) = (0, 0);
    for &live in candidates.iter() {
        let mut node = 1;
        while node < leaves {
            node = 2 * node + usize::from(room[2 * node] < live);
        }
        if node - leaves < opened {
            folds += 1;
        } else {
            opened += 1;
        }
        room[node] -= live;
        while node > 1 {
            node /= 2;
            room[node] = room[2 * node].max(room[2 * node + 1]);
        }
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_decreasing_bound() {
        let mut c = [10, 200, 50, 60, 250, 5];
        // slots=256, fullest first: 250, 200 and 60 open destinations
        // (room 6, 56, 196); 50 joins 200's, 10 joins 60's, 5 joins 250's.
        assert_eq!(estimate_meshable_pairs(&mut c, 256), 3);
        let mut c = [200, 201, 202];
        assert_eq!(estimate_meshable_pairs(&mut c, 256), 0, "nothing fits");
        let mut c = [1];
        assert_eq!(estimate_meshable_pairs(&mut c, 256), 0, "no partner");
        let mut empty: [u32; 0] = [];
        assert_eq!(estimate_meshable_pairs(&mut empty, 256), 0);
        // Small caps: doubles pair at 4, not 3.
        assert_eq!(estimate_meshable_pairs(&mut [2, 2, 2, 2], 3), 0);
        assert_eq!(estimate_meshable_pairs(&mut [2, 2, 2, 2], 4), 2);
        assert_eq!(estimate_meshable_pairs(&mut [3, 1, 2, 2], 4), 2);
        // Multi-way: four quarters make one span, three released.
        assert_eq!(estimate_meshable_pairs(&mut [4, 4, 4, 4], 16), 3);
        // Spans of four, four and one.
        assert_eq!(estimate_meshable_pairs(&mut [1; 9], 4), 6);
        // 6 + 4, 5 + 5, 4 + 2.
        assert_eq!(estimate_meshable_pairs(&mut [6, 5, 5, 4, 4, 2], 10), 3);
    }

    #[test]
    fn class_spectrum_helpers() {
        let mut c = ClassSpectrum {
            object_size: 256,
            attached_spans: 1,
            bins: [2, 0, 0, 1, 3],
            live_objects: 70,
            total_slots: 112,
            est_meshable_pairs: 1,
            meshable: true,
        };
        assert_eq!(c.spans(), 7);
        assert!((c.occupancy() - 0.625).abs() < 1e-12);
        // 256 B spans are 1 page each → 1 pair releases 1 page.
        assert_eq!(c.est_releasable_pages(), 1);
        c.object_size = 999; // not a real class size
        assert_eq!(c.est_releasable_pages(), 0);
    }

    #[test]
    fn compact_render_shape() {
        let mut spec = HeapSpectrum::default();
        assert!(spec.is_empty());
        assert_eq!(spec.render_compact(), "");
        spec.classes[3] = ClassSpectrum {
            object_size: 64,
            attached_spans: 1,
            bins: [0, 2, 0, 4, 1],
            live_objects: 100,
            total_slots: 512,
            est_meshable_pairs: 2,
            meshable: true,
        };
        spec.large_spans = 1;
        spec.large_bytes = 8192;
        assert!(!spec.is_empty());
        let s = spec.render_compact();
        assert_eq!(s, "64B:a1+p0/2/0/4+f1~2;large:1x8192B");
        assert!(!s.contains(' '), "stays one key=value token");
        // 64 B spans are 1 page: 2 pairs → 2 pages → 8192 bytes.
        assert_eq!(spec.est_releasable_bytes(), 8192);
    }
}
