//! Log2-bucketed latency histograms for every slow-path operation.
//!
//! HDR-style: 64 buckets at half-octave resolution from 16 ns up
//! (bucket 62's upper bound is ≈ 34 s; bucket 63 is the overflow
//! catch-all), so two buckets per power of two keep the relative
//! quantization error under 50% across nine decades while the whole
//! histogram stays a flat array of counters.
//!
//! The heap keeps one [`HistBlock`], written with relaxed `fetch_add`s
//! by every timed operation — refills, lock waits, mesh phases, segment
//! and `madvise` work. Each already pays a lock or a syscall, so three
//! more RMWs are noise; the malloc/free fast path records nothing.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets (shared by every op).
pub const LATENCY_BUCKETS: usize = 64;

/// The slow-path operations with recorded durations.
///
/// The discriminants index the histogram arrays and the trace-event
/// `op` field; they are stable within one build but not an ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum TimedOp {
    /// Shuffle-vector refill: one class-shard visit.
    Refill = 0,
    /// Contended class-shard lock acquisition (blocked time only).
    ClassLockWait = 1,
    /// Contended arena leaf-lock acquisition (blocked time only).
    ArenaLockWait = 2,
    /// Mutator blocked on a lock while a mesh pass held it: the pause
    /// the paper's §6.2.2 "longest pause" claim is about.
    MutatorPause = 3,
    /// Mesh-pass phase 1: candidate collection + SplitMesher probing.
    MeshCandidates = 4,
    /// Mesh-pass phase 2, once per batch of up to 64 pairs:
    /// write-protect + copy window.
    MeshCopy = 5,
    /// Mesh-pass phase 3, once per batch: physical release + virtual
    /// remap. The §4.5.2 barrier is up from the start of phase 2 to the
    /// end of this one.
    MeshRemap = 6,
    /// One whole meshing pass (all classes).
    MeshPass = 7,
    /// Mapping a new segment (memfd + mmap).
    SegmentGrow = 8,
    /// Retiring empty segments (unmap back to the reservation).
    SegmentRetire = 9,
    /// Physical-page release calls (`madvise`/hole punching), including
    /// dirty purges.
    Madvise = 10,
}

/// Number of [`TimedOp`] variants (array dimension).
pub const NUM_TIMED_OPS: usize = 11;

/// All ops, in discriminant order.
pub const ALL_TIMED_OPS: [TimedOp; NUM_TIMED_OPS] = [
    TimedOp::Refill,
    TimedOp::ClassLockWait,
    TimedOp::ArenaLockWait,
    TimedOp::MutatorPause,
    TimedOp::MeshCandidates,
    TimedOp::MeshCopy,
    TimedOp::MeshRemap,
    TimedOp::MeshPass,
    TimedOp::SegmentGrow,
    TimedOp::SegmentRetire,
    TimedOp::Madvise,
];

/// Each op's name and Prometheus histogram name, in discriminant order.
macro_rules! op_names {
    ($($name:literal),*) => { [$(($name, concat!("mesh_", $name, "_seconds"))),*] };
}
const OP_NAMES: [(&str, &str); NUM_TIMED_OPS] = op_names!(
    "refill", "class_lock_wait", "arena_lock_wait", "mutator_pause", "mesh_candidates", "mesh_copy",
    "mesh_remap", "mesh_pass", "segment_grow", "segment_retire", "madvise"
);

impl TimedOp {
    /// Array index of this op.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short machine-readable name (trace events, `render()` keys).
    pub fn name(self) -> &'static str {
        OP_NAMES[self.index()].0
    }

    /// Prometheus base name of this op's histogram (seconds units, per
    /// convention; `_bucket`/`_sum`/`_count` series hang off it).
    pub fn prom_name(self) -> &'static str {
        OP_NAMES[self.index()].1
    }

    /// Op from a raw discriminant (trace-event decoding).
    pub fn from_u16(raw: u16) -> Option<TimedOp> {
        ALL_TIMED_OPS.get(raw as usize).copied()
    }
}

/// Bucket index for a duration of `ns` nanoseconds.
///
/// Bucket 0 holds everything under 16 ns; above that, each power of two
/// splits into two half-octave buckets (`[2^p, 1.5·2^p)` and
/// `[1.5·2^p, 2^(p+1))`); bucket 63 is the overflow catch-all.
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns < 16 {
        return 0;
    }
    let p = 63 - ns.leading_zeros() as usize; // floor(log2 ns), ≥ 4
    let half = ((ns >> (p - 1)) & 1) as usize; // upper half of the octave?
    ((p - 4) * 2 + half + 1).min(LATENCY_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `b` in nanoseconds (`u64::MAX` for
/// the overflow bucket).
pub fn bucket_upper_ns(b: usize) -> u64 {
    debug_assert!(b < LATENCY_BUCKETS);
    if b == 0 {
        return 16;
    }
    if b == LATENCY_BUCKETS - 1 {
        return u64::MAX;
    }
    let k = b - 1;
    let p = 4 + k / 2;
    if k.is_multiple_of(2) {
        3u64 << (p - 1) // 1.5 · 2^p
    } else {
        1u64 << (p + 1)
    }
}

/// One flat block of histogram counters: per-op bucket counts plus the
/// total duration and the running maximum.
pub(crate) struct HistBlock {
    counts: [[AtomicU64; LATENCY_BUCKETS]; NUM_TIMED_OPS],
    sums: [AtomicU64; NUM_TIMED_OPS],
    maxes: [AtomicU64; NUM_TIMED_OPS],
}

impl Default for HistBlock {
    fn default() -> HistBlock {
        HistBlock {
            counts: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            sums: std::array::from_fn(|_| AtomicU64::new(0)),
            maxes: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for HistBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistBlock").finish_non_exhaustive()
    }
}

impl HistBlock {
    /// Records one duration (relaxed RMWs; any thread).
    pub(crate) fn record(&self, op: TimedOp, ns: u64) {
        let i = op.index();
        self.counts[i][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.sums[i].fetch_add(ns, Ordering::Relaxed);
        self.maxes[i].fetch_max(ns, Ordering::Relaxed);
    }

    /// Adds this block into `snap`.
    pub(crate) fn add_into(&self, snap: &mut LatencySnapshot) {
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                snap.counts[i][b] =
                    snap.counts[i][b].wrapping_add(self.counts[i][b].load(Ordering::Relaxed));
            }
            snap.sums[i] = snap.sums[i].wrapping_add(self.sums[i].load(Ordering::Relaxed));
            snap.maxes[i] = snap.maxes[i].max(self.maxes[i].load(Ordering::Relaxed));
        }
    }

    /// Zeroes the block (forked child: its latency timeline starts
    /// fresh; single-threaded there, so plain stores are safe).
    pub(crate) fn zero(&self) {
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                self.counts[i][b].store(0, Ordering::Relaxed);
            }
            self.sums[i].store(0, Ordering::Relaxed);
            self.maxes[i].store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time merge of every latency histogram, carried on
/// [`crate::HeapStats`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Bucket counts, indexed `[op][bucket]` (see [`bucket_upper_ns`]).
    pub counts: [[u64; LATENCY_BUCKETS]; NUM_TIMED_OPS],
    /// Total recorded nanoseconds per op.
    pub sums: [u64; NUM_TIMED_OPS],
    /// Longest recorded duration per op, nanoseconds.
    pub maxes: [u64; NUM_TIMED_OPS],
}

impl Default for LatencySnapshot {
    fn default() -> LatencySnapshot {
        LatencySnapshot {
            counts: [[0; LATENCY_BUCKETS]; NUM_TIMED_OPS],
            sums: [0; NUM_TIMED_OPS],
            maxes: [0; NUM_TIMED_OPS],
        }
    }
}

impl std::fmt::Debug for LatencySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("LatencySnapshot");
        for op in ALL_TIMED_OPS {
            if self.count(op) > 0 {
                s.field(op.name(), &(self.count(op), self.sum_ns(op), self.max_ns(op)));
            }
        }
        s.finish_non_exhaustive()
    }
}

impl LatencySnapshot {
    /// Number of recorded durations for `op`.
    pub fn count(&self, op: TimedOp) -> u64 {
        self.counts[op.index()].iter().sum()
    }

    /// Total recorded nanoseconds for `op`.
    pub fn sum_ns(&self, op: TimedOp) -> u64 {
        self.sums[op.index()]
    }

    /// Longest recorded duration for `op`, nanoseconds.
    pub fn max_ns(&self, op: TimedOp) -> u64 {
        self.maxes[op.index()]
    }

    /// Whether any op recorded anything.
    pub fn is_empty(&self) -> bool {
        ALL_TIMED_OPS.iter().all(|&op| self.count(op) == 0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) for `op`, reported as the upper
    /// bound of the bucket holding it (the HDR convention: an
    /// overestimate by at most half an octave). Returns 0 with no
    /// recordings; the overflow bucket reports the exact maximum.
    pub fn percentile_ns(&self, op: TimedOp, q: f64) -> u64 {
        let total = self.count(op);
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &c) in self.counts[op.index()].iter().enumerate() {
            seen += c;
            if seen >= target {
                return if b == LATENCY_BUCKETS - 1 {
                    self.max_ns(op)
                } else {
                    bucket_upper_ns(b)
                };
            }
        }
        self.max_ns(op)
    }

    /// Per-op difference against an earlier snapshot (bucket counts and
    /// sums subtract; maxes keep this snapshot's value — a max cannot be
    /// un-observed). The windowed view benches report from.
    pub fn minus(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        let mut out = *self;
        for i in 0..NUM_TIMED_OPS {
            for b in 0..LATENCY_BUCKETS {
                out.counts[i][b] = out.counts[i][b].wrapping_sub(earlier.counts[i][b]);
            }
            out.sums[i] = out.sums[i].wrapping_sub(earlier.sums[i]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counters;

    #[test]
    fn bucket_math_is_monotone_and_half_octave() {
        // Exhaustive boundary check: bucket_of is monotone in ns, and
        // every value lands strictly below its bucket's upper bound.
        let mut last = 0;
        for p in 0..40u32 {
            for ns in [1u64 << p, (1u64 << p) + 1, (3u64 << p) / 2, (1u64 << (p + 1)) - 1] {
                let b = bucket_of(ns);
                assert!(b >= last || b == LATENCY_BUCKETS - 1, "non-monotone at {ns}");
                last = last.max(b);
                assert!(ns < bucket_upper_ns(b), "{ns} >= ub({b})");
                if b > 0 {
                    assert!(ns >= bucket_upper_ns(b - 1), "{ns} < ub({})", b - 1);
                }
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(15), 0);
        assert_eq!(bucket_of(16), 1);
        assert_eq!(bucket_of(23), 1);
        assert_eq!(bucket_of(24), 2);
        assert_eq!(bucket_upper_ns(1), 24);
        assert_eq!(bucket_upper_ns(2), 32);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        // ~16s lands inside the table, not the overflow bucket.
        assert!(bucket_of(16_000_000_000) < LATENCY_BUCKETS - 1);
    }

    fn snapshot(h: &HistBlock) -> LatencySnapshot {
        let mut snap = LatencySnapshot::default();
        h.add_into(&mut snap);
        snap
    }

    #[test]
    fn record_snapshot_percentiles() {
        let h = HistBlock::default();
        for _ in 0..90 {
            h.record(TimedOp::Refill, 100);
        }
        for _ in 0..9 {
            h.record(TimedOp::Refill, 10_000);
        }
        h.record(TimedOp::Refill, 5_000_000);
        let s = snapshot(&h);
        assert_eq!(s.count(TimedOp::Refill), 100);
        assert_eq!(s.sum_ns(TimedOp::Refill), 9000 + 90_000 + 5_000_000);
        assert_eq!(s.max_ns(TimedOp::Refill), 5_000_000);
        let p50 = s.percentile_ns(TimedOp::Refill, 0.50);
        assert!((96..=128).contains(&p50), "p50 {p50}");
        let p99 = s.percentile_ns(TimedOp::Refill, 0.99);
        assert!((10_000..=16_384).contains(&p99), "p99 {p99}");
        assert_eq!(s.percentile_ns(TimedOp::Refill, 1.0), 6_291_456);
        assert_eq!(s.count(TimedOp::MeshPass), 0);
        assert_eq!(s.percentile_ns(TimedOp::MeshPass, 0.5), 0);
    }

    #[test]
    fn zero_all_clears_every_tier() {
        let h = Counters::default();
        h.record_slow(TimedOp::Refill, std::time::Instant::now(), 0);
        h.record_wait(TimedOp::MeshPass, 12345, 0);
        h.wipe_for_child();
        assert!(h.latency_snapshot().is_empty());
    }

    #[test]
    fn minus_windows_counts_not_maxes() {
        let h = HistBlock::default();
        h.record(TimedOp::MeshCopy, 100);
        let before = snapshot(&h);
        h.record(TimedOp::MeshCopy, 200);
        let window = snapshot(&h).minus(&before);
        assert_eq!(window.count(TimedOp::MeshCopy), 1);
        assert_eq!(window.sum_ns(TimedOp::MeshCopy), 200);
        assert_eq!(window.max_ns(TimedOp::MeshCopy), 200);
    }

    #[test]
    fn op_tables_agree() {
        for (i, op) in ALL_TIMED_OPS.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(TimedOp::from_u16(i as u16), Some(*op));
            assert!(op.prom_name().starts_with("mesh_"));
            assert!(op.prom_name().ends_with("_seconds"));
        }
        assert_eq!(TimedOp::from_u16(NUM_TIMED_OPS as u16), None);
    }
}
