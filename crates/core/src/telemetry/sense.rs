//! mesh-sense: the pressure/residency sensing layer.
//!
//! A 1 Hz (default) poll on the existing background thread reads three
//! kinds of external signal —
//!
//! 1. **OS memory pressure**: `/proc/pressure/memory` PSI `avg10`/`avg60`,
//! 2. **container limits**: cgroup v2 (`memory.max`/`memory.current`,
//!    located via `/proc/self/cgroup`) falling back to cgroup v1
//!    (`memory.limit_in_bytes`/`memory.usage_in_bytes`),
//! 3. **process RSS**: `/proc/self/smaps_rollup` falling back to
//!    `/proc/self/statm`,
//!
//! — combines them with the heap's own residency decomposition
//! ([`super::residency`]) and throughput counters, and appends one
//! [`SenseSnapshot`] to a telemetry [`Ring`] of the last
//! `MESH_SENSE_HISTORY` snapshots. Every source degrades gracefully:
//! absent files (non-Linux test stubs, locked-down containers) simply
//! leave their fields at the [`ABSENT`] sentinel and the poll carries on.
//!
//! A snapshot is one 17-word record of the ring. Polls take no lock: the
//! background thread's and those of rendered `sense` reports may run at
//! once, and a reader never sees a snapshot one of them is still writing.

use super::ring::Ring;
use crate::config::MeshConfig;
use crate::stats::EpochClock;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Sentinel for "source absent / unlimited" in snapshot fields.
pub const ABSENT: u64 = u64::MAX;

/// Words per snapshot record (one per [`SenseSnapshot`] field).
const SNAPSHOT_WORDS: usize = 17;

/// One periodic sense snapshot. All fields are plain `u64`s so the ring
/// can store them as atomic words; optional sources use [`ABSENT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenseSnapshot {
    /// Snapshot time, milliseconds since heap construction.
    pub at_ms: u64,
    /// Process RSS from the kernel ([`ABSENT`] when procfs is missing).
    pub rss_bytes: u64,
    /// Estimated resident bytes of the heap mapping, from the sampled
    /// `mincore` sweep (committed bytes when the sweep is disabled).
    pub est_resident_bytes: u64,
    /// Bytes in pages handed out as spans: the residency decomposition's
    /// live category, not the object bytes of
    /// [`HeapStats::live_bytes`](crate::HeapStats::live_bytes).
    pub live_bytes: u64,
    /// Committed heap bytes, [`HeapStats::heap_bytes`](crate::HeapStats::heap_bytes):
    /// committed pages × page size.
    pub heap_bytes: u64,
    /// Mapped bytes across all segments.
    pub mapped_bytes: u64,
    /// Freed-but-committed (dirty) bytes.
    pub free_dirty_bytes: u64,
    /// Released or never-touched (clean/fresh) bytes.
    pub free_clean_bytes: u64,
    /// Metadata/slack bytes.
    pub meta_bytes: u64,
    /// PSI `some avg10`, in thousandths of a percent ([`ABSENT`] = no PSI).
    pub psi_avg10_milli: u64,
    /// PSI `some avg60`, in thousandths of a percent ([`ABSENT`] = no PSI).
    pub psi_avg60_milli: u64,
    /// cgroup memory limit ([`ABSENT`] = none/unlimited).
    pub cgroup_limit_bytes: u64,
    /// cgroup memory usage ([`ABSENT`] = no cgroup accounting).
    pub cgroup_usage_bytes: u64,
    /// Cumulative allocations (consumers diff consecutive snapshots for
    /// throughput).
    pub mallocs: u64,
    /// Cumulative frees.
    pub frees: u64,
    /// Cumulative mesh passes.
    pub mesh_passes: u64,
    /// Cumulative pairs meshed.
    pub pairs_meshed: u64,
}

impl SenseSnapshot {
    fn to_words(self) -> [u64; SNAPSHOT_WORDS] {
        [
            self.at_ms,
            self.rss_bytes,
            self.est_resident_bytes,
            self.live_bytes,
            self.heap_bytes,
            self.mapped_bytes,
            self.free_dirty_bytes,
            self.free_clean_bytes,
            self.meta_bytes,
            self.psi_avg10_milli,
            self.psi_avg60_milli,
            self.cgroup_limit_bytes,
            self.cgroup_usage_bytes,
            self.mallocs,
            self.frees,
            self.mesh_passes,
            self.pairs_meshed,
        ]
    }

    fn from_words(w: [u64; SNAPSHOT_WORDS]) -> SenseSnapshot {
        SenseSnapshot {
            at_ms: w[0],
            rss_bytes: w[1],
            est_resident_bytes: w[2],
            live_bytes: w[3],
            heap_bytes: w[4],
            mapped_bytes: w[5],
            free_dirty_bytes: w[6],
            free_clean_bytes: w[7],
            meta_bytes: w[8],
            psi_avg10_milli: w[9],
            psi_avg60_milli: w[10],
            cgroup_limit_bytes: w[11],
            cgroup_usage_bytes: w[12],
            mallocs: w[13],
            frees: w[14],
            mesh_passes: w[15],
            pairs_meshed: w[16],
        }
    }

    /// Renders the snapshot as one JSON object; [`ABSENT`] fields become
    /// `null` so consumers need no sentinel knowledge.
    pub(crate) fn json(&self) -> String {
        fn opt(v: u64) -> String {
            if v == ABSENT {
                "null".to_string()
            } else {
                v.to_string()
            }
        }
        format!(
            "{{\"at_ms\":{},\"rss_bytes\":{},\"est_resident_bytes\":{},\
             \"live_bytes\":{},\"heap_bytes\":{},\"mapped_bytes\":{},\
             \"free_dirty_bytes\":{},\"free_clean_bytes\":{},\"meta_bytes\":{},\
             \"psi_avg10_milli\":{},\"psi_avg60_milli\":{},\
             \"cgroup_limit_bytes\":{},\"cgroup_usage_bytes\":{},\
             \"mallocs\":{},\"frees\":{},\"mesh_passes\":{},\"pairs_meshed\":{}}}",
            self.at_ms,
            opt(self.rss_bytes),
            self.est_resident_bytes,
            self.live_bytes,
            self.heap_bytes,
            self.mapped_bytes,
            self.free_dirty_bytes,
            self.free_clean_bytes,
            self.meta_bytes,
            opt(self.psi_avg10_milli),
            opt(self.psi_avg60_milli),
            opt(self.cgroup_limit_bytes),
            opt(self.cgroup_usage_bytes),
            self.mallocs,
            self.frees,
            self.mesh_passes,
            self.pairs_meshed,
        )
    }
}

/// External pressure signals, read fresh each poll.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureReading {
    /// PSI `some avg10` in milli-percent, if PSI is available.
    pub psi_avg10_milli: Option<u64>,
    /// PSI `some avg60` in milli-percent.
    pub psi_avg60_milli: Option<u64>,
    /// cgroup memory limit in bytes (`None` = no cgroup or unlimited).
    pub cgroup_limit_bytes: Option<u64>,
    /// cgroup memory usage in bytes.
    pub cgroup_usage_bytes: Option<u64>,
    /// Process RSS in bytes, if procfs is available.
    pub rss_bytes: Option<u64>,
}

/// Reads every pressure source once, degrading field-by-field.
pub fn read_pressure() -> PressureReading {
    let (psi_avg10_milli, psi_avg60_milli) = match read_psi() {
        Some((a10, a60)) => (Some(a10), Some(a60)),
        None => (None, None),
    };
    let (cgroup_limit_bytes, cgroup_usage_bytes) = read_cgroup_memory();
    PressureReading {
        psi_avg10_milli,
        psi_avg60_milli,
        cgroup_limit_bytes,
        cgroup_usage_bytes,
        rss_bytes: read_rss_bytes(),
    }
}

/// `/proc/pressure/memory` → (avg10, avg60) in milli-percent.
fn read_psi() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/pressure/memory").ok()?;
    parse_psi(&text)
}

/// Parses PSI text: the `some` line's `avg10=`/`avg60=` fields.
pub(crate) fn parse_psi(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("some"))?;
    let mut a10 = None;
    let mut a60 = None;
    for field in line.split_whitespace() {
        if let Some(v) = field.strip_prefix("avg10=") {
            a10 = parse_pct_milli(v);
        } else if let Some(v) = field.strip_prefix("avg60=") {
            a60 = parse_pct_milli(v);
        }
    }
    Some((a10?, a60?))
}

/// `"12.34"` → 12340 (percent in thousandths, no floating point).
pub(crate) fn parse_pct_milli(s: &str) -> Option<u64> {
    let (int, frac) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    let int: u64 = int.parse().ok()?;
    let mut milli = 0u64;
    for (i, c) in frac.chars().take(3).enumerate() {
        milli += c.to_digit(10)? as u64 * 10u64.pow(2 - i as u32);
    }
    Some(int * 1000 + milli)
}

/// cgroup memory (limit, usage): v2 via `/proc/self/cgroup`, then the v2
/// root files, then v1. `"max"` (unlimited) reads as `None` for the limit.
fn read_cgroup_memory() -> (Option<u64>, Option<u64>) {
    // cgroup v2: /proc/self/cgroup has a "0::<path>" line.
    if let Ok(s) = std::fs::read_to_string("/proc/self/cgroup") {
        if let Some(path) = s.lines().find_map(|l| l.strip_prefix("0::")) {
            let dir = format!("/sys/fs/cgroup{}", path.trim_end());
            let limit = read_cgroup_value(&format!("{dir}/memory.max"));
            let usage = read_cgroup_value(&format!("{dir}/memory.current"));
            if limit.is_some() || usage.is_some() {
                return (limit.flatten(), usage.flatten());
            }
            // Namespaced path not visible from here: try the v2 root.
            let limit = read_cgroup_value("/sys/fs/cgroup/memory.max");
            let usage = read_cgroup_value("/sys/fs/cgroup/memory.current");
            if limit.is_some() || usage.is_some() {
                return (limit.flatten(), usage.flatten());
            }
        }
    }
    // cgroup v1 memory controller.
    let limit = read_cgroup_value("/sys/fs/cgroup/memory/memory.limit_in_bytes");
    let usage = read_cgroup_value("/sys/fs/cgroup/memory/memory.usage_in_bytes");
    (limit.flatten(), usage.flatten())
}

/// Reads one cgroup scalar file. Outer `None` = file absent; inner `None`
/// = present but unlimited (`"max"` or the v1 "no limit" huge value).
fn read_cgroup_value(path: &str) -> Option<Option<u64>> {
    let s = std::fs::read_to_string(path).ok()?;
    Some(parse_cgroup_value(&s))
}

/// `"max"` and v1's PAGE-rounded `i64::MAX` both mean "unlimited".
pub(crate) fn parse_cgroup_value(s: &str) -> Option<u64> {
    let t = s.trim();
    if t == "max" {
        return None;
    }
    let v: u64 = t.parse().ok()?;
    // cgroup v1 reports "no limit" as a value near i64::MAX.
    (v < (1 << 62)).then_some(v)
}

/// Process RSS: `smaps_rollup` (exact) falling back to `statm` (pages).
fn read_rss_bytes() -> Option<u64> {
    if let Ok(s) = std::fs::read_to_string("/proc/self/smaps_rollup") {
        if let Some(kb) = parse_smaps_rss_kb(&s) {
            return Some(kb * 1024);
        }
    }
    crate::sys::process_rss_kb().map(|kb| kb * 1024)
}

/// The `Rss:` line of an smaps rollup, in kB.
pub(crate) fn parse_smaps_rss_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("Rss:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Per-heap sensing state: the poll clock, the snapshot ring, and the
/// `mincore` sweep's persistent cursor. `None` on the heap when sensing
/// is off (`MESH_SENSE_INTERVAL_MS=0`).
#[derive(Debug)]
pub struct SenseState {
    /// Poll interval in nanoseconds. Atomic so mesh-ctl's
    /// `set sense_interval_ms` can retune a live process; the background
    /// thread re-reads it at every park computation.
    interval_ns: AtomicU64,
    mincore_pages: usize,
    /// When the background thread last polled; starts at the heap's
    /// birth.
    last_poll: EpochClock,
    ring: Ring<SNAPSHOT_WORDS>,
    /// Mapped-page-sequence position where the next sweep starts. Each
    /// sweep claims its window with one `fetch_add`, so two concurrent
    /// polls sample different pages.
    sweep_cursor: AtomicUsize,
    /// Smoothed resident fraction of the mapping, fixed-point /2^16;
    /// [`ABSENT`] until the first successful sweep.
    resident_ratio_fp: AtomicU64,
}

impl SenseState {
    /// Builds sensing state for `config`, or `None` when sensing is off.
    pub(crate) fn new(config: &MeshConfig) -> Option<SenseState> {
        let interval = config.sense_interval?;
        let history = config.sense_history.max(2);
        Some(SenseState {
            interval_ns: AtomicU64::new(interval.as_nanos() as u64),
            mincore_pages: config.sense_mincore_pages,
            last_poll: EpochClock::started_at(0),
            ring: Ring::new(history),
            sweep_cursor: AtomicUsize::new(0),
            resident_ratio_fp: AtomicU64::new(ABSENT),
        })
    }

    /// The poll interval.
    pub fn interval(&self) -> Duration {
        Duration::from_nanos(self.interval_ns.load(Ordering::Relaxed))
    }

    /// Retunes the poll interval at runtime (mesh-ctl
    /// `set sense_interval_ms`, which refuses 0: sensing cannot be
    /// turned off this way, only made slow or fast). The new deadline
    /// takes effect at the next park computation.
    pub fn set_interval(&self, interval: Duration) {
        self.interval_ns.store(interval.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Ring capacity in snapshots.
    pub fn history(&self) -> usize {
        self.ring.capacity()
    }

    /// Pages the `mincore` sweep may touch per poll (0 = sweep off).
    pub fn mincore_page_budget(&self) -> usize {
        self.mincore_pages
    }

    /// Whether a poll is due at `now_ns` on the heap's epoch; claims the
    /// slot (the clock restarts).
    pub(crate) fn take_poll_due(&self, now_ns: u64) -> bool {
        self.last_poll.claim(now_ns, self.interval())
    }

    /// Time from `now_ns` until the poll clock next expires: the
    /// background thread's park bound.
    pub(crate) fn time_until_poll(&self, now_ns: u64) -> Duration {
        self.last_poll.remaining(now_ns, self.interval())
    }

    /// Appends one snapshot. Lock-free; any thread may push.
    pub(crate) fn push(&self, snap: &SenseSnapshot) {
        self.ring.push(snap.to_words());
    }

    /// The retained snapshots, oldest first. Lock-free; a snapshot still
    /// being written is left out rather than torn.
    pub fn snapshots(&self) -> Vec<SenseSnapshot> {
        self.ring.records().map(SenseSnapshot::from_words).collect()
    }

    /// The most recent complete snapshot, if any.
    pub fn latest(&self) -> Option<SenseSnapshot> {
        self.ring.records().last().map(SenseSnapshot::from_words)
    }

    /// Resumes the `mincore` sweep: samples up to the budget, folds the
    /// measured resident fraction into the smoothed ratio, and returns
    /// the estimated resident bytes for `mapped_bytes` of mapping.
    pub(crate) fn sweep(
        &self,
        base: usize,
        segs: &[crate::segment::SegmentStats],
        mapped_bytes: u64,
        committed_bytes: u64,
    ) -> u64 {
        if self.mincore_pages == 0 {
            return committed_bytes;
        }
        let cursor = self
            .sweep_cursor
            .fetch_add(self.mincore_pages, Ordering::Relaxed);
        let (sampled, resident) =
            super::residency::sample_residency(base, segs, cursor, self.mincore_pages);
        if sampled == 0 {
            let prev = self.resident_ratio_fp.load(Ordering::Relaxed);
            if prev == ABSENT {
                return committed_bytes;
            }
            return (mapped_bytes * prev) >> 16;
        }
        let measured = ((resident as u64) << 16) / sampled as u64;
        let prev = self.resident_ratio_fp.load(Ordering::Relaxed);
        // EWMA (α = ½) so one unlucky sample window doesn't whipsaw the
        // estimate; seeded directly by the first measurement.
        let ratio = if prev == ABSENT { measured } else { (prev + measured) / 2 };
        self.resident_ratio_fp.store(ratio, Ordering::Relaxed);
        (mapped_bytes * ratio) >> 16
    }

    /// Forgets all snapshots and sweep state: a forked child's history
    /// belongs to its parent.
    pub(crate) fn wipe_for_child(&self) {
        self.ring.wipe();
        self.sweep_cursor.store(0, Ordering::Relaxed);
        self.resident_ratio_fp.store(ABSENT, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_ms: u64) -> SenseSnapshot {
        SenseSnapshot {
            at_ms,
            rss_bytes: 1000 + at_ms,
            est_resident_bytes: 2000,
            live_bytes: 3000,
            heap_bytes: 2500,
            mapped_bytes: 8000,
            free_dirty_bytes: 1000,
            free_clean_bytes: 3500,
            meta_bytes: 500,
            psi_avg10_milli: ABSENT,
            psi_avg60_milli: ABSENT,
            cgroup_limit_bytes: ABSENT,
            cgroup_usage_bytes: ABSENT,
            mallocs: at_ms * 10,
            frees: at_ms * 9,
            mesh_passes: 1,
            pairs_meshed: 2,
        }
    }

    fn state(history: usize) -> SenseState {
        SenseState::new(
            &MeshConfig::default()
                .sense_interval(Some(Duration::from_millis(5)))
                .sense_history(history),
        )
        .unwrap()
    }

    #[test]
    fn off_config_builds_no_state() {
        assert!(SenseState::new(&MeshConfig::default().sense_interval(None)).is_none());
        let s = SenseState::new(&MeshConfig::default()).unwrap();
        assert_eq!(s.interval(), Duration::from_millis(1000));
        assert_eq!(s.history(), 120);
        assert_eq!(s.mincore_page_budget(), 256);
    }

    #[test]
    fn ring_roundtrip_and_overwrite() {
        let s = state(4);
        assert!(s.snapshots().is_empty());
        assert_eq!(s.latest(), None);
        for i in 0..6 {
            s.push(&snap(i));
        }
        assert_eq!(s.ring.pushed(), 6);
        let got = s.snapshots();
        assert_eq!(got.len(), 4, "ring keeps the last `history` snapshots");
        assert_eq!(got[0].at_ms, 2, "oldest retained");
        assert_eq!(got[3].at_ms, 5);
        assert_eq!(s.latest().unwrap().at_ms, 5);
        let w = snap(9).to_words();
        assert_eq!(
            SenseSnapshot::from_words(w),
            snap(9),
            "word codec is lossless"
        );
        s.wipe_for_child();
        assert!(s.snapshots().is_empty());
    }

    #[test]
    fn poll_clock_claims_and_bounds() {
        let s = state(4);
        let ms = 1_000_000;
        assert!(!s.take_poll_due(2 * ms), "fresh clock");
        assert_eq!(s.time_until_poll(2 * ms), Duration::from_millis(3));
        assert!(s.take_poll_due(7 * ms));
        assert!(!s.take_poll_due(7 * ms), "claiming restarts the clock");
        assert_eq!(s.time_until_poll(7 * ms), Duration::from_millis(5));
    }

    #[test]
    fn snapshot_json_nulls_absent_fields() {
        let j = snap(3).json();
        assert!(j.contains("\"at_ms\":3"));
        assert!(j.contains("\"psi_avg10_milli\":null"));
        assert!(j.contains("\"cgroup_limit_bytes\":null"));
        assert!(j.contains("\"rss_bytes\":1003"));
        assert!(j.contains("\"mapped_bytes\":8000"));
    }

    #[test]
    fn psi_and_smaps_parsers() {
        let psi = "some avg10=1.25 avg60=0.40 avg300=0.10 total=12345\n\
                   full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n";
        assert_eq!(parse_psi(psi), Some((1250, 400)));
        assert_eq!(parse_psi("full avg10=0.00 avg60=0.00\n"), None, "no some line");
        assert_eq!(parse_psi("some avg10=x avg60=0.1"), None, "malformed field");
        assert_eq!(parse_pct_milli("0.00"), Some(0));
        assert_eq!(parse_pct_milli("12"), Some(12_000));
        assert_eq!(parse_pct_milli("3.1"), Some(3_100));
        assert_eq!(parse_pct_milli("3.14159"), Some(3_141), "extra digits truncated");
        assert_eq!(parse_pct_milli(""), None);
        let smaps = "Rss:            5124 kB\nPss:            5000 kB\n";
        assert_eq!(parse_smaps_rss_kb(smaps), Some(5124));
        assert_eq!(parse_smaps_rss_kb("Pss: 1 kB\n"), None);
    }

    #[test]
    fn cgroup_value_parser() {
        assert_eq!(parse_cgroup_value("max\n"), None, "unlimited");
        assert_eq!(parse_cgroup_value("1073741824\n"), Some(1 << 30));
        assert_eq!(
            parse_cgroup_value("9223372036854771712\n"),
            None,
            "v1 'no limit' sentinel"
        );
        assert_eq!(parse_cgroup_value("garbage"), None);
    }

    #[test]
    fn read_pressure_degrades_gracefully() {
        // Whatever this kernel/container exposes, reading must not panic
        // and present fields must be sane.
        let p = read_pressure();
        if let Some(rss) = p.rss_bytes {
            assert!(rss > 0);
        }
        if let (Some(limit), Some(usage)) = (p.cgroup_limit_bytes, p.cgroup_usage_bytes) {
            assert!(limit > 0);
            assert!(usage < (1 << 62));
        }
    }

    #[test]
    fn sweep_estimates_resident_bytes() {
        use crate::size_classes::PAGE_SIZE;
        let s = SenseState::new(
            &MeshConfig::default()
                .sense_interval(Some(Duration::from_millis(5)))
                .sense_mincore_pages(4),
        )
        .unwrap();
        let f = crate::sys::MemFile::create(8 * PAGE_SIZE).unwrap();
        let base = crate::sys::map_file_shared(&f).unwrap() as usize;
        unsafe { std::ptr::write_bytes(base as *mut u8, 1, 8 * PAGE_SIZE) };
        let seg = crate::segment::SegmentStats {
            id: 0,
            start_page: 0,
            pages: 8,
            fresh_pages: 0,
            committed_pages: 8,
            dirty_pages: 0,
            clean_pages: 0,
            outstanding_pages: 8,
            retirable: false,
        };
        let mapped = 8 * PAGE_SIZE as u64;
        let est = s.sweep(base, &[seg], mapped, mapped);
        assert!(est > 0, "touched mapping must estimate resident");
        assert!(est <= mapped);
        // Budget 0 falls back to committed bytes.
        let s0 = SenseState::new(
            &MeshConfig::default()
                .sense_interval(Some(Duration::from_millis(5)))
                .sense_mincore_pages(0),
        )
        .unwrap();
        assert_eq!(s0.sweep(base, &[seg], mapped, 1234), 1234);
        unsafe { crate::sys::unmap(base as *mut u8, 8 * PAGE_SIZE) };
    }
}
