//! mesh-sense: the pressure/residency sensing layer.
//!
//! A poll reads three kinds of external signal —
//!
//! 1. **OS memory pressure**: `/proc/pressure/memory` PSI `avg10`/`avg60`,
//! 2. **container limits**: cgroup v2 (`memory.max`/`memory.current`,
//!    located via `/proc/self/cgroup`) falling back to cgroup v1
//!    (`memory.limit_in_bytes`/`memory.usage_in_bytes`),
//! 3. **process RSS**: `/proc/self/statm`,
//!
//! — combines them with the heap's own residency decomposition
//! ([`super::residency`]) and throughput counters, and appends one
//! [`SenseSnapshot`] to a telemetry [`Ring`] of the last
//! `MESH_SENSE_HISTORY` snapshots. Every source degrades gracefully:
//! absent files (non-Linux test stubs, locked-down containers) simply
//! leave their fields at the [`ABSENT`] sentinel and the poll carries on.
//!
//! Polls happen on demand: every `sense` or `prom` render takes one,
//! whatever asked for it (the API, mesh-ctl, `SIGUSR2`, the exit hook).
//! Nothing polls on a clock, so a heap nobody asks about reads no procfs
//! file and needs no thread.
//!
//! A snapshot is one 18-word record of the ring. Polls take no lock:
//! renders on several threads may poll at once, and a reader never sees
//! a snapshot one of them is still writing.

use super::fields::{self, gauge, word, Field};
use super::ring::Ring;
use crate::config::MeshConfig;

/// Sentinel for "source absent / unlimited" in snapshot fields.
pub const ABSENT: u64 = u64::MAX;

/// Words per snapshot record (one per [`SENSE_FIELDS`] row).
const SNAPSHOT_WORDS: usize = 18;

/// One sense snapshot. All fields are plain `u64`s so the ring
/// can store them as atomic words; optional sources use [`ABSENT`]. Every
/// view renders it through one field table, `SENSE_FIELDS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenseSnapshot {
    /// Snapshot time, milliseconds since heap construction.
    pub at_ms: u64,
    /// Process RSS from the kernel ([`ABSENT`] when procfs is missing).
    pub rss_bytes: u64,
    /// Bytes the heap's memory file holds, by the kernel's count (one
    /// `fstat`): the heap's exact physical footprint.
    pub file_bytes: u64,
    /// Bytes in pages handed out as spans: the residency decomposition's
    /// live category, not the object bytes of
    /// [`HeapStats::live_bytes`](crate::HeapStats::live_bytes).
    pub live_bytes: u64,
    /// Committed heap bytes, [`HeapStats::heap_bytes`](crate::HeapStats::heap_bytes):
    /// committed pages × page size.
    pub heap_bytes: u64,
    /// Bytes below the arena's bump frontier.
    pub mapped_bytes: u64,
    /// Freed-but-committed (dirty) bytes.
    pub free_dirty_bytes: u64,
    /// Released (clean or parked) bytes below the frontier.
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
    /// What taking this snapshot cost, in nanoseconds: the procfs reads,
    /// the residency decomposition and the `fstat`.
    pub poll_ns: u64,
}

/// Every field's ring word, JSON member and (for the external readings)
/// Prometheus gauge, in that order. The readings a host may not offer are
/// nullable: [`ABSENT`] renders `null` and drops the gauge.
#[rustfmt::skip]
pub(crate) static SENSE_FIELDS: [Field<SenseSnapshot>; SNAPSHOT_WORDS] = [
    word!(at_ms),
    word!(rss_bytes, nullable: true, prom: gauge("mesh_rss_bytes", "Process resident set size from /proc.")),
    word!(file_bytes,
          prom: gauge("mesh_file_bytes", "Bytes the heap's memory files hold (fstat st_blocks).")),
    word!(live_bytes),
    word!(heap_bytes),
    word!(mapped_bytes),
    word!(free_dirty_bytes),
    word!(free_clean_bytes),
    word!(meta_bytes),
    word!(psi_avg10_milli, nullable: true, prom: gauge("mesh_pressure_psi_avg10",
          "Memory PSI some avg10 percentage from /proc/pressure/memory.").percent()),
    word!(psi_avg60_milli, nullable: true, prom: gauge("mesh_pressure_psi_avg60",
          "Memory PSI some avg60 percentage from /proc/pressure/memory.").percent()),
    word!(cgroup_limit_bytes, nullable: true,
          prom: gauge("mesh_cgroup_limit_bytes", "Effective cgroup memory limit (absent when unlimited).")),
    word!(cgroup_usage_bytes, nullable: true,
          prom: gauge("mesh_cgroup_usage_bytes", "Cgroup memory usage reported by the controller.")),
    word!(mallocs),
    word!(frees),
    word!(mesh_passes),
    word!(pairs_meshed),
    word!(poll_ns),
];

impl SenseSnapshot {
    fn to_words(self) -> [u64; SNAPSHOT_WORDS] {
        fields::to_words(&SENSE_FIELDS, &self)
    }

    fn from_words(w: [u64; SNAPSHOT_WORDS]) -> SenseSnapshot {
        fields::from_words(&SENSE_FIELDS, w)
    }

    /// Renders the snapshot as one JSON object; [`ABSENT`] readings
    /// become `null` so consumers need no sentinel knowledge.
    pub(crate) fn json(&self) -> String {
        fields::object(&SENSE_FIELDS, self)
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
        rss_bytes: crate::sys::process_rss_kb().map(|kb| kb * 1024),
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

/// Per-heap sensing state: the snapshot ring.
#[derive(Debug)]
pub struct SenseState {
    ring: Ring<SNAPSHOT_WORDS>,
}

impl SenseState {
    /// Builds sensing state for `config`.
    pub(crate) fn new(config: &MeshConfig) -> SenseState {
        SenseState {
            ring: Ring::new(config.sense_history.max(2)),
        }
    }

    /// Ring capacity in snapshots.
    pub fn history(&self) -> usize {
        self.ring.capacity()
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

    /// Forgets all snapshots: a forked child's history belongs to its
    /// parent.
    pub(crate) fn wipe_for_child(&self) {
        self.ring.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_ms: u64) -> SenseSnapshot {
        SenseSnapshot {
            at_ms,
            rss_bytes: 1000 + at_ms,
            file_bytes: 2000,
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
            poll_ns: 7,
        }
    }

    fn state(history: usize) -> SenseState {
        SenseState::new(&MeshConfig::default().sense_history(history))
    }

    #[test]
    fn state_takes_its_sizes_from_config() {
        let s = SenseState::new(&MeshConfig::default());
        assert_eq!(s.history(), 120);
        assert_eq!(state(16).history(), 16);
        assert_eq!(state(1).history(), 2, "a ring holds at least two");
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
    fn snapshot_json_nulls_absent_fields() {
        let j = snap(3).json();
        assert!(j.contains("\"at_ms\":3"));
        assert!(j.contains("\"psi_avg10_milli\":null"));
        assert!(j.contains("\"cgroup_limit_bytes\":null"));
        assert!(j.contains("\"rss_bytes\":1003"));
        assert!(j.contains("\"mapped_bytes\":8000"));
    }

    #[test]
    fn psi_parser() {
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
}
