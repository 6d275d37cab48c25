//! mesh-sense: the pressure/residency sensing layer.
//!
//! A poll reads three kinds of external signal —
//!
//! 1. **OS memory pressure**: `/proc/pressure/memory` PSI `avg10`/`avg60`,
//! 2. **container limits**: cgroup v2 (`memory.max`/`memory.current`,
//!    located via `/proc/self/cgroup`) falling back to cgroup v1
//!    (`memory.limit_in_bytes`/`memory.usage_in_bytes`),
//! 3. **process RSS**: `/proc/self/status`, each heap page counted once,
//!
//! — and the heap's throughput counters into one [`SenseSnapshot`]; the
//! heap's own figures are the residency decomposition
//! ([`super::residency`]) taken beside it. Every source degrades
//! gracefully: absent files (non-Linux test stubs, locked-down
//! containers) simply leave their fields at the [`ABSENT`] sentinel and
//! the poll carries on.
//!
//! Polls happen on demand: every `sense` or `prom` render takes one,
//! whatever asked for it (the API, mesh-ctl, `SIGUSR2`, the exit hook),
//! and keeps nothing. Nothing polls on a clock, so a heap nobody asks
//! about reads no procfs file and needs no thread.

use super::fields::{self, gauge, num, Field};

/// Sentinel for "source absent / unlimited" in snapshot fields.
pub const ABSENT: u64 = u64::MAX;

/// What one poll reads itself: the host's readings, the heap's
/// cumulative counters and what the poll cost. Optional readings use
/// [`ABSENT`]. Every view renders it through one field table,
/// `SENSE_FIELDS`.
#[derive(Debug, Default)]
pub(crate) struct SenseSnapshot {
    /// Process RSS with each heap page counted once ([`read_pressure`];
    /// [`ABSENT`] when procfs is missing).
    pub rss_bytes: u64,
    /// PSI `some avg10`, in thousandths of a percent ([`ABSENT`] = no PSI).
    pub psi_avg10_milli: u64,
    /// PSI `some avg60`, in thousandths of a percent ([`ABSENT`] = no PSI).
    pub psi_avg60_milli: u64,
    /// cgroup memory limit ([`ABSENT`] = none/unlimited).
    pub cgroup_limit_bytes: u64,
    /// cgroup memory usage ([`ABSENT`] = no cgroup accounting).
    pub cgroup_usage_bytes: u64,
    /// Cumulative allocations (consumers diff consecutive documents for
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

/// Every field's JSON member and (for the host readings) Prometheus
/// gauge. The readings a host may not offer are nullable: [`ABSENT`]
/// renders `null` and drops the gauge.
#[rustfmt::skip]
pub(crate) static SENSE_FIELDS: [Field<SenseSnapshot>; 10] = [
    num!(rss_bytes, nullable: true, prom: gauge("mesh_rss_bytes", "Process resident bytes, each heap page counted once.")),
    num!(psi_avg10_milli, nullable: true, prom: gauge("mesh_pressure_psi_avg10",
          "Memory PSI some avg10 percentage from /proc/pressure/memory.").percent()),
    num!(psi_avg60_milli, nullable: true, prom: gauge("mesh_pressure_psi_avg60",
          "Memory PSI some avg60 percentage from /proc/pressure/memory.").percent()),
    num!(cgroup_limit_bytes, nullable: true,
          prom: gauge("mesh_cgroup_limit_bytes", "Effective cgroup memory limit (absent when unlimited).")),
    num!(cgroup_usage_bytes, nullable: true,
          prom: gauge("mesh_cgroup_usage_bytes", "Cgroup memory usage reported by the controller.")),
    num!(mallocs),
    num!(frees),
    num!(mesh_passes),
    num!(pairs_meshed),
    num!(poll_ns),
];

impl SenseSnapshot {
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
    /// Process RSS in bytes, each heap page counted once, if procfs is
    /// available.
    pub rss_bytes: Option<u64>,
}

/// Reads every pressure source once, degrading field-by-field.
/// `file_bytes` is what the heap's file holds (`None` once its
/// descriptor is lost).
pub fn read_pressure(file_bytes: Option<u64>) -> PressureReading {
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
        rss_bytes: std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|text| parse_status_rss(&text, file_bytes)),
    }
}

/// The resident bytes of a `/proc/<pid>/status` text, each heap page
/// counted once: `RssAnon + RssFile` plus `file_bytes`, what the heap's
/// file holds. `RssShmem` is left out, since it counts a meshed page once
/// per mapping of it (and so does `VmRSS`, the fallback when `file_bytes`
/// or the split is absent).
pub(crate) fn parse_status_rss(text: &str, file_bytes: Option<u64>) -> Option<u64> {
    let kb = |key: &str| -> Option<u64> {
        let value = text.lines().find_map(|l| l.strip_prefix(key))?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    };
    let split = || Some((kb("RssAnon:")? + kb("RssFile:")?) * 1024 + file_bytes?);
    split().or_else(|| Some(kb("VmRSS:")? * 1024))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_nulls_absent_fields() {
        let snap = SenseSnapshot {
            rss_bytes: 1003,
            psi_avg10_milli: ABSENT,
            psi_avg60_milli: ABSENT,
            cgroup_limit_bytes: ABSENT,
            cgroup_usage_bytes: ABSENT,
            mallocs: 30,
            ..Default::default()
        };
        let j = snap.json();
        assert!(j.contains("\"psi_avg10_milli\":null"));
        assert!(j.contains("\"cgroup_limit_bytes\":null"));
        assert!(j.contains("\"rss_bytes\":1003"));
        assert!(j.contains("\"mallocs\":30"));
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
    fn status_rss_parser() {
        let status = "Name:\tx\nVmRSS:\t   10240 kB\nRssAnon:\t    4096 kB\n\
                      RssFile:\t    1024 kB\nRssShmem:\t    5120 kB\n";
        assert_eq!(parse_status_rss(status, Some(8192)), Some((5120 << 10) + 8192));
        assert_eq!(parse_status_rss(status, None), Some(10240 << 10), "no file count");
        let old = "VmRSS:\t  300 kB\n";
        assert_eq!(parse_status_rss(old, Some(1)), Some(300 << 10), "no split");
        assert_eq!(parse_status_rss("", Some(1)), None);
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
        let p = read_pressure(Some(0));
        if let Some(rss) = p.rss_bytes {
            assert!(rss > 0);
        }
        if let (Some(limit), Some(usage)) = (p.cgroup_limit_bytes, p.cgroup_usage_bytes) {
            assert!(limit > 0);
            assert!(usage < (1 << 62));
        }
    }
}
