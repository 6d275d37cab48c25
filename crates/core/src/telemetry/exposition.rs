//! Exposition: Prometheus-style text and the JSON heap-profile dump.
//!
//! Both formats are assembled as plain strings (no serde in the offline
//! build) from data the caller already snapshotted — nothing here takes a
//! heap lock.
//!
//! ## Profile dump schema (version 1)
//!
//! ```json
//! {
//!   "mesh_profile_version": 1,
//!   "uptime_ms": 1234,
//!   "sample_bytes": 524288,
//!   "samples": 123, "samples_dropped": 0, "sampled_frees": 100,
//!   "sites": 7, "live_samples": 23,
//!   "live_bytes_exact": 1048576,
//!   "live_bytes_estimate": 1012345,
//!   "entries": [
//!     {"site": 17, "frames": ["0x55d0c0ffee00", "…"],
//!      "live_bytes": 900000, "live_samples": 20,
//!      "alloc_bytes": 5000000, "alloc_samples": 110,
//!      "freed_bytes": 4100000, "free_samples": 90}
//!   ]
//! }
//! ```
//!
//! `entries` is sorted by `live_bytes` descending — entry 0 is the top
//! leak suspect. `frames` are raw return addresses (innermost first),
//! hex-encoded; symbolize offline against `/proc/<pid>/maps`. An entry
//! with `"site": 4294967295` and empty `frames` is the overflow
//! catch-all. `*_bytes` fields are unbiased estimates (see the sampling
//! math in DESIGN.md); `live_bytes_exact` is the allocator's exact
//! counter for cross-checking the estimator.

use super::{ProfileStats, SiteSnapshot};
use crate::harden::ALL_HARDEN_KINDS;
use crate::stats::HeapStats;
use crate::telemetry::histogram::{bucket_upper_ns, LatencySnapshot, ALL_TIMED_OPS, LATENCY_BUCKETS};
use crate::telemetry::{HeapSpectrum, SenseSnapshot, ABSENT, ALL_REJECT_REASONS, REJECT_REASONS};

/// Renders the version-1 JSON heap profile.
pub(crate) fn profile_json(
    prof: &ProfileStats,
    entries: &[SiteSnapshot],
    live_bytes_exact: usize,
    uptime_ms: u64,
) -> String {
    let mut out = String::with_capacity(256 + entries.len() * 160);
    out.push_str(&format!(
        "{{\"mesh_profile_version\":1,\"uptime_ms\":{uptime_ms},\"sample_bytes\":{},\
         \"samples\":{},\"samples_dropped\":{},\"sampled_frees\":{},\
         \"sites\":{},\"live_samples\":{},\
         \"live_bytes_exact\":{},\"live_bytes_estimate\":{},\"entries\":[",
        prof.sample_bytes,
        prof.samples,
        prof.samples_dropped,
        prof.sampled_frees,
        prof.sites,
        prof.live_samples,
        live_bytes_exact,
        prof.live_bytes_estimate,
    ));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let frames: Vec<String> = e.frames.iter().map(|f| format!("\"{f:#x}\"")).collect();
        out.push_str(&format!(
            "{{\"site\":{},\"frames\":[{}],\
             \"live_bytes\":{},\"live_samples\":{},\
             \"alloc_bytes\":{},\"alloc_samples\":{},\
             \"freed_bytes\":{},\"free_samples\":{}}}",
            e.site,
            frames.join(","),
            e.live_bytes(),
            e.live_samples(),
            e.alloc_bytes,
            e.alloc_samples,
            e.freed_bytes,
            e.free_samples,
        ));
    }
    out.push_str("]}");
    out
}

/// Appends one Prometheus metric with `# HELP` and `# TYPE` headers.
fn metric(out: &mut String, name: &str, kind: &str, help: &str, value: impl std::fmt::Display) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Formats nanoseconds as a Prometheus seconds value (plain decimal;
/// Rust's `f64` `Display` never uses exponent notation).
fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// Renders the heap's state as Prometheus text-format metrics: the
/// [`HeapStats`] counters/gauges, the slow-path latency histograms, the
/// per-class occupancy spectrum, the meshing-effectiveness reject
/// totals, (when sensing) the latest pressure/residency snapshot, and
/// (when profiling) the sampler's own summary.
pub(crate) fn prom_text(
    stats: &HeapStats,
    prof: Option<&ProfileStats>,
    sense: Option<&SenseSnapshot>,
    rejects: &[u64; REJECT_REASONS],
) -> String {
    let mut out = String::with_capacity(8192);
    let counters: &[(&str, &str, u64)] = &[
        ("mesh_mallocs_total", "Successful allocations.", stats.mallocs),
        ("mesh_frees_total", "Frees, all paths.", stats.frees),
        (
            "mesh_remote_frees_total",
            "Frees routed through the global heap.",
            stats.remote_frees,
        ),
        (
            "mesh_invalid_frees_total",
            "Frees of pointers the heap does not own (discarded).",
            stats.invalid_frees,
        ),
        (
            "mesh_double_frees_total",
            "Frees of already-free objects (discarded).",
            stats.double_frees,
        ),
        (
            "mesh_large_allocs_total",
            "Allocations above the largest size class.",
            stats.large_allocs,
        ),
        ("mesh_mesh_passes_total", "Completed meshing passes.", stats.mesh_passes),
        ("mesh_spans_meshed_total", "Span pairs merged by meshing.", stats.spans_meshed),
        (
            "mesh_mesh_pages_released_total",
            "Physical pages released by meshing.",
            stats.mesh_pages_released,
        ),
        (
            "mesh_mesh_bytes_copied_total",
            "Object bytes copied while meshing.",
            stats.mesh_bytes_copied,
        ),
        (
            "mesh_dirty_purges_total",
            "Dirty-page purge events.",
            stats.dirty_purges,
        ),
        (
            "mesh_pages_purged_total",
            "Pages released by dirty purges.",
            stats.pages_purged,
        ),
        (
            "mesh_refills_total",
            "Shuffle-vector refills (one class-lock acquisition each).",
            stats.refills,
        ),
        (
            "mesh_remote_free_queued_total",
            "Retired, always 0: non-local frees are not queued.",
            stats.remote_free_queued,
        ),
        (
            "mesh_remote_free_drained_total",
            "Retired, always 0: non-local frees are not queued.",
            stats.remote_free_drained,
        ),
        (
            "mesh_reallocs_in_place_total",
            "realloc calls satisfied without moving the allocation.",
            stats.reallocs_in_place,
        ),
        ("mesh_forks_total", "Heap privatizations in forked children.", stats.forks),
        (
            "mesh_transfer_hits_total",
            "Retired, always 0: there is no transfer cache.",
            stats.transfer_hits,
        ),
        (
            "mesh_transfer_misses_total",
            "Retired, always 0: there is no transfer cache.",
            stats.transfer_misses,
        ),
        (
            "mesh_transfer_spills_total",
            "Retired, always 0: there is no transfer cache.",
            stats.transfer_spills,
        ),
        (
            "mesh_remote_free_batches_total",
            "Retired, always 0: non-local frees are not queued.",
            stats.remote_free_batches,
        ),
        (
            "mesh_segments_created_total",
            "Segments mapped over the heap's lifetime.",
            stats.segments_created,
        ),
        (
            "mesh_segments_retired_total",
            "Segments unmapped after all their pages went clean.",
            stats.segments_retired,
        ),
    ];
    for &(name, help, value) in counters {
        metric(&mut out, name, "counter", help, value);
    }
    metric(
        &mut out,
        "mesh_live_bytes",
        "gauge",
        "Live application bytes (allocated minus freed).",
        stats.live_bytes,
    );
    metric(
        &mut out,
        "mesh_heap_bytes",
        "gauge",
        "Committed pages in bytes - the physical heap footprint.",
        stats.heap_bytes(),
    );
    metric(
        &mut out,
        "mesh_heap_peak_bytes",
        "gauge",
        "Peak committed bytes over the heap's lifetime.",
        stats.peak_heap_bytes(),
    );
    // Renamed series kept one release for dashboards still scraping it.
    out.push_str(
        "# EOL mesh_heap_bytes_peak is a deprecated alias of mesh_heap_peak_bytes, \
         removal no earlier than 2026-12-01\n",
    );
    metric(
        &mut out,
        "mesh_heap_bytes_peak",
        "gauge",
        "Deprecated alias of mesh_heap_peak_bytes.",
        stats.peak_heap_bytes(),
    );
    metric(
        &mut out,
        "mesh_mapped_bytes",
        "gauge",
        "Bytes mapped to segment files - the virtual footprint.",
        stats.mapped_bytes(),
    );
    metric(
        &mut out,
        "mesh_segments",
        "gauge",
        "Segments currently mapped.",
        stats.segment_count,
    );
    metric(
        &mut out,
        "mesh_uptime_seconds",
        "gauge",
        "Seconds since heap initialization.",
        seconds(stats.uptime_ms.saturating_mul(1_000_000)),
    );
    latency_metrics(&mut out, &stats.latency);
    spectrum_metrics(&mut out, &stats.spectrum);
    // The effectiveness ledger's per-reason reject totals. Every reason
    // label is always emitted (zeros included) so rate() queries never
    // see a series appear from nowhere.
    out.push_str(
        "# HELP mesh_pass_rejected_total Mesh-pass pair rejections by reason.\n\
         # TYPE mesh_pass_rejected_total counter\n",
    );
    for reason in ALL_REJECT_REASONS {
        out.push_str(&format!(
            "mesh_pass_rejected_total{{reason=\"{}\"}} {}\n",
            reason.name(),
            rejects[reason as usize]
        ));
    }
    // Hardened-mode violations by kind. Like the reject counter, every
    // kind label is emitted even at zero (and even with `MESH_HARDEN`
    // off) so alerting rules can be written once.
    out.push_str(
        "# HELP mesh_harden_violations_total Hardened-mode memory-safety violations by kind.\n\
         # TYPE mesh_harden_violations_total counter\n",
    );
    for kind in ALL_HARDEN_KINDS {
        out.push_str(&format!(
            "mesh_harden_violations_total{{kind=\"{}\"}} {}\n",
            kind.name(),
            stats.harden_violations[kind as usize]
        ));
    }
    if let Some(s) = sense {
        sense_metrics(&mut out, s);
    }
    if let Some(p) = prof {
        metric(
            &mut out,
            "mesh_prof_sample_bytes",
            "gauge",
            "Configured geometric sampling rate in bytes.",
            p.sample_bytes,
        );
        metric(
            &mut out,
            "mesh_prof_samples_total",
            "counter",
            "Allocations sampled.",
            p.samples,
        );
        metric(
            &mut out,
            "mesh_prof_samples_dropped_total",
            "counter",
            "Samples dropped by the overflow catch-all.",
            p.samples_dropped,
        );
        metric(
            &mut out,
            "mesh_prof_sampled_frees_total",
            "counter",
            "Sampled objects retired by free.",
            p.sampled_frees,
        );
        metric(
            &mut out,
            "mesh_prof_sites",
            "gauge",
            "Distinct allocation sites tracked.",
            p.sites,
        );
        metric(
            &mut out,
            "mesh_prof_live_samples",
            "gauge",
            "Sampled objects still live.",
            p.live_samples,
        );
        metric(
            &mut out,
            "mesh_prof_live_bytes_estimate",
            "gauge",
            "Unbiased live-bytes estimate from the sampler.",
            p.live_bytes_estimate,
        );
    }
    out
}

/// Formats a milli-percent PSI reading as a plain decimal percentage.
fn psi_pct(milli: u64) -> String {
    format!("{}.{:03}", milli / 1000, milli % 1000)
}

/// The latest sense snapshot as gauges. Sources that were unreadable on
/// this host (no cgroup limit, no PSI, no /proc) carry the [`ABSENT`]
/// sentinel and their series are simply omitted — absence of data, not a
/// zero reading.
fn sense_metrics(out: &mut String, s: &SenseSnapshot) {
    if s.rss_bytes != ABSENT {
        metric(
            out,
            "mesh_rss_bytes",
            "gauge",
            "Process resident set size from /proc.",
            s.rss_bytes,
        );
    }
    if s.est_resident_bytes != ABSENT {
        metric(
            out,
            "mesh_resident_est_bytes",
            "gauge",
            "Estimated resident bytes of the heap mapping (sampled mincore).",
            s.est_resident_bytes,
        );
    }
    if s.psi_avg10_milli != ABSENT {
        metric(
            out,
            "mesh_pressure_psi_avg10",
            "gauge",
            "Memory PSI some avg10 percentage from /proc/pressure/memory.",
            psi_pct(s.psi_avg10_milli),
        );
    }
    if s.psi_avg60_milli != ABSENT {
        metric(
            out,
            "mesh_pressure_psi_avg60",
            "gauge",
            "Memory PSI some avg60 percentage from /proc/pressure/memory.",
            psi_pct(s.psi_avg60_milli),
        );
    }
    if s.cgroup_limit_bytes != ABSENT {
        metric(
            out,
            "mesh_cgroup_limit_bytes",
            "gauge",
            "Effective cgroup memory limit (absent when unlimited).",
            s.cgroup_limit_bytes,
        );
    }
    if s.cgroup_usage_bytes != ABSENT {
        metric(
            out,
            "mesh_cgroup_usage_bytes",
            "gauge",
            "Cgroup memory usage reported by the controller.",
            s.cgroup_usage_bytes,
        );
    }
}

/// The slow-path latency histograms as Prometheus `_bucket`/`_sum`/
/// `_count` series (seconds units). Every op emits a family even when it
/// never fired (so dashboards can rely on the series existing); zero
/// buckets below `+Inf` are elided — cumulative counts make them
/// recoverable — keeping the exposition compact.
fn latency_metrics(out: &mut String, latency: &LatencySnapshot) {
    for op in ALL_TIMED_OPS {
        let name = op.prom_name();
        out.push_str(&format!(
            "# HELP {name} Latency of {} slow-path operations.\n# TYPE {name} histogram\n",
            op.name()
        ));
        let buckets = &latency.counts[op.index()];
        let mut cumulative = 0u64;
        // The overflow bucket has no finite upper bound: it only feeds
        // the +Inf line below.
        for (b, &c) in buckets.iter().enumerate().take(LATENCY_BUCKETS - 1) {
            if c == 0 {
                continue;
            }
            cumulative += c;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                seconds(bucket_upper_ns(b))
            ));
        }
        cumulative += buckets[LATENCY_BUCKETS - 1];
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
        out.push_str(&format!("{name}_sum {}\n", seconds(latency.sum_ns(op))));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }
}

/// The spectrum as labelled gauges (only classes holding spans emit
/// series, so an idle heap's exposition stays small).
fn spectrum_metrics(out: &mut String, spec: &HeapSpectrum) {
    out.push_str(
        "# HELP mesh_class_spans Spans per size class by occupancy bin.\n\
         # TYPE mesh_class_spans gauge\n",
    );
    for c in spec.classes.iter().filter(|c| c.spans() > 0) {
        out.push_str(&format!(
            "mesh_class_spans{{class=\"{}\",bin=\"attached\"}} {}\n",
            c.object_size, c.attached_spans
        ));
        for (bin, &count) in c.bins.iter().enumerate() {
            let label: &str = match bin {
                0 => "q75_100",
                1 => "q50_75",
                2 => "q25_50",
                3 => "q0_25",
                _ => "full",
            };
            out.push_str(&format!(
                "mesh_class_spans{{class=\"{}\",bin=\"{label}\"}} {count}\n",
                c.object_size
            ));
        }
    }
    out.push_str(
        "# HELP mesh_class_occupancy Fraction of a class's slots holding live objects.\n\
         # TYPE mesh_class_occupancy gauge\n",
    );
    for c in spec.classes.iter().filter(|c| c.total_slots > 0) {
        out.push_str(&format!(
            "mesh_class_occupancy{{class=\"{}\"}} {:.4}\n",
            c.object_size,
            c.occupancy()
        ));
    }
    out.push_str(
        "# HELP mesh_class_est_meshable_pairs Estimated meshable span pairs per class.\n\
         # TYPE mesh_class_est_meshable_pairs gauge\n",
    );
    for c in spec.classes.iter().filter(|c| c.est_meshable_pairs > 0) {
        out.push_str(&format!(
            "mesh_class_est_meshable_pairs{{class=\"{}\"}} {}\n",
            c.object_size, c.est_meshable_pairs
        ));
    }
    metric(
        out,
        "mesh_est_releasable_bytes",
        "gauge",
        "Estimated bytes releasable by meshing every estimated pair.",
        spec.est_releasable_bytes(),
    );
    if spec.large_spans > 0 {
        metric(
            out,
            "mesh_large_spans",
            "gauge",
            "Live large-object spans.",
            spec.large_spans,
        );
        metric(
            out,
            "mesh_large_bytes",
            "gauge",
            "Bytes held by live large objects.",
            spec.large_bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof() -> ProfileStats {
        ProfileStats {
            sample_bytes: 4096,
            samples: 10,
            samples_dropped: 1,
            sampled_frees: 4,
            sites: 2,
            live_samples: 6,
            live_bytes_estimate: 24_000,
        }
    }

    #[test]
    fn profile_json_is_wellformed_and_ordered() {
        let entries = vec![
            SiteSnapshot {
                site: 5,
                frames: vec![0x1000, 0x2000],
                alloc_samples: 8,
                alloc_bytes: 30_000,
                free_samples: 2,
                freed_bytes: 8_000,
            },
            SiteSnapshot {
                site: super::super::OVERFLOW_SITE,
                frames: vec![],
                alloc_samples: 2,
                alloc_bytes: 2_000,
                free_samples: 2,
                freed_bytes: 2_000,
            },
        ];
        let json = profile_json(&prof(), &entries, 30_000, 777);
        assert!(json.starts_with("{\"mesh_profile_version\":1,"));
        assert!(json.contains("\"uptime_ms\":777"));
        assert!(json.contains("\"sample_bytes\":4096"));
        assert!(json.contains("\"live_bytes_exact\":30000"));
        assert!(json.contains("\"frames\":[\"0x1000\",\"0x2000\"]"));
        assert!(json.contains("\"frames\":[]"));
        assert!(json.contains("\"live_bytes\":22000"));
        assert!(json.ends_with("}]}"));
        // Balanced braces/brackets (cheap well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        assert!(!json.contains('\n'), "dump is a single line");
    }

    #[test]
    fn prom_text_has_headers_and_spectrum() {
        let mut stats = HeapStats {
            mallocs: 7,
            live_bytes: 1234,
            ..Default::default()
        };
        stats.spectrum.classes[2] = crate::telemetry::ClassSpectrum {
            object_size: 48,
            attached_spans: 1,
            bins: [0, 1, 0, 2, 0],
            live_objects: 10,
            total_slots: 340,
            est_meshable_pairs: 1,
            meshable: true,
        };
        let text = prom_text(&stats, Some(&prof()), None, &[0; REJECT_REASONS]);
        assert!(text.contains("# TYPE mesh_mallocs_total counter\nmesh_mallocs_total 7\n"));
        assert!(text.contains("mesh_live_bytes 1234"));
        assert!(text.contains("mesh_class_spans{class=\"48\",bin=\"attached\"} 1"));
        assert!(text.contains("mesh_class_spans{class=\"48\",bin=\"q0_25\"} 2"));
        assert!(text.contains("mesh_class_est_meshable_pairs{class=\"48\"} 1"));
        assert!(text.contains("mesh_prof_live_bytes_estimate 24000"));
        // Every reject reason emits a series even at zero.
        assert!(text.contains("mesh_pass_rejected_total{reason=\"occupancy_overlap\"} 0"));
        assert!(text.contains("mesh_pass_rejected_total{reason=\"copy_abort\"} 0"));
        assert!(text.contains("mesh_pass_rejected_total{reason=\"alias_budget\"} 0"));
        // Without profiling, the prof series are absent; without a sense
        // snapshot, the sense gauges are too.
        let text = prom_text(&stats, None, None, &[0; REJECT_REASONS]);
        assert!(!text.contains("mesh_prof_"));
        assert!(!text.contains("mesh_rss_bytes"));
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn prom_text_emits_latency_histograms() {
        use crate::telemetry::histogram::TimedOp;
        let mut stats = HeapStats::default();
        // Refill: 3 ops in bucket 5, 1 overflow; sum 5 µs, max 2 µs.
        let r = TimedOp::Refill.index();
        stats.latency.counts[r][5] = 3;
        stats.latency.counts[r][LATENCY_BUCKETS - 1] = 1;
        stats.latency.sums[r] = 5_000;
        stats.latency.maxes[r] = 2_000;
        let text = prom_text(&stats, None, None, &[0; REJECT_REASONS]);
        // The populated family: elided zero buckets, cumulative counts,
        // the overflow landing only in +Inf.
        assert!(text.contains("# TYPE mesh_refill_seconds histogram\n"));
        let le5 = format!(
            "mesh_refill_seconds_bucket{{le=\"{}\"}} 3\n",
            seconds(bucket_upper_ns(5))
        );
        assert!(text.contains(&le5), "bucket 5 line missing in:\n{text}");
        assert!(text.contains("mesh_refill_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("mesh_refill_seconds_sum 0.000005\n"));
        assert!(text.contains("mesh_refill_seconds_count 4\n"));
        // Families that never fired still exist with an empty +Inf.
        assert!(text.contains("mesh_mutator_pause_seconds_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("mesh_mesh_pass_seconds_count 0\n"));
        // Uptime gauge and the heap-peak rename with its EOL alias.
        assert!(text.contains("# TYPE mesh_uptime_seconds gauge\n"));
        assert!(text.contains("# TYPE mesh_heap_peak_bytes gauge\n"));
        assert!(text.contains("# EOL mesh_heap_bytes_peak"));
        assert!(text.contains("# TYPE mesh_heap_bytes_peak gauge\n"));
    }

    /// Conformance lint over the full exposition: `# HELP` precedes every
    /// `# TYPE`; counter names end `_total`; gauge names do not;
    /// histogram `_bucket` series are cumulative-monotone and end at
    /// `+Inf` with a matching `_count`.
    #[test]
    fn prom_text_naming_and_structure_conformance() {
        let mut stats = HeapStats {
            mallocs: 3,
            uptime_ms: 1500,
            ..Default::default()
        };
        let r = super::ALL_TIMED_OPS[0].index();
        stats.latency.counts[r][3] = 2;
        stats.latency.counts[r][9] = 1;
        stats.latency.sums[r] = 900;
        // Sense on, with a mixed present/absent snapshot, so the lint
        // also covers the mesh-sense gauge families and the labelled
        // reject counter.
        let sense = SenseSnapshot {
            at_ms: 1000,
            rss_bytes: 10 << 20,
            est_resident_bytes: 8 << 20,
            psi_avg10_milli: 12_340,
            psi_avg60_milli: ABSENT,
            cgroup_limit_bytes: ABSENT,
            cgroup_usage_bytes: 9 << 20,
            ..Default::default()
        };
        let text = prom_text(&stats, Some(&prof()), Some(&sense), &[3, 1, 0, 0, 2]);

        let mut kinds: std::collections::HashMap<String, String> = Default::default();
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                last_help = Some(rest.split(' ').next().unwrap().to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let (name, kind) = (it.next().unwrap(), it.next().unwrap());
                assert_eq!(
                    last_help.as_deref(),
                    Some(name),
                    "# TYPE {name} not preceded by its # HELP"
                );
                kinds.insert(name.to_string(), kind.to_string());
            }
        }
        for (name, kind) in &kinds {
            match kind.as_str() {
                "counter" => assert!(name.ends_with("_total"), "counter {name} lacks _total"),
                "gauge" => assert!(!name.ends_with("_total"), "gauge {name} ends _total"),
                "histogram" => {}
                other => panic!("unexpected kind {other} for {name}"),
            }
        }
        // Histogram structure: per family, bucket counts monotone, last
        // le is +Inf, and its value equals the family's _count.
        for (name, kind) in &kinds {
            if kind != "histogram" {
                continue;
            }
            let mut prev = 0u64;
            let mut last_le = String::new();
            let mut inf_value = None;
            for line in text.lines().filter(|l| l.starts_with(&format!("{name}_bucket{{"))) {
                let le = line.split("le=\"").nth(1).unwrap().split('"').next().unwrap();
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= prev, "{name}: bucket counts not cumulative");
                prev = v;
                last_le = le.to_string();
                if le == "+Inf" {
                    inf_value = Some(v);
                }
            }
            assert_eq!(last_le, "+Inf", "{name}: buckets must end at +Inf");
            let count_line = text
                .lines()
                .find(|l| l.starts_with(&format!("{name}_count ")))
                .unwrap_or_else(|| panic!("{name}_count missing"));
            let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
            assert_eq!(Some(count), inf_value, "{name}: +Inf != _count");
            assert!(
                text.lines().any(|l| l.starts_with(&format!("{name}_sum "))),
                "{name}_sum missing"
            );
        }
        // The renamed peak gauge carries its EOL marker immediately
        // before the alias's own headers.
        let eol_pos = text.find("# EOL mesh_heap_bytes_peak").expect("EOL marker");
        let alias_pos = text.find("# HELP mesh_heap_bytes_peak ").expect("alias series");
        assert!(eol_pos < alias_pos);
        assert!(text.find("mesh_heap_peak_bytes ").unwrap() < eol_pos, "new name first");
        // Present sense sources emit gauges; absent ones emit nothing.
        assert!(text.contains("mesh_rss_bytes 10485760\n"));
        assert!(text.contains("mesh_resident_est_bytes 8388608\n"));
        assert!(text.contains("mesh_pressure_psi_avg10 12.340\n"));
        assert!(text.contains("mesh_cgroup_usage_bytes 9437184\n"));
        assert!(!text.contains("mesh_pressure_psi_avg60"), "ABSENT source elided");
        assert!(!text.contains("mesh_cgroup_limit_bytes"), "unlimited cgroup elided");
        assert!(text.contains("mesh_pass_rejected_total{reason=\"occupancy_overlap\"} 3\n"));
        assert!(text.contains("mesh_pass_rejected_total{reason=\"class_contention\"} 1\n"));
        assert!(text.contains("mesh_pass_rejected_total{reason=\"alias_budget\"} 2\n"));
    }

    /// Pins the names of the hostile-input counter families and the
    /// hardened-mode violation family: dashboards and the CI gauntlet
    /// grep for these exact series, so renaming any of them is a
    /// breaking change to the exposition contract.
    #[test]
    fn hostile_input_and_harden_families_are_pinned() {
        let mut stats = HeapStats {
            invalid_frees: 4,
            double_frees: 2,
            ..Default::default()
        };
        stats.harden_violations[crate::harden::HardenKind::Poison as usize] = 3;
        let text = prom_text(&stats, None, None, &[0; REJECT_REASONS]);
        assert!(text.contains("# TYPE mesh_invalid_frees_total counter\nmesh_invalid_frees_total 4\n"));
        assert!(text.contains("# TYPE mesh_double_frees_total counter\nmesh_double_frees_total 2\n"));
        // Every harden kind emits a labelled series, zeros included and
        // regardless of whether hardening is enabled.
        assert!(text.contains("# TYPE mesh_harden_violations_total counter\n"));
        assert!(text.contains("mesh_harden_violations_total{kind=\"double_free\"} 0\n"));
        assert!(text.contains("mesh_harden_violations_total{kind=\"invalid_free\"} 0\n"));
        assert!(text.contains("mesh_harden_violations_total{kind=\"poison\"} 3\n"));
        assert!(text.contains("mesh_harden_violations_total{kind=\"guard\"} 0\n"));
        assert!(text.contains("mesh_harden_violations_total{kind=\"canary\"} 0\n"));
    }

    /// Pins the deprecation contract for the renamed peak gauge: the
    /// canonical `mesh_heap_peak_bytes` and the deprecated
    /// `mesh_heap_bytes_peak` alias are emitted side by side, carry the
    /// same value, and the alias's `# EOL` marker names its earliest
    /// removal date. Remove the alias (and this test) no earlier than
    /// 2026-12-01.
    #[test]
    fn heap_peak_alias_emitted_until_eol_date() {
        let stats = HeapStats {
            committed_pages_peak: 1792,
            ..Default::default()
        };
        let text = prom_text(&stats, None, None, &[0; REJECT_REASONS]);
        let value_of = |name: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("{name} series missing"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let peak = stats.peak_heap_bytes() as u64;
        assert!(peak > 0);
        assert_eq!(value_of("mesh_heap_peak_bytes"), peak);
        assert_eq!(value_of("mesh_heap_bytes_peak"), peak, "alias tracks canonical");
        assert!(
            text.contains("# EOL mesh_heap_bytes_peak is a deprecated alias of mesh_heap_peak_bytes, removal no earlier than 2026-12-01\n"),
            "EOL marker must state the removal date"
        );
    }
}
