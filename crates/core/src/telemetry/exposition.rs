//! Exposition: Prometheus-style text and the JSON heap-profile dump.
//!
//! Both formats are assembled as plain strings (no serde in the offline
//! build) from data the caller already snapshotted — nothing here takes a
//! heap lock. Records are written from their field tables (`fields`); by
//! hand only the per-op and per-class families, whose labels are not fields.
//!
//! ## Profile dump schema (version 1)
//!
//! `{"mesh_profile_version":1,"uptime_ms":…,` the `PROFILE_FIELDS`
//! members, then `"entries":[…]`, one object of `SITE_FIELDS` members per
//! call site. `golden/profile.json` is an example the tests pin byte for
//! byte.
//!
//! `entries` is sorted by `live_bytes` descending — entry 0 is the top
//! leak suspect. `frames` are raw return addresses (innermost first),
//! hex-encoded; symbolize offline against `/proc/<pid>/maps`. An entry
//! with `"site": 4294967295` and empty `frames` is the overflow
//! catch-all. `*_bytes` fields are unbiased estimates (see the sampling
//! math in DESIGN.md); `live_bytes_exact` is the allocator's exact
//! counter for cross-checking the estimator.

use super::fields::{self, header, metric, seconds};
use super::{ProfileStats, SiteSnapshot};
use crate::stats::{HeapStats, HARDEN_FIELDS, HEAP_FIELDS};
use crate::telemetry::histogram::{bucket_upper_ns, LatencySnapshot, ALL_TIMED_OPS, LATENCY_BUCKETS};
use crate::telemetry::{HeapSpectrum, ResidencyBreakdown, SenseSnapshot, REJECT_REASONS, SPECTRUM_BINS};
#[cfg(test)]
use crate::telemetry::ABSENT;

/// Renders the version-1 JSON heap profile.
pub(crate) fn profile_json(
    prof: &ProfileStats,
    entries: &[SiteSnapshot],
    live_bytes_exact: usize,
    uptime_ms: u64,
) -> String {
    format!(
        "{{\"mesh_profile_version\":1,\"uptime_ms\":{uptime_ms},{},\"entries\":{}}}",
        fields::members(&super::PROFILE_FIELDS, &(*prof, live_bytes_exact)),
        fields::array(entries.iter().map(|e| fields::object(&super::profile_table::SITE_FIELDS, e))),
    )
}

/// Renders the heap's state as Prometheus text-format metrics: the
/// [`HeapStats`] counters/gauges, the slow-path latency histograms, the
/// per-class occupancy spectrum, the meshing-effectiveness reject
/// totals, the host readings of a sense poll and what the heap's file
/// holds, and (when profiling) the sampler's own summary.
pub(crate) fn prom_text(
    stats: &HeapStats,
    prof: Option<&ProfileStats>,
    sense: &SenseSnapshot,
    res: &ResidencyBreakdown,
    rejects: &[u64; REJECT_REASONS],
) -> String {
    let mut out = String::with_capacity(8192);
    fields::prom(&mut out, &HEAP_FIELDS, stats);
    latency_metrics(&mut out, &stats.latency);
    spectrum_metrics(&mut out, &stats.spectrum);
    fields::prom(&mut out, &super::ledger::REJECT_TOTALS, rejects);
    fields::prom(&mut out, &HARDEN_FIELDS, stats);
    fields::prom(&mut out, &super::sense::SENSE_FIELDS, sense);
    fields::prom(&mut out, &super::residency::RESIDENCY_FIELDS, res);
    if let Some(p) = prof {
        fields::prom(&mut out, &super::PROFILE_FIELDS, &(*p, stats.live_bytes));
    }
    out
}

/// The slow-path latency histograms as Prometheus `_bucket`/`_sum`/
/// `_count` series (seconds units). Every op emits a family even when it
/// never fired (so dashboards can rely on the series existing); zero
/// buckets below `+Inf` are elided — cumulative counts make them
/// recoverable — keeping the exposition compact.
fn latency_metrics(out: &mut String, latency: &LatencySnapshot) {
    for op in ALL_TIMED_OPS {
        let name = op.prom_name();
        header(out, name, "histogram", &format!("Latency of {} slow-path operations.", op.name()));
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
    const BINS: [&str; SPECTRUM_BINS] = ["q75_100", "q50_75", "q25_50", "q0_25", "full"];
    header(out, "mesh_class_spans", "gauge", "Spans per size class by occupancy bin.");
    for c in spec.classes.iter().filter(|c| c.spans() > 0) {
        let class = c.object_size;
        out.push_str(&format!("mesh_class_spans{{class=\"{class}\",bin=\"attached\"}} {}\n", c.attached_spans));
        for (bin, count) in BINS.iter().zip(c.bins) {
            out.push_str(&format!("mesh_class_spans{{class=\"{class}\",bin=\"{bin}\"}} {count}\n"));
        }
    }
    header(out, "mesh_class_occupancy", "gauge", "Fraction of a class's slots holding live objects.");
    for c in spec.classes.iter().filter(|c| c.total_slots > 0) {
        out.push_str(&format!("mesh_class_occupancy{{class=\"{}\"}} {:.4}\n", c.object_size, c.occupancy()));
    }
    header(out, "mesh_class_est_meshable_pairs", "gauge", "Estimated meshable span pairs per class.");
    for c in spec.classes.iter().filter(|c| c.est_meshable_pairs > 0) {
        let (class, pairs) = (c.object_size, c.est_meshable_pairs);
        out.push_str(&format!("mesh_class_est_meshable_pairs{{class=\"{class}\"}} {pairs}\n"));
    }
    let help = "Estimated bytes releasable by meshing every estimated pair.";
    metric(out, "mesh_est_releasable_bytes", "gauge", help, spec.est_releasable_bytes());
    if spec.large_spans > 0 {
        fields::prom(out, &super::spectrum::LARGE_FIELDS, spec);
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

    /// `stats` on a host with no procfs, PSI or cgroup readings, a heap
    /// whose file count is lost, and no rejects.
    fn no_host(stats: &HeapStats, prof: Option<&ProfileStats>) -> String {
        let sense = SenseSnapshot {
            rss_bytes: ABSENT,
            psi_avg10_milli: ABSENT,
            psi_avg60_milli: ABSENT,
            cgroup_limit_bytes: ABSENT,
            cgroup_usage_bytes: ABSENT,
            ..Default::default()
        };
        let res = ResidencyBreakdown {
            file_bytes: ABSENT,
            ..Default::default()
        };
        prom_text(stats, prof, &sense, &res, &[0; REJECT_REASONS])
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
        let text = no_host(&stats, Some(&prof()));
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
        // Without profiling, the prof series are absent; without a host
        // reading or a file count, its gauge is too.
        let text = no_host(&stats, None);
        assert!(!text.contains("mesh_prof_"));
        assert!(!text.contains("mesh_rss_bytes"));
        assert!(!text.contains("mesh_file_bytes"));
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
        let text = no_host(&stats, None);
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
            rss_bytes: 10 << 20,
            psi_avg10_milli: 12_340,
            psi_avg60_milli: ABSENT,
            cgroup_limit_bytes: ABSENT,
            cgroup_usage_bytes: 9 << 20,
            ..Default::default()
        };
        let res = ResidencyBreakdown {
            file_bytes: 8 << 20,
            ..Default::default()
        };
        let text = prom_text(&stats, Some(&prof()), &sense, &res, &[3, 1, 0, 0, 2]);

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
        assert!(text.contains("mesh_file_bytes 8388608\n"));
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
        let text = no_host(&stats, None);
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
        let text = no_host(&stats, None);
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
