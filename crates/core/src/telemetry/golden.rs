//! Golden bytes and ring round trips for the field tables.
//!
//! The files under `golden/` pin every report document and the `mesh:`
//! line byte for byte, rendered from fixed records in which every field
//! has its own value: a row that reads the wrong field, or moves, fails
//! here. Ring records go through their rings field by field, and only the
//! readings the host may not offer may render `null`.

use super::fields::{self, Field};
use super::{exposition, report};
use crate::free_spans::ArenaStats;
use crate::size_classes::SizeClass;
use crate::stats::HeapStats;
use crate::telemetry::{
    decompose, ClassSpectrum, HeapSpectrum, MeshLedger, PassRecord, ProfileStats,
    ResidencyBreakdown, SenseSnapshot, SiteSnapshot, ABSENT, OVERFLOW_SITE,
};

const UPTIME_MS: u64 = 1_234_567;

fn spectrum() -> HeapSpectrum {
    let mut spec = HeapSpectrum::default();
    for (i, class) in SizeClass::all().enumerate() {
        let c = &mut spec.classes[i];
        c.object_size = class.object_size() as u32;
        c.meshable = class.is_meshable();
    }
    spec.classes[2] = ClassSpectrum {
        object_size: 48,
        attached_spans: 3,
        bins: [4, 5, 6, 7, 8],
        live_objects: 901,
        total_slots: 2040,
        est_meshable_pairs: 2,
        meshable: true,
    };
    spec.classes[9] = ClassSpectrum {
        object_size: 256,
        attached_spans: 1,
        bins: [0, 2, 0, 9, 1],
        live_objects: 77,
        total_slots: 208,
        est_meshable_pairs: 4,
        meshable: true,
    };
    spec.large_spans = 11;
    spec.large_bytes = 12_345_678;
    spec
}

/// Every field distinct, so a swapped getter shows.
fn heap_stats() -> HeapStats {
    let mut s = HeapStats {
        mallocs: 1001,
        frees: 1002,
        remote_frees: 1003,
        invalid_frees: 1004,
        double_frees: 1005,
        large_allocs: 1006,
        mesh_passes: 1007,
        spans_meshed: 1008,
        mesh_pages_released: 1009,
        mesh_bytes_copied: 1010,
        dirty_purges: 1013,
        pages_purged: 1014,
        committed_pages: 1015,
        committed_pages_peak: 1016,
        live_bytes: 1017,
        refills: 1018,
        remote_free_queued: 1019,
        remote_free_drained: 1020,
        transfer_hits: 1021,
        transfer_misses: 1022,
        transfer_spills: 1023,
        remote_free_batches: 1024,
        class_lock_contention: std::array::from_fn(|i| 1100 + i as u64),
        arena_lock_contention: 1025,
        segments_created: 1026,
        segments_retired: 1027,
        segment_count: 1028,
        mapped_pages: 1029,
        slab_bytes: 1037,
        forks: 1030,
        files_lost: 1038,
        reallocs_in_place: 1031,
        harden_violations: [1032, 1033, 1034, 1035, 1036],
        uptime_ms: UPTIME_MS,
        latency: Default::default(),
        spectrum: spectrum(),
    };
    s.latency.counts[0][3] = 5;
    s.latency.counts[0][9] = 2;
    s.latency.sums[0] = 123_456;
    s.latency.maxes[0] = 99_000;
    s.latency.counts[4][crate::telemetry::LATENCY_BUCKETS - 1] = 1;
    s.latency.sums[4] = 7_000_000_000;
    s.latency.maxes[4] = 7_000_000_000;
    s
}

fn prof() -> ProfileStats {
    ProfileStats {
        sample_bytes: 2001,
        samples: 2002,
        samples_dropped: 2003,
        sampled_frees: 2004,
        sites: 2005,
        live_samples: 2006,
        live_bytes_estimate: 2007,
    }
}

fn sites() -> Vec<SiteSnapshot> {
    vec![
        SiteSnapshot {
            site: 17,
            frames: vec![0x55d0_c0ff_ee00, 0x7f00_0000_1234],
            alloc_samples: 3001,
            alloc_bytes: 3_000_002,
            free_samples: 1003,
            freed_bytes: 1_000_004,
        },
        SiteSnapshot {
            site: OVERFLOW_SITE,
            frames: vec![],
            alloc_samples: 3011,
            alloc_bytes: 3012,
            free_samples: 1013,
            freed_bytes: 1014,
        },
    ]
}

fn snapshot() -> SenseSnapshot {
    SenseSnapshot {
        rss_bytes: 5001,
        psi_avg10_milli: 5002,
        psi_avg60_milli: 5003,
        cgroup_limit_bytes: 5004,
        cgroup_usage_bytes: 5005,
        mallocs: 5006,
        frees: 5007,
        mesh_passes: 5008,
        pairs_meshed: 5009,
        poll_ns: 5010,
    }
}

/// A host without procfs, PSI or a cgroup limit.
fn bare_snapshot() -> SenseSnapshot {
    SenseSnapshot {
        rss_bytes: ABSENT,
        psi_avg10_milli: ABSENT,
        psi_avg60_milli: ABSENT,
        cgroup_limit_bytes: ABSENT,
        cgroup_usage_bytes: ABSENT,
        ..snapshot()
    }
}

fn pass(at_ms: u64) -> PassRecord {
    PassRecord {
        at_ms,
        candidates: at_ms + 1,
        probes: at_ms + 2,
        rejected: [at_ms + 3, at_ms + 4, at_ms + 5, at_ms + 6, at_ms + 7],
        pairs_meshed: at_ms + 8,
        bytes_recovered: at_ms + 9,
        madvise_bytes: at_ms + 10,
    }
}

fn ledger() -> MeshLedger {
    let ledger = MeshLedger::new();
    for at_ms in [4000, 4100, 4200] {
        ledger.record(pass(at_ms));
    }
    ledger
}

/// The residency of a heap whose file holds 96 pages, or (`None`) whose
/// descriptor was found naming another file.
fn residency(file_pages: Option<usize>) -> ResidencyBreakdown {
    let file = ArenaStats {
        pages: 164,
        fresh_pages: 17,
        committed_pages: 101,
        dirty_pages: 25,
        clean_pages: 32,
        outstanding_pages: 76,
    };
    decompose(&file, file_pages)
}

#[test]
fn documents_match_their_golden_bytes() {
    let stats = heap_stats();
    let bare_stats = HeapStats {
        uptime_ms: 999,
        ..HeapStats::default()
    };
    let docs = [
        ("stats.txt", stats.render(), include_str!("golden/stats.txt")),
        (
            "prom.txt",
            exposition::prom_text(&stats, Some(&prof()), &snapshot(), &residency(Some(96)), &[41, 42, 43, 44, 45]),
            include_str!("golden/prom.txt"),
        ),
        (
            "prom_bare.txt",
            exposition::prom_text(&bare_stats, None, &bare_snapshot(), &residency(None), &[0; 5]),
            include_str!("golden/prom_bare.txt"),
        ),
        (
            "profile.json",
            exposition::profile_json(&prof(), &sites(), 4001, UPTIME_MS),
            include_str!("golden/profile.json"),
        ),
        (
            "sense.json",
            report::sense_json(&snapshot(), &residency(Some(96)), &ledger(), UPTIME_MS),
            include_str!("golden/sense.json"),
        ),
        (
            "spectrum.json",
            report::spectrum_json(&spectrum(), UPTIME_MS),
            include_str!("golden/spectrum.json"),
        ),
    ];
    for (name, got, want) in docs {
        if got == want {
            continue;
        }
        // A deliberate change: review the new bytes and copy them over
        // `golden/<name>`.
        let fresh = std::env::temp_dir().join(format!("mesh-golden-{name}"));
        std::fs::write(&fresh, &got).unwrap();
        let at = got.bytes().zip(want.bytes()).take_while(|(a, b)| a == b).count();
        panic!(
            "{name} differs at byte {at}: got {:?}, want {:?} (rendered bytes in {})",
            &got[at.saturating_sub(40)..(at + 40).min(got.len())],
            &want[at.saturating_sub(40)..(at + 40).min(want.len())],
            fresh.display(),
        );
    }
}

#[test]
fn ring_records_round_trip_every_field() {
    let ledger = ledger();
    let passes = ledger.recent();
    assert_eq!(passes, [pass(4000), pass(4100), pass(4200)]);
    let words: Vec<u64> = (4200..4211).collect();
    assert_eq!(
        fields::to_words::<_, 11>(&super::ledger::PASS_FIELDS, &pass(4200)).to_vec(),
        words,
        "pass words follow the fields in declaration order"
    );
}

/// Exactly the readings the host may not offer are nullable — its
/// procfs, PSI and cgroup readings and its count of the heap's file: an
/// [`super::ABSENT`] one is `null` in JSON and has no Prometheus series;
/// every other field shows whatever it holds, `u64::MAX` included.
#[test]
fn only_host_readings_are_nullable() {
    /// The keys of `rows` that render `r`, every field of it `ABSENT`,
    /// as `null`.
    fn null_keys<R>(rows: &[Field<R>], r: &R) -> Vec<&'static str> {
        let json = fields::object(rows, r);
        let mut nulls = Vec::new();
        for row in rows {
            let mut prom = String::new();
            fields::prom(&mut prom, std::slice::from_ref(row), r);
            if row.nullable {
                nulls.push(row.key);
                assert!(json.contains(&format!("\"{}\":null", row.key)), "{json}");
                assert_eq!(prom, "", "{}: an absent reading has no series", row.key);
            } else {
                assert!(json.contains(&format!("\"{}\":{ABSENT}", row.key)), "{json}");
            }
        }
        nulls
    }
    let snap = SenseSnapshot {
        rss_bytes: ABSENT,
        psi_avg10_milli: ABSENT,
        psi_avg60_milli: ABSENT,
        cgroup_limit_bytes: ABSENT,
        cgroup_usage_bytes: ABSENT,
        mallocs: ABSENT,
        frees: ABSENT,
        mesh_passes: ABSENT,
        pairs_meshed: ABSENT,
        poll_ns: ABSENT,
    };
    assert_eq!(
        null_keys(&super::sense::SENSE_FIELDS, &snap),
        ["rss_bytes", "psi_avg10_milli", "psi_avg60_milli", "cgroup_limit_bytes", "cgroup_usage_bytes"]
    );
    let res = ResidencyBreakdown {
        mapped_bytes: ABSENT,
        live_bytes: ABSENT,
        free_dirty_bytes: ABSENT,
        free_clean_bytes: ABSENT,
        meta_bytes: ABSENT,
        committed_bytes: ABSENT,
        file_bytes: ABSENT,
    };
    assert_eq!(null_keys(&super::residency::RESIDENCY_FIELDS, &res), ["file_bytes"]);
    fn nullable<R>(rows: &[Field<R>]) -> usize {
        rows.iter().filter(|f| f.nullable).count()
    }
    let others = [
        nullable(&crate::stats::HEAP_FIELDS),
        nullable(&crate::stats::HARDEN_FIELDS),
        nullable(&super::PROFILE_FIELDS),
        nullable(&super::ledger::PASS_FIELDS),
        nullable(&super::ledger::REJECT_TOTALS),
        nullable(&super::profile_table::SITE_FIELDS),
        nullable(&super::spectrum::CLASS_FIELDS),
    ];
    assert_eq!(others, [0; 7], "no other record has a nullable field");
}

/// Every `mesh:` line place is taken once, so the line's order is the
/// places' order and nothing else.
#[test]
fn mesh_line_places_are_one_each() {
    let rows = crate::stats::HEAP_FIELDS.iter().chain(&crate::stats::HARDEN_FIELDS);
    let mut places: Vec<u8> = rows.map(|f| f.line).filter(|&p| p > 0).collect();
    places.sort_unstable();
    assert_eq!(places, (1..=places.len() as u8).collect::<Vec<_>>());
}
