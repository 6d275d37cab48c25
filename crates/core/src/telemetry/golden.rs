//! Golden bytes and ring round trips for the field tables.
//!
//! The files under `golden/` pin every report document and the `mesh:`
//! line byte for byte, rendered from fixed records in which every field
//! has its own value: a row that reads the wrong field, or moves, fails
//! here. Ring records go through their rings field by field, and only the
//! host readings may render `null`.

use super::fields::{self, Field};
use super::{exposition, report};
use crate::config::MeshConfig;
use crate::segment::SegmentStats;
use crate::size_classes::SizeClass;
use crate::stats::HeapStats;
use crate::telemetry::{
    decompose, ClassSpectrum, HeapSpectrum, MeshLedger, PassRecord, ProfileStats,
    ResidencyBreakdown, SenseSnapshot, SenseState, SiteSnapshot, ABSENT, OVERFLOW_SITE,
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
        mesh_nanos: 1011,
        mesh_longest_pause_nanos: 1012,
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

fn snapshot(at_ms: u64) -> SenseSnapshot {
    SenseSnapshot {
        at_ms,
        rss_bytes: at_ms + 1,
        est_resident_bytes: at_ms + 2,
        live_bytes: at_ms + 3,
        heap_bytes: at_ms + 4,
        mapped_bytes: at_ms + 5,
        free_dirty_bytes: at_ms + 6,
        free_clean_bytes: at_ms + 7,
        meta_bytes: at_ms + 8,
        psi_avg10_milli: at_ms + 9,
        psi_avg60_milli: at_ms + 10,
        cgroup_limit_bytes: at_ms + 11,
        cgroup_usage_bytes: at_ms + 12,
        mallocs: at_ms + 13,
        frees: at_ms + 14,
        mesh_passes: at_ms + 15,
        pairs_meshed: at_ms + 16,
        poll_ns: at_ms + 17,
    }
}

/// A host without procfs, PSI or a cgroup limit.
fn bare_snapshot(at_ms: u64) -> SenseSnapshot {
    SenseSnapshot {
        rss_bytes: ABSENT,
        psi_avg10_milli: ABSENT,
        psi_avg60_milli: ABSENT,
        cgroup_limit_bytes: ABSENT,
        cgroup_usage_bytes: ABSENT,
        ..snapshot(at_ms)
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

fn sense_state() -> SenseState {
    let sense = SenseState::new(
        &MeshConfig::default()
            .sense_history(3)
            .sense_mincore_pages(17),
    );
    sense.push(&snapshot(5000));
    sense.push(&bare_snapshot(5100));
    sense.push(&snapshot(5200));
    sense
}

fn residency() -> ResidencyBreakdown {
    let seg = |id, start_page, pages, fresh_pages, dirty_pages, clean_pages, outstanding_pages| {
        SegmentStats {
            id,
            start_page,
            pages,
            fresh_pages,
            committed_pages: outstanding_pages + dirty_pages,
            dirty_pages,
            clean_pages,
            outstanding_pages,
            retirable: false,
        }
    };
    decompose(&[seg(0, 0, 100, 10, 20, 30, 35), seg(3, 100, 64, 7, 5, 2, 41)])
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
            exposition::prom_text(&stats, Some(&prof()), &snapshot(6000), &[41, 42, 43, 44, 45]),
            include_str!("golden/prom.txt"),
        ),
        (
            "prom_bare.txt",
            exposition::prom_text(&bare_stats, None, &bare_snapshot(6100), &[0; 5]),
            include_str!("golden/prom_bare.txt"),
        ),
        (
            "profile.json",
            exposition::profile_json(&prof(), &sites(), 4001, UPTIME_MS),
            include_str!("golden/profile.json"),
        ),
        (
            "sense.json",
            report::sense_json(&sense_state(), &residency(), &ledger(), UPTIME_MS),
            include_str!("golden/sense.json"),
        ),
        (
            "ledger.json",
            report::ledger_json(&ledger(), UPTIME_MS),
            include_str!("golden/ledger.json"),
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

/// The words of a record whose fields all differ are those fields, one
/// word each.
fn words_are_the_fields<R, const W: usize>(rows: &[Field<R>], r: &R, mut values: Vec<u64>) {
    let mut words = fields::to_words::<R, W>(rows, r).to_vec();
    words.sort_unstable();
    values.sort_unstable();
    assert_eq!(words, values);
}

#[test]
fn ring_records_round_trip_every_field() {
    let sense = sense_state();
    let kept = sense.snapshots();
    assert_eq!(kept, [snapshot(5000), bare_snapshot(5100), snapshot(5200)]);
    assert_eq!(sense.latest(), Some(snapshot(5200)));
    let s = snapshot(5000);
    words_are_the_fields::<_, 18>(&super::sense::SENSE_FIELDS, &s, (5000..5018).collect());

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

/// Exactly the host readings are nullable: an [`super::ABSENT`] one is
/// `null` in JSON and has no Prometheus series; every other field shows
/// whatever it holds, `u64::MAX` included.
#[test]
fn only_host_readings_are_nullable() {
    let readings: Vec<&str> = super::sense::SENSE_FIELDS
        .iter()
        .filter(|f| f.nullable)
        .map(|f| f.key)
        .collect();
    assert_eq!(
        readings,
        ["rss_bytes", "psi_avg10_milli", "psi_avg60_milli", "cgroup_limit_bytes", "cgroup_usage_bytes"]
    );
    for (i, row) in super::sense::SENSE_FIELDS.iter().enumerate() {
        let mut words = fields::to_words::<_, 18>(&super::sense::SENSE_FIELDS, &snapshot(7000));
        words[i] = ABSENT;
        let snap: SenseSnapshot = fields::from_words(&super::sense::SENSE_FIELDS, words);
        let json = snap.json();
        let mut prom = String::new();
        fields::prom(&mut prom, std::slice::from_ref(row), &snap);
        if row.nullable {
            assert!(json.contains(&format!("\"{}\":null", row.key)), "{json}");
            assert_eq!(prom, "", "{}: an absent reading has no series", row.key);
        } else {
            assert!(json.contains(&format!("\"{}\":{ABSENT}", row.key)), "{json}");
            assert!(!json.contains("null"), "{json}");
        }
    }
    let mut prom = String::new();
    fields::prom(&mut prom, &super::sense::SENSE_FIELDS, &SenseSnapshot { est_resident_bytes: ABSENT, ..snapshot(7000) });
    assert!(prom.contains(&format!("mesh_resident_est_bytes {ABSENT}\n")), "{prom}");
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
        nullable(&super::residency::SEGMENT_FIELDS),
        nullable(&super::residency::RESIDENCY_FIELDS),
    ];
    assert_eq!(others, [0; 9], "no other record has a nullable field");
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
