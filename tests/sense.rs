//! End-to-end mesh-sense validation: the pressure/residency sensor, the
//! snapshot ring, and the meshing-effectiveness ledger, all through the
//! public API.

mod support;

use mesh::core::{Mesh, MeshConfig, RejectReason, Report, PAGE_SIZE, REJECT_REASONS};
use std::time::Duration;
use support::{report_text, JsonExt, Parser};

fn heap(seed: u64) -> Mesh {
    // Huge mesh period: passes in this file are explicit, and sensing
    // polls are driven synchronously through dump/json calls rather than
    // waiting on the 1 s background clock.
    Mesh::new(
        MeshConfig::default()
            .arena_bytes(512 << 20)
            .seed(seed)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap()
}

/// Fragment: allocate `n` objects of `size`, keep every `keep`-th.
fn fragment(mesh: &Mesh, n: usize, size: usize, keep: usize) -> Vec<*mut u8> {
    let ptrs: Vec<*mut u8> = (0..n).map(|_| mesh.malloc(size)).collect();
    let mut kept = Vec::new();
    for (i, &p) in ptrs.iter().enumerate() {
        assert!(!p.is_null());
        if i % keep == 0 {
            kept.push(p);
        } else {
            unsafe { mesh.free(p) };
        }
    }
    kept
}

/// Drives at least 8 mesh passes over repeated fragmentation waves and
/// reconciles the effectiveness ledger against the heap's own counters:
/// per-pass `pairs_meshed` sums to `stats.spans_meshed`, recovered bytes
/// equal the released-pages counter, and the per-reason reject totals
/// match the ring's records.
#[test]
fn ledger_reconciles_with_heap_counters_over_many_passes() {
    let mesh = heap(42);
    let mut survivors = Vec::new();
    for wave in 0..8 {
        survivors.extend(fragment(&mesh, 16_384, 256, 8 + wave));
        let summary = mesh.mesh_now();
        // Waves 1+: re-fragmenting on top of meshed spans keeps
        // producing candidates; no assertion that each pass meshes —
        // only that the ledger records each one.
        let _ = summary;
    }
    // A couple of dry passes on the settled heap exercise the
    // zero-candidate path's ledger rows too.
    mesh.mesh_now();
    mesh.mesh_now();

    let stats = mesh.stats();
    assert!(stats.mesh_passes >= 10, "drove {} passes", stats.mesh_passes);
    let records = mesh.ledger_recent();
    assert!(
        records.len() >= 10,
        "ledger ring holds {} of {} passes",
        records.len(),
        stats.mesh_passes
    );
    // Every explicit pass landed in the ring (well under its capacity).
    assert_eq!(records.len() as u64, stats.mesh_passes);

    // Reconciliation: the ring's per-pass numbers sum to the heap-wide
    // counters the allocator maintains independently.
    let pairs: u64 = records.iter().map(|r| r.pairs_meshed).sum();
    assert_eq!(pairs, stats.spans_meshed, "ledger pairs != spans_meshed");
    assert!(pairs > 0, "workload never meshed — ledger untested");
    let recovered: u64 = records.iter().map(|r| r.bytes_recovered).sum();
    assert_eq!(
        recovered,
        stats.mesh_pages_released * PAGE_SIZE as u64,
        "ledger recovered bytes != released pages"
    );
    // Reject totals equal the ring's sums (ring never overflowed here).
    let totals = mesh.ledger_reject_totals();
    let mut from_ring = [0u64; REJECT_REASONS];
    for r in &records {
        for (acc, v) in from_ring.iter_mut().zip(r.rejected) {
            *acc += v;
        }
    }
    assert_eq!(totals, from_ring, "reject totals != ring sums");
    // This workload's rejections are occupancy overlaps (probed pairs
    // whose bitmaps collide); copy aborts take a VM call the kernel refuses.
    assert!(
        totals[RejectReason::OccupancyOverlap as usize] > 0,
        "fragmented waves must produce overlap rejects: {totals:?}"
    );
    assert_eq!(totals[RejectReason::CopyAbort as usize], 0);
    // Probes bound the rejects-plus-pairs ledger arithmetic per pass.
    for r in &records {
        assert!(
            r.rejected[RejectReason::OccupancyOverlap as usize] + r.pairs_meshed <= r.probes,
            "pass arithmetic: {r:?}"
        );
        assert!(r.candidates >= 2 * r.pairs_meshed, "pairs need candidates: {r:?}");
    }

    for p in survivors {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

/// The sense JSON document: schema envelope, residency decomposition
/// that partitions mapped bytes, and snapshots that track the workload.
#[test]
fn sense_json_schema_and_residency_partition() {
    let mesh = heap(7);
    assert!(mesh.is_sensing(), "sensing is on by default");
    let kept = fragment(&mesh, 8_192, 256, 4);
    mesh.mesh_now();
    let json = report_text(&mesh, Report::Sense).expect("sensing on");
    assert!(json.starts_with("{\"mesh_sense_version\":1,"), "{json}");
    for key in [
        "\"residency\":{",
        "\"mapped_bytes\":",
        "\"free_dirty_bytes\":",
        "\"segments\":[",
        "\"ledger\":{",
        "\"rejected_total\":{",
        "\"occupancy_overlap\":",
        "\"snapshots\":[",
        "\"est_resident_bytes\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(
            json.matches(open).count(),
            json.matches(close).count(),
            "unbalanced {open}{close}"
        );
    }
    assert!(!json.contains('\n'), "dump is a single line");

    // The latest snapshot reconciles with the heap's own gauges: the
    // residency categories partition the mapped bytes.
    let snap = mesh.sense_latest().expect("sense_json polled");
    assert_eq!(
        snap.live_bytes + snap.free_dirty_bytes + snap.free_clean_bytes + snap.meta_bytes,
        snap.mapped_bytes,
        "residency categories must partition the mapping: {snap:?}"
    );
    assert!(snap.mallocs >= 8_192);
    assert!(snap.mesh_passes >= 1);
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

/// Snapshot history: the ring keeps the last `sense_history` snapshots
/// in order, and `prom_text` exposes the sense gauges and reject totals.
#[test]
fn snapshot_ring_and_prom_families() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(9)
            .mesh_period(Duration::from_secs(3600))
            .sense_history(4),
    )
    .unwrap();
    let kept = fragment(&mesh, 4_096, 128, 4);
    // Each sense report takes one poll; overfill the 4-slot ring.
    for _ in 0..7 {
        report_text(&mesh, Report::Sense).unwrap();
    }
    mesh.mesh_now();
    let json = report_text(&mesh, Report::Sense).unwrap();
    // 8 polls into a 4-slot ring: exactly 4 snapshots retained. (Count
    // by a snapshot-only key: ledger pass rows also carry "at_ms".)
    assert_eq!(json.matches("\"rss_bytes\":").count(), 4, "{json}");

    let text = mesh.prom_text();
    assert!(text.contains("# TYPE mesh_pass_rejected_total counter"), "{text}");
    assert!(text.contains("mesh_pass_rejected_total{reason=\"occupancy_overlap\"}"));
    assert!(text.contains("mesh_pass_rejected_total{reason=\"class_contention\"}"));
    assert!(text.contains("mesh_pass_rejected_total{reason=\"copy_abort\"}"));
    // Heap-derived sense gauges always resolve on Linux /proc; the
    // mincore estimate is heap-internal and never absent.
    assert!(text.contains("mesh_resident_est_bytes "), "{text}");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

/// `MESH_SENSE_PATH` dumps: `write_report` writes the document to the
/// configured file, and a disabled heap declines.
#[test]
fn sense_dump_to_path_and_disabled_heap() {
    let path = std::env::temp_dir().join(format!("mesh-sense-test-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(3)
            .mesh_period(Duration::from_secs(3600))
            .sense_path(Some(path.clone())),
    )
    .unwrap();
    let p = mesh.malloc(64);
    assert!(mesh.write_report(Report::Sense, 2).is_ok());
    let doc = std::fs::read_to_string(&path).expect("dump file written");
    assert!(doc.contains("\"mesh_sense_version\":1"), "{doc}");
    std::fs::remove_file(&path).ok();
    unsafe { mesh.free(p) };

    // Sensing off: every sense entry point declines gracefully.
    let off = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(4)
            .sense_interval(None),
    )
    .unwrap();
    assert!(!off.is_sensing());
    assert!(report_text(&off, Report::Sense).is_none());
    assert!(off.sense_latest().is_none());
    assert!(off.write_report(Report::Sense, 2).is_err());
    // The ledger still records passes even without sensing.
    off.mesh_now();
    assert_eq!(off.ledger_recent().len(), 1);
}

/// A *requested* sense dump (the `SIGUSR2` path minus the signal) is as
/// fresh as a synchronous one: the poll belongs to the renderer, not to
/// the trigger. With a 1-hour interval the periodic poll never fires, so
/// the only way the dump's newest snapshot can postdate the request is
/// the renderer's own poll.
#[test]
fn requested_sense_dump_takes_a_fresh_poll() {
    let path = std::env::temp_dir().join(format!("mesh-sense-req-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(5)
            .mesh_period(Duration::from_secs(3600))
            .sense_interval(Some(Duration::from_secs(3600)))
            .sense_path(Some(path.clone())),
    )
    .unwrap();
    let p = mesh.malloc(64);
    let requested_at_ms = mesh.stats().uptime_ms;
    mesh.request_report(Report::Sense);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let doc = loop {
        // The file is written in one `write`, but may be observed between
        // its creation and that write: only a complete line counts.
        match std::fs::read_to_string(&path) {
            Ok(doc) if doc.ends_with('\n') => break doc,
            _ => assert!(
                std::time::Instant::now() < deadline,
                "background thread never served the request"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let newest_at_ms = Parser::parse(doc.trim_end())
        .get("snapshots")
        .arr()
        .last()
        .unwrap_or_else(|| panic!("requested dump carries no snapshot: {doc}"))
        .get("at_ms")
        .num();
    assert!(
        newest_at_ms >= requested_at_ms,
        "newest snapshot ({newest_at_ms} ms) predates the request ({requested_at_ms} ms)"
    );
    std::fs::remove_file(&path).ok();
    unsafe { mesh.free(p) };
}
