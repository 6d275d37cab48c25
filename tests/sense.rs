//! End-to-end mesh-sense validation: the pressure/residency sensor, its
//! one-reading document, and the meshing-effectiveness ledger, all
//! through the public API.

mod support;

use mesh::core::{Mesh, MeshConfig, RejectReason, Report, PAGE_SIZE, REJECT_REASONS};
use std::time::Duration;
use support::{report_text, Json, JsonExt, Parser};

fn heap(seed: u64) -> Mesh {
    // Huge mesh period: passes in this file are explicit. Sense polls
    // are always explicit: each `sense` or `prom` render takes one.
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
        // Each folded source is a candidate, and so is a destination.
        assert!(
            r.pairs_meshed == 0 || r.candidates > r.pairs_meshed,
            "pairs need candidates: {r:?}"
        );
    }

    for p in survivors {
        unsafe { mesh.free(p) };
    }
    assert_eq!(mesh.stats().live_bytes, 0);
}

/// The sense JSON document: schema envelope, residency decomposition
/// that partitions mapped bytes, and a snapshot that tracks the workload.
#[test]
fn sense_json_schema_and_residency_partition() {
    let mesh = heap(7);
    let kept = fragment(&mesh, 8_192, 256, 4);
    mesh.mesh_now();
    let json = report_text(&mesh, Report::Sense).expect("sensing is always on");
    assert!(json.starts_with("{\"mesh_sense_version\":5,"), "{json}");
    for key in [
        "\"residency\":{",
        "\"mapped_bytes\":",
        "\"free_dirty_bytes\":",
        "\"ledger\":{",
        "\"rejected_total\":{",
        "\"occupancy_overlap\":",
        "\"snapshot\":{",
        "\"file_bytes\":",
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

    // The residency categories partition the mapped bytes.
    let doc = Parser::parse(&json);
    let res = doc.get("residency");
    let part: u64 = ["live_bytes", "free_dirty_bytes", "free_clean_bytes", "meta_bytes"]
        .iter()
        .map(|k| res.get(k).num())
        .sum();
    assert_eq!(part, res.get("mapped_bytes").num(), "residency categories must partition the mapping: {json}");
    // The kernel's count of what the file holds: nothing written is
    // missing, and nothing is counted that was not committed.
    assert!(res.get("file_bytes").num() > 0, "{json}");
    assert!(res.get("file_bytes").num() <= res.get("committed_bytes").num(), "{json}");
    let snap = doc.get("snapshot");
    assert!(snap.get("mallocs").num() >= 8_192);
    assert!(snap.get("mesh_passes").num() >= 1);
    assert!(snap.get("poll_ns").num() > 0, "a snapshot reports what it cost: {json}");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

/// Each figure of a `sense` document is named once: no member of
/// `residency`, `snapshot` and the top level appears in two of them (or
/// twice in one), and the document holds one of each object. The
/// ledger's pass rows are records of their own and may share names.
#[test]
fn sense_names_each_figure_once() {
    let mesh = heap(13);
    let kept = fragment(&mesh, 4_096, 128, 4);
    mesh.mesh_now();
    let json = report_text(&mesh, Report::Sense).unwrap();
    let doc = Parser::parse(&json);
    let keys = |v: &Json| -> Vec<String> {
        v.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
    };
    let top = keys(&doc);
    assert_eq!(
        top,
        ["mesh_sense_version", "uptime_ms", "residency", "snapshot", "ledger"],
        "{json}"
    );
    let mut names: Vec<String> = top
        .into_iter()
        .chain(keys(doc.get("residency")))
        .chain(keys(doc.get("snapshot")))
        .collect();
    let all = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all, "a figure named twice: {json}");
    assert!(!doc.get("ledger").get("passes").arr().is_empty(), "{json}");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

/// `prom_text` exposes the sense gauges and the reject totals.
#[test]
fn prom_exports_sense_gauges_and_reject_totals() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(9)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let kept = fragment(&mesh, 4_096, 128, 4);
    mesh.mesh_now();
    let text = mesh.prom_text();
    assert!(text.contains("# TYPE mesh_pass_rejected_total counter"), "{text}");
    assert!(text.contains("mesh_pass_rejected_total{reason=\"occupancy_overlap\"}"));
    assert!(text.contains("mesh_pass_rejected_total{reason=\"class_contention\"}"));
    assert!(text.contains("mesh_pass_rejected_total{reason=\"copy_abort\"}"));
    // The file's footprint is read with `fstat` and absent only after
    // the heap's descriptor was lost.
    assert!(text.contains("mesh_file_bytes "), "{text}");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}

/// `prom` takes its own poll: a fresh heap that never rendered `sense`
/// exports the file's footprint as it is now, and a second render sees
/// the pages written in between.
#[test]
fn prom_takes_a_fresh_poll() {
    let mesh = Mesh::new(MeshConfig::default()).unwrap();
    let file_bytes = |text: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix("mesh_file_bytes "))
            .unwrap_or_else(|| panic!("no mesh_file_bytes sample: {text}"))
            .parse()
            .unwrap()
    };
    let before = file_bytes(&mesh.prom_text());
    let p = mesh.malloc(4 << 20);
    assert!(!p.is_null());
    unsafe { std::ptr::write_bytes(p, 0x5A, 4 << 20) };
    let after = file_bytes(&mesh.prom_text());
    assert!(after >= before + (4 << 20), "{before} -> {after}");
    unsafe { mesh.free(p) };
}

/// `MESH_SENSE_PATH` dumps: `write_report` writes the document to the
/// configured file.
#[test]
fn sense_dump_to_path() {
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
    assert!(doc.contains("\"mesh_sense_version\":5"), "{doc}");
    std::fs::remove_file(&path).ok();
    unsafe { mesh.free(p) };
}

/// A *requested* sense dump (the `SIGUSR2` path minus the signal) is as
/// fresh as a synchronous one: the poll belongs to the renderer, not to
/// the trigger. Nothing polls on a clock, so the only way the dump's
/// reading can postdate the request is the renderer's own poll.
#[test]
fn requested_sense_dump_takes_a_fresh_poll() {
    let path = std::env::temp_dir().join(format!("mesh-sense-req-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(5)
            .mesh_period(Duration::from_secs(3600))
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
    let doc = Parser::parse(doc.trim_end());
    let read_at_ms = doc.get("uptime_ms").num();
    assert!(
        read_at_ms >= requested_at_ms,
        "the reading ({read_at_ms} ms) predates the request ({requested_at_ms} ms)"
    );
    assert!(doc.get("snapshot").get("mallocs").num() >= 1, "{doc:?}");
    std::fs::remove_file(&path).ok();
    unsafe { mesh.free(p) };
}

/// The file's footprint against the allocator's committed pages, read
/// from one `sense` render: with every carved byte written the two are
/// equal. Holds after the fill, after freeing a random 88 %, after a mesh
/// pass (its sources' holes are punched) and after a purge.
#[test]
fn file_pages_match_committed_pages_through_mesh_and_purge() {
    let mesh = Mesh::new(
        MeshConfig::default()
            .arena_bytes(64 << 20)
            .seed(11)
            .mesh_period(Duration::from_secs(3600)),
    )
    .unwrap();
    let check = |step: &str| {
        let json = report_text(&mesh, Report::Sense).unwrap();
        let res = Parser::parse(&json).get("residency").clone();
        let committed = mesh.stats().committed_pages as u64 * PAGE_SIZE as u64;
        assert_eq!(res.get("committed_bytes").num(), committed, "{step}");
        assert_eq!(res.get("file_bytes").num(), committed, "{step}: {json}");
    };
    // 256-byte objects fill whole pages: 16 per page, 1 024 pages.
    let ptrs: Vec<*mut u8> = (0..16_384).map(|_| mesh.malloc(256)).collect();
    for &p in &ptrs {
        assert!(!p.is_null());
        unsafe { std::ptr::write_bytes(p, 0x5A, 256) };
    }
    check("filled");
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut kept = Vec::new();
    for p in ptrs {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 100 < 88 {
            unsafe { mesh.free(p) };
        } else {
            kept.push(p);
        }
    }
    check("freed");
    assert!(mesh.mesh_now().pairs_meshed > 0, "the pass meshed nothing");
    check("meshed");
    mesh.purge_dirty();
    check("purged");
    for p in kept {
        assert_eq!(unsafe { *p }, 0x5A, "a survivor lost its bytes");
        unsafe { mesh.free(p) };
    }
}

/// Set in the child [`rss_counts_a_meshed_page_once`] runs of itself.
const RSS_CHILD: &str = "MESH_SENSE_RSS_CHILD";

/// `rss_bytes` counts a heap page once however many mappings show it;
/// `statm` counts it once per mapping. After a pass, reading every
/// survivor through its own address faults in the meshed spans' aliases:
/// `statm` grows by about their pages and `rss_bytes` does not. The body
/// runs in a child of its own, where no other test's heap moves the
/// process's figures.
#[test]
fn rss_counts_a_meshed_page_once() {
    if std::env::var_os(RSS_CHILD).is_none() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "rss_counts_a_meshed_page_once", "--nocapture"])
            .env(RSS_CHILD, "1")
            .output()
            .unwrap();
        let output = String::from_utf8_lossy(&child.stdout) + String::from_utf8_lossy(&child.stderr);
        assert!(child.status.success(), "{output}");
        return;
    }
    let mesh = heap(17);
    let kept = fragment(&mesh, 65_536, 256, 8);
    for &p in &kept {
        unsafe { std::ptr::write_bytes(p, 0x5A, 256) };
    }
    assert!(mesh.mesh_now().pairs_meshed > 0, "the pass meshed nothing");
    let rss = || -> u64 {
        let json = report_text(&mesh, Report::Sense).unwrap();
        Parser::parse(&json).get("snapshot").get("rss_bytes").num()
    };
    let statm = || mesh::core::sys::process_rss_kb().unwrap() * 1024;
    rss(); // the render's own first faults
    let (rss_before, statm_before) = (rss(), statm());
    let mut sum = 0u64;
    for &p in &kept {
        sum += unsafe { std::ptr::read_volatile(p) } as u64;
    }
    assert_eq!(sum, 0x5A * kept.len() as u64, "a survivor lost its bytes");
    let (rss_after, statm_after) = (rss(), statm());
    let aliases = mesh.stats().mesh_pages_released * PAGE_SIZE as u64;
    let figures = format!(
        "aliases {aliases}, statm {statm_before} -> {statm_after}, rss_bytes {rss_before} -> {rss_after}"
    );
    assert!(statm_after >= statm_before + aliases / 2, "statm missed the aliases: {figures}");
    assert!(rss_after.abs_diff(rss_before) < aliases / 8, "rss_bytes counted the aliases: {figures}");
    eprintln!("{figures}");
    for p in kept {
        unsafe { mesh.free(p) };
    }
}
