//! Reading a layer from outside: `Mesh::stats()` counters and always-on
//! latency histograms, the meshing ledger and the segment table, taken at
//! a workload's boundaries and flattened into `name value` pairs the
//! runner maps onto per-layer metrics.

use mesh_core::{HeapStats, Mesh, ALL_REJECT_REASONS, ALL_TIMED_OPS, PAGE_SIZE, REJECT_REASONS};

/// Heap state at one boundary.
pub struct Snapshot {
    stats: HeapStats,
    rejects: [u64; REJECT_REASONS],
}

impl Snapshot {
    pub fn take(mesh: &Mesh) -> Snapshot {
        Snapshot {
            stats: mesh.stats(),
            rejects: mesh.ledger_reject_totals(),
        }
    }
}

/// Movement of every counter and histogram since `before`, plus the
/// gauges as they stand now (the committed-pages peak is the caller's to
/// read, at a fixed round). Counter keys are the `HeapStats` field names;
/// histogram keys are `lat.<op>.{count,sum_ns,p50_ns,p99_ns,max_ns}`.
pub fn flatten_delta(mesh: &Mesh, before: &Snapshot) -> Vec<(String, f64)> {
    let now = Snapshot::take(mesh);
    let (a, b) = (&now.stats, &before.stats);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| out.push((k.to_string(), v));

    let counters: [(&str, u64, u64); 24] = [
        ("mallocs", a.mallocs, b.mallocs),
        ("frees", a.frees, b.frees),
        ("remote_frees", a.remote_frees, b.remote_frees),
        ("invalid_frees", a.invalid_frees, b.invalid_frees),
        ("double_frees", a.double_frees, b.double_frees),
        ("large_allocs", a.large_allocs, b.large_allocs),
        ("mesh_passes", a.mesh_passes, b.mesh_passes),
        ("spans_meshed", a.spans_meshed, b.spans_meshed),
        (
            "mesh_pages_released",
            a.mesh_pages_released,
            b.mesh_pages_released,
        ),
        (
            "mesh_bytes_copied",
            a.mesh_bytes_copied,
            b.mesh_bytes_copied,
        ),
        ("dirty_purges", a.dirty_purges, b.dirty_purges),
        ("pages_purged", a.pages_purged, b.pages_purged),
        ("refills", a.refills, b.refills),
        (
            "remote_free_queued",
            a.remote_free_queued,
            b.remote_free_queued,
        ),
        (
            "remote_free_drained",
            a.remote_free_drained,
            b.remote_free_drained,
        ),
        ("transfer_hits", a.transfer_hits, b.transfer_hits),
        ("transfer_misses", a.transfer_misses, b.transfer_misses),
        ("transfer_spills", a.transfer_spills, b.transfer_spills),
        (
            "remote_free_batches",
            a.remote_free_batches,
            b.remote_free_batches,
        ),
        (
            "class_lock_contention",
            a.total_class_contention(),
            b.total_class_contention(),
        ),
        (
            "arena_lock_contention",
            a.arena_lock_contention,
            b.arena_lock_contention,
        ),
        ("segments_created", a.segments_created, b.segments_created),
        ("segments_retired", a.segments_retired, b.segments_retired),
        (
            "reallocs_in_place",
            a.reallocs_in_place,
            b.reallocs_in_place,
        ),
    ];
    for (k, after, earlier) in counters {
        put(k, after.wrapping_sub(earlier) as f64);
    }

    put("committed_pages", a.committed_pages as f64);
    put("mapped_pages", a.mapped_pages as f64);
    put("segment_count", a.segment_count as f64);
    put("live_bytes", a.live_bytes as f64);
    let dirty_pages: usize = mesh.segment_stats().iter().map(|s| s.dirty_pages).sum();
    put("dirty_bytes", (dirty_pages * PAGE_SIZE) as f64);

    let lat = a.latency.minus(&b.latency);
    for op in ALL_TIMED_OPS {
        let name = op.name();
        put(&format!("lat.{name}.count"), lat.count(op) as f64);
        put(&format!("lat.{name}.sum_ns"), lat.sum_ns(op) as f64);
        put(
            &format!("lat.{name}.p50_ns"),
            lat.percentile_ns(op, 0.50) as f64,
        );
        put(
            &format!("lat.{name}.p99_ns"),
            lat.percentile_ns(op, 0.99) as f64,
        );
        // `minus` keeps the later snapshot's max: it cannot be windowed.
        put(&format!("lat.{name}.max_ns"), lat.max_ns(op) as f64);
    }

    for (i, reason) in ALL_REJECT_REASONS.iter().enumerate() {
        put(
            &format!("reject.{}", reason.name()),
            now.rejects[i].wrapping_sub(before.rejects[i]) as f64,
        );
    }
    // The ledger keeps the last 64 passes; count those inside the window.
    let (mut probes, mut pairs) = (0u64, 0u64);
    for pass in mesh.ledger_recent() {
        if pass.at_ms >= b.uptime_ms {
            probes += pass.probes;
            pairs += pass.pairs_meshed;
        }
    }
    put("ledger.probes", probes as f64);
    put("ledger.pairs_meshed", pairs as f64);
    out
}
