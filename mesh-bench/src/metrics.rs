//! The metric tables: every end-to-end and per-layer metric by name, unit
//! and direction, and where its value comes from. `BENCHMARK.json` lists
//! exactly these names (the smoke test holds the two together).

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`),
/// and the default of `--all`, `--aa` and `--trace <workload>`.
pub const RUN_SECONDS: u32 = 12;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the bound it starts from (the A/A run may
/// only widen it; see README "Bounds").
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub starting_bound: f64,
}

/// What the wall-clock metrics start from: the contract's cap. The issue
/// proposed 7 % and 10 %. On this host two runs of the same build on the
/// same seed agree within 1-3 %, but the host's speed drifts by a tenth
/// and more over minutes: an A/A run that crossed a busy spell showed
/// spreads of 0.08-0.12 on `ops_per_s` of every workload, and three such
/// spreads do not fit under the cap. The memory metrics keep the issue's
/// starting bounds; their spreads stay near 0.01.
const WALL_CLOCK: f64 = 0.25;

/// The end-to-end metrics, reported by every workload.
///
/// `fail_rate` is not in this list: it is 0 on a healthy tree and the
/// contract asks for metrics that are never 0, so failures travel in the
/// result line's own `failed`/`attempted`/`correct` fields (and every
/// record carries `fail_rate`).
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        starting_bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        starting_bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "op_p50_ns",
        unit: "ns",
        better: Better::Lower,
        starting_bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "op_p99_ns",
        unit: "ns",
        better: Better::Lower,
        starting_bound: WALL_CLOCK,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        starting_bound: 0.03,
    },
    EndToEnd {
        name: "steady_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        starting_bound: 0.03,
    },
    EndToEnd {
        name: "frag_ratio",
        unit: "ratio",
        better: Better::Lower,
        starting_bound: 0.03,
    },
    EndToEnd {
        name: "rss_vs_glibc",
        unit: "ratio",
        better: Better::Lower,
        starting_bound: 0.05,
    },
    EndToEnd {
        name: "time_vs_glibc",
        unit: "ratio",
        better: Better::Lower,
        starting_bound: WALL_CLOCK,
    },
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A timed ladder row (workload-independent).
    Ladder,
    /// `kv --ladder` under `LD_PRELOAD`, or the `/bin/true` start-up pair.
    Abi,
    /// `HeapStats` movement over the workload's measured rounds. A run
    /// replays as many rounds as fit its window, so every count is divided
    /// by the rounds it was gathered over (unit `…/round`): a faster build
    /// does not show more refills for having run more rounds.
    Stats,
    /// The traced run's self-time table.
    Trace,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn ladder(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Ladder,
    }
}
const fn abi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        source: Source::Abi,
    }
}
const fn stat(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Stats,
    }
}
const fn trace(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Better::Lower,
        source: Source::Trace,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, layer by layer (the prefix before the first dot
/// is the layer's module name).
pub const PER_LAYER: [PerLayer; 102] = [
    ladder("shuffle_vector.malloc_ns", "ns"),
    ladder("shuffle_vector.free_ns", "ns"),
    ladder("shuffle_vector.attach_ns", "ns"),
    ladder("shuffle_vector.detach_ns", "ns"),
    ladder("bitmap.try_set_ns", "ns"),
    ladder("bitmap.unset_ns", "ns"),
    ladder("bitmap.meshes_with_ns", "ns"),
    ladder("local_heap.malloc_ns_16", "ns"),
    ladder("local_heap.free_ns_16", "ns"),
    ladder("local_heap.malloc_ns_128", "ns"),
    ladder("local_heap.free_ns_128", "ns"),
    ladder("local_heap.malloc_ns_1024", "ns"),
    ladder("local_heap.free_ns_1024", "ns"),
    ladder("local_heap.malloc_ns_16384", "ns"),
    ladder("local_heap.free_ns_16384", "ns"),
    ladder("local_heap.create_drop_us", "us"),
    ladder("local_heap.flush_us", "us"),
    ladder("local_heap.malloc_aligned_ns", "ns"),
    ladder("page_map.lookup_ns", "ns"),
    stat("transfer_cache.hits", "1/round", Higher),
    stat("transfer_cache.misses", "1/round", Lower),
    stat("transfer_cache.spills", "1/round", Lower),
    stat("transfer_cache.hit_ratio", "ratio", Higher),
    stat("transfer_cache.spill_p50_ns", "ns", Lower),
    stat("transfer_cache.flush_p50_ns", "ns", Lower),
    ladder("remote_free.free_ns", "ns"),
    stat("remote_free.queued", "1/round", Lower),
    stat("remote_free.drained", "1/round", Lower),
    stat("remote_free.batches", "1/round", Lower),
    stat("remote_free.drain_p50_ns", "ns", Lower),
    stat("remote_free.drain_p99_ns", "ns", Lower),
    stat("global_heap.refills", "1/round", Lower),
    stat("global_heap.refill_p50_ns", "ns", Lower),
    stat("global_heap.refill_p99_ns", "ns", Lower),
    stat("global_heap.refills_per_kop", "1/kop", Lower),
    stat("global_heap.class_lock_contention", "1/round", Lower),
    stat("global_heap.class_lock_wait_p99_ns", "ns", Lower),
    ladder("global_heap.large_malloc_us", "us"),
    ladder("global_heap.large_free_us", "us"),
    ladder("global_heap.free_global_ns", "ns"),
    stat("global_heap.realloc_in_place_ratio", "ratio", Higher),
    ladder("arena.alloc_span_ns", "ns"),
    ladder("arena.free_span_dirty_ns", "ns"),
    ladder("arena.purge_dirty_us", "us"),
    ladder("arena.remap_alias_us", "us"),
    stat("arena.lock_contention", "1/round", Lower),
    stat("arena.lock_wait_p99_ns", "ns", Lower),
    stat("arena.committed_pages_peak", "pages", Lower),
    stat("arena.dirty_bytes_steady", "bytes", Lower),
    stat("segment.created", "1/round", Lower),
    stat("segment.retired", "1/round", Higher),
    stat("segment.grow_p50_us", "us", Lower),
    stat("segment.retire_p50_us", "us", Lower),
    stat("segment.mapped_pages_steady", "pages", Lower),
    ladder("sys.memfile_create_us", "us"),
    ladder("sys.map_file_fixed_us", "us"),
    ladder("sys.remap_fixed_us", "us"),
    ladder("sys.protect_read_us", "us"),
    ladder("sys.protect_read_write_us", "us"),
    ladder("sys.release_page_us", "us"),
    ladder("sys.refault_us", "us"),
    ladder("sys.resident_pages_us", "us"),
    ladder("meshing.pass_ms", "ms"),
    stat("meshing.candidates_p50_us", "us", Lower),
    stat("meshing.copy_p50_us", "us", Lower),
    stat("meshing.remap_p50_us", "us", Lower),
    stat("meshing.passes", "1/round", Higher),
    stat("meshing.pairs_meshed", "1/round", Higher),
    stat("meshing.pages_released", "pages/round", Higher),
    stat("meshing.bytes_copied", "bytes/round", Lower),
    stat("meshing.pairs_per_probe", "ratio", Higher),
    stat("meshing.reject_occupancy_overlap", "1/round", Lower),
    stat("meshing.reject_pinned_transfer", "1/round", Lower),
    stat("meshing.reject_class_contention", "1/round", Lower),
    stat("meshing.mutator_pause_p99_us", "us", Lower),
    stat("meshing.mutator_pause_max_us", "us", Lower),
    ladder("telemetry.stats_us", "us"),
    ladder("telemetry.prom_text_us", "us"),
    ladder("telemetry.spectrum_us", "us"),
    abi("abi.malloc_ns", "ns"),
    abi("abi.free_ns", "ns"),
    abi("abi.calloc_ns", "ns"),
    abi("abi.realloc_ns", "ns"),
    abi("abi.thread_spawn_us", "us"),
    abi("abi.startup_ms", "ms"),
    // The traced run: each layer's share of all span self time on this
    // workload, the nested syscall share, and what tracing itself cost.
    trace("trace.share.generator"),
    trace("trace.share.ring"),
    trace("trace.share.child"),
    trace("trace.share.local_heap"),
    trace("trace.share.global_heap"),
    trace("trace.share.remote_free"),
    trace("trace.share.transfer_cache"),
    trace("trace.share.meshing"),
    trace("trace.share.arena"),
    trace("trace.share.segment"),
    trace("trace.share.sys"),
    trace("trace.share.telemetry"),
    trace("trace.nested.sys_madvise"),
    trace("trace.nested.lock_wait"),
    PerLayer {
        name: "trace.spans",
        unit: "1/round",
        better: Higher,
        source: Source::Trace,
    },
    PerLayer {
        name: "trace.ops_per_s",
        unit: "1/s",
        better: Higher,
        source: Source::Trace,
    },
    trace("trace_overhead_frac"),
];

/// What the README says about where a workload's time goes, in the layer
/// names of the trace's `by_layer` table. `tests/smoke.rs` holds the
/// checked-in traces to it: the dominant layers are the top allocator
/// layers by self time, and each bypassed layer stays under a tenth.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    pub workload: &'static str,
    pub dominant: &'static [&'static str],
    pub bypassed: &'static [&'static str],
}

pub const CLAIMS: [Claim; 4] = [
    Claim {
        workload: "fastpath_churn",
        dominant: &["local_heap"],
        bypassed: &["meshing", "arena", "segment", "sys", "transfer_cache"],
    },
    Claim {
        workload: "frag_mesh",
        dominant: &["meshing", "remote_free"],
        bypassed: &["segment", "sys", "transfer_cache", "global_heap"],
    },
    Claim {
        workload: "xthread_handoff",
        dominant: &["remote_free"],
        bypassed: &["meshing", "arena", "segment", "sys"],
    },
    Claim {
        workload: "span_lifecycle",
        dominant: &["sys"],
        bypassed: &["meshing", "transfer_cache", "segment"],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for m in PER_LAYER
            .iter()
            .map(|m| m.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(
                m.len() <= 16
                    && m.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.starting_bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_ladder_row_is_listed() {
        let listed = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Ladder)
            .count();
        assert_eq!(listed, crate::ladder::ROWS);
    }
}
