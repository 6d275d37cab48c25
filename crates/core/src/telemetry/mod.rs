//! mesh-insight: the telemetry & sampled heap-profiling subsystem,
//! layered over the allocator without touching its O(1) fast path:
//!
//! 1. **Latency histograms** (`histogram`) of every slow path, always on.
//! 2. **Sampled allocation profiling** (`sampler`, `MESH_PROF=1`):
//!    tcmalloc-style geometric byte-sampling in each thread heap. Sampled
//!    objects carry a frame-pointer call-site chain into a lock-free
//!    fingerprint table (`profile_table`) and are tracked through
//!    `free`, so the profile is a *live-heap* (leak) profile.
//! 3. **Event tracing** (`trace`, `MESH_TRACE=1`) of the same slow paths.
//! 4. **Sensing** (`sense`, `residency`): one pressure, RSS and residency
//!    reading per render; and the **ledger** (`ledger`) of every mesh pass.
//! 5. **Occupancy spectra** (`spectrum`), one class lock at a time.
//! 6. **Reports** (`report`, `exposition`): every document above,
//!    Prometheus text included, is a [`Report`] kind, with one renderer
//!    and one writer behind `Mesh::report`, the C ABI symbols, SIGUSR2,
//!    mesh-ctl (`ctl`) and exit.
//! 7. **Field tables** (`fields`): a record a view shows names each field
//!    once more, as a row of a table beside its struct (keys, Prometheus
//!    series, whether [`ABSENT`] is `null`); the `mesh:` line, the JSON,
//!    the Prometheus text and the ring words are written from the rows.
//!
//! Trace events and ledger passes share one lock-free history, a `ring`
//! of fixed-size records. See DESIGN.md §4c–§4i for
//! the sampling math, the lock-freedom arguments and the dump path's
//! signal-safety.

mod ctl;
mod exposition;
pub(crate) mod fields;
#[cfg(test)]
mod golden;
mod histogram;
mod ledger;
mod pprof;
mod profile_table;
mod report;
mod residency;
mod ring;
mod sampler;
mod sense;
mod spectrum;
mod trace;

pub use histogram::{
    bucket_upper_ns, LatencySnapshot, TimedOp, ALL_TIMED_OPS, LATENCY_BUCKETS, NUM_TIMED_OPS,
};
pub use ledger::{
    MeshLedger, PassRecord, RejectReason, ALL_REJECT_REASONS, LEDGER_PASSES, REJECT_REASONS,
};
pub use profile_table::{SiteSnapshot, MAX_FRAMES, OVERFLOW_SITE};
pub use report::{Report, ReportOff};
pub use residency::{decompose, ResidencyBreakdown};
pub use sense::{PressureReading, ABSENT};
pub use spectrum::{ClassSpectrum, HeapSpectrum, SPECTRUM_BINS};
pub use trace::TraceEvent;

pub use pprof::{parse_pprof, PprofParseError, PprofSummary};

pub(crate) use ctl::{CtlIo, CtlState, CTL_PARK};
pub(crate) use histogram::HistBlock;
pub(crate) use report::Reports;
pub(crate) use sense::{read_pressure, SenseSnapshot};
pub(crate) use sampler::ThreadSampler;
pub(crate) use spectrum::estimate_meshable_pairs;
pub(crate) use trace::{chrome_json, TraceSet};
#[cfg(test)]
pub(crate) use trace::trace_tid;

use crate::config::MeshConfig;
use fields::{counter, gauge, row, Field, Value::Num};
use profile_table::{FingerprintTable, SampledSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Fingerprint-table capacity: distinct call-site chains kept before new
/// chains fold into the overflow site.
const SITE_CAPACITY: usize = 2048;

/// A point-in-time summary of the profiler itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStats {
    /// Mean bytes between samples (`MESH_PROF_SAMPLE_BYTES`).
    pub sample_bytes: usize,
    /// Samples recorded.
    pub samples: u64,
    /// Samples dropped because the sampled set was full.
    pub samples_dropped: u64,
    /// Sampled objects seen through their free.
    pub sampled_frees: u64,
    /// Distinct call-site fingerprints interned.
    pub sites: usize,
    /// Sampled objects currently live.
    pub live_samples: usize,
    /// Unbiased estimate of live bytes from the sampled population.
    pub live_bytes_estimate: u64,
}

/// The profile document's summary members, the profiler's Prometheus
/// series among them: [`ProfileStats`] beside the heap's exact live bytes,
/// which the document sets before the estimate to cross-check it.
#[rustfmt::skip]
pub(crate) static PROFILE_FIELDS: [Field<(ProfileStats, usize)>; 8] = [
    row!(key: "sample_bytes", get: |(p, _)| Num(p.sample_bytes as u64),
         prom: gauge("mesh_prof_sample_bytes", "Configured geometric sampling rate in bytes.")),
    row!(key: "samples", get: |(p, _)| Num(p.samples), prom: counter("mesh_prof_samples_total", "Allocations sampled.")),
    row!(key: "samples_dropped", get: |(p, _)| Num(p.samples_dropped),
         prom: counter("mesh_prof_samples_dropped_total", "Samples dropped by the overflow catch-all.")),
    row!(key: "sampled_frees", get: |(p, _)| Num(p.sampled_frees),
         prom: counter("mesh_prof_sampled_frees_total", "Sampled objects retired by free.")),
    row!(key: "sites", get: |(p, _)| Num(p.sites as u64), prom: gauge("mesh_prof_sites", "Distinct allocation sites tracked.")),
    row!(key: "live_samples", get: |(p, _)| Num(p.live_samples as u64),
         prom: gauge("mesh_prof_live_samples", "Sampled objects still live.")),
    row!(key: "live_bytes_exact", get: |(_, exact)| Num(*exact as u64)),
    row!(key: "live_bytes_estimate", get: |(p, _)| Num(p.live_bytes_estimate),
         prom: gauge("mesh_prof_live_bytes_estimate", "Unbiased live-bytes estimate from the sampler.")),
];

/// Shared profiling state of one heap: the fingerprint table and the live
/// sampled set. `None` on the heap when profiling
/// is off — every hook is behind that `Option`.
#[derive(Debug)]
pub struct Telemetry {
    /// Mean bytes between samples. Atomic so mesh-ctl's
    /// `set prof_sample_bytes` can retune a live process; samplers
    /// re-read it at each countdown re-arm, so changes propagate within
    /// one sampling period per thread.
    sample_bytes: AtomicUsize,
    table: FingerprintTable,
    live: SampledSet,
    samples: AtomicU64,
    samples_dropped: AtomicU64,
    sampled_frees: AtomicU64,
}

impl Telemetry {
    /// Builds the telemetry state for `config`, or `None` when profiling
    /// is off (the zero-overhead mode: no tables exist, heaps carry no
    /// sampler, and every hook is one `Option` branch).
    pub(crate) fn new(config: &MeshConfig) -> Option<Arc<Telemetry>> {
        if !config.profiling {
            return None;
        }
        let rate = config.prof_sample_bytes.max(1);
        // Expected live samples ≈ live bytes / rate; double for headroom,
        // clamped so a tiny rate cannot demand a gigantic table.
        let capacity = (config.max_heap_bytes / rate)
            .saturating_mul(2)
            .clamp(1 << 12, 1 << 20);
        Some(Arc::new(Telemetry {
            sample_bytes: AtomicUsize::new(rate),
            table: FingerprintTable::new(SITE_CAPACITY),
            live: SampledSet::new(capacity),
            samples: AtomicU64::new(0),
            samples_dropped: AtomicU64::new(0),
            sampled_frees: AtomicU64::new(0),
        }))
    }

    /// Mean bytes between samples.
    #[inline]
    pub fn sample_bytes(&self) -> usize {
        self.sample_bytes.load(Ordering::Relaxed)
    }

    /// Retunes the mean bytes between samples (mesh-ctl
    /// `set prof_sample_bytes`, which refuses 0). Already-armed
    /// per-thread countdowns finish at the old rate, and their recorded
    /// weights stay consistent because each sample carries the rate it
    /// was drawn at.
    pub fn set_sample_bytes(&self, rate: usize) {
        self.sample_bytes.store(rate, Ordering::Relaxed);
    }

    /// Records one sample: interns the chain, tracks the object as live,
    /// credits the site. Called by thread samplers and (with exact
    /// weights) by the large-object path.
    pub(crate) fn record_sample(&self, addr: usize, weight: u64, frames: &[usize]) {
        let site = self.table.intern(frames);
        if self.live.insert(addr, weight, site) {
            self.table.record_alloc(site, weight);
            self.samples.fetch_add(1, Ordering::Relaxed);
        } else {
            // Table full: drop the sample *before* crediting the site so
            // the alloc and free sides of the estimator stay paired.
            self.samples_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a large allocation (§4.4.3). Large objects bypass the
    /// thread samplers' countdown: they are big enough that the sampling
    /// probability saturates anyway, so each is traced exactly (weight =
    /// its own size) — and the path is already heavyweight (page-table
    /// work under locks), so one frame walk is noise.
    pub(crate) fn record_large(&self, addr: usize, bytes: usize) {
        let mut frames = [0usize; MAX_FRAMES];
        let depth = sampler::capture_frames(&mut frames);
        self.record_sample(addr, bytes as u64, &frames[..depth]);
    }

    /// Free hook (any thread, lock-free): if `addr` is a tracked sampled
    /// object, retire it and credit its site.
    #[inline]
    pub(crate) fn on_free(&self, addr: usize) {
        if let Some((weight, site)) = self.live.remove(addr) {
            self.table.record_free(site, weight);
            self.sampled_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unbiased live-byte estimate from the sampled population.
    pub fn live_bytes_estimate(&self) -> u64 {
        self.table.live_bytes_estimate()
    }

    /// Profiler self-summary.
    pub fn stats(&self) -> ProfileStats {
        ProfileStats {
            sample_bytes: self.sample_bytes(),
            samples: self.samples.load(Ordering::Relaxed),
            samples_dropped: self.samples_dropped.load(Ordering::Relaxed),
            sampled_frees: self.sampled_frees.load(Ordering::Relaxed),
            sites: self.table.site_count(),
            live_samples: self.live.len(),
            live_bytes_estimate: self.table.live_bytes_estimate(),
        }
    }

    /// Snapshots of every site with samples, sorted by live bytes
    /// descending (allocates; callers hold the internal-alloc guard).
    pub fn site_snapshots(&self) -> Vec<SiteSnapshot> {
        self.table.snapshots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof_config() -> MeshConfig {
        MeshConfig::default()
            .profiling(true)
            .prof_sample_bytes(4096)
            .arena_bytes(32 << 20)
    }

    #[test]
    fn disabled_config_builds_no_state() {
        assert!(Telemetry::new(&MeshConfig::default()).is_none());
        assert!(Telemetry::new(&prof_config()).is_some());
    }

    #[test]
    fn sample_free_roundtrip_and_stats() {
        let t = Telemetry::new(&prof_config()).unwrap();
        t.record_sample(0x10_0000, 5000, &[0xaa, 0xbb]);
        t.record_sample(0x10_4000, 7000, &[0xaa, 0xcc]);
        let s = t.stats();
        assert_eq!(s.samples, 2);
        assert_eq!(s.sites, 2);
        assert_eq!(s.live_samples, 2);
        assert_eq!(s.live_bytes_estimate, 12_000);
        t.on_free(0x10_0000);
        t.on_free(0xdead_0000); // unsampled: a one-probe miss
        let s = t.stats();
        assert_eq!(s.sampled_frees, 1);
        assert_eq!(s.live_bytes_estimate, 7000);
        let snaps = t.site_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].live_bytes(), 7000, "sorted live-first");
        assert_eq!(snaps[1].live_bytes(), 0);
    }
}
