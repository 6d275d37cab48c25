//! The one report pipeline: every document the heap can describe itself
//! with is a [`Report`] kind, built by one renderer
//! ([`GlobalHeap::render`]), written by one writer ([`GlobalHeap::emit`]),
//! and asked for asynchronously through one signal-safe pending mask
//! ([`Reports`]). Every trigger — `Mesh::report`, `SIGUSR2` /
//! `Mesh::request_report`, the C ABI symbols, the at-exit hook, the
//! mesh-ctl socket — lands here and nowhere else, so a document cannot
//! depend on how it was asked for.
//!
//! The per-kind facts (name, stderr prefix, path knob, off message) are
//! the `ROWS` table below; DESIGN.md §4i lists them beside the API, ctl
//! command and C symbol of each kind.
//!
//! The background thread's beat ([`GlobalHeap::telemetry_tick`]) and its
//! park computation live here too: serving the pending mask is what the
//! beat is for. So does the mesh-sense poll: a snapshot is taken by a
//! `sense` or `prom` render, at no other time, and kept by neither.

use super::ledger::REJECT_TOTALS;
use super::residency::RESIDENCY_FIELDS;
use super::spectrum::{CLASS_FIELDS, LARGE_FIELDS};
use super::{exposition, fields, pprof, HeapSpectrum, MeshLedger, PassRecord, ResidencyBreakdown};
use super::{SenseSnapshot, ABSENT, CTL_PARK};
use crate::config::MeshConfig;
use crate::ffi;
use crate::global_heap::GlobalHeap;
use crate::stats::HeapStats;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// A document the heap can render about itself. The variant order is the
/// order of [`Report::ALL`], the mesh-ctl `help` line, and the bits of
/// the pending mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// The `mesh: key=value` text block (`malloc_stats(3)`, the exit dump).
    Stats,
    /// Prometheus text exposition.
    Prom,
    /// Version-1 sampled heap-profile JSON.
    Profile,
    /// The same live-heap profile as an uncompressed pprof protobuf.
    Pprof,
    /// Chrome trace-event JSON of the buffered slow-path events.
    Trace,
    /// Version-5 mesh-sense JSON: residency, one snapshot, the ledger.
    Sense,
    /// The per-class occupancy-spectrum JSON.
    Spectrum,
}

/// Why [`Report`] could not be rendered: the subsystem behind it was
/// built disabled. Carries the one message every trigger reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOff(pub &'static str);

impl std::fmt::Display for ReportOff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// The static facts of one kind.
struct Row {
    name: &'static str,
    /// Prefix of the single stderr line a path-less dump writes.
    prefix: Option<&'static str>,
    /// The `MESH_*_PATH` knob naming a dump destination, for the kinds
    /// that have one ("dumpable": also served by `SIGUSR2` and at exit).
    path_knob: Option<&'static str>,
    /// The [`ReportOff`] message (`""`: the kind is always available).
    off: &'static str,
}

const PROF_OFF: &str = "profiling off (set MESH_PROF=1)";

const ROWS: [Row; Report::ALL.len()] = [
    Row {
        name: "stats",
        prefix: None,
        path_knob: None,
        off: "",
    },
    Row {
        name: "prom",
        prefix: None,
        path_knob: None,
        off: "",
    },
    Row {
        name: "profile",
        prefix: Some("mesh-prof"),
        path_knob: Some("MESH_PROF_PATH"),
        off: PROF_OFF,
    },
    Row {
        name: "pprof",
        prefix: None,
        path_knob: None,
        off: PROF_OFF,
    },
    Row {
        name: "trace",
        prefix: Some("mesh-trace"),
        path_knob: Some("MESH_TRACE_PATH"),
        off: "tracing off (set MESH_TRACE=1)",
    },
    Row {
        name: "sense",
        prefix: Some("mesh-sense"),
        path_knob: Some("MESH_SENSE_PATH"),
        off: "",
    },
    Row {
        name: "spectrum",
        prefix: None,
        path_knob: None,
        off: "",
    },
];

impl Report {
    /// Every kind, in declaration order.
    pub const ALL: [Report; 7] = [
        Report::Stats,
        Report::Prom,
        Report::Profile,
        Report::Pprof,
        Report::Trace,
        Report::Sense,
        Report::Spectrum,
    ];

    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The kind's name: also the mesh-ctl command that returns it.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The kind called `name`, if any.
    pub fn from_name(name: &str) -> Option<Report> {
        Report::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The `MESH_*_PATH` knob that names this kind's dump file (`None`:
    /// the kind is only ever rendered on demand).
    pub fn path_knob(self) -> Option<&'static str> {
        self.row().path_knob
    }

    /// What every trigger answers when this kind's subsystem is off.
    pub(crate) fn off(self) -> ReportOff {
        ReportOff(self.row().off)
    }
}

/// One heap's report destinations and its pending-request mask.
#[derive(Debug)]
pub(crate) struct Reports {
    paths: [Option<PathBuf>; Report::ALL.len()],
    /// One bit per kind: set by [`Reports::request`], claimed whole by
    /// the background thread's beat.
    pending: AtomicU8,
}

impl Reports {
    pub(crate) fn new(config: &MeshConfig) -> Reports {
        let path = |on: bool, p: Option<&Path>| p.filter(|_| on).map(Path::to_path_buf);
        Reports {
            paths: Report::ALL.map(|kind| match kind {
                Report::Profile => path(config.is_profiling(), config.prof_dump_path()),
                Report::Trace => path(config.is_tracing(), config.trace_dump_path()),
                Report::Sense => config.sense_dump_path().map(Path::to_path_buf),
                _ => None,
            }),
            pending: AtomicU8::new(0),
        }
    }

    /// The configured dump file of `kind`, if its subsystem is on and
    /// its path knob was set.
    pub(crate) fn path(&self, kind: Report) -> Option<&Path> {
        self.paths[kind as usize].as_deref()
    }

    /// Asks the background thread to [`GlobalHeap::emit`] `kind` at its
    /// next beat. The only entry point safe from a signal handler: one
    /// relaxed atomic RMW (the mask publishes no other data).
    #[inline]
    pub(crate) fn request(&self, kind: Report) {
        self.pending.fetch_or(kind.bit(), Ordering::Relaxed);
    }

    fn claim(&self) -> u8 {
        self.pending.swap(0, Ordering::Relaxed)
    }

    /// Drops every pending request: a forked child inherits none, or its
    /// first beat would overwrite the parent's dump files with the
    /// parent's data.
    pub(crate) fn clear(&self) {
        self.pending.store(0, Ordering::Relaxed);
    }
}

impl GlobalHeap {
    /// Builds the document of `kind` from the heap's current state.
    /// Allocates and takes shard locks one at a time; callers hold the
    /// internal-alloc guard and no shard lock.
    pub(crate) fn render(&self, kind: Report) -> Result<Vec<u8>, ReportOff> {
        let text = match kind {
            Report::Stats => self.stats_with_spectrum().render(),
            Report::Prom => {
                let stats = self.stats_with_spectrum();
                let prof = self.telemetry.as_ref().map(|t| t.stats());
                let (snap, res) = self.sense_poll();
                exposition::prom_text(&stats, prof.as_ref(), &snap, &res, &self.ledger.reject_totals())
            }
            Report::Profile => {
                let t = self.telemetry.as_ref().ok_or(kind.off())?;
                exposition::profile_json(
                    &t.stats(),
                    &t.site_snapshots(),
                    self.counters.snapshot().live_bytes,
                    self.counters.uptime_ms(),
                )
            }
            Report::Pprof => {
                let t = self.telemetry.as_ref().ok_or(kind.off())?;
                let time_nanos = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0);
                return Ok(pprof::encode(
                    &t.site_snapshots(),
                    t.sample_bytes() as u64,
                    time_nanos,
                ));
            }
            Report::Trace => self.counters.trace_json().ok_or(kind.off())?,
            Report::Sense => {
                // One fresh poll per document, whatever asked for it.
                let (snap, res) = self.sense_poll();
                sense_json(&snap, &res, &self.ledger, self.counters.uptime_ms())
            }
            Report::Spectrum => {
                spectrum_json(&self.occupancy_spectrum(), self.counters.uptime_ms())
            }
        };
        Ok(text.into_bytes())
    }

    /// Renders `kind` and writes it out: to its configured path
    /// (truncating — the file always holds the latest document) or, with
    /// no path, to `fallback_fd` as a single line carrying the kind's
    /// prefix. Never panics: an allocator must survive a read-only
    /// filesystem or a closed stderr.
    pub(crate) fn emit(&self, kind: Report, fallback_fd: ffi::c_int) -> Result<(), ReportOff> {
        let mut out = self.render(kind)?;
        out.push(b'\n');
        match (self.reports.path(kind), kind.row().prefix) {
            (Some(path), _) => match std::fs::write(path, &out) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    out = format!(
                        "mesh: {} dump to {} failed: {e}\n",
                        kind.name(),
                        path.display()
                    )
                    .into_bytes()
                }
            },
            (None, Some(prefix)) => {
                out.splice(..0, format!("{prefix}: ").into_bytes());
            }
            (None, None) => {}
        }
        // SAFETY: `out` is a live buffer of `out.len()` bytes; a closed or
        // bad fd makes `write` return an error, which is ignored.
        unsafe { ffi::write(fallback_fd, out.as_ptr() as *const ffi::c_void, out.len()) };
        Ok(())
    }

    /// Counters plus the occupancy spectrum.
    fn stats_with_spectrum(&self) -> HeapStats {
        let mut stats = self.counters.snapshot();
        stats.spectrum = self.occupancy_spectrum();
        stats
    }

    /// Takes one mesh-sense poll: reads the pressure sources and the
    /// counters, decomposes residency from the arena's snapshot and what
    /// its file holds, and returns both. Takes the arena lock briefly (for
    /// the snapshot and two `fstat`s, the file's identity and its blocks)
    /// and nothing else.
    fn sense_poll(&self) -> (SenseSnapshot, ResidencyBreakdown) {
        let start = Instant::now();
        let (arena_stats, file_pages) = {
            let mut arena = self.lock_arena();
            (arena.stats(), arena.file_pages())
        };
        let res = super::decompose(&arena_stats, file_pages);
        let p = super::read_pressure((res.file_bytes != ABSENT).then_some(res.file_bytes));
        let stats = self.counters.snapshot();
        let snap = SenseSnapshot {
            rss_bytes: p.rss_bytes.unwrap_or(ABSENT),
            psi_avg10_milli: p.psi_avg10_milli.unwrap_or(ABSENT),
            psi_avg60_milli: p.psi_avg60_milli.unwrap_or(ABSENT),
            cgroup_limit_bytes: p.cgroup_limit_bytes.unwrap_or(ABSENT),
            cgroup_usage_bytes: p.cgroup_usage_bytes.unwrap_or(ABSENT),
            mallocs: stats.mallocs,
            frees: stats.frees,
            mesh_passes: stats.mesh_passes,
            pairs_meshed: stats.spans_meshed,
            poll_ns: start.elapsed().as_nanos() as u64,
        };
        (snap, res)
    }

    /// One background-thread beat: emits every report requested by
    /// `SIGUSR2` / `Mesh::request_report`, then serves a beat of the
    /// mesh-ctl socket.
    pub(crate) fn telemetry_tick(&self) {
        let due = self.reports.claim();
        for kind in Report::ALL {
            if due & kind.bit() != 0 {
                // A request for a kind whose subsystem is off is a no-op.
                let _ = self.emit(kind, 2);
            }
        }
        self.ctl_tick();
    }

    /// How long the background thread may park: a full idle slice, or
    /// [`CTL_PARK`] while a control socket listens (it needs polling-grade
    /// latency; a ctl that failed to bind costs nothing).
    pub(crate) fn next_park(&self) -> Duration {
        if self.ctl.as_ref().is_some_and(|c| c.is_listening()) {
            CTL_PARK
        } else {
            crate::mesher::IDLE_PARK
        }
    }

    /// Whether a heap with this configuration runs the background thread:
    /// to serve requested reports of the kinds that have a
    /// dump (profiling, tracing, a `MESH_SENSE_PATH`), to serve the
    /// mesh-ctl socket, or both. A default heap runs none.
    pub(crate) fn background_thread_wanted(&self) -> bool {
        self.telemetry.is_some()
            || self.counters.trace_set().is_some()
            || self.reports.path(Report::Sense).is_some()
            || self.ctl.is_some()
    }
}

/// The `sense` document, one reading: the heap's residency, the
/// snapshot the poll took beside it, and the mesh-pass effectiveness
/// ledger. Each figure is named once.
pub(super) fn sense_json(
    snap: &SenseSnapshot,
    res: &ResidencyBreakdown,
    ledger: &MeshLedger,
    uptime_ms: u64,
) -> String {
    format!(
        "{{\"mesh_sense_version\":5,\"uptime_ms\":{uptime_ms},\"residency\":{{{}}},\
         \"snapshot\":{},\"ledger\":{{\"passes_recorded\":{},{},\"passes\":{}}}}}",
        fields::members(&RESIDENCY_FIELDS, res),
        snap.json(),
        ledger.passes_recorded(),
        fields::members(&REJECT_TOTALS, &ledger.reject_totals()),
        fields::array(ledger.recent().iter().map(PassRecord::json)),
    )
}

/// Renders a [`HeapSpectrum`] as the `spectrum` document.
pub(super) fn spectrum_json(spec: &HeapSpectrum, uptime_ms: u64) -> String {
    format!(
        "{{\"mesh_spectrum_version\":1,\"uptime_ms\":{uptime_ms},\"classes\":{},{}}}",
        fields::array(spec.classes.iter().map(|c| fields::object(&CLASS_FIELDS, c))),
        fields::members(&LARGE_FIELDS, spec),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counters;
    use std::sync::Arc;

    fn heap(config: MeshConfig) -> GlobalHeap {
        GlobalHeap::new(
            config.arena_bytes(16 << 20).seed(7).write_barrier(false),
            Arc::new(Counters::default()),
        )
        .unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mesh-report-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn names_round_trip_and_rows_line_up() {
        for (i, kind) in Report::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order");
            assert_eq!(Report::from_name(kind.name()), Some(kind));
            assert_eq!(
                kind.row().prefix.is_some(),
                kind.path_knob().is_some(),
                "{}: a prefixed stderr line is the fallback of a path knob",
                kind.name()
            );
        }
        assert_eq!(Report::from_name("mesh_now"), None);
        assert_eq!(Report::Profile.row().prefix, Some("mesh-prof"));
        assert_eq!(Report::Trace.row().prefix, Some("mesh-trace"));
        assert_eq!(Report::Sense.row().prefix, Some("mesh-sense"));
    }

    #[test]
    fn pending_mask_is_one_shot_and_clearable() {
        let r = Reports::new(&MeshConfig::default());
        assert_eq!(r.claim(), 0);
        r.request(Report::Trace);
        r.request(Report::Profile);
        r.request(Report::Trace);
        assert_eq!(r.claim(), Report::Trace.bit() | Report::Profile.bit());
        assert_eq!(r.claim(), 0, "claim is one-shot");
        r.request(Report::Sense);
        r.clear();
        assert_eq!(r.claim(), 0, "clear drops every pending request");
    }

    #[test]
    fn paths_exist_only_for_enabled_dumpable_kinds() {
        let p = tmp("paths");
        let on = Reports::new(
            &MeshConfig::default()
                .profiling(true)
                .prof_path(Some(p.clone()))
                .tracing(true)
                .trace_path(Some(p.clone()))
                .sense_path(Some(p.clone())),
        );
        for kind in Report::ALL {
            assert_eq!(
                on.path(kind).is_some(),
                kind.path_knob().is_some(),
                "{}",
                kind.name()
            );
        }
        let off = Reports::new(
            &MeshConfig::default()
                .prof_path(Some(p.clone()))
                .trace_path(Some(p.clone()))
                .sense_path(Some(p)),
        );
        for kind in Report::ALL {
            assert_eq!(
                off.path(kind).is_some(),
                kind == Report::Sense,
                "{}: profiling and tracing off, sensing always on",
                kind.name()
            );
        }
    }

    #[test]
    fn emit_truncates_the_file_and_tick_serves_requests() {
        let path = tmp("emit");
        std::fs::write(&path, "x".repeat(1 << 16)).unwrap();
        let h = heap(
            MeshConfig::default()
                .profiling(true)
                .prof_path(Some(path.clone())),
        );
        h.emit(Report::Profile, 2).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("{\"mesh_profile_version\":1,"), "{first}");
        assert!(
            first.ends_with("]}\n"),
            "one document, newline-terminated: {first}"
        );
        std::fs::remove_file(&path).unwrap();
        h.telemetry_tick();
        assert!(
            !path.exists(),
            "nothing requested: nothing written"
        );
        h.reports.request(Report::Profile);
        h.telemetry_tick();
        assert!(path.exists(), "the beat served the request");
        std::fs::remove_file(&path).unwrap();
        h.telemetry_tick();
        assert!(!path.exists(), "a request fires once");
    }

    #[test]
    fn off_kinds_answer_with_their_row_message() {
        let h = heap(MeshConfig::default());
        for kind in Report::ALL {
            match h.render(kind) {
                Ok(_) => assert_eq!(kind.off().0, "", "{} is always on", kind.name()),
                Err(off) => {
                    assert_eq!(off, kind.off());
                    assert!(!off.0.is_empty());
                    assert_eq!(h.emit(kind, 2), Err(off), "emit reports the same");
                }
            }
        }
        assert_eq!(Report::Pprof.off(), Report::Profile.off());
    }

    #[test]
    fn spectrum_document_shape() {
        let json = spectrum_json(&HeapSpectrum::default(), 9);
        assert!(json.starts_with("{\"mesh_spectrum_version\":1,\"uptime_ms\":9,\"classes\":[{"));
        assert!(json.ends_with("],\"large_spans\":0,\"large_bytes\":0}"));
    }
}
