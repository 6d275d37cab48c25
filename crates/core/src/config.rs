//! Heap configuration (§4.5's tunables plus experiment controls).
//!
//! The defaults reproduce the paper's shipped configuration: meshing at most
//! once every 100 ms, probe limit `t = 64` (§3.3), randomization on. The
//! ablation switches (`meshing`, `randomize`) correspond to the paper's
//! "Mesh (no meshing)" and "Mesh (no rand)" configurations from §6.3.

use crate::error::MeshError;
use crate::harden::{HardenConfig, HardenPolicy};
use crate::knobs::{self, KNOBS};
use crate::size_classes::PAGE_SIZE;
use std::path::PathBuf;
use std::time::Duration;

/// Longest control-socket path accepted: `sockaddr_un.sun_path` is 108
/// bytes on Linux including the terminating NUL.
pub(crate) const CTL_PATH_MAX: usize = 107;

/// Builder-style configuration for a [`crate::Mesh`] heap.
///
/// # Examples
///
/// ```
/// use mesh_core::MeshConfig;
///
/// let config = MeshConfig::default()
///     .seed(42)
///     .arena_bytes(64 * 1024 * 1024)
///     .probe_limit(64);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MeshConfig {
    /// Hard cap on the heap in bytes: the size of the virtual reservation
    /// the segmented arena grows into. Allocation fails (null) only when
    /// no segment can be placed under this cap.
    pub(crate) max_heap_bytes: usize,
    /// Size of the initial segment mapped at heap construction (clamped
    /// to the hard cap).
    pub(crate) initial_segment_bytes: usize,
    /// Preferred size of segments mapped on demand when allocation misses
    /// every existing segment (clamped to the cap; oversized span requests
    /// get a dedicated segment sized to the request).
    pub(crate) segment_bytes: usize,
    /// PRNG seed; `None` seeds from entropy.
    pub(crate) seed: Option<u64>,
    /// Master switch for meshing (§6.3 "Mesh (no meshing)" when false).
    pub(crate) meshing: bool,
    /// Master switch for randomized allocation (§6.3 "Mesh (no rand)"
    /// when false).
    pub(crate) randomize: bool,
    /// Minimum interval between meshing passes (default 100 ms, §4.5).
    pub(crate) mesh_period: Duration,
    /// The least a pass must return to be worth it: if the last pass freed
    /// less than this many bytes, the timer is not restarted until another
    /// free reaches the global heap (§4.5); and a pass purges the dirty
    /// pages (§4.4.1) once at least this many bytes of them are waiting.
    pub(crate) min_mesh_gain_bytes: usize,
    /// SplitMesher probe limit `t` (§3.3; the paper uses 64).
    pub(crate) probe_limit: usize,
    /// Spans with occupancy above this fraction are not mesh candidates.
    pub(crate) occupancy_cutoff: f64,
    /// Maximum virtual spans aliasing one physical span (bounds page-table
    /// growth). 4, one more than the reference implementation's 3: at 3
    /// the 2-span MiniHeaps a first pass makes can never mesh again, and
    /// 4 is the knee of the sweep in DESIGN.md §2a.
    pub(crate) max_span_count: usize,
    /// Dirty (freed but still committed) pages are released to the OS once
    /// they exceed this many bytes (§4.4.1; 64 MB in the paper).
    pub(crate) max_dirty_bytes: usize,
    /// Install the mprotect/SIGSEGV write barrier during meshing (§4.5.2).
    pub(crate) write_barrier: bool,
    /// Master switch for the sampled heap profiler (`MESH_PROF`). Off by
    /// default: no telemetry state exists and the fast path pays only one
    /// predictable branch.
    pub(crate) profiling: bool,
    /// Mean bytes between allocation samples (`MESH_PROF_SAMPLE_BYTES`,
    /// tcmalloc's classic default of 512 KiB). Smaller = more samples =
    /// sharper profiles and more overhead.
    pub(crate) prof_sample_bytes: usize,
    /// Interval between automatic profile dumps (`MESH_PROF_INTERVAL_MS`;
    /// `None` = only on request/at exit). Dumps ride the background
    /// telemetry thread.
    pub(crate) prof_interval: Option<Duration>,
    /// Profile-dump destination (`MESH_PROF_PATH`; `None` = stderr as a
    /// single `mesh-prof: ` line). The file is rewritten on each dump.
    pub(crate) prof_path: Option<PathBuf>,
    /// Master switch for slow-path event tracing (`MESH_TRACE`). Off by
    /// default: no rings exist and each slow-path record is one `Option`
    /// load. The always-on latency histograms are independent of this.
    pub(crate) trace: bool,
    /// Per-ring trace capacity in events (`MESH_TRACE_BUF_EVENTS`,
    /// rounded up to a power of two; 32 bytes per event). Rings
    /// overwrite oldest when full.
    pub(crate) trace_buf_events: usize,
    /// Trace-dump destination (`MESH_TRACE_PATH`; `None` = stderr as a
    /// single `mesh-trace: ` line). The file is rewritten on each dump.
    pub(crate) trace_path: Option<PathBuf>,
    /// Interval between mesh-sense polls (`MESH_SENSE_INTERVAL_MS`;
    /// `None` = sensing off). On by default at 1 Hz: each poll reads
    /// pressure/RSS sources, decomposes residency, and appends one
    /// snapshot to the in-memory ring — cheap enough to leave running.
    pub(crate) sense_interval: Option<Duration>,
    /// Snapshots retained in the sense ring (`MESH_SENSE_HISTORY`). At
    /// the default 1 s interval, 120 snapshots = two minutes of history.
    pub(crate) sense_history: usize,
    /// Pages sampled with `mincore(2)` per sense poll
    /// (`MESH_SENSE_MINCORE_PAGES`; 0 disables the sweep and
    /// `est_resident_bytes` falls back to committed bytes).
    pub(crate) sense_mincore_pages: usize,
    /// Sense-dump destination (`MESH_SENSE_PATH`; `None` = stderr as a
    /// single `mesh-sense: ` line on explicit request only — sensing is
    /// on by default, so there is no unsolicited at-exit dump without a
    /// path). The file is rewritten on each dump.
    pub(crate) sense_path: Option<PathBuf>,
    /// mesh-ctl control-socket path (`MESH_CTL`; `None` = no socket, the
    /// default). When set, the background thread binds a Unix-domain
    /// listener here and answers the line-oriented mesh-ctl protocol —
    /// live introspection and a whitelisted knob surface for running
    /// processes. A forked child unlinks and re-binds the path.
    pub(crate) ctl_path: Option<PathBuf>,
    /// Maximum concurrently connected mesh-ctl clients
    /// (`MESH_CTL_MAX_CLIENTS`); further connections are accepted and
    /// immediately dropped so a misbehaving scraper cannot pile up fds.
    pub(crate) ctl_max_clients: usize,
    /// Hardened-mode configuration (`MESH_HARDEN` and friends): policy
    /// off/count/abort plus per-feature switches for poisoning,
    /// quarantine, guard pages, and the mesh-time canary sweep. Off by
    /// default — the hardened branches collapse to one predictable test.
    pub(crate) harden: HardenConfig,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            max_heap_bytes: 1 << 30,         // 1 GiB hard cap (virtual)
            initial_segment_bytes: 64 << 20, // 64 MiB initial segment
            segment_bytes: 256 << 20,        // 256 MiB growth segments
            seed: None,
            meshing: true,
            randomize: true,
            mesh_period: Duration::from_millis(100),
            min_mesh_gain_bytes: 1 << 20,
            probe_limit: 64,
            occupancy_cutoff: 0.8,
            max_span_count: 4,
            max_dirty_bytes: 64 << 20,
            write_barrier: true,
            profiling: false,
            prof_sample_bytes: 512 << 10, // tcmalloc's classic rate
            prof_interval: None,
            prof_path: None,
            trace: false,
            trace_buf_events: 64 << 10, // 64 Ki events = 2 MiB per ring
            trace_path: None,
            sense_interval: Some(Duration::from_millis(1000)),
            sense_history: 120,
            sense_mincore_pages: 256,
            sense_path: None,
            ctl_path: None,
            ctl_max_clients: 4,
            harden: HardenConfig::default(),
        }
    }
}

/// The builder methods: `name(arg: T) => field = value;` is
/// `pub fn name(mut self, arg: T) -> Self` storing `value` in `field`.
macro_rules! builders {
    ($($(#[$doc:meta])* $name:ident($arg:ident: $ty:ty) => $($field:ident).+ = $value:expr;)*) => {
        $($(#[$doc])*
        pub fn $name(mut self, $arg: $ty) -> Self {
            self.$($field).+ = $value;
            self
        })*
    };
}

impl MeshConfig {
    /// Sets the heap's hard cap in bytes — the virtual reservation the
    /// segmented arena grows into on demand. Legacy name from the
    /// fixed-size-arena era; alias of [`MeshConfig::max_heap_bytes`].
    pub fn arena_bytes(self, bytes: usize) -> Self {
        self.max_heap_bytes(bytes)
    }

    builders! {
        /// Sets the heap's hard cap in bytes. Allocation returns null only
        /// once no segment can be placed under this cap.
        max_heap_bytes(bytes: usize) => max_heap_bytes = bytes;
        /// Sets the size of the initial segment mapped at construction
        /// (clamped to the hard cap).
        initial_segment_bytes(bytes: usize) => initial_segment_bytes = bytes;
        /// Sets the preferred size of on-demand growth segments (clamped to
        /// the hard cap; oversized requests get a dedicated segment).
        segment_bytes(bytes: usize) => segment_bytes = bytes;
        /// Fixes the PRNG seed for deterministic experiments.
        seed(seed: u64) => seed = Some(seed);
        /// Enables or disables meshing (the compaction mechanism itself).
        meshing(enabled: bool) => meshing = enabled;
        /// Enables or disables randomized allocation.
        randomize(enabled: bool) => randomize = enabled;
        /// Sets the minimum interval between meshing passes.
        mesh_period(period: Duration) => mesh_period = period;
        /// Sets the least a pass must return: the "don't restart the timer"
        /// gain threshold (§4.5) and the dirty bytes a pass purges at.
        min_mesh_gain_bytes(bytes: usize) => min_mesh_gain_bytes = bytes;
        /// Sets the SplitMesher probe limit `t` (§3.3).
        probe_limit(t: usize) => probe_limit = t;
        /// Sets the occupancy fraction above which spans are not meshed.
        occupancy_cutoff(cutoff: f64) => occupancy_cutoff = cutoff;
        /// Sets the maximum number of virtual spans per physical span.
        max_span_count(n: usize) => max_span_count = n;
        /// Sets the dirty-page release threshold (§4.4.1).
        max_dirty_bytes(bytes: usize) => max_dirty_bytes = bytes;
        /// Enables or disables the concurrent-meshing write barrier.
        ///
        /// With the barrier disabled, meshing is only safe if no other thread
        /// writes to objects in mesh candidates during a pass; the paper's
        /// design keeps it on and so does the default.
        write_barrier(enabled: bool) => write_barrier = enabled;
        /// Enables or disables the sampled heap profiler (`MESH_PROF`).
        profiling(enabled: bool) => profiling = enabled;
        /// Sets the mean bytes between allocation samples
        /// (`MESH_PROF_SAMPLE_BYTES`).
        prof_sample_bytes(bytes: usize) => prof_sample_bytes = bytes;
        /// Sets (or clears) the automatic profile-dump interval
        /// (`MESH_PROF_INTERVAL_MS`).
        prof_interval(interval: Option<Duration>) => prof_interval = interval;
        /// Sets (or clears) the profile-dump destination (`MESH_PROF_PATH`).
        prof_path(path: Option<PathBuf>) => prof_path = path;
        /// Enables or disables slow-path event tracing (`MESH_TRACE`).
        tracing(enabled: bool) => trace = enabled;
        /// Sets the per-ring trace capacity in events
        /// (`MESH_TRACE_BUF_EVENTS`; rounded up to a power of two).
        trace_buf_events(events: usize) => trace_buf_events = events;
        /// Sets (or clears) the trace-dump destination (`MESH_TRACE_PATH`).
        trace_path(path: Option<PathBuf>) => trace_path = path;
        /// Sets (or clears) the mesh-sense poll interval
        /// (`MESH_SENSE_INTERVAL_MS`; `None` disables sensing).
        sense_interval(interval: Option<Duration>) => sense_interval = interval;
        /// Sets the number of snapshots retained in the sense ring
        /// (`MESH_SENSE_HISTORY`).
        sense_history(snapshots: usize) => sense_history = snapshots;
        /// Sets the per-poll `mincore` page budget
        /// (`MESH_SENSE_MINCORE_PAGES`; 0 disables the residency sweep).
        sense_mincore_pages(pages: usize) => sense_mincore_pages = pages;
        /// Sets (or clears) the sense-dump destination (`MESH_SENSE_PATH`).
        sense_path(path: Option<PathBuf>) => sense_path = path;
        /// Sets (or clears) the mesh-ctl control-socket path (`MESH_CTL`;
        /// `None` = no socket).
        ctl(path: Option<PathBuf>) => ctl_path = path;
        /// Sets the maximum concurrently connected mesh-ctl clients
        /// (`MESH_CTL_MAX_CLIENTS`).
        ctl_max_clients(n: usize) => ctl_max_clients = n;
        /// Sets the hardened-mode policy (`MESH_HARDEN`): [`HardenPolicy::Off`],
        /// count, or abort-on-detection.
        harden_policy(policy: HardenPolicy) => harden.policy = policy;
        /// Enables or disables free poisoning within hardened mode
        /// (`MESH_HARDEN_POISON`; no effect while the policy is `Off`).
        harden_poison(enabled: bool) => harden.poison = enabled;
        /// Enables or disables the delayed-reuse quarantine within hardened
        /// mode (`MESH_HARDEN_QUARANTINE`).
        harden_quarantine(enabled: bool) => harden.quarantine = enabled;
        /// Enables or disables large-object guard pages within hardened mode
        /// (`MESH_HARDEN_GUARD`).
        harden_guard(enabled: bool) => harden.guard = enabled;
        /// Enables or disables the mesh-time canary sweep within hardened
        /// mode (`MESH_HARDEN_CANARY`; also requires poisoning, which writes
        /// the canaries).
        harden_canary(enabled: bool) => harden.canary = enabled;
        /// Sets the per-thread quarantine byte cap
        /// (`MESH_HARDEN_QUARANTINE_BYTES`).
        harden_quarantine_bytes(bytes: usize) => harden.quarantine_bytes = bytes;
        /// Sets the per-thread quarantine slot cap
        /// (`MESH_HARDEN_QUARANTINE_SLOTS`).
        harden_quarantine_slots(slots: usize) => harden.quarantine_slots = slots;
    }

    /// Whether the sampled heap profiler is enabled.
    pub fn is_profiling(&self) -> bool {
        self.profiling
    }

    /// The configured mean bytes between allocation samples.
    pub fn prof_sample_size(&self) -> usize {
        self.prof_sample_bytes
    }

    /// The configured automatic profile-dump interval, if any.
    pub fn prof_dump_interval(&self) -> Option<Duration> {
        self.prof_interval
    }

    /// The configured profile-dump destination, if any.
    pub fn prof_dump_path(&self) -> Option<&std::path::Path> {
        self.prof_path.as_deref()
    }

    /// Whether slow-path event tracing is enabled.
    pub fn is_tracing(&self) -> bool {
        self.trace
    }

    /// The configured per-ring trace capacity in events.
    pub fn trace_buf_event_count(&self) -> usize {
        self.trace_buf_events
    }

    /// The configured trace-dump destination, if any.
    pub fn trace_dump_path(&self) -> Option<&std::path::Path> {
        self.trace_path.as_deref()
    }

    /// Whether mesh-sense polling is enabled.
    pub fn is_sensing(&self) -> bool {
        self.sense_interval.is_some()
    }

    /// The configured sense poll interval, if sensing is enabled.
    pub fn sense_poll_interval(&self) -> Option<Duration> {
        self.sense_interval
    }

    /// The configured sense-ring capacity in snapshots.
    pub fn sense_history_len(&self) -> usize {
        self.sense_history
    }

    /// The configured per-poll `mincore` page budget.
    pub fn sense_mincore_page_budget(&self) -> usize {
        self.sense_mincore_pages
    }

    /// The configured sense-dump destination, if any.
    pub fn sense_dump_path(&self) -> Option<&std::path::Path> {
        self.sense_path.as_deref()
    }

    /// The configured control-socket path, if the socket is enabled.
    pub fn ctl_socket_path(&self) -> Option<&std::path::Path> {
        self.ctl_path.as_deref()
    }

    /// The configured mesh-ctl client cap.
    pub fn ctl_client_cap(&self) -> usize {
        self.ctl_max_clients
    }

    /// The resolved hardened-mode configuration.
    pub fn harden_config(&self) -> HardenConfig {
        self.harden
    }

    /// Whether hardened mode is active (policy is not `Off`).
    pub fn is_hardened(&self) -> bool {
        self.harden.active()
    }

    /// Whether meshing is enabled.
    pub fn is_meshing_enabled(&self) -> bool {
        self.meshing
    }

    /// Whether randomized allocation is enabled.
    pub fn is_randomized(&self) -> bool {
        self.randomize
    }

    /// The configured hard heap cap in bytes.
    pub fn max_heap_size(&self) -> usize {
        self.max_heap_bytes
    }

    /// The configured initial segment size in bytes.
    pub fn initial_segment_size(&self) -> usize {
        self.initial_segment_bytes
    }

    /// The configured growth segment size in bytes.
    pub fn segment_size(&self) -> usize {
        self.segment_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MeshError::InvalidConfig`] if a field is outside its
    /// [`KNOBS`] row's range while the subsystem it sizes is on (the row's
    /// gate), or if the canary sweep is on without the poisoning that
    /// writes the canaries.
    pub fn validate(&self) -> Result<(), MeshError> {
        for row in &KNOBS {
            let Some(field) = &row.field else { continue };
            let value = (field.get)(self);
            if row.gate.is_none_or(|on| on(self)) && !row.kind.admits(&value) {
                return Err(MeshError::InvalidConfig(format!(
                    "{} = {}: expected {}",
                    row.name,
                    knobs::render(&value),
                    row.kind.expects()
                )));
            }
        }
        if self.harden.active() && self.harden.canary && !self.harden.poison {
            return Err(MeshError::InvalidConfig(
                "harden canary sweep requires poisoning (canaries are written by the \
                 poison fill); set MESH_HARDEN_CANARY=0 or MESH_HARDEN_POISON=1"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Applies the `MESH_*` environment knobs on top of this
    /// configuration — the tuning surface of the `LD_PRELOAD` deployment
    /// (§4.5's `mallctl` analog for processes we cannot recompile). One
    /// loop over [`KNOBS`]:
    ///
    /// <!-- knobs:env -->
    /// | variable | meaning | accepts | default |
    /// |---|---|---|---|
    /// | `MESH_MAX_HEAP_BYTES` | hard cap: the virtual reservation segments grow into (8G under `LD_PRELOAD`; legacy name `MESH_ARENA_BYTES`) | a number in 128K..=1T | 1G |
    /// | `MESH_INITIAL_SEGMENT_BYTES` | initial segment size (clamped to the cap) | a number in 128K..=1T | 64M |
    /// | `MESH_SEGMENT_BYTES` | growth segment size (clamped to the cap) | a number in 128K..=1T | 256M |
    /// | `MESH_SEED` | fix the PRNG seed (unset: seeded from entropy) | a number, 0 or more | unset |
    /// | `MESH_PRINT_STATS_AT_EXIT` | one-line stats dump at exit (`LD_PRELOAD` only) | one of 1/0/true/false/yes/no/on/off | off |
    /// | `MESH_PROF` | sampled heap profiler (mesh-insight) | one of 1/0/true/false/yes/no/on/off | off |
    /// | `MESH_PROF_SAMPLE_BYTES` | mean bytes between samples | a number in 1..=1T | 512K |
    /// | `MESH_PROF_INTERVAL_MS` | periodic profile dumps, in ms (0 = off) | a number in 0..=4294967295 | 0 |
    /// | `MESH_PROF_PATH` | profile-dump file (unset: one `mesh-prof:` line on stderr) | a path of 1..=4095 bytes | unset |
    /// | `MESH_TRACE` | slow-path event tracer (mesh-trace) | one of 1/0/true/false/yes/no/on/off | off |
    /// | `MESH_TRACE_BUF_EVENTS` | events per trace ring (rounded up to a power of two, overwrite-oldest) | a number in 64..=4M | 64K |
    /// | `MESH_TRACE_PATH` | trace-dump file (unset: one `mesh-trace:` line on stderr) | a path of 1..=4095 bytes | unset |
    /// | `MESH_SENSE_INTERVAL_MS` | mesh-sense poll period, in ms (0 = off) | a number in 0..=4294967295 | 1000 |
    /// | `MESH_SENSE_HISTORY` | snapshots retained in the sense ring | a number in 2..=100000 | 120 |
    /// | `MESH_SENSE_MINCORE_PAGES` | pages `mincore`-sampled per poll (0 = no sweep) | a number in 0..=16M | 256 |
    /// | `MESH_SENSE_PATH` | sense-dump file, also written at exit (unset: stderr, on request only) | a path of 1..=4095 bytes | unset |
    /// | `MESH_CTL` | mesh-ctl control-socket path (unset: no socket) | a path of 1..=107 bytes | unset |
    /// | `MESH_CTL_MAX_CLIENTS` | concurrent mesh-ctl clients | a number in 1..=64 | 4 |
    /// | `MESH_HARDEN` | hardened mode: `off` / `count` (alias `full`) / `abort` (alias `die`) | one of off/count/abort (aliases: full, die, 0/1, on/off) | off |
    /// | `MESH_HARDEN_POISON` | free poisoning + reallocation verify | one of 1/0/true/false/yes/no/on/off | on |
    /// | `MESH_HARDEN_QUARANTINE` | delayed-reuse quarantine | one of 1/0/true/false/yes/no/on/off | on |
    /// | `MESH_HARDEN_GUARD` | trailing guard page on large objects | one of 1/0/true/false/yes/no/on/off | on |
    /// | `MESH_HARDEN_CANARY` | canary sweep during mesh copy windows (needs poisoning) | one of 1/0/true/false/yes/no/on/off | on |
    /// | `MESH_HARDEN_QUARANTINE_BYTES` | per-thread quarantine byte cap | a number in 4K..=1G | 256K |
    /// | `MESH_HARDEN_QUARANTINE_SLOTS` | per-thread quarantine slot cap | a number in 1..=1M | 512 |
    /// <!-- /knobs -->
    ///
    /// Size knobs accept `K`/`M`/`G`/`T` suffixes (optionally followed by
    /// `B` or `iB`, case-insensitive): `MESH_MAX_HEAP_BYTES=8G`. A value
    /// that is malformed or out of its range is ignored with a one-line
    /// warning on stderr, never left for [`MeshConfig::validate`] to
    /// refuse: under `LD_PRELOAD` a validation failure costs the process
    /// its whole heap. For the same reason a canary sweep left on without
    /// poisoning is switched off here. The retired names in
    /// [`knobs::RETIRED`] are ignored too, whatever their value.
    pub fn apply_env(self) -> Self {
        let mut config = knobs::apply_env(self);
        if config.harden.active() && config.harden.canary && !config.harden.poison {
            eprintln!("mesh: ignoring MESH_HARDEN_CANARY (the sweep needs MESH_HARDEN_POISON=1)");
            config.harden.canary = false;
        }
        config
    }

    /// Number of whole pages under the hard cap.
    pub(crate) fn arena_pages(&self) -> usize {
        self.max_heap_bytes / PAGE_SIZE
    }

    /// Initial-segment size in whole pages.
    pub(crate) fn initial_segment_pages(&self) -> usize {
        self.initial_segment_bytes / PAGE_SIZE
    }

    /// Growth-segment size in whole pages.
    pub(crate) fn segment_pages(&self) -> usize {
        self.segment_bytes / PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::{parse_bool, parse_size};

    #[test]
    fn defaults_match_paper() {
        let c = MeshConfig::default();
        assert_eq!(c.probe_limit, 64, "t = 64 (§3.3)");
        assert_eq!(c.mesh_period, Duration::from_millis(100), "§4.5 rate limit");
        assert_eq!(c.min_mesh_gain_bytes, 1 << 20, "1 MB rule (§4.5)");
        assert_eq!(c.max_dirty_bytes, 64 << 20, "64 MB dirty threshold (§4.4.1)");
        assert!(c.meshing && c.randomize && c.write_barrier);
        assert!(c.validate().is_ok());
        assert!(
            c.initial_segment_bytes <= c.max_heap_bytes
                && c.segment_bytes <= c.max_heap_bytes,
            "default segments fit under the default cap"
        );
    }

    #[test]
    fn segment_builders_and_accessors() {
        let c = MeshConfig::default()
            .max_heap_bytes(256 << 20)
            .initial_segment_bytes(1 << 20)
            .segment_bytes(2 << 20);
        assert_eq!(c.max_heap_size(), 256 << 20);
        assert_eq!(c.initial_segment_size(), 1 << 20);
        assert_eq!(c.segment_size(), 2 << 20);
        assert!(c.validate().is_ok());
        // The legacy builder name sets the cap.
        assert_eq!(MeshConfig::default().arena_bytes(64 << 20).max_heap_size(), 64 << 20);
    }

    #[test]
    fn builder_chains() {
        let c = MeshConfig::default()
            .seed(7)
            .meshing(false)
            .randomize(false)
            .probe_limit(8)
            .occupancy_cutoff(0.5)
            .arena_bytes(1 << 24);
        assert_eq!(c.seed, Some(7));
        assert!(!c.meshing && !c.randomize);
        assert_eq!(c.probe_limit, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_size("64K"), Some(64 << 10));
        assert_eq!(parse_size("64KB"), Some(64 << 10));
        assert_eq!(parse_size("64KiB"), Some(64 << 10));
        assert_eq!(parse_size("512M"), Some(512 << 20));
        assert_eq!(parse_size("8G"), Some(8usize << 30));
        assert_eq!(parse_size("2T"), Some(2usize << 40));
        assert_eq!(parse_size("2g"), Some(2usize << 30));
        for bad in ["", "  ", "G", "12Q", "0x10", "-4", "4.5M", "9999999999999999G"] {
            assert_eq!(parse_size(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn parse_bool_spellings() {
        for t in ["1", "true", "YES", "On"] {
            assert_eq!(parse_bool(t), Some(true));
        }
        for f in ["0", "false", "No", "OFF"] {
            assert_eq!(parse_bool(f), Some(false));
        }
        assert_eq!(parse_bool("maybe"), None);
        assert_eq!(parse_bool(""), None);
    }

    // `apply_env` itself is covered by `tests/env_knobs.rs` (an
    // integration test with its own process): mutating the process
    // environment from this parallel unit-test harness would race other
    // threads' getenv calls.

    #[test]
    fn profiling_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_profiling(), "profiling is off by default");
        assert_eq!(c.prof_sample_size(), 512 << 10, "tcmalloc's classic rate");
        assert_eq!(c.prof_dump_interval(), None);
        assert_eq!(c.prof_dump_path(), None);
        let c = MeshConfig::default()
            .profiling(true)
            .prof_sample_bytes(64 << 10)
            .prof_interval(Some(Duration::from_millis(250)))
            .prof_path(Some("/tmp/prof.json".into()));
        assert!(c.is_profiling());
        assert_eq!(c.prof_sample_size(), 64 << 10);
        assert_eq!(c.prof_dump_interval(), Some(Duration::from_millis(250)));
        assert_eq!(
            c.prof_dump_path(),
            Some(std::path::Path::new("/tmp/prof.json"))
        );
        assert!(c.validate().is_ok());
        // Zero sample rate only matters when profiling is on.
        assert!(MeshConfig::default().prof_sample_bytes(0).validate().is_ok());
        assert!(MeshConfig::default()
            .profiling(true)
            .prof_sample_bytes(0)
            .validate()
            .is_err());
    }

    #[test]
    fn trace_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_tracing(), "tracing is off by default");
        assert_eq!(c.trace_buf_event_count(), 64 << 10);
        assert_eq!(c.trace_dump_path(), None);
        let c = MeshConfig::default()
            .tracing(true)
            .trace_buf_events(4096)
            .trace_path(Some("/tmp/trace.json".into()));
        assert!(c.is_tracing());
        assert_eq!(c.trace_buf_event_count(), 4096);
        assert_eq!(
            c.trace_dump_path(),
            Some(std::path::Path::new("/tmp/trace.json"))
        );
        assert!(c.validate().is_ok());
        // Ring bounds only matter when tracing is on.
        assert!(MeshConfig::default().trace_buf_events(1).validate().is_ok());
        assert!(MeshConfig::default()
            .tracing(true)
            .trace_buf_events(1)
            .validate()
            .is_err());
        assert!(MeshConfig::default()
            .tracing(true)
            .trace_buf_events((1 << 22) + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn sense_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(c.is_sensing(), "sensing is on by default");
        assert_eq!(c.sense_poll_interval(), Some(Duration::from_millis(1000)));
        assert_eq!(c.sense_history_len(), 120);
        assert_eq!(c.sense_mincore_page_budget(), 256);
        assert_eq!(c.sense_dump_path(), None);
        let c = MeshConfig::default()
            .sense_interval(Some(Duration::from_millis(100)))
            .sense_history(16)
            .sense_mincore_pages(0)
            .sense_path(Some("/tmp/sense.json".into()));
        assert_eq!(c.sense_poll_interval(), Some(Duration::from_millis(100)));
        assert_eq!(c.sense_history_len(), 16);
        assert_eq!(c.sense_mincore_page_budget(), 0, "0 = no sweep, still valid");
        assert_eq!(
            c.sense_dump_path(),
            Some(std::path::Path::new("/tmp/sense.json"))
        );
        assert!(c.validate().is_ok());
        let off = MeshConfig::default().sense_interval(None);
        assert!(!off.is_sensing());
        // Ring/budget bounds only matter when sensing is on.
        assert!(off.clone().sense_history(1).validate().is_ok());
        assert!(MeshConfig::default().sense_history(1).validate().is_err());
        assert!(MeshConfig::default().sense_history(100_001).validate().is_err());
        assert!(MeshConfig::default()
            .sense_mincore_pages((1 << 24) + 1)
            .validate()
            .is_err());
    }

    #[test]
    fn ctl_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert_eq!(c.ctl_socket_path(), None, "ctl socket is off by default");
        assert_eq!(c.ctl_client_cap(), 4);
        let c = MeshConfig::default()
            .ctl(Some("/tmp/mesh-ctl.sock".into()))
            .ctl_max_clients(8);
        assert_eq!(
            c.ctl_socket_path(),
            Some(std::path::Path::new("/tmp/mesh-ctl.sock"))
        );
        assert_eq!(c.ctl_client_cap(), 8);
        assert!(c.validate().is_ok());
        // sun_path holds at most CTL_PATH_MAX bytes plus the NUL.
        let long = "/tmp/".to_string() + &"x".repeat(CTL_PATH_MAX);
        assert!(MeshConfig::default().ctl(Some(long.into())).validate().is_err());
        assert!(MeshConfig::default().ctl(Some("".into())).validate().is_err());
        // Client-cap bounds only matter while the socket is on.
        let on = MeshConfig::default().ctl(Some("/tmp/s".into()));
        assert!(on.clone().ctl_max_clients(0).validate().is_err());
        assert!(on.ctl_max_clients(65).validate().is_err());
        assert!(MeshConfig::default().ctl_max_clients(0).validate().is_ok());
    }

    #[test]
    fn harden_knobs_build_and_validate() {
        let c = MeshConfig::default();
        assert!(!c.is_hardened(), "hardened mode is off by default");
        let h = c.harden_config();
        assert_eq!(h.policy, HardenPolicy::Off);
        assert!(h.poison && h.quarantine && h.guard && h.canary, "features default on");
        assert_eq!(h.quarantine_bytes, 256 << 10);
        assert_eq!(h.quarantine_slots, 512);
        let c = MeshConfig::default()
            .harden_policy(HardenPolicy::Count)
            .harden_poison(true)
            .harden_quarantine(true)
            .harden_guard(false)
            .harden_canary(false)
            .harden_quarantine_bytes(64 << 10)
            .harden_quarantine_slots(32);
        assert!(c.is_hardened());
        let h = c.harden_config();
        assert!(h.poison_on() && h.quarantine_on());
        assert!(!h.guard_on() && !h.canary_on());
        assert_eq!(h.quarantine_bytes, 64 << 10);
        assert_eq!(h.quarantine_slots, 32);
        assert!(c.validate().is_ok());
        // Quarantine bounds only matter while hardening (and the
        // quarantine) are on.
        assert!(MeshConfig::default().harden_quarantine_slots(0).validate().is_ok());
        let on = MeshConfig::default().harden_policy(HardenPolicy::Count);
        assert!(on.clone().harden_quarantine_slots(0).validate().is_err());
        assert!(on.clone().harden_quarantine_slots((1 << 20) + 1).validate().is_err());
        assert!(on.clone().harden_quarantine_bytes(16).validate().is_err());
        assert!(on.clone().harden_quarantine_bytes(2 << 30).validate().is_err());
        assert!(on
            .clone()
            .harden_quarantine(false)
            .harden_quarantine_slots(0)
            .validate()
            .is_ok());
        // Canary without poison has nothing to verify.
        assert!(on.clone().harden_poison(false).validate().is_err());
        assert!(on.harden_poison(false).harden_canary(false).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MeshConfig::default().arena_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().initial_segment_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().segment_bytes(4096).validate().is_err());
        assert!(MeshConfig::default().probe_limit(0).validate().is_err());
        assert!(MeshConfig::default().occupancy_cutoff(0.0).validate().is_err());
        assert!(MeshConfig::default().occupancy_cutoff(1.5).validate().is_err());
        assert!(MeshConfig::default().max_span_count(1).validate().is_err());
    }
}
