//! mesh-trace: opt-in (`MESH_TRACE=1`) binary event tracing of the same
//! slow-path operations the latency histograms measure, drained to
//! Chrome trace-event JSON (`chrome://tracing` / Perfetto).
//!
//! ## Event encoding
//!
//! One event is a four-word record of the telemetry [`Ring`]:
//!
//! | word | contents |
//! |---|---|
//! | 0 | bits 0‥16 [`TimedOp`] discriminant; bits 16‥48 recorder tid |
//! | 1 | start, nanoseconds since the heap's epoch |
//! | 2 | duration, nanoseconds |
//! | 3 | op-specific argument (size class, pages, batch length, …) |
//!
//! ## Ring
//!
//! The heap keeps one ring of `MESH_TRACE_BUF_EVENTS` events (rounded up
//! to a power of two) and overwrites its oldest: recent history is what a
//! trace is for, and a writer never blocks. Every thread records into it,
//! its tid in the event — refills as well as the operations recorded under
//! global locks (mesh phases, page releases). A dump decodes only complete
//! events: one being written as it is read is left out.
//!
//! Tracing off is one `Option` load on each slow-path record; the fast
//! path is untouched either way.

use super::histogram::TimedOp;
use super::ring::Ring;
use crate::config::MeshConfig;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Process-wide trace-thread-id source. Ids are small integers assigned
/// on a thread's first recorded event (assignment is one `fetch_add` —
/// no allocation, safe in allocator context). Tid 0 never appears: it is
/// the "unassigned" sentinel.
static NEXT_TRACE_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TRACE_TID: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread's trace tid, assigned on first use.
pub(crate) fn trace_tid() -> u32 {
    TRACE_TID.with(|c| {
        let mut tid = c.get();
        if tid == 0 {
            tid = NEXT_TRACE_TID.fetch_add(1, Ordering::Relaxed);
            c.set(tid);
        }
        tid
    })
}

/// A decoded trace event (dump-side view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The operation.
    pub op: TimedOp,
    /// Recording thread's trace tid.
    pub tid: u32,
    /// Start, nanoseconds since the heap's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Op-specific argument.
    pub arg: u64,
}

/// The heap's tracing state: one [`Ring`] of encoded events. `None` on
/// the heap when `MESH_TRACE` is off — every hook is behind that
/// `Option`.
pub(crate) struct TraceSet {
    /// Runtime on/off gate (mesh-ctl `set trace 0|1`). Starts on; the ring
    /// stays allocated while off, so re-enabling is one atomic store.
    enabled: AtomicBool,
    ring: Ring<4>,
}

impl std::fmt::Debug for TraceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSet")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl TraceSet {
    /// Builds the tracing state for `config`, or `None` when tracing is
    /// off.
    pub(crate) fn new(config: &MeshConfig) -> Option<Arc<TraceSet>> {
        if !config.is_tracing() {
            return None;
        }
        let capacity = config.trace_buf_event_count().next_power_of_two().max(64);
        Some(Arc::new(TraceSet {
            enabled: AtomicBool::new(true),
            ring: Ring::new(capacity),
        }))
    }

    /// Whether event recording is currently on.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns event recording on or off at runtime (mesh-ctl
    /// `set trace 0|1`). The ring and its history are kept either way.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records one event of the calling thread over the oldest (a no-op
    /// while recording is disabled). Lock-free.
    pub(crate) fn record(&self, op: TimedOp, start_ns: u64, dur_ns: u64, arg: u64) {
        if self.is_enabled() {
            let word0 = (op as u16 as u64) | ((trace_tid() as u64) << 16);
            self.ring.push([word0, start_ns, dur_ns, arg]);
        }
    }

    /// Empties the ring (fork child).
    pub(crate) fn wipe(&self) {
        self.ring.wipe();
    }

    /// The complete events, oldest first.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .records()
            .filter_map(|[word0, start_ns, dur_ns, arg]| {
                Some(TraceEvent {
                    op: TimedOp::from_u16(word0 as u16)?,
                    tid: (word0 >> 16) as u32,
                    start_ns,
                    dur_ns,
                    arg,
                })
            })
            .collect()
    }
}

/// Renders `events` as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON object format"): complete (`"ph":"X"`) events with
/// microsecond `ts`/`dur` at nanosecond precision, one row per recording
/// thread.
pub(crate) fn chrome_json(events: &[TraceEvent], uptime_ms: u64) -> String {
    let pid = std::process::id();
    let events = super::fields::array(events.iter().map(|e| {
        format!(
            "{{\"name\":\"{}\",\"cat\":\"mesh\",\"ph\":\"X\",\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"arg\":{}}}}}",
            e.op.name(),
            e.start_ns / 1000,
            e.start_ns % 1000,
            e.dur_ns / 1000,
            e.dur_ns % 1000,
            e.tid,
            e.arg,
        )
    }));
    format!(
        "{{\"traceEvents\":{events},\"displayTimeUnit\":\"ns\",\
         \"otherData\":{{\"mesh_trace_version\":1,\"uptime_ms\":{uptime_ms}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_config() -> MeshConfig {
        MeshConfig::default().tracing(true).trace_buf_events(64)
    }

    #[test]
    fn disabled_config_builds_no_state() {
        assert!(TraceSet::new(&MeshConfig::default()).is_none());
        assert!(TraceSet::new(&trace_config()).is_some());
    }

    #[test]
    fn ring_overwrites_oldest_and_drains_in_order() {
        let t = TraceSet::new(&trace_config()).unwrap();
        for i in 0..100u64 {
            t.record(TimedOp::Refill, i, 10, i);
        }
        let events = t.events();
        assert_eq!(events.len(), 64);
        // The newest 64 survive, oldest-first.
        assert_eq!(events.first().unwrap().arg, 36);
        assert_eq!(events.last().unwrap().arg, 99);
        assert!(events.windows(2).all(|w| w[0].arg + 1 == w[1].arg));
        assert_eq!(events[0].tid, trace_tid());
        assert_eq!(events[0].op, TimedOp::Refill);
    }

    #[test]
    fn wipe_empties_and_blocks_resurrection() {
        let t = TraceSet::new(&trace_config()).unwrap();
        for i in 0..200u64 {
            t.record(TimedOp::MeshPass, i, 1, 0);
        }
        t.wipe();
        assert_eq!(t.events().len(), 0);
        // A partial lap after the wipe exposes only post-wipe events.
        t.record(TimedOp::Madvise, 5, 6, 7);
        let events = t.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].op, TimedOp::Madvise);
    }

    #[test]
    fn chrome_json_is_wellformed() {
        let t = TraceSet::new(&trace_config()).unwrap();
        t.record(TimedOp::MeshCopy, 1_234_567, 89_012, 42);
        t.record(TimedOp::Refill, 2_000_000, 1_500, 3);
        let json = chrome_json(&t.events(), 77);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"mesh_copy\""));
        assert!(json.contains("\"name\":\"refill\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":89.012"));
        assert!(json.contains("\"dur\":1.500"));
        assert!(json.contains("\"uptime_ms\":77"));
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
    fn wipe_all_empties_every_ring() {
        let c = crate::stats::Counters::default();
        c.set_trace(TraceSet::new(&trace_config()).unwrap());
        c.record_wait(TimedOp::MeshPass, 2, 3);
        c.record_slow(TimedOp::Refill, std::time::Instant::now(), 1);
        assert_eq!(c.trace_json().unwrap().matches("\"ph\"").count(), 2);
        c.wipe_for_child();
        assert_eq!(c.trace_json().unwrap().matches("\"ph\"").count(), 0);
    }

    #[test]
    fn trace_tids_are_stable_and_nonzero() {
        let a = trace_tid();
        assert!(a > 0);
        assert_eq!(trace_tid(), a, "tid stable within a thread");
        let b = std::thread::spawn(trace_tid).join().unwrap();
        assert_ne!(a, b, "distinct threads get distinct tids");
    }
}
