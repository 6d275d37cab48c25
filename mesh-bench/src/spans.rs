//! The benchmark's own span recorder: one span around every call a
//! workload makes into a layer's public function. Spans live in a
//! pre-sized buffer and are written out after the run; self time (a span
//! minus the part its children cover) is accumulated as spans close, so
//! it stays exact even when the buffer has filled.

use std::time::Instant;

/// Every call site the workloads wrap, with the layer it is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanName {
    /// One workload operation as the generator sees it: the parent of the
    /// allocator calls it makes; its self time is stamping, verifying and
    /// bookkeeping.
    Op = 0,
    Malloc,
    Free,
    MallocLarge,
    FreeLarge,
    FreeRemote,
    Flush,
    HeapCreate,
    HeapDrop,
    MeshNow,
    Purge,
    Stats,
    RingPush,
    RingPop,
    Verify,
    /// First write to every page of a fresh large object: the kernel's
    /// fault path for the arena's file-backed mappings.
    Touch,
    ChildSpawn,
    ChildWait,
}

pub const SPAN_NAMES: usize = 18;

pub const ALL_SPAN_NAMES: [SpanName; SPAN_NAMES] = [
    SpanName::Op,
    SpanName::Malloc,
    SpanName::Free,
    SpanName::MallocLarge,
    SpanName::FreeLarge,
    SpanName::FreeRemote,
    SpanName::Flush,
    SpanName::HeapCreate,
    SpanName::HeapDrop,
    SpanName::MeshNow,
    SpanName::Purge,
    SpanName::Stats,
    SpanName::RingPush,
    SpanName::RingPop,
    SpanName::Verify,
    SpanName::Touch,
    SpanName::ChildSpawn,
    SpanName::ChildWait,
];

impl SpanName {
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Op => "workload.op",
            SpanName::Malloc => "ThreadHeap::malloc",
            SpanName::Free => "ThreadHeap::free",
            SpanName::MallocLarge => "ThreadHeap::malloc(large)",
            SpanName::FreeLarge => "ThreadHeap::free(large)",
            SpanName::FreeRemote => "ThreadHeap::free(remote)",
            SpanName::Flush => "ThreadHeap::flush",
            SpanName::HeapCreate => "Mesh::thread_heap",
            SpanName::HeapDrop => "ThreadHeap::drop",
            SpanName::MeshNow => "Mesh::mesh_now",
            SpanName::Purge => "Mesh::purge_dirty",
            SpanName::Stats => "Mesh::stats",
            SpanName::RingPush => "ring.push",
            SpanName::RingPop => "ring.pop",
            SpanName::Verify => "workload.verify",
            SpanName::Touch => "workload.touch_pages",
            SpanName::ChildSpawn => "child.spawn",
            SpanName::ChildWait => "child.wait",
        }
    }

    /// The layer whose public face the call enters. Private layers reached
    /// further down are split out of these afterwards from the
    /// `HeapStats.latency` sums taken at the same boundaries (see
    /// `runner::layer_self_times`).
    pub fn layer(self) -> &'static str {
        match self {
            SpanName::Op | SpanName::Verify => "bench.generator",
            SpanName::Malloc | SpanName::Free | SpanName::HeapCreate | SpanName::HeapDrop => {
                "local_heap"
            }
            SpanName::MallocLarge | SpanName::FreeLarge => "global_heap",
            SpanName::FreeRemote | SpanName::Flush => "remote_free",
            SpanName::MeshNow => "meshing",
            SpanName::Purge => "arena",
            SpanName::Stats => "telemetry",
            SpanName::Touch => "sys",
            SpanName::RingPush | SpanName::RingPop => "bench.ring",
            SpanName::ChildSpawn | SpanName::ChildWait => "bench.child",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Workload-op id shared by the spans of one operation.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals accumulated as spans close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// What a workload is generic over: [`Recorder`] for the traced run,
/// [`NoTrace`] (which compiles to nothing) for the measured one.
pub trait Tracer: Sized + Send {
    /// A tracer for one thread, with times counted from `origin`.
    fn fresh(origin: Instant) -> Self;
    fn enter(&mut self, name: SpanName, op: u64);
    fn exit(&mut self);
    /// Records a span another thread timed (`start`..`end`): a root span
    /// on that thread's timeline, with no children.
    fn closed(&mut self, name: SpanName, op: u64, start: Instant, end: Instant);
    fn into_recording(self) -> Recording;

    /// Runs `f` inside a span.
    #[inline(always)]
    fn span<R>(&mut self, name: SpanName, op: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, op);
        let r = f();
        self.exit();
        r
    }
}

/// The tracer of untraced runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    fn fresh(_origin: Instant) -> NoTrace {
        NoTrace
    }
    fn into_recording(self) -> Recording {
        Recording::default()
    }
    #[inline(always)]
    fn enter(&mut self, _name: SpanName, _op: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn closed(&mut self, _name: SpanName, _op: u64, _start: Instant, _end: Instant) {}
}

struct Frame {
    index: u32,
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
}

/// Spans a worker thread's buffer holds (32 bytes each); later spans are
/// still counted and timed, only not kept.
pub const SPAN_CAPACITY: usize = 1 << 20;

/// Single-threaded span recorder (one per worker thread; merge the
/// [`Recorder::finish`] outputs).
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    stack: Vec<Frame>,
    totals: [NameTotals; SPAN_NAMES],
    recorded: u64,
}

/// A finished recording.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    pub totals: [NameTotals; SPAN_NAMES],
    /// Spans opened in total; `spans.len()` of them fit the buffer.
    pub recorded: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose buffer holds `capacity` spans, allocated and
    /// touched now so recording never grows memory.
    pub fn with_capacity(capacity: usize, origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::with_capacity(capacity),
            capacity,
            stack: Vec::with_capacity(16),
            totals: [NameTotals::default(); SPAN_NAMES],
            recorded: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn finish(self) -> Recording {
        debug_assert!(self.stack.is_empty(), "unclosed span");
        Recording {
            totals: self.totals,
            recorded: self.recorded,
            spans: self.spans,
        }
    }
}

impl Tracer for Recorder {
    fn fresh(origin: Instant) -> Recorder {
        Recorder::with_capacity(SPAN_CAPACITY, origin)
    }

    fn into_recording(self) -> Recording {
        self.finish()
    }

    fn closed(&mut self, name: SpanName, op: u64, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur;
        self.recorded += 1;
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                name,
                parent: NO_PARENT,
                op,
                start_ns,
                end_ns,
            });
        }
    }

    #[inline]
    fn enter(&mut self, name: SpanName, op: u64) {
        let start_ns = self.now();
        self.recorded += 1;
        let index = if self.spans.len() < self.capacity {
            let parent = self.stack.last().map_or(NO_PARENT, |f| f.index);
            self.spans.push(Span {
                name,
                parent,
                op,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Frame {
            index,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now();
        let frame = self.stack.pop().expect("exit without enter");
        let dur = end_ns.saturating_sub(frame.start_ns);
        let t = &mut self.totals[frame.name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(frame.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if frame.index != NO_PARENT {
            self.spans[frame.index as usize].end_ns = end_ns;
        }
    }
}

impl Recording {
    pub fn merge(&mut self, other: Recording) {
        for (a, b) in self.totals.iter_mut().zip(other.totals) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
        }
        self.recorded += other.recorded;
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }
}

/// Self time per span from a complete buffer: each span's duration minus
/// the durations of the spans that name it as parent. The offline
/// counterpart of what [`Recorder`] accumulates online.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let d = s.end_ns - s.start_ns;
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(d);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) → malloc [10,40) → (nested) purge [15,25); free [50,70)
        let spans = [
            span(SpanName::Op, NO_PARENT, 0, 100),
            span(SpanName::Malloc, 0, 10, 40),
            span(SpanName::Purge, 1, 15, 25),
            span(SpanName::Free, 0, 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn recorder_totals_agree_with_offline_self_times() {
        let mut r = Recorder::with_capacity(64, Instant::now());
        for op in 0..5u64 {
            r.enter(SpanName::Op, op);
            r.span(SpanName::Malloc, op, || std::hint::black_box(op * 3));
            r.enter(SpanName::Free, op);
            r.span(SpanName::Purge, op, || ());
            r.exit();
            r.exit();
        }
        let rec = r.finish();
        assert_eq!(rec.recorded, 20);
        assert_eq!(rec.spans.len(), 20);
        let own = self_times(&rec.spans);
        for name in ALL_SPAN_NAMES {
            let offline: u64 = rec
                .spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name == name)
                .map(|(_, o)| *o)
                .sum();
            assert_eq!(
                rec.totals[name as usize].self_ns,
                offline,
                "{}",
                name.label()
            );
        }
        // Children carry their parent's index and op id.
        assert_eq!(rec.spans[1].parent, 0);
        assert_eq!(rec.spans[3].parent, 2);
        assert_eq!(rec.spans[7].op, 1);
        let op = rec.totals[SpanName::Op as usize];
        let kids = rec.totals[SpanName::Malloc as usize].total_ns
            + rec.totals[SpanName::Free as usize].total_ns;
        assert_eq!(op.self_ns, op.total_ns - kids);
    }

    #[test]
    fn full_buffer_keeps_counting() {
        let mut r = Recorder::with_capacity(3, Instant::now());
        for op in 0..10u64 {
            r.enter(SpanName::Op, op);
            r.span(SpanName::Malloc, op, || ());
            r.exit();
        }
        let rec = r.finish();
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.recorded, 20);
        assert_eq!(rec.totals[SpanName::Malloc as usize].count, 10);
        let op = rec.totals[SpanName::Op as usize];
        assert_eq!(
            op.self_ns,
            op.total_ns - rec.totals[SpanName::Malloc as usize].total_ns
        );
    }

    #[test]
    fn merge_rebases_parent_links() {
        let mut a = Recording {
            spans: vec![span(SpanName::Op, NO_PARENT, 0, 10)],
            recorded: 1,
            ..Default::default()
        };
        let b = Recording {
            spans: vec![
                span(SpanName::Op, NO_PARENT, 0, 10),
                span(SpanName::Free, 0, 2, 5),
            ],
            recorded: 2,
            ..Default::default()
        };
        a.merge(b);
        assert_eq!(a.recorded, 3);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(self_times(&a.spans), vec![10, 7, 3]);
    }
}
