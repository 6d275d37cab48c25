//! The in-process workloads and what they share: the per-thread meter
//! (op counts, failures, the 1-in-64 latency sample), the round record,
//! and the child-side loop that sets up, warms, then replays fixed-size
//! rounds until its window closes.
//!
//! Every workload is a closed loop: one generator per thread issues its
//! next call when the previous one returned. A *round* is a fixed, seeded
//! number of malloc+free calls (recorded as `ops_per_round`); a run
//! replays as many whole rounds as fit its window and reports medians
//! over rounds.

use crate::backend::{Backend, ThreadAlloc};
use crate::spans::{Recording, SpanName, Tracer};
use crate::stats::LatHist;
use std::time::{Duration, Instant};

pub mod fastpath_churn;
pub mod frag_mesh;
pub mod span_lifecycle;
pub mod xthread_handoff;

/// Names of the five workloads, in reporting order.
pub const WORKLOADS: [&str; 5] = [
    "fastpath_churn",
    "frag_mesh",
    "xthread_handoff",
    "span_lifecycle",
    "preload_kv",
];

/// Why each workload exists, in one line (the `why` of `BENCHMARK.json`).
pub const WHY: [&str; 5] = [
    "1 thread, 4096-object window, random-victim replacement over all 24 small classes: \
     local_heap, shuffle_vector, page_map and refills; arena, sys, meshing idle, so slow-path changes must not move it",
    "fill, free a random 88 %, 3 mesh passes beside a light churn, twice (240 B then 492 B values): \
     meshing, remote-free drains, arena purge; where RSS, frag_ratio and p99-under-meshing live",
    "2 threads hand mixed-size batches through a ring, roles swap mid-round: the same malloc fast path, \
     but every free is remote (remote_free, transfer_cache, class locks)",
    "large objects and 1-16 KiB ramps drive 32 -> 384 -> 32 MiB with a purge at the trough, plus waves of \
     short-lived thread heaps: arena spans, segment grow/retire, sys faults and madvise",
    "Redis-shaped C program (kv.c), the same binary on glibc and under LD_PRELOAD=libmesh.so with default \
     inline meshing: the only workload that crosses the abi layer",
];

/// One measured round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Round {
    /// malloc+free calls made.
    pub ops: u64,
    /// Wall time of those calls (the idle tail of `preload_kv` excluded).
    pub secs: f64,
    /// Process RSS at the round's steady point.
    pub steady_rss_kib: u64,
    /// Committed heap bytes at the steady point (0 when the backend cannot
    /// say; the runner then falls back to RSS above the empty-heap RSS).
    pub heap_bytes: u64,
    /// Bytes the generator had requested and not yet freed at that point.
    pub live_req_bytes: u64,
}

/// Per-thread counters. `failed` counts null returns, stamp mismatches,
/// short `usable_size` answers and content mismatches.
#[derive(Debug, Default)]
pub struct Meter {
    pub hist: LatHist,
    pub attempted: u64,
    pub failed: u64,
    tick: u32,
}

/// One call in this many is timed individually.
pub const SAMPLE_EVERY: u32 = 64;

impl Meter {
    pub fn merge(&mut self, other: &Meter) {
        self.hist.merge(&other.hist);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `heap.malloc(size)` inside a span; every 64th call is timed and has
    /// its `usable_size` checked. A null return counts as a failure.
    #[inline(always)]
    pub fn malloc<B: Backend, T: Tracer>(
        &mut self,
        backend: &B,
        heap: &mut B::Heap,
        tr: &mut T,
        name: SpanName,
        op: u64,
        size: usize,
    ) -> *mut u8 {
        self.attempted += 1;
        self.tick = self.tick.wrapping_add(1);
        let p = if self.tick.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            let p = tr.span(name, op, || heap.malloc(size));
            self.hist.record(t0.elapsed().as_nanos() as u64);
            // SAFETY: `p` was returned by this backend a moment ago.
            if !p.is_null() && unsafe { backend.usable_size(p) } < size {
                self.failed += 1;
            }
            p
        } else {
            tr.span(name, op, || heap.malloc(size))
        };
        if p.is_null() {
            self.failed += 1;
        }
        p
    }

    /// `heap.free(p)` inside a span; every 64th call is timed.
    ///
    /// # Safety
    ///
    /// `p` must be live and from `heap`'s backend.
    #[inline(always)]
    pub unsafe fn free<H: ThreadAlloc, T: Tracer>(
        &mut self,
        heap: &mut H,
        tr: &mut T,
        name: SpanName,
        op: u64,
        p: *mut u8,
    ) {
        self.attempted += 1;
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            tr.span(name, op, || heap.free(p));
            self.hist.record(t0.elapsed().as_nanos() as u64);
        } else {
            tr.span(name, op, || heap.free(p));
        }
    }
}

/// What a child process is asked to do.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Scaled-down op counts (`--smoke`).
    pub smoke: bool,
    /// Times the set-up (plan, heap, warm-up round) is repeated and timed.
    pub setup_repeats: usize,
}

/// What a child reports back (see `report.rs` for the wire format).
#[derive(Debug, Default)]
pub struct ChildOutput {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    pub meter: Meter,
    pub ops_per_round: u64,
    pub plan_hash: u64,
    pub threads: usize,
    /// RSS with the heap built but empty, before the first warm-up.
    pub baseline_rss_kib: u64,
    pub recording: Recording,
    /// `HeapStats` movement over the measured rounds, flattened.
    pub stats: Vec<(String, f64)>,
    /// `VmHWM` once [`PEAK_ROUNDS`] measured rounds are done.
    pub hwm_kib: u64,
}

/// Measured rounds after which the peaks (`VmHWM`, committed pages) are
/// read. Every run gets this far whatever its window, so a peak never
/// depends on how many rounds a faster or slower build fits in.
pub const PEAK_ROUNDS: usize = 3;

/// A workload as the child loop drives it. `S` is whatever the workload
/// keeps between rounds (heap handles, live tables, worker threads).
pub trait Workload<B: Backend, T: Tracer>: Sized {
    const THREADS: usize;
    /// Generates the plan from `seed` and builds the state on `backend`.
    fn setup(backend: &B, seed: u64, smoke: bool) -> Self;
    fn plan_hash(&self) -> u64;
    fn ops_per_round(&self) -> u64;
    /// Forgets the counts, latency samples and spans gathered so far
    /// (called once the warm-up round is done).
    fn reset(&mut self);
    /// Replays one round.
    fn round(&mut self, backend: &B) -> Round;
    /// Frees everything and hands back the meter and the recorded spans.
    fn finish(self, backend: &B) -> (Meter, Recording);
}

/// Resident set size of this process in KiB (`/proc/self/statm`).
pub fn rss_kib() -> u64 {
    mesh_core::sys::process_rss_kb().unwrap_or(0)
}

/// The child-side loop shared by the four in-process workloads.
pub fn drive<B: Backend, T: Tracer, W: Workload<B, T>>(args: &ChildArgs) -> ChildOutput {
    let mut out = ChildOutput {
        threads: W::THREADS,
        ..Default::default()
    };
    // Set-up, several times over: plan generation, heap construction and
    // one warm-up round each. The last instance is the one measured.
    let mut live: Option<(B, W)> = None;
    for _ in 0..args.setup_repeats.max(1) {
        if let Some((backend, w)) = live.take() {
            drop(w.finish(&backend));
            drop(backend);
        }
        let t0 = Instant::now();
        let backend = B::create(args.seed);
        if out.baseline_rss_kib == 0 {
            out.baseline_rss_kib = rss_kib();
        }
        let mut w = W::setup(&backend, args.seed, args.smoke);
        w.round(&backend);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((backend, w));
    }
    let (backend, mut w) = live.expect("at least one set-up");
    out.plan_hash = w.plan_hash();
    out.ops_per_round = w.ops_per_round();

    w.reset();
    let before = backend.mesh().map(crate::heapstats::Snapshot::take);
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut pages_peak = 0;
    // At least `PEAK_ROUNDS` rounds, however slow: every run has a median.
    while out.rounds.len() < PEAK_ROUNDS || start.elapsed() < window {
        out.rounds.push(w.round(&backend));
        if out.rounds.len() == PEAK_ROUNDS {
            out.hwm_kib = crate::report::hwm_kib();
            pages_peak = backend.mesh().map_or(0, |m| m.stats().committed_pages_peak);
        }
    }
    if let (Some(mesh), Some(before)) = (backend.mesh(), before) {
        out.stats = crate::heapstats::flatten_delta(mesh, &before);
        out.stats
            .push(("committed_pages_peak".into(), pages_peak as f64));
    }
    (out.meter, out.recording) = w.finish(&backend);
    out
}

/// Runs in-process workload `args.workload` on backend `B`, traced or not.
pub fn run_in_process<B: Backend>(args: &ChildArgs, traced: bool) -> Result<ChildOutput, String> {
    use crate::spans::{NoTrace, Recorder};
    macro_rules! go {
        ($w:ident) => {
            if traced {
                drive::<B, Recorder, $w<B, Recorder>>(args)
            } else {
                drive::<B, NoTrace, $w<B, NoTrace>>(args)
            }
        };
    }
    use fastpath_churn::FastpathChurn;
    use frag_mesh::FragMesh;
    use span_lifecycle::SpanLifecycle;
    use xthread_handoff::XthreadHandoff;
    Ok(match args.workload.as_str() {
        "fastpath_churn" => go!(FastpathChurn),
        "frag_mesh" => go!(FragMesh),
        "xthread_handoff" => go!(XthreadHandoff),
        "span_lifecycle" => go!(SpanLifecycle),
        other => return Err(format!("{other:?} is not an in-process workload")),
    })
}
