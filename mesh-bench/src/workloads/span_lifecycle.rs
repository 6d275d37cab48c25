//! `span_lifecycle` — one thread at a time: large objects (20 KiB–4 MiB)
//! and ramps of span-hungry small objects (1–16 KiB) drive the live set
//! from a 32 MiB trough to a 384 MiB peak and back, with `purge_dirty` at
//! the trough, followed by a wave of short-lived thread heaps (create,
//! allocate, free, drop).
//!
//! Why it exists: `sys` (first-touch faults on the arena's file mappings,
//! madvise/fallocate on release) and `global_heap`'s large path do most of
//! the work; `arena` span alloc/free and `segment` grow/retire happen here
//! and nowhere else; shuffle vectors do little. `steady_rss_mib` here
//! answers "does memory come back?".
//!
//! The trough set is allocated once, before the first ramp, and stays live
//! for the whole run: it fits the initial segment, so every ramp has to
//! grow new segments and every trough can retire them. Every page of every
//! object is written, so RSS follows the live set.

use super::{rss_kib, Meter, Round, Workload};
use crate::backend::{Backend, ThreadAlloc};
use crate::gen::{self, SplitMix, StreamHash};
use crate::spans::{Recording, SpanName, Tracer};
use mesh_core::MAX_SMALL_SIZE;
use std::time::Instant;

const MIB: usize = 1 << 20;
const LARGE_MIN: usize = 20 << 10;
const LARGE_MAX: usize = 4 << 20;
/// Small-object classes of the ramps: 1 KiB … 16 KiB.
const RAMP_CLASSES: std::ops::Range<usize> = 19..24;
/// Objects per small-object ramp.
const RAMP_LEN: usize = 64;
/// Short-lived heaps per round, and objects each allocates.
const WAVE_HEAPS: usize = 64;
const WAVE_OBJECTS: usize = 2048;

pub struct Plan {
    /// Request sizes of the trough set, in allocation order.
    base: Vec<u32>,
    /// Request sizes of one ramp to the peak, in allocation order.
    transient: Vec<u32>,
    /// Order in which the ramp is freed again (indices into `transient`).
    free_order: Vec<u32>,
    /// Sizes the short-lived heaps allocate.
    wave: Vec<u16>,
}

/// Sizes summing to about `bytes`, in groups of three large objects and
/// one ramp of [`RAMP_LEN`] small ones (about seven eighths of the bytes are
/// in large objects).
///
/// The multiset is the same under every seed: the large sizes sit on a
/// fixed log-uniform grid over 20 KiB–4 MiB and every ramp cycles through
/// the same classes, so the calls per round, the bytes at the peak and the
/// share of calls that take the large path do not move with the seed. The
/// seed decides the order of the units and the request size inside a
/// ramp object's class.
fn size_mix(rng: &mut SplitMix, bytes: usize) -> Vec<u32> {
    let ratio = LARGE_MAX as f64 / LARGE_MIN as f64;
    let mean_large = (LARGE_MAX - LARGE_MIN) as f64 / ratio.ln();
    let mean_ramp: usize = (0..RAMP_LEN)
        .map(|j| mesh_core::size_classes::SIZE_CLASSES[ramp_class(j)] * 7 / 8)
        .sum();
    let groups = ((bytes as f64 / (3.0 * mean_large + mean_ramp as f64)).round() as usize).max(1);
    let larges = 3 * groups;
    // `Some(size)` is a large object, `None` a ramp.
    let mut units: Vec<Option<u32>> = (0..larges)
        .map(|k| Some((LARGE_MIN as f64 * ratio.powf((k as f64 + 0.5) / larges as f64)) as u32))
        .chain((0..groups).map(|_| None))
        .collect();
    rng.shuffle(&mut units);
    let mut sizes = Vec::with_capacity(larges + groups * RAMP_LEN);
    for unit in units {
        match unit {
            Some(size) => sizes.push(size),
            None => {
                sizes.extend((0..RAMP_LEN).map(|j| gen::size_in_class(rng, ramp_class(j)) as u32))
            }
        }
    }
    sizes
}

/// Class of the `j`th object of a ramp: 1 KiB, 2 KiB, … 16 KiB, and round again.
fn ramp_class(j: usize) -> usize {
    RAMP_CLASSES.start + j % RAMP_CLASSES.len()
}

impl Plan {
    pub fn new(seed: u64, smoke: bool) -> Plan {
        let (trough, peak) = if smoke {
            (4 * MIB, 24 * MIB)
        } else {
            (32 * MIB, 384 * MIB)
        };
        let mut rng = SplitMix::new(seed ^ 0x5ba9_11fe);
        let base = size_mix(&mut rng, trough);
        let transient = size_mix(&mut rng, peak - trough);
        let mut free_order: Vec<u32> = (0..transient.len() as u32).collect();
        rng.shuffle(&mut free_order);
        let wave = (0..WAVE_HEAPS * WAVE_OBJECTS)
            .map(|_| {
                let class = rng.below(16) as usize; // 16 B … 512 B
                gen::size_in_class(&mut rng, class) as u16
            })
            .collect();
        Plan {
            base,
            transient,
            free_order,
            wave,
        }
    }

    pub fn hash(&self) -> u64 {
        let mut h = StreamHash::default();
        h.words(&self.base);
        h.words(&self.transient);
        h.words(&self.free_order);
        h.words(&self.wave);
        h.finish()
    }
}

#[derive(Clone, Copy)]
struct Obj {
    ptr: *mut u8,
    id: u64,
    size: u32,
}

pub struct SpanLifecycle<B: Backend, T: Tracer> {
    plan: Plan,
    heap: B::Heap,
    base: Vec<Obj>,
    transient: Vec<Obj>,
    live_req: u64,
    next_id: u64,
    meter: Meter,
    tracer: T,
}

fn alloc<B: Backend, T: Tracer>(
    backend: &B,
    heap: &mut B::Heap,
    meter: &mut Meter,
    tracer: &mut T,
    id: u64,
    size: usize,
) -> Obj {
    let name = if size > MAX_SMALL_SIZE {
        SpanName::MallocLarge
    } else {
        SpanName::Malloc
    };
    tracer.enter(SpanName::Op, id);
    let ptr = meter.malloc(backend, heap, tracer, name, id, size);
    if !ptr.is_null() {
        // SAFETY: fresh allocation of `size` ≥ 16 bytes.
        unsafe {
            gen::stamp(ptr, id, size);
            tracer.span(SpanName::Touch, id, || gen::touch_pages(ptr, id, size));
        }
    }
    tracer.exit();
    Obj {
        ptr,
        id,
        size: size as u32,
    }
}

fn release<H: ThreadAlloc, T: Tracer>(heap: &mut H, meter: &mut Meter, tracer: &mut T, obj: Obj) {
    if obj.ptr.is_null() {
        return;
    }
    let size = obj.size as usize;
    let name = if size > MAX_SMALL_SIZE {
        SpanName::FreeLarge
    } else {
        SpanName::Free
    };
    tracer.enter(SpanName::Op, obj.id);
    // SAFETY: `obj` is live and was stamped with (`id`, `size`).
    unsafe {
        if !(gen::stamp_ok(obj.ptr, obj.id, size) && gen::pages_ok(obj.ptr, obj.id, size)) {
            meter.failed += 1;
        }
        meter.free(heap, tracer, name, obj.id, obj.ptr);
    }
    tracer.exit();
}

impl<B: Backend, T: Tracer> SpanLifecycle<B, T> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Trough → peak → trough on a thread heap of its own, dropped at the
    /// end so the spans it had attached go back and the segments the ramp
    /// grew can retire at the purge.
    fn ramp(&mut self, backend: &B) {
        let mut heap = self
            .tracer
            .span(SpanName::HeapCreate, 0, || backend.thread_heap());
        for i in 0..self.plan.transient.len() {
            let (id, size) = (self.id(), self.plan.transient[i] as usize);
            let obj = alloc(
                backend,
                &mut heap,
                &mut self.meter,
                &mut self.tracer,
                id,
                size,
            );
            self.live_req += size as u64;
            self.transient.push(obj);
        }
        for k in 0..self.plan.free_order.len() {
            let i = self.plan.free_order[k] as usize;
            let obj = self.transient[i];
            release(&mut heap, &mut self.meter, &mut self.tracer, obj);
            self.live_req -= u64::from(obj.size);
        }
        self.transient.clear();
        self.tracer.span(SpanName::HeapDrop, 0, || drop(heap));
    }

    fn heap_wave(&mut self, backend: &B) {
        let mut held: Vec<Obj> = Vec::with_capacity(WAVE_OBJECTS);
        for h in 0..WAVE_HEAPS {
            let mut heap = self
                .tracer
                .span(SpanName::HeapCreate, h as u64, || backend.thread_heap());
            for k in 0..WAVE_OBJECTS {
                let (id, size) = (self.id(), self.plan.wave[h * WAVE_OBJECTS + k] as usize);
                held.push(alloc(
                    backend,
                    &mut heap,
                    &mut self.meter,
                    &mut self.tracer,
                    id,
                    size,
                ));
            }
            for obj in held.drain(..) {
                release(&mut heap, &mut self.meter, &mut self.tracer, obj);
            }
            self.tracer
                .span(SpanName::HeapDrop, h as u64, || drop(heap));
        }
    }
}

impl<B: Backend, T: Tracer> Workload<B, T> for SpanLifecycle<B, T> {
    const THREADS: usize = 1;

    fn setup(backend: &B, seed: u64, smoke: bool) -> Self {
        let plan = Plan::new(seed, smoke);
        let mut w = SpanLifecycle {
            heap: backend.thread_heap(),
            base: Vec::with_capacity(plan.base.len()),
            transient: Vec::with_capacity(plan.transient.len()),
            live_req: 0,
            next_id: 0,
            meter: Meter::default(),
            tracer: T::fresh(Instant::now()),
            plan,
        };
        for i in 0..w.plan.base.len() {
            let (id, size) = (w.id(), w.plan.base[i] as usize);
            let obj = alloc(backend, &mut w.heap, &mut w.meter, &mut w.tracer, id, size);
            w.live_req += size as u64;
            w.base.push(obj);
        }
        w
    }

    fn plan_hash(&self) -> u64 {
        self.plan.hash()
    }

    fn ops_per_round(&self) -> u64 {
        2 * (self.plan.transient.len() + self.plan.wave.len()) as u64
    }

    fn reset(&mut self) {
        self.meter = Meter::default();
        self.tracer = T::fresh(Instant::now());
    }

    fn round(&mut self, backend: &B) -> Round {
        let t0 = Instant::now();
        self.ramp(backend);
        self.tracer.span(SpanName::Purge, 0, || backend.purge());
        // Steady point: the trough, after the purge.
        let steady = Round {
            steady_rss_kib: rss_kib(),
            heap_bytes: backend.mesh().map_or(0, |m| m.heap_bytes() as u64),
            live_req_bytes: self.live_req,
            ..Default::default()
        };
        self.heap_wave(backend);
        Round {
            ops: self.ops_per_round(),
            secs: t0.elapsed().as_secs_f64(),
            ..steady
        }
    }

    fn finish(mut self, _backend: &B) -> (Meter, Recording) {
        for obj in std::mem::take(&mut self.base) {
            release(&mut self.heap, &mut self.meter, &mut self.tracer, obj);
        }
        (self.meter, self.tracer.into_recording())
    }
}
