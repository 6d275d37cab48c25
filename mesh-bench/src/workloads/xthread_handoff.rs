//! `xthread_handoff` — two threads; a producer allocates mixed-size
//! batches and hands them through a bounded ring to a consumer that
//! verifies and frees them; the roles swap halfway through each round.
//!
//! Why it exists: the malloc side is the same `shuffle_vector` pop as in
//! `fastpath_churn`, but practically every free is remote and takes the
//! `remote_free` → `transfer_cache` → `global_heap` class-lock route. It
//! is the "same layer used differently" workload: a local-free gain that
//! costs the remote path shows here.
//!
//! The consumer keeps every eighth object until the round's steady point
//! (so there is a live set to hold the footprint against), then frees
//! those too — still from the thread that did not allocate them.

use super::{rss_kib, Meter, Round, Workload};
use crate::backend::{Backend, ThreadAlloc};
use crate::gen::{self, SplitMix, StreamHash};
use crate::spans::{Recording, SpanName, Tracer};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub const BATCH: usize = 64;
const RING_SLOTS: usize = 8;
/// One object in this many is kept until the steady point.
const KEEP_EVERY: usize = 8;
/// Size classes the batches draw from: 16 B … 1024 B.
const CLASSES: usize = 20;

#[derive(Clone, Copy)]
struct Obj {
    ptr: *mut u8,
    id: u32,
    size: u32,
}

// SAFETY: an `Obj` is a plain record of an allocation; handing it to the
// other thread is the point of the workload, and whoever holds it has the
// only copy.
unsafe impl Send for Obj {}

const EMPTY: Obj = Obj {
    ptr: std::ptr::null_mut(),
    id: 0,
    size: 0,
};

type Batch = [Obj; BATCH];

/// Bounded single-producer single-consumer ring of batches.
struct Ring {
    slots: Box<[UnsafeCell<Batch>]>,
    /// Batches pushed so far (written by the producer only).
    head: AtomicUsize,
    /// Batches popped so far (written by the consumer only).
    tail: AtomicUsize,
}

// SAFETY: a slot is written only by the producer while `head - tail <
// RING_SLOTS` says the consumer is done with it, and read only by the
// consumer after the Release store of `head` that published it (and the
// reverse for `tail`), so no slot is ever accessed from both sides at once.
unsafe impl Sync for Ring {}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: (0..RING_SLOTS)
                .map(|_| UnsafeCell::new([EMPTY; BATCH]))
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn push(&self, batch: &Batch) {
        let head = self.head.load(Ordering::Relaxed);
        let mut spins = 0u32;
        // Acquire pairs with the consumer's Release store of `tail`.
        while head - self.tail.load(Ordering::Acquire) == RING_SLOTS {
            backoff(&mut spins);
        }
        // SAFETY: see `impl Sync`; the slot is free until `head` moves.
        unsafe { *self.slots[head % RING_SLOTS].get() = *batch };
        self.head.store(head + 1, Ordering::Release);
    }

    fn pop(&self, out: &mut Batch) {
        let tail = self.tail.load(Ordering::Relaxed);
        let mut spins = 0u32;
        // Acquire pairs with the producer's Release store of `head`.
        while self.head.load(Ordering::Acquire) == tail {
            backoff(&mut spins);
        }
        // SAFETY: see `impl Sync`; the slot was published by `head`.
        *out = unsafe { *self.slots[tail % RING_SLOTS].get() };
        self.tail.store(tail + 1, Ordering::Release);
    }
}

fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

pub struct Plan {
    /// Request sizes, `BATCH` per batch; the first half of the batches is
    /// produced by thread 0, the second half by thread 1.
    sizes: Vec<u16>,
}

impl Plan {
    pub fn new(seed: u64, smoke: bool) -> Plan {
        let batches = if smoke { 256 } else { 8192 };
        let mut rng = SplitMix::new(seed ^ 0x7a11_d0ff);
        let sizes = (0..batches * BATCH)
            .map(|_| {
                let class = rng.below(CLASSES as u64) as usize;
                gen::size_in_class(&mut rng, class) as u16
            })
            .collect();
        Plan { sizes }
    }

    pub fn hash(&self) -> u64 {
        let mut h = StreamHash::default();
        h.words(&self.sizes);
        h.finish()
    }

    fn batches(&self) -> usize {
        self.sizes.len() / BATCH
    }
}

/// What one of the two threads owns.
struct Side<H, T> {
    heap: H,
    meter: Meter,
    tracer: T,
    kept: Vec<Obj>,
    kept_bytes: u64,
}

pub struct XthreadHandoff<B: Backend, T: Tracer> {
    plan: Plan,
    sides: [Side<B::Heap, T>; 2],
    rings: [Ring; 2],
    next_id: u32,
}

fn produce<B: Backend, T: Tracer>(
    backend: &B,
    side: &mut Side<B::Heap, T>,
    ring: &Ring,
    sizes: &[u16],
    mut id: u32,
) {
    let mut batch: Batch = [EMPTY; BATCH];
    for chunk in sizes.chunks_exact(BATCH) {
        for (slot, &size) in batch.iter_mut().zip(chunk) {
            let size = size as usize;
            side.tracer.enter(SpanName::Op, u64::from(id));
            let ptr = side.meter.malloc(
                backend,
                &mut side.heap,
                &mut side.tracer,
                SpanName::Malloc,
                u64::from(id),
                size,
            );
            if !ptr.is_null() {
                // SAFETY: fresh allocation of `size` ≥ 16 bytes.
                unsafe { gen::stamp(ptr, u64::from(id), size) };
            }
            side.tracer.exit();
            *slot = Obj {
                ptr,
                id,
                size: size as u32,
            };
            id = id.wrapping_add(1);
        }
        side.tracer
            .span(SpanName::RingPush, u64::from(id), || ring.push(&batch));
    }
}

/// Checks `obj`'s stamps and frees it from the thread that did not
/// allocate it.
fn release_remote<H: ThreadAlloc, T: Tracer>(side: &mut Side<H, T>, obj: Obj) {
    if obj.ptr.is_null() {
        return;
    }
    side.tracer.enter(SpanName::Op, u64::from(obj.id));
    // SAFETY: the producer stamped `obj` with (`id`, `size`) and handed
    // over the only reference.
    unsafe {
        if !gen::stamp_ok(obj.ptr, u64::from(obj.id), obj.size as usize) {
            side.meter.failed += 1;
        }
        side.meter.free(
            &mut side.heap,
            &mut side.tracer,
            SpanName::FreeRemote,
            u64::from(obj.id),
            obj.ptr,
        );
    }
    side.tracer.exit();
}

fn consume<H: ThreadAlloc, T: Tracer>(side: &mut Side<H, T>, ring: &Ring, batches: usize) {
    let mut batch: Batch = [EMPTY; BATCH];
    for b in 0..batches {
        side.tracer
            .span(SpanName::RingPop, b as u64, || ring.pop(&mut batch));
        for (j, &obj) in batch.iter().enumerate() {
            if j % KEEP_EVERY == 0 && !obj.ptr.is_null() {
                side.kept.push(obj);
                side.kept_bytes += u64::from(obj.size);
            } else {
                release_remote(side, obj);
            }
        }
    }
    side.tracer.span(SpanName::Flush, 0, || side.heap.flush());
}

impl<B: Backend, T: Tracer> Workload<B, T> for XthreadHandoff<B, T> {
    const THREADS: usize = 2;

    fn setup(backend: &B, seed: u64, smoke: bool) -> Self {
        let plan = Plan::new(seed, smoke);
        let keep = plan.sizes.len() / 2 / KEEP_EVERY + BATCH;
        crate::tools::pin_to_cpu(0);
        let origin = Instant::now();
        let sides = [0, 1].map(|_| Side {
            heap: backend.thread_heap(),
            meter: Meter::default(),
            tracer: T::fresh(origin),
            kept: Vec::with_capacity(keep),
            kept_bytes: 0,
        });
        XthreadHandoff {
            plan,
            sides,
            rings: [Ring::new(), Ring::new()],
            next_id: 1,
        }
    }

    fn plan_hash(&self) -> u64 {
        self.plan.hash()
    }

    fn ops_per_round(&self) -> u64 {
        2 * self.plan.sizes.len() as u64
    }

    fn reset(&mut self) {
        let origin = Instant::now();
        for side in &mut self.sides {
            side.meter = Meter::default();
            side.tracer = T::fresh(origin);
        }
    }

    fn round(&mut self, backend: &B) -> Round {
        let half = self.plan.batches() / 2;
        let ops = self.ops_per_round();
        let (first, second) = self.plan.sizes.split_at(half * BATCH);
        let id0 = self.next_id;
        let id1 = id0.wrapping_add(first.len() as u32);
        self.next_id = id1.wrapping_add(second.len() as u32);
        let [ring_ab, ring_ba] = &self.rings;
        let [a, b] = &mut self.sides;

        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                crate::tools::pin_to_cpu(1);
                consume(b, ring_ab, half);
                produce(backend, b, ring_ba, second, id1);
            });
            produce(backend, a, ring_ab, first, id0);
            consume(a, ring_ba, half);
        });
        let mut secs = t0.elapsed().as_secs_f64();

        // Steady point: both halves done and flushed, the kept objects live.
        backend.settle();
        let steady = Round {
            steady_rss_kib: rss_kib(),
            heap_bytes: backend.mesh().map_or(0, |m| m.heap_bytes() as u64),
            live_req_bytes: a.kept_bytes + b.kept_bytes,
            ..Default::default()
        };

        let t1 = Instant::now();
        let drain = |side: &mut Side<B::Heap, T>| {
            let mut kept = std::mem::take(&mut side.kept);
            for obj in kept.drain(..) {
                release_remote(side, obj);
            }
            side.kept = kept;
            side.kept_bytes = 0;
            side.tracer.span(SpanName::Flush, 0, || side.heap.flush());
        };
        std::thread::scope(|s| {
            s.spawn(|| drain(b));
            drain(a);
        });
        secs += t1.elapsed().as_secs_f64();

        Round {
            ops,
            secs,
            ..steady
        }
    }

    fn finish(self, _backend: &B) -> (Meter, Recording) {
        let mut meter = Meter::default();
        let mut recording = Recording::default();
        for side in self.sides {
            meter.merge(&side.meter);
            recording.merge(side.tracer.into_recording());
        }
        (meter, recording)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_hands_every_batch_over_in_order() {
        let ring = Ring::new();
        let total = 1000usize;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut b: Batch = [EMPTY; BATCH];
                for i in 0..total {
                    for (j, o) in b.iter_mut().enumerate() {
                        o.id = (i * BATCH + j) as u32;
                    }
                    ring.push(&b);
                }
            });
            let mut got: Batch = [EMPTY; BATCH];
            for i in 0..total {
                ring.pop(&mut got);
                for (j, o) in got.iter().enumerate() {
                    assert_eq!(o.id as usize, i * BATCH + j);
                }
            }
        });
    }
}
